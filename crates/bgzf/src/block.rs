//! BGZF block framing (SAM/BAM spec §4): each block is a gzip member whose
//! FEXTRA carries a `BC` subfield holding `BSIZE` (total block size − 1),
//! allowing a reader to hop block-to-block without inflating.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::crc32::crc32;
use crate::deflate::{deflate, Options};
use crate::error::{Error, Result};
use crate::gzip;
use crate::inflate::Inflater;

/// Maximum bytes of uncompressed payload per BGZF block. The format limits
/// a whole block to 64 KiB; 65280 leaves headroom for incompressible data,
/// matching htslib's choice.
pub const MAX_PAYLOAD: usize = 65280;

/// Size of the fixed BGZF block header (gzip header + 6-byte extra field).
pub const HEADER_SIZE: usize = 18;

/// Size of the gzip trailer (CRC32 + ISIZE).
pub const TRAILER_SIZE: usize = 8;

/// The canonical 28-byte BGZF end-of-file marker block.
pub const EOF_MARKER: [u8; 28] = [
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x06, 0x00, 0x42, 0x43, 0x02,
    0x00, 0x1b, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Compresses `payload` (≤ [`MAX_PAYLOAD`] bytes) into one BGZF block.
pub fn compress_block(payload: &[u8], opts: Options) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "BGZF payload exceeds {MAX_PAYLOAD} bytes");
    let body = deflate(payload, opts);
    let bsize = HEADER_SIZE + body.len() + TRAILER_SIZE;
    assert!(bsize <= 65536, "compressed BGZF block exceeds 64 KiB");
    let mut out = Vec::with_capacity(bsize);
    out.extend_from_slice(&gzip::MAGIC);
    out.push(gzip::CM_DEFLATE);
    out.push(gzip::flags::FEXTRA);
    out.extend_from_slice(&0u32.to_le_bytes()); // MTIME
    out.push(0); // XFL
    out.push(0xFF); // OS unknown
    out.extend_from_slice(&6u16.to_le_bytes()); // XLEN
    out.push(b'B');
    out.push(b'C');
    out.extend_from_slice(&2u16.to_le_bytes()); // SLEN
    out.extend_from_slice(&((bsize - 1) as u16).to_le_bytes()); // BSIZE-1
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    debug_assert_eq!(out.len(), bsize);
    crate::obs::record_deflate(payload.len(), out.len());
    out
}

/// Reads `BSIZE` (total size of the block) from a BGZF block header at
/// `data[0]` without decompressing.
pub fn peek_block_size(data: &[u8]) -> Result<usize> {
    if data.len() < HEADER_SIZE {
        return Err(Error::UnexpectedEof);
    }
    if data[0..2] != gzip::MAGIC || data[2] != gzip::CM_DEFLATE {
        return Err(Error::BadHeader("not a gzip member"));
    }
    if data[3] & gzip::flags::FEXTRA == 0 {
        return Err(Error::BadHeader("BGZF block lacks FEXTRA"));
    }
    let xlen = u16::from_le_bytes([data[10], data[11]]) as usize;
    if data.len() < 12 + xlen {
        return Err(Error::UnexpectedEof);
    }
    // Scan subfields for SI1='B', SI2='C'.
    let mut p = 12usize;
    let end = 12 + xlen;
    while p + 4 <= end {
        let si1 = data[p];
        let si2 = data[p + 1];
        let slen = u16::from_le_bytes([data[p + 2], data[p + 3]]) as usize;
        if si1 == b'B' && si2 == b'C' {
            if slen != 2 || p + 4 + 2 > end {
                return Err(Error::BadHeader("malformed BC subfield"));
            }
            let bsize = u16::from_le_bytes([data[p + 4], data[p + 5]]) as usize + 1;
            // A block must at least hold its own header and trailer.
            if bsize < 12 + xlen + TRAILER_SIZE {
                return Err(Error::BadHeader("BSIZE smaller than block framing"));
            }
            return Ok(bsize);
        }
        p += 4 + slen;
    }
    Err(Error::BadHeader("no BC subfield in FEXTRA"))
}

/// Decompresses one BGZF block at `data[0]`, verifying CRC and size.
/// Returns `(payload, block_size)`.
pub fn decompress_block(data: &[u8]) -> Result<(Vec<u8>, usize)> {
    let mut payload = Vec::new();
    let bsize = decompress_block_into(data, &mut Inflater::new(), &mut payload)?;
    Ok((payload, bsize))
}

/// Decompresses one BGZF block at `data[0]`, appending its payload to
/// `out`, with `inflater`'s scratch tables reused across calls. The
/// payload is inflated into exactly the `ISIZE` bytes the trailer
/// declares — a body that expands beyond them is corrupt at the first
/// byte too many — and its CRC verified. Returns the block size; on error
/// `out` is left as it was.
pub fn decompress_block_into(
    data: &[u8],
    inflater: &mut Inflater,
    out: &mut Vec<u8>,
) -> Result<usize> {
    let bsize = peek_block_size(data)?;
    if data.len() < bsize {
        return Err(Error::UnexpectedEof);
    }
    let block = &data[..bsize];
    let trailer = &block[bsize - TRAILER_SIZE..];
    let isize = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    // The spec bounds a block's uncompressed payload to 64 KiB, so a larger
    // ISIZE is corruption — reject it before sizing the inflate buffer
    // rather than letting a flipped trailer drive a multi-GiB allocation.
    if isize as usize > 65536 {
        return Err(Error::Corrupt("ISIZE exceeds the 64 KiB BGZF block limit"));
    }
    // The DEFLATE body sits between the fixed header and the trailer. The
    // header may in principle carry extra subfields, so re-parse its length.
    let xlen = u16::from_le_bytes([block[10], block[11]]) as usize;
    let body = &block[12 + xlen..bsize - TRAILER_SIZE];
    let start = out.len();
    out.resize(start + isize as usize, 0);
    let expected_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let checked = inflater.inflate_exact(body, &mut out[start..]).and_then(|_| {
        let actual_crc = crc32(&out[start..]);
        if actual_crc == expected_crc {
            Ok(())
        } else {
            Err(Error::ChecksumMismatch { expected: expected_crc, actual: actual_crc })
        }
    });
    if let Err(e) = checked {
        out.truncate(start);
        return Err(e);
    }
    crate::obs::record_inflate(bsize, isize as usize);
    Ok(bsize)
}

/// True if `data` ends with the canonical EOF marker block.
pub fn has_eof_marker(data: &[u8]) -> bool {
    data.len() >= EOF_MARKER.len() && data[data.len() - EOF_MARKER.len()..] == EOF_MARKER
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let payload = b"BAM\x01binary block payload".repeat(50);
        let block = compress_block(&payload, Options::default());
        let (out, used) = decompress_block(&block).unwrap();
        assert_eq!(out, payload);
        assert_eq!(used, block.len());
    }

    #[test]
    fn bsize_peek_matches_actual() {
        let block = compress_block(b"abcabcabc", Options::default());
        assert_eq!(peek_block_size(&block).unwrap(), block.len());
    }

    #[test]
    fn eof_marker_is_valid_empty_block() {
        let (payload, used) = decompress_block(&EOF_MARKER).unwrap();
        assert!(payload.is_empty());
        assert_eq!(used, EOF_MARKER.len());
    }

    #[test]
    fn eof_marker_detection() {
        let mut data = compress_block(b"x", Options::default());
        assert!(!has_eof_marker(&data));
        data.extend_from_slice(&EOF_MARKER);
        assert!(has_eof_marker(&data));
    }

    #[test]
    fn max_payload_block() {
        let payload = vec![0xA5u8; MAX_PAYLOAD];
        let block = compress_block(&payload, Options::default());
        assert!(block.len() <= 65536);
        let (out, _) = decompress_block(&block).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn incompressible_max_payload_fits() {
        // Worst case: stored blocks must still fit in 64 KiB.
        let payload: Vec<u8> =
            (0..MAX_PAYLOAD as u64).map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8).collect();
        let block = compress_block(&payload, Options::from_level(0));
        assert!(block.len() <= 65536, "stored block size {}", block.len());
        let (out, _) = decompress_block(&block).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut block = compress_block(b"payload bytes", Options::default());
        let n = block.len();
        block[n - 6] ^= 0x40;
        assert!(decompress_block(&block).is_err());
    }

    #[test]
    fn truncated_block_detected() {
        let block = compress_block(b"payload bytes here", Options::default());
        assert!(decompress_block(&block[..block.len() - 3]).is_err());
    }

    #[test]
    fn non_bgzf_gzip_rejected_by_peek() {
        let member = gzip::compress_member(b"plain gzip", None, Options::default());
        assert!(peek_block_size(&member).is_err());
    }
}
