//! CRC-32 (IEEE 802.3 polynomial, reflected) as required by the gzip
//! trailer of every BGZF block, and used by the shard repository for
//! whole-file manifest checksums.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables (16 KiB)
//! fold sixteen input bytes per step with independent look-ups, which is
//! what the 64 KiB payloads and multi-megabyte shard files it runs over
//! want.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step.
const SLICES: usize = 16;

/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < SLICES {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Incremental CRC-32 hasher.
///
/// ```
/// use ngs_bgzf::crc32::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finish(), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a hasher in its initial state.
    #[inline]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(SLICES);
        for c in &mut chunks {
            // The running CRC folds into the first four bytes; byte `i`
            // of the chunk is followed by `15 − i` more, hence its table.
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the finished checksum. The hasher may keep being updated; the
    /// value returned always reflects all bytes fed so far.
    #[inline]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot convenience over [`Crc32`].
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bytes_match_bulk() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        let bulk = crc32(&data);
        let mut h = Crc32::new();
        for &b in &data {
            h.update(&[b]);
        }
        assert_eq!(h.finish(), bulk);
    }

    #[test]
    fn split_updates_match_bulk() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 3, 5, 63, 64, 65, 4095, 4096] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn known_values() {
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut h = Crc32::new();
        h.update(b"hello");
        let a = h.finish();
        let b = h.finish();
        assert_eq!(a, b);
        h.update(b" world");
        assert_eq!(h.finish(), crc32(b"hello world"));
    }
}
