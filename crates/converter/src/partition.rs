//! The paper's Algorithm 1: byte-even partitioning of a delimited text
//! dataset with boundary adjustment to record (line) boundaries.
//!
//! Both published variants are implemented:
//! * **forward** (the paper's choice): every rank but 0 scans *forward*
//!   from its initial start for the first line breaker and sends the
//!   adjusted start to its predecessor, which uses it as its end;
//! * **backward**: every rank but the last scans *backward* for the last
//!   line breaker and sends the adjusted end to its successor.
//!
//! A distributed version runs over the rank [`Communicator`] exactly as
//! written in the paper (send/recv + barrier); a serial version computes
//! all boundaries at once for shared-memory callers. Both must agree —
//! property-tested below and in `tests/`.

use ngs_cluster::{Communicator, Transport};
use ngs_formats::error::Result;
use ngs_formats::search::find_byte;

use crate::source::ByteSource;

/// Which boundary-adjustment direction to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Scan forward for the first line breaker (paper's Algorithm 1).
    #[default]
    Forward,
    /// Scan backward for the last line breaker.
    Backward,
}

/// A half-open byte range `[start, end)` owned by one rank.
pub type ByteRange = (u64, u64);

/// Scan window size while hunting for line breakers.
const SCAN_CHUNK: usize = 64 * 1024;

/// Finds the offset just past the first `\n` at or after `from`
/// (`len` if none remains).
pub fn next_record_start<S: ByteSource + ?Sized>(source: &S, from: u64) -> Result<u64> {
    let len = source.len();
    let mut pos = from;
    let mut buf = vec![0u8; SCAN_CHUNK];
    while pos < len {
        let n = source.read_at(pos, &mut buf)?;
        if n == 0 {
            break;
        }
        if let Some(i) = find_byte(&buf[..n], b'\n') {
            return Ok(pos + i as u64 + 1);
        }
        pos += n as u64;
    }
    Ok(len)
}

/// Finds the offset just past the last `\n` strictly before `from`
/// (0 if none).
pub fn prev_record_start<S: ByteSource + ?Sized>(source: &S, from: u64) -> Result<u64> {
    let mut end = from;
    let mut buf = vec![0u8; SCAN_CHUNK];
    while end > 0 {
        let start = end.saturating_sub(SCAN_CHUNK as u64);
        let want = (end - start) as usize;
        let got = source.read_at(start, &mut buf[..want])?;
        // A short read here can only mean EOF inside the window, which
        // cannot happen for start < end <= len; treat defensively.
        let window = &buf[..got.min(want)];
        if let Some(i) = window.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// The initial byte-even split: rank `i` of `n` gets
/// `[i*len/n, (i+1)*len/n)`.
pub fn even_split(len: u64, n: usize) -> Vec<ByteRange> {
    (0..n as u64)
        .map(|i| (i * len / n as u64, (i + 1) * len / n as u64))
        .collect()
}

/// Serial Algorithm 1: computes every rank's adjusted `[start, end)` in
/// one pass. Empty partitions (start ≥ end) are legal when partitions are
/// smaller than single records.
pub fn partition_serial<S: ByteSource + ?Sized>(
    source: &S,
    n: usize,
    variant: Variant,
) -> Result<Vec<ByteRange>> {
    assert!(n > 0);
    let len = source.len();
    let initial = even_split(len, n);
    let mut starts = Vec::with_capacity(n);
    match variant {
        Variant::Forward => {
            starts.push(0u64);
            for &(init_start, _) in initial.iter().skip(1) {
                starts.push(next_record_start(source, init_start)?);
            }
        }
        Variant::Backward => {
            starts.push(0u64);
            for &(init_start, _) in initial.iter().skip(1) {
                // The backward variant has rank i-1 find its own end by
                // scanning back from its initial end (== rank i's initial
                // start); the successor's start is that same offset.
                starts.push(prev_record_start(source, init_start)?);
            }
        }
    }
    let mut ranges = Vec::with_capacity(n);
    for i in 0..n {
        let start = starts[i];
        let end = if i + 1 < n { starts[i + 1] } else { len };
        ranges.push((start.min(end), end));
    }
    Ok(ranges)
}

/// Distributed Algorithm 1, executed by one rank. Mirrors the paper's
/// pseudocode: adjust the starting point, send it to the preceding
/// processor, receive the successor's start as this rank's end, barrier,
/// recompute length.
pub fn partition_distributed<S: ByteSource + ?Sized>(
    source: &S,
    comm: &Communicator,
    variant: Variant,
) -> Result<ByteRange> {
    const TAG_BOUNDARY: u64 = 0xA1;
    let len = source.len();
    let n = comm.size();
    let rank = comm.rank();
    let (init_start, _) = even_split(len, n)[rank];

    let range = match variant {
        Variant::Forward => {
            // Line 3-10: every rank but 0 slides its start forward.
            let start = if rank == 0 { 0 } else { next_record_start(source, init_start)? };
            // Line 11-15: send the new start to the predecessor; receive
            // the successor's start as our end.
            if rank != 0 {
                comm.send_u64(rank - 1, TAG_BOUNDARY, start)?;
            }
            let end = if rank != n - 1 { comm.recv_u64(rank + 1, TAG_BOUNDARY)? } else { len };
            (start.min(end), end)
        }
        Variant::Backward => {
            // Every rank but the last computes its end by scanning back;
            // sends it to the successor as that rank's start.
            let end = if rank == n - 1 {
                len
            } else {
                let e = prev_record_start(source, even_split(len, n)[rank + 1].0)?;
                comm.send_u64(rank + 1, TAG_BOUNDARY, e)?;
                e
            };
            let start = if rank == 0 { 0 } else { comm.recv_u64(rank - 1, TAG_BOUNDARY)? };
            (start.min(end), end)
        }
    };

    // Line 16: global barrier before lengths are considered final.
    comm.barrier()?;
    Ok(range)
}

/// Checks the partition invariants: coverage, order, disjointness, and
/// boundary alignment to line starts. Used by tests and debug assertions.
pub fn validate_partition<S: ByteSource + ?Sized>(
    source: &S,
    ranges: &[ByteRange],
) -> Result<bool> {
    let len = source.len();
    if ranges.is_empty() || ranges[0].0 != 0 || ranges.last().expect("non-empty").1 != len {
        return Ok(false);
    }
    for w in ranges.windows(2) {
        if w[0].1 != w[1].0 {
            return Ok(false);
        }
    }
    let mut one = [0u8; 1];
    for &(start, end) in ranges {
        if start > end {
            return Ok(false);
        }
        // Every non-zero boundary must sit just after a '\n'.
        if start > 0 && start < len {
            source.read_at(start - 1, &mut one)?;
            if one[0] != b'\n' {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::MemSource;
    use ngs_cluster::run_ranks;

    fn lines_text(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.extend_from_slice(format!("record-{i}\tpayload-{}\n", i * 31 % 101).as_bytes());
        }
        out
    }

    /// Recovers the lines of each range and checks they tile the input.
    fn assert_lines_tile(data: &[u8], ranges: &[ByteRange]) {
        let mut rebuilt = Vec::new();
        for &(s, e) in ranges {
            rebuilt.extend_from_slice(&data[s as usize..e as usize]);
        }
        assert_eq!(rebuilt, data);
        for &(s, e) in ranges {
            let part = &data[s as usize..e as usize];
            if !part.is_empty() {
                assert!(part.ends_with(b"\n") || e == data.len() as u64);
                // No partial first line: byte before start is '\n'.
                if s > 0 {
                    assert_eq!(data[s as usize - 1], b'\n');
                }
            }
        }
    }

    #[test]
    fn serial_forward_tiles_input() {
        let data = lines_text(1000);
        let src = MemSource::new(data.clone());
        for n in [1, 2, 3, 7, 16, 64] {
            let ranges = partition_serial(&src, n, Variant::Forward).unwrap();
            assert_eq!(ranges.len(), n);
            assert_lines_tile(&data, &ranges);
            assert!(validate_partition(&src, &ranges).unwrap());
        }
    }

    #[test]
    fn serial_backward_tiles_input() {
        let data = lines_text(1000);
        let src = MemSource::new(data.clone());
        for n in [1, 2, 5, 13, 32] {
            let ranges = partition_serial(&src, n, Variant::Backward).unwrap();
            assert_lines_tile(&data, &ranges);
            assert!(validate_partition(&src, &ranges).unwrap());
        }
    }

    #[test]
    fn partitions_are_roughly_even() {
        let data = lines_text(10_000);
        let src = MemSource::new(data.clone());
        let n = 8;
        let ranges = partition_serial(&src, n, Variant::Forward).unwrap();
        let ideal = data.len() as f64 / n as f64;
        for &(s, e) in &ranges {
            let sz = (e - s) as f64;
            assert!((sz - ideal).abs() < 100.0, "partition size {sz} vs ideal {ideal}");
        }
    }

    #[test]
    fn distributed_matches_serial() {
        let data = lines_text(500);
        let src = MemSource::new(data);
        for variant in [Variant::Forward, Variant::Backward] {
            for n in [1usize, 2, 4, 9] {
                let serial = partition_serial(&src, n, variant).unwrap();
                let dist = run_ranks(n, |comm| {
                    partition_distributed(&src, comm, variant).unwrap()
                });
                assert_eq!(dist, serial, "variant {variant:?}, n {n}");
            }
        }
    }

    #[test]
    fn more_ranks_than_lines_yields_empty_partitions() {
        let data = lines_text(3);
        let src = MemSource::new(data.clone());
        let ranges = partition_serial(&src, 16, Variant::Forward).unwrap();
        assert_lines_tile(&data, &ranges);
        let nonempty = ranges.iter().filter(|&&(s, e)| e > s).count();
        assert!(nonempty <= 3 + 1);
    }

    #[test]
    fn no_trailing_newline() {
        let mut data = lines_text(10);
        data.pop(); // drop final '\n'
        let src = MemSource::new(data.clone());
        for n in [2, 3, 5] {
            let ranges = partition_serial(&src, n, Variant::Forward).unwrap();
            let mut rebuilt = Vec::new();
            for &(s, e) in &ranges {
                rebuilt.extend_from_slice(&data[s as usize..e as usize]);
            }
            assert_eq!(rebuilt, data);
        }
    }

    #[test]
    fn empty_input() {
        let src = MemSource::new(Vec::new());
        let ranges = partition_serial(&src, 4, Variant::Forward).unwrap();
        assert!(ranges.iter().all(|&(s, e)| s == 0 && e == 0));
    }

    #[test]
    fn single_huge_line() {
        let mut data = vec![b'x'; 100_000];
        data.push(b'\n');
        let src = MemSource::new(data.clone());
        let ranges = partition_serial(&src, 8, Variant::Forward).unwrap();
        // Rank 0 gets everything; the rest are empty.
        assert_eq!(ranges[0], (0, data.len() as u64));
        assert!(ranges[1..].iter().all(|&(s, e)| s == e));
    }

    #[test]
    fn scan_helpers() {
        let src = MemSource::new(b"ab\ncd\nef".to_vec());
        assert_eq!(next_record_start(&src, 0).unwrap(), 3);
        assert_eq!(next_record_start(&src, 3).unwrap(), 6);
        assert_eq!(next_record_start(&src, 6).unwrap(), 8); // EOF
        assert_eq!(prev_record_start(&src, 8).unwrap(), 6);
        // A boundary already sitting at a line start stays put.
        assert_eq!(prev_record_start(&src, 6).unwrap(), 6);
        assert_eq!(prev_record_start(&src, 5).unwrap(), 3);
        assert_eq!(prev_record_start(&src, 2).unwrap(), 0);
    }
}
