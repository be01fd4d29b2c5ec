//! Coverage histograms: the bridge between the converter and the
//! statistical analysis module.
//!
//! "The histogram is calculated by aligning multiple sequence reads to a
//! reference genome and accumulating the frequencies overlapped along the
//! genome segments into binned peaks" (Section IV). The paper's
//! experiments use 25 bp bins over 16 Mbp.

use ngs_formats::bedgraph::{self, BedGraphRecord};
use ngs_formats::error::{Error, Result};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::view::{Alignment, FieldsView};

/// A binned 1-D coverage histogram over one or more chromosomes,
/// concatenated into a single bin axis (the layout the paper's NL-means
/// and FDR steps operate on).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageHistogram {
    /// Bin width in base pairs (the paper uses 25).
    pub bin_size: u32,
    /// Peak value per bin.
    pub bins: Vec<f64>,
    /// Per-chromosome extents: `(name, first_bin, n_bins)`.
    pub chroms: Vec<(Vec<u8>, usize, usize)>,
    /// Name → index into `chroms`; the first of a repeated name wins.
    chrom_index: std::collections::HashMap<Vec<u8>, usize>,
    /// Reference id of the shaping header → `chrom_index` of its name:
    /// records read as [`FieldsView`]s find their bins without a name
    /// lookup.
    by_ref_id: Vec<usize>,
}

/// `(chroms, chrom_index)` shaped by a header's reference dictionary,
/// the first of a repeated name winning in the index.
type Shape = (Vec<(Vec<u8>, usize, usize)>, std::collections::HashMap<Vec<u8>, usize>);

fn shape(header: &SamHeader, bin_size: u32) -> Shape {
    assert!(bin_size > 0);
    let mut chroms = Vec::with_capacity(header.references.len());
    let mut total = 0usize;
    for r in &header.references {
        let n = (r.length as usize).div_ceil(bin_size as usize);
        chroms.push((r.name.clone(), total, n));
        total += n;
    }
    let mut chrom_index = std::collections::HashMap::with_capacity(chroms.len());
    for (i, c) in chroms.iter().enumerate() {
        chrom_index.entry(c.0.clone()).or_insert(i);
    }
    (chroms, chrom_index)
}

impl CoverageHistogram {
    /// An empty histogram shaped by a header's reference dictionary.
    pub fn new(header: &SamHeader, bin_size: u32) -> Self {
        let (chroms, chrom_index) = shape(header, bin_size);
        let total = chroms.last().map_or(0, |c| c.1 + c.2);
        Self::with_shape(bin_size, vec![0.0; total], chroms, chrom_index)
    }

    fn with_shape(
        bin_size: u32,
        bins: Vec<f64>,
        chroms: Vec<(Vec<u8>, usize, usize)>,
        chrom_index: std::collections::HashMap<Vec<u8>, usize>,
    ) -> Self {
        let by_ref_id = chroms.iter().map(|c| chrom_index[&c.0]).collect();
        CoverageHistogram { bin_size, bins, chroms, chrom_index, by_ref_id }
    }

    /// Total number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when the histogram has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Adds one alignment's reference span into the bins (each read
    /// contributes its overlap length in bases ÷ bin size, so a fully
    /// covered bin gains 1.0 per covering read).
    pub fn add_alignment(&mut self, rec: &AlignmentRecord) -> bool {
        let (Some(start), Some(end)) = (rec.start0(), rec.end0()) else {
            return false;
        };
        match self.chrom_index.get(rec.rname.as_slice()) {
            Some(&chrom) => self.add_span(chrom, start, end),
            None => false,
        }
    }

    /// [`Self::add_alignment`] of a record read off a BAMX shard whose
    /// header shaped this histogram: its bins are found through its
    /// reference id, with no name lookup. Only the CIGAR is read besides
    /// FLAG and coordinates.
    pub fn add_fields(&mut self, view: &FieldsView<'_>) -> bool {
        let (Some(start), Some(end)) = (view.start0(), view.end0()) else {
            return false;
        };
        // Mapped, so the id names a reference of the header.
        let id = usize::try_from(view.fields().ref_id()).ok();
        match id.and_then(|id| self.by_ref_id.get(id)) {
            Some(&chrom) => self.add_span(chrom, start, end),
            None => false,
        }
    }

    /// Adds the span `start..end` on chromosome `chrom`.
    fn add_span(&mut self, chrom: usize, start: i64, end: i64) -> bool {
        let (_, first_bin, n_bins) = self.chroms[chrom];
        let bs = self.bin_size as i64;
        let lo_bin = (start / bs).clamp(0, n_bins as i64 - 1) as usize;
        let hi_bin = ((end - 1) / bs).clamp(0, n_bins as i64 - 1) as usize;
        for bin in lo_bin..=hi_bin {
            let bin_start = bin as i64 * bs;
            let bin_end = bin_start + bs;
            let overlap = end.min(bin_end) - start.max(bin_start);
            if overlap > 0 {
                self.bins[first_bin + bin] += overlap as f64 / bs as f64;
            }
        }
        true
    }

    /// Builds a histogram from alignments.
    pub fn from_records<'a>(
        header: &SamHeader,
        bin_size: u32,
        records: impl IntoIterator<Item = &'a AlignmentRecord>,
    ) -> Self {
        let mut h = Self::new(header, bin_size);
        for r in records {
            h.add_alignment(r);
        }
        h
    }

    /// Accumulates BEDGRAPH text (as produced by the converter) into the
    /// histogram.
    pub fn add_bedgraph_text(&mut self, text: &[u8]) -> Result<u64> {
        let mut n = 0u64;
        for line in text.split(|&b| b == b'\n') {
            let line =
                if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
            if line.is_empty() || line.starts_with(b"track") || line.starts_with(b"#") {
                continue;
            }
            let rec = bedgraph::parse_record(line)?;
            self.add_interval(&rec)?;
            n += 1;
        }
        Ok(n)
    }

    /// Accumulates one BEDGRAPH interval.
    pub fn add_interval(&mut self, rec: &BedGraphRecord) -> Result<()> {
        let Some(&(_, first_bin, n_bins)) =
            self.chrom_index.get(rec.chrom.as_slice()).map(|&i| &self.chroms[i])
        else {
            return Err(Error::UnknownReference(
                String::from_utf8_lossy(&rec.chrom).into_owned(),
            ));
        };
        let bs = self.bin_size as i64;
        if rec.end <= rec.start {
            return Ok(());
        }
        let lo_bin = (rec.start / bs).clamp(0, n_bins as i64 - 1) as usize;
        let hi_bin = ((rec.end - 1) / bs).clamp(0, n_bins as i64 - 1) as usize;
        for bin in lo_bin..=hi_bin {
            let bin_start = bin as i64 * bs;
            let bin_end = bin_start + bs;
            let overlap = rec.end.min(bin_end) - rec.start.max(bin_start);
            if overlap > 0 {
                self.bins[first_bin + bin] += rec.value * overlap as f64 / bs as f64;
            }
        }
        Ok(())
    }

    /// Builds a histogram directly from BEDGRAPH text without a header,
    /// inferring each chromosome's extent from the largest interval end
    /// observed (useful for standalone track files).
    pub fn from_bedgraph_auto(text: &[u8], bin_size: u32) -> Result<Self> {
        assert!(bin_size > 0);
        // Pass 1: chromosome extents in first-appearance order.
        let mut order: Vec<Vec<u8>> = Vec::new();
        let mut extents: Vec<i64> = Vec::new();
        let mut records = Vec::new();
        for line in text.split(|&b| b == b'\n') {
            let line =
                if line.last() == Some(&b'\r') { &line[..line.len() - 1] } else { line };
            if line.is_empty() || line.starts_with(b"track") || line.starts_with(b"#") {
                continue;
            }
            let rec = bedgraph::parse_record(line)?;
            match order.iter().position(|c| c == &rec.chrom) {
                Some(i) => extents[i] = extents[i].max(rec.end),
                None => {
                    order.push(rec.chrom.clone());
                    extents.push(rec.end);
                }
            }
            records.push(rec);
        }
        let refs: Vec<crate::histogram::RefExtent> = order
            .into_iter()
            .zip(extents)
            .map(|(name, end)| RefExtent { name, length: end.max(1) as u64 })
            .collect();
        let header = ngs_formats::header::SamHeader::from_references(
            refs.iter()
                .map(|r| ngs_formats::header::ReferenceSequence {
                    name: r.name.clone(),
                    length: r.length,
                })
                .collect(),
        );
        let mut h = Self::new(&header, bin_size);
        for rec in &records {
            h.add_interval(rec)?;
        }
        Ok(h)
    }

    /// Emits the histogram as BEDGRAPH text (one line per non-zero bin).
    pub fn to_bedgraph(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (name, first_bin, n_bins) in &self.chroms {
            for i in 0..*n_bins {
                let v = self.bins[first_bin + i];
                if v != 0.0 {
                    let rec = BedGraphRecord {
                        chrom: name.clone(),
                        start: i as i64 * self.bin_size as i64,
                        end: (i as i64 + 1) * self.bin_size as i64,
                        value: v,
                    };
                    bedgraph::write_record(&rec, &mut out);
                }
            }
        }
        out
    }

    /// Mean bin value.
    pub fn mean(&self) -> f64 {
        if self.bins.is_empty() {
            0.0
        } else {
            self.bins.iter().sum::<f64>() / self.bins.len() as f64
        }
    }
}

/// Integer-exact binned overlap counts — the order-independent coverage
/// accumulator for a parallel pass: each worker fills integer partial
/// bins and one exact [`merge`](BinnedCounts::merge) combines them.
///
/// [`CoverageHistogram::add_alignment`] accumulates fractional
/// `overlap / bin_size` terms, so the last float bits of a bin depend on
/// summation order — unacceptable when batches are assigned to workers
/// by scheduling. `BinnedCounts` instead accumulates the integer overlap
/// *base pairs* per bin: integer sums commute exactly, so any partition
/// of the records over any number of workers merges to identical counts,
/// and the single division by `bin_size` happens in
/// [`BinnedCounts::into_histogram`]. The result agrees with the
/// sequential float path to ~1e-9 relative error (one rounding per bin
/// instead of one per record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinnedCounts {
    /// Bin width in base pairs.
    bin_size: u32,
    /// Covered base pairs per bin.
    counts: Vec<u64>,
    /// Per-chromosome extents: `(name, first_bin, n_bins)`.
    chroms: Vec<(Vec<u8>, usize, usize)>,
    /// Name → index into `chroms`.
    chrom_index: std::collections::HashMap<Vec<u8>, usize>,
}

impl BinnedCounts {
    /// An empty counter shaped by a header's reference dictionary,
    /// mirroring [`CoverageHistogram::new`].
    pub fn new(header: &SamHeader, bin_size: u32) -> Self {
        let (chroms, chrom_index) = shape(header, bin_size);
        let total = chroms.last().map_or(0, |c| c.1 + c.2);
        BinnedCounts { bin_size, counts: vec![0; total], chroms, chrom_index }
    }

    /// Total number of bins.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the counter has no bins.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Adds one alignment's reference span as integer base pairs per
    /// bin (same span logic as [`CoverageHistogram::add_alignment`]).
    pub fn add_alignment(&mut self, rec: &AlignmentRecord) -> bool {
        let (Some(start), Some(end)) = (rec.start0(), rec.end0()) else {
            return false;
        };
        let Some(&(_, first_bin, n_bins)) =
            self.chrom_index.get(rec.rname.as_slice()).map(|&i| &self.chroms[i])
        else {
            return false;
        };
        let bs = self.bin_size as i64;
        let lo_bin = (start / bs).clamp(0, n_bins as i64 - 1) as usize;
        let hi_bin = ((end - 1) / bs).clamp(0, n_bins as i64 - 1) as usize;
        for bin in lo_bin..=hi_bin {
            let bin_start = bin as i64 * bs;
            let bin_end = bin_start + bs;
            let overlap = end.min(bin_end) - start.max(bin_start);
            if overlap > 0 {
                self.counts[first_bin + bin] += overlap as u64;
            }
        }
        true
    }

    /// Merges another partial counter in. Exact and commutative, so the
    /// merge order of worker partials never matters. Fails when the two
    /// counters were shaped by different headers or bin sizes.
    pub fn merge(&mut self, other: &BinnedCounts) -> Result<()> {
        if self.bin_size != other.bin_size || self.chroms != other.chroms {
            return Err(Error::InvalidRecord(
                "BinnedCounts shape mismatch: partials must share header and bin size".into(),
            ));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        Ok(())
    }

    /// Total covered base pairs across all bins.
    pub fn total_bases(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Converts to the float histogram the NL-means/FDR stages consume
    /// (one `counts / bin_size` rounding per bin).
    pub fn into_histogram(self) -> CoverageHistogram {
        let bs = self.bin_size as f64;
        let bins = self.counts.iter().map(|&c| c as f64 / bs).collect();
        CoverageHistogram::with_shape(self.bin_size, bins, self.chroms, self.chrom_index)
    }
}

/// A named reference extent inferred from data (see
/// [`CoverageHistogram::from_bedgraph_auto`]).
#[derive(Debug, Clone)]
pub(crate) struct RefExtent {
    pub(crate) name: Vec<u8>,
    pub(crate) length: u64,
}

/// Mean squared error between two series.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>() / a.len() as f64
}

/// Peak signal-to-noise ratio (dB) of `noisy` against `clean`.
pub fn psnr(clean: &[f64], noisy: &[f64]) -> f64 {
    let peak = clean.iter().cloned().fold(f64::MIN, f64::max);
    let err = mse(clean, noisy);
    if err == 0.0 {
        f64::INFINITY
    } else {
        10.0 * ((peak * peak) / err).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_formats::header::ReferenceSequence;
    use ngs_formats::sam;

    fn header() -> SamHeader {
        SamHeader::from_references(vec![
            ReferenceSequence { name: b"chr1".to_vec(), length: 1000 },
            ReferenceSequence { name: b"chr2".to_vec(), length: 500 },
        ])
    }

    #[test]
    fn shape_from_header() {
        let h = CoverageHistogram::new(&header(), 25);
        assert_eq!(h.len(), 40 + 20);
        assert_eq!(h.chroms[0], (b"chr1".to_vec(), 0, 40));
        assert_eq!(h.chroms[1], (b"chr2".to_vec(), 40, 20));
    }

    #[test]
    fn single_read_coverage() {
        let mut h = CoverageHistogram::new(&header(), 25);
        // Read covering exactly bin 2 of chr1: positions 50..75 (0-based).
        let rec = sam::parse_record(
            b"r\t0\tchr1\t51\t60\t25M\t*\t0\t0\t*\t*",
            1,
        )
        .unwrap();
        assert!(h.add_alignment(&rec));
        assert!((h.bins[2] - 1.0).abs() < 1e-12);
        assert_eq!(h.bins.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn read_spanning_bins_splits_coverage() {
        let mut h = CoverageHistogram::new(&header(), 25);
        // 0-based 40..90: 10 bases in bin 1, 25 in bin 2, 15 in bin 3.
        let rec = sam::parse_record(b"r\t0\tchr1\t41\t60\t50M\t*\t0\t0\t*\t*", 1).unwrap();
        h.add_alignment(&rec);
        assert!((h.bins[1] - 0.4).abs() < 1e-12);
        assert!((h.bins[2] - 1.0).abs() < 1e-12);
        assert!((h.bins[3] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn second_chromosome_offsets() {
        let mut h = CoverageHistogram::new(&header(), 25);
        let rec = sam::parse_record(b"r\t0\tchr2\t1\t60\t25M\t*\t0\t0\t*\t*", 1).unwrap();
        h.add_alignment(&rec);
        assert!((h.bins[40] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unmapped_and_unknown_ignored() {
        let mut h = CoverageHistogram::new(&header(), 25);
        let un = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        assert!(!h.add_alignment(&un));
        let other = sam::parse_record(b"r\t0\tchrX\t1\t60\t25M\t*\t0\t0\t*\t*", 1).unwrap();
        assert!(!h.add_alignment(&other));
        assert!(h.bins.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bedgraph_roundtrip() {
        let hdr = header();
        let mut h = CoverageHistogram::new(&hdr, 25);
        let rec = sam::parse_record(b"r\t0\tchr1\t26\t60\t50M\t*\t0\t0\t*\t*", 1).unwrap();
        h.add_alignment(&rec);
        let text = h.to_bedgraph();
        let mut h2 = CoverageHistogram::new(&hdr, 25);
        h2.add_bedgraph_text(&text).unwrap();
        for (a, b) in h.bins.iter().zip(&h2.bins) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bedgraph_from_converter_output_accumulates() {
        let mut h = CoverageHistogram::new(&header(), 25);
        let text = b"track type=bedGraph name=\"x\"\nchr1\t0\t25\t1\nchr1\t0\t25\t1\nchr2\t25\t50\t3\n";
        let n = h.add_bedgraph_text(text).unwrap();
        assert_eq!(n, 3);
        assert!((h.bins[0] - 2.0).abs() < 1e-12);
        assert!((h.bins[41] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_chrom_in_bedgraph_errors() {
        let mut h = CoverageHistogram::new(&header(), 25);
        assert!(h.add_bedgraph_text(b"chrQ\t0\t25\t1\n").is_err());
    }

    #[test]
    fn metrics() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 5.0];
        assert!((mse(&a, &b) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        assert!(psnr(&a, &b) > 0.0);
        assert_eq!(mse(&[], &[]), 0.0);
    }

    #[test]
    fn binned_counts_match_float_histogram() {
        let hdr = header();
        let recs: Vec<_> = [
            b"r1\t0\tchr1\t41\t60\t50M\t*\t0\t0\t*\t*".as_slice(),
            b"r2\t0\tchr1\t51\t60\t25M\t*\t0\t0\t*\t*".as_slice(),
            b"r3\t0\tchr2\t1\t60\t30M\t*\t0\t0\t*\t*".as_slice(),
        ]
        .iter()
        .map(|l| sam::parse_record(l, 1).unwrap())
        .collect();
        let float = CoverageHistogram::from_records(&hdr, 25, &recs);
        let mut counts = BinnedCounts::new(&hdr, 25);
        for r in &recs {
            counts.add_alignment(r);
        }
        let int = counts.into_histogram();
        assert_eq!(float.len(), int.len());
        for (a, b) in float.bins.iter().zip(&int.bins) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn binned_counts_merge_is_exact_for_any_partition() {
        let hdr = header();
        let recs: Vec<_> = (0..40)
            .map(|i| {
                let line = format!("r{i}\t0\tchr1\t{}\t60\t37M\t*\t0\t0\t*\t*", 1 + i * 13);
                sam::parse_record(line.as_bytes(), 1).unwrap()
            })
            .collect();
        let mut whole = BinnedCounts::new(&hdr, 25);
        for r in &recs {
            whole.add_alignment(r);
        }
        // Any split, merged in any order, gives bitwise-equal counts.
        for split in [1, 7, 20, 39] {
            let mut a = BinnedCounts::new(&hdr, 25);
            let mut b = BinnedCounts::new(&hdr, 25);
            for r in &recs[..split] {
                a.add_alignment(r);
            }
            for r in &recs[split..] {
                b.add_alignment(r);
            }
            // Merge b into a and, separately, a into b: same result.
            let mut ab = a.clone();
            ab.merge(&b).unwrap();
            let mut ba = b.clone();
            ba.merge(&a).unwrap();
            assert_eq!(ab, whole);
            assert_eq!(ba, whole);
        }
    }

    #[test]
    fn binned_counts_shape_mismatch_is_error() {
        let a = BinnedCounts::new(&header(), 25);
        let mut b = BinnedCounts::new(&header(), 50);
        assert!(b.merge(&a).is_err());
        let other = SamHeader::from_references(vec![ReferenceSequence {
            name: b"chrZ".to_vec(),
            length: 100,
        }]);
        let mut c = BinnedCounts::new(&other, 25);
        assert!(c.merge(&a).is_err());
    }

    #[test]
    fn binned_counts_skips_unmapped_and_unknown() {
        let mut c = BinnedCounts::new(&header(), 25);
        let un = sam::parse_record(b"r\t4\t*\t0\t0\t*\t*\t0\t0\t*\t*", 1).unwrap();
        assert!(!c.add_alignment(&un));
        let other = sam::parse_record(b"r\t0\tchrX\t1\t60\t25M\t*\t0\t0\t*\t*", 1).unwrap();
        assert!(!c.add_alignment(&other));
        assert_eq!(c.total_bases(), 0);
    }

    #[test]
    fn mean_value() {
        let mut h = CoverageHistogram::new(
            &SamHeader::from_references(vec![ngs_formats::header::ReferenceSequence {
                name: b"c".to_vec(),
                length: 75,
            }]),
            25,
        );
        h.bins = vec![1.0, 2.0, 3.0];
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;

    #[test]
    fn from_bedgraph_auto_infers_extents() {
        let text = b"track type=bedGraph name=\"x\"\nchr1\t0\t25\t2\nchr1\t975\t1000\t1\nchr2\t0\t50\t3\n";
        let h = CoverageHistogram::from_bedgraph_auto(text, 25).unwrap();
        assert_eq!(h.chroms.len(), 2);
        assert_eq!(h.chroms[0].0, b"chr1");
        assert_eq!(h.chroms[0].2, 40); // 1000 / 25
        assert_eq!(h.chroms[1].2, 2); // 50 / 25
        assert!((h.bins[0] - 2.0).abs() < 1e-12);
        assert!((h.bins[39] - 1.0).abs() < 1e-12);
        assert!((h.bins[40] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn auto_roundtrips_with_to_bedgraph() {
        let text = b"chrA\t0\t25\t5\nchrA\t50\t75\t2.5\n";
        let h = CoverageHistogram::from_bedgraph_auto(text, 25).unwrap();
        let out = h.to_bedgraph();
        let h2 = CoverageHistogram::from_bedgraph_auto(&out, 25).unwrap();
        assert_eq!(h.bins, h2.bins);
    }

    #[test]
    fn empty_text() {
        let h = CoverageHistogram::from_bedgraph_auto(b"", 25).unwrap();
        assert!(h.is_empty());
    }
}
