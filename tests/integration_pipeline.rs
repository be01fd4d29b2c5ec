//! End-to-end integration over the crates: statistics over converter
//! output, the parallel kernels against the sequential ones, and
//! partial conversion correctness against a brute-force reference.

use std::path::Path;

use ngs_bamx::{BamxFile, Region};
use ngs_converter::{BamConverter, ConvertConfig, ConvertReport, TargetFormat};
use ngs_repro::histogram_from_sam;
use ngs_simgen::{Dataset, DatasetSpec};
use ngs_stats::{
    fdr_fused, fdr_parallel, nlmeans_distributed, nlmeans_sequential, CoverageHistogram,
    NlMeansParams, NullModel,
};
use tempfile::tempdir;

const NLMEANS: NlMeansParams = NlMeansParams { search_radius: 6, half_patch: 2, sigma: 5.0 };

/// Preprocesses `bam` under `out/bamx`, then converts the records of
/// `region` on `ranks` ranks.
fn convert_bam_region(
    bam: &Path,
    region: &str,
    target: TargetFormat,
    out: &Path,
    ranks: usize,
) -> ConvertReport {
    let conv = BamConverter::new(ConvertConfig::with_ranks(ranks));
    let prep = conv.preprocess(bam, out.join("bamx")).unwrap();
    let header = BamxFile::open(&prep.bamx_path).unwrap().header().clone();
    let region = Region::parse(region, &header).unwrap();
    conv.convert_partial(&prep.bamx_path, &prep.baix_path, &region, target, out).unwrap()
}

#[test]
fn histogram_pipeline_equals_ground_truth() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec { n_records: 600, ..Default::default() });
    let sam = dir.path().join("in.sam");
    ds.write_sam(&sam).unwrap();

    let via_converter = histogram_from_sam(&sam, dir.path().join("bg"), 25, 3).unwrap();
    let truth = CoverageHistogram::from_records(&ds.header(), 25, &ds.records);
    assert_eq!(via_converter.len(), truth.len());
    let max_err = via_converter
        .bins
        .iter()
        .zip(&truth.bins)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_err < 1e-6, "max bin error {max_err}");
}

#[test]
fn denoise_and_fdr_through_facade_match_kernels() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec { n_records: 500, ..Default::default() });
    let sam = dir.path().join("in.sam");
    ds.write_sam(&sam).unwrap();

    let hist = histogram_from_sam(&sam, dir.path().join("bg"), 25, 4).unwrap();

    let parallel = nlmeans_distributed(&hist.bins, &NLMEANS, 4).0;
    let kernel = nlmeans_sequential(&hist.bins, &NLMEANS);
    assert_eq!(parallel, kernel);

    let input = ngs_stats::build_fdr_input(parallel.clone(), 6, NullModel::Poisson, 11);
    let via_parallel = fdr_parallel(&input, 2.0, 4).0;
    let via_kernel = fdr_fused(&input, 2.0);
    assert_eq!(via_parallel.to_bits(), via_kernel.to_bits());
}

#[test]
fn partial_conversion_matches_bruteforce_filter() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 1500,
        coordinate_sorted: true,
        ..Default::default()
    });
    let bam = dir.path().join("in.bam");
    ds.write_bam(&bam).unwrap();

    let chr1_len = ds.header().references[0].length as i64;
    let (lo, hi) = (chr1_len / 5, chr1_len / 2);
    let region = format!("chr1:{}-{}", lo + 1, hi);
    let report =
        convert_bam_region(&bam, &region, TargetFormat::Bed, &dir.path().join("out"), 4);

    let expected: u64 = ds
        .records
        .iter()
        .filter(|r| {
            r.rname == b"chr1"
                && r.start0().map(|s| s >= lo && s < hi).unwrap_or(false)
        })
        .count() as u64;
    assert_eq!(report.records_in(), expected);
    assert!(expected > 0, "test region must contain reads");

    // The BED output intervals all start inside the region.
    for path in &report.outputs {
        let text = std::fs::read(path).unwrap();
        for line in text.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let rec = ngs_formats::bed::parse_record(line).unwrap();
            assert!(rec.start >= lo && rec.start < hi, "start {} outside", rec.start);
        }
    }
}

#[test]
fn whole_chromosome_partial_equals_chromosome_filter() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 800,
        coordinate_sorted: true,
        ..Default::default()
    });
    let bam = dir.path().join("in.bam");
    ds.write_bam(&bam).unwrap();

    let report =
        convert_bam_region(&bam, "chr2", TargetFormat::Json, &dir.path().join("out"), 2);
    let expected =
        ds.records.iter().filter(|r| r.rname == b"chr2" && !r.is_unmapped()).count() as u64;
    assert_eq!(report.records_in(), expected);
}

#[test]
fn facade_bam_roundtrip_preserves_records() {
    let dir = tempdir().unwrap();
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 400,
        coordinate_sorted: true,
        ..Default::default()
    });
    let bam = dir.path().join("in.bam");
    ds.write_bam(&bam).unwrap();

    let out = dir.path().join("out");
    let conv = BamConverter::new(ConvertConfig::with_ranks(3));
    let prep = conv.preprocess(&bam, out.join("bamx")).unwrap();
    let report = conv.convert_bamx(&prep.bamx_path, TargetFormat::Sam, &out).unwrap();
    assert_eq!(prep.records, 400);

    let mut outputs = report.outputs.clone();
    outputs.sort();
    let mut all = Vec::new();
    for p in outputs {
        all.extend_from_slice(&std::fs::read(p).unwrap());
    }
    let mut reader = ngs_formats::sam::SamReader::new(std::io::Cursor::new(&all)).unwrap();
    let records: Vec<_> = reader.records().map(|r| r.unwrap()).collect();
    assert_eq!(records, ds.records);
}
