//! Partial conversion: preprocess a BAM once, then extract and convert
//! only a chromosome region — the paper's "avoid blindly converting the
//! entire dataset" use case (Section III-B).
//!
//! ```text
//! cargo run --release --example region_extract
//! ```

use ngs_bamx::{Baix, BamxFile, BinnedIndex, Region};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};
use ngs_simgen::{Dataset, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_root = std::env::temp_dir().join("ngs-region-extract");
    std::fs::create_dir_all(&out_root)?;

    // A coordinate-sorted BAM (as the paper's 117 GB input was).
    let spec = DatasetSpec {
        n_records: 25_000,
        coordinate_sorted: true,
        ..Default::default()
    };
    let ds = Dataset::generate(&spec);
    let bam_path = out_root.join("sample.bam");
    ds.write_bam(&bam_path)?;

    // One-time sequential preprocessing: BAM -> BAMX + BAIX.
    let conv = BamConverter::new(ConvertConfig::with_ranks(4));
    let prep = conv.preprocess(&bam_path, out_root.join("bamx"))?;
    println!(
        "preprocessed {} records into {} (+ index) in {:?}; fixed record size {} bytes",
        prep.records,
        prep.bamx_path.display(),
        prep.elapsed,
        prep.layout.record_size(),
    );

    // Partial conversion of the first half of chr1 into SAM.
    let shard = BamxFile::open(&prep.bamx_path)?;
    let chr1_len = shard.header().references[0].length as i64;
    // An interior region: reads that start before it but span into it are
    // found by the binned overlap index, not by BAIX start search.
    let region = Region::new("chr1", chr1_len / 4, 3 * chr1_len / 4)?;
    println!("extracting region {region}");

    let report = conv.convert_partial(
        &prep.bamx_path,
        &prep.baix_path,
        &region,
        TargetFormat::Sam,
        out_root.join("partial"),
    )?;
    println!(
        "partial conversion: {} records in region ({}% of dataset) across {} rank files in {:?}",
        report.records_in(),
        report.records_in() * 100 / prep.records.max(1),
        report.outputs.len(),
        report.convert_time,
    );

    // Full conversion for comparison.
    let full = conv.convert_bamx(&prep.bamx_path, TargetFormat::Sam, out_root.join("full"))?;
    println!(
        "full conversion:    {} records in {:?}",
        full.records_in(),
        full.convert_time
    );

    // Bonus: the binned (overlap) index — the paper's future-work item —
    // also finds reads *spanning into* the region, not just starting
    // inside it.
    let baix = Baix::load(&prep.baix_path)?;
    let ref_id = region.resolve(shard.header())?;
    let start_hits = baix.shard_indices(baix.locate(ref_id, &region)).len();
    let binned = BinnedIndex::build(&shard)?;
    let overlap_hits = binned.query(ref_id, &region).len();
    println!(
        "index comparison for {region}: {start_hits} reads start inside (BAIX), \
         {overlap_hits} reads overlap (binned index)"
    );
    Ok(())
}
