//! Quickstart: generate a synthetic dataset, convert it in parallel, and
//! inspect the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ngs_converter::{ConvertConfig, SamConverter, TargetFormat};
use ngs_simgen::{Dataset, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_root = std::env::temp_dir().join("ngs-quickstart");
    std::fs::create_dir_all(&out_root)?;

    // 1. A synthetic paired-end dataset (stand-in for BWA output).
    let spec = DatasetSpec { n_records: 20_000, ..Default::default() };
    let dataset = Dataset::generate(&spec);
    let sam_path = out_root.join("reads.sam");
    let sam_bytes = dataset.write_sam(&sam_path)?;
    println!("generated {} records ({} KiB of SAM) at {}", spec.n_records, sam_bytes / 1024, sam_path.display());

    // 2. Parallel conversion: SAM → BED with 4 ranks.
    let converter = SamConverter::new(ConvertConfig::with_ranks(4));
    let report = converter.convert_file(&sam_path, TargetFormat::Bed, out_root.join("bed"))?;

    println!(
        "converted {} of {} records into {} part files in {:?}",
        report.records_out(),
        report.records_in(),
        report.outputs.len(),
        report.convert_time,
    );
    for stats in &report.per_rank {
        println!(
            "  rank {}: {:>6} records in, {:>6} out, {:>8} bytes written, {:?}",
            stats.rank, stats.records_in, stats.records_out, stats.bytes_out, stats.elapsed
        );
    }
    println!("outputs:");
    for path in &report.outputs {
        println!("  {}", path.display());
    }
    Ok(())
}
