//! Format zoo: one dataset converted into every supported target format,
//! with output sizes — the paper's cross-tool interoperability pitch.
//!
//! ```text
//! cargo run --release --example format_zoo
//! ```

use ngs_converter::{ConvertConfig, SamConverter, TargetFormat};
use ngs_simgen::{Dataset, DatasetSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_root = std::env::temp_dir().join("ngs-format-zoo");
    std::fs::create_dir_all(&out_root)?;

    let ds = Dataset::generate(&DatasetSpec { n_records: 10_000, ..Default::default() });
    let sam_path = out_root.join("reads.sam");
    let input_size = ds.write_sam(&sam_path)?;
    println!("input: {} ({} KiB of SAM)\n", sam_path.display(), input_size / 1024);
    println!("{:<10}{:>10}{:>14}{:>12}", "target", "records", "total bytes", "vs input");

    let converter = SamConverter::new(ConvertConfig::with_ranks(2));
    for target in TargetFormat::ALL {
        let out_dir = out_root.join(target.extension());
        let report = converter.convert_file(&sam_path, target, &out_dir)?;
        let bytes = report.bytes_out();
        println!(
            "{:<10}{:>10}{:>14}{:>11.0}%",
            target.extension(),
            report.records_out(),
            bytes,
            bytes as f64 / input_size as f64 * 100.0
        );
    }

    println!("\n(each target wrote one file per rank under {})", out_root.display());
    Ok(())
}
