//! # ngs-repro
//!
//! Reproduction package for *"Removing Sequential Bottlenecks in Analysis
//! of Next-Generation Sequencing Data"* (IPPS 2014). The system is its
//! crates — `ngs-converter` for parallel format conversion, `ngs-stats`
//! for NL-means denoising and FDR — and the examples and integration
//! tests call them directly. This crate adds only the paper's hand-off
//! between the two halves.
//!
//! ```no_run
//! let hist = ngs_repro::histogram_from_sam("reads.sam", "bedgraph/", 25, 8).unwrap();
//! println!("{} bins, mean coverage {:.2}", hist.len(), hist.mean());
//! ```

use std::path::Path;

use ngs_converter::{ConvertConfig, FileSource, SamConverter, TargetFormat};
use ngs_formats::error::Result;
use ngs_stats::CoverageHistogram;

/// The converter → statistics hand-off: converts a SAM file to BEDGRAPH
/// parts under `out_dir` on `ranks` ranks, then accumulates the parts
/// into a histogram of `bin_size`-bp bins shaped by the SAM header.
pub fn histogram_from_sam(
    input: impl AsRef<Path>,
    out_dir: impl AsRef<Path>,
    bin_size: u32,
    ranks: usize,
) -> Result<CoverageHistogram> {
    let input = input.as_ref();
    let report = SamConverter::new(ConvertConfig::with_ranks(ranks)).convert_file(
        input,
        TargetFormat::BedGraph,
        out_dir,
    )?;
    let (header, _) = ngs_converter::runtime::scan_sam_header(&FileSource::open(input)?)?;
    let mut hist = CoverageHistogram::new(&header, bin_size);
    for part in &report.outputs {
        hist.add_bedgraph_text(&std::fs::read(part)?)?;
    }
    Ok(hist)
}
