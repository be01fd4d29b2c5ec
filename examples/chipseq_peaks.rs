//! ChIP-seq-style peak analysis: the end-to-end scenario motivating the
//! paper's statistical module — convert alignments to a coverage
//! histogram, denoise it with NL-means, and pick an enrichment threshold
//! by FDR.
//!
//! ```text
//! cargo run --release --example chipseq_peaks
//! ```

use ngs_repro::histogram_from_sam;
use ngs_stats::{
    build_fdr_input, fdr_curve, nlmeans_distributed, peaks, NlMeansParams, NullModel,
};
use ngs_simgen::{Dataset, DatasetSpec, ReadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_root = std::env::temp_dir().join("ngs-chipseq");
    std::fs::create_dir_all(&out_root)?;

    // Simulated "enriched" sample: ordinary WGS reads plus focal pileups
    // (we fake enrichment by sampling extra reads from a single
    // chromosome region via a narrow genome).
    let spec = DatasetSpec {
        n_records: 30_000,
        n_chroms: 2,
        chr1_len: 500_000,
        profile: ReadProfile::default(),
        ..Default::default()
    };
    let mut ds = Dataset::generate(&spec);
    // Inject focal enrichment: relocate 15% of mapped chr1 reads into ten
    // narrow peak loci, mimicking transcription-factor binding pileups.
    let peaks: Vec<i64> = (0..10).map(|k| 30_000 + k * 45_000).collect();
    let mut moved = 0usize;
    for (idx, rec) in ds.records.iter_mut().enumerate() {
        if rec.rname == b"chr1" && !rec.is_unmapped() && idx % 7 == 0 {
            let peak = peaks[moved % peaks.len()];
            rec.pos = peak + (idx as i64 % 400);
            moved += 1;
        }
    }
    let sam_path = out_root.join("chip.sam");
    ds.write_sam(&sam_path)?;
    println!("relocated {moved} reads into {} peak loci", peaks.len());

    let ranks = 4;
    let bin_size = 25; // the paper's bin width
    let nlmeans = NlMeansParams { search_radius: 20, half_patch: 15, sigma: 10.0 };

    // 1. Parallel conversion feeding the histogram (SAM → BEDGRAPH).
    let histogram = histogram_from_sam(&sam_path, out_root.join("bedgraph"), bin_size, ranks)?;
    println!(
        "histogram: {} bins of {} bp, mean coverage {:.2}",
        histogram.len(),
        histogram.bin_size,
        histogram.mean()
    );

    // 2. Parallel NL-means denoising.
    let denoised = nlmeans_distributed(&histogram.bins, &nlmeans, ranks).0;
    let before_var = variance(&histogram.bins);
    let after_var = variance(&denoised);
    println!("denoising variance: {before_var:.3} -> {after_var:.3}");

    // 3. FDR threshold selection over B simulation rounds.
    let rounds = 20;
    let input = build_fdr_input(denoised.clone(), rounds, NullModel::Poisson, 42);
    let thresholds: Vec<f64> = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
    let curve = fdr_curve(&input, &thresholds, ranks);
    println!("FDR curve (threshold -> estimated FDR):");
    let mut chosen = None;
    for (t, fdr) in &curve {
        println!("  p_t = {t:>4.1}  FDR = {fdr:.4}");
        if chosen.is_none() && fdr.is_finite() && *fdr <= 0.10 {
            chosen = Some(*t);
        }
    }

    // 4. Peak calling at the chosen threshold: selected bins merged into
    //    regions and emitted as BED.
    if let Some(p_t) = chosen {
        let mut peak_hist = histogram.clone();
        peak_hist.bins = denoised.clone();
        let selected = peaks::select_bins(&input, p_t);
        let called = peaks::call_peaks(&peak_hist, &selected, 2);
        println!(
            "threshold p_t = {p_t}: {} bins selected, {} peaks called",
            selected.iter().filter(|&&s| s).count(),
            called.len()
        );
        for p in called.iter().take(5) {
            println!(
                "  {}:{}-{}  summit {:.1}  ({} bins)",
                String::from_utf8_lossy(&p.chrom),
                p.start,
                p.end,
                p.summit_value,
                p.bins
            );
        }
        let bed = peaks::peaks_to_bed(&peak_hist, &input, p_t, 2);
        let bed_path = out_root.join("peaks.bed");
        std::fs::write(&bed_path, &bed)?;
        println!("peak BED written to {}", bed_path.display());
    } else {
        println!("no threshold reached FDR <= 0.10 on this synthetic sample");
    }
    Ok(())
}

fn variance(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len().max(1) as f64
}

