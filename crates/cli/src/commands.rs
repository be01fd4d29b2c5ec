//! `ngsp` subcommand implementations.

use std::io::{BufReader, Write};
use std::path::Path;

use ngs_bamx::Region;
use ngs_converter::{
    BamConverter, ConvertConfig, ConvertReport, SamConverter, SamxConverter, TargetFormat,
};
use ngs_core::sam_header_of;
use ngs_formats::bam::BamReader;
use ngs_formats::sam::SamReader;
use ngs_formats::record::AlignmentRecord;
use ngs_simgen::{Dataset, DatasetSpec};
use ngs_stats::{
    build_fdr_input, fdr_fused, nlmeans_sequential, CoverageHistogram, NlMeansParams, NullModel,
};
use ngs_collate::{CollateConfig, Collator, SortBy, Workload};
use ngs_tools::{cat_bam_parts, cat_sam_parts, depth, flagstat};

use crate::args::{ArgError, Args};

/// Boxed error type shared by the subcommands.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Fallible `println!`: a closed stdout (`ngsp ... | head`) surfaces as
/// an `io::Error` the subcommand propagates to `main`, which maps
/// broken-pipe to a quiet, consistent exit — `println!` would panic
/// instead, spraying a backtrace after possibly-partial output.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        writeln!(std::io::stdout(), $($arg)*)
    }};
}

fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(ArgError(msg.into()))
}

/// Writes a tracer's retained spans as JSON lines to `path` and prints a
/// one-line summary (shared by the `--trace FILE` flags).
fn write_trace(path: &str, tracer: &ngs_obs::Tracer) -> CmdResult {
    std::fs::write(path, tracer.render_jsonl())?;
    outln!(
        "trace: {} span(s) written to {path} ({} evicted by the ring bound)",
        tracer.events().len(),
        tracer.dropped()
    )?;
    Ok(())
}

/// Synthesizes one trace event per pipeline stage (busy time, sequential
/// layout on the start axis) plus a whole-run event, for `--trace` on
/// commands that time themselves through `PipelineMetrics` instead of
/// live spans.
fn pipeline_trace(metrics: &ngs_core::pipeline::PipelineMetrics) -> std::sync::Arc<ngs_obs::Tracer> {
    let clock = std::sync::Arc::new(ngs_obs::ManualClock::new());
    let tracer = ngs_obs::Tracer::new(metrics.stages.len() + 1, clock);
    for s in &metrics.stages {
        tracer.event(&format!("pipeline.{}", s.name), "", std::time::Duration::ZERO, s.busy, "ok");
    }
    tracer.event(
        "pipeline.run",
        "",
        std::time::Duration::ZERO,
        metrics.elapsed,
        if metrics.cancelled { "cancelled" } else { "ok" },
    );
    tracer
}

/// Reads all records (and the header) from a `.sam` or `.bam` path.
pub fn read_alignments(path: &str) -> Result<(ngs_formats::SamHeader, Vec<AlignmentRecord>), Box<dyn std::error::Error>> {
    if path.ends_with(".bam") {
        let mut reader = BamReader::new(BufReader::new(std::fs::File::open(path)?))?;
        let header = reader.header().clone();
        let records: Result<Vec<_>, _> = reader.records().collect();
        Ok((header, records?))
    } else {
        let mut reader = SamReader::new(BufReader::new(std::fs::File::open(path)?))?;
        let header = reader.header().clone();
        let records: Result<Vec<_>, _> = reader.records().collect();
        Ok((header, records?))
    }
}

fn print_report(report: &ConvertReport) -> CmdResult {
    outln!(
        "records: {} in, {} out; output bytes: {}; convert time: {:?} (+{:?} preprocess)",
        report.records_in(),
        report.records_out(),
        report.bytes_out(),
        report.convert_time,
        report.preprocess_time,
    )?;
    for p in &report.outputs {
        outln!("  {}", p.display())?;
    }
    Ok(())
}

/// `ngsp generate --records N --out FILE [--chroms C] [--sorted] [--seed S]
///  [--duplicates F]`
pub fn generate(args: &Args) -> CmdResult {
    let records: usize = args.get_required("records")?;
    let out = args.required("out")?;
    let duplicates: f64 = args.get_or("duplicates", 0.0)?;
    if !(0.0..=1.0).contains(&duplicates) {
        return Err(err("--duplicates must be in [0, 1]"));
    }
    let spec = DatasetSpec {
        n_records: records,
        n_chroms: args.get_or("chroms", 3usize)?,
        chr1_len: args.get_or("chr1-len", (records as u64 * 40).max(100_000))?,
        seed: args.get_or("seed", 20140519u64)?,
        coordinate_sorted: args.switch("sorted"),
        profile: ngs_simgen::ReadProfile { duplicate_rate: duplicates, ..Default::default() },
    };
    let ds = Dataset::generate(&spec);
    let bytes = if out.ends_with(".bam") {
        ds.write_bam(out)?
    } else {
        ds.write_sam(out)?
    };
    outln!("wrote {records} records ({bytes} bytes) to {out}")?;
    Ok(())
}

/// `ngsp convert INPUT --to FORMAT --out DIR [--ranks N] [--region R]
///  [--instance sam|bam|samx]`
pub fn convert(args: &Args) -> CmdResult {
    let input = args.one_positional("input file")?;
    let to = args.required("to")?;
    let target = TargetFormat::parse(to).ok_or_else(|| err(format!("unknown format {to:?}")))?;
    let out_dir = args.required("out")?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let config = ConvertConfig::with_ranks(ranks);

    let default_instance = if input.ends_with(".bam") { "bam" } else { "sam" };
    let instance = args.optional("instance").unwrap_or(default_instance);
    let region = args.optional("region");

    let report = match (instance, region) {
        ("sam", None) => SamConverter::new(config).convert_file(input, target, out_dir)?,
        ("samx", None) => {
            let (prep, mut report) =
                SamxConverter::new(config).convert_file(input, target, out_dir)?;
            report.preprocess_time = prep.elapsed;
            report
        }
        ("bam", maybe_region) => {
            let conv = BamConverter::new(config);
            let prep = conv.preprocess(input, Path::new(out_dir).join("bamx"))?;
            let mut report = match maybe_region {
                None => conv.convert_bamx(&prep.bamx_path, target, out_dir)?,
                Some(r) => {
                    let header = ngs_bamx::BamxFile::open(&prep.bamx_path)?.header().clone();
                    let region = Region::parse(r, &header)?;
                    conv.convert_partial(&prep.bamx_path, &prep.baix_path, &region, target, out_dir)?
                }
            };
            report.preprocess_time = prep.elapsed;
            report
        }
        ("sam" | "samx", Some(_)) => {
            return Err(err("--region requires the bam instance (preprocess first)"))
        }
        (other, _) => return Err(err(format!("unknown instance {other:?}"))),
    };
    print_report(&report)?;
    if let Some(path) = args.optional("trace") {
        // The one-shot converter times itself; synthesize the two phases.
        let clock = std::sync::Arc::new(ngs_obs::ManualClock::new());
        let tracer = ngs_obs::Tracer::new(2, clock);
        tracer.event(
            "convert.preprocess",
            input,
            std::time::Duration::ZERO,
            report.preprocess_time,
            "ok",
        );
        tracer.event("convert.convert", input, report.preprocess_time, report.convert_time, "ok");
        write_trace(path, &tracer)?;
    }
    Ok(())
}

/// Parses the shared `--format-version v1|v2` flag (default v1).
fn parse_format_version(args: &Args) -> Result<ngs_bamx::BamxVersion, Box<dyn std::error::Error>> {
    match args.optional("format-version") {
        None => Ok(ngs_bamx::BamxVersion::V1),
        Some(s) => ngs_bamx::BamxVersion::parse(s)
            .ok_or_else(|| err(format!("unknown --format-version {s:?} (expected v1 or v2)"))),
    }
}

/// `ngsp preprocess INPUT --out DIR [--ranks N] [--compress]
/// [--format-version v1|v2]`
pub fn preprocess(args: &Args) -> CmdResult {
    let input = args.one_positional("input file")?;
    let out_dir = args.required("out")?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let compression = if args.switch("compress") {
        ngs_bamx::BamxCompression::Bgzf
    } else {
        ngs_bamx::BamxCompression::Plain
    };
    let format_version = parse_format_version(args)?;

    if input.ends_with(".bam") {
        let mut conv = BamConverter::new(ConvertConfig::with_ranks(ranks));
        conv.bamx_compression = compression;
        conv.format_version = format_version;
        let prep = conv.preprocess(input, out_dir)?;
        outln!(
            "{} records -> {} + {} in {:?} (record size {} bytes)",
            prep.records,
            prep.bamx_path.display(),
            prep.baix_path.display(),
            prep.elapsed,
            prep.layout.record_size()
        )?;
    } else {
        let mut conv = SamxConverter::new(ConvertConfig::with_ranks(ranks));
        conv.bamx_compression = compression;
        conv.format_version = format_version;
        let prep = conv.preprocess_file(input, out_dir)?;
        outln!("{} records -> {} shards in {:?}", prep.records(), prep.shards.len(), prep.elapsed)?;
        for s in &prep.shards {
            outln!("  {} ({} records)", s.bamx_path.display(), s.records)?;
        }
    }
    Ok(())
}

/// `ngsp flagstat INPUT`
pub fn flagstat_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("input file")?;
    let (_, records) = read_alignments(input)?;
    outln!("{}", flagstat(&records))?;
    Ok(())
}

/// `ngsp sort INPUT --out FILE [--by coord|name]`
pub fn sort_cmd(args: &Args) -> CmdResult {
    let workload = match args.optional("by").unwrap_or("coord") {
        "coord" | "coordinate" => Workload::Sort(SortBy::Coordinate),
        "name" | "queryname" => Workload::Sort(SortBy::QueryName),
        other => return Err(err(format!("unknown sort order {other:?}"))),
    };
    collate_run(args, workload)
}

/// `ngsp collate INPUT --out FILE [--workers N] [--batch B]
/// [--spill-budget BYTES] [--spill-dir DIR]`
pub fn collate_cmd(args: &Args) -> CmdResult {
    collate_run(args, Workload::Collate)
}

/// `ngsp markdup INPUT --out FILE [--workers N] [--batch B]
/// [--spill-budget BYTES] [--spill-dir DIR]`
pub fn markdup_cmd(args: &Args) -> CmdResult {
    collate_run(args, Workload::MarkDup)
}

/// Shared driver for `collate`, `markdup`, and `sort`: reads the input,
/// streams it through the keyed regroup engine (DESIGN.md §10), and
/// writes SAM or BAM by output extension. With `--spill-budget` the
/// shuffle buffers at most that many gauge bytes, spilling sorted runs
/// to a crash-safe repository under `--spill-dir` (default `OUT.spill`,
/// removed again after a clean run).
fn collate_run(args: &Args, workload: Workload) -> CmdResult {
    let input = args.one_positional("input file")?;
    let out = args.required("out")?;
    let (header, records) = read_alignments(input)?;

    let spill_budget: u64 = args.get_or("spill-budget", 0u64)?;
    let spill_dir_flag = args.optional("spill-dir").map(std::path::PathBuf::from);
    let default_spill = std::path::PathBuf::from(format!("{out}.spill"));
    let config = CollateConfig {
        pipeline: ngs_core::pipeline::PipelineConfig {
            workers: args.get_or("workers", ngs_core::pipeline::PipelineConfig::default().workers)?,
            batch_size: args.get_or("batch", 256usize)?,
            ..Default::default()
        },
        spill_budget,
        spill_dir: (spill_budget > 0)
            .then(|| spill_dir_flag.clone().unwrap_or_else(|| default_spill.clone())),
        ..Default::default()
    };
    let collator = Collator::new(config);

    let run = if out.ends_with(".bam") {
        let mut w = ngs_formats::bam::BamWriter::new(
            std::io::BufWriter::new(std::fs::File::create(out)?),
            header.clone(),
        )?;
        let run =
            collator.run_records(&header, records, workload, &mut |r| w.write_record(&r))?;
        w.finish()?;
        run
    } else {
        let mut w = ngs_formats::sam::SamWriter::new(
            std::io::BufWriter::new(std::fs::File::create(out)?),
            &header,
        )?;
        let run =
            collator.run_records(&header, records, workload, &mut |r| w.write_record(&r))?;
        w.finish()?;
        run
    };
    if spill_budget > 0 && spill_dir_flag.is_none() {
        // Clean run: the default scratch repository is no longer needed.
        let _ = std::fs::remove_dir_all(&default_spill);
    }

    let spilled = run.regroup.spill_runs + run.restore.as_ref().map_or(0, |r| r.spill_runs);
    let spill_note = if spilled > 0 {
        format!(
            ", {spilled} spilled run(s) ({} bytes, merge fan-in {})",
            run.regroup.spilled_bytes + run.restore.as_ref().map_or(0, |r| r.spilled_bytes),
            run.regroup.merge_fan_in
        )
    } else {
        String::new()
    };
    match workload {
        Workload::Collate => outln!(
            "collated {} records into {out}: {} pair(s) joined, {} singleton(s){spill_note}",
            run.records_out,
            run.counts.pairs_joined,
            run.counts.singletons
        )?,
        Workload::MarkDup => outln!(
            "marked {} duplicate(s) across {} records into {out}{spill_note}",
            run.counts.duplicates_marked,
            run.records_out
        )?,
        Workload::Sort(_) => {
            outln!("sorted {} records into {out}{spill_note}", run.records_out)?
        }
    }
    Ok(())
}

/// `ngsp merge --out FILE PART...`
pub fn merge_cmd(args: &Args) -> CmdResult {
    let out = args.required("out")?;
    let parts = args.positional();
    if parts.is_empty() {
        return Err(err("expected part files to merge"));
    }
    let n = if out.ends_with(".bam") {
        cat_bam_parts(parts, out)?
    } else {
        cat_sam_parts(parts, out)?
    };
    outln!("merged {} records from {} parts into {out}", n, parts.len())?;
    Ok(())
}

/// `ngsp depth INPUT [--window W]`
pub fn depth_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("input file")?;
    let window: usize = args.get_or("window", 0)?;
    let (header, records) = read_alignments(input)?;
    for track in depth(&header, &records) {
        let name = String::from_utf8_lossy(&track.chrom).into_owned();
        outln!(
            "{name}: mean {:.3}, max {}, breadth(1x) {:.1}%",
            track.mean(),
            track.max(),
            track.breadth(1) * 100.0
        )?;
        if window > 0 {
            for (i, d) in ngs_tools::windowed_depth(&track, window).iter().enumerate() {
                if *d > 0.0 {
                    outln!("  {name}\t{}\t{}\t{d:.2}", i * window, (i + 1) * window)?;
                }
            }
        }
    }
    Ok(())
}

/// `ngsp histogram INPUT --out FILE [--bin 25]`
pub fn histogram_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("input file")?;
    let out = args.required("out")?;
    let bin: u32 = args.get_or("bin", 25)?;
    let (header, records) = read_alignments(input)?;
    let hist = CoverageHistogram::from_records(&header, bin, &records);
    std::fs::write(out, hist.to_bedgraph())?;
    outln!(
        "{} bins of {bin} bp (mean {:.3}) written to {out}",
        hist.len(),
        hist.mean()
    )?;
    Ok(())
}

/// `ngsp denoise INPUT.bedgraph --out FILE [--radius r] [--patch l]
///  [--sigma s] [--bin 25]`
pub fn denoise_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("bedgraph file")?;
    let out = args.required("out")?;
    let bin: u32 = args.get_or("bin", 25)?;
    let params = NlMeansParams {
        search_radius: args.get_or("radius", 20)?,
        half_patch: args.get_or("patch", 15)?,
        sigma: args.get_or("sigma", 10.0)?,
    };
    let text = std::fs::read(input)?;
    let mut hist = CoverageHistogram::from_bedgraph_auto(&text, bin)?;
    let denoised = nlmeans_sequential(&hist.bins, &params);
    hist.bins = denoised;
    std::fs::write(out, hist.to_bedgraph())?;
    outln!(
        "denoised {} bins (r={}, l={}, sigma={}) into {out}",
        hist.len(),
        params.search_radius,
        params.half_patch,
        params.sigma
    )?;
    Ok(())
}

/// `ngsp fdr INPUT.bedgraph [--rounds B] [--thresholds 1,2,4]
///  [--model poisson|permutation] [--bin 25] [--seed S]`
pub fn fdr_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("bedgraph file")?;
    let rounds: usize = args.get_or("rounds", 20)?;
    let bin: u32 = args.get_or("bin", 25)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let model = match args.optional("model").unwrap_or("poisson") {
        "poisson" => NullModel::Poisson,
        "permutation" => NullModel::Permutation,
        other => return Err(err(format!("unknown null model {other:?}"))),
    };
    let thresholds: Vec<f64> = args
        .optional("thresholds")
        .unwrap_or("1,2,4,8")
        .split(',')
        .map(|t| t.parse().map_err(|_| err(format!("bad threshold {t:?}"))))
        .collect::<Result<_, _>>()?;

    let text = std::fs::read(input)?;
    let hist = CoverageHistogram::from_bedgraph_auto(&text, bin)?;
    let fdr_input = build_fdr_input(hist.bins.clone(), rounds, model, seed);
    outln!("bins: {}, simulation rounds: {rounds}", hist.len())?;
    outln!("{:>10}{:>14}", "p_t", "FDR")?;
    for t in thresholds {
        let v = fdr_fused(&fdr_input, t);
        if v.is_finite() {
            outln!("{t:>10.2}{v:>14.6}")?;
        } else {
            outln!("{t:>10.2}{:>14}", "inf")?;
        }
    }
    Ok(())
}

/// `ngsp index INPUT.bam [--out FILE]` — builds the binned BAM index.
pub fn index_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("BAM file")?;
    if !input.ends_with(".bam") {
        return Err(err("index requires a .bam input"));
    }
    let default_out = format!("{input}.nbai");
    let out = args.optional("out").unwrap_or(&default_out);
    let index = ngs_bamx::BamIndex::build(input)?;
    index.save(out)?;
    outln!(
        "indexed {input}: {} chunks across {} references ({} unmapped records) -> {out}",
        index.chunk_count(),
        index.refs.len(),
        index.unmapped
    )?;
    Ok(())
}

/// `ngsp peaks INPUT.bedgraph [--rounds B] [--target-fdr F]
///  [--thresholds 0,1,2,4] [--gap G] [--bin 25] [--out FILE.bed]`
/// — FDR-thresholded enriched-region calling (Han et al. pipeline tail).
pub fn peaks_cmd(args: &Args) -> CmdResult {
    let input = args.one_positional("bedgraph file")?;
    let bin: u32 = args.get_or("bin", 25)?;
    let rounds: usize = args.get_or("rounds", 20)?;
    let target_fdr: f64 = args.get_or("target-fdr", 0.05)?;
    let gap: usize = args.get_or("gap", 1)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let thresholds: Vec<f64> = args
        .optional("thresholds")
        .unwrap_or("0,1,2,4,8")
        .split(',')
        .map(|t| t.parse().map_err(|_| err(format!("bad threshold {t:?}"))))
        .collect::<Result<_, _>>()?;

    let text = std::fs::read(input)?;
    let hist = CoverageHistogram::from_bedgraph_auto(&text, bin)?;
    let fdr_input = build_fdr_input(hist.bins.clone(), rounds, NullModel::Poisson, seed);
    let Some(p_t) = ngs_stats::pick_threshold(&fdr_input, &thresholds, target_fdr) else {
        return Err(err(format!(
            "no threshold in {thresholds:?} reaches FDR <= {target_fdr}"
        )));
    };
    let selected = ngs_stats::select_bins(&fdr_input, p_t);
    let called = ngs_stats::call_peaks(&hist, &selected, gap);
    outln!(
        "p_t = {p_t} (target FDR {target_fdr}, {rounds} simulation rounds): {} peaks",
        called.len()
    )?;
    let mut bed = Vec::new();
    for p in &called {
        ngs_formats::bed::write_record(&p.to_bed(), &mut bed);
    }
    match args.optional("out") {
        Some(path) => {
            std::fs::write(path, &bed)?;
            outln!("peak BED written to {path}")?;
        }
        None => {
            use std::io::Write as _;
            std::io::stdout().write_all(&bed)?;
        }
    }
    Ok(())
}

/// `ngsp view INPUT.bam [REGION] [--ranks N]` — prints SAM to stdout.
pub fn view_cmd(args: &Args) -> CmdResult {
    let positional = args.positional();
    let (input, region) = match positional {
        [input] => (input.as_str(), None),
        [input, region] => (input.as_str(), Some(region.as_str())),
        _ => return Err(err("usage: ngsp view INPUT.bam [REGION]")),
    };
    let header = if input.ends_with(".bam") {
        BamReader::new(BufReader::new(std::fs::File::open(input)?))?.header().clone()
    } else {
        sam_header_of(input)?
    };
    // Validate the region before any stdout is produced, so failures
    // leave no partial document behind.
    let parsed_region = match region {
        Some(r) => {
            if !input.ends_with(".bam") {
                return Err(err("region view requires a BAM input"));
            }
            Some(Region::parse(r, &header)?)
        }
        None => None,
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    out.write_all(header.text.as_bytes())?;

    let mut line = Vec::new();
    let mut write_rec = |rec: &AlignmentRecord| -> CmdResult {
        line.clear();
        ngs_formats::sam::write_record(rec, &mut line);
        line.push(b'\n');
        out.write_all(&line)?;
        Ok(())
    };

    match parsed_region {
        None => {
            let (_, records) = read_alignments(input)?;
            for rec in &records {
                write_rec(rec)?;
            }
        }
        Some(region) => {
            let nbai = format!("{input}.nbai");
            if std::path::Path::new(&nbai).exists() {
                // Fast path: seek straight into the compressed file via
                // the binned index (overlap semantics).
                let index = ngs_bamx::BamIndex::load(&nbai)?;
                let mut reader =
                    BamReader::new(BufReader::new(std::fs::File::open(input)?))?;
                for rec in ngs_bamx::fetch(&mut reader, &index, &region)? {
                    write_rec(&rec)?;
                }
            } else {
                // Fallback: preprocess into a temp dir and use BAIX
                // (start-position semantics, as in the paper).
                let tmp =
                    std::env::temp_dir().join(format!("ngsp-view-{}", std::process::id()));
                std::fs::create_dir_all(&tmp)?;
                let conv =
                    BamConverter::new(ConvertConfig::with_ranks(args.get_or("ranks", 2)?));
                let prep = conv.preprocess(input, &tmp)?;
                let shard = ngs_bamx::BamxFile::open(&prep.bamx_path)?;
                let baix = ngs_bamx::Baix::load(&prep.baix_path)?;
                let ref_id = region.resolve(shard.header())?;
                for idx in baix.shard_indices(baix.locate(ref_id, &region)) {
                    write_rec(&shard.read_record(idx)?)?;
                }
                let _ = std::fs::remove_dir_all(&tmp);
            }
        }
    }
    Ok(())
}

/// `ngsp pipeline INPUT --to FMT --out DIR [--workers N] [--batch B]
///  [--bound C] [--region R]`
/// `ngsp pipeline INPUT --analyze [--bin 25] [--rounds B] [--workers N]`
///
/// Streams records through the bounded dataflow engine (`ngs-pipeline`,
/// DESIGN.md §8) instead of materializing them: peak memory is
/// proportional to `--bound × --batch`, not input size, and the
/// converted bytes are identical to `ngsp convert`. Prints per-stage
/// throughput/stall metrics afterwards. INPUT is a `.bamx` shard (with
/// its `.baix` next to it for `--region`) or a `.bam`, which is
/// preprocessed first.
pub fn pipeline_cmd(args: &Args) -> CmdResult {
    use ngs_core::pipeline::{AnalyzeOptions, Pipeline, PipelineConfig, PipelineMetrics};

    let input = args.one_positional("input file")?;
    let config = PipelineConfig {
        workers: args.get_or("workers", 4usize)?,
        batch_size: args.get_or("batch", 1024usize)?,
        channel_bound: args.get_or("bound", 4usize)?,
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(config);

    let print_metrics = |m: &PipelineMetrics| -> std::io::Result<()> {
        outln!(
            "elapsed {:?}; sink throughput {:.0} items/s; peak buffered {} bytes",
            m.elapsed,
            m.sink_items_per_sec(),
            m.peak_buffered_bytes
        )?;
        for s in &m.stages {
            outln!(
                "  {:<12} x{}: {} items in, {} out; busy {:?}, starved {:?}, backpressured {:?}, max queue {}",
                s.name, s.workers, s.items_in, s.items_out, s.busy, s.recv_wait, s.send_wait,
                s.max_queue_depth
            )?;
        }
        Ok(())
    };

    // Resolve INPUT to a BAMX shard, preprocessing BAM first.
    let analyze = args.switch("analyze");
    let tmp;
    let (bamx_path, baix_path) = if input.ends_with(".bam") {
        let prep_dir = match args.optional("out") {
            Some(out) => Path::new(out).join("bamx"),
            None => {
                tmp = tempfile::tempdir()?;
                tmp.path().join("bamx")
            }
        };
        let conv = BamConverter::new(ConvertConfig::with_ranks(1));
        let prep = conv.preprocess(input, prep_dir)?;
        (prep.bamx_path, prep.baix_path)
    } else {
        let p = std::path::PathBuf::from(input);
        let baix = p.with_extension("baix");
        (p, baix)
    };

    if analyze {
        let options = AnalyzeOptions {
            bin_size: args.get_or("bin", 25u32)?,
            fdr_rounds: args.get_or("rounds", 8usize)?,
            seed: args.get_or("seed", 20140519u64)?,
            ..AnalyzeOptions::default()
        };
        let run = pipeline.analyze_file(&bamx_path, options)?;
        outln!(
            "analyzed {} records ({} aligned bases) into {} bins",
            run.records,
            run.total_bases,
            run.histogram.len()
        )?;
        outln!("{:>10}{:>14}", "p_t", "FDR")?;
        for (t, v) in &run.fdr {
            if v.is_finite() {
                outln!("{t:>10.2}{v:>14.6}")?;
            } else {
                outln!("{t:>10.2}{:>14}", "inf")?;
            }
        }
        for q in &run.quarantined {
            outln!("quarantined shard {:?}: {}", q.shard, q.error)?;
        }
        print_metrics(&run.metrics)?;
        if let Some(path) = args.optional("trace") {
            write_trace(path, &pipeline_trace(&run.metrics))?;
        }
        return Ok(());
    }

    let to = args.required("to")?;
    let target = TargetFormat::parse(to).ok_or_else(|| err(format!("unknown format {to:?}")))?;
    let out_dir = args.required("out")?;
    let run = match args.optional("region") {
        None => pipeline.convert_file(&bamx_path, target, out_dir)?,
        Some(r) => {
            let header = ngs_bamx::BamxFile::open(&bamx_path)?.header().clone();
            let region = Region::parse(r, &header)?;
            pipeline.convert_region(&bamx_path, &baix_path, &region, target, out_dir)?
        }
    };
    outln!(
        "records: {} in, {} out; output bytes: {}; {} transient retries",
        run.records_in, run.records_out, run.bytes_out, run.transient_retries
    )?;
    outln!("  {}", run.path.display())?;
    for q in &run.quarantined {
        outln!("quarantined shard {:?}: {}", q.shard, q.error)?;
    }
    print_metrics(&run.metrics)?;
    if let Some(path) = args.optional("trace") {
        write_trace(path, &pipeline_trace(&run.metrics))?;
    }
    Ok(())
}

/// `ngsp query SHARD_DIR [--requests FILE] [--out DIR] [--workers N]
/// [--queue N] [--cache N] [--segments N] [--batch N] [--deadline-ms D]
/// [--trace FILE]`
///
/// Batch mode over the long-lived query engine: one
/// `DATASET REGION FORMAT` request per line (`#` starts a comment;
/// FORMAT is a target name or `coverage[:BIN]`), read from `--requests`
/// or stdin. When the admission queue fills, the oldest in-flight
/// request is settled before retrying — bounded memory, no blocking
/// submits.
pub fn query_cmd(args: &Args) -> CmdResult {
    use ngs_query::{
        EngineConfig, QueryClass, QueryEngine, QueryError, QueryKind, QueryOutcome, QueryRequest,
        Ticket,
    };
    use std::collections::VecDeque;
    use std::io::Read;

    let shard_dir = args.one_positional("shard directory")?;
    let out_dir = std::path::PathBuf::from(args.optional("out").unwrap_or("query-out"));
    let deadline_ms: Option<u64> = match args.optional("deadline-ms") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| err(format!("bad --deadline-ms {v:?}")))?),
    };
    // Live spans (one per executed request) when --trace is given.
    let tracer = args.optional("trace").map(|_| {
        ngs_obs::Tracer::new(4096, std::sync::Arc::new(ngs_obs::SystemClock::new()) as _)
    });
    let config = EngineConfig {
        workers: args.get_or("workers", 4usize)?,
        queue_capacity: args.get_or("queue", 64usize)?,
        cache_capacity: args.get_or("cache", 8usize)?,
        segments: args.get_or("segments", EngineConfig::default().segments)?,
        batch: args.get_or("batch", EngineConfig::default().batch)?,
        tracer: tracer.clone(),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::new(shard_dir, config)?;

    let text = match args.optional("requests") {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)?,
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let settle = |out: &mut dyn Write,
                      (line_no, desc, ticket): (usize, String, Ticket)|
     -> CmdResult {
        let resp = ticket.wait();
        match resp.outcome {
            Ok(QueryOutcome::Converted { output, records_in, bytes_out, .. }) => writeln!(
                out,
                "#{line_no} {desc}: {} ({records_in} records, {bytes_out} bytes, {}, wait {:?}, service {:?})",
                output.display(),
                if resp.metrics.cache_hit { "hit" } else { "miss" },
                resp.metrics.queue_wait,
                resp.metrics.service_time,
            )?,
            Ok(QueryOutcome::Coverage { bins, bin_size, records }) => writeln!(
                out,
                "#{line_no} {desc}: coverage {} bins x {bin_size} bp, {records} records, total {:.1}",
                bins.len(),
                bins.iter().sum::<f64>(),
            )?,
            Err(e) => writeln!(out, "#{line_no} {desc}: ERROR {e}")?,
        }
        Ok(())
    };

    let mut pending: VecDeque<(usize, String, Ticket)> = VecDeque::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line_no = idx + 1;
        let mut parts = line.split_whitespace();
        let (Some(dataset), Some(region), Some(format)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(err(format!("line {line_no}: expected DATASET REGION FORMAT")));
        };
        let kind = if let Some(rest) = format.strip_prefix("coverage") {
            let bin_size = match rest.strip_prefix(':') {
                Some(b) => b.parse().map_err(|_| err(format!("line {line_no}: bad bin size {b:?}")))?,
                None if rest.is_empty() => 25,
                None => return Err(err(format!("line {line_no}: unknown format {format:?}"))),
            };
            QueryKind::Coverage { bin_size }
        } else {
            let target = TargetFormat::parse(format)
                .ok_or_else(|| err(format!("line {line_no}: unknown format {format:?}")))?;
            QueryKind::Convert { format: target, out_dir: out_dir.clone() }
        };
        // Optional fourth column: traffic class (default interactive).
        let class = match parts.next() {
            None | Some("interactive") => QueryClass::Interactive,
            Some("batch") => QueryClass::Batch,
            Some(other) => return Err(err(format!("line {line_no}: unknown class {other:?}"))),
        };
        let request = QueryRequest {
            dataset: dataset.to_string(),
            region: region.to_string(),
            kind,
            deadline: deadline_ms
                .map(|ms| engine.clock().now() + std::time::Duration::from_millis(ms)),
            class,
        };
        loop {
            match engine.submit(request.clone()) {
                Ok(ticket) => {
                    pending.push_back((line_no, line.to_string(), ticket));
                    break;
                }
                Err(QueryError::Overloaded { .. }) => {
                    let oldest = pending
                        .pop_front()
                        .ok_or_else(|| err("query queue full with nothing in flight"))?;
                    settle(&mut out, oldest)?;
                }
                Err(e @ QueryError::Shed { .. }) => {
                    // Shed before decode (expired deadline / hot-shard
                    // cap): report the line and move on — this is a
                    // per-request outcome, not a queue-pressure signal.
                    writeln!(out, "#{line_no} {line}: SHED {e}")?;
                    break;
                }
                Err(e) => return Err(Box::new(e)),
            }
        }
    }
    for entry in pending {
        settle(&mut out, entry)?;
    }

    let stats = engine.drain();
    writeln!(
        out,
        "{} submitted, {} completed, {} failed, {} deadline-missed, {} overload-retries; \
         cache hit rate {:.0}%; mean latency {:?}, max {:?}",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.deadline_missed,
        stats.rejected,
        stats.cache_hit_rate() * 100.0,
        stats.mean_latency(),
        stats.max_latency,
    )?;
    drop(out);
    if let (Some(path), Some(tracer)) = (args.optional("trace"), &tracer) {
        write_trace(path, tracer)?;
    }
    Ok(())
}

/// `ngsp load [--records N] [--requests N] [--workers N] [--seed S]
/// [--hot PCT] [--interactive PCT] [--deadline-ms D]
/// [--batch-deadline-ms D] [--multipliers 0.5,1,2,4]`
///
/// Self-contained graceful-degradation drill (DESIGN.md §13). Builds a
/// small deterministic shard directory, calibrates the engine's
/// *closed-loop* saturation throughput, then replays the same seeded
/// **open-loop** arrival plan (`ngs_query::load`) at each multiplier of
/// that rate — arrivals paced by the plan, never by the engine, the only
/// regime where overload is observable — and prints offered vs goodput
/// with the shed / overflow breakdown and per-class p99 latency.
/// Degradation is graceful when goodput holds near capacity past 1×
/// while the excess is shed before any decode work.
pub fn load_cmd(args: &Args) -> CmdResult {
    use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
    use ngs_obs::{HistogramSnapshot, Registry};
    use ngs_query::{
        generate_load, EngineConfig, LoadProfile, QueryEngine, RetryPolicy, ShardStore,
        SystemClock, Ticket,
    };
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const DATASETS: usize = 3;
    const WINDOWS: usize = 4;
    let records: usize = args.get_or("records", 400usize)?;
    let requests: usize = args.get_or("requests", 256usize)?;
    let workers: usize = args.get_or("workers", 2usize)?;
    let seed: u64 = args.get_or("seed", 0x10AD_10ADu64)?;
    let multipliers: Vec<f64> = args
        .optional("multipliers")
        .unwrap_or("0.5,1,2,4")
        .split(',')
        .map(|s| s.trim().parse::<f64>().map_err(|_| err(format!("bad multiplier {s:?}"))))
        .collect::<Result<_, _>>()?;

    let tmp = tempfile::tempdir()?;
    let shard_dir = tmp.path().join("shards");
    std::fs::create_dir_all(&shard_dir)?;
    let mut names = Vec::new();
    for i in 0..DATASETS {
        let ds = Dataset::generate(&DatasetSpec {
            n_records: records + i * 37,
            n_chroms: 2,
            coordinate_sorted: true,
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        });
        let name = format!("load{i}");
        let path = shard_dir.join(format!("{name}.bamx"));
        write_bamx_file(&path, &ds.header(), &ds.records, BamxCompression::Plain)?;
        Baix::build(&BamxFile::open(&path)?)?.save(path.with_extension("baix"))?;
        names.push(name);
    }
    let span_bp = (records as u64 * 40).max(20_000) / WINDOWS as u64;
    let windows: Vec<String> = (0..WINDOWS as u64)
        .map(|w| format!("chr1:{}-{}", w * span_bp + 1, (w + 1) * span_bp))
        .collect();

    let profile = LoadProfile {
        seed,
        requests,
        datasets: DATASETS,
        windows: WINDOWS,
        hot_pct: args.get_or("hot", 60u8)?,
        interactive_pct: args.get_or("interactive", 70u8)?,
        interactive_deadline: Some(Duration::from_millis(args.get_or("deadline-ms", 250u64)?)),
        batch_deadline: Some(Duration::from_millis(args.get_or("batch-deadline-ms", 5000u64)?)),
        ..LoadProfile::default()
    };
    let plan = generate_load(&profile);

    let engine_at = |registry: &Arc<Registry>| -> Result<
        (QueryEngine, Arc<dyn ngs_query::Clock>),
        Box<dyn std::error::Error>,
    > {
        let clock: Arc<dyn ngs_query::Clock> = Arc::new(SystemClock::new());
        let store = Arc::new(
            ShardStore::open_with(&shard_dir, DATASETS, Arc::clone(&clock), RetryPolicy::default())?
                .with_segments(EngineConfig::default().segments),
        );
        let engine = QueryEngine::with_store(
            store,
            EngineConfig {
                workers,
                // Roomy enough for the closed-loop calibration, small
                // enough that the overload rows can overflow it.
                queue_capacity: (requests / 8).max(16),
                cache_capacity: DATASETS,
                obs: Some(Arc::clone(registry)),
                ..EngineConfig::default()
            },
            Arc::clone(&clock),
        )?;
        Ok((engine, clock))
    };
    let wait_ok = |ticket: Ticket| -> CmdResult {
        ticket.wait().outcome.map(|_| ()).map_err(|e| err(format!("load query failed: {e}")))
    };
    // Touch every (dataset, window) once so measured passes run warm.
    let warm_up = |engine: &QueryEngine, out: &Path| -> CmdResult {
        for (i, a) in plan.iter().take(DATASETS * WINDOWS * 2).enumerate() {
            let req = a.to_request(&names, &windows, &out.join("warm"), i, None);
            wait_ok(engine.submit(req).map_err(|e| err(format!("warmup submit: {e}")))?)?;
        }
        Ok(())
    };

    // Closed-loop calibration: bounded in-flight, no deadlines — the
    // saturation rate the open-loop sweep is anchored to.
    let capacity_rps = {
        let registry = Arc::new(Registry::new());
        let (engine, _clock) = engine_at(&registry)?;
        let out = tmp.path().join("calibrate");
        warm_up(&engine, &out)?;
        let t0 = Instant::now();
        let mut inflight = std::collections::VecDeque::new();
        for (i, a) in plan.iter().enumerate() {
            if inflight.len() == workers * 4 {
                if let Some(oldest) = inflight.pop_front() {
                    wait_ok(oldest)?;
                }
            }
            let req = a.to_request(&names, &windows, &out.join("pass"), i, None);
            inflight
                .push_back(engine.submit(req).map_err(|e| err(format!("calibrate: {e}")))?);
        }
        for ticket in inflight {
            wait_ok(ticket)?;
        }
        let elapsed = t0.elapsed();
        engine.drain();
        requests as f64 / elapsed.as_secs_f64().max(1e-9)
    };

    let hist_delta = |total: &HistogramSnapshot, prior: &HistogramSnapshot| {
        let mut d = HistogramSnapshot::default();
        for (i, slot) in d.buckets.iter_mut().enumerate() {
            *slot = total.buckets[i].saturating_sub(prior.buckets[i]);
        }
        d.count = total.count.saturating_sub(prior.count);
        d.sum = total.sum.saturating_sub(prior.sum);
        d
    };

    outln!(
        "open-loop overload drill: {DATASETS} datasets, {requests} arrivals/row, \
         {workers} workers; saturation (closed-loop warm) = {capacity_rps:.0} req/s"
    )?;
    outln!("offered  offered/s  goodput  shed  overfl  int p99 ms  batch p99 ms")?;
    for mult in multipliers {
        let offered_rps = capacity_rps * mult;
        let swept = generate_load(&LoadProfile { rate_per_sec: offered_rps, ..profile.clone() });
        let registry = Arc::new(Registry::new());
        let (engine, clock) = engine_at(&registry)?;
        let out = tmp.path().join(format!("x{}", (mult * 10.0) as u32));
        warm_up(&engine, &out)?;
        let before = registry.snapshot();

        // Open-loop replay: pacing comes from the plan alone; typed
        // rejections return immediately and the ledger tallies them.
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(swept.len());
        for (i, a) in swept.iter().enumerate() {
            let elapsed = t0.elapsed();
            if a.at > elapsed {
                std::thread::sleep(a.at - elapsed);
            }
            let deadline = a.deadline.map(|d| clock.now() + d);
            let req = a.to_request(&names, &windows, &out.join("pass"), i, deadline);
            if let Ok(ticket) = engine.submit(req) {
                tickets.push(ticket);
            }
        }
        for t in tickets {
            // Shed-in-queue / deadline outcomes are data, not errors.
            let _ = t.wait();
        }
        engine.drain();
        let after = registry.snapshot();

        let delta = |name: &str| -> u64 {
            after.counters.get(name).copied().unwrap_or(0)
                - before.counters.get(name).copied().unwrap_or(0)
        };
        let p99_ms = |name: &str| -> f64 {
            let d = hist_delta(&after.histograms[name], &before.histograms[name]);
            d.quantile(0.99) as f64 / 1e6
        };
        outln!(
            "{:>6.1}x  {:>9.0}  {:>7}  {:>4}  {:>6}  {:>10.1}  {:>12.1}",
            mult,
            offered_rps,
            delta("query.goodput_completed"),
            delta("query.shed"),
            delta("query.rejected"),
            p99_ms("query.class.interactive.latency_ns"),
            p99_ms("query.class.batch.latency_ns"),
        )?;
    }
    Ok(())
}

/// `ngsp stats [--records N] [--seed S] [--json]`
///
/// Runs a self-contained instrumented smoke workload — synthesize a
/// dataset, preprocess it into crash-safe shards (BGZF-compressed, so
/// the codec counters move; once more from BAM, so the read-ahead and
/// pass-2 batch counters do), stream one shard through the pipeline
/// convert graph, serve convert + coverage queries over the shard
/// directory, then run a duplicate-marking collate pass with forced
/// spilling — and renders the unified `ngs-obs` registry: the shared
/// workload registry (query/store/pipeline/collate) merged with the
/// global one (BGZF codec, shard repository).
pub fn stats_cmd(args: &Args) -> CmdResult {
    use ngs_core::pipeline::{Pipeline, PipelineConfig};
    use ngs_query::{EngineConfig, QueryClass, QueryEngine, QueryKind, QueryRequest};
    use std::sync::Arc;

    let records: usize = args.get_or("records", 2000usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;
    let tmp = tempfile::tempdir()?;
    let registry = Arc::new(ngs_obs::Registry::new());

    let sam = tmp.path().join("stats.sam");
    let spec = DatasetSpec {
        n_records: records,
        n_chroms: 2,
        seed,
        coordinate_sorted: true,
        ..Default::default()
    };
    let dataset = Dataset::generate(&spec);
    dataset.write_sam(&sam)?;
    let shard_dir = tmp.path().join("shards");
    let mut conv = SamxConverter::new(ConvertConfig::with_ranks(2));
    conv.bamx_compression = ngs_bamx::BamxCompression::Bgzf;
    let prep = conv.preprocess_file(&sam, &shard_dir)?;

    // The BAM preprocessing path, for the read-ahead and batch counters:
    // read-ahead consumer stalls mean inflate bounded the ingest, sink
    // stalls the encode workers, split stalls the sink (DESIGN.md §16).
    let bam = tmp.path().join("stats.bam");
    dataset.write_bam(&bam)?;
    BamConverter::new(ConvertConfig::with_ranks(2)).preprocess(&bam, tmp.path().join("bam-shards"))?;

    let pipeline = Pipeline::new(PipelineConfig::default());
    let first = prep
        .shards
        .first()
        .ok_or_else(|| err("preprocessing produced no shards"))?;
    let run = pipeline.convert_file(
        &first.bamx_path,
        TargetFormat::Bed,
        tmp.path().join("pipe-out"),
    )?;
    run.metrics.publish(&registry);

    let config = EngineConfig {
        workers: 2,
        obs: Some(Arc::clone(&registry)),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::new(&shard_dir, config)?;
    let out_dir = tmp.path().join("query-out");
    let mut tickets = Vec::new();
    for dataset in engine.store().datasets()? {
        for kind in [
            QueryKind::Convert { format: TargetFormat::Bed, out_dir: out_dir.clone() },
            QueryKind::Coverage { bin_size: 50 },
        ] {
            let request = QueryRequest {
                dataset: dataset.clone(),
                region: "chr1".to_string(),
                kind,
                deadline: None,
                class: QueryClass::Interactive,
            };
            tickets.push(engine.submit(request).map_err(Box::new)?);
        }
    }
    for t in tickets {
        if let Err(e) = t.wait().outcome {
            return Err(err(format!("smoke query failed: {e}")));
        }
    }
    drop(engine);

    // Collate smoke: duplicate marking through the keyed regroup engine
    // with a forced spill, so the `collate.*` names (spill counters
    // included) land in the registry. A ManualClock keeps the run's
    // duration histogram deterministic.
    let collate_ds = Dataset::generate(&DatasetSpec {
        profile: ngs_simgen::ReadProfile { duplicate_rate: 0.1, ..Default::default() },
        ..spec
    });
    let collate_header = collate_ds.header();
    let collator = Collator::with_clock(
        CollateConfig {
            spill_budget: 64 * 1024,
            spill_dir: Some(tmp.path().join("collate-spill")),
            obs: Some(Arc::clone(&registry)),
            ..Default::default()
        },
        Arc::new(ngs_obs::ManualClock::new()),
    );
    collator.run_records(&collate_header, collate_ds.records, Workload::MarkDup, &mut |_| {
        Ok(())
    })?;

    let mut snapshot = ngs_obs::global().snapshot();
    snapshot.merge(&registry.snapshot());
    if args.switch("json") {
        outln!("{}", snapshot.render_json().trim_end())?;
    } else {
        outln!(
            "instrumented smoke workload: {records} records, {} shards, 1 pipeline run, \
             1 collate run, {} queries",
            prep.shards.len(),
            snapshot.counters.get("query.submitted").copied().unwrap_or(0),
        )?;
        outln!("{}", snapshot.render_text().trim_end())?;
    }
    Ok(())
}

/// `ngsp chaos [--plans N] [--records R] [--seed S]`
///
/// Self-contained fault-injection verification. Builds a deterministic
/// shard pair, then checks three layers of the failure model
/// (DESIGN.md §7):
///
/// 1. **Byte level** — `--plans` seeded random [`ngs_fault::FaultPlan`]s
///    corrupt the shard bytes; every decode must end in a typed error or
///    a clean decode, never a panic or a silent divergence that a
///    checksum could have caught.
/// 2. **Delivery level** — lossless plans (short reads + transient
///    errors) run through a full `QueryEngine` with a fault-injecting
///    shard opener; the retried conversion must be byte-identical to
///    the clean engine's output.
/// 3. **Quarantine** — structurally corrupt shards on disk must be
///    quarantined by the shard store on first decode failure and
///    fail fast (without re-opening) afterwards.
pub fn chaos_cmd(args: &Args) -> CmdResult {
    use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
    use ngs_fault::{Fault, FaultPlan, FaultyFile};
    use ngs_query::{
        EngineConfig, ManualClock, QueryClass, QueryEngine, QueryKind, QueryOutcome,
        QueryRequest, RetryPolicy, ShardStore, SourceOpener,
    };
    use std::sync::Arc;

    if args.switch("crash") {
        return chaos_crash(args);
    }
    if args.switch("dist") {
        return chaos_dist(args);
    }
    if args.switch("overload") {
        return chaos_overload(args);
    }

    let plans: u64 = args.get_or("plans", 64u64)?;
    let records: usize = args.get_or("records", 400usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;

    let ds = Dataset::generate(&DatasetSpec {
        n_records: records,
        n_chroms: 2,
        coordinate_sorted: true,
        seed,
        ..Default::default()
    });
    let dir = tempfile::tempdir()?;
    let shard_dir = dir.path().join("shards");
    std::fs::create_dir_all(&shard_dir)?;
    let bamx_path = shard_dir.join("chaos.bamx");
    write_bamx_file(&bamx_path, &ds.header(), &ds.records, BamxCompression::Bgzf)?;
    Baix::build(&BamxFile::open(&bamx_path)?)?.save(bamx_path.with_extension("baix"))?;
    let pristine = std::fs::read(&bamx_path)?;
    let len = pristine.len() as u64;

    let clean = BamxFile::open_with(Box::new(pristine.clone()), "chaos")?;
    let baseline_records = clean.read_range(0, clean.len())?;

    // --- 1. Byte-level sweep ------------------------------------------------
    let (mut rejected, mut decoded, mut diverged) = (0u64, 0u64, 0u64);
    for p in 0..plans {
        let plan = FaultPlan::random(seed.wrapping_add(p), len);
        let bytes = plan.corrupt(&pristine);
        match BamxFile::open_with(Box::new(bytes), "chaos") {
            Err(_) => rejected += 1,
            Ok(f) => {
                let n = f.len();
                let full = f.read_range(0, n);
                let _ = f.read_record(n / 2);
                let _ = f.positions();
                let _ = Baix::build(&f);
                match full {
                    Err(_) => rejected += 1,
                    Ok(recs) if recs == baseline_records => decoded += 1,
                    Ok(_) => diverged += 1,
                }
            }
        }
    }
    outln!(
        "byte level: {plans} plans -> {rejected} rejected (typed), {decoded} decoded clean, \
         {diverged} diverged (unchecksummed region), 0 panics"
    )?;

    // --- 1b. Byte-level sweep over the v2 columnar layout -------------------
    let bamx2_path = shard_dir.join("chaos2.bamx");
    ngs_bamx::write_bamx_file_versioned(
        &bamx2_path,
        &ds.header(),
        &ds.records,
        BamxCompression::Plain,
        ngs_bamx::BamxVersion::V2,
    )?;
    let pristine2 = std::fs::read(&bamx2_path)?;
    // One shard directory must stay single-version for the engine runs
    // below; the v2 copy only feeds the byte sweep.
    std::fs::remove_file(&bamx2_path)?;
    let len2 = pristine2.len() as u64;
    let (mut rejected2, mut decoded2, mut diverged2) = (0u64, 0u64, 0u64);
    for p in 0..plans {
        let plan = FaultPlan::random(seed.wrapping_add(p).wrapping_mul(31), len2);
        let bytes = plan.corrupt(&pristine2);
        match BamxFile::open_with(Box::new(bytes), "chaos-v2") {
            Err(_) => rejected2 += 1,
            Ok(f) => {
                let n = f.len();
                let full = f.read_range(0, n);
                let _ = f.positions();
                let _ = f.read_range_projected(0, n, ngs_bamx::ColumnSet::POSITIONS);
                let _ = Baix::build(&f);
                match full {
                    Err(_) => rejected2 += 1,
                    Ok(recs) if recs == baseline_records => decoded2 += 1,
                    Ok(_) => diverged2 += 1,
                }
            }
        }
    }
    outln!(
        "byte level (v2): {plans} plans -> {rejected2} rejected (typed), {decoded2} decoded \
         clean, {diverged2} diverged (unchecksummed region), 0 panics"
    )?;

    // --- 2. Delivery-level engine runs --------------------------------------
    // Clean baseline conversion bytes, once.
    let clean_engine = QueryEngine::new(&shard_dir, EngineConfig::with_workers(1))?;
    let request = |out_dir: std::path::PathBuf| QueryRequest {
        dataset: "chaos".into(),
        region: "chr1".into(),
        kind: QueryKind::Convert { format: TargetFormat::Sam, out_dir },
        deadline: None,
        class: QueryClass::Interactive,
    };
    let baseline_out = match clean_engine
        .submit(request(dir.path().join("clean-out")))
        .map_err(|e| err(format!("baseline submit: {e}")))?
        .wait()
        .outcome
    {
        Ok(QueryOutcome::Converted { output, .. }) => std::fs::read(output)?,
        other => return Err(err(format!("baseline conversion failed: {other:?}"))),
    };
    drop(clean_engine);

    const DELIVERY_RUNS: u64 = 6;
    let mut retries_absorbed = 0u64;
    for run in 0..DELIVERY_RUNS {
        let plan = FaultPlan::new(vec![
            Fault::TransientIo { failures: 1 + (run % 3) as u32 },
            Fault::ShortRead { max: 1 + (seed ^ run) % 31 },
        ]);
        assert!(plan.is_lossless());
        // One shared wrapper per path, so the transient budget drains
        // across the store's retries like a recovering mount.
        let budget = plan.total_transient_failures();
        let sources: std::sync::Mutex<
            std::collections::HashMap<std::path::PathBuf, Arc<FaultyFile<Vec<u8>>>>,
        > = std::sync::Mutex::new(std::collections::HashMap::new());
        let plan_for_opener = plan.clone();
        let opener: Box<SourceOpener> = Box::new(move |path| {
            let mut map = sources.lock().expect("chaos opener mutex");
            let source = map.entry(path.to_path_buf()).or_insert_with(|| {
                let bytes = std::fs::read(path).unwrap_or_default();
                Arc::new(FaultyFile::new(bytes, plan_for_opener.clone()))
            });
            Ok(Box::new(Arc::clone(source)))
        });
        let clock = Arc::new(ManualClock::new());
        let store = Arc::new(
            ShardStore::open_with(
                &shard_dir,
                4,
                clock.clone(),
                // Both the .bamx and .baix wrappers carry the full budget;
                // size attempts so one get always drains them.
                RetryPolicy { attempts: budget * 2 + 1, ..RetryPolicy::default() },
            )?
            .with_opener(opener),
        );
        let engine = QueryEngine::with_store(store, EngineConfig::with_workers(1), clock)?;
        let outcome = engine
            .submit(request(dir.path().join(format!("chaos-out-{run}"))))
            .map_err(|e| err(format!("delivery run {run} submit: {e}")))?
            .wait()
            .outcome;
        let Ok(QueryOutcome::Converted { output, .. }) = outcome else {
            return Err(err(format!(
                "delivery run {run}: conversion failed under lossless plan {plan:?}: {outcome:?}"
            )));
        };
        if std::fs::read(&output)? != baseline_out {
            return Err(err(format!(
                "delivery run {run}: output bytes diverged under lossless plan {plan:?}"
            )));
        }
        retries_absorbed += engine.drain().transient_retries;
    }
    outln!(
        "delivery level: {DELIVERY_RUNS} engine runs -> {DELIVERY_RUNS} byte-identical \
         conversions, {retries_absorbed} transient retries absorbed"
    )?;

    // --- 3. Quarantine ------------------------------------------------------
    const QUARANTINE_RUNS: u64 = 8;
    let clock = Arc::new(ManualClock::new());
    let store =
        ShardStore::open_with(&shard_dir, 4, clock, RetryPolicy::default())?;
    let mut quarantined = 0u64;
    let mut survived_corruption = 0u64;
    for q in 0..QUARANTINE_RUNS {
        // Damage that open-time validation sees: flipped magic/prologue
        // bytes or a mid-file truncation. (Payload-only damage hides
        // until a read decompresses the block, so it cannot exercise the
        // open-failure quarantine this phase verifies.)
        let plan = if q % 2 == 0 {
            FaultPlan::new(vec![Fault::TruncateAt { offset: len / 2 + q }])
        } else {
            FaultPlan::new(vec![Fault::BitFlip { offset: q % 10, mask: 0x7F }])
        };
        let name = format!("corrupt-{q}");
        std::fs::write(shard_dir.join(format!("{name}.bamx")), plan.corrupt(&pristine))?;
        std::fs::copy(
            bamx_path.with_extension("baix"),
            shard_dir.join(format!("{name}.baix")),
        )?;
        match store.get(&name) {
            Ok(_) => survived_corruption += 1, // damage landed in slack
            Err(first) => {
                if !store.is_quarantined(&name) {
                    return Err(err(format!(
                        "quarantine run {q}: structural failure did not quarantine: {first}"
                    )));
                }
                let second = store.get(&name).expect_err("quarantined dataset must keep failing");
                if !second.to_string().contains("quarantined") {
                    return Err(err(format!(
                        "quarantine run {q}: expected fail-fast quarantine error, got: {second}"
                    )));
                }
                quarantined += 1;
            }
        }
    }
    outln!(
        "quarantine: {QUARANTINE_RUNS} corrupt shards -> {quarantined} quarantined + \
         fail-fast verified, {survived_corruption} decoded clean (damage in slack); \
         store counters: {:?}",
        store.counters()
    )?;
    outln!("chaos: all checks passed ({plans} plans, seed {seed}, {records} records)")?;
    Ok(())
}

/// `ngsp chaos --crash [--points N] [--records R] [--ranks M] [--seed S]`
///
/// The power-cut matrix (DESIGN.md §7.5). A reference preprocessing run
/// measures the total publication byte stream; then for `--points`
/// evenly spaced offsets the run is killed at exactly that byte via
/// [`ngs_fault::FaultyFs`], and after each simulated crash the harness
/// asserts the crash-consistency invariant end to end:
///
/// 1. the repository reopens and `verify()` reports **no damaged
///    artifact** (the manifest never references a torn file);
/// 2. a resumed preprocess rebuilds only what was lost and restores a
///    **byte-identical** shard set (including the MANIFEST);
/// 3. a query engine over the recovered directory serves the same
///    bytes as one over the reference directory.
///
/// A second sweep kills a *rank-count-change* rerun at byte offsets of
/// its publication stream — covering the prune / meta-rewrite / rebuild
/// window — and asserts resume never serves shards from the old layout.
///
/// A third sweep targets the collate shuffle (DESIGN.md §10): power
/// cuts at byte offsets of a spilling duplicate-marking run's spill
/// stream, plus merge-consumer kills partway through the merged output.
/// After every cut the spill repositories must verify clean and a rerun
/// over the same directory must be byte-identical.
fn chaos_crash(args: &Args) -> CmdResult {
    use ngs_bamx::repo::ShardRepo;
    use ngs_converter::MemSource;
    use ngs_fault::{Fault, FaultPlan, FaultyFs};
    use ngs_query::{EngineConfig, QueryClass, QueryEngine, QueryKind, QueryOutcome, QueryRequest};
    use std::sync::Arc;

    let points: u64 = args.get_or("points", 10u64)?;
    let records: usize = args.get_or("records", 400usize)?;
    let ranks: usize = args.get_or("ranks", 3usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;

    let ds = Dataset::generate(&DatasetSpec {
        n_records: records,
        n_chroms: 2,
        coordinate_sorted: true,
        seed,
        ..Default::default()
    });
    let source = MemSource::new(ds.to_sam_bytes());
    let conv = SamxConverter::new(ConvertConfig::with_ranks(ranks));
    let dir = tempfile::tempdir()?;

    // Reference run through an instrumented (fault-free) fs, to learn the
    // total publication stream length and snapshot the expected bytes.
    let ref_dir = dir.path().join("reference");
    let fs = FaultyFs::new(FaultPlan::none());
    let total = {
        let state = Arc::clone(fs.state());
        let repo = ShardRepo::create_with(&ref_dir, Arc::new(fs))?;
        conv.preprocess_source_repo(&source, &repo, "x", false)?;
        state.written()
    };
    let mut reference = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&ref_dir)? {
        let path = entry?.path();
        if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
            reference.insert(name.to_string(), std::fs::read(&path)?);
        }
    }

    // Reference query bytes: one region conversion over the clean repo.
    let query_bytes = |shard_dir: &Path, out: std::path::PathBuf| -> Result<Vec<u8>, Box<dyn std::error::Error>> {
        let engine = QueryEngine::new(shard_dir, EngineConfig::with_workers(1))?;
        let dataset = engine
            .store()
            .datasets()?
            .first()
            .cloned()
            .ok_or_else(|| err("no datasets in repaired directory"))?;
        let outcome = engine
            .submit(QueryRequest {
                dataset,
                region: "chr1".into(),
                kind: QueryKind::Convert { format: TargetFormat::Sam, out_dir: out },
                deadline: None,
                class: QueryClass::Interactive,
            })
            .map_err(|e| err(format!("submit: {e}")))?
            .wait()
            .outcome;
        match outcome {
            Ok(QueryOutcome::Converted { output, .. }) => Ok(std::fs::read(output)?),
            other => Err(err(format!("query failed: {other:?}"))),
        }
    };
    let baseline_query = query_bytes(&ref_dir, dir.path().join("ref-out"))?;

    // Evenly spaced crash points, plus tail points: the rank threads
    // publish concurrently, so most shards seal near the stream's end —
    // only late crashes leave recorded shards for resume to skip, and the
    // matrix must exercise that path too (not just full rebuilds).
    let mut offsets: Vec<u64> = (0..points).map(|p| total * p / points).collect();
    offsets.push(total.saturating_sub(total / 50).max(1));
    offsets.push(total.saturating_sub(1));
    offsets.dedup();

    let (mut crashed, mut resumed_shards, mut rebuilt_shards) = (0u64, 0u64, 0u64);
    for (p, offset) in offsets.iter().copied().enumerate() {
        let crash_dir = dir.path().join(format!("crash-{p}"));
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let run = ShardRepo::create_with(&crash_dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| conv.preprocess_source_repo(&source, &repo, "x", false));
        if run.is_err() {
            crashed += 1;
        } else {
            return Err(err(format!(
                "crash point {p} (byte {offset} of {total}): run survived its own crash"
            )));
        }

        // Invariant 1: the repository reopens and nothing the manifest
        // lists is torn — a crash leaves old state or new state, never a
        // half-written artifact behind a manifest entry.
        let repo = ShardRepo::create(&crash_dir)?;
        let report = repo.verify()?;
        if !report.is_clean() {
            return Err(err(format!(
                "crash point {p} (byte {offset}): manifest references damaged artifacts: {:?}",
                report.damaged
            )));
        }
        repo.clean_stray_temps()?;

        // Invariant 2: resume redoes only the lost tail and restores a
        // byte-identical shard set, MANIFEST included.
        let prep = conv.preprocess_source_repo(&source, &repo, "x", true)?;
        resumed_shards += prep.shards.iter().filter(|s| s.resumed).count() as u64;
        rebuilt_shards += prep.shards.iter().filter(|s| !s.resumed).count() as u64;
        for (name, bytes) in &reference {
            let recovered = std::fs::read(crash_dir.join(name))?;
            if recovered != *bytes {
                return Err(err(format!(
                    "crash point {p} (byte {offset}): {name} diverged after resume \
                     ({} vs {} bytes)",
                    recovered.len(),
                    bytes.len()
                )));
            }
        }
        let mut names: Vec<String> = std::fs::read_dir(&crash_dir)?
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        names.sort();
        let expected: Vec<&String> = reference.keys().collect();
        if names.iter().collect::<Vec<_>>() != expected {
            return Err(err(format!(
                "crash point {p} (byte {offset}): directory contents diverged: {names:?}"
            )));
        }

        // Invariant 3: the query engine serves the recovered repository
        // identically to the reference.
        let out = query_bytes(&crash_dir, dir.path().join(format!("crash-out-{p}")))?;
        if out != baseline_query {
            return Err(err(format!(
                "crash point {p} (byte {offset}): query output diverged after recovery"
            )));
        }
    }
    outln!(
        "crash matrix: {crashed} simulated power cuts over a {total}-byte publication \
         stream ({ranks} ranks) -> every repository reopened clean, {resumed_shards} \
         shard(s) resumed, {rebuilt_shards} rebuilt, all byte-identical, queries identical"
    )?;

    // --- Meta-update window ------------------------------------------------
    // A rank-count change rewrites the manifest meta before rebuilding a
    // single shard; a crash inside that window leaves a meta that matches
    // the *next* run over shards built under the old layout. Sweep byte
    // offsets of a narrow rerun's publication stream over a wide
    // repository (covering prune, meta rewrite, and rebuild), and assert
    // the same three invariants after each cut.
    let wide = SamxConverter::new(ConvertConfig::with_ranks(ranks + 1));
    let wide_dir = dir.path().join("meta-wide");
    wide.preprocess_source(&source, &wide_dir, "x")?;
    let copy_dir = |from: &Path, to: &Path| -> std::io::Result<()> {
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(from)? {
            let entry = entry?;
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
        Ok(())
    };
    // Instrumented uncrashed rerun to learn the rank-change stream length.
    let rerun_total = {
        let probe_dir = dir.path().join("meta-probe");
        copy_dir(&wide_dir, &probe_dir)?;
        let fs = FaultyFs::new(FaultPlan::none());
        let state = Arc::clone(fs.state());
        let repo = ShardRepo::open_with(&probe_dir, Arc::new(fs))?;
        conv.preprocess_source_repo(&source, &repo, "x", true)?;
        state.written()
    };
    let meta_points = points.clamp(4, 8);
    let mut meta_offsets: Vec<u64> =
        (0..meta_points).map(|p| 1 + rerun_total * p / meta_points).collect();
    meta_offsets.push(rerun_total.saturating_sub(1));
    meta_offsets.dedup();
    let mut meta_crashes = 0u64;
    for (p, offset) in meta_offsets.iter().copied().enumerate() {
        let crash_dir = dir.path().join(format!("meta-crash-{p}"));
        copy_dir(&wide_dir, &crash_dir)?;
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let run = ShardRepo::open_with(&crash_dir, Arc::new(FaultyFs::new(plan)))
            .and_then(|repo| conv.preprocess_source_repo(&source, &repo, "x", true));
        if run.is_err() {
            meta_crashes += 1;
        } else {
            return Err(err(format!(
                "meta-window point {p} (byte {offset} of {rerun_total}): run survived \
                 its own crash"
            )));
        }

        let repo = ShardRepo::create(&crash_dir)?;
        let report = repo.verify()?;
        if !report.is_clean() {
            return Err(err(format!(
                "meta-window point {p} (byte {offset}): damaged artifacts behind the \
                 manifest: {:?}",
                report.damaged
            )));
        }
        repo.clean_stray_temps()?;

        let prep = conv.preprocess_source_repo(&source, &repo, "x", true)?;
        let total_records: u64 = prep.shards.iter().map(|s| s.records).sum();
        if total_records != records as u64 {
            return Err(err(format!(
                "meta-window point {p} (byte {offset}): resume served {total_records} of \
                 {records} records — stale shards survived the rank change"
            )));
        }
        for (name, bytes) in &reference {
            let recovered = std::fs::read(crash_dir.join(name))?;
            if recovered != *bytes {
                return Err(err(format!(
                    "meta-window point {p} (byte {offset}): {name} diverged after resume"
                )));
            }
        }
        let mut names: Vec<String> = std::fs::read_dir(&crash_dir)?
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        names.sort();
        if names.iter().collect::<Vec<_>>() != reference.keys().collect::<Vec<_>>() {
            return Err(err(format!(
                "meta-window point {p} (byte {offset}): stale shards left behind: {names:?}"
            )));
        }
        let out = query_bytes(&crash_dir, dir.path().join(format!("meta-out-{p}")))?;
        if out != baseline_query {
            return Err(err(format!(
                "meta-window point {p} (byte {offset}): query output diverged"
            )));
        }
    }
    outln!(
        "meta-update window: {meta_crashes} power cuts across a {} -> {ranks} rank change \
         ({rerun_total}-byte rerun stream) -> no stale shard served, all byte-identical",
        ranks + 1
    )?;

    // --- Collate spill / merge kill points ---------------------------------
    // The regroup shuffle publishes every spilled run through the same
    // temp+rename manifest protocol (DESIGN.md §10.3). Kill the writer
    // at swept byte offsets of its spill stream, reopen, and assert the
    // spill repositories verify clean and a rerun over the same
    // directory is byte-identical. A second sweep kills the *merge
    // consumer* after k emitted records — the merge is read-only, so
    // the repositories must stay clean there too.
    let dup_ds = Dataset::generate(&DatasetSpec {
        n_records: records,
        n_chroms: 2,
        seed,
        profile: ngs_simgen::ReadProfile { duplicate_rate: 0.15, ..Default::default() },
        ..Default::default()
    });
    let header = dup_ds.header();
    let collate_config = |spill_dir: std::path::PathBuf,
                          fs: Option<Arc<dyn ngs_bamx::repo::RepoFs>>| CollateConfig {
        spill_budget: 4_000,
        spill_dir: Some(spill_dir),
        spill_fs: fs,
        ..Default::default()
    };
    let run_markdup = |config: CollateConfig| -> Result<Vec<AlignmentRecord>, Box<dyn std::error::Error>> {
        let mut out = Vec::new();
        Collator::new(config).run_records(&header, dup_ds.records.clone(), Workload::MarkDup, &mut |r| {
            out.push(r);
            Ok(())
        })?;
        Ok(out)
    };

    // Instrumented fault-free reference: learn the spill stream length
    // and the expected output.
    let spill_ref = dir.path().join("collate-ref");
    let fs = FaultyFs::new(FaultPlan::none());
    let spill_state = Arc::clone(fs.state());
    let expected_out = run_markdup(collate_config(spill_ref.clone(), Some(Arc::new(fs))))?;
    let spill_total = spill_state.written();
    if spill_total == 0 {
        return Err(err("collate crash sweep: the budget did not force spilling"));
    }

    let spill_points = points.clamp(4, 10);
    let mut spill_offsets: Vec<u64> =
        (0..spill_points).map(|p| 1 + spill_total * p / spill_points).collect();
    spill_offsets.push(spill_total.saturating_sub(1));
    spill_offsets.dedup();
    let verify_spill_repos = |spill_dir: &Path| -> CmdResult {
        for phase in ["markdup", "restore"] {
            let phase_dir = spill_dir.join(phase);
            // A crash can land before a phase publishes anything.
            if !ngs_bamx::repo::ShardRepo::is_managed(&phase_dir) {
                continue;
            }
            let repo = ngs_bamx::repo::ShardRepo::open(&phase_dir)?;
            let report = repo.verify()?;
            if !report.is_clean() {
                return Err(err(format!(
                    "collate spill repo {phase:?} damaged after kill: {:?}",
                    report.damaged
                )));
            }
            repo.clean_stray_temps()?;
        }
        Ok(())
    };
    let mut spill_kills = 0u64;
    for (p, offset) in spill_offsets.iter().copied().enumerate() {
        let spill_dir = dir.path().join(format!("collate-crash-{p}"));
        let plan = FaultPlan::new(vec![Fault::CrashAtByte { offset }]);
        let killed = run_markdup(collate_config(
            spill_dir.clone(),
            Some(Arc::new(FaultyFs::new(plan))),
        ));
        if killed.is_err() {
            spill_kills += 1;
        } else {
            return Err(err(format!(
                "collate spill point {p} (byte {offset} of {spill_total}): run survived \
                 its own crash"
            )));
        }
        verify_spill_repos(&spill_dir)?;
        // Rerun over the surviving directory: deterministic run names
        // republish through the manifest; output must be byte-identical.
        let rerun = run_markdup(collate_config(spill_dir.clone(), None))?;
        if rerun != expected_out {
            return Err(err(format!(
                "collate spill point {p} (byte {offset}): rerun output diverged"
            )));
        }
        verify_spill_repos(&spill_dir)?;
    }

    // Merge-kill: fail the emit sink partway through the merged stream.
    let mut merge_kills = 0u64;
    for (p, keep) in [1u64, records as u64 / 2, records as u64 - 1].iter().enumerate() {
        let spill_dir = dir.path().join(format!("collate-merge-kill-{p}"));
        let mut emitted = 0u64;
        let run = Collator::new(collate_config(spill_dir.clone(), None)).run_records(
            &header,
            dup_ds.records.clone(),
            Workload::MarkDup,
            &mut |_| {
                if emitted == *keep {
                    return Err(ngs_formats::Error::InvalidRecord(
                        "injected merge-consumer kill".into(),
                    ));
                }
                emitted += 1;
                Ok(())
            },
        );
        if run.is_err() {
            merge_kills += 1;
        } else {
            return Err(err(format!(
                "collate merge kill {p} (after {keep} records): run survived its own kill"
            )));
        }
        verify_spill_repos(&spill_dir)?;
        let rerun = run_markdup(collate_config(spill_dir.clone(), None))?;
        if rerun != expected_out {
            return Err(err(format!(
                "collate merge kill {p}: rerun output diverged"
            )));
        }
    }
    outln!(
        "collate kill matrix: {spill_kills} spill-stream power cuts \
         ({spill_total}-byte stream) + {merge_kills} merge-consumer kills -> every spill \
         repository reopened clean, reruns byte-identical"
    )?;

    outln!(
        "chaos --crash: all checks passed ({} crash points, seed {seed})",
        offsets.len() + meta_offsets.len() + spill_offsets.len() + 3
    )?;
    Ok(())
}

/// Writes `n_shards` deterministic datasets (`d00.bamx`/`.baix`, …)
/// into `source`, returning their names. Shared by `ngsp dist` and
/// `ngsp chaos --dist`.
fn dist_fixture(source: &Path, n_shards: usize, records: usize, seed: u64) -> CmdResult2<Vec<String>> {
    use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
    let mut names = Vec::with_capacity(n_shards);
    for i in 0..n_shards {
        let name = format!("d{i:02}");
        let ds = Dataset::generate(&DatasetSpec {
            n_records: records,
            n_chroms: 2,
            coordinate_sorted: true,
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        });
        let bamx_path = source.join(format!("{name}.bamx"));
        write_bamx_file(&bamx_path, &ds.header(), &ds.records, BamxCompression::Bgzf)?;
        Baix::build(&BamxFile::open(&bamx_path)?)?.save(bamx_path.with_extension("baix"))?;
        names.push(name);
    }
    Ok(names)
}

/// Value-returning sibling of [`CmdResult`].
type CmdResult2<T> = Result<T, Box<dyn std::error::Error>>;

/// The query plan `ngsp dist` serves: whole-chromosome and windowed
/// regions per dataset, SAM output (the paper's partial-conversion
/// query shape).
fn dist_queries(datasets: &[String]) -> Vec<ngs_dist::DistQuery> {
    let mut out = Vec::new();
    for d in datasets {
        for region in ["chr1", "chr1:1-60000", "chr2"] {
            out.push(ngs_dist::DistQuery {
                dataset: d.clone(),
                region: region.into(),
                format: TargetFormat::Sam,
            });
        }
    }
    out
}

/// `ngsp dist [--ranks N] [--replicas R] [--shards S] [--records N]
///            [--kill RANK] [--transport thread|socket] [--seed S] [--vnodes V]`
///
/// End-to-end distributed serving (DESIGN.md §12): synthesizes datasets,
/// places them with R-way replication (seeded rendezvous hashing),
/// materialises replicas into per-rank crash-safe repositories, then
/// serves the query plan — through the in-process failover [`Router`]
/// (`--transport thread`, default) or over the framed loopback socket
/// transport with one RPC server per rank (`--transport socket`).
/// `--kill RANK` kills that rank mid-plan and verifies every answer
/// stays byte-identical to the healthy run. Prints the `dist.*` metrics.
pub fn dist_cmd(args: &Args) -> CmdResult {
    use ngs_dist::{place, replicate, PlacementConfig, Router, RouterConfig};
    use ngs_query::ManualClock;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let n_ranks: usize = args.get_or("ranks", 3usize)?;
    let replicas: usize = args.get_or("replicas", 2usize)?;
    let n_shards: usize = args.get_or("shards", 4usize)?;
    let records: usize = args.get_or("records", 300usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;
    let vnodes: u32 = args.get_or("vnodes", 16u32)?;
    let kill: Option<usize> = match args.optional("kill") {
        Some(k) => Some(k.parse().map_err(|_| err(format!("--kill {k:?}: not a rank")))?),
        None => None,
    };
    let transport = args.optional("transport").unwrap_or("thread");
    if n_ranks == 0 {
        return Err(err("--ranks must be at least 1"));
    }
    if let Some(k) = kill {
        if k >= n_ranks {
            return Err(err(format!("--kill {k} out of range (world has {n_ranks} ranks)")));
        }
        if n_ranks < 2 || replicas < 2 {
            return Err(err("--kill needs --ranks >= 2 and --replicas >= 2 to fail over"));
        }
    }

    let dir = tempfile::tempdir()?;
    let source = dir.path().join("source");
    std::fs::create_dir_all(&source)?;
    let datasets = dist_fixture(&source, n_shards, records, seed)?;
    let ranks: BTreeSet<usize> = (0..n_ranks).collect();
    let config = PlacementConfig { seed, vnodes, replicas };
    let map = place(&datasets, &ranks, &config);
    let published = replicate(&source, &map, dir.path())?;
    outln!(
        "placement: {n_shards} shards x {} replicas over {n_ranks} ranks \
         (seed {seed}, {vnodes} vnodes), {published} artifacts published"
    , map.config().replicas.min(n_ranks))?;
    for d in &datasets {
        outln!("  {d} -> ranks {:?}", map.replicas(d))?;
    }

    let queries = dist_queries(&datasets);
    let registry = Arc::new(ngs_obs::Registry::new());
    let scratch = dir.path().join("scratch");

    // Healthy baseline through the in-process router (replicas serve
    // identical bytes, so this is the reference for both transports).
    let (healthy, _) = {
        let reg = Arc::new(ngs_obs::Registry::new());
        let router = Router::new(
            map.clone(),
            dir.path(),
            &dir.path().join("healthy-scratch"),
            Arc::new(ManualClock::new()),
            Arc::clone(&reg),
            RouterConfig::default(),
        )?;
        (router, reg)
    };
    let mut baseline = Vec::with_capacity(queries.len());
    for q in &queries {
        baseline.push(healthy.query(q).map_err(|e| err(format!("healthy {q:?}: {e}")))?);
    }
    drop(healthy);

    match transport {
        "thread" => {
            let router = Router::new(
                map.clone(),
                dir.path(),
                &scratch,
                Arc::new(ManualClock::new()),
                Arc::clone(&registry),
                RouterConfig::default(),
            )?;
            if let Some(k) = kill {
                router.kill(k);
                outln!("killed rank {k} before serving")?;
            }
            for (q, want) in queries.iter().zip(&baseline) {
                let got = router.query(q).map_err(|e| err(format!("{q:?}: {e}")))?;
                if &got != want {
                    return Err(err(format!("{q:?}: bytes diverged from healthy run")));
                }
            }
        }
        "socket" => {
            // World layout: ranks 0..n_ranks serve their repos over the
            // wire; the extra last rank is the client, so placement
            // ranks and world ids coincide and --kill means the same
            // rank in both transports.
            let client_rank = n_ranks;
            let world = ngs_dist::SocketTransport::create_world_obs(n_ranks + 1, &registry)
                .map_err(|e| err(format!("socket world: {e}")))?;
            let dist_metrics = ngs_dist::DistMetrics::register(&registry);
            let convert = ConvertConfig::with_ranks(1);
            let root = dir.path();
            let outcome: CmdResult = std::thread::scope(|s| {
                let (world, queries, baseline, convert, map, scratch, dist_metrics) =
                    (&world, &queries, &baseline, &convert, &map, &scratch, &dist_metrics);
                let mut handles = Vec::with_capacity(n_ranks);
                for (rank, endpoint) in world.iter().take(n_ranks).enumerate() {
                    handles.push((rank, s.spawn(move || -> ngs_formats::error::Result<()> {
                        let store = ngs_query::ShardStore::open_with(
                            ngs_dist::rank_repo_dir(root, rank),
                            16,
                            Arc::new(ManualClock::new()),
                            ngs_query::RetryPolicy::default(),
                        )?;
                        ngs_dist::rpc::serve(
                            endpoint,
                            client_rank,
                            &store,
                            convert,
                            &scratch.join(format!("rank{rank:03}")),
                        )
                    })));
                }
                let client = ngs_dist::DistClient::new(&world[client_rank]);
                if let Some(k) = kill {
                    world[k].close();
                    outln!("killed rank {k} (socket endpoint closed) before serving")?;
                }
                for (q, want) in queries.iter().zip(baseline.iter()) {
                    let got = client
                        .query_with_failover(map.replicas(&q.dataset), q, Some(dist_metrics))
                        .map_err(|e| err(format!("{q:?}: {e}")))?;
                    if &got != want {
                        return Err(err(format!("{q:?}: bytes diverged from healthy run")));
                    }
                }
                // Release the surviving server loops, then surface any
                // server-side error.
                for rank in 0..n_ranks {
                    if kill != Some(rank) {
                        client.shutdown(rank)?;
                    }
                }
                for (rank, h) in handles {
                    match h.join() {
                        Ok(Ok(())) => {}
                        Ok(Err(e)) => return Err(err(format!("rank {rank} server: {e}"))),
                        Err(_) => return Err(err(format!("rank {rank} server panicked"))),
                    }
                }
                Ok(())
            });
            outcome?;
        }
        other => return Err(err(format!("--transport {other:?}: use thread or socket"))),
    }

    outln!(
        "served {} queries over {transport} transport{}: all byte-identical to the healthy run",
        queries.len(),
        match kill {
            Some(k) => format!(" with rank {k} dead"),
            None => String::new(),
        }
    )?;
    let snapshot = registry.snapshot();
    for (name, value) in &snapshot.counters {
        if name.starts_with("dist.") {
            outln!("  {name} = {value}")?;
        }
    }
    Ok(())
}

/// `ngsp chaos --dist [--plans N] [--records R] [--ranks M] [--seed S]`
///
/// The distributed failure matrix (DESIGN.md §12):
///
/// 1. **Kill-a-rank** — R = 2 replicas over `--ranks` ranks; each rank
///    in turn is killed mid-query-plan and every query must answer
///    byte-identically to the healthy run, both via failover routing
///    and after a permanent `apply_leave` rebalance.
/// 2. **Delivery faults** — `--plans` seeded
///    [`ngs_fault::FaultPlan::random_transport`] plans (drop, duplicate,
///    delay, mid-frame disconnect) strike the RPC client's transport;
///    every response must stay byte-identical.
///
/// Exits nonzero on any violation.
fn chaos_dist(args: &Args) -> CmdResult {
    use ngs_cluster::Communicator;
    use ngs_dist::{place, replicate, PlacementConfig, Router, RouterConfig};
    use ngs_fault::{FaultPlan, FaultyTransport};
    use ngs_query::ManualClock;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let plans: u64 = args.get_or("plans", 12u64)?;
    let records: usize = args.get_or("records", 300usize)?;
    let n_ranks: usize = args.get_or("ranks", 3usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;
    if n_ranks < 2 {
        return Err(err("--dist needs --ranks >= 2 (failover requires a survivor)"));
    }

    let dir = tempfile::tempdir()?;
    let source = dir.path().join("source");
    std::fs::create_dir_all(&source)?;
    let datasets = dist_fixture(&source, 3, records, seed)?;
    let ranks: BTreeSet<usize> = (0..n_ranks).collect();
    let config = PlacementConfig { seed, ..Default::default() };
    let map = place(&datasets, &ranks, &config);
    replicate(&source, &map, dir.path())?;
    let queries = dist_queries(&datasets);

    let build_router = |scratch: &Path| -> CmdResult2<Router> {
        Ok(Router::new(
            map.clone(),
            dir.path(),
            scratch,
            Arc::new(ManualClock::new()),
            Arc::new(ngs_obs::Registry::new()),
            RouterConfig::default(),
        )?)
    };
    let healthy = build_router(&dir.path().join("scratch-healthy"))?;
    let mut baseline = Vec::with_capacity(queries.len());
    for q in &queries {
        baseline.push(healthy.query(q)?);
    }
    drop(healthy);

    // --- 1. Kill-a-rank matrix ---------------------------------------------
    for dead in 0..n_ranks {
        let router = build_router(&dir.path().join(format!("scratch-kill{dead}")))?;
        router.kill(dead);
        for (q, want) in queries.iter().zip(&baseline) {
            let got = router.query(q).map_err(|e| {
                err(format!("rank {dead} dead: {q:?} unanswerable: {e}"))
            })?;
            if &got != want {
                return Err(err(format!("rank {dead} dead: {q:?} diverged from healthy run")));
            }
        }
    }
    // Permanent departure: rebalance, then verify identity again.
    let mut router = build_router(&dir.path().join("scratch-leave"))?;
    let plan = router.apply_leave(n_ranks - 1)?;
    for (q, want) in queries.iter().zip(&baseline) {
        if &router.query(q)? != want {
            return Err(err(format!("after apply_leave: {q:?} diverged from healthy run")));
        }
    }
    outln!(
        "kill matrix: {n_ranks} single-rank deaths + 1 permanent leave \
         ({} slots rebalanced) -> {} queries byte-identical each time",
        plan.moves.len(),
        queries.len()
    )?;

    // --- 2. Delivery-fault RPC matrix --------------------------------------
    // A dedicated 2-rank, R = 2 placement so rank 0's repo holds every
    // dataset and one RPC server can answer the whole query plan.
    let rpc_root = dir.path().join("rpc");
    let rpc_ranks: BTreeSet<usize> = (0..2).collect();
    let rpc_map = place(&datasets, &rpc_ranks, &config);
    replicate(&source, &rpc_map, &rpc_root)?;
    let convert = ConvertConfig::with_ranks(1);
    for p in 0..plans {
        let fault_plan = FaultPlan::random_transport(seed.wrapping_add(p), 24);
        let world = Communicator::create_world(2);
        let server_out = dir.path().join(format!("rpc-out-{p}"));
        let outcome: CmdResult = std::thread::scope(|s| {
            let (queries, baseline, convert, fault_plan, rpc_root, server_out) =
                (&queries, &baseline, &convert, &fault_plan, &rpc_root, &server_out);
            let (client_t, server_t) = {
                let mut it = world.iter();
                let c = it.next().ok_or_else(|| err("empty world"))?;
                (c, it.next().ok_or_else(|| err("one-rank world"))?)
            };
            let handle = s.spawn(move || -> ngs_formats::error::Result<()> {
                let store = ngs_query::ShardStore::open_with(
                    ngs_dist::rank_repo_dir(rpc_root, 0),
                    16,
                    Arc::new(ManualClock::new()),
                    ngs_query::RetryPolicy::default(),
                )?;
                ngs_dist::rpc::serve(server_t, 0, &store, convert, server_out)
            });
            // Faults strike the client's side of the wire; every reply
            // must still be byte-identical to the healthy baseline.
            let faulty = FaultyTransport::new(client_t, fault_plan.clone());
            let client = ngs_dist::DistClient::new(&faulty);
            for (q, want) in queries.iter().zip(baseline.iter()) {
                let got = client
                    .query(1, q)
                    .map_err(|e| err(format!("plan {p} ({fault_plan:?}): {q:?}: {e}")))?;
                if &got != want {
                    return Err(err(format!(
                        "plan {p} ({fault_plan:?}): {q:?} diverged under delivery faults"
                    )));
                }
            }
            // Clean shutdown over the raw transport (a fault on the
            // shutdown exchange could strand the server).
            ngs_dist::DistClient::new(client_t)
                .shutdown(1)
                .map_err(|e| err(format!("plan {p}: shutdown: {e}")))?;
            match handle.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(err(format!("plan {p}: server: {e}"))),
                Err(_) => Err(err(format!("plan {p}: server panicked"))),
            }
        });
        outcome?;
    }
    outln!(
        "delivery matrix: {plans} transport fault plans (drop/duplicate/delay/mid-frame) \
         -> all RPC responses byte-identical"
    )?;
    outln!("chaos --dist: all checks passed ({n_ranks} ranks, {plans} plans, seed {seed})")?;
    Ok(())
}

/// `ngsp chaos --overload [--plans N] [--records R] [--seed S]`
///
/// The overload matrix (DESIGN.md §13): seeded *lossless* delivery
/// faults (transient I/O + short reads) strike the shard opener while a
/// burst of requests far past queue capacity hammers a small engine.
/// For every fault plan the run must hold the degradation invariants:
///
/// 1. every rejection is **typed** (`Overloaded` with a nonzero
///    `retry_after`, or a `Shed` reason) — never a panic or an untyped
///    failure;
/// 2. every *accepted* request completes, and its conversion output is
///    **byte-identical** to a clean, unloaded engine's (load control
///    changes who is served, never what they are served);
/// 3. the ledger drains exactly: admitted = completed, failed = 0, and
///    the rejection tally matches the submit loop's count;
/// 4. overload plus transient faults alone never **quarantine** a
///    healthy shard — shedding is a delivery decision, not a data
///    verdict.
fn chaos_overload(args: &Args) -> CmdResult {
    use ngs_bamx::{write_bamx_file, Baix, BamxCompression, BamxFile};
    use ngs_fault::{Fault, FaultPlan, FaultyFile};
    use ngs_query::{
        generate_load, EngineConfig, LoadProfile, ManualClock, QueryEngine, QueryError,
        QueryOutcome, RetryPolicy, ShardStore, SourceOpener,
    };
    use std::sync::Arc;

    const DATASETS: usize = 3;
    const WINDOWS: usize = 4;
    let plans: u64 = args.get_or("plans", 6u64)?;
    let records: usize = args.get_or("records", 300usize)?;
    let seed: u64 = args.get_or("seed", 20140519u64)?;

    let dir = tempfile::tempdir()?;
    let shard_dir = dir.path().join("shards");
    std::fs::create_dir_all(&shard_dir)?;
    let mut names = Vec::new();
    for i in 0..DATASETS {
        let ds = Dataset::generate(&DatasetSpec {
            n_records: records + i * 31,
            n_chroms: 2,
            coordinate_sorted: true,
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        });
        let name = format!("over{i}");
        let path = shard_dir.join(format!("{name}.bamx"));
        write_bamx_file(&path, &ds.header(), &ds.records, BamxCompression::Bgzf)?;
        Baix::build(&BamxFile::open(&path)?)?.save(path.with_extension("baix"))?;
        names.push(name);
    }
    let span_bp = (records as u64 * 40).max(20_000) / WINDOWS as u64;
    let windows: Vec<String> = (0..WINDOWS as u64)
        .map(|w| format!("chr1:{}-{}", w * span_bp + 1, (w + 1) * span_bp))
        .collect();

    // Rate 0 in the profile would skip the jitter rolls and change the
    // request mix; any positive rate gives the same mix, and the burst
    // below ignores arrival times anyway (instant offered load is the
    // worst case for admission).
    let plan = generate_load(&LoadProfile {
        seed,
        requests: 96,
        datasets: DATASETS,
        windows: WINDOWS,
        interactive_deadline: None,
        batch_deadline: None,
        ..LoadProfile::default()
    });

    // Clean unloaded reference: one outcome per arrival index.
    enum RefOut {
        Bytes(Vec<u8>),
        Bins(Vec<f64>, u32, u64),
    }
    let reference: Vec<RefOut> = {
        let engine = QueryEngine::new(&shard_dir, EngineConfig::with_workers(1))?;
        let out = dir.path().join("reference");
        let mut refs = Vec::with_capacity(plan.len());
        for (i, a) in plan.iter().enumerate() {
            let req = a.to_request(&names, &windows, &out, i, None);
            let outcome = engine
                .submit(req)
                .map_err(|e| err(format!("reference submit {i}: {e}")))?
                .wait()
                .outcome;
            refs.push(match outcome {
                Ok(QueryOutcome::Converted { output, .. }) => RefOut::Bytes(std::fs::read(output)?),
                Ok(QueryOutcome::Coverage { bins, bin_size, records }) => {
                    RefOut::Bins(bins, bin_size, records)
                }
                Err(e) => return Err(err(format!("reference request {i} failed: {e}"))),
            });
        }
        engine.drain();
        refs
    };

    let mut total_accepted = 0u64;
    let mut total_rejected = 0u64;
    for p in 0..plans {
        let fault_plan = FaultPlan::new(vec![
            Fault::TransientIo { failures: 1 + (p % 3) as u32 },
            Fault::ShortRead { max: 1 + (seed ^ p) % 17 },
        ]);
        assert!(fault_plan.is_lossless());
        let budget = fault_plan.total_transient_failures();
        let sources: std::sync::Mutex<
            std::collections::HashMap<std::path::PathBuf, Arc<FaultyFile<Vec<u8>>>>,
        > = std::sync::Mutex::new(std::collections::HashMap::new());
        let plan_for_opener = fault_plan.clone();
        let opener: Box<SourceOpener> = Box::new(move |path| {
            let mut map = sources.lock().expect("overload opener mutex");
            let source = map.entry(path.to_path_buf()).or_insert_with(|| {
                let bytes = std::fs::read(path).unwrap_or_default();
                Arc::new(FaultyFile::new(bytes, plan_for_opener.clone()))
            });
            Ok(Box::new(Arc::clone(source)))
        });
        let clock = Arc::new(ManualClock::new());
        let store = Arc::new(
            ShardStore::open_with(
                &shard_dir,
                DATASETS,
                clock.clone(),
                RetryPolicy { attempts: budget * 2 + 1, ..RetryPolicy::default() },
            )?
            .with_opener(opener),
        );
        let engine = QueryEngine::with_store(
            Arc::clone(&store),
            EngineConfig {
                workers: 2,
                queue_capacity: 4,
                shed_retry_unit: std::time::Duration::from_millis(1),
                ..EngineConfig::default()
            },
            clock,
        )?;

        let out = dir.path().join(format!("run-{p}"));
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        for (i, a) in plan.iter().enumerate() {
            let req = a.to_request(&names, &windows, &out, i, None);
            match engine.submit(req) {
                Ok(ticket) => accepted.push((i, ticket)),
                Err(QueryError::Overloaded { retry_after }) => {
                    if retry_after.is_zero() {
                        return Err(err(format!("plan {p}: Overloaded without a retry hint")));
                    }
                    rejected += 1;
                }
                Err(QueryError::Shed { .. }) => rejected += 1,
                Err(e) => return Err(err(format!("plan {p}: untyped rejection: {e}"))),
            }
        }
        if rejected == 0 {
            return Err(err(format!("plan {p}: the burst never overloaded the engine")));
        }
        let admitted = accepted.len() as u64;
        for (i, ticket) in accepted {
            match ticket.wait().outcome {
                Ok(QueryOutcome::Converted { output, .. }) => {
                    let RefOut::Bytes(want) = &reference[i] else {
                        return Err(err(format!("plan {p}: request {i} changed kind")));
                    };
                    if &std::fs::read(&output)? != want {
                        return Err(err(format!(
                            "plan {p}: request {i} diverged from the unloaded engine"
                        )));
                    }
                }
                Ok(QueryOutcome::Coverage { bins, bin_size, records }) => {
                    let RefOut::Bins(w_bins, w_size, w_recs) = &reference[i] else {
                        return Err(err(format!("plan {p}: request {i} changed kind")));
                    };
                    if &bins != w_bins || bin_size != *w_size || records != *w_recs {
                        return Err(err(format!(
                            "plan {p}: coverage {i} diverged from the unloaded engine"
                        )));
                    }
                }
                Err(e) => {
                    return Err(err(format!(
                        "plan {p}: accepted request {i} failed under lossless faults: {e}"
                    )))
                }
            }
        }
        let stats = engine.drain();
        if stats.submitted != admitted
            || stats.completed != admitted
            || stats.failed != 0
            || stats.rejected != rejected
        {
            return Err(err(format!(
                "plan {p}: ledger did not drain exactly — admitted {admitted}, rejected \
                 {rejected}, stats submitted {} completed {} failed {} rejected {}",
                stats.submitted, stats.completed, stats.failed, stats.rejected
            )));
        }
        if store.counters().quarantined != 0 {
            return Err(err(format!(
                "plan {p}: overload + transient faults quarantined a healthy shard"
            )));
        }
        total_accepted += admitted;
        total_rejected += rejected;
    }
    outln!(
        "overload matrix: {plans} fault plans x {} burst arrivals -> {total_accepted} served \
         byte-identical, {total_rejected} shed typed-before-decode, 0 failures, 0 quarantines",
        plan.len()
    )?;
    outln!("chaos --overload: all checks passed ({plans} plans, seed {seed}, {records} records)")?;
    Ok(())
}

/// `ngsp verify SHARD_DIR`
///
/// Integrity scan of a manifest-managed shard directory: every artifact
/// the MANIFEST lists is checked for exact length, whole-file CRC32, and
/// layout fingerprint. Exits nonzero if anything is damaged.
pub fn verify_cmd(args: &Args) -> CmdResult {
    let dir = args.one_positional("shard directory")?;
    let repo = ngs_bamx::repo::ShardRepo::open(dir)?;
    let report = repo.verify()?;
    for name in &report.verified {
        outln!("verified     {name}")?;
    }
    for name in &report.unpublished {
        outln!("unpublished  {name} (present on disk, not in MANIFEST)")?;
    }
    for name in &report.stray_temps {
        outln!("stray-temp   {name} (crash debris; `ngsp repair` removes it)")?;
    }
    for d in &report.damaged {
        outln!("DAMAGED      {} [{}] {}", d.name, d.kind, d.detail)?;
    }
    outln!(
        "{} verified, {} damaged, {} unpublished, {} stray temp(s)",
        report.verified.len(),
        report.damaged.len(),
        report.unpublished.len(),
        report.stray_temps.len()
    )?;
    if !report.is_clean() {
        return Err(err(format!(
            "{} damaged artifact(s); re-derive them with `ngsp repair {dir} --from INPUT`",
            report.damaged.len()
        )));
    }
    Ok(())
}

/// `ngsp repair SHARD_DIR --from INPUT [--ranks N] [--compress]
/// [--format-version v1|v2]`
///
/// Self-healing: sweeps crash debris, then re-derives every damaged or
/// missing shard from the original SAM/BAM via resumable preprocessing —
/// manifest-verified shards are kept byte-for-byte, only the torn tail
/// is rebuilt. `--ranks`/`--compress`/`--format-version` must match the
/// original preprocessing run (a mismatch rebuilds everything, by
/// design).
pub fn repair_cmd(args: &Args) -> CmdResult {
    use ngs_bamx::repo::ShardRepo;
    use ngs_converter::FileSource;

    let dir = args.one_positional("shard directory")?;
    let input = args.required("from")?;
    let ranks: usize = args.get_or("ranks", 4)?;
    let compression = if args.switch("compress") {
        ngs_bamx::BamxCompression::Bgzf
    } else {
        ngs_bamx::BamxCompression::Plain
    };
    let format_version = parse_format_version(args)?;

    // `create`, not `open`: a crash before the very first manifest write
    // leaves no MANIFEST, and repair must recover from that too.
    let repo = ShardRepo::create(dir)?;
    let swept = repo.clean_stray_temps()?;
    if !swept.is_empty() {
        outln!("swept {} stray temp file(s): {}", swept.len(), swept.join(", "))?;
    }

    if input.ends_with(".bam") {
        let mut conv = BamConverter::new(ConvertConfig::with_ranks(ranks));
        conv.bamx_compression = compression;
        conv.format_version = format_version;
        let prep = conv.preprocess_repo(input, &repo, true)?;
        if prep.skipped {
            outln!("all shards verified; nothing to rebuild")?;
        } else {
            outln!(
                "rebuilt {} + {} ({} records) in {:?}",
                prep.bamx_path.display(),
                prep.baix_path.display(),
                prep.records,
                prep.elapsed
            )?;
        }
    } else {
        let mut conv = SamxConverter::new(ConvertConfig::with_ranks(ranks));
        conv.bamx_compression = compression;
        conv.format_version = format_version;
        let source = FileSource::open(Path::new(input))?;
        let stem = Path::new(input)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input".into());
        let prep = conv.preprocess_source_repo(&source, &repo, &stem, true)?;
        let rebuilt = prep.shards.iter().filter(|s| !s.resumed).count();
        outln!(
            "{} shard(s) kept (manifest-verified), {} rebuilt in {:?}",
            prep.shards.len() - rebuilt,
            rebuilt,
            prep.elapsed
        )?;
    }

    let report = repo.verify()?;
    if !report.is_clean() {
        return Err(err(format!(
            "repair finished but {} artifact(s) still damaged — is --from the right source?",
            report.damaged.len()
        )));
    }
    outln!("repository clean: {} artifact(s) verified", report.verified.len())?;
    Ok(())
}
