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

/// Rank count of `convert` and `preprocess` without `--ranks`, and of
/// `repair` when the MANIFEST records none.
const DEFAULT_RANKS: usize = 4;

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
    let ranks: usize = args.get_or("ranks", DEFAULT_RANKS)?;
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
    let ranks: usize = args.get_or("ranks", DEFAULT_RANKS)?;
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

/// `ngsp repair SHARD_DIR --from INPUT`
///
/// Self-healing: sweeps crash debris, then re-derives every damaged or
/// missing shard from the original SAM/BAM via resumable preprocessing —
/// manifest-verified shards are kept byte-for-byte, only the torn tail
/// is rebuilt. The layout (rank count, compression, format version) is
/// the one the MANIFEST recorded; what it did not record (no MANIFEST at
/// all, or a BAM repository's rank count, which its bytes do not depend
/// on) takes `preprocess`'s defaults.
pub fn repair_cmd(args: &Args) -> CmdResult {
    use ngs_bamx::repo::ShardRepo;
    use ngs_converter::FileSource;

    let dir = args.one_positional("shard directory")?;
    let input = args.required("from")?;

    // `create`, not `open`: a crash before the very first manifest write
    // leaves no MANIFEST, and repair must recover from that too.
    let repo = ShardRepo::create(dir)?;
    let meta = repo.manifest()?.meta;
    let ranks: usize = match meta.get("ranks") {
        None => DEFAULT_RANKS,
        Some(r) => r.parse().map_err(|_| err(format!("MANIFEST records ranks {r:?}")))?,
    };
    let compression = match meta.get("compression").map(String::as_str) {
        Some("bgzf") => ngs_bamx::BamxCompression::Bgzf,
        _ => ngs_bamx::BamxCompression::Plain,
    };
    let format = meta.get("format").map_or("v1", String::as_str);
    let format_version = ngs_bamx::BamxVersion::parse(format)
        .ok_or_else(|| err(format!("MANIFEST records format {format:?}")))?;
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
