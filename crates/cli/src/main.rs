//! `ngsp` — the command-line face of the ngs-parallel framework.

mod args;
mod commands;

use args::Args;

/// A subcommand: its name, its entry point and the flags it reads.
type Command = (&'static str, fn(&Args) -> commands::CmdResult, &'static [&'static str]);

/// Every subcommand. Any flag a subcommand does not read is rejected
/// before it runs, so a typo (`--rank` for `--ranks`) cannot silently
/// fall back to a default.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("generate", commands::generate, &["records", "out", "chroms", "chr1-len", "sorted", "seed", "duplicates"]),
    ("convert", commands::convert, &["to", "out", "ranks", "instance", "region", "trace"]),
    ("preprocess", commands::preprocess, &["out", "ranks", "compress", "format-version"]),
    ("index", commands::index_cmd, &["out"]),
    ("view", commands::view_cmd, &["ranks"]),
    ("sort", commands::sort_cmd, &["out", "by", "workers", "batch", "spill-budget", "spill-dir"]),
    ("collate", commands::collate_cmd, &["out", "workers", "batch", "spill-budget", "spill-dir"]),
    ("markdup", commands::markdup_cmd, &["out", "workers", "batch", "spill-budget", "spill-dir"]),
    ("merge", commands::merge_cmd, &["out"]),
    ("flagstat", commands::flagstat_cmd, &[]),
    ("depth", commands::depth_cmd, &["window"]),
    ("histogram", commands::histogram_cmd, &["out", "bin"]),
    ("denoise", commands::denoise_cmd, &["out", "bin", "radius", "patch", "sigma"]),
    ("fdr", commands::fdr_cmd, &["bin", "rounds", "seed", "model", "thresholds"]),
    ("peaks", commands::peaks_cmd, &["bin", "rounds", "seed", "target-fdr", "gap", "thresholds", "out"]),
    ("pipeline", commands::pipeline_cmd, &[
        "to", "out", "workers", "batch", "bound", "region", "trace", "analyze", "bin", "rounds", "seed",
    ]),
    ("query", commands::query_cmd, &[
        "requests", "out", "workers", "queue", "cache", "segments", "batch", "deadline-ms", "trace",
    ]),
    ("stats", commands::stats_cmd, &["records", "seed", "json"]),
    ("verify", commands::verify_cmd, &[]),
    ("repair", commands::repair_cmd, &["from"]),
];

const USAGE: &str = "\
ngsp — parallel NGS format conversion and analysis

USAGE:
  ngsp <COMMAND> [ARGS]

COMMANDS:
  generate    synthesize a SAM/BAM dataset
              --records N --out FILE [--chroms C] [--sorted] [--seed S]
              [--duplicates F]  (PCR-duplicate fraction, 0..1)
  convert     convert SAM/BAM into another format, in parallel
              INPUT --to FMT --out DIR [--ranks N] [--region R]
              [--instance sam|bam|samx] [--trace FILE]
  preprocess  build BAMX + BAIX from SAM/BAM
              INPUT --out DIR [--ranks N] [--compress]
              [--format-version v1|v2]
  index       build a binned region index for a BAM file
              INPUT.bam [--out FILE.nbai]
  view        print records as SAM, optionally region-restricted
              INPUT [REGION]   (uses INPUT.nbai when present)
  sort        sort records through the spill-to-disk regroup engine
              INPUT --out FILE [--by coord|name] [--workers N]
              [--batch B] [--spill-budget BYTES] [--spill-dir DIR]
  collate     group mates adjacently by read name (pairs joined,
              singletons pass through)   INPUT --out FILE
              [--workers N] [--batch B] [--spill-budget BYTES]
              [--spill-dir DIR]
  markdup     mark duplicates by alignment signature, input order
              preserved   INPUT --out FILE [--workers N] [--batch B]
              [--spill-budget BYTES] [--spill-dir DIR]
  merge       stitch converter part files   --out FILE PART...
  flagstat    samtools-flagstat-style summary   INPUT
  depth       per-chromosome coverage depth   INPUT [--window W]
  histogram   binned coverage histogram to BEDGRAPH
              INPUT --out FILE [--bin 25]
  denoise     NL-means over a BEDGRAPH histogram
              INPUT --out FILE [--radius r] [--patch l] [--sigma s]
  fdr         FDR curve over a BEDGRAPH histogram
              INPUT [--rounds B] [--thresholds 1,2,4] [--model poisson]
  peaks       FDR-thresholded enriched-region calling to BED
              INPUT [--target-fdr 0.05] [--gap G] [--out FILE.bed]
  pipeline    stream records through the bounded dataflow engine
              INPUT --to FMT --out DIR [--workers N] [--batch B]
              [--bound C] [--region R] [--trace FILE]
              INPUT --analyze [--bin 25] [--rounds B]  (coverage+FDR)
              (byte-identical to convert at bounded memory; prints
               per-stage throughput and stall metrics)
  query       batch region queries over preprocessed BAMX/BAIX shards
              SHARD_DIR [--requests FILE] [--out DIR] [--workers N]
              [--queue N] [--cache N] [--segments N] [--batch N]
              [--deadline-ms D] [--trace FILE]
              one request per line: DATASET REGION FORMAT [CLASS]
              (FORMAT: a --to format, or coverage[:BIN];
               CLASS: interactive|batch, default interactive)
  stats       run an instrumented smoke workload and print the unified
              ngs-obs metrics registry   [--records N] [--seed S] [--json]
              (counters, gauges, and log2 latency/size histograms with
               p50/p95/p99 across BGZF, shard repo, pipeline, and query)
  verify      integrity-scan a manifest-managed shard directory
              SHARD_DIR   (exits nonzero if any artifact is damaged)
  repair      re-derive damaged shards from the original input
              SHARD_DIR --from INPUT   (layout as the MANIFEST records;
              manifest-verified shards are kept byte-for-byte)

Formats for --to: sam bam bed bedgraph fasta fastq json yaml wig gff3
";

/// Exit code for a consumer that closed our stdout (`ngsp view | head`):
/// 128 + SIGPIPE, what a shell reports for a signal death — but reached
/// through an orderly unwind, so buffers flush and no partial line is
/// torn mid-write.
const EPIPE_EXIT: i32 = 141;

/// Whether any error in the chain is a broken-pipe I/O error.
fn is_broken_pipe(top: &(dyn std::error::Error + 'static)) -> bool {
    let mut cur = Some(top);
    while let Some(e) = cur {
        if let Some(io) = e.downcast_ref::<std::io::Error>() {
            if io.kind() == std::io::ErrorKind::BrokenPipe {
                return true;
            }
        }
        cur = e.source();
    }
    false
}

fn main() {
    // Ignore SIGPIPE so writing to a closed pipe surfaces as an EPIPE
    // error instead of killing the process mid-write; every emitting
    // subcommand propagates that error here, where it becomes a quiet,
    // consistent exit (no panic, no partial-line garbage).
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_IGN);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ngsp {command}: {e}");
            std::process::exit(2);
        }
    };
    if args.switch("help") || matches!(command.as_str(), "help" | "--help" | "-h") {
        eprint!("{USAGE}");
        return;
    }
    let Some(&(_, run, flags)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        eprintln!("ngsp: unknown command {command:?}\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    if let Err(e) = args.reject_unknown(flags) {
        eprintln!("ngsp {command}: {e}");
        std::process::exit(2);
    }
    let result = run(&args);
    if let Err(e) = result {
        if is_broken_pipe(e.as_ref()) {
            // The reader went away; nothing useful to say and possibly
            // nowhere to say it.
            std::process::exit(EPIPE_EXIT);
        }
        eprintln!("ngsp {command}: {e}");
        std::process::exit(1);
    }
}
