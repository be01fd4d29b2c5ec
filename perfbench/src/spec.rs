//! Everything that is fixed in the source: workload names, size constants
//! and the metric lists of `BENCHMARK.json`. The seed never changes any of
//! these (rule 3 of README.md); nothing here is calibrated at run time.

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential BAM→BAMX and parallel SAM→BAMX preprocessing (writes).
    Ingest,
    /// One-shot parallel conversion of a preprocessed shard and SAM text.
    Convert,
    /// Long-lived serving, working set fits the shard cache.
    ServeWarm,
    /// Long-lived serving of v2 shards, one request in four misses.
    ServeChurnV2,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Convert,
        Workload::ServeWarm,
        Workload::ServeChurnV2,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Convert => "convert",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurnV2 => "serve_churn_v2",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether operations go through a long-lived `QueryEngine`.
    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeChurnV2)
    }
}

/// `ingest`: records in the BAM and SAM inputs.
pub const INGEST_RECORDS: usize = 12_000;
/// `ingest`: v1 BAM preprocess calls per round.
pub const INGEST_V1_CALLS: usize = 3;
/// `ingest`: SAMX preprocess calls per round (plus one v2 BAM call).
pub const INGEST_SAMX_CALLS: usize = 3;

/// `ingest`: records in each region the traced run serves from the
/// published shard (`query.*` metrics only; no timed operation reads them).
pub const INGEST_PROBE_RECORDS: usize = 2_000;
/// `ingest`: first record ordinal of those regions (inside chr1).
pub const INGEST_PROBE_STARTS: [usize; 2] = [200, 2_100];

/// `convert`: records in the v1 shard and the SAM text.
pub const CONVERT_RECORDS: usize = 48_000;
/// `convert`: records in each of the two partial-conversion regions.
pub const PARTIAL_RECORDS: usize = 4_000;
/// `convert`: first record ordinal of each partial region (both inside
/// chr1, which holds the first ~36 % of a coordinate-sorted dataset).
pub const PARTIAL_STARTS: [usize; 2] = [2_000, 10_000];

/// Shard-cache capacity of both served workloads.
pub const CACHE_CAPACITY: usize = 8;
/// Bin size of coverage requests (the paper's 25 bp).
pub const COVERAGE_BIN: u32 = 25;

/// `serve_warm`: datasets (fewer than [`CACHE_CAPACITY`]).
pub const WARM_DATASETS: usize = 4;
/// `serve_warm`: records per dataset.
pub const WARM_RECORDS: usize = 24_000;
/// `serve_warm`: request templates per dataset.
pub const WARM_TEMPLATES_PER_DATASET: usize = 16;
/// `serve_warm`: kind of each of a dataset's templates, as indices into
/// `Kind::ALL` (SAM, BED, FASTQ, coverage): 6 SAM, 3 BED, 4 FASTQ, 3
/// coverage. Sorted by cost (coverage < BED < SAM < FASTQ) the median
/// request then lies a third of the way into the SAM group and the 90th
/// percentile inside the FASTQ quarter; with four equal quarters the
/// median sat on the boundary between two kinds and its spread doubled.
pub const WARM_KINDS: [usize; WARM_TEMPLATES_PER_DATASET] =
    [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 2, 0];
/// `serve_warm`: records per region (1/8 of a dataset).
pub const WARM_REGION_RECORDS: usize = 3_000;
/// `serve_warm`: distance between the base ordinals of a dataset's
/// templates; the seed adds a jitter below [`WARM_JITTER`].
pub const WARM_STRIDE: usize = 1_300;
/// `serve_warm`: exclusive bound of the seeded region-offset jitter.
pub const WARM_JITTER: u64 = 1_000;
/// `serve_warm`: seeded permutations of the templates per round.
pub const WARM_PERMUTATIONS: usize = 2;

/// `serve_churn_v2`: datasets (more than [`CACHE_CAPACITY`]). The names
/// all fall in one segment of the engine's segmented shard store, so its
/// eviction is plain LRU and a 12-cycle over 8 slots misses on exactly the
/// first request of every burst.
pub const CHURN_NAMES: [&str; 12] = [
    "churn005", "churn012", "churn027", "churn034", "churn041", "churn049", "churn056", "churn063",
    "churn070", "churn078", "churn085", "churn092",
];
/// `serve_churn_v2`: records per dataset.
pub const CHURN_RECORDS: usize = 6_000;
/// `serve_churn_v2`: requests per visit of a dataset, one of each kind.
pub const CHURN_BURST: usize = 4;
/// `serve_churn_v2`: records per region.
pub const CHURN_REGION_RECORDS: usize = 2_000;
/// `serve_churn_v2`: v2 block size the offsets below are written for.
pub const CHURN_BLOCK: usize = 1_024;
/// `serve_churn_v2`: kind `k` of a burst reads from ordinal
/// `k * CHURN_BLOCK + CHURN_OFFSET_BASE + jitter`, which keeps every
/// region on exactly three v2 blocks whatever the jitter.
pub const CHURN_OFFSET_BASE: usize = 128;
/// `serve_churn_v2`: exclusive bound of the seeded region-offset jitter.
pub const CHURN_JITTER: u64 = 560;
/// `serve_churn_v2`: cycles over all datasets per round.
pub const CHURN_CYCLES_PER_ROUND: usize = 2;

/// Reference length handed to `ngs-simgen` (chr1; other chromosomes scale).
pub const CHR1_LEN: u64 = 2_000_000;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rec_per_s", "rec/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_s_per_mrec", "s/Mrec"),
    ("peak_rss_mb", "MB"),
    ("stored_bytes_per_rec", "B/rec"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("bgzf.inflate_mb_per_s", "MB/s"),
    ("bgzf.deflate_mb_per_s", "MB/s"),
    ("bgzf.crc32_mb_per_s", "MB/s"),
    ("bgzf.compress_ratio", "ratio"),
    ("formats.bam_decode_rec_per_s", "rec/s"),
    ("formats.bam_encode_rec_per_s", "rec/s"),
    ("formats.sam_parse_rec_per_s", "rec/s"),
    ("formats.emit_sam_rec_per_s", "rec/s"),
    ("formats.emit_bed_rec_per_s", "rec/s"),
    ("formats.emit_fastq_rec_per_s", "rec/s"),
    ("formats.emit_json_rec_per_s", "rec/s"),
    ("bamx.v1_write_rec_per_s", "rec/s"),
    ("bamx.v2_write_rec_per_s", "rec/s"),
    ("bamx.baix_build_rec_per_s", "rec/s"),
    ("bamx.repo_publish_ms", "ms"),
    ("bamx.v1_read_range_rec_per_s", "rec/s"),
    ("bamx.v1_point_us", "us"),
    ("bamx.baix_locate_ns", "ns"),
    ("bamx.v2_read_range_rec_per_s", "rec/s"),
    ("bamx.v2_projected_rec_per_s", "rec/s"),
    ("bamx.v2_point_us", "us"),
    ("bamx.v2_column_bytes_frac", "ratio"),
    ("bamx.open_us", "us"),
    ("bamx.baix_load_us", "us"),
    ("bamx.manifest_verify_us", "us"),
    ("converter.preprocess_v1_rec_per_s", "rec/s"),
    ("converter.preprocess_v2_rec_per_s", "rec/s"),
    ("converter.samx_preprocess_rec_per_s", "rec/s"),
    ("converter.bamx_sam_rec_per_s", "rec/s"),
    ("converter.bamx_bed_rec_per_s", "rec/s"),
    ("converter.bamx_fastq_rec_per_s", "rec/s"),
    ("converter.sam_text_rec_per_s", "rec/s"),
    ("converter.partial_rec_per_s", "rec/s"),
    ("converter.ranks_speedup", "ratio"),
    ("converter.rank_imbalance", "ratio"),
    ("converter.to_bam_rec_per_s", "rec/s"),
    ("pipeline.stream_sam_rec_per_s", "rec/s"),
    ("pipeline.stream_over_batch", "ratio"),
    ("pipeline.peak_buffered_mb", "MB"),
    ("query.service_p50_us", "us"),
    ("query.queue_wait_p50_us", "us"),
    ("query.handoff_us", "us"),
    ("query.store_hit_ns", "ns"),
    ("query.convert_p50_ms", "ms"),
    ("query.coverage_p50_ms", "ms"),
    ("query.store_miss_us", "us"),
    ("query.store_hit_rate", "ratio"),
    ("query.lat_p99_ms", "ms"),
    ("query.depth2_req_per_s", "1/s"),
    ("dist.rpc_roundtrip_us", "us"),
    ("collate.sort_rec_per_s", "rec/s"),
    ("stats.nlmeans_mbin_per_s", "Mbin/s"),
    ("stats.fdr_mbin_per_s", "Mbin/s"),
    ("share.bgzf", "ratio"),
    ("share.formats", "ratio"),
    ("share.bamx", "ratio"),
    ("share.converter", "ratio"),
    ("share.query", "ratio"),
    ("share.fs", "ratio"),
    ("share.unattributed", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.load1", "load"),
];
