//! The operations a workload is made of, the seeded order they run in,
//! and their execution through the facade-level API only (`BamConverter`,
//! `SamConverter`, `SamxConverter`, `QueryEngine`) — so internals can be
//! deleted or rebuilt without editing the benchmark.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ngs_bamx::{BamxFile, BamxVersion, Region};
use ngs_converter::{
    BamConverter, ConvertConfig, ConvertReport, SamConverter, SamxConverter, TargetFormat,
};
use ngs_query::{
    EngineConfig, QueryClass, QueryEngine, QueryKind, QueryOutcome, QueryRequest, RequestMetrics,
};
use ngs_simgen::Rng;

use crate::fixture::{nproc, Fixture, RegionLine, BATCH_INPUT};
use crate::spec::*;
use crate::BenchResult;

/// What a served request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Region → SAM text.
    Sam,
    /// Region → BED (projected to the CIGAR column on v2 shards).
    Bed,
    /// Region → FASTQ.
    Fastq,
    /// Region → coverage histogram.
    Coverage,
}

impl Kind {
    /// The four kinds, in template order.
    pub const ALL: [Kind; 4] = [Kind::Sam, Kind::Bed, Kind::Fastq, Kind::Coverage];

    /// Target format of a convert kind; `None` for coverage.
    pub fn format(self) -> Option<TargetFormat> {
        match self {
            Kind::Sam => Some(TargetFormat::Sam),
            Kind::Bed => Some(TargetFormat::Bed),
            Kind::Fastq => Some(TargetFormat::Fastq),
            Kind::Coverage => None,
        }
    }
}

/// One served request template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Template {
    /// Index into the fixture's region list.
    pub region: usize,
    /// What is asked for.
    pub kind: Kind,
}

/// A distinct operation of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `BamConverter::preprocess` of the BAM input.
    PreprocessBam(BamxVersion),
    /// `SamxConverter::preprocess_file` of the SAM input into `nproc` shards.
    PreprocessSamx,
    /// `BamConverter::convert_bamx` of the shard.
    ConvertBamx(TargetFormat),
    /// `SamConverter::convert_file` of the SAM text.
    ConvertSam(TargetFormat),
    /// `BamConverter::convert_partial` → SAM over region `n` of the fixture.
    ConvertPartial(usize),
    /// One request to the long-lived engine.
    Serve(Template),
}

impl Op {
    /// A stable label: the operation multiset of a round is compared
    /// across seeds by these, and root spans carry them.
    pub fn label(&self) -> &'static str {
        use TargetFormat::*;
        match self {
            Op::PreprocessBam(BamxVersion::V1) => "preprocess_bam_v1",
            Op::PreprocessBam(BamxVersion::V2) => "preprocess_bam_v2",
            Op::PreprocessSamx => "preprocess_samx",
            Op::ConvertBamx(Sam) => "convert_bamx_sam",
            Op::ConvertBamx(Bed) => "convert_bamx_bed",
            Op::ConvertBamx(Fastq) => "convert_bamx_fastq",
            Op::ConvertBamx(Json) => "convert_bamx_json",
            Op::ConvertBamx(_) => "convert_bamx_other",
            Op::ConvertSam(Bed) => "convert_sam_bed",
            Op::ConvertSam(Fastq) => "convert_sam_fastq",
            Op::ConvertSam(_) => "convert_sam_other",
            Op::ConvertPartial(_) => "convert_partial_sam",
            Op::Serve(Template {
                kind: Kind::Sam, ..
            }) => "serve_sam",
            Op::Serve(Template {
                kind: Kind::Bed, ..
            }) => "serve_bed",
            Op::Serve(Template {
                kind: Kind::Fastq, ..
            }) => "serve_fastq",
            Op::Serve(Template {
                kind: Kind::Coverage,
                ..
            }) => "serve_coverage",
        }
    }
}

/// A request for `kind` over `region` of `dataset`; conversions write
/// their part file into `out_dir`.
pub fn request(dataset: &str, region: &str, kind: Kind, out_dir: PathBuf) -> QueryRequest {
    QueryRequest {
        dataset: dataset.into(),
        region: region.into(),
        kind: match kind.format() {
            Some(format) => QueryKind::Convert { format, out_dir },
            None => QueryKind::Coverage {
                bin_size: COVERAGE_BIN,
            },
        },
        deadline: None,
        class: QueryClass::Interactive,
    }
}

/// The distinct operations of `workload`; a round is a sequence of
/// indices into this list.
pub fn distinct_ops(workload: Workload, regions: &[RegionLine]) -> Vec<Op> {
    use TargetFormat::*;
    match workload {
        Workload::Ingest => vec![
            Op::PreprocessBam(BamxVersion::V1),
            Op::PreprocessBam(BamxVersion::V2),
            Op::PreprocessSamx,
        ],
        Workload::Convert => vec![
            Op::ConvertBamx(Sam),
            Op::ConvertBamx(Bed),
            Op::ConvertBamx(Fastq),
            Op::ConvertBamx(Json),
            Op::ConvertSam(Bed),
            Op::ConvertSam(Fastq),
            Op::ConvertPartial(0),
            Op::ConvertPartial(1),
        ],
        Workload::ServeWarm => (0..regions.len())
            .map(|region| {
                let kind = Kind::ALL[WARM_KINDS[region % WARM_TEMPLATES_PER_DATASET]];
                Op::Serve(Template { region, kind })
            })
            .collect(),
        // One region per kind and dataset: a burst is one of each.
        Workload::ServeChurnV2 => (0..regions.len())
            .map(|region| {
                Op::Serve(Template {
                    region,
                    kind: Kind::ALL[region % CHURN_BURST],
                })
            })
            .collect(),
    }
}

/// The seeded order of operations, round after round. The multiset of
/// operations of a round is a constant; the seed only permutes it.
pub struct Plan {
    workload: Workload,
    n_ops: usize,
    rng: Rng,
    /// `serve_churn_v2`: the fixed order datasets are visited in.
    cycle_order: Vec<usize>,
    cycles_done: usize,
}

impl Plan {
    /// A plan over `n_ops` distinct operations.
    pub fn new(workload: Workload, seed: u64, n_ops: usize) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x0D_E4);
        let mut cycle_order: Vec<usize> = (0..CHURN_NAMES.len()).collect();
        shuffle(&mut cycle_order, &mut rng);
        Plan {
            workload,
            n_ops,
            rng,
            cycle_order,
            cycles_done: 0,
        }
    }

    /// Operations per round.
    pub fn round_len(&self) -> usize {
        match self.workload {
            Workload::Ingest => INGEST_V1_CALLS + 1 + INGEST_SAMX_CALLS,
            Workload::Convert => self.n_ops,
            Workload::ServeWarm => self.n_ops * WARM_PERMUTATIONS,
            Workload::ServeChurnV2 => self.n_ops * CHURN_CYCLES_PER_ROUND,
        }
    }

    /// Dataset names in the order the workload first visits them.
    pub fn dataset_order(&self) -> Vec<String> {
        let names = crate::fixture::dataset_names(self.workload);
        match self.workload {
            Workload::ServeChurnV2 => self.cycle_order.iter().map(|&d| names[d].clone()).collect(),
            _ => names,
        }
    }

    /// Indices (into [`distinct_ops`]) of the next round's operations.
    pub fn next_round(&mut self) -> Vec<usize> {
        match self.workload {
            Workload::Ingest => {
                let mut round = vec![0; INGEST_V1_CALLS];
                round.push(1);
                round.extend(vec![2; INGEST_SAMX_CALLS]);
                shuffle(&mut round, &mut self.rng);
                round
            }
            Workload::Convert => {
                let mut round: Vec<usize> = (0..self.n_ops).collect();
                shuffle(&mut round, &mut self.rng);
                round
            }
            Workload::ServeWarm => {
                let mut round = Vec::with_capacity(self.n_ops * WARM_PERMUTATIONS);
                for _ in 0..WARM_PERMUTATIONS {
                    let mut perm: Vec<usize> = (0..self.n_ops).collect();
                    shuffle(&mut perm, &mut self.rng);
                    round.extend(perm);
                }
                round
            }
            // A fixed cycle over the datasets (any other order could
            // revisit a dataset before eight others were touched and turn
            // a miss into a hit), a burst of one request per kind on
            // each; the kind that leads a burst — and so takes the miss —
            // rotates, so every kind leads equally often.
            Workload::ServeChurnV2 => {
                let mut round = Vec::with_capacity(self.n_ops * CHURN_CYCLES_PER_ROUND);
                for _ in 0..CHURN_CYCLES_PER_ROUND {
                    for (pos, &d) in self.cycle_order.iter().enumerate() {
                        for b in 0..CHURN_BURST {
                            let k = (self.cycles_done + pos + b) % CHURN_BURST;
                            round.push(d * CHURN_BURST + k);
                        }
                    }
                    self.cycles_done += 1;
                }
                round
            }
        }
    }
}

fn shuffle(items: &mut [usize], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The exact counts an operation reports; timed operations must repeat
/// the warm-up's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Records consumed.
    pub records_in: u64,
    /// Target objects emitted (records published, for preprocessing).
    pub records_out: u64,
    /// Bytes written (`.bamx` + `.baix` + `MANIFEST` bytes published, for
    /// preprocessing).
    pub bytes_out: u64,
}

/// What an operation produced, for the warm-up oracle.
pub enum Detail {
    /// Repository the shards were published into and their stems, in
    /// rank order.
    Published(PathBuf, Vec<String>),
    /// A batch conversion's report (part files in rank order).
    Report(ConvertReport),
    /// A served request's outcome.
    Served(QueryOutcome),
}

/// One finished operation.
pub struct Done {
    /// Its exact counts.
    pub counts: Counts,
    /// Caller-side latency: call → return, or `submit` → `Ticket::wait`.
    pub latency: Duration,
    /// Engine-side timings of a served request.
    pub served: Option<RequestMetrics>,
    /// The outputs.
    pub detail: Detail,
}

/// Everything needed to run a workload's operations.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Its fixture.
    pub fx: Fixture,
    /// The fixture's regions.
    pub regions: Vec<RegionLine>,
    /// The distinct operations.
    pub ops: Vec<Op>,
    /// Ranks of batch operations.
    pub ranks: usize,
    out: PathBuf,
    requests: Vec<Option<QueryRequest>>,
    engine: Option<QueryEngine>,
}

impl Ctx {
    /// Opens the fixture and, for served workloads, starts the engine:
    /// `EngineConfig::default()` apart from `cache_capacity`.
    pub fn open(workload: Workload, fx: Fixture, out: PathBuf) -> BenchResult<Self> {
        let regions = fx.regions()?;
        let ops = distinct_ops(workload, &regions);
        // One fixed output directory per operation, created here so the
        // timed section creates and removes no directories (rule 5).
        for id in 0..ops.len() {
            std::fs::create_dir_all(out.join(format!("op{id}")))?;
        }
        std::fs::create_dir_all(out.join("prime"))?;
        let requests = ops
            .iter()
            .enumerate()
            .map(|(id, op)| match op {
                Op::Serve(t) => {
                    let line = &regions[t.region];
                    let out_dir = out.join(format!("op{id}"));
                    Some(request(&line.dataset, &line.region, t.kind, out_dir))
                }
                _ => None,
            })
            .collect();
        let engine = if workload.is_served() {
            let config = EngineConfig {
                cache_capacity: CACHE_CAPACITY,
                ..EngineConfig::default()
            };
            Some(QueryEngine::new(fx.shards(), config)?)
        } else {
            None
        };
        Ok(Ctx {
            workload,
            fx,
            regions,
            ops,
            ranks: nproc(),
            out,
            requests,
            engine,
        })
    }

    /// Sends every worker of the engine a few empty-region requests on
    /// every dataset, in the order the workload visits datasets. A worker's
    /// first request leaves its lazily initialised state (thread-locals,
    /// metric handles, cached shard handles) wherever its heap top happens
    /// to be; behind a 2 MB record buffer that pins the arena 3 MB larger
    /// for the rest of the run, and which worker meets which request first
    /// is a race. After priming, that state sits at the bottom of each
    /// worker's heap whatever comes first.
    pub fn prime(&self, datasets: &[String]) -> BenchResult<()> {
        let Some(engine) = &self.engine else {
            return Ok(());
        };
        let workers = EngineConfig::default().workers.max(1);
        for dataset in datasets {
            for _ in 0..2 * workers {
                let empty = request(dataset, "chr1:1-1", Kind::Bed, self.out.join("prime"));
                let response = engine.submit(empty).map_err(|e| e.to_string())?.wait();
                response.outcome.map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    /// The engine of a served workload.
    pub fn engine(&self) -> Option<&QueryEngine> {
        self.engine.as_ref()
    }

    /// The request of served operation `id`.
    pub fn request(&self, id: usize) -> Option<QueryRequest> {
        self.requests[id].clone()
    }

    /// Output directory of distinct operation `id`.
    pub fn out_dir(&self, id: usize) -> PathBuf {
        self.out.join(format!("op{id}"))
    }

    /// Runs distinct operation `id` once.
    pub fn run(&self, id: usize) -> BenchResult<Done> {
        let config = ConvertConfig::with_ranks(self.ranks);
        let out = self.out_dir(id);
        match self.ops[id] {
            Op::PreprocessBam(version) => {
                let mut converter = BamConverter::new(config);
                converter.format_version = version;
                let t = Instant::now();
                let report = converter.preprocess(self.fx.bam(BATCH_INPUT), &out)?;
                let latency = t.elapsed();
                let stems = vec![BATCH_INPUT.to_string()];
                let counts = Counts {
                    records_in: report.records,
                    records_out: BamxFile::open(&report.bamx_path)?.len(),
                    bytes_out: published_bytes(&out, &stems)?,
                };
                Ok(Done {
                    counts,
                    latency,
                    served: None,
                    detail: Detail::Published(out, stems),
                })
            }
            Op::PreprocessSamx => {
                let converter = SamxConverter::new(config);
                let t = Instant::now();
                let report = converter.preprocess_file(self.fx.sam(BATCH_INPUT), &out)?;
                let latency = t.elapsed();
                let stems: Vec<String> = (0..report.shards.len())
                    .map(|rank| format!("{BATCH_INPUT}.shard{rank:04}"))
                    .collect();
                let counts = Counts {
                    records_in: report.records(),
                    records_out: report.records(),
                    bytes_out: published_bytes(&out, &stems)?,
                };
                Ok(Done {
                    counts,
                    latency,
                    served: None,
                    detail: Detail::Published(out, stems),
                })
            }
            Op::ConvertBamx(format) => {
                let converter = BamConverter::new(config);
                let t = Instant::now();
                let report = converter.convert_bamx(self.fx.bamx(BATCH_INPUT), format, &out)?;
                Ok(batch_done(report, t.elapsed()))
            }
            Op::ConvertSam(format) => {
                let converter = SamConverter::new(config);
                let t = Instant::now();
                let report = converter.convert_file(self.fx.sam(BATCH_INPUT), format, &out)?;
                Ok(batch_done(report, t.elapsed()))
            }
            Op::ConvertPartial(r) => {
                let converter = BamConverter::new(config);
                let line = &self.regions[r];
                let header = BamxFile::open(self.fx.bamx(&line.dataset))?;
                let region = Region::parse(&line.region, header.header())?;
                drop(header);
                let t = Instant::now();
                let report = converter.convert_partial(
                    self.fx.bamx(&line.dataset),
                    self.fx.baix(&line.dataset),
                    &region,
                    TargetFormat::Sam,
                    &out,
                )?;
                Ok(batch_done(report, t.elapsed()))
            }
            Op::Serve(_) => {
                let engine = self
                    .engine
                    .as_ref()
                    .expect("served workloads start an engine");
                let request = self.requests[id].clone().expect("a request per served op");
                let t = Instant::now();
                let response = engine.submit(request).map_err(|e| e.to_string())?.wait();
                let latency = t.elapsed();
                let outcome = response.outcome.map_err(|e| e.to_string())?;
                let counts = match &outcome {
                    QueryOutcome::Converted {
                        records_in,
                        records_out,
                        bytes_out,
                        ..
                    } => Counts {
                        records_in: *records_in,
                        records_out: *records_out,
                        bytes_out: *bytes_out,
                    },
                    QueryOutcome::Coverage { bins, records, .. } => Counts {
                        records_in: *records,
                        records_out: *records,
                        bytes_out: (bins.len() * std::mem::size_of::<f64>()) as u64,
                    },
                };
                Ok(Done {
                    counts,
                    latency,
                    served: Some(response.metrics),
                    detail: Detail::Served(outcome),
                })
            }
        }
    }

    /// `.bamx` + `.baix` + `MANIFEST` bytes and records of the shards a
    /// non-ingest workload serves or converts.
    pub fn served_store(&self) -> BenchResult<(u64, u64)> {
        let stems = crate::fixture::dataset_names(self.workload);
        let mut records = 0;
        for stem in &stems {
            records += BamxFile::open(self.fx.bamx(stem))?.len();
        }
        Ok((published_bytes(&self.fx.shards(), &stems)?, records))
    }
}

fn batch_done(report: ConvertReport, latency: Duration) -> Done {
    let counts = Counts {
        records_in: report.records_in(),
        records_out: report.records_out(),
        bytes_out: report.bytes_out(),
    };
    Done {
        counts,
        latency,
        served: None,
        detail: Detail::Report(report),
    }
}

/// Bytes of `STEM.bamx` + `STEM.baix` for every stem, plus the `MANIFEST`.
pub fn published_bytes(repo: &std::path::Path, stems: &[String]) -> BenchResult<u64> {
    let mut total = std::fs::metadata(repo.join(ngs_bamx::MANIFEST_NAME))?.len();
    for stem in stems {
        for ext in ["bamx", "baix"] {
            total += std::fs::metadata(repo.join(format!("{stem}.{ext}")))?.len();
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiset(plan: &mut Plan) -> Vec<usize> {
        let mut round = plan.next_round();
        round.sort_unstable();
        round
    }

    #[test]
    fn rounds_are_permutations_of_a_constant_multiset() {
        for (workload, n_ops, len) in [
            (Workload::Ingest, 3, 7),
            (Workload::Convert, 8, 8),
            (Workload::ServeWarm, 64, 128),
            (Workload::ServeChurnV2, 48, 96),
        ] {
            let mut a = Plan::new(workload, 1, n_ops);
            let mut b = Plan::new(workload, 2, n_ops);
            let first = multiset(&mut a);
            assert_eq!(first.len(), len);
            assert_eq!(a.round_len(), len);
            for _ in 0..5 {
                assert_eq!(multiset(&mut a), first);
                assert_eq!(multiset(&mut b), first);
            }
        }
        let mut a = Plan::new(Workload::ServeWarm, 1, 64);
        let mut b = Plan::new(Workload::ServeWarm, 2, 64);
        assert_ne!(a.next_round(), b.next_round(), "the seed picks the order");
    }

    #[test]
    fn churn_bursts_stay_on_one_dataset_and_rotate_their_leader() {
        let mut plan = Plan::new(Workload::ServeChurnV2, 9, 48);
        let mut leaders = [0usize; CHURN_BURST];
        for _ in 0..2 {
            for burst in plan.next_round().chunks(CHURN_BURST) {
                let dataset = burst[0] / CHURN_BURST;
                assert!(burst.iter().all(|id| id / CHURN_BURST == dataset));
                let mut kinds: Vec<usize> = burst.iter().map(|id| id % CHURN_BURST).collect();
                leaders[kinds[0]] += 1;
                kinds.sort_unstable();
                assert_eq!(kinds, [0, 1, 2, 3]);
            }
        }
        assert_eq!(
            leaders, [12; CHURN_BURST],
            "every kind takes the miss equally often"
        );
    }
}
