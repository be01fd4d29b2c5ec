//! Fixture building and the sequential reference outputs. Both run in
//! child processes (`fixture`, `reference` subcommands): the measuring
//! process never generates data (rule 7).
//!
//! Layout under the fixture directory:
//!
//! * `in/NAME.bam`, `in/NAME.sam` — generated inputs;
//! * `shards/` — a manifest-managed repository of `NAME.bamx`/`NAME.baix`
//!   (every workload but `ingest`, which publishes its own);
//!   built through `BamConverter`, so work moved into preprocessing
//!   shows in `setup_s`;
//! * `regions.txt` — one `dataset<TAB>region<TAB>records` line per
//!   region, in template order;
//! * `ref/<op>.out` — the sequential reference output of every distinct
//!   operation.

use std::io::BufReader;
use std::path::{Path, PathBuf};

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{BamxVersion, Region};
use ngs_converter::{BamConverter, ConvertConfig, ConvertReport, SamConverter, TargetFormat};
use ngs_formats::bam::BamReader;
use ngs_formats::record::AlignmentRecord;
use ngs_simgen::rng::splitmix64;
use ngs_simgen::{Dataset, DatasetSpec, Rng};
use ngs_stats::CoverageHistogram;

use crate::ops::{distinct_ops, Kind, Op};
use crate::spec::*;
use crate::BenchResult;

/// One region of a fixture: which dataset, the region text, and how many
/// records start inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionLine {
    /// Dataset (shard stem) the region is on.
    pub dataset: String,
    /// `chr:start-end`, 1-based inclusive.
    pub region: String,
    /// Records whose start falls inside — a constant of the workload.
    pub records: u64,
}

/// File-name conventions of a fixture directory.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The fixture directory.
    pub dir: PathBuf,
}

impl Fixture {
    /// A fixture rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Fixture { dir: dir.into() }
    }

    /// `in/NAME.bam`.
    pub fn bam(&self, name: &str) -> PathBuf {
        self.dir.join("in").join(format!("{name}.bam"))
    }

    /// `in/NAME.sam`.
    pub fn sam(&self, name: &str) -> PathBuf {
        self.dir.join("in").join(format!("{name}.sam"))
    }

    /// The shard repository.
    pub fn shards(&self) -> PathBuf {
        self.dir.join("shards")
    }

    /// `shards/NAME.bamx`.
    pub fn bamx(&self, name: &str) -> PathBuf {
        self.shards().join(format!("{name}.bamx"))
    }

    /// `shards/NAME.baix`.
    pub fn baix(&self, name: &str) -> PathBuf {
        self.shards().join(format!("{name}.baix"))
    }

    /// Reference output of distinct operation `op`.
    pub fn reference(&self, op: usize) -> PathBuf {
        self.dir.join("ref").join(format!("{op}.out"))
    }

    /// Reads `regions.txt`.
    pub fn regions(&self) -> BenchResult<Vec<RegionLine>> {
        std::fs::read_to_string(self.dir.join("regions.txt"))?
            .lines()
            .map(|line| {
                let mut f = line.split('\t');
                match (f.next(), f.next(), f.next().and_then(|n| n.parse().ok())) {
                    (Some(d), Some(r), Some(n)) => Ok(RegionLine {
                        dataset: d.into(),
                        region: r.into(),
                        records: n,
                    }),
                    _ => Err(format!("bad regions.txt line {line:?}").into()),
                }
            })
            .collect()
    }

    fn write_regions(&self, regions: &[RegionLine]) -> BenchResult<()> {
        let text: String = regions
            .iter()
            .map(|r| format!("{}\t{}\t{}\n", r.dataset, r.region, r.records))
            .collect();
        Ok(std::fs::write(self.dir.join("regions.txt"), text)?)
    }
}

/// The input name of the batch workloads.
pub const BATCH_INPUT: &str = "reads";

/// Dataset names of a served workload.
pub fn dataset_names(workload: Workload) -> Vec<String> {
    match workload {
        Workload::ServeWarm => (0..WARM_DATASETS).map(|d| format!("warm{d}")).collect(),
        Workload::ServeChurnV2 => CHURN_NAMES.iter().map(|n| n.to_string()).collect(),
        Workload::Ingest | Workload::Convert => vec![BATCH_INPUT.to_string()],
    }
}

/// Threads the host offers; batch operations use this many ranks.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

fn generate(seed: u64, salt: u64, n_records: usize, n_chroms: usize) -> Dataset {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    Dataset::generate(&DatasetSpec {
        chr1_len: CHR1_LEN,
        n_chroms,
        n_records,
        seed: splitmix64(&mut state),
        coordinate_sorted: true,
        ..Default::default()
    })
}

/// The region holding exactly `count` records starting at the first
/// ordinal ≥ `lo` where both boundaries fall between distinct start
/// positions. The seed moves `lo`; `count` is a constant, so the work a
/// region stands for never depends on the seed.
pub fn window(records: &[AlignmentRecord], lo: usize, count: usize) -> (String, usize) {
    let strictly_before = |a: &AlignmentRecord, b: &AlignmentRecord| {
        b.is_unmapped() || a.rname != b.rname || a.pos < b.pos
    };
    for lo in lo..records.len().saturating_sub(count) {
        let hi = lo + count;
        let (first, last) = (&records[lo], &records[hi - 1]);
        if first.is_unmapped() || last.is_unmapped() || first.rname != last.rname {
            continue;
        }
        let left = lo == 0 || strictly_before(&records[lo - 1], first);
        let right = hi == records.len() || strictly_before(last, &records[hi]);
        if left && right {
            let name = String::from_utf8_lossy(&first.rname);
            return (format!("{name}:{}-{}", first.pos, last.pos), lo);
        }
    }
    panic!("no {count}-record window at or after ordinal {lo}: size constants are wrong");
}

/// Region start ordinals of one served dataset, before boundary
/// adjustment: constants plus a seeded jitter.
fn served_offsets(workload: Workload, rng: &mut Rng) -> Vec<usize> {
    match workload {
        Workload::ServeWarm => (0..WARM_TEMPLATES_PER_DATASET)
            .map(|j| j * WARM_STRIDE + rng.next_below(WARM_JITTER) as usize)
            .collect(),
        Workload::ServeChurnV2 => (0..CHURN_BURST)
            .map(|k| k * CHURN_BLOCK + CHURN_OFFSET_BASE + rng.next_below(CHURN_JITTER) as usize)
            .collect(),
        Workload::Ingest | Workload::Convert => unreachable!("batch workloads serve nothing"),
    }
}

/// Builds the fixture of `workload` from `seed` into `dir` (which must
/// not exist or be empty).
pub fn build(workload: Workload, seed: u64, dir: &Path) -> BenchResult<()> {
    let fx = Fixture::at(dir);
    std::fs::create_dir_all(dir.join("in"))?;
    match workload {
        Workload::Ingest => {
            let ds = generate(seed, 0, INGEST_RECORDS, 3);
            ds.write_bam(fx.bam(BATCH_INPUT))?;
            ds.write_sam(fx.sam(BATCH_INPUT))?;
            // No timed operation of `ingest` reads a region; the traced
            // run serves these from the shard `ingest` publishes.
            fx.write_regions(&batch_regions(
                &ds,
                &INGEST_PROBE_STARTS,
                INGEST_PROBE_RECORDS,
            ))?;
        }
        Workload::Convert => {
            let ds = generate(seed, 0, CONVERT_RECORDS, 3);
            ds.write_bam(fx.bam(BATCH_INPUT))?;
            ds.write_sam(fx.sam(BATCH_INPUT))?;
            BamConverter::new(ConvertConfig::with_ranks(1))
                .preprocess(fx.bam(BATCH_INPUT), fx.shards())?;
            fx.write_regions(&batch_regions(&ds, &PARTIAL_STARTS, PARTIAL_RECORDS))?;
        }
        Workload::ServeWarm | Workload::ServeChurnV2 => build_served(workload, seed, &fx)?,
    }
    Ok(())
}

fn batch_regions(ds: &Dataset, starts: &[usize], count: usize) -> Vec<RegionLine> {
    starts
        .iter()
        .map(|&lo| RegionLine {
            dataset: BATCH_INPUT.into(),
            region: window(&ds.records, lo, count).0,
            records: count as u64,
        })
        .collect()
}

/// Region lines of the datasets one fixture thread built, by dataset index.
type DatasetRegions = Vec<(usize, Vec<RegionLine>)>;

fn build_served(workload: Workload, seed: u64, fx: &Fixture) -> BenchResult<()> {
    let (n_records, count, version) = match workload {
        Workload::ServeWarm => (WARM_RECORDS, WARM_REGION_RECORDS, BamxVersion::V1),
        _ => (CHURN_RECORDS, CHURN_REGION_RECORDS, BamxVersion::V2),
    };
    let names = dataset_names(workload);
    let mut rng = Rng::seed_from_u64(seed ^ 0x00FF_5E75);
    let offsets: Vec<Vec<usize>> = names
        .iter()
        .map(|_| served_offsets(workload, &mut rng))
        .collect();

    // One shared repository handle: its lock serialises manifest updates,
    // so datasets can be generated, deflated and preprocessed on all cores.
    let repo = ShardRepo::create(fx.shards())?;
    let mut converter = BamConverter::new(ConvertConfig::with_ranks(1));
    converter.format_version = version;
    let threads = nproc().min(names.len());
    let per_thread: Vec<BenchResult<DatasetRegions>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (names, offsets, repo, converter) = (&names, &offsets, &repo, &converter);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for d in (t..names.len()).step_by(threads) {
                        let ds = generate(seed, d as u64 + 1, n_records, 1);
                        ds.write_bam(fx.bam(&names[d]))?;
                        converter.preprocess_repo(fx.bam(&names[d]), repo, false)?;
                        let lines = offsets[d]
                            .iter()
                            .map(|&lo| RegionLine {
                                dataset: names[d].clone(),
                                region: window(&ds.records, lo, count).0,
                                records: count as u64,
                            })
                            .collect();
                        out.push((d, lines));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fixture thread does not panic"))
            .collect()
    });
    let mut by_dataset = Vec::new();
    for part in per_thread {
        by_dataset.extend(part?);
    }
    by_dataset.sort_by_key(|(d, _)| *d);
    let regions: Vec<RegionLine> = by_dataset.into_iter().flat_map(|(_, l)| l).collect();
    fx.write_regions(&regions)
}

/// Concatenates the part files of a report in rank order.
fn concat_parts(report: &ConvertReport) -> BenchResult<Vec<u8>> {
    let mut all = Vec::new();
    for path in &report.outputs {
        all.extend(std::fs::read(path)?);
    }
    Ok(all)
}

/// Coverage bins as the bytes the oracle compares.
fn bins_bytes(bins: &[f64]) -> Vec<u8> {
    bins.iter().flat_map(|b| b.to_le_bytes()).collect()
}

/// Writes the sequential reference output of every distinct operation of
/// `workload`: one-rank conversions for batch operations, one-shot
/// one-rank `convert_partial` for served conversions, and a histogram over
/// the BAM-decoded (not BAMX-decoded) records for served coverage.
pub fn write_references(workload: Workload, dir: &Path) -> BenchResult<()> {
    let fx = Fixture::at(dir);
    let regions = fx.regions()?;
    let tmp = dir.join("ref-tmp");
    std::fs::create_dir_all(dir.join("ref"))?;
    let one = ConvertConfig::with_ranks(1);
    let bam = BamConverter::new(one.clone());
    let partial = |line: &RegionLine, format: TargetFormat| -> BenchResult<Vec<u8>> {
        let bamx = ngs_bamx::BamxFile::open(fx.bamx(&line.dataset))?;
        let region = Region::parse(&line.region, bamx.header())?;
        let report = bam.convert_partial(
            fx.bamx(&line.dataset),
            fx.baix(&line.dataset),
            &region,
            format,
            &tmp,
        )?;
        if report.records_in() != line.records {
            return Err(format!(
                "region {} holds {} records, fixture promised {}",
                line.region,
                report.records_in(),
                line.records
            )
            .into());
        }
        concat_parts(&report)
    };
    for (id, op) in distinct_ops(workload, &regions).iter().enumerate() {
        let bytes = match op {
            // Preprocessing is verified against the SAM input itself.
            Op::PreprocessBam(_) | Op::PreprocessSamx => continue,
            Op::ConvertBamx(format) => {
                concat_parts(&bam.convert_bamx(fx.bamx(BATCH_INPUT), *format, &tmp)?)?
            }
            Op::ConvertSam(format) => concat_parts(&SamConverter::new(one.clone()).convert_file(
                fx.sam(BATCH_INPUT),
                *format,
                &tmp,
            )?)?,
            Op::ConvertPartial(r) => partial(&regions[*r], TargetFormat::Sam)?,
            Op::Serve(t) => match t.kind {
                Kind::Coverage => coverage_reference(&fx, &regions[t.region])?,
                kind => partial(&regions[t.region], kind.format().expect("a convert kind"))?,
            },
        };
        std::fs::write(fx.reference(id), bytes)?;
    }
    let _ = std::fs::remove_dir_all(tmp);
    Ok(())
}

fn coverage_reference(fx: &Fixture, line: &RegionLine) -> BenchResult<Vec<u8>> {
    let file = BufReader::new(std::fs::File::open(fx.bam(&line.dataset))?);
    let mut reader = BamReader::new(file)?;
    let header = reader.header().clone();
    let region = Region::parse(&line.region, &header)?;
    let mut hist = CoverageHistogram::new(&header, COVERAGE_BIN);
    while let Some(rec) = reader.read_record()? {
        if rec.rname == region.name && rec.start0().is_some_and(|p| region.contains_start(p)) {
            hist.add_alignment(&rec);
        }
    }
    Ok(bins_bytes(&hist.bins))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_has_exact_count_and_strict_boundaries() {
        let ds = generate(3, 1, 4_000, 1);
        for lo in [0, 17, 1_000, 2_500] {
            let (text, at) = window(&ds.records, lo, 1_000);
            assert!(
                at >= lo && at < lo + 50,
                "boundary search stays near the offset"
            );
            let region = Region::parse(&text, &ds.header()).unwrap();
            let inside = ds
                .records
                .iter()
                .filter(|r| r.start0().is_some_and(|p| region.contains_start(p)))
                .count();
            assert_eq!(inside, 1_000, "{text}");
        }
    }

    #[test]
    fn served_offsets_keep_churn_regions_on_three_blocks() {
        for seed in 0..50 {
            let mut rng = Rng::seed_from_u64(seed);
            for lo in served_offsets(Workload::ServeChurnV2, &mut rng) {
                // Boundary adjustment moves a start by well under 100.
                for lo in [lo, lo + 100] {
                    let last = lo + CHURN_REGION_RECORDS - 1;
                    assert_eq!(last / CHURN_BLOCK - lo / CHURN_BLOCK + 1, 3);
                    assert!(
                        last < CHURN_RECORDS * 98 / 100,
                        "stays inside the ~99 % mapped records"
                    );
                }
            }
        }
    }
}
