//! Layer probes of the traced run: each calls one layer's public
//! functions on a small seeded input and reports the median of
//! [`REPS`] repetitions. They are the same on every workload; what a
//! probe moves end to end is tabulated in README.md.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ngs_bamx::repo::{ShardRepo, FINGERPRINT_NONE};
use ngs_bamx::{
    Baix, BamxCompression, BamxFile, BamxLayout, BamxVersion, BamxWriter, Region, V2Writer,
};
use ngs_bgzf::{compress_sequential, decompress_sequential, Options};
use ngs_cluster::run_ranks;
use ngs_collate::{CollateConfig, Collator, SortBy};
use ngs_converter::target::builtin;
use ngs_converter::{BamConverter, ConvertConfig, SamConverter, SamxConverter, TargetFormat};
use ngs_dist::{serve_query, DistClient, DistQuery};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::{bam, bed, fastq, json, sam};
use ngs_pipeline::{Pipeline, PipelineConfig};
use ngs_query::ShardStore;
use ngs_simgen::{Dataset, DatasetSpec, Rng};
use ngs_stats::fdr::{fdr_fused, FdrInput};
use ngs_stats::nlmeans::{nlmeans_sequential, NlMeansParams};

use crate::fixture::{nproc, window};
use crate::spec::CHR1_LEN;
use crate::stats::median;
use crate::BenchResult;

/// Repetitions per probe.
pub const REPS: usize = 9;
/// Records of the probe dataset.
const PROBE_RECORDS: usize = 4_000;
/// Records of the probe's region (partial conversion, RPC).
const PROBE_REGION_RECORDS: usize = 2_000;
/// Bins of the statistics probes.
const STAT_BINS: usize = 20_000;
/// Direct/routed query pairs of the RPC probe.
const RPC_PAIRS: usize = 31;
/// Simulation rounds of the FDR probe.
const FDR_ROUNDS: usize = 16;

const MB: f64 = (1 << 20) as f64;

/// Median seconds of [`REPS`] calls of `f`.
fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Like [`time`] for fallible calls; the first error wins.
fn try_time<T>(mut f: impl FnMut() -> BenchResult<T>) -> BenchResult<f64> {
    let mut failure = None;
    let seconds = time(|| match f() {
        Ok(v) => Some(v),
        Err(e) => {
            failure.get_or_insert(e);
            None
        }
    });
    failure.map_or(Ok(seconds), Err)
}

/// Runs every workload-independent probe inside `dir` (created, and left
/// for the caller to remove with the run directory).
pub fn run(seed: u64, dir: &Path) -> BenchResult<BTreeMap<&'static str, f64>> {
    std::fs::create_dir_all(dir)?;
    let mut m = BTreeMap::new();
    let ds = Dataset::generate(&DatasetSpec {
        chr1_len: CHR1_LEN,
        n_chroms: 1,
        n_records: PROBE_RECORDS,
        seed: seed ^ 0x9_0BE5,
        coordinate_sorted: true,
        ..Default::default()
    });
    let header = ds.header();
    let records = &ds.records;
    let n = records.len() as f64;
    let bam_path = dir.join("p.bam");
    let sam_path = dir.join("p.sam");
    ds.write_bam(&bam_path)?;
    ds.write_sam(&sam_path)?;
    let ranks = nproc();

    // --- bgzf: the BAM record stream is what the codec sees on ingest.
    let bam_bytes = std::fs::read(&bam_path)?;
    let raw = decompress_sequential(&bam_bytes)?;
    let deflated = compress_sequential(&raw, Options::default());
    m.insert(
        "bgzf.deflate_mb_per_s",
        raw.len() as f64 / MB / time(|| compress_sequential(&raw, Options::default())),
    );
    m.insert(
        "bgzf.inflate_mb_per_s",
        raw.len() as f64 / MB / try_time(|| Ok(decompress_sequential(&deflated)?))?,
    );
    m.insert(
        "bgzf.crc32_mb_per_s",
        raw.len() as f64 / MB / time(|| ngs_bgzf::crc32::crc32(&raw)),
    );
    m.insert(
        "bgzf.compress_ratio",
        raw.len() as f64 / deflated.len() as f64,
    );

    // --- formats
    m.insert(
        "formats.bam_decode_rec_per_s",
        n / try_time(|| decode_bam_stream(&raw))?,
    );
    m.insert(
        "formats.bam_encode_rec_per_s",
        n / try_time(|| {
            let mut out = Vec::with_capacity(raw.len());
            for r in records {
                bam::encode_record(r, &header, &mut out)?;
            }
            Ok(out)
        })?,
    );
    let sam_text = ds.to_sam_bytes();
    m.insert(
        "formats.sam_parse_rec_per_s",
        n / try_time(|| {
            let mut parsed = 0u64;
            for (i, line) in sam_text.split(|&b| b == b'\n').enumerate() {
                if !line.is_empty() && line[0] != b'@' {
                    black_box(sam::parse_record(line, i as u64)?);
                    parsed += 1;
                }
            }
            Ok(parsed)
        })?,
    );
    let emit = |f: &dyn Fn(&AlignmentRecord, &mut Vec<u8>) -> bool| {
        n / time(|| {
            let mut out = Vec::with_capacity(sam_text.len());
            let emitted = records.iter().filter(|r| f(r, &mut out)).count();
            (out, emitted)
        })
    };
    m.insert(
        "formats.emit_sam_rec_per_s",
        emit(&|r, out| {
            sam::write_record(r, out);
            out.push(b'\n');
            true
        }),
    );
    m.insert("formats.emit_bed_rec_per_s", emit(&bed::write_alignment));
    m.insert(
        "formats.emit_fastq_rec_per_s",
        emit(&fastq::write_alignment),
    );
    m.insert("formats.emit_json_rec_per_s", emit(&json::write_alignment));

    // --- converter, write side (also leaves the shards the read-side
    // probes open: v1/p.bamx, v2/p.bamx, both manifest-managed).
    let config = ConvertConfig::with_ranks(ranks);
    let v1 = BamConverter::new(config.clone());
    let mut v2 = BamConverter::new(config.clone());
    v2.format_version = BamxVersion::V2;
    m.insert(
        "converter.preprocess_v1_rec_per_s",
        n / try_time(|| Ok(v1.preprocess(&bam_path, dir.join("v1"))?))?,
    );
    m.insert(
        "converter.preprocess_v2_rec_per_s",
        n / try_time(|| Ok(v2.preprocess(&bam_path, dir.join("v2"))?))?,
    );
    let samx = SamxConverter::new(config.clone());
    m.insert(
        "converter.samx_preprocess_rec_per_s",
        n / try_time(|| Ok(samx.preprocess_file(&sam_path, dir.join("samx"))?))?,
    );
    let v1_path = dir.join("v1/p.bamx");
    let v2_path = dir.join("v2/p.bamx");
    let baix_path = dir.join("v1/p.baix");

    // --- bamx, write side
    let layout = BamxLayout::compute(records)?;
    m.insert(
        "bamx.v1_write_rec_per_s",
        n / try_time(|| {
            let mut w =
                BamxWriter::new(Vec::new(), header.clone(), layout, BamxCompression::Plain)?;
            for r in records {
                w.write_record(r)?;
            }
            Ok(w.finish()?)
        })?,
    );
    m.insert(
        "bamx.v2_write_rec_per_s",
        n / try_time(|| {
            let mut w = V2Writer::new(Vec::new(), header.clone(), layout)?;
            for r in records {
                w.write_record(r)?;
            }
            Ok(w.finish()?)
        })?,
    );
    let v1_file = BamxFile::open(&v1_path)?;
    let v2_file = BamxFile::open(&v2_path)?;
    m.insert(
        "bamx.baix_build_rec_per_s",
        n / try_time(|| Ok(Baix::build(&v1_file)?))?,
    );
    let repo = ShardRepo::create(dir.join("publish"))?;
    let payload = std::fs::read(&v1_path)?;
    m.insert(
        "bamx.repo_publish_ms",
        1e3 * try_time(|| {
            let mut staged = repo.stage("probe.bin")?;
            staged.write_all(&payload)?;
            let entry = staged.seal(FINGERPRINT_NONE)?;
            Ok(repo.record(vec![entry])?)
        })?,
    );

    // --- bamx, read side
    let n_rec = v1_file.len();
    let mut rng = Rng::seed_from_u64(seed ^ 0x01D5);
    let points: Vec<u64> = (0..64).map(|_| rng.next_below(n_rec)).collect();
    let point_us = |file: &BamxFile| -> BenchResult<f64> {
        let per_rep = try_time(|| {
            for &i in &points {
                black_box(file.read_record(i)?);
            }
            Ok(())
        })?;
        Ok(1e6 * per_rep / points.len() as f64)
    };
    m.insert(
        "bamx.v1_read_range_rec_per_s",
        n / try_time(|| Ok(v1_file.read_range(0, n_rec)?))?,
    );
    m.insert("bamx.v1_point_us", point_us(&v1_file)?);
    m.insert(
        "bamx.v2_read_range_rec_per_s",
        n / try_time(|| Ok(v2_file.read_range(0, n_rec)?))?,
    );
    let bed_columns = builtin(TargetFormat::Bed)
        .expect("BED is a line format")
        .columns();
    m.insert(
        "bamx.v2_projected_rec_per_s",
        n / try_time(|| Ok(v2_file.read_range_projected(0, n_rec, bed_columns)?))?,
    );
    m.insert("bamx.v2_point_us", point_us(&v2_file)?);
    let decoded = ngs_obs::global().counter("bamx.column_bytes_decoded");
    let before = decoded.get();
    v2_file.read_range(0, n_rec)?;
    let full = decoded.get() - before;
    v2_file.read_range_projected(0, n_rec, bed_columns)?;
    let projected = decoded.get() - before - full;
    m.insert("bamx.v2_column_bytes_frac", projected as f64 / full as f64);
    let baix = Baix::load(&baix_path)?;
    let (region_text, _) = window(records, 500, PROBE_REGION_RECORDS);
    let region = Region::parse(&region_text, &header)?;
    let ref_id = region.resolve(&header)?;
    let locates = 1_000;
    m.insert(
        "bamx.baix_locate_ns",
        1e9 * time(|| {
            for _ in 0..locates {
                black_box(baix.locate(black_box(ref_id), black_box(&region)));
            }
        }) / locates as f64,
    );
    m.insert(
        "bamx.open_us",
        1e6 * try_time(|| Ok(BamxFile::open(&v2_path)?))?,
    );
    m.insert(
        "bamx.baix_load_us",
        1e6 * try_time(|| Ok(Baix::load(dir.join("v2/p.baix"))?))?,
    );
    let v2_repo = ShardRepo::open(dir.join("v2"))?;
    m.insert(
        "bamx.manifest_verify_us",
        1e6 * try_time(|| Ok(v2_repo.verify_artifact("p.bamx")?))?,
    );

    // --- converter, read side
    let out = dir.join("out");
    let one = BamConverter::new(ConvertConfig::with_ranks(1));
    let mut imbalance = Vec::new();
    let t_sam = try_time(|| {
        let report = v1.convert_bamx(&v1_path, TargetFormat::Sam, &out)?;
        let elapsed: Vec<f64> = report
            .per_rank
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .collect();
        let mean = elapsed.iter().sum::<f64>() / elapsed.len() as f64;
        imbalance.push(elapsed.iter().cloned().fold(0.0, f64::max) / mean);
        Ok(())
    })?;
    let t_sam_one = try_time(|| Ok(one.convert_bamx(&v1_path, TargetFormat::Sam, &out)?))?;
    m.insert("converter.bamx_sam_rec_per_s", n / t_sam);
    m.insert(
        "converter.bamx_bed_rec_per_s",
        n / try_time(|| Ok(v1.convert_bamx(&v1_path, TargetFormat::Bed, &out)?))?,
    );
    m.insert(
        "converter.bamx_fastq_rec_per_s",
        n / try_time(|| Ok(v1.convert_bamx(&v1_path, TargetFormat::Fastq, &out)?))?,
    );
    let sam_converter = SamConverter::new(config.clone());
    m.insert(
        "converter.sam_text_rec_per_s",
        n / try_time(|| Ok(sam_converter.convert_file(&sam_path, TargetFormat::Bed, &out)?))?,
    );
    m.insert(
        "converter.partial_rec_per_s",
        PROBE_REGION_RECORDS as f64
            / try_time(|| {
                Ok(v1.convert_partial(&v1_path, &baix_path, &region, TargetFormat::Sam, &out)?)
            })?,
    );
    m.insert("converter.ranks_speedup", t_sam_one / t_sam);
    m.insert("converter.rank_imbalance", median(&imbalance));
    m.insert(
        "converter.to_bam_rec_per_s",
        n / try_time(|| Ok(v1.convert_bamx(&v1_path, TargetFormat::Bam, &out)?))?,
    );

    // --- pipeline (off the serving path today: ROADMAP item 3 decides)
    let pipeline = Pipeline::new(PipelineConfig::default());
    let mut peak = Vec::new();
    let t_stream = try_time(|| {
        let run = pipeline.convert_file(&v1_path, TargetFormat::Sam, &out)?;
        peak.push(run.metrics.peak_buffered_bytes as f64 / MB);
        Ok(())
    })?;
    m.insert("pipeline.stream_sam_rec_per_s", n / t_stream);
    m.insert("pipeline.stream_over_batch", t_sam_one / t_stream);
    m.insert("pipeline.peak_buffered_mb", median(&peak));

    // --- dist: one RPC hop over the thread transport, minus the same
    // query served directly.
    let store = ShardStore::open(dir.join("v1"), 4)?;
    let query = DistQuery {
        dataset: "p".into(),
        region: region_text,
        format: TargetFormat::Bed,
    };
    let serial = ConvertConfig::with_ranks(1);
    let hop: Vec<BenchResult<f64>> = run_ranks(2, |comm| {
        if comm.rank() == 1 {
            ngs_dist::rpc::serve(comm, 0, &store, &serial, &dir.join("rpc"))?;
            return Ok(0.0);
        }
        // Pairs of the two calls back to back: the hop is tens of
        // microseconds on a two-millisecond query, so only the paired
        // difference resolves it.
        let client = DistClient::new(comm);
        let mut extra = Vec::with_capacity(RPC_PAIRS);
        let mut outcome = Ok(());
        for _ in 0..RPC_PAIRS {
            let t = Instant::now();
            let direct = serve_query(&store, &query, &serial, &out);
            let direct_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let routed = client.query(1, &query);
            extra.push(t.elapsed().as_secs_f64() - direct_s);
            if let Err(e) = direct.and(routed) {
                outcome = Err(e);
                break;
            }
        }
        client.shutdown(1)?;
        outcome?;
        Ok(median(&extra))
    });
    let hop = hop.into_iter().next().expect("rank 0 reports")?;
    m.insert("dist.rpc_roundtrip_us", 1e6 * hop);

    // --- parked tiers: a baseline row each
    let collator = Collator::new(CollateConfig::default());
    let mut shuffled = records.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    m.insert(
        "collate.sort_rec_per_s",
        n / try_time(|| {
            let mut sorted = 0u64;
            let run = collator.run_records(
                &header,
                shuffled.clone(),
                ngs_collate::Workload::Sort(SortBy::Coordinate),
                &mut |_| {
                    sorted += 1;
                    Ok(())
                },
            )?;
            Ok((run.records_out, sorted))
        })?,
    );
    let bins: Vec<f64> = (0..STAT_BINS).map(|_| rng.poisson(4.0) as f64).collect();
    let params = NlMeansParams::default();
    m.insert(
        "stats.nlmeans_mbin_per_s",
        STAT_BINS as f64 / 1e6 / time(|| nlmeans_sequential(&bins, &params)),
    );
    let simulations: Vec<Vec<f64>> = (0..FDR_ROUNDS)
        .map(|_| (0..STAT_BINS).map(|_| rng.poisson(4.0) as f64).collect())
        .collect();
    let input = FdrInput::new(bins, simulations);
    m.insert(
        "stats.fdr_mbin_per_s",
        STAT_BINS as f64 / 1e6 / time(|| fdr_fused(&input, 0.05)),
    );
    Ok(m)
}

/// Decodes an inflated BAM stream: header, then length-prefixed records.
pub fn decode_bam_stream(raw: &[u8]) -> BenchResult<(SamHeader, Vec<AlignmentRecord>)> {
    let mut cursor = raw;
    let header = bam::decode_header(&mut cursor)?;
    let mut records = Vec::new();
    while cursor.len() >= 4 {
        let size = u32::from_le_bytes([cursor[0], cursor[1], cursor[2], cursor[3]]) as usize;
        let body = cursor.get(4..4 + size).ok_or("truncated BAM record")?;
        records.push(bam::decode_record(body, &header)?);
        cursor = &cursor[4 + size..];
    }
    Ok((header, records))
}
