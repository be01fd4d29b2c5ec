//! Cross-crate integration for the BAMX v2 columnar layout (DESIGN.md
//! §14): a query engine serving v2 shards must be byte-for-byte
//! indistinguishable from one serving v1 shards — for every target
//! format and worker count. The storage layout is an
//! implementation detail; nothing a client downloads may depend on it.

use ngs_bamx::{BamxFile, BamxVersion, Region};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};
use ngs_query::{
    EngineConfig, QueryClass, QueryEngine, QueryKind, QueryOutcome, QueryRequest,
};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

const ALL_FORMATS: [TargetFormat; 10] = [
    TargetFormat::Sam,
    TargetFormat::Bam,
    TargetFormat::Bed,
    TargetFormat::BedGraph,
    TargetFormat::Fasta,
    TargetFormat::Fastq,
    TargetFormat::Json,
    TargetFormat::Yaml,
    TargetFormat::Wig,
    TargetFormat::Gff,
];

/// Every target format, served from a v1 shard repo and a v2 shard repo
/// by engines at several worker counts, produces identical part files —
/// all anchored to
/// single-threaded one-shot conversion from the v1 shard.
#[test]
fn v2_engine_output_is_byte_identical_to_v1_for_every_format() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 800,
        n_chroms: 2,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();

    let conv_v1 = BamConverter::new(ConvertConfig::with_ranks(1));
    let mut conv_v2 = BamConverter::new(ConvertConfig::with_ranks(1));
    conv_v2.format_version = BamxVersion::V2;

    let shards_v1 = dir.path().join("shards-v1");
    let shards_v2 = dir.path().join("shards-v2");
    let prep_v1 = conv_v1.preprocess(&bam_path, &shards_v1).unwrap();
    let prep_v2 = conv_v2.preprocess(&bam_path, &shards_v2).unwrap();
    assert_eq!(BamxFile::open(&prep_v1.bamx_path).unwrap().version(), BamxVersion::V1);
    assert_eq!(BamxFile::open(&prep_v2.bamx_path).unwrap().version(), BamxVersion::V2);
    // Identical index bytes: region → record-range resolution is shared.
    assert_eq!(
        std::fs::read(&prep_v1.baix_path).unwrap(),
        std::fs::read(&prep_v2.baix_path).unwrap()
    );

    // Reference bytes: one-shot single-threaded conversion from v1.
    let header_probe = BamxFile::open(&prep_v1.bamx_path).unwrap();
    let regions = ["chr1:1-5000", "chr2:1-100000"];
    let mix: Vec<(&str, TargetFormat)> =
        regions.iter().flat_map(|r| ALL_FORMATS.iter().map(move |t| (*r, *t))).collect();
    let reference: Vec<(std::ffi::OsString, Vec<u8>)> = mix
        .iter()
        .enumerate()
        .map(|(i, (region_text, target))| {
            let region = Region::parse(region_text, header_probe.header()).unwrap();
            let out = dir.path().join(format!("ref-{i}"));
            let oneshot = conv_v1
                .convert_partial(&prep_v1.bamx_path, &prep_v1.baix_path, &region, *target, &out)
                .unwrap();
            let path = &oneshot.outputs[0];
            (path.file_name().unwrap().to_os_string(), std::fs::read(path).unwrap())
        })
        .collect();

    for workers in [1usize, 4, 8] {
        for (version, shard_dir) in [("v1", &shards_v1), ("v2", &shards_v2)] {
            let config = EngineConfig {
                workers,
                convert: ConvertConfig::with_ranks(1),
                ..Default::default()
            };
            let engine = QueryEngine::new(shard_dir, config).unwrap();
            let tickets: Vec<_> = mix
                .iter()
                .enumerate()
                .map(|(i, (region_text, target))| {
                    let out_dir = dir.path().join(format!("{version}-w{workers}-{i}"));
                    engine
                        .submit(QueryRequest {
                            dataset: "input".into(),
                            region: (*region_text).into(),
                            kind: QueryKind::Convert { format: *target, out_dir },
                            deadline: None,
                            class: QueryClass::Interactive,
                        })
                        .unwrap()
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let label = format!("{version} workers={workers} request={:?}", mix[i]);
                let QueryOutcome::Converted { output, .. } = ticket
                    .wait()
                    .outcome
                    .unwrap_or_else(|e| panic!("{label}: failed: {e}"))
                else {
                    panic!("{label}: expected a conversion outcome");
                };
                assert_eq!(
                    output.file_name().unwrap(),
                    reference[i].0,
                    "{label}: part-file name"
                );
                assert_eq!(
                    std::fs::read(&output).unwrap(),
                    reference[i].1,
                    "{label}: bytes must match the v1 one-shot reference"
                );
            }
            let stats = engine.drain();
            assert_eq!(stats.completed, mix.len() as u64, "{version} workers={workers}");
            assert_eq!(stats.failed, 0);
        }
    }
}

/// Coverage histograms (which read only positions and CIGARs — the
/// projected fast path on v2) agree exactly across shard versions.
#[test]
fn v2_engine_coverage_matches_v1() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 600,
        n_chroms: 2,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();

    let mut outcomes = Vec::new();
    for version in [BamxVersion::V1, BamxVersion::V2] {
        let mut conv = BamConverter::new(ConvertConfig::with_ranks(1));
        conv.format_version = version;
        let shard_dir = dir.path().join(format!("shards-{}", version.name()));
        conv.preprocess(&bam_path, &shard_dir).unwrap();
        let engine = QueryEngine::new(
            &shard_dir,
            EngineConfig { workers: 2, convert: ConvertConfig::with_ranks(1), ..Default::default() },
        )
        .unwrap();
        let response = engine
            .submit(QueryRequest {
                dataset: "input".into(),
                region: "chr1".into(),
                kind: QueryKind::Coverage { bin_size: 250 },
                deadline: None,
                class: QueryClass::Interactive,
            })
            .unwrap()
            .wait();
        let QueryOutcome::Coverage { bins, bin_size, records } =
            response.outcome.expect("coverage should succeed")
        else {
            panic!("expected a coverage outcome");
        };
        outcomes.push((bins, bin_size, records));
        let stats = engine.drain();
        assert_eq!(stats.failed, 0);
    }
    assert_eq!(outcomes[0], outcomes[1]);
}

/// A v2 repo resumes like a v1 repo: re-preprocessing with the same
/// version verifies the manifest and skips the rebuild, and the shard it
/// trusts is still readable end to end.
#[test]
fn v2_repo_resume_is_trusted_and_readable() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 300,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam_path = dir.path().join("input.bam");
    ds.write_bam(&bam_path).unwrap();
    let mut conv = BamConverter::new(ConvertConfig::with_ranks(1));
    conv.format_version = BamxVersion::V2;
    let shard_dir = dir.path().join("shards");
    let first = conv.preprocess(&bam_path, &shard_dir).unwrap();
    let first_bytes = std::fs::read(&first.bamx_path).unwrap();
    let again = conv.preprocess(&bam_path, &shard_dir).unwrap();
    assert_eq!(std::fs::read(&again.bamx_path).unwrap(), first_bytes);
    let f = BamxFile::open(&again.bamx_path).unwrap();
    assert_eq!(f.version(), BamxVersion::V2);
    assert_eq!(f.len() as usize, ds.records.len());
}
