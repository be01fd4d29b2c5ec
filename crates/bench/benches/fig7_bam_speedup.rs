//! Figure 7 bench: full BAM conversion over preprocessed BAMX at
//! 1/4/16 ranks (simulated-cluster busy time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_bench::{DataCache, Scale};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};

fn bench(c: &mut Criterion) {
    let cache = DataCache::default_location().unwrap();
    let bam = cache.bam(Scale(0.05).fig7_records(), 3).unwrap();
    let prep_dir = cache.scratch("fig7-bench-prep").unwrap();
    let conv1 = BamConverter::new(ConvertConfig::with_ranks(1));
    let prep = conv1.preprocess(&bam, &prep_dir).unwrap();

    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (target, name) in
        [(TargetFormat::Bed, "bed"), (TargetFormat::BedGraph, "bedgraph"), (TargetFormat::Fasta, "fasta")]
    {
        for ranks in [1usize, 4, 16] {
            g.bench_with_input(BenchmarkId::new(name, ranks), &ranks, |b, &n| {
                let conv = BamConverter::new(ConvertConfig::with_ranks(n));
                b.iter_custom(|_| {
                    let out = cache.scratch("fig7-bench").unwrap();
                    conv.convert_bamx(&prep.bamx_path, target, &out).unwrap().busy
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
