//! Figure 6 bench: the SAM format converter at 1/4/16 ranks for BED,
//! BEDGRAPH and FASTA, timed by each run's simulated-cluster busy time
//! (the figure's data point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_bench::{DataCache, Scale};
use ngs_converter::{ConvertConfig, FileSource, SamConverter, TargetFormat};

fn bench(c: &mut Criterion) {
    let cache = DataCache::default_location().unwrap();
    let sam = cache.sam(Scale(0.05).fig6_records(), 3).unwrap();
    let source = FileSource::open(&sam).unwrap();

    let mut g = c.benchmark_group("fig6");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for (target, name) in
        [(TargetFormat::Bed, "bed"), (TargetFormat::BedGraph, "bedgraph"), (TargetFormat::Fasta, "fasta")]
    {
        for ranks in [1usize, 4, 16] {
            g.bench_with_input(BenchmarkId::new(name, ranks), &ranks, |b, &n| {
                let conv = SamConverter::new(ConvertConfig::with_ranks(n));
                b.iter_custom(|_| {
                    let out = cache.scratch("fig6-bench").unwrap();
                    conv.convert_source(&source, target, &out, "x").unwrap().busy
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
