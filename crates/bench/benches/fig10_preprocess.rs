//! Figure 10 bench: the parallel SAM→BAMX preprocessing step at
//! 1/4/16 ranks (simulated-cluster busy time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_bench::{DataCache, Scale};
use ngs_converter::{ConvertConfig, FileSource, SamxConverter};

fn bench(c: &mut Criterion) {
    let cache = DataCache::default_location().unwrap();
    let sam = cache.sam(Scale(0.05).fig9_records(), 3).unwrap();
    let source = FileSource::open(&sam).unwrap();

    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for ranks in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("sam_preprocess", ranks), &ranks, |b, &n| {
            let conv = SamxConverter::new(ConvertConfig::with_ranks(n));
            b.iter_custom(|_| {
                let out = cache.scratch("fig10-bench").unwrap();
                conv.preprocess_source(&source, &out, "x").unwrap().busy
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
