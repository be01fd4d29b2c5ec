//! Figure 9 bench: original SAM converter vs preprocessing-optimized
//! (_P) conversion from BAMX shards, same target, same rank count,
//! simulated-cluster busy time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_bench::{DataCache, Scale};
use ngs_converter::{ConvertConfig, FileSource, SamConverter, SamxConverter, TargetFormat};

fn bench(c: &mut Criterion) {
    let cache = DataCache::default_location().unwrap();
    let sam = cache.sam(Scale(0.05).fig9_records(), 3).unwrap();
    let source = FileSource::open(&sam).unwrap();
    let samx = SamxConverter::new(ConvertConfig::with_ranks(1));
    let shards_dir = cache.scratch("fig9-bench-shards").unwrap();
    let prep = samx.preprocess_source(&source, &shards_dir, "x").unwrap();

    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for ranks in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("original_sam_to_bed", ranks), &ranks, |b, &n| {
            let conv = SamConverter::new(ConvertConfig::with_ranks(n));
            b.iter_custom(|_| {
                let out = cache.scratch("fig9-bench-a").unwrap();
                conv.convert_source(&source, TargetFormat::Bed, &out, "x").unwrap().busy
            })
        });
        g.bench_with_input(BenchmarkId::new("optimized_samx_to_bed", ranks), &ranks, |b, &n| {
            let conv = SamxConverter::new(ConvertConfig::with_ranks(n));
            b.iter_custom(|_| {
                let out = cache.scratch("fig9-bench-b").unwrap();
                conv.convert_shards(&prep.shards, TargetFormat::Bed, &out).unwrap().busy
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
