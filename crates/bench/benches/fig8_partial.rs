//! Figure 8 bench: partial BAM→SAM conversion over 20/60/100 % regions
//! (BAIX binary search + random access), simulated-cluster busy time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_bamx::{BamxFile, Region};
use ngs_bench::{DataCache, Scale};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};

fn bench(c: &mut Criterion) {
    let cache = DataCache::default_location().unwrap();
    let bam = cache.bam(Scale(0.05).fig7_records(), 1).unwrap();
    let prep_dir = cache.scratch("fig8-bench-prep").unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(8));
    let prep = conv.preprocess(&bam, &prep_dir).unwrap();
    let chr_len = BamxFile::open(&prep.bamx_path).unwrap().header().references[0].length as i64;

    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for pct in [20i64, 60, 100] {
        let region = Region::new("chr1", 0, chr_len * pct / 100).unwrap();
        g.bench_with_input(BenchmarkId::new("partial_to_sam", pct), &region, |b, region| {
            b.iter_custom(|_| {
                let out = cache.scratch("fig8-bench").unwrap();
                let (bamx, baix) = (&prep.bamx_path, &prep.baix_path);
                conv.convert_partial(bamx, baix, region, TargetFormat::Sam, &out).unwrap().busy
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
