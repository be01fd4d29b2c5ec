//! Figure 11 bench: NL-means denoising at search radii 20/80/320
//! (l = 15, σ = 10), sequential kernel plus the 4-rank run's makespan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_stats::{nlmeans_distributed, nlmeans_sequential, NlMeansParams};

fn bench(c: &mut Criterion) {
    let mut rng = ngs_simgen::Rng::seed_from_u64(0x11);
    let data: Vec<f64> = (0..4000).map(|_| rng.poisson(8.0) as f64).collect();

    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for r in [20usize, 80, 320] {
        let params = NlMeansParams { search_radius: r, half_patch: 15, sigma: 10.0 };
        g.bench_with_input(BenchmarkId::new("sequential", r), &params, |b, p| {
            b.iter(|| nlmeans_sequential(&data, p))
        });
        g.bench_with_input(BenchmarkId::new("makespan_4_ranks", r), &params, |b, p| {
            b.iter_custom(|_| nlmeans_distributed(&data, p, 4).1.makespan())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
