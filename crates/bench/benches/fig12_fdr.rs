//! Figure 12 bench: FDR computation — direct Eq. 4–6 vs the fused
//! summation-permutation (Eq. 7–9) vs the two-phase ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngs_stats::{
    build_fdr_input, fdr_direct, fdr_fused, fdr_parallel, fdr_parallel_two_phase, NullModel,
};

fn bench(c: &mut Criterion) {
    let mut rng = ngs_simgen::Rng::seed_from_u64(0x12);
    let observed: Vec<f64> = (0..2000).map(|_| rng.poisson(6.0) as f64).collect();
    let input = build_fdr_input(observed, 16, NullModel::Poisson, 7);
    let p_t = 0.8;

    let mut g = c.benchmark_group("fig12");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("direct_eq4_6", |b| b.iter(|| fdr_direct(&input, p_t)));
    g.bench_function("fused_eq7_9", |b| b.iter(|| fdr_fused(&input, p_t)));
    for ranks in [1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("makespan_fused", ranks), &ranks, |b, &n| {
            b.iter_custom(|_| fdr_parallel(&input, p_t, n).1.makespan())
        });
        g.bench_with_input(BenchmarkId::new("makespan_two_phase", ranks), &ranks, |b, &n| {
            b.iter_custom(|_| fdr_parallel_two_phase(&input, p_t, n).1.makespan())
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
