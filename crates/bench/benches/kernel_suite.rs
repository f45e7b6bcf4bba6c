//! Kernel micro-benchmark suite: the numeric hot paths of the stack.
//!
//! Measures the four kernel families this codebase spends its cycles in:
//!
//! * dense LU factorization — blocked production kernel vs the retained
//!   pre-optimization reference (`DenseLu::factorize_reference`),
//! * band triangular solves (in place),
//! * CSR SpMV (sequential and row-parallel),
//! * cold vs warm `PreparedSystem::solve_many` serving.
//!
//! The committed perf trajectory lives in `BENCH_kernels.json` at the repo
//! root, regenerated by `cargo run --release --bin perf-report`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msplit_bench::{dense_dd, penta_band};
use msplit_core::solver::MultisplittingConfig;
use msplit_core::PreparedSystem;
use msplit_dense::{BandLu, DenseLu};
use msplit_sparse::generators;

fn bench_dense_factorize(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_lu_factorize");
    for &n in &[128usize, 512, 1024] {
        let a = dense_dd(n, 42);
        let samples = if n >= 1024 { 2 } else { 5 };
        group.sample_size(samples);
        group.bench_with_input(BenchmarkId::new("blocked", n), &a, |b, a| {
            b.iter(|| DenseLu::factorize(a).expect("factorize"))
        });
        group.bench_with_input(BenchmarkId::new("reference", n), &a, |b, a| {
            b.iter(|| DenseLu::factorize_reference(a).expect("factorize"))
        });
    }
    group.finish();
}

fn bench_band_solve(c: &mut Criterion) {
    let n = 20_000;
    let band = penta_band(n);
    let lu = BandLu::factorize(&band).expect("band factorize");
    let rhs: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut x = rhs.clone();
    let mut group = c.benchmark_group("band_solve");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("solve_into", n), |b| {
        b.iter(|| {
            x.copy_from_slice(&rhs);
            lu.solve_into(&mut x).expect("solve_into");
        })
    });
    group.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let a = generators::poisson_2d(200); // 40_000 rows, ~200k nnz
    let n = a.rows();
    let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
    let mut y = vec![0.0; n];
    let mut group = c.benchmark_group("spmv");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("spmv_into", n), |b| {
        b.iter(|| a.spmv_into(&x, &mut y).expect("spmv"))
    });
    group.finish();
}

fn bench_prepared_cold_vs_warm(c: &mut Criterion) {
    let n = 1_200;
    let batch = 8;
    let a = generators::cage_like(n, 10);
    let config = MultisplittingConfig {
        parts: 4,
        tolerance: 1e-8,
        ..Default::default()
    };
    let rhs: Vec<Vec<f64>> = (0..batch as u64)
        .map(|s| generators::rhs_for_solution(&a, move |i| ((i as u64 + s) % 11) as f64 - 5.0).1)
        .collect();
    let mut group = c.benchmark_group("prepared_solve_many");
    group.sample_size(5);
    group.bench_function("cold_prepare_and_solve_many", |b| {
        b.iter(|| {
            let prepared = PreparedSystem::prepare(config.clone(), &a).expect("prepare");
            prepared.solve_many(&rhs).expect("solve_many")
        })
    });
    let prepared = PreparedSystem::prepare(config, &a).expect("prepare");
    group.bench_function("warm_solve_many", |b| {
        b.iter(|| prepared.solve_many(&rhs).expect("solve_many"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dense_factorize,
    bench_band_solve,
    bench_spmv,
    bench_prepared_cold_vs_warm
);
criterion_main!(benches);
