//! `factor_heavy` and `iterate_heavy`: one prepared system solving
//! right-hand sides back to back (a closed loop with one solve in flight).
//!
//! The untraced run times `PreparedSystem::prepare` and
//! `PreparedSystem::solve`. The traced run solves the same prepared system
//! through `PreparedSystem::solve_with_transport` over a span-recording
//! transport, so the comm spans come from the library's own lockstep
//! driver; per-rank wall times and factorization counts come from the
//! outcome's `PartReport`s. `bench.trace_overhead_pct` compares the two.

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{beyond, mean, median, percentile};
use crate::trace::{self, Ledger, TracedTransport};
use crate::Args;
use msplit_comm::transport::Transport;
use msplit_comm::{InProcTransport, LinkStats, Message};
use msplit_core::{Decomposition, Method, MultisplittingConfig, PreparedSystem, SolveOutcome};
use msplit_direct::api::Factorization;
use msplit_direct::{FactorStats, SolveScratch};
use msplit_sparse::generators::{self, ConvectionDiffusionConfig};
use msplit_sparse::{BandPartition, CsrMatrix, LocalBlocks};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative residual `‖b − Ax‖∞ / ‖b‖∞` every answer must stay below. The
/// solves stop on an increment of 1e-8; this bound leaves two orders of
/// magnitude for the conditioning of the test systems.
pub const RESIDUAL_BOUND: f64 = 1e-6;

/// Right-hand sides cycled through by the solve loop.
const RHS_POOL: usize = 8;

/// Spans written out per traced run (the rest are folded into totals).
const KEPT_SPANS: usize = 20_000;

pub struct SolverWorkload {
    pub name: &'static str,
    pub matrix: fn(u64) -> CsrMatrix,
    pub parts: usize,
    /// `setup_s` is the median of one cold prepare before the solve loop
    /// and `prepares` more before each of `setup_rounds` slices of it.
    pub setup_rounds: u32,
    pub prepares: usize,
}

/// The cage10/11 family of the paper's Tables 1–2: factorization is nearly
/// all of the work (prepare ≈ 10× one solve).
pub const FACTOR_HEAVY: SolverWorkload = SolverWorkload {
    name: "factor_heavy",
    matrix: |seed| generators::cage_like(20_000, seed),
    parts: 8,
    setup_rounds: 4,
    prepares: 1,
};

/// Thin bands of an ill-conditioned nonsymmetric operator: many cheap
/// iterations, so the runtime, transport and triangular solves do the work.
pub const ITERATE_HEAVY: SolverWorkload = SolverWorkload {
    name: "iterate_heavy",
    matrix: |seed| {
        generators::convection_diffusion(&ConvectionDiffusionConfig {
            k: 64,
            seed,
            ..Default::default()
        })
    },
    parts: 16,
    setup_rounds: 20,
    prepares: 20,
};

pub fn config(parts: usize, method: Method) -> MultisplittingConfig {
    MultisplittingConfig {
        parts,
        method,
        ..Default::default()
    }
}

/// `b = A x*` for seeded random `x*`.
pub fn rhs_pool(a: &CsrMatrix, seed: u64, count: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, 0xB);
    (0..count)
        .map(|_| a.spmv(&rng.vector(a.cols())).expect("square matrix"))
        .collect()
}

/// The relative residual of `x`.
pub fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.spmv(x).expect("solution length matches the matrix");
    let r = b
        .iter()
        .zip(&ax)
        .fold(0.0f64, |m, (bi, axi)| m.max((bi - axi).abs()));
    let bn = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    r / bn.max(f64::MIN_POSITIVE)
}

/// The correctness check of one answer.
pub fn check(a: &CsrMatrix, b: &[f64], x: &[f64], converged: bool) -> Result<f64, String> {
    let rel = relative_residual(a, b, x);
    if !converged {
        return Err(format!("not converged (relative residual {rel:.3e})"));
    }
    if rel.is_nan() || rel >= RESIDUAL_BOUND {
        return Err(format!(
            "relative residual {rel:.3e} above {RESIDUAL_BOUND:e}"
        ));
    }
    Ok(rel)
}

/// One timed solve loop of `budget` over the pool (checks run outside the
/// timed call); returns the solve times and each solve's iteration count.
pub fn solve_loop(
    report: &mut Report,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    budget: Duration,
    label: &str,
    solve: impl FnMut(&[f64]) -> SolveResult,
) -> (Vec<f64>, Vec<u64>) {
    solve_loop_between(report, a, pool, budget, label, 1, || Ok(()), solve)
        .expect("nothing runs between the slices")
}

/// [`solve_loop`] in `rounds` equal slices of `budget`, with `between`
/// called before each slice; the budget counts solving only. Set-up samples
/// taken in `between` are spread over the whole run, so a slow phase of the
/// host (they last seconds) moves a few of them rather than all.
#[allow(clippy::too_many_arguments)]
pub fn solve_loop_between(
    report: &mut Report,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    budget: Duration,
    label: &str,
    rounds: u32,
    mut between: impl FnMut() -> Result<(), String>,
    mut solve: impl FnMut(&[f64]) -> SolveResult,
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let mut times = Vec::new();
    let mut iterations = Vec::new();
    let mut worst = 0.0f64;
    let slice = budget / rounds.max(1);
    let mut i = 0usize;
    for _ in 0..rounds.max(1) {
        between()?;
        let phase = Instant::now();
        let first = i;
        while i == first || phase.elapsed() < slice {
            let b = &pool[i % pool.len()];
            i += 1;
            report.attempted += 1;
            let t = Instant::now();
            let result = std::hint::black_box(solve(b));
            let dt = t.elapsed().as_secs_f64();
            match result
                .and_then(|(x, converged, its)| check(a, b, &x, converged).map(|r| (r, its)))
            {
                Ok((rel, its)) => {
                    worst = worst.max(rel);
                    times.push(dt);
                    iterations.push(its);
                }
                Err(e) => report.fail(format!("{label} solve {i}: {e}")),
            }
        }
    }
    report.note(format!(
        "{label}: {} solves, worst relative residual {worst:.3e}",
        times.len()
    ));
    Ok((times, iterations))
}

/// A solve's answer, convergence flag and iteration count, or why it failed.
pub type SolveResult = Result<(Vec<f64>, bool, u64), String>;

fn prepared_solve(sys: &PreparedSystem) -> impl FnMut(&[f64]) -> SolveResult + '_ {
    move |b| {
        sys.solve(b)
            .map(|o| (o.x, o.converged, o.iterations))
            .map_err(|e| e.to_string())
    }
}

pub fn run(args: &Args, w: &SolverWorkload) -> Result<Report, String> {
    let a = (w.matrix)(args.seed);
    let pool = rhs_pool(&a, args.seed, RHS_POOL);
    let cfg = config(w.parts, Method::Stationary);
    let mut report = Report::new();
    report.note(format!(
        "{}: n = {}, nnz = {}, {} bands, SparseLu, synchronous, tolerance {:e}",
        w.name,
        a.rows(),
        a.nnz(),
        w.parts,
        cfg.tolerance
    ));
    if args.trace {
        run_traced(args, w, &a, &pool, cfg, &mut report)?;
    } else {
        run_untraced(args, w, &a, &pool, cfg, &mut report)?;
    }
    Ok(report)
}

fn run_untraced(
    args: &Args,
    w: &SolverWorkload,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    cfg: MultisplittingConfig,
    report: &mut Report,
) -> Result<(), String> {
    let prepare = || -> Result<(PreparedSystem, f64), String> {
        let t = Instant::now();
        let sys = PreparedSystem::prepare(cfg.clone(), a).map_err(|e| e.to_string())?;
        Ok((sys, t.elapsed().as_secs_f64()))
    };
    let (sys, first) = prepare()?;
    let mut setups = vec![first];
    report.set("memory_mb", sys.memory_bytes() as f64 / 1e6);

    // One solve grows the pooled workspaces; a warm solve is what every
    // later caller of a prepared system pays.
    let _ = sys.solve(&pool[0]).map_err(|e| e.to_string())?;
    let (times, its) = solve_loop_between(
        report,
        a,
        pool,
        args.seconds,
        "solve",
        w.setup_rounds,
        || {
            for _ in 0..w.prepares {
                setups.push(prepare()?.1);
            }
            Ok(())
        },
        prepared_solve(&sys),
    )?;
    report.set("setup_s", median(&setups));
    report.note(format!("setup: median of {} cold prepares", setups.len()));
    set_solve_metrics(report, &times);
    report.note(format!(
        "solve: median {:.0} iterations, p90 has {} samples beyond it",
        median(&its.iter().map(|&i| i as f64).collect::<Vec<_>>()),
        beyond(&times, 0.9)
    ));
    Ok(())
}

/// The solve-time metrics shared by the solver workloads: the caller is a
/// closed loop with one solve in flight, so a solve's latency is its wall
/// time and capacity is completed solves over the time spent solving.
pub fn set_solve_metrics(report: &mut Report, times: &[f64]) {
    report.set("solve_s", median(times));
    report.set("solve_p90_s", percentile(times, 0.9));
    report.set("latency_p50_ms", 1e3 * median(times));
    report.set("latency_p90_ms", 1e3 * percentile(times, 0.9));
    report.set(
        "capacity_rps",
        times.len() as f64 / times.iter().sum::<f64>(),
    );
}

/// One solve of the prepared system through its own lockstep driver, over
/// an in-process transport wrapped in a span-recording one; returns the
/// outcome and the transport's computed traffic counts.
fn traced_solve(sys: &PreparedSystem, b: &[f64]) -> Result<(SolveOutcome, LinkStats), String> {
    let inner = InProcTransport::new(sys.num_parts());
    let out = sys
        .solve_with_transport(b, TracedTransport::new(inner.clone()))
        .map_err(|e| e.to_string())?;
    Ok((out, inner.stats()))
}

/// Mean microseconds of `f` over `reps` calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Isolated per-band kernels: one triangular-solve pair with the band's
/// factors, and one `BLoc = BSub − Dep·x` product.
fn kernel_timings(
    partition: &BandPartition,
    blocks: &[LocalBlocks],
    factors: &[Box<dyn Factorization>],
    b: &[f64],
    report: &mut Report,
) -> Result<(), String> {
    let x = b.to_vec();
    let reps = (200_000 / partition.order()).clamp(3, 200);
    let mut trsv = 0.0;
    let mut bloc = 0.0;
    for (blk, f) in blocks.iter().zip(factors) {
        let b_sub = &b[partition.extended_range(blk.part)];
        let mut scratch = SolveScratch::default();
        let mut rhs = b_sub.to_vec();
        f.solve_into(&mut rhs, &mut scratch)
            .map_err(|e| e.to_string())?;
        trsv += time_us(reps, || {
            rhs.copy_from_slice(b_sub);
            f.solve_into(std::hint::black_box(&mut rhs), &mut scratch)
                .expect("warm solve of a factored band");
        });
        let mut out = Vec::with_capacity(blk.size);
        bloc += time_us(reps, || {
            blk.local_rhs_into(b_sub, std::hint::black_box(&x), &mut out)
                .expect("band shapes match the system");
        });
    }
    let parts = blocks.len() as f64;
    report.set("direct.trsv_us", trsv / parts);
    report.set("runtime.bloc_us", bloc / parts);
    Ok(())
}

/// Ping-pong of a halo-sized `Solution` message between two ranks of an
/// in-process transport.
pub fn inproc_roundtrip_us(values: usize) -> f64 {
    let t = InProcTransport::new(2);
    let msg = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![0.5; values],
    };
    let reps = 2000;
    let peer = Arc::clone(&t);
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..reps {
                let m = peer.recv(1).expect("ping");
                peer.send(1, 0, m).expect("pong");
            }
        });
        time_us(reps, || {
            t.send(0, 1, msg.clone()).expect("ping");
            t.recv(0).expect("pong");
        })
    })
}

fn run_traced(
    args: &Args,
    w: &SolverWorkload,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    cfg: MultisplittingConfig,
    report: &mut Report,
) -> Result<(), String> {
    let phase = args.seconds / 3;

    // Prepare once; the untraced and the traced solves share the system.
    let t = Instant::now();
    let sys = trace::span("setup", || PreparedSystem::prepare(cfg.clone(), a))
        .map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    let (warm, _) = traced_solve(&sys, &pool[0])?;
    let factor_stats: Vec<FactorStats> = warm
        .part_reports
        .iter()
        .map(|r| r.factor_stats.clone())
        .collect();
    let (untraced, _) = solve_loop(
        report,
        a,
        pool,
        phase,
        "untraced solve",
        prepared_solve(&sys),
    );

    // Setup ledger: the decomposition timed alone, and the band
    // factorizations as the direct layer timed them inside prepare.
    let zero = vec![0.0; a.rows()];
    let t = Instant::now();
    let decomposition = trace::span("decomposition", || {
        Decomposition::uniform(a, &zero, cfg.parts, cfg.overlap)
    })
    .map_err(|e| e.to_string())?;
    let decomposition_s = t.elapsed().as_secs_f64();
    let factorize_s: f64 = factor_stats.iter().map(|s| s.factor_seconds).sum();
    let setup_ledger = Ledger::new("setup (prepare)", setup_s, "s")
        .row("decomposition", decomposition_s)
        .row("direct.factorize", factorize_s);
    report.set("decomposition.s", decomposition_s);
    report.set("direct.factorize_s", factorize_s);
    report.set(
        "direct.factorize_max_s",
        factor_stats
            .iter()
            .map(|s| s.factor_seconds)
            .fold(0.0, f64::max),
    );
    report.set(
        "setup.unattributed_share",
        setup_ledger.unattributed_share(),
    );
    let (flops, nnz_lu, nnz_a) = factor_counts(&factor_stats);
    report.set("direct.flops", flops as f64);
    report.set("direct.fill_ratio", nnz_lu as f64 / nnz_a as f64);
    report.set("direct.gflops", flops as f64 / factorize_s / 1e9);
    report.note(format!(
        "computed counts: factorization flops {flops}, nnz(L+U) {nnz_lu}, nnz(A bands) {nnz_a}"
    ));
    report.ledgers.push(setup_ledger);

    // The fill-reducing ordering runs inside each factorization; it is
    // timed alone here (its time is part of direct.factorize_s). The
    // isolated kernels need factors of their own: the prepared system does
    // not lend out its factorizations.
    let (partition, blocks) = decomposition.into_blocks();
    let t = Instant::now();
    for blk in &blocks {
        std::hint::black_box(msplit_sparse::ordering::reverse_cuthill_mckee(&blk.a_sub));
    }
    report.set("ordering.s", t.elapsed().as_secs_f64());
    let solver = cfg.solver_kind.build();
    let factors = blocks
        .iter()
        .map(|blk| solver.factorize(&blk.a_sub))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    kernel_timings(&partition, &blocks, &factors, &pool[0], report)?;
    drop((blocks, factors));
    // The set-up spans and those of the warming solve stay out of the solve
    // ledger below.
    report.spans.extend(trace::drain());

    // Traced solves. A rank's own time is its wall time (`PartReport`)
    // less the transport calls it made; the rest of ranks × wall is thread
    // start and join and assembly.
    let mut budget = 0.0;
    let mut rank_wall = 0.0;
    let mut iterations = 0u64;
    let mut link = (0usize, 0usize);
    let mut own = std::collections::BTreeMap::<&str, f64>::new();
    let mut kept = Vec::new();
    let (traced, its) = solve_loop(report, a, pool, phase, "traced solve", |b| {
        let t = Instant::now();
        let out = trace::span("solve", || traced_solve(&sys, b));
        budget += w.parts as f64 * t.elapsed().as_secs_f64();
        // Fold each solve's spans into per-layer totals; keep the spans of
        // the first solves only, so memory stays flat over a long run.
        let spans = trace::drain();
        for (name, secs) in trace::self_seconds(&spans) {
            *own.entry(name).or_default() += secs;
        }
        if kept.len() < KEPT_SPANS {
            kept.extend(spans);
        }
        out.map(|(o, stats)| {
            iterations += o.iterations;
            rank_wall += o.part_reports.iter().map(|r| r.wall_seconds).sum::<f64>();
            link.0 += stats.total_bytes();
            link.1 += stats.total_messages();
            (o.x, o.converged, o.iterations)
        })
    });
    report.spans.extend(kept);
    let get = |n: &str| own.get(n).copied().unwrap_or(0.0);
    let step = rank_wall - get("comm.send") - get("comm.wait");
    let solve_ledger = Ledger::new("solve (rank-seconds: ranks x wall)", budget, "s")
        .row("comm.send", get("comm.send"))
        .row("comm.wait", get("comm.wait"))
        .row("runtime.step", step);
    report.set(
        "runtime.unattributed_share",
        solve_ledger.unattributed_share(),
    );
    report.set("runtime.step_share", step / budget);
    report.set("comm.wait_share", get("comm.wait") / budget);
    report.ledgers.push(solve_ledger);
    let iters = iterations as f64 / its.len().max(1) as f64;
    report.set("runtime.iterations", iters);
    report.set("runtime.iteration_us", 1e6 * median(&untraced) / iters);
    let per_iteration = |total: usize| total as f64 / iterations.max(1) as f64;
    report.set("comm.bytes_per_iteration", per_iteration(link.0));
    report.set("comm.messages_per_iteration", per_iteration(link.1));
    report.set(
        "comm.roundtrip_inproc_us",
        inproc_roundtrip_us(link.0 / (8 * link.1.max(1))),
    );
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
    );
    drop(sys);

    // Single-thread baseline: the same problem as one Richardson sweep per
    // outer step, run in the calling thread.
    let base = PreparedSystem::prepare(config(w.parts, Method::Richardson { inner_sweeps: 1 }), a)
        .map_err(|e| e.to_string())?;
    let _ = base.solve(&pool[0]).map_err(|e| e.to_string())?;
    let (sweep, sweep_its) = solve_loop(
        report,
        a,
        pool,
        phase,
        "single-thread sweep",
        prepared_solve(&base),
    );
    let sweep_iters = mean(&sweep_its.iter().map(|&i| i as f64).collect::<Vec<_>>());
    report.set("runtime.sweep_solve_s", median(&sweep));
    report.set("runtime.sweep_iterations", sweep_iters);
    report.set(
        "runtime.sweep_iteration_us",
        1e6 * median(&sweep) / sweep_iters,
    );
    report.note(format!(
        "threaded lockstep: median solve {:.6} s, {iters:.1} iterations; single-thread sweep: median solve {:.6} s, {sweep_iters:.1} iterations",
        median(&untraced),
        median(&sweep)
    ));
    Ok(())
}

/// Factorization flops, `nnz(L+U)` and `nnz(A)` summed over the bands
/// (counts computed by the direct layer, identical on every run of a seed).
fn factor_counts(stats: &[FactorStats]) -> (u64, usize, usize) {
    stats.iter().fold((0, 0, 0), |(f, lu, a), s| {
        (f + s.flops, lu + s.factor_nnz(), a + s.nnz_a)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Computed counts (factorization flops and fill, bytes and messages
    /// per iteration) repeat exactly for one seed.
    #[test]
    fn computed_counts_repeat_for_one_seed() {
        let a = generators::cage_like(1200, 7);
        let cfg = config(4, Method::Stationary);
        let b = &rhs_pool(&a, 7, 1)[0];
        let counts = || {
            let sys = PreparedSystem::prepare(cfg.clone(), &a).unwrap();
            let (out, stats) = traced_solve(&sys, b).unwrap();
            check(&a, b, &out.x, out.converged).unwrap();
            let factor_stats: Vec<FactorStats> = out
                .part_reports
                .iter()
                .map(|r| r.factor_stats.clone())
                .collect();
            let per_part: Vec<(usize, usize, u64)> = out
                .part_reports
                .iter()
                .map(|r| {
                    (
                        r.bytes_sent_per_iteration,
                        r.messages_per_iteration,
                        r.flops_per_iteration,
                    )
                })
                .collect();
            (
                factor_counts(&factor_stats),
                out.iterations,
                stats,
                per_part,
            )
        };
        assert_eq!(counts(), counts());
    }

    /// The rank threads the library spawns hand their transport spans over
    /// by the time the solve returns.
    #[test]
    fn traced_solve_collects_the_ranks_transport_spans() {
        let a = generators::cage_like(900, 3);
        let sys = PreparedSystem::prepare(config(3, Method::Stationary), &a).unwrap();
        let b = &rhs_pool(&a, 3, 1)[0];
        trace::set_enabled(true);
        let (out, stats) = traced_solve(&sys, b).unwrap();
        let spans = trace::drain();
        trace::set_enabled(false);
        let sends = spans.iter().filter(|s| s.name == "comm.send").count();
        assert!(out.converged);
        assert!(sends >= stats.total_messages(), "{sends} send spans");
        assert!(spans.iter().any(|s| s.name == "comm.wait"));
    }
}
