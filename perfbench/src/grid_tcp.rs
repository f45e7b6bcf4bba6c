//! `grid_tcp`: `Launcher::solve` with two `msplit-worker` processes joined
//! over TCP loopback — the only workload through the launcher, the TCP
//! transport and `distributed::run_rank`.

use crate::report::Report;
use crate::solver;
use crate::stats::{mean, median};
use crate::trace::{self, Ledger};
use crate::Args;
use msplit_comm::transport::Transport;
use msplit_comm::{LoopbackMesh, Message, TcpOptions};
use msplit_core::launcher::load_rank_result;
use msplit_core::{Launcher, LauncherConfig, Method, MultisplittingConfig, PreparedSystem};
use msplit_sparse::generators::{self, ConvectionDiffusionConfig};
use msplit_sparse::CsrMatrix;
use std::path::Path;
use std::time::{Duration, Instant};

const MESH: usize = 96;
const PARTS: usize = 2;
/// `setup_s` is the median of `SHIPS` `prepare_job` calls (about 20 ms
/// each) before each of `SETUP_ROUNDS` slices of the solve loop.
const SETUP_ROUNDS: u32 = 20;
const SHIPS: usize = 5;

fn launcher(job_root: &Path, keep_job_dir: bool) -> Launcher {
    Launcher::new(LauncherConfig {
        job_root: Some(job_root.to_path_buf()),
        keep_job_dir,
        timeout: Duration::from_secs(120),
        peer_timeout: Duration::from_secs(30),
        ..Default::default()
    })
}

/// Times `count` calls of `Launcher::prepare_job` (writing the system and
/// the job description for the workers) into `times`.
fn ship_times(
    l: &Launcher,
    a: &CsrMatrix,
    b: &[f64],
    cfg: &MultisplittingConfig,
    root: &Path,
    count: usize,
    times: &mut Vec<f64>,
) -> Result<(), String> {
    for i in 0..count {
        let dir = root.join(format!("ship-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        l.prepare_job(a, b, cfg, &dir).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let a = generators::convection_diffusion(&ConvectionDiffusionConfig {
        k: MESH,
        seed: args.seed,
        ..Default::default()
    });
    let pool = solver::rhs_pool(&a, args.seed, 4);
    let cfg = solver::config(PARTS, Method::Stationary);
    let root = args.out.join("jobs");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let mut report = Report::new();
    report.note(format!(
        "grid_tcp: convection_diffusion {MESH}x{MESH} (n = {}), {PARTS} worker processes over TCP loopback",
        a.rows()
    ));
    let result = if args.trace {
        traced(args, &a, &pool, &cfg, &root, &mut report)
    } else {
        untraced(args, &a, &pool, &cfg, &root, &mut report)
    };
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| report)
}

fn launcher_solve<'a>(
    l: &'a Launcher,
    a: &'a CsrMatrix,
    cfg: &'a MultisplittingConfig,
) -> impl FnMut(&[f64]) -> solver::SolveResult + 'a {
    move |b| {
        let o = l.solve(a, b, cfg).map_err(|e| e.to_string())?;
        let its = o.iterations();
        Ok((o.x, o.converged, its))
    }
}

fn untraced(
    args: &Args,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    cfg: &MultisplittingConfig,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let l = launcher(root, false);
    // What the two ranks hold (their blocks and factors), computed by an
    // in-process prepare of the same decomposition: it is not read from the
    // workers, so it cannot move with a change to the launcher or the ranks.
    let sys = PreparedSystem::prepare(cfg.clone(), a).map_err(|e| e.to_string())?;
    report.set("memory_mb", sys.memory_bytes() as f64 / 1e6);
    drop(sys);
    // The first spawn pays for loading the worker binary.
    l.solve(a, &pool[0], cfg).map_err(|e| e.to_string())?;
    let mut ships = Vec::new();
    let (times, its) = solver::solve_loop_between(
        report,
        a,
        pool,
        args.seconds,
        "launcher solve",
        SETUP_ROUNDS,
        || ship_times(&l, a, &pool[0], cfg, root, SHIPS, &mut ships),
        launcher_solve(&l, a, cfg),
    )?;
    report.set("setup_s", median(&ships));
    report.note(format!(
        "launcher solve: {} iterations",
        its.last().copied().unwrap_or(0)
    ));
    solver::set_solve_metrics(report, &times);
    Ok(())
}

/// Ping-pong of a halo-sized message over a two-rank TCP loopback mesh.
fn tcp_roundtrip_us(values: usize) -> Result<f64, String> {
    let mesh = LoopbackMesh::new(2, TcpOptions::default()).map_err(|e| e.to_string())?;
    let (p0, p1) = (mesh.endpoint(0), mesh.endpoint(1));
    let msg = Message::Solution {
        from: 0,
        iteration: 1,
        offset: 0,
        values: vec![0.5; values],
    };
    let reps = 500;
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..reps {
                let m = p1.recv(1).expect("ping");
                p1.send(1, 0, m).expect("pong");
            }
        });
        let t = Instant::now();
        for _ in 0..reps {
            p0.send(0, 1, msg.clone()).map_err(|e| e.to_string())?;
            p0.recv(0).map_err(|e| e.to_string())?;
        }
        Ok(t.elapsed().as_secs_f64() * 1e6 / reps as f64)
    })
}

fn traced(
    args: &Args,
    a: &CsrMatrix,
    pool: &[Vec<f64>],
    cfg: &MultisplittingConfig,
    root: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let half = args.seconds / 2;
    let plain = launcher(root, false);
    plain.solve(a, &pool[0], cfg).map_err(|e| e.to_string())?;
    let (untraced, _) = solver::solve_loop(
        report,
        a,
        pool,
        half,
        "untraced launcher solve",
        launcher_solve(&plain, a, cfg),
    );

    // Traced solves keep their job directory, so the ranks' own run
    // records (RankMeta) can be read back; reading them is part of the
    // traced time.
    let kept_root = root.join("kept");
    let kept = launcher(&kept_root, true);
    // (launcher wall spawn → gather, slowest rank's loop) per solve.
    let mut rank_loop = Vec::new();
    let traced_solve = |b: &[f64]| -> solver::SolveResult {
        std::fs::create_dir_all(&kept_root).map_err(|e| e.to_string())?;
        let o = kept.solve(a, b, cfg).map_err(|e| e.to_string())?;
        let dir = std::fs::read_dir(&kept_root)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .next()
            .ok_or("the launcher kept no job directory")?;
        let mut slowest = 0.0f64;
        for rank in 0..PARTS {
            let (meta, _) = load_rank_result(&dir, rank).map_err(|e| e.to_string())?;
            slowest = slowest.max(meta.wall_seconds);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        let end = trace::now_ns();
        let start = end.saturating_sub((o.wall_seconds * 1e9) as u64);
        let root_span = trace::record("launcher.solve", start, end, u32::MAX, 0);
        let loop_start = end.saturating_sub((slowest * 1e9) as u64);
        trace::record("launcher.rank_loop", loop_start, end, root_span, 0);
        rank_loop.push((o.wall_seconds, slowest));
        let its = o.iterations();
        Ok((o.x, o.converged, its))
    };
    let (traced, iterations) =
        solver::solve_loop(report, a, pool, half, "traced launcher solve", traced_solve);
    let mut ships = Vec::new();
    ship_times(&plain, a, &pool[0], cfg, root, 15, &mut ships)?;
    let ship = median(&ships);
    let walls: Vec<f64> = rank_loop.iter().map(|r| r.0).collect();
    let loops: Vec<f64> = rank_loop.iter().map(|r| r.1).collect();
    let ledger = Ledger::new("launcher solve (mean)", mean(&walls), "s")
        .row("launcher.ship (prepare_job, isolated)", ship)
        .row("launcher.rank_loop (slowest rank)", mean(&loops));
    report.set("launcher.unattributed_share", ledger.unattributed_share());
    report.ledgers.push(ledger);
    report.set("launcher.ship_s", ship);
    report.set("launcher.rank_loop_s", median(&loops));
    report.set(
        "launcher.overhead_s",
        median(&rank_loop.iter().map(|r| r.0 - r.1).collect::<Vec<_>>()),
    );
    report.set(
        "runtime.iterations",
        iterations.last().copied().unwrap_or(0) as f64,
    );
    report.set("comm.roundtrip_tcp_us", tcp_roundtrip_us(MESH)?);
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
    );
    Ok(())
}
