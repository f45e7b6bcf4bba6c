//! `serve_mix`: one in-process `SolveServer` serving four matrices, loaded
//! over one TCP connection that speaks the wire protocol directly (one
//! writer, one reader thread), so requests stay in flight on schedule.
//!
//! One matrix gets half the requests and the other three share the rest.
//! An open-loop phase at a fixed rate gives latency timed from when each
//! request was due; a closed-loop phase with a fixed number of requests
//! outstanding gives capacity.

use crate::report::Report;
use crate::rng::Rng;
use crate::solver::{self, RESIDUAL_BOUND};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Ledger};
use crate::Args;
use msplit_comm::wire::{decode_frame, encode_frame, read_frame, write_frame, Handshake};
use msplit_comm::Message;
use msplit_core::{Method, MultisplittingConfig, PreparedSystem};
use msplit_serve::{codec, ServeConfig, SolveServer};
use msplit_sparse::{generators, CsrMatrix};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MATRICES: usize = 4;
const ORDER: usize = 1024;
const PARTS: usize = 2;
/// Open-loop arrival rate, about half of the closed-loop capacity measured
/// on a 2-core host (270–300 req/s).
const OPEN_RATE: f64 = 130.0;
/// Requests outstanding in the closed-loop phase.
const OUTSTANDING: usize = 16;
const SETUP_REPEATS: usize = 9;
/// One request in this many is compared bitwise with a local solve.
const SAMPLE_EVERY: u64 = 8;
/// An open loop is invalid when its generator ran this late (p99) ...
const MAX_LAG_MS: f64 = 20.0;
/// ... or when more than this many requests were still in flight when the
/// schedule ended (the backlog grew).
const MAX_IN_FLIGHT_END: u64 = 32;
/// How long to wait for the last answers of a phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

struct Reply {
    at: Instant,
    msg: Message,
}

/// One serve connection: the caller writes, a reader thread stamps and
/// forwards every frame.
struct Conn {
    stream: TcpStream,
    replies: Receiver<Reply>,
    received: Arc<AtomicU64>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Handshake {
            rank: 0,
            world_size: 0,
            fingerprint: 0,
        }
        .write_to(&mut stream)
        .map_err(|e| e.to_string())?;
        Handshake::read_from(&mut stream).map_err(|e| e.to_string())?;
        let mut read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, replies) = mpsc::channel();
        let received = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&received);
        let reader = std::thread::spawn(move || {
            while let Ok((_, msg)) = read_frame(&mut read_half) {
                let at = Instant::now();
                counter.fetch_add(1, Ordering::SeqCst);
                if tx.send(Reply { at, msg }).is_err() {
                    return;
                }
            }
        });
        Ok(Conn {
            stream,
            replies,
            received,
            reader: Some(reader),
        })
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        write_frame(&mut self.stream, 0, msg).map_err(|e| e.to_string())?;
        self.stream.flush().map_err(|e| e.to_string())
    }

    fn next(&self) -> Result<Reply, String> {
        self.replies
            .recv_timeout(DRAIN_TIMEOUT)
            .map_err(|e| format!("no answer from the server: {e}"))
    }

    fn close(mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

struct Setup {
    matrices: Vec<CsrMatrix>,
    config: MultisplittingConfig,
    config_blob: Vec<u8>,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let config = solver::config(PARTS, Method::Stationary);
        Setup {
            matrices: (0..MATRICES as u64)
                .map(|i| {
                    generators::cage_like(ORDER, seed.wrapping_mul(MATRICES as u64).wrapping_add(i))
                })
                .collect(),
            config_blob: codec::encode_config(&config),
            config,
        }
    }

    fn submit(&self, request_id: u64, m: usize, rhs: Vec<f64>, with_matrix: bool) -> Message {
        let a = &self.matrices[m];
        Message::SubmitSolve {
            request_id,
            fingerprint: a.fingerprint(),
            priority: 1,
            queue_deadline_micros: 0,
            config: self.config_blob.clone(),
            matrix: if with_matrix {
                codec::encode_matrix(a)
            } else {
                Vec::new()
            },
            rhs,
        }
    }
}

/// Starts a shard and warms every matrix; returns the shard, the warmed
/// connection and the seconds from start to the last warm answer.
fn start_warm(setup: &Setup) -> Result<(SolveServer, Conn, f64), String> {
    let t = Instant::now();
    let server =
        SolveServer::start("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut conn = Conn::open(server.local_addr())?;
    for m in 0..MATRICES {
        conn.send(&setup.submit(m as u64 + 1, m, Vec::new(), true))?;
    }
    for _ in 0..MATRICES {
        match conn.next()?.msg {
            Message::SolveResult { .. } => {}
            other => return Err(format!("warm request answered with {other:?}")),
        }
    }
    Ok((server, conn, t.elapsed().as_secs_f64()))
}

/// Which matrix request `id` targets and its right-hand side, both derived
/// from the seed and the id alone (so checks can rebuild them).
fn request(seed: u64, id: u64) -> (usize, Vec<f64>) {
    let mut rng = Rng::new(seed, id);
    let m = if rng.unit() < 0.5 {
        0
    } else {
        1 + (rng.next_u64() % 3) as usize
    };
    (m, rng.vector(ORDER))
}

#[derive(Clone)]
struct Sent {
    id: u64,
    due: Instant,
    sent: Instant,
    written: Instant,
}

struct Answer {
    sent: Sent,
    at: Instant,
    /// `None` for a refused request.
    result: Option<(u64, u64, Vec<f64>)>,
    reject: String,
}

impl Answer {
    fn latency_ms(&self) -> f64 {
        match self.result {
            Some(_) => 1e3 * (self.at - self.sent.due).as_secs_f64(),
            None => f64::INFINITY,
        }
    }
    fn queue_ms(&self) -> f64 {
        self.result.as_ref().map_or(0.0, |r| r.1 as f64 / 1e3)
    }
}

fn match_reply(outstanding: &mut Vec<Sent>, reply: Reply) -> Result<Answer, String> {
    let (id, result, reject) = match reply.msg {
        Message::SolveResult {
            request_id,
            coalesced,
            queue_micros,
            x,
            ..
        } => (
            request_id,
            Some((coalesced, queue_micros, x)),
            String::new(),
        ),
        Message::Reject {
            request_id,
            code,
            detail,
            ..
        } => (request_id, None, format!("{code:?}: {detail}")),
        other => return Err(format!("unexpected frame {other:?}")),
    };
    let pos = outstanding
        .iter()
        .position(|s| s.id == id)
        .ok_or_else(|| format!("answer for unknown request {id}"))?;
    Ok(Answer {
        sent: outstanding.swap_remove(pos),
        at: reply.at,
        result,
        reject,
    })
}

struct OpenLoop {
    answers: Vec<Answer>,
    lags_ms: Vec<f64>,
    in_flight_end: u64,
}

fn open_loop(
    setup: &Setup,
    conn: &mut Conn,
    seed: u64,
    first_id: u64,
    duration: Duration,
) -> Result<OpenLoop, String> {
    let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let base_received = conn.received.load(Ordering::SeqCst);
    let mut outstanding = Vec::new();
    let mut lags_ms = Vec::new();
    let mut k = 0u32;
    loop {
        let due = start + gap * k;
        if due >= start + duration {
            break;
        }
        let id = first_id + k as u64;
        let (m, rhs) = request(seed, id);
        let msg = setup.submit(id, m, rhs, false);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        trace::span_req("comm.frame_write", id, || conn.send(&msg))?;
        outstanding.push(Sent {
            id,
            due,
            sent,
            written: Instant::now(),
        });
        lags_ms.push(1e3 * (sent - due).as_secs_f64());
        k += 1;
    }
    let in_flight_end = k as u64 - (conn.received.load(Ordering::SeqCst) - base_received);
    let mut answers = Vec::with_capacity(k as usize);
    while !outstanding.is_empty() {
        answers.push(match_reply(&mut outstanding, conn.next()?)?);
    }
    Ok(OpenLoop {
        answers,
        lags_ms,
        in_flight_end,
    })
}

struct ClosedLoop {
    answers: Vec<Answer>,
    completions_per_s: f64,
}

fn closed_loop(
    setup: &Setup,
    conn: &mut Conn,
    seed: u64,
    first_id: u64,
    duration: Duration,
) -> Result<ClosedLoop, String> {
    let start = Instant::now();
    let end = start + duration;
    let mut outstanding = Vec::new();
    let mut answers = Vec::new();
    let mut next_id = first_id;
    let mut send_one = |conn: &mut Conn, outstanding: &mut Vec<Sent>| -> Result<(), String> {
        let (m, rhs) = request(seed, next_id);
        let msg = setup.submit(next_id, m, rhs, false);
        let sent = Instant::now();
        conn.send(&msg)?;
        outstanding.push(Sent {
            id: next_id,
            due: sent,
            sent,
            written: Instant::now(),
        });
        next_id += 1;
        Ok(())
    };
    for _ in 0..OUTSTANDING {
        send_one(conn, &mut outstanding)?;
    }
    let mut completed = 0u64;
    while !outstanding.is_empty() {
        let answer = match_reply(&mut outstanding, conn.next()?)?;
        if answer.at <= end {
            // A refusal frees its slot but is not a completion.
            completed += u64::from(answer.result.is_some());
            if Instant::now() < end {
                send_one(conn, &mut outstanding)?;
            }
        }
        answers.push(answer);
    }
    Ok(ClosedLoop {
        answers,
        completions_per_s: completed as f64 / duration.as_secs_f64(),
    })
}

/// Checks every answer: refused requests fail; every solution must meet
/// the residual bound; a seeded sample must equal a local
/// `PreparedSystem::solve` bitwise (the serve contract). Returns the local
/// solve times of the sample, in ms.
fn check_answers(
    report: &mut Report,
    setup: &Setup,
    local: &[PreparedSystem],
    seed: u64,
    answers: &[Answer],
    label: &str,
) -> Vec<f64> {
    let mut local_ms = Vec::new();
    let mut worst = 0.0f64;
    for ans in answers {
        report.attempted += 1;
        let id = ans.sent.id;
        let Some((_, _, x)) = &ans.result else {
            report.fail(format!("{label} request {id} refused: {}", ans.reject));
            continue;
        };
        let (m, b) = request(seed, id);
        let a = &setup.matrices[m];
        let rel = solver::relative_residual(a, &b, x);
        worst = worst.max(rel);
        if rel.is_nan() || rel >= RESIDUAL_BOUND {
            report.fail(format!("{label} request {id}: relative residual {rel:.3e}"));
            continue;
        }
        if id % SAMPLE_EVERY == seed % SAMPLE_EVERY {
            let t = Instant::now();
            match local[m].solve(&b) {
                Ok(reference) => {
                    local_ms.push(1e3 * t.elapsed().as_secs_f64());
                    if !reference.converged
                        || reference.x.len() != x.len()
                        || reference
                            .x
                            .iter()
                            .zip(x)
                            .any(|(p, q)| p.to_bits() != q.to_bits())
                    {
                        report.fail(format!(
                            "{label} request {id}: answer differs from a local solve"
                        ));
                    }
                }
                Err(e) => report.fail(format!("{label} request {id}: local solve failed: {e}")),
            }
        }
    }
    report.note(format!(
        "{label}: {} answers, worst relative residual {worst:.3e}, {} compared bitwise",
        answers.len(),
        local_ms.len()
    ));
    local_ms
}

fn judge_open_loop(report: &mut Report, ol: &OpenLoop, label: &str) {
    let lag_p99 = percentile(&ol.lags_ms, 0.99);
    report.note(format!(
        "{label}: {} requests at {OPEN_RATE} req/s, generator lag p99 {lag_p99:.3} ms (max {:.3} ms), {} in flight when the schedule ended",
        ol.answers.len(),
        ol.lags_ms.iter().copied().fold(0.0, f64::max),
        ol.in_flight_end
    ));
    let (worst_lag, worst_in_flight) = report.open_loop.unwrap_or((0.0, 0));
    report.open_loop = Some((
        worst_lag.max(lag_p99),
        worst_in_flight.max(ol.in_flight_end),
    ));
    if lag_p99 > MAX_LAG_MS {
        report.invalidate(format!(
            "{label}: generator lag p99 {lag_p99:.1} ms > {MAX_LAG_MS} ms"
        ));
    }
    if ol.in_flight_end > MAX_IN_FLIGHT_END {
        report.invalidate(format!(
            "{label}: {} in flight at the end of the schedule > {MAX_IN_FLIGHT_END}",
            ol.in_flight_end
        ));
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let setup = Setup::new(args.seed);
    let mut report = Report::new();
    report.note(format!(
        "serve_mix: {MATRICES} cage_like({ORDER}) matrices in {PARTS} bands, ServeConfig::default(), one connection"
    ));
    let local: Vec<PreparedSystem> = setup
        .matrices
        .iter()
        .map(|a| PreparedSystem::prepare(setup.config.clone(), a).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, conn)) = live.take() {
            shutdown(server, conn);
        }
        let (server, conn, secs) = start_warm(&setup)?;
        setups.push(secs);
        live = Some((server, conn));
    }
    let (server, mut conn) = live.expect("at least one setup");
    let result = if args.trace {
        traced_phases(args, &setup, &local, &mut conn, &mut report)
    } else {
        untraced_phases(args, &setup, &local, &mut conn, &mut report, &setups)
    };
    shutdown(server, conn);
    result.map(|()| report)
}

fn shutdown(server: SolveServer, conn: Conn) {
    conn.close();
    server.shutdown();
}

fn untraced_phases(
    args: &Args,
    setup: &Setup,
    local: &[PreparedSystem],
    conn: &mut Conn,
    report: &mut Report,
    setups: &[f64],
) -> Result<(), String> {
    // The open loop's tail needs more samples than the closed loop's rate.
    let ol = open_loop(setup, conn, args.seed, 1_000, args.seconds.mul_f64(0.6))?;
    let cl = closed_loop(setup, conn, args.seed, 1_000_000, args.seconds.mul_f64(0.4))?;
    judge_open_loop(report, &ol, "open loop");
    check_answers(report, setup, local, args.seed, &ol.answers, "open loop");
    check_answers(report, setup, local, args.seed, &cl.answers, "closed loop");

    let latency: Vec<f64> = ol.answers.iter().map(Answer::latency_ms).collect();
    let rtt: Vec<f64> = cl
        .answers
        .iter()
        .filter(|a| a.result.is_some())
        .map(|a| (a.at - a.sent.sent).as_secs_f64())
        .collect();
    report.set("setup_s", median(setups));
    // Computed from the local prepares the bitwise checks use, not read from
    // the server: it cannot move with a change to the serve engine.
    report.set(
        "memory_mb",
        local.iter().map(|s| s.memory_bytes()).sum::<usize>() as f64 / 1e6,
    );
    report.set("latency_p50_ms", median(&latency));
    report.set("latency_p90_ms", percentile(&latency, 0.9));
    report.set("capacity_rps", cl.completions_per_s);
    report.set("solve_s", median(&rtt));
    report.set("solve_p90_s", percentile(&rtt, 0.9));
    Ok(())
}

fn traced_phases(
    args: &Args,
    setup: &Setup,
    local: &[PreparedSystem],
    conn: &mut Conn,
    report: &mut Report,
) -> Result<(), String> {
    let third = args.seconds / 3;
    // The same open loop untraced, then traced, for the overhead.
    trace::set_enabled(false);
    let plain = open_loop(setup, conn, args.seed, 1_000, third)?;
    trace::set_enabled(true);
    let ol = open_loop(setup, conn, args.seed, 500_000, third)?;
    let cl = closed_loop(setup, conn, args.seed, 1_000_000, third)?;
    judge_open_loop(report, &plain, "untraced open loop");
    judge_open_loop(report, &ol, "traced open loop");
    check_answers(
        report,
        setup,
        local,
        args.seed,
        &plain.answers,
        "untraced open loop",
    );
    let local_ms = check_answers(
        report,
        setup,
        local,
        args.seed,
        &ol.answers,
        "traced open loop",
    );
    check_answers(report, setup, local, args.seed, &cl.answers, "closed loop");

    // Per-request spans on the client's timeline: the request from due to
    // answer, the generator's lateness, the frame write (recorded live) and
    // the server-reported queue wait placed after the write.
    for ans in ol.answers.iter().filter(|a| a.result.is_some()) {
        let s = &ans.sent;
        let root = trace::record(
            "request",
            trace::instant_ns(s.due),
            trace::instant_ns(ans.at),
            u32::MAX,
            s.id,
        );
        trace::record(
            "bench.generator_lag",
            trace::instant_ns(s.due),
            trace::instant_ns(s.sent),
            root,
            s.id,
        );
        let queued = trace::instant_ns(s.written);
        trace::record(
            "serve.queue",
            queued,
            queued + (ans.queue_ms() * 1e6) as u64,
            root,
            s.id,
        );
    }

    let ok: Vec<&Answer> = ol.answers.iter().filter(|a| a.result.is_some()).collect();
    let ms = |f: &dyn Fn(&Answer) -> f64| ok.iter().map(|a| f(a)).collect::<Vec<f64>>();
    let latency = ms(&|a| a.latency_ms());
    let lag = ms(&|a| 1e3 * (a.sent.sent - a.sent.due).as_secs_f64());
    let write = ms(&|a| 1e3 * (a.sent.written - a.sent.sent).as_secs_f64());
    let queue = ms(&|a| a.queue_ms());
    let service = ms(&|a| 1e3 * (a.at - a.sent.written).as_secs_f64() - a.queue_ms());
    let ledger = Ledger::new(
        "open-loop request (mean over answers)",
        mean(&latency),
        "ms",
    )
    .row("bench.generator_lag", mean(&lag))
    .row("comm.frame_write", mean(&write))
    .row("serve.queue (server-reported)", mean(&queue))
    .row("serve.sweep (local solve, same rhs)", mean(&local_ms));
    report.set("serve.unattributed_share", ledger.unattributed_share());
    report.ledgers.push(ledger);

    report.set("serve.queue_wait_ms", median(&queue));
    report.set("serve.service_ms", median(&service));
    report.set("serve.local_solve_ms", median(&local_ms));
    let batches: Vec<f64> = cl
        .answers
        .iter()
        .filter_map(|a| a.result.as_ref().map(|r| r.0 as f64))
        .collect();
    report.set("serve.mean_batch", mean(&batches));
    let rejected = [&plain.answers, &ol.answers, &cl.answers]
        .iter()
        .flat_map(|v| v.iter())
        .filter(|a| a.result.is_none())
        .count();
    report.set("serve.rejected", rejected as f64);
    report.set("bench.generator_lag_ms", percentile(&lag, 0.99));
    report.set("bench.in_flight_end", ol.in_flight_end as f64);
    let plain_latency: Vec<f64> = plain.answers.iter().map(Answer::latency_ms).collect();
    report.set(
        "bench.trace_overhead_pct",
        100.0 * (median(&latency) / median(&plain_latency) - 1.0),
    );

    // Isolated codec costs: the matrix blob both ways, and one request
    // frame both ways.
    let a = &setup.matrices[0];
    let reps = 50;
    let t = Instant::now();
    for _ in 0..reps {
        let blob = codec::encode_matrix(std::hint::black_box(a));
        std::hint::black_box(codec::decode_matrix(&blob).map_err(|e| e.to_string())?);
    }
    report.set(
        "serve.codec_matrix_us",
        t.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
    let msg = setup.submit(1, 0, request(args.seed, 1).1, false);
    let reps = 2000;
    let t = Instant::now();
    for _ in 0..reps {
        let frame = encode_frame(0, std::hint::black_box(&msg));
        std::hint::black_box(decode_frame(&frame).map_err(|e| e.to_string())?);
    }
    report.set(
        "serve.frame_us",
        t.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
    Ok(())
}
