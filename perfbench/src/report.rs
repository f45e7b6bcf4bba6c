//! What one run reports: metrics, failures, ledgers and the run record.

use crate::trace::{self, Ledger, Span};
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// End-to-end metrics, printed by every untraced run (`BENCHMARK.json`
/// lists the same names, units and bounds).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_p90_s", "s"),
    ("memory_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("capacity_rps", "req/s"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decomposition.s", "s"),
    ("ordering.s", "s"),
    ("direct.factorize_s", "s"),
    ("direct.factorize_max_s", "s"),
    ("direct.flops", "count"),
    ("direct.fill_ratio", "ratio"),
    ("direct.gflops", "GFlop/s"),
    ("direct.trsv_us", "us"),
    ("runtime.bloc_us", "us"),
    ("runtime.iterations", "count"),
    ("runtime.iteration_us", "us"),
    ("runtime.sweep_iterations", "count"),
    ("runtime.sweep_iteration_us", "us"),
    ("runtime.sweep_solve_s", "s"),
    ("runtime.step_share", "fraction"),
    ("runtime.unattributed_share", "fraction"),
    ("setup.unattributed_share", "fraction"),
    ("comm.bytes_per_iteration", "bytes"),
    ("comm.messages_per_iteration", "count"),
    ("comm.wait_share", "fraction"),
    ("comm.roundtrip_inproc_us", "us"),
    ("comm.roundtrip_tcp_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.local_solve_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.rejected", "count"),
    ("serve.codec_matrix_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.unattributed_share", "fraction"),
    ("launcher.ship_s", "s"),
    ("launcher.rank_loop_s", "s"),
    ("launcher.overhead_s", "s"),
    ("launcher.unattributed_share", "fraction"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.in_flight_end", "count"),
    ("bench.trace_overhead_pct", "%"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Solves or requests attempted, and the ones that failed (not
    /// converged, check failed, rejected, transport error).
    pub attempted: u64,
    pub failures: Vec<String>,
    pub ledgers: Vec<Ledger>,
    /// Spans kept for the run files.
    pub spans: Vec<Span>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Open-loop health: generator lag p99 (ms) and requests in flight when
    /// the schedule ended, worst over the run's open-loop phases.
    pub open_loop: Option<(f64, u64)>,
    pub valid: bool,
    pub invalid_reason: String,
}

impl Report {
    pub fn new() -> Self {
        Report {
            valid: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn invalidate(&mut self, reason: String) {
        self.valid = false;
        if !self.invalid_reason.is_empty() {
            self.invalid_reason.push_str("; ");
        }
        self.invalid_reason.push_str(&reason);
    }

    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    fn record_json(&self, args: &Args) -> String {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"commit\":{},\"source_digest\":{},\"generator_lag_p99_ms\":{},\"in_flight_end\":{},\"valid\":{},\"invalid_reason\":{},\"attempted\":{},\"failed\":{},\"error_rate\":{}}}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            args.trace,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            json_str(&cpu_model()),
            json_str(&env("PERFBENCH_COMMIT")),
            json_str(&env("PERFBENCH_SOURCE_DIGEST")),
            self.open_loop.map_or("null".to_string(), |(lag, _)| json_num(lag)),
            self.open_loop.map_or("null".to_string(), |(_, n)| n.to_string()),
            self.valid,
            json_str(&self.invalid_reason),
            self.attempted,
            self.failures.len(),
            self.error_rate(),
        )
    }

    pub fn print_human(&self, args: &Args) {
        println!("RECORD {}", self.record_json(args));
        for line in &self.notes {
            println!("NOTE {line}");
        }
        for f in &self.failures {
            println!("FAILURE {f}");
        }
        for ledger in &self.ledgers {
            ledger.print();
        }
        for (name, value) in &self.metrics {
            println!("METRIC {name} = {value:.6} {}", unit_of(name));
        }
        println!("METRIC error_rate = {:.6} fraction", self.error_rate());
    }

    /// The final stdout line: every metric of the run's kind, by name.
    pub fn result_json(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(",")
        )
    }

    pub fn write_files(&self, dir: &Path, args: &Args) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let mut rec = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{stem}.record.json")),
        )?);
        writeln!(rec, "{}", self.record_json(args))?;
        writeln!(rec, "{}", self.result_json_lenient())?;
        rec.flush()?;
        if args.trace {
            trace::write_spans(&dir.join(format!("{stem}.spans.jsonl")), &self.spans)?;
        }
        Ok(())
    }

    /// All measured metrics, whatever their kind (for the run files).
    fn result_json_lenient(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// JSON has no infinity: a refused request's infinite latency is written as
/// the largest finite double, which no real latency reaches.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string())
}
