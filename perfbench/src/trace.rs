//! In-memory span recording for the traced run, and the ledgers built from
//! the spans.
//!
//! A span is recorded around a call into one layer's public function. Each
//! thread records into its own buffer (no lock on the hot path); the buffer
//! is moved into the shared store when the thread ends, or by [`drain`] for
//! the calling thread. Threads the library spawns and joins (the ranks of a
//! threaded solve) therefore hand their spans over by the time it returns.
//! Nothing is recorded while recording is off ([`set_enabled`]), so the untraced run pays
//! one relaxed atomic load per instrumented call.

use msplit_comm::transport::Transport;
use msplit_comm::{CommError, Message};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    pub end: u64,
    /// Process-wide span id, and the id of the enclosing span on the same
    /// thread (`u32::MAX` for a root).
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    /// Request id for serve spans, 0 elsewhere.
    pub request: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<Span>> {
    static STORE: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadBuf {
    thread: u32,
    spans: Vec<Span>,
    /// Ids of the spans currently open on this thread, innermost last.
    open: Vec<u32>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut store) = store().lock() {
                store.append(&mut self.spans);
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an `Instant` taken by the caller to trace time.
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_req(name, 0, f)
}

/// [`span`] carrying a request id.
pub fn span_req<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = now_ns();
    BUF.with(|b| b.borrow_mut().open.push(id));
    let out = f();
    let end = now_ns();
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.open.pop();
        let parent = b.open.last().copied().unwrap_or(u32::MAX);
        let thread = b.thread;
        b.spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            thread,
            request,
        });
    });
    out
}

/// Records an interval measured by the caller (for example a server-reported
/// queue wait placed on the client's timeline) as a child of `parent`.
pub fn record(name: &'static str, start: u64, end: u64, parent: u32, request: u64) -> u32 {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if enabled() {
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            let thread = b.thread;
            b.spans.push(Span {
                name,
                start,
                end: end.max(start),
                id,
                parent,
                thread,
                request,
            });
        });
    }
    id
}

/// Moves this thread's spans into the shared store.
fn flush_thread() {
    if !enabled() {
        return;
    }
    let spans = BUF.with(|b| std::mem::take(&mut b.borrow_mut().spans));
    store()
        .lock()
        .expect("a thread panicked while flushing spans")
        .extend(spans);
}

/// Takes every flushed span out of the store (the caller's own thread is
/// flushed first).
pub fn drain() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *store().lock().expect("span store poisoned"))
}

/// Self time per span name: duration minus the part covered by direct
/// children (children of one span never overlap: they run on its thread).
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != u32::MAX {
            *child_time.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = child_time.get(&s.id).copied().unwrap_or(0);
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// A ledger: named rows that add up to a total, the remainder being the
/// `unattributed` row.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub title: String,
    pub total: f64,
    pub unit: &'static str,
    pub rows: Vec<(String, f64)>,
}

impl Ledger {
    pub fn new(title: impl Into<String>, total: f64, unit: &'static str) -> Self {
        Ledger {
            title: title.into(),
            total,
            unit,
            rows: Vec::new(),
        }
    }

    pub fn row(mut self, name: &str, value: f64) -> Self {
        self.rows.push((name.to_string(), value));
        self
    }

    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.total > 0.0 {
            self.unattributed() / self.total
        } else {
            0.0
        }
    }

    pub fn print(&self) {
        println!(
            "LEDGER {} (total {:.6} {})",
            self.title, self.total, self.unit
        );
        for (name, v) in self
            .rows
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .chain([("unattributed", self.unattributed())])
        {
            let share = if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                0.0
            };
            println!("  {name:<28} {v:>14.6} {}  {share:>6.2}%", self.unit);
        }
    }
}

/// Writes the spans as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"thread\":{},\"request\":{}}}",
            s.name,
            s.start,
            s.end,
            s.id,
            if s.parent == u32::MAX { -1 } else { s.parent as i64 },
            s.thread,
            s.request
        )?;
    }
    out.flush()
}

/// A transport that records a span around every call into the wrapped
/// transport: `comm.send` for sends, `comm.wait` for receives (which
/// includes the time a rank waits for its peers).
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(TracedTransport { inner })
    }
}

impl Transport for TracedTransport {
    fn num_ranks(&self) -> usize {
        self.inner.num_ranks()
    }

    fn send(&self, from: usize, to: usize, msg: Message) -> Result<(), CommError> {
        span("comm.send", || self.inner.send(from, to, msg))
    }

    fn recv(&self, rank: usize) -> Result<Message, CommError> {
        span("comm.wait", || self.inner.recv(rank))
    }

    fn try_recv(&self, rank: usize) -> Result<Option<Message>, CommError> {
        span("comm.wait", || self.inner.try_recv(rank))
    }

    fn recv_timeout(&self, rank: usize, timeout: Duration) -> Result<Message, CommError> {
        span("comm.wait", || self.inner.recv_timeout(rank, timeout))
    }
}
