//! Measurement probes that sit outside the engine: an in-memory span log,
//! a timing wrapper around an application, a timing wrapper around a
//! result store, and process CPU-time and peak-memory readers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use epa_core::engine::{FaultKey, RunDigest};
use epa_core::store::ResultStore;
use epa_sandbox::app::Application;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;

/// One closed span: a named interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within its tracer (never 0).
    pub id: u64,
    /// Layer call the span covers (`analysis.classify`, `run.inject`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Enclosing span's id, 0 for a batch root.
    pub parent: u64,
    /// The batch the span belongs to.
    pub batch: u64,
    /// Operations the span covers (a timed loop of `ops` calls), or the
    /// work size it processed (audit events for `oracle.evaluate`).
    pub ops: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log shared by the calling thread and pool workers.
/// Spans are kept until [`Tracer::to_json_lines`] writes them out.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// The span new store spans attach to (the batch root on the pooled
    /// path, the current planner call on the decomposed path).
    current: AtomicU64,
    batch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            batch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a closed span with a pre-allocated id.
    pub fn close(&self, id: u64, name: &'static str, start: Instant, end: Instant, parent: u64, ops: u64) {
        let span = Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            batch: self.batch.load(Ordering::Relaxed),
            ops,
        };
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).push(span);
    }

    /// Times `f` as a span named `name` under `parent`, returning its
    /// result.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.close(id, name, start, Instant::now(), parent, 1);
        out
    }

    /// Sets the batch id recorded on new spans.
    pub fn set_batch(&self, batch: u64) {
        self.batch.store(batch, Ordering::Relaxed);
    }

    /// Sets the span store operations attach to.
    pub fn set_current(&self, span: u64) {
        self.current.store(span, Ordering::Relaxed);
    }

    /// The span store operations attach to.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Number of spans recorded.
    pub(crate) fn len(&self) -> usize {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// The spans of batch `from_batch` and later batches, one JSON object
    /// per line.
    pub fn to_json_lines(&self, phase: &str, from_batch: u64) -> String {
        let mut out = String::new();
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        for s in spans.iter().filter(|s| s.batch >= from_batch) {
            let _ = writeln!(
                out,
                "{{\"phase\": \"{phase}\", \"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"batch\": {}, \"ops\": {}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.batch, s.ops
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once). Returned
/// in the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-application counters a [`TimedApp`] keeps.
#[derive(Debug, Default)]
pub struct AppCounters {
    /// `Application::run` calls (clean runs included).
    pub calls: AtomicU64,
    /// Start and end of the most recent call (meaningful on the
    /// sequential decomposed path only).
    last: Mutex<Option<(Instant, Instant)>>,
}

impl AppCounters {
    /// The interval of the most recent `Application::run` call.
    pub fn last_call(&self) -> Option<(Instant, Instant)> {
        *self.last.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An application wrapper that counts and times `Application::run`.
/// It reports the wrapped application's name, so memoization scopes and
/// store keys are those of the unwrapped application.
pub struct TimedApp<A> {
    inner: A,
    counters: Arc<AppCounters>,
}

impl<A: Application> TimedApp<A> {
    /// Wraps `inner`, returning the wrapper and its counters.
    pub fn new(inner: A) -> (TimedApp<A>, Arc<AppCounters>) {
        let counters = Arc::new(AppCounters::default());
        (
            TimedApp {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<A: Application> Application for TimedApp<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let start = Instant::now();
        let code = self.inner.run(os, pid);
        let end = Instant::now();
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        *self.counters.last.lock().unwrap_or_else(PoisonError::into_inner) = Some((start, end));
        code
    }
}

/// Counters of a [`TimedStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `load` calls.
    pub loads: u64,
    /// `load` calls that returned a digest.
    pub hits: u64,
    /// `save` calls.
    pub saves: u64,
}

/// A [`ResultStore`] wrapper that counts and times every load and save
/// of the store it wraps, recording each as a span.
pub struct TimedStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    loads: AtomicU64,
    hits: AtomicU64,
    saves: AtomicU64,
}

impl<S: ResultStore> TimedStore<S> {
    /// Wraps `inner`, recording spans into `tracer`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> TimedStore<S> {
        TimedStore {
            inner,
            tracer,
            loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            saves: AtomicU64::new(0),
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            loads: self.loads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
        }
    }
}

impl<S: ResultStore> ResultStore for TimedStore<S> {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let id = self.tracer.id();
        let start = Instant::now();
        let out = self.inner.load(scope, key);
        self.tracer
            .close(id, "store.load", start, Instant::now(), self.tracer.current(), 1);
        self.loads.fetch_add(1, Ordering::Relaxed);
        if out.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        let id = self.tracer.id();
        let start = Instant::now();
        self.inner.save(scope, key, digest);
        self.tracer
            .close(id, "store.save", start, Instant::now(), self.tracer.current(), 1);
        self.saves.fetch_add(1, Ordering::Relaxed);
    }

    fn entries(&self) -> usize {
        self.inner.entries()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Seconds of CPU time (user + system, all threads) this process has used,
/// from `/proc/self/stat`.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU time the hypervisor stole from this machine, summed over all CPUs,
/// in clock ticks (100 per second), from `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
