//! In-memory spans recorded from the benchmark's side of each public call,
//! and the model-leg wrapper whose spans fire inside the real tune.

use gridtuner_core::error::CoreError;
use gridtuner_engine::{ModelErrorSource, SyncModelErrorSource};
use gridtuner_obs::json::Val;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One closed span. `parent` is 0 for a root; `decision` is shared by all
/// spans of one decision (0 outside decisions).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub decision: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The probed side, for spans about one side (0 otherwise).
    pub side: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Nested spans open on the driving thread; model spans are
/// leaves recorded from whichever pool thread ran the call, parented to
/// the driving thread's innermost open span (the tune, which blocks while
/// the pool works).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    open: Mutex<Vec<u32>>,
    next_id: AtomicU32,
    decision: AtomicU32,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a tracing thread panicked while recording")
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            decision: AtomicU32::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a new decision id for the spans that follow.
    pub fn begin_decision(&self) -> u32 {
        self.decision.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Runs `f` inside a span named `name` on the calling thread.
    pub fn span<T>(&self, name: &'static str, side: u32, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut open = lock(&self.open);
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        lock(&self.open).pop();
        self.record(id, parent, name, start, end, side);
        out
    }

    /// [`span`](Self::span) when tracing, a plain call otherwise.
    pub fn maybe<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tracer {
            Some(t) => t.span(name, 0, f),
            None => f(),
        }
    }

    fn leaf(&self, name: &'static str, start: Instant, end: Instant, side: u32) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = lock(&self.open).last().copied().unwrap_or(0);
        self.record(id, parent, name, start, end, side);
    }

    fn record(&self, id: u32, parent: u32, name: &'static str, a: Instant, b: Instant, side: u32) {
        let span = Span {
            id,
            parent,
            decision: self.decision.load(Ordering::SeqCst),
            name,
            start_ns: self.ns(a),
            end_ns: self.ns(b),
            side,
        };
        lock(&self.spans).push(span);
    }

    /// Spans of `decision`, in closing order.
    pub fn decision_spans(&self, decision: u32) -> Vec<Span> {
        lock(&self.spans)
            .iter()
            .filter(|s| s.decision == decision)
            .cloned()
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in lock(&self.spans).iter() {
            let line = Val::obj(vec![
                ("id", Val::from(u64::from(s.id))),
                ("parent", Val::from(u64::from(s.parent))),
                ("decision", Val::from(u64::from(s.decision))),
                ("name", Val::from(s.name)),
                ("start_ns", Val::from(s.start_ns)),
                ("end_ns", Val::from(s.end_ns)),
                ("side", Val::from(u64::from(s.side))),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time per span name, in ms: each span's duration minus the part of
/// its interval that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
    }
    out
}

/// Total duration per span name, in ms, and the number of spans.
pub fn totals(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
}

/// A model leg whose every call records a `predict.model` leaf span when a
/// tracer is attached; otherwise a plain pass-through.
pub struct Traced<'t, M> {
    inner: M,
    tracer: Option<&'t Tracer>,
}

impl<'t, M> Traced<'t, M> {
    pub fn new(inner: M, tracer: Option<&'t Tracer>) -> Self {
        Traced { inner, tracer }
    }
}

fn timed<T>(tracer: Option<&Tracer>, side: u32, f: impl FnOnce() -> T) -> T {
    match tracer {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.leaf("predict.model", start, Instant::now(), side);
            out
        }
    }
}

impl<M: ModelErrorSource> ModelErrorSource for Traced<'_, M> {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        let inner = &mut self.inner;
        timed(self.tracer, mgrid_side, || inner.model_error(mgrid_side))
    }

    fn data_dependent(&self) -> bool {
        self.inner.data_dependent()
    }
}

impl<M: SyncModelErrorSource> SyncModelErrorSource for Traced<'_, M> {
    fn model_error_sync(&self, mgrid_side: u32) -> Result<f64, CoreError> {
        timed(self.tracer, mgrid_side, || {
            self.inner.model_error_sync(mgrid_side)
        })
    }

    fn data_dependent(&self) -> bool {
        self.inner.data_dependent()
    }
}
