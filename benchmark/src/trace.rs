//! Spans recorded by the benchmark itself, around its calls into the
//! layers' public functions ("tracing from outside"; spans inside the
//! program are a later change).
//!
//! A span is `(name, start, end, parent span, tag)`; the tag is the trial
//! or repetition the span belongs to. Spans stay in memory until the
//! benchmark ends. A layer is the part of a span name before the first
//! `.` (`radio.step` belongs to `radio`); a span's self time is its
//! duration minus the part of its interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; `ROOT` means "no parent".
pub type SpanId = u32;

/// The parent of top-level spans.
pub const ROOT: SpanId = 0;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// This span's id (unique within a [`Tracer`], never [`ROOT`]).
    pub id: SpanId,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Trial or repetition id shared by the spans of one unit of work.
    pub tag: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The layer a span name belongs to (the text before the first `.`).
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// A started, not yet finished span. When the tracer is off this is the
/// inert `id == ROOT` value and costs no clock read.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    /// The id child spans name as their parent.
    pub id: SpanId,
    parent: SpanId,
    tag: u32,
    start_ns: u64,
}

/// The process-wide span store. Threads record through a [`Local`]
/// buffer and merge once per unit of work, so the hot path takes no lock.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off (between repetitions, never inside one).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A recording buffer for the calling thread.
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            on: self.enabled(),
            buf: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in merge order (the store stays locked
    /// while the guard lives; read it after the repetitions, not inside).
    pub fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while merging spans")
    }
}

/// One thread's span buffer; merged into the tracer on drop.
pub struct Local<'t> {
    tracer: &'t Tracer,
    on: bool,
    buf: Vec<Span>,
}

impl Local<'_> {
    /// Starts a span.
    #[inline]
    pub fn start(&mut self, name: &'static str, parent: SpanId, tag: u32) -> Open {
        if !self.on {
            return Open {
                name,
                id: ROOT,
                parent,
                tag,
                start_ns: 0,
            };
        }
        Open {
            name,
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            tag,
            start_ns: self.tracer.now_ns(),
        }
    }

    /// Finishes a span started on this buffer.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.id == ROOT {
            return;
        }
        self.buf.push(Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            tag: open.tag,
            start_ns: open.start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }

    /// Runs `f` inside a span; `f` receives the span's id for children.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        tag: u32,
        f: impl FnOnce(&mut Self, SpanId) -> R,
    ) -> R {
        let open = self.start(name, parent, tag);
        let out = f(self, open.id);
        self.end(open);
        out
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // A poisoned store only loses spans; Drop must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.buf);
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children may overlap each other when they ran
/// on different threads, so the union is taken, not the sum).
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .remove(&s.id)
                .map(|c| covered_ns(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Self time per layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, t) in totals_by_name(spans) {
        *out.entry(layer_of(name)).or_default() += t.self_ns;
    }
    out
}

/// The spans as JSONL, one object per line (written when the benchmark
/// ends, if a path was asked for).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.id, s.parent, s.tag, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            tag: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("bench.sweep", 1, ROOT, 0, 100),
            // Two trials that overlap on different threads: union 10..70.
            span("bench.trial", 2, 1, 10, 50),
            span("bench.trial", 3, 1, 30, 70),
            // A grandchild inside the first trial.
            span("radio.step", 4, 2, 20, 45),
            // A child reaching past its parent is clipped to it.
            span("obs.trial_line", 5, 3, 60, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60);
        assert_eq!(selfs[&2], 40 - 25);
        assert_eq!(selfs[&3], 40 - 10);
        assert_eq!(selfs[&4], 25);
        assert_eq!(selfs[&5], 30);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["bench.trial"],
            NameTotals {
                count: 2,
                total_ns: 80,
                self_ns: 45
            }
        );
        let by_layer = self_ns_by_layer(&spans);
        assert_eq!(by_layer["bench"], 40 + 45);
        assert_eq!(by_layer["radio"], 25);
        assert_eq!(by_layer["obs"], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        {
            let mut local = tracer.local();
            local.span("core.repair", ROOT, 1, |_, id| assert_eq!(id, ROOT));
        }
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        {
            let mut local = tracer.local();
            local.span("core.repair", ROOT, 7, |l, id| {
                assert_ne!(id, ROOT);
                l.span("core.audit", id, 7, |_, _| {});
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "core.repair").unwrap();
        let inner = spans.iter().find(|s| s.name == "core.audit").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tag, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(layer_of(outer.name), "core");
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
