//! Determinism-preserving observability for the multichannel workspace.
//!
//! The engine, the §5 structure pipeline, and the maintenance layer are
//! instrumented with *spans* (wall-clock timings of a phase), *typed
//! events* (protocol actions with slot/epoch attribution), *per-channel
//! outcome records* (a tx/rx/busy/env-drop stream, one record per active
//! channel per slot), and str-keyed *counters*. All of it funnels into a
//! [`Recorder`] that the caller attaches explicitly — nothing records by
//! default.
//!
//! Two properties define the layer:
//!
//! * **Attached, never ambient.** There is one build: the recorder is
//!   always compiled in and records only where a caller attached one
//!   (`Engine::attach_obs`, `StructureMaintainer::attach_obs`,
//!   `build_structure_observed`, or an `[obs]` table in a scenario file).
//!   Instrumented code holds an `Option<Recorder>` and starts its
//!   stopwatches with [`Stopwatch::start_if`], so a detached run pays one
//!   predictable branch per instrumentation point and never reads the
//!   clock.
//! * **Determinism-preserving.** Recording only ever *observes*: wall
//!   times never feed back into simulation state, and parallel resolve
//!   units report their timings through the engine's existing
//!   deterministic channel-major/shard-minor merge. Trial outcomes are
//!   bit-identical with a recorder attached, without one, and under
//!   `MCA_FORCE_PAR=1` (pinned by the workspace's golden-trial tests).
//!
//! Sinks: [`Recorder::report`] (in-memory aggregate with per-kind
//! wall/self time and percentiles), [`Recorder::to_jsonl`] (one record per
//! line, versioned `"v": 1` schema, see `docs/OBSERVABILITY.md`), and
//! [`Report::to_folded`] (folded-stack text for flamegraph tooling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod jsonl;
mod kind;
mod record;
mod report;

pub use jsonl::{trial_line, validate_jsonl_line, SCHEMA_VERSION};
pub use kind::{EventKind, SpanKind, EVENT_KINDS, SPAN_KINDS};
pub use record::{ChannelSlotRecord, EventRecord, SpanRecord, TrialRecord};
pub use report::{KindStats, Report};

use std::collections::BTreeMap;
use std::time::Instant;

/// Default retention cap for spans (records beyond it are counted in
/// [`Recorder::dropped`] and discarded).
pub const DEFAULT_SPAN_CAP: usize = 1 << 21;
/// Default retention cap for typed events.
pub const DEFAULT_EVENT_CAP: usize = 1 << 16;
/// Default retention cap for per-channel outcome records.
pub const DEFAULT_CHAN_CAP: usize = 1 << 20;

/// Collects spans, events, channel records, and counters.
///
/// Bounded: each record class has a retention cap; overflow is
/// discarded and counted in [`Recorder::dropped`] rather than growing
/// without bound.
#[derive(Debug, Clone)]
pub struct Recorder {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    chans: Vec<ChannelSlotRecord>,
    counters: BTreeMap<&'static str, u64>,
    span_cap: usize,
    event_cap: usize,
    chan_cap: usize,
    dropped: u64,
    channel_stream: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default retention caps.
    pub fn new() -> Self {
        Recorder::with_caps(DEFAULT_SPAN_CAP, DEFAULT_EVENT_CAP, DEFAULT_CHAN_CAP)
    }

    /// A recorder with explicit retention caps (records past a cap are
    /// dropped and counted, oldest kept).
    pub fn with_caps(span_cap: usize, event_cap: usize, chan_cap: usize) -> Self {
        Recorder {
            spans: Vec::new(),
            events: Vec::new(),
            chans: Vec::new(),
            counters: BTreeMap::new(),
            span_cap,
            event_cap,
            chan_cap,
            dropped: 0,
            channel_stream: true,
        }
    }

    /// Enables or disables the per-channel outcome stream
    /// (builder-style). Spans, events, and counters still record.
    pub fn with_channel_stream(mut self, on: bool) -> Self {
        self.channel_stream = on;
        self
    }

    /// Whether the per-channel outcome stream is recorded.
    pub fn channel_stream(&self) -> bool {
        self.channel_stream
    }

    /// Records a completed span of `ns` wall nanoseconds.
    ///
    /// `a` and `b` are kind-specific attributes (e.g. channel and unit
    /// index for [`SpanKind::Unit`]); kinds that carry none pass 0.
    pub fn span(&mut self, kind: SpanKind, slot: u64, a: u32, b: u32, ns: u64) {
        if self.spans.len() >= self.span_cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(SpanRecord {
            kind,
            slot,
            a,
            b,
            ns,
        });
    }

    /// Records a typed protocol event with slot/epoch attribution.
    pub fn event(&mut self, kind: EventKind, slot: u64, epoch: u64, slots: u64, count: u64) {
        if self.events.len() >= self.event_cap {
            self.dropped += 1;
            return;
        }
        self.events.push(EventRecord {
            kind,
            slot,
            epoch,
            slots,
            count,
        });
    }

    /// Records one channel's per-slot outcome tallies.
    pub fn chan(&mut self, rec: ChannelSlotRecord) {
        if !self.channel_stream {
            return;
        }
        if self.chans.len() >= self.chan_cap {
            self.dropped += 1;
            return;
        }
        self.chans.push(rec);
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }

    /// Appends every record of `other`, in `other`'s order, and sums
    /// its counters. Merging recorders in a fixed order (shard-major /
    /// channel-major, like the engine's resolve merge) yields a
    /// deterministic combined stream.
    pub fn merge(&mut self, other: &Recorder) {
        for s in &other.spans {
            self.span(s.kind, s.slot, s.a, s.b, s.ns);
        }
        for e in &other.events {
            self.event(e.kind, e.slot, e.epoch, e.slots, e.count);
        }
        for c in &other.chans {
            self.chan(*c);
        }
        for (&k, &v) in &other.counters {
            self.add(k, v);
        }
        self.dropped += other.dropped;
    }

    /// Spans recorded so far, in recording order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Typed events recorded so far, in recording order.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Per-channel outcome records, in recording order (slot-major,
    /// ascending channel within a slot — the engine's delivery order).
    pub fn channel_records(&self) -> &[ChannelSlotRecord] {
        &self.chans
    }

    /// Counter values, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Records discarded because a retention cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.events.is_empty()
            && self.chans.is_empty()
            && self.counters.is_empty()
    }

    /// Aggregates the recorded spans into a per-kind [`Report`].
    pub fn report(&self) -> Report {
        Report::from_recorder(self)
    }
}

/// Wall-clock stopwatch; reads the monotonic clock only when started
/// with `active = true`, so detached recorders cost one branch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts a running stopwatch.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(Some(Instant::now()))
    }

    /// Starts a stopwatch only if `active`; otherwise
    /// [`Stopwatch::elapsed_ns`] reports 0 without touching the clock.
    #[inline]
    pub fn start_if(active: bool) -> Self {
        if active {
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }

    /// Nanoseconds since start (0 for an inactive stopwatch).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reports() {
        let mut r = Recorder::new();
        r.span(SpanKind::Slot, 0, 0, 0, 100);
        r.span(SpanKind::Gather, 0, 0, 0, 30);
        r.span(SpanKind::Resolve, 0, 1, 0, 60);
        r.event(EventKind::RepairRehome, 5, 1, 4, 2);
        r.add("cache_builds", 3);
        r.add("cache_builds", 2);
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.counters(), vec![("cache_builds", 5)]);
        let rep = r.report();
        let slot = rep.kind(SpanKind::Slot).unwrap();
        assert_eq!(slot.count, 1);
        assert_eq!(slot.total_ns, 100);
        // Self time: 100 − (30 + 60) children.
        assert_eq!(slot.self_ns, 10);
        assert!((rep.slot_coverage().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn caps_drop_and_count() {
        let mut r = Recorder::with_caps(2, 1, 1);
        for i in 0..4 {
            r.span(SpanKind::Unit, i, 0, 0, 1);
        }
        r.event(EventKind::RepairClean, 0, 0, 0, 1);
        r.event(EventKind::RepairClean, 1, 1, 0, 1);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn merge_appends_in_order_and_sums_counters() {
        let mut a = Recorder::new();
        a.span(SpanKind::Unit, 0, 0, 0, 1);
        a.add("x", 1);
        let mut b = Recorder::new();
        b.span(SpanKind::Unit, 0, 1, 0, 2);
        b.add("x", 2);
        b.chan(ChannelSlotRecord {
            slot: 0,
            channel: 1,
            tx: 2,
            listens: 3,
            rx: 1,
            busy: 2,
            env: 0,
        });
        a.merge(&b);
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.spans()[1].a, 1);
        assert_eq!(a.channel_records().len(), 1);
        assert_eq!(a.counters(), vec![("x", 3)]);
    }

    #[test]
    fn channel_stream_toggle() {
        let mut r = Recorder::new().with_channel_stream(false);
        r.chan(ChannelSlotRecord {
            slot: 0,
            channel: 0,
            tx: 0,
            listens: 0,
            rx: 0,
            busy: 0,
            env: 0,
        });
        assert!(r.channel_records().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn stopwatch_inactive_reads_zero() {
        let sw = Stopwatch::start_if(false);
        assert_eq!(sw.elapsed_ns(), 0);
    }
}
