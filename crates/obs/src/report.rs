//! In-memory aggregation of recorded spans into per-kind statistics.

use crate::kind::{EventKind, SpanKind, EVENT_KINDS, SPAN_KINDS};
use crate::Recorder;

/// Aggregate statistics for one span kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// The span kind.
    pub kind: SpanKind,
    /// Spans recorded.
    pub count: u64,
    /// Total wall nanoseconds across all spans of the kind.
    pub total_ns: u64,
    /// Total minus the totals of the kind's children in the static span
    /// tree (saturating — timing jitter can make children sum past the
    /// parent).
    pub self_ns: u64,
    /// Median span duration (nearest-rank).
    pub p50_ns: u64,
    /// 95th-percentile span duration (nearest-rank).
    pub p95_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

/// Aggregate statistics for one event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStats {
    /// The event kind.
    pub kind: EventKind,
    /// Events recorded.
    pub events: u64,
    /// Sum of the events' protocol-slot costs.
    pub slots: u64,
    /// Sum of the events' action counts.
    pub count: u64,
}

/// The in-memory aggregate sink: per-kind span statistics, per-kind
/// event totals, counters, and the drop tally. Build one with
/// [`Recorder::report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Statistics per span kind, in [`SPAN_KINDS`] order; kinds never
    /// recorded are omitted.
    pub kinds: Vec<KindStats>,
    /// Event totals per event kind, in [`EVENT_KINDS`] order; kinds never
    /// recorded are omitted.
    pub events: Vec<EventStats>,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Records the recorder discarded at a retention cap.
    pub dropped: u64,
}

/// Nearest-rank: the smallest sample with at least `p`% of the samples at
/// or below it (`p` in `1..=100`).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(p * sorted.len()).div_ceil(100) - 1]
}

impl Report {
    /// Aggregates a recorder's spans, events, and counters.
    pub fn from_recorder(rec: &Recorder) -> Report {
        let mut durations: Vec<Vec<u64>> = vec![Vec::new(); SPAN_KINDS.len()];
        let idx = |k: SpanKind| SPAN_KINDS.iter().position(|&x| x == k).expect("closed set");
        for s in rec.spans() {
            durations[idx(s.kind)].push(s.ns);
        }
        let totals: Vec<u64> = durations.iter().map(|d| d.iter().sum()).collect();
        let mut kinds = Vec::new();
        for (i, k) in SPAN_KINDS.into_iter().enumerate() {
            if durations[i].is_empty() {
                continue;
            }
            let child_total: u64 = SPAN_KINDS
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c.parent() == Some(k))
                .map(|(j, _)| totals[j])
                .sum();
            let d = &mut durations[i];
            d.sort_unstable();
            kinds.push(KindStats {
                kind: k,
                count: d.len() as u64,
                total_ns: totals[i],
                self_ns: totals[i].saturating_sub(child_total),
                p50_ns: percentile(d, 50),
                p95_ns: percentile(d, 95),
                max_ns: *d.last().expect("non-empty"),
            });
        }
        let mut events = Vec::new();
        for k in EVENT_KINDS {
            let mut st = EventStats {
                kind: k,
                events: 0,
                slots: 0,
                count: 0,
            };
            for e in rec.events().iter().filter(|e| e.kind == k) {
                st.events += 1;
                st.slots += e.slots;
                st.count += e.count;
            }
            if st.events > 0 {
                events.push(st);
            }
        }
        Report {
            kinds,
            events,
            counters: rec
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            dropped: rec.dropped(),
        }
    }

    /// The statistics for one span kind, if it was recorded.
    pub fn kind(&self, kind: SpanKind) -> Option<&KindStats> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// How much of the recorded slot wall time the per-phase spans
    /// account for: Σ total of [`SpanKind::Slot`]'s direct children over
    /// the Slot total. `None` if no slot spans were recorded. The profile
    /// harness gates on this staying ≥ 0.95.
    pub fn slot_coverage(&self) -> Option<f64> {
        let slot = self.kind(SpanKind::Slot)?;
        if slot.total_ns == 0 {
            return None;
        }
        let children: u64 = self
            .kinds
            .iter()
            .filter(|k| k.kind.parent() == Some(SpanKind::Slot))
            .map(|k| k.total_ns)
            .sum();
        Some(children as f64 / slot.total_ns as f64)
    }

    /// Folded-stack text (`path;to;kind self_ns`, one line per recorded
    /// kind) for flamegraph tooling.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for k in &self.kinds {
            out.push_str(&k.kind.folded_path());
            out.push(' ');
            out.push_str(&k.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        // Spans of 1..=n ns, so the value at a rank is the rank itself:
        // (n, p50, p95) with rank = ceil(p·n / 100).
        for (n, p50, p95) in [(1u64, 1, 1), (10, 5, 10), (30, 15, 29), (100, 50, 95)] {
            let mut r = Recorder::new();
            for ns in (1..=n).rev() {
                r.span(SpanKind::Unit, 0, 0, 0, ns);
            }
            let rep = r.report();
            let u = rep.kind(SpanKind::Unit).unwrap();
            assert_eq!(u.count, n);
            assert_eq!((u.p50_ns, u.p95_ns), (p50, p95), "n = {n}");
            assert_eq!(u.max_ns, n);
            assert_eq!(u.total_ns, n * (n + 1) / 2);
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        let mut r = Recorder::new();
        r.span(SpanKind::Resolve, 0, 0, 0, 100);
        r.span(SpanKind::Unit, 0, 0, 0, 40);
        r.span(SpanKind::Unit, 0, 0, 1, 40);
        r.span(SpanKind::Halo, 0, 0, 0, 10);
        let rep = r.report();
        assert_eq!(rep.kind(SpanKind::Resolve).unwrap().self_ns, 20);
        // Halo subtracts from Unit, not from Resolve.
        assert_eq!(rep.kind(SpanKind::Unit).unwrap().self_ns, 70);
        assert_eq!(rep.kind(SpanKind::Halo).unwrap().self_ns, 10);
    }

    #[test]
    fn self_time_saturates() {
        let mut r = Recorder::new();
        r.span(SpanKind::Slot, 0, 0, 0, 10);
        r.span(SpanKind::Gather, 0, 0, 0, 15);
        assert_eq!(r.report().kind(SpanKind::Slot).unwrap().self_ns, 0);
    }

    #[test]
    fn coverage_none_without_slots() {
        let mut r = Recorder::new();
        r.span(SpanKind::Build, 0, 0, 0, 10);
        assert_eq!(r.report().slot_coverage(), None);
    }

    #[test]
    fn folded_output() {
        let mut r = Recorder::new();
        r.span(SpanKind::Slot, 0, 0, 0, 100);
        r.span(SpanKind::Resolve, 0, 0, 0, 60);
        let folded = r.report().to_folded();
        assert_eq!(folded, "slot 40\nslot;resolve 60\n");
    }

    #[test]
    fn event_totals() {
        let mut r = Recorder::new();
        r.event(EventKind::RepairRehome, 0, 1, 4, 2);
        r.event(EventKind::RepairRehome, 0, 2, 6, 3);
        let rep = r.report();
        assert_eq!(rep.events.len(), 1);
        let e = &rep.events[0];
        assert_eq!((e.events, e.slots, e.count), (2, 10, 5));
    }
}
