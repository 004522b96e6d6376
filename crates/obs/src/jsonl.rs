//! The JSONL sink: one flat record per line, versioned schema (`"v": 1`),
//! and a validator CI uses to pin the schema.
//!
//! Record shapes (all values are unsigned integers except `"t"` and
//! `"k"`, which are strings):
//!
//! ```text
//! {"v":1,"t":"span","k":"gather","slot":3,"a":0,"b":0,"ns":18250}
//! {"v":1,"t":"event","k":"repair_rehome","slot":120,"epoch":2,"slots":14,"count":3}
//! {"v":1,"t":"chan","slot":3,"ch":1,"tx":5,"listens":9,"rx":2,"busy":1,"env":0}
//! {"v":1,"t":"counter","k":"resolver_cache_builds","n":7}
//! {"v":1,"t":"trace","slot":3,"ch":0,"from":17,"to":4}
//! {"v":1,"t":"trial","scenario":"dense-16ch","seed":2,"coverage":0.98,"full":false,"rx":812,"busy":31,"env":0,"slots":400}
//! ```
//!
//! A [`Recorder`] export whose retention caps discarded records ends with
//! one more `"counter"` line, `"k":"records_dropped"`, carrying the tally.
//!
//! `"trial"` lines are emitted by the `experiments sweep`/`serve` trial
//! service ([`trial_line`]); `"span"`, `"event"`, `"chan"` and
//! `"counter"` lines by [`Recorder`]. Nothing in the workspace writes
//! `"trace"` lines (decode events) any more, but the validator still
//! accepts them: the schema is append-only, so a future `"v": 2` may add
//! record types or fields, and every v1 line stays valid. `"trial"` is
//! the one record type carrying float (`coverage`, shortest-round-trip
//! formatted, so byte equality is bit equality) and boolean (`full`)
//! values.

use crate::kind::{EventKind, SpanKind};
use crate::record::TrialRecord;
use crate::Recorder;
use std::fmt::Write as _;

/// The JSONL schema version this crate writes.
pub const SCHEMA_VERSION: u64 = 1;

impl Recorder {
    /// Serializes every retained record as JSONL, in a deterministic
    /// order: spans, events, channel records (each in recording order),
    /// then counters by name. Empty when the recorder is. If a retention
    /// cap discarded records, a final `records_dropped` counter line says
    /// how many, so a truncated export never reads as complete.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"v\":{SCHEMA_VERSION},\"t\":\"span\",\"k\":\"{}\",\"slot\":{},\"a\":{},\"b\":{},\"ns\":{}}}",
                s.kind.name(),
                s.slot,
                s.a,
                s.b,
                s.ns
            );
        }
        for e in self.events() {
            let _ = writeln!(
                out,
                "{{\"v\":{SCHEMA_VERSION},\"t\":\"event\",\"k\":\"{}\",\"slot\":{},\"epoch\":{},\"slots\":{},\"count\":{}}}",
                e.kind.name(),
                e.slot,
                e.epoch,
                e.slots,
                e.count
            );
        }
        for c in self.channel_records() {
            let _ = writeln!(
                out,
                "{{\"v\":{SCHEMA_VERSION},\"t\":\"chan\",\"slot\":{},\"ch\":{},\"tx\":{},\"listens\":{},\"rx\":{},\"busy\":{},\"env\":{}}}",
                c.slot, c.channel, c.tx, c.listens, c.rx, c.busy, c.env
            );
        }
        // The drop tally rides as one more counter line, only when non-zero.
        let dropped = (self.dropped() > 0).then(|| ("records_dropped", self.dropped()));
        for (k, v) in self.counters().into_iter().chain(dropped) {
            let _ = writeln!(
                out,
                "{{\"v\":{SCHEMA_VERSION},\"t\":\"counter\",\"k\":\"{k}\",\"n\":{v}}}"
            );
        }
        out
    }
}

/// Formats one `"trial"` line in the v1 schema — the sweep/serve trial
/// service goes through here so the schema lives in one place. The
/// `coverage` float uses shortest-round-trip formatting; everything else
/// is integers, booleans, and the scenario id.
pub fn trial_line(t: &TrialRecord) -> String {
    format!(
        concat!(
            "{{\"v\":{v},\"t\":\"trial\",\"scenario\":\"{scenario}\",\"seed\":{seed},",
            "\"coverage\":{coverage:?},\"full\":{full},\"rx\":{rx},\"busy\":{busy},",
            "\"env\":{env},\"slots\":{slots}}}"
        ),
        v = SCHEMA_VERSION,
        scenario = t.scenario,
        seed = t.seed,
        coverage = t.coverage,
        full = t.full_coverage,
        rx = t.receptions,
        busy = t.busy_failures,
        env = t.env_drops,
        slots = t.slots,
    )
}

#[derive(Debug, PartialEq)]
enum Val {
    U(u64),
    F(f64),
    B(bool),
    S(String),
}

/// Parses one flat JSON object: string keys, unsigned-number / boolean /
/// plain-string values, no nesting, no duplicate keys.
fn parse_flat(line: &str) -> Result<Vec<(String, Val)>, String> {
    let s = line.trim().as_bytes();
    let mut i = 0;
    let mut fields: Vec<(String, Val)> = Vec::new();
    let err = |msg: &str, at: usize| format!("{msg} at byte {at}");
    if s.first() != Some(&b'{') {
        return Err(err("expected '{'", 0));
    }
    i += 1;
    if s.get(i) == Some(&b'}') {
        return if i + 1 == s.len() {
            Ok(fields)
        } else {
            Err(err("trailing garbage", i + 1))
        };
    }
    loop {
        // Key.
        if s.get(i) != Some(&b'"') {
            return Err(err("expected '\"' starting a key", i));
        }
        i += 1;
        let k0 = i;
        while i < s.len() && s[i] != b'"' {
            if s[i] == b'\\' {
                return Err(err("escapes are not part of the schema", i));
            }
            i += 1;
        }
        if i >= s.len() {
            return Err(err("unterminated key", k0));
        }
        let key = std::str::from_utf8(&s[k0..i]).map_err(|_| err("non-utf8 key", k0))?;
        if key.is_empty() {
            return Err(err("empty key", k0));
        }
        if fields.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        i += 1;
        if s.get(i) != Some(&b':') {
            return Err(err("expected ':'", i));
        }
        i += 1;
        // Value: unsigned integer or plain string.
        let val = match s.get(i) {
            Some(&b'"') => {
                i += 1;
                let v0 = i;
                while i < s.len() && s[i] != b'"' {
                    if s[i] == b'\\' {
                        return Err(err("escapes are not part of the schema", i));
                    }
                    i += 1;
                }
                if i >= s.len() {
                    return Err(err("unterminated string value", v0));
                }
                let v = std::str::from_utf8(&s[v0..i]).map_err(|_| err("non-utf8 value", v0))?;
                i += 1;
                Val::S(v.to_string())
            }
            Some(c) if c.is_ascii_digit() => {
                let v0 = i;
                while i < s.len()
                    && (s[i].is_ascii_digit() || matches!(s[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                let txt = std::str::from_utf8(&s[v0..i]).expect("ascii number bytes");
                if txt.bytes().all(|b| b.is_ascii_digit()) {
                    Val::U(txt.parse().map_err(|_| err("integer out of range", v0))?)
                } else {
                    let f: f64 = txt.parse().map_err(|_| err("malformed number", v0))?;
                    if !f.is_finite() {
                        return Err(err("non-finite number", v0));
                    }
                    Val::F(f)
                }
            }
            Some(&b't') if s[i..].starts_with(b"true") => {
                i += 4;
                Val::B(true)
            }
            Some(&b'f') if s[i..].starts_with(b"false") => {
                i += 5;
                Val::B(false)
            }
            _ => {
                return Err(err(
                    "expected an unsigned number, boolean, or string value",
                    i,
                ))
            }
        };
        fields.push((key.to_string(), val));
        match s.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {
                return if i + 1 == s.len() {
                    Ok(fields)
                } else {
                    Err(err("trailing garbage", i + 1))
                };
            }
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
}

fn require_exact(fields: &[(String, Val)], keys: &[&str]) -> Result<(), String> {
    for k in keys {
        if !fields.iter().any(|(fk, _)| fk == k) {
            return Err(format!("missing key {k:?}"));
        }
    }
    for (fk, _) in fields {
        if !keys.contains(&fk.as_str()) {
            return Err(format!("unknown key {fk:?}"));
        }
    }
    Ok(())
}

fn get_u(fields: &[(String, Val)], key: &str) -> Result<u64, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Val::U(v))) => Ok(*v),
        Some(_) => Err(format!("key {key:?} must be an unsigned integer")),
        None => Err(format!("missing key {key:?}")),
    }
}

/// Numeric accessor: floats, with unsigned integers widening.
fn get_f(fields: &[(String, Val)], key: &str) -> Result<f64, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Val::F(v))) => Ok(*v),
        Some((_, Val::U(v))) => Ok(*v as f64),
        Some(_) => Err(format!("key {key:?} must be a number")),
        None => Err(format!("missing key {key:?}")),
    }
}

fn get_b(fields: &[(String, Val)], key: &str) -> Result<bool, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Val::B(v))) => Ok(*v),
        Some(_) => Err(format!("key {key:?} must be a boolean")),
        None => Err(format!("missing key {key:?}")),
    }
}

fn get_s<'a>(fields: &'a [(String, Val)], key: &str) -> Result<&'a str, String> {
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, Val::S(v))) => Ok(v),
        Some(_) => Err(format!("key {key:?} must be a string")),
        None => Err(format!("missing key {key:?}")),
    }
}

/// Validates one line against the v1 JSONL schema: a flat object with
/// the exact key set for its `"t"`, `"v": 1`, and known `"k"` names for
/// span and event records. Returns a description of the first problem.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let fields = parse_flat(line)?;
    let v = get_u(&fields, "v")?;
    if v != SCHEMA_VERSION {
        return Err(format!("unsupported schema version {v}"));
    }
    let t = get_s(&fields, "t")?;
    match t {
        "span" => {
            require_exact(&fields, &["v", "t", "k", "slot", "a", "b", "ns"])?;
            let k = get_s(&fields, "k")?;
            if SpanKind::from_name(k).is_none() {
                return Err(format!("unknown span kind {k:?}"));
            }
        }
        "event" => {
            require_exact(&fields, &["v", "t", "k", "slot", "epoch", "slots", "count"])?;
            let k = get_s(&fields, "k")?;
            if EventKind::from_name(k).is_none() {
                return Err(format!("unknown event kind {k:?}"));
            }
        }
        "chan" => {
            require_exact(
                &fields,
                &["v", "t", "slot", "ch", "tx", "listens", "rx", "busy", "env"],
            )?;
            for key in ["slot", "ch", "tx", "listens", "rx", "busy", "env"] {
                get_u(&fields, key)?;
            }
        }
        "counter" => {
            require_exact(&fields, &["v", "t", "k", "n"])?;
            if get_s(&fields, "k")?.is_empty() {
                return Err("empty counter name".to_string());
            }
            get_u(&fields, "n")?;
        }
        "trace" => {
            require_exact(&fields, &["v", "t", "slot", "ch", "from", "to"])?;
            for key in ["slot", "ch", "from", "to"] {
                get_u(&fields, key)?;
            }
        }
        "trial" => {
            require_exact(
                &fields,
                &[
                    "v", "t", "scenario", "seed", "coverage", "full", "rx", "busy", "env", "slots",
                ],
            )?;
            if get_s(&fields, "scenario")?.is_empty() {
                return Err("empty scenario id".to_string());
            }
            for key in ["seed", "rx", "busy", "env", "slots"] {
                get_u(&fields, key)?;
            }
            let coverage = get_f(&fields, "coverage")?;
            if !(0.0..=1.0).contains(&coverage) {
                return Err(format!("coverage {coverage} outside [0, 1]"));
            }
            get_b(&fields, "full")?;
        }
        other => return Err(format!("unknown record type {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_trace_records_stay_valid() {
        validate_jsonl_line(r#"{"v":1,"t":"trace","slot":3,"ch":1,"from":17,"to":4}"#).unwrap();
    }

    #[test]
    fn trial_line_validates_and_is_byte_stable() {
        let t = TrialRecord {
            scenario: "dense-16ch".into(),
            seed: 2,
            coverage: 0.9821428571428571,
            full_coverage: false,
            receptions: 812,
            busy_failures: 31,
            env_drops: 0,
            slots: 400,
        };
        let line = trial_line(&t);
        validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(line, trial_line(&t), "formatting must be reproducible");
        assert!(line.contains("\"coverage\":0.9821428571428571"), "{line}");
        assert!(line.contains("\"full\":false"), "{line}");
        // Whole coverage still renders (and validates) as a float.
        let full = TrialRecord {
            coverage: 1.0,
            full_coverage: true,
            ..t
        };
        let line = trial_line(&full);
        assert!(line.contains("\"coverage\":1.0"), "{line}");
        validate_jsonl_line(&line).unwrap();
    }

    #[test]
    fn trial_validator_rejects_bad_records() {
        for bad in [
            // coverage outside [0, 1], non-finite, or non-numeric.
            r#"{"v":1,"t":"trial","scenario":"s","seed":1,"coverage":1.5,"full":true,"rx":0,"busy":0,"env":0,"slots":1}"#,
            r#"{"v":1,"t":"trial","scenario":"s","seed":1,"coverage":"hi","full":true,"rx":0,"busy":0,"env":0,"slots":1}"#,
            // full must be a boolean.
            r#"{"v":1,"t":"trial","scenario":"s","seed":1,"coverage":0.5,"full":1,"rx":0,"busy":0,"env":0,"slots":1}"#,
            // empty scenario id.
            r#"{"v":1,"t":"trial","scenario":"","seed":1,"coverage":0.5,"full":true,"rx":0,"busy":0,"env":0,"slots":1}"#,
            // seed must stay integral.
            r#"{"v":1,"t":"trial","scenario":"s","seed":1.5,"coverage":0.5,"full":true,"rx":0,"busy":0,"env":0,"slots":1}"#,
            // missing / extra keys.
            r#"{"v":1,"t":"trial","scenario":"s","seed":1,"coverage":0.5,"full":true,"rx":0,"busy":0,"env":0}"#,
            r#"{"v":1,"t":"trial","scenario":"s","seed":1,"coverage":0.5,"full":true,"rx":0,"busy":0,"env":0,"slots":1,"x":1}"#,
        ] {
            assert!(validate_jsonl_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}garbage",
            "not json",
            r#"{"v":2,"t":"trace","slot":0,"ch":0,"from":0,"to":0}"#,
            r#"{"v":1,"t":"mystery","slot":0}"#,
            r#"{"v":1,"t":"span","k":"nope","slot":0,"a":0,"b":0,"ns":1}"#,
            r#"{"v":1,"t":"span","k":"slot","slot":0,"a":0,"b":0}"#,
            r#"{"v":1,"t":"span","k":"slot","slot":0,"a":0,"b":0,"ns":1,"extra":2}"#,
            r#"{"v":1,"t":"trace","slot":-1,"ch":0,"from":0,"to":0}"#,
            r#"{"v":1,"t":"trace","slot":1.5,"ch":0,"from":0,"to":0}"#,
            r#"{"v":1,"v":1,"t":"trace","slot":0,"ch":0,"from":0,"to":0}"#,
            r#"{"v":1,"t":"counter","k":"x","n":{"nested":1}}"#,
            r#"{"v":1,"t":"counter","k":"","n":1}"#,
        ] {
            assert!(validate_jsonl_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_object_rejected_for_missing_keys() {
        assert!(validate_jsonl_line("{}").is_err());
    }

    #[test]
    fn recorder_round_trips_through_validator() {
        use crate::{ChannelSlotRecord, EventKind, Recorder, SpanKind};
        let mut r = Recorder::new();
        r.span(SpanKind::Slot, 0, 0, 0, 1234);
        r.span(SpanKind::Unit, 0, 3, 1, 99);
        r.event(EventKind::StageDominate, 0, 0, 40, 2);
        r.chan(ChannelSlotRecord {
            slot: 0,
            channel: 2,
            tx: 1,
            listens: 4,
            rx: 3,
            busy: 1,
            env: 0,
        });
        r.add("resolver_cache_builds", 7);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in lines {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn capped_export_says_how_much_it_dropped() {
        use crate::{EventKind, Recorder, SpanKind};
        let mut r = Recorder::with_caps(2, 1, 1);
        for slot in 0..4 {
            r.span(SpanKind::Unit, slot, 0, 0, 1);
        }
        r.event(EventKind::RepairClean, 0, 0, 0, 1);
        r.event(EventKind::RepairClean, 1, 1, 0, 1);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // Two spans and one event retained, then the tally of the three lost.
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[3],
            r#"{"v":1,"t":"counter","k":"records_dropped","n":3}"#
        );
        for line in lines {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        // A recorder that lost nothing writes no such line.
        let mut whole = Recorder::new();
        whole.span(SpanKind::Unit, 0, 0, 0, 1);
        assert!(!whole.to_jsonl().contains("records_dropped"));
    }
}
