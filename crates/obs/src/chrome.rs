//! Trace exporters and validator.
//!
//! [`export_chrome`] turns a collected event list into Chrome
//! trace-event JSON — the format consumed by `ui.perfetto.dev` and
//! `chrome://tracing`: spans become complete (`ph:"X"`) events,
//! instants `ph:"i"`, flow arrows `ph:"s"`/`ph:"f"` pairs, plus
//! `process_name` / `thread_name` metadata so the timeline shows real
//! thread names. [`export_jsonl`] is the compact line-per-event form
//! the flight recorder dumps on panic. [`validate_chrome`] is the
//! schema check the `trace-validate` CLI subcommand and the tier-1
//! trace smoke-step run against emitted files.

use crate::trace::{TraceEvent, TracePhase};
use serde::Value;

/// The single process id used in exported traces.
pub const TRACE_PID: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1e3)
}

/// The event's keyed arguments, absent ones (empty keys) skipped.
fn arg_fields(ev: &TraceEvent) -> Vec<(&'static str, Value)> {
    [(ev.arg_key, ev.arg_val), (ev.arg2_key, ev.arg2_val)]
        .into_iter()
        .filter(|(key, _)| !key.is_empty())
        .map(|(key, val)| (key, Value::UInt(val)))
        .collect()
}

fn args_of(ev: &TraceEvent) -> Option<Value> {
    let args = arg_fields(ev);
    (!args.is_empty()).then(|| obj(args))
}

fn event_value(ev: &TraceEvent) -> Value {
    let mut fields = vec![
        ("name", Value::Str(ev.name.to_owned())),
        ("cat", Value::Str(ev.cat.to_owned())),
        ("ts", us(ev.ts_ns)),
        ("pid", Value::UInt(TRACE_PID)),
        ("tid", Value::UInt(ev.tid as u64)),
    ];
    match ev.phase {
        TracePhase::Span => {
            fields.push(("ph", Value::Str("X".to_owned())));
            fields.push(("dur", us(ev.dur_ns)));
        }
        TracePhase::Instant => {
            fields.push(("ph", Value::Str("i".to_owned())));
            // Thread-scoped instant (a small tick on the thread's track).
            fields.push(("s", Value::Str("t".to_owned())));
        }
        TracePhase::FlowStart => {
            fields.push(("ph", Value::Str("s".to_owned())));
            fields.push(("id", Value::UInt(ev.flow_id)));
        }
        TracePhase::FlowEnd => {
            fields.push(("ph", Value::Str("f".to_owned())));
            fields.push(("id", Value::UInt(ev.flow_id)));
            // Bind to the enclosing slice so the arrowhead lands on the
            // span that contains this event, not the next one.
            fields.push(("bp", Value::Str("e".to_owned())));
        }
    }
    if let Some(args) = args_of(ev) {
        fields.push(("args", args));
    }
    obj(fields)
}

fn metadata_value(name: &str, tid: u64, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("ph", Value::Str("M".to_owned())),
        ("ts", Value::Float(0.0)),
        ("pid", Value::UInt(TRACE_PID)),
        ("tid", Value::UInt(tid)),
        ("args", obj(vec![("name", Value::Str(value.to_owned()))])),
    ])
}

/// Serialises events to Chrome trace-event JSON (object form, with a
/// `traceEvents` array), attributing threads by the `(tid, name)` pairs
/// from [`crate::thread_names`].
pub fn export_chrome(events: &[TraceEvent], threads: &[(u32, String)]) -> String {
    let mut trace_events = Vec::with_capacity(events.len() + threads.len() + 1);
    trace_events.push(metadata_value("process_name", 0, "subset3d"));
    for (tid, name) in threads {
        trace_events.push(metadata_value("thread_name", *tid as u64, name));
    }
    trace_events.extend(events.iter().map(event_value));
    let root = obj(vec![
        ("traceEvents", Value::Array(trace_events)),
        ("displayTimeUnit", Value::Str("ms".to_owned())),
    ]);
    // Compact form: pipeline traces carry tens of thousands of events,
    // and Perfetto does not care about whitespace.
    serde_json::to_string(&root).expect("trace value serialises")
}

fn phase_code(phase: TracePhase) -> &'static str {
    match phase {
        TracePhase::Span => "X",
        TracePhase::Instant => "i",
        TracePhase::FlowStart => "s",
        TracePhase::FlowEnd => "f",
    }
}

/// Serialises events to compact JSONL: one JSON object per line with
/// nanosecond timestamps, zero-valued fields omitted. This is the
/// flight-recorder dump format.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let mut fields = vec![
            ("ph", Value::Str(phase_code(ev.phase).to_owned())),
            ("ts_ns", Value::UInt(ev.ts_ns)),
            ("tid", Value::UInt(ev.tid as u64)),
            ("cat", Value::Str(ev.cat.to_owned())),
            ("name", Value::Str(ev.name.to_owned())),
        ];
        if ev.phase == TracePhase::Span {
            fields.push(("dur_ns", Value::UInt(ev.dur_ns)));
        }
        if matches!(ev.phase, TracePhase::FlowStart | TracePhase::FlowEnd) {
            fields.push(("id", Value::UInt(ev.flow_id)));
        }
        fields.extend(arg_fields(ev));
        out.push_str(&serde_json::to_string(&obj(fields)).expect("event serialises"));
        out.push('\n');
    }
    out
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeStats {
    /// Total events in `traceEvents` (metadata included).
    pub events: usize,
    /// Complete (`ph:"X"`) span events.
    pub spans: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Matched flow start/end pairs.
    pub flows: usize,
    /// Distinct thread ids carrying at least one non-metadata event.
    pub threads: usize,
}

fn field<'v>(ev: &'v Value, key: &str) -> Option<&'v Value> {
    match ev {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn require_num(ev: &Value, key: &str, i: usize) -> Result<f64, String> {
    field(ev, key)
        .and_then(num)
        .ok_or_else(|| format!("event {i}: missing or non-numeric `{key}`"))
}

fn require_str<'v>(ev: &'v Value, key: &str, i: usize) -> Result<&'v str, String> {
    field(ev, key)
        .and_then(str_of)
        .ok_or_else(|| format!("event {i}: missing or non-string `{key}`"))
}

/// Validates a Chrome trace-event JSON document against the schema this
/// exporter promises: a `traceEvents` array whose entries all carry
/// `ph`, `ts`, `pid`, `tid` and `name` with the right types, `dur` on
/// every complete event, laminar (properly nested) spans per thread,
/// and a matching end for every flow start. Returns counts on success
/// and the first violation on failure.
pub fn validate_chrome(json: &str) -> Result<ChromeStats, String> {
    let root = serde_json::parse_value(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = field(&root, "traceEvents").ok_or("missing top-level `traceEvents`")?;
    let events = match events {
        Value::Array(items) => items,
        _ => return Err("`traceEvents` is not an array".to_owned()),
    };

    let mut stats = ChromeStats {
        events: events.len(),
        ..ChromeStats::default()
    };
    // (tid, ts, dur) of complete events, for the nesting check.
    let mut spans: Vec<(u64, f64, f64)> = Vec::new();
    let mut flow_starts: Vec<(u64, String)> = Vec::new();
    let mut flow_ends: Vec<(u64, String)> = Vec::new();
    let mut tids = std::collections::BTreeSet::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = require_str(ev, "ph", i)?;
        require_str(ev, "name", i)?;
        let ts = require_num(ev, "ts", i)?;
        require_num(ev, "pid", i)?;
        let tid = require_num(ev, "tid", i)? as u64;
        match ph {
            "M" => continue,
            "X" => {
                let dur = require_num(ev, "dur", i)?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative `dur`"));
                }
                stats.spans += 1;
                spans.push((tid, ts, dur));
            }
            "i" => stats.instants += 1,
            "s" | "f" => {
                let id = require_num(ev, "id", i)? as u64;
                let name = require_str(ev, "name", i)?.to_owned();
                if ph == "s" {
                    flow_starts.push((id, name));
                } else {
                    flow_ends.push((id, name));
                }
            }
            other => return Err(format!("event {i}: unknown `ph` {other:?}")),
        }
        tids.insert(tid);
    }
    stats.threads = tids.len();

    // Spans on one thread must nest: sorted by start (ties: longest
    // first), every span either fits inside the enclosing one or starts
    // at/after its end. Partial overlap is a recorder bug.
    spans.sort_by(|a, b| {
        // Third slot compares the *other* span's duration, giving the
        // longest-first tie-break without an Ord wrapper for f64.
        (a.0, a.1, b.2)
            .partial_cmp(&(b.0, b.1, a.2))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut stack: Vec<(u64, f64)> = Vec::new(); // (tid, end_ts)
    for &(tid, ts, dur) in &spans {
        while let Some(&(top_tid, top_end)) = stack.last() {
            if top_tid != tid || top_end <= ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(_, top_end)) = stack.last() {
            if ts + dur > top_end {
                return Err(format!(
                    "span overlap on tid {tid}: [{ts}, {}) extends past enclosing end {top_end}",
                    ts + dur
                ));
            }
        }
        stack.push((tid, ts + dur));
    }

    // Every flow start must have a matching end (same id and name).
    for (id, name) in &flow_starts {
        if !flow_ends.iter().any(|(eid, en)| eid == id && en == name) {
            return Err(format!("flow start id {id} ({name}) has no matching end"));
        }
    }
    for (id, name) in &flow_ends {
        if !flow_starts.iter().any(|(sid, sn)| sid == id && sn == name) {
            return Err(format!("flow end id {id} ({name}) has no matching start"));
        }
    }
    stats.flows = flow_starts.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        phase: TracePhase,
        name: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        tid: u32,
        flow_id: u64,
    ) -> TraceEvent {
        TraceEvent {
            ts_ns,
            dur_ns,
            tid,
            phase,
            cat: "test",
            name,
            flow_id,
            arg_key: "",
            arg_val: 0,
            arg2_key: "",
            arg2_val: 0,
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            ev(TracePhase::Span, "outer", 0, 10_000, 1, 0),
            ev(TracePhase::FlowStart, "link", 1_000, 0, 1, 7),
            ev(TracePhase::Span, "inner", 2_000, 3_000, 1, 0),
            ev(TracePhase::Instant, "tick", 4_000, 0, 1, 0),
            ev(TracePhase::Span, "other-thread", 5_000, 2_000, 2, 0),
            ev(TracePhase::FlowEnd, "link", 6_000, 0, 2, 7),
        ]
    }

    fn sample_threads() -> Vec<(u32, String)> {
        vec![(1, "main".to_owned()), (2, "worker-0".to_owned())]
    }

    #[test]
    fn chrome_export_validates_against_own_schema() {
        let json = export_chrome(&sample_events(), &sample_threads());
        let stats = validate_chrome(&json).expect("valid trace");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.flows, 1);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn chrome_export_carries_metadata_and_args() {
        let mut events = sample_events();
        events[0].arg_key = "frames";
        events[0].arg_val = 120;
        events[0].arg2_key = "candidates";
        events[0].arg2_val = 6;
        let json = export_chrome(&events, &sample_threads());
        let root = serde_json::parse_value(&json).unwrap();
        let items = match field(&root, "traceEvents").unwrap() {
            Value::Array(items) => items,
            _ => panic!("traceEvents not an array"),
        };
        let meta_names: Vec<&str> = items
            .iter()
            .filter(|e| field(e, "ph").and_then(str_of) == Some("M"))
            .map(|e| field(e, "name").and_then(str_of).unwrap())
            .collect();
        assert_eq!(
            meta_names,
            vec!["process_name", "thread_name", "thread_name"]
        );
        let outer = items
            .iter()
            .find(|e| field(e, "name").and_then(str_of) == Some("outer"))
            .unwrap();
        let args = field(outer, "args").expect("outer has args");
        assert_eq!(field(args, "frames").and_then(num), Some(120.0));
        assert_eq!(field(args, "candidates").and_then(num), Some(6.0));
        let line = export_jsonl(&events[..1]);
        let first = serde_json::parse_value(line.trim_end()).unwrap();
        assert_eq!(field(&first, "candidates").and_then(num), Some(6.0));
    }

    #[test]
    fn jsonl_export_is_one_valid_object_per_line() {
        let events = sample_events();
        let jsonl = export_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            let v = serde_json::parse_value(line).expect("valid JSON line");
            assert!(field(&v, "ph").is_some());
            assert!(field(&v, "ts_ns").is_some());
            assert!(field(&v, "name").is_some());
        }
        // Spans carry dur_ns, flows carry id, others omit both.
        let first = serde_json::parse_value(lines[0]).unwrap();
        assert_eq!(field(&first, "dur_ns").and_then(num), Some(10_000.0));
        let flow = serde_json::parse_value(lines[1]).unwrap();
        assert_eq!(field(&flow, "id").and_then(num), Some(7.0));
        assert!(field(&flow, "dur_ns").is_none());
    }

    #[test]
    fn validator_rejects_missing_required_fields() {
        let json = r#"{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":1}]}"#;
        let err = validate_chrome(json).unwrap_err();
        assert!(err.contains("name"), "unexpected error: {err}");

        let json = r#"{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":1,"name":"a"}]}"#;
        let err = validate_chrome(json).unwrap_err();
        assert!(err.contains("dur"), "unexpected error: {err}");

        let json = r#"{"notTraceEvents":[]}"#;
        assert!(validate_chrome(json).is_err());
    }

    #[test]
    fn validator_rejects_partial_span_overlap() {
        let events = vec![
            ev(TracePhase::Span, "a", 0, 5_000, 1, 0),
            ev(TracePhase::Span, "b", 3_000, 5_000, 1, 0),
        ];
        let json = export_chrome(&events, &[]);
        let err = validate_chrome(&json).unwrap_err();
        assert!(err.contains("overlap"), "unexpected error: {err}");
    }

    #[test]
    fn validator_rejects_unpaired_flows() {
        let events = vec![
            ev(TracePhase::Span, "a", 0, 5_000, 1, 0),
            ev(TracePhase::FlowStart, "lonely", 1_000, 0, 1, 3),
        ];
        let json = export_chrome(&events, &[]);
        let err = validate_chrome(&json).unwrap_err();
        assert!(err.contains("no matching end"), "unexpected error: {err}");
    }

    #[test]
    fn spans_on_different_threads_may_overlap() {
        let events = vec![
            ev(TracePhase::Span, "a", 0, 5_000, 1, 0),
            ev(TracePhase::Span, "b", 3_000, 5_000, 2, 0),
        ];
        let json = export_chrome(&events, &[]);
        assert!(validate_chrome(&json).is_ok());
    }
}
