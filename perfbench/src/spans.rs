//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer in a span: name, start, end,
//! parent span and request id. Spans stay in memory until the run ends;
//! per-layer metrics are sums of self time (a span's duration minus the
//! part of it its children cover) under each root span.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer call the span times, e.g. `gpusim.simulate_frame`.
    pub name: &'static str,
    /// Request the work belongs to: `game/frame` or `session/chunk`.
    pub request: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; does nothing (not even read the clock)
/// when disabled.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Recorder::close`] finishes it.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: String,
    start_ns: u64,
}

impl Open {
    /// The id children pass as their parent (`None` when disabled).
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Recorder {
    /// A recorder that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `request` is only evaluated when enabled.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: impl FnOnce() -> String,
    ) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                request: String::new(),
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request: request(),
            start_ns: self.now_ns(),
        }
    }

    /// Finishes `open` and keeps it.
    pub fn close(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder thread")
            .push(span);
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    /// Every span kept so far, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer poisoned by a panicking recorder thread"),
        );
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// union of the intervals its children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// For every span named `root`, the summed self time in milliseconds of
/// its descendants named `layer` (in root id order).
pub fn layer_ms_per_root(spans: &[Span], root: &str, layer: &str) -> Vec<f64> {
    let self_ns = self_times(spans);
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut totals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.id, 0))
        .collect();
    let index: HashMap<u64, usize> = totals
        .iter()
        .enumerate()
        .map(|(i, &(id, _))| (id, i))
        .collect();
    for (s, &ns) in spans.iter().zip(&self_ns) {
        if s.name != layer {
            continue;
        }
        let mut cursor = s.parent;
        while let Some(id) = cursor {
            if let Some(&i) = index.get(&id) {
                totals[i].1 += ns;
                break;
            }
            cursor = parent.get(&id).copied().flatten();
        }
    }
    totals.iter().map(|&(_, ns)| ns as f64 / 1e6).collect()
}

/// Total self time per span name, in milliseconds, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_default() += ns;
    }
    let mut rows: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let value = serde_json::Value::Object(vec![
            ("id".into(), serde_json::Value::UInt(s.id)),
            (
                "parent".into(),
                s.parent
                    .map_or(serde_json::Value::Null, serde_json::Value::UInt),
            ),
            ("name".into(), serde_json::Value::Str(s.name.into())),
            ("request".into(), serde_json::Value::Str(s.request.clone())),
            ("start_ns".into(), serde_json::Value::UInt(s.start_ns)),
            ("end_ns".into(), serde_json::Value::UInt(s.end_ns)),
        ]);
        out.push_str(&serde_json::to_string(&value).expect("span JSON is infallible"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: format!("r{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 50), // overlaps a by 10
            span(4, Some(2), "c", 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 20, 5]);
    }

    #[test]
    fn layer_totals_are_grouped_by_root() {
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "game", 0, 100),
            span(3, Some(2), "sim", 0, 30),
            span(4, Some(2), "sim", 40, 50),
            span(5, None, "pass", 100, 200),
            span(6, Some(5), "sim", 100, 101),
        ];
        assert_eq!(layer_ms_per_root(&spans, "pass", "sim"), vec![40e-6, 1e-6]);
        let table = self_time_table(&spans);
        assert_eq!(table[0].0, "pass");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let open = rec.open("x", None, || unreachable!("request built while disabled"));
        assert_eq!(open.id(), None);
        rec.close(open);
        assert_eq!(rec.time("y", None, String::new, || 7), 7);
        assert!(rec.take().is_empty());
    }

    #[test]
    fn enabled_recorder_links_parents_and_writes_jsonl() {
        let rec = Recorder::new(true);
        let root = rec.open("root", None, || "g0".into());
        rec.time("leaf", root.id(), || "g0/f0".into(), || ());
        rec.close(root);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let text = to_jsonl(&spans);
        let first = serde_json::parse_value(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("root"));
    }
}
