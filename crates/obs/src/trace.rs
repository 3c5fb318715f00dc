//! Structured, thread-attributed event tracing.
//!
//! Where the metric layer aggregates (counters, histograms), the trace
//! layer records *individual* events on a timeline: spans (a named
//! duration on one thread), instants (a point in time), and flow events
//! (a directed arrow linking two spans, possibly on different threads).
//! A collected trace exports to Chrome trace-event JSON (viewable in
//! Perfetto / `chrome://tracing`, see [`crate::chrome`]) or to a compact
//! JSONL event log.
//!
//! # Cost model
//!
//! Tracing is **off by default**. Every recording call checks one
//! process-global `AtomicU8` with a relaxed load before doing anything
//! else; the disabled path performs **zero allocations and records zero
//! events** (asserted by the counter-based exporter tests, via
//! [`events_recorded`] and [`trace_allocs`]). When enabled, each event
//! is one push into the recording thread's own buffer behind an
//! uncontended mutex — threads never share a buffer, so recording does
//! not serialise the pipeline.
//!
//! Like metrics, traces observe and never steer: no simulated value or
//! clustering decision depends on the tracer, so results are
//! bit-identical with tracing on, off, or in flight-recorder mode.
//!
//! # Modes
//!
//! * [`TraceMode::Full`] retains every event until [`stop_tracing`] —
//!   what `subset3d trace-profile` and `--trace-out` use;
//! * [`TraceMode::Flight`] retains only the most recent
//!   [`FLIGHT_CAPACITY`] events per thread in a bounded ring — a flight
//!   recorder cheap enough to arm for whole runs, dumped post-hoc (via
//!   [`recent_events`] / [`install_panic_dump`]) when a run fails.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::Instant;

/// Events retained per thread in [`TraceMode::Flight`].
pub const FLIGHT_CAPACITY: usize = 1024;

/// What kind of timeline entry a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A completed duration on one thread (Chrome `ph: "X"`).
    Span,
    /// A point in time (Chrome `ph: "i"`).
    Instant,
    /// The tail of a flow arrow, bound to the enclosing span (`ph: "s"`).
    FlowStart,
    /// The head of a flow arrow, bound to the enclosing span (`ph: "f"`).
    FlowEnd,
}

/// One recorded event. Fixed-size and allocation-free: names and
/// categories are `&'static str`, the optional argument is a single
/// keyed `u64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (the first `start_tracing` of
    /// the process).
    pub ts_ns: u64,
    /// Duration in nanoseconds ([`TracePhase::Span`] only, else 0).
    pub dur_ns: u64,
    /// Stable per-thread id, assigned on the thread's first event.
    pub tid: u32,
    /// The event kind.
    pub phase: TracePhase,
    /// Coarse subsystem category (`pipeline`, `exec`, `gpusim`, …).
    pub cat: &'static str,
    /// Event name (dot-separated like metric names).
    pub name: &'static str,
    /// Flow-pairing id (flow events only, else 0). A start/end pair
    /// shares one id within one `(cat, name)`.
    pub flow_id: u64,
    /// Name of the optional argument (`""` when absent).
    pub arg_key: &'static str,
    /// Value of the optional argument.
    pub arg_val: u64,
    /// Name of the optional second argument (`""` when absent).
    pub arg2_key: &'static str,
    /// Value of the optional second argument.
    pub arg2_val: u64,
}

/// Retention policy of an active trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every event until [`stop_tracing`].
    Full,
    /// Keep only the last [`FLIGHT_CAPACITY`] events per thread.
    Flight,
}

const MODE_OFF: u8 = 0;
const MODE_FULL: u8 = 1;
const MODE_FLIGHT: u8 = 2;

static TRACE_MODE: AtomicU8 = AtomicU8::new(MODE_OFF);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static EVENTS_RECORDED: AtomicU64 = AtomicU64::new(0);
static EVENTS_DROPPED: AtomicU64 = AtomicU64::new(0);
static TRACE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Whether a trace is currently being recorded (any mode).
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_MODE.load(Ordering::Relaxed) != MODE_OFF
}

fn flight_mode() -> bool {
    TRACE_MODE.load(Ordering::Relaxed) == MODE_FLIGHT
}

/// Total events recorded since process start (all runs; tests diff it).
pub fn events_recorded() -> u64 {
    EVENTS_RECORDED.load(Ordering::Relaxed)
}

/// Events evicted by flight-recorder ring wrap since process start —
/// exactly those, nothing else: recording calls made while tracing is
/// off are rejected before they count as recorded *or* dropped, so
/// within one flight run `retained + dropped == recorded` holds (the
/// accounting test asserts it).
pub fn events_dropped() -> u64 {
    EVENTS_DROPPED.load(Ordering::Relaxed)
}

/// Buffer allocations performed by the tracer since process start
/// (thread-buffer registration and buffer growth). The disabled path
/// never allocates, which tests assert by diffing this counter.
pub fn trace_allocs() -> u64 {
    TRACE_ALLOCS.load(Ordering::Relaxed)
}

/// The trace epoch: set once, on the first `start_tracing` (or first
/// timestamp request) of the process, so timestamps from different runs
/// share one monotonic axis.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

// ---- per-thread buffers ----------------------------------------------

/// One thread's event buffer. In flight mode the `Vec` is used as a
/// bounded ring (`start` marks the oldest retained event).
struct Ring {
    items: Vec<TraceEvent>,
    start: usize,
}

impl Ring {
    /// Appends an event, evicting the oldest when `flight` and full.
    ///
    /// `flight` is the mode captured once by [`record`] — re-reading the
    /// global here would be a second, possibly disagreeing read (torn
    /// across a concurrent mode flip), misclassifying the push as
    /// append-vs-evict and miscounting [`EVENTS_DROPPED`]. The drop
    /// counter ticks exactly once per event evicted by ring wrap and
    /// nowhere else; recording calls rejected while tracing is off never
    /// reach this function, let alone the counter.
    fn push(&mut self, ev: TraceEvent, flight: bool) {
        if flight && self.items.len() >= FLIGHT_CAPACITY {
            self.items[self.start] = ev;
            self.start = (self.start + 1) % self.items.len();
            EVENTS_DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.items.len() == self.items.capacity() {
            TRACE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        self.items.push(ev);
    }

    /// The retained events, oldest first.
    fn drain_ordered(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.items.len());
        out.extend_from_slice(&self.items[self.start..]);
        out.extend_from_slice(&self.items[..self.start]);
        self.items.clear();
        self.start = 0;
        out
    }

    fn snapshot_ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.items.len());
        out.extend_from_slice(&self.items[self.start..]);
        out.extend_from_slice(&self.items[..self.start]);
        out
    }
}

struct ThreadBuf {
    tid: u32,
    thread_name: String,
    events: Mutex<Ring>,
}

/// Every registered thread buffer, in registration order. Buffers are
/// kept for the life of the process (threads are pooled and reused; the
/// set is small and bounded by peak thread count).
fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static THREAD_BUF: OnceLock<Arc<ThreadBuf>> = const { OnceLock::new() };
}

fn register_thread() -> Arc<ThreadBuf> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let thread_name = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let buf = Arc::new(ThreadBuf {
        tid,
        thread_name,
        events: Mutex::new(Ring {
            items: Vec::new(),
            start: 0,
        }),
    });
    TRACE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    lock(registry()).push(Arc::clone(&buf));
    buf
}

fn record(mut ev: TraceEvent) {
    // Read the mode exactly once per event and thread it through to the
    // ring, so a concurrent mode flip cannot change the eviction
    // decision (and with it the drop accounting) mid-record.
    let flight = flight_mode();
    THREAD_BUF.with(|cell| {
        let buf = cell.get_or_init(register_thread);
        ev.tid = buf.tid;
        lock(&buf.events).push(ev, flight);
    });
    EVENTS_RECORDED.fetch_add(1, Ordering::Relaxed);
}

// ---- control ----------------------------------------------------------

/// Starts recording a fresh trace in the given mode, clearing events
/// left over from any previous run. Process-global, like the metric
/// layer: nest runs at your own peril.
pub fn start_tracing(mode: TraceMode) {
    epoch();
    for buf in lock(registry()).iter() {
        let mut ring = lock(&buf.events);
        ring.items.clear();
        ring.start = 0;
    }
    TRACE_MODE.store(
        match mode {
            TraceMode::Full => MODE_FULL,
            TraceMode::Flight => MODE_FLIGHT,
        },
        Ordering::Relaxed,
    );
}

/// Stops recording and returns every retained event, sorted by
/// timestamp (ties broken by thread id). Spans sort by their *start*
/// time; a parent therefore precedes its children.
pub fn stop_tracing() -> Vec<TraceEvent> {
    TRACE_MODE.store(MODE_OFF, Ordering::Relaxed);
    let mut events = Vec::new();
    for buf in lock(registry()).iter() {
        events.extend(lock(&buf.events).drain_ordered());
    }
    sort_events(&mut events);
    events
}

/// The most recent `n` events across every thread, without stopping the
/// trace — what the flight-recorder dump uses on panic or error.
pub fn recent_events(n: usize) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for buf in lock(registry()).iter() {
        events.extend(lock(&buf.events).snapshot_ordered());
    }
    sort_events(&mut events);
    if events.len() > n {
        events.drain(..events.len() - n);
    }
    events
}

fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.ts_ns, e.tid, std::cmp::Reverse(e.dur_ns)));
}

/// The `(tid, thread name)` pairs of every thread that has recorded at
/// least one event, in registration order.
pub fn thread_names() -> Vec<(u32, String)> {
    lock(registry())
        .iter()
        .map(|buf| (buf.tid, buf.thread_name.clone()))
        .collect()
}

/// Installs a panic hook (once per process) that dumps the flight
/// recorder — the most recent [`FLIGHT_CAPACITY`] events — to stderr as
/// JSONL when a panic occurs while a trace is active, then delegates to
/// the previous hook. Failed runs stay diagnosable post-hoc.
pub fn install_panic_dump() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if trace_enabled() {
                let events = recent_events(FLIGHT_CAPACITY);
                eprintln!(
                    "subset3d flight recorder: {} most recent trace events follow",
                    events.len()
                );
                eprint!("{}", crate::chrome::export_jsonl(&events));
            }
            prev(info);
        }));
    });
}

// ---- recording API ----------------------------------------------------

/// An in-flight span: created by [`trace_span`], records one
/// [`TracePhase::Span`] event covering its lifetime when dropped.
///
/// While tracing is disabled the span is empty and costs one relaxed
/// atomic load at each end.
#[must_use = "a trace span times the scope it is bound to; binding it to _ drops it immediately"]
pub struct TraceSpan {
    inner: Option<SpanInner>,
}

struct SpanInner {
    cat: &'static str,
    name: &'static str,
    arg_key: &'static str,
    arg_val: u64,
    arg2: (&'static str, u64),
    start_ns: u64,
}

impl TraceSpan {
    /// Attaches (or replaces) the span's argument; useful when the value
    /// is only known at the end of the scope (iteration counts).
    pub fn set_arg(&mut self, key: &'static str, val: u64) {
        if let Some(inner) = &mut self.inner {
            inner.arg_key = key;
            inner.arg_val = val;
        }
    }

    /// Ends the span early, recording the time spent so far.
    pub fn end(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // The mode may have flipped off mid-span; skip the orphan.
            if trace_enabled() {
                record(TraceEvent {
                    ts_ns: inner.start_ns,
                    dur_ns: now_ns().saturating_sub(inner.start_ns),
                    tid: 0, // assigned by record()
                    phase: TracePhase::Span,
                    cat: inner.cat,
                    name: inner.name,
                    flow_id: 0,
                    arg_key: inner.arg_key,
                    arg_val: inner.arg_val,
                    arg2_key: inner.arg2.0,
                    arg2_val: inner.arg2.1,
                });
            }
        }
    }
}

/// Starts a span on the current thread.
#[inline]
pub fn trace_span(cat: &'static str, name: &'static str) -> TraceSpan {
    trace_span_arg(cat, name, "", 0)
}

/// Starts a span carrying one keyed argument.
#[inline]
pub fn trace_span_arg(
    cat: &'static str,
    name: &'static str,
    arg_key: &'static str,
    arg_val: u64,
) -> TraceSpan {
    trace_span_args(cat, name, (arg_key, arg_val), ("", 0))
}

/// Starts a span carrying two keyed arguments.
#[inline]
pub fn trace_span_args(
    cat: &'static str,
    name: &'static str,
    (arg_key, arg_val): (&'static str, u64),
    arg2: (&'static str, u64),
) -> TraceSpan {
    TraceSpan {
        inner: trace_enabled().then(|| SpanInner {
            cat,
            name,
            arg_key,
            arg_val,
            arg2,
            start_ns: now_ns(),
        }),
    }
}

#[inline]
fn point(phase: TracePhase, cat: &'static str, name: &'static str, flow_id: u64) {
    point_arg(phase, cat, name, flow_id, "", 0);
}

#[inline]
fn point_arg(
    phase: TracePhase,
    cat: &'static str,
    name: &'static str,
    flow_id: u64,
    arg_key: &'static str,
    arg_val: u64,
) {
    if !trace_enabled() {
        return;
    }
    record(TraceEvent {
        ts_ns: now_ns(),
        dur_ns: 0,
        tid: 0,
        phase,
        cat,
        name,
        flow_id,
        arg_key,
        arg_val,
        arg2_key: "",
        arg2_val: 0,
    });
}

/// Records an instant event on the current thread.
#[inline]
pub fn trace_instant(cat: &'static str, name: &'static str) {
    point(TracePhase::Instant, cat, name, 0);
}

/// Records an instant event carrying one keyed argument.
#[inline]
pub fn trace_instant_arg(cat: &'static str, name: &'static str, key: &'static str, val: u64) {
    point_arg(TracePhase::Instant, cat, name, 0, key, val);
}

/// Records the tail of a flow arrow. The arrow binds to the span
/// enclosing this call; the matching [`trace_flow_end`] must use the
/// same `(cat, name, id)`.
#[inline]
pub fn trace_flow_start(cat: &'static str, name: &'static str, id: u64) {
    point(TracePhase::FlowStart, cat, name, id);
}

/// Records the head of a flow arrow (see [`trace_flow_start`]).
#[inline]
pub fn trace_flow_end(cat: &'static str, name: &'static str, id: u64) {
    point(TracePhase::FlowEnd, cat, name, id);
}

// ---- self-time summary -------------------------------------------------

/// Aggregate wall time of one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// The span name.
    pub name: &'static str,
    /// How many spans carried the name.
    pub count: u64,
    /// Total wall time, children included.
    pub total_ns: u64,
    /// Wall time not covered by child spans on the same thread.
    pub self_ns: u64,
}

/// Per-name span aggregation with nesting-aware self time, sorted by
/// descending self time. A span's children are the spans on the same
/// thread wholly contained in it; self time is its duration minus its
/// *direct* children's.
pub fn self_time(events: &[TraceEvent]) -> Vec<SelfTime> {
    use std::collections::BTreeMap;

    struct Open {
        name: &'static str,
        end_ns: u64,
        dur_ns: u64,
        child_ns: u64,
    }

    let mut agg: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let finalize = |open: Open, agg: &mut BTreeMap<&'static str, SelfTime>| {
        let entry = agg.entry(open.name).or_insert(SelfTime {
            name: open.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        entry.count += 1;
        entry.total_ns += open.dur_ns;
        entry.self_ns += open.dur_ns.saturating_sub(open.child_ns);
    };

    let mut tids: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        if ev.phase == TracePhase::Span {
            tids.entry(ev.tid).or_default().push(ev);
        }
    }
    for spans in tids.values_mut() {
        // Parents first: earlier start, then longer duration.
        spans.sort_by_key(|s| (s.ts_ns, std::cmp::Reverse(s.dur_ns)));
        let mut stack: Vec<Open> = Vec::new();
        for span in spans.iter() {
            while let Some(top) = stack.last() {
                if top.end_ns <= span.ts_ns {
                    let done = stack.pop().expect("non-empty stack");
                    let dur = done.dur_ns;
                    finalize(done, &mut agg);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_ns += dur;
                    }
                } else {
                    break;
                }
            }
            stack.push(Open {
                name: span.name,
                end_ns: span.ts_ns + span.dur_ns,
                dur_ns: span.dur_ns,
                child_ns: 0,
            });
        }
        while let Some(done) = stack.pop() {
            let dur = done.dur_ns;
            finalize(done, &mut agg);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += dur;
            }
        }
    }
    let mut out: Vec<SelfTime> = agg.into_values().collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; tests in this module serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_trace<R>(mode: TraceMode, f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start_tracing(mode);
        let out = f();
        (out, stop_tracing())
    }

    #[test]
    fn spans_and_instants_are_recorded_in_order() {
        let (_, events) = with_trace(TraceMode::Full, || {
            let outer = trace_span("test", "outer");
            trace_instant("test", "tick");
            {
                let _inner = trace_span_arg("test", "inner", "k", 7);
            }
            outer.end();
        });
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        // The outer span sorts by its start, so it precedes everything.
        assert_eq!(names, vec!["outer", "tick", "inner"]);
        let outer = &events[0];
        let inner = &events[2];
        assert_eq!(outer.phase, TracePhase::Span);
        assert!(outer.dur_ns > 0);
        assert!(inner.ts_ns >= outer.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
        assert_eq!((inner.arg_key, inner.arg_val), ("k", 7));
        // All on one thread.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
    }

    #[test]
    fn flow_events_pair_up() {
        let (_, events) = with_trace(TraceMode::Full, || {
            let s = trace_span("test", "a");
            trace_flow_start("test", "link", 42);
            s.end();
            let s = trace_span("test", "b");
            trace_flow_end("test", "link", 42);
            s.end();
        });
        let start = events
            .iter()
            .find(|e| e.phase == TracePhase::FlowStart)
            .unwrap();
        let end = events
            .iter()
            .find(|e| e.phase == TracePhase::FlowEnd)
            .unwrap();
        assert_eq!(start.flow_id, 42);
        assert_eq!(end.flow_id, 42);
        assert!(start.ts_ns <= end.ts_ns);
    }

    #[test]
    fn disabled_tracing_records_nothing_and_allocates_nothing() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!trace_enabled());
        let recorded = events_recorded();
        let dropped = events_dropped();
        let allocs = trace_allocs();
        for _ in 0..100 {
            let _s = trace_span("test", "noop");
            trace_instant("test", "noop");
            trace_flow_start("test", "noop", 1);
            trace_flow_end("test", "noop", 1);
        }
        assert_eq!(events_recorded(), recorded, "disabled path recorded events");
        assert_eq!(
            events_dropped(),
            dropped,
            "rejected-while-off events counted as dropped"
        );
        assert_eq!(trace_allocs(), allocs, "disabled path allocated");
    }

    #[test]
    fn flight_mode_bounds_retention() {
        let (_, events) = with_trace(TraceMode::Flight, || {
            for i in 0..(FLIGHT_CAPACITY as u64 + 500) {
                trace_instant_arg("test", "flood", "i", i);
            }
        });
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        // The retained window is the most recent events, in order.
        let vals: Vec<u64> = events.iter().map(|e| e.arg_val).collect();
        assert_eq!(vals[0], 500);
        assert_eq!(*vals.last().unwrap(), FLIGHT_CAPACITY as u64 + 499);
        assert!(events_dropped() >= 500);
    }

    #[test]
    fn flight_drop_accounting_is_exact() {
        // Wrap the ring well past capacity on one thread and check the
        // books balance: every event is recorded, exactly the evicted
        // ones are dropped, and retained + dropped == recorded.
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let recorded0 = events_recorded();
        let dropped0 = events_dropped();
        const EXTRA: u64 = 317;
        start_tracing(TraceMode::Flight);
        for i in 0..(FLIGHT_CAPACITY as u64 + EXTRA) {
            trace_instant_arg("test", "wrap", "i", i);
        }
        let events = stop_tracing();
        let recorded = events_recorded() - recorded0;
        let dropped = events_dropped() - dropped0;
        assert_eq!(recorded, FLIGHT_CAPACITY as u64 + EXTRA);
        assert_eq!(dropped, EXTRA, "dropped must count ring evictions only");
        assert_eq!(events.len() as u64 + dropped, recorded);
        // The retained window is exactly the newest FLIGHT_CAPACITY.
        assert_eq!(events.first().unwrap().arg_val, EXTRA);
        assert_eq!(
            events.last().unwrap().arg_val,
            FLIGHT_CAPACITY as u64 + EXTRA - 1
        );
    }

    #[test]
    fn threads_are_attributed_separately() {
        let (_, events) = with_trace(TraceMode::Full, || {
            let _outer = trace_span("test", "main-span");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _s = trace_span("test", "worker-span");
                    });
                }
            });
        });
        let tids: std::collections::BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 3, "expected 3 distinct threads: {events:?}");
        let names = thread_names();
        for tid in tids {
            assert!(names.iter().any(|(t, _)| *t == tid), "tid {tid} unnamed");
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mk = |name, ts, dur| TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            tid: 1,
            phase: TracePhase::Span,
            cat: "t",
            name,
            flow_id: 0,
            arg_key: "",
            arg_val: 0,
            arg2_key: "",
            arg2_val: 0,
        };
        // parent [0,100) with children [10,30) and [40,90); grandchild
        // [50,60) belongs to the second child, not the parent.
        let events = vec![
            mk("parent", 0, 100),
            mk("child", 10, 20),
            mk("child", 40, 50),
            mk("grand", 50, 10),
        ];
        let summary = self_time(&events);
        let get = |n: &str| summary.iter().find(|s| s.name == n).unwrap();
        assert_eq!(get("parent").total_ns, 100);
        assert_eq!(get("parent").self_ns, 30);
        assert_eq!(get("child").count, 2);
        assert_eq!(get("child").total_ns, 70);
        assert_eq!(get("child").self_ns, 60);
        assert_eq!(get("grand").self_ns, 10);
    }

    #[test]
    fn start_tracing_clears_previous_run() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start_tracing(TraceMode::Full);
        trace_instant("test", "stale");
        // Abandon without stopping, then start a fresh run.
        start_tracing(TraceMode::Full);
        trace_instant("test", "fresh");
        let events = stop_tracing();
        assert!(events.iter().all(|e| e.name != "stale"));
        assert!(events.iter().any(|e| e.name == "fresh"));
    }

    #[test]
    fn recent_events_returns_tail_without_stopping() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        start_tracing(TraceMode::Full);
        for i in 0..10 {
            trace_instant_arg("test", "seq", "i", i);
        }
        let tail = recent_events(3);
        assert!(trace_enabled(), "recent_events must not stop the trace");
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].arg_val, 9);
        stop_tracing();
    }
}
