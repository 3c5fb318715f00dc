//! Draw-cost memoization at shape and batch grain.
//!
//! The analytical cost of a draw depends only on the features
//! `analyze_draw` consumes — never on labels like the draw id, interned
//! state id, or the generator's material tag. Costs are therefore cached
//! by *content*: two draws share an entry exactly when `analyze_draw`
//! would receive bit-identical arguments, so a memoized result is
//! bit-identical to an uncached one by construction.
//!
//! A lookup must be much cheaper than `analyze_draw` itself (a few
//! hundred nanoseconds), which drives the key design: a draw is keyed by
//! a 128-bit **shape digest** — two independent 64-bit FNV-1a streams
//! folded over the exact bit patterns of every model input (fixed
//! function, rasterisation statistics, warmth, render target, both
//! shader mixes, the texture-registry fingerprint, and the raw bound
//! texture ids). Digesting reads the words straight out of the columnar
//! draw storage and never allocates or compares long keys; the map is
//! `HashMap<[u64; 2], DrawCost>` behind a pass-through hasher, so a
//! probe hashes nothing and compares 16 bytes. An accidental collision
//! is a 2⁻¹²⁸ event — the same contract the registry fingerprint and
//! the frame digests of earlier revisions already relied on.
//!
//! Shape-grain memoization pays off *within* a pass (real traces repeat
//! materials verbatim ~10×), but whether it pays depends on the trace,
//! so the cache defaults to [`CacheMode::Auto`]: it observes its own hit
//! rate over an adaptation window and bypasses itself when memoization
//! is not covering its bookkeeping. Unlike earlier revisions, the
//! disable is **not latched for the process lifetime**: after
//! [`REPROBE_AFTER_BATCHES`] bypassed batches the cache re-arms a fresh
//! observation window, so a workload whose redundancy changes mid-stream
//! (or a second pass over the same stream) gets memoization back.
//!
//! Re-simulation — the sweep-session case — is served at **batch**
//! grain: the simulator evaluates draws in fixed-width batches, and
//! [`CacheMode::On`] retains each batch's costs under a digest of its
//! draw shapes. A warm pass probes once per batch (not once per draw)
//! and reads the whole cost slice in place, replacing the per-frame
//! cache whose single-probe-per-frame design could not amortise
//! digesting on cold streams. A sweep session digests every batch key
//! once per sweep and shares the keys across its candidates.
//!
//! The shape map is sharded to keep simulation workers from serialising
//! on one lock; each shard is a `parking_lot::RwLock<HashMap>`.

use crate::cost::DrawCost;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use subset3d_obs::LazyCounter;
use subset3d_trace::TextureRegistry;

// Process-global mirrors of the per-cache counters (see `subset3d_obs`):
// each simulator keeps exact per-instance stats in `CacheStats`; these
// aggregate the same events across every cache in the process so a
// `MetricsSnapshot` shows cache behaviour without holding a `Simulator`.
// They tick once per *draw* on the hottest simulation path, which is why
// the obs layer shards them per thread — with process-global `fetch_add`
// counters, simulation workers fighting over these cache lines cost ~5 %
// of the parallel pass (bench-measured; budget < 2 %).
static OBS_DRAW_HITS: LazyCounter = LazyCounter::new("gpusim.draw_cache.hits");
static OBS_DRAW_MISSES: LazyCounter = LazyCounter::new("gpusim.draw_cache.misses");
static OBS_DRAW_BYPASSED: LazyCounter = LazyCounter::new("gpusim.draw_cache.bypassed");
static OBS_AUTO_DISABLE: LazyCounter = LazyCounter::new("gpusim.draw_cache.auto_disable");
static OBS_REPROBE: LazyCounter = LazyCounter::new("gpusim.draw_cache.reprobe");
static OBS_HINT_ADOPTED: LazyCounter = LazyCounter::new("gpusim.draw_cache.hint_adopted");
static OBS_DRAW_EVICTED: LazyCounter = LazyCounter::new("gpusim.draw_cache.evicted");
static OBS_BATCH_HITS: LazyCounter = LazyCounter::new("gpusim.batch_cache.hits");
static OBS_BATCH_MISSES: LazyCounter = LazyCounter::new("gpusim.batch_cache.misses");
static OBS_BATCH_EVICTED: LazyCounter = LazyCounter::new("gpusim.batch_cache.evicted");

const SHARDS: usize = 16;

/// Lookups observed before [`CacheMode::Auto`] judges profitability.
/// Small enough that an unprofitable stream pays for only a fraction of
/// a percent of a full pass in bookkeeping.
pub(crate) const ADAPT_WINDOW: u64 = 512;

/// Minimum hit rate over the window for `Auto` to keep memoizing.
const ADAPT_MIN_HIT_RATE: f64 = 0.05;

/// Bypassed batches tolerated before a self-disabled cache re-arms a
/// fresh observation window — the *base* of the re-probe schedule. At
/// the default batch width this spaces re-probes tens of thousands of
/// draws apart, so a stream that stays unprofitable pays well under a
/// percent for the periodic check while a stream whose redundancy
/// returns is picked back up promptly.
pub(crate) const REPROBE_AFTER_BATCHES: u64 = 256;

/// Ceiling of the re-probe backoff. Each re-probe whose fresh window is
/// again judged unprofitable doubles the interval until the next probe,
/// capped here; a probe whose window proves profitable resets the
/// interval to [`REPROBE_AFTER_BATCHES`]. Without the backoff a stream
/// that never profits oscillates disable/re-probe every
/// [`REPROBE_AFTER_BATCHES`] batches for its whole duration, paying a
/// full probe window of bookkeeping per oscillation.
pub(crate) const REPROBE_BACKOFF_CAP: u64 = 8192;

/// Lookups observed before a *re-probe* window is judged. Re-probes are
/// a recurring tax on streams that already proved unprofitable once, so
/// they are judged from a quarter of the initial window: enough samples
/// to notice redundancy returning (at [`ADAPT_MIN_HIT_RATE`] that is
/// ~6 hits), a quarter of the digest/probe/insert bookkeeping when it
/// has not. The *initial* window stays at [`ADAPT_WINDOW`] — a fresh
/// stream must never be written off from a partial observation.
pub(crate) const REPROBE_WINDOW: u64 = 128;

/// Bound on the process-global adaptation-hint table: one entry per
/// distinct stream the process has judged unprofitable. When full, the
/// table is dropped wholesale — hints are pure policy and rediscoverable
/// at the cost of one observation window, so a crude reset beats an
/// eviction order nobody can justify.
const HINT_CAP: usize = 512;

/// Process-global memory of [`CacheMode::Auto`] profitability judgments,
/// keyed by stream content ([`StreamKey`]). Value: the re-probe interval
/// in effect when the stream was last judged unprofitable.
///
/// Every fresh `Simulator` re-pays the [`ADAPT_WINDOW`] observation
/// window before it discovers that a stream it has simulated a dozen
/// times already does not memoize — measurable against the uncached
/// baseline on single-pass benches, and pure waste for serve sessions,
/// which build a fresh simulator per session over the same tables. A
/// judged window publishes its verdict here; [`ShapeCache::set_stream_key`]
/// adopts it at pass start. Hints steer *policy only* (whether lookups
/// probe the map), never values, so results stay bit-identical with the
/// table hot, cold, or cleared; a wrong or stale hint is repaired by the
/// normal re-probe schedule, and a window that proves profitable removes
/// the hint for every simulator that comes after.
static ADAPT_HINTS: OnceLock<Mutex<HashMap<[u64; 2], u64>>> = OnceLock::new();

fn adapt_hints() -> &'static Mutex<HashMap<[u64; 2], u64>> {
    ADAPT_HINTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Drops every recorded adaptation hint. Policy-only: the next pass over
/// any stream re-pays its observation window and re-learns. Exposed for
/// benches and tests that need hermetic adaptation behaviour.
pub fn clear_adapt_hints() {
    adapt_hints().lock().clear();
}

/// Content identity of one draw stream for adaptation hints: a 128-bit
/// digest of the texture-registry fingerprint and the workload name.
/// Two streams share a key exactly when they run over the same tables
/// under the same name — the serve-session case, where every session's
/// fresh simulator replays the same source. A collision merely shares a
/// *policy* hint, which the re-probe schedule repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamKey(pub(crate) [u64; 2]);

impl StreamKey {
    pub(crate) fn of(registry: RegistryFingerprint, name: &str) -> Self {
        let mut h = ShapeHasher::new();
        h.word(registry.0[0]);
        h.word(registry.0[1]);
        for chunk in name.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h.word(u64::from_le_bytes(w));
        }
        StreamKey(h.finish())
    }
}

/// FNV-1a offset bases of the two independent digest streams, and the
/// shared 64-bit FNV prime.
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Memoization policy of a simulator's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CacheMode {
    /// Memoize draw costs by shape, but self-disable when the observed
    /// hit rate over an [`ADAPT_WINDOW`]-lookup window shows memoization
    /// is not profitable — and re-probe after
    /// [`REPROBE_AFTER_BATCHES`] bypassed batches rather than staying
    /// off for the process lifetime. Batch costs are not retained. The
    /// single-pass default.
    Auto = 0,
    /// Re-simulation mode: additionally retain every evaluated batch's
    /// costs, so repeating a pass over the same workload (sweep
    /// sessions, validation flows) is served batch-wholesale. Shape
    /// memoization stays adaptive as in [`CacheMode::Auto`].
    On = 1,
    /// Never memoize; every lookup computes. The uncached baseline.
    Off = 2,
}

/// A 128-bit FNV-1a digest of a [`TextureRegistry`]'s full contents.
///
/// Keying draws on raw texture ids is only sound within one registry;
/// folding this fingerprint into every shape digest extends that to any
/// registry whose *content* matches, and separates registries that
/// merely reuse ids. Two independent 64-bit FNV streams (distinct
/// offset bases) make an accidental cross-registry collision a 2⁻¹²⁸
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegistryFingerprint(pub(crate) [u64; 2]);

impl RegistryFingerprint {
    /// Digests every descriptor of `textures`, in registry (id) order.
    pub(crate) fn of(textures: &TextureRegistry) -> Self {
        let mut streams = ShapeHasher::new();
        for t in textures.iter() {
            streams.word(u64::from(t.id.0));
            streams.word(u64::from(t.width) | u64::from(t.height) << 32);
            streams.word(u64::from(t.mips) | (t.format as u64) << 32);
        }
        RegistryFingerprint(streams.streams)
    }
}

/// Dual-stream FNV-1a word folder: the primitive under shape digests,
/// batch digests, and the registry fingerprint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShapeHasher {
    streams: [u64; 2],
    words: u64,
}

impl ShapeHasher {
    pub(crate) fn new() -> Self {
        ShapeHasher {
            streams: [FNV_BASIS_A, FNV_BASIS_B],
            words: 0,
        }
    }

    /// Folds one 64-bit word into both streams.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.streams[0] = (self.streams[0] ^ w).wrapping_mul(FNV_PRIME);
        self.streams[1] = (self.streams[1] ^ w).wrapping_mul(FNV_PRIME);
        self.words += 1;
    }

    /// Finishes the digest: the word count is folded last so sequences
    /// of different lengths whose concatenations coincide stay distinct.
    #[inline]
    pub(crate) fn finish(mut self) -> [u64; 2] {
        let n = self.words;
        self.word(n);
        self.streams
    }
}

/// Content-addressed key of one draw in one warmth context: a 128-bit
/// digest of every `analyze_draw` input. Label fields (`id`, `state`,
/// `material_tag`, shader ids/names) are deliberately excluded by the
/// packing in `sim.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DrawShape(pub(crate) [u64; 2]);

impl std::hash::Hash for DrawShape {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0[0]);
    }
}

impl DrawShape {
    fn shard(&self) -> usize {
        // The map consumes the low bits (HashMap masks with capacity-1),
        // so shards take the high ones.
        (self.0[0] >> 60) as usize % SHARDS
    }
}

/// Content-addressed key of one fixed-width batch: a 128-bit digest of
/// the batch's draw shapes, in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchKey([u64; 2]);

impl std::hash::Hash for BatchKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0[0]);
    }
}

impl BatchKey {
    /// Digests a batch's draw shapes, in submission order. The shape
    /// count is folded by [`ShapeHasher::finish`], so a prefix batch
    /// never collides with its extension (ragged tail batches).
    pub(crate) fn of(shapes: &[DrawShape]) -> Self {
        let mut h = ShapeHasher::new();
        for s in shapes {
            h.word(s.0[0]);
            h.word(s.0[1]);
        }
        BatchKey(h.finish())
    }
}

/// Feeds a digest's precomputed first word straight to the map.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("digest keys hash via write_u64 only");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type Shard = RwLock<HashMap<DrawShape, DrawCost, BuildHasherDefault<PassThroughHasher>>>;

/// Memoization counters of a simulator, taken at one instant.
///
/// `hits`/`misses`/`bypassed` count **shape-grain** (per-draw) lookups;
/// `batch_hits`/`batch_misses` count **batch-grain** lookups (only made
/// in [`CacheMode::On`]). A batch served from the batch cache performs
/// no shape-grain lookups at all. `auto_disables` counts the times the
/// adaptive policy judged a window unprofitable and switched the shape
/// cache off; `reprobes` counts the times a switched-off cache re-armed
/// a fresh window after [`REPROBE_AFTER_BATCHES`] bypassed batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Shape lookups answered from the cache.
    pub hits: u64,
    /// Shape lookups that ran the analytical model (and populated the
    /// cache).
    pub misses: u64,
    /// Shape lookups that skipped the cache entirely (`Off` mode, or
    /// while adaptively self-disabled).
    pub bypassed: u64,
    /// Whole batches served from the batch cache.
    pub batch_hits: u64,
    /// Batch lookups that evaluated draw by draw (and retained the
    /// result).
    pub batch_misses: u64,
    /// Times the adaptive policy disabled the shape cache.
    pub auto_disables: u64,
    /// Times a disabled shape cache re-armed for a fresh probe window.
    pub reprobes: u64,
}

impl CacheStats {
    /// Shape hits as a fraction of memoized shape lookups, or `None`
    /// when the cache never **served** a lookup (zero hits). Bypassed
    /// lookups are excluded.
    ///
    /// A disabled-from-start cache and one that probed a window, hit
    /// nothing, and disabled itself are reported identically: neither
    /// served anything, so neither has a meaningful rate. A probe
    /// window's all-miss `0.0` is bookkeeping, not cache behaviour —
    /// reporting it as a rate made interval deltas flap between `0.0`
    /// and `null` depending on whether a probe happened to fall inside
    /// the interval.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.hits == 0 {
            None
        } else {
            Some(self.hits as f64 / (self.hits + self.misses) as f64)
        }
    }

    /// Batch hits as a fraction of batch lookups, or `None` when the
    /// batch cache never served a lookup (zero batch hits) — the same
    /// convention as [`CacheStats::hit_rate`].
    pub fn batch_hit_rate(&self) -> Option<f64> {
        if self.batch_hits == 0 {
            None
        } else {
            Some(self.batch_hits as f64 / (self.batch_hits + self.batch_misses) as f64)
        }
    }

    /// Counter-wise difference `self − earlier`: the cache activity
    /// between two snapshots of the same simulator. Saturating, so a
    /// snapshot pair straddling a counter reset — [`ShapeCache::clear`]
    /// on a config change, which also re-arms the adaptive
    /// disable/re-probe cycle mid-interval — clamps the shrunken fields
    /// (`auto_disables`, `reprobes`, and any lookup counter that
    /// restarted below the earlier snapshot) to zero instead of
    /// wrapping to enormous values. Long-lived observers such as the
    /// serve layer take deltas on a cadence they do not control, so
    /// they cannot avoid straddling resets.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            bypassed: self.bypassed.saturating_sub(earlier.bypassed),
            batch_hits: self.batch_hits.saturating_sub(earlier.batch_hits),
            batch_misses: self.batch_misses.saturating_sub(earlier.batch_misses),
            auto_disables: self.auto_disables.saturating_sub(earlier.auto_disables),
            reprobes: self.reprobes.saturating_sub(earlier.reprobes),
        }
    }
}

/// Sharded, thread-safe memo table from [`DrawShape`] to [`DrawCost`].
///
/// Shared by every worker simulating on one `Simulator`; scoped to one
/// architecture configuration (the owner clears it when the config
/// changes).
pub(crate) struct ShapeCache {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    bypassed: AtomicU64,
    auto_disables: AtomicU64,
    reprobes: AtomicU64,
    /// Hit/miss counts of the *current* observation window; reset when
    /// a window is judged or re-armed, unlike the cumulative stats.
    window_hits: AtomicU64,
    window_misses: AtomicU64,
    /// Batches bypassed since the last auto-disable; drives re-probing.
    bypassed_batches: AtomicU64,
    /// Bypassed batches required before the *next* re-probe: starts at
    /// [`REPROBE_AFTER_BATCHES`], doubles after every failed re-probe up
    /// to [`REPROBE_BACKOFF_CAP`], and resets on a profitable window.
    reprobe_interval: AtomicU64,
    /// Set between a re-probe and its window judgment, so a disable can
    /// tell a *failed probe* (back off) from a first-time disable.
    probing: AtomicU8,
    mode: AtomicU8,
    /// Set when `Auto` judged memoization unprofitable; cleared by
    /// re-probing, [`ShapeCache::set_mode`] and [`ShapeCache::clear`].
    auto_bypass: AtomicU8,
    /// The [`StreamKey`] of the stream currently feeding this cache
    /// (valid when `stream_key_set` is 1); window judgments publish
    /// their verdict to [`ADAPT_HINTS`] under it.
    stream_key: [AtomicU64; 2],
    stream_key_set: AtomicU8,
}

impl ShapeCache {
    pub(crate) fn new() -> Self {
        ShapeCache {
            shards: std::array::from_fn(|_| Shard::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
            auto_disables: AtomicU64::new(0),
            reprobes: AtomicU64::new(0),
            window_hits: AtomicU64::new(0),
            window_misses: AtomicU64::new(0),
            bypassed_batches: AtomicU64::new(0),
            reprobe_interval: AtomicU64::new(REPROBE_AFTER_BATCHES),
            probing: AtomicU8::new(0),
            mode: AtomicU8::new(CacheMode::Auto as u8),
            auto_bypass: AtomicU8::new(0),
            stream_key: [AtomicU64::new(0), AtomicU64::new(0)],
            stream_key_set: AtomicU8::new(0),
        }
    }

    /// Declares the stream about to feed this cache. Called once at
    /// pass start (and per frame by incremental callers — a repeat of
    /// the current key is two relaxed loads). On a key *change* the
    /// cache consults [`ADAPT_HINTS`]: a stream this process already
    /// judged unprofitable starts bypassed at the learned re-probe
    /// backoff instead of re-paying the observation window per
    /// simulator instance. Policy only — results are bit-identical
    /// either way, and the scheduled re-probe still runs, so a stream
    /// whose redundancy returned is picked back up.
    pub(crate) fn set_stream_key(&self, key: StreamKey) {
        if self.stream_key_set.load(Ordering::Relaxed) == 1
            && self.stream_key[0].load(Ordering::Relaxed) == key.0[0]
            && self.stream_key[1].load(Ordering::Relaxed) == key.0[1]
        {
            return;
        }
        self.stream_key[0].store(key.0[0], Ordering::Relaxed);
        self.stream_key[1].store(key.0[1], Ordering::Relaxed);
        self.stream_key_set.store(1, Ordering::Relaxed);
        if self.mode.load(Ordering::Relaxed) == CacheMode::Off as u8 {
            return; // `Off` bypasses deliberately; hints are adaptation policy.
        }
        if let Some(&interval) = adapt_hints().lock().get(&key.0) {
            self.auto_bypass.store(1, Ordering::Relaxed);
            self.bypassed_batches.store(0, Ordering::Relaxed);
            self.window_hits.store(0, Ordering::Relaxed);
            self.window_misses.store(0, Ordering::Relaxed);
            self.probing.store(0, Ordering::Relaxed);
            self.reprobe_interval.store(interval, Ordering::Relaxed);
            OBS_HINT_ADOPTED.incr();
            subset3d_obs::trace_instant("gpusim", "draw_cache.hint_adopted");
        }
    }

    /// The declared stream key, if any.
    fn current_stream_key(&self) -> Option<[u64; 2]> {
        (self.stream_key_set.load(Ordering::Relaxed) == 1).then(|| {
            [
                self.stream_key[0].load(Ordering::Relaxed),
                self.stream_key[1].load(Ordering::Relaxed),
            ]
        })
    }

    /// Whether a shape lookup should consult the map right now.
    /// Shape-grain memoization is adaptive in both `Auto` and `On`.
    pub(crate) fn memoizing(&self) -> bool {
        self.mode.load(Ordering::Relaxed) != CacheMode::Off as u8
            && self.auto_bypass.load(Ordering::Relaxed) == 0
    }

    /// Returns the memoized cost for the shape `digest` produces, or
    /// computes it with `compute`, stores it, and returns it. Bypassed
    /// lookups (mode `Off`, or while adaptively disabled) compute
    /// directly — without even digesting; the value is the same bits
    /// either way.
    pub(crate) fn get_or_compute(
        &self,
        digest: impl FnOnce() -> DrawShape,
        compute: impl FnOnce() -> DrawCost,
    ) -> DrawCost {
        if !self.memoizing() {
            self.bypassed.fetch_add(1, Ordering::Relaxed);
            OBS_DRAW_BYPASSED.incr();
            return compute();
        }
        let shape = digest();
        let shard = &self.shards[shape.shard()];
        if let Some(cost) = shard.read().get(&shape) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.window_hits.fetch_add(1, Ordering::Relaxed);
            OBS_DRAW_HITS.incr();
            subset3d_obs::trace_instant("gpusim", "draw_cache.hit");
            #[cfg(feature = "fault-injection")]
            return crate::fault::corrupt_hit(*cost);
            #[cfg(not(feature = "fault-injection"))]
            return *cost;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let window_misses = self.window_misses.fetch_add(1, Ordering::Relaxed) + 1;
        OBS_DRAW_MISSES.incr();
        subset3d_obs::trace_instant("gpusim", "draw_cache.miss");
        self.maybe_auto_disable(window_misses);
        let cost = compute();
        // A racing worker may have inserted the same shape; both computed
        // the same bits, so either insert winning is equivalent.
        shard.write().insert(shape, cost);
        cost
    }

    /// Accounts `draws` shape lookups that bypassed the cache in one
    /// batch-grain update — the non-memoizing fast path's replacement
    /// for `draws` individual [`ShapeCache::get_or_compute`] bypasses.
    /// Two counter updates per batch instead of two per draw; the costs
    /// themselves are computed by the caller, with identical bits.
    pub(crate) fn bypass_batch(&self, draws: u64) {
        self.bypassed.fetch_add(draws, Ordering::Relaxed);
        OBS_DRAW_BYPASSED.add(draws);
    }

    /// Once the observation window has been seen, stop memoizing shapes
    /// if hits are not covering the bookkeeping. Checked on the miss
    /// path only — an all-hit workload never needs it. Initial windows
    /// run [`ADAPT_WINDOW`] lookups; re-probe windows are judged after
    /// [`REPROBE_WINDOW`] — the stream already failed once, so the
    /// recurring check runs on a quarter of the bookkeeping.
    fn maybe_auto_disable(&self, window_misses: u64) {
        let hits = self.window_hits.load(Ordering::Relaxed);
        let lookups = hits + window_misses;
        let window = if self.probing.load(Ordering::Relaxed) == 1 {
            REPROBE_WINDOW
        } else {
            ADAPT_WINDOW
        };
        if lookups < window {
            // Streams shorter than the window never complete an
            // observation; profitability stays unjudged and the cache
            // keeps memoizing — a short (even 1-frame) workload must not
            // be written off from a partial window.
            return;
        }
        if (hits as f64) < ADAPT_MIN_HIT_RATE * lookups as f64 {
            if self.probing.swap(0, Ordering::Relaxed) == 1 {
                // A re-probe's window failed: the stream is still
                // unprofitable, so back off — double the wait before the
                // next probe, up to the cap — instead of oscillating at
                // the base interval forever.
                let next =
                    (self.reprobe_interval.load(Ordering::Relaxed) * 2).min(REPROBE_BACKOFF_CAP);
                self.reprobe_interval.store(next, Ordering::Relaxed);
            }
            self.auto_bypass.store(1, Ordering::Relaxed);
            self.bypassed_batches.store(0, Ordering::Relaxed);
            self.auto_disables.fetch_add(1, Ordering::Relaxed);
            OBS_AUTO_DISABLE.incr();
            subset3d_obs::trace_instant_arg(
                "gpusim",
                "draw_cache.auto_disable",
                "lookups",
                lookups,
            );
            // Publish the verdict so the next simulator over this stream
            // skips straight to the bypassed state at the interval now in
            // effect, instead of re-learning from its own window.
            if let Some(key) = self.current_stream_key() {
                let mut hints = adapt_hints().lock();
                if hints.len() >= HINT_CAP && !hints.contains_key(&key) {
                    hints.clear();
                }
                hints.insert(key, self.reprobe_interval.load(Ordering::Relaxed));
            }
        } else {
            // Profitable window: restart the observation so the judgment
            // always reflects recent behaviour, and reset the re-probe
            // schedule — profitability proven, any earlier backoff is
            // stale.
            self.window_hits.store(0, Ordering::Relaxed);
            self.window_misses.store(0, Ordering::Relaxed);
            self.probing.store(0, Ordering::Relaxed);
            self.reprobe_interval
                .store(REPROBE_AFTER_BATCHES, Ordering::Relaxed);
            // Profitability proven: retract any published write-off so
            // later simulators over this stream observe fresh windows.
            if let Some(key) = self.current_stream_key() {
                adapt_hints().lock().remove(&key);
            }
        }
    }

    /// Notes that one batch was processed without consulting the cache.
    /// After the current re-probe interval's worth of such batches
    /// ([`REPROBE_AFTER_BATCHES`] at first, doubled per failed probe up
    /// to [`REPROBE_BACKOFF_CAP`]), an adaptively disabled cache re-arms
    /// a fresh observation window — the fix for the latch-off-forever
    /// failure mode, where one unprofitable prefix disabled memoization
    /// for the process lifetime, without the opposite failure mode of
    /// oscillating on streams that never profit.
    pub(crate) fn note_bypassed_batch(&self) {
        if self.auto_bypass.load(Ordering::Relaxed) == 0 {
            return; // `Off` mode bypasses deliberately; never re-probe.
        }
        let batches = self.bypassed_batches.fetch_add(1, Ordering::Relaxed) + 1;
        if batches >= self.reprobe_interval.load(Ordering::Relaxed) {
            self.bypassed_batches.store(0, Ordering::Relaxed);
            self.window_hits.store(0, Ordering::Relaxed);
            self.window_misses.store(0, Ordering::Relaxed);
            self.probing.store(1, Ordering::Relaxed);
            self.auto_bypass.store(0, Ordering::Relaxed);
            self.reprobes.fetch_add(1, Ordering::Relaxed);
            OBS_REPROBE.incr();
            subset3d_obs::trace_instant("gpusim", "draw_cache.reprobe");
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
            batch_hits: 0,
            batch_misses: 0,
            auto_disables: self.auto_disables.load(Ordering::Relaxed),
            reprobes: self.reprobes.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn set_mode(&self, mode: CacheMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
        // Switching policy re-arms adaptation with a fresh window and a
        // fresh re-probe schedule.
        self.auto_bypass.store(0, Ordering::Relaxed);
        self.window_hits.store(0, Ordering::Relaxed);
        self.window_misses.store(0, Ordering::Relaxed);
        self.bypassed_batches.store(0, Ordering::Relaxed);
        self.reprobe_interval
            .store(REPROBE_AFTER_BATCHES, Ordering::Relaxed);
        self.probing.store(0, Ordering::Relaxed);
    }

    pub(crate) fn mode(&self) -> CacheMode {
        match self.mode.load(Ordering::Relaxed) {
            m if m == CacheMode::On as u8 => CacheMode::On,
            m if m == CacheMode::Off as u8 => CacheMode::Off,
            _ => CacheMode::Auto,
        }
    }

    /// Drops every entry, zeroes the counters, and re-arms `Auto`
    /// adaptation (config change).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut map = shard.write();
            OBS_DRAW_EVICTED.add(map.len() as u64);
            map.clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bypassed.store(0, Ordering::Relaxed);
        self.auto_disables.store(0, Ordering::Relaxed);
        self.reprobes.store(0, Ordering::Relaxed);
        self.window_hits.store(0, Ordering::Relaxed);
        self.window_misses.store(0, Ordering::Relaxed);
        self.bypassed_batches.store(0, Ordering::Relaxed);
        self.reprobe_interval
            .store(REPROBE_AFTER_BATCHES, Ordering::Relaxed);
        self.probing.store(0, Ordering::Relaxed);
        self.auto_bypass.store(0, Ordering::Relaxed);
    }

    /// Number of distinct memoized draw shapes.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// Thread-safe memo table from [`BatchKey`] to a batch's draw costs.
///
/// One entry per distinct batch per architecture configuration; a warm
/// re-simulation pass probes once per batch and reads the cost slice in
/// place, skipping the per-draw model entirely. Consulted only in
/// [`CacheMode::On`]; cleared with the shape cache on invalidation.
pub(crate) struct BatchCostCache {
    map: RwLock<HashMap<BatchKey, Box<[DrawCost]>, BuildHasherDefault<PassThroughHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchCostCache {
    pub(crate) fn new() -> Self {
        BatchCostCache {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hands the retained costs of the batch `key` describes to `sink`,
    /// in draw order and under the read lock, and returns `true`; returns
    /// `false` (and leaves `sink` uncalled) on a miss. The slice is lent,
    /// never copied, so a caller that keeps only totals pays nothing per
    /// draw beyond reading it.
    pub(crate) fn visit(&self, key: &BatchKey, sink: impl FnOnce(&[DrawCost])) -> bool {
        let map = self.map.read();
        let Some(costs) = map.get(key) else {
            drop(map);
            self.misses.fetch_add(1, Ordering::Relaxed);
            OBS_BATCH_MISSES.incr();
            subset3d_obs::trace_instant("gpusim", "batch_cache.miss");
            return false;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        OBS_BATCH_HITS.incr();
        subset3d_obs::trace_instant("gpusim", "batch_cache.hit");
        #[cfg(feature = "fault-injection")]
        let corrupted: Vec<DrawCost> = costs
            .iter()
            .map(|&c| crate::fault::corrupt_hit(c))
            .collect();
        #[cfg(feature = "fault-injection")]
        let costs = &corrupted;
        sink(costs);
        true
    }

    /// Retains a freshly evaluated batch's costs. Racing inserts of the
    /// same key computed identical bits, so either winning is fine.
    pub(crate) fn insert(&self, key: BatchKey, costs: &[DrawCost]) {
        self.map.write().insert(key, costs.into());
    }

    /// (batch hits, batch misses) observed so far.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of retained batches.
    pub(crate) fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Drops every entry and zeroes the counters.
    pub(crate) fn clear(&self) {
        let mut map = self.map.write();
        OBS_BATCH_EVICTED.add(map.len() as u64);
        map.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Serializes tests that touch the process-global [`ADAPT_HINTS`] table
/// (shared between the `memo` and `sim` test modules, which run in one
/// process).
#[cfg(test)]
pub(crate) fn hint_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::test_support::{test_draw, test_ps, test_textures, test_vs};
    use crate::sim::draw_shape_of;

    fn fp() -> RegistryFingerprint {
        RegistryFingerprint::of(&test_textures())
    }

    fn shape(warmth: f64) -> DrawShape {
        draw_shape_of(&test_draw(), &test_vs(), &test_ps(), fp(), warmth)
    }

    fn compute() -> DrawCost {
        crate::analytic::analyze_draw(
            &test_draw(),
            &test_vs(),
            &test_ps(),
            &test_textures(),
            &crate::config::ArchConfig::baseline(),
            0.0,
        )
    }

    #[test]
    fn identical_inputs_share_a_shape() {
        assert_eq!(shape(0.25), shape(0.25));
    }

    #[test]
    fn label_fields_do_not_affect_the_shape() {
        let mut relabeled = test_draw();
        relabeled.id = subset3d_trace::DrawId(4040);
        relabeled.state = subset3d_trace::StateId(77);
        relabeled.material_tag = 1234;
        let a = shape(0.5);
        let b = draw_shape_of(&relabeled, &test_vs(), &test_ps(), fp(), 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn model_inputs_change_the_shape() {
        let base = shape(0.5);
        assert_ne!(base, shape(0.75), "warmth must be part of the shape");

        let mut heavier = test_draw();
        heavier.vertex_count += 1;
        let s = draw_shape_of(&heavier, &test_vs(), &test_ps(), fp(), 0.5);
        assert_ne!(base, s);

        let mut sharper = test_draw();
        sharper.coverage += 1e-9;
        let s = draw_shape_of(&sharper, &test_vs(), &test_ps(), fp(), 0.5);
        assert_ne!(base, s);
    }

    #[test]
    fn registry_content_changes_the_shape() {
        // Same draw, same texture ids — but the ids resolve differently
        // (here: not at all), so the fingerprint must split the shapes.
        let empty = RegistryFingerprint::of(&TextureRegistry::new());
        assert_ne!(fp(), empty);
        let a = shape(0.0);
        let b = draw_shape_of(&test_draw(), &test_vs(), &test_ps(), empty, 0.0);
        assert_ne!(a, b);
    }

    #[test]
    fn wide_texture_bindings_are_keyable() {
        // Shape digests have no inline capacity: a draw binding dozens of
        // textures still memoizes (the old fixed-width key design had to
        // bypass these).
        let mut wide = test_draw();
        wide.textures = (0..32).map(subset3d_trace::TextureId).collect();
        let a = draw_shape_of(&wide, &test_vs(), &test_ps(), fp(), 0.0);
        let b = draw_shape_of(&wide, &test_vs(), &test_ps(), fp(), 0.0);
        assert_eq!(a, b);
        wide.textures.pop();
        let c = draw_shape_of(&wide, &test_vs(), &test_ps(), fp(), 0.0);
        assert_ne!(a, c, "binding count must be part of the shape");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = ShapeCache::new();
        let a = cache.get_or_compute(|| shape(0.0), compute);
        let b = cache.get_or_compute(|| shape(0.0), compute);
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.bypassed), (1, 1, 0));
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn off_mode_always_computes() {
        let cache = ShapeCache::new();
        cache.set_mode(CacheMode::Off);
        let mut calls = 0;
        for _ in 0..3 {
            cache.get_or_compute(
                || shape(0.0),
                || {
                    calls += 1;
                    compute()
                },
            );
        }
        assert_eq!(calls, 3);
        assert_eq!(
            cache.stats(),
            CacheStats {
                bypassed: 3,
                ..CacheStats::default()
            }
        );
        assert_eq!(cache.len(), 0);

        // Off-mode batches never trigger a re-probe: bypassing was asked
        // for, not judged.
        for _ in 0..(2 * REPROBE_AFTER_BATCHES) {
            cache.note_bypassed_batch();
        }
        assert!(!cache.memoizing());
        assert_eq!(cache.stats().reprobes, 0);
    }

    #[test]
    fn auto_mode_bypasses_an_unprofitable_stream() {
        let cache = ShapeCache::new();
        // Every shape distinct: the hit rate stays at zero, so Auto must
        // give up once the window has been observed.
        for i in 0..(ADAPT_WINDOW + 100) {
            cache.get_or_compute(|| shape(f64::from(i as u32)), compute);
        }
        let stats = cache.stats();
        assert!(
            stats.bypassed >= 100,
            "expected bypassing after the window: {stats:?}"
        );
        assert!(
            stats.misses >= ADAPT_WINDOW,
            "window must be fully observed"
        );
        assert_eq!(stats.auto_disables, 1);
        // Invalidation re-arms adaptation.
        cache.clear();
        cache.get_or_compute(|| shape(0.0), compute);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn auto_mode_keeps_memoizing_short_streams() {
        // A stream shorter than the adaptation window never completes
        // an observation, so Auto must not write the cache off even
        // though every lookup so far missed (regression: a 1-frame
        // workload would otherwise sit at 0 % hit rate and be judged
        // unprofitable from a partial window).
        let cache = ShapeCache::new();
        for i in 0..(ADAPT_WINDOW - 1) {
            cache.get_or_compute(|| shape(f64::from(i as u32)), compute);
        }
        assert_eq!(cache.stats().bypassed, 0, "sub-window stream bypassed");

        // A second pass over the same shapes must hit — the cache stayed
        // live and retained every entry.
        for i in 0..(ADAPT_WINDOW - 1) {
            cache.get_or_compute(|| shape(f64::from(i as u32)), compute);
        }
        let stats = cache.stats();
        assert_eq!(stats.bypassed, 0, "cache disabled itself: {stats:?}");
        assert_eq!(stats.hits, ADAPT_WINDOW - 1);
    }

    #[test]
    fn disabled_cache_reprobes_after_bypassed_batches() {
        let cache = ShapeCache::new();
        // Disable via an unprofitable window.
        for i in 0..ADAPT_WINDOW {
            cache.get_or_compute(|| shape(f64::from(i as u32)), compute);
        }
        assert!(!cache.memoizing(), "expected auto-disable");

        // Fewer bypassed batches than the threshold: still off.
        for _ in 0..(REPROBE_AFTER_BATCHES - 1) {
            cache.note_bypassed_batch();
        }
        assert!(!cache.memoizing());

        // The threshold batch re-arms a fresh window.
        cache.note_bypassed_batch();
        assert!(cache.memoizing(), "cache must re-probe, not latch off");
        assert_eq!(cache.stats().reprobes, 1);

        // The re-armed window is fresh: a now-profitable stream keeps
        // the cache on (repeating one shape → ~100 % hit rate).
        for _ in 0..(2 * ADAPT_WINDOW) {
            cache.get_or_compute(|| shape(0.0), compute);
        }
        assert!(cache.memoizing(), "profitable re-probe window stayed on");
        assert_eq!(cache.stats().auto_disables, 1);
    }

    /// Runs one full adaptation window of all-miss lookups (fresh shapes
    /// starting at `start`), returning the next unused shape number.
    fn burn_unprofitable_window(cache: &ShapeCache, start: u32) -> u32 {
        for i in start..start + ADAPT_WINDOW as u32 {
            cache.get_or_compute(|| shape(f64::from(i)), compute);
        }
        start + ADAPT_WINDOW as u32
    }

    #[test]
    fn failed_reprobes_back_off_exponentially() {
        let cache = ShapeCache::new();
        let mut next = burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing(), "expected initial auto-disable");

        // Each failed probe doubles the wait until the next, capped; the
        // cap then holds for further failures.
        let schedule = [256u64, 512, 1024, 2048, 4096, 8192, 8192, 8192];
        assert_eq!(schedule[0], REPROBE_AFTER_BATCHES);
        assert_eq!(*schedule.last().unwrap(), REPROBE_BACKOFF_CAP);
        for (round, &interval) in schedule.iter().enumerate() {
            for _ in 0..interval - 1 {
                cache.note_bypassed_batch();
            }
            assert!(
                !cache.memoizing(),
                "round {round}: re-probed {} batches early",
                interval
            );
            cache.note_bypassed_batch();
            assert!(cache.memoizing(), "round {round}: probe did not re-arm");
            assert_eq!(cache.stats().reprobes, round as u64 + 1);
            // The probe window fails again: still no redundancy.
            next = burn_unprofitable_window(&cache, next);
            assert!(!cache.memoizing(), "round {round}: window must fail");
        }
    }

    #[test]
    fn profitable_probe_window_resets_the_backoff() {
        let cache = ShapeCache::new();
        let mut next = burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing());

        // Fail one probe to reach a widened interval (512).
        for _ in 0..REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        next = burn_unprofitable_window(&cache, next);
        for _ in 0..2 * REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        assert!(cache.memoizing(), "second probe at the doubled interval");

        // This probe's window proves profitable: all-hit lookups plus one
        // judging miss past the window. The judgment restarts the window,
        // so a second full all-miss window is needed to disable again.
        for _ in 0..ADAPT_WINDOW {
            cache.get_or_compute(|| shape(0.0), compute);
        }
        next = burn_unprofitable_window(&cache, next);
        next = burn_unprofitable_window(&cache, next);
        assert!(
            !cache.memoizing(),
            "follow-up unprofitable windows disable again"
        );
        // The successful probe reset the schedule: the next re-probe
        // comes after the base interval again, not the doubled one.
        for _ in 0..REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        assert!(cache.memoizing(), "backoff must reset after success");
        let _ = next;
    }

    #[test]
    fn stats_delta_subtracts_and_saturates() {
        let earlier = CacheStats {
            hits: 10,
            misses: 5,
            bypassed: 2,
            batch_hits: 1,
            batch_misses: 1,
            auto_disables: 1,
            reprobes: 1,
        };
        let later = CacheStats {
            hits: 25,
            misses: 9,
            bypassed: 2,
            batch_hits: 4,
            batch_misses: 1,
            auto_disables: 2,
            reprobes: 1,
        };
        let d = later.delta(&earlier);
        assert_eq!(
            d,
            CacheStats {
                hits: 15,
                misses: 4,
                bypassed: 0,
                batch_hits: 3,
                batch_misses: 0,
                auto_disables: 1,
                reprobes: 0,
            }
        );
        // A snapshot spanning a clear() saturates instead of wrapping.
        assert_eq!(CacheStats::default().delta(&earlier), CacheStats::default());
    }

    #[test]
    fn delta_saturates_across_a_mid_cycle_reset() {
        // Regression: a snapshot pair straddling the cache's counter
        // reset mid disable/re-probe cycle. Periodic observers (the
        // serve layer snapshots on its own cadence) can catch a
        // `clear()` between their two reads; the delta must degrade to
        // the clamped post-reset activity, never wrap the adaptation
        // counters to enormous values.
        let cache = ShapeCache::new();
        let mut next = burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing(), "expected the initial auto-disable");
        for _ in 0..REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        assert!(cache.memoizing(), "expected a re-probe");
        // The probe window fails too: every adaptation counter is live.
        // (The probe is judged at REPROBE_WINDOW lookups; the rest of
        // the burn is bypassed.)
        next = burn_unprofitable_window(&cache, next);
        let earlier = cache.stats();
        assert_eq!(earlier.misses, ADAPT_WINDOW + REPROBE_WINDOW);
        assert_eq!((earlier.auto_disables, earlier.reprobes), (2, 1));

        // The straddled reset: a config change clears the cache and
        // re-arms adaptation while the observer still holds `earlier`.
        cache.clear();
        cache.get_or_compute(|| shape(f64::from(next)), compute);
        cache.get_or_compute(|| shape(f64::from(next)), compute);
        let later = cache.stats();

        let d = later.delta(&earlier);
        // Fields that restarted below the earlier snapshot clamp to
        // zero; fields genuinely ahead of it (the post-reset hit) still
        // report their activity.
        assert_eq!(
            d,
            CacheStats {
                hits: 1,
                ..CacheStats::default()
            }
        );
        // And nothing wrapped: a delta can never exceed the raw counts.
        assert!(d.misses <= later.misses && d.auto_disables <= later.auto_disables);
    }

    #[test]
    fn reprobe_windows_are_judged_at_the_shorter_window() {
        let cache = ShapeCache::new();
        let next = burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing(), "expected initial auto-disable");
        for _ in 0..REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        assert!(cache.memoizing(), "expected a re-probe");

        // A failing re-probe is cut off after REPROBE_WINDOW lookups —
        // not a full ADAPT_WINDOW — so the recurring tax on streams
        // that already proved unprofitable is a quarter of the initial
        // observation.
        for i in next..next + REPROBE_WINDOW as u32 {
            cache.get_or_compute(|| shape(f64::from(i)), compute);
        }
        let stats = cache.stats();
        assert!(
            !cache.memoizing(),
            "probe window must be judged at {REPROBE_WINDOW} lookups: {stats:?}"
        );
        assert_eq!(stats.misses, ADAPT_WINDOW + REPROBE_WINDOW);
        assert_eq!(stats.auto_disables, 2);
    }

    #[test]
    fn bypass_batch_accounts_in_bulk() {
        let cache = ShapeCache::new();
        cache.bypass_batch(64);
        cache.bypass_batch(3);
        let stats = cache.stats();
        assert_eq!(stats.bypassed, 67);
        assert_eq!((stats.hits, stats.misses), (0, 0));
        assert_eq!(cache.len(), 0, "bulk bypasses never touch the map");
    }

    #[test]
    fn hit_rate_is_none_until_a_lookup_is_served() {
        // Disabled-from-start and engaged-then-disabled report
        // identically: no hits, no rate.
        assert_eq!(CacheStats::default().hit_rate(), None);
        let engaged_never_served = CacheStats {
            misses: 1536,
            bypassed: 46_574,
            auto_disables: 3,
            ..CacheStats::default()
        };
        assert_eq!(engaged_never_served.hit_rate(), None);
        assert_eq!(engaged_never_served.batch_hit_rate(), None);

        let served = CacheStats {
            hits: 1,
            misses: 3,
            batch_hits: 3,
            batch_misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(served.hit_rate(), Some(0.25));
        assert_eq!(served.batch_hit_rate(), Some(0.75));
    }

    #[test]
    fn delta_hit_rate_is_none_for_probe_only_intervals() {
        // Regression for the bench's delta-snapshot path: an interval
        // that contains only probe-window misses (the cache engaged,
        // hit nothing, disabled itself) must serialize the same `null`
        // rate as an interval with no cache activity at all — not a
        // spurious `0.0`.
        let cache = ShapeCache::new();
        let earlier = cache.stats();
        let next = burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing());
        let probe_only = cache.stats().delta(&earlier);
        assert!(probe_only.misses > 0, "window misses must be in the delta");
        assert_eq!(probe_only.hit_rate(), None);
        assert_eq!(probe_only.batch_hit_rate(), None);

        // A later idle interval (bypasses only) is also rate-less — the
        // two cases are indistinguishable to a rate consumer, which is
        // the uniformity the report format wants.
        let earlier = cache.stats();
        cache.get_or_compute(|| shape(f64::from(next)), compute);
        let idle = cache.stats().delta(&earlier);
        assert_eq!(idle.hit_rate(), None);
        assert!(idle.bypassed > 0);
    }

    #[test]
    fn adaptation_hints_transfer_the_disable_state() {
        let _g = hint_test_lock();
        clear_adapt_hints();
        let key = StreamKey([0xA, 0xB]);
        let cache = ShapeCache::new();
        cache.set_stream_key(key);
        assert!(cache.memoizing(), "no hint yet: fresh window");
        burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing());

        // A second cache over the same stream starts where the first
        // ended — bypassed, with the learned re-probe schedule intact —
        // instead of re-paying the observation window.
        let student = ShapeCache::new();
        student.set_stream_key(key);
        assert!(!student.memoizing(), "hint must be adopted on key set");
        assert_eq!(student.stats().misses, 0);
        for _ in 0..REPROBE_AFTER_BATCHES {
            student.note_bypassed_batch();
        }
        assert!(student.memoizing(), "adopted state must still re-probe");

        // A different stream is unaffected.
        let other = ShapeCache::new();
        other.set_stream_key(StreamKey([0xC, 0xD]));
        assert!(other.memoizing());

        // `Off` never consults hints: its bypassing is chosen, and
        // switching to an adaptive mode later re-arms a fresh window.
        let off = ShapeCache::new();
        off.set_mode(CacheMode::Off);
        off.set_stream_key(key);
        off.set_mode(CacheMode::Auto);
        assert!(off.memoizing());
        clear_adapt_hints();
    }

    #[test]
    fn profitable_window_retracts_the_hint() {
        let _g = hint_test_lock();
        clear_adapt_hints();
        let key = StreamKey([0x1, 0x2]);
        let cache = ShapeCache::new();
        cache.set_stream_key(key);
        burn_unprofitable_window(&cache, 0);
        assert!(!cache.memoizing());

        // Redundancy returns: the scheduled re-probe's window proves
        // profitable (all hits plus the judging miss), which must retract
        // the published write-off.
        for _ in 0..REPROBE_AFTER_BATCHES {
            cache.note_bypassed_batch();
        }
        for _ in 0..REPROBE_WINDOW {
            cache.get_or_compute(|| shape(0.0), compute);
        }
        cache.get_or_compute(|| shape(9e9), compute);
        assert!(cache.memoizing(), "profitable probe window must stay on");

        // The hint is gone: a fresh cache over the same stream observes
        // its own window rather than starting bypassed.
        let student = ShapeCache::new();
        student.set_stream_key(key);
        assert!(student.memoizing(), "stale hint must have been retracted");
        clear_adapt_hints();
    }

    #[test]
    fn profitable_windows_keep_restarting() {
        // An all-hit stream must never disable, however long it runs.
        let cache = ShapeCache::new();
        for _ in 0..(4 * ADAPT_WINDOW) {
            cache.get_or_compute(|| shape(0.0), compute);
        }
        assert!(cache.memoizing());
        assert_eq!(cache.stats().auto_disables, 0);
    }

    #[test]
    fn on_mode_draw_grain_stays_adaptive() {
        // `On` retains batches; at shape grain it adapts exactly like
        // `Auto`, because an unprofitable draw stream is unprofitable
        // regardless of batch retention.
        let cache = ShapeCache::new();
        cache.set_mode(CacheMode::On);
        for i in 0..(ADAPT_WINDOW + 100) {
            cache.get_or_compute(|| shape(f64::from(i as u32)), compute);
        }
        let stats = cache.stats();
        assert!(
            stats.bypassed >= 100,
            "expected bypassing after the window: {stats:?}"
        );
        assert_eq!(cache.mode(), CacheMode::On);
    }

    #[test]
    fn batch_cache_round_trips_and_clears() {
        let costs = vec![compute(), compute()];
        let cache = BatchCostCache::new();
        let key = BatchKey::of(&[shape(0.0), shape(0.5)]);
        assert!(!cache.visit(&key, |_| panic!("a miss must not call the sink")));
        cache.insert(key, &costs);
        let mut seen = Vec::new();
        assert!(cache.visit(&key, |c| seen.extend_from_slice(c)));
        assert_eq!(seen, costs);
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(cache.len(), 1);

        // Order and count are part of the key.
        let reversed = BatchKey::of(&[shape(0.5), shape(0.0)]);
        assert_ne!(key, reversed);
        let shorter = BatchKey::of(&[shape(0.0)]);
        assert_ne!(key, shorter);

        cache.clear();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.counters(), (0, 0));
    }
}
