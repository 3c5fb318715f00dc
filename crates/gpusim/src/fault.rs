//! Test-only fault injection for the memo layer and the sweep traversal
//! (mutation testing).
//!
//! Compiled only under the `fault-injection` cargo feature, and inert even
//! then until armed. Two faults can be armed:
//!
//! * [`arm`]: every draw cost served from a **batch-cache hit**
//!   ([`crate::CacheMode::On`]) has the last mantissa bit of its
//!   `time_ns` flipped — a one-ulp corruption, the smallest possible
//!   divergence. Freshly evaluated batches are never touched.
//! * [`arm_misrouted_config`]: a multi-candidate sweep costs each shared
//!   batch's draw work on the *next* candidate's configuration — the bug
//!   of handing one candidate's batch to the wrong cost model.
//!
//! The testkit's mutation tests arm a fault and assert that the
//! differential oracles surface it, demonstrating that a bitwise
//! comparison would catch even a minimal memoization or routing bug.
//!
//! The switch is process-global; tests that arm it must disarm before
//! finishing (each integration-test binary is its own process, so the
//! blast radius is the arming test's own binary).

use crate::cost::DrawCost;
use std::sync::atomic::{AtomicBool, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static MISROUTED: AtomicBool = AtomicBool::new(false);

/// Starts corrupting batch-cache hits (one-ulp flip of `time_ns`).
pub fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Starts costing each candidate's batches, in a multi-candidate sweep,
/// on the next candidate's configuration (the last wraps to the first).
pub fn arm_misrouted_config() {
    MISROUTED.store(true, Ordering::SeqCst);
}

/// Disarms both faults; hits are served verbatim and every candidate is
/// costed on its own configuration again.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    MISROUTED.store(false, Ordering::SeqCst);
}

/// Whether the batch-hit corruption is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::SeqCst)
}

/// The candidate, of `candidates`, whose configuration costs candidate
/// `c`'s batches: `c` itself unless [`arm_misrouted_config`] is armed.
pub(crate) fn costing_candidate(c: usize, candidates: usize) -> usize {
    if MISROUTED.load(Ordering::Relaxed) {
        (c + 1) % candidates
    } else {
        c
    }
}

/// Applies the armed fault to a cost served from a batch-cache hit.
pub(crate) fn corrupt_hit(mut cost: DrawCost) -> DrawCost {
    if armed() {
        cost.time_ns = f64::from_bits(cost.time_ns.to_bits() ^ 1);
    }
    cost
}
