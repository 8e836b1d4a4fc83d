//! The host-parallelism knob shared by the simulation stack.
//!
//! One process-global thread budget controls every deterministic
//! fan-out point: DIMM-level instance generation in
//! `nmp::functional` and the sweep-cell pool in the experiments
//! runner. Both sites are *deterministic by construction* — workers
//! accumulate into private deltas that are merged in a fixed
//! canonical order — so the budget only changes wall-clock time,
//! never a reported number. `dramsim` itself services its channels
//! on the calling thread.
//!
//! The default (`0`, "auto") resolves to
//! [`std::thread::available_parallelism`]. Setting `1` forces fully
//! serial execution; sweep runners set this while cell-level
//! parallelism is active so the two levels do not oversubscribe the
//! host.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `0` means "auto" (resolve to the host's available parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the host thread budget for all deterministic fan-out points.
/// `0` restores the default (auto-detect).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The effective host thread budget (always ≥ 1).
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_round_trips_and_auto_is_positive() {
        let prev = THREADS.load(Ordering::Relaxed);
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        set_threads(prev);
    }
}
