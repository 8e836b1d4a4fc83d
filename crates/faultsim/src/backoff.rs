//! Shared retry-backoff policy: capped exponential growth with
//! optional deterministic jitter.
//!
//! Two very different retry paths in the stack want the same shape:
//!
//! * the **simulated** domain — `nmp::resilience` re-broadcasting a
//!   dropped inter-DIMM transfer waits `base << attempt` host cycles,
//!   and the wait is part of the deterministic cycle accounting, so it
//!   must carry *no* jitter;
//! * the **wall-clock** domain — `sweepd` respawning a crashed worker
//!   process wants jitter so a fleet of workers killed together does
//!   not thunder back in lock-step.
//!
//! [`Backoff`] serves both: jitter fraction 0 reproduces the exact
//! `base << attempt` (saturating, capped) sequence the simulators have
//! always used, and a non-zero jitter hashes `(seed, draw index)`
//! through the mixer the fault injector uses ([`crate::rng`]), so a
//! seeded supervisor produces an identical respawn schedule on every
//! run — testable without sleeping.

use crate::rng::splitmix64;

/// Capped exponential backoff with optional seeded jitter.
///
/// `delay(attempt)` is `min(cap, base << attempt)` stretched by a
/// jitter factor drawn deterministically from `(seed, draw index)`.
/// The draw counter advances on every jittered call, so consecutive
/// retries of the same attempt number still decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: u64,
    cap: u64,
    /// Jitter amplitude in per-mille of the deadline-free delay:
    /// `0` = fully deterministic, `250` = ±25%.
    jitter_per_mille: u16,
    seed: u64,
    draws: u64,
}

impl Backoff {
    /// Jitter-free policy: `delay(k)` is exactly `min(cap, base << k)`.
    pub fn new(base: u64, cap: u64) -> Self {
        Backoff {
            base,
            cap,
            jitter_per_mille: 0,
            seed: 0,
            draws: 0,
        }
    }

    /// Policy with `±jitter_per_mille/1000` multiplicative jitter drawn
    /// from a seeded splitmix64 stream (deterministic per seed).
    ///
    /// `jitter_per_mille` saturates at 1000 (±100%).
    pub fn with_jitter(base: u64, cap: u64, jitter_per_mille: u16, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            jitter_per_mille: jitter_per_mille.min(1000),
            seed,
            draws: 0,
        }
    }

    /// The delay before retry `attempt` (0-based), in whatever unit
    /// `base`/`cap` are in (cycles for the simulators, milliseconds
    /// for the supervisor).
    pub fn delay(&mut self, attempt: u32) -> u64 {
        // `checked_shl` only rejects shift amounts >= 64; shifted-out
        // value bits wrap silently, so saturate via multiplication.
        let raw = match 1u64.checked_shl(attempt) {
            Some(mult) => self.base.saturating_mul(mult).min(self.cap),
            None => self.cap,
        };
        if self.jitter_per_mille == 0 {
            return raw;
        }
        // Signed jitter in [-j, +j] per-mille of the raw delay, drawn
        // counter-mode so the sequence depends only on (seed, draws).
        let draw = splitmix64(self.seed ^ self.draws.rotate_left(32));
        self.draws += 1;
        let span = 2 * u64::from(self.jitter_per_mille) + 1;
        let offset = (draw % span) as i64 - i64::from(self.jitter_per_mille);
        let scaled = (raw as i128) * (1000 + i128::from(offset)) / 1000;
        (scaled.max(0) as u64).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_free_matches_shift_sequence() {
        let mut b = Backoff::new(10, u64::MAX);
        assert_eq!(b.delay(0), 10);
        assert_eq!(b.delay(1), 20);
        assert_eq!(b.delay(2), 40);
        assert_eq!(b.delay(5), 320);
    }

    #[test]
    fn cap_bounds_the_delay() {
        let mut b = Backoff::new(100, 1_000);
        assert_eq!(b.delay(10), 1_000);
        // Shift overflow saturates to the cap instead of wrapping.
        assert_eq!(b.delay(63), 1_000);
        assert_eq!(b.delay(u32::MAX), 1_000);
    }

    #[test]
    fn jitter_stays_within_amplitude_and_cap() {
        let mut b = Backoff::with_jitter(1_000, 10_000, 250, 7);
        for attempt in 0..8 {
            let raw = 1_000u64.checked_shl(attempt).unwrap_or(10_000).min(10_000);
            let lo = raw - raw * 250 / 1000;
            let hi = (raw + raw * 250 / 1000).min(10_000);
            let d = b.delay(attempt);
            assert!(
                d >= lo && d <= hi,
                "attempt {attempt}: {d} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Backoff::with_jitter(500, 60_000, 500, 42);
        let mut b = Backoff::with_jitter(500, 60_000, 500, 42);
        let sa: Vec<u64> = (0..16).map(|k| a.delay(k % 5)).collect();
        let sb: Vec<u64> = (0..16).map(|k| b.delay(k % 5)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = Backoff::with_jitter(1_000, u64::MAX, 900, 1);
        let mut b = Backoff::with_jitter(1_000, u64::MAX, 900, 2);
        let sa: Vec<u64> = (0..16).map(|_| a.delay(3)).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.delay(3)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn repeated_draws_at_one_attempt_vary() {
        let mut b = Backoff::with_jitter(10_000, u64::MAX, 500, 3);
        let draws: Vec<u64> = (0..8).map(|_| b.delay(2)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "{draws:?}");
    }

    #[test]
    fn attempts_past_the_cap_stay_pinned() {
        // Once `base << attempt` crosses the cap, every later attempt —
        // including shift amounts that would overflow u64 — returns
        // exactly the cap, forever.
        let mut b = Backoff::new(3, 7_777);
        let first_capped = (0..64).find(|&k| b.delay(k) == 7_777).unwrap();
        for k in first_capped..first_capped + 8 {
            assert_eq!(b.delay(k), 7_777);
        }
        for k in [64, 65, 1_000, u32::MAX - 1, u32::MAX] {
            assert_eq!(b.delay(k), 7_777);
        }
    }

    #[test]
    fn max_delay_saturates_without_wrapping() {
        // Huge base with an uncapped policy: the multiplication must
        // saturate at u64::MAX rather than wrap to a tiny delay.
        let mut b = Backoff::new(u64::MAX - 1, u64::MAX);
        assert_eq!(b.delay(0), u64::MAX - 1);
        assert_eq!(b.delay(1), u64::MAX);
        assert_eq!(b.delay(63), u64::MAX);
        assert_eq!(b.delay(64), u64::MAX);
        // Jittered variant at the saturation point must not overflow
        // the i128 widening (would panic in debug builds).
        let mut j = Backoff::with_jitter(u64::MAX, u64::MAX, 1000, 9);
        for _ in 0..16 {
            let _ = j.delay(62);
        }
    }

    #[test]
    fn jitter_bounds_property_over_seeds_and_attempts() {
        // Property test, fully deterministic: for a grid of seeds,
        // jitter amplitudes, and attempts, every draw lands inside
        // [raw - raw*j/1000, min(cap, raw + raw*j/1000)] and the whole
        // schedule replays byte-identically from the same seed.
        let cap = 1u64 << 40;
        for seed in 0..32u64 {
            for &jpm in &[1u16, 125, 250, 333, 999, 1000] {
                let mut b = Backoff::with_jitter(64, cap, jpm, seed);
                let mut replay = Backoff::with_jitter(64, cap, jpm, seed);
                for attempt in 0..40u32 {
                    let raw = match 1u64.checked_shl(attempt) {
                        Some(m) => 64u64.saturating_mul(m).min(cap),
                        None => cap,
                    };
                    // Mirror the implementation's floor division:
                    // scaled = raw * (1000 ± j) / 1000.
                    let lo = (raw as u128 * (1000 - u128::from(jpm)) / 1000) as u64;
                    let hi = ((raw as u128 * (1000 + u128::from(jpm)) / 1000) as u64).min(cap);
                    let d = b.delay(attempt);
                    assert!(
                        d >= lo && d <= hi,
                        "seed {seed} jpm {jpm} attempt {attempt}: {d} not in [{lo}, {hi}]"
                    );
                    assert_eq!(d, replay.delay(attempt), "replay diverged");
                }
            }
        }
    }

    #[test]
    fn jitter_saturates_at_one_thousand_per_mille() {
        // Constructor clamps: ±150% requested becomes ±100%, so the
        // delay can reach 0 but never go "negative" (wrap).
        let mut b = Backoff::with_jitter(1_000, u64::MAX, u16::MAX, 11);
        for attempt in 0..64u32 {
            let raw = 1_000u64.saturating_mul(1 << (attempt.min(53)));
            assert!(b.delay(attempt.min(53)) <= raw * 2);
        }
    }
}
