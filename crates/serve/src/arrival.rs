//! Seeded query-arrival generation.
//!
//! Arrivals are produced up front as a sorted vector so the event
//! loop consumes a fixed schedule; every stochastic choice is a
//! counter-mode draw keyed by the query index, making the schedule a
//! pure function of `(seed, spec)`.

use faultsim::scenario::SpikeWindow;

use crate::qos::ClassSpec;
use crate::rng::{Stream, STREAM_CLASS, STREAM_INTERARRIVAL, STREAM_VERTEX};
use crate::ServeError;

/// Arrival-rate multiplier in force at `tick`: the product of every
/// overlapping spike window (1.0 outside all of them).
fn rate_mult_at(windows: &[SpikeWindow], tick: u64) -> f64 {
    let mut mult = 1.0;
    for w in windows {
        if tick >= w.start && tick < w.end {
            mult *= w.rate_mult;
        }
    }
    mult
}

/// One inference query entering the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Arrival time in simulator ticks.
    pub arrival_tick: u64,
    /// Target vertex index within the query vertex type, `< vertex_bound`.
    pub vertex: u32,
    /// QoS class index.
    pub class: u16,
    /// Arrival-order sequence number (ties broken by this).
    pub seq: u32,
}

/// Parameters of a seeded Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    /// Mean arrival rate, queries per 1024 ticks.
    pub rate_per_ktick: f64,
    /// Number of queries to generate.
    pub queries: u32,
    /// Vertex popularity skew exponent: vertex = ⌊bound·u^skew⌋ for a
    /// uniform `u`, so `skew` 1.0 is uniform and larger values
    /// concentrate traffic on low-numbered vertices (more reuse).
    pub popularity_skew: f64,
}

impl PoissonArrivals {
    /// Materializes the arrival schedule, sorted by (tick, seq).
    ///
    /// `vertex_bound` is the exclusive id bound of the query vertex
    /// type in the loaded dataset; `classes` the QoS class table.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] on a zero vertex bound, an empty class
    /// table, a non-positive rate, zero queries, or non-positive skew.
    pub fn generate(
        &self,
        seed: u64,
        vertex_bound: u32,
        classes: &[ClassSpec],
    ) -> Result<Vec<Query>, ServeError> {
        self.generate_scripted(seed, vertex_bound, classes, &[])
    }

    /// [`generate`](Self::generate) with chaos-scenario load-spike
    /// windows modulating the rate: inside a window the instantaneous
    /// rate is multiplied by the window's `rate_mult` (overlapping
    /// windows compound). An empty slice reproduces the unscripted
    /// schedule byte-for-byte.
    ///
    /// # Errors
    ///
    /// Same conditions as [`generate`](Self::generate).
    pub fn generate_scripted(
        &self,
        seed: u64,
        vertex_bound: u32,
        classes: &[ClassSpec],
        spikes: &[SpikeWindow],
    ) -> Result<Vec<Query>, ServeError> {
        if vertex_bound == 0 {
            return Err(ServeError::Config("vertex bound is zero".into()));
        }
        if classes.is_empty() {
            return Err(ServeError::Config("no QoS classes".into()));
        }
        if !self.rate_per_ktick.is_finite() || self.rate_per_ktick <= 0.0 {
            return Err(ServeError::Config(format!(
                "arrival rate must be positive and finite, got {}",
                self.rate_per_ktick
            )));
        }
        if self.queries == 0 {
            return Err(ServeError::Config("zero queries requested".into()));
        }
        if !self.popularity_skew.is_finite() || self.popularity_skew <= 0.0 {
            return Err(ServeError::Config(format!(
                "popularity skew must be positive and finite, got {}",
                self.popularity_skew
            )));
        }
        let lambda = self.rate_per_ktick / 1024.0;
        let inter = Stream::new(seed, STREAM_INTERARRIVAL);
        let vtx = Stream::new(seed, STREAM_VERTEX);
        let cls = Stream::new(seed, STREAM_CLASS);
        // Cumulative class shares for inverse-CDF class draws.
        let total_share: f64 = classes.iter().map(|c| c.share).sum();
        let mut cumulative = Vec::with_capacity(classes.len());
        let mut acc = 0.0;
        for c in classes {
            acc += c.share / total_share;
            cumulative.push(acc);
        }

        let mut out = Vec::with_capacity(self.queries as usize);
        let mut tick = 0u64;
        for i in 0..u64::from(self.queries) {
            // Exponential inter-arrival, floored at one tick so the
            // schedule stays strictly causal at extreme rates. Spike
            // windows scale the instantaneous rate at the previous
            // arrival's tick (a window boundary shifts by at most one
            // gap — negligible against window lengths).
            let mult = rate_mult_at(spikes, tick);
            let delta = (-inter.unit_open(i).ln() / (lambda * mult)).ceil();
            tick = tick.saturating_add((delta as u64).max(1));

            let u = vtx.unit(i);
            let vertex = ((f64::from(vertex_bound) * u.powf(self.popularity_skew)) as u32)
                .min(vertex_bound - 1);

            let cu = cls.unit(i);
            let class = cumulative
                .iter()
                .position(|&edge| cu < edge)
                .unwrap_or(classes.len() - 1) as u16;

            out.push(Query {
                arrival_tick: tick,
                vertex,
                class,
                seq: i as u32,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::default_classes;

    fn spec(rate: f64, n: u32) -> PoissonArrivals {
        PoissonArrivals {
            rate_per_ktick: rate,
            queries: n,
            popularity_skew: 2.0,
        }
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let classes = default_classes();
        let a = spec(8.0, 500).generate(7, 1000, &classes).unwrap();
        let b = spec(8.0, 500).generate(7, 1000, &classes).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_tick <= w[1].arrival_tick));
        assert!(a.iter().all(|q| q.vertex < 1000));
        assert!(a.iter().all(|q| usize::from(q.class) < classes.len()));
        let c = spec(8.0, 500).generate(8, 1000, &classes).unwrap();
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        // rate 16/ktick → mean gap 64 ticks; over 20k draws the sample
        // mean should land well within 5%.
        let classes = default_classes();
        let q = spec(16.0, 20_000).generate(3, 10_000, &classes).unwrap();
        let span = q.last().unwrap().arrival_tick - q[0].arrival_tick;
        let mean = span as f64 / (q.len() - 1) as f64;
        assert!(
            (mean - 64.0).abs() < 3.2,
            "sample mean inter-arrival {mean} too far from 64"
        );
    }

    #[test]
    fn skew_concentrates_popularity() {
        let classes = default_classes();
        let skewed = PoissonArrivals {
            rate_per_ktick: 8.0,
            queries: 5000,
            popularity_skew: 4.0,
        }
        .generate(1, 1000, &classes)
        .unwrap();
        let low_half = skewed.iter().filter(|q| q.vertex < 500).count();
        assert!(
            low_half > 3500,
            "skew 4 should put most mass on low ids, got {low_half}/5000"
        );
    }

    #[test]
    fn spikes_compress_gaps_inside_the_window() {
        let classes = default_classes();
        let windows = [SpikeWindow {
            start: 0,
            end: u64::MAX,
            rate_mult: 8.0,
        }];
        let base = spec(4.0, 2000).generate(9, 100, &classes).unwrap();
        let spiked = spec(4.0, 2000)
            .generate_scripted(9, 100, &classes, &windows)
            .unwrap();
        let span = |q: &[Query]| q.last().unwrap().arrival_tick - q[0].arrival_tick;
        assert!(
            span(&spiked) * 4 < span(&base),
            "8× spike must compress the schedule (base {} vs spiked {})",
            span(&base),
            span(&spiked)
        );
        // Everything except timing is untouched.
        for (a, b) in base.iter().zip(&spiked) {
            assert_eq!((a.vertex, a.class, a.seq), (b.vertex, b.class, b.seq));
        }
        // No windows reproduces the unscripted schedule exactly.
        let unscripted = spec(4.0, 2000)
            .generate_scripted(9, 100, &classes, &[])
            .unwrap();
        assert_eq!(base, unscripted);
    }

    #[test]
    fn rejects_bad_parameters() {
        let classes = default_classes();
        assert!(spec(0.0, 10).generate(0, 10, &classes).is_err());
        assert!(spec(-3.0, 10).generate(0, 10, &classes).is_err());
        assert!(spec(f64::NAN, 10).generate(0, 10, &classes).is_err());
        assert!(spec(f64::INFINITY, 10).generate(0, 10, &classes).is_err());
        assert!(spec(1.0, 0).generate(0, 10, &classes).is_err());
        assert!(spec(1.0, 10).generate(0, 0, &classes).is_err());
        for skew in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let s = PoissonArrivals {
                rate_per_ktick: 1.0,
                queries: 10,
                popularity_skew: skew,
            };
            assert!(s.generate(0, 10, &classes).is_err(), "skew {skew}");
        }
        assert!(spec(1.0, 10).generate(0, 10, &[]).is_err());
    }
}
