//! The benchmark's own spans: wall-clock intervals recorded around each
//! call into a layer, kept in memory, and folded into per-layer self
//! times (a span's duration minus the part its direct children cover).

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    ms: f64,
}

/// Records nested spans under one root: a traced op or a traced set-up.
#[derive(Debug)]
pub struct Tracer {
    start: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    values: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Opens the root span `name`; every later span nests under it.
    pub fn new(name: &'static str) -> Self {
        Tracer {
            start: Instant::now(),
            enabled: true,
            spans: vec![Span {
                name,
                parent: None,
                ms: 0.0,
            }],
            open: vec![0],
            last_closed: None,
            values: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing: `span` only runs its closure.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new("off")
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = *self.open.last().expect("root span stays open");
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: Some(parent),
            ms: 0.0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let out = f(self);
        self.spans[idx].ms = start.elapsed().as_secs_f64() * 1e3;
        self.open.pop();
        self.last_closed = Some(idx);
        out
    }

    /// Adds a child of `ms` to the most recently closed span. Used for
    /// time the program's own telemetry measured inside a call the
    /// benchmark cannot split (DRAM service inside `ResumableRun::finish`,
    /// the engines inside `metanmp::compare`).
    pub fn attach(&mut self, name: &'static str, ms: f64) {
        if !self.enabled {
            return;
        }
        let parent = self.last_closed.expect("attach follows a closed span");
        self.spans.push(Span {
            name,
            parent: Some(parent),
            ms,
        });
    }

    /// Adds `value` to the measured quantity `name` of this root span,
    /// for amounts that vary from op to op, such as bytes written.
    pub fn record(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.values.entry(name).or_default() += value;
        }
    }

    /// Closes the root span and folds the spans into self times.
    pub fn finish(mut self) -> Breakdown {
        self.spans[0].ms = self.start.elapsed().as_secs_f64() * 1e3;
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms;
            }
        }
        let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ms).skip(1) {
            *self_ms.entry(s.name).or_default() += s.ms - children;
        }
        Breakdown {
            total_ms: self.spans[0].ms,
            glue_ms: self.spans[0].ms - child_ms[0],
            self_ms,
            values: self.values,
        }
    }
}

/// Per-layer self times under one root span.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Duration of the root span.
    pub total_ms: f64,
    /// Root self time: benchmark code between layer calls.
    pub glue_ms: f64,
    /// Layer name → self time summed over its spans.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Quantities recorded with [`Tracer::record`].
    pub values: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    /// Share of the root span no layer span covers, in percent.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.glue_ms / self.total_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut tr = Tracer::new("op");
        tr.span("a", |tr| {
            busy(4);
            tr.span("b", |_| busy(6));
        });
        tr.attach("c", 2.0);
        tr.span("b", |_| busy(3));
        let bd = tr.finish();
        let layers: f64 = bd.self_ms.values().sum();
        assert!((layers + bd.glue_ms - bd.total_ms).abs() < 1e-9);
        assert!(bd.self_ms["b"] >= 9.0);
        assert_eq!(bd.self_ms["c"], 2.0);
        // `a` gives up both the nested `b` and the attached `c`.
        assert!(bd.self_ms["a"] >= 2.0 && bd.self_ms["a"] < bd.total_ms - 9.0);
        assert!(bd.unattributed_pct() < 50.0);
    }

    #[test]
    fn disabled_tracer_still_runs_the_work() {
        let mut tr = Tracer::disabled();
        assert_eq!(tr.span("a", |_| 7), 7);
        tr.attach("b", 1.0);
        assert!(!tr.enabled());
    }
}
