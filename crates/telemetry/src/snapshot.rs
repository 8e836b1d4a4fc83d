//! Plain-data snapshot types produced by the registry and consumed by the exporters.

/// Summary statistics of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u128,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median estimate (log-bucket upper bound).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// Aggregated wall-clock timing of all spans sharing a name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Times a span with this name completed.
    pub calls: u64,
    /// Total wall-clock milliseconds across those spans.
    pub total_ms: f64,
}

/// A point-in-time copy of every metric in the registry.
///
/// All collections are sorted by name, so rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Per-phase (span-name) wall-clock totals.
    pub phases: Vec<PhaseRow>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// One Chrome trace-event (`ph: "X"` complete event).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Trace process id: `0` = wall clock, `1` = simulated time.
    pub pid: u32,
    /// Trace thread id within the process.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Event category.
    pub cat: String,
    /// Start timestamp in microseconds (simulated events use
    /// 1 cycle = 1 µs).
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Everything the Chrome-trace exporter needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Complete events, in recording order.
    pub events: Vec<TraceEvent>,
    /// Human-readable names for `(pid, tid)` tracks.
    pub thread_names: Vec<(u32, u64, String)>,
}
