//! Shared experiment infrastructure: dataset acquisition, scale
//! selection, and table rendering.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};

use hetgraph::datasets::{generate, Dataset, DatasetId, GeneratorConfig};
use hetgraph::instances::count_instances;

/// Scale used for *counting-only* analyses (memory tables, redundancy
/// ratios), per dataset. The three small datasets run at full Table-3
/// scale; the web-scale presets are capped so graph construction stays
/// within laptop memory — counting results are reported at that scale.
pub fn analysis_scale(id: DatasetId) -> f64 {
    match id {
        DatasetId::Dblp | DatasetId::Imdb | DatasetId::Lastfm => 1.0,
        DatasetId::OgbMag => 0.5,
        DatasetId::Oag => 0.25,
    }
}

/// Builds one preset at `scale` under a `hetgraph.generate` span, so a
/// run's phases show what graph construction cost.
fn build(id: DatasetId, scale: f64) -> Dataset {
    let _span = obs::span("hetgraph.generate", "hetgraph");
    generate(id, GeneratorConfig::at_scale(scale))
}

/// Walks the execution scale ladder from the largest rung down and
/// returns the first dataset whose total instance count (over all
/// metapaths) fits `instance_budget`, or the smallest rung.
fn walk_ladder(id: DatasetId, instance_budget: u128) -> Dataset {
    const LADDER: [f64; 13] = [
        0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0002, 1e-4, 5e-5, 2e-5, 1e-5,
    ];
    for &scale in &LADDER {
        let ds = build(id, scale);
        let total: u128 = ds
            .metapaths
            .iter()
            .map(|mp| count_instances(&ds.graph, mp).unwrap_or(u128::MAX))
            .sum();
        if total <= instance_budget {
            return ds;
        }
    }
    build(id, LADDER[LADDER.len() - 1])
}

/// Default per-dataset instance budget for engine execution.
pub const EXEC_BUDGET: u128 = 1_500_000;

/// Error from an experiment that did not complete, carrying
/// human-readable context.
///
/// Experiments propagate these to `main`: a [`ExpError::Failed`] prints
/// its message and exits 1 — a bad preset or a diverged simulation
/// reports what went wrong instead of panicking mid-table — while an
/// [`ExpError::Interrupted`] sweep exits 3, telling the operator where
/// to point `--resume`.
#[derive(Debug)]
pub enum ExpError {
    /// The experiment failed outright.
    Failed(String),
    /// A journaled sweep was stopped by SIGINT/SIGTERM (or the test
    /// hook); completed cells and in-flight state live under `dir`.
    Interrupted {
        /// Sweep state directory to pass to `--resume`.
        dir: std::path::PathBuf,
    },
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Failed(msg) => f.write_str(msg),
            ExpError::Interrupted { dir } => write!(
                f,
                "interrupted; state saved — resume with --resume {}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ExpError {}

/// The result type every experiment returns.
pub type ExpResult = Result<(), ExpError>;

/// Journaling/resumption settings for sweep experiments, from
/// `--sweep-dir` / `--resume` / `--ckpt-interval`.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Directory holding the cell journal and in-flight checkpoint.
    pub dir: std::path::PathBuf,
    /// `true` when started via `--resume`: replay journaled cells and
    /// pick up the in-flight checkpoint instead of truncating.
    pub resume: bool,
    /// In-run checkpoint granularity in start vertices.
    pub interval: u64,
}

/// Per-invocation context threaded through every experiment.
pub struct Ctx {
    /// Seed from `--seed`, consumed by seeded experiments — notably the
    /// deterministic fault schedule of the `faults` sweep.
    pub seed: u64,
    /// When set, sweep experiments journal completed cells under
    /// [`SweepOptions::dir`] and honor interrupts between cells.
    pub sweep: Option<SweepOptions>,
    /// Host thread budget from `--jobs` (`0` = auto). Sweeps use it for
    /// the cell-level worker pool; `nmp`'s DIMM-level instance
    /// generation inherits it through [`dramsim::parallel::set_threads`].
    /// Results never depend on it.
    pub jobs: usize,
    /// The datasets built so far, shared by every experiment of the
    /// invocation.
    datasets: DatasetMemo,
}

impl Ctx {
    /// A context that has built no dataset yet.
    pub fn new(seed: u64, sweep: Option<SweepOptions>, jobs: usize) -> Self {
        Ctx {
            seed,
            sweep,
            jobs,
            datasets: DatasetMemo::default(),
        }
    }

    /// Returns the dataset for counting-only analyses at
    /// [`analysis_scale`], built on first use and shared afterwards.
    pub fn analysis_dataset(&self, id: DatasetId) -> Arc<Dataset> {
        self.datasets
            .get(DatasetKey::Analysis(id), || build(id, analysis_scale(id)))
    }

    /// Returns `id` at the largest ladder scale whose total instance
    /// count (over all metapaths) fits the execution budget, so the
    /// instrumented software engines can run it. The ladder is walked
    /// once per `(id, instance_budget)` and the result shared.
    pub fn execution_dataset(&self, id: DatasetId, instance_budget: u128) -> Arc<Dataset> {
        self.datasets
            .get(DatasetKey::Execution(id, instance_budget), || {
                walk_ladder(id, instance_budget)
            })
    }
}

/// What a memoized dataset was built for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DatasetKey {
    Analysis(DatasetId),
    Execution(DatasetId, u128),
}

/// The datasets one invocation has built. Generation is deterministic,
/// so handing out a built graph again cannot change a result; the memo
/// lives and dies with its [`Ctx`], so nothing is process-global.
#[derive(Default)]
struct DatasetMemo(Mutex<Vec<(DatasetKey, Arc<Dataset>)>>);

impl DatasetMemo {
    /// The dataset under `key`, from `make` if none is built yet. The
    /// lock is held while building, so concurrent callers build once.
    fn get(&self, key: DatasetKey, make: impl FnOnce() -> Dataset) -> Arc<Dataset> {
        let mut built = self
            .0
            .lock()
            .expect("a dataset build panicked while holding the memo");
        if let Some((_, ds)) = built.iter().find(|(k, _)| *k == key) {
            return Arc::clone(ds);
        }
        let ds = Arc::new(make());
        built.push((key, Arc::clone(&ds)));
        ds
    }
}

/// Resolves a `--jobs` value to a concrete worker count: `0` ("auto")
/// becomes one worker per available core.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    }
}

/// Adds `.ctx("what")` to fallible calls on an experiment's result
/// path, replacing `expect`-style panics with a propagated [`ExpError`].
pub trait ResultExt<T> {
    /// Wraps the error (or absence) with `what` as context.
    fn ctx(self, what: &str) -> Result<T, ExpError>;
}

impl<T, E: std::fmt::Display> ResultExt<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, ExpError> {
        self.map_err(|e| ExpError::Failed(format!("{what}: {e}")))
    }
}

impl<T> ResultExt<T> for Option<T> {
    fn ctx(self, what: &str) -> Result<T, ExpError> {
        self.ok_or_else(|| ExpError::Failed(what.to_string()))
    }
}

/// A rendered text table that prints to stdout and saves to
/// `results/<name>.md`.
pub struct TableWriter {
    name: String,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl TableWriter {
    /// Creates a table with a machine name (file stem) and title.
    pub fn new(name: &str, title: &str, header: &[&str]) -> Self {
        TableWriter {
            name: name.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote.
    pub fn note(&mut self, text: &str) {
        self.notes.push(text.to_string());
    }

    /// Renders, prints, and saves the table.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Failed`] naming the target path when the
    /// `results/` file cannot be written — a full disk or missing
    /// permissions must fail the experiment, not silently drop its
    /// artifact.
    pub fn finish(self) -> Result<(), ExpError> {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (w, c) in widths.iter().zip(cells) {
                let _ = write!(line, " {c:<w$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        println!("{out}");
        let dir = Path::new("results");
        let path = dir.join(format!("{}.md", self.name));
        fs::create_dir_all(dir).ctx(&format!(
            "creating {} for table {:?}",
            dir.display(),
            self.name
        ))?;
        checkpoint::atomic_write_str(&path, &out)
            .ctx(&format!("writing table to {}", path.display()))?;
        Ok(())
    }
}

/// Formats a float with engineering-friendly precision.
pub fn fmt_f(v: f64) -> String {
    if !v.is_finite() {
        return "OOM".to_string();
    }
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u128) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.2}{}", UNITS[unit])
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_x(v: f64) -> String {
    if !v.is_finite() {
        "OOM".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}x")
    } else {
        format!("{v:.2}x")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_memo_hands_out_one_build_per_key() {
        let cx = Ctx::new(42, None, 1);
        let a = cx.analysis_dataset(DatasetId::Imdb);
        assert!(Arc::ptr_eq(&a, &cx.analysis_dataset(DatasetId::Imdb)));
        let e = cx.execution_dataset(DatasetId::Imdb, EXEC_BUDGET);
        assert!(Arc::ptr_eq(
            &e,
            &cx.execution_dataset(DatasetId::Imdb, EXEC_BUDGET)
        ));
        assert!(!Arc::ptr_eq(&a, &e));
        // A fresh context builds its own.
        let other = Ctx::new(42, None, 1);
        assert!(!Arc::ptr_eq(&a, &other.analysis_dataset(DatasetId::Imdb)));
    }

    #[test]
    fn the_memoized_ladder_picks_the_uncached_scale() {
        let uncached = |budget: u128| {
            [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
                .into_iter()
                .find(|&scale| {
                    let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(scale));
                    let total: u128 = ds
                        .metapaths
                        .iter()
                        .map(|mp| count_instances(&ds.graph, mp).unwrap())
                        .sum();
                    total <= budget
                })
                .expect("IMDB fits the budget within the first rungs")
        };
        let cx = Ctx::new(42, None, 1);
        // The small budget walks past several rungs; each budget is a
        // key of its own.
        let picks = [5_000, EXEC_BUDGET].map(|budget| {
            let scale = uncached(budget);
            assert_eq!(cx.execution_dataset(DatasetId::Imdb, budget).scale, scale);
            scale
        });
        assert!(picks[0] < picks[1], "{picks:?}");
    }
}
