//! Sweep manifests: the JSON body of `POST /sweeps`.
//!
//! A manifest names an experiment and its execution policy. Parsing is
//! manual over the JSON tree (rather than a derive) so every rejection
//! carries a field-level reason the client gets back verbatim in the
//! 400 body — a fuzzer-grade input boundary, like the HTTP parser in
//! front of it.
//!
//! ```json
//! {
//!   "experiment": "faults",
//!   "seed": 7,
//!   "priority": 10,
//!   "cell_timeout_s": 300,
//!   "retry_budget": 2,
//!   "finalize": true
//! }
//! ```
//!
//! Only `experiment` is required; the rest default as documented on
//! [`SweepManifest`].

use serde::value::Value;

/// Experiments the worker fleet knows how to shard. The experiments
/// binary's worker mode dispatches on this same list and registers
/// with its [`crate::wire::fingerprint`].
pub const SUPPORTED_EXPERIMENTS: &[&str] = &["faults"];

/// A validated sweep request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepManifest {
    /// Experiment to sweep; must be in [`SUPPORTED_EXPERIMENTS`].
    pub experiment: String,
    /// Seed for the sweep (default 42).
    pub seed: u64,
    /// Scheduling priority; higher runs first, and under fleet
    /// degradation the lowest-priority sweeps are shed first
    /// (default 0).
    pub priority: i64,
    /// Per-cell wall-clock budget in seconds; a leased cell past the
    /// budget is cancelled and the attempt journaled as failed
    /// (default: the daemon's `--cell-timeout`, or unbounded).
    pub cell_timeout_s: Option<u64>,
    /// How many failed attempts a cell may accumulate before the sweep
    /// fails (default: the daemon's `--retry-budget`).
    pub retry_budget: Option<u32>,
    /// Whether to run the single-process resume pass after the last
    /// cell, producing the standard `results/` artifacts byte-identical
    /// to an uninterrupted run (default true).
    pub finalize: bool,
}

fn want_u64(v: &Value, field: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| {
        format!(
            "field {field:?} must be a non-negative integer, got {}",
            v.kind()
        )
    })
}

fn want_i64(v: &Value, field: &str) -> Result<i64, String> {
    match v {
        Value::Int(i) => i64::try_from(*i).map_err(|_| format!("field {field:?} out of i64 range")),
        Value::UInt(u) => {
            i64::try_from(*u).map_err(|_| format!("field {field:?} out of i64 range"))
        }
        other => Err(format!(
            "field {field:?} must be an integer, got {}",
            other.kind()
        )),
    }
}

/// Parses and validates a manifest body.
///
/// # Errors
///
/// Returns a human-readable reason (surfaced as the 400 body) for
/// non-UTF-8 or non-JSON input, a non-object root, unknown fields,
/// type mismatches, an unsupported experiment, or a zero
/// `cell_timeout_s`.
pub fn parse_manifest(body: &[u8]) -> Result<SweepManifest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "manifest body is not UTF-8".to_string())?;
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
    let map = root
        .as_map()
        .ok_or_else(|| format!("manifest must be a JSON object, got {}", root.kind()))?;

    let mut manifest = SweepManifest {
        experiment: String::new(),
        seed: 42,
        priority: 0,
        cell_timeout_s: None,
        retry_budget: None,
        finalize: true,
    };
    for (key, value) in map {
        match key.as_str() {
            "experiment" => {
                manifest.experiment = value
                    .as_str()
                    .ok_or_else(|| {
                        format!(
                            "field \"experiment\" must be a string, got {}",
                            value.kind()
                        )
                    })?
                    .to_string();
            }
            "seed" => manifest.seed = want_u64(value, "seed")?,
            "priority" => manifest.priority = want_i64(value, "priority")?,
            "cell_timeout_s" => {
                let secs = want_u64(value, "cell_timeout_s")?;
                if secs == 0 {
                    return Err("field \"cell_timeout_s\" must be positive".into());
                }
                manifest.cell_timeout_s = Some(secs);
            }
            "retry_budget" => {
                let n = want_u64(value, "retry_budget")?;
                let n = u32::try_from(n)
                    .map_err(|_| "field \"retry_budget\" out of u32 range".to_string())?;
                manifest.retry_budget = Some(n);
            }
            "finalize" => {
                manifest.finalize = value.as_bool().ok_or_else(|| {
                    format!("field \"finalize\" must be a boolean, got {}", value.kind())
                })?;
            }
            unknown => return Err(format!("unknown manifest field {unknown:?}")),
        }
    }
    if manifest.experiment.is_empty() {
        return Err("manifest is missing required field \"experiment\"".into());
    }
    if !SUPPORTED_EXPERIMENTS.contains(&manifest.experiment.as_str()) {
        return Err(format!(
            "experiment {:?} has no distributed cell API (supported: {})",
            manifest.experiment,
            SUPPORTED_EXPERIMENTS.join(", ")
        ));
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_manifest_gets_defaults() {
        let m = parse_manifest(b"{\"experiment\":\"faults\"}").expect("parse");
        assert_eq!(m.experiment, "faults");
        assert_eq!(m.seed, 42);
        assert_eq!(m.priority, 0);
        assert_eq!(m.cell_timeout_s, None);
        assert_eq!(m.retry_budget, None);
        assert!(m.finalize);
    }

    #[test]
    fn full_manifest_round_trips() {
        let m = parse_manifest(
            br#"{"experiment":"faults","seed":7,"priority":-3,"cell_timeout_s":120,"retry_budget":1,"finalize":false}"#,
        )
        .expect("parse");
        assert_eq!(m.seed, 7);
        assert_eq!(m.priority, -3);
        assert_eq!(m.cell_timeout_s, Some(120));
        assert_eq!(m.retry_budget, Some(1));
        assert!(!m.finalize);
    }

    #[test]
    fn rejections_name_the_field() {
        for (body, needle) in [
            (&b"not json"[..], "not valid JSON"),
            (b"[1,2]", "must be a JSON object"),
            (b"{}", "missing required field"),
            (b"{\"experiment\":\"nope\"}", "no distributed cell API"),
            (b"{\"experiment\":7}", "\"experiment\" must be a string"),
            (b"{\"experiment\":\"faults\",\"seed\":-1}", "\"seed\""),
            (
                b"{\"experiment\":\"faults\",\"cell_timeout_s\":0}",
                "positive",
            ),
            (
                b"{\"experiment\":\"faults\",\"bogus\":1}",
                "unknown manifest field",
            ),
            (b"\xff\xfe", "not UTF-8"),
        ] {
            let err = parse_manifest(body).expect_err(&format!("{body:?}"));
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }
}
