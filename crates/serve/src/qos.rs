//! QoS class definitions.

use serde::Serialize;

/// Most QoS classes a table may declare.
const MAX_CLASSES: usize = 16;

/// One quality-of-service class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassSpec {
    /// Human-readable name, used in reports.
    pub name: &'static str,
    /// Dispatch priority — higher wins the scheduler.
    pub priority: u8,
    /// Relative share of arriving traffic (normalized internally).
    pub share: f64,
    /// Latency target: the class attains QoS when its p99 is below
    /// this many ticks.
    pub target_p99_ticks: u64,
    /// Batching policy: close a batch at this many queries…
    pub max_batch: u32,
    /// …or when the oldest member has waited this many ticks.
    pub max_wait_ticks: u64,
}

/// The default three-class mix: latency-critical interactive traffic,
/// a standard tier, and throughput-oriented bulk scoring.
pub fn default_classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            name: "interactive",
            priority: 2,
            share: 0.2,
            target_p99_ticks: 60_000,
            max_batch: 4,
            max_wait_ticks: 2_000,
        },
        ClassSpec {
            name: "standard",
            priority: 1,
            share: 0.5,
            target_p99_ticks: 250_000,
            max_batch: 16,
            max_wait_ticks: 12_000,
        },
        ClassSpec {
            name: "bulk",
            priority: 0,
            share: 0.3,
            target_p99_ticks: 2_000_000,
            max_batch: 64,
            max_wait_ticks: 80_000,
        },
    ]
}

/// Validates a class table: one to [`MAX_CLASSES`] classes, positive
/// finite shares, positive batch bounds.
pub(crate) fn validate(classes: &[ClassSpec]) -> Result<(), crate::ServeError> {
    if classes.is_empty() {
        return Err(crate::ServeError::Config("no QoS classes".into()));
    }
    if classes.len() > MAX_CLASSES {
        return Err(crate::ServeError::Config(format!(
            "{} QoS classes exceeds cap {MAX_CLASSES}",
            classes.len()
        )));
    }
    for c in classes {
        if !c.share.is_finite() || c.share <= 0.0 {
            return Err(crate::ServeError::Config(format!(
                "class {}: share must be positive and finite, got {}",
                c.name, c.share
            )));
        }
        if c.max_batch == 0 {
            return Err(crate::ServeError::Config(format!(
                "class {}: max_batch must be at least 1",
                c.name
            )));
        }
        if c.target_p99_ticks == 0 {
            return Err(crate::ServeError::Config(format!(
                "class {}: target_p99_ticks must be positive",
                c.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_classes_validate() {
        let c = default_classes();
        assert_eq!(c.len(), 3);
        validate(&c).unwrap();
    }

    #[test]
    fn bad_tables_are_rejected() {
        assert!(validate(&[]).is_err());
        let mut c = default_classes();
        c[0].share = 0.0;
        assert!(validate(&c).is_err());
        let mut c = default_classes();
        c[1].max_batch = 0;
        assert!(validate(&c).is_err());
        let c = vec![default_classes()[0].clone(); MAX_CLASSES + 1];
        assert!(validate(&c).is_err());
    }
}
