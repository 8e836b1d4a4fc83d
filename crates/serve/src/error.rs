//! Structured errors for the serving simulator.

/// Anything that can stop a serving simulation from running.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration (zero classes, bad shares, rate ≤ 0, …).
    Config(String),
    /// Graph/metapath query failed while building the workload model.
    Graph(hetgraph::GraphError),
    /// The calibration epoch on the cycle-accurate simulator failed.
    Calibration(metanmp::MetanmpError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Graph(e) => write!(f, "serve workload: {e}"),
            ServeError::Calibration(e) => write!(f, "serve calibration: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Graph(e) => Some(e),
            ServeError::Calibration(e) => Some(e),
            ServeError::Config(_) => None,
        }
    }
}

impl From<hetgraph::GraphError> for ServeError {
    fn from(e: hetgraph::GraphError) -> Self {
        ServeError::Graph(e)
    }
}

impl From<metanmp::MetanmpError> for ServeError {
    fn from(e: metanmp::MetanmpError) -> Self {
        ServeError::Calibration(e)
    }
}
