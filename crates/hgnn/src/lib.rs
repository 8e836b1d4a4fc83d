//! Heterogeneous graph neural network models and execution engines.
//!
//! This crate implements the three HGNNs the paper evaluates (MAGNN,
//! HAN, SHGNN) as functional forward passes over a
//! [`hetgraph::HeteroGraph`], with two interchangeable execution
//! engines:
//!
//! * [`engine::MaterializedEngine`] — the conventional pipeline that
//!   materializes every metapath instance as a pre-processing phase and
//!   aggregates each instance independently (the baseline whose memory
//!   footprint and redundant computation the paper measures);
//! * [`engine::OnTheFlyEngine`] — the paper's software approach
//!   ("SoftwareOnly" in Figure 14): instances are generated on the fly
//!   by cartesian-like products and shared-prefix aggregates are
//!   computed once and reused.
//!
//! Both engines compute *identical embeddings* (property-tested) while
//! counting flops and bytes per phase into a
//! [`profile::WorkloadProfile`], the currency every performance model
//! in the workspace consumes.
//!
//! # Example
//!
//! ```
//! use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
//! use hgnn::engine::{InferenceEngine, MaterializedEngine, OnTheFlyEngine};
//! use hgnn::{FeatureStore, ModelConfig, ModelKind};
//!
//! let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
//! let features = FeatureStore::random(&ds.graph, 7);
//! let config = ModelConfig::new(ModelKind::Magnn).with_hidden_dim(16);
//!
//! let baseline = MaterializedEngine.run(&ds.graph, &features, &config, &ds.metapaths)?;
//! let on_the_fly = OnTheFlyEngine.run(&ds.graph, &features, &config, &ds.metapaths)?;
//!
//! // Same embeddings, strictly less aggregation work.
//! assert!(on_the_fly.profile.performed_aggregations
//!     <= baseline.profile.performed_aggregations);
//! # Ok::<(), hgnn::HgnnError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
mod error;
mod features;
mod model;
pub mod profile;
pub mod tensor;

pub use error::HgnnError;
pub use features::{FeatureStore, HiddenFeatures, Projection};
pub use model::{semantic_weights, ModelConfig, ModelKind};
pub use profile::{OpCounters, Phase, PhaseBreakdown, WorkloadProfile};
