//! The serving cost model.
//!
//! One cycle-accurate [`metanmp::Simulator`] epoch calibrates a
//! per-instance cycle cost; after that, each query's service time is
//! analytical — its metapath-instance fan-out (exact, via backward
//! DP) times the calibrated cost, discounted by whatever the reuse
//! cache already holds. This keeps a multi-thousand-query serving run
//! tractable while anchoring every tick to the hardware model.

use hetgraph::datasets::{generate, Dataset, DatasetId, GeneratorConfig};
use hetgraph::instances::suffix_walk_counts;
use hetgraph::{Vertex, VertexId};
use hgnn::ModelKind;
use nmp::NmpConfig;

use crate::cache::{EntryKind, Key, ReuseCache};
use crate::sim::ServeConfig;
use crate::ServeError;

/// Fraction of the calibrated epoch attributed to instance-proportional
/// work (generation + aggregation); the rest is per-query fixed
/// overhead (projection, dispatch, semantic combine).
const INSTANCE_COST_FRACTION: f64 = 0.85;

/// One metapath's serving model: first-hop adjacency and per-neighbor
/// suffix instance counts.
#[derive(Debug)]
pub(crate) struct PathModel {
    /// Metapath mnemonic (e.g. `"MAM"`), for reports.
    pub(crate) name: String,
    /// First-hop neighbors of each query vertex.
    pub(crate) hop1: Vec<Vec<u32>>,
    /// Instances of the metapath *suffix* dispersing from each
    /// first-hop neighbor — the work a prefix-cache hit avoids.
    pub(crate) suffix1: Vec<u64>,
}

/// A calibrated serving workload: dataset structure plus the cost
/// model, built once and shared (immutably) by every load point of a
/// sweep.
#[derive(Debug)]
pub struct ServeWorkload {
    /// Exclusive bound on query vertex ids (count of the query type).
    pub(crate) vertex_bound: u32,
    /// Per-metapath models, restricted to metapaths rooted at the
    /// query vertex type.
    pub(crate) paths: Vec<PathModel>,
    /// Calibrated NMP cycles per metapath instance.
    pub(crate) cycles_per_instance: f64,
    /// Fixed per-query overhead in ticks.
    pub(crate) fixed_ticks: u64,
    /// Cost of combining one cached aggregate (one vector op).
    pub(crate) combine_ticks: u64,
    /// DIMM count of the modeled system (dispatch targets).
    pub(crate) dimms: usize,
    /// Ranks per DIMM (maps fault-injector global ranks onto DIMMs).
    pub(crate) ranks_per_dimm: usize,
    /// Reuse-cache entry size in bytes (one hidden vector).
    pub(crate) entry_bytes: usize,
    /// Mean cache-cold query cost, for capacity estimates.
    pub(crate) mean_query_ticks: f64,
    /// Fingerprint of the config this workload was built from.
    pub(crate) built_for: (DatasetId, u64, ModelKind, usize),
}

impl ServeWorkload {
    /// Builds the workload for `config`: generates the dataset, runs
    /// one calibration epoch on the cycle-accurate simulator, and
    /// precomputes per-metapath suffix counts.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when no metapath is rooted at the query
    /// vertex type; [`ServeError::Calibration`] when the epoch fails;
    /// [`ServeError::Graph`] on adjacency errors.
    pub fn build(config: &ServeConfig) -> Result<ServeWorkload, ServeError> {
        let ds = generate(
            config.dataset,
            GeneratorConfig {
                scale: config.scale,
                ..GeneratorConfig::default()
            },
        );

        // Calibration epoch: fault-free, same dataset/model/geometry.
        let nmp_cfg = NmpConfig::default();
        let sim = metanmp::Simulator::builder()
            .dataset(config.dataset)
            .scale(config.scale)
            .model(config.model)
            .hidden_dim(config.hidden_dim)
            .nmp_config(nmp_cfg)
            .build()?;
        let outcome = sim.run()?;
        let instances = outcome.nmp.counts.instances.max(1) as f64;
        let cycles = outcome.nmp.cycles as f64;

        let (paths, vertex_bound) = build_paths(&ds)?;
        if paths.is_empty() {
            return Err(ServeError::Config(format!(
                "dataset {:?} has no metapath rooted at the query vertex type",
                config.dataset
            )));
        }

        let cycles_per_instance = INSTANCE_COST_FRACTION * cycles / instances;
        let fixed_ticks = (((1.0 - INSTANCE_COST_FRACTION) * cycles
            / f64::from(vertex_bound.max(1))) as u64)
            .max(1);
        let combine_ticks = config.hidden_dim.div_ceil(nmp_cfg.pe_lanes).max(1) as u64;

        let mut w = ServeWorkload {
            vertex_bound,
            paths,
            cycles_per_instance,
            fixed_ticks,
            combine_ticks,
            dimms: nmp_cfg.dram.channels * nmp_cfg.dram.dimms_per_channel,
            ranks_per_dimm: nmp_cfg.dram.ranks_per_dimm,
            entry_bytes: config.hidden_dim * 4,
            mean_query_ticks: 0.0,
            built_for: config.fingerprint(),
        };
        // Mean cache-cold cost over all query vertices (exact).
        let total: f64 = (0..w.vertex_bound)
            .map(|v| w.cold_query_ticks(v) as f64)
            .sum();
        w.mean_query_ticks = total / f64::from(w.vertex_bound.max(1));
        Ok(w)
    }

    /// Exclusive bound on valid query vertex ids.
    pub fn vertex_bound(&self) -> u32 {
        self.vertex_bound
    }

    /// Mean service ticks of a query with a cold cache.
    pub fn mean_query_ticks(&self) -> f64 {
        self.mean_query_ticks
    }

    /// Number of DIMMs queries dispatch across.
    pub fn dimms(&self) -> usize {
        self.dimms
    }

    /// Metapath mnemonics this workload serves.
    pub fn path_names(&self) -> Vec<&str> {
        self.paths.iter().map(|p| p.name.as_str()).collect()
    }

    /// Service cost of `vertex` assuming every lookup misses.
    pub(crate) fn cold_query_ticks(&self, vertex: u32) -> u64 {
        let mut ticks = self.fixed_ticks;
        for p in &self.paths {
            for &n in &p.hop1[vertex as usize] {
                ticks = ticks
                    .saturating_add(
                        (p.suffix1[n as usize] as f64 * self.cycles_per_instance) as u64,
                    )
                    .saturating_add(self.combine_ticks);
            }
        }
        ticks.max(1)
    }

    /// Root-cache-only "brownout" service of `vertex`: when every
    /// per-metapath root aggregate is resident, the query can be
    /// answered at degraded quality with pure combine work and no DIMM
    /// time. Returns `None` (cache untouched) when any root is
    /// missing; on success the roots' recency and hit counters update
    /// as for a normal hit.
    pub(crate) fn brownout_ticks(&self, vertex: u32, cache: &mut ReuseCache) -> Option<u64> {
        let key = |mp: usize| Key {
            mp: mp as u8,
            kind: EntryKind::Root,
            node: vertex,
        };
        if !(0..self.paths.len()).all(|mp| cache.peek(key(mp))) {
            return None;
        }
        let mut ticks = self.fixed_ticks;
        for mp in 0..self.paths.len() {
            let hit = cache.lookup(key(mp));
            debug_assert!(hit, "peeked resident above");
            ticks = ticks.saturating_add(self.combine_ticks);
        }
        Some(ticks.max(1))
    }

    /// Predicted service cost of `vertex` against the *current* cache
    /// contents, without touching recency or stats — the admission
    /// layer's deadline estimate. Mirrors [`Self::query_ticks`] with
    /// peeks; exact if the cache doesn't change before dispatch.
    pub(crate) fn predicted_ticks(&self, vertex: u32, cache: &ReuseCache) -> u64 {
        let mut ticks = self.fixed_ticks;
        for (mp, p) in self.paths.iter().enumerate() {
            let root = Key {
                mp: mp as u8,
                kind: EntryKind::Root,
                node: vertex,
            };
            if cache.peek(root) {
                ticks = ticks.saturating_add(self.combine_ticks);
                continue;
            }
            for &n in &p.hop1[vertex as usize] {
                let prefix = Key {
                    mp: mp as u8,
                    kind: EntryKind::Prefix,
                    node: n,
                };
                if cache.peek(prefix) {
                    ticks = ticks.saturating_add(self.combine_ticks);
                } else {
                    ticks = ticks
                        .saturating_add(
                            (p.suffix1[n as usize] as f64 * self.cycles_per_instance) as u64,
                        )
                        .saturating_add(self.combine_ticks);
                }
            }
        }
        ticks.max(1)
    }

    /// Service cost of `vertex` against the shared reuse cache,
    /// recording hits/misses and inserting the aggregates the query
    /// leaves behind.
    pub(crate) fn query_ticks(&self, vertex: u32, cache: &mut ReuseCache) -> u64 {
        let mut ticks = self.fixed_ticks;
        for (mp, p) in self.paths.iter().enumerate() {
            let root = Key {
                mp: mp as u8,
                kind: EntryKind::Root,
                node: vertex,
            };
            if cache.lookup(root) {
                // The whole per-metapath aggregate is resident: one
                // semantic combine and done.
                ticks = ticks.saturating_add(self.combine_ticks);
                continue;
            }
            for &n in &p.hop1[vertex as usize] {
                let prefix = Key {
                    mp: mp as u8,
                    kind: EntryKind::Prefix,
                    node: n,
                };
                if cache.lookup(prefix) {
                    ticks = ticks.saturating_add(self.combine_ticks);
                } else {
                    ticks = ticks
                        .saturating_add(
                            (p.suffix1[n as usize] as f64 * self.cycles_per_instance) as u64,
                        )
                        .saturating_add(self.combine_ticks);
                    cache.insert(prefix);
                }
            }
            cache.insert(root);
        }
        ticks.max(1)
    }
}

/// Builds per-metapath first-hop adjacency and suffix counts for every
/// metapath rooted at the dataset's primary query type (the start type
/// of its first metapath).
fn build_paths(ds: &Dataset) -> Result<(Vec<PathModel>, u32), ServeError> {
    let Some(first) = ds.metapaths.first() else {
        return Ok((Vec::new(), 0));
    };
    let query_ty = first.vertex_types()[0];
    let vertex_bound = ds.graph.vertex_count(query_ty)?;
    let mut paths = Vec::new();
    for mp in &ds.metapaths {
        let types = mp.vertex_types();
        if types[0] != query_ty || types.len() < 2 {
            continue;
        }
        // suffix1[n] = instances of the metapath suffix `types[1..]`
        // dispersing from neighbor n.
        let suffix1: Vec<u64> = suffix_walk_counts(&ds.graph, &types[1..], 0)?
            .into_iter()
            .map(|c| u64::try_from(c).unwrap_or(u64::MAX))
            .collect();
        let hop1_ty = types[1];
        let mut hop1 = Vec::with_capacity(vertex_bound as usize);
        for i in 0..vertex_bound {
            let v = Vertex::new(query_ty, VertexId::new(i));
            hop1.push(ds.graph.typed_neighbors(v, hop1_ty)?.to_vec());
        }
        paths.push(PathModel {
            name: mp.name().to_string(),
            hop1,
            suffix1,
        });
    }
    Ok((paths, vertex_bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::instances::count_instances_per_start;

    #[test]
    fn suffix_counts_recompose_per_start_fanout() {
        // For every metapath model, Σ_n∈hop1(v) suffix1[n] must equal
        // the exact per-start instance count — the DP is the same one
        // hetgraph runs to completion.
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
        let (paths, bound) = build_paths(&ds).unwrap();
        assert!(!paths.is_empty());
        for p in &paths {
            let mp = ds.metapath(&p.name).unwrap();
            let exact = count_instances_per_start(&ds.graph, mp).unwrap();
            for (v, hop) in p.hop1.iter().enumerate().take(bound as usize) {
                let recomposed: u128 = hop.iter().map(|&n| p.suffix1[n as usize] as u128).sum();
                assert_eq!(recomposed, exact[v], "metapath {} vertex {v}", p.name);
            }
        }
    }

    #[test]
    fn brownout_needs_every_root_resident() {
        let config = ServeConfig::smoke_test();
        let w = ServeWorkload::build(&config).unwrap();
        let mut cache = ReuseCache::new(4096);
        assert_eq!(w.brownout_ticks(0, &mut cache), None, "cold cache");
        // A full normal query leaves every root behind.
        let full = w.query_ticks(0, &mut cache);
        let b = w.brownout_ticks(0, &mut cache).expect("roots resident");
        assert!(b <= full, "brownout ({b}) must not exceed full ({full})");
        assert_eq!(
            b,
            w.fixed_ticks + w.paths.len() as u64 * w.combine_ticks,
            "brownout is pure combine work"
        );
        // A different vertex's roots are absent.
        assert_eq!(w.brownout_ticks(1, &mut cache), None);
    }

    #[test]
    fn cache_discounts_repeat_queries() {
        let config = ServeConfig::smoke_test();
        let w = ServeWorkload::build(&config).unwrap();
        let mut cache = ReuseCache::new(4096);
        let cold = w.query_ticks(0, &mut cache);
        let warm = w.query_ticks(0, &mut cache);
        assert!(
            warm <= cold,
            "second identical query must not cost more (cold {cold}, warm {warm})"
        );
        assert!(cache.stats.root_hits >= 1);
        assert_eq!(cold, w.cold_query_ticks(0));
    }
}
