//! Synthetic dataset presets matching the paper's Table 3.
//!
//! The paper evaluates on DBLP, IMDB, LastFM, OGB-MAG, and OAG. The raw
//! dumps are not redistributable, so this module generates seeded
//! synthetic graphs with the same *type schema*, the same vertex and
//! edge counts, skewed (Zipf-like) degree distributions, and the same
//! metapath sets. The evaluation depends on those topology statistics —
//! in particular the combinatorial explosion of metapath instances —
//! which the generators reproduce; see DESIGN.md §2 for the
//! substitution rationale.
//!
//! The two web-scale presets (OGB-MAG, OAG) accept a scale factor so
//! cycle-level simulation remains tractable; counting-based analyses run
//! at any scale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::graph::{HeteroGraph, HeteroGraphBuilder};
use crate::metapath::Metapath;
use crate::schema::GraphSchema;
use crate::types::{Vertex, VertexId, VertexTypeId};

/// Identifier of one of the paper's five datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetId {
    /// DBLP academic graph (paper's "DP").
    Dblp,
    /// IMDB movie graph ("IB").
    Imdb,
    /// LastFM music graph ("LF").
    Lastfm,
    /// OGB-MAG academic graph ("OM").
    OgbMag,
    /// Open Academic Graph ("OG").
    Oag,
}

impl DatasetId {
    /// All five presets in the paper's order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::Dblp,
        DatasetId::Imdb,
        DatasetId::Lastfm,
        DatasetId::OgbMag,
        DatasetId::Oag,
    ];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetId::Dblp => "DP",
            DatasetId::Imdb => "IB",
            DatasetId::Lastfm => "LF",
            DatasetId::OgbMag => "OM",
            DatasetId::Oag => "OG",
        }
    }

    /// Full dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Dblp => "DBLP",
            DatasetId::Imdb => "IMDB",
            DatasetId::Lastfm => "LastFM",
            DatasetId::OgbMag => "OGB-MAG",
            DatasetId::Oag => "OAG",
        }
    }

    /// Returns `true` for the web-scale presets that exceed GPU memory
    /// in the paper (Figure 12 marks them OOM on the V100).
    pub fn is_web_scale(self) -> bool {
        matches!(self, DatasetId::OgbMag | DatasetId::Oag)
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A generated dataset: graph plus its defined metapaths.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which preset generated this dataset.
    pub id: DatasetId,
    /// The synthetic heterogeneous graph.
    pub graph: HeteroGraph,
    /// The metapaths the paper defines for this dataset (Table 3).
    pub metapaths: Vec<Metapath>,
    /// The scale factor the generator was invoked with.
    pub scale: f64,
}

impl Dataset {
    /// Finds a metapath by its mnemonic name (e.g. `"APA"`).
    pub fn metapath(&self, name: &str) -> Option<&Metapath> {
        self.metapaths.iter().find(|m| m.name() == name)
    }
}

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Multiplier on vertex and edge counts, in `(0, 1]`. The web-scale
    /// presets default to `1/64` elsewhere in the workspace; `1.0`
    /// reproduces Table 3 exactly.
    pub scale: f64,
    /// RNG seed; generation is fully deterministic given the seed.
    pub seed: u64,
    /// Zipf skew exponent for degree distributions. `0.0` is uniform;
    /// the default `0.75` produces the heavy-tailed fan-out real
    /// academic/media graphs exhibit (and that drives instance
    /// explosion).
    pub skew: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0,
            seed: 0x4d_65_74_61_4e_4d_50, // "MetaNMP"
            skew: 0.75,
        }
    }
}

impl GeneratorConfig {
    /// Convenience: default config at a given scale.
    pub fn at_scale(scale: f64) -> Self {
        GeneratorConfig {
            scale,
            ..Self::default()
        }
    }
}

struct TypeSpec {
    name: &'static str,
    mnemonic: char,
    count: u64,
    feature_dim: usize,
}

struct RelSpec {
    a: char,
    b: char,
    edges: u64,
}

struct PresetSpec {
    types: Vec<TypeSpec>,
    relations: Vec<RelSpec>,
    metapaths: Vec<&'static str>,
}

fn preset(id: DatasetId) -> PresetSpec {
    let t = |name, mnemonic, count, feature_dim| TypeSpec {
        name,
        mnemonic,
        count,
        feature_dim,
    };
    let r = |a, b, edges| RelSpec { a, b, edges };
    match id {
        DatasetId::Dblp => PresetSpec {
            types: vec![
                t("Author", 'A', 4057, 334),
                t("Paper", 'P', 14328, 4231),
                t("Term", 'T', 7723, 50),
                t("Venue", 'V', 20, 20),
            ],
            relations: vec![r('A', 'P', 19645), r('P', 'T', 85810), r('P', 'V', 14328)],
            metapaths: vec!["APA", "APTPA", "APVPA"],
        },
        DatasetId::Imdb => PresetSpec {
            types: vec![
                t("Movie", 'M', 4278, 3066),
                t("Director", 'D', 2081, 3066),
                t("Actor", 'A', 5257, 3066),
            ],
            relations: vec![r('M', 'D', 4278), r('M', 'A', 12828)],
            metapaths: vec!["MDM", "MAM", "DMD", "DMAMD", "AMA", "AMDMA"],
        },
        DatasetId::Lastfm => PresetSpec {
            types: vec![
                t("User", 'U', 1892, 800),
                t("Artist", 'A', 17632, 1800),
                t("Tag", 'T', 1088, 200),
            ],
            relations: vec![r('U', 'U', 12717), r('U', 'A', 92834), r('A', 'T', 23253)],
            metapaths: vec!["UAU", "UATAU", "AUA", "ATA"],
        },
        // Note: the paper's Table 3 prints 36389 papers for OGB-MAG,
        // which is a typesetting truncation — the public OGB-MAG has
        // 736389 papers, and the listed 7.1M A-P edges require it.
        DatasetId::OgbMag => PresetSpec {
            types: vec![
                t("Author", 'A', 1_134_649, 128),
                t("Paper", 'P', 736_389, 128),
                t("Institution", 'I', 8_740, 128),
                t("Field", 'F', 59_965, 128),
            ],
            relations: vec![
                r('A', 'I', 1_043_998),
                r('A', 'P', 7_145_660),
                r('P', 'P', 5_416_271),
                r('P', 'F', 7_505_078),
            ],
            metapaths: vec!["APA", "APFPA"],
        },
        DatasetId::Oag => PresetSpec {
            types: vec![
                t("Author", 'A', 5_985_759, 256),
                t("Paper", 'P', 5_597_605, 256),
                t("Institution", 'I', 27_433, 256),
                t("Field", 'F', 119_537, 256),
                t("Venue", 'V', 16_931, 256),
            ],
            relations: vec![
                r('A', 'I', 7_190_480),
                r('A', 'P', 15_571_614),
                r('P', 'P', 5_597_606),
                r('P', 'F', 47_462_559),
                r('P', 'V', 31_441_552),
            ],
            metapaths: vec!["APA", "APFPA"],
        },
    }
}

/// Samples an index in `0..n` from a truncated Zipf-like distribution
/// using inverse-CDF on the continuous approximation. `skew == 0`
/// degenerates to uniform.
fn sample_skewed(rng: &mut StdRng, n: u64, skew: f64) -> u64 {
    debug_assert!(n > 0);
    if skew <= f64::EPSILON || n == 1 {
        return rng.gen_range(0..n);
    }
    // Continuous Zipf via inverse transform: P(X <= x) ∝ x^(1-skew) for
    // skew < 1; clamp for numerical safety.
    let u: f64 = rng.gen_range_open();
    let exp = 1.0 - skew;
    let x = (u * (n as f64).powf(exp)).powf(1.0 / exp);
    (x as u64).min(n - 1)
}

trait RngExt {
    fn gen_range_open(&mut self) -> f64;
}

impl RngExt for StdRng {
    fn gen_range_open(&mut self) -> f64 {
        // Avoid exactly 0 so powf stays finite.
        loop {
            let v: f64 = self.gen();
            if v > 0.0 {
                return v;
            }
        }
    }
}

/// Generates one of the paper's dataset presets.
///
/// Deterministic for a given [`GeneratorConfig`]. Vertex and edge
/// counts scale linearly with `config.scale` (minimum of 1 vertex per
/// type).
///
/// ```
/// use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
/// let ds = generate(DatasetId::Dblp, GeneratorConfig::at_scale(0.05));
/// assert_eq!(ds.id, DatasetId::Dblp);
/// assert_eq!(ds.metapaths.len(), 3);
/// ```
///
/// # Panics
///
/// Panics if `config.scale` is not in `(0, 1]`.
pub fn generate(id: DatasetId, config: GeneratorConfig) -> Dataset {
    assert!(
        config.scale > 0.0 && config.scale <= 1.0,
        "scale must be in (0, 1], got {}",
        config.scale
    );
    let spec = preset(id);
    let mut schema = GraphSchema::new();
    let mut type_ids: Vec<(char, VertexTypeId, u64)> = Vec::new();
    for t in &spec.types {
        let count = ((t.count as f64 * config.scale).round() as u64).max(1);
        let ty = schema.add_vertex_type(t.name, t.mnemonic, t.feature_dim);
        type_ids.push((t.mnemonic, ty, count));
    }
    for rel in &spec.relations {
        let a = schema.type_by_mnemonic(rel.a).expect("preset is valid");
        let b = schema.type_by_mnemonic(rel.b).expect("preset is valid");
        schema.add_relation(a, b);
    }

    let lookup = |m: char| {
        type_ids
            .iter()
            .find(|(c, ..)| *c == m)
            .map(|&(_, ty, n)| (ty, n))
            .expect("preset is valid")
    };

    let mut builder = HeteroGraphBuilder::new(schema.clone());
    for &(_, ty, n) in &type_ids {
        builder.set_vertex_count(ty, n as u32);
    }

    let mut rng = StdRng::seed_from_u64(config.seed ^ id.abbrev().len() as u64 ^ fxhash(id));
    for rel in &spec.relations {
        let (ta, na) = lookup(rel.a);
        let (tb, nb) = lookup(rel.b);
        let edges = ((rel.edges as f64 * config.scale).round() as u64).max(1);
        if ta == tb && na <= 1 {
            continue; // a single-vertex self relation has no valid edges
        }
        for _ in 0..edges {
            loop {
                let sa = sample_skewed(&mut rng, na, config.skew);
                let sb = sample_skewed(&mut rng, nb, config.skew);
                if ta == tb && sa == sb {
                    continue; // resample to avoid self-loops
                }
                builder
                    .add_edge(
                        Vertex::new(ta, VertexId::new(sa as u32)),
                        Vertex::new(tb, VertexId::new(sb as u32)),
                    )
                    .expect("generated edges are in range");
                break;
            }
        }
    }
    let graph = builder.finish();
    let metapaths = spec
        .metapaths
        .iter()
        .map(|m| Metapath::parse(m, &schema).expect("preset metapaths are valid"))
        .collect();
    Dataset {
        id,
        graph,
        metapaths,
        scale: config.scale,
    }
}

fn fxhash(id: DatasetId) -> u64 {
    match id {
        DatasetId::Dblp => 1,
        DatasetId::Imdb => 2,
        DatasetId::Lastfm => 3,
        DatasetId::OgbMag => 4,
        DatasetId::Oag => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::count_instances;

    #[test]
    fn dblp_full_scale_matches_table3_counts() {
        let ds = generate(DatasetId::Dblp, GeneratorConfig::default());
        let s = ds.graph.schema();
        let a = s.type_by_mnemonic('A').unwrap();
        let p = s.type_by_mnemonic('P').unwrap();
        assert_eq!(ds.graph.vertex_count(a).unwrap(), 4057);
        assert_eq!(ds.graph.vertex_count(p).unwrap(), 14328);
        // Sampling collisions dedup away a small fraction of edges; the
        // counts must stay within a few percent of Table 3.
        let nominal = (19645 + 85810 + 14328) as f64;
        let actual = ds.graph.total_edge_count() as f64;
        assert!(actual <= nominal);
        assert!(actual > nominal * 0.75, "actual = {actual}");
        assert_eq!(ds.metapaths.len(), 3);
    }

    /// Pins every preset's generated graph, both CSR directions
    /// included, to the bytes of its JSON form (FNV-1a via
    /// `checkpoint::config_hash`), so a change to the sampler or to the
    /// CSR build cannot move a graph unnoticed.
    #[test]
    fn generated_graphs_match_the_golden_digests() {
        for (id, scale, digest) in [
            (DatasetId::Dblp, 1.0, 0x1c4d_582e_6ad6_5241),
            (DatasetId::Imdb, 1.0, 0x8384_e372_1662_d64e),
            (DatasetId::Lastfm, 1.0, 0x3924_8df3_e9ad_ded1),
            (DatasetId::OgbMag, 0.01, 0xb889_cc17_6d02_12dc),
            (DatasetId::Oag, 0.002, 0x6e5b_6379_ddfe_702b),
        ] {
            let ds = generate(id, GeneratorConfig::at_scale(scale));
            assert_eq!(
                checkpoint::config_hash(&ds.graph),
                digest,
                "{id} at scale {scale}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.1));
        let b = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.1));
        let mp = a.metapath("MAM").unwrap();
        assert_eq!(
            count_instances(&a.graph, mp).unwrap(),
            count_instances(&b.graph, b.metapath("MAM").unwrap()).unwrap()
        );
        assert_eq!(a.graph.total_edge_count(), b.graph.total_edge_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(
            DatasetId::Imdb,
            GeneratorConfig {
                seed: 1,
                ..GeneratorConfig::at_scale(0.1)
            },
        );
        let b = generate(
            DatasetId::Imdb,
            GeneratorConfig {
                seed: 2,
                ..GeneratorConfig::at_scale(0.1)
            },
        );
        let mp = a.metapath("AMA").unwrap();
        let ca = count_instances(&a.graph, mp).unwrap();
        let cb = count_instances(&b.graph, b.metapath("AMA").unwrap()).unwrap();
        assert_ne!(ca, cb);
    }

    #[test]
    fn scaling_reduces_size() {
        let full = generate(DatasetId::Lastfm, GeneratorConfig::default());
        let small = generate(DatasetId::Lastfm, GeneratorConfig::at_scale(0.1));
        assert!(small.graph.total_vertex_count() < full.graph.total_vertex_count());
        assert!(small.graph.total_edge_count() < full.graph.total_edge_count());
    }

    #[test]
    fn lastfm_has_self_relation_metapath_support() {
        // U-U is a self relation; ensure generation and metapaths work.
        let ds = generate(DatasetId::Lastfm, GeneratorConfig::at_scale(0.2));
        assert!(ds.metapath("UAU").is_some());
        let s = ds.graph.schema();
        let u = s.type_by_mnemonic('U').unwrap();
        assert!(ds.graph.relation_csr(u, u).is_some());
    }

    #[test]
    fn instance_explosion_on_long_metapaths() {
        // The 5-hop LF-UATAU must explode combinatorially relative to
        // UAU — this is the Table 1 phenomenon.
        let ds = generate(DatasetId::Lastfm, GeneratorConfig::at_scale(0.25));
        let short = count_instances(&ds.graph, ds.metapath("UAU").unwrap()).unwrap();
        let long = count_instances(&ds.graph, ds.metapath("UATAU").unwrap()).unwrap();
        assert!(long > 10 * short, "long = {long}, short = {short}");
    }

    #[test]
    fn web_scale_presets_generate_at_small_scale() {
        let ds = generate(DatasetId::OgbMag, GeneratorConfig::at_scale(0.004));
        assert!(ds.graph.total_vertex_count() > 0);
        assert!(ds.id.is_web_scale());
        assert_eq!(ds.metapaths.len(), 2);
    }

    #[test]
    fn skew_increases_instance_count() {
        let uniform = generate(
            DatasetId::Imdb,
            GeneratorConfig {
                skew: 0.0,
                ..GeneratorConfig::at_scale(0.25)
            },
        );
        let skewed = generate(
            DatasetId::Imdb,
            GeneratorConfig {
                skew: 0.9,
                ..GeneratorConfig::at_scale(0.25)
            },
        );
        let mp_u = uniform.metapath("AMA").unwrap();
        let mp_s = skewed.metapath("AMA").unwrap();
        let cu = count_instances(&uniform.graph, mp_u).unwrap();
        let cs = count_instances(&skewed.graph, mp_s).unwrap();
        assert!(cs > cu, "skewed {cs} <= uniform {cu}");
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        generate(DatasetId::Dblp, GeneratorConfig::at_scale(0.0));
    }

    #[test]
    fn abbrevs_and_names() {
        assert_eq!(DatasetId::Dblp.abbrev(), "DP");
        assert_eq!(DatasetId::Oag.name(), "OAG");
        assert_eq!(DatasetId::ALL.len(), 5);
    }
}
