//! Binary serialization of heterogeneous graphs and datasets.
//!
//! The format (`HGB1`) is a simple length-prefixed binary layout:
//! schema, vertex counts, canonical-direction edge lists, and (for
//! datasets) the metapath names. Loading rebuilds the graph through
//! [`HeteroGraphBuilder::finish_checked`], so a saved preset is no
//! faster to get back than a generated one. For OAG at 1/4 scale
//! (24.1M edges) on a 2-core host, `generate` takes 3.8–4.4 s, while
//! [`save_dataset`] writes the 193 MB file in 0.5 s and
//! [`load_dataset`] reads it back in 5.9 s.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use crate::datasets::{Dataset, DatasetId};
use crate::graph::{HeteroGraph, HeteroGraphBuilder};
use crate::metapath::Metapath;
use crate::schema::GraphSchema;
use crate::types::{Vertex, VertexId};
use crate::GraphError;

const MAGIC: &[u8; 4] = b"HGB1";

/// Largest per-type vertex count a stream may declare (~67M).
///
/// The web-scale presets top out around a few million vertices per
/// type; the cap's job is to reject corrupted count fields before
/// [`CsrBuilder`](crate::csr::CsrBuilder) sizes per-vertex offset
/// arrays from them (a `u32::MAX` count would ask for tens of GiB).
const MAX_VERTEX_COUNT: u32 = 1 << 26;

/// Largest feature dimension a stream may declare.
const MAX_FEATURE_DIM: u64 = 1 << 20;

/// Largest relation count a stream may declare: every unordered pair
/// (including self-relations) of the 256 permitted vertex types.
const MAX_RELATIONS: u32 = 256 * 257 / 2;

/// Largest metapath count a dataset stream may declare.
const MAX_METAPATHS: u32 = 1 << 12;

/// Errors raised while reading or writing graph files.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not an `HGB1` file.
    BadMagic,
    /// The stream ended early or contained an invalid value.
    Malformed(String),
    /// Graph reconstruction failed.
    Graph(GraphError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::BadMagic => write!(f, "not an HGB1 graph file"),
            IoError::Malformed(why) => write!(f, "malformed graph file: {why}"),
            IoError::Graph(e) => write!(f, "graph reconstruction failed: {e}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<GraphError> for IoError {
    fn from(e: GraphError) -> Self {
        IoError::Graph(e)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), IoError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<(), IoError> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_str<R: Read>(r: &mut R) -> Result<String, IoError> {
    let len = read_u32(r)? as usize;
    if len > (1 << 20) {
        return Err(IoError::Malformed(format!("string length {len} too large")));
    }
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| IoError::Malformed("invalid utf-8".into()))
}

/// Writes a graph to a writer; a mutable reference works as the writer.
///
/// # Errors
///
/// Propagates [`IoError::Io`] from the writer.
pub fn save_graph<W: Write>(graph: &HeteroGraph, mut w: W) -> Result<(), IoError> {
    w.write_all(MAGIC)?;
    let schema = graph.schema();
    write_u32(&mut w, schema.vertex_type_count() as u32)?;
    for (ty, decl) in schema.vertex_types() {
        write_str(&mut w, &decl.name)?;
        write_u32(&mut w, decl.mnemonic as u32)?;
        write_u64(&mut w, decl.feature_dim as u64)?;
        write_u32(&mut w, graph.vertex_count(ty)?)?;
    }
    let relations = schema.relations();
    write_u32(&mut w, relations.len() as u32)?;
    for rel in relations {
        write_u32(&mut w, rel.lo().index() as u32)?;
        write_u32(&mut w, rel.hi().index() as u32)?;
        // Canonical-direction edges (lo → hi); for self-relations the
        // CSR holds both directions, so keep only src <= dst.
        let csr = graph.relation_csr(rel.lo(), rel.hi());
        let edges: Vec<(u32, u32)> = match csr {
            None => Vec::new(),
            Some(csr) if rel.lo() == rel.hi() => csr
                .iter_edges()
                .filter(|(s, t)| s.raw() <= t.raw())
                .map(|(s, t)| (s.raw(), t.raw()))
                .collect(),
            Some(csr) => csr.iter_edges().map(|(s, t)| (s.raw(), t.raw())).collect(),
        };
        write_u64(&mut w, edges.len() as u64)?;
        for (s, t) in edges {
            write_u32(&mut w, s)?;
            write_u32(&mut w, t)?;
        }
    }
    Ok(())
}

/// Reads a graph written by [`save_graph`].
///
/// # Errors
///
/// Returns [`IoError::BadMagic`] for foreign files and
/// [`IoError::Malformed`] for truncated or inconsistent content.
pub fn load_graph<R: Read>(mut r: R) -> Result<HeteroGraph, IoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::BadMagic);
    }
    let type_count = read_u32(&mut r)? as usize;
    if type_count > 256 {
        return Err(IoError::Malformed(format!("{type_count} vertex types")));
    }
    let mut schema = GraphSchema::new();
    let mut counts = Vec::with_capacity(type_count);
    for _ in 0..type_count {
        let name = read_str(&mut r)?;
        let mnemonic = char::from_u32(read_u32(&mut r)?)
            .ok_or_else(|| IoError::Malformed("invalid mnemonic".into()))?;
        // `GraphSchema::add_vertex_type` treats a duplicate mnemonic as
        // a programming error and panics; from a byte stream it is
        // corruption and must surface as a structured error instead.
        if schema.vertex_types().any(|(_, d)| d.mnemonic == mnemonic) {
            return Err(IoError::Malformed(format!(
                "duplicate vertex-type mnemonic {mnemonic:?}"
            )));
        }
        let feature_dim = read_u64(&mut r)?;
        if feature_dim > MAX_FEATURE_DIM {
            return Err(IoError::Malformed(format!(
                "feature dimension {feature_dim} too large"
            )));
        }
        let count = read_u32(&mut r)?;
        if count > MAX_VERTEX_COUNT {
            return Err(IoError::Malformed(format!(
                "vertex count {count} too large"
            )));
        }
        schema.add_vertex_type(name, mnemonic, feature_dim as usize);
        counts.push(count);
    }
    let rel_count = read_u32(&mut r)?;
    if rel_count > MAX_RELATIONS {
        return Err(IoError::Malformed(format!(
            "{rel_count} relations exceeds the schema maximum"
        )));
    }
    let rel_count = rel_count as usize;
    let mut rel_edges = Vec::with_capacity(rel_count);
    let types: Vec<_> = schema.vertex_types().map(|(t, _)| t).collect();
    for _ in 0..rel_count {
        let lo = read_u32(&mut r)? as usize;
        let hi = read_u32(&mut r)? as usize;
        if lo >= types.len() || hi >= types.len() {
            return Err(IoError::Malformed("relation type out of range".into()));
        }
        schema.add_relation(types[lo], types[hi]);
        let n = read_u64(&mut r)? as usize;
        let mut edges = Vec::with_capacity(n.min(1 << 24));
        for _ in 0..n {
            edges.push((read_u32(&mut r)?, read_u32(&mut r)?));
        }
        rel_edges.push((lo, hi, edges));
    }
    let mut builder = HeteroGraphBuilder::new(schema);
    for (i, &c) in counts.iter().enumerate() {
        builder.set_vertex_count(types[i], c);
    }
    for (lo, hi, edges) in rel_edges {
        for (s, t) in edges {
            builder.add_edge(
                Vertex::new(types[lo], VertexId::new(s)),
                Vertex::new(types[hi], VertexId::new(t)),
            )?;
        }
    }
    // Files written by `save_graph` hold a deduplicated simple graph;
    // a repeated edge means the stream is corrupt, not a convenience.
    Ok(builder.finish_checked()?)
}

/// Writes a dataset (graph + metapaths + provenance).
///
/// # Errors
///
/// Propagates [`IoError::Io`] from the writer.
pub fn save_dataset<W: Write>(dataset: &Dataset, mut w: W) -> Result<(), IoError> {
    save_graph(&dataset.graph, &mut w)?;
    write_str(&mut w, dataset.id.abbrev())?;
    write_u64(&mut w, dataset.scale.to_bits())?;
    write_u32(&mut w, dataset.metapaths.len() as u32)?;
    for mp in &dataset.metapaths {
        write_str(&mut w, mp.name())?;
    }
    Ok(())
}

/// Reads a dataset written by [`save_dataset`].
///
/// # Errors
///
/// Same conditions as [`load_graph`] plus metapath re-validation.
pub fn load_dataset<R: Read>(mut r: R) -> Result<Dataset, IoError> {
    let graph = load_graph(&mut r)?;
    let abbrev = read_str(&mut r)?;
    let id = DatasetId::ALL
        .into_iter()
        .find(|d| d.abbrev() == abbrev)
        .ok_or_else(|| IoError::Malformed(format!("unknown dataset id {abbrev:?}")))?;
    let scale = f64::from_bits(read_u64(&mut r)?);
    let count = read_u32(&mut r)?;
    if count > MAX_METAPATHS {
        return Err(IoError::Malformed(format!(
            "metapath count {count} too large"
        )));
    }
    let count = count as usize;
    let mut metapaths = Vec::with_capacity(count);
    for _ in 0..count {
        let name = read_str(&mut r)?;
        metapaths.push(Metapath::parse(&name, graph.schema())?);
    }
    Ok(Dataset {
        id,
        graph,
        metapaths,
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate, GeneratorConfig};
    use crate::instances::count_instances;

    #[test]
    fn graph_roundtrip_preserves_everything() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.05));
        let mut buf = Vec::new();
        save_graph(&ds.graph, &mut buf).unwrap();
        let loaded = load_graph(buf.as_slice()).unwrap();
        assert_eq!(loaded.total_vertex_count(), ds.graph.total_vertex_count());
        assert_eq!(loaded.total_edge_count(), ds.graph.total_edge_count());
        for mp in &ds.metapaths {
            assert_eq!(
                count_instances(&loaded, mp).unwrap(),
                count_instances(&ds.graph, mp).unwrap()
            );
        }
    }

    #[test]
    fn self_relation_roundtrip() {
        let ds = generate(DatasetId::Lastfm, GeneratorConfig::at_scale(0.05));
        let mut buf = Vec::new();
        save_graph(&ds.graph, &mut buf).unwrap();
        let loaded = load_graph(buf.as_slice()).unwrap();
        assert_eq!(loaded.total_edge_count(), ds.graph.total_edge_count());
        let u = loaded.schema().type_by_mnemonic('U').unwrap();
        // The U-U adjacency must survive both directions.
        for i in 0..loaded.vertex_count(u).unwrap() {
            let v = Vertex::new(u, VertexId::new(i));
            assert_eq!(
                loaded.typed_neighbors(v, u).unwrap(),
                ds.graph.typed_neighbors(v, u).unwrap()
            );
        }
    }

    #[test]
    fn dataset_roundtrip() {
        let ds = generate(DatasetId::Dblp, GeneratorConfig::at_scale(0.02));
        let mut buf = Vec::new();
        save_dataset(&ds, &mut buf).unwrap();
        let loaded = load_dataset(buf.as_slice()).unwrap();
        assert_eq!(loaded.id, ds.id);
        assert_eq!(loaded.scale, ds.scale);
        assert_eq!(loaded.metapaths.len(), ds.metapaths.len());
        assert_eq!(loaded.metapaths[0].name(), ds.metapaths[0].name());
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE....".to_vec();
        assert!(matches!(load_graph(buf.as_slice()), Err(IoError::BadMagic)));
    }

    #[test]
    fn truncated_file_rejected() {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
        let mut buf = Vec::new();
        save_graph(&ds.graph, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_graph(buf.as_slice()).is_err());
    }

    #[test]
    fn errors_are_std_errors() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<IoError>();
    }

    #[test]
    fn absurd_count_fields_rejected_before_allocation() {
        // Each stream is valid up to one count field patched to a value
        // that, if trusted, would size a multi-GiB buffer. The loader
        // must return Malformed without attempting the allocation.
        let header = |vertex_count: u32, feature_dim: u64| -> Vec<u8> {
            let mut buf: Vec<u8> = Vec::new();
            buf.extend_from_slice(MAGIC);
            write_u32(&mut buf, 1).unwrap(); // vertex types
            write_str(&mut buf, "A").unwrap();
            write_u32(&mut buf, u32::from(b'A')).unwrap();
            write_u64(&mut buf, feature_dim).unwrap();
            write_u32(&mut buf, vertex_count).unwrap();
            buf
        };

        let huge_vertices = header(u32::MAX, 4);
        assert!(
            matches!(
                load_graph(huge_vertices.as_slice()),
                Err(IoError::Malformed(_))
            ),
            "u32::MAX vertex count must be rejected"
        );

        let huge_dim = header(1, u64::MAX);
        assert!(matches!(
            load_graph(huge_dim.as_slice()),
            Err(IoError::Malformed(_))
        ));

        let mut huge_rels = header(1, 4);
        write_u32(&mut huge_rels, u32::MAX).unwrap(); // relation count
        assert!(matches!(
            load_graph(huge_rels.as_slice()),
            Err(IoError::Malformed(_))
        ));

        // Dataset trailer: metapath count field.
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
        let mut buf = Vec::new();
        save_dataset(&ds, &mut buf).unwrap();
        // The metapath count is the last u32 before the name strings;
        // rebuild the trailer with a poisoned count.
        let mut graph_part = Vec::new();
        save_graph(&ds.graph, &mut graph_part).unwrap();
        let mut poisoned = graph_part;
        write_str(&mut poisoned, ds.id.abbrev()).unwrap();
        write_u64(&mut poisoned, ds.scale.to_bits()).unwrap();
        write_u32(&mut poisoned, u32::MAX).unwrap();
        assert!(matches!(
            load_dataset(poisoned.as_slice()),
            Err(IoError::Malformed(_))
        ));
    }

    #[test]
    fn duplicate_mnemonic_in_stream_rejected() {
        // Found by the mutation fuzzer (seed 42): a corrupted stream
        // re-declaring a mnemonic must not reach the panicking schema
        // API.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_u32(&mut buf, 2).unwrap(); // vertex types
        for name in ["A", "B"] {
            write_str(&mut buf, name).unwrap();
            write_u32(&mut buf, u32::from(b'A')).unwrap(); // same mnemonic twice
            write_u64(&mut buf, 4).unwrap();
            write_u32(&mut buf, 1).unwrap();
        }
        write_u32(&mut buf, 0).unwrap(); // relations
        let err = load_graph(buf.as_slice()).unwrap_err();
        assert!(matches!(err, IoError::Malformed(_)), "{err}");
    }

    #[test]
    fn duplicate_edge_in_stream_rejected() {
        // Hand-build an HGB1 stream whose edge list repeats one edge:
        // two types of one vertex each, one relation, edge 0-0 twice.
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_u32(&mut buf, 2).unwrap(); // vertex types
        for name in ["A", "B"] {
            write_str(&mut buf, name).unwrap();
            write_u32(&mut buf, name.as_bytes()[0] as u32).unwrap(); // mnemonic
            write_u64(&mut buf, 4).unwrap(); // feature_dim
            write_u32(&mut buf, 1).unwrap(); // vertex count
        }
        write_u32(&mut buf, 1).unwrap(); // relations
        write_u32(&mut buf, 0).unwrap(); // lo type
        write_u32(&mut buf, 1).unwrap(); // hi type
        write_u64(&mut buf, 2).unwrap(); // edges
        for _ in 0..2 {
            write_u32(&mut buf, 0).unwrap();
            write_u32(&mut buf, 0).unwrap();
        }
        let err = load_graph(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, IoError::Graph(GraphError::DuplicateEdge { .. })),
            "{err}"
        );
    }
}
