//! Error types for heterogeneous graph construction and queries.

use std::error::Error;
use std::fmt;

use crate::types::{Relation, Vertex, VertexTypeId};

/// Errors raised while building or querying a heterogeneous graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A vertex type id was used that the schema does not define.
    UnknownVertexType(VertexTypeId),
    /// A vertex type name was looked up that the schema does not define.
    UnknownVertexTypeName(String),
    /// An edge referenced a relation the schema does not define.
    UnknownRelation(Relation),
    /// A vertex id was out of range for its type.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: Vertex,
        /// Number of vertices of that type.
        count: u32,
    },
    /// A metapath was empty or had fewer than two vertex types.
    MetapathTooShort(usize),
    /// A metapath stepped over a relation with no edges in the schema.
    MetapathUnknownRelation {
        /// Position of the offending hop (0-based).
        hop: usize,
        /// The relation that does not exist.
        relation: Relation,
    },
    /// Too many vertex types for the compact id space.
    TooManyVertexTypes(usize),
    /// An edge connected a vertex to itself.
    SelfLoop(Vertex),
    /// A feature value was NaN or infinite.
    NonFiniteFeature {
        /// The vertex type whose feature matrix held the value.
        ty: VertexTypeId,
        /// Row (local vertex id) of the offending value.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertexType(ty) => {
                write!(f, "unknown vertex type {ty}")
            }
            GraphError::UnknownVertexTypeName(name) => {
                write!(f, "unknown vertex type name {name:?}")
            }
            GraphError::UnknownRelation(rel) => {
                write!(f, "relation {rel} is not declared in the schema")
            }
            GraphError::VertexOutOfRange { vertex, count } => {
                write!(
                    f,
                    "vertex {vertex} is out of range (type has {count} vertices)"
                )
            }
            GraphError::MetapathTooShort(len) => {
                write!(
                    f,
                    "metapath must contain at least two vertex types, got {len}"
                )
            }
            GraphError::MetapathUnknownRelation { hop, relation } => {
                write!(
                    f,
                    "metapath hop {hop} crosses undeclared relation {relation}"
                )
            }
            GraphError::TooManyVertexTypes(n) => {
                write!(f, "schema declares {n} vertex types, maximum is 256")
            }
            GraphError::SelfLoop(v) => {
                write!(f, "self-loop on vertex {v} is not supported")
            }
            GraphError::NonFiniteFeature { ty, row, col } => {
                write!(
                    f,
                    "non-finite feature value for vertex type {ty} at row {row}, column {col}"
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{VertexId, VertexTypeId};

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::UnknownVertexType(VertexTypeId::new(3));
        assert!(e.to_string().contains("T3"));

        let e = GraphError::VertexOutOfRange {
            vertex: Vertex::new(VertexTypeId::new(0), VertexId::new(10)),
            count: 5,
        };
        let s = e.to_string();
        assert!(s.contains("out of range"));
        assert!(s.contains('5'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<GraphError>();
    }

    #[test]
    fn validation_variants_name_the_offender() {
        let s = GraphError::NonFiniteFeature {
            ty: VertexTypeId::new(2),
            row: 7,
            col: 3,
        }
        .to_string();
        assert!(s.contains("non-finite"), "{s}");
        assert!(s.contains('7') && s.contains('3'), "{s}");
    }
}
