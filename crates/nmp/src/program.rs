//! ISA-level programs: compiling the Figure 11 host workflow into the
//! Figure 10 instruction stream, and executing that stream on a
//! DIMM-level interpreter built from the CarPU, RCEU, and instance
//! buffer models.
//!
//! The cycle-level simulators ([`crate::FunctionalSim`],
//! [`crate::estimate()`]) work at the dataflow level for speed; this
//! module closes the loop *below* them: it demonstrates that the
//! dataflow is actually expressible in the accelerator's instruction
//! set, and that executing those instructions through the hardware-unit
//! models generates exactly the instances the cartesian-like product
//! defines. Tests cross-check the interpreter against
//! [`hetgraph::cartesian::center_products`].
//!
//! Addresses in the 32-bit instruction fields are *burst handles*
//! (physical address divided by the 64-byte burst size), which covers
//! the paper's 64 GB system (2³⁰ bursts).

use dramsim::AddressMapper;
use hetgraph::cartesian::center_products;
use hetgraph::{HeteroGraph, Metapath};

use crate::buffers::InstanceBuffer;
use crate::config::NmpConfig;
use crate::error::NmpError;
use crate::isa::NmpInstruction;
use crate::layout::{Home, Placement};
use crate::units::CarPu;

/// Converts a physical byte address into the 32-bit burst handle the
/// instruction format carries.
pub fn burst_handle(addr: u64) -> u32 {
    (addr >> 6) as u32
}

/// Rank-local region of the edge (neighbor-list) data the broadcast
/// instructions name.
const EDGE_REGION: u64 = 7 << 28;

/// The burst handle of byte `offset` in `home`'s rank.
fn rank_handle(placement: &Placement, home: Home, offset: u64) -> u32 {
    let mapper = AddressMapper::new(*placement.config());
    burst_handle(mapper.compose(placement.rank_location(home, offset)))
}

/// The burst handle of a vertex's neighbor-list (edge) data, which is
/// spread round-robin like any other OS page.
fn edge_handle(placement: &Placement, ty: u8, id: u32) -> u32 {
    let home = placement.home(ty, id.wrapping_mul(2654435761));
    rank_handle(placement, home, EDGE_REGION + id as u64 * 64)
}

/// A compiled NMP program for one metapath's first cartesian-like
/// product.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The instruction stream in host issue order.
    pub instructions: Vec<NmpInstruction>,
    /// Center vertices in issue order (one product wave per center).
    pub centers: Vec<u32>,
}

impl CompiledProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the program is empty (no productive centers).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// Compiles the first cartesian-like product of a metapath into the
/// instruction stream of Figure 11: per center, `Evoke` for every
/// type-1 neighbor, `Broadcast_core` with the center, `Broadcast` with
/// the type-3 neighbor payload, and a final `Inter_instance_agg` per
/// evoked start vertex.
///
/// # Errors
///
/// Returns [`NmpError::Unsupported`] for metapaths shorter than two
/// hops and propagates graph errors.
pub fn compile_first_product(
    graph: &HeteroGraph,
    metapath: &Metapath,
    placement: &Placement,
    config: &NmpConfig,
) -> Result<CompiledProgram, NmpError> {
    let types = metapath.vertex_types();
    if types.len() < 3 {
        return Err(NmpError::Unsupported(
            "the cartesian dataflow needs at least two hops".into(),
        ));
    }
    let t0 = types[0];
    let mut instructions = vec![NmpInstruction::ConfigSize {
        feature_length: config.hidden_dim as u32,
    }];
    let mut centers = Vec::new();
    for product in center_products(graph, metapath)? {
        let mut mask: u8 = 0;
        for &u in product.left {
            let home = placement.home(t0.index() as u8, u);
            mask |= 1 << (home.dimm.min(3));
            instructions.push(NmpInstruction::Evoke {
                vertex: u,
                feature_addr: rank_handle(placement, home, placement.feature_offset(u)),
            });
        }
        instructions.push(NmpInstruction::BroadcastCore {
            vertex: product.center,
            mask,
            addr: edge_handle(placement, types[1].index() as u8, product.center),
        });
        instructions.push(NmpInstruction::Broadcast {
            mask,
            addr: edge_handle(placement, types[2].index() as u8, product.center),
        });
        for &u in product.left {
            instructions.push(NmpInstruction::InterInstanceAgg {
                vertex: u,
                output_addr: rank_handle(
                    placement,
                    placement.home(t0.index() as u8, u),
                    placement.output_offset(u),
                ),
            });
        }
        centers.push(product.center);
    }
    Ok(CompiledProgram {
        instructions,
        centers,
    })
}

/// One instance observed by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TracedInstance {
    /// Global DIMM that generated the instance.
    pub dimm: usize,
    /// Left (type-1) vertex.
    pub left: u32,
    /// Center (type-2) vertex.
    pub center: u32,
    /// Right (type-3) vertex.
    pub right: u32,
}

/// Execution trace of a compiled program.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// Every generated instance.
    pub instances: Vec<TracedInstance>,
    /// Aggregate operations the controllers emitted.
    pub aggregates: u64,
    /// Copy operations the RCEU produced.
    pub copies: u64,
    /// Inter-instance aggregations executed.
    pub inter_instance: u64,
    /// Instance-buffer drains forced by capacity.
    pub buffer_drains: u64,
    /// CarPU cycles spent generating, summed over DIMMs.
    pub generation_cycles: u64,
}

/// Executes a compiled program on per-DIMM interpreters.
///
/// Each DIMM owns a CarPU, an RCEU (inside the CarPU), and an instance
/// buffer; `Evoke` latches locally-homed start vertices, the broadcasts
/// trigger generation, and `Inter_instance_agg` drains the buffered
/// instances of a start vertex.
///
/// # Errors
///
/// Returns [`NmpError::Unsupported`] if the stream references a center
/// before its `Broadcast` payload (a malformed program) and propagates
/// graph errors (the interpreter reads neighbor lists as broadcast
/// payload, exactly as the buffer chip would see them on the bus).
pub fn execute(
    program: &CompiledProgram,
    graph: &HeteroGraph,
    metapath: &Metapath,
    placement: &Placement,
    config: &NmpConfig,
) -> Result<ExecutionTrace, NmpError> {
    let types = metapath.vertex_types();
    let (t0, t1, t2) = (types[0], types[1], types[2]);
    let dimms = config.dram.total_dimms();
    let mut carpus: Vec<CarPu> = (0..dimms)
        .map(|_| {
            let mut c = CarPu::new(config.carpu_queue_capacity);
            c.rceu_mut().set_disabled(!config.reuse);
            c
        })
        .collect();
    let mut buffers: Vec<InstanceBuffer> = (0..dimms)
        .map(|_| InstanceBuffer::new(config.instance_buffer_bytes))
        .collect();

    let mut trace = ExecutionTrace::default();
    // Per-DIMM evoked type-1 queues awaiting the next product wave.
    let mut evoked: Vec<Vec<u32>> = vec![Vec::new(); dimms];
    let mut pending_center: Option<u32> = None;

    for inst in &program.instructions {
        match *inst {
            NmpInstruction::ConfigSize { .. } => {}
            NmpInstruction::Evoke { vertex, .. } => {
                let home = placement.home(t0.index() as u8, vertex);
                evoked[home.global_dimm(&config.dram)].push(vertex);
            }
            NmpInstruction::BroadcastCore { vertex, .. } => {
                pending_center = Some(vertex);
            }
            NmpInstruction::Broadcast { .. } => {
                let center = pending_center.take().ok_or_else(|| {
                    NmpError::Unsupported("broadcast without a preceding broadcast_core".into())
                })?;
                // The payload on the bus is the center's type-3
                // neighbor list.
                let right = graph
                    .typed_neighbors(
                        hetgraph::Vertex::new(t1, hetgraph::VertexId::new(center)),
                        t2,
                    )?
                    .to_vec();
                for (dimm, (carpu, buffer)) in carpus.iter_mut().zip(buffers.iter_mut()).enumerate()
                {
                    if evoked[dimm].is_empty() {
                        continue;
                    }
                    let run = carpu.generate(&evoked[dimm], center, &right);
                    trace.generation_cycles += run.cycles;
                    for g in &run.instances {
                        if buffer.push(metapath.vertex_count()) {
                            trace.buffer_drains += 1;
                        }
                        trace.instances.push(TracedInstance {
                            dimm,
                            left: g.left,
                            center,
                            right: g.right,
                        });
                        if g.reuses_prefix {
                            trace.copies += 1;
                        }
                        trace.aggregates += 1;
                    }
                }
            }
            NmpInstruction::InterInstanceAgg { vertex, .. } => {
                let home = placement.home(t0.index() as u8, vertex);
                let dimm = home.global_dimm(&config.dram);
                evoked[dimm].retain(|&u| u != vertex);
                buffers[dimm].clear();
                trace.inter_instance += 1;
            }
            NmpInstruction::Aggregate { .. }
            | NmpInstruction::Copy { .. }
            | NmpInstruction::ConfigWeight { .. }
            | NmpInstruction::InterPathAgg { .. } => {}
        }
    }
    Ok(trace)
}

/// A complete metapath program: the first ternary product plus one
/// extension step per additional hop (§3.1's decomposition, one
/// [`CompiledProgram`] per [`hetgraph::cartesian::ProductStep`]).
#[derive(Debug, Clone)]
pub struct FullProgram {
    /// Step 0 is the first product; steps `1..` are extensions.
    pub steps: Vec<CompiledProgram>,
}

/// Compiles a whole metapath (any length ≥ 2 hops) into per-step
/// instruction streams.
///
/// Extension steps broadcast, for every endpoint vertex of the step's
/// type, that vertex's next-type neighbor payload; the DIMMs extend
/// their resident partial instances ("treat the result O as a new type
/// of vertex").
///
/// # Errors
///
/// Same conditions as [`compile_first_product`].
pub fn compile_metapath(
    graph: &HeteroGraph,
    metapath: &Metapath,
    placement: &Placement,
    config: &NmpConfig,
) -> Result<FullProgram, NmpError> {
    let mut steps = vec![compile_first_product(graph, metapath, placement, config)?];
    let types = metapath.vertex_types();
    for hop in 2..types.len() - 1 {
        let ty = types[hop];
        let next_ty = types[hop + 1];
        let mut instructions = Vec::new();
        let mut centers = Vec::new();
        for v in 0..graph.vertex_count(ty)? {
            let vert = hetgraph::Vertex::new(ty, hetgraph::VertexId::new(v));
            if graph.typed_neighbors(vert, next_ty)?.is_empty() {
                continue;
            }
            instructions.push(NmpInstruction::BroadcastCore {
                vertex: v,
                mask: 0xF,
                addr: edge_handle(placement, ty.index() as u8, v),
            });
            instructions.push(NmpInstruction::Broadcast {
                mask: 0xF,
                addr: edge_handle(placement, next_ty.index() as u8, v),
            });
            centers.push(v);
        }
        steps.push(CompiledProgram {
            instructions,
            centers,
        });
    }
    Ok(FullProgram { steps })
}

/// Trace of a full metapath execution.
#[derive(Debug, Clone, Default)]
pub struct FullTrace {
    /// Complete instances as vertex sequences, tagged with the DIMM
    /// that generated them.
    pub instances: Vec<(usize, Vec<u32>)>,
    /// Total aggregate operations (one per generated partial).
    pub aggregates: u64,
    /// RCEU copies across all steps.
    pub copies: u64,
    /// CarPU generation cycles, summed over DIMMs and steps.
    pub generation_cycles: u64,
}

/// Executes a [`FullProgram`], carrying partial instances across
/// extension steps exactly as the DIMM-resident instance buffers do.
///
/// # Errors
///
/// Same conditions as [`execute`].
pub fn execute_metapath(
    program: &FullProgram,
    graph: &HeteroGraph,
    metapath: &Metapath,
    placement: &Placement,
    config: &NmpConfig,
) -> Result<FullTrace, NmpError> {
    let types = metapath.vertex_types();
    let dimms = config.dram.total_dimms();
    let mut trace = FullTrace::default();

    // --- Step 0: the ternary product seeds the partials. ---
    let first = execute(&program.steps[0], graph, metapath, placement, config)?;
    trace.aggregates += first.aggregates;
    trace.copies += first.copies;
    trace.generation_cycles += first.generation_cycles;
    let mut partials: Vec<Vec<Vec<u32>>> = vec![Vec::new(); dimms];
    for t in &first.instances {
        partials[t.dimm].push(vec![t.left, t.center, t.right]);
    }

    // --- Extension steps. ---
    for (step_idx, step) in program.steps.iter().enumerate().skip(1) {
        let hop = step_idx + 1; // endpoint position in the type sequence
        let next_ty = types[hop + 1];
        let ty = types[hop];
        let carpus: Vec<CarPu> = (0..dimms)
            .map(|_| {
                let mut c = CarPu::new(config.carpu_queue_capacity);
                c.rceu_mut().set_disabled(!config.reuse);
                c
            })
            .collect();
        let mut extended: Vec<Vec<Vec<u32>>> = vec![Vec::new(); dimms];
        let mut pending: Option<u32> = None;
        for inst in &step.instructions {
            match *inst {
                NmpInstruction::BroadcastCore { vertex, .. } => pending = Some(vertex),
                NmpInstruction::Broadcast { .. } => {
                    let v = pending.take().ok_or_else(|| {
                        NmpError::Unsupported("broadcast without a preceding broadcast_core".into())
                    })?;
                    let nbrs = graph
                        .typed_neighbors(
                            hetgraph::Vertex::new(ty, hetgraph::VertexId::new(v)),
                            next_ty,
                        )?
                        .to_vec();
                    for dimm in 0..dimms {
                        // Partial instances ending at the wave's
                        // endpoint feed the CarPU's type-1 queue as
                        // the "new vertex type" O.
                        let lefts: Vec<u32> = partials[dimm]
                            .iter()
                            .enumerate()
                            .filter(|(_, p)| *p.last().expect("non-empty") == v)
                            .map(|(i, _)| i as u32)
                            .collect();
                        if lefts.is_empty() {
                            continue;
                        }
                        let run = carpus[dimm].generate(&lefts, v, &nbrs);
                        trace.generation_cycles += run.cycles;
                        for g in &run.instances {
                            let mut seq = partials[dimm][g.left as usize].clone();
                            seq.push(g.right);
                            extended[dimm].push(seq);
                            trace.aggregates += 1;
                            if g.reuses_prefix {
                                trace.copies += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        partials = extended;
    }

    for (dimm, list) in partials.into_iter().enumerate() {
        for seq in list {
            trace.instances.push((dimm, seq));
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
    use hetgraph::instances::count_instances;

    fn setup() -> (hetgraph::datasets::Dataset, NmpConfig, Placement) {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(0.02));
        let config = NmpConfig {
            hidden_dim: 16,
            ..NmpConfig::default()
        };
        let placement = Placement::new(config.dram, config.hidden_dim);
        (ds, config, placement)
    }

    #[test]
    fn compiled_program_starts_with_configsize() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let p = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        assert!(matches!(
            p.instructions[0],
            NmpInstruction::ConfigSize { feature_length: 16 }
        ));
        assert!(!p.is_empty());
    }

    #[test]
    fn interpreter_generates_exactly_the_instances() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let program = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        let trace = execute(&program, &ds.graph, mp, &placement, &config).unwrap();
        let expected = count_instances(&ds.graph, mp).unwrap();
        assert_eq!(trace.instances.len() as u128, expected);
        // No duplicates.
        let mut seen = trace.instances.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), trace.instances.len());
    }

    #[test]
    fn instances_are_generated_on_the_start_vertex_home_dimm() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MDM").unwrap();
        let t0 = mp.start_type();
        let program = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        let trace = execute(&program, &ds.graph, mp, &placement, &config).unwrap();
        for inst in &trace.instances {
            let home = placement.home(t0.index() as u8, inst.left);
            assert_eq!(inst.dimm, home.global_dimm(&config.dram));
        }
    }

    #[test]
    fn rceu_copies_match_reuse_structure() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let program = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        let trace = execute(&program, &ds.graph, mp, &placement, &config).unwrap();
        assert!(trace.copies > 0);
        assert!(trace.copies < trace.aggregates);
        // Disabling the RCEU removes every copy.
        let no_reuse = NmpConfig {
            reuse: false,
            ..config
        };
        let t2 = execute(&program, &ds.graph, mp, &placement, &no_reuse).unwrap();
        assert_eq!(t2.copies, 0);
        assert_eq!(t2.instances.len(), trace.instances.len());
    }

    #[test]
    fn inter_instance_agg_count_matches_evokes() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("AMA").unwrap();
        let program = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        let evokes = program
            .instructions
            .iter()
            .filter(|i| matches!(i, NmpInstruction::Evoke { .. }))
            .count() as u64;
        let trace = execute(&program, &ds.graph, mp, &placement, &config).unwrap();
        assert_eq!(trace.inter_instance, evokes);
    }

    #[test]
    fn all_instructions_encode_and_decode() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let program = compile_first_product(&ds.graph, mp, &placement, &config).unwrap();
        for inst in &program.instructions {
            assert_eq!(&NmpInstruction::decode(inst.encode()).unwrap(), inst);
        }
    }

    #[test]
    fn full_program_covers_long_metapaths() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("DMAMD").unwrap(); // 4 hops
        let program = compile_metapath(&ds.graph, mp, &placement, &config).unwrap();
        assert_eq!(program.steps.len(), 3); // ternary + 2 extensions
        let trace = execute_metapath(&program, &ds.graph, mp, &placement, &config).unwrap();
        let expected = count_instances(&ds.graph, mp).unwrap();
        assert_eq!(trace.instances.len() as u128, expected);
        // Every instance is a valid DMAMD walk with correct adjacency.
        use hetgraph::instances::enumerate_instances;
        let mut ours: Vec<Vec<u32>> = trace.instances.iter().map(|(_, s)| s.clone()).collect();
        ours.sort();
        let reference = enumerate_instances(&ds.graph, mp, usize::MAX).unwrap();
        let mut expected_seqs: Vec<Vec<u32>> = reference.iter().map(|s| s.to_vec()).collect();
        expected_seqs.sort();
        assert_eq!(ours, expected_seqs);
    }

    #[test]
    fn full_program_on_two_hop_equals_first_product() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let program = compile_metapath(&ds.graph, mp, &placement, &config).unwrap();
        assert_eq!(program.steps.len(), 1);
        let trace = execute_metapath(&program, &ds.graph, mp, &placement, &config).unwrap();
        assert_eq!(
            trace.instances.len() as u128,
            count_instances(&ds.graph, mp).unwrap()
        );
    }

    #[test]
    fn extension_steps_keep_instances_on_the_start_dimm() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("AMDMA").unwrap();
        let t0 = mp.start_type();
        let program = compile_metapath(&ds.graph, mp, &placement, &config).unwrap();
        let trace = execute_metapath(&program, &ds.graph, mp, &placement, &config).unwrap();
        for (dimm, seq) in &trace.instances {
            let home = placement.home(t0.index() as u8, seq[0]);
            assert_eq!(*dimm, home.global_dimm(&config.dram));
        }
    }

    #[test]
    fn single_hop_metapath_rejected() {
        let (ds, config, placement) = setup();
        let mp = hetgraph::Metapath::parse("MA", ds.graph.schema()).unwrap();
        assert!(compile_first_product(&ds.graph, &mp, &placement, &config).is_err());
    }

    #[test]
    fn malformed_stream_rejected() {
        let (ds, config, placement) = setup();
        let mp = ds.metapath("MAM").unwrap();
        let program = CompiledProgram {
            instructions: vec![NmpInstruction::Broadcast { mask: 1, addr: 0 }],
            centers: vec![],
        };
        assert!(matches!(
            execute(&program, &ds.graph, mp, &placement, &config),
            Err(NmpError::Unsupported(_))
        ));
    }
}
