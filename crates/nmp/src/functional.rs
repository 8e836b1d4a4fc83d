//! The functional MetaNMP simulator.
//!
//! Executes the full hardware dataflow — host distribution, on-DIMM
//! instance generation via cartesian-like products, RCEU reuse,
//! rank-AU aggregation, inter-instance and inter-path aggregation —
//! while *actually computing* the embeddings, so the result can be
//! checked bit-close against the software reference engines.
//!
//! Timing model: rank-local aggregation traffic is scheduled by the
//! command-level [`dramsim`] simulator; host/bus payloads, CarPU
//! generation, and PE compute are tracked as per-resource cycle
//! budgets. The phases are fully pipelined in the design (Figure 11),
//! so total time is the maximum over resources — the standard bound for
//! a balanced pipeline. Bus tallies, bus time and energy are composed
//! by the code the closed-form [`crate::estimate()`] shares.
//!
//! The hardware aggregates with means and fixed weights
//! (`ConfigWeight` and `Inter_path_agg`), so the functional model
//! corresponds to the software engines with attention disabled.
//!
//! Execution is driven by [`ResumableRun`]: the engine advances one
//! start vertex at a time, can be paused at any vertex boundary,
//! snapshotted to a [`FunctionalState`], and resumed later — in the
//! same process or another one — with bit-identical results. That is
//! also how a run recovers from an exception (§4.4).
//! [`FunctionalSim::run`] is the one-shot wrapper (a single unbounded
//! step followed by [`ResumableRun::finish`]).

use std::collections::BTreeMap;

use dramsim::{MemorySystem, Request};
use faultsim::{FaultInjector, FaultStats};
use hetgraph::cartesian::walk_prefix_tree;
use hetgraph::cartesian::WalkEvent;
use hetgraph::{HeteroGraph, Metapath, VertexId, VertexTypeId};
use hgnn::engine::Embeddings;
use hgnn::tensor::{vec_add, vec_axpy, vec_scale, Matrix};
use hgnn::{HiddenFeatures, ModelKind};

use checkpoint::RestoreError;

use crate::config::NmpConfig;
use crate::cost::{self, BusTraffic};
use crate::distribution::distribute;
use crate::error::NmpError;
use crate::layout::Placement;
use crate::report::{NmpCounts, NmpReport};
use crate::resilience;
use crate::snapshot::FunctionalState;

/// Batches smaller than this run inline: a prefix-tree walk per vertex
/// is cheap enough that thread spawns only amortize across many start
/// vertices. Wall-clock heuristic only — both paths run the same visit
/// code and the same ordered apply.
const PAR_MIN_BATCH_VISITS: usize = 32;

/// Per-worker scratch for [`compute_visit`], sized once per
/// (metapath, worker) and reused across every start vertex the worker
/// visits, so the structural walk itself allocates only its delta.
#[derive(Debug)]
struct VisitScratch {
    prefix: Vec<Vec<f32>>,
    child_sum: Vec<Vec<f32>>,
    child_count: Vec<usize>,
    child_seq: Vec<u64>,
    slot_stack: Vec<u64>,
    current: Vec<u32>,
    acc: Vec<f32>,
}

impl VisitScratch {
    fn new(hops: usize, d: usize) -> Self {
        VisitScratch {
            prefix: vec![vec![0.0; d]; hops + 1],
            child_sum: vec![vec![0.0; d]; hops + 1],
            child_count: vec![0; hops + 1],
            child_seq: vec![0; hops + 1],
            slot_stack: vec![0; hops + 1],
            current: vec![0; hops + 1],
            acc: vec![0.0; d],
        }
    }
}

/// Everything one start vertex's visit produces. Visits are pure with
/// respect to the run (vertices touch disjoint embedding rows, and the
/// reserved aggregation region is recycled per vertex), so deltas can
/// be computed on any thread and applied in ascending vertex order —
/// the canonical order that makes the run independent of both the
/// thread count and the stepping-budget boundaries.
#[derive(Debug)]
struct VisitDelta {
    start: u32,
    /// Rank-local DRAM requests, in issue order.
    requests: Vec<Request>,
    instances: u128,
    aggregations: u128,
    copies: u128,
    inter_instance_ops: u128,
    demand_fetch_bytes: u64,
    /// CarPU emissions on the home DIMM.
    gen: u64,
    /// Rank-AU cycles on the home rank.
    compute: u64,
    host_agg_bytes: f64,
    demand_bytes: f64,
    host_extra_cycles: u64,
    dimm: usize,
    rank: usize,
    channel: usize,
    /// The embedding row for `start`, when the visit produced one.
    row: Option<Vec<f32>>,
}

/// Instance generation and aggregation for one start vertex, as a pure
/// function of the run's immutable inputs. The hardware analogue is
/// one CarPU wave on the vertex's home DIMM: the walk emits prefix-tree
/// nodes, the rank-AU aggregates, and the reserved region is recycled
/// when the wave completes (so `base_slot` is both the first slot used
/// and the slot watermark after the visit).
#[allow(clippy::too_many_arguments)]
fn compute_visit(
    cfg: &NmpConfig,
    graph: &HeteroGraph,
    hidden: &HiddenFeatures,
    kind: ModelKind,
    ctx: &PathCtx<'_>,
    placement: &Placement,
    base_slot: u64,
    start: u32,
    scratch: &mut VisitScratch,
) -> Result<VisitDelta, NmpError> {
    let PathCtx {
        mp,
        types,
        hops,
        t0,
    } = *ctx;
    let d = cfg.hidden_dim;
    let vb = cfg.vector_bytes();
    let vec_op = cfg.vector_op_cycles();

    let home = placement.home(t0.index() as u8, start);
    let VisitScratch {
        prefix,
        child_sum,
        child_count,
        child_seq,
        slot_stack,
        current,
        acc,
    } = scratch;
    acc.fill(0.0);

    let mut delta = VisitDelta {
        start,
        requests: Vec::new(),
        instances: 0,
        aggregations: 0,
        copies: 0,
        inter_instance_ops: 0,
        demand_fetch_bytes: 0,
        gen: 0,
        compute: 0,
        host_agg_bytes: 0.0,
        demand_bytes: 0.0,
        host_extra_cycles: 0,
        dimm: home.global_dimm(&cfg.dram),
        rank: home.global_rank(&cfg.dram),
        channel: home.channel,
        row: None,
    };
    let mut next_slot = base_slot;
    let mut n_inst: u64 = 0;
    let mut row_out: Option<Vec<f32>> = None;

    // The start vertex's own feature is read from its home rank once
    // per wave.
    delta
        .requests
        .extend(placement.rank_vec(home, placement.feature_offset(start), vb, false));

    walk_prefix_tree(graph, mp, VertexId::new(start), |ev| match ev {
        WalkEvent::Enter(depth, u) => {
            current[depth] = u;
            child_seq[depth] = 0;
            if depth == 0 {
                match kind {
                    ModelKind::Magnn => prefix[0].copy_from_slice(hidden.vector(types[0], u)),
                    ModelKind::Shgnn => {
                        child_sum[0].fill(0.0);
                        child_count[0] = 0;
                    }
                    ModelKind::Han => {}
                }
                return;
            }
            // One CarPU emission per prefix-tree node.
            delta.gen += 1;
            child_seq[depth - 1] += 1;
            if cfg.reuse && child_seq[depth - 1] >= 2 {
                delta.copies += 1;
            }
            match kind {
                ModelKind::Magnn => {
                    let h = hidden.vector(types[depth], u);
                    let (lo, hi) = prefix.split_at_mut(depth);
                    hi[0].copy_from_slice(&lo[depth - 1]);
                    vec_add(&mut hi[0], h);
                    if cfg.reuse {
                        delta.aggregations += 1;
                        let slot = next_slot;
                        next_slot += 1;
                        slot_stack[depth] = slot;
                        if cfg.aggregate_in_nmp {
                            // The running prefix lives in the AU
                            // buffer; only the instance's result is
                            // written to the reserved region (it is
                            // re-read by the inter-instance pass).
                            delta.compute += vec_op;
                            delta.requests.extend(placement.rank_vec(
                                home,
                                placement.agg_offset(slot),
                                vb,
                                true,
                            ));
                        } else {
                            delta.host_agg_bytes += 2.0 * vb as f64;
                            delta.host_extra_cycles += d as u64 / 4 + 4;
                        }
                    }
                }
                ModelKind::Shgnn => {
                    child_sum[depth].fill(0.0);
                    child_count[depth] = 0;
                    delta.aggregations += 1;
                    let slot = next_slot;
                    next_slot += 1;
                    slot_stack[depth] = slot;
                    if cfg.aggregate_in_nmp {
                        delta.compute += 2 * vec_op;
                        delta.requests.extend(placement.rank_vec(
                            home,
                            placement.agg_offset(slot),
                            vb,
                            true,
                        ));
                    } else {
                        delta.host_agg_bytes += 2.0 * vb as f64;
                        delta.host_extra_cycles += d as u64 / 2 + 4;
                    }
                }
                ModelKind::Han => {}
            }
        }
        WalkEvent::Leaf => {
            n_inst += 1;
            match kind {
                ModelKind::Magnn => {
                    vec_add(acc, &prefix[hops]);
                    if !cfg.reuse {
                        delta.aggregations += hops as u128;
                        if cfg.aggregate_in_nmp {
                            delta.compute += hops as u64 * vec_op;
                            let slot = next_slot;
                            next_slot += 1;
                            delta.requests.extend(placement.rank_vec(
                                home,
                                placement.agg_offset(slot),
                                vb,
                                true,
                            ));
                        } else {
                            delta.host_agg_bytes += (hops + 1) as f64 * vb as f64;
                            delta.host_extra_cycles += hops as u64 * (d as u64 / 4 + 4);
                        }
                    }
                }
                ModelKind::Han => {
                    let h = hidden.vector(types[hops], current[hops]);
                    vec_add(acc, h);
                    delta.aggregations += 1;
                    if cfg.aggregate_in_nmp {
                        delta.compute += vec_op;
                    } else {
                        delta.host_agg_bytes += vb as f64;
                        delta.host_extra_cycles += d as u64 / 4 + 4;
                    }
                }
                ModelKind::Shgnn => {}
            }
        }
        WalkEvent::Exit(depth) => {
            if kind != ModelKind::Shgnn {
                return;
            }
            let v = current[depth];
            if depth == hops {
                let h = hidden.vector(types[depth], v);
                vec_add(&mut child_sum[depth - 1], h);
                child_count[depth - 1] += 1;
            } else if child_count[depth] > 0 {
                let h = hidden.vector(types[depth], v);
                let mut value = std::mem::take(&mut child_sum[depth]);
                vec_scale(&mut value, 0.5 / child_count[depth] as f32);
                vec_axpy(&mut value, 0.5, h);
                if depth == 0 {
                    row_out = Some(value.clone());
                } else {
                    vec_add(&mut child_sum[depth - 1], &value);
                    child_count[depth - 1] += 1;
                }
                child_sum[depth] = value;
            }
        }
    })?;

    delta.instances = u128::from(n_inst);
    if cfg.comm == crate::comm::CommPolicy::Naive && cfg.aggregate_in_nmp {
        // Demand-fetch most aggregation operands over the channel (no
        // broadcast pre-fill).
        let aggs = delta.aggregations as f64;
        let fetched = aggs * vb as f64 * cfg.naive_demand_fraction;
        delta.demand_bytes += fetched;
        delta.demand_fetch_bytes += fetched as u64;
    }

    if kind != ModelKind::Shgnn && n_inst > 0 {
        delta.inter_instance_ops += u128::from(n_inst);
        let scale = match kind {
            ModelKind::Magnn => 1.0 / (n_inst as f32 * (hops + 1) as f32),
            _ => 1.0 / n_inst as f32,
        };
        vec_scale(acc, scale);
        row_out = Some(acc.clone());
        if cfg.aggregate_in_nmp {
            delta.compute += n_inst * vec_op + vec_op;
            if cfg.reuse || kind == ModelKind::Magnn {
                delta.requests.extend(placement.rank_vec(
                    home,
                    placement.agg_offset(base_slot),
                    (n_inst as usize).max(1) * vb,
                    false,
                ));
            }
            delta.requests.extend(placement.rank_vec(
                home,
                placement.output_offset(start),
                vb,
                true,
            ));
        } else {
            delta.host_agg_bytes += (n_inst + 1) as f64 * vb as f64;
            delta.host_extra_cycles += n_inst * (d as u64 / 4 + 4);
        }
    } else if kind == ModelKind::Shgnn && cfg.aggregate_in_nmp && n_inst > 0 {
        delta
            .requests
            .extend(placement.rank_vec(home, placement.output_offset(start), vb, true));
    }
    delta.row = row_out;
    Ok(delta)
}

/// Computes the visit deltas for the `count` start vertices beginning
/// at `first`, fanning the vertices out across the host thread budget
/// when the batch is large enough.
///
/// Start vertices hash round-robin across DIMMs by placement, so a
/// contiguous vertex chunk is an interleaving of every DIMM's waves —
/// each worker behaves like a slice of all the CarPUs running ahead of
/// the apply cursor. Each worker visits one contiguous chunk and the
/// chunks are joined in order, so deltas come back in ascending vertex
/// order whichever worker produced them, and a walk error surfaces for
/// the lowest-numbered failing vertex with no delta applied: results
/// and errors are identical at every thread count and batch boundary.
#[allow(clippy::too_many_arguments)]
fn compute_batch(
    cfg: &NmpConfig,
    graph: &HeteroGraph,
    hidden: &HiddenFeatures,
    kind: ModelKind,
    ctx: &PathCtx<'_>,
    placement: &Placement,
    slots: &[u64],
    first: u32,
    count: u32,
) -> Result<Vec<VisitDelta>, NmpError> {
    let visit_range = |starts: std::ops::Range<u32>| {
        let scratch = &mut VisitScratch::new(ctx.hops, cfg.hidden_dim);
        starts
            .map(|start| {
                let home = placement.home(ctx.t0.index() as u8, start);
                let base_slot = slots[home.global_rank(&cfg.dram)];
                compute_visit(
                    cfg, graph, hidden, kind, ctx, placement, base_slot, start, scratch,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let end = first + count;
    let workers = dramsim::parallel::threads().min(count as usize).max(1);
    if workers <= 1 || (count as usize) < PAR_MIN_BATCH_VISITS {
        return visit_range(first..end);
    }
    let chunk = count.div_ceil(workers as u32);
    let visit_range = &visit_range;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (first..end)
            .step_by(chunk as usize)
            .map(|lo| scope.spawn(move || visit_range(lo..lo + chunk.min(end - lo))))
            .collect();
        let mut out = Vec::with_capacity(count as usize);
        for handle in handles {
            let deltas = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            out.extend(deltas);
        }
        Ok(out)
    })
}

/// Result of a functional run: real embeddings plus the timing/energy
/// report.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// The embeddings the NMP hardware computed.
    pub embeddings: Embeddings,
    /// Cycle and energy report.
    pub report: NmpReport,
}

/// The functional simulator.
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    config: NmpConfig,
}

impl FunctionalSim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: NmpConfig) -> Self {
        FunctionalSim { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &NmpConfig {
        &self.config
    }

    /// Runs one inference over already-projected features.
    ///
    /// # Errors
    ///
    /// Returns [`NmpError::Unsupported`] when the hidden dimension
    /// disagrees with the configuration or a metapath has fewer than
    /// two hops, and propagates graph errors.
    pub fn run(
        &self,
        graph: &HeteroGraph,
        hidden: &HiddenFeatures,
        kind: ModelKind,
        metapaths: &[Metapath],
    ) -> Result<FunctionalRun, NmpError> {
        let _run_span = obs::span("nmp.functional.run", "nmp");
        let mut run = ResumableRun::new(self.config);
        run.step(graph, hidden, kind, metapaths, u64::MAX)?;
        run.finish(graph, metapaths)
    }
}

/// Per-metapath context threaded through the stepping methods.
#[derive(Clone, Copy)]
struct PathCtx<'a> {
    mp: &'a Metapath,
    types: &'a [VertexTypeId],
    hops: usize,
    t0: VertexTypeId,
}

/// An in-flight functional run that advances in bounded chunks of
/// start vertices.
///
/// The run owns every piece of loop-carried state — the DRAM
/// scheduler, both fault injectors, per-resource cycle budgets, byte
/// tallies, the structural matrices, and a cursor
/// `(metapath index, next start vertex)`. [`ResumableRun::step`]
/// advances the cursor by at most `budget` start vertices and reports
/// whether the structural phase is complete;
/// [`ResumableRun::finish`] then performs semantic aggregation, DRAM
/// service, and timing/energy composition.
///
/// Between steps the run can be captured with
/// [`checkpoint::Snapshot::snapshot`] and later rebuilt with
/// [`ResumableRun::from_state`]. A restored run replays the exact
/// operation sequence of an uninterrupted one — same walk order, same
/// fault schedule, same floating-point accumulation order — so the
/// final [`FunctionalRun`] is bit-identical. This is the §4.4
/// exception-recovery mechanism: a crashed or preempted run resumes
/// from its last snapshot instead of starting over.
#[derive(Debug)]
pub struct ResumableRun {
    config: NmpConfig,
    mem: MemorySystem,
    injector: Option<FaultInjector>,
    bcast_stats: FaultStats,
    counts: NmpCounts,
    gen: Vec<u64>,
    compute: Vec<u64>,
    slots: Vec<u64>,
    bus: BusTraffic,
    host_extra_cycles: u64,
    structural: Vec<Matrix>,
    current: Option<Matrix>,
    mp_index: usize,
    next_start: u32,
}

impl ResumableRun {
    /// Creates a run positioned before the first metapath.
    pub fn new(config: NmpConfig) -> Self {
        let mut mem = MemorySystem::new(config.dram);
        mem.set_faults(config.faults);
        // The broadcast/unit fault layer runs above the DRAM simulator
        // with its own injector over the same seeded schedule family.
        let injector = config
            .faults
            .is_active()
            .then(|| FaultInjector::new(config.faults));
        let dimms = config.dram.total_dimms();
        let ranks = config.dram.total_ranks();
        ResumableRun {
            config,
            mem,
            injector,
            bcast_stats: FaultStats::default(),
            counts: NmpCounts::default(),
            gen: vec![0u64; dimms],
            compute: vec![0u64; ranks],
            slots: vec![0u64; ranks],
            bus: BusTraffic::new(config.dram.channels),
            host_extra_cycles: 0,
            structural: Vec::new(),
            current: None,
            mp_index: 0,
            next_start: 0,
        }
    }

    /// The configuration the run executes under.
    pub fn config(&self) -> &NmpConfig {
        &self.config
    }

    /// The cursor: `(metapath index, next start vertex)`.
    pub fn cursor(&self) -> (usize, u32) {
        (self.mp_index, self.next_start)
    }

    /// Rebuilds a run from a persisted state image.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] when the image was taken under a
    /// different configuration or is internally inconsistent.
    pub fn from_state(state: &FunctionalState) -> Result<Self, RestoreError> {
        MemorySystem::check_topology(&state.config.dram).map_err(RestoreError::new)?;
        let mut run = ResumableRun::new(state.config);
        checkpoint::Restore::restore(&mut run, state)?;
        Ok(run)
    }

    fn validate(
        cfg: &NmpConfig,
        hidden: &HiddenFeatures,
        metapaths: &[Metapath],
    ) -> Result<(), NmpError> {
        if hidden.hidden_dim() != cfg.hidden_dim {
            return Err(NmpError::Unsupported(format!(
                "hidden dim {} does not match configured {}",
                hidden.hidden_dim(),
                cfg.hidden_dim
            )));
        }
        if metapaths.is_empty() {
            return Err(NmpError::Unsupported("no metapaths given".into()));
        }
        Ok(())
    }

    /// Fault-recovery tallies accumulated so far: the DRAM layer's
    /// injector counters merged with the broadcast layer's.
    ///
    /// Available mid-run. [`finish`](Self::finish) consumes the run
    /// and a fatal fault abandons it, so a driver that degrades to an
    /// analytic estimate snapshots these to preserve the recovery work
    /// recorded before the abort (the DRAM layer tallies the fatal
    /// trip itself — `watchdog_trips` / `mem_errors` — before
    /// erroring).
    pub fn fault_stats(&self) -> FaultStats {
        fault_tallies(&self.mem, &self.bcast_stats)
    }

    /// Advances the structural phase by at most `budget` start
    /// vertices. Returns `Ok(true)` once every metapath is complete,
    /// `Ok(false)` when the budget ran out first; call again to
    /// continue.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FunctionalSim::run`].
    pub fn step(
        &mut self,
        graph: &HeteroGraph,
        hidden: &HiddenFeatures,
        kind: ModelKind,
        metapaths: &[Metapath],
        budget: u64,
    ) -> Result<bool, NmpError> {
        Self::validate(&self.config, hidden, metapaths)?;
        let placement = Placement::new(self.config.dram, self.config.hidden_dim);
        let mut remaining = budget;
        while self.mp_index < metapaths.len() {
            let mp = &metapaths[self.mp_index];
            if self.current.is_none() {
                self.begin_metapath(graph, mp, &placement)?;
            }
            // ---- Generation + aggregation, per start vertex. ----
            let _structural_span = obs::span(format!("nmp.structural.{}", mp.name()), "nmp");
            let ctx = PathCtx {
                mp,
                types: mp.vertex_types(),
                hops: mp.length(),
                t0: mp.start_type(),
            };
            let start_count = graph.vertex_count(ctx.t0)?;
            while self.next_start < start_count {
                if remaining == 0 {
                    return Ok(false);
                }
                // Visit the next budget's worth of start vertices as
                // one batch: deltas are computed (possibly on worker
                // threads) and applied in ascending vertex order, so
                // the run is identical at every thread count and for
                // every chunking of the budget.
                let batch = u64::from(start_count - self.next_start).min(remaining) as u32;
                let deltas = compute_batch(
                    &self.config,
                    graph,
                    hidden,
                    kind,
                    &ctx,
                    &placement,
                    &self.slots,
                    self.next_start,
                    batch,
                )?;
                for delta in deltas {
                    self.apply_visit(delta);
                }
                self.next_start += batch;
                remaining -= u64::from(batch);
            }
            let finished = self.current.take().expect("metapath matrix in flight");
            self.structural.push(finished);
            self.mp_index += 1;
            self.next_start = 0;
        }
        Ok(true)
    }

    /// Host distribution (evoke + broadcast) for the metapath the
    /// cursor points at, plus allocation of its structural matrix.
    fn begin_metapath(
        &mut self,
        graph: &HeteroGraph,
        mp: &Metapath,
        placement: &Placement,
    ) -> Result<(), NmpError> {
        let Self {
            config: cfg,
            injector,
            bcast_stats,
            counts,
            bus,
            host_extra_cycles,
            current,
            ..
        } = self;
        let dist = {
            let _s = obs::span(format!("nmp.distribute.{}", mp.name()), "nmp");
            distribute(graph, mp, cfg, placement)?
        };
        bus.add_distribution(&dist, counts);

        // ---- Broadcast fault recovery: bounded retry with backoff,
        // then p2p fallback (extra payload copies on the channel bus,
        // charged proportionally to each channel's broadcast share).
        // ----
        if let Some(inj) = injector.as_mut() {
            let total_bcast: f64 = dist.broadcast_bytes.iter().sum();
            if dist.broadcast_transfers > 0 && total_bcast > 0.0 {
                let avg = total_bcast / dist.broadcast_transfers as f64;
                let out = resilience::apply_broadcast_faults(
                    inj,
                    &cfg.faults,
                    dist.broadcast_transfers,
                    avg,
                    cfg.dram.dimms_per_channel as u64,
                    bcast_stats,
                );
                if out.extra_bytes > 0.0 {
                    for (nb, bb) in bus.normal.iter_mut().zip(&dist.broadcast_bytes) {
                        *nb += out.extra_bytes * bb / total_bcast;
                    }
                }
                *host_extra_cycles += out.extra_host_cycles;
            }
        }

        let start_count = graph.vertex_count(mp.start_type())?;
        *current = Some(Matrix::zeros(start_count as usize, cfg.hidden_dim));
        Ok(())
    }

    /// Folds one visit's delta into the run, in canonical (ascending
    /// start vertex) order: DRAM requests enqueue in issue order, the
    /// per-unit cycle and byte tallies accumulate, and the vertex's
    /// embedding row lands in the in-flight structural matrix.
    fn apply_visit(&mut self, delta: VisitDelta) {
        for req in &delta.requests {
            self.mem.enqueue(*req);
        }
        self.counts.instances += delta.instances;
        self.counts.aggregations += delta.aggregations;
        self.counts.copies += delta.copies;
        self.counts.inter_instance_ops += delta.inter_instance_ops;
        self.counts.demand_fetch_bytes += delta.demand_fetch_bytes;
        self.gen[delta.dimm] += delta.gen;
        self.compute[delta.rank] += delta.compute;
        self.bus.host_agg[delta.channel] += delta.host_agg_bytes;
        self.bus.demand[delta.channel] += delta.demand_bytes;
        self.host_extra_cycles += delta.host_extra_cycles;
        if let Some(row) = delta.row {
            let s = self.current.as_mut().expect("metapath matrix in flight");
            s.row_mut(delta.start as usize).copy_from_slice(&row);
        }
    }

    /// Completes the run: semantic (inter-path) aggregation, CarPU
    /// stall injection, DRAM service, and timing/energy composition.
    ///
    /// # Errors
    ///
    /// Returns [`NmpError::Unsupported`] when the structural phase is
    /// not complete (step until it reports done), and propagates graph
    /// and fault errors.
    pub fn finish(
        self,
        graph: &HeteroGraph,
        metapaths: &[Metapath],
    ) -> Result<FunctionalRun, NmpError> {
        self.finish_or_stats(graph, metapaths).map_err(|b| b.0)
    }

    /// Like [`finish`](Self::finish), but a failure also returns the
    /// fault tallies accumulated up to the abort.
    ///
    /// The DRAM service — where injected faults, ECC corrections,
    /// retries, and the fatal watchdog/ECC trip itself are tallied —
    /// runs inside completion, after the run has been consumed. A
    /// driver that degrades to an analytic estimate on a fatal fault
    /// uses this variant so the recovery record survives the abort.
    ///
    /// The pair is boxed to keep the common `Ok` path's return slot
    /// small.
    pub fn finish_or_stats(
        self,
        graph: &HeteroGraph,
        metapaths: &[Metapath],
    ) -> Result<FunctionalRun, Box<(NmpError, FaultStats)>> {
        if self.mp_index < metapaths.len() || self.structural.len() != metapaths.len() {
            let stats = self.fault_stats();
            return Err(Box::new((
                NmpError::Unsupported(format!(
                    "finish called with {} of {} metapaths complete",
                    self.structural.len(),
                    metapaths.len()
                )),
                stats,
            )));
        }
        let ResumableRun {
            config: cfg,
            mut mem,
            mut injector,
            mut bcast_stats,
            mut counts,
            mut gen,
            mut compute,
            slots: _,
            mut bus,
            mut host_extra_cycles,
            structural,
            current: _,
            mp_index: _,
            next_start: _,
        } = self;
        let d = cfg.hidden_dim;
        let vb = cfg.vector_bytes();
        let vec_op = cfg.vector_op_cycles();
        let dimms = cfg.dram.total_dimms();
        let ranks = cfg.dram.total_ranks();
        let placement = Placement::new(cfg.dram, d);

        // ---- Semantic (inter-path) aggregation: the host programs
        // the per-metapath weights with `ConfigWeight` and triggers
        // `Inter_path_agg` per vertex. ----
        let semantic_span = obs::span("nmp.semantic", "nmp");
        let mut by_type: BTreeMap<VertexTypeId, Vec<(&str, &Matrix)>> = BTreeMap::new();
        for (mp, m) in metapaths.iter().zip(&structural) {
            by_type
                .entry(mp.start_type())
                .or_default()
                .push((mp.name(), m));
        }
        let mut per_type = BTreeMap::new();
        for (ty, named) in by_type {
            let rows = match graph.vertex_count(ty) {
                Ok(n) => n as usize,
                Err(e) => return Err(Box::new((e.into(), fault_tallies(&mem, &bcast_stats)))),
            };
            let results: Vec<&Matrix> = named.iter().map(|&(_, m)| m).collect();
            let weights = if cfg.weighted_semantic {
                let names: Vec<&str> = named.iter().map(|&(n, _)| n).collect();
                hgnn::semantic_weights(&names)
            } else {
                vec![1.0 / results.len() as f32; results.len()]
            };
            let k = results.len();
            let mut out = Matrix::zeros(rows, d);
            for r in 0..rows {
                let row = out.row_mut(r);
                for (m, &w) in results.iter().zip(&weights) {
                    vec_axpy(row, w, m.row(r));
                }
                counts.semantic_ops += k as u128;
                let home = placement.home(ty.index() as u8, r as u32);
                let rank = home.global_rank(&cfg.dram);
                if cfg.aggregate_in_nmp {
                    compute[rank] += k as u64 * vec_op + vec_op;
                    let output = placement.output_offset(r as u32);
                    let reads = placement.rank_vec(home, output, k * vb, false);
                    for req in reads.chain(placement.rank_vec(home, output, vb, true)) {
                        mem.enqueue(req);
                    }
                } else {
                    bus.host_agg[home.channel] += (k + 1) as f64 * vb as f64;
                    host_extra_cycles += k as u64 * (d as u64 / 4 + 4);
                }
            }
            per_type.insert(ty, out);
        }
        let embeddings = Embeddings::from_per_type(per_type);
        drop(semantic_span);

        // ---- Transient CarPU stalls: loaded DIMMs occasionally lose
        // cycles to a stalled generation unit. ----
        if let Some(inj) = injector.as_mut() {
            for (unit, g) in gen.iter_mut().enumerate() {
                if *g > 0 {
                    let stall = inj.next_stall_cycles(unit as u64);
                    if stall > 0 {
                        bcast_stats.stall_events += 1;
                        bcast_stats.stall_cycles += stall;
                        *g += stall;
                    }
                }
            }
        }

        // ---- Timing composition. ----
        let dram_report = {
            let _s = obs::span("nmp.dram.service", "nmp");
            match mem.try_service_all() {
                Ok(r) => r,
                // The fatal trip is already tallied in the system's
                // counters at this point; capture them before the
                // memory system is dropped with the abandoned run.
                Err(e) => return Err(Box::new((e.into(), fault_tallies(&mem, &bcast_stats)))),
            }
        };
        let bus_cycles_max = bus.bus_cycles(&cfg.dram).ceil() as u64;
        counts.gen_cycles_max_dimm = gen.iter().copied().max().unwrap_or(0);
        counts.compute_cycles_max_rank = compute.iter().copied().max().unwrap_or(0);
        let host_cycles_total = counts.host_cycles + host_extra_cycles;
        counts.host_cycles = host_cycles_total;
        let host_nmp = cfg.host_to_nmp_cycles(host_cycles_total);
        let cycles = dram_report
            .stats
            .elapsed_cycles
            .max(bus_cycles_max)
            .max(counts.gen_cycles_max_dimm)
            .max(counts.compute_cycles_max_rank)
            .max(host_nmp);
        let seconds = cycles as f64 * cfg.dram.cycle_seconds();

        // Per-unit load histograms and utilization against the
        // pipelined critical path (cycles = max over resources).
        let mut gen_hist = obs::Histogram::new();
        for &g in &gen {
            gen_hist.record(g);
        }
        obs::hist_merge("nmp.carpu.gen_cycles_per_dimm", &gen_hist);
        let mut compute_hist = obs::Histogram::new();
        for &c in &compute {
            compute_hist.record(c);
        }
        obs::hist_merge("nmp.rank_au.compute_cycles_per_rank", &compute_hist);
        if cycles > 0 {
            let gen_total: u64 = gen.iter().sum();
            let compute_total: u64 = compute.iter().sum();
            obs::gauge_set(
                "nmp.carpu.utilization",
                gen_total as f64 / (cycles * dimms as u64) as f64,
            );
            obs::gauge_set(
                "nmp.rank_au.utilization",
                compute_total as f64 / (cycles * ranks as u64) as f64,
            );
        }
        obs::counter_add(
            "nmp.instances",
            counts.instances.min(u64::MAX as u128) as u64,
        );
        obs::counter_add(
            "nmp.aggregations",
            counts.aggregations.min(u64::MAX as u128) as u64,
        );
        obs::counter_add("nmp.copies", counts.copies.min(u64::MAX as u128) as u64);
        obs::counter_add("nmp.broadcast_transfers", counts.broadcast_transfers);
        obs::counter_add("nmp.cycles", cycles);

        let energy = cost::energy(
            &cfg,
            dram_report.stats.energy,
            &bus,
            seconds,
            host_cycles_total as f64,
        );

        // The DRAM layer publishes its own fault counters at flush
        // time; publish only the broadcast/unit layer's here, then
        // merge both into the report.
        bcast_stats.publish();
        let mut fault_totals = dram_report.faults;
        fault_totals.merge(&bcast_stats);

        // ---- Audit: protocol + conservation verdict. The drained
        // memory system checks its own invariants; on top of that,
        // instance counts must match the combinatorial closed form
        // from type-separated degree products. A resumed run restored
        // the pre-snapshot counts with the rest of its state, so the
        // whole-graph closed form applies to it too.
        let mut audit = mem.audit_report(true);
        if audit.enabled {
            let mut closed_form: u128 = 0;
            for mp in metapaths {
                match hetgraph::instances::count_instances(graph, mp) {
                    Ok(n) => closed_form += n,
                    Err(e) => return Err(Box::new((e.into(), fault_totals))),
                }
            }
            if counts.instances != closed_form {
                audit.violations.push(dramsim::AuditError {
                    constraint: dramsim::Constraint::Instances,
                    message: format!(
                        "generated {} metapath instances but the degree-product \
                         closed form expects {closed_form}",
                        counts.instances
                    ),
                    trace: Vec::new(),
                });
            }
        }

        Ok(FunctionalRun {
            embeddings,
            report: NmpReport {
                cycles,
                seconds,
                counts,
                energy,
                dram_stats: dram_report.stats,
                faults: fault_totals,
                audit,
            },
        })
    }
}

/// The DRAM layer's fault counters merged with the broadcast/unit
/// layer's, plus the rank health census when faults are active.
fn fault_tallies(mem: &MemorySystem, bcast: &FaultStats) -> FaultStats {
    let mut totals = *mem.fault_stats();
    totals.merge(bcast);
    if let Some((h, d, t)) = mem.rank_health_census() {
        totals.ranks_healthy = h;
        totals.ranks_degraded = d;
        totals.ranks_tripped = t;
    }
    totals
}

impl checkpoint::Snapshot for ResumableRun {
    type State = FunctionalState;

    fn snapshot(&self) -> FunctionalState {
        FunctionalState {
            config: self.config,
            mem: checkpoint::Snapshot::snapshot(&self.mem),
            injector: self.injector.as_ref().map(checkpoint::Snapshot::snapshot),
            bcast_stats: self.bcast_stats,
            counts: self.counts,
            gen: self.gen.clone(),
            compute: self.compute.clone(),
            slots: self.slots.clone(),
            normal_bytes: self.bus.normal.clone(),
            broadcast_bytes: self.bus.broadcast.clone(),
            edge_bytes: self.bus.edge.clone(),
            host_agg_bytes: self.bus.host_agg.clone(),
            demand_bytes: self.bus.demand.clone(),
            host_extra_cycles: self.host_extra_cycles,
            structural: self.structural.clone(),
            current: self.current.clone(),
            mp_index: self.mp_index,
            next_start: self.next_start,
        }
    }
}

impl checkpoint::Restore for ResumableRun {
    fn restore(&mut self, state: &FunctionalState) -> Result<(), RestoreError> {
        if state.config != self.config {
            return Err(RestoreError::new(
                "snapshot was taken under a different NMP configuration",
            ));
        }
        let dimms = self.config.dram.total_dimms();
        let ranks = self.config.dram.total_ranks();
        let channels = self.config.dram.channels;
        if state.gen.len() != dimms || state.compute.len() != ranks || state.slots.len() != ranks {
            return Err(RestoreError::new(format!(
                "per-unit cycle vectors do not match the topology ({dimms} dimms, {ranks} ranks)"
            )));
        }
        let per_channel = [
            &state.normal_bytes,
            &state.broadcast_bytes,
            &state.edge_bytes,
            &state.host_agg_bytes,
            &state.demand_bytes,
        ];
        if per_channel.iter().any(|v| v.len() != channels) {
            return Err(RestoreError::new(format!(
                "per-channel byte tallies do not match {channels} channels"
            )));
        }
        let d = self.config.hidden_dim;
        if state
            .structural
            .iter()
            .chain(state.current.iter())
            .any(|m| m.cols() != d)
        {
            return Err(RestoreError::new(format!(
                "structural matrices do not match hidden dim {d}"
            )));
        }
        if state.current.is_none() && state.next_start != 0 {
            return Err(RestoreError::new(
                "cursor points into a metapath with no in-flight matrix",
            ));
        }
        checkpoint::Restore::restore(&mut self.mem, &state.mem)?;
        match (self.injector.as_mut(), state.injector.as_ref()) {
            (Some(inj), Some(is)) => checkpoint::Restore::restore(inj, is)?,
            (None, None) => {}
            _ => {
                return Err(RestoreError::new(
                    "fault-injector presence disagrees with the configuration",
                ))
            }
        }
        self.bcast_stats = state.bcast_stats;
        self.counts = state.counts;
        self.gen.clone_from(&state.gen);
        self.compute.clone_from(&state.compute);
        self.slots.clone_from(&state.slots);
        self.bus.normal.clone_from(&state.normal_bytes);
        self.bus.broadcast.clone_from(&state.broadcast_bytes);
        self.bus.edge.clone_from(&state.edge_bytes);
        self.bus.host_agg.clone_from(&state.host_agg_bytes);
        self.bus.demand.clone_from(&state.demand_bytes);
        self.host_extra_cycles = state.host_extra_cycles;
        self.structural = state.structural.clone();
        self.current = state.current.clone();
        self.mp_index = state.mp_index;
        self.next_start = state.next_start;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgraph::datasets::{generate, DatasetId, GeneratorConfig};
    use hgnn::engine::{InferenceEngine, OnTheFlyEngine};
    use hgnn::{FeatureStore, ModelConfig, OpCounters, Projection};

    fn setup(scale: f64, hidden: usize) -> (hetgraph::datasets::Dataset, HiddenFeatures) {
        let ds = generate(DatasetId::Imdb, GeneratorConfig::at_scale(scale));
        let fs = FeatureStore::random(&ds.graph, 3);
        let proj = Projection::random(&ds.graph, hidden, 0xC0FFEE);
        let mut c = OpCounters::default();
        let h = proj.project(&ds.graph, &fs, &mut c).unwrap();
        (ds, h)
    }

    fn reference(
        ds: &hetgraph::datasets::Dataset,
        kind: ModelKind,
        hidden: usize,
    ) -> hgnn::engine::Inference {
        let fs = FeatureStore::random(&ds.graph, 3);
        let config = ModelConfig::new(kind)
            .with_hidden_dim(hidden)
            .with_attention(false);
        OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap()
    }

    fn nmp_config(hidden: usize) -> NmpConfig {
        NmpConfig {
            hidden_dim: hidden,
            ..NmpConfig::default()
        }
    }

    #[test]
    fn magnn_matches_software_reference() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(16));
        let run = sim
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let reference = reference(&ds, ModelKind::Magnn, 16);
        let diff = run.embeddings.max_abs_diff(&reference.embeddings);
        assert!(diff < 1e-3, "diff = {diff}");
    }

    #[test]
    fn han_matches_software_reference() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(16));
        let run = sim
            .run(&ds.graph, &h, ModelKind::Han, &ds.metapaths)
            .unwrap();
        let reference = reference(&ds, ModelKind::Han, 16);
        assert!(run.embeddings.max_abs_diff(&reference.embeddings) < 1e-3);
    }

    #[test]
    fn shgnn_matches_software_reference() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(16));
        let run = sim
            .run(&ds.graph, &h, ModelKind::Shgnn, &ds.metapaths)
            .unwrap();
        let reference = reference(&ds, ModelKind::Shgnn, 16);
        assert!(run.embeddings.max_abs_diff(&reference.embeddings) < 1e-3);
    }

    #[test]
    fn reuse_reduces_aggregations() {
        let (ds, h) = setup(0.02, 16);
        let with = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let without = FunctionalSim::new(NmpConfig {
            reuse: false,
            ..nmp_config(16)
        })
        .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
        .unwrap();
        assert!(with.report.counts.aggregations < without.report.counts.aggregations);
        assert!(with.report.counts.copies > 0);
        // Same embeddings either way.
        assert!(with.embeddings.max_abs_diff(&without.embeddings) < 1e-4);
    }

    #[test]
    fn host_aggregation_ablation_is_slower() {
        let (ds, h) = setup(0.02, 16);
        let full = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let ablated = FunctionalSim::new(NmpConfig {
            aggregate_in_nmp: false,
            ..nmp_config(16)
        })
        .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
        .unwrap();
        assert!(
            ablated.report.seconds > full.report.seconds,
            "ablated {} <= full {}",
            ablated.report.seconds,
            full.report.seconds
        );
        assert!(ablated.embeddings.max_abs_diff(&full.embeddings) < 1e-4);
    }

    #[test]
    fn broadcast_beats_naive_communication() {
        use crate::comm::CommPolicy;
        let (ds, h) = setup(0.05, 16);
        let b = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let n = FunctionalSim::new(nmp_config(16).with_comm(CommPolicy::Naive))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        assert!(
            b.report.seconds <= n.report.seconds,
            "broadcast {} > naive {}",
            b.report.seconds,
            n.report.seconds
        );
        assert!(b.report.counts.broadcast_transfers > 0);
        assert_eq!(n.report.counts.broadcast_transfers, 0);
    }

    #[test]
    fn counts_are_consistent_with_graph() {
        use hetgraph::instances::count_instances;
        let (ds, h) = setup(0.02, 16);
        let run = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let expected: u128 = ds
            .metapaths
            .iter()
            .map(|mp| count_instances(&ds.graph, mp).unwrap())
            .sum();
        assert_eq!(run.report.counts.instances, expected);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_verdict_is_clean_on_a_full_run() {
        let (ds, h) = setup(0.02, 16);
        let run = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let audit = &run.report.audit;
        assert!(audit.is_clean(), "{}", audit.summary());
        assert!(audit.commands_checked > 0);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_skips_instance_closed_form_on_resumed_runs() {
        // Despite the name, the closed form is checked here: a resumed
        // run restores the pre-snapshot instance counts, so a clean run
        // audits clean across the snapshot boundary.
        let (ds, h) = setup(0.02, 16);
        let mut run = ResumableRun::new(nmp_config(16));
        let done = run
            .step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 50)
            .unwrap();
        assert!(!done);
        let state = checkpoint::Snapshot::snapshot(&run);
        let mut run = ResumableRun::from_state(&state).unwrap();
        run.step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, u64::MAX)
            .unwrap();
        let audit = run.finish(&ds.graph, &ds.metapaths).unwrap().report.audit;
        assert!(audit.is_clean(), "{}", audit.summary());
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_checks_instance_closed_form_on_resumed_runs() {
        // A snapshot whose instance count disagrees with the graph
        // must fail the closed-form check after resuming.
        let (ds, h) = setup(0.02, 16);
        let mut run = ResumableRun::new(nmp_config(16));
        let done = run
            .step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 50)
            .unwrap();
        assert!(!done);
        let mut state = checkpoint::Snapshot::snapshot(&run);
        state.counts.instances += 1;
        let mut run = ResumableRun::from_state(&state).unwrap();
        run.step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, u64::MAX)
            .unwrap();
        let audit = run.finish(&ds.graph, &ds.metapaths).unwrap().report.audit;
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.constraint == dramsim::Constraint::Instances),
            "{}",
            audit.summary()
        );
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_is_excluded_from_report_serialization() {
        let (ds, h) = setup(0.02, 16);
        let run = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        assert!(run.report.audit.enabled);
        let json = serde_json::to_string(&run.report).unwrap();
        assert!(
            !json.contains("audit"),
            "audit must not leak into artifacts"
        );
        let back: NmpReport = serde_json::from_str(&json).unwrap();
        assert!(!back.audit.enabled, "audit does not round-trip");
        assert_eq!(back.counts, run.report.counts);
    }

    #[test]
    fn energy_is_positive_and_decomposed() {
        let (ds, h) = setup(0.02, 16);
        let run = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let e = &run.report.energy;
        assert!(e.dram.total_pj() > 0.0);
        assert!(e.logic_pj > 0.0);
        assert!(e.host_pj > 0.0);
        assert!(e.total_pj() > e.logic_pj);
        assert!(run.report.seconds > 0.0);
    }

    #[test]
    fn weighted_semantic_matches_software_reference() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(NmpConfig {
            weighted_semantic: true,
            ..nmp_config(16)
        });
        let run = sim
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let fs = hgnn::FeatureStore::random(&ds.graph, 3);
        let config = hgnn::ModelConfig::new(ModelKind::Magnn)
            .with_hidden_dim(16)
            .with_attention(false)
            .with_weighted_semantic(true);
        let reference = OnTheFlyEngine
            .run(&ds.graph, &fs, &config, &ds.metapaths)
            .unwrap();
        assert!(run.embeddings.max_abs_diff(&reference.embeddings) < 1e-3);
    }

    #[test]
    fn wrong_hidden_dim_is_rejected() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(32));
        assert!(matches!(
            sim.run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths),
            Err(NmpError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_metapaths_rejected() {
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(16));
        assert!(sim.run(&ds.graph, &h, ModelKind::Magnn, &[]).is_err());
    }

    #[test]
    fn zero_rate_faults_leave_report_identical() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let plain = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let gated = FunctionalSim::new(nmp_config(16).with_faults(FaultConfig::off()))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        assert_eq!(plain.report, gated.report);
        assert!(gated.report.faults.is_empty());
        assert_eq!(plain.embeddings.max_abs_diff(&gated.embeddings), 0.0);
    }

    #[test]
    fn broadcast_drops_recover_via_fallback_with_same_embeddings() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let clean = FunctionalSim::new(nmp_config(16))
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        let lossy = FunctionalSim::new(nmp_config(16).with_faults(FaultConfig {
            seed: 42,
            broadcast_drop_rate: 0.5,
            broadcast_corrupt_rate: 0.1,
            ..FaultConfig::off()
        }))
        .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
        .unwrap();
        let f = &lossy.report.faults;
        assert!(f.broadcast_drops > 0, "50 % drop rate must drop transfers");
        assert!(f.broadcast_retries > 0, "drops must be retried");
        assert!(
            f.broadcast_fallbacks > 0,
            "some transfers must degrade to p2p"
        );
        assert!(
            lossy.report.seconds >= clean.report.seconds,
            "recovery cannot be faster than the clean run"
        );
        // Recovery is transparent to the computation.
        assert_eq!(lossy.embeddings.max_abs_diff(&clean.embeddings), 0.0);
        assert_eq!(lossy.report.counts.instances, clean.report.counts.instances);
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let cfg = FaultConfig {
            seed: 7,
            bit_flip_rate: 0.01,
            broadcast_drop_rate: 0.2,
            stall_rate: 0.05,
            ..FaultConfig::off()
        };
        let run = || {
            FunctionalSim::new(nmp_config(16).with_faults(cfg))
                .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert!(a.report.faults.total_injected() > 0);
    }

    #[test]
    fn fault_report_carries_rank_health_census() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let cfg = nmp_config(16);
        let ranks = cfg.dram.total_ranks() as u64;
        // Fault-free: no census at all (fields stay zero, report empty).
        let clean = FunctionalSim::new(cfg)
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();
        assert_eq!(clean.report.faults.ranks_healthy, 0);
        // Active injector, survivable faults: every rank is classified,
        // and a 50 % failed-bank rate must degrade at least one.
        let sick = FunctionalSim::new(nmp_config(16).with_faults(FaultConfig {
            seed: 5,
            failed_bank_rate: 0.5,
            ..FaultConfig::off()
        }))
        .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
        .unwrap();
        let f = &sick.report.faults;
        assert_eq!(f.ranks_healthy + f.ranks_degraded + f.ranks_tripped, ranks);
        assert!(f.ranks_degraded > 0, "half the banks failed: {f:?}");
        assert_eq!(f.ranks_tripped, 0, "nothing is stalled");
    }

    #[test]
    fn stalled_rank_surfaces_as_fault_error() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let sim = FunctionalSim::new(nmp_config(16).with_faults(FaultConfig {
            stalled_rank_mask: u64::MAX, // every rank dead
            watchdog_limit: 200,
            ..FaultConfig::off()
        }));
        match sim.run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths) {
            Err(NmpError::Fault(faultsim::FaultError::Watchdog(e))) => {
                assert!(!e.stuck_requests.is_empty(), "must name stuck requests");
            }
            other => panic!("expected a watchdog fault, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn chunked_stepping_with_snapshots_is_byte_identical() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.005, 16);
        let cfg = nmp_config(16).with_faults(FaultConfig {
            seed: 9,
            bit_flip_rate: 0.01,
            broadcast_drop_rate: 0.2,
            stall_rate: 0.05,
            ..FaultConfig::off()
        });
        let straight = FunctionalSim::new(cfg)
            .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
            .unwrap();

        // Step in chunks; at every boundary rebuild the run from its
        // snapshot, and every few boundaries push the snapshot through
        // JSON too — exactly what a kill-and-resume does. (The DRAM
        // request log grows with progress, so serializing at *every*
        // boundary would make this test quadratic in request count.)
        let mut run = ResumableRun::new(cfg);
        let mut boundary = 0u32;
        loop {
            let done = run
                .step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 7)
                .unwrap();
            let state = checkpoint::Snapshot::snapshot(&run);
            let state = if boundary.is_multiple_of(5) || done {
                let json = serde_json::to_string(&state).unwrap();
                serde_json::from_str::<FunctionalState>(&json).unwrap()
            } else {
                state
            };
            run = ResumableRun::from_state(&state).unwrap();
            boundary += 1;
            if done {
                break;
            }
        }
        let resumed = run.finish(&ds.graph, &ds.metapaths).unwrap();
        assert_eq!(resumed.report, straight.report);
        assert_eq!(
            resumed.embeddings.max_abs_diff(&straight.embeddings),
            0.0,
            "resumed embeddings must be bit-identical"
        );
    }

    /// Pins the JSON bytes of a mid-run [`FunctionalState`], the payload
    /// a checkpointed simulation writes. The faulted config keeps both
    /// injector images (DRAM lanes and broadcast/unit layer) present,
    /// and the boundary lands mid-metapath so the in-flight matrix is
    /// serialized too.
    #[test]
    fn snapshot_bytes_match_the_golden_digest() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.005, 16);
        let cfg = nmp_config(16).with_faults(FaultConfig {
            seed: 9,
            bit_flip_rate: 0.01,
            broadcast_drop_rate: 0.2,
            stall_rate: 0.05,
            ..FaultConfig::off()
        });
        let mut run = ResumableRun::new(cfg);
        for _ in 0..4 {
            let done = run
                .step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 7)
                .unwrap();
            assert!(!done);
        }
        assert_eq!(run.cursor(), (1, 7));
        let state = checkpoint::Snapshot::snapshot(&run);
        assert!(state.injector.is_some() && state.mem.injector.is_some());
        assert!(state.current.is_some() && state.structural.len() == 1);
        let json = serde_json::to_string(&state).unwrap();
        assert_eq!(checkpoint::fnv1a64(json.as_bytes()), 0xb81f_75b8_1313_caf5);
    }

    #[test]
    fn thread_budget_does_not_change_results() {
        use faultsim::FaultConfig;
        let (ds, h) = setup(0.02, 16);
        let cfg = nmp_config(16).with_faults(FaultConfig {
            seed: 7,
            bit_flip_rate: 0.01,
            broadcast_drop_rate: 0.2,
            stall_rate: 0.05,
            ..FaultConfig::off()
        });
        let run_with = |threads: usize| {
            dramsim::parallel::set_threads(threads);
            let run = FunctionalSim::new(cfg)
                .run(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths)
                .unwrap();
            dramsim::parallel::set_threads(0);
            run
        };
        let serial = run_with(1);
        let threaded = run_with(4);
        assert_eq!(serial.report, threaded.report);
        assert_eq!(
            serial.embeddings.max_abs_diff(&threaded.embeddings),
            0.0,
            "embeddings must be bit-identical at every thread count"
        );
    }

    #[test]
    fn finish_before_done_is_rejected() {
        let (ds, h) = setup(0.02, 16);
        let mut run = ResumableRun::new(nmp_config(16));
        let done = run
            .step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 1)
            .unwrap();
        assert!(!done);
        assert!(matches!(
            run.finish(&ds.graph, &ds.metapaths),
            Err(NmpError::Unsupported(_))
        ));
    }

    #[test]
    fn restore_rejects_mismatched_state() {
        let (ds, h) = setup(0.02, 16);
        let mut run = ResumableRun::new(nmp_config(16));
        run.step(&ds.graph, &h, ModelKind::Magnn, &ds.metapaths, 5)
            .unwrap();
        let good = checkpoint::Snapshot::snapshot(&run);

        // Different configuration.
        let mut other = good.clone();
        other.config.hidden_dim = 32;
        assert!(ResumableRun::from_state(&other).is_err());

        // Topology-inconsistent per-unit vectors.
        let mut other = good.clone();
        other.gen.pop();
        assert!(ResumableRun::from_state(&other).is_err());

        // Cursor into a metapath without an in-flight matrix.
        let mut other = good.clone();
        other.current = None;
        assert!(other.next_start != 0, "step(5) must be mid-metapath");
        assert!(ResumableRun::from_state(&other).is_err());

        // A DRAM topology wider than the scheduler's queue entries is a
        // restore error, not the memory system's constructor panic.
        let mut other = good.clone();
        other.config.dram.dimms_per_channel = 200;
        other.mem.config = other.config.dram;
        assert!(ResumableRun::from_state(&other).is_err());

        // The unmodified image restores fine.
        assert!(ResumableRun::from_state(&good).is_ok());
    }
}
