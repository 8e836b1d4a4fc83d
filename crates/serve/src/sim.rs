//! The discrete-time serving event loop.
//!
//! Single-threaded and strictly ordered: time advances to the next
//! event tick, and everything due at that tick is processed in a fixed
//! order — breaker/scenario transitions, completions (ascending DIMM),
//! arrivals (sequence order, through admission control), deadline
//! closures (class order), then dispatch (priority order onto the
//! lowest-index allowed DIMM). Combined with counter-mode randomness,
//! a run is a pure function of `(config, workload)` — byte-identical
//! wherever and however often it executes.

use std::collections::BTreeMap;

use faultsim::scenario::TimelineEffect;
use faultsim::{FaultInjector, Scenario};
use hetgraph::datasets::DatasetId;
use hgnn::ModelKind;
use metanmp::FaultConfig;

use crate::admission::{Admission, AdmissionConfig, Breakers, Decision, ShedReason};
use crate::arrival::{PoissonArrivals, Query};
use crate::batch::{Batcher, ReadyBatch};
use crate::cache::ReuseCache;
use crate::qos::{self, ClassSpec};
use crate::report::{
    AdmissionReport, BatchReport, BreakerReport, CacheReport, ChaosReport, ClassReport, DimmReport,
    FaultReport, LatencyStats, ServeReport,
};
use crate::workload::ServeWorkload;
use crate::ServeError;

/// Full configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dataset preset the queries target.
    pub dataset: DatasetId,
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// HGNN model served.
    pub model: ModelKind,
    /// Hidden feature dimension.
    pub hidden_dim: usize,
    /// Seed of the arrival process (counter-mode; the fault schedule
    /// has its own seed inside [`ServeConfig::faults`]).
    pub seed: u64,
    /// The seeded Poisson process the queries arrive by.
    pub arrivals: PoissonArrivals,
    /// QoS class table.
    pub classes: Vec<ClassSpec>,
    /// Reuse-cache capacity in bytes (0 disables inter-query reuse).
    pub cache_bytes: usize,
    /// Fault model driving stalled ranks and transient stalls.
    pub faults: FaultConfig,
    /// Service-time multiplier for a DIMM degraded by a permanently
    /// stalled rank (its requests detour around the sick rank).
    pub stalled_dimm_slowdown: f64,
    /// Overload protection: admission control, deadline shedding, and
    /// per-DIMM circuit breakers. `None` reproduces the unprotected
    /// simulator exactly — every query queues and is eventually served.
    pub admission: Option<AdmissionConfig>,
    /// Chaos-scenario schedule scripting load spikes, rank stalls,
    /// cache flushes, and fleet resizes over simulated time.
    /// [`Scenario::empty`] is a byte-exact no-op.
    pub scenario: Scenario,
}

impl ServeConfig {
    /// The workload-model part of the configuration; a
    /// [`ServeWorkload`] built from one config can serve any other
    /// config with the same fingerprint (different arrival rates,
    /// seeds, caches, and fault models reuse one calibration).
    pub(crate) fn fingerprint(&self) -> (DatasetId, u64, ModelKind, usize) {
        (
            self.dataset,
            self.scale.to_bits(),
            self.model,
            self.hidden_dim,
        )
    }

    /// A small, fast configuration for tests: IMDB at 0.02 scale,
    /// MAGNN, 300 Poisson queries, no overload protection, no chaos.
    pub fn smoke_test() -> ServeConfig {
        ServeConfig {
            dataset: DatasetId::Imdb,
            scale: 0.02,
            model: ModelKind::Magnn,
            hidden_dim: 16,
            seed: 7,
            arrivals: PoissonArrivals {
                rate_per_ktick: 4.0,
                queries: 300,
                popularity_skew: 2.0,
            },
            classes: qos::default_classes(),
            cache_bytes: 1 << 20,
            faults: FaultConfig::default(),
            stalled_dimm_slowdown: 8.0,
            admission: None,
            scenario: Scenario::empty(),
        }
    }
}

/// A batch in service on a DIMM.
#[derive(Debug)]
struct Inflight {
    finish: u64,
    dispatch_tick: u64,
    /// Fault-free service estimate at dispatch (breaker baseline).
    healthy_service: u64,
    class: u16,
    queries: Vec<Query>,
}

/// Per-DIMM accumulation.
#[derive(Debug, Default, Clone, Copy)]
struct DimmAccum {
    batches: u64,
    queries: u64,
    busy_ticks: u64,
}

/// Whether any of `dimm`'s ranks is set in the scenario stall mask.
fn mask_covers(mask: u64, dimm: usize, ranks_per_dimm: usize) -> bool {
    (0..ranks_per_dimm).any(|r| {
        let gr = dimm * ranks_per_dimm + r;
        gr < 64 && mask >> gr & 1 == 1
    })
}

/// Runs one serving simulation of `config` over a pre-built
/// `workload`.
///
/// # Errors
///
/// [`ServeError::Config`] when the class table or admission policy is
/// invalid, the scale is outside `(0, 1]`, the workload was built for
/// a different model configuration, the slowdown is below 1, or the
/// arrival spec is empty/invalid.
pub fn simulate(config: &ServeConfig, workload: &ServeWorkload) -> Result<ServeReport, ServeError> {
    qos::validate(&config.classes)?;
    if !config.scale.is_finite() || config.scale <= 0.0 || config.scale > 1.0 {
        return Err(ServeError::Config(format!(
            "scale must be in (0, 1], got {}",
            config.scale
        )));
    }
    if workload.built_for != config.fingerprint() {
        return Err(ServeError::Config(format!(
            "workload was calibrated for {:?}, config wants {:?}",
            workload.built_for,
            config.fingerprint()
        )));
    }
    if !config.stalled_dimm_slowdown.is_finite() || config.stalled_dimm_slowdown < 1.0 {
        return Err(ServeError::Config(format!(
            "stalled_dimm_slowdown must be ≥ 1 and finite, got {}",
            config.stalled_dimm_slowdown
        )));
    }
    if let Some(a) = &config.admission {
        a.validate()?;
    }

    let spikes = config.scenario.spike_windows();
    let arrivals = config.arrivals.generate_scripted(
        config.seed,
        workload.vertex_bound,
        &config.classes,
        &spikes,
    )?;
    if arrivals.is_empty() {
        return Err(ServeError::Config("arrival schedule is empty".into()));
    }

    let dimms = workload.dimms;
    let rpd = workload.ranks_per_dimm;
    let mut injector = FaultInjector::new(config.faults);
    let base_stalled: Vec<bool> = (0..dimms)
        .map(|d| (0..rpd).any(|r| injector.rank_is_stalled(d * rpd + r)))
        .collect();
    let mut ever_stalled = base_stalled.clone();

    // Chaos-scenario machinery: the resolved timeline is a fourth
    // event source; spikes already shaped the arrival schedule above.
    let timeline = config.scenario.timeline();
    let mut next_effect = 0usize;
    let mut scenario_mask = 0u64;
    let mut active_dimms = dimms;
    let mut chaos = ChaosReport {
        scripted_events: config.scenario.events.len() as u64,
        spike_windows: spikes.len() as u64,
        applied_effects: 0,
        cache_flushes: 0,
        rank_stall_changes: 0,
        fleet_changes: 0,
    };

    let mut cache = ReuseCache::new(config.cache_bytes / workload.entry_bytes.max(1));
    let mut batcher = Batcher::new(config.classes.len());
    // Ready queue ordered by (inverted priority, oldest arrival,
    // close sequence): BTreeMap iteration yields the dispatch order.
    let mut ready: BTreeMap<(u8, u64, u64), ReadyBatch> = BTreeMap::new();
    let mut close_seq = 0u64;
    let mut inflight: Vec<Option<Inflight>> = (0..dimms).map(|_| None).collect();
    let mut accum = vec![DimmAccum::default(); dimms];

    // Overload protection (inactive without an AdmissionConfig).
    let mut admission = config
        .admission
        .as_ref()
        .map(|a| Admission::new(a.clone(), config.classes.len(), workload.mean_query_ticks));
    let mut breakers = config.admission.as_ref().map(|a| Breakers::new(a, dimms));
    let mut queued_queries = 0u64;
    let mut queued_est_ticks = 0u64;
    let mut shed_tally = [0u64; 3]; // indexed by ShedReason discriminant order
    let mut class_shed = vec![0u64; config.classes.len()];
    let mut class_brownout = vec![0u64; config.classes.len()];
    let mut brownouts = 0u64;
    let mut brownout_hist = obs::Histogram::new();

    let mut overall = obs::Histogram::new();
    let mut queue_delay = obs::Histogram::new();
    let mut per_class: Vec<obs::Histogram> = config
        .classes
        .iter()
        .map(|_| obs::Histogram::new())
        .collect();
    let mut class_queries = vec![0u64; config.classes.len()];
    let mut batch_report = BatchReport {
        total: 0,
        closed_by_size: 0,
        closed_by_deadline: 0,
        closed_by_drain: 0,
        closed_by_idle: 0,
        mean_size: 0.0,
    };
    let mut stall_ticks = 0u64;
    let mut stall_events = 0u64;
    let mut makespan = 0u64;
    let mut served = 0u64;

    let push_ready = |b: ReadyBatch,
                      ready: &mut BTreeMap<(u8, u64, u64), ReadyBatch>,
                      close_seq: &mut u64,
                      batch_report: &mut BatchReport| {
        batch_report.record(b.closed_by);
        let prio = config.classes[usize::from(b.class)].priority;
        let key = (u8::MAX - prio, b.oldest_arrival, *close_seq);
        *close_seq += 1;
        ready.insert(key, b);
    };

    let mut next_arrival = 0usize;
    let mut now = 0u64;
    loop {
        // Dispatch: highest-priority ready batch onto the lowest-index
        // allowed DIMM (in the active fleet, breaker not open),
        // repeating while both exist.
        while let Some(dimm) = (0..active_dimms)
            .find(|&d| inflight[d].is_none() && breakers.as_ref().is_none_or(|b| b.allows(d)))
        {
            // Work-conserving mode (admission only): an idle DIMM with
            // nothing ready closes the oldest partial batch instead of
            // letting it age toward its wait deadline while the gate
            // counts its members as queue depth.
            if ready.is_empty() && admission.is_some() {
                if let Some(b) = batcher.close_oldest() {
                    push_ready(b, &mut ready, &mut close_seq, &mut batch_report);
                }
            }
            let Some((&key, _)) = ready.iter().next() else {
                break;
            };
            let batch = ready.remove(&key).expect("key just observed");
            let mut service = 0u64;
            for q in &batch.queries {
                service = service.saturating_add(workload.query_ticks(q.vertex, &mut cache));
            }
            let healthy_service = service.max(1);
            let stall = injector.next_stall_cycles(dimm as u64);
            if stall > 0 {
                stall_events += 1;
                stall_ticks += stall;
                service = service.saturating_add(stall);
            }
            if base_stalled[dimm] || mask_covers(scenario_mask, dimm, rpd) {
                ever_stalled[dimm] = true;
                service = (service as f64 * config.stalled_dimm_slowdown) as u64;
            }
            let service = service.max(1);
            accum[dimm].batches += 1;
            accum[dimm].queries += batch.queries.len() as u64;
            accum[dimm].busy_ticks = accum[dimm].busy_ticks.saturating_add(service);
            queued_queries = queued_queries.saturating_sub(batch.queries.len() as u64);
            if let Some(adm) = admission.as_ref() {
                for q in &batch.queries {
                    queued_est_ticks =
                        queued_est_ticks.saturating_sub(adm.estimate(usize::from(q.class)));
                }
            }
            inflight[dimm] = Some(Inflight {
                finish: now.saturating_add(service),
                dispatch_tick: now,
                healthy_service,
                class: batch.class,
                queries: batch.queries,
            });
        }

        // Next event: earliest completion, arrival, batch deadline,
        // scenario effect, or breaker half-open.
        let t_completion = inflight.iter().flatten().map(|b| b.finish).min();
        let t_arrival = arrivals.get(next_arrival).map(|q| q.arrival_tick);
        let t_deadline = batcher.next_deadline(&config.classes);
        let t_scenario = timeline.get(next_effect).map(|&(t, _)| t);
        let t_breaker = breakers.as_ref().and_then(|b| b.next_reopen());
        let Some(next) = [t_completion, t_arrival, t_deadline, t_scenario, t_breaker]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        now = now.max(next);

        // 0. State transitions due now: open breakers half-open, and
        // scenario effects apply in (tick, script order).
        if let Some(b) = breakers.as_mut() {
            b.tick(now);
        }
        while let Some(&(tick, effect)) = timeline.get(next_effect) {
            if tick > now {
                break;
            }
            next_effect += 1;
            chaos.applied_effects += 1;
            match effect {
                TimelineEffect::StallRanks(m) => {
                    scenario_mask |= m;
                    chaos.rank_stall_changes += 1;
                    for (d, ever) in ever_stalled.iter_mut().enumerate() {
                        if mask_covers(m, d, rpd) {
                            *ever = true;
                        }
                    }
                }
                TimelineEffect::UnstallRanks(m) => {
                    scenario_mask &= !m;
                    chaos.rank_stall_changes += 1;
                }
                TimelineEffect::FlushCache => {
                    cache.flush();
                    chaos.cache_flushes += 1;
                }
                TimelineEffect::FleetDimms(n) => {
                    active_dimms = (n as usize).clamp(1, dimms);
                    chaos.fleet_changes += 1;
                }
            }
        }

        // 1. Completions due now, ascending DIMM index.
        for (dimm, slot) in inflight.iter_mut().enumerate() {
            let done = matches!(slot, Some(b) if b.finish <= now);
            if !done {
                continue;
            }
            let b = slot.take().expect("matched above");
            makespan = makespan.max(b.finish);
            let actual = b.finish.saturating_sub(b.dispatch_tick);
            if let Some(brk) = breakers.as_mut() {
                brk.on_completion(dimm, b.healthy_service, actual, now);
            }
            if let Some(adm) = admission.as_mut() {
                let per_query = (actual / b.queries.len().max(1) as u64).max(1);
                adm.observe(usize::from(b.class), per_query);
            }
            for q in &b.queries {
                let latency = b.finish.saturating_sub(q.arrival_tick);
                overall.record(latency);
                per_class[usize::from(b.class)].record(latency);
                queue_delay.record(b.dispatch_tick.saturating_sub(q.arrival_tick));
                class_queries[usize::from(b.class)] += 1;
                served += 1;
            }
        }

        // 2. Arrivals due now, in sequence order, through admission.
        while let Some(q) = arrivals.get(next_arrival).copied() {
            if q.arrival_tick > now {
                break;
            }
            next_arrival += 1;
            let class = usize::from(q.class);
            let decision = match admission.as_mut() {
                None => Decision::Admit,
                Some(adm) => {
                    let inflight_rem: u64 = inflight
                        .iter()
                        .flatten()
                        .map(|b| b.finish.saturating_sub(now))
                        .sum();
                    let healthy = (0..active_dimms)
                        .filter(|&d| breakers.as_ref().is_none_or(|b| b.allows(d)))
                        .count();
                    adm.decide(
                        now,
                        class,
                        &config.classes[class],
                        queued_queries,
                        queued_est_ticks.saturating_add(inflight_rem),
                        healthy,
                        workload.predicted_ticks(q.vertex, &cache),
                    )
                }
            };
            match decision {
                Decision::Admit => {
                    queued_queries += 1;
                    if let Some(adm) = admission.as_ref() {
                        queued_est_ticks = queued_est_ticks.saturating_add(adm.estimate(class));
                    }
                    if let Some(b) = batcher.admit(q, &config.classes) {
                        push_ready(b, &mut ready, &mut close_seq, &mut batch_report);
                    }
                }
                Decision::Drop(reason) => {
                    // Brownout before rejecting: a root-cache-resident
                    // vertex gets a degraded combine-only answer.
                    if let Some(t) = workload.brownout_ticks(q.vertex, &mut cache) {
                        brownouts += 1;
                        class_brownout[class] += 1;
                        brownout_hist.record(t);
                    } else {
                        shed_tally[reason as usize] += 1;
                        class_shed[class] += 1;
                    }
                }
            }
        }
        // End of stream: flush the open batches rather than letting
        // the last stragglers wait out their deadlines.
        if next_arrival == arrivals.len() {
            for b in batcher.drain() {
                push_ready(b, &mut ready, &mut close_seq, &mut batch_report);
            }
        }

        // 3. Deadline closures due now, in class order.
        for b in batcher.close_expired(now, &config.classes) {
            push_ready(b, &mut ready, &mut close_seq, &mut batch_report);
        }
    }

    let shed_total: u64 = shed_tally.iter().sum();
    debug_assert_eq!(
        served + shed_total + brownouts,
        arrivals.len() as u64,
        "every query is served, shed, or browned out"
    );
    let makespan = makespan.max(1);
    let open_at_end = breakers.as_mut().map_or(0, |b| b.finalize(makespan));
    let classes = config
        .classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let latency = LatencyStats::from_histogram(&per_class[i]);
            ClassReport {
                name: c.name.to_string(),
                priority: c.priority,
                queries: class_queries[i],
                shed: class_shed[i],
                brownouts: class_brownout[i],
                attained: latency.p99_ticks <= c.target_p99_ticks,
                target_p99_ticks: c.target_p99_ticks,
                latency,
            }
        })
        .collect();
    let dimm_reports = (0..dimms)
        .map(|d| DimmReport {
            dimm: d as u64,
            stalled: ever_stalled[d],
            health: breakers
                .as_ref()
                .map_or(faultsim::HealthState::Healthy, |b| b.health(d)),
            batches: accum[d].batches,
            queries: accum[d].queries,
            busy_ticks: accum[d].busy_ticks,
            utilization: accum[d].busy_ticks as f64 / makespan as f64,
        })
        .collect();
    batch_report.mean_size = if batch_report.total == 0 {
        0.0
    } else {
        served as f64 / batch_report.total as f64
    };
    let admission_report = AdmissionReport {
        enabled: admission.is_some(),
        accepted: served,
        shed_queue_depth: shed_tally[ShedReason::QueueDepth as usize],
        shed_rate_limit: shed_tally[ShedReason::RateLimit as usize],
        shed_deadline: shed_tally[ShedReason::Deadline as usize],
        brownouts,
        gate_closures: admission.as_ref().map_or(0, |a| a.gate_closures),
        brownout_latency: LatencyStats::from_histogram(&brownout_hist),
    };
    let breaker_report = BreakerReport {
        enabled: breakers.is_some(),
        trips: breakers.as_ref().map_or(0, |b| b.trips),
        reopens: breakers.as_ref().map_or(0, |b| b.reopens),
        slow_completions: breakers.as_ref().map_or(0, |b| b.slow_completions),
        open_ticks: breakers.as_ref().map_or(0, |b| b.open_ticks),
        open_at_end,
    };
    publish_telemetry(&admission_report, &breaker_report, breakers.as_ref());

    Ok(ServeReport {
        seed: config.seed,
        offered_rate_per_ktick: config.arrivals.rate_per_ktick,
        arrived: arrivals.len() as u64,
        queries: served,
        makespan_ticks: makespan,
        achieved_rate_per_ktick: served as f64 * 1024.0 / makespan as f64,
        latency: LatencyStats::from_histogram(&overall),
        queue_delay: LatencyStats::from_histogram(&queue_delay),
        classes,
        cache: CacheReport {
            capacity_entries: (config.cache_bytes / workload.entry_bytes.max(1)) as u64,
            stats: cache.stats,
            hit_rate: cache.stats.hit_rate(),
        },
        batches: batch_report,
        dimms: dimm_reports,
        faults: FaultReport {
            stalled_dimms: ever_stalled.iter().filter(|&&s| s).count() as u64,
            transient_stall_ticks: stall_ticks,
            transient_stall_events: stall_events,
        },
        admission: admission_report,
        breakers: breaker_report,
        chaos,
    })
}

/// Publishes `serve.admission.*` / `serve.breaker.*` counters and the
/// breaker-state simulated-time track to the telemetry registry (a
/// no-op when admission is disabled).
fn publish_telemetry(adm: &AdmissionReport, brk: &BreakerReport, breakers: Option<&Breakers>) {
    if !adm.enabled {
        return;
    }
    obs::counter_add("serve.admission.accepted", adm.accepted);
    obs::counter_add("serve.admission.shed_queue_depth", adm.shed_queue_depth);
    obs::counter_add("serve.admission.shed_rate_limit", adm.shed_rate_limit);
    obs::counter_add("serve.admission.shed_deadline", adm.shed_deadline);
    obs::counter_add("serve.admission.brownouts", adm.brownouts);
    obs::counter_add("serve.admission.gate_closures", adm.gate_closures);
    obs::counter_add("serve.breaker.trips", brk.trips);
    obs::counter_add("serve.breaker.reopens", brk.reopens);
    obs::counter_add("serve.breaker.slow_completions", brk.slow_completions);
    obs::counter_add("serve.breaker.open_ticks", brk.open_ticks);
    if let Some(b) = breakers {
        for &(dimm, start, end) in &b.open_intervals {
            obs::sim_slice(
                "serve.breaker",
                format!("dimm{dimm} open"),
                start,
                end.saturating_sub(start).max(1),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> &'static ServeWorkload {
        use std::sync::OnceLock;
        static W: OnceLock<ServeWorkload> = OnceLock::new();
        W.get_or_init(|| ServeWorkload::build(&ServeConfig::smoke_test()).expect("build workload"))
    }

    #[test]
    fn smoke_run_serves_every_query() {
        let config = ServeConfig::smoke_test();
        let r = simulate(&config, workload()).unwrap();
        assert_eq!(r.queries, 300);
        assert_eq!(r.arrived, 300);
        assert_eq!(r.latency.count, 300);
        assert!(r.latency.p50_ticks <= r.latency.p99_ticks);
        assert!(r.latency.p99_ticks <= r.latency.p999_ticks);
        assert!(r.latency.max_ticks >= r.latency.p999_ticks);
        assert!(r.makespan_ticks > 0);
        assert_eq!(r.classes.iter().map(|c| c.queries).sum::<u64>(), r.queries);
        assert_eq!(r.dimms.iter().map(|d| d.queries).sum::<u64>(), r.queries);
        assert!(r.cache.hit_rate > 0.0, "skewed traffic must hit the cache");
        assert_eq!(r.faults.stalled_dimms, 0);
        // Protection disabled: nothing shed, nothing tripped.
        assert!(!r.admission.enabled && !r.breakers.enabled);
        assert_eq!(r.admission.shed_deadline, 0);
        assert_eq!(r.chaos.scripted_events, 0);
        assert!(r
            .dimms
            .iter()
            .all(|d| d.health == faultsim::HealthState::Healthy));
    }

    #[test]
    fn runs_are_reproducible() {
        let config = ServeConfig::smoke_test();
        let a = simulate(&config, workload()).unwrap();
        let b = simulate(&config, workload()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// A single-class, batch-of-one config at `fraction` of the
    /// system's cache-cold capacity, reuse cache disabled: latency is
    /// pure queueing + service, so the capacity estimate is exact and
    /// load effects are not masked by batch-deadline waits.
    fn at_load(fraction: f64) -> ServeConfig {
        let w = workload();
        let capacity = w.dimms() as f64 * 1024.0 / w.mean_query_ticks();
        let mut c = ServeConfig::smoke_test();
        c.cache_bytes = 0;
        c.classes = vec![ClassSpec {
            name: "rt",
            priority: 1,
            share: 1.0,
            target_p99_ticks: 60_000,
            max_batch: 1,
            max_wait_ticks: 1,
        }];
        c.arrivals = PoissonArrivals {
            rate_per_ktick: fraction * capacity,
            queries: 2000,
            popularity_skew: 2.0,
        };
        c
    }

    #[test]
    fn overload_inflates_tail_latency() {
        // 0.3× capacity vs 3× capacity: at 3× the backlog grows
        // linearly over the 2000-query run, so late queries queue for
        // a large fraction of the total work.
        let rl = simulate(&at_load(0.3), workload()).unwrap();
        let rh = simulate(&at_load(3.0), workload()).unwrap();
        assert!(
            rh.latency.p99_ticks > 2 * rl.latency.p99_ticks,
            "overload p99 {} must dwarf light-load p99 {}",
            rh.latency.p99_ticks,
            rl.latency.p99_ticks
        );
        assert!(
            rh.queue_delay.p99_ticks > rl.queue_delay.p99_ticks,
            "overload queueing {} must exceed light-load queueing {}",
            rh.queue_delay.p99_ticks,
            rl.queue_delay.p99_ticks
        );
    }

    #[test]
    fn stalled_ranks_spike_tail_latency_without_crashing() {
        // Stall every rank of DIMMs 0–3 (2 ranks/DIMM → low 8 bits):
        // half the fleet serves 8× slower, dropping effective capacity
        // to ~0.56× and pushing a 0.8×-capacity run into overload.
        let healthy = at_load(0.8);
        let mut sick = at_load(0.8);
        sick.faults.stalled_rank_mask = 0xFF;
        let rh = simulate(&healthy, workload()).unwrap();
        let rs = simulate(&sick, workload()).unwrap();
        assert_eq!(rs.queries, rh.queries, "no query is dropped under faults");
        assert_eq!(rs.faults.stalled_dimms, 4);
        assert!(rs.dimms[0].stalled && !rs.dimms[7].stalled);
        assert!(
            rs.latency.p99_ticks > rh.latency.p99_ticks,
            "stalled ranks must show up in the tail (sick {} vs healthy {})",
            rs.latency.p99_ticks,
            rh.latency.p99_ticks
        );
        assert!(rs.latency.mean_ticks > rh.latency.mean_ticks);
    }

    #[test]
    fn disabling_the_cache_costs_throughput() {
        let cached = ServeConfig::smoke_test();
        let mut cold = ServeConfig::smoke_test();
        cold.cache_bytes = 0;
        let rc = simulate(&cached, workload()).unwrap();
        let r0 = simulate(&cold, workload()).unwrap();
        assert_eq!(r0.cache.hit_rate, 0.0);
        assert!(
            r0.latency.mean_ticks >= rc.latency.mean_ticks,
            "reuse cache must not hurt mean latency"
        );
    }

    #[test]
    fn rejects_mismatched_workload_and_bad_config() {
        let mut other = ServeConfig::smoke_test();
        other.hidden_dim = 32;
        assert!(matches!(
            simulate(&other, workload()),
            Err(ServeError::Config(_))
        ));
        let mut bad = ServeConfig::smoke_test();
        bad.stalled_dimm_slowdown = 0.5;
        assert!(matches!(
            simulate(&bad, workload()),
            Err(ServeError::Config(_))
        ));
        let mut empty = ServeConfig::smoke_test();
        empty.classes.clear();
        assert!(matches!(
            simulate(&empty, workload()),
            Err(ServeError::Config(_))
        ));
        // Satellite: capacity-scale validation — the workload was
        // built at a valid scale, so these fail before the
        // fingerprint check.
        for scale in [0.0, -0.5, f64::NAN, f64::INFINITY, 1.5] {
            let mut c = ServeConfig::smoke_test();
            c.scale = scale;
            assert!(
                matches!(simulate(&c, workload()), Err(ServeError::Config(_))),
                "scale {scale} must be rejected"
            );
        }
        // Bad admission policies are rejected up front.
        let mut adm = ServeConfig::smoke_test();
        let mut policy = AdmissionConfig::for_capacity(8.0, 8);
        policy.refill_per_ktick = f64::NAN;
        adm.admission = Some(policy);
        assert!(matches!(
            simulate(&adm, workload()),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn empty_scenario_is_a_byte_exact_noop() {
        let base = ServeConfig::smoke_test();
        let mut scripted = ServeConfig::smoke_test();
        scripted.scenario = Scenario::empty();
        let a = simulate(&base, workload()).unwrap();
        let b = simulate(&scripted, workload()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn scenario_cache_flush_forces_a_miss_storm() {
        let clean = ServeConfig::smoke_test();
        let rc = simulate(&clean, workload()).unwrap();
        let mut flushed = ServeConfig::smoke_test();
        // Flush mid-run: same arrivals (no spikes), colder cache.
        flushed.scenario =
            Scenario::parse(&format!("CHS1\nflush {}\n", rc.makespan_ticks / 2)).unwrap();
        let rf = simulate(&flushed, workload()).unwrap();
        assert_eq!(rf.chaos.cache_flushes, 1);
        assert_eq!(rf.cache.stats.flushes, 1);
        assert_eq!(rf.arrived, rc.arrived);
        assert!(
            rf.cache.hit_rate <= rc.cache.hit_rate,
            "flush cannot improve the hit rate ({} vs {})",
            rf.cache.hit_rate,
            rc.cache.hit_rate
        );
    }

    #[test]
    fn scenario_stall_window_degrades_and_recovers() {
        // Stall half the fleet over a mid-run window; the run must
        // complete every query and the afflicted DIMMs count stalled.
        let mut c = at_load(0.8);
        c.scenario = Scenario::parse("CHS1\nstall 1000 0xff\nunstall 400000 0xff\n").unwrap();
        let r = simulate(&c, workload()).unwrap();
        assert_eq!(r.queries, r.arrived);
        assert_eq!(r.chaos.rank_stall_changes, 2);
        assert_eq!(r.faults.stalled_dimms, 4);
        let healthy = simulate(&at_load(0.8), workload()).unwrap();
        assert!(
            r.latency.p99_ticks >= healthy.latency.p99_ticks,
            "a stall window cannot improve the tail"
        );
    }

    #[test]
    fn fleet_shrink_idles_excluded_dimms() {
        let mut c = at_load(0.5);
        // Shrink to 2 DIMMs from the start; grow back very late.
        c.scenario = Scenario::parse("CHS1\nfleet 0 2\n").unwrap();
        let r = simulate(&c, workload()).unwrap();
        assert_eq!(r.chaos.fleet_changes, 1);
        assert_eq!(r.queries, r.arrived);
        for d in 2..r.dimms.len() {
            assert_eq!(r.dimms[d].batches, 0, "DIMM {d} is outside the fleet");
        }
        assert!(r.dimms[0].batches > 0 && r.dimms[1].batches > 0);
    }

    #[test]
    fn admission_sheds_under_overload_and_keeps_goodput() {
        let w = workload();
        let capacity = w.dimms() as f64 * 1024.0 / w.mean_query_ticks();
        let mut c = at_load(3.0);
        c.admission = Some(AdmissionConfig::for_capacity(capacity, w.dimms()));
        let r = simulate(&c, workload()).unwrap();
        assert!(r.admission.enabled);
        let dropped = r.arrived - r.queries;
        assert!(dropped > 0, "3× overload must shed or brown out");
        assert_eq!(
            r.admission.shed_queue_depth
                + r.admission.shed_rate_limit
                + r.admission.shed_deadline
                + r.admission.brownouts,
            dropped
        );
        assert_eq!(
            r.classes.iter().map(|c| c.shed + c.brownouts).sum::<u64>(),
            dropped
        );
        // The protected run's accepted-query tail stays far below the
        // unprotected one's.
        let unprotected = simulate(&at_load(3.0), workload()).unwrap();
        assert!(
            r.latency.p99_ticks < unprotected.latency.p99_ticks,
            "admission must cut the tail ({} vs {})",
            r.latency.p99_ticks,
            unprotected.latency.p99_ticks
        );
        // And still serve a solid fraction of capacity.
        assert!(
            r.achieved_rate_per_ktick > 0.5 * capacity,
            "goodput {} must stay near capacity {capacity}",
            r.achieved_rate_per_ktick
        );
    }

    #[test]
    fn breakers_trip_on_scenario_stalls_and_recover() {
        let w = workload();
        let capacity = w.dimms() as f64 * 1024.0 / w.mean_query_ticks();
        let mut c = at_load(0.8);
        c.admission = Some(AdmissionConfig::for_capacity(capacity, w.dimms()));
        // Stall half the fleet early and never recover it: breakers
        // must trip and still be routing around the sick DIMMs at end.
        c.scenario = Scenario::parse("CHS1\nstall 1000 0xff\n").unwrap();
        let r = simulate(&c, workload()).unwrap();
        assert!(r.breakers.enabled);
        assert!(r.breakers.trips > 0, "stalled DIMMs must trip: {r:?}");
        assert!(r.breakers.slow_completions > 0);
        assert!(r.breakers.open_ticks > 0);
        // Healthy DIMMs never trip.
        for d in 4..8 {
            assert_eq!(
                r.dimms[d].health,
                faultsim::HealthState::Healthy,
                "DIMM {d} is healthy"
            );
        }
    }

    #[test]
    fn admission_off_never_drops() {
        // The no-admission invariant the rest of the suite relies on.
        let r = simulate(&at_load(3.0), workload()).unwrap();
        assert_eq!(r.arrived, r.queries);
        assert_eq!(r.admission.brownouts, 0);
        assert_eq!(r.classes.iter().map(|c| c.shed).sum::<u64>(), 0);
    }
}
