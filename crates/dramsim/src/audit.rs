//! Runtime invariant auditing: a DDR4 protocol checker and end-of-run
//! conservation invariants.
//!
//! The checker is a *mirror state machine*: it observes every command
//! the scheduler issues (ACT, RD/WR, PRE, REF, bus transfers) and
//! re-derives the JEDEC legality windows from the observed command
//! stream alone — it never reads the scheduler's own `next_*`
//! bookkeeping, so a regression in the scheduling math is caught as a
//! structured [`AuditError`] carrying the recent command trace instead
//! of surfacing as silently wrong latency numbers.
//!
//! Everything here is feature-gated like the telemetry backend: with
//! the `audit` feature off, [`ChannelChecker`] is a zero-sized type
//! whose observe methods compile to nothing, so release benchmarks pay
//! no cost. The report types are always compiled so downstream crates
//! can carry an [`AuditReport`] unconditionally.
//!
//! Checked constraints (see `DESIGN.md` §12 for the full derivation):
//!
//! * **Bank state** — no ACT to a bank with an open row, no column
//!   command to a closed or differently-open row.
//! * **Timing windows** — tRCD, tRP, tRC, tRAS, tWR, tRRD_S/L,
//!   tCCD_S/L, tFAW, and the refresh blackout (commands may not issue
//!   while a rank is refreshing). Write-to-read turnaround is checked
//!   as data-bus exclusivity ([`Constraint::DataBusOverlap`]): this
//!   model serializes all data through the channel or rank-local bus,
//!   which subsumes tWTR.
//! * **Conservation** — every enqueued burst retires exactly once,
//!   energy tallies match their closed forms, and (one level up, in
//!   `nmp`) generated instance counts match the combinatorial count
//!   from type-separated degree products.

#[cfg(feature = "audit")]
use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// DDR4 command classes observed by the protocol checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmdKind {
    /// Row activation.
    Activate,
    /// Column read.
    Read,
    /// Column write.
    Write,
    /// Precharge (row close).
    Precharge,
    /// All-bank refresh (the `row` field carries the refresh epoch).
    Refresh,
}

impl CmdKind {
    /// Short mnemonic used in trace rendering.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmdKind::Activate => "ACT",
            CmdKind::Read => "RD",
            CmdKind::Write => "WR",
            CmdKind::Precharge => "PRE",
            CmdKind::Refresh => "REF",
        }
    }
}

/// One observed command, as recorded in a violation's trace tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CmdEvent {
    /// Issue cycle of the command.
    pub cycle: u64,
    /// Command class.
    pub kind: CmdKind,
    /// Channel the command issued on.
    pub channel: usize,
    /// Linear rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row address (refresh epoch for [`CmdKind::Refresh`]).
    pub row: u64,
}

impl fmt::Display for CmdEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} {} ch{} rank{} bank{} row{}",
            self.cycle,
            self.kind.mnemonic(),
            self.channel,
            self.rank,
            self.bank,
            self.row
        )
    }
}

/// The protocol rule or conservation invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// ACT issued to a bank whose row buffer is already open.
    ActOnOpenRow,
    /// Column command issued to a closed bank or a different open row.
    ColOnWrongRow,
    /// ACT → column delay (tRCD).
    Trcd,
    /// PRE → ACT delay (tRP).
    Trp,
    /// ACT → ACT, same bank (tRC).
    Trc,
    /// ACT → PRE minimum row-open time (tRAS).
    Tras,
    /// Last write data → PRE (tWR write recovery).
    Twr,
    /// ACT → ACT across bank groups (tRRD_S).
    TrrdS,
    /// ACT → ACT within a bank group (tRRD_L).
    TrrdL,
    /// More than four activates inside the tFAW window.
    Tfaw,
    /// Column → column across bank groups (tCCD_S).
    TccdS,
    /// Column → column within a bank group (tCCD_L).
    TccdL,
    /// First data beat must land exactly tCL after the column command.
    CasLatency,
    /// Command issued while the rank was refreshing (inside tRFC).
    RefreshWindow,
    /// Refresh epochs must advance strictly monotonically.
    RefreshOrder,
    /// Two data bursts overlapped on the same (channel or rank-local)
    /// data bus — also the model's write-to-read turnaround guard.
    DataBusOverlap,
    /// A request retired more or fewer times than its burst count.
    Retirement,
    /// An energy component diverged from its per-command closed form.
    Energy,
    /// Generated instance counts diverged from the combinatorial
    /// closed form (checked by `nmp::functional`).
    Instances,
}

impl Constraint {
    /// Stable identifier used in messages and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Constraint::ActOnOpenRow => "act-on-open-row",
            Constraint::ColOnWrongRow => "col-on-wrong-row",
            Constraint::Trcd => "tRCD",
            Constraint::Trp => "tRP",
            Constraint::Trc => "tRC",
            Constraint::Tras => "tRAS",
            Constraint::Twr => "tWR",
            Constraint::TrrdS => "tRRD_S",
            Constraint::TrrdL => "tRRD_L",
            Constraint::Tfaw => "tFAW",
            Constraint::TccdS => "tCCD_S",
            Constraint::TccdL => "tCCD_L",
            Constraint::CasLatency => "tCL",
            Constraint::RefreshWindow => "refresh-window",
            Constraint::RefreshOrder => "refresh-order",
            Constraint::DataBusOverlap => "data-bus-overlap",
            Constraint::Retirement => "retirement",
            Constraint::Energy => "energy-conservation",
            Constraint::Instances => "instance-conservation",
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How many recent commands a violation's trace tail carries.
pub const TRACE_TAIL: usize = 8;

/// A structured audit violation: which rule broke, a human-readable
/// account, and the tail of the command trace leading up to (and
/// including) the violating command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditError {
    /// The rule that was broken.
    pub constraint: Constraint,
    /// What happened, with the offending cycles.
    pub message: String,
    /// Up to [`TRACE_TAIL`] most recent commands on the violating
    /// channel, oldest first; the violating command is last. Empty for
    /// conservation violations, which have no command site.
    pub trace: Vec<CmdEvent>,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.constraint, self.message)?;
        if !self.trace.is_empty() {
            write!(f, "; trace:")?;
            for ev in &self.trace {
                write!(f, " [{ev}]")?;
            }
        }
        Ok(())
    }
}

/// What the protocol checker has verified and found: commands and
/// refresh events checked, and violations in the order they were
/// drained. A memory-system image carries these (see
/// [`crate::SystemState::audit`]), so an audited run resumed from a
/// snapshot reports the whole run, not only what its own process saw.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AuditTally {
    /// Commands checked.
    pub commands: u64,
    /// All-bank refresh operations observed.
    pub refreshes: u64,
    /// Violations found.
    pub violations: Vec<AuditError>,
}

#[cfg(feature = "audit")]
impl AuditTally {
    /// Appends `other`'s counts and violations.
    pub(crate) fn absorb(&mut self, mut other: AuditTally) {
        self.commands += other.commands;
        self.refreshes += other.refreshes;
        self.violations.append(&mut other.violations);
    }
}

/// Aggregated audit results for a run.
///
/// `enabled` distinguishes "audited and clean" from "not audited": a
/// default report (the `audit` feature compiled out, or the estimate
/// path) has `enabled == false` and an empty violation list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Whether the audit layer actually observed this run.
    pub enabled: bool,
    /// Commands the protocol checker verified.
    pub commands_checked: u64,
    /// All-bank refresh operations observed (each tREFI boundary a
    /// rank crossed counts once).
    pub refresh_events: u64,
    /// Every violation found, in deterministic (channel, service)
    /// order.
    pub violations: Vec<AuditError>,
}

impl AuditReport {
    /// True when the run was audited and no invariant was violated.
    /// An unaudited report is *not* clean — absence of evidence only.
    pub fn is_clean(&self) -> bool {
        self.enabled && self.violations.is_empty()
    }

    /// Folds another report in (violations append in call order).
    pub fn merge(&mut self, other: &AuditReport) {
        self.enabled |= other.enabled;
        self.commands_checked += other.commands_checked;
        self.refresh_events += other.refresh_events;
        self.violations.extend(other.violations.iter().cloned());
    }

    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        if !self.enabled {
            "audit: off".to_string()
        } else if self.violations.is_empty() {
            format!(
                "audit: clean ({} commands, {} refreshes)",
                self.commands_checked, self.refresh_events
            )
        } else {
            format!(
                "audit: {} violation(s) over {} commands; first: {}",
                self.violations.len(),
                self.commands_checked,
                self.violations[0]
            )
        }
    }
}

/// Deliberate scheduler misbehavior, applied once, behind a test hook
/// ([`crate::MemorySystem::audit_perturb`]): each variant emulates one
/// class of scheduling bug so tests can prove the checker catches it.
/// With the `audit` feature off the hook does not exist and the hot
/// path carries no perturbation branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Perturbation {
    /// No perturbation (the default).
    #[default]
    None,
    /// Issue the next column command one cycle early (tRCD/tCCD).
    EarlyColumn,
    /// Issue the next ACT one cycle early (tRP/tRC/tRRD/tFAW).
    EarlyActivate,
    /// Issue the next conflict PRE one cycle early (tRAS/tWR).
    EarlyPrecharge,
    /// Activate over a conflicting open row without precharging.
    SkipPrecharge,
}

/// True when this build carries the live audit layer.
pub const fn is_enabled() -> bool {
    cfg!(feature = "audit")
}

/// Consumes a pending perturbation if it matches `which`. A free
/// function (not a method) so the scheduler can call it while bank and
/// rank projections of the same channel state are mutably borrowed.
#[cfg(feature = "audit")]
pub(crate) fn take_perturb(slot: &mut Perturbation, which: Perturbation) -> bool {
    if *slot == which {
        *slot = Perturbation::None;
        true
    } else {
        false
    }
}

pub(crate) use imp::ChannelChecker;

#[cfg(feature = "audit")]
mod imp {
    use super::*;
    use crate::config::Timing;
    use crate::request::{Locality, RequestKind};

    #[derive(Debug, Clone, Default)]
    struct MirrorBank {
        open_row: Option<u64>,
        last_act: Option<u64>,
        last_pre: Option<u64>,
        /// End cycle of the most recent write data burst (for tWR).
        last_write_end: Option<u64>,
    }

    #[derive(Debug, Clone)]
    struct MirrorRank {
        banks: Vec<MirrorBank>,
        /// Recent ACT issue cycles (last four kept, for tFAW).
        acts: VecDeque<u64>,
        last_act_any: Option<u64>,
        last_act_group: Vec<Option<u64>>,
        last_col_any: Option<u64>,
        last_col_group: Vec<Option<u64>>,
        /// Highest refresh epoch observed.
        refresh_epoch: u64,
        /// Rank unavailable until this cycle after its last refresh.
        resume_after_ref: u64,
        /// End cycle of the last data burst on the rank-local bus.
        local_bus_end: u64,
    }

    impl MirrorRank {
        fn new(banks: usize, groups: usize) -> Self {
            MirrorRank {
                banks: vec![MirrorBank::default(); banks],
                acts: VecDeque::new(),
                last_act_any: None,
                last_act_group: vec![None; groups],
                last_col_any: None,
                last_col_group: vec![None; groups],
                refresh_epoch: 0,
                resume_after_ref: 0,
                local_bus_end: 0,
            }
        }
    }

    /// The live per-channel protocol checker: an independent mirror of
    /// bank/rank state built purely from observed commands. Lives in
    /// the channel's state so the worker servicing that channel
    /// accumulates violations locally; the system drains them in
    /// channel order, so the report does not depend on when each
    /// channel was serviced.
    #[derive(Debug, Clone)]
    pub(crate) struct ChannelChecker {
        ch: usize,
        ranks: Vec<MirrorRank>,
        /// End cycle of the last data burst on the shared channel bus.
        chan_bus_end: u64,
        /// Ring of recent commands for violation trace tails.
        trace: VecDeque<CmdEvent>,
        /// Tallies since the system last drained them.
        tally: AuditTally,
    }

    impl ChannelChecker {
        pub(crate) fn new(ch: usize, ranks: usize, banks: usize, groups: usize) -> Self {
            ChannelChecker {
                ch,
                ranks: (0..ranks).map(|_| MirrorRank::new(banks, groups)).collect(),
                chan_bus_end: 0,
                trace: VecDeque::with_capacity(TRACE_TAIL),
                tally: AuditTally::default(),
            }
        }

        /// Re-seeds the mirror from a restored snapshot: open rows,
        /// refresh epochs and the undrained tallies carry over; timing
        /// history is unknown, so window checks resume only once fresh
        /// commands are observed.
        pub(crate) fn reseed(
            &mut self,
            ranks: &[crate::snapshot::RankSnapshot],
            tally: AuditTally,
        ) {
            self.tally = tally;
            for (mirror, snap) in self.ranks.iter_mut().zip(ranks) {
                for (mb, sb) in mirror.banks.iter_mut().zip(&snap.banks) {
                    *mb = MirrorBank {
                        open_row: sb.open_row,
                        ..MirrorBank::default()
                    };
                }
                mirror.acts.clear();
                mirror.last_act_any = None;
                mirror.last_act_group.iter_mut().for_each(|g| *g = None);
                mirror.last_col_any = None;
                mirror.last_col_group.iter_mut().for_each(|g| *g = None);
                mirror.refresh_epoch = snap.refresh_epoch;
                mirror.resume_after_ref = 0;
                mirror.local_bus_end = 0;
            }
        }

        /// Moves the accumulated violations and tallies out (the trace
        /// ring and mirror state persist across service calls).
        pub(crate) fn take_delta(&mut self) -> AuditTally {
            std::mem::take(&mut self.tally)
        }

        /// The tallies not yet drained, for a snapshot.
        pub(crate) fn tally(&self) -> Option<AuditTally> {
            Some(self.tally.clone())
        }

        fn record(&mut self, ev: CmdEvent, fail: Option<(Constraint, String)>) {
            if self.trace.len() == TRACE_TAIL {
                self.trace.pop_front();
            }
            self.trace.push_back(ev);
            if let Some((constraint, message)) = fail {
                self.tally.violations.push(AuditError {
                    constraint,
                    message,
                    trace: self.trace.iter().copied().collect(),
                });
            }
        }

        pub(crate) fn observe_refresh(
            &mut self,
            rank: usize,
            epoch: u64,
            refreshes: u64,
            resume: u64,
            t: &Timing,
        ) {
            self.tally.commands += 1;
            self.tally.refreshes += refreshes;
            let ev = CmdEvent {
                cycle: resume.saturating_sub(t.t_rfc),
                kind: CmdKind::Refresh,
                channel: self.ch,
                rank,
                bank: 0,
                row: epoch,
            };
            let r = &mut self.ranks[rank];
            let fail = if epoch <= r.refresh_epoch {
                Some((
                    Constraint::RefreshOrder,
                    format!(
                        "refresh epoch {epoch} does not advance past {} on rank {rank}",
                        r.refresh_epoch
                    ),
                ))
            } else {
                None
            };
            r.refresh_epoch = r.refresh_epoch.max(epoch);
            r.resume_after_ref = r.resume_after_ref.max(resume);
            for b in &mut r.banks {
                b.open_row = None;
            }
            self.record(ev, fail);
        }

        pub(crate) fn observe_pre(&mut self, rank: usize, bank: usize, cycle: u64, t: &Timing) {
            self.tally.commands += 1;
            let tras = t.t_rc - t.t_rp;
            let r = &mut self.ranks[rank];
            let b = &mut r.banks[bank];
            let ev = CmdEvent {
                cycle,
                kind: CmdKind::Precharge,
                channel: self.ch,
                rank,
                bank,
                row: b.open_row.unwrap_or(0),
            };
            let fail = if let Some(a) = b.last_act.filter(|&a| cycle < a + tras) {
                Some((
                    Constraint::Tras,
                    format!("PRE at {cycle} closes a row opened at {a} before tRAS={tras}"),
                ))
            } else {
                b.last_write_end.filter(|&w| cycle < w + t.t_wr).map(|w| {
                    (
                        Constraint::Twr,
                        format!(
                            "PRE at {cycle} inside write recovery \
                                 (data ended {w}, tWR={})",
                            t.t_wr
                        ),
                    )
                })
            };
            b.open_row = None;
            b.last_pre = Some(cycle);
            self.record(ev, fail);
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn observe_act(
            &mut self,
            rank: usize,
            bank: usize,
            group: usize,
            row: u64,
            cycle: u64,
            t: &Timing,
        ) {
            self.tally.commands += 1;
            let ev = CmdEvent {
                cycle,
                kind: CmdKind::Activate,
                channel: self.ch,
                rank,
                bank,
                row,
            };
            let r = &mut self.ranks[rank];
            let fail = Self::check_act(r, bank, group, cycle, t);
            // Adopt the observed command so one violation cannot
            // cascade into spurious follow-ups.
            let b = &mut r.banks[bank];
            b.open_row = Some(row);
            b.last_act = Some(cycle);
            r.last_act_any = Some(cycle);
            r.last_act_group[group] = Some(cycle);
            r.acts.push_back(cycle);
            while r.acts.len() > 4 {
                r.acts.pop_front();
            }
            self.record(ev, fail);
        }

        fn check_act(
            r: &MirrorRank,
            bank: usize,
            group: usize,
            cycle: u64,
            t: &Timing,
        ) -> Option<(Constraint, String)> {
            let b = &r.banks[bank];
            if let Some(open) = b.open_row {
                return Some((
                    Constraint::ActOnOpenRow,
                    format!("ACT at {cycle} to bank {bank} with row {open} still open"),
                ));
            }
            if cycle < r.resume_after_ref {
                return Some((
                    Constraint::RefreshWindow,
                    format!(
                        "ACT at {cycle} while the rank refreshes (busy until {})",
                        r.resume_after_ref
                    ),
                ));
            }
            if let Some(p) = b.last_pre.filter(|&p| cycle < p + t.t_rp) {
                return Some((
                    Constraint::Trp,
                    format!(
                        "ACT at {cycle} only {} after PRE at {p}; tRP={}",
                        cycle - p,
                        t.t_rp
                    ),
                ));
            }
            if let Some(a) = b.last_act.filter(|&a| cycle < a + t.t_rc) {
                return Some((
                    Constraint::Trc,
                    format!(
                        "ACT at {cycle} only {} after ACT at {a}; tRC={}",
                        cycle - a,
                        t.t_rc
                    ),
                ));
            }
            if let Some(a) = r.last_act_any.filter(|&a| cycle < a + t.t_rrd_s) {
                return Some((
                    Constraint::TrrdS,
                    format!(
                        "ACT at {cycle} within tRRD_S={} of rank ACT at {a}",
                        t.t_rrd_s
                    ),
                ));
            }
            if let Some(a) = r.last_act_group[group].filter(|&a| cycle < a + t.t_rrd_l) {
                return Some((
                    Constraint::TrrdL,
                    format!(
                        "ACT at {cycle} within tRRD_L={} of group ACT at {a}",
                        t.t_rrd_l
                    ),
                ));
            }
            if r.acts.len() >= 4 {
                let fourth_back = r.acts[r.acts.len() - 4];
                if cycle < fourth_back + t.t_faw {
                    return Some((
                        Constraint::Tfaw,
                        format!(
                            "fifth ACT at {cycle} inside tFAW={} of the ACT at {fourth_back}",
                            t.t_faw
                        ),
                    ));
                }
            }
            None
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn observe_col(
            &mut self,
            rank: usize,
            bank: usize,
            group: usize,
            row: u64,
            kind: RequestKind,
            col: u64,
            data_start: u64,
            data_end: u64,
            locality: Locality,
            t: &Timing,
        ) {
            self.tally.commands += 1;
            let ev = CmdEvent {
                cycle: col,
                kind: match kind {
                    RequestKind::Read => CmdKind::Read,
                    RequestKind::Write => CmdKind::Write,
                },
                channel: self.ch,
                rank,
                bank,
                row,
            };
            let r = &mut self.ranks[rank];
            let bus_end = match locality {
                Locality::RankLocal => &mut r.local_bus_end,
                _ => &mut self.chan_bus_end,
            };
            let fail = {
                let b = &r.banks[bank];
                if b.open_row != Some(row) {
                    Some((
                        Constraint::ColOnWrongRow,
                        format!(
                            "{} at {col} targets row {row} but bank {bank} has {:?} open",
                            ev.kind.mnemonic(),
                            b.open_row
                        ),
                    ))
                } else if col < r.resume_after_ref {
                    Some((
                        Constraint::RefreshWindow,
                        format!(
                            "column command at {col} while the rank refreshes (busy until {})",
                            r.resume_after_ref
                        ),
                    ))
                } else if let Some(a) = b.last_act.filter(|&a| col < a + t.t_rcd) {
                    Some((
                        Constraint::Trcd,
                        format!(
                            "column command at {col} only {} after ACT at {a}; tRCD={}",
                            col - a,
                            t.t_rcd
                        ),
                    ))
                } else if let Some(c) = r.last_col_any.filter(|&c| col < c + t.t_ccd_s) {
                    Some((
                        Constraint::TccdS,
                        format!(
                            "column at {col} within tCCD_S={} of column at {c}",
                            t.t_ccd_s
                        ),
                    ))
                } else if let Some(c) = r.last_col_group[group].filter(|&c| col < c + t.t_ccd_l) {
                    Some((
                        Constraint::TccdL,
                        format!(
                            "column at {col} within tCCD_L={} of column at {c}",
                            t.t_ccd_l
                        ),
                    ))
                } else if data_start != col + t.t_cl {
                    Some((
                        Constraint::CasLatency,
                        format!(
                            "data at {data_start} but the column command at {col} implies {}",
                            col + t.t_cl
                        ),
                    ))
                } else if data_start < *bus_end {
                    Some((
                        Constraint::DataBusOverlap,
                        format!(
                            "data burst {data_start}..{data_end} overlaps the previous \
                             burst ending at {bus_end} on the {} bus",
                            if locality == Locality::RankLocal {
                                "rank-local"
                            } else {
                                "channel"
                            }
                        ),
                    ))
                } else {
                    None
                }
            };
            *bus_end = (*bus_end).max(data_end);
            r.last_col_any = Some(col);
            r.last_col_group[group] = Some(col);
            if kind == RequestKind::Write {
                r.banks[bank].last_write_end = Some(data_end);
            }
            self.record(ev, fail);
        }

        /// Broadcast / direct-send transfers: pure channel-bus traffic
        /// with no bank activity — only bus exclusivity applies.
        pub(crate) fn observe_bus_only(&mut self, data_start: u64, data_end: u64) {
            self.tally.commands += 1;
            if data_start < self.chan_bus_end {
                let message = format!(
                    "bus-only transfer {data_start}..{data_end} overlaps the previous \
                     burst ending at {} on the channel bus",
                    self.chan_bus_end
                );
                self.tally.violations.push(AuditError {
                    constraint: Constraint::DataBusOverlap,
                    message,
                    trace: self.trace.iter().copied().collect(),
                });
            }
            self.chan_bus_end = self.chan_bus_end.max(data_end);
        }
    }
}

#[cfg(not(feature = "audit"))]
mod imp {
    //! Zero-cost stand-in compiled when the `audit` feature is off:
    //! every observe method is an empty `#[inline(always)]` body, so
    //! the scheduler hot path is byte-for-byte the unaudited one.
    #![allow(clippy::too_many_arguments)]

    use super::AuditTally;
    use crate::config::Timing;
    use crate::request::{Locality, RequestKind};

    #[derive(Debug, Clone, Default)]
    pub(crate) struct ChannelChecker;

    impl ChannelChecker {
        #[inline(always)]
        pub(crate) fn new(_ch: usize, _ranks: usize, _banks: usize, _groups: usize) -> Self {
            ChannelChecker
        }

        /// Nothing is checked, so a snapshot carries no tallies.
        pub(crate) fn tally(&self) -> Option<AuditTally> {
            None
        }

        #[inline(always)]
        pub(crate) fn observe_refresh(
            &mut self,
            _rank: usize,
            _epoch: u64,
            _refreshes: u64,
            _resume: u64,
            _t: &Timing,
        ) {
        }

        #[inline(always)]
        pub(crate) fn observe_pre(&mut self, _rank: usize, _bank: usize, _cycle: u64, _t: &Timing) {
        }

        #[inline(always)]
        pub(crate) fn observe_act(
            &mut self,
            _rank: usize,
            _bank: usize,
            _group: usize,
            _row: u64,
            _cycle: u64,
            _t: &Timing,
        ) {
        }

        #[inline(always)]
        pub(crate) fn observe_col(
            &mut self,
            _rank: usize,
            _bank: usize,
            _group: usize,
            _row: u64,
            _kind: RequestKind,
            _col: u64,
            _data_start: u64,
            _data_end: u64,
            _locality: Locality,
            _t: &Timing,
        ) {
        }

        #[inline(always)]
        pub(crate) fn observe_bus_only(&mut self, _data_start: u64, _data_end: u64) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_clean_semantics() {
        let off = AuditReport::default();
        assert!(!off.is_clean(), "an unaudited report is not clean");
        let on = AuditReport {
            enabled: true,
            ..Default::default()
        };
        assert!(on.is_clean());
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = AuditReport {
            enabled: true,
            commands_checked: 10,
            refresh_events: 1,
            violations: vec![],
        };
        let b = AuditReport {
            enabled: true,
            commands_checked: 5,
            refresh_events: 2,
            violations: vec![AuditError {
                constraint: Constraint::Trcd,
                message: "x".into(),
                trace: vec![],
            }],
        };
        a.merge(&b);
        assert_eq!(a.commands_checked, 15);
        assert_eq!(a.refresh_events, 3);
        assert_eq!(a.violations.len(), 1);
        assert!(!a.is_clean());
    }

    #[test]
    fn display_renders_constraint_and_trace() {
        let e = AuditError {
            constraint: Constraint::Trp,
            message: "too early".into(),
            trace: vec![CmdEvent {
                cycle: 7,
                kind: CmdKind::Activate,
                channel: 0,
                rank: 1,
                bank: 2,
                row: 3,
            }],
        };
        let s = e.to_string();
        assert!(s.contains("tRP"), "{s}");
        assert!(s.contains("@7 ACT ch0 rank1 bank2 row3"), "{s}");
    }

    #[test]
    fn summary_reports_state() {
        assert_eq!(AuditReport::default().summary(), "audit: off");
        let clean = AuditReport {
            enabled: true,
            commands_checked: 3,
            ..Default::default()
        };
        assert!(clean.summary().contains("clean"));
    }
}
