//! Deterministic counter-mode network fault injection for the sweep
//! fleet's TCP transport.
//!
//! [`Netem`] wraps one direction of one link (a "stream"): the
//! coordinator passes every received or about-to-be-sent frame through
//! [`Netem::apply`], which either delivers it, drops it, flips one byte,
//! duplicates it, or holds it back for a few frame slots. Every decision
//! is a pure function of `(seed, stream, direction, frame index)`
//! through the counter-mode draw the
//! [`FaultInjector`](crate::FaultInjector) uses ([`crate::rng`]) — no
//! RNG state, no wall clock — so a scripted chaos run replays the
//! *same* fault schedule on every execution. Hard partitions are
//! windows over the per-direction frame counter: inside `[start, end)`
//! every frame is black-holed, which is how a scenario scripts "this
//! worker disappears mid-lease".
//!
//! Two invariants matter for the acceptance bar:
//!
//! * **Inactive config is a byte-exact no-op.** When
//!   [`NetemConfig::is_active`] is false, [`Netem::apply`] returns the
//!   frame untouched without drawing a single hash — the wrapped
//!   transport behaves identically to an unwrapped one.
//! * **Faults never touch artifacts.** netem perturbs scheduling and
//!   liveness only; the journaled sweep replays through the ordinary
//!   resume fold, so a disturbed run's `results/` must still
//!   byte-compare against the undisturbed reference.
//!
//! Configs are usually extracted from a `CHS1` scenario's `net*`
//! directives via [`NetemConfig::from_scenario`]; an empty scenario
//! yields an inactive config.

use crate::rng;
use crate::scenario::{NetDirective, Scenario};
use std::collections::VecDeque;

/// Direction tag mixed into the decision stream so ingress and egress
/// of the same link draw independent schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDir {
    /// Frames flowing worker → coordinator.
    Ingress,
    /// Frames flowing coordinator → worker.
    Egress,
}

impl NetDir {
    fn tag(self) -> u64 {
        match self {
            NetDir::Ingress => 0x49_4E, // "IN"
            NetDir::Egress => 0x45_47,  // "EG"
        }
    }
}

/// Per-stream fault rates and partition windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetemConfig {
    /// Seed of the decision stream.
    pub seed: u64,
    /// Drop rate in per-mille of frames.
    pub drop_per_mille: u16,
    /// Delay rate in per-mille of frames.
    pub delay_per_mille: u16,
    /// How many frame slots a delayed frame is held (≥ 1 to matter).
    pub delay_frames: u32,
    /// Duplication rate in per-mille of frames.
    pub dup_per_mille: u16,
    /// Single-byte corruption rate in per-mille of frames.
    pub corrupt_per_mille: u16,
    /// Hard partition windows `[start, end)` over the per-direction
    /// frame counter; inside a window every frame drops.
    pub partitions: Vec<(u64, u64)>,
}

impl NetemConfig {
    /// Whether the config injects anything at all. An inactive config
    /// makes [`Netem::apply`] a byte-exact pass-through.
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || (self.delay_per_mille > 0 && self.delay_frames > 0)
            || self.dup_per_mille > 0
            || self.corrupt_per_mille > 0
            || !self.partitions.is_empty()
    }

    /// Extracts the config for one stream from a scenario's `net*`
    /// directives. Later rate directives for the same stream override
    /// earlier ones; partition windows accumulate. The scenario seed
    /// becomes the decision seed.
    pub fn from_scenario(scenario: &Scenario, stream: u64) -> NetemConfig {
        let mut cfg = NetemConfig {
            seed: scenario.seed,
            ..NetemConfig::default()
        };
        for d in &scenario.net {
            match *d {
                NetDirective::Drop {
                    stream: s,
                    per_mille,
                } if s == stream => {
                    cfg.drop_per_mille = per_mille;
                }
                NetDirective::Delay {
                    stream: s,
                    per_mille,
                    frames,
                } if s == stream => {
                    cfg.delay_per_mille = per_mille;
                    cfg.delay_frames = frames;
                }
                NetDirective::Duplicate {
                    stream: s,
                    per_mille,
                } if s == stream => {
                    cfg.dup_per_mille = per_mille;
                }
                NetDirective::Corrupt {
                    stream: s,
                    per_mille,
                } if s == stream => {
                    cfg.corrupt_per_mille = per_mille;
                }
                NetDirective::Partition {
                    stream: s,
                    start,
                    end,
                } if s == stream => {
                    cfg.partitions.push((start, end));
                }
                _ => {}
            }
        }
        cfg
    }
}

/// What the injector decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver unchanged.
    Deliver,
    /// Black-hole the frame.
    Drop,
    /// Deliver with one byte XOR-flipped at the given draw (reduced
    /// modulo the frame length by the applier).
    Corrupt(u64),
    /// Deliver the frame twice.
    Duplicate,
    /// Hold the frame for this many frame slots.
    Delay(u32),
}

/// The pure per-frame decision: identical inputs give identical fates
/// on every host and every run.
pub fn fate(cfg: &NetemConfig, stream: u64, dir: NetDir, frame_idx: u64) -> Fate {
    for &(start, end) in &cfg.partitions {
        if frame_idx >= start && frame_idx < end {
            return Fate::Drop;
        }
    }
    let key = stream.wrapping_add(dir.tag().rotate_left(32));
    let h = rng::draw(cfg.seed, key, frame_idx);
    let roll = (h % 1000) as u16;
    let mut bound = cfg.drop_per_mille;
    if roll < bound {
        return Fate::Drop;
    }
    bound = bound.saturating_add(cfg.corrupt_per_mille);
    if roll < bound {
        return Fate::Corrupt(rng::splitmix64(h));
    }
    bound = bound.saturating_add(cfg.dup_per_mille);
    if roll < bound {
        return Fate::Duplicate;
    }
    if cfg.delay_frames > 0 {
        bound = bound.saturating_add(cfg.delay_per_mille);
        if roll < bound {
            return Fate::Delay(cfg.delay_frames);
        }
    }
    Fate::Deliver
}

/// Stateful injector for one direction of one link. Owns the frame
/// counter the decisions key on and the queue of delayed frames.
#[derive(Debug)]
pub struct Netem {
    cfg: NetemConfig,
    stream: u64,
    dir: NetDir,
    active: bool,
    /// Decision counter: one per frame offered to [`Netem::apply`].
    frames: u64,
    /// Release clock: advances on every `apply` *and* every `tick`, so
    /// delayed frames on a quiet lane still drain.
    clock: u64,
    held: VecDeque<(u64, Vec<u8>)>,
}

impl Netem {
    /// Creates an injector for `stream`/`dir`. An inactive `cfg` makes
    /// every call a pass-through that never hashes.
    pub fn new(cfg: NetemConfig, stream: u64, dir: NetDir) -> Netem {
        let active = cfg.is_active();
        Netem {
            cfg,
            stream,
            dir,
            active,
            frames: 0,
            clock: 0,
            held: VecDeque::new(),
        }
    }

    /// Whether this injector can perturb traffic at all.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Offers one frame to the link; returns the frames that come out
    /// the other end *now*, in order (previously delayed frames that
    /// came due, then this frame's fate).
    pub fn apply(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        if !self.active {
            return vec![frame];
        }
        self.clock += 1;
        let idx = self.frames;
        self.frames += 1;
        let mut out = self.release_due();
        match fate(&self.cfg, self.stream, self.dir, idx) {
            Fate::Deliver => out.push(frame),
            Fate::Drop => obs::counter_add("netem.dropped", 1),
            Fate::Corrupt(draw) => {
                let mut frame = frame;
                if !frame.is_empty() {
                    let pos = (draw as usize) % frame.len();
                    // XOR with a non-zero constant so the byte always
                    // changes; 0x20 also keeps most JSON printable,
                    // exercising the parse path rather than the UTF-8
                    // bail-out every time.
                    frame[pos] ^= 0x20;
                }
                obs::counter_add("netem.corrupted", 1);
                out.push(frame);
            }
            Fate::Duplicate => {
                obs::counter_add("netem.duplicated", 1);
                out.push(frame.clone());
                out.push(frame);
            }
            Fate::Delay(slots) => {
                obs::counter_add("netem.delayed", 1);
                self.held.push_back((self.clock + u64::from(slots), frame));
            }
        }
        out
    }

    /// Advances the release clock without offering a frame, draining
    /// any delayed frames that came due. Call this periodically (the
    /// coordinator does it every supervisor tick) so a lane that went
    /// quiet still delivers what it held.
    pub fn tick(&mut self) -> Vec<Vec<u8>> {
        if !self.active {
            return Vec::new();
        }
        self.clock += 1;
        self.release_due()
    }

    fn release_due(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(&(due, _)) = self.held.front() {
            if due > self.clock {
                break;
            }
            out.push(self.held.pop_front().expect("front exists").1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_cfg() -> NetemConfig {
        NetemConfig {
            seed: 42,
            drop_per_mille: 100,
            delay_per_mille: 100,
            delay_frames: 2,
            dup_per_mille: 50,
            corrupt_per_mille: 50,
            partitions: vec![],
        }
    }

    #[test]
    fn inactive_config_is_a_byte_exact_no_op() {
        let cfg = NetemConfig::default();
        assert!(!cfg.is_active());
        let mut link = Netem::new(cfg, 0, NetDir::Ingress);
        for i in 0..100u32 {
            let frame = format!("frame {i}").into_bytes();
            assert_eq!(link.apply(frame.clone()), vec![frame]);
        }
        assert!(link.tick().is_empty());
    }

    #[test]
    fn fates_are_deterministic_per_seed_stream_dir_and_index() {
        let cfg = lossy_cfg();
        for idx in 0..2000 {
            assert_eq!(
                fate(&cfg, 3, NetDir::Ingress, idx),
                fate(&cfg, 3, NetDir::Ingress, idx)
            );
        }
        let schedule =
            |stream, dir| -> Vec<Fate> { (0..2000).map(|i| fate(&cfg, stream, dir, i)).collect() };
        assert_eq!(schedule(3, NetDir::Ingress), schedule(3, NetDir::Ingress));
        assert_ne!(
            schedule(3, NetDir::Ingress),
            schedule(4, NetDir::Ingress),
            "streams draw independent schedules"
        );
        assert_ne!(
            schedule(3, NetDir::Ingress),
            schedule(3, NetDir::Egress),
            "directions draw independent schedules"
        );
        let mut other = cfg.clone();
        other.seed = 43;
        assert_ne!(
            schedule(3, NetDir::Ingress),
            (0..2000)
                .map(|i| fate(&other, 3, NetDir::Ingress, i))
                .collect::<Vec<_>>(),
            "seeds shift the schedule"
        );
    }

    #[test]
    fn rates_land_near_their_nominal_per_mille() {
        let cfg = lossy_cfg();
        let n = 20_000u64;
        let mut drops = 0u64;
        for i in 0..n {
            if fate(&cfg, 0, NetDir::Ingress, i) == Fate::Drop {
                drops += 1;
            }
        }
        let per_mille = drops * 1000 / n;
        assert!(
            (70..=130).contains(&per_mille),
            "drop rate {per_mille}‰ far from nominal 100‰"
        );
    }

    #[test]
    fn partition_window_black_holes_everything_inside() {
        let cfg = NetemConfig {
            seed: 7,
            partitions: vec![(10, 20)],
            ..NetemConfig::default()
        };
        assert!(cfg.is_active());
        let mut link = Netem::new(cfg, 0, NetDir::Ingress);
        let mut delivered = Vec::new();
        for i in 0..30u64 {
            for f in link.apply(format!("{i}").into_bytes()) {
                delivered.push(String::from_utf8(f).unwrap().parse::<u64>().unwrap());
            }
        }
        let expect: Vec<u64> = (0..10).chain(20..30).collect();
        assert_eq!(delivered, expect);
    }

    #[test]
    fn delayed_frames_stay_ordered_and_drain_on_tick() {
        let cfg = NetemConfig {
            seed: 1,
            delay_per_mille: 1000,
            delay_frames: 3,
            ..NetemConfig::default()
        };
        let mut link = Netem::new(cfg, 0, NetDir::Egress);
        assert!(link.apply(b"a".to_vec()).is_empty(), "frame 0 held");
        assert!(link.apply(b"b".to_vec()).is_empty(), "frame 1 held");
        // Two ticks bring the clock to 4: frame 0 (due at 4) releases.
        assert!(link.tick().is_empty());
        assert_eq!(link.tick(), vec![b"a".to_vec()]);
        assert_eq!(link.tick(), vec![b"b".to_vec()]);
        assert!(link.tick().is_empty());
    }

    #[test]
    fn corruption_changes_exactly_one_byte() {
        let cfg = NetemConfig {
            seed: 5,
            corrupt_per_mille: 1000,
            ..NetemConfig::default()
        };
        let mut link = Netem::new(cfg, 0, NetDir::Ingress);
        let frame = b"{\"ev\":\"hb\",\"seq\":1}".to_vec();
        let out = link.apply(frame.clone());
        assert_eq!(out.len(), 1);
        let diff = frame.iter().zip(&out[0]).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1, "exactly one byte flipped");
        // Empty frames pass through unharmed rather than panicking.
        assert_eq!(link.apply(Vec::new()), vec![Vec::new()]);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let cfg = NetemConfig {
            seed: 5,
            dup_per_mille: 1000,
            ..NetemConfig::default()
        };
        let mut link = Netem::new(cfg, 0, NetDir::Ingress);
        assert_eq!(
            link.apply(b"x".to_vec()),
            vec![b"x".to_vec(), b"x".to_vec()]
        );
    }

    #[test]
    fn from_scenario_extracts_per_stream_config() {
        let s = Scenario::parse(
            "CHS1\nseed 9\nnetdrop 0 25\nnetdelay 0 50 3\nnetdrop 0 30\nnetpart 0 10 20\nnetpart 0 40 50\nnetdup 1 10\n",
        )
        .unwrap();
        let c0 = NetemConfig::from_scenario(&s, 0);
        assert_eq!(c0.seed, 9);
        assert_eq!(c0.drop_per_mille, 30, "later directive wins");
        assert_eq!(c0.delay_per_mille, 50);
        assert_eq!(c0.delay_frames, 3);
        assert_eq!(c0.dup_per_mille, 0, "stream 1 directive not mixed in");
        assert_eq!(c0.partitions, vec![(10, 20), (40, 50)]);
        let c1 = NetemConfig::from_scenario(&s, 1);
        assert_eq!(c1.dup_per_mille, 10);
        assert!(!NetemConfig::from_scenario(&s, 2).is_active());
        assert!(!NetemConfig::from_scenario(&Scenario::empty(), 0).is_active());
    }
}
