//! Deterministic chaos-scenario schedules.
//!
//! A [`Scenario`] scripts *correlated* events over simulated time —
//! load spikes, rank stalls and recoveries, reuse-cache flushes, and
//! DIMM fleet shrink/grow — so overload-plus-fault interactions replay
//! byte-identically. The [`FaultInjector`](crate::FaultInjector)
//! answers "is this component broken *right now*?" from memoryless
//! rates; a scenario instead says "at tick 40 000 half the fleet
//! stalls, and 30 000 ticks later it comes back", which is the shape
//! of a real incident (a cache-miss storm after a failover, a burst of
//! traffic during a degraded window).
//!
//! Determinism follows the injector's discipline: optional timing
//! jitter is drawn counter-mode from `(seed, event index)` via
//! [`crate::rng::draw`], so a scenario resolves to exactly one
//! timeline per seed — no RNG state, no host dependence.
//!
//! ## On-disk format (`CHS1`)
//!
//! Line-oriented UTF-8, `#` comments, first non-blank line is the
//! magic:
//!
//! ```text
//! CHS1
//! seed 42
//! jitter 50                 # ± 5.0% timing jitter, counter-mode
//! spike 4096 65536 4.0      # rate ×4 over ticks [4096, 65536)
//! stall 16384 0xff          # global ranks 0–7 stall at tick 16384
//! unstall 49152 0xff        # ... and recover at tick 49152
//! flush 20480               # reuse cache flushed (miss storm)
//! fleet 24576 4             # fleet shrinks to 4 DIMMs
//! fleet 57344 8             # ... and grows back
//! ```
//!
//! ## Network directives
//!
//! Scenarios can also script the *transport* under a distributed sweep
//! (consumed by [`crate::netem`]): per-stream drop/delay/duplicate/
//! corrupt rates and hard partition windows over the frame counter.
//!
//! ```text
//! netdrop 0 25              # stream 0 drops 2.5% of frames
//! netdelay 1 50 3           # stream 1 delays 5% of frames by 3 frames
//! netdup 1 10               # stream 1 duplicates 1% of frames
//! netcorrupt 2 5            # stream 2 flips a byte in 0.5% of frames
//! netpart 0 120 400         # stream 0 black-holes frames [120, 400)
//! ```
//!
//! [`Scenario::parse`] returns a structured [`ScenarioError`] on any
//! malformed input — never a panic — which makes the parser a fuzzing
//! boundary like the trace and HTTP loaders.

use serde::{Deserialize, Serialize};

/// Upper bound on scripted events, so a hostile file cannot balloon
/// the resolved timeline.
pub const MAX_SCENARIO_EVENTS: usize = 4096;

/// Decision stream tag for timing jitter ("CHAO").
const STREAM_SCENARIO: u64 = 0x43_48_41_4F;

/// One scripted event, at its *nominal* (pre-jitter) time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosEvent {
    /// Arrival rate multiplied by `rate_mult` over `[start, end)`.
    Spike {
        /// First tick of the spike window.
        start: u64,
        /// Exclusive end tick of the spike window.
        end: u64,
        /// Rate multiplier (finite, in `(0, 1000]`).
        rate_mult: f64,
    },
    /// The masked global ranks stall permanently at `tick` (until a
    /// later [`ChaosEvent::UnstallRanks`] clears them).
    StallRanks {
        /// Tick the stall begins.
        tick: u64,
        /// Bitmask of global ranks (bit `i` = rank `i`).
        mask: u64,
    },
    /// The masked global ranks recover at `tick`.
    UnstallRanks {
        /// Tick the recovery lands.
        tick: u64,
        /// Bitmask of global ranks (bit `i` = rank `i`).
        mask: u64,
    },
    /// The serving reuse cache is flushed at `tick` (models a
    /// failover-induced miss storm).
    FlushCache {
        /// Tick of the flush.
        tick: u64,
    },
    /// The active DIMM fleet resizes to `dimms` at `tick` (shrink or
    /// grow; clamped to the simulated system's DIMM count by the
    /// consumer).
    FleetDimms {
        /// Tick of the resize.
        tick: u64,
        /// New active-DIMM count (≥ 1).
        dimms: u32,
    },
}

/// One scripted network-fault directive, addressed to a transport
/// stream (a link id assigned by the consumer — sweepd numbers remote
/// worker registrations 0, 1, 2, …). Rates are per-mille of frames;
/// partition windows are half-open `[start, end)` intervals over the
/// per-direction frame counter. Consumed via
/// [`crate::netem::NetemConfig::from_scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetDirective {
    /// Drop `per_mille`/1000 of frames on `stream`.
    Drop {
        /// Target stream (link id).
        stream: u64,
        /// Drop rate in per-mille (≤ 1000).
        per_mille: u16,
    },
    /// Delay `per_mille`/1000 of frames on `stream` by `frames`
    /// subsequent frame slots.
    Delay {
        /// Target stream (link id).
        stream: u64,
        /// Delay rate in per-mille (≤ 1000).
        per_mille: u16,
        /// How many frame slots a delayed frame is held (≥ 1).
        frames: u32,
    },
    /// Duplicate `per_mille`/1000 of frames on `stream`.
    Duplicate {
        /// Target stream (link id).
        stream: u64,
        /// Duplication rate in per-mille (≤ 1000).
        per_mille: u16,
    },
    /// Corrupt (flip one byte of) `per_mille`/1000 of frames on
    /// `stream`.
    Corrupt {
        /// Target stream (link id).
        stream: u64,
        /// Corruption rate in per-mille (≤ 1000).
        per_mille: u16,
    },
    /// Black-hole every frame of `stream` whose per-direction frame
    /// index falls in `[start, end)` — a hard partition window.
    Partition {
        /// Target stream (link id).
        stream: u64,
        /// First dropped frame index.
        start: u64,
        /// Exclusive end of the window.
        end: u64,
    },
}

/// A resolved (post-jitter) load-spike window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpikeWindow {
    /// First tick of the window.
    pub start: u64,
    /// Exclusive end tick.
    pub end: u64,
    /// Arrival-rate multiplier inside the window.
    pub rate_mult: f64,
}

/// A resolved non-spike effect on the deterministic timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TimelineEffect {
    /// Set the masked global ranks stalled.
    StallRanks(u64),
    /// Clear the masked global ranks.
    UnstallRanks(u64),
    /// Flush the reuse cache.
    FlushCache,
    /// Resize the active fleet.
    FleetDimms(u32),
}

/// A deterministic chaos-scenario schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed of the jitter stream (irrelevant when `jitter_per_mille`
    /// is 0, but still part of the scenario identity).
    pub seed: u64,
    /// Timing jitter amplitude in per-mille of each nominal tick
    /// (0 = exact script, 50 = ±5%). Saturates at 1000.
    pub jitter_per_mille: u16,
    /// Scripted events in file order.
    pub events: Vec<ChaosEvent>,
    /// Scripted network-fault directives in file order (see
    /// [`NetDirective`]); counted against [`MAX_SCENARIO_EVENTS`]
    /// together with `events`.
    pub net: Vec<NetDirective>,
}

/// Structured parse/validation failure of a scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The input is not UTF-8.
    NotUtf8,
    /// The first non-blank line is not the `CHS1` magic.
    BadMagic,
    /// A line failed to parse or validate; carries the 1-based line
    /// number and a human-readable reason.
    Line {
        /// 1-based line number in the input.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// More than [`MAX_SCENARIO_EVENTS`] events.
    TooManyEvents(usize),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NotUtf8 => write!(f, "scenario: input is not valid UTF-8"),
            ScenarioError::BadMagic => write!(f, "scenario: missing CHS1 magic line"),
            ScenarioError::Line { line, msg } => write!(f, "scenario line {line}: {msg}"),
            ScenarioError::TooManyEvents(n) => write!(
                f,
                "scenario: {n} events exceeds the cap of {MAX_SCENARIO_EVENTS}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn parse_u64(tok: &str) -> Option<u64> {
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        tok.parse().ok()
    }
}

impl Scenario {
    /// An empty scenario: no events, no jitter — a no-op schedule.
    pub fn empty() -> Scenario {
        Scenario {
            seed: 0,
            jitter_per_mille: 0,
            events: Vec::new(),
            net: Vec::new(),
        }
    }

    /// Parses raw bytes (UTF-8 `CHS1` text).
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] naming the offending line; never panics on
    /// hostile input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Scenario, ScenarioError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ScenarioError::NotUtf8)?;
        Scenario::parse(text)
    }

    /// Parses `CHS1` scenario text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] naming the offending line; never panics on
    /// hostile input.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let mut lines = text.lines().enumerate();
        // The magic is the first line that is neither blank nor comment.
        let magic_ok = loop {
            match lines.next() {
                Some((_, l)) => {
                    let l = l.trim();
                    if l.is_empty() || l.starts_with('#') {
                        continue;
                    }
                    break l == "CHS1";
                }
                None => break false,
            }
        };
        if !magic_ok {
            return Err(ScenarioError::BadMagic);
        }

        let err = |line: usize, msg: String| ScenarioError::Line {
            line: line + 1,
            msg,
        };
        let mut scenario = Scenario::empty();
        for (n, raw) in lines {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut toks = line.split_whitespace();
            let verb = toks.next().unwrap_or("");
            let args: Vec<&str> = toks.collect();
            let want = |count: usize| -> Result<(), ScenarioError> {
                if args.len() == count {
                    Ok(())
                } else {
                    Err(err(
                        n,
                        format!("`{verb}` takes {count} argument(s), got {}", args.len()),
                    ))
                }
            };
            let uint = |i: usize| -> Result<u64, ScenarioError> {
                parse_u64(args[i])
                    .ok_or_else(|| err(n, format!("`{}` is not an unsigned integer", args[i])))
            };
            match verb {
                "seed" => {
                    want(1)?;
                    scenario.seed = uint(0)?;
                }
                "jitter" => {
                    want(1)?;
                    let j = uint(0)?;
                    if j > 1000 {
                        return Err(err(n, format!("jitter {j} exceeds 1000 per-mille")));
                    }
                    scenario.jitter_per_mille = j as u16;
                }
                "spike" => {
                    want(3)?;
                    let start = uint(0)?;
                    let end = uint(1)?;
                    let rate_mult: f64 = args[2]
                        .parse()
                        .map_err(|_| err(n, format!("`{}` is not a number", args[2])))?;
                    if end <= start {
                        return Err(err(n, format!("spike window [{start}, {end}) is empty")));
                    }
                    if !rate_mult.is_finite() || rate_mult <= 0.0 || rate_mult > 1000.0 {
                        return Err(err(
                            n,
                            format!(
                                "spike multiplier must be finite in (0, 1000], got {rate_mult}"
                            ),
                        ));
                    }
                    scenario.events.push(ChaosEvent::Spike {
                        start,
                        end,
                        rate_mult,
                    });
                }
                "stall" | "unstall" => {
                    want(2)?;
                    let tick = uint(0)?;
                    let mask = uint(1)?;
                    if mask == 0 {
                        return Err(err(n, format!("`{verb}` mask must be non-zero")));
                    }
                    scenario.events.push(if verb == "stall" {
                        ChaosEvent::StallRanks { tick, mask }
                    } else {
                        ChaosEvent::UnstallRanks { tick, mask }
                    });
                }
                "flush" => {
                    want(1)?;
                    let tick = uint(0)?;
                    scenario.events.push(ChaosEvent::FlushCache { tick });
                }
                "fleet" => {
                    want(2)?;
                    let tick = uint(0)?;
                    let dimms = uint(1)?;
                    if dimms == 0 {
                        return Err(err(n, "fleet size must be at least 1 DIMM".into()));
                    }
                    let dimms = u32::try_from(dimms)
                        .map_err(|_| err(n, format!("fleet size {dimms} exceeds u32")))?;
                    scenario.events.push(ChaosEvent::FleetDimms { tick, dimms });
                }
                "netdrop" | "netdup" | "netcorrupt" => {
                    want(2)?;
                    let stream = uint(0)?;
                    let pm = uint(1)?;
                    if pm > 1000 {
                        return Err(err(n, format!("`{verb}` rate {pm} exceeds 1000 per-mille")));
                    }
                    let per_mille = pm as u16;
                    scenario.net.push(match verb {
                        "netdrop" => NetDirective::Drop { stream, per_mille },
                        "netdup" => NetDirective::Duplicate { stream, per_mille },
                        _ => NetDirective::Corrupt { stream, per_mille },
                    });
                }
                "netdelay" => {
                    want(3)?;
                    let stream = uint(0)?;
                    let pm = uint(1)?;
                    if pm > 1000 {
                        return Err(err(n, format!("netdelay rate {pm} exceeds 1000 per-mille")));
                    }
                    let frames = uint(2)?;
                    if frames == 0 {
                        return Err(err(n, "netdelay depth must be at least 1 frame".into()));
                    }
                    let frames = u32::try_from(frames)
                        .map_err(|_| err(n, format!("netdelay depth {frames} exceeds u32")))?;
                    scenario.net.push(NetDirective::Delay {
                        stream,
                        per_mille: pm as u16,
                        frames,
                    });
                }
                "netpart" => {
                    want(3)?;
                    let stream = uint(0)?;
                    let start = uint(1)?;
                    let end = uint(2)?;
                    if end <= start {
                        return Err(err(n, format!("netpart window [{start}, {end}) is empty")));
                    }
                    scenario
                        .net
                        .push(NetDirective::Partition { stream, start, end });
                }
                other => {
                    return Err(err(n, format!("unknown directive `{other}`")));
                }
            }
            let total = scenario.events.len() + scenario.net.len();
            if total > MAX_SCENARIO_EVENTS {
                return Err(ScenarioError::TooManyEvents(total));
            }
        }
        Ok(scenario)
    }

    /// Whether the scenario scripts anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.net.is_empty()
    }

    /// Applies the counter-mode jitter draw `index` to nominal `tick`.
    fn jittered(&self, tick: u64, index: u64) -> u64 {
        if self.jitter_per_mille == 0 {
            return tick;
        }
        let amp = u64::from(self.jitter_per_mille.min(1000));
        let draw = crate::rng::draw(self.seed, STREAM_SCENARIO, index);
        let span = 2 * amp + 1;
        let offset = (draw % span) as i64 - amp as i64;
        let shifted = (tick as i128) * (1000 + i128::from(offset)) / 1000;
        shifted.clamp(0, u64::MAX as i128) as u64
    }

    /// The resolved (post-jitter) load-spike windows, in script order.
    pub fn spike_windows(&self) -> Vec<SpikeWindow> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match *e {
                ChaosEvent::Spike {
                    start,
                    end,
                    rate_mult,
                } => {
                    let start = self.jittered(start, 2 * i as u64);
                    let end = self.jittered(end, 2 * i as u64 + 1).max(start + 1);
                    Some(SpikeWindow {
                        start,
                        end,
                        rate_mult,
                    })
                }
                _ => None,
            })
            .collect()
    }

    /// The arrival-rate multiplier in force at `tick` (product of all
    /// overlapping spike windows; 1.0 outside every window).
    pub fn rate_mult_at(&self, tick: u64) -> f64 {
        let mut mult = 1.0;
        for w in self.spike_windows() {
            if tick >= w.start && tick < w.end {
                mult *= w.rate_mult;
            }
        }
        mult
    }

    /// The resolved non-spike timeline, sorted by `(tick, script
    /// order)` — the deterministic application order.
    pub fn timeline(&self) -> Vec<(u64, TimelineEffect)> {
        let mut out: Vec<(u64, usize, TimelineEffect)> = self
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let resolved = match *e {
                    ChaosEvent::Spike { .. } => return None,
                    ChaosEvent::StallRanks { tick, mask } => (
                        self.jittered(tick, 2 * i as u64),
                        TimelineEffect::StallRanks(mask),
                    ),
                    ChaosEvent::UnstallRanks { tick, mask } => (
                        self.jittered(tick, 2 * i as u64),
                        TimelineEffect::UnstallRanks(mask),
                    ),
                    ChaosEvent::FlushCache { tick } => (
                        self.jittered(tick, 2 * i as u64),
                        TimelineEffect::FlushCache,
                    ),
                    ChaosEvent::FleetDimms { tick, dimms } => (
                        self.jittered(tick, 2 * i as u64),
                        TimelineEffect::FleetDimms(dimms),
                    ),
                };
                Some((resolved.0, i, resolved.1))
            })
            .collect();
        out.sort_by_key(|&(tick, idx, _)| (tick, idx));
        out.into_iter().map(|(tick, _, e)| (tick, e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "\
# demo scenario
CHS1
seed 42
spike 4096 65536 4.0
stall 16384 0xff
unstall 49152 0xff
flush 20480
fleet 24576 4
fleet 57344 8
";

    #[test]
    fn parses_the_reference_script() {
        let s = Scenario::parse(SCRIPT).unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.jitter_per_mille, 0);
        assert_eq!(s.events.len(), 6);
        assert_eq!(s.spike_windows().len(), 1);
        let tl = s.timeline();
        assert_eq!(tl.len(), 5);
        assert!(tl.windows(2).all(|w| w[0].0 <= w[1].0), "timeline sorted");
        assert_eq!(tl[0], (16384, TimelineEffect::StallRanks(0xff)));
        assert_eq!(s.rate_mult_at(4096), 4.0);
        assert_eq!(s.rate_mult_at(65536), 1.0);
        assert_eq!(s.rate_mult_at(0), 1.0);
    }

    #[test]
    fn parse_is_deterministic_and_jitter_is_seeded() {
        let jittered = "CHS1\nseed 7\njitter 100\nstall 10000 0x3\nflush 20000\n";
        let a = Scenario::parse(jittered).unwrap();
        let b = Scenario::parse(jittered).unwrap();
        assert_eq!(a.timeline(), b.timeline(), "same seed, same timeline");
        let mut c = a.clone();
        c.seed = 8;
        assert_ne!(a.timeline(), c.timeline(), "different seeds shift events");
        // Jitter stays within ±10% of the nominal tick.
        for (resolved, nominal) in a.timeline().iter().map(|&(t, _)| t).zip([10000u64, 20000]) {
            let lo = nominal - nominal / 10;
            let hi = nominal + nominal / 10;
            assert!(
                resolved >= lo && resolved <= hi,
                "{resolved} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(Scenario::parse("").unwrap_err(), ScenarioError::BadMagic);
        assert_eq!(
            Scenario::parse("NOPE\n").unwrap_err(),
            ScenarioError::BadMagic
        );
        assert!(Scenario::from_bytes(&[0xFF, 0xFE]).is_err());
        for bad in [
            "CHS1\nwarp 9\n",             // unknown directive
            "CHS1\nspike 5 5 2.0\n",      // empty window
            "CHS1\nspike 5 10 -1.0\n",    // negative multiplier
            "CHS1\nspike 5 10 inf\n",     // non-finite multiplier
            "CHS1\nspike 5 10\n",         // arity
            "CHS1\nstall 5 0\n",          // zero mask
            "CHS1\nfleet 5 0\n",          // zero fleet
            "CHS1\nfleet 5 5000000000\n", // fleet > u32
            "CHS1\njitter 2000\n",        // jitter > 1000
            "CHS1\nstall five 0x1\n",     // non-numeric tick
            "CHS1\nseed -3\n",            // negative seed
        ] {
            let e = Scenario::parse(bad).unwrap_err();
            assert!(
                matches!(e, ScenarioError::Line { .. }),
                "{bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn event_cap_is_enforced() {
        let mut s = String::from("CHS1\n");
        for i in 0..=MAX_SCENARIO_EVENTS {
            s.push_str(&format!("flush {i}\n"));
        }
        assert!(matches!(
            Scenario::parse(&s).unwrap_err(),
            ScenarioError::TooManyEvents(_)
        ));
    }

    #[test]
    fn comments_blank_lines_and_hex_masks() {
        let s = Scenario::parse("CHS1\n\n# hi\nstall 10 0xFF # trailing\n").unwrap();
        assert_eq!(
            s.events,
            vec![ChaosEvent::StallRanks {
                tick: 10,
                mask: 0xFF
            }]
        );
    }

    #[test]
    fn net_directives_parse_and_validate() {
        let s = Scenario::parse(
            "CHS1\nseed 9\nnetdrop 0 25\nnetdelay 1 50 3\nnetdup 1 10\nnetcorrupt 2 5\nnetpart 0 120 400\n",
        )
        .unwrap();
        assert_eq!(s.events.len(), 0);
        assert_eq!(
            s.net,
            vec![
                NetDirective::Drop {
                    stream: 0,
                    per_mille: 25
                },
                NetDirective::Delay {
                    stream: 1,
                    per_mille: 50,
                    frames: 3
                },
                NetDirective::Duplicate {
                    stream: 1,
                    per_mille: 10
                },
                NetDirective::Corrupt {
                    stream: 2,
                    per_mille: 5
                },
                NetDirective::Partition {
                    stream: 0,
                    start: 120,
                    end: 400
                },
            ]
        );
        assert!(!s.is_empty(), "net-only scenarios are not empty");
        for bad in [
            "CHS1\nnetdrop 0 1001\n",    // rate > 1000
            "CHS1\nnetdrop 0\n",         // arity
            "CHS1\nnetdelay 0 10 0\n",   // zero depth
            "CHS1\nnetdelay 0 2000 1\n", // rate > 1000
            "CHS1\nnetpart 0 10 10\n",   // empty window
            "CHS1\nnetpart 0 10 5\n",    // inverted window
            "CHS1\nnetcorrupt zero 1\n", // non-numeric stream
        ] {
            let e = Scenario::parse(bad).unwrap_err();
            assert!(
                matches!(e, ScenarioError::Line { .. }),
                "{bad:?} gave {e:?}"
            );
        }
    }

    #[test]
    fn net_directives_count_against_the_event_cap() {
        let mut s = String::from("CHS1\n");
        for i in 0..MAX_SCENARIO_EVENTS / 2 {
            s.push_str(&format!("flush {i}\n"));
        }
        for _ in 0..=MAX_SCENARIO_EVENTS / 2 {
            s.push_str("netdrop 0 1\n");
        }
        assert!(matches!(
            Scenario::parse(&s).unwrap_err(),
            ScenarioError::TooManyEvents(_)
        ));
    }

    #[test]
    fn overlapping_spikes_compound() {
        let s = Scenario::parse("CHS1\nspike 0 100 2.0\nspike 50 150 3.0\n").unwrap();
        assert_eq!(s.rate_mult_at(25), 2.0);
        assert_eq!(s.rate_mult_at(75), 6.0);
        assert_eq!(s.rate_mult_at(125), 3.0);
    }
}
