//! Data placement: which DIMM/rank owns each vertex, and the DRAM
//! locations of its features, outputs, and aggregation results.
//!
//! §4.4: the virtual memory system "ensures that both features of a
//! vertex and its final output are allocated completely within the same
//! rank", while everything else may land anywhere (the paper assumes
//! OS pages map randomly across ranks). We model that with a
//! deterministic hash placement: every vertex has a *home rank*; its
//! feature vector, its per-instance aggregation results, and its output
//! all live there.

use dramsim::{DramConfig, Location};
use serde::{Deserialize, Serialize};

/// A home location for a vertex: channel / DIMM / rank coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Home {
    /// Channel index.
    pub channel: usize,
    /// DIMM within the channel.
    pub dimm: usize,
    /// Rank within the DIMM.
    pub rank: usize,
}

impl Home {
    /// Flat DIMM index across the system.
    pub fn global_dimm(&self, config: &DramConfig) -> usize {
        self.channel * config.dimms_per_channel + self.dimm
    }

    /// Flat rank index across the system.
    pub fn global_rank(&self, config: &DramConfig) -> usize {
        self.global_dimm(config) * config.ranks_per_dimm + self.rank
    }
}

/// Byte regions within a rank's local address space.
const FEATURE_REGION: u64 = 0;
const AGG_REGION: u64 = 1 << 30;
const OUTPUT_REGION: u64 = 3 << 29;

/// Deterministic vertex placement and rank-local burst locations.
#[derive(Debug, Clone)]
pub struct Placement {
    config: DramConfig,
    feature_bytes: u64,
}

impl Placement {
    /// Creates a placement for a memory config and a hidden feature
    /// dimension (`f32` elements per vertex).
    pub fn new(config: DramConfig, hidden_dim: usize) -> Self {
        Placement {
            config,
            feature_bytes: (hidden_dim * 4) as u64,
        }
    }

    /// Bytes per feature vector.
    pub fn feature_bytes(&self) -> u64 {
        self.feature_bytes
    }

    /// The home of a vertex, by multiplicative hash over (type, id).
    pub fn home(&self, ty: u8, id: u32) -> Home {
        let h = ((id as u64) | ((ty as u64) << 40))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        let dimms = self.config.total_dimms() as u64;
        let ranks = self.config.ranks_per_dimm as u64;
        let global_dimm = (h % dimms) as usize;
        let rank = ((h / dimms) % ranks) as usize;
        Home {
            channel: global_dimm / self.config.dimms_per_channel,
            dimm: global_dimm % self.config.dimms_per_channel,
            rank,
        }
    }

    /// The DRAM location of the burst holding byte `offset` of a
    /// rank's local space.
    ///
    /// Rank offsets are laid out within the rank, not through the
    /// system address map, which interleaves channels first: there,
    /// consecutive physical addresses would leave the rank.
    pub(crate) fn rank_location(&self, home: Home, offset: u64) -> Location {
        let c = &self.config;
        let burst = c.burst_bytes as u64;
        let cols_per_row = (c.row_bytes / c.burst_bytes) as u64;
        let blk = offset / burst;
        // Interleave bank groups below columns so consecutive bursts
        // of a vector rotate bank groups (tCCD_S spacing) instead of
        // hammering one group (tCCD_L) — standard controller policy
        // for streaming regions.
        let bank_group = (blk % c.bank_groups as u64) as usize;
        let rest = blk / c.bank_groups as u64;
        let bank = (rest % c.banks_per_group as u64) as usize;
        let rest = rest / c.banks_per_group as u64;
        let column = (rest % cols_per_row) as usize;
        let row = rest / cols_per_row;
        Location {
            channel: home.channel,
            dimm: home.dimm,
            rank: home.rank,
            bank_group,
            bank,
            row,
            column,
        }
    }

    /// The locations of the bursts that move `bytes` from rank offset
    /// `offset`: one per burst, in ascending offset order, every one
    /// within the home rank (§4.4). They enter the DRAM model through
    /// [`dramsim::MemorySystem::enqueue_burst`] with no address.
    pub fn rank_vec(
        &self,
        home: Home,
        offset: u64,
        bytes: usize,
    ) -> impl Iterator<Item = Location> + '_ {
        (offset..offset + bytes as u64)
            .step_by(self.config.burst_bytes)
            .map(move |off| self.rank_location(home, off))
    }

    /// Rank-local byte offset of a vertex's feature vector.
    pub fn feature_offset(&self, id: u32) -> u64 {
        FEATURE_REGION + id as u64 * self.feature_bytes
    }

    /// Rank-local byte offset of an aggregation-result slot (the
    /// reserved region of Figure 9b; 128 MB per DIMM suffices per the
    /// paper).
    pub fn agg_offset(&self, slot: u64) -> u64 {
        AGG_REGION + slot * self.feature_bytes
    }

    /// Rank-local byte offset of a start vertex's output vector (in the
    /// same rank as its features, per §4.4).
    pub fn output_offset(&self, id: u32) -> u64 {
        OUTPUT_REGION + id as u64 * self.feature_bytes
    }

    /// The memory configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement() -> Placement {
        Placement::new(DramConfig::default(), 64)
    }

    #[test]
    fn home_is_deterministic_and_spread() {
        let p = placement();
        let homes: Vec<Home> = (0..256).map(|i| p.home(0, i)).collect();
        assert_eq!(homes, (0..256).map(|i| p.home(0, i)).collect::<Vec<_>>());
        // Spread: every DIMM should own some vertices.
        let mut seen = std::collections::HashSet::new();
        for h in &homes {
            seen.insert(h.global_dimm(p.config()));
        }
        assert_eq!(seen.len(), p.config().total_dimms());
    }

    /// The bursts of one vector at `offset` in `home`'s rank.
    fn vector(p: &Placement, home: Home, offset: u64) -> Vec<Location> {
        p.rank_vec(home, offset, p.feature_bytes() as usize)
            .collect()
    }

    #[test]
    fn feature_addr_maps_to_home_rank() {
        let p = placement();
        for id in 0..64 {
            let home = p.home(1, id);
            let bursts = vector(&p, home, p.feature_offset(id));
            assert_eq!(bursts.len(), 4, "256 B in 64-B bursts");
            for loc in bursts {
                assert_eq!(loc.channel, home.channel);
                assert_eq!(loc.dimm, home.dimm);
                assert_eq!(loc.rank, home.rank);
            }
        }
    }

    #[test]
    fn output_and_feature_share_rank() {
        let p = placement();
        for id in 0..32 {
            let home = p.home(2, id);
            let features = vector(&p, home, p.feature_offset(id));
            let outputs = vector(&p, home, p.output_offset(id));
            for (f, o) in features.iter().zip(&outputs) {
                assert_eq!((f.channel, f.dimm, f.rank), (o.channel, o.dimm, o.rank));
            }
        }
    }

    #[test]
    fn regions_do_not_collide() {
        let p = placement();
        // Feature and output bursts of the same vertex must differ.
        for id in 0..32 {
            let home = p.home(0, id);
            let outputs = vector(&p, home, p.output_offset(id));
            for f in vector(&p, home, p.feature_offset(id)) {
                assert!(!outputs.contains(&f), "{f:?}");
            }
        }
    }

    #[test]
    fn agg_slots_are_distinct() {
        let p = placement();
        let home = p.home(0, 1);
        let a = vector(&p, home, p.agg_offset(0));
        for b in vector(&p, home, p.agg_offset(1)) {
            assert!(!a.contains(&b), "{b:?}");
        }
    }

    /// The address the placement composed for a rank offset before
    /// bursts entered the DRAM model located: the same coordinates,
    /// composed through the system address map.
    fn composed_addr(config: &DramConfig, home: Home, offset: u64) -> u64 {
        let c = config;
        let cols_per_row = (c.row_bytes / c.burst_bytes) as u64;
        let blk = offset / c.burst_bytes as u64;
        let bank_group = (blk % c.bank_groups as u64) as usize;
        let rest = blk / c.bank_groups as u64;
        let bank = (rest % c.banks_per_group as u64) as usize;
        let rest = rest / c.banks_per_group as u64;
        dramsim::AddressMapper::new(*config).compose(Location {
            channel: home.channel,
            dimm: home.dimm,
            rank: home.rank,
            bank_group,
            bank,
            row: rest / cols_per_row,
            column: (rest % cols_per_row) as usize,
        })
    }

    /// Every burst `rank_vec` yields is the location the DRAM model
    /// decoded from the composed address it replaces, burst for burst,
    /// across the feature, aggregation and output regions of every
    /// geometry the figures run: the default, Fig. 16's single- and
    /// multi-channel DIMM counts, Fig. 17's ranks per DIMM, and a
    /// topology with no power-of-two channel, DIMM or bank-group count.
    #[test]
    fn rank_vec_matches_the_composed_address_map() {
        let base = DramConfig::default();
        let mut configs = vec![base];
        for dimms in [2usize, 4, 8, 16, 32, 64] {
            for (channels, dimms_per_channel) in [(1, dimms), (dimms / 2, 2)] {
                configs.push(DramConfig {
                    channels,
                    dimms_per_channel,
                    ..base
                });
            }
        }
        for ranks_per_dimm in [1, 2, 4] {
            configs.push(DramConfig {
                ranks_per_dimm,
                ..base
            });
        }
        configs.push(DramConfig {
            channels: 3,
            dimms_per_channel: 3,
            bank_groups: 3,
            ..base
        });
        for config in configs {
            let mapper = dramsim::AddressMapper::new(config);
            let p = Placement::new(config, 64);
            let bytes = 5 * p.feature_bytes() as usize;
            for id in (0..4000u32).step_by(37) {
                let home = p.home((id % 3) as u8, id);
                let slot = u64::from(id) * 13;
                for offset in [
                    p.feature_offset(id),
                    p.agg_offset(slot),
                    p.output_offset(id),
                ] {
                    let located: Vec<Location> = p.rank_vec(home, offset, bytes).collect();
                    let decoded: Vec<Location> = (offset..offset + bytes as u64)
                        .step_by(64)
                        .map(|off| mapper.map(composed_addr(&config, home, off)))
                        .collect();
                    assert_eq!(located, decoded, "{config:?} {home:?} offset {offset}");
                }
            }
        }
    }

    #[test]
    fn different_types_hash_differently() {
        let p = placement();
        let same = (0..128).filter(|&i| p.home(0, i) == p.home(1, i)).count();
        assert!(
            same < 64,
            "type should influence placement ({same} collisions)"
        );
    }
}
