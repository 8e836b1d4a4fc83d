//! Data placement: which DIMM/rank owns each vertex, and physical
//! addresses for features, outputs, and aggregation results.
//!
//! §4.4: the virtual memory system "ensures that both features of a
//! vertex and its final output are allocated completely within the same
//! rank", while everything else may land anywhere (the paper assumes
//! OS pages map randomly across ranks). We model that with a
//! deterministic hash placement: every vertex has a *home rank*; its
//! feature vector, its per-instance aggregation results, and its output
//! all live there.

use dramsim::{AddressMapper, DramConfig, Location, Request};
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
const EDGE_REGION: u64 = 7 << 28;

/// Deterministic vertex placement and address generation.
#[derive(Debug, Clone)]
pub struct Placement {
    config: DramConfig,
    mapper: AddressMapper,
    feature_bytes: u64,
}

impl Placement {
    /// Creates a placement for a memory config and a hidden feature
    /// dimension (`f32` elements per vertex).
    pub fn new(config: DramConfig, hidden_dim: usize) -> Self {
        Placement {
            config,
            mapper: AddressMapper::new(config),
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

    /// Physical address of a byte offset within a rank's local space.
    ///
    /// Note that *consecutive rank offsets do not map to consecutive
    /// physical addresses* (the system address map interleaves
    /// channels first), so multi-burst rank-local transfers must be
    /// issued burst by burst through this function — see
    /// [`Placement::rank_vec`].
    fn rank_addr(&self, home: Home, offset: u64) -> u64 {
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
        self.mapper.compose(Location {
            channel: home.channel,
            dimm: home.dimm,
            rank: home.rank,
            bank_group,
            bank,
            row,
            column,
        })
    }

    /// The rank-local requests that move `bytes` from rank offset
    /// `offset`: one 64-byte burst each, in ascending offset order,
    /// every one within the home rank (§4.4). Consecutive physical
    /// addresses would stripe across channels instead.
    pub fn rank_vec(
        &self,
        home: Home,
        offset: u64,
        bytes: usize,
        write: bool,
    ) -> impl Iterator<Item = Request> + '_ {
        (offset..offset + bytes as u64).step_by(64).map(move |off| {
            let addr = self.rank_addr(home, off);
            if write {
                Request::local_write(addr, 64)
            } else {
                Request::local_read(addr, 64)
            }
        })
    }

    /// Address of a vertex's (projected) feature vector, in its home
    /// rank's feature region.
    pub fn feature_addr(&self, ty: u8, id: u32) -> u64 {
        let home = self.home(ty, id);
        self.rank_addr(home, FEATURE_REGION + id as u64 * self.feature_bytes)
    }

    /// Address of the `slot`-th aggregation result allocated on a rank
    /// (the reserved region of Figure 9b; 128 MB per DIMM suffices per
    /// the paper).
    pub fn agg_result_addr(&self, home: Home, slot: u64) -> u64 {
        self.rank_addr(home, AGG_REGION + slot * self.feature_bytes)
    }

    /// Address of a start vertex's output vector (same rank as its
    /// features, per §4.4).
    pub fn output_addr(&self, ty: u8, id: u32) -> u64 {
        let home = self.home(ty, id);
        self.rank_addr(home, OUTPUT_REGION + id as u64 * self.feature_bytes)
    }

    /// Rank-local byte offset of a vertex's feature vector.
    pub fn feature_offset(&self, id: u32) -> u64 {
        FEATURE_REGION + id as u64 * self.feature_bytes
    }

    /// Rank-local byte offset of an aggregation-result slot.
    pub fn agg_offset(&self, slot: u64) -> u64 {
        AGG_REGION + slot * self.feature_bytes
    }

    /// Rank-local byte offset of a start vertex's output vector.
    pub fn output_offset(&self, id: u32) -> u64 {
        OUTPUT_REGION + id as u64 * self.feature_bytes
    }

    /// Address of a vertex's neighbor-list (edge) data; edge data is
    /// spread round-robin like any other OS page.
    pub fn edge_addr(&self, ty: u8, id: u32) -> u64 {
        let home = self.home(ty, id.wrapping_mul(2654435761));
        self.rank_addr(home, EDGE_REGION + id as u64 * 64)
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

    #[test]
    fn feature_addr_maps_to_home_rank() {
        let p = placement();
        let m = AddressMapper::new(*p.config());
        for id in 0..64 {
            let home = p.home(1, id);
            let loc = m.map(p.feature_addr(1, id));
            assert_eq!(loc.channel, home.channel);
            assert_eq!(loc.dimm, home.dimm);
            assert_eq!(loc.rank, home.rank);
        }
    }

    #[test]
    fn output_and_feature_share_rank() {
        let p = placement();
        let m = AddressMapper::new(*p.config());
        for id in 0..32 {
            let f = m.map(p.feature_addr(2, id));
            let o = m.map(p.output_addr(2, id));
            assert_eq!((f.channel, f.dimm, f.rank), (o.channel, o.dimm, o.rank));
        }
    }

    #[test]
    fn regions_do_not_collide() {
        let p = placement();
        // Feature and output addresses of the same vertex must differ.
        for id in 0..32 {
            assert_ne!(p.feature_addr(0, id), p.output_addr(0, id));
        }
    }

    #[test]
    fn agg_slots_are_distinct() {
        let p = placement();
        let home = p.home(0, 1);
        let a = p.agg_result_addr(home, 0);
        let b = p.agg_result_addr(home, 1);
        assert_ne!(a, b);
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
