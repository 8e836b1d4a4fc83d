//! Physical-address decomposition into the DRAM hierarchy.
//!
//! The mapper uses a channel-interleaved scheme (burst blocks stripe
//! across channels first, then columns, banks, bank groups, ranks,
//! DIMMs, rows), which spreads sequential traffic across the whole
//! system — the mapping the paper assumes when it notes that "feature
//! and edge data may be mapped randomly to different ranks by the OS".

use serde::{Deserialize, Serialize};

use crate::config::DramConfig;

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Channel index.
    pub channel: usize,
    /// DIMM index within the channel.
    pub dimm: usize,
    /// Rank index within the DIMM.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row index.
    pub row: u64,
    /// Column (burst block) index within the row.
    pub column: usize,
}

impl Location {
    /// Flat rank index across the whole system.
    #[inline]
    pub fn global_rank(&self, config: &DramConfig) -> usize {
        ((self.channel * config.dimms_per_channel) + self.dimm) * config.ranks_per_dimm + self.rank
    }

    /// Flat DIMM index across the whole system.
    #[inline]
    pub fn global_dimm(&self, config: &DramConfig) -> usize {
        self.channel * config.dimms_per_channel + self.dimm
    }

    /// Flat bank index within the rank.
    #[inline]
    pub fn bank_in_rank(&self, config: &DramConfig) -> usize {
        self.bank_group * config.banks_per_group + self.bank
    }
}

/// Maps physical byte addresses to [`Location`]s.
#[derive(Debug, Clone, Copy)]
pub struct AddressMapper {
    config: DramConfig,
    /// Burst blocks per row.
    cols_per_row: u64,
    /// Rows below the one holding the highest address, so that every
    /// burst of one has an address.
    row_limit: u64,
}

impl AddressMapper {
    /// Creates a mapper for a configuration.
    pub fn new(config: DramConfig) -> Self {
        let c = &config;
        let cols_per_row = (c.row_bytes / c.burst_bytes.max(1)) as u64;
        // Bytes from one row index to the next.
        let row_stride = [
            c.burst_bytes,
            c.channels,
            c.bank_groups,
            c.banks_per_group,
            c.ranks_per_dimm,
            c.dimms_per_channel,
        ]
        .into_iter()
        .fold(u128::from(cols_per_row), |bytes, n| {
            bytes.saturating_mul(n as u128)
        });
        AddressMapper {
            config,
            cols_per_row,
            row_limit: (u128::from(u64::MAX) / row_stride.max(1)) as u64,
        }
    }

    /// `true` if `loc` names a burst of this topology: every coordinate
    /// below its count, and a row whose every burst
    /// [`AddressMapper::compose`] can give an address (any row below the
    /// one holding the highest address).
    #[inline]
    pub(crate) fn contains(&self, loc: &Location) -> bool {
        let c = &self.config;
        loc.channel < c.channels
            && loc.dimm < c.dimms_per_channel
            && loc.rank < c.ranks_per_dimm
            && loc.bank_group < c.bank_groups
            && loc.bank < c.banks_per_group
            && (loc.column as u64) < self.cols_per_row
            && loc.row < self.row_limit
    }

    /// Decodes a physical byte address.
    #[inline]
    pub fn map(&self, addr: u64) -> Location {
        let c = &self.config;
        let mut blk = addr / c.burst_bytes as u64;
        let channel = (blk % c.channels as u64) as usize;
        blk /= c.channels as u64;
        let column = (blk % self.cols_per_row) as usize;
        blk /= self.cols_per_row;
        let bank = (blk % c.banks_per_group as u64) as usize;
        blk /= c.banks_per_group as u64;
        let bank_group = (blk % c.bank_groups as u64) as usize;
        blk /= c.bank_groups as u64;
        let rank = (blk % c.ranks_per_dimm as u64) as usize;
        blk /= c.ranks_per_dimm as u64;
        let dimm = (blk % c.dimms_per_channel as u64) as usize;
        blk /= c.dimms_per_channel as u64;
        Location {
            channel,
            dimm,
            rank,
            bank_group,
            bank,
            row: blk,
            column,
        }
    }

    /// Composes an address that decodes to the given coordinates
    /// (inverse of [`AddressMapper::map`]).
    #[inline]
    pub fn compose(&self, loc: Location) -> u64 {
        let c = &self.config;
        let mut blk = loc.row;
        blk = blk * c.dimms_per_channel as u64 + loc.dimm as u64;
        blk = blk * c.ranks_per_dimm as u64 + loc.rank as u64;
        blk = blk * c.bank_groups as u64 + loc.bank_group as u64;
        blk = blk * c.banks_per_group as u64 + loc.bank as u64;
        blk = blk * self.cols_per_row + loc.column as u64;
        blk = blk * c.channels as u64 + loc.channel as u64;
        blk * c.burst_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_bursts_stripe_channels() {
        let m = AddressMapper::new(DramConfig::default());
        let locs: Vec<_> = (0..4u64).map(|i| m.map(i * 64)).collect();
        let channels: Vec<_> = locs.iter().map(|l| l.channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn same_burst_same_location() {
        let m = AddressMapper::new(DramConfig::default());
        assert_eq!(m.map(0), m.map(63));
        assert_ne!(m.map(0), m.map(64));
    }

    #[test]
    fn map_compose_roundtrip() {
        let cfg = DramConfig::default();
        let m = AddressMapper::new(cfg);
        for addr in (0..(1u64 << 24)).step_by(64 * 131 + 64) {
            let loc = m.map(addr);
            let addr2 = m.compose(loc);
            assert_eq!(m.map(addr2), loc);
            assert_eq!(addr2, addr / 64 * 64);
        }
    }

    #[test]
    fn global_indices() {
        let cfg = DramConfig::default();
        let m = AddressMapper::new(cfg);
        let loc = Location {
            channel: 3,
            dimm: 1,
            rank: 1,
            bank_group: 0,
            bank: 0,
            row: 0,
            column: 0,
        };
        assert_eq!(loc.global_rank(&cfg), ((3 * 2) + 1) * 2 + 1);
        assert_eq!(loc.global_dimm(&cfg), 7);
        let addr = m.compose(loc);
        assert_eq!(m.map(addr), loc);
    }

    #[test]
    fn bank_in_rank_is_dense() {
        let cfg = DramConfig::default();
        let loc = Location {
            channel: 0,
            dimm: 0,
            rank: 0,
            bank_group: 2,
            bank: 3,
            row: 0,
            column: 0,
        };
        assert_eq!(loc.bank_in_rank(&cfg), 2 * 4 + 3);
    }
}
