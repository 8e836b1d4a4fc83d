//! Memory requests and their completions.

use serde::{Deserialize, Serialize};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequestKind {
    /// Data flows from DRAM to the requester.
    Read,
    /// Data flows from the requester to DRAM.
    Write,
}

/// Which interconnect the data crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Locality {
    /// A normal host access: data crosses the shared channel bus.
    Channel,
    /// A near-memory access issued by a rank-AU: data stays on the
    /// rank's internal interface, so concurrent ranks stream in
    /// parallel and no channel-bus slot is consumed.
    RankLocal,
    /// A broadcast write (§4.2): one channel-bus transfer delivered to
    /// every DIMM on the channel simultaneously. Only meaningful for
    /// writes issued by the host.
    Broadcast,
    /// A point-to-point transfer latched by one DIMM's buffer chip
    /// (evoke payloads, single-consumer feature sends): occupies the
    /// channel bus with normal I/O energy but touches no DRAM bank.
    DirectSend,
}

/// One memory request. Requests larger than the burst size are split
/// into sequential bursts internally.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Physical byte address.
    pub addr: u64,
    /// Transfer size in bytes (at least 1).
    pub bytes: usize,
    /// Read or write.
    pub kind: RequestKind,
    /// Interconnect used by the data.
    pub locality: Locality,
    /// Memory-clock cycle at which the request becomes visible to the
    /// controller.
    pub arrival_cycle: u64,
}

impl Request {
    /// A host read over the channel bus.
    pub fn read(addr: u64, bytes: usize) -> Self {
        Request {
            addr,
            bytes,
            kind: RequestKind::Read,
            locality: Locality::Channel,
            arrival_cycle: 0,
        }
    }

    /// A host write over the channel bus.
    pub fn write(addr: u64, bytes: usize) -> Self {
        Request {
            addr,
            bytes,
            kind: RequestKind::Write,
            locality: Locality::Channel,
            arrival_cycle: 0,
        }
    }

    /// A rank-local (near-memory) read.
    pub fn local_read(addr: u64, bytes: usize) -> Self {
        Request {
            locality: Locality::RankLocal,
            ..Request::read(addr, bytes)
        }
    }

    /// A rank-local (near-memory) write.
    pub fn local_write(addr: u64, bytes: usize) -> Self {
        Request {
            locality: Locality::RankLocal,
            ..Request::write(addr, bytes)
        }
    }

    /// A broadcast write to every DIMM of the target channel.
    pub fn broadcast_write(addr: u64, bytes: usize) -> Self {
        Request {
            locality: Locality::Broadcast,
            ..Request::write(addr, bytes)
        }
    }

    /// A point-to-point buffer-chip send to one DIMM (no bank
    /// activity).
    pub fn direct_send(addr: u64, bytes: usize) -> Self {
        Request {
            locality: Locality::DirectSend,
            ..Request::write(addr, bytes)
        }
    }

    /// Returns a copy arriving at the given cycle.
    pub fn at_cycle(mut self, cycle: u64) -> Self {
        self.arrival_cycle = cycle;
        self
    }
}

/// Identifier of an enqueued request, in enqueue order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub usize);

/// Completion record of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// The request this completes.
    pub id: RequestId,
    /// Cycle the first data beat appeared on the bus.
    pub data_start: u64,
    /// Cycle the last data beat finished (the request's latency
    /// endpoint).
    pub finish: u64,
}

/// Order-independent digest of a set of completions: how many, and the
/// wrapping sum of a 64-bit hash of each `(id, data_start, finish)`.
///
/// Channels retire their bursts in their own order, so the order in
/// which requests complete depends on how the service was split; the
/// sum does not. Two systems that complete the same requests at the
/// same cycles have equal digests, and a digest folded from
/// hand-computed completions checks a system's completions without the
/// system keeping one record per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompletionDigest {
    /// Requests folded in.
    pub count: u64,
    /// Wrapping sum of their hashes.
    pub sum: u64,
}

impl CompletionDigest {
    /// Folds one completion in.
    pub(crate) fn add(&mut self, c: Completion) {
        use faultsim::rng::splitmix64;
        let h = splitmix64(splitmix64(splitmix64(c.id.0 as u64) ^ c.data_start) ^ c.finish);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

impl FromIterator<Completion> for CompletionDigest {
    fn from_iter<I: IntoIterator<Item = Completion>>(iter: I) -> Self {
        let mut digest = CompletionDigest::default();
        for c in iter {
            digest.add(c);
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_locality() {
        assert_eq!(Request::read(0, 64).locality, Locality::Channel);
        assert_eq!(Request::local_read(0, 64).locality, Locality::RankLocal);
        assert_eq!(
            Request::broadcast_write(0, 64).locality,
            Locality::Broadcast
        );
        assert_eq!(Request::local_write(0, 64).kind, RequestKind::Write);
    }

    #[test]
    fn digest_ignores_order_and_sees_every_field() {
        let c = |id, data_start, finish| Completion {
            id: RequestId(id),
            data_start,
            finish,
        };
        let digest: CompletionDigest = [c(0, 32, 36), c(1, 38, 42)].into_iter().collect();
        let reversed: CompletionDigest = [c(1, 38, 42), c(0, 32, 36)].into_iter().collect();
        assert_eq!(digest, reversed);
        assert_eq!(digest.count, 2);
        for other in [[c(0, 32, 36), c(2, 38, 42)], [c(0, 32, 36), c(1, 39, 42)]] {
            assert_ne!(digest, other.into_iter().collect::<CompletionDigest>());
        }
        // Swapping the two cycles is a different completion.
        assert_ne!(
            CompletionDigest::from_iter([c(0, 32, 36)]),
            CompletionDigest::from_iter([c(0, 36, 32)])
        );
    }

    #[test]
    fn at_cycle_sets_arrival() {
        let r = Request::write(64, 64).at_cycle(100);
        assert_eq!(r.arrival_cycle, 100);
    }
}
