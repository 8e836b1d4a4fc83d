//! Counter-mode randomness shared by every seeded decision stream in
//! the stack.
//!
//! A draw is a pure function of `(seed, key, index)` — no RNG state, no
//! host dependence — so each stream replays from the seed alone and is
//! independent of how often the others are consulted. The fault
//! injector, chaos-scenario jitter, network emulation, retry backoff
//! and the serving simulator's arrival streams all draw through here.

/// splitmix64 finalizer: a high-quality 64-bit mix.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th draw of the stream `key` under `seed`.
#[inline]
pub fn draw(seed: u64, key: u64, index: u64) -> u64 {
    splitmix64(
        seed.wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(splitmix64(key))
            .wrapping_add(index.wrapping_mul(0x9FB2_1C65_1E98_DF25)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backoff, Fate, FaultConfig, FaultInjector, NetDir, NetemConfig, Scenario};

    // Golden vectors. Journaled sweeps, checkpoints and committed
    // artifacts replay only while every stream draws exactly these
    // values, so a change to the constants or to how a caller keys its
    // stream must fail here.

    #[test]
    fn mixer_and_draw_golden_vectors() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        assert_eq!(draw(0, 0, 0), 0xa706_dd2f_4d19_7e6f);
        assert_eq!(draw(7, 0x41_52_52_56, 0), 0x8d39_c445_d559_4f7f);
        assert_eq!(draw(7, 0x41_52_52_56, 1), 0x2e1c_f278_9d6f_b040);
        assert_eq!(draw(42, 0x43_48_41_4F, 1000), 0x9405_fa3e_acb6_abb0);
    }

    #[test]
    fn injector_golden_vectors() {
        let cfg = FaultConfig {
            seed: 11,
            bit_flip_rate: 0.002,
            stall_rate: 0.01,
            stuck_row_rate: 0.05,
            failed_bank_rate: 0.1,
            ..FaultConfig::off()
        };
        let lane = |l| FaultInjector::with_lane(cfg, l).schedule_fingerprint(64);
        assert_eq!(lane(0), 0xb772_82c6_1a31_ccd8);
        assert_eq!(lane(3), 0x1d82_6e6f_74c8_7bb1);

        let inj = FaultInjector::new(cfg);
        let stuck: Vec<u64> = (0..256).filter(|&r| inj.row_is_stuck(1, 2, r)).collect();
        assert_eq!(stuck, [5, 6, 33, 38, 65, 67, 74, 110, 112, 129, 214, 223]);
        // Banks as `rank * 16 + bank` over 8 ranks of 16 banks.
        let failed: Vec<usize> = (0..128)
            .filter(|&k| inj.bank_is_failed(k / 16, k % 16))
            .collect();
        assert_eq!(
            failed,
            [3, 5, 14, 24, 41, 45, 61, 88, 90, 97, 114, 118, 126]
        );

        let mut inj = FaultInjector::new(FaultConfig {
            seed: 5,
            bit_flip_rate: 0.3,
            broadcast_drop_rate: 0.2,
            broadcast_corrupt_rate: 0.1,
            stall_rate: 0.25,
            ..FaultConfig::off()
        });
        let flips: Vec<u32> = (0..24).map(|_| inj.next_read_flips()).collect();
        assert_eq!(
            flips,
            [0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 2, 0, 0, 0, 1, 0]
        );
        let hit: Vec<bool> = (0..24).map(|u| inj.next_stall_cycles(u) > 0).collect();
        assert_eq!(
            hit.iter().map(|&h| u8::from(h)).collect::<Vec<_>>(),
            [0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1]
        );
    }

    #[test]
    fn netem_backoff_and_scenario_golden_vectors() {
        let cfg = NetemConfig {
            seed: 9,
            drop_per_mille: 100,
            delay_per_mille: 100,
            delay_frames: 3,
            dup_per_mille: 100,
            corrupt_per_mille: 100,
            partitions: vec![],
        };
        // One letter per frame (Deliver, drop X, Corrupt, dUp, Wait 3
        // frames), plus the corruption draws in frame order.
        let fates = |dir| {
            let (mut code, mut corrupt) = (String::new(), Vec::new());
            for i in 0..16 {
                code.push(match crate::fate(&cfg, 2, dir, i) {
                    Fate::Deliver => 'D',
                    Fate::Drop => 'X',
                    Fate::Corrupt(at) => {
                        corrupt.push(at);
                        'C'
                    }
                    Fate::Duplicate => 'U',
                    Fate::Delay(3) => 'W',
                    Fate::Delay(n) => panic!("delay {n} != configured 3"),
                });
            }
            (code, corrupt)
        };
        let (code, corrupt) = fates(NetDir::Ingress);
        assert_eq!(code, "DXDDDDDDXDDDCCDD");
        assert_eq!(corrupt, [1266594278807747059, 3059705988838240381]);
        let (code, corrupt) = fates(NetDir::Egress);
        assert_eq!(code, "WCDDDDXDDDDDCCDU");
        assert_eq!(
            corrupt,
            [
                4617275837644080433,
                13738099938018686312,
                11369843819709892873
            ]
        );

        let mut b = Backoff::with_jitter(1_000, 1 << 40, 250, 7);
        let delays: Vec<u64> = (0..12).map(|k| b.delay(k)).collect();
        assert_eq!(
            delays,
            [
                1029, 2074, 4316, 6840, 15520, 25216, 54144, 127616, 317952, 477184, 1081344,
                1841152
            ]
        );

        let s = Scenario::parse(
            "CHS1\nseed 42\njitter 50\nspike 4096 65536 4.0\n\
             spike 100000 200000 2.0\nstall 16384 0xff\nunstall 49152 0xff\n",
        )
        .expect("valid scenario");
        let spikes: Vec<(u64, u64)> = s.spike_windows().iter().map(|w| (w.start, w.end)).collect();
        assert_eq!(spikes, [(3969, 67174), (100000, 194800)]);
        let ticks: Vec<u64> = s.timeline().iter().map(|&(t, _)| t).collect();
        assert_eq!(ticks, [15613, 50724]);
    }
}
