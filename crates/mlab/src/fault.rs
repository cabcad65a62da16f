//! Deterministic fault injection for the measurement platform.
//!
//! Real measurement infrastructure degrades in ways the simulator's clean
//! output never shows: sites go down for maintenance, scamper sidecars fail
//! to launch or die mid-trace, pipeline bugs corrupt rows, MaxMind loses
//! coverage, and whole ingestion partitions vanish. A [`FaultPlan`] layers
//! those failures onto a run *without perturbing the underlying
//! simulation*: every fault decision is a pure hash of
//! `(fault_seed, fault kind, row identity)`, never a draw from the
//! simulation's RNG streams. Consequences:
//!
//! * the same `(seed, plan)` pair is bit-for-bit reproducible at any thread
//!   count, like the base simulator;
//! * two runs that differ only in the plan produce the *same underlying
//!   tests* — the faulted dataset is a strict degradation of the clean one,
//!   so analyses can be compared row-for-row against ground truth;
//! * fault kinds are independent: raising sidecar loss never moves which
//!   rows get corrupted.
//!
//! The built-in plans (`light`, `moderate`, `severe`, `sidecar-blackout`)
//! give the fault-tolerance suite and the `--faults` CLI flag a shared
//! vocabulary of escalating degradation.

use ndt_topology::Asn;

/// SplitMix64 finalizer — the workspace's standard keyed-coin hash.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain separators so each fault kind has an independent coin stream.
mod domain {
    pub const SITE_OUTAGE: u64 = 0xfa01_7000_0000_0001;
    pub const DAY_LOST: u64 = 0xfa01_7000_0000_0002;
    pub const SIDECAR_LOSS: u64 = 0xfa01_7000_0000_0003;
    pub const SIDECAR_TRUNC: u64 = 0xfa01_7000_0000_0004;
    pub const CORRUPT: u64 = 0xfa01_7000_0000_0005;
    pub const GEO_FAIL: u64 = 0xfa01_7000_0000_0006;
    pub const VARIANT: u64 = 0xfa01_7000_0000_0007;
}

/// How a corrupted `unified_download` row is mangled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Throughput becomes `NaN` (a failed TCP_INFO read).
    NanThroughput,
    /// Throughput becomes its own negation (a sign-flip pipeline bug).
    NegativeThroughput,
    /// Minimum RTT becomes `NaN`.
    NanRtt,
    /// Loss rate becomes `NaN`.
    NanLoss,
    /// Geo annotation (oblast and city) nulled out.
    NullGeo,
}

/// A deterministic plan of platform failures, applied on top of a
/// simulation run. All fields are independent probabilities in `[0, 1]`
/// except [`FaultPlan::fault_seed`], which keys the coin streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault coin streams — independent of `SimConfig::seed`,
    /// so the same dataset can be degraded in many different ways.
    pub fault_seed: u64,
    /// P(a site is down for a whole day) — maintenance windows and site
    /// outages. Tests load-balanced to a down site never complete.
    pub site_outage: f64,
    /// P(an entire day's ingestion partition is lost) — no rows at all
    /// from that day, in either table.
    pub day_loss: f64,
    /// P(a test's scamper sidecar row is missing entirely).
    pub sidecar_loss: f64,
    /// P(a surviving sidecar trace is truncated to a strict hop prefix) —
    /// the trace died mid-path, so the AS path is cut short and the border
    /// crossing may fall off the end.
    pub sidecar_truncation: f64,
    /// P(a published `unified_download` row is corrupted) — see
    /// [`Corruption`] for the variants.
    pub corrupt_row: f64,
    /// Extra P(geolocation fails) on top of the geo model's own error
    /// rate: oblast and city come back null.
    pub geo_failure: f64,
}

impl FaultPlan {
    /// No faults at all — the default; byte-identical to a run without the
    /// fault layer.
    pub const NONE: FaultPlan = FaultPlan {
        fault_seed: 0,
        site_outage: 0.0,
        day_loss: 0.0,
        sidecar_loss: 0.0,
        sidecar_truncation: 0.0,
        corrupt_row: 0.0,
        geo_failure: 0.0,
    };

    /// Routine operational noise: rare outages, a few percent of sidecars
    /// missing, isolated corrupt rows.
    pub const LIGHT: FaultPlan = FaultPlan {
        fault_seed: 0x11,
        site_outage: 0.01,
        day_loss: 0.0,
        sidecar_loss: 0.03,
        sidecar_truncation: 0.02,
        corrupt_row: 0.005,
        geo_failure: 0.02,
    };

    /// A rough month: sites flapping, a tenth of sidecars gone, visible
    /// corruption, a lost partition possible.
    pub const MODERATE: FaultPlan = FaultPlan {
        fault_seed: 0x22,
        site_outage: 0.04,
        day_loss: 0.02,
        sidecar_loss: 0.10,
        sidecar_truncation: 0.08,
        corrupt_row: 0.02,
        geo_failure: 0.08,
    };

    /// Infrastructure in serious trouble — the pipeline must still finish
    /// and annotate what it lost.
    pub const SEVERE: FaultPlan = FaultPlan {
        fault_seed: 0x33,
        site_outage: 0.12,
        day_loss: 0.06,
        sidecar_loss: 0.30,
        sidecar_truncation: 0.20,
        corrupt_row: 0.08,
        geo_failure: 0.25,
    };

    /// Every scamper sidecar lost: the §5 path analyses have *zero* input
    /// while the §4 download analyses still run. The acceptance stress
    /// case for graceful degradation.
    pub const SIDECAR_BLACKOUT: FaultPlan = FaultPlan {
        fault_seed: 0x44,
        site_outage: 0.0,
        day_loss: 0.0,
        sidecar_loss: 1.0,
        sidecar_truncation: 0.0,
        corrupt_row: 0.0,
        geo_failure: 0.0,
    };

    /// The built-in plans with their CLI names, in escalation order.
    pub const BUILTIN: [(&'static str, FaultPlan); 5] = [
        ("none", FaultPlan::NONE),
        ("light", FaultPlan::LIGHT),
        ("moderate", FaultPlan::MODERATE),
        ("severe", FaultPlan::SEVERE),
        ("sidecar-blackout", FaultPlan::SIDECAR_BLACKOUT),
    ];

    /// Looks up a built-in plan by its CLI name.
    pub fn by_name(name: &str) -> Option<FaultPlan> {
        FaultPlan::BUILTIN.iter().find(|(n, _)| *n == name).map(|(_, p)| *p)
    }

    /// Whether this plan injects nothing (fast-path check).
    pub fn is_none(&self) -> bool {
        self.site_outage == 0.0
            && self.day_loss == 0.0
            && self.sidecar_loss == 0.0
            && self.sidecar_truncation == 0.0
            && self.corrupt_row == 0.0
            && self.geo_failure == 0.0
    }

    /// One keyed coin: true with probability `p`, as a pure function of
    /// `(fault_seed, domain, key)`.
    fn coin(&self, domain: u64, key: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = splitmix64(self.fault_seed ^ splitmix64(domain ^ splitmix64(key)));
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Is `site` (keyed by its server address) down on `day`?
    pub fn site_down(&self, site_ip: u32, day: i64) -> bool {
        self.coin(domain::SITE_OUTAGE, (site_ip as u64) << 20 ^ (day as u64), self.site_outage)
    }

    /// Is the whole ingestion partition for `day` lost?
    pub fn day_lost(&self, day: i64) -> bool {
        self.coin(domain::DAY_LOST, day as u64, self.day_loss)
    }

    fn test_key(client_ip: u32, day: i64, test_index: u64) -> u64 {
        // Each field gets its own splitmix64 round before mixing so no
        // field can alias into another's bits (bit-packing would let a
        // large test_index collide with the day field).
        splitmix64(splitmix64(client_ip as u64) ^ splitmix64(day as u64) ^ test_index)
    }

    /// Is this test's scamper sidecar row missing?
    pub fn sidecar_dropped(&self, client_ip: u32, day: i64, test_index: u64) -> bool {
        self.coin(domain::SIDECAR_LOSS, Self::test_key(client_ip, day, test_index), self.sidecar_loss)
    }

    /// If this test's surviving sidecar trace is truncated, the number of
    /// leading AS hops that survive (always ≥ 1, always < the original
    /// length); `None` when the trace is intact. Prefix-taking cannot
    /// introduce a loop, so truncated traces stay loop-free by
    /// construction.
    pub fn sidecar_truncated_len(
        &self,
        client_ip: u32,
        day: i64,
        test_index: u64,
        path_len: usize,
    ) -> Option<usize> {
        if path_len < 2 {
            return None;
        }
        let key = Self::test_key(client_ip, day, test_index);
        if !self.coin(domain::SIDECAR_TRUNC, key, self.sidecar_truncation) {
            return None;
        }
        let h = splitmix64(self.fault_seed ^ splitmix64(domain::VARIANT ^ key));
        Some(1 + (h as usize % (path_len - 1)))
    }

    /// If this published download row is corrupted, how; `None` when it is
    /// clean.
    pub fn row_corruption(&self, client_ip: u32, day: i64, test_index: u64) -> Option<Corruption> {
        let key = Self::test_key(client_ip, day, test_index);
        if !self.coin(domain::CORRUPT, key, self.corrupt_row) {
            return None;
        }
        let h = splitmix64(self.fault_seed ^ splitmix64(domain::VARIANT ^ splitmix64(key)));
        Some(match h % 5 {
            0 => Corruption::NanThroughput,
            1 => Corruption::NegativeThroughput,
            2 => Corruption::NanRtt,
            3 => Corruption::NanLoss,
            _ => Corruption::NullGeo,
        })
    }

    /// Does the extra geolocation failure hit this row?
    pub fn geo_failed(&self, client_ip: u32, day: i64, test_index: u64) -> bool {
        self.coin(domain::GEO_FAIL, Self::test_key(client_ip, day, test_index), self.geo_failure)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Truncates an AS path to its first `keep` hops. A strict prefix of a
/// loop-free path is loop-free, so a truncated trace can never fabricate a
/// routing loop.
pub fn truncate_as_path(path: &[Asn], keep: usize) -> Vec<Asn> {
    path[..keep.min(path.len())].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coins_are_deterministic_and_independent() {
        let p = FaultPlan { sidecar_loss: 0.5, corrupt_row: 0.5, ..FaultPlan::NONE };
        for i in 0..200u32 {
            assert_eq!(p.sidecar_dropped(i, 7, 3), p.sidecar_dropped(i, 7, 3));
        }
        // The two kinds disagree somewhere: independent streams.
        let differs = (0..200u32)
            .any(|i| p.sidecar_dropped(i, 7, 3) != p.row_corruption(i, 7, 3).is_some());
        assert!(differs, "fault kinds share a coin stream");
    }

    #[test]
    fn coin_rate_tracks_probability() {
        let p = FaultPlan { sidecar_loss: 0.3, ..FaultPlan::NONE };
        let hits = (0..10_000u32).filter(|&i| p.sidecar_dropped(i, 1, 0)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn extreme_probabilities_are_exact() {
        let all = FaultPlan { sidecar_loss: 1.0, ..FaultPlan::NONE };
        let none = FaultPlan::NONE;
        for i in 0..100u32 {
            assert!(all.sidecar_dropped(i, 1, 0));
            assert!(!none.sidecar_dropped(i, 1, 0));
        }
        assert!(FaultPlan::SIDECAR_BLACKOUT.sidecar_dropped(42, 500, 9));
    }

    #[test]
    fn truncation_yields_strict_nonempty_prefix() {
        let p = FaultPlan { sidecar_truncation: 1.0, ..FaultPlan::NONE };
        for len in 2..10usize {
            let keep = p.sidecar_truncated_len(1, 2, 3, len).expect("p = 1 truncates");
            assert!(keep >= 1 && keep < len, "keep = {keep} of {len}");
        }
        // Single-hop paths cannot be truncated further.
        assert_eq!(p.sidecar_truncated_len(1, 2, 3, 1), None);
    }

    #[test]
    fn by_name_resolves_all_builtins() {
        for (name, plan) in FaultPlan::BUILTIN {
            assert_eq!(FaultPlan::by_name(name), Some(plan));
        }
        assert_eq!(FaultPlan::by_name("apocalypse"), None);
        assert!(FaultPlan::by_name("none").unwrap().is_none());
        assert!(!FaultPlan::by_name("light").unwrap().is_none());
    }

    #[test]
    fn corruption_covers_all_variants() {
        let p = FaultPlan { corrupt_row: 1.0, ..FaultPlan::NONE };
        let mut seen = std::collections::HashSet::new();
        for i in 0..500u32 {
            seen.insert(format!("{:?}", p.row_corruption(i, 1, 0).unwrap()));
        }
        assert_eq!(seen.len(), 5, "variants seen: {seen:?}");
    }
}
