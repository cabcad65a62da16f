//! Golden digests, folded with FNV-1a and pinned per scenario.
//!
//! * Corpus digests: every field of every row `Simulator::run()`
//!   publishes, with floats by their bits. Anything that moves one
//!   published byte — a changed RNG draw, a different route candidate, a
//!   reordered float sum — moves a digest, so a refactor or speed-up of
//!   the simulator must leave those constants as they are.
//! * Report digests: the text of `run_report` with checkpoints off, then
//!   each artifact's name and bytes in order. They pin the analyses the
//!   same way: a change to how the §4/§5 stages select or reduce rows must
//!   leave every byte of the report and its artifacts as it was.

use ukraine_ndt::geo::Oblast;
use ukraine_ndt::mlab::FaultPlan;
use ukraine_ndt::prelude::*;
use ukraine_ndt::runner::run_report;
use ukraine_ndt::scenario::Scenario;

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// A tag word for `None`, else a different tag followed by the value,
    /// so `None` and `Some(0)` never fold alike.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }
}

fn oblast_index(o: Oblast) -> u64 {
    Oblast::all().position(|x| x == o).expect("catalogued oblast") as u64
}

/// The digest of one scenario's corpus at scale 0.02, seed 2022.
fn corpus_digest(scenario: Scenario) -> u64 {
    let cfg = SimConfig { scale: 0.02, seed: 2022, scenario, threads: 2, ..SimConfig::default() };
    let ds = Simulator::new(cfg).run();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(ds.ndt.len() as u64);
    for r in &ds.ndt {
        h.word(r.day as u64);
        h.word(u64::from(r.client_ip.0));
        h.word(u64::from(r.server_ip.0));
        h.word(u64::from(r.client_asn.0));
        h.opt(r.oblast.map(oblast_index));
        h.opt(r.city.map(|c| u64::from(c.0)));
        h.float(r.mean_tput_mbps);
        h.float(r.min_rtt_ms);
        h.float(r.loss_rate);
    }
    h.word(ds.traces.len() as u64);
    for r in &ds.traces {
        h.word(r.day as u64);
        h.word(u64::from(r.client_ip.0));
        h.word(u64::from(r.server_ip.0));
        h.word(r.path_fingerprint);
        h.word(r.router_fingerprint);
        h.word(r.resolved_fingerprint);
        h.word(r.as_path.len() as u64);
        for asn in &r.as_path {
            h.word(u64::from(asn.0));
        }
        h.opt(r.border.map(|(a, b)| u64::from(a.0) << 32 | u64::from(b.0)));
        h.float(r.mean_tput_mbps);
        h.float(r.min_rtt_ms);
        h.float(r.loss_rate);
    }
    h.0
}

#[test]
fn historical_corpus_matches_its_golden_digest() {
    assert_eq!(corpus_digest(Scenario::HISTORICAL), 0x948d_7fc5_5cda_0011, "historical");
}

#[test]
fn core_only_corpus_matches_its_golden_digest() {
    assert_eq!(corpus_digest(Scenario::CORE_ONLY), 0x27b8_338f_b064_16c5, "core-only");
}

#[test]
fn transit_reroute_corpus_matches_its_golden_digest() {
    assert_eq!(corpus_digest(Scenario::TRANSIT_REROUTE), 0x3fb5_3a9f_ad97_4488, "transit-reroute");
}

/// The digest of one `report` run at scale 0.02, seed 2022, with
/// checkpoints off: the report text, then each artifact's name and bytes.
fn report_digest(scenario: Scenario, faults: FaultPlan) -> u64 {
    let sim =
        SimConfig { scale: 0.02, seed: 2022, scenario, faults, threads: 2, ..SimConfig::default() };
    // Checkpoints off: the run reads and writes nothing under `out`.
    let mut cfg = PipelineConfig::new(sim, std::env::temp_dir().join("ndt-golden-report-unused"));
    cfg.checkpoints = false;
    let outcome = run_report(&cfg).expect("report runs");
    assert!(outcome.is_complete(), "{:?}", outcome.failed());
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(outcome.report.as_bytes());
    h.word(outcome.artifacts.len() as u64);
    for (name, content) in &outcome.artifacts {
        h.bytes(name.as_bytes());
        h.bytes(content.as_bytes());
    }
    h.0
}

#[test]
fn historical_report_matches_its_golden_digest() {
    assert_eq!(
        report_digest(Scenario::HISTORICAL, FaultPlan::NONE),
        0x16da_3555_8aeb_0080,
        "historical, none"
    );
}

#[test]
fn moderate_faults_report_matches_its_golden_digest() {
    assert_eq!(
        report_digest(Scenario::HISTORICAL, FaultPlan::MODERATE),
        0x1676_373a_911e_392d,
        "historical, moderate"
    );
}

#[test]
fn sidecar_blackout_report_matches_its_golden_digest() {
    assert_eq!(
        report_digest(Scenario::HISTORICAL, FaultPlan::SIDECAR_BLACKOUT),
        0x6978_3d28_302b_7fcd,
        "historical, sidecar-blackout"
    );
}

/// The A/B table's coverage counts country A's rows as seen, so the
/// report's closing coverage line totals them with every other stage's.
#[test]
fn asymmetric_report_matches_its_golden_digest() {
    assert_eq!(
        report_digest(Scenario::ASYMMETRIC, FaultPlan::NONE),
        0x5ab7_e191_b54c_7791,
        "asymmetric, none"
    );
}
