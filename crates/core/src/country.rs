//! Two-country comparison (the asymmetric scenarios of `ndt-scenario`).
//!
//! An asymmetric scenario attaches a `second_country` block to its spec: a
//! separate national corpus generated under its own scenario, seed salt
//! and scale. The full corpus of country B is never carried around — it is
//! folded into a compact per-period [`CountryDigest`] (test counts and
//! metric means per study period), which the columnar store — a
//! checkpoint directory included — persists (`country-b.digest.txt`), and
//! the `table_ab` analysis stage renders as a side-by-side degradation
//! table.
//!
//! The digest's text form round-trips `f64`s through their bit patterns,
//! so a digest written by `generate --format columnar` and re-read by
//! `report --from-store` reproduces the table byte-for-byte. It closes
//! with an FNV-1a checksum line, so a damaged or edited digest is
//! rejected instead of rendered.

use crate::dataset::StudyData;
use crate::error::AnalysisError;
use ndt_conflict::Period;
use ndt_mlab::sim::Scenario;
use ndt_mlab::SimConfig;
use ndt_store::wire::fnv1a64;

/// One study period's aggregate metrics for one country.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodStats {
    pub period: Period,
    /// Unified rows in the period.
    pub tests: u64,
    /// Mean download throughput (Mbps); NaN when the period is empty.
    pub mean_tput: f64,
    /// Mean minimum RTT (ms); NaN when the period is empty.
    pub mean_rtt: f64,
    /// Mean loss rate; NaN when the period is empty.
    pub mean_loss: f64,
}

/// A country's per-period corpus digest, in [`Period::ALL`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryDigest {
    pub name: String,
    pub periods: Vec<PeriodStats>,
}

/// Magic first line of the digest's text form.
const DIGEST_MAGIC: &str = "country-digest v2";

impl CountryDigest {
    /// Digests a corpus: per-period test counts and metric means.
    pub fn from_study(name: &str, data: &StudyData) -> Self {
        let periods = Period::ALL
            .iter()
            .map(|&p| {
                let q = data.period(p);
                PeriodStats {
                    period: p,
                    tests: q.count() as u64,
                    mean_tput: q.mean("tput"),
                    mean_rtt: q.mean("min_rtt"),
                    mean_loss: q.mean("loss"),
                }
            })
            .collect();
        Self { name: name.to_string(), periods }
    }

    /// Text form: a magic line, the country name, one line per period
    /// with the `f64`s as bit patterns (lossless round-trip), then a
    /// `checksum` line over everything before it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(DIGEST_MAGIC);
        out.push('\n');
        out.push_str("name ");
        out.push_str(&self.name);
        out.push('\n');
        for (i, s) in self.periods.iter().enumerate() {
            out.push_str(&format!(
                "period {i} {} {:016x} {:016x} {:016x}\n",
                s.tests,
                s.mean_tput.to_bits(),
                s.mean_rtt.to_bits(),
                s.mean_loss.to_bits()
            ));
        }
        out.push_str(&checksum_line(&out));
        out.push('\n');
        out
    }

    /// Parses [`Self::to_text`] output, rejecting a missing or wrong
    /// checksum and periods out of [`Period::ALL`] order.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (body, sum) = text
            .strip_suffix('\n')
            .and_then(|t| t.rsplit_once('\n'))
            .ok_or("missing checksum line")?;
        let body = &text[..body.len() + 1];
        if sum != checksum_line(body) {
            return Err(format!("checksum mismatch ('{sum}')"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(DIGEST_MAGIC) {
            return Err(format!("not a country digest (missing '{DIGEST_MAGIC}' header)"));
        }
        let name = lines
            .next()
            .and_then(|l| l.strip_prefix("name "))
            .ok_or("missing 'name' line")?
            .to_string();
        let mut periods = Vec::new();
        for line in lines.filter(|l| !l.trim().is_empty()) {
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 6 || parts[0] != "period" {
                return Err(format!("malformed digest line '{line}'"));
            }
            let idx: usize =
                parts[1].parse().map_err(|_| format!("bad period index '{}'", parts[1]))?;
            if idx != periods.len() {
                return Err(format!("period index {idx} out of order"));
            }
            let period = *Period::ALL
                .get(idx)
                .ok_or_else(|| format!("period index {idx} out of range"))?;
            let tests: u64 =
                parts[2].parse().map_err(|_| format!("bad test count '{}'", parts[2]))?;
            let bits = |s: &str| {
                u64::from_str_radix(s, 16)
                    .map(f64::from_bits)
                    .map_err(|_| format!("bad f64 bits '{s}'"))
            };
            periods.push(PeriodStats {
                period,
                tests,
                mean_tput: bits(parts[3])?,
                mean_rtt: bits(parts[4])?,
                mean_loss: bits(parts[5])?,
            });
        }
        if periods.len() != Period::ALL.len() {
            return Err(format!(
                "digest has {} periods, expected {}",
                periods.len(),
                Period::ALL.len()
            ));
        }
        Ok(Self { name, periods })
    }

    fn stats(&self, p: Period) -> &PeriodStats {
        &self.periods[Period::ALL.iter().position(|q| *q == p).expect("period in ALL")]
    }
}

/// The closing line of a digest whose preceding text is `body`.
fn checksum_line(body: &str) -> String {
    format!("checksum {:016x}", fnv1a64(body.as_bytes()))
}

/// Formats a war/prewar ratio, "-" when the baseline is unusable.
fn ratio(war: f64, pre: f64) -> String {
    if pre.is_finite() && pre != 0.0 && war.is_finite() {
        format!("{:.2}x", war / pre)
    } else {
        "-".to_string()
    }
}

/// The side-by-side degradation table: for each country, prewar-2022 vs
/// wartime-2022 test counts and metric means, with war/prewar ratios.
pub fn render_comparison(countries: &[&CountryDigest]) -> String {
    let mut out = String::new();
    out.push_str(
        "country        period         tests     tput    rtt     loss      tput-x  rtt-x   loss-x\n",
    );
    for c in countries {
        let pre = c.stats(Period::Prewar2022);
        let war = c.stats(Period::Wartime2022);
        for (label, s) in [("prewar", pre), ("wartime", war)] {
            out.push_str(&format!(
                "{:<14} {:<12} {:>7}  {:>7.2} {:>6.2} {:>9.6}",
                c.name, label, s.tests, s.mean_tput, s.mean_rtt, s.mean_loss
            ));
            if label == "wartime" {
                out.push_str(&format!(
                    "  {:>6}  {:>6}  {:>6}",
                    ratio(war.mean_tput, pre.mean_tput),
                    ratio(war.mean_rtt, pre.mean_rtt),
                    ratio(war.mean_loss, pre.mean_loss)
                ));
            }
            out.push('\n');
        }
    }
    out
}

/// The `table_ab` stage body: country A digested from the corpus in hand,
/// country B from the digest the pipeline (or the store) attached.
pub fn table_ab(data: &StudyData) -> Result<String, AnalysisError> {
    let b = data.second_country.as_ref().ok_or_else(|| AnalysisError::Degenerate {
        what: "table_ab needs a second-country digest (asymmetric scenarios only)".to_string(),
    })?;
    let a = CountryDigest::from_study("ukraine", data);
    Ok(render_comparison(&[&a, b]))
}

/// Generates country B's corpus for a config whose scenario declares a
/// `second_country`, and digests it. `Ok(None)` for single-country
/// scenarios. Country B runs under its own scenario, a salted seed and a
/// scaled corpus size, but inherits every other knob — including
/// `threads` and the fault plan — so its digest is deterministic whenever
/// the primary corpus is.
pub fn second_country_digest(cfg: &SimConfig) -> Result<Option<CountryDigest>, AnalysisError> {
    let spec = cfg.scenario.spec();
    let Some(cs) = &spec.second_country else {
        return Ok(None);
    };
    let scenario = Scenario::by_name(&cs.scenario).ok_or_else(|| AnalysisError::Degenerate {
        what: format!("second-country scenario '{}' is not registered", cs.scenario),
    })?;
    let bcfg = SimConfig {
        seed: cfg.seed ^ cs.seed_salt,
        scale: cfg.scale * cs.scale_mult,
        scenario,
        ..*cfg
    };
    let data = StudyData::generate(bcfg);
    Ok(Some(CountryDigest::from_study(&cs.name, &data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::{shared_small, small_dataset};
    use proptest::prelude::*;

    #[test]
    fn digest_text_roundtrips_bit_exactly() {
        let d = CountryDigest::from_study("ukraine", shared_small());
        let back = CountryDigest::parse(&d.to_text()).expect("parses");
        assert_eq!(d, back);
        assert_eq!(d.to_text(), back.to_text());
    }

    /// Seals `body` as [`CountryDigest::to_text`] does, so the cases
    /// below reach the line checks behind the checksum.
    fn sealed(body: &str) -> String {
        format!("{body}{}\n", checksum_line(body))
    }

    #[test]
    fn parse_rejects_malformed_digests() {
        assert!(CountryDigest::parse("nope").is_err());
        assert!(CountryDigest::parse(&sealed("country-digest v2\nname x\n")).is_err(), "no periods");
        assert!(CountryDigest::parse(&sealed("country-digest v2\nname x\nperiod 9 1 0 0 0\n")).is_err());
        assert!(CountryDigest::parse(&sealed("country-digest v2\nname x\nperiod 0 1 zz 0 0\n")).is_err());
        let v1 = shared_digest().to_text().replace("country-digest v2", "country-digest v1");
        assert!(CountryDigest::parse(&v1).is_err(), "v1 digests carry no checksum");
        let text = shared_digest().to_text();
        let unsealed = &text[..text.rfind("checksum ").expect("checksum line")];
        assert!(CountryDigest::parse(unsealed).is_err(), "missing checksum");
        // Magic, name, then periods 0..=3: swap the last two.
        let mut lines: Vec<&str> = unsealed.lines().collect();
        lines.swap(4, 5);
        let reordered = sealed(&format!("{}\n", lines.join("\n")));
        assert!(CountryDigest::parse(&reordered).is_err(), "periods out of order");
    }

    fn shared_digest() -> CountryDigest {
        CountryDigest::from_study("ukraine", shared_small())
    }

    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let text = shared_digest().to_text();
        assert!(CountryDigest::parse(&text).is_ok());
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[at] ^= 1 << bit;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    assert!(CountryDigest::parse(&flipped).is_err(), "flip {bit} at {at} accepted");
                }
            }
            assert!(CountryDigest::parse(&text[..at]).is_err(), "truncation at {at} accepted");
        }
    }

    proptest! {
        /// Arbitrary bytes — alone, or spliced into a digest body sealed
        /// afterwards so they reach the line parser — return a result,
        /// never a panic.
        #[test]
        fn parse_never_panics(
            bytes in prop::collection::vec(0u8..=255, 0..300),
            at in 0usize..400,
        ) {
            let garbage = String::from_utf8_lossy(&bytes);
            let _ = CountryDigest::parse(&garbage);
            let text = shared_digest().to_text();
            let body = &text[..text.rfind("checksum ").expect("checksum line")];
            let at = at.min(body.len());
            let _ = CountryDigest::parse(&sealed(&format!("{}{garbage}{}", &body[..at], &body[at..])));
        }
    }

    #[test]
    fn second_country_only_for_asymmetric_scenarios() {
        let cfg = SimConfig::small(3);
        assert!(second_country_digest(&cfg).expect("historical computes").is_none());
        let b = second_country_digest(&SimConfig { scenario: Scenario::ASYMMETRIC, ..cfg })
            .expect("asymmetric computes")
            .expect("has a second country");
        assert_eq!(b.name, "country-b");
        let war = b.stats(Period::Wartime2022);
        assert!(war.tests > 0, "country B generated a corpus");
    }

    #[test]
    fn table_ab_renders_both_countries() {
        let mut data = StudyData::from_dataset(small_dataset().clone());
        assert!(table_ab(&data).is_err(), "no second country attached");
        let b = second_country_digest(&SimConfig {
            scenario: Scenario::ASYMMETRIC,
            ..SimConfig::small(1234)
        })
        .expect("computes")
        .expect("present");
        data.second_country = Some(b);
        let t = table_ab(&data).expect("renders");
        assert!(t.contains("ukraine"));
        assert!(t.contains("country-b"));
        assert!(t.contains("wartime"));
    }
}
