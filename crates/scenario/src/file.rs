//! Parser for user-authored scenario files (`--scenario-file PATH`).
//!
//! The format is line-oriented — one directive per line, `#` comments,
//! blank lines ignored — and the parser is hand-rolled, like every format
//! the workspace reads, since it has no serialization crate. A file
//! describes edits on top of a base spec:
//!
//! ```text
//! # A milder war that ends with Cogent leaving for good.
//! scenario my-reroute
//! base historical
//! summary historical but Cogent re-homes on day 12
//! set damage-attenuation 0.8
//! transit asn=174 loss=0.005 latency=0.15 ramp=54 down-after=12
//! event day=439 label=Cogent withdraws for good
//! ```
//!
//! Directives:
//!
//! | directive | effect |
//! |---|---|
//! | `scenario NAME` | sets the registry name (required) |
//! | `base NAME` | starts from a registered spec (default `historical`) |
//! | `summary TEXT` | one-line description |
//! | `set KEY VALUE` | toggles/scalars: `edge-damage`, `core-damage`, `displacement` (bool), `damage-attenuation`, `ramp-days` (f64), `start-day` (i64) |
//! | `clear LIST` | empties `transit`, `sieges`, `outages`, `curves`, `spikes`, `migrations`, `timeline`, or `second-country` |
//! | `intensity front=F\|oblast=O peak=N [step-day= step-to=] [decay-after= decay-floor= decay-tau=]` | replaces one intensity curve |
//! | `transit asn=U loss=N latency=N ramp=N [down-after=I]` | adds/replaces a transit rule (flaps reset) |
//! | `siege city=S from=I tput=N rtt=N loss=N` | adds a siege |
//! | `outage day=I asn=U fraction=N` | adds an outage |
//! | `curve city=S ramp gain=N tau=N` / `curve city=S decay after=N floor=N coeff=N tau=N clamp=N` | adds/replaces a city activity curve |
//! | `spike from=I to=I mult=N` | adds an activity spike window |
//! | `migration from=FRONT dest=CITY\|abroad fraction=N start=I window=I salt=U` | adds a migration wave |
//! | `second-country name=S scenario=S seed-salt=U scale-mult=N` | attaches a second country |
//! | `event day=I label=TEXT` | appends a timeline milestone |

use crate::spec::{
    front_by_name, CityCurve, CityOverride, CountrySpec, IntensityCurve, IntensityDecay,
    MigrationWave, OutageRule, ScenarioSpec, SiegeRule, SpikeRule, TimelineEvent, TransitRule,
};
use crate::Scenario;

/// Parses a scenario file into a spec, validating names and numbers.
/// Errors carry 1-based line numbers.
pub fn parse_scenario_file(text: &str) -> Result<ScenarioSpec, String> {
    let mut spec = Scenario::HISTORICAL.spec().clone();
    let mut name: Option<String> = None;

    for (idx, raw) in text.lines().enumerate() {
        let ln = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (directive, rest) = match line.split_once(char::is_whitespace) {
            Some((d, r)) => (d, r.trim()),
            None => (line, ""),
        };
        match directive {
            "scenario" => {
                if rest.is_empty() {
                    return Err(format!("line {ln}: `scenario` needs a name"));
                }
                name = Some(rest.to_string());
            }
            "base" => {
                let base = Scenario::by_name(rest).ok_or_else(|| {
                    format!(
                        "line {ln}: unknown base scenario '{rest}'; registered: {}",
                        Scenario::names().join(", ")
                    )
                })?;
                let keep_name = name.clone();
                spec = base.spec().clone();
                if let Some(n) = keep_name {
                    spec.name = n;
                }
            }
            "summary" => spec.summary = rest.to_string(),
            "set" => apply_set(&mut spec, rest).map_err(|e| format!("line {ln}: {e}"))?,
            "clear" => apply_clear(&mut spec, rest).map_err(|e| format!("line {ln}: {e}"))?,
            "intensity" => {
                apply_intensity(&mut spec, rest).map_err(|e| format!("line {ln}: {e}"))?
            }
            "transit" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                let rule = TransitRule {
                    asn: kv.req_u64("asn")? as u32,
                    loss_coeff: kv.req_f64("loss")?,
                    latency_coeff: kv.req_f64("latency")?,
                    ramp_days: kv.req_f64("ramp")?,
                    flaps: Vec::new(),
                    down_after: kv.opt_i64("down-after")?,
                };
                match spec.transit.iter_mut().find(|t| t.asn == rule.asn) {
                    Some(existing) => *existing = rule,
                    None => spec.transit.push(rule),
                }
            }
            "siege" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                spec.sieges.push(SiegeRule {
                    city: kv.req_city("city")?,
                    from_day: kv.req_i64("from")?,
                    tput_mult: kv.req_f64("tput")?,
                    rtt_mult: kv.req_f64("rtt")?,
                    loss_mult: kv.req_f64("loss")?,
                });
            }
            "outage" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                spec.outages.push(OutageRule {
                    day: kv.req_i64("day")?,
                    asn: kv.req_u64("asn")? as u32,
                    down_fraction: kv.req_f64("fraction")?,
                });
            }
            "curve" => apply_curve(&mut spec, rest).map_err(|e| format!("line {ln}: {e}"))?,
            "spike" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                spec.spikes.push(SpikeRule {
                    from: kv.req_i64("from")?,
                    to: kv.req_i64("to")?,
                    mult: kv.req_f64("mult")?,
                });
            }
            "migration" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                let front_name = kv.req("from")?;
                let from_front = front_by_name(front_name)
                    .ok_or_else(|| format!("line {ln}: unknown front '{front_name}'"))?;
                let dest = kv.req("dest")?;
                let dest_city = if dest.eq_ignore_ascii_case("abroad") {
                    None
                } else {
                    let (_, city) = ndt_geo::city::city_by_name(dest)
                        .ok_or_else(|| format!("line {ln}: unknown city '{dest}'"))?;
                    Some(city.name.to_string())
                };
                spec.migrations.push(MigrationWave {
                    from_front,
                    dest_city,
                    fraction: kv.req_f64("fraction")?,
                    start_day: kv.req_i64("start")?,
                    window_days: kv.req_i64("window")?,
                    salt: kv.req_u64("salt")?,
                });
            }
            "second-country" => {
                let kv = KeyValues::parse(rest).map_err(|e| format!("line {ln}: {e}"))?;
                let scenario = kv.req("scenario")?.to_string();
                if Scenario::by_name(&scenario).is_none() {
                    return Err(format!(
                        "line {ln}: unknown second-country scenario '{scenario}'; registered: {}",
                        Scenario::names().join(", ")
                    ));
                }
                spec.second_country = Some(CountrySpec {
                    name: kv.req("name")?.to_string(),
                    scenario,
                    seed_salt: kv.req_u64("seed-salt")?,
                    scale_mult: kv.req_f64("scale-mult")?,
                });
            }
            "event" => {
                let kv = KeyValues::parse_with_tail(rest, "label")
                    .map_err(|e| format!("line {ln}: {e}"))?;
                spec.timeline.push(TimelineEvent {
                    day: kv.req_i64("day")?,
                    label: kv.req("label")?.to_string(),
                });
            }
            other => {
                return Err(format!("line {ln}: unknown directive '{other}'"));
            }
        }
    }

    let name = name.ok_or("missing `scenario NAME` directive")?;
    spec.name = name;
    Ok(spec)
}

fn apply_set(spec: &mut ScenarioSpec, rest: &str) -> Result<(), String> {
    let (key, value) = rest
        .split_once(char::is_whitespace)
        .map(|(k, v)| (k, v.trim()))
        .ok_or("`set` needs KEY VALUE")?;
    let parse_bool = |v: &str| match v {
        "true" | "on" | "yes" => Ok(true),
        "false" | "off" | "no" => Ok(false),
        _ => Err(format!("expected a bool, got '{v}'")),
    };
    match key {
        "edge-damage" => spec.edge_damage = parse_bool(value)?,
        "core-damage" => spec.core_damage = parse_bool(value)?,
        "displacement" => spec.displacement = parse_bool(value)?,
        "damage-attenuation" => {
            spec.damage_attenuation =
                value.parse().map_err(|_| format!("bad number '{value}'"))?
        }
        "ramp-days" => {
            spec.intensity.ramp_days =
                value.parse().map_err(|_| format!("bad number '{value}'"))?
        }
        "start-day" => {
            spec.intensity.start_day =
                value.parse().map_err(|_| format!("bad integer '{value}'"))?
        }
        other => return Err(format!("unknown `set` key '{other}'")),
    }
    Ok(())
}

fn apply_clear(spec: &mut ScenarioSpec, rest: &str) -> Result<(), String> {
    match rest {
        "transit" => spec.transit.clear(),
        "sieges" => spec.sieges.clear(),
        "outages" => spec.outages.clear(),
        "curves" => spec.curves.clear(),
        "spikes" => spec.spikes.clear(),
        "migrations" => spec.migrations.clear(),
        "timeline" => spec.timeline.clear(),
        "second-country" => spec.second_country = None,
        other => return Err(format!("unknown `clear` list '{other}'")),
    }
    Ok(())
}

fn apply_intensity(spec: &mut ScenarioSpec, rest: &str) -> Result<(), String> {
    let kv = KeyValues::parse(rest)?;
    let step = match (kv.opt_i64("step-day")?, kv.opt_f64("step-to")?) {
        (Some(d), Some(v)) => Some((d, v)),
        (None, None) => None,
        _ => return Err("step-day and step-to must be given together".to_string()),
    };
    let decay = match (
        kv.opt_i64("decay-after")?,
        kv.opt_f64("decay-floor")?,
        kv.opt_f64("decay-tau")?,
    ) {
        (Some(after), Some(floor), Some(tau)) => Some(IntensityDecay { after, floor, tau }),
        (None, None, None) => None,
        _ => return Err("decay-after, decay-floor, decay-tau must be given together".to_string()),
    };
    let curve = IntensityCurve { peak: kv.req_f64("peak")?, step, decay };
    if let Some(front) = kv.opt("front") {
        let f = front_by_name(front).ok_or_else(|| format!("unknown front '{front}'"))?;
        match f {
            ndt_geo::Front::North => spec.intensity.north = curve,
            ndt_geo::Front::East => spec.intensity.east = curve,
            ndt_geo::Front::South => spec.intensity.south = curve,
            ndt_geo::Front::Center => spec.intensity.center = curve,
            ndt_geo::Front::West => spec.intensity.west = curve,
            ndt_geo::Front::Occupied => spec.intensity.occupied = curve,
        }
        return Ok(());
    }
    if let Some(name) = kv.opt("oblast") {
        let oblast = ndt_geo::Oblast::by_name(name)
            .ok_or_else(|| format!("unknown oblast '{name}'"))?;
        match spec.intensity.overrides.iter_mut().find(|(o, _)| *o == oblast) {
            Some((_, c)) => *c = curve,
            None => spec.intensity.overrides.push((oblast, curve)),
        }
        return Ok(());
    }
    Err("`intensity` needs front=... or oblast=...".to_string())
}

fn apply_curve(spec: &mut ScenarioSpec, rest: &str) -> Result<(), String> {
    // The shape keyword (`ramp` / `decay`) rides along as a bare token.
    let shape = rest
        .split_whitespace()
        .find(|t| !t.contains('='))
        .ok_or("`curve` needs a shape: `ramp` or `decay`")?;
    let kv = KeyValues::parse_ignoring_bare(rest)?;
    let city = kv.req_city("city")?;
    let curve = match shape {
        "ramp" => CityCurve::Ramp { gain: kv.req_f64("gain")?, tau: kv.req_f64("tau")? },
        "decay" => CityCurve::DecayAfter {
            after: kv.req_f64("after")?,
            floor: kv.req_f64("floor")?,
            coeff: kv.req_f64("coeff")?,
            tau: kv.req_f64("tau")?,
            clamp_min: kv.req_f64("clamp")?,
        },
        other => return Err(format!("unknown curve shape '{other}'")),
    };
    match spec.curves.iter_mut().find(|c| c.city == city) {
        Some(c) => c.curve = curve,
        None => spec.curves.push(CityOverride { city, curve }),
    }
    Ok(())
}

/// `key=value` token list with typed accessors.
struct KeyValues<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KeyValues<'a> {
    fn parse(rest: &'a str) -> Result<Self, String> {
        let mut pairs = Vec::new();
        for tok in rest.split_whitespace() {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{tok}'"))?;
            pairs.push((k, v));
        }
        Ok(KeyValues { pairs })
    }

    /// Like `parse`, but bare tokens (no `=`) are skipped instead of
    /// rejected — used by `curve`, whose shape keyword is bare.
    fn parse_ignoring_bare(rest: &'a str) -> Result<Self, String> {
        let pairs = rest
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='))
            .collect();
        Ok(KeyValues { pairs })
    }

    /// Like `parse`, but everything after `tail_key=` (spaces included)
    /// belongs to that key — used by `event`, whose label is free text.
    fn parse_with_tail(rest: &'a str, tail_key: &str) -> Result<Self, String> {
        let marker = format!("{tail_key}=");
        if let Some(pos) = rest.find(&marker) {
            let head = &rest[..pos];
            let tail = rest[pos + marker.len()..].trim();
            let mut kv = Self::parse(head)?;
            kv.pairs.push((&rest[pos..pos + tail_key.len()], tail));
            Ok(kv)
        } else {
            Self::parse(rest)
        }
    }

    fn opt(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn req(&self, key: &str) -> Result<&'a str, String> {
        self.opt(key).ok_or_else(|| format!("missing {key}=..."))
    }

    fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .parse()
            .map_err(|_| format!("bad number for {key}"))
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        self.opt(key)
            .map(|v| v.parse().map_err(|_| format!("bad number for {key}")))
            .transpose()
    }

    fn req_i64(&self, key: &str) -> Result<i64, String> {
        self.req(key)?
            .parse()
            .map_err(|_| format!("bad integer for {key}"))
    }

    fn opt_i64(&self, key: &str) -> Result<Option<i64>, String> {
        self.opt(key)
            .map(|v| v.parse().map_err(|_| format!("bad integer for {key}")))
            .transpose()
    }

    fn req_u64(&self, key: &str) -> Result<u64, String> {
        let v = self.req(key)?;
        let parsed = if let Some(hex) = v.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            v.parse()
        };
        parsed.map_err(|_| format!("bad unsigned integer for {key}"))
    }

    /// A city name validated against the key-city catalog; stored in the
    /// catalog's canonical capitalization.
    fn req_city(&self, key: &str) -> Result<String, String> {
        let name = self.req(key)?;
        let (_, city) = ndt_geo::city::city_by_name(name)
            .ok_or_else(|| format!("unknown city '{name}'"))?;
        Ok(city.name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_derived_scenario() {
        let text = "\
# comment
scenario test-milder
base historical
summary a milder war
set damage-attenuation 0.8
transit asn=174 loss=0.004 latency=0.1 ramp=54 down-after=12
event day=439 label=Cogent gives up for good
";
        let spec = parse_scenario_file(text).expect("parses");
        assert_eq!(spec.name, "test-milder");
        assert_eq!(spec.summary, "a milder war");
        assert_eq!(spec.damage_attenuation, 0.8);
        let cogent = spec.transit.iter().find(|t| t.asn == 174).expect("cogent");
        assert_eq!(cogent.down_after, Some(12));
        assert_eq!(cogent.flaps.len(), 0, "replacing a transit rule resets flaps");
        assert_eq!(
            spec.timeline.last().map(|e| e.label.as_str()),
            Some("Cogent gives up for good")
        );
        // Everything not edited is inherited from historical.
        assert_eq!(spec.sieges, Scenario::HISTORICAL.spec().sieges);
    }

    #[test]
    fn rejects_bad_input_with_line_numbers() {
        for (text, needle) in [
            ("set damage-attenuation 0.8", "missing `scenario NAME`"),
            ("scenario x\nbase blitz", "unknown base scenario 'blitz'"),
            ("scenario x\nfoo bar", "unknown directive 'foo'"),
            ("scenario x\nmigration from=nowhere dest=abroad fraction=0.1 start=1 window=2 salt=3", "unknown front"),
            ("scenario x\nsiege city=Atlantis from=1 tput=1 rtt=1 loss=1", "unknown city"),
            ("scenario x\ntransit asn=174 loss=0.1", "missing latency="),
        ] {
            let err = parse_scenario_file(text).expect_err(text);
            assert!(err.contains(needle), "error {err:?} should mention {needle:?}");
        }
        let err = parse_scenario_file("scenario x\nbase blitz").expect_err("bad base");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn migration_and_second_country_validate_names() {
        let text = "\
scenario test-flow
migration from=east dest=Lviv fraction=0.2 start=422 window=10 salt=0x99
second-country name=b scenario=asymmetric-b seed-salt=0x1 scale-mult=0.5
";
        let spec = parse_scenario_file(text).expect("parses");
        assert_eq!(spec.migrations.len(), 1);
        assert_eq!(spec.migrations[0].dest_city.as_deref(), Some("Lviv"));
        assert_eq!(spec.migrations[0].salt, 0x99);
        assert_eq!(spec.second_country.as_ref().map(|c| c.scenario.as_str()), Some("asymmetric-b"));
    }

    #[test]
    fn edited_file_changes_the_fingerprint() {
        let a = parse_scenario_file("scenario t\nset damage-attenuation 0.8").expect("a");
        let b = parse_scenario_file("scenario t\nset damage-attenuation 0.7").expect("b");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
