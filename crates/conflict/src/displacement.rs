//! Population displacement and test-taking behaviour.
//!
//! Test counts are the paper's fourth metric (Figures 2a, 3a, 4; the count
//! columns of Tables 1 and 4), and they move for human reasons: people flee
//! besieged cities (Mariupol's counts "all but disappear" after March 1,
//! Kharkiv's drop after March 14), refugees arrive in the west (Lviv's
//! counts *rise* 41%), and people run speed tests *because* the network is
//! bad (the count spike accompanying the March 10 outages in Figure 2a).
//!
//! [`DisplacementModel`] produces a per-city activity multiplier per day.
//! The curve shapes come from a [`ndt_scenario::ScenarioSpec`]'s city
//! overrides and spike rules; magnitudes of the built-in `historical` spec
//! are calibrated so each curve's wartime mean matches the paper's Table 1
//! city count ratios, and the residual multiplier of non-key cities is
//! solved so the oblast totals track Table 4.

use crate::calendar::Period;
use ndt_geo::city::{cities_of, CityId};
use ndt_geo::Oblast;
use ndt_scenario::{Scenario, ScenarioSpec};
use std::collections::HashMap;

/// Time constant of the default wartime count ramp, in days. Short: the
/// paper's city count series (Figure 4) move within days of their events.
const COUNT_RAMP_TAU: f64 = 4.0;

/// Wartime mean of the default ramp over the 54-day period.
fn default_ramp_mean() -> f64 {
    let (s, e) = Period::Wartime2022.day_range();
    (s..e).map(|d| ramp((d - s) as f64, COUNT_RAMP_TAU)).sum::<f64>() / (e - s) as f64
}

fn ramp(t: f64, tau: f64) -> f64 {
    (t / tau).min(1.0)
}

/// Per-city daily activity multipliers under one scenario spec.
#[derive(Debug, Clone)]
pub struct DisplacementModel {
    spec: &'static ScenarioSpec,
    /// Residual wartime count target for non-key cities of each oblast.
    rest_target: HashMap<Oblast, f64>,
}

impl Default for DisplacementModel {
    fn default() -> Self {
        Self::new()
    }
}

impl DisplacementModel {
    /// The historical model (the paper's calibrated displacement).
    pub fn new() -> Self {
        Self::for_scenario(Scenario::HISTORICAL)
    }

    /// Builds the model for a scenario, solving each oblast's residual
    /// multiplier so the weighted city means reproduce the oblast count
    /// targets after the spec's override curves take their share.
    pub fn for_scenario(scenario: Scenario) -> Self {
        let spec = scenario.spec();
        let (s, e) = Period::Wartime2022.day_range();
        let override_mean = |city: &str| {
            let curve = spec.city_override(city).expect("known override city");
            (s..e).map(|d| curve.eval((d - s) as f64)).sum::<f64>() / (e - s) as f64
        };
        let mut rest_target = HashMap::new();
        for oblast in Oblast::all() {
            let target = crate::damage::oblast_profile(oblast).count_mult;
            let mut override_contrib = 0.0;
            let mut rest_weight = 0.0;
            for (_, city) in cities_of(oblast) {
                if spec.city_override(city.name).is_some() {
                    override_contrib += city.weight * override_mean(city.name);
                } else {
                    rest_weight += city.weight;
                }
            }
            let rest = if rest_weight > 1e-9 {
                ((target - override_contrib) / rest_weight).clamp(0.05, 3.0)
            } else {
                1.0
            };
            rest_target.insert(oblast, rest);
        }
        Self { spec, rest_target }
    }

    /// The spec this model evaluates.
    pub fn spec(&self) -> &'static ScenarioSpec {
        self.spec
    }

    /// Activity multiplier (relative to prewar) of a city on a day.
    pub fn city_activity(&self, city: CityId, day: i64) -> f64 {
        let start = self.spec.intensity.start_day;
        if day < start {
            return 1.0;
        }
        let t = (day - start) as f64;
        let c = city.get();
        if let Some(curve) = self.spec.city_override(c.name) {
            return curve.eval(t);
        }
        let target = self.rest_target.get(&c.oblast).copied().unwrap_or(1.0);
        // Scale the ramp so the wartime mean equals the target.
        let amplitude = (target - 1.0) / default_ramp_mean();
        (1.0 + amplitude * ramp(t, COUNT_RAMP_TAU)).max(0.02)
    }

    /// Behavioural test spike under this model's spec: people run speed
    /// tests when the network misbehaves.
    pub fn spike(&self, day: i64) -> f64 {
        self.spec.spike(day)
    }
}

/// Convenience: mean wartime activity of a city under the model.
pub fn wartime_mean_activity(model: &DisplacementModel, city: CityId) -> f64 {
    let (s, e) = Period::Wartime2022.day_range();
    (s..e).map(|d| model.city_activity(city, d)).sum::<f64>() / (e - s) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::dates;
    use ndt_geo::city::{all_cities, city_by_name};

    fn id(name: &str) -> CityId {
        city_by_name(name).unwrap().0
    }

    #[test]
    fn prewar_activity_is_unity() {
        let m = DisplacementModel::new();
        for (cid, _) in all_cities() {
            assert_eq!(m.city_activity(cid, 400), 1.0);
            assert_eq!(m.city_activity(cid, 10), 1.0);
        }
    }

    #[test]
    fn mariupol_collapses_after_the_siege() {
        let m = DisplacementModel::new();
        let siege = dates::MARIUPOL_ENCIRCLED.day_index();
        assert_eq!(m.city_activity(id("Mariupol"), siege - 1), 1.0);
        assert!(m.city_activity(id("Mariupol"), siege + 10) < 0.05);
        assert!((m.city_activity(id("Mariupol"), siege + 30) - 0.01).abs() < 1e-9, "floor trickle");
        let mean = wartime_mean_activity(&m, id("Mariupol"));
        // Table 1: 26/296 ≈ 0.088 — within a factor ~2; the slow-decay
        // trickle deliberately keeps a few siege-period tests flowing so
        // the siege damage is observable at all (paper Figure 4 shows the
        // same thin tail).
        assert!((0.05..0.20).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn kharkiv_drops_after_shelling() {
        let m = DisplacementModel::new();
        let shell = dates::KHARKIV_SHELLING.day_index();
        assert_eq!(m.city_activity(id("Kharkiv"), shell - 1), 1.0);
        assert!(m.city_activity(id("Kharkiv"), shell + 10) < 0.6);
        let mean = wartime_mean_activity(&m, id("Kharkiv"));
        // Table 1: 1215/1839 ≈ 0.66.
        assert!((0.58..0.75).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn lviv_gains_refugees() {
        let m = DisplacementModel::new();
        let mean = wartime_mean_activity(&m, id("Lviv"));
        // Table 1: 1857/1315 ≈ 1.41.
        assert!((1.3..1.55).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn kyiv_mild_exodus() {
        let m = DisplacementModel::new();
        let mean = wartime_mean_activity(&m, id("Kyiv"));
        // Table 1: 8513/10023 ≈ 0.85.
        assert!((0.78..0.92).contains(&mean), "mean = {mean}");
    }

    #[test]
    fn oblast_weighted_means_track_table4() {
        let m = DisplacementModel::new();
        for oblast in [Oblast::Donetsk, Oblast::Kherson, Oblast::Chernihiv, Oblast::Vinnytsya] {
            let target = crate::damage::oblast_profile(oblast).count_mult;
            let weighted: f64 = cities_of(oblast)
                .iter()
                .map(|(cid, c)| c.weight * wartime_mean_activity(&m, *cid))
                .sum();
            assert!(
                (weighted - target).abs() / target < 0.25,
                "{oblast}: weighted {weighted} vs target {target}"
            );
        }
    }

    #[test]
    fn spike_on_march_10() {
        // The historical spike is largest around the March 10 national
        // outages, with a smaller bump in the first days of the invasion.
        let spike = |day| Scenario::HISTORICAL.spec().spike(day);
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        assert!(spike(mar10) > 1.7);
        assert!(spike(mar10 + 1) > 1.2);
        assert_eq!(spike(mar10 + 5), 1.0);
        assert_eq!(spike(400), 1.0);
        assert!(spike(dates::INVASION.day_index()) > 1.1);
    }

    #[test]
    fn refugee_flow_model_matches_historical_activity() {
        // Migration waves relocate clients in the simulator; the city
        // activity curves themselves are inherited from historical.
        let hist = DisplacementModel::new();
        let flow = DisplacementModel::for_scenario(Scenario::REFUGEE_FLOW);
        for day in [400, 430, 460] {
            let h = hist.city_activity(id("Lviv"), day);
            let f = flow.city_activity(id("Lviv"), day);
            assert_eq!(h.to_bits(), f.to_bits());
        }
    }
}
