//! MaxMind-style geolocation with an explicit error model.
//!
//! The paper geolocates clients with MaxMind and is careful about its
//! limitations (§3): city-level accuracy is ">68% at a resolution of 25 km",
//! and 9,200 of 78,539 tests (11.7%) carry no geodata at all. It argues that
//! mislabeling *weakens* the observed effects — points from calmer areas
//! mislabeled into war-torn cities would drag the damaged-city averages
//! toward normal. [`GeoDb`] reproduces that exact error process so the
//! argument is part of the system under test:
//!
//! 1. with probability `missing_rate`, the lookup returns no geodata;
//! 2. otherwise, with probability `1 - city_label_rate`, only the region
//!    (oblast) label is produced (this is why the paper's Table 1 city
//!    counts are below its Table 4 region counts);
//! 3. otherwise, with probability `mislabel_rate`, the record is labeled
//!    with a *different* catalogue city (picked uniformly — MaxMind errors
//!    are not conflict-aware), including that city's oblast;
//! 4. finally, the reported coordinates jitter uniformly within
//!    `accuracy_km` of the labeled city center.

use crate::city::{all_cities, City, CityId};
use crate::coords::LatLon;
use crate::oblast::Oblast;
use rand::{Rng, RngExt as _};

/// Error-model knobs, defaulted to the paper's reported figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoDbConfig {
    /// Probability that a test has no geodata at all (paper: 0.117).
    pub missing_rate: f64,
    /// Probability that a located test carries a city label, not just a
    /// region label (calibrated from Table 1 / Table 4 count ratios ≈ 0.89).
    pub city_label_rate: f64,
    /// Probability that a city label points at the wrong city
    /// (MaxMind self-reports >68% accuracy at 25 km; we default to a 0.06
    /// error rate, comfortably inside the paper's bound).
    pub mislabel_rate: f64,
    /// Positional jitter radius in km (paper quotes 25 km resolution).
    pub accuracy_km: f64,
}

impl Default for GeoDbConfig {
    fn default() -> Self {
        Self { missing_rate: 0.117, city_label_rate: 0.89, mislabel_rate: 0.06, accuracy_km: 25.0 }
    }
}

/// A geolocation annotation as published with an NDT row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoRecord {
    /// ISO country code; always "UA" for located Ukrainian clients.
    pub country: &'static str,
    /// Region label, when present.
    pub oblast: Option<Oblast>,
    /// City label, when present (implies `oblast` is present).
    pub city: Option<CityId>,
    /// Reported coordinates, when located.
    pub loc: Option<LatLon>,
}

impl GeoRecord {
    /// A record with no geodata (the paper's 11.7% bucket).
    pub const MISSING: GeoRecord = GeoRecord { country: "UA", oblast: None, city: None, loc: None };

    /// Whether any geodata is attached.
    pub fn located(&self) -> bool {
        self.oblast.is_some()
    }
}

/// The MaxMind stand-in.
#[derive(Debug, Clone)]
pub struct GeoDb {
    config: GeoDbConfig,
    cities: Vec<(CityId, &'static City)>,
    /// Cumulative population-ish weights for mislabel targets (real
    /// geolocation errors land in big metros far more often than in small
    /// towns).
    cum_weights: Vec<f64>,
}

impl GeoDb {
    /// Builds a database with the given error model.
    ///
    /// # Panics
    /// Panics if any rate is outside `[0, 1]` or `accuracy_km` is negative.
    pub fn new(config: GeoDbConfig) -> Self {
        for (name, v) in [
            ("missing_rate", config.missing_rate),
            ("city_label_rate", config.city_label_rate),
            ("mislabel_rate", config.mislabel_rate),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be a probability, got {v}");
        }
        assert!(config.accuracy_km >= 0.0, "accuracy_km must be non-negative");
        let cities: Vec<(CityId, &'static City)> = all_cities().collect();
        let mut cum_weights = Vec::with_capacity(cities.len());
        let mut acc = 0.0;
        for (_, c) in &cities {
            acc += c.oblast.prewar_weight() * c.weight;
            cum_weights.push(acc);
        }
        Self { config, cities, cum_weights }
    }

    /// A database with the paper's error rates.
    pub fn paper_defaults() -> Self {
        Self::new(GeoDbConfig::default())
    }

    /// A perfect oracle (no missingness, no mislabeling, no jitter) — used
    /// by ablation benches to quantify what geolocation noise costs.
    pub fn perfect() -> Self {
        Self::new(GeoDbConfig { missing_rate: 0.0, city_label_rate: 1.0, mislabel_rate: 0.0, accuracy_km: 0.0 })
    }

    /// Configured error model.
    pub fn config(&self) -> &GeoDbConfig {
        &self.config
    }

    /// Annotates a client whose *true* location is `true_city`.
    pub fn lookup<R: Rng + ?Sized>(&self, true_city: CityId, rng: &mut R) -> GeoRecord {
        if rng.random::<f64>() < self.config.missing_rate {
            return GeoRecord::MISSING;
        }
        let labeled_city = if rng.random::<f64>() < self.config.mislabel_rate {
            // Weighted wrong city (never the true one when >1 exists):
            // errors gravitate towards populous metros.
            let total = *self.cum_weights.last().expect("non-empty catalogue");
            let draw = rng.random::<f64>() * total;
            let mut idx = self.cum_weights.partition_point(|&w| w < draw).min(self.cities.len() - 1);
            if self.cities[idx].0 == true_city && self.cities.len() > 1 {
                idx = (idx + 1) % self.cities.len();
            }
            self.cities[idx].0
        } else {
            true_city
        };
        let city = labeled_city.get();
        let loc = self.jitter(city.loc, rng);
        if rng.random::<f64>() < self.config.city_label_rate {
            GeoRecord { country: "UA", oblast: Some(city.oblast), city: Some(labeled_city), loc: Some(loc) }
        } else {
            GeoRecord { country: "UA", oblast: Some(city.oblast), city: None, loc: Some(loc) }
        }
    }

    /// Uniform jitter within `accuracy_km` of a point (small-angle
    /// approximation is fine at 25 km).
    fn jitter<R: Rng + ?Sized>(&self, center: LatLon, rng: &mut R) -> LatLon {
        if self.config.accuracy_km == 0.0 {
            return center;
        }
        let r_km = self.config.accuracy_km * rng.random::<f64>().sqrt();
        let theta = rng.random::<f64>() * std::f64::consts::TAU;
        let dlat = (r_km / 111.32) * theta.sin();
        let dlon = (r_km / (111.32 * center.lat.to_radians().cos())) * theta.cos();
        LatLon { lat: (center.lat + dlat).clamp(-90.0, 90.0), lon: (center.lon + dlon).clamp(-180.0, 180.0) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::city_by_name;
    use crate::coords::haversine_km;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_db_is_exact() {
        let db = GeoDb::perfect();
        let (kyiv, info) = city_by_name("Kyiv").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let r = db.lookup(kyiv, &mut rng);
            assert_eq!(r.city, Some(kyiv));
            assert_eq!(r.oblast, Some(Oblast::KyivCity));
            assert_eq!(r.loc, Some(info.loc));
        }
    }

    #[test]
    fn missing_rate_matches_paper() {
        let db = GeoDb::paper_defaults();
        let (kyiv, _) = city_by_name("Kyiv").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 40_000;
        let missing = (0..n).filter(|_| !db.lookup(kyiv, &mut rng).located()).count();
        let rate = missing as f64 / n as f64;
        assert!((rate - 0.117).abs() < 0.01, "missing rate = {rate}");
    }

    #[test]
    fn city_labels_are_a_subset_of_region_labels() {
        let db = GeoDb::paper_defaults();
        let (lviv, _) = city_by_name("Lviv").unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let r = db.lookup(lviv, &mut rng);
            if r.city.is_some() {
                assert!(r.oblast.is_some());
                assert!(r.loc.is_some());
            }
        }
    }

    #[test]
    fn jitter_stays_within_accuracy_radius() {
        let db = GeoDb::paper_defaults();
        let (kh, info) = city_by_name("Kharkiv").unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..2_000 {
            let r = db.lookup(kh, &mut rng);
            if let (Some(city), Some(loc)) = (r.city, r.loc) {
                let d = haversine_km(city.get().loc, loc);
                assert!(d <= db.config().accuracy_km * 1.05, "jitter {d} km");
                let _ = info;
            }
        }
    }

    #[test]
    fn mislabel_rate_is_respected() {
        let db = GeoDb::new(GeoDbConfig { missing_rate: 0.0, city_label_rate: 1.0, mislabel_rate: 0.2, accuracy_km: 0.0 });
        let (mariupol, _) = city_by_name("Mariupol").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 40_000;
        let wrong = (0..n).filter(|_| db.lookup(mariupol, &mut rng).city != Some(mariupol)).count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "mislabel rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn rejects_bad_config() {
        GeoDb::new(GeoDbConfig { missing_rate: 1.5, ..GeoDbConfig::default() });
    }
}
