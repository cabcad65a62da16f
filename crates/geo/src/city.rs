//! Ukrainian city catalogue.
//!
//! The paper's city-level analysis (Table 1, Figure 4) covers Kyiv, Kharkiv,
//! Mariupol and Lviv; the geolocation model needs a city for every simulated
//! client, so the catalogue carries each region's administrative center plus
//! the additional cities the analysis names. Per-city `weight` is the share
//! of the region's NDT tests attributed to that city, calibrated against the
//! ratio of the paper's Table 1 (city counts) to Table 4 (region counts).

use crate::coords::LatLon;
use crate::oblast::Oblast;

/// Compact identifier for a catalogue city (index into [`CITIES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u16);

/// A city in the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    pub name: &'static str,
    pub oblast: Oblast,
    pub loc: LatLon,
    /// Share of the region's tests originating from this city; the weights
    /// of one region's cities sum to 1.
    pub weight: f64,
}

macro_rules! city {
    ($name:expr, $ob:ident, $lat:expr, $lon:expr, $w:expr) => {
        City { name: $name, oblast: Oblast::$ob, loc: LatLon { lat: $lat, lon: $lon }, weight: $w }
    };
}

/// All catalogue cities. Each region's weights sum to 1.
pub static CITIES: [City; 32] = [
    city!("Kyiv", KyivCity, 50.4501, 30.5234, 1.0),
    city!("Dnipro", Dnipropetrovsk, 48.4647, 35.0462, 0.62),
    city!("Kryvyi Rih", Dnipropetrovsk, 47.9105, 33.3918, 0.38),
    city!("Lviv", Lviv, 49.8397, 24.0297, 0.79),
    city!("Drohobych", Lviv, 49.3500, 23.5050, 0.21),
    city!("Odessa", Odessa, 46.4825, 30.7233, 1.0),
    city!("Kharkiv", Kharkiv, 49.9935, 36.2304, 0.98),
    city!("Lozova", Kharkiv, 48.8890, 36.3160, 0.02),
    city!("Donetsk", Donetsk, 48.0159, 37.8028, 0.55),
    city!("Kramatorsk", Donetsk, 48.7389, 37.5848, 0.26),
    city!("Mariupol", Donetsk, 47.0971, 37.5434, 0.19),
    city!("Zaporizhzhia", Zaporizhzhya, 47.8388, 35.1396, 1.0),
    city!("Vinnytsia", Vinnytsya, 49.2331, 28.4682, 1.0),
    city!("Mykolaiv", Mykolayiv, 46.9750, 31.9946, 1.0),
    city!("Uzhhorod", Transcarpathia, 48.6208, 22.2879, 1.0),
    city!("Chernihiv", Chernihiv, 51.4982, 31.2893, 1.0),
    city!("Bila Tserkva", KyivOblast, 49.7950, 30.1310, 0.55),
    city!("Irpin", KyivOblast, 50.5218, 30.2506, 0.45),
    city!("Kherson", Kherson, 46.6354, 32.6169, 1.0),
    city!("Cherkasy", Cherkasy, 49.4444, 32.0598, 1.0),
    city!("Rivne", Rivne, 50.6199, 26.2516, 1.0),
    city!("Poltava", Poltava, 49.5883, 34.5514, 1.0),
    city!("Ivano-Frankivsk", IvanoFrankivsk, 48.9226, 24.7111, 1.0),
    city!("Ternopil", Ternopil, 49.5535, 25.5948, 1.0),
    city!("Kropyvnytskyi", Kirovohrad, 48.5079, 32.2623, 1.0),
    city!("Luhansk", Luhansk, 48.5740, 39.3078, 1.0),
    city!("Lutsk", Volyn, 50.7472, 25.3254, 1.0),
    city!("Zhytomyr", Zhytomyr, 50.2547, 28.6587, 1.0),
    city!("Chernivtsi", Chernivtsi, 48.2921, 25.9358, 1.0),
    city!("Khmelnytskyi", Khmelnytskyy, 49.4230, 26.9871, 1.0),
    city!("Sumy", Sumy, 50.9077, 34.7981, 1.0),
    city!("Simferopol", Crimea, 44.9521, 34.1024, 1.0),
];

/// Sevastopol is both a region and (here) represented by Simferopol's
/// neighbour entry; the catalogue gives it its own city for completeness.
pub static SEVASTOPOL: City = city!("Sevastopol", Sevastopol, 44.6166, 33.5254, 1.0);

/// The four cities of the paper's Table 1, in table order.
pub const KEY_CITIES: [&str; 4] = ["Kyiv", "Kharkiv", "Mariupol", "Lviv"];

impl CityId {
    /// Resolves the identifier to its catalogue entry.
    pub fn get(&self) -> &'static City {
        if self.0 as usize == CITIES.len() {
            &SEVASTOPOL
        } else {
            &CITIES[self.0 as usize]
        }
    }
}

/// Iterates all cities (catalogue plus Sevastopol) with their ids.
pub fn all_cities() -> impl Iterator<Item = (CityId, &'static City)> {
    CITIES
        .iter()
        .enumerate()
        .map(|(i, c)| (CityId(i as u16), c))
        .chain(std::iter::once((CityId(CITIES.len() as u16), &SEVASTOPOL)))
}

/// Cities of one region with their ids.
pub fn cities_of(oblast: Oblast) -> Vec<(CityId, &'static City)> {
    all_cities().filter(|(_, c)| c.oblast == oblast).collect()
}

/// Looks a city up by name.
pub fn city_by_name(name: &str) -> Option<(CityId, &'static City)> {
    all_cities().find(|(_, c)| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one_per_region() {
        for ob in Oblast::all() {
            let total: f64 = cities_of(ob).iter().map(|(_, c)| c.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{ob}: weights sum to {total}");
        }
    }

    #[test]
    fn every_region_has_a_city() {
        for ob in Oblast::all() {
            assert!(!cities_of(ob).is_empty(), "{ob} has no city");
        }
    }

    #[test]
    fn key_cities_resolve() {
        for name in KEY_CITIES {
            let (id, c) = city_by_name(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(id.get().name, c.name);
        }
    }

    #[test]
    fn mariupol_is_in_donetsk_region() {
        let (_, m) = city_by_name("Mariupol").unwrap();
        assert_eq!(m.oblast, Oblast::Donetsk);
        // Calibration: Table 1 gives Mariupol 296 prewar tests out of
        // Donetsk's 1749 → ≈0.17 of the region before label dropout.
        assert!((0.1..0.3).contains(&m.weight));
    }

    #[test]
    fn ids_are_unique_and_roundtrip() {
        let all: Vec<_> = all_cities().collect();
        assert_eq!(all.len(), CITIES.len() + 1);
        for (id, c) in &all {
            assert_eq!(id.get().name, c.name);
        }
    }

    /// Catalogue names are unique, Sevastopol included, so a filter on a
    /// city's id keeps exactly the rows a filter on its name keeps.
    #[test]
    fn city_names_are_unique() {
        let names: std::collections::HashSet<&str> = all_cities().map(|(_, c)| c.name).collect();
        assert_eq!(names.len(), all_cities().count(), "a city name repeats");
        assert!(names.contains(SEVASTOPOL.name));
    }

    #[test]
    fn unknown_city_is_none() {
        assert!(city_by_name("El Dorado").is_none());
    }
}
