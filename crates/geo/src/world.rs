//! World metro catalogue for placing M-Lab sites.
//!
//! The paper describes M-Lab as "a distributed platform of 210 sites in 47
//! countries", with no servers in Ukraine or Russia, each site connected to
//! a distinct transit provider and clients directed to the geographically
//! nearest site. This catalogue lists the metros the simulator places those
//! sites in; large interconnection hubs host several sites.

use crate::coords::LatLon;

/// A metro that can host one or more M-Lab sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldCity {
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    pub loc: LatLon,
    /// How many M-Lab sites the simulator places in this metro; totals 210.
    pub sites: u8,
}

macro_rules! metro {
    ($name:expr, $cc:expr, $lat:expr, $lon:expr, $sites:expr) => {
        WorldCity { name: $name, country: $cc, loc: LatLon { lat: $lat, lon: $lon }, sites: $sites }
    };
}

/// All metros; site counts sum to 210 across 47 countries (verified by
/// unit test). European hubs closest to Ukraine come first — they are the
/// ones the load balancer will pick for Ukrainian clients.
pub static WORLD_CITIES: [WorldCity; 54] = [
    // Europe near Ukraine — the realistic destinations for Ukrainian NDT tests.
    metro!("Warsaw", "PL", 52.2297, 21.0122, 6),
    metro!("Prague", "CZ", 50.0755, 14.4378, 5),
    metro!("Bucharest", "RO", 44.4268, 26.1025, 4),
    metro!("Budapest", "HU", 47.4979, 19.0402, 4),
    metro!("Vienna", "AT", 48.2082, 16.3738, 4),
    metro!("Bratislava", "SK", 48.1486, 17.1077, 3),
    metro!("Sofia", "BG", 42.6977, 23.3219, 4),
    metro!("Chisinau", "MD", 47.0105, 28.8638, 2),
    metro!("Vilnius", "LT", 54.6872, 25.2797, 3),
    metro!("Riga", "LV", 56.9496, 24.1052, 3),
    metro!("Tallinn", "EE", 59.4370, 24.7536, 3),
    metro!("Helsinki", "FI", 60.1699, 24.9384, 4),
    metro!("Stockholm", "SE", 59.3293, 18.0686, 4),
    metro!("Oslo", "NO", 59.9139, 10.7522, 3),
    metro!("Copenhagen", "DK", 55.6761, 12.5683, 4),
    metro!("Berlin", "DE", 52.5200, 13.4050, 4),
    metro!("Frankfurt", "DE", 50.1109, 8.6821, 8),
    metro!("Amsterdam", "NL", 52.3676, 4.9041, 8),
    metro!("Brussels", "BE", 50.8503, 4.3517, 3),
    metro!("Paris", "FR", 48.8566, 2.3522, 5),
    metro!("London", "GB", 51.5074, -0.1278, 7),
    metro!("Dublin", "IE", 53.3498, -6.2603, 3),
    metro!("Zurich", "CH", 47.3769, 8.5417, 4),
    metro!("Milan", "IT", 45.4642, 9.1900, 4),
    metro!("Rome", "IT", 41.9028, 12.4964, 3),
    metro!("Madrid", "ES", 40.4168, -3.7038, 4),
    metro!("Lisbon", "PT", 38.7223, -9.1393, 3),
    metro!("Athens", "GR", 37.9838, 23.7275, 3),
    metro!("Zagreb", "HR", 45.8150, 15.9819, 2),
    metro!("Belgrade", "RS", 44.7866, 20.4489, 2),
    metro!("Istanbul", "TR", 41.0082, 28.9784, 4),
    // Americas.
    metro!("New York", "US", 40.7128, -74.0060, 6),
    metro!("Ashburn", "US", 39.0438, -77.4874, 5),
    metro!("Chicago", "US", 41.8781, -87.6298, 5),
    metro!("Dallas", "US", 32.7767, -96.7970, 4),
    metro!("Los Angeles", "US", 34.0522, -118.2437, 5),
    metro!("Seattle", "US", 47.6062, -122.3321, 4),
    metro!("Toronto", "CA", 43.6532, -79.3832, 4),
    metro!("Mexico City", "MX", 19.4326, -99.1332, 3),
    metro!("Sao Paulo", "BR", -23.5505, -46.6333, 4),
    metro!("Buenos Aires", "AR", -34.6037, -58.3816, 3),
    metro!("Santiago", "CL", -33.4489, -70.6693, 3),
    metro!("Bogota", "CO", 4.7110, -74.0721, 2),
    // Asia-Pacific, Africa, Middle East.
    metro!("Tokyo", "JP", 35.6762, 139.6503, 5),
    metro!("Seoul", "KR", 37.5665, 126.9780, 4),
    metro!("Singapore", "SG", 1.3521, 103.8198, 5),
    metro!("Hong Kong", "HK", 22.3193, 114.1694, 4),
    metro!("Taipei", "TW", 25.0330, 121.5654, 3),
    metro!("Mumbai", "IN", 19.0760, 72.8777, 4),
    metro!("Sydney", "AU", -33.8688, 151.2093, 4),
    metro!("Auckland", "NZ", -36.8485, 174.7633, 2),
    metro!("Johannesburg", "ZA", -26.2041, 28.0473, 3),
    metro!("Nairobi", "KE", -1.2921, 36.8219, 2),
    metro!("Tel Aviv", "IL", 32.0853, 34.7818, 3),
];

/// Total number of M-Lab sites described by the catalogue.
pub fn total_sites() -> usize {
    WORLD_CITIES.iter().map(|c| c.sites as usize).sum()
}

/// Number of distinct countries in the catalogue.
pub fn country_count() -> usize {
    let mut cc: Vec<&str> = WORLD_CITIES.iter().map(|c| c.country).collect();
    cc.sort_unstable();
    cc.dedup();
    cc.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::haversine_km;

    #[test]
    fn matches_mlab_footprint() {
        assert_eq!(total_sites(), 210, "paper: 210 sites");
        assert_eq!(country_count(), 47, "paper: 47 countries");
    }

    #[test]
    fn no_sites_in_ukraine_or_russia() {
        assert!(WORLD_CITIES.iter().all(|c| c.country != "UA" && c.country != "RU"));
    }

    #[test]
    fn nearest_metro_to_kyiv_is_a_close_eu_hub() {
        let kyiv = LatLon { lat: 50.4501, lon: 30.5234 };
        let nearest = WORLD_CITIES
            .iter()
            .min_by(|a, b| {
                haversine_km(a.loc, kyiv).partial_cmp(&haversine_km(b.loc, kyiv)).unwrap()
            })
            .unwrap();
        // Kyiv's closest catalogue metros are Chisinau/Warsaw-tier hubs,
        // within ~800 km.
        assert!(haversine_km(nearest.loc, kyiv) < 800.0, "nearest = {}", nearest.name);
    }

    #[test]
    fn every_metro_hosts_at_least_one_site() {
        assert!(WORLD_CITIES.iter().all(|c| c.sites >= 1));
    }
}
