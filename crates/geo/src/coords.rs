//! Geographic coordinates and great-circle distance.

/// A WGS-84 latitude/longitude pair in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatLon {
    pub lat: f64,
    pub lon: f64,
}

impl LatLon {
    /// Creates a coordinate pair.
    ///
    /// # Panics
    /// Panics if latitude is outside `[-90, 90]` or longitude outside
    /// `[-180, 180]`.
    pub fn new(lat: f64, lon: f64) -> Self {
        assert!((-90.0..=90.0).contains(&lat), "latitude out of range: {lat}");
        assert!((-180.0..=180.0).contains(&lon), "longitude out of range: {lon}");
        Self { lat, lon }
    }
}

/// Mean Earth radius in kilometres (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Haversine great-circle distance in kilometres.
///
/// Used by the M-Lab load balancer ("a load balancing service directs each
/// client to a measurement site that is geographically nearest to them",
/// paper §3) and by the geolocation error model's 25 km accuracy radius.
pub fn haversine_km(a: LatLon, b: LatLon) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = LatLon::new(50.45, 30.52);
        assert_eq!(haversine_km(p, p), 0.0);
    }

    #[test]
    fn kyiv_to_lviv_distance() {
        // Kyiv (50.4501 N, 30.5234 E) to Lviv (49.8397 N, 24.0297 E) is
        // roughly 470 km great-circle.
        let kyiv = LatLon::new(50.4501, 30.5234);
        let lviv = LatLon::new(49.8397, 24.0297);
        let d = haversine_km(kyiv, lviv);
        assert!((d - 470.0).abs() < 10.0, "d = {d}");
    }

    #[test]
    fn symmetric() {
        let a = LatLon::new(10.0, 20.0);
        let b = LatLon::new(-30.0, 150.0);
        assert!((haversine_km(a, b) - haversine_km(b, a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = LatLon::new(0.0, 0.0);
        let b = LatLon::new(0.0, 180.0);
        let d = haversine_km(a, b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "d = {d}");
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn rejects_bad_latitude() {
        LatLon::new(91.0, 0.0);
    }
}
