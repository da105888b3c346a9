//! Great-circle geometry over WGS-84-ish spherical Earth.

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the globe (degrees latitude/longitude).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
}

impl GeoPoint {
    /// Creates a point from degrees latitude (−90..90) and longitude (−180..180).
    ///
    /// # Panics
    ///
    /// Panics if coordinates are outside their valid ranges or non-finite.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Self {
        assert!(
            lat_deg.is_finite() && (-90.0..=90.0).contains(&lat_deg),
            "latitude out of range: {lat_deg}"
        );
        assert!(
            lon_deg.is_finite() && (-180.0..=180.0).contains(&lon_deg),
            "longitude out of range: {lon_deg}"
        );
        Self { lat_deg, lon_deg }
    }

    /// Latitude in degrees.
    pub fn lat_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees.
    pub fn lon_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOKYO: (f64, f64) = (35.6762, 139.6503);
    const SINGAPORE: (f64, f64) = (1.3521, 103.8198);
    const LONDON: (f64, f64) = (51.5074, -0.1278);
    const NEW_YORK: (f64, f64) = (40.7128, -74.0060);

    fn p(c: (f64, f64)) -> GeoPoint {
        GeoPoint::new(c.0, c.1)
    }

    #[test]
    fn distance_to_self_is_zero() {
        let t = p(TOKYO);
        assert!(t.distance_km(t).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = p(TOKYO);
        let b = p(SINGAPORE);
        assert!((a.distance_km(b) - b.distance_km(a)).abs() < 1e-9);
    }

    #[test]
    fn known_city_distances() {
        // Tokyo–Singapore ≈ 5,320 km; London–New York ≈ 5,570 km.
        let ts = p(TOKYO).distance_km(p(SINGAPORE));
        assert!((5200.0..5450.0).contains(&ts), "tokyo-singapore {ts}");
        let ln = p(LONDON).distance_km(p(NEW_YORK));
        assert!((5450.0..5700.0).contains(&ln), "london-new-york {ln}");
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((a.distance_km(b) - half).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn invalid_latitude_panics() {
        let _ = GeoPoint::new(91.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "longitude out of range")]
    fn invalid_longitude_panics() {
        let _ = GeoPoint::new(0.0, 200.0);
    }
}
