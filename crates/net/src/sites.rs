//! Catalogs of real-world sites: EC2 regions (agents) and PlanetLab-style
//! metros (users).
//!
//! The paper places agents in 6–7 EC2 regions and users on 256 PlanetLab
//! nodes. PlanetLab's node population was concentrated at universities in
//! North America and Europe with a long tail in Asia, Oceania and South
//! America; [`SiteSampler`] reproduces that mix.

use crate::geo::GeoPoint;
use rand::Rng;
use std::sync::OnceLock;

/// Coarse world region of a site, used to weight user sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// United States and Canada.
    NorthAmerica,
    /// Central and South America.
    SouthAmerica,
    /// Europe (including the UK).
    Europe,
    /// East, South-East and South Asia, Middle East.
    Asia,
    /// Australia and New Zealand.
    Oceania,
}

/// A named geographic site.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    name: &'static str,
    point: GeoPoint,
    region: Region,
}

impl Site {
    fn new(name: &'static str, lat: f64, lon: f64, region: Region) -> Self {
        Self {
            name,
            point: GeoPoint::new(lat, lon),
            region,
        }
    }

    /// Site name, e.g. `"ec2-tokyo"` or `"hong-kong"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Geographic location.
    pub fn point(&self) -> GeoPoint {
        self.point
    }

    /// World region.
    pub fn region(&self) -> Region {
        self.region
    }
}

/// The nine 2015-era EC2 regions, usable as cloud agent sites.
pub fn ec2_regions() -> &'static [Site] {
    static REGIONS: OnceLock<Vec<Site>> = OnceLock::new();
    REGIONS.get_or_init(|| {
        vec![
            Site::new("ec2-virginia", 38.95, -77.45, Region::NorthAmerica),
            Site::new("ec2-oregon", 45.84, -119.70, Region::NorthAmerica),
            Site::new("ec2-california", 37.35, -121.95, Region::NorthAmerica),
            Site::new("ec2-ireland", 53.33, -6.25, Region::Europe),
            Site::new("ec2-frankfurt", 50.11, 8.68, Region::Europe),
            Site::new("ec2-tokyo", 35.68, 139.69, Region::Asia),
            Site::new("ec2-singapore", 1.35, 103.82, Region::Asia),
            Site::new("ec2-sydney", -33.87, 151.21, Region::Oceania),
            Site::new("ec2-sao-paulo", -23.55, -46.63, Region::SouthAmerica),
        ]
    })
}

/// Looks an EC2 region up by name (`"ec2-tokyo"`, ...).
pub fn ec2_region(name: &str) -> Option<&'static Site> {
    ec2_regions().iter().find(|s| s.name == name)
}

/// The seven EC2 regions used by the paper's Internet-scale experiments.
pub fn ec2_seven() -> Vec<&'static Site> {
    [
        "ec2-virginia",
        "ec2-oregon",
        "ec2-ireland",
        "ec2-frankfurt",
        "ec2-tokyo",
        "ec2-singapore",
        "ec2-sao-paulo",
    ]
    .iter()
    .map(|n| ec2_region(n).expect("region exists"))
    .collect()
}

/// PlanetLab-style metro areas where conferencing users live.
pub fn planetlab_metros() -> &'static [Site] {
    static METROS: OnceLock<Vec<Site>> = OnceLock::new();
    METROS.get_or_init(|| {
        use Region::*;
        vec![
            // North America (PlanetLab's historical core).
            Site::new("seattle", 47.61, -122.33, NorthAmerica),
            Site::new("berkeley", 37.87, -122.27, NorthAmerica),
            Site::new("los-angeles", 34.05, -118.24, NorthAmerica),
            Site::new("salt-lake-city", 40.76, -111.89, NorthAmerica),
            Site::new("boulder", 40.01, -105.27, NorthAmerica),
            Site::new("austin", 30.27, -97.74, NorthAmerica),
            Site::new("chicago", 41.88, -87.63, NorthAmerica),
            Site::new("urbana", 40.11, -88.21, NorthAmerica),
            Site::new("madison", 43.07, -89.40, NorthAmerica),
            Site::new("pittsburgh", 40.44, -79.99, NorthAmerica),
            Site::new("princeton", 40.34, -74.66, NorthAmerica),
            Site::new("cambridge-ma", 42.37, -71.11, NorthAmerica),
            Site::new("new-york", 40.71, -74.01, NorthAmerica),
            Site::new("washington-dc", 38.91, -77.04, NorthAmerica),
            Site::new("atlanta", 33.75, -84.39, NorthAmerica),
            Site::new("gainesville", 29.65, -82.32, NorthAmerica),
            Site::new("toronto", 43.65, -79.38, NorthAmerica),
            Site::new("vancouver", 49.28, -123.12, NorthAmerica),
            // Europe.
            Site::new("london", 51.51, -0.13, Europe),
            Site::new("cambridge-uk", 52.21, 0.12, Europe),
            Site::new("lancaster", 54.05, -2.80, Europe),
            Site::new("dublin", 53.35, -6.26, Europe),
            Site::new("paris", 48.86, 2.35, Europe),
            Site::new("amsterdam", 52.37, 4.90, Europe),
            Site::new("ghent", 51.05, 3.73, Europe),
            Site::new("berlin", 52.52, 13.41, Europe),
            Site::new("munich", 48.14, 11.58, Europe),
            Site::new("zurich", 47.38, 8.54, Europe),
            Site::new("milan", 45.46, 9.19, Europe),
            Site::new("madrid", 40.42, -3.70, Europe),
            Site::new("lisbon", 38.72, -9.14, Europe),
            Site::new("stockholm", 59.33, 18.07, Europe),
            Site::new("helsinki", 60.17, 24.94, Europe),
            Site::new("warsaw", 52.23, 21.01, Europe),
            Site::new("prague", 50.08, 14.44, Europe),
            Site::new("vienna", 48.21, 16.37, Europe),
            // Asia & Middle East.
            Site::new("tokyo", 35.68, 139.69, Asia),
            Site::new("osaka", 34.69, 135.50, Asia),
            Site::new("seoul", 37.57, 126.98, Asia),
            Site::new("beijing", 39.90, 116.41, Asia),
            Site::new("shanghai", 31.23, 121.47, Asia),
            Site::new("hong-kong", 22.32, 114.17, Asia),
            Site::new("taipei", 25.03, 121.57, Asia),
            Site::new("singapore", 1.35, 103.82, Asia),
            Site::new("bangalore", 12.97, 77.59, Asia),
            Site::new("tel-aviv", 32.09, 34.78, Asia),
            // Oceania.
            Site::new("sydney", -33.87, 151.21, Oceania),
            Site::new("melbourne", -37.81, 144.96, Oceania),
            Site::new("auckland", -36.85, 174.76, Oceania),
            // South America.
            Site::new("sao-paulo", -23.55, -46.63, SouthAmerica),
            Site::new("rio-de-janeiro", -22.91, -43.17, SouthAmerica),
            Site::new("buenos-aires", -34.60, -58.38, SouthAmerica),
            Site::new("santiago", -33.45, -70.67, SouthAmerica),
        ]
    })
}

/// Looks a metro up by name.
pub fn metro(name: &str) -> Option<&'static Site> {
    planetlab_metros().iter().find(|s| s.name == name)
}

/// Weighted sampler of user sites matching PlanetLab's regional node mix.
#[derive(Debug, Clone)]
pub struct SiteSampler {
    weights: Vec<(Region, f64)>,
}

impl SiteSampler {
    /// PlanetLab-like mix: 45% North America, 35% Europe, 14% Asia,
    /// 3% Oceania, 3% South America.
    pub fn planetlab_mix() -> Self {
        Self {
            weights: vec![
                (Region::NorthAmerica, 0.45),
                (Region::Europe, 0.35),
                (Region::Asia, 0.14),
                (Region::Oceania, 0.03),
                (Region::SouthAmerica, 0.03),
            ],
        }
    }

    /// Samples one metro according to the regional weights.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> &'static Site {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen::<f64>() * total;
        let mut chosen = self.weights[0].0;
        for (region, w) in &self.weights {
            if x < *w {
                chosen = *region;
                break;
            }
            x -= w;
        }
        let candidates: Vec<&'static Site> = planetlab_metros()
            .iter()
            .filter(|s| s.region == chosen)
            .collect();
        candidates[rng.gen_range(0..candidates.len())]
    }

    /// Samples `n` metros (with repetition, as several PlanetLab nodes share
    /// a metro).
    pub fn sample_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<&'static Site> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn catalogs_have_expected_shape() {
        assert_eq!(ec2_regions().len(), 9);
        assert_eq!(ec2_seven().len(), 7);
        assert!(planetlab_metros().len() >= 40);
        assert!(ec2_region("ec2-tokyo").is_some());
        assert!(ec2_region("ec2-mars").is_none());
        assert!(metro("hong-kong").is_some());
    }

    #[test]
    fn site_names_are_unique() {
        let mut names: Vec<_> = planetlab_metros().iter().map(|s| s.name()).collect();
        names.extend(ec2_regions().iter().map(|s| s.name()));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn sampler_respects_regional_mix() {
        let mut rng = StdRng::seed_from_u64(42);
        let sampler = SiteSampler::planetlab_mix();
        let sites = sampler.sample_many(4000, &mut rng);
        let na = sites
            .iter()
            .filter(|s| s.region() == Region::NorthAmerica)
            .count() as f64
            / 4000.0;
        let eu = sites
            .iter()
            .filter(|s| s.region() == Region::Europe)
            .count() as f64
            / 4000.0;
        assert!((na - 0.45).abs() < 0.05, "north america share {na}");
        assert!((eu - 0.35).abs() < 0.05, "europe share {eu}");
    }

    #[test]
    fn sampler_is_deterministic_under_seed() {
        let sampler = SiteSampler::planetlab_mix();
        let a: Vec<_> = sampler
            .sample_many(50, &mut StdRng::seed_from_u64(7))
            .iter()
            .map(|s| s.name())
            .collect();
        let b: Vec<_> = sampler
            .sample_many(50, &mut StdRng::seed_from_u64(7))
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(a, b);
    }
}
