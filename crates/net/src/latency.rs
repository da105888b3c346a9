//! Fiber-propagation latency model and delay-matrix construction.
//!
//! One-way delay between two points is modeled as
//!
//! ```text
//! one_way_ms = distance_km / 200 (speed of light in fiber, km/ms)
//!              × route_inflation
//!              + access_base_ms
//! ```
//!
//! Route inflation accounts for non-geodesic fiber paths and routing
//! detours (typically 1.3–2.0 in measurement studies); the access base
//! models last-mile and processing overheads. The defaults are calibrated
//! so the model lands near the measured Fig. 2 edge values (e.g.
//! HK→TO ≈ 27 ms, TO→OR ≈ 67 ms).

use crate::geo::GeoPoint;
use rand::Rng;
use vc_model::{DelayMatrices, Matrix, ModelError};

/// Speed of light in optical fiber, in km per millisecond (≈ ⅔·c).
pub const FIBER_KM_PER_MS: f64 = 200.0;

/// Deterministic one-way latency model between geographic points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    route_inflation: f64,
    access_base_ms: f64,
}

impl LatencyModel {
    /// Creates a model with the given route inflation (≥ 1) and access
    /// base (≥ 0 ms).
    ///
    /// # Panics
    ///
    /// Panics if `route_inflation < 1` or `access_base_ms < 0`.
    pub fn new(route_inflation: f64, access_base_ms: f64) -> Self {
        assert!(route_inflation >= 1.0, "route inflation must be ≥ 1");
        assert!(access_base_ms >= 0.0, "access base must be ≥ 0");
        Self {
            route_inflation,
            access_base_ms,
        }
    }

    /// Route inflation factor.
    pub fn route_inflation(&self) -> f64 {
        self.route_inflation
    }

    /// Access base in milliseconds.
    pub fn access_base_ms(&self) -> f64 {
        self.access_base_ms
    }

    /// One-way propagation delay between two points in ms.
    pub fn one_way_ms(&self, a: GeoPoint, b: GeoPoint) -> f64 {
        a.distance_km(b) / FIBER_KM_PER_MS * self.route_inflation + self.access_base_ms
    }

    /// One-way delay with multiplicative jitter drawn uniformly from
    /// `[1−jitter_frac, 1+jitter_frac]`.
    pub fn one_way_jittered_ms<R: Rng + ?Sized>(
        &self,
        a: GeoPoint,
        b: GeoPoint,
        jitter_frac: f64,
        rng: &mut R,
    ) -> f64 {
        let jitter = 1.0 + jitter_frac * (2.0 * rng.gen::<f64>() - 1.0);
        self.one_way_ms(a, b) * jitter.max(0.0)
    }
}

impl Default for LatencyModel {
    /// Calibrated against the Fig. 2 measured edges: inflation 1.55,
    /// access base 4 ms.
    fn default() -> Self {
        Self::new(1.55, 4.0)
    }
}

/// Builds the `D`/`H` delay-matrix pair from agent and user locations.
///
/// Inter-agent delays are symmetric; per-pair jitter (if any) is applied
/// once per unordered pair. A `jitter_frac` of 0 yields the deterministic
/// model.
///
/// # Errors
///
/// Propagates [`ModelError::InvalidDelays`] if the generated values are
/// invalid (cannot happen for finite coordinates).
pub fn build_delay_matrices<R: Rng + ?Sized>(
    model: &LatencyModel,
    agents: &[GeoPoint],
    users: &[GeoPoint],
    jitter_frac: f64,
    rng: &mut R,
) -> Result<DelayMatrices, ModelError> {
    let nl = agents.len();
    let nu = users.len();
    let mut d = Matrix::filled(nl, nl, 0.0);
    for l in 0..nl {
        for k in (l + 1)..nl {
            let v = if jitter_frac > 0.0 {
                model.one_way_jittered_ms(agents[l], agents[k], jitter_frac, rng)
            } else {
                model.one_way_ms(agents[l], agents[k])
            };
            d.set(l, k, v);
            d.set(k, l, v);
        }
    }
    let mut h = Matrix::filled(nl, nu, 0.0);
    for (l, &agent) in agents.iter().enumerate() {
        for (u, &user) in users.iter().enumerate() {
            let v = if jitter_frac > 0.0 {
                model.one_way_jittered_ms(agent, user, jitter_frac, rng)
            } else {
                model.one_way_ms(agent, user)
            };
            h.set(l, u, v);
        }
    }
    DelayMatrices::new(d, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{ec2_region, metro};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn calibration_against_fig2_edges() {
        let m = LatencyModel::default();
        let hk = metro("hong-kong").unwrap().point();
        let to = ec2_region("ec2-tokyo").unwrap().point();
        let sg = ec2_region("ec2-singapore").unwrap().point();
        let or = ec2_region("ec2-oregon").unwrap().point();
        // Paper: HK→TO 27 ms, HK→SG 20 ms, TO→OR 67 ms, SG→OR 117 ms.
        let hk_to = m.one_way_ms(hk, to);
        let hk_sg = m.one_way_ms(hk, sg);
        let to_or = m.one_way_ms(to, or);
        let sg_or = m.one_way_ms(sg, or);
        assert!((20.0..35.0).contains(&hk_to), "hk-to {hk_to}");
        assert!((15.0..30.0).contains(&hk_sg), "hk-sg {hk_sg}");
        assert!((55.0..80.0).contains(&to_or), "to-or {to_or}");
        assert!((90.0..135.0).contains(&sg_or), "sg-or {sg_or}");
        // Relative order matches the paper's measurements.
        assert!(hk_sg < hk_to);
        assert!(to_or < sg_or);
    }

    #[test]
    fn matrices_are_valid_and_symmetric() {
        let m = LatencyModel::default();
        let agents: Vec<GeoPoint> = crate::sites::ec2_seven()
            .iter()
            .map(|s| s.point())
            .collect();
        let users: Vec<GeoPoint> = ["hong-kong", "london", "seattle"]
            .iter()
            .map(|n| metro(n).unwrap().point())
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let dm = build_delay_matrices(&m, &agents, &users, 0.1, &mut rng).unwrap();
        assert_eq!(dm.num_agents(), 7);
        assert_eq!(dm.num_users(), 3);
        for l in 0..7 {
            for k in 0..7 {
                let lk = dm.inter_agent().at(l, k);
                let kl = dm.inter_agent().at(k, l);
                assert!((lk - kl).abs() < 1e-12, "asymmetric at {l},{k}");
            }
            assert_eq!(dm.inter_agent().at(l, l), 0.0);
        }
    }

    #[test]
    fn jitter_zero_is_deterministic() {
        let m = LatencyModel::default();
        let agents = vec![GeoPoint::new(0.0, 0.0), GeoPoint::new(20.0, 20.0)];
        let users = vec![GeoPoint::new(10.0, 10.0)];
        let a =
            build_delay_matrices(&m, &agents, &users, 0.0, &mut StdRng::seed_from_u64(1)).unwrap();
        let b =
            build_delay_matrices(&m, &agents, &users, 0.0, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "route inflation")]
    fn inflation_below_one_panics() {
        let _ = LatencyModel::new(0.9, 0.0);
    }
}
