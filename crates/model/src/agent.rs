//! Cloud agents: VMs leased from geo-distributed cloud sites.
//!
//! Each agent `l ∈ L` is described by the quadruple
//! `{u_l, d_l, t_l, σ_l(·)}` — upload capacity, download capacity,
//! transcoding capacity (concurrent tasks) and transcoding latency
//! (Sec. II). The latency function is shared across agents via
//! [`TranscodeLatencyModel`](crate::TranscodeLatencyModel) scaled by the
//! per-agent [`speed_factor`](AgentSpec::speed_factor): more powerful
//! agents transcode faster.

use crate::ModelError;

/// Resource capacities of one agent: the `{u_l, d_l, t_l}` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacity {
    /// Upload capacity `u_l` in Mbit/s.
    pub upload_mbps: f64,
    /// Download capacity `d_l` in Mbit/s.
    pub download_mbps: f64,
    /// Transcoding capacity `t_l`: number of concurrent transcoding tasks.
    pub transcode_slots: u32,
}

impl Capacity {
    /// Effectively unconstrained capacity, used by experiments that state
    /// "we set the capacity of agents to be large enough".
    pub const UNLIMITED: Capacity = Capacity {
        upload_mbps: f64::INFINITY,
        download_mbps: f64::INFINITY,
        transcode_slots: u32::MAX,
    };

    /// Creates a capacity triple.
    pub fn new(upload_mbps: f64, download_mbps: f64, transcode_slots: u32) -> Self {
        Self {
            upload_mbps,
            download_mbps,
            transcode_slots,
        }
    }

    /// Whether all three components are non-negative (infinite allowed).
    pub fn is_valid(&self) -> bool {
        self.upload_mbps >= 0.0 && self.download_mbps >= 0.0
    }
}

impl Default for Capacity {
    fn default() -> Self {
        Capacity::UNLIMITED
    }
}

/// Static description of one cloud agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSpec {
    name: String,
    capacity: Capacity,
    speed_factor: f64,
    price_per_mbps: f64,
    price_per_task: f64,
}

impl AgentSpec {
    /// Starts building an agent with the given site name
    /// (e.g. `"ec2-tokyo"`). Defaults: unlimited capacity, speed factor 1.0,
    /// unit prices.
    pub fn builder(name: impl Into<String>) -> AgentBuilder {
        AgentBuilder {
            spec: AgentSpec {
                name: name.into(),
                capacity: Capacity::UNLIMITED,
                speed_factor: 1.0,
                price_per_mbps: 1.0,
                price_per_task: 1.0,
            },
        }
    }

    /// Site name of the agent.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resource capacities `{u_l, d_l, t_l}`.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Transcoding-speed multiplier applied to the shared latency model:
    /// 1.0 is the reference machine, larger is slower.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Unit price of inter-agent ingress bandwidth at this agent
    /// (feeds the convex bandwidth cost `g_l`).
    pub fn price_per_mbps(&self) -> f64 {
        self.price_per_mbps
    }

    /// Unit price of one concurrent transcoding task at this agent
    /// (feeds the convex transcoding cost `h_l`).
    pub fn price_per_task(&self) -> f64 {
        self.price_per_task
    }

    /// Checks what the builder asserts, for specs that did not come
    /// through it (deserialized, journaled): both prices finite and
    /// `≥ 0`, so the cost terms `G` and `H` they scale are never
    /// negative — the objective's `Φ ≥ α1·F` floor rests on it.
    ///
    /// # Errors
    ///
    /// [`ModelError::Inconsistent`] naming the offending price.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (what, v) in [
            ("price per Mbps", self.price_per_mbps),
            ("price per task", self.price_per_task),
        ] {
            if !is_valid_price(v) {
                return Err(ModelError::Inconsistent(format!(
                    "agent {}: {what} must be finite and ≥ 0, got {v}",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

fn is_valid_price(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

#[cfg(test)]
impl AgentSpec {
    /// A default spec with the given prices installed unvalidated —
    /// what deserialization can produce and the builder cannot.
    pub(crate) fn with_prices_unchecked(name: &str, per_mbps: f64, per_task: f64) -> Self {
        let mut spec = Self::builder(name).build();
        spec.price_per_mbps = per_mbps;
        spec.price_per_task = per_task;
        spec
    }
}

/// Builder for [`AgentSpec`] (non-consuming terminal not needed; cheap clone).
#[derive(Debug, Clone)]
pub struct AgentBuilder {
    spec: AgentSpec,
}

impl AgentBuilder {
    /// Sets the upload capacity `u_l` in Mbit/s.
    pub fn upload_mbps(mut self, v: f64) -> Self {
        self.spec.capacity.upload_mbps = v;
        self
    }

    /// Sets the download capacity `d_l` in Mbit/s.
    pub fn download_mbps(mut self, v: f64) -> Self {
        self.spec.capacity.download_mbps = v;
        self
    }

    /// Sets the transcoding capacity `t_l` in concurrent tasks.
    pub fn transcode_slots(mut self, v: u32) -> Self {
        self.spec.capacity.transcode_slots = v;
        self
    }

    /// Sets the whole capacity triple at once.
    pub fn capacity(mut self, c: Capacity) -> Self {
        self.spec.capacity = c;
        self
    }

    /// Sets the transcoding-speed multiplier (1.0 = reference, larger = slower).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not strictly positive.
    pub fn speed_factor(mut self, v: f64) -> Self {
        assert!(v > 0.0, "speed factor must be positive, got {v}");
        self.spec.speed_factor = v;
        self
    }

    /// Sets the unit price of inter-agent ingress bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite.
    pub fn price_per_mbps(mut self, v: f64) -> Self {
        assert!(
            is_valid_price(v),
            "price per Mbps must be finite and ≥ 0, got {v}"
        );
        self.spec.price_per_mbps = v;
        self
    }

    /// Sets the unit price of a transcoding task.
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative or not finite.
    pub fn price_per_task(mut self, v: f64) -> Self {
        assert!(
            is_valid_price(v),
            "price per task must be finite and ≥ 0, got {v}"
        );
        self.spec.price_per_task = v;
        self
    }

    /// Finishes building the agent.
    pub fn build(self) -> AgentSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let a = AgentSpec::builder("tokyo")
            .upload_mbps(800.0)
            .download_mbps(600.0)
            .transcode_slots(40)
            .speed_factor(1.5)
            .price_per_mbps(0.02)
            .price_per_task(0.5)
            .build();
        assert_eq!(a.name(), "tokyo");
        assert_eq!(a.capacity().upload_mbps, 800.0);
        assert_eq!(a.capacity().download_mbps, 600.0);
        assert_eq!(a.capacity().transcode_slots, 40);
        assert_eq!(a.speed_factor(), 1.5);
        assert_eq!(a.price_per_mbps(), 0.02);
        assert_eq!(a.price_per_task(), 0.5);
    }

    #[test]
    fn defaults_are_unlimited_unit_price() {
        let a = AgentSpec::builder("x").build();
        assert!(a.capacity().upload_mbps.is_infinite());
        assert!(a.capacity().download_mbps.is_infinite());
        assert_eq!(a.capacity().transcode_slots, u32::MAX);
        assert_eq!(a.speed_factor(), 1.0);
        assert_eq!(a.price_per_mbps(), 1.0);
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn zero_speed_factor_panics() {
        let _ = AgentSpec::builder("x").speed_factor(0.0);
    }

    #[test]
    #[should_panic(expected = "price per Mbps must be finite and ≥ 0")]
    fn negative_bandwidth_price_panics() {
        let _ = AgentSpec::builder("x").price_per_mbps(-0.01);
    }

    #[test]
    #[should_panic(expected = "price per task must be finite and ≥ 0")]
    fn nan_task_price_panics() {
        let _ = AgentSpec::builder("x").price_per_task(f64::NAN);
    }

    /// A spec that bypassed the builder (as a deserialized one can)
    /// fails `validate` with the offending price named.
    #[test]
    fn validate_rejects_prices_the_builder_would() {
        assert!(AgentSpec::builder("x")
            .price_per_mbps(0.0)
            .build()
            .validate()
            .is_ok());
        for (mbps, task, what) in [
            (-1.0, 1.0, "price per Mbps"),
            (f64::INFINITY, 1.0, "price per Mbps"),
            (1.0, -0.5, "price per task"),
            (1.0, f64::NAN, "price per task"),
        ] {
            let err = AgentSpec::with_prices_unchecked("x", mbps, task)
                .validate()
                .expect_err("invalid price accepted");
            assert!(
                matches!(&err, ModelError::Inconsistent(m) if m.contains(what)),
                "{err}"
            );
        }
    }

    #[test]
    fn capacity_validity() {
        assert!(Capacity::UNLIMITED.is_valid());
        assert!(Capacity::new(0.0, 0.0, 0).is_valid());
        assert!(!Capacity::new(-1.0, 0.0, 0).is_valid());
    }
}
