//! Pricing substrate: the cost functions of the UAP objective.
//!
//! The paper's objective is `Σ_s α1·F(d_s) + α2·G(x_s) + α3·H(y_s)` where
//!
//! * `F` is a convex increasing *delay cost* over the per-user worst
//!   receive delays `d_u` (the paper's example: their mean);
//! * `G(x_s) = Σ_l g_l(x_ls)` prices the inter-agent ingress traffic at
//!   each agent with a convex increasing `g_l`;
//! * `H(y_s) = Σ_l h_l(y_ls)` prices concurrent transcoding tasks with a
//!   convex `h_l`.
//!
//! Per-agent unit prices come from
//! [`AgentSpec`](vc_model::AgentSpec)`::price_per_mbps/price_per_task`;
//! the *shapes* (linear, quadratic, piecewise-linear) are defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod delay;
mod transcode;
mod weights;

pub use bandwidth::BandwidthCost;
pub use delay::DelayCost;
pub use transcode::TranscodeCost;
pub use weights::ObjectiveWeights;

/// Complete cost model: shapes of `g_l`, `h_l` and `F` plus the α weights.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Shape of the per-agent bandwidth cost `g_l` (scaled by the agent's
    /// `price_per_mbps`).
    pub bandwidth: BandwidthCost,
    /// Shape of the per-agent transcoding cost `h_l` (scaled by the agent's
    /// `price_per_task`).
    pub transcode: TranscodeCost,
    /// The delay cost `F` over a session's per-user delays.
    pub delay: DelayCost,
    /// Objective weights `(α1, α2, α3)`.
    pub weights: ObjectiveWeights,
}

impl CostModel {
    /// The paper's reporting setup: linear traffic cost (so `G` in cost
    /// units equals inter-agent Mbps), linear transcoding cost, mean-delay
    /// `F`, balanced weights.
    pub fn paper_default() -> Self {
        Self {
            bandwidth: BandwidthCost::linear(),
            transcode: TranscodeCost::linear(),
            delay: DelayCost::Mean,
            weights: ObjectiveWeights::balanced(),
        }
    }

    /// Replaces the weights, keeping the cost shapes.
    pub fn with_weights(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = weights;
        self
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let m = CostModel::paper_default();
        assert_eq!(m.delay, DelayCost::Mean);
        // Unit slope: cost in "dollars" equals Mbps.
        assert!((m.bandwidth.cost(7.5) - 7.5).abs() < 1e-12);
        assert!((m.transcode.cost(3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn with_weights_overrides() {
        let m = CostModel::paper_default().with_weights(ObjectiveWeights::delay_only());
        assert_eq!(m.weights.alpha_traffic(), 0.0);
        assert!(m.weights.alpha_delay() > 0.0);
    }
}
