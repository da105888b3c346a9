//! Migration overhead accounting.
//!
//! When a user migrates to a new agent mid-conference, the prototype
//! keeps *both* assignments live for a short interval — "less than 30 ms
//! on average according to the user-to-agent distances" — so the other
//! participants never see a frozen frame. The price is redundant
//! transmission: "around 13.2 Kb corresponding to 240p representation"
//! per migration, negligible against the traffic reduction migration
//! brings. Transcoding-task migrations use segmentation-based switching
//! (finish the current segment at the old agent, start the next at the
//! new one), costing no duplicate stream but a bounded switch-over time.

use vc_core::{Decision, SystemState};
use vc_model::AgentId;

/// Overhead model for live migrations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Extra dual-feed margin beyond the new agent's propagation delay (ms).
    pub handshake_ms: f64,
    /// Segment length for segmentation-based transcoder switching (ms).
    pub segment_ms: f64,
}

impl Default for MigrationModel {
    fn default() -> Self {
        Self {
            handshake_ms: 5.0,
            segment_ms: 1000.0,
        }
    }
}

/// Accumulated migration overhead over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MigrationStats {
    /// Number of user migrations.
    pub user_migrations: usize,
    /// Number of transcoding-task migrations.
    pub task_migrations: usize,
    /// Total redundant dual-feed traffic (kilobits).
    pub redundant_kb: f64,
    /// Total dual-feed time across migrations (ms).
    pub overlap_ms: f64,
}

impl MigrationModel {
    /// The dual-feed overlap a user migration needs: the time to establish
    /// the stream towards the new agent (its one-way user delay) plus the
    /// handshake margin.
    pub fn overlap_ms(&self, state: &SystemState, user: vc_model::UserId, to: AgentId) -> f64 {
        state.problem().instance().h_ms(to, user) + self.handshake_ms
    }

    /// Accounts one applied migration into `stats`. `decision` is the
    /// migration that was *committed* (the user's upstream is duplicated
    /// for the overlap window; task switches are segment-aligned).
    pub fn record(&self, state: &SystemState, decision: Decision, stats: &mut MigrationStats) {
        match decision {
            Decision::User(u, to) => {
                let overlap = self.overlap_ms(state, u, to);
                let upstream_mbps = state
                    .problem()
                    .instance()
                    .kappa(state.problem().instance().user(u).upstream());
                stats.user_migrations += 1;
                stats.overlap_ms += overlap;
                // Mbps × ms = kilobits.
                stats.redundant_kb += upstream_mbps * overlap;
            }
            Decision::Task(_, _) => {
                stats.task_migrations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vc_core::{Assignment, SystemState, UapProblem};
    use vc_cost::CostModel;
    use vc_model::{AgentSpec, InstanceBuilder, ReprLadder, UserId};

    fn state() -> SystemState {
        let ladder = ReprLadder::prototype_two();
        let r240 = ladder.by_name("240p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        let s = b.add_session();
        b.add_user(s, r240, r240);
        b.add_user(s, r240, r240);
        b.symmetric_delays(|_, _| 50.0, |_, _| 25.0);
        let p = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&p, vc_model::AgentId::new(0));
        SystemState::new(p, asg)
    }

    #[test]
    fn user_migration_costs_match_paper_magnitude() {
        // 240p (0.44 Mbps) duplicated for ~30 ms ≈ 13.2 Kb — the paper's
        // reported migration cost.
        let st = state();
        let model = MigrationModel {
            handshake_ms: 5.0,
            segment_ms: 1000.0,
        };
        let mut stats = MigrationStats::default();
        model.record(
            &st,
            Decision::User(UserId::new(0), vc_model::AgentId::new(1)),
            &mut stats,
        );
        assert_eq!(stats.user_migrations, 1);
        // overlap = 25 (H) + 5 (handshake) = 30 ms; 0.44 Mbps × 30 ms = 13.2 Kb.
        assert!((stats.overlap_ms - 30.0).abs() < 1e-9);
        assert!((stats.redundant_kb - 13.2).abs() < 1e-9);
    }

    #[test]
    fn task_migrations_cost_no_redundant_stream() {
        let st = state();
        let model = MigrationModel::default();
        let mut stats = MigrationStats::default();
        model.record(
            &st,
            Decision::Task(vc_core::TaskId::new(0), vc_model::AgentId::new(1)),
            &mut stats,
        );
        assert_eq!(stats.task_migrations, 1);
        assert_eq!(stats.redundant_kb, 0.0);
    }
}
