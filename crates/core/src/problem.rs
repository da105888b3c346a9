//! The optimizable problem: instance + derived task table + cost model.

use crate::{Decision, TaskId, TaskTable};
use vc_cost::CostModel;
use vc_model::{AgentDef, AgentId, Instance, ModelError, SessionDef, SessionId, UserId};

/// A complete UAP problem: the conferencing instance, the transcoding
/// tasks derived from its `θ` matrix, and the cost model defining the
/// objective.
#[derive(Debug, Clone, PartialEq)]
pub struct UapProblem {
    instance: Instance,
    tasks: TaskTable,
    cost: CostModel,
    /// Per-user total demanded downstream bandwidth (Mbps) —
    /// `Σ_v κ(r^d_{uv})` over the user's participants. Assignment-
    /// independent, so it is computed once here instead of inside every
    /// candidate evaluation of the hop hot path.
    demanded_mbps: Vec<f64>,
}

impl UapProblem {
    /// Builds the problem from an instance and cost model (derives the
    /// task table).
    pub fn new(instance: Instance, cost: CostModel) -> Self {
        let tasks = TaskTable::build(&instance);
        let demanded_mbps = Self::compute_demanded(&instance);
        Self {
            instance,
            tasks,
            cost,
            demanded_mbps,
        }
    }

    /// Same summation order as the evaluation loop it replaces, so the
    /// cached value is bitwise identical to the inline sum.
    fn compute_demanded(instance: &Instance) -> Vec<f64> {
        instance
            .user_ids()
            .map(|u| {
                instance
                    .participants(u)
                    .map(|v| instance.kappa(instance.user(u).downstream_from(v)))
                    .sum()
            })
            .collect()
    }

    /// `Σ_v κ(r^d_{uv})`: the total last-mile downstream bandwidth user
    /// `u` demands (Mbps), independent of the assignment.
    pub fn demanded_mbps(&self, u: UserId) -> f64 {
        self.demanded_mbps[u.index()]
    }

    /// Registers a never-before-seen conference online (open-world
    /// growth): extends the instance, derives the new session's
    /// transcoding tasks, and caches its users' demanded bandwidth — all
    /// append-only, so the problem equals one built over the grown
    /// instance up front (task ids and cached `f64`s included).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`Instance::register_session`];
    /// the problem is unchanged on error.
    pub fn register_session(&mut self, def: &SessionDef) -> Result<SessionId, ModelError> {
        let s = self.instance.register_session(def)?;
        self.tasks.extend(&self.instance);
        // Same summation order as `compute_demanded` for the new tail.
        let instance = &self.instance;
        self.demanded_mbps
            .extend(instance.session(s).users().iter().map(|&u| {
                instance
                    .participants(u)
                    .map(|v| instance.kappa(instance.user(u).downstream_from(v)))
                    .sum::<f64>()
            }));
        Ok(s)
    }

    /// Registers a never-before-seen agent online (elastic capacity):
    /// extends the instance's agent pool and delay matrices. The task
    /// table and cached demands are agent-independent, so they are
    /// untouched — the grown problem equals one built over the grown
    /// instance up front.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`Instance::register_agent`]; the
    /// problem is unchanged on error.
    pub fn register_agent(&mut self, def: &AgentDef) -> Result<AgentId, ModelError> {
        self.instance.register_agent(def)
    }

    /// The underlying conferencing instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The transcoding task table.
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// The cost model (shapes of `F`, `g_l`, `h_l` and the α weights).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The position of user `u` in `session(s).users()` — `None` when
    /// `u` belongs to another session.
    pub fn local_user(&self, s: SessionId, u: UserId) -> Option<usize> {
        let users = self.instance.session(s).users();
        users.iter().position(|&w| w == u)
    }

    /// The position of task `t` in `tasks().of_session(s)` — `None`
    /// when `t` belongs to another session.
    pub fn local_task(&self, s: SessionId, t: TaskId) -> Option<usize> {
        self.tasks.of_session(s).iter().position(|&w| w == t)
    }

    /// The session-local position of `decision`'s user or task — the
    /// index every per-session placement (a compiled
    /// [`Neighborhood`](crate::neighborhood::Neighborhood), a fleet
    /// slot) is addressed by. `None` for a foreign id.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range for the problem's instance.
    pub fn local_index(&self, s: SessionId, decision: Decision) -> Option<usize> {
        match decision {
            Decision::User(u, _) => self.local_user(s, u),
            Decision::Task(t, _) => self.local_task(s, t),
        }
    }

    /// Returns a copy with a different cost model (the assignment space is
    /// unchanged, so derived tables are reused).
    pub fn with_cost(&self, cost: CostModel) -> Self {
        Self {
            instance: self.instance.clone(),
            tasks: self.tasks.clone(),
            cost,
            demanded_mbps: self.demanded_mbps.clone(),
        }
    }

    /// Dimensions of the decision space: `(users, tasks)`. The number of
    /// assignments is `L^(U + θ_sum)`, the paper's `O(L^{U+θ_sum})`.
    pub fn decision_dims(&self) -> (usize, usize) {
        (self.instance.num_users(), self.tasks.len())
    }

    /// `log |F|` upper bound used in the optimality-gap expressions
    /// (Eqs. 10/12): `(U + θ_sum) · log L`.
    pub fn log_state_space(&self) -> f64 {
        let (u, t) = self.decision_dims();
        ((u + t) as f64) * (self.instance.num_agents() as f64).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_problem;
    use vc_cost::ObjectiveWeights;

    #[test]
    fn derives_task_table() {
        let p = small_problem();
        assert_eq!(p.tasks().len(), p.instance().theta_sum());
    }

    #[test]
    fn log_state_space_matches_formula() {
        let p = small_problem();
        let (u, t) = p.decision_dims();
        let expected = ((u + t) as f64) * (p.instance().num_agents() as f64).ln();
        assert!((p.log_state_space() - expected).abs() < 1e-12);
    }

    #[test]
    fn with_cost_changes_only_cost() {
        let p = small_problem();
        let q =
            p.with_cost(CostModel::paper_default().with_weights(ObjectiveWeights::delay_only()));
        assert_eq!(p.tasks(), q.tasks());
        assert_eq!(q.cost().weights.alpha_traffic(), 0.0);
    }
}
