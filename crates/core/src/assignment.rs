//! Assignment state: the decision variables `λ` and `γ`.
//!
//! Constraint (1) — every user subscribes to exactly one agent — and
//! constraint (3) — every transcoding task runs at exactly one agent —
//! are enforced *structurally*: the assignment is a total map from users
//! and tasks to agents, so the binary variables `λ_lu`/`γ_lruv` of the
//! paper can never violate them.

use crate::{TaskId, UapProblem};
use std::fmt;
use vc_model::{AgentId, UserId};

/// A complete assignment: `λ` (user → agent) and `γ` (task → agent).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    user_agent: Vec<AgentId>,
    task_agent: Vec<AgentId>,
}

impl Assignment {
    /// Creates an assignment from explicit maps.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths disagree with the problem dimensions.
    pub fn new(problem: &UapProblem, user_agent: Vec<AgentId>, task_agent: Vec<AgentId>) -> Self {
        assert_eq!(
            user_agent.len(),
            problem.instance().num_users(),
            "user map must cover all users"
        );
        assert_eq!(
            task_agent.len(),
            problem.tasks().len(),
            "task map must cover all tasks"
        );
        let nl = problem.instance().num_agents();
        for a in user_agent.iter().chain(task_agent.iter()) {
            assert!(a.index() < nl, "agent {a} out of range");
        }
        Self {
            user_agent,
            task_agent,
        }
    }

    /// Everyone — users and tasks — on a single agent. A trivially valid
    /// (though rarely feasible) starting point.
    pub fn all_to_agent(problem: &UapProblem, agent: AgentId) -> Self {
        Self::new(
            problem,
            vec![agent; problem.instance().num_users()],
            vec![agent; problem.tasks().len()],
        )
    }

    /// `λ(u)`: the agent user `u` subscribes to.
    #[inline]
    pub fn agent_of_user(&self, u: UserId) -> AgentId {
        self.user_agent[u.index()]
    }

    /// `γ(t)`: the agent running task `t`.
    #[inline]
    pub fn agent_of_task(&self, t: TaskId) -> AgentId {
        self.task_agent[t.index()]
    }

    /// Reassigns user `u` to `agent`.
    pub fn set_user(&mut self, u: UserId, agent: AgentId) {
        self.user_agent[u.index()] = agent;
    }

    /// Reassigns task `t` to `agent`.
    pub fn set_task(&mut self, t: TaskId, agent: AgentId) {
        self.task_agent[t.index()] = agent;
    }

    /// Applies a single-decision change, returning the previous agent.
    pub fn apply(&mut self, decision: Decision) -> AgentId {
        match decision {
            Decision::User(u, a) => std::mem::replace(&mut self.user_agent[u.index()], a),
            Decision::Task(t, a) => std::mem::replace(&mut self.task_agent[t.index()], a),
        }
    }

    /// Grows the assignment to a problem whose universe was extended
    /// online: new users and tasks start on agent 0, exactly like a
    /// fresh slot (open-world growth never moves an existing decision).
    ///
    /// # Panics
    ///
    /// Panics if the problem is *smaller* than the assignment — growth
    /// is append-only.
    pub fn grow(&mut self, problem: &UapProblem) {
        let (nu, nt) = (problem.instance().num_users(), problem.tasks().len());
        assert!(
            nu >= self.user_agent.len() && nt >= self.task_agent.len(),
            "assignment covers more than the problem — growth is append-only"
        );
        self.user_agent.resize(nu, AgentId::new(0));
        self.task_agent.resize(nt, AgentId::new(0));
    }

    /// The user→agent map.
    pub fn user_agents(&self) -> &[AgentId] {
        &self.user_agent
    }

    /// The task→agent map.
    pub fn task_agents(&self) -> &[AgentId] {
        &self.task_agent
    }

    /// Number of decisions (users + tasks) on which two assignments differ —
    /// the Hamming distance of the Markov chain's state graph.
    pub fn hamming_distance(&self, other: &Assignment) -> usize {
        assert_eq!(self.user_agent.len(), other.user_agent.len());
        assert_eq!(self.task_agent.len(), other.task_agent.len());
        let du = self
            .user_agent
            .iter()
            .zip(&other.user_agent)
            .filter(|(a, b)| a != b)
            .count();
        let dt = self
            .task_agent
            .iter()
            .zip(&other.task_agent)
            .filter(|(a, b)| a != b)
            .count();
        du + dt
    }
}

/// A single-decision change: exactly one `λ` or `γ` variable flips.
///
/// The Markov chain of Alg. 1 only links states that differ by one such
/// decision, which keeps migration overhead minimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Move user to agent.
    User(UserId, AgentId),
    /// Move transcoding task to agent.
    Task(TaskId, AgentId),
}

impl Decision {
    /// The agent the decision moves its user or task to.
    pub fn target(self) -> AgentId {
        let (Decision::User(_, a) | Decision::Task(_, a)) = self;
        a
    }

    /// The decision moving the same user or task to `a` instead.
    pub fn retarget(self, a: AgentId) -> Self {
        match self {
            Decision::User(u, _) => Decision::User(u, a),
            Decision::Task(t, _) => Decision::Task(t, a),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::User(u, a) => write!(f, "{u}→{a}"),
            Decision::Task(t, a) => write!(f, "{t}→{a}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::small_problem;

    #[test]
    fn all_to_agent_is_total() {
        let p = small_problem();
        let a = Assignment::all_to_agent(&p, AgentId::new(1));
        for u in p.instance().user_ids() {
            assert_eq!(a.agent_of_user(u), AgentId::new(1));
        }
        for (t, _) in p.tasks().iter() {
            assert_eq!(a.agent_of_task(t), AgentId::new(1));
        }
    }

    #[test]
    fn apply_returns_previous_agent() {
        let p = small_problem();
        let mut a = Assignment::all_to_agent(&p, AgentId::new(0));
        let prev = a.apply(Decision::User(UserId::new(0), AgentId::new(1)));
        assert_eq!(prev, AgentId::new(0));
        assert_eq!(a.agent_of_user(UserId::new(0)), AgentId::new(1));
    }

    #[test]
    fn hamming_distance_counts_changes() {
        let p = small_problem();
        let a = Assignment::all_to_agent(&p, AgentId::new(0));
        let mut b = a.clone();
        assert_eq!(a.hamming_distance(&b), 0);
        b.apply(Decision::User(UserId::new(1), AgentId::new(1)));
        assert_eq!(a.hamming_distance(&b), 1);
        if !p.tasks().is_empty() {
            b.apply(Decision::Task(TaskId::new(0), AgentId::new(1)));
            assert_eq!(a.hamming_distance(&b), 2);
        }
    }

    #[test]
    #[should_panic(expected = "agent")]
    fn out_of_range_agent_panics() {
        let p = small_problem();
        let _ = Assignment::new(
            &p,
            vec![AgentId::new(99); p.instance().num_users()],
            vec![AgentId::new(0); p.tasks().len()],
        );
    }

    #[test]
    #[should_panic(expected = "user map")]
    fn wrong_user_len_panics() {
        let p = small_problem();
        let _ = Assignment::new(&p, vec![], vec![AgentId::new(0); p.tasks().len()]);
    }
}
