//! Transcoding-task placement: the rule of thumb of Sec. IV-B.
//!
//! "When there are at least two destinations with the same downstream
//! representation for the outgoing flow of a particular user, assigning
//! the respective transcoding task at the source agent is a good
//! solution, whose transcoded stream can be served to more than one
//! destination." Singleton tasks go to the destination's agent (the
//! transcoded — usually lower — bitrate then crosses the inter-agent
//! link instead of the raw stream crossing it twice).

use vc_core::{TaskId, UapProblem};
use vc_model::{AgentId, ReprId, SessionId, UserId};

/// A task keyed by the transcoded stream it consumes; sorting these
/// groups the destinations of one stream together.
pub(crate) type StreamKey = (UserId, ReprId, TaskId);

/// Places every transcoding task given a user→agent map, following the
/// rule of thumb. Returns one agent per task, indexed by [`TaskId`].
///
/// # Panics
///
/// Panics if `user_agent.len()` differs from the instance's user count.
pub fn rule_of_thumb(problem: &UapProblem, user_agent: &[AgentId]) -> Vec<AgentId> {
    assert_eq!(
        user_agent.len(),
        problem.instance().num_users(),
        "user→agent map must cover all users"
    );
    let mut placement = vec![AgentId::new(0); problem.tasks().len()];
    apply_rule(
        problem,
        problem.tasks().iter().map(|(t, _)| t),
        |u| user_agent[u.index()],
        |t, a| placement[t.index()] = a,
        &mut Vec::new(),
    );
    placement
}

/// The rule proper, shared by the whole-instance and session-scoped
/// entry points: group tasks by (source, target representation) — the
/// destinations of the same transcoded stream — then transcode shared
/// streams once at the source agent and singletons at the destination
/// agent. Grouping sorts `keys` (a caller-owned buffer, so the
/// admission path allocates nothing here); each task's agent depends
/// only on its own group, never on the order groups are visited in.
fn apply_rule(
    problem: &UapProblem,
    task_ids: impl Iterator<Item = TaskId>,
    agent_of: impl Fn(UserId) -> AgentId,
    mut assign: impl FnMut(TaskId, AgentId),
    keys: &mut Vec<StreamKey>,
) {
    keys.clear();
    keys.extend(task_ids.map(|t| {
        let task = problem.tasks().task(t);
        (task.src, task.target, t)
    }));
    keys.sort_unstable();
    for group in keys.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if let [(_, _, t)] = group {
            // Single destination: transcode at the destination agent.
            assign(*t, agent_of(problem.tasks().task(*t).dst));
        } else {
            // Shared stream: transcode once at the source agent.
            let agent = agent_of(group[0].0);
            for &(_, _, t) in group {
                assign(t, agent);
            }
        }
    }
}

/// [`rule_of_thumb`] restricted to one session: places only that
/// session's tasks given its members' agents, at O(|session tasks|)
/// cost instead of a pass over the whole instance. Returns
/// `(task, agent)` pairs ascending by task id.
///
/// # Panics
///
/// Panics if a task endpoint of session `s` is missing from `users`.
pub fn rule_of_thumb_session(
    problem: &UapProblem,
    s: SessionId,
    users: &[(UserId, AgentId)],
) -> Vec<(TaskId, AgentId)> {
    let mut out = Vec::new();
    rule_of_thumb_session_into(problem, s, users, &mut Vec::new(), &mut out);
    out
}

/// [`rule_of_thumb_session`] into caller-owned buffers (`out` is
/// cleared first) — the admission search calls this once per candidate
/// placement.
pub(crate) fn rule_of_thumb_session_into(
    problem: &UapProblem,
    s: SessionId,
    users: &[(UserId, AgentId)],
    keys: &mut Vec<StreamKey>,
    out: &mut Vec<(TaskId, AgentId)>,
) {
    out.clear();
    apply_rule(
        problem,
        problem.tasks().of_session(s).iter().copied(),
        |u| {
            users
                .iter()
                .find(|&&(v, _)| v == u)
                .map(|&(_, a)| a)
                .expect("session user present in placement")
        },
        |t, a| out.push((t, a)),
        keys,
    );
    // Groups are visited in stream order; pin the output to task order.
    out.sort_unstable_by_key(|&(t, _)| t);
}

/// Ablation variant: every transcoding task at the *source* user's agent.
///
/// # Panics
///
/// Panics if `user_agent.len()` differs from the instance's user count.
pub fn always_source(problem: &UapProblem, user_agent: &[AgentId]) -> Vec<AgentId> {
    assert_eq!(user_agent.len(), problem.instance().num_users());
    problem
        .tasks()
        .iter()
        .map(|(_, task)| user_agent[task.src.index()])
        .collect()
}

/// Ablation variant: every transcoding task at the *destination* user's
/// agent.
///
/// # Panics
///
/// Panics if `user_agent.len()` differs from the instance's user count.
pub fn always_destination(problem: &UapProblem, user_agent: &[AgentId]) -> Vec<AgentId> {
    assert_eq!(user_agent.len(), problem.instance().num_users());
    problem
        .tasks()
        .iter()
        .map(|(_, task)| user_agent[task.dst.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fan_out_problem, single_task_problem};

    #[test]
    fn singleton_goes_to_destination_agent() {
        let p = single_task_problem();
        // u0 on agent 0, u1 on agent 1; the only task is u0→u1.
        let user_agent = vec![AgentId::new(0), AgentId::new(1)];
        let placement = rule_of_thumb(&p, &user_agent);
        assert_eq!(placement, vec![AgentId::new(1)]);
    }

    #[test]
    fn shared_group_goes_to_source_agent() {
        let p = fan_out_problem();
        // u0 (source) on agent 2; destinations u1, u2 elsewhere. Both
        // tasks demand the same 360p target → place at source agent 2.
        let user_agent = vec![AgentId::new(2), AgentId::new(0), AgentId::new(1)];
        let placement = rule_of_thumb(&p, &user_agent);
        for (t, task) in p.tasks().iter() {
            assert_eq!(task.src, vc_model::UserId::new(0));
            assert_eq!(placement[t.index()], AgentId::new(2));
        }
    }

    #[test]
    fn session_scoped_matches_whole_instance() {
        for p in [single_task_problem(), fan_out_problem()] {
            let nl = 3u32;
            let user_agent: Vec<AgentId> = (0..p.instance().num_users())
                .map(|u| AgentId::new(u as u32 % nl))
                .collect();
            let full = rule_of_thumb(&p, &user_agent);
            for s in p.instance().session_ids() {
                let users: Vec<(vc_model::UserId, AgentId)> = p
                    .instance()
                    .session(s)
                    .users()
                    .iter()
                    .map(|&u| (u, user_agent[u.index()]))
                    .collect();
                for (t, a) in rule_of_thumb_session(&p, s, &users) {
                    assert_eq!(a, full[t.index()], "task {t:?} diverged");
                }
            }
        }
    }

    #[test]
    fn placement_follows_user_moves() {
        let p = single_task_problem();
        let a = rule_of_thumb(&p, &[AgentId::new(0), AgentId::new(0)]);
        assert_eq!(a, vec![AgentId::new(0)]);
        let b = rule_of_thumb(&p, &[AgentId::new(1), AgentId::new(0)]);
        assert_eq!(b, vec![AgentId::new(0)]);
    }
}
