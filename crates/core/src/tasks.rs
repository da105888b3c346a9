//! Transcoding tasks derived from the transcoding matrix `θ`.
//!
//! For every directed flow `u→v` inside a session with `θ_{uv} = 1`
//! (i.e. `r^d_{vu} ≠ r^u_u`), constraint (3) requires exactly one agent to
//! transcode `u`'s upstream into the representation `v` demands. The
//! [`TaskTable`] enumerates those flows once, assigns them dense
//! [`TaskId`]s, and indexes them by session and by source user — the
//! latter is what the `ν_lru` occupancy computation iterates over.

use std::fmt;
use vc_model::{Instance, ReprId, SessionId, UserId};

/// Dense identifier of a transcoding task (a `(u, v)` flow with `θ = 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task id from a dense index.
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Dense index for vector addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for TaskId {
    fn from(v: usize) -> Self {
        Self(u32::try_from(v).expect("task index exceeds u32::MAX"))
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One transcoding task: convert `src`'s upstream into `target` for `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranscodeTask {
    /// Source user `u` whose stream is transcoded.
    pub src: UserId,
    /// Destination user `v` demanding the transcoded stream.
    pub dst: UserId,
    /// Target representation `r = r^d_{vu}`.
    pub target: ReprId,
}

/// Enumeration and indexing of all transcoding tasks of an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTable {
    tasks: Vec<TranscodeTask>,
    by_session: Vec<Vec<TaskId>>,
    by_src: Vec<Vec<TaskId>>,
}

impl TaskTable {
    /// Builds the task table by scanning every session's flows.
    pub fn build(instance: &Instance) -> Self {
        let mut tasks = Vec::new();
        let mut by_session = vec![Vec::new(); instance.num_sessions()];
        let mut by_src = vec![Vec::new(); instance.num_users()];
        for session in instance.sessions() {
            for (u, v) in session.flows() {
                if instance.theta(u, v) {
                    let id = TaskId::from(tasks.len());
                    tasks.push(TranscodeTask {
                        src: u,
                        dst: v,
                        target: instance.user(v).downstream_from(u),
                    });
                    by_session[session.id().index()].push(id);
                    by_src[u.index()].push(id);
                }
            }
        }
        Self {
            tasks,
            by_session,
            by_src,
        }
    }

    /// Extends the table for **whole sessions** registered online after
    /// the build (open-world growth): enumerates the new sessions'
    /// transcoding flows in the same session-then-flow order
    /// [`build`](Self::build) uses, so a grown table is **identical**
    /// to one built over the grown instance up front (dense ids
    /// included). Only sessions past the already-covered count are
    /// scanned; an instance grows by whole sessions only
    /// (`Instance::register_session`), so a covered session never
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if the instance has fewer sessions or users than the
    /// table already covers (growth is append-only).
    pub(crate) fn extend(&mut self, instance: &Instance) {
        let covered = self.by_session.len();
        assert!(
            instance.num_sessions() >= covered && instance.num_users() >= self.by_src.len(),
            "task table covers more than the instance — growth is append-only"
        );
        self.by_src.resize(instance.num_users(), Vec::new());
        for session in &instance.sessions()[covered..] {
            let mut ids = Vec::new();
            for (u, v) in session.flows() {
                if instance.theta(u, v) {
                    let id = TaskId::from(self.tasks.len());
                    self.tasks.push(TranscodeTask {
                        src: u,
                        dst: v,
                        target: instance.user(v).downstream_from(u),
                    });
                    ids.push(id);
                    self.by_src[u.index()].push(id);
                }
            }
            self.by_session.push(ids);
        }
    }

    /// Total number of tasks (`θ_sum`).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the instance needs no transcoding at all.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Task lookup.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn task(&self, t: TaskId) -> TranscodeTask {
        self.tasks[t.index()]
    }

    /// All task ids of a session.
    pub fn of_session(&self, s: SessionId) -> &[TaskId] {
        &self.by_session[s.index()]
    }

    /// All task ids whose source user is `u`.
    pub fn of_source(&self, u: UserId) -> &[TaskId] {
        &self.by_src[u.index()]
    }

    /// Iterator over `(TaskId, TranscodeTask)`.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, TranscodeTask)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::from(i), *t))
    }

    /// The task for flow `(src, dst)`, if that flow needs transcoding.
    pub fn find(&self, src: UserId, dst: UserId) -> Option<TaskId> {
        self.by_src[src.index()]
            .iter()
            .copied()
            .find(|t| self.task(*t).dst == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_model::{AgentSpec, DownstreamDemand, InstanceBuilder, ReprLadder};

    /// Two sessions:
    ///  s0: u0 (720p up, wants 360p) and u1 (360p up, wants 360p)
    ///      -> one task: u0→u1? No: u1 wants 360p of u0's 720p => task (u0,u1).
    ///         u0 wants 360p of u1's 360p => no task.
    ///  s1: u2, u3, u4 all 720p up; u2 wants 480p of everyone
    ///      -> tasks (u3,u2), (u4,u2).
    fn instance() -> Instance {
        let ladder = ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r480 = ladder.by_name("480p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        let s0 = b.add_session();
        b.add_user(s0, r720, r360);
        b.add_user(s0, r360, r360);
        let s1 = b.add_session();
        b.add_user(s1, r720, r480);
        b.add_user(s1, r720, r720);
        b.add_user(s1, r720, r720);
        b.symmetric_delays(|_, _| 10.0, |_, _| 5.0);
        b.build().unwrap()
    }

    #[test]
    fn enumerates_expected_tasks() {
        let inst = instance();
        let table = TaskTable::build(&inst);
        assert_eq!(table.len(), 3);
        assert_eq!(table.len(), inst.theta_sum());
        assert_eq!(table.of_session(SessionId::new(0)).len(), 1);
        assert_eq!(table.of_session(SessionId::new(1)).len(), 2);
    }

    #[test]
    fn task_targets_are_destination_demands() {
        let inst = instance();
        let table = TaskTable::build(&inst);
        let r480 = inst.ladder().by_name("480p").unwrap().id();
        let t = table
            .find(UserId::new(3), UserId::new(2))
            .expect("u3→u2 needs transcoding");
        assert_eq!(table.task(t).target, r480);
        assert_eq!(table.task(t).src, UserId::new(3));
        assert_eq!(table.task(t).dst, UserId::new(2));
    }

    #[test]
    fn by_source_index_is_consistent() {
        let inst = instance();
        let table = TaskTable::build(&inst);
        for (id, task) in table.iter() {
            assert!(table.of_source(task.src).contains(&id));
        }
        // u1 produces 360p and everyone in s0 wants 360p: no tasks.
        assert!(table.of_source(UserId::new(1)).is_empty());
    }

    #[test]
    fn find_returns_none_for_raw_flows() {
        let inst = instance();
        let table = TaskTable::build(&inst);
        assert!(table.find(UserId::new(1), UserId::new(0)).is_none());
        assert!(table.find(UserId::new(3), UserId::new(4)).is_none());
    }

    #[test]
    fn no_transcode_instance_yields_empty_table() {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 1.0, |_, _| 1.0);
        let inst = b.build().unwrap();
        let table = TaskTable::build(&inst);
        assert!(table.is_empty());
    }

    #[test]
    fn demand_overrides_create_specific_tasks() {
        let ladder = ReprLadder::standard_four();
        let r720 = ladder.by_name("720p").unwrap().id();
        let r360 = ladder.by_name("360p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        let s = b.add_session();
        let u0 = b.add_user(s, r720, r720);
        b.add_user_with_demand(
            s,
            r720,
            DownstreamDemand::uniform(r720).with_override(u0, r360),
        );
        b.symmetric_delays(|_, _| 1.0, |_, _| 1.0);
        let inst = b.build().unwrap();
        let table = TaskTable::build(&inst);
        assert_eq!(table.len(), 1);
        let t = table.task(TaskId::new(0));
        assert_eq!(t.src, u0);
        assert_eq!(t.target, r360);
    }
}
