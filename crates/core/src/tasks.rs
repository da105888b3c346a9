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
///
/// Tasks are enumerated session by session and, within a session,
/// source by source (sources in session order, as
/// `SessionSpec::flows` yields them), so both indexes are runs of one
/// id array: a session's tasks and a source's tasks are each a
/// contiguous slice of it, addressed by offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTable {
    tasks: Vec<TranscodeTask>,
    /// `ids[i] == TaskId(i)`: the one array both indexes slice.
    ids: Vec<TaskId>,
    /// `ids[session_start[s]..session_start[s + 1]]` are session `s`'s
    /// tasks (one entry per covered session, plus the end).
    session_start: Vec<u32>,
    /// `ids[source_run[u].0..source_run[u].1]` are the tasks whose
    /// source is user `u` (an empty run for a user that needs none).
    source_run: Vec<(u32, u32)>,
}

impl TaskTable {
    /// Builds the task table by scanning every session's flows.
    pub fn build(instance: &Instance) -> Self {
        let mut table = Self {
            tasks: Vec::new(),
            ids: Vec::new(),
            session_start: vec![0],
            source_run: Vec::new(),
        };
        table.extend(instance);
        table
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
        let covered = self.session_start.len() - 1;
        assert!(
            instance.num_sessions() >= covered && instance.num_users() >= self.source_run.len(),
            "task table covers more than the instance — growth is append-only"
        );
        self.source_run.resize(instance.num_users(), (0, 0));
        for session in &instance.sessions()[covered..] {
            for &u in session.users() {
                let start = self.offset();
                for &v in session.users() {
                    if v != u && instance.theta(u, v) {
                        self.ids.push(TaskId::from(self.tasks.len()));
                        self.tasks.push(TranscodeTask {
                            src: u,
                            dst: v,
                            target: instance.user(v).downstream_from(u),
                        });
                    }
                }
                self.source_run[u.index()] = (start, self.offset());
            }
            self.session_start.push(self.offset());
        }
    }

    /// The id array's length as an offset.
    fn offset(&self) -> u32 {
        u32::try_from(self.ids.len()).expect("task index exceeds u32::MAX")
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
        let s = s.index();
        &self.ids[self.session_start[s] as usize..self.session_start[s + 1] as usize]
    }

    /// All task ids whose source user is `u`.
    pub fn of_source(&self, u: UserId) -> &[TaskId] {
        let (start, end) = self.source_run[u.index()];
        &self.ids[start as usize..end as usize]
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
        self.of_source(src)
            .iter()
            .copied()
            .find(|t| self.task(*t).dst == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vc_model::{AgentSpec, DownstreamDemand, InstanceBuilder, ReprLadder, SessionDef};

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

    /// One random conference: per user, its upstream and default
    /// downstream step and its overrides as `(peer position, step)`.
    type RandomSession = Vec<(usize, usize, Vec<(usize, usize)>)>;

    /// A 1–`steps`-rung ladder over 1–5 sessions of 1–6 users each,
    /// users added session by session or round-robin across sessions
    /// (`interleave`), so a session's user ids need not be contiguous.
    fn random_instance(steps: usize, sessions: &[RandomSession], interleave: bool) -> Instance {
        let rungs = [
            ("360p", 360, 1_000),
            ("480p", 480, 2_500),
            ("720p", 720, 5_000),
            ("1080p", 1080, 8_000),
        ];
        let repr = |i: usize| ReprId::from(i % steps);
        let mut b =
            InstanceBuilder::new(ReprLadder::from_steps(rungs.into_iter().take(steps)).unwrap());
        b.add_agent(AgentSpec::builder("a").build());
        let ids: Vec<SessionId> = sessions.iter().map(|_| b.add_session()).collect();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let longest = sessions.iter().map(Vec::len).max().unwrap_or(0);
        if interleave {
            for i in 0..longest {
                order.extend(
                    (0..sessions.len())
                        .filter(|&s| i < sessions[s].len())
                        .map(|s| (s, i)),
                );
            }
        } else {
            for (s, users) in sessions.iter().enumerate() {
                order.extend((0..users.len()).map(|i| (s, i)));
            }
        }
        let mut user_of = vec![Vec::new(); sessions.len()];
        for (n, &(s, _)) in order.iter().enumerate() {
            user_of[s].push(UserId::from(n));
        }
        for &(s, i) in &order {
            let (up, down, ref overrides) = sessions[s][i];
            let peers = &user_of[s];
            let demand = overrides
                .iter()
                .fold(DownstreamDemand::uniform(repr(down)), |d, &(peer, r)| {
                    d.with_override(peers[peer % peers.len()], repr(r))
                });
            b.add_user_with_demand(ids[s], repr(up), demand);
        }
        b.symmetric_delays(|_, _| 10.0, |_, _| 5.0);
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random instances, `of_session`, `of_source` and `find`
        /// equal a brute-force scan of `session.flows()` under `θ`, and
        /// a table grown one registered session at a time equals the
        /// one [`TaskTable::build`] makes over the grown instance.
        #[test]
        fn by_source_index_is_consistent(
            steps in 1usize..=4,
            sessions in prop::collection::vec(
                prop::collection::vec(
                    (0usize..4, 0usize..4, prop::collection::vec((0usize..6, 0usize..4), 0..3)),
                    1..=6,
                ),
                1..=5,
            ),
            interleave in any::<bool>(),
            split in 1usize..=5,
        ) {
            let inst = random_instance(steps, &sessions, interleave);
            let table = TaskTable::build(&inst);
            prop_assert_eq!(table.len(), inst.theta_sum());
            for session in inst.sessions() {
                let want: Vec<(UserId, UserId)> =
                    session.flows().filter(|&(u, v)| inst.theta(u, v)).collect();
                let got: Vec<(UserId, UserId)> = (table.of_session(session.id()).iter())
                    .map(|&t| (table.task(t).src, table.task(t).dst))
                    .collect();
                prop_assert_eq!(got, want);
            }
            for u in inst.user_ids() {
                let want: Vec<TaskId> =
                    table.iter().filter(|(_, task)| task.src == u).map(|(t, _)| t).collect();
                prop_assert_eq!(table.of_source(u), &want[..]);
                for v in inst.user_ids() {
                    let found = table.find(u, v).map(|t| table.task(t));
                    let want = inst.theta(u, v).then(|| TranscodeTask {
                        src: u,
                        dst: v,
                        target: inst.user(v).downstream_from(u),
                    });
                    prop_assert_eq!(found, want);
                }
            }
            if !interleave {
                let split = split.min(inst.num_sessions());
                let mut grown = inst.prefix(split).unwrap();
                let mut grown_table = TaskTable::build(&grown);
                for s in split..inst.num_sessions() {
                    grown.register_session(&SessionDef::of_instance(&inst, SessionId::from(s))).unwrap();
                    grown_table.extend(&grown);
                }
                prop_assert_eq!(&grown, &inst);
                prop_assert_eq!(&grown_table, &table);
            }
        }
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
