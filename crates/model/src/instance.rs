//! Complete problem instances, their builder, and the open-world
//! growth API.
//!
//! An [`Instance`] bundles everything Sec. II of the paper defines:
//! sessions and users (with their representation demands), agents, delay
//! matrices, the transcoding-latency model and the delay bound `Dmax`.
//! Session arrival/departure dynamics are expressed by *activating*
//! subsets of sessions in `vc-core`'s system state rather than by
//! mutating the instance.
//!
//! ## Open-world growth
//!
//! A production conferencing service never knows its conference
//! population up front, so instances are **append-only extensible**:
//! [`Instance::register_session`] adds a whole new conference (a
//! [`SessionDef`]) after the fact. Growth is strictly additive —
//! existing ids, delay entries, and session memberships are never
//! renumbered or changed — so any quantity computed over the old
//! universe (per-session loads, objectives, delay lookups) is bitwise
//! unchanged under the grown one. The agent pool grows the same way:
//! [`Instance::register_agent`] appends one agent (an [`AgentDef`]) —
//! a new `D` row/column and `H` row — without moving any existing
//! delay entry, so provisioned capacity is elastic too. Only the
//! representation ladder stays fixed.

use crate::{
    AgentId, AgentSpec, Capacity, DelayMatrices, DownstreamDemand, Matrix, ModelError, ReprId,
    ReprLadder, SessionId, SessionSpec, TranscodeLatencyModel, UserId, UserSpec, DEFAULT_D_MAX_MS,
};

/// Definition of one user of a to-be-registered conference: everything
/// [`Instance::register_session`] needs that the instance cannot derive
/// itself.
#[derive(Debug, Clone, PartialEq)]
pub struct UserDef {
    /// `r^u_u`: the representation the user produces.
    pub upstream: ReprId,
    /// `r^d_{uv}`: what the user demands of the others. Overrides
    /// reference **absolute** user ids valid at registration time
    /// (typically fellow members of the same [`SessionDef`]).
    pub downstream: DownstreamDemand,
    /// `H` column: one-way delay from each agent to this user (ms),
    /// in instance agent order (length must equal the agent count).
    pub agent_delays_ms: Vec<f64>,
    /// Geographic site index, if the workload generator knows it.
    pub site_index: Option<usize>,
}

/// Definition of one never-before-seen conference, registered online
/// via [`Instance::register_session`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDef {
    /// The conference's members (at least one).
    pub users: Vec<UserDef>,
}

impl SessionDef {
    /// Extracts session `s` of `instance` as a registrable definition:
    /// upstreams, demands (with their absolute-id overrides), `H`
    /// columns, and site indices. Registering the extracted defs of
    /// sessions `k..n` onto the instance's `k`-session prefix rebuilds
    /// the original universe exactly — up to semantically-inert
    /// downstream overrides whose source is *outside* the session
    /// (`r^d_{uv}` is only ever queried for fellow participants), which
    /// are dropped here so the extracted def always re-registers.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn of_instance(instance: &Instance, s: SessionId) -> Self {
        let session = instance.session(s);
        let users = session
            .users()
            .iter()
            .map(|&u| {
                let spec = instance.user(u);
                let mut downstream = DownstreamDemand::uniform(spec.downstream().default_repr());
                for (&src, &r) in spec.downstream().overrides() {
                    if session.contains(src) {
                        downstream = downstream.with_override(src, r);
                    }
                }
                UserDef {
                    upstream: spec.upstream(),
                    downstream,
                    agent_delays_ms: instance.agent_ids().map(|l| instance.h_ms(l, u)).collect(),
                    site_index: spec.site_index(),
                }
            })
            .collect();
        Self { users }
    }
}

/// Definition of one never-before-seen agent, registered online via
/// [`Instance::register_agent`] — the agent-axis twin of
/// [`SessionDef`].
#[derive(Debug, Clone, PartialEq)]
pub struct AgentDef {
    /// The agent's name, capacity, speed factor, and prices.
    pub spec: AgentSpec,
    /// New `D` row/column: one-way delay to each **existing** agent
    /// (ms), in instance agent order (length must equal the agent
    /// count; the new diagonal entry is implicitly zero).
    pub inter_agent_ms: Vec<f64>,
    /// New `H` row: one-way delay to each existing user (ms), in
    /// instance user order (length must equal the user count).
    pub user_delays_ms: Vec<f64>,
}

impl AgentDef {
    /// Extracts agent `l` of `instance` as a registrable definition
    /// covering only the agents and users that precede it — so
    /// registering the extracted defs of agents `k..L` (in order) onto
    /// [`Instance::agent_prefix`]`(k)` rebuilds the original agent pool
    /// exactly, provided every user predates agent `k`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn of_instance(instance: &Instance, l: AgentId) -> Self {
        Self {
            spec: instance.agent(l).clone(),
            inter_agent_ms: (0..l.index())
                .map(|k| instance.d_ms(l, AgentId::from(k)))
                .collect(),
            user_delays_ms: instance.user_ids().map(|u| instance.h_ms(l, u)).collect(),
        }
    }
}

/// A complete, validated conferencing problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    ladder: ReprLadder,
    agents: Vec<AgentSpec>,
    users: Vec<UserSpec>,
    sessions: Vec<SessionSpec>,
    delays: DelayMatrices,
    transcode_latency: TranscodeLatencyModel,
    d_max_ms: f64,
}

impl Instance {
    /// The representation ladder `R`.
    pub fn ladder(&self) -> &ReprLadder {
        &self.ladder
    }

    /// Number of agents `L`.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Number of users `U`.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Number of sessions `S`.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// All agents.
    pub fn agents(&self) -> &[AgentSpec] {
        &self.agents
    }

    /// All users.
    pub fn users(&self) -> &[UserSpec] {
        &self.users
    }

    /// All sessions.
    pub fn sessions(&self) -> &[SessionSpec] {
        &self.sessions
    }

    /// Agent lookup.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn agent(&self, l: AgentId) -> &AgentSpec {
        &self.agents[l.index()]
    }

    /// User lookup.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user(&self, u: UserId) -> &UserSpec {
        &self.users[u.index()]
    }

    /// Session lookup.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn session(&self, s: SessionId) -> &SessionSpec {
        &self.sessions[s.index()]
    }

    /// Iterator over all agent ids.
    pub fn agent_ids(&self) -> impl Iterator<Item = AgentId> {
        (0..self.agents.len()).map(AgentId::from)
    }

    /// Iterator over all user ids.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> {
        (0..self.users.len()).map(UserId::from)
    }

    /// Iterator over all session ids.
    pub fn session_ids(&self) -> impl Iterator<Item = SessionId> {
        (0..self.sessions.len()).map(SessionId::from)
    }

    /// The delay matrices `D` and `H`.
    pub fn delays(&self) -> &DelayMatrices {
        &self.delays
    }

    /// The transcoding-latency model shared by all agents.
    pub fn transcode_latency(&self) -> &TranscodeLatencyModel {
        &self.transcode_latency
    }

    /// `Dmax`: maximum acceptable end-to-end delay in ms (constraint (8)).
    pub fn d_max_ms(&self) -> f64 {
        self.d_max_ms
    }

    /// `κ(r)`: bitrate of representation `r` in Mbit/s.
    #[inline]
    pub fn kappa(&self, r: ReprId) -> f64 {
        self.ladder.kappa(r)
    }

    /// `σ_l(r1, r2)`: transcoding latency at agent `l` from representation
    /// `r1` to `r2`, in ms.
    #[inline]
    pub fn sigma_ms(&self, l: AgentId, r1: ReprId, r2: ReprId) -> f64 {
        self.transcode_latency.latency_ms(
            self.agent(l).speed_factor(),
            self.kappa(r1),
            self.kappa(r2),
        )
    }

    /// `θ_{uv}`: 1 iff `u` and `v` share a session and `v` demands a
    /// representation of `u`'s stream different from `u`'s upstream.
    pub fn theta(&self, u: UserId, v: UserId) -> bool {
        let uu = self.user(u);
        let vv = self.user(v);
        u != v && uu.session() == vv.session() && vv.downstream_from(u) != uu.upstream()
    }

    /// `θ_sum`: total number of (u, v) pairs requiring transcoding.
    pub fn theta_sum(&self) -> usize {
        self.sessions
            .iter()
            .flat_map(|s| s.flows())
            .filter(|&(u, v)| self.theta(u, v))
            .count()
    }

    /// `P(u)`: other participants of `u`'s session.
    pub fn participants(&self, u: UserId) -> impl Iterator<Item = UserId> + '_ {
        self.session(self.user(u).session()).participants_except(u)
    }

    /// `H_lu` shortcut.
    #[inline]
    pub fn h_ms(&self, l: AgentId, u: UserId) -> f64 {
        self.delays.agent_user_ms(l, u)
    }

    /// `D_lk` shortcut.
    #[inline]
    pub fn d_ms(&self, l: AgentId, k: AgentId) -> f64 {
        self.delays.inter_agent_ms(l, k)
    }

    /// Returns a copy of this instance with every agent's capacity replaced.
    /// Used by the Fig. 9 capacity sweeps.
    pub fn with_uniform_capacity(&self, capacity: Capacity) -> Instance {
        let mut clone = self.clone();
        for a in &mut clone.agents {
            *a = AgentSpec::builder(a.name())
                .capacity(capacity)
                .speed_factor(a.speed_factor())
                .price_per_mbps(a.price_per_mbps())
                .price_per_task(a.price_per_task())
                .build();
        }
        clone
    }

    /// Returns a copy with a different delay bound `Dmax`.
    pub fn with_d_max_ms(&self, d_max_ms: f64) -> Instance {
        let mut clone = self.clone();
        clone.d_max_ms = d_max_ms;
        clone
    }

    /// Registers a whole new conference online, returning its id (always
    /// the next dense session id). Validation is all-or-nothing: on error
    /// the instance is unchanged.
    ///
    /// Growth is append-only — no existing id or delay entry moves — so
    /// every evaluation over previously-registered sessions is bitwise
    /// unaffected.
    ///
    /// # Errors
    ///
    /// [`ModelError`] if the definition is empty, references
    /// representations outside the ladder or unknown override sources,
    /// or carries a mis-sized/invalid delay column.
    pub fn register_session(&mut self, def: &SessionDef) -> Result<SessionId, ModelError> {
        if def.users.is_empty() {
            return Err(ModelError::Inconsistent(
                "registered session has no users".into(),
            ));
        }
        let first_new_user = self.users.len();
        for (i, u) in def.users.iter().enumerate() {
            self.validate_user_def(u, first_new_user + def.users.len(), i)?;
        }
        let s = SessionId::from(self.sessions.len());
        self.sessions.push(SessionSpec::new(s, Vec::new()));
        for u in def.users.iter() {
            let id = UserId::from(self.users.len());
            let mut spec = UserSpec::new(id, s, u.upstream, u.downstream.clone());
            if let Some(site) = u.site_index {
                spec = spec.with_site_index(site);
            }
            self.users.push(spec);
            self.sessions[s.index()].push_user(id);
        }
        let columns: Vec<&[f64]> = def
            .users
            .iter()
            .map(|u| u.agent_delays_ms.as_slice())
            .collect();
        self.delays
            .push_user_columns(&columns)
            .expect("columns validated above");
        Ok(s)
    }

    /// Registers a never-before-seen agent online, returning its id
    /// (always the next dense agent id). Validation is all-or-nothing:
    /// on error the instance is unchanged.
    ///
    /// Growth is append-only — no existing id or delay entry moves —
    /// so every evaluation over previously-registered agents and
    /// sessions is bitwise unaffected, and a universe grown one agent
    /// at a time equals the same universe built up front.
    ///
    /// # Errors
    ///
    /// [`ModelError`] if either delay vector is mis-sized or carries a
    /// negative/non-finite entry, or a price is negative/non-finite
    /// ([`AgentSpec::validate`]).
    pub fn register_agent(&mut self, def: &AgentDef) -> Result<AgentId, ModelError> {
        def.spec.validate()?;
        self.delays
            .push_agent(&def.inter_agent_ms, &def.user_delays_ms)?;
        let id = AgentId::from(self.agents.len());
        self.agents.push(def.spec.clone());
        Ok(id)
    }

    /// The first `num_agents` agents of this instance as a standalone
    /// instance — the *seed* of an elastic fleet whose remaining agents
    /// arrive later as [`AgentDef`]s (see [`AgentDef::of_instance`]).
    /// Sessions and users are kept in full: only the delay matrices and
    /// agent list shrink.
    ///
    /// # Errors
    ///
    /// [`ModelError::Inconsistent`] if `num_agents` is zero or exceeds
    /// the agent count.
    pub fn agent_prefix(&self, num_agents: usize) -> Result<Instance, ModelError> {
        if num_agents == 0 || num_agents > self.agents.len() {
            return Err(ModelError::Inconsistent(format!(
                "agent prefix of {num_agents} agents out of {}",
                self.agents.len()
            )));
        }
        let d = Matrix::tabulate(num_agents, num_agents, |l, k| {
            self.delays.inter_agent().at(l, k)
        });
        let h = Matrix::tabulate(num_agents, self.users.len(), |l, u| {
            self.delays.agent_user().at(l, u)
        });
        Ok(Instance {
            ladder: self.ladder.clone(),
            agents: self.agents[..num_agents].to_vec(),
            users: self.users.clone(),
            sessions: self.sessions.clone(),
            delays: DelayMatrices::new(d, h).expect("prefix delays stay valid"),
            transcode_latency: self.transcode_latency,
            d_max_ms: self.d_max_ms,
        })
    }

    /// Shared validation of one [`UserDef`]: ladder membership, override
    /// sources below `user_id_bound` (existing users plus the batch
    /// being registered), and a well-formed delay column.
    fn validate_user_def(
        &self,
        def: &UserDef,
        user_id_bound: usize,
        ordinal: usize,
    ) -> Result<(), ModelError> {
        if self.ladder.get(def.upstream).is_none() {
            return Err(ModelError::UnknownId(format!(
                "registered user #{ordinal} upstream representation {}",
                def.upstream
            )));
        }
        if self.ladder.get(def.downstream.default_repr()).is_none() {
            return Err(ModelError::UnknownId(format!(
                "registered user #{ordinal} downstream representation {}",
                def.downstream.default_repr()
            )));
        }
        for (&src, &r) in def.downstream.overrides() {
            if src.index() >= user_id_bound {
                return Err(ModelError::UnknownId(format!(
                    "registered user #{ordinal} downstream override references unknown user {src}"
                )));
            }
            if self.ladder.get(r).is_none() {
                return Err(ModelError::UnknownId(format!(
                    "registered user #{ordinal} downstream override representation {r}"
                )));
            }
        }
        if def.agent_delays_ms.len() != self.agents.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.agents.len(),
                actual: def.agent_delays_ms.len(),
            });
        }
        if !def
            .agent_delays_ms
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
        {
            return Err(ModelError::InvalidDelays(format!(
                "registered user #{ordinal} has a negative or non-finite delay"
            )));
        }
        Ok(())
    }

    /// The first `num_sessions` sessions of this instance as a
    /// standalone instance — the *seed* of an open world whose remaining
    /// sessions arrive later as [`SessionDef`]s (see
    /// [`SessionDef::of_instance`]). Downstream overrides referencing
    /// users beyond the prefix are dropped: those users are necessarily
    /// in other sessions, so the overrides were semantically inert
    /// (`r^d_{uv}` is only queried for fellow participants) and keeping
    /// them would leave dangling user ids in the seed.
    ///
    /// # Errors
    ///
    /// [`ModelError::Inconsistent`] if the prefix sessions' users are
    /// not exactly the dense user prefix `0..m` (sessions registered
    /// out of user order cannot be split).
    pub fn prefix(&self, num_sessions: usize) -> Result<Instance, ModelError> {
        if num_sessions == 0 || num_sessions > self.sessions.len() {
            return Err(ModelError::Inconsistent(format!(
                "prefix of {num_sessions} sessions out of {}",
                self.sessions.len()
            )));
        }
        let num_users: usize = self.sessions[..num_sessions].iter().map(|s| s.len()).sum();
        for s in &self.sessions[..num_sessions] {
            if s.users().iter().any(|u| u.index() >= num_users) {
                return Err(ModelError::Inconsistent(format!(
                    "session {} references users outside the dense prefix",
                    s.id()
                )));
            }
        }
        let users = self.users[..num_users]
            .iter()
            .map(|spec| {
                if spec
                    .downstream()
                    .overrides()
                    .keys()
                    .all(|src| src.index() < num_users)
                {
                    return spec.clone();
                }
                let mut downstream = DownstreamDemand::uniform(spec.downstream().default_repr());
                for (&src, &r) in spec.downstream().overrides() {
                    if src.index() < num_users {
                        downstream = downstream.with_override(src, r);
                    }
                }
                let mut rebuilt =
                    UserSpec::new(spec.id(), spec.session(), spec.upstream(), downstream);
                if let Some(site) = spec.site_index() {
                    rebuilt = rebuilt.with_site_index(site);
                }
                rebuilt
            })
            .collect();
        let nl = self.agents.len();
        let d = Matrix::tabulate(nl, nl, |l, k| self.delays.inter_agent().at(l, k));
        let h = Matrix::tabulate(nl, num_users, |l, u| self.delays.agent_user().at(l, u));
        Ok(Instance {
            ladder: self.ladder.clone(),
            agents: self.agents.clone(),
            users,
            sessions: self.sessions[..num_sessions].to_vec(),
            delays: DelayMatrices::new(d, h).expect("prefix delays stay valid"),
            transcode_latency: self.transcode_latency,
            d_max_ms: self.d_max_ms,
        })
    }
}

/// Incremental builder for [`Instance`].
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    ladder: ReprLadder,
    agents: Vec<AgentSpec>,
    users: Vec<UserSpec>,
    sessions: Vec<SessionSpec>,
    delays: Option<DelayMatrices>,
    transcode_latency: TranscodeLatencyModel,
    d_max_ms: f64,
}

impl InstanceBuilder {
    /// Starts a builder over the given representation ladder.
    pub fn new(ladder: ReprLadder) -> Self {
        Self {
            ladder,
            agents: Vec::new(),
            users: Vec::new(),
            sessions: Vec::new(),
            delays: None,
            transcode_latency: TranscodeLatencyModel::paper_default(),
            d_max_ms: DEFAULT_D_MAX_MS,
        }
    }

    /// Adds an agent, returning its id.
    pub fn add_agent(&mut self, spec: AgentSpec) -> AgentId {
        let id = AgentId::from(self.agents.len());
        self.agents.push(spec);
        id
    }

    /// Adds an empty session, returning its id. Users join via
    /// [`add_user`](Self::add_user).
    pub fn add_session(&mut self) -> SessionId {
        let id = SessionId::from(self.sessions.len());
        self.sessions.push(SessionSpec::new(id, Vec::new()));
        id
    }

    /// Adds a user to `session` producing `upstream` and demanding
    /// `downstream` of everyone; returns the user id.
    ///
    /// # Panics
    ///
    /// Panics if `session` has not been added.
    pub fn add_user(&mut self, session: SessionId, upstream: ReprId, downstream: ReprId) -> UserId {
        self.add_user_with_demand(session, upstream, DownstreamDemand::uniform(downstream))
    }

    /// Adds a user with a fully customized downstream demand.
    ///
    /// # Panics
    ///
    /// Panics if `session` has not been added.
    pub fn add_user_with_demand(
        &mut self,
        session: SessionId,
        upstream: ReprId,
        downstream: DownstreamDemand,
    ) -> UserId {
        assert!(
            session.index() < self.sessions.len(),
            "session {session} not added to the builder"
        );
        let id = UserId::from(self.users.len());
        self.users
            .push(UserSpec::new(id, session, upstream, downstream));
        self.sessions[session.index()].push_user(id);
        id
    }

    /// Records the geographic site index of the most recently added user.
    pub fn set_user_site(&mut self, u: UserId, site: usize) {
        let spec = self.users[u.index()].clone().with_site_index(site);
        self.users[u.index()] = spec;
    }

    /// Sets explicit delay matrices.
    pub fn delays(&mut self, delays: DelayMatrices) -> &mut Self {
        self.delays = Some(delays);
        self
    }

    /// Tabulates delay matrices from closures over indices:
    /// `inter(l, k)` (must be symmetric in spirit; diagonal forced to 0)
    /// and `user(l, u)`.
    pub fn symmetric_delays(
        &mut self,
        mut inter: impl FnMut(usize, usize) -> f64,
        user: impl FnMut(usize, usize) -> f64,
    ) -> &mut Self {
        let nl = self.agents.len();
        let nu = self.users.len();
        let d = Matrix::tabulate(nl, nl, |l, k| if l == k { 0.0 } else { inter(l, k) });
        let h = Matrix::tabulate(nl, nu, user);
        self.delays = Some(DelayMatrices::new(d, h).expect("tabulated delays are valid"));
        self
    }

    /// Overrides the transcoding latency model.
    pub fn transcode_latency(&mut self, model: TranscodeLatencyModel) -> &mut Self {
        self.transcode_latency = model;
        self
    }

    /// Overrides `Dmax` (default: 400 ms per ITU-T G.114).
    pub fn d_max_ms(&mut self, v: f64) -> &mut Self {
        self.d_max_ms = v;
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if delays are missing or mis-dimensioned, any
    /// session is empty, there are no agents/users, an agent's price is
    /// negative or non-finite, any referenced representation is outside
    /// the ladder, or `Dmax` is not positive.
    pub fn build(self) -> Result<Instance, ModelError> {
        if self.agents.is_empty() {
            return Err(ModelError::Inconsistent("no agents".into()));
        }
        if self.users.is_empty() {
            return Err(ModelError::Inconsistent("no users".into()));
        }
        for a in &self.agents {
            a.validate()?;
        }
        for s in &self.sessions {
            if s.is_empty() {
                return Err(ModelError::Inconsistent(format!(
                    "session {} is empty",
                    s.id()
                )));
            }
        }
        for u in &self.users {
            if self.ladder.get(u.upstream()).is_none() {
                return Err(ModelError::UnknownId(format!(
                    "user {} upstream representation {}",
                    u.id(),
                    u.upstream()
                )));
            }
            if self.ladder.get(u.downstream().default_repr()).is_none() {
                return Err(ModelError::UnknownId(format!(
                    "user {} downstream representation {}",
                    u.id(),
                    u.downstream().default_repr()
                )));
            }
            for (&src, &r) in u.downstream().overrides() {
                if src.index() >= self.users.len() {
                    return Err(ModelError::UnknownId(format!(
                        "user {} downstream override references unknown user {src}",
                        u.id()
                    )));
                }
                if self.ladder.get(r).is_none() {
                    return Err(ModelError::UnknownId(format!(
                        "user {} downstream override representation {r}",
                        u.id()
                    )));
                }
            }
        }
        let delays = self
            .delays
            .ok_or_else(|| ModelError::Inconsistent("delay matrices not set".into()))?;
        if delays.num_agents() != self.agents.len() {
            return Err(ModelError::Inconsistent(format!(
                "delay matrices cover {} agents but instance has {}",
                delays.num_agents(),
                self.agents.len()
            )));
        }
        if delays.num_users() != self.users.len() {
            return Err(ModelError::Inconsistent(format!(
                "delay matrices cover {} users but instance has {}",
                delays.num_users(),
                self.users.len()
            )));
        }
        if self.d_max_ms.is_nan() || self.d_max_ms <= 0.0 {
            return Err(ModelError::Inconsistent(format!(
                "Dmax must be positive, got {}",
                self.d_max_ms
            )));
        }
        Ok(Instance {
            ladder: self.ladder,
            agents: self.agents,
            users: self.users,
            sessions: self.sessions,
            delays,
            transcode_latency: self.transcode_latency,
            d_max_ms: self.d_max_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_user_instance() -> Instance {
        let ladder = ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").speed_factor(1.2).build());
        b.add_agent(AgentSpec::builder("b").speed_factor(2.4).build());
        let s = b.add_session();
        b.add_user(s, r720, r360); // u0 produces 720p, wants 360p of others
        b.add_user(s, r360, r360); // u1 produces 360p, wants 360p of others
        b.symmetric_delays(|_, _| 40.0, |l, u| 10.0 * (l + u + 1) as f64);
        b.build().unwrap()
    }

    #[test]
    fn theta_detects_transcoding_needs() {
        let inst = two_user_instance();
        let (u0, u1) = (UserId::new(0), UserId::new(1));
        // Flow u0 -> u1: u0 produces 720p, u1 wants 360p => transcode.
        assert!(inst.theta(u0, u1));
        // Flow u1 -> u0: u1 produces 360p, u0 wants 360p => no transcode.
        assert!(!inst.theta(u1, u0));
        // Self-flow never transcodes.
        assert!(!inst.theta(u0, u0));
        assert_eq!(inst.theta_sum(), 1);
    }

    #[test]
    fn sigma_scales_with_speed_factor() {
        let inst = two_user_instance();
        let r720 = inst.ladder().by_name("720p").unwrap().id();
        let r360 = inst.ladder().by_name("360p").unwrap().id();
        let fast = inst.sigma_ms(AgentId::new(0), r720, r360);
        let slow = inst.sigma_ms(AgentId::new(1), r720, r360);
        assert!(slow > fast);
        assert!((slow / fast - 2.0).abs() < 1e-9); // speed factors 1.2 vs 2.4
    }

    #[test]
    fn participants_excludes_self() {
        let inst = two_user_instance();
        let others: Vec<_> = inst.participants(UserId::new(0)).collect();
        assert_eq!(others, vec![UserId::new(1)]);
    }

    #[test]
    fn build_rejects_empty_session() {
        let ladder = ReprLadder::standard_four();
        let mut b = InstanceBuilder::new(ladder.clone());
        b.add_agent(AgentSpec::builder("a").build());
        let _empty = b.add_session();
        let s = b.add_session();
        b.add_user(s, ladder.lowest(), ladder.lowest());
        b.symmetric_delays(|_, _| 1.0, |_, _| 1.0);
        assert!(matches!(b.build(), Err(ModelError::Inconsistent(_))));
    }

    #[test]
    fn build_rejects_missing_delays() {
        let ladder = ReprLadder::standard_four();
        let mut b = InstanceBuilder::new(ladder.clone());
        b.add_agent(AgentSpec::builder("a").build());
        let s = b.add_session();
        b.add_user(s, ladder.lowest(), ladder.lowest());
        assert!(b.build().is_err());
    }

    #[test]
    fn build_rejects_wrong_delay_dimensions() {
        let ladder = ReprLadder::standard_four();
        let mut b = InstanceBuilder::new(ladder.clone());
        b.add_agent(AgentSpec::builder("a").build());
        let s = b.add_session();
        b.add_user(s, ladder.lowest(), ladder.lowest());
        b.add_user(s, ladder.lowest(), ladder.lowest());
        // Only one user column.
        let d = Matrix::filled(1, 1, 0.0);
        let h = Matrix::filled(1, 1, 5.0);
        b.delays(DelayMatrices::new(d, h).unwrap());
        assert!(matches!(b.build(), Err(ModelError::Inconsistent(_))));
    }

    #[test]
    fn build_rejects_nonpositive_dmax() {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        let s = b.add_session();
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 1.0, |_, _| 1.0);
        b.d_max_ms(0.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn with_uniform_capacity_replaces_all() {
        let inst = two_user_instance();
        let capped = inst.with_uniform_capacity(Capacity::new(100.0, 200.0, 3));
        for a in capped.agents() {
            assert_eq!(a.capacity().upload_mbps, 100.0);
            assert_eq!(a.capacity().download_mbps, 200.0);
            assert_eq!(a.capacity().transcode_slots, 3);
        }
        // Speed factors preserved.
        assert_eq!(capped.agent(AgentId::new(1)).speed_factor(), 2.4);
    }

    #[test]
    fn with_d_max_overrides_bound() {
        let inst = two_user_instance().with_d_max_ms(250.0);
        assert_eq!(inst.d_max_ms(), 250.0);
    }

    #[test]
    #[should_panic(expected = "not added")]
    fn add_user_to_unknown_session_panics() {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_user(SessionId::new(0), r, r);
    }

    fn two_user_def(inst: &Instance) -> SessionDef {
        let r360 = inst.ladder().by_name("360p").unwrap().id();
        let r720 = inst.ladder().by_name("720p").unwrap().id();
        SessionDef {
            users: vec![
                UserDef {
                    upstream: r720,
                    downstream: DownstreamDemand::uniform(r360),
                    agent_delays_ms: vec![7.0, 9.0],
                    site_index: Some(3),
                },
                UserDef {
                    upstream: r360,
                    downstream: DownstreamDemand::uniform(r360),
                    agent_delays_ms: vec![11.0, 13.0],
                    site_index: None,
                },
            ],
        }
    }

    #[test]
    fn register_session_grows_append_only() {
        let mut inst = two_user_instance();
        let before_users = inst.num_users();
        let before_theta = inst.theta_sum();
        let h_old = inst.h_ms(AgentId::new(1), UserId::new(1));
        let def = two_user_def(&inst);
        let s = inst.register_session(&def).expect("registers");
        assert_eq!(s, SessionId::new(1));
        assert_eq!(inst.num_sessions(), 2);
        assert_eq!(inst.num_users(), before_users + 2);
        // Existing entries are untouched (bitwise).
        assert_eq!(
            inst.h_ms(AgentId::new(1), UserId::new(1)).to_bits(),
            h_old.to_bits()
        );
        // New users landed with their delay columns and session links.
        let u2 = UserId::new(2);
        assert_eq!(inst.user(u2).session(), s);
        assert_eq!(inst.h_ms(AgentId::new(0), u2), 7.0);
        assert_eq!(inst.h_ms(AgentId::new(1), UserId::new(3)), 13.0);
        assert_eq!(inst.user(u2).site_index(), Some(3));
        // The new conference needs one transcode (720p→360p), like s0.
        assert_eq!(inst.theta_sum(), before_theta + 1);
        assert!(inst.theta(u2, UserId::new(3)));
        // Cross-session pairs never transcode.
        assert!(!inst.theta(UserId::new(0), u2));
    }

    #[test]
    fn register_session_is_atomic_on_error() {
        let mut inst = two_user_instance();
        let mut def = two_user_def(&inst);
        def.users[1].agent_delays_ms = vec![1.0]; // wrong length
        let before = inst.clone();
        assert!(inst.register_session(&def).is_err());
        assert_eq!(inst, before);
        def.users[1].agent_delays_ms = vec![1.0, f64::NAN];
        assert!(inst.register_session(&def).is_err());
        assert_eq!(inst, before);
        let empty = SessionDef { users: Vec::new() };
        assert!(inst.register_session(&empty).is_err());
        assert_eq!(inst, before);
    }

    /// Cross-session downstream overrides are legal in the builder but
    /// semantically inert (`r^d_{uv}` is only queried among fellow
    /// participants). Splitting such an instance must not dangle them:
    /// `prefix` drops overrides pointing past the split, `of_instance`
    /// drops overrides pointing outside the session, and the extracted
    /// tail still re-registers onto the seed.
    #[test]
    fn split_drops_inert_cross_session_overrides() {
        let ladder = ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        let s0 = b.add_session();
        // u0's override references u2 — a member of the *next* session.
        b.add_user_with_demand(
            s0,
            r720,
            DownstreamDemand::uniform(r360).with_override(UserId::new(2), r720),
        );
        b.add_user(s0, r360, r360);
        let s1 = b.add_session();
        b.add_user(s1, r720, r360);
        // u3's override references u0 — a member of the *previous* one.
        b.add_user_with_demand(
            s1,
            r360,
            DownstreamDemand::uniform(r360).with_override(UserId::new(0), r720),
        );
        b.symmetric_delays(|_, _| 10.0, |l, u| (l + u + 1) as f64);
        let inst = b.build().unwrap();

        let mut seed = inst.prefix(1).expect("prefix splits");
        // The dangling forward override is gone; the demand survives.
        assert!(seed
            .user(UserId::new(0))
            .downstream()
            .overrides()
            .is_empty());
        assert_eq!(
            seed.user(UserId::new(0)).downstream_from(UserId::new(1)),
            r360
        );

        let tail = SessionDef::of_instance(&inst, s1);
        // u3's backward (cross-session, inert) override is dropped too.
        assert!(tail.users[1].downstream.overrides().is_empty());
        let s = seed.register_session(&tail).expect("tail re-registers");
        assert_eq!(s, s1);
        // Semantics are unchanged: every in-session demand matches.
        for u in inst.user_ids() {
            for v in inst.participants(u) {
                assert_eq!(
                    seed.user(u).downstream_from(v),
                    inst.user(u).downstream_from(v)
                );
            }
            assert_eq!(seed.theta_sum(), inst.theta_sum());
        }
    }

    #[test]
    fn register_agent_grows_append_only() {
        let mut inst = two_user_instance();
        let h_old = inst.h_ms(AgentId::new(1), UserId::new(1));
        let d_old = inst.d_ms(AgentId::new(0), AgentId::new(1));
        let def = AgentDef {
            spec: AgentSpec::builder("c").speed_factor(1.0).build(),
            inter_agent_ms: vec![15.0, 25.0],
            user_delays_ms: vec![3.0, 6.0],
        };
        let l = inst.register_agent(&def).expect("registers");
        assert_eq!(l, AgentId::new(2));
        assert_eq!(inst.num_agents(), 3);
        // Existing entries are untouched (bitwise).
        assert_eq!(
            inst.h_ms(AgentId::new(1), UserId::new(1)).to_bits(),
            h_old.to_bits()
        );
        assert_eq!(
            inst.d_ms(AgentId::new(0), AgentId::new(1)).to_bits(),
            d_old.to_bits()
        );
        // New entries landed symmetrically with a zero diagonal.
        assert_eq!(inst.d_ms(l, AgentId::new(0)), 15.0);
        assert_eq!(inst.d_ms(AgentId::new(1), l), 25.0);
        assert_eq!(inst.d_ms(l, l), 0.0);
        assert_eq!(inst.h_ms(l, UserId::new(1)), 6.0);
        assert_eq!(inst.agent(l).name(), "c");
    }

    #[test]
    fn register_agent_is_atomic_on_error() {
        let mut inst = two_user_instance();
        let before = inst.clone();
        let bad_d = AgentDef {
            spec: AgentSpec::builder("c").build(),
            inter_agent_ms: vec![15.0],
            user_delays_ms: vec![3.0, 6.0],
        };
        assert!(inst.register_agent(&bad_d).is_err());
        assert_eq!(inst, before);
        let bad_h = AgentDef {
            spec: AgentSpec::builder("c").build(),
            inter_agent_ms: vec![15.0, 25.0],
            user_delays_ms: vec![3.0],
        };
        assert!(inst.register_agent(&bad_h).is_err());
        assert_eq!(inst, before);
        // A negative price would make the cost terms negative: typed
        // refusal, nothing installed.
        let bad_price = AgentDef {
            spec: AgentSpec::with_prices_unchecked("c", -1.0, 1.0),
            inter_agent_ms: vec![15.0, 25.0],
            user_delays_ms: vec![3.0, 6.0],
        };
        assert!(matches!(
            inst.register_agent(&bad_price),
            Err(ModelError::Inconsistent(_))
        ));
        assert_eq!(inst, before);
    }

    #[test]
    fn extracted_agent_defs_rebuild_the_instance_exactly() {
        let mut inst = two_user_instance();
        let def = AgentDef {
            spec: AgentSpec::builder("c").speed_factor(1.5).build(),
            inter_agent_ms: vec![15.0, 25.0],
            user_delays_ms: vec![3.0, 6.0],
        };
        inst.register_agent(&def).unwrap();
        // Split back at the two-agent seed and re-register the tail.
        let mut seed = inst.agent_prefix(2).expect("agent prefix");
        assert_eq!(seed.num_agents(), 2);
        assert_eq!(seed.num_users(), inst.num_users());
        let tail = AgentDef::of_instance(&inst, AgentId::new(2));
        let l = seed.register_agent(&tail).unwrap();
        assert_eq!(l, AgentId::new(2));
        assert_eq!(seed, inst);
    }

    #[test]
    fn extracted_defs_rebuild_the_instance_exactly() {
        let mut inst = two_user_instance();
        let def = two_user_def(&inst);
        inst.register_session(&def).unwrap();
        // Split back at the seed and re-register the extracted tail.
        let mut seed = inst.prefix(1).expect("dense prefix");
        assert_eq!(seed.num_users(), 2);
        let tail = SessionDef::of_instance(&inst, SessionId::new(1));
        seed.register_session(&tail).unwrap();
        assert_eq!(seed, inst);
    }
}
