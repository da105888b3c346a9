//! Sequential session admission under capacity limits — one engine for
//! the offline Fig. 9 experiments **and** the live control plane.
//!
//! The Fig. 9 experiment measures the *success rate* of initial
//! assignment policies: a scenario "successfully initializes" when every
//! user can subscribe to an agent and every transcoding task can be
//! placed without violating constraints (5)–(8). Sessions are admitted
//! in arrival (id) order:
//!
//! 1. users pick agents from their candidate list (Nrst has exactly one
//!    candidate; AgRank has `n_ngbr`, tried in descending rank order),
//!    skipping agents whose residual last-mile capacity cannot carry
//!    them;
//! 2. transcoding groups follow the rule of thumb, falling back through
//!    the rank order when the preferred agent has no free slot (AgRank
//!    only — Nrst is resource-oblivious and simply fails);
//! 3. the fully placed session is checked *globally* (inter-agent
//!    traffic included); any violation triggers repair or rejection.
//!
//! ## The shared engine
//!
//! [`AdmissionEngine::place_session`] is **pure**: it searches the
//! candidate space against a residual-capacity snapshot and returns the
//! chosen placement without mutating anything. Both worlds drive it:
//!
//! * the offline [`admit_all`] (Fig. 9) derives residuals from a
//!   closed-world [`SystemState`] and commits accepted placements into
//!   it;
//! * the fleet's `Fleet::admit` (vc-orchestrator) derives residuals
//!   from the live capacity ledger and commits through the session
//!   slots + ledger holds.
//!
//! Because the search consumes only `(problem, residuals, availability)`
//! and both worlds feed it bitwise-identical residuals (capacity minus
//! the sum of live session loads, accumulated in admission order), the
//! two admit **identical** session sets — the parity
//! `tests/admission_parity.rs` proptests.
//!
//! ## Tiers
//!
//! The engine searches in up to three tiers, reported in
//! [`AdmissionStats::tier`]:
//!
//! 1. **Enumeration** — when the user→candidate combination count is at
//!    most [`AdmissionConfig::combo_cap`], every combo is tried in
//!    ascending total-fallback-depth order (the Fig. 9 monotonicity: a
//!    larger candidate set strictly enlarges the searched space);
//! 2. **Repair** — oversized spaces fall back to a greedy pass with
//!    violation-driven repair (bounded by `3·|U(s)| + |tasks|` moves);
//! 3. **RankedFallback** — the control plane's historical
//!    walk-each-user-one-step-down-its-ranked-list search, retained as
//!    the engine's final tier when repair fails.
//!
//! ## Cost model
//!
//! A join does each piece of work once and, in steady state, allocates
//! only the two vectors of the [`AdmissionDecision`] it returns:
//!
//! * **One ranking.** [`AdmissionEngine::place_session_with`] runs
//!   AgRank's power iteration once per call
//!   (`agrank::rank_agents_into`); the per-user candidate lists and
//!   the task fallback order are both read off that one ranking.
//! * **Lazy enumeration.** Tier 1 never materializes the combination
//!   table. It walks user→candidate index vectors with an in-place
//!   successor, in ascending total fallback depth and lexicographically
//!   (first user most significant) within a depth, and stops at the
//!   first feasible one — in the common case the very first, so an
//!   uncontended join costs one last-mile check, one task placement and
//!   one evaluation.
//! * **One scratch.** [`AdmissionScratch`] owns every per-admit buffer:
//!   the ranking's vectors and walk matrix (`agrank::RankScratch`),
//!   the candidate and fallback lists, the combination cursor, the
//!   tentative last-mile and transcoding-unit accumulators, the
//!   rule-of-thumb grouping keys, and the candidate placement itself.
//!   The fleet keeps one next to its [`EvalScratch`]; [`admit_all`]
//!   keeps one for its loop.
//!
//! **The search order is the determinism contract.** The engine returns
//! the *first* feasible placement it meets, so which placement a
//! session gets — and therefore every journaled `Admit` record, every
//! crash/recover twin and the offline/online parity above — is defined
//! by the order candidates are tried in: depth, then lexicographic, then
//! repair's fixed offender walk, then the ranked fallback. Every sort
//! involved orders distinct agents totally (score, then id), so none of
//! it depends on a sort algorithm or a hash seed. Changing that order is
//! a behaviour change, not an optimisation; `tests/admission_golden.rs`
//! pins it.

use crate::agrank::{self, AgRankConfig, RankScratch, Residuals};
use crate::placement::{self, StreamKey};
use std::sync::Arc;
use vc_core::{
    Assignment, AssignmentView, EvalScratch, SystemState, TaskId, UapProblem, CAPACITY_EPS,
};
use vc_model::{AgentId, ReprId, SessionId, UserId};

/// Which initial-assignment policy admits the sessions.
#[derive(Debug, Clone)]
pub enum AdmissionPolicy {
    /// The nearest-agent policy (the Airlift/vSkyConf rule: one
    /// candidate per user, resource-oblivious, no fallback).
    Nearest,
    /// AgRank (Alg. 2) with the given configuration (`n_ngbr`
    /// candidates, ranked against the caller's residuals).
    AgRank(AgRankConfig),
}

/// Why a session could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionFailure {
    /// No candidate agent could carry a user's last-mile traffic.
    UserFit,
    /// No agent with a free slot could take a transcoding group.
    TaskFit,
    /// The fully placed session violated a global constraint
    /// (typically inter-agent traffic exceeding a capacity).
    GlobalCheck,
}

/// Which search tier produced an accepted placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionTier {
    /// Rank-ordered exhaustive combination search (small sessions).
    Enumeration,
    /// Greedy placement plus violation-driven repair.
    Repair,
    /// Single-user ranked-fallback walk (the engine's final tier).
    RankedFallback,
}

/// Search-effort accounting for one accepted placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// The tier that produced the placement.
    pub tier: AdmissionTier,
    /// Violation-driven repair moves applied (tier 2 only).
    pub repair_steps: usize,
    /// Fully-evaluated candidate placements (global checks run).
    pub candidates_evaluated: usize,
}

/// An accepted placement: every user and every transcoding task of the
/// session mapped to an agent, plus how the search found it.
#[derive(Debug, Clone)]
pub struct AdmissionDecision {
    /// Chosen agent per session user (instance order).
    pub users: Vec<(UserId, AgentId)>,
    /// Chosen agent per session task (instance order).
    pub tasks: Vec<(TaskId, AgentId)>,
    /// Search-effort accounting.
    pub stats: AdmissionStats,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Upper bound on the user→candidate combination count the
    /// enumeration tier will exhaust; larger spaces use greedy+repair.
    pub combo_cap: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { combo_cap: 1024 }
    }
}

/// The shared admission search. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct AdmissionEngine {
    /// Tuning knobs.
    pub config: AdmissionConfig,
}

/// Every buffer one admission search needs, reused across searches (see
/// the module-level cost model). Holds no state between calls — any
/// scratch gives the same decision — only capacity.
#[derive(Debug, Default)]
pub struct AdmissionScratch {
    rank: RankScratch,
    /// The Nrst policy's one candidate per user (AgRank's lists live in
    /// `rank`).
    nearest: Vec<AgentId>,
    /// The session's candidate agents in descending rank order, failed
    /// agents excluded (empty for the resource-oblivious Nrst policy).
    fallback_order: Vec<AgentId>,
    placement: PlacementScratch,
}

/// The read-only half of one search: what is being placed, where it may
/// go, and against which residuals.
struct Search<'a> {
    problem: &'a UapProblem,
    s: SessionId,
    /// The session's users, instance order.
    users: &'a [UserId],
    /// Candidate agents of every user back to back, `per_user` each,
    /// best first.
    candidates: &'a [AgentId],
    per_user: usize,
    fallback_order: &'a [AgentId],
    residuals: &'a Residuals,
    available: &'a [bool],
}

impl Search<'_> {
    /// The candidates of the session's `k`-th user, best first.
    fn candidates_of(&self, k: usize) -> &[AgentId] {
        &self.candidates[k * self.per_user..(k + 1) * self.per_user]
    }

    /// Whether agent `l` is up and can still carry `need` on top of the
    /// tentative last-mile load already put on it.
    fn last_mile_fits(&self, l: AgentId, need: (f64, f64), tent: &PlacementScratch) -> bool {
        let i = l.index();
        self.available[i]
            && self.residuals.download[i] - tent.tent_down[i] >= need.0 - 1e-9
            && self.residuals.upload[i] - tent.tent_up[i] >= need.1 - 1e-9
    }
}

/// The mutable half of one search: the candidate placement under
/// construction (`users`, `tasks`) and the accumulators that build it.
#[derive(Debug, Default)]
struct PlacementScratch {
    /// The candidate placement's users, session order.
    users: Vec<(UserId, AgentId)>,
    /// The candidate placement's tasks, ascending by task id.
    tasks: Vec<(TaskId, AgentId)>,
    /// Candidates per user (the enumeration tier's radices).
    lens: Vec<usize>,
    /// The enumeration cursor: one candidate index per user.
    combo: Vec<usize>,
    /// `(download, upload)` each user's last mile demands.
    needs: Vec<(f64, f64)>,
    /// Tentative last-mile load per agent.
    tent_down: Vec<f64>,
    tent_up: Vec<f64>,
    /// Tentative transcoding units per agent, and the distinct
    /// `(agent, source, target)` units behind them (kept sorted).
    tent_units: Vec<u32>,
    units: Vec<(AgentId, UserId, ReprId)>,
    /// Rule-of-thumb output and its grouping keys.
    preferred: Vec<(TaskId, AgentId)>,
    stream_keys: Vec<StreamKey>,
}

/// A full-session placement as an [`AssignmentView`]: every lookup must
/// be covered by the pairs (the engine always places the whole session).
/// Lookups are linear scans — conferences are small (the workloads cap
/// sessions at 5 users), so an index map would cost more than it saves;
/// revisit if a workload ever grows sessions past a few dozen users.
struct PlacementView<'a> {
    users: &'a [(UserId, AgentId)],
    tasks: &'a [(TaskId, AgentId)],
}

impl AssignmentView for PlacementView<'_> {
    fn agent_of_user(&self, u: UserId) -> AgentId {
        self.users
            .iter()
            .find(|(w, _)| *w == u)
            .expect("admission placements cover every session user")
            .1
    }
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        self.tasks
            .iter()
            .find(|(w, _)| *w == t)
            .expect("admission placements cover every session task")
            .1
    }
}

/// The first global violation of a fully-placed candidate, in the same
/// order `SystemState::violations` reports them (agents ascending:
/// download, upload, transcode; then the delay bound).
#[derive(Debug, Clone, Copy)]
enum GlobalViolation {
    Download(AgentId),
    Upload(AgentId),
    Transcode(AgentId),
    Delay,
    /// A target agent is down — unreachable via the normal choosers
    /// (all filter on availability); the final check still refuses it
    /// so no tier can ever emit a placement on a failed agent.
    Unavailable,
}

impl AdmissionEngine {
    /// An engine with the given knobs.
    pub fn new(config: AdmissionConfig) -> Self {
        Self { config }
    }

    /// [`place_session_with`](Self::place_session_with) on a throwaway
    /// [`AdmissionScratch`] — for one-off searches. Anything that
    /// admits in a loop should hold a scratch and call
    /// `place_session_with`; the decision is the same either way.
    ///
    /// # Errors
    ///
    /// The furthest stage the search reached without success.
    pub fn place_session(
        &self,
        problem: &UapProblem,
        s: SessionId,
        policy: &AdmissionPolicy,
        residuals: &Residuals,
        available: &[bool],
        eval: &mut EvalScratch,
    ) -> Result<AdmissionDecision, AdmissionFailure> {
        let mut scratch = AdmissionScratch::default();
        self.place_session_with(problem, s, policy, residuals, available, eval, &mut scratch)
    }

    /// Searches for a feasible placement of session `s` against the
    /// residual capacities, without committing anything. On success the
    /// accepted placement's evaluated load is left in `eval` (the
    /// caller's commit can reuse it bit-for-bit).
    ///
    /// `residuals` must be availability-blind capacity-minus-live-load
    /// (see [`Residuals::from_totals`]); `available` masks failed
    /// agents, which are never chosen as targets. `scratch` carries
    /// buffers only; see the module-level cost model.
    ///
    /// # Errors
    ///
    /// The furthest stage the search reached without success.
    #[allow(clippy::too_many_arguments)]
    pub fn place_session_with(
        &self,
        problem: &UapProblem,
        s: SessionId,
        policy: &AdmissionPolicy,
        residuals: &Residuals,
        available: &[bool],
        eval: &mut EvalScratch,
        scratch: &mut AdmissionScratch,
    ) -> Result<AdmissionDecision, AdmissionFailure> {
        let inst = problem.instance();
        let users = inst.session(s).users();
        let AdmissionScratch {
            rank,
            nearest,
            fallback_order,
            placement,
        } = scratch;

        // Candidate agents per user, best first, and the task fallback
        // order — both from the one ranking this admission runs.
        fallback_order.clear();
        let (candidates, per_user): (&[AgentId], usize) = match policy {
            AdmissionPolicy::Nearest => {
                nearest.clear();
                nearest.extend(users.iter().map(|&u| inst.delays().nearest_agent(u)));
                (nearest, 1)
            }
            AdmissionPolicy::AgRank(config) => {
                agrank::rank_agents_into(problem, s, residuals, config, rank);
                fallback_order.extend(
                    rank.candidates()
                        .iter()
                        .copied()
                        .filter(|l| available[l.index()]),
                );
                fallback_order.sort_unstable_by(|a, b| rank.by_descending_score(*a, *b));
                (rank.user_candidates(), rank.per_user())
            }
        };
        let search = Search {
            problem,
            s,
            users,
            candidates,
            per_user,
            fallback_order,
            residuals,
            available,
        };

        // Tier 1: when the combination count is modest, enumerate
        // user→candidate combos in rank order (shallowest fallback
        // first) — "picking among a larger number of potential agents
        // provides a larger feasible set" holds when the admission
        // *searches* the candidate space.
        let combo_count = users
            .iter()
            .try_fold(1usize, |acc, _| acc.checked_mul(per_user))
            .unwrap_or(usize::MAX);
        if combo_count <= self.config.combo_cap {
            return placement.enumerate(&search, eval);
        }

        // Tier 2: greedy user placement with tentative last-mile
        // accounting, then violation-driven repair.
        placement.reset_last_mile(inst.num_agents());
        placement.users.clear();
        let mut greedy_fit = true;
        for (k, &u) in users.iter().enumerate() {
            let need = user_needs(problem, u);
            let slot = search
                .candidates_of(k)
                .iter()
                .copied()
                .find(|&l| search.last_mile_fits(l, need, placement));
            match slot {
                Some(l) => {
                    placement.tent_down[l.index()] += need.0;
                    placement.tent_up[l.index()] += need.1;
                    placement.users.push((u, l));
                }
                None => {
                    greedy_fit = false;
                    break;
                }
            }
        }
        let mut furthest = AdmissionFailure::UserFit;
        let mut candidates_evaluated = 0usize;
        if greedy_fit {
            furthest = AdmissionFailure::TaskFit;
            if placement.place_tasks(&search) {
                furthest = AdmissionFailure::GlobalCheck;
                // Violation-driven repair: walk offenders down their
                // candidate lists (Nrst has no alternatives and fails
                // immediately — it is resource-oblivious by definition).
                let repair_budget = 3 * users.len() + placement.tasks.len();
                let mut steps = 0usize;
                loop {
                    candidates_evaluated += 1;
                    match placement.check_full(&search, eval) {
                        None => {
                            return Ok(placement.decision(
                                AdmissionTier::Repair,
                                steps,
                                candidates_evaluated,
                            ));
                        }
                        Some(violation) => {
                            if steps >= repair_budget || !placement.repair_step(&search, violation)
                            {
                                break;
                            }
                            steps += 1;
                        }
                    }
                }
            }
        }

        // Tier 3: the ranked-fallback walk — first choices, then each
        // user one step at a time down its ranked candidate list.
        placement.users.clear();
        placement.users.extend(
            users
                .iter()
                .enumerate()
                .map(|(k, &u)| (u, search.candidates_of(k)[0])),
        );
        let mut trial = |placement: &mut PlacementScratch| {
            if placement.users.iter().any(|&(_, l)| !available[l.index()]) {
                return false;
            }
            if !placement.place_tasks(&search) {
                if matches!(furthest, AdmissionFailure::UserFit) {
                    furthest = AdmissionFailure::TaskFit;
                }
                return false;
            }
            candidates_evaluated += 1;
            if placement.check_full(&search, eval).is_none() {
                return true;
            }
            furthest = AdmissionFailure::GlobalCheck;
            false
        };
        let found = trial(placement)
            || (0..users.len()).any(|k| {
                let first = placement.users[k].1;
                let hit = search.candidates_of(k)[1..].iter().any(|&alt| {
                    placement.users[k].1 = alt;
                    trial(placement)
                });
                if !hit {
                    placement.users[k].1 = first;
                }
                hit
            });
        if found {
            return Ok(placement.decision(AdmissionTier::RankedFallback, 0, candidates_evaluated));
        }
        Err(furthest)
    }
}

impl PlacementScratch {
    /// The candidate placement as an accepted decision.
    fn decision(
        &self,
        tier: AdmissionTier,
        repair_steps: usize,
        candidates_evaluated: usize,
    ) -> AdmissionDecision {
        AdmissionDecision {
            users: self.users.clone(),
            tasks: self.tasks.clone(),
            stats: AdmissionStats {
                tier,
                repair_steps,
                candidates_evaluated,
            },
        }
    }

    /// Zeroes the tentative last-mile accumulators over `num_agents`.
    fn reset_last_mile(&mut self, num_agents: usize) {
        self.tent_down.clear();
        self.tent_down.resize(num_agents, 0.0);
        self.tent_up.clear();
        self.tent_up.resize(num_agents, 0.0);
    }

    /// Rank-ordered exhaustive admission: tries every user→candidate
    /// combo (shallowest total fallback depth first, lexicographic
    /// within a depth — see [`next_combo`]) until one passes the
    /// last-mile, transcoding and global checks. Guarantees the Fig. 9
    /// monotonicity — a larger candidate set can only enlarge the
    /// searched feasible set.
    fn enumerate(
        &mut self,
        search: &Search<'_>,
        eval: &mut EvalScratch,
    ) -> Result<AdmissionDecision, AdmissionFailure> {
        self.needs.clear();
        self.needs
            .extend(search.users.iter().map(|&u| user_needs(search.problem, u)));
        self.lens.clear();
        self.lens.resize(search.users.len(), search.per_user);
        // Tentative last-mile accumulators are reset sparsely after
        // each combo — only the agents the combo wrote.
        self.reset_last_mile(search.problem.instance().num_agents());

        let mut passed_last_mile = false;
        let mut passed_tasks = false;
        let mut candidates_evaluated = 0usize;
        let mut more = first_combo(&self.lens, &mut self.combo);
        while more {
            // Tentative last-mile check.
            let mut fits = true;
            for k in 0..self.combo.len() {
                let l = search.candidates_of(k)[self.combo[k]];
                if !search.last_mile_fits(l, self.needs[k], self) {
                    fits = false;
                    break;
                }
                self.tent_down[l.index()] += self.needs[k].0;
                self.tent_up[l.index()] += self.needs[k].1;
            }
            // Sparse reset: zeroing an agent the (possibly truncated)
            // accumulation never wrote is a harmless no-op.
            for k in 0..self.combo.len() {
                let i = search.candidates_of(k)[self.combo[k]].index();
                self.tent_down[i] = 0.0;
                self.tent_up[i] = 0.0;
            }
            if fits {
                passed_last_mile = true;
                self.users.clear();
                for k in 0..self.combo.len() {
                    self.users
                        .push((search.users[k], search.candidates_of(k)[self.combo[k]]));
                }
                if self.place_tasks(search) {
                    passed_tasks = true;
                    candidates_evaluated += 1;
                    if self.check_full(search, eval).is_none() {
                        return Ok(self.decision(
                            AdmissionTier::Enumeration,
                            0,
                            candidates_evaluated,
                        ));
                    }
                }
            }
            more = next_combo(&self.lens, &mut self.combo);
        }
        Err(if !passed_last_mile {
            AdmissionFailure::UserFit
        } else if !passed_tasks {
            AdmissionFailure::TaskFit
        } else {
            AdmissionFailure::GlobalCheck
        })
    }

    /// Places the session's transcoding groups for the current `users`
    /// into `tasks`: rule of thumb first, then fallback through the
    /// rank order while respecting residual slots. `false` when some
    /// group fits nowhere.
    fn place_tasks(&mut self, search: &Search<'_>) -> bool {
        let problem = search.problem;
        placement::rule_of_thumb_session_into(
            problem,
            search.s,
            &self.users,
            &mut self.stream_keys,
            &mut self.preferred,
        );
        self.tent_units.clear();
        self.tent_units.resize(problem.instance().num_agents(), 0);
        self.units.clear();
        self.tasks.clear();
        for &(t, preferred_agent) in &self.preferred {
            let task = problem.tasks().task(t);
            let mut placed = false;
            for &l in std::iter::once(&preferred_agent).chain(search.fallback_order) {
                if !search.available[l.index()] {
                    continue;
                }
                // One unit per distinct (agent, source, target): a
                // stream already transcoded there serves this task too.
                let key = (l, task.src, task.target);
                let unit = self.units.binary_search(&key);
                let used =
                    f64::from(self.tent_units[l.index()]) + if unit.is_err() { 1.0 } else { 0.0 };
                if used <= search.residuals.transcode[l.index()] + 1e-9 {
                    if let Err(at) = unit {
                        self.units.insert(at, key);
                        self.tent_units[l.index()] += 1;
                    }
                    self.tasks.push((t, l));
                    placed = true;
                    break;
                }
            }
            if !placed {
                return false;
            }
        }
        true
    }

    /// Evaluates the fully-placed session into `eval` and checks it
    /// globally against the residuals: per *touched* agent (ascending),
    /// `load ≤ residual` — the sparse mirror of the closed-world
    /// `totals + load ≤ capacity` check (the prior state is feasible,
    /// so only touched agents can newly violate) — then the delay
    /// bound. Availability of every target is re-checked first, so no
    /// tier can emit a placement on a failed agent. Returns the first
    /// violation, `None` when feasible.
    ///
    /// Admission keeps this residual check rather than asking
    /// [`vc_core::demand_fits`], the rule of hops and evacuations: the
    /// [`Residuals`] are clamped at 0, so on an agent over its
    /// transcoding capacity a user-only placement (0 units there) passes
    /// here and fails the signed rule. Switching would change which
    /// placements admission accepts, which `tests/admission_golden.rs`
    /// pins.
    fn check_full(&self, search: &Search<'_>, eval: &mut EvalScratch) -> Option<GlobalViolation> {
        let Search {
            problem,
            residuals,
            available,
            ..
        } = *search;
        for &(_, l) in &self.users {
            if !available[l.index()] {
                return Some(GlobalViolation::Unavailable);
            }
        }
        for &(_, l) in &self.tasks {
            if !available[l.index()] {
                return Some(GlobalViolation::Unavailable);
            }
        }
        let view = PlacementView {
            users: &self.users,
            tasks: &self.tasks,
        };
        let load = eval.evaluate(problem, &view, search.s);
        // `load.touched` is ascending, mirroring the dense agent scan of
        // `SystemState::violations`.
        for &a in &load.touched {
            let i = a as usize;
            if load.download[i] > residuals.download[i] + CAPACITY_EPS {
                return Some(GlobalViolation::Download(AgentId::from(i)));
            }
            if load.upload[i] > residuals.upload[i] + CAPACITY_EPS {
                return Some(GlobalViolation::Upload(AgentId::from(i)));
            }
            if f64::from(load.transcode_units[i]) > residuals.transcode[i] {
                return Some(GlobalViolation::Transcode(AgentId::from(i)));
            }
        }
        if load.max_flow_delay > problem.instance().d_max_ms() + CAPACITY_EPS {
            return Some(GlobalViolation::Delay);
        }
        None
    }

    /// One repair move over the candidate placement: shift a user or
    /// task of the session away from the agent named in `violation`, to
    /// its next-ranked *available* alternative. Returns whether any
    /// move was applied.
    fn repair_step(&mut self, search: &Search<'_>, violation: GlobalViolation) -> bool {
        let overloaded = match violation {
            GlobalViolation::Download(agent) | GlobalViolation::Upload(agent) => agent,
            GlobalViolation::Transcode(agent) => {
                // Move one of this session's tasks off the agent (the
                // fallback order is pre-filtered to available agents).
                for slot in self.tasks.iter_mut() {
                    if slot.1 == agent {
                        for &l in search.fallback_order {
                            if l != agent {
                                slot.1 = l;
                                return true;
                            }
                        }
                    }
                }
                return false;
            }
            // Delay violations are not repairable by shuffling, and an
            // unavailable target means a bug upstream (every chooser
            // filters on availability) — give up rather than shuffle.
            GlobalViolation::Delay | GlobalViolation::Unavailable => return false,
        };
        // Move the first of this session's users on the overloaded agent
        // that has an available alternative candidate (`users` is in
        // session order, like the candidate lists).
        for (k, slot) in self.users.iter_mut().enumerate() {
            if slot.1 != overloaded {
                continue;
            }
            if let Some(&l) = search
                .candidates_of(k)
                .iter()
                .find(|&&l| l != overloaded && search.available[l.index()])
            {
                slot.1 = l;
                return true;
            }
        }
        false
    }
}

/// Positions `combo` on the first index vector of the enumeration —
/// every user on its first choice. `false` when there is nothing to
/// enumerate (a user without candidates).
fn first_combo(lens: &[usize], combo: &mut Vec<usize>) -> bool {
    combo.clear();
    combo.resize(lens.len(), 0);
    lens.iter().all(|&len| len > 0)
}

/// Advances `combo` (one index per user, `combo[k] < lens[k]`) to its
/// successor in the enumeration order: ascending total fallback depth
/// `Σ combo[k]`, and lexicographic — first user most significant —
/// within a depth. That is exactly the order a stable sort by depth of
/// the lexicographically generated table yields, without the table.
/// Returns `false` after the last vector.
fn next_combo(lens: &[usize], combo: &mut [usize]) -> bool {
    // Same depth: bump the rightmost position that still has a deeper
    // candidate while something to its right can give one step back,
    // then make the tail the lexicographically smallest of its sum.
    let mut tail = 0usize;
    for k in (0..combo.len()).rev() {
        if tail >= 1 && combo[k] + 1 < lens[k] {
            combo[k] += 1;
            fill_smallest(lens, combo, k + 1, tail - 1);
            return true;
        }
        tail += combo[k];
    }
    // Next depth (`tail` is now the whole vector's sum).
    let deepest: usize = lens.iter().map(|len| len - 1).sum();
    if tail + 1 > deepest {
        return false;
    }
    fill_smallest(lens, combo, 0, tail + 1);
    true
}

/// Writes into `combo[from..]` the lexicographically smallest indices
/// summing to `sum`: the depth is pushed as far right as it goes.
fn fill_smallest(lens: &[usize], combo: &mut [usize], from: usize, mut sum: usize) {
    for k in (from..combo.len()).rev() {
        combo[k] = sum.min(lens[k] - 1);
        sum -= combo[k];
    }
    debug_assert_eq!(sum, 0, "depth exceeds what the tail can hold");
}

/// `(agent download, agent upload)` the user's last mile demands.
fn user_needs(problem: &UapProblem, u: UserId) -> (f64, f64) {
    let inst = problem.instance();
    (
        inst.kappa(inst.user(u).upstream()),
        problem.demanded_mbps(u),
    )
}

/// Per-stage failure counters across all sessions of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionDiagnostics {
    /// Sessions rejected at the user-placement stage.
    pub user_fit: usize,
    /// Sessions rejected at the transcoding-placement stage.
    pub task_fit: usize,
    /// Sessions rejected by the global feasibility check.
    pub global_check: usize,
}

/// The result of admitting all sessions of an instance.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// The system state after admission (failed sessions left inactive).
    pub state: SystemState,
    /// Whether *every* session was admitted feasibly.
    pub success: bool,
    /// Number of sessions admitted.
    pub admitted: usize,
    /// The first session that could not be admitted.
    pub first_failure: Option<SessionId>,
    /// Which stage rejected each failed session.
    pub diagnostics: AdmissionDiagnostics,
}

/// Admits every session of the problem in id order under the policy —
/// the offline (Fig. 9) driver of the shared [`AdmissionEngine`].
pub fn admit_all(problem: Arc<UapProblem>, policy: &AdmissionPolicy) -> AdmissionOutcome {
    let engine = AdmissionEngine::default();
    let inst = problem.instance();
    let num_sessions = inst.num_sessions();
    let initial = Assignment::all_to_agent(&problem, AgentId::new(0));
    let mut state = SystemState::with_active(problem.clone(), initial, vec![false; num_sessions]);
    let mut eval = EvalScratch::new();
    let mut scratch = AdmissionScratch::default();
    let mut residuals = Residuals::default();
    // Admission never changes availability.
    let available: Vec<bool> = inst
        .agent_ids()
        .map(|l| state.is_agent_available(l))
        .collect();

    let mut admitted = 0;
    let mut first_failure = None;
    let mut success = true;
    let mut diagnostics = AdmissionDiagnostics::default();
    for s in inst.session_ids() {
        residuals.fill_from_totals(&problem, state.totals());
        match engine.place_session_with(
            &problem,
            s,
            policy,
            &residuals,
            &available,
            &mut eval,
            &mut scratch,
        ) {
            Ok(decision) => {
                state.reassign_session(s, &decision.users, &decision.tasks);
                state.activate(s);
                admitted += 1;
            }
            Err(stage) => {
                success = false;
                if first_failure.is_none() {
                    first_failure = Some(s);
                }
                match stage {
                    AdmissionFailure::UserFit => diagnostics.user_fit += 1,
                    AdmissionFailure::TaskFit => diagnostics.task_fit += 1,
                    AdmissionFailure::GlobalCheck => diagnostics.global_check += 1,
                }
            }
        }
    }
    AdmissionOutcome {
        state,
        success,
        admitted,
        first_failure,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig2_like_problem, scarce_capacity_problem};
    use proptest::prelude::*;

    /// The enumeration order's definition: the full combination table,
    /// generated lexicographically (first user most significant), then
    /// stably sorted by total fallback depth. This is what tier 1 used
    /// to build per admission; it stays as the reference the lazy
    /// successor is checked against.
    fn materialized_combos(lens: &[usize]) -> Vec<Vec<usize>> {
        let mut combos: Vec<Vec<usize>> = vec![vec![]];
        for &len in lens {
            combos = combos
                .into_iter()
                .flat_map(|prefix| {
                    (0..len).map(move |i| {
                        let mut c = prefix.clone();
                        c.push(i);
                        c
                    })
                })
                .collect();
        }
        combos.sort_by_key(|c| c.iter().sum::<usize>());
        combos
    }

    fn walked_combos(lens: &[usize]) -> Vec<Vec<usize>> {
        let mut combo = Vec::new();
        let mut out = Vec::new();
        let mut more = first_combo(lens, &mut combo);
        while more {
            out.push(combo.clone());
            more = next_combo(lens, &mut combo);
        }
        out
    }

    fn assert_walk_matches_table(lens: &[usize]) {
        let walked = walked_combos(lens);
        assert_eq!(walked, materialized_combos(lens), "lens {lens:?}");
        // Every combination exactly once.
        assert_eq!(walked.len(), lens.iter().product::<usize>());
        let distinct: std::collections::BTreeSet<&Vec<usize>> = walked.iter().collect();
        assert_eq!(
            distinct.len(),
            walked.len(),
            "lens {lens:?} repeats a combo"
        );
    }

    #[test]
    fn lazy_combo_walk_equals_the_sorted_table_on_the_edge_cases() {
        for lens in [
            vec![1],
            vec![7],
            vec![1, 1, 1],
            vec![1, 4, 1],
            vec![3, 1, 2],
            vec![2, 5, 3],
            vec![5, 2, 1, 4],
            vec![7, 7, 7],
            vec![2; 10],         // 1024 = the default combo_cap
            vec![4, 4, 4, 4, 4], // 1024
            vec![32, 32],        // 1024
            vec![1024],
            vec![5, 5, 41], // 1025: just past the cap
            vec![1025],
            vec![],     // no users: the one empty combination
            vec![3, 0], // a user without candidates: nothing to try
        ] {
            assert_walk_matches_table(&lens);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lazy_combo_walk_equals_the_sorted_table(
            lens in prop::collection::vec(1usize..=6, 1..=5)
        ) {
            assert_walk_matches_table(&lens);
        }
    }

    #[test]
    fn a_reused_scratch_decides_like_a_fresh_one() {
        // The scratch carries capacity, never state: one scratch dragged
        // through every session, policy and cap decides exactly like a
        // throwaway one.
        let mut scratch = AdmissionScratch::default();
        let mut eval = EvalScratch::new();
        for p in [fig2_like_problem(), scarce_capacity_problem()] {
            let residuals = Residuals::full(&p);
            let available = vec![true; p.instance().num_agents()];
            for policy in [
                AdmissionPolicy::AgRank(AgRankConfig::live()),
                AdmissionPolicy::Nearest,
                AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
            ] {
                for cap in [1024, 0] {
                    let engine = AdmissionEngine::new(AdmissionConfig { combo_cap: cap });
                    for s in p.instance().session_ids() {
                        let reused = engine.place_session_with(
                            &p,
                            s,
                            &policy,
                            &residuals,
                            &available,
                            &mut eval,
                            &mut scratch,
                        );
                        let fresh =
                            engine.place_session(&p, s, &policy, &residuals, &available, &mut eval);
                        match (reused, fresh) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a.users, b.users);
                                assert_eq!(a.tasks, b.tasks);
                                assert_eq!(a.stats, b.stats);
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b),
                            (a, b) => panic!("scratch changed the decision: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unlimited_capacity_admits_everything() {
        let p = Arc::new(fig2_like_problem());
        for policy in [
            AdmissionPolicy::Nearest,
            AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
        ] {
            let out = admit_all(p.clone(), &policy);
            assert!(out.success, "policy {policy:?} failed");
            assert_eq!(out.admitted, p.instance().num_sessions());
            assert!(out.first_failure.is_none());
            assert!(out.state.is_feasible());
        }
    }

    #[test]
    fn nearest_piles_up_and_fails_under_scarcity() {
        // All users are nearest to agent A, whose capacity carries only
        // one session: Nrst must fail from the second session on.
        let p = Arc::new(scarce_capacity_problem());
        let out = admit_all(p, &AdmissionPolicy::Nearest);
        assert!(!out.success);
        assert_eq!(out.admitted, 1);
        assert_eq!(out.first_failure, Some(SessionId::new(1)));
    }

    #[test]
    fn wider_candidate_sets_admit_more() {
        // The Fig. 9 ordering: AgRank#3 ≥ AgRank#2 ≥ Nrst.
        let p = Arc::new(scarce_capacity_problem());
        let nrst = admit_all(p.clone(), &AdmissionPolicy::Nearest);
        let ag2 = admit_all(p.clone(), &AdmissionPolicy::AgRank(AgRankConfig::paper(2)));
        let ag3 = admit_all(p.clone(), &AdmissionPolicy::AgRank(AgRankConfig::paper(3)));
        assert!(ag2.admitted >= nrst.admitted);
        assert!(ag3.admitted >= ag2.admitted);
        assert!(ag3.success, "AgRank#3 should place all three sessions");
    }

    #[test]
    fn admitted_state_is_always_feasible() {
        let p = Arc::new(scarce_capacity_problem());
        for policy in [
            AdmissionPolicy::Nearest,
            AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
            AdmissionPolicy::AgRank(AgRankConfig::paper(3)),
        ] {
            let out = admit_all(p.clone(), &policy);
            assert!(
                out.state.is_feasible(),
                "state infeasible after {policy:?}: {:?}",
                out.state.violations()
            );
        }
    }

    #[test]
    fn engine_reports_the_enumeration_tier_for_small_sessions() {
        let p = Arc::new(fig2_like_problem());
        let engine = AdmissionEngine::default();
        let residuals = Residuals::full(&p);
        let available = vec![true; p.instance().num_agents()];
        let mut scratch = EvalScratch::new();
        let decision = engine
            .place_session(
                &p,
                SessionId::new(0),
                &AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
                &residuals,
                &available,
                &mut scratch,
            )
            .expect("roomy instance admits");
        assert_eq!(decision.stats.tier, AdmissionTier::Enumeration);
        assert_eq!(decision.stats.repair_steps, 0);
        assert_eq!(
            decision.users.len(),
            p.instance().session(SessionId::new(0)).len()
        );
        assert_eq!(
            decision.tasks.len(),
            p.tasks().of_session(SessionId::new(0)).len()
        );
    }

    #[test]
    fn tiny_combo_cap_exercises_the_repair_and_fallback_tiers() {
        // Forcing the cap to 0 pushes every session through greedy +
        // repair (and, failing that, the ranked fallback) — the result
        // must still be a feasible full placement.
        let p = Arc::new(fig2_like_problem());
        let engine = AdmissionEngine::new(AdmissionConfig { combo_cap: 0 });
        let residuals = Residuals::full(&p);
        let available = vec![true; p.instance().num_agents()];
        let mut scratch = EvalScratch::new();
        let decision = engine
            .place_session(
                &p,
                SessionId::new(0),
                &AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
                &residuals,
                &available,
                &mut scratch,
            )
            .expect("roomy instance admits through repair");
        assert!(matches!(
            decision.stats.tier,
            AdmissionTier::Repair | AdmissionTier::RankedFallback
        ));
    }

    #[test]
    fn unavailable_agents_are_never_targets() {
        let p = Arc::new(fig2_like_problem());
        let engine = AdmissionEngine::default();
        let residuals = Residuals::full(&p);
        let mut available = vec![true; p.instance().num_agents()];
        // Fail the agent every user would otherwise pick first.
        let down = p.instance().delays().nearest_agent(UserId::new(0));
        available[down.index()] = false;
        let mut scratch = EvalScratch::new();
        // Exercise every tier: the default cap (enumeration) and a zero
        // cap (greedy + repair, then ranked fallback) — repair in
        // particular must never move a user onto the failed agent.
        for engine in [
            engine,
            AdmissionEngine::new(AdmissionConfig { combo_cap: 0 }),
        ] {
            if let Ok(decision) = engine.place_session(
                &p,
                SessionId::new(0),
                &AdmissionPolicy::AgRank(AgRankConfig::paper(3)),
                &residuals,
                &available,
                &mut scratch,
            ) {
                for &(_, l) in decision.users.iter() {
                    assert_ne!(l, down, "placed a user on a failed agent");
                }
                for &(_, l) in decision.tasks.iter() {
                    assert_ne!(l, down, "placed a task on a failed agent");
                }
            }
        }
    }
}
