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
//!    most `COMBO_CAP` (1 024), every combo is tried in
//!    ascending total-fallback-depth order (the Fig. 9 monotonicity: a
//!    larger candidate set strictly enlarges the searched space);
//! 2. **Repair** — oversized spaces fall back to a greedy pass with
//!    violation-driven repair (bounded by `3·|U(s)| + |tasks|` moves,
//!    and ended as soon as it returns to a placement it refused);
//! 3. **RankedFallback** — the control plane's historical
//!    walk-each-user-one-step-down-its-ranked-list search, retained as
//!    the engine's final tier when repair fails.
//!
//! ## Cost model
//!
//! A join does each piece of work once and, in steady state, allocates
//! only the two vectors of the [`AdmissionDecision`] it returns:
//!
//! * **One ranking, mostly without its rounds.**
//!   [`AdmissionEngine::place_session_with`] ranks once per call
//!   (`agrank::rank_agents_into`). The ranking is the order of AgRank's
//!   power iterate, but the rounds run only where they must: the order
//!   is read off the walk's fixed point, solved with LU factors the
//!   scratch keeps, whenever its proven error bound separates every
//!   pair of scores (AgRank's "Reading the order"). Under the default
//!   live neighbourhood that costs `O(L²)` per join and `O(L³)` once per
//!   agent registration, against ≈28 rounds of `O(L²)`;
//!   [`AdmissionScratch::rankings_iterated`] counts the rankings that
//!   still iterate. The per-user candidate lists and the task fallback
//!   order are both read off that one ranking; under the live
//!   neighbourhood every user's list is the same ranked list of all
//!   agents, so no user pays a proximity sort.
//! * **Lazy enumeration.** Tier 1 never materializes the combination
//!   table. It walks user→candidate index vectors with an in-place
//!   successor, in ascending total fallback depth and lexicographically
//!   (first user most significant) within a depth, and stops at the
//!   first feasible one — in the common case the very first, so an
//!   uncontended join costs one last-mile check, one task placement and
//!   one evaluation.
//! * **One conference compile.** The search compiles the session once
//!   ([`EvalScratch::compile`]) before its first tier; every placement
//!   it weighs — each combination, each repair step, each trial — only
//!   installs its agents, derives its flow delays and folds
//!   ([`EvalScratch::weigh`]).
//! * **A refusal costs one stream emission.** Most placements a search
//!   checks overflow an agent, and all it reads of a refusal is the
//!   agent and the constraint. So every placement after a search's
//!   first is checked on its demand bounds
//!   ([`EvalScratch::demand_bounds`]: its streams emitted into per-agent
//!   sums, bracketed by `1 ∓ 10⁻⁹`) before any fold. Where both ends of
//!   an agent's bracket fail [`agent_fits`] on the same constraint, the
//!   fold would fail there first, and the placement is refused without
//!   deriving a delay or folding. The fold runs for a search's first
//!   placement (which most joins accept), for a placement whose every
//!   `hi` fits (the delay bound and the accepted load come from it), and
//!   where a bracket straddles the rule. No decision moves: the bracket
//!   holds the fold's value in floating point, and the rule is monotone
//!   in each load.
//! * **A refusal costs its users' streams.** Where the users sit
//!   decides almost every refusal; the tasks hardly matter. So tier 1's
//!   combos and tier 3's trials ask [`agent_fits`] of the users' [stream
//!   floors](EvalScratch::stream_floors) before placing any task: per
//!   user's agent, the least download and upload any task placement
//!   leaves there, with 0 transcoding units. A floor refused there means
//!   the fold refuses every placement of the tasks, so the placement is
//!   refused without placing its tasks, bounding or folding it, and
//!   [`AdmissionScratch::stream_refusals`] counts it. Tiers 1 and 3
//!   read a refusal only as a no, and the floor is asked only once the
//!   search's stage can no longer move: in tier 1 once a combo has
//!   placed its tasks, in tier 3 once the search has reached the global
//!   check. So the stage a refused search reports is the one it would
//!   report without the floor, and a search's first placement asks no
//!   floor. Tier 2 keeps the full check, because its repair step reads
//!   the agent the fold refuses *first*, which a floor cannot name.
//! * **No placement weighed twice.** The repair walk is a function of
//!   its placement, so once it comes back to a placement it refused it
//!   can only circle until its budget runs out. It keeps the placements
//!   it refused (at most `3·|U(s)| + |T(s)| + 1`), stops at the first
//!   repeat, and tier 3 refuses a trial equal to one of them without
//!   checking it. Tier 1's combos and tier 3's trials are distinct by
//!   construction, so [`AdmissionStats::candidates_evaluated`] counts
//!   distinct placements.
//! * **One scratch.** [`AdmissionScratch`] owns every per-admit buffer:
//!   the ranking's vectors, walk matrix and factors
//!   (`agrank::RankScratch`),
//!   the candidate and fallback lists, the combination cursor, the
//!   tentative last-mile and transcoding-unit accumulators, the
//!   rule-of-thumb grouping keys, the candidate placement itself and
//!   the placements repair refused.
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
    agent_fits, AgentDemand, Assignment, EvalScratch, FreeCapacity, SystemState, TaskId,
    UapProblem, Violation, CAPACITY_EPS,
};
use vc_model::{AgentId, Capacity, ReprId, SessionId, UserId};

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
    /// Candidate placements that reached the global check, however it
    /// settled them — on their demand bounds or on a fold. The search
    /// never checks one placement twice, so these are distinct. A
    /// placement its users' stream floors refused never placed its
    /// tasks and is not counted
    /// ([`AdmissionScratch::stream_refusals`] counts those).
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

/// Upper bound on the user→candidate combination count the
/// enumeration tier exhausts; larger spaces use greedy+repair.
const COMBO_CAP: usize = 1024;

/// The shared admission search. See the module docs.
// Braced, not a unit struct: callers build it with
// `AdmissionEngine::default()`, which clippy flags on a unit struct.
#[derive(Debug, Clone, Default)]
pub struct AdmissionEngine {}

/// Every buffer one admission search needs, reused across searches (see
/// the module-level cost model). Holds no state between calls that a
/// decision depends on — any scratch gives the same decision — only
/// capacity, the ranking's factored walk and a count.
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

impl AdmissionScratch {
    /// AgRank rankings of two or more candidates this scratch's searches
    /// ran the power iteration for, over its lifetime — the ones whose
    /// order the fixed point's error bound could not certify, and all of
    /// them at a damping outside the certificate's range.
    pub fn rankings_iterated(&self) -> usize {
        self.rank.rankings_iterated()
    }

    /// Placements this scratch's searches refused on their users'
    /// [stream floors](EvalScratch::stream_floors), over its lifetime,
    /// without placing their tasks (see the module-level cost model).
    pub fn stream_refusals(&self) -> usize {
        self.placement.stream_refusals
    }
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

    /// Agent `agent`'s capacity and its free share of it, the
    /// residual.
    fn free_at(&self, agent: u32) -> (Capacity, FreeCapacity) {
        let i = agent as usize;
        let free = FreeCapacity {
            download: self.residuals.download[i],
            upload: self.residuals.upload[i],
            transcode: self.residuals.transcode[i],
        };
        (self.problem.instance().agents()[i].capacity(), free)
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
    /// The placements the repair tier refused in this search, back to
    /// back: the users' agents, then the tasks' agents. At most
    /// `3·|U(s)| + |T(s)| + 1` of them (one per evaluation the repair
    /// budget allows).
    refused: Vec<AgentId>,
    /// Placements refused on their stream floors, over the scratch's
    /// lifetime.
    stream_refusals: usize,
}

/// Why the global check refused a placement, as much as the search
/// reads of it: the constraint, and the agent a capacity constraint
/// broke at — never the load, which a bound verdict does not sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    Download(AgentId),
    Upload(AgentId),
    Transcode(AgentId),
    /// Constraint (8), which no repair move mends.
    Delay,
    /// A target is down: a bug upstream, since every chooser filters on
    /// availability.
    Unavailable,
}

impl From<Violation> for Refusal {
    fn from(violation: Violation) -> Self {
        match violation {
            Violation::Download { agent, .. } => Self::Download(agent),
            Violation::Upload { agent, .. } => Self::Upload(agent),
            Violation::Transcode { agent, .. } => Self::Transcode(agent),
            Violation::Delay { .. } => Self::Delay,
            Violation::Unavailable { .. } => Self::Unavailable,
        }
    }
}

/// What a placement's demand bounds settle of its capacity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// The fold's first capacity violation, for certain.
    Refuses(Refusal),
    /// The fold fits every agent, for certain (the delay bound is
    /// still open).
    Fits,
    /// An agent's bracket straddles the rule.
    Undecided,
}

impl AdmissionEngine {
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
        self.place_capped(
            problem, s, policy, residuals, available, eval, scratch, COMBO_CAP,
        )
    }

    /// The search behind [`AdmissionEngine::place_session_with`], with the
    /// enumeration tier's cap as an argument: the engine passes
    /// `COMBO_CAP`, and the tests pass 0 to force tiers 2–3.
    #[allow(clippy::too_many_arguments)]
    fn place_capped(
        &self,
        problem: &UapProblem,
        s: SessionId,
        policy: &AdmissionPolicy,
        residuals: &Residuals,
        available: &[bool],
        eval: &mut EvalScratch,
        scratch: &mut AdmissionScratch,
        combo_cap: usize,
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
                    rank.ranked()
                        .iter()
                        .copied()
                        .filter(|l| available[l.index()]),
                );
                (rank.user_candidates(), rank.per_user())
            }
        };
        eval.compile(problem, s);
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
        if combo_count <= combo_cap {
            return placement.enumerate(&search, eval);
        }

        // Tier 2: greedy user placement with tentative last-mile
        // accounting, then violation-driven repair.
        placement.reset_last_mile(inst.num_agents());
        // The walk refuses at most one placement per evaluation its
        // budget allows. Reserving that bound up front grows the memo
        // at most once per larger session, never step by step.
        let num_tasks = problem.tasks().of_session(s).len();
        let repair_budget = 3 * users.len() + num_tasks;
        placement.refused.clear();
        placement
            .refused
            .reserve((repair_budget + 1) * (users.len() + num_tasks));
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
                let mut steps = 0usize;
                loop {
                    candidates_evaluated += 1;
                    match placement.check_full(&search, eval, candidates_evaluated > 1) {
                        None => {
                            return Ok(placement.decision(
                                AdmissionTier::Repair,
                                steps,
                                candidates_evaluated,
                            ));
                        }
                        Some(refusal) => {
                            placement.refuse();
                            // The walk is a function of the placement: back
                            // at one it refused, it can only circle until
                            // the budget runs out.
                            if steps >= repair_budget
                                || !placement.repair_step(&search, refusal)
                                || placement.was_refused()
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
            // Once a trial can no longer move the stage, a refusal is
            // only a no, and the users' streams alone settle most.
            if matches!(furthest, AdmissionFailure::GlobalCheck)
                && placement.floor_refuses(&search, eval)
            {
                return false;
            }
            if !placement.place_tasks(&search) {
                if matches!(furthest, AdmissionFailure::UserFit) {
                    furthest = AdmissionFailure::TaskFit;
                }
                return false;
            }
            // A placement repair refused would be refused again.
            if !placement.was_refused() {
                candidates_evaluated += 1;
                let bound = candidates_evaluated > 1;
                if placement.check_full(&search, eval, bound).is_none() {
                    return true;
                }
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

    /// Records the candidate placement as refused (see `refused`).
    fn refuse(&mut self) {
        self.refused.extend(self.users.iter().map(|&(_, l)| l));
        self.refused.extend(self.tasks.iter().map(|&(_, l)| l));
    }

    /// Whether the candidate placement is one the repair tier refused in
    /// this search. Every placement of a session places all its users
    /// and tasks in the same order, so the agents alone identify it; a
    /// session has at least one user, so a record is never empty.
    fn was_refused(&self) -> bool {
        let placed = self.users.len() + self.tasks.len();
        self.refused.chunks_exact(placed).any(|record| {
            let (users, tasks) = record.split_at(self.users.len());
            users.iter().eq(self.users.iter().map(|(_, l)| l))
                && tasks.iter().eq(self.tasks.iter().map(|(_, l)| l))
        })
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
                // Once a combo has placed its tasks, the stage is
                // settled: a refusal is only a no, and the users'
                // streams alone settle most.
                let floored = passed_tasks && self.floor_refuses(search, eval);
                if !floored && self.place_tasks(search) {
                    passed_tasks = true;
                    candidates_evaluated += 1;
                    if self
                        .check_full(search, eval, candidates_evaluated > 1)
                        .is_none()
                    {
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

    /// Checks the fully-placed session globally against the residuals,
    /// in `eval`, which holds it compiled (users in session order and
    /// tasks ascending by id are the compiled orders): per *touched*
    /// agent (ascending) [`agent_fits`], the rule of hops, evacuations
    /// and the ledger, with nothing held there before; then the delay
    /// bound. Availability of every target is checked first, so no
    /// tier can emit a placement on a failed agent. Returns the first
    /// refusal, `None` when feasible.
    ///
    /// The search reads only a refusal's constraint and agent, which is
    /// what lets a placement after a search's first (`bound`) be
    /// settled from its [demand bounds](Self::bound_verdict): where they
    /// refuse it, no fold runs, and no `load_mbps` is made up for a
    /// load that was never summed. Otherwise — every agent fits for
    /// certain, or one the bounds cannot decide — the placement is
    /// [weighed](Self::fold_verdict), and on success its load is left
    /// in `eval`.
    fn check_full(
        &self,
        search: &Search<'_>,
        eval: &mut EvalScratch,
        bound: bool,
    ) -> Option<Refusal> {
        if (self.users.iter().map(|&(_, l)| l))
            .chain(self.tasks.iter().map(|&(_, l)| l))
            .any(|l| !search.available[l.index()])
        {
            return Some(Refusal::Unavailable);
        }
        if bound {
            let verdict = self.bound_verdict(search, eval);
            #[cfg(test)]
            tests::audit(verdict, self.fold_verdict(search, eval), eval.load());
            if let Bound::Refuses(refusal) = verdict {
                return Some(refusal);
            }
        }
        self.fold_verdict(search, eval)
    }

    /// The capacity check on the candidate placement's demand bounds:
    /// at each agent its fold would touch, ascending, [`agent_fits`] of
    /// the bracket's `lo` and `hi`. An agent whose `hi` fits passes the
    /// fold ([`agent_fits`] is monotone in each load); one where both
    /// ends fail on the same constraint is where the fold fails first.
    fn bound_verdict(&self, search: &Search<'_>, eval: &mut EvalScratch) -> Bound {
        let bounds = eval.demand_bounds(
            self.users.iter().map(|&(_, l)| l),
            self.tasks.iter().map(|&(_, l)| l),
        );
        let none = AgentDemand::default();
        for [lo, hi] in bounds {
            let (cap, free) = search.free_at(lo.agent);
            match (
                agent_fits(&cap, free, &none, lo),
                agent_fits(&cap, free, &none, hi),
            ) {
                (_, Ok(())) => {}
                (Err(lo), Err(hi)) if Refusal::from(lo) == Refusal::from(hi) => {
                    return Bound::Refuses(lo.into());
                }
                _ => return Bound::Undecided,
            }
        }
        Bound::Fits
    }

    /// Whether the candidate placement's users alone refuse it:
    /// [`agent_fits`] of each of their agents' [stream
    /// floors](EvalScratch::stream_floors), ascending, no task placed.
    /// A refusal here is a refusal of the fold for every placement of
    /// the tasks, so it is asked only where the search reads a refusal
    /// as a no (the module-level cost model), and it is counted.
    fn floor_refuses(&mut self, search: &Search<'_>, eval: &mut EvalScratch) -> bool {
        let refused = self.floor_verdict(search, eval);
        #[cfg(test)]
        if let Some(agent) = refused {
            tests::audit_floor(self, search, eval, agent);
        }
        self.stream_refusals += usize::from(refused.is_some());
        refused.is_some()
    }

    /// The first of the candidate users' agents whose stream floor
    /// [`agent_fits`] refuses, if any.
    fn floor_verdict(&self, search: &Search<'_>, eval: &mut EvalScratch) -> Option<AgentId> {
        let none = AgentDemand::default();
        let floors = eval.stream_floors(self.users.iter().map(|&(_, l)| l));
        floors.iter().find_map(|floor| {
            let (cap, free) = search.free_at(floor.agent);
            agent_fits(&cap, free, &none, floor)
                .is_err()
                .then_some(AgentId::new(floor.agent))
        })
    }

    /// The capacity and delay check on the candidate placement's fold,
    /// which it leaves in `eval`.
    fn fold_verdict(&self, search: &Search<'_>, eval: &mut EvalScratch) -> Option<Refusal> {
        let load = eval.weigh(
            search.problem,
            self.users.iter().map(|&(_, l)| l),
            self.tasks.iter().map(|&(_, l)| l),
        );
        let none = AgentDemand::default();
        for new in load.demand() {
            let (cap, free) = search.free_at(new.agent);
            if let Err(violation) = agent_fits(&cap, free, &none, &new) {
                return Some(violation.into());
            }
        }
        let inst = search.problem.instance();
        (load.max_flow_delay > inst.d_max_ms() + CAPACITY_EPS).then_some(Refusal::Delay)
    }

    /// One repair move over the candidate placement: shift a user or
    /// task of the session away from the agent named in `refusal`, to
    /// its next-ranked *available* alternative. Returns whether any
    /// move was applied.
    fn repair_step(&mut self, search: &Search<'_>, refusal: Refusal) -> bool {
        let overloaded = match refusal {
            Refusal::Transcode(agent) => {
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
            Refusal::Download(agent) | Refusal::Upload(agent) => agent,
            // Delay violations are not repairable by shuffling, and an
            // unavailable target means a bug upstream (every chooser
            // filters on availability) — give up rather than shuffle.
            Refusal::Delay | Refusal::Unavailable => return false,
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
    use std::cell::RefCell;
    use vc_core::SessionLoad;

    /// What the bound verdicts checked on this thread came to, and the
    /// folded demand of every placement they were asked about.
    #[derive(Debug, Default)]
    struct Audit {
        refused: usize,
        fitted: usize,
        undecided: usize,
        /// Stream-floor refusals whose tasks placed, so a fold audited
        /// them.
        floored: usize,
        folds: Vec<AgentDemand>,
    }

    thread_local! {
        static AUDIT: RefCell<Audit> = RefCell::default();
    }

    /// Every bound verdict of a unit test's search, beside the full
    /// check of the same placement (`full`, whose fold is `load`): a
    /// verdict that decides must be the full check's — the same
    /// refusal, or a pass that at most the delay bound overturns.
    pub(super) fn audit(verdict: Bound, full: Option<Refusal>, load: &SessionLoad) {
        match verdict {
            Bound::Refuses(refusal) => assert_eq!(Some(refusal), full, "refused on bounds"),
            Bound::Fits => assert!(
                matches!(full, None | Some(Refusal::Delay)),
                "fitted on bounds, refused on the fold: {full:?}"
            ),
            Bound::Undecided => {}
        }
        AUDIT.with_borrow_mut(|audit| {
            match verdict {
                Bound::Refuses(_) => audit.refused += 1,
                Bound::Fits => audit.fitted += 1,
                Bound::Undecided => audit.undecided += 1,
            }
            audit.folds.extend(load.demand());
        });
    }

    /// Every stream-floor refusal of a unit test's search, first refused
    /// at `agent`, beside the fold of the tasks the search would have
    /// placed there: the fold must refuse it on capacity, at `agent` or
    /// at an agent it checks first. A placement whose tasks fit nowhere
    /// has no fold to audit.
    pub(super) fn audit_floor(
        placement: &mut PlacementScratch,
        search: &Search<'_>,
        eval: &mut EvalScratch,
        agent: AgentId,
    ) {
        if !placement.place_tasks(search) {
            return;
        }
        match placement.fold_verdict(search, eval) {
            Some(Refusal::Download(at) | Refusal::Upload(at) | Refusal::Transcode(at))
                if at <= agent => {}
            full => panic!(
                "refused on the stream floor at {agent}, the fold of {:?} / {:?}: {full:?}",
                placement.users, placement.tasks
            ),
        }
        AUDIT.with_borrow_mut(|audit| {
            audit.floored += 1;
            audit.folds.extend(eval.load().demand());
        });
    }

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
            vec![2; 10],         // 1024 = COMBO_CAP
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

    /// `agents` agents of `(download, upload, slots)` capacity and one
    /// conference of `(upstream, downstream)` rungs over a ladder whose
    /// bitrates round when summed, with last miles growing with
    /// `(agent + user) mod 5` steps of `far` ms and the delay bound
    /// `d_max`.
    fn tight_universe(
        agents: &[(f64, f64, u32)],
        users: &[(usize, usize)],
        far: f64,
        d_max: f64,
    ) -> UapProblem {
        let ladder = vc_model::ReprLadder::from_steps([
            ("r0", 100, 1_234),
            ("r1", 200, 2_719),
            ("r2", 300, 4_871),
            ("r3", 400, 7_333),
        ])
        .unwrap();
        let mut b = vc_model::InstanceBuilder::new(ladder);
        for (i, &(download, upload, slots)) in agents.iter().enumerate() {
            let capacity = vc_model::Capacity::new(upload, download, slots);
            b.add_agent(
                vc_model::AgentSpec::builder(format!("a{i}"))
                    .capacity(capacity)
                    .speed_factor(1.0 + 0.25 * i as f64)
                    .build(),
            );
        }
        let s = b.add_session();
        for &(up, down) in users {
            b.add_user(s, ReprId::from(up), ReprId::from(down));
        }
        b.symmetric_delays(
            |l, k| 10.0 + 7.0 * (l as f64 - k as f64).abs(),
            |l, u| 5.0 + far * ((l + u) % 5) as f64,
        );
        b.d_max_ms(d_max);
        UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The searches behind `a_bound_verdict_is_the_exact_verdict`:
        /// random tight universes, signed residuals (overshot agents
        /// included), unavailable agents, both caps and three AgRank
        /// neighbourhoods. Each search runs twice: the second time with
        /// one agent's download or upload residual put within 10⁻¹²
        /// relative of a fold the first search's bounds were asked
        /// about, where a bracket straddles the rule.
        fn bound_verdicts_on_tight_universes(
            agents in prop::collection::vec((20.0f64..120.0, 40.0f64..240.0, 0u32..4), 3..=6),
            users in prop::collection::vec((0usize..4, 0usize..4), 2..=6),
            slack in prop::collection::vec((-0.3f64..1.0, -0.3f64..1.0, 0u32..3), 6),
            down in prop::collection::vec(0usize..10, 6),
            (far, roomy) in (0.0f64..40.0, 0u32..5),
            (n_ngbr, tight, shift) in (1usize..=3, 0usize..1_000, -1.0f64..=1.0),
        ) {
            let d_max = if roomy > 0 { 10_000.0 } else { 150.0 };
            let p = tight_universe(&agents, &users, far, d_max);
            let s = SessionId::new(0);
            let residuals = Residuals {
                download: agents.iter().zip(&slack).map(|(a, r)| a.0 * r.0).collect(),
                upload: agents.iter().zip(&slack).map(|(a, r)| a.1 * r.1).collect(),
                transcode: (agents.iter().zip(&slack))
                    .map(|(a, r)| f64::from(a.2) - f64::from(r.2))
                    .collect(),
            };
            let available: Vec<bool> = (0..agents.len()).map(|i| down[i] != 0).collect();
            let policy = match n_ngbr {
                3 => AgRankConfig::live(),
                n => AgRankConfig::paper(n + 1),
            };
            let mut eval = EvalScratch::new();
            let mut scratch = AdmissionScratch::default();
            for cap in [COMBO_CAP, 0] {
                let mut search = |residuals: &Residuals| {
                    AUDIT.with_borrow_mut(|audit| audit.folds.clear());
                    let _ = AdmissionEngine::default().place_capped(
                        &p,
                        s,
                        &AdmissionPolicy::AgRank(policy),
                        residuals,
                        &available,
                        &mut eval,
                        &mut scratch,
                        cap,
                    );
                    AUDIT.with_borrow(|audit| audit.folds.clone())
                };
                let folds = search(&residuals);
                let Some(fold) = folds.get(tight % folds.len().max(1)) else {
                    continue;
                };
                let mut tightened = residuals.clone();
                let i = fold.agent as usize;
                let near = |load: f64| load * (1.0 + shift * 1e-12) - CAPACITY_EPS;
                if tight % 2 == 0 {
                    tightened.download[i] = near(fold.download);
                } else {
                    tightened.upload[i] = near(fold.upload);
                }
                search(&tightened);
            }
        }
    }

    /// Whenever the demand bounds decide a placement the search checks,
    /// they decide it as the full check does — the audit in
    /// `check_full` asserts that on every such placement of every unit
    /// test — and on random tight universes they refuse, fit, and meet
    /// brackets they cannot decide. Likewise every stream-floor refusal
    /// is one the fold makes (`audit_floor`), and there are some.
    #[test]
    fn a_bound_verdict_is_the_exact_verdict() {
        AUDIT.with_borrow_mut(|audit| *audit = Audit::default());
        bound_verdicts_on_tight_universes();
        AUDIT.with_borrow(|audit| {
            assert!(
                audit.refused > 0 && audit.fitted > 0 && audit.undecided > 0 && audit.floored > 0,
                "{} refused, {} fitted, {} undecided, {} floored",
                audit.refused,
                audit.fitted,
                audit.undecided,
                audit.floored
            );
        });
    }

    /// Two agents, 20 ms apart, and one conference: u0 sends 720p
    /// (5 Mbps) and watches 360p, u1 sends and watches 360p (1 Mbps),
    /// so the one task transcodes u0's stream for u1. Split over the two
    /// agents, the agent of u0 downloads at least 6 Mbps whatever the
    /// task does, against 5 Mbps of last mile.
    fn two_user_transcoding_problem() -> UapProblem {
        let ladder = vc_model::ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = vc_model::InstanceBuilder::new(ladder);
        for name in ["a", "b"] {
            b.add_agent(vc_model::AgentSpec::builder(name).build());
        }
        let s = b.add_session();
        b.add_user(s, r720, r360);
        b.add_user(s, r360, r360);
        b.symmetric_delays(|_, _| 20.0, |_, _| 5.0);
        b.d_max_ms(10_000.0);
        UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default())
    }

    /// A refusal on the users' streams never moves the stage a refused
    /// search reports: the floor is asked only once a placement has
    /// placed its tasks (tier 1) or reached the global check (tier 3).
    /// With 5.5 Mbps of download per agent, every placement that passes
    /// its last miles is refused on its stream floor.
    #[test]
    fn a_stream_refusal_leaves_the_stage_where_the_tasks_put_it() {
        let p = two_user_transcoding_problem();
        let s = SessionId::new(0);
        let stage = |download: [f64; 2], slots: f64, cap: usize| {
            let mut scratch = AdmissionScratch::default();
            let residuals = Residuals {
                download: download.to_vec(),
                upload: vec![100.0; 2],
                transcode: vec![slots; 2],
            };
            let refused = AdmissionEngine::default().place_capped(
                &p,
                s,
                &AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
                &residuals,
                &[true; 2],
                &mut EvalScratch::new(),
                &mut scratch,
                cap,
            );
            (refused.map(|d| d.users), scratch.stream_refusals())
        };
        for cap in [COMBO_CAP, 0] {
            // No slot anywhere: no placement places its task, so none
            // is asked its floor.
            assert_eq!(
                stage([5.5; 2], 0.0, cap),
                (Err(AdmissionFailure::TaskFit), 0),
                "cap {cap}"
            );
            // Slots: the first placement to place its task is folded
            // and refused, and the floor refuses the rest.
            let (refused, floored) = stage([5.5; 2], 4.0, cap);
            assert_eq!(refused, Err(AdmissionFailure::GlobalCheck), "cap {cap}");
            assert!(floored > 0, "cap {cap}");
        }
        // Agent b cannot carry u1's last mile, so the greedy pass fails
        // and tier 3 starts at the user stage: its first trial places
        // the task and is folded before the floor refuses the rest.
        let (refused, floored) = stage([5.5, 0.5], 4.0, 0);
        assert_eq!(refused, Err(AdmissionFailure::GlobalCheck));
        assert!(floored > 0);
    }

    #[test]
    fn a_reused_scratch_decides_like_a_fresh_one() {
        // The scratch carries capacity, never state: one scratch dragged
        // through every session, policy and cap decides exactly like a
        // throwaway one.
        let engine = AdmissionEngine::default();
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
                for cap in [COMBO_CAP, 0] {
                    for s in p.instance().session_ids() {
                        let reused = engine.place_capped(
                            &p,
                            s,
                            &policy,
                            &residuals,
                            &available,
                            &mut eval,
                            &mut scratch,
                            cap,
                        );
                        let fresh = engine.place_capped(
                            &p,
                            s,
                            &policy,
                            &residuals,
                            &available,
                            &mut eval,
                            &mut AdmissionScratch::default(),
                            cap,
                        );
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

    /// Five agents A–E, 20 ms apart, so AgRank's walk is uniform and the
    /// rank follows the residuals the test passes: A, C, B, D, E. The
    /// nearest three to u0 are A, B, C and to u1 B, D, E. Both users send
    /// and watch 720p (5 Mbps, no transcoding), so every agent a
    /// placement touches uploads 10 Mbps.
    fn repair_cycle_problem() -> UapProblem {
        let ladder = vc_model::ReprLadder::standard_four();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = vc_model::InstanceBuilder::new(ladder);
        for name in ["a", "b", "c", "d", "e"] {
            b.add_agent(vc_model::AgentSpec::builder(name).build());
        }
        let s = b.add_session();
        b.add_user(s, r720, r720);
        b.add_user(s, r720, r720);
        let near = [[5.0, 10.0, 8.0, 30.0, 30.0], [30.0, 5.0, 30.0, 8.0, 10.0]];
        b.symmetric_delays(|_, _| 20.0, |l, u| near[u][l]);
        UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default())
    }

    #[test]
    fn repair_stops_at_a_refused_placement_and_tier_3_skips_what_it_refused() {
        let p = repair_cycle_problem();
        let s = SessionId::new(0);
        let (u0, u1) = (UserId::new(0), UserId::new(1));
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(AgentId::new);
        // A and C carry a user's 5 Mbps last mile but not the 10 Mbps a
        // touched agent uploads; B carries both users.
        let inf = f64::INFINITY;
        let residuals = Residuals {
            upload: vec![7.5, 50.0, 7.5, 0.0, 0.0],
            download: vec![inf, 10.0, inf, 100.0, 0.0],
            transcode: vec![inf, 0.0, 0.0, 0.0, 0.0],
        };
        let config = AgRankConfig::paper(3);
        let ranking = agrank::rank_agents(&p, s, &residuals, &config);
        assert_eq!(ranking.candidates_of(u0), [a, c, b]);
        assert_eq!(ranking.candidates_of(u1), [b, d, e]);

        // Greedy places (A, B). Repair moves u0 off A to C on upload,
        // then off C back to A: (A, B) again, where the walk can only
        // circle. Tier 3 tries the first choices (A, B), then u0 on C
        // and on B, and admits (B, B).
        let decision = AdmissionEngine::default()
            .place_capped(
                &p,
                s,
                &AdmissionPolicy::AgRank(config),
                &residuals,
                &[true; 5],
                &mut EvalScratch::new(),
                &mut AdmissionScratch::default(),
                0,
            )
            .expect("tier 3 admits the session on B");
        // A search that re-weighs refused placements makes this same
        // decision after 10 evaluations: seven in repair (its budget of
        // 3·2 + 0 moves, plus one), then (A, B), (C, B) and (B, B).
        assert_eq!(decision.users, [(u0, b), (u1, b)]);
        assert!(decision.tasks.is_empty());
        assert_eq!(decision.stats.tier, AdmissionTier::RankedFallback);
        assert_eq!(decision.stats.repair_steps, 0);
        // Each distinct placement once: (A, B), (C, B), (B, B).
        assert_eq!(decision.stats.candidates_evaluated, 3);
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

    /// The engine's own cap splits the tiers: over seven live
    /// candidates per user, a 3-user session has 7³ = 343 ≤ `COMBO_CAP`
    /// placements and is enumerated; a 4-user one has 7⁴ = 2 401 and is
    /// placed by repair or the ranked fallback.
    #[test]
    fn the_combo_cap_splits_enumeration_from_repair() {
        let ladder = vc_model::ReprLadder::standard_four();
        let r = ladder.by_name("360p").unwrap().id();
        let mut b = vc_model::InstanceBuilder::new(ladder);
        for name in ["a", "b", "c", "d", "e", "f", "g"] {
            b.add_agent(vc_model::AgentSpec::builder(name).build());
        }
        for users in [3, 4] {
            let s = b.add_session();
            for _ in 0..users {
                b.add_user(s, r, r);
            }
        }
        b.symmetric_delays(
            |l, k| 20.0 + 5.0 * (l as f64 - k as f64).abs(),
            |l, u| 10.0 + ((l + u) % 7) as f64,
        );
        let p = UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default());
        let residuals = Residuals::full(&p);
        let tier = |s: u32| {
            AdmissionEngine::default()
                .place_session(
                    &p,
                    SessionId::new(s),
                    &AdmissionPolicy::AgRank(AgRankConfig::live()),
                    &residuals,
                    &[true; 7],
                    &mut EvalScratch::new(),
                )
                .expect("unlimited capacity admits")
                .stats
                .tier
        };
        assert_eq!(tier(0), AdmissionTier::Enumeration);
        assert!(matches!(
            tier(1),
            AdmissionTier::Repair | AdmissionTier::RankedFallback
        ));
    }

    #[test]
    fn tiny_combo_cap_exercises_the_repair_and_fallback_tiers() {
        // Forcing the cap to 0 pushes every session through greedy +
        // repair (and, failing that, the ranked fallback) — the result
        // must still be a feasible full placement.
        let p = Arc::new(fig2_like_problem());
        let residuals = Residuals::full(&p);
        let available = vec![true; p.instance().num_agents()];
        let decision = AdmissionEngine::default()
            .place_capped(
                &p,
                SessionId::new(0),
                &AdmissionPolicy::AgRank(AgRankConfig::paper(2)),
                &residuals,
                &available,
                &mut EvalScratch::new(),
                &mut AdmissionScratch::default(),
                0,
            )
            .expect("roomy instance admits through repair");
        assert!(matches!(
            decision.stats.tier,
            AdmissionTier::Repair | AdmissionTier::RankedFallback
        ));
    }

    /// Admission asks the capacity rule hops ask, so the two agree on
    /// an agent a forced evacuation overshot: agent 0 carries two
    /// transcoding units on its one slot, and the nearest placement puts
    /// both users there with no transcoding at all. A hop making that
    /// move is refused (0 new units against −1 free), and so is the
    /// admission.
    #[test]
    fn admission_and_hops_refuse_the_same_overshot_agent() {
        let ladder = vc_model::ReprLadder::standard_four();
        let r = ladder.highest();
        let mut b = vc_model::InstanceBuilder::new(ladder);
        for (name, slots) in [("overshot", 1), ("roomy", 4)] {
            let capacity = vc_model::Capacity::new(1e3, 1e3, slots);
            b.add_agent(
                vc_model::AgentSpec::builder(name)
                    .capacity(capacity)
                    .build(),
            );
        }
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 20.0, |l, _| if l == 0 { 5.0 } else { 40.0 });
        b.d_max_ms(10_000.0);
        let p = UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default());
        let mut totals = vc_core::AgentTotals::zero(2);
        totals.transcode[0] = 2;
        let over = AgentId::new(0);

        let mut eval = EvalScratch::new();
        eval.compile(&p, s);
        let load = eval.weigh(&p, [over, over], []).clone();
        assert_eq!(
            (load.touched.as_slice(), load.transcode_units[0]),
            (&[0][..], 0)
        );
        let hop = vc_core::demand_fits(
            load.demand(),
            &vc_core::SessionLoad::empty(2),
            &totals,
            p.instance(),
        );
        assert!(
            matches!(hop, Err(vc_core::Violation::Transcode { .. })),
            "{hop:?}"
        );

        let admitted = AdmissionEngine::default().place_session(
            &p,
            s,
            &AdmissionPolicy::Nearest,
            &Residuals::from_totals(&p, &totals),
            &[true, true],
            &mut eval,
        );
        assert_eq!(
            admitted.map(|d| d.users),
            Err(AdmissionFailure::GlobalCheck)
        );
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
        let mut eval = EvalScratch::new();
        // Exercise every tier: the engine's cap (enumeration) and a zero
        // cap (greedy + repair, then ranked fallback) — repair in
        // particular must never move a user onto the failed agent.
        for cap in [COMBO_CAP, 0] {
            if let Ok(decision) = engine.place_capped(
                &p,
                SessionId::new(0),
                &AdmissionPolicy::AgRank(AgRankConfig::paper(3)),
                &residuals,
                &available,
                &mut eval,
                &mut AdmissionScratch::default(),
                cap,
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

    /// Eight agents and 400 sessions of 1–4 users at positions drawn on
    /// a 100 ms square (delay = distance), the agents' last miles sized
    /// so that the 24 live sessions contend for them (a quarter of the
    /// arrivals is refused).
    fn churn_problem() -> UapProblem {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use vc_model::{InstanceBuilder, ReprLadder};
        let mut rng = StdRng::seed_from_u64(46);
        let ladder = ReprLadder::standard_four();
        let reprs = [
            ladder.by_name("720p").unwrap().id(),
            ladder.by_name("360p").unwrap().id(),
        ];
        let mut b = InstanceBuilder::new(ladder);
        let mut point = || (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let agents: Vec<(f64, f64)> = (0..8).map(|_| point()).collect();
        let mut users = Vec::new();
        for (i, _) in agents.iter().enumerate() {
            b.add_agent(
                vc_model::AgentSpec::builder(format!("a{i}"))
                    .upload_mbps(40.0)
                    .download_mbps(40.0)
                    .transcode_slots(6)
                    .build(),
            );
        }
        for _ in 0..400 {
            let s = b.add_session();
            for _ in 0..rng.gen_range(1..=4usize) {
                b.add_user(
                    s,
                    reprs[rng.gen_range(0..2usize)],
                    reprs[rng.gen_range(0..2usize)],
                );
                users.push((rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)));
            }
        }
        let ms = |(x, y): (f64, f64), (u, v): (f64, f64)| f64::hypot(x - u, y - v) + 1.0;
        b.symmetric_delays(
            |l, k| {
                if l == k {
                    0.0
                } else {
                    ms(agents[l], agents[k])
                }
            },
            |l, u| ms(agents[l], users[u]),
        );
        UapProblem::new(b.build().unwrap(), vc_cost::CostModel::paper_default())
    }

    /// Under the live neighbourhood nearly every admission reads its
    /// order off the fixed point: in a churn-shaped run — sessions
    /// arriving in id order, each admitted one departing 24 admissions
    /// later — at least 99 % of the rankings are certified. The
    /// fallback is bit-exact, so no other test would notice a
    /// certificate that never fires.
    #[test]
    fn live_rankings_are_read_off_the_fixed_point() {
        let p = Arc::new(churn_problem());
        let inst = p.instance();
        let engine = AdmissionEngine::default();
        let initial = Assignment::all_to_agent(&p, AgentId::new(0));
        let mut state =
            SystemState::with_active(p.clone(), initial, vec![false; inst.num_sessions()]);
        let available = vec![true; inst.num_agents()];
        let policy = AdmissionPolicy::AgRank(AgRankConfig::live());
        let (mut eval, mut scratch) = (EvalScratch::new(), AdmissionScratch::default());
        let mut residuals = Residuals::default();
        let mut live = std::collections::VecDeque::new();
        for s in inst.session_ids() {
            if live.len() == 24 {
                state.deactivate(live.pop_front().unwrap());
            }
            residuals.fill_from_totals(&p, state.totals());
            let placed = engine.place_session_with(
                &p,
                s,
                &policy,
                &residuals,
                &available,
                &mut eval,
                &mut scratch,
            );
            if let Ok(decision) = placed {
                state.reassign_session(s, &decision.users, &decision.tasks);
                state.activate(s);
                live.push_back(s);
            }
        }
        let rankings = inst.num_sessions();
        let certified = scratch.rank.rankings_certified();
        assert_eq!(certified + scratch.rankings_iterated(), rankings);
        assert!(
            certified * 100 >= rankings * 99,
            "{certified} of {rankings} rankings certified"
        );
    }
}
