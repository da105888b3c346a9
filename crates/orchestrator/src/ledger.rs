//! The sharded per-agent capacity ledger.
//!
//! A closed-world state checks capacity against the sessions of its own
//! instance only. The orchestrator instead treats agent capacity as a
//! *shared, contended* resource: the paper's constraints (5)–(7) bound
//! the *sum* of the session loads on each agent, and those per-agent
//! sums are what the ledger keeps — reserved download, upload and
//! transcoding units per agent, beside the agent's capacity and region.
//! It keeps no per-session record and no availability (the fleet's
//! universe says which agents are up). A live session's reservation
//! is its slot's [`SessionHold`]; whoever changes a reservation hands
//! the ledger the demand it gives up and the demand it takes (any
//! [`Reservation`] — a slot's hold, or the kernel's evaluation of the
//! placement it moves to), and the ledger moves the totals by exactly those
//! amounts, atomically across the agents involved — possibly from many
//! worker threads at once. The fleet does so holding the slot's lock or
//! the exclusive FREEZE, so the demand it names is the one booked.
//!
//! A checked booking asks [`agent_fits`], the capacity rule admission
//! and every hop ask too, so a refused `try_swap` is a lost race.
//!
//! Agents are partitioned into shards, each behind its own lock, so
//! concurrent reservations contend only when they touch the same shard.
//! A multi-agent reservation locks the shards it spans in ascending
//! order (deadlock-free) and is all-or-nothing.
//!
//! ## Elastic agents and regions
//!
//! The agent pool is append-only extensible: [`CapacityLedger::
//! register_agent`] pushes a fresh entry behind the entries `RwLock`
//! without renumbering anything — the shard count is fixed at
//! construction, so the agent→shard mapping of existing agents never
//! changes. Every agent belongs to exactly one named **region**, fixed
//! when it registers (seed agents land in region 0, `"default"`); the
//! ledger's region table is the one record of which. Regions label
//! agents for telemetry
//! ([`region_residuals`](CapacityLedger::region_residuals));
//! they do not change how a reservation is booked — one that spans
//! regions locks its shards like any other and is just as
//! all-or-nothing.
//!
//! Lock order (deadlock-free by construction): agent-shard locks
//! (ascending) → entries read lock. The entries *write* lock
//! (registration only) is taken alone, under the fleet's FREEZE write
//! lock, which quiesces every mutator.

use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use vc_core::{
    agent_fits, AgentDemand, AgentTotals, FreeCapacity, Held, SessionLoad, UapProblem, Violation,
};
use vc_model::{AgentId, Capacity};

/// One agent's worth of a session's reservation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentHold {
    /// The agent held on.
    pub agent: AgentId,
    /// Reserved download bandwidth (Mbps), constraint (5).
    pub download_mbps: f64,
    /// Reserved upload bandwidth (Mbps), constraint (6).
    pub upload_mbps: f64,
    /// Reserved transcoding units, constraint (7).
    pub transcode_units: u32,
}

impl AgentHold {
    /// The hold as the [`AgentDemand`] the capacity rule reads.
    fn demand(self) -> AgentDemand {
        AgentDemand {
            agent: self.agent.as_u32(),
            transcode_units: self.transcode_units,
            download: self.download_mbps,
            upload: self.upload_mbps,
        }
    }
}

/// A session's complete reservation: one [`AgentHold`] per agent it
/// touches (sparse — most sessions touch a handful of agents).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionHold {
    /// Per-agent holds, ascending by agent id.
    pub holds: Vec<AgentHold>,
}

impl SessionHold {
    /// The reservation implied by a session's evaluated load, copied
    /// out ([`Reservation::agent_holds`] of the load).
    pub fn from_load(load: &SessionLoad) -> Self {
        Self {
            holds: load.agent_holds().collect(),
        }
    }

    /// Whether the hold reserves nothing.
    pub fn is_empty(&self) -> bool {
        self.holds.is_empty()
    }

    /// The hold as the sparse demand [`AgentTotals`] and the capacity
    /// rule read, ascending by agent.
    pub fn demand(&self) -> impl Iterator<Item = AgentDemand> + '_ {
        self.holds.iter().map(|h| h.demand())
    }
}

impl Held for SessionHold {
    /// The hold's entry for `agent`, zero if it holds nothing there.
    fn held_at(&self, agent: u32) -> AgentDemand {
        let held = self.holds.iter().find(|h| h.agent.as_u32() == agent);
        held.map_or(
            AgentDemand {
                agent,
                ..AgentDemand::default()
            },
            |h| h.demand(),
        )
    }
}

/// What the ledger books, releases and swaps: a session's per-agent
/// demand. A live session's [`SessionHold`] is one — its slot's, which
/// every release and the old side of every swap pass — and the kernel's
/// evaluated [`SessionLoad`] the other, read in place: the placement a
/// session is admitted at or moves to, booked before its slot copies
/// the hold out.
pub trait Reservation {
    /// The per-agent holds, ascending by agent.
    fn agent_holds(&self) -> impl Iterator<Item = AgentHold> + Clone + '_;
}

impl Reservation for SessionLoad {
    /// The load's [`touched`](SessionLoad::touched) agents that carry
    /// any download, upload or transcoding.
    fn agent_holds(&self) -> impl Iterator<Item = AgentHold> + Clone + '_ {
        self.touched.iter().filter_map(|&a| {
            let i = a as usize;
            let (d, u, t) = (self.download[i], self.upload[i], self.transcode_units[i]);
            (d > 0.0 || u > 0.0 || t > 0).then_some(AgentHold {
                agent: AgentId::from(a),
                download_mbps: d,
                upload_mbps: u,
                transcode_units: t,
            })
        })
    }
}

impl Reservation for SessionHold {
    fn agent_holds(&self) -> impl Iterator<Item = AgentHold> + Clone + '_ {
        self.holds.iter().copied()
    }
}

/// Why a reservation was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// An agent lacks the requested resource.
    Insufficient {
        /// The constrained agent.
        agent: AgentId,
        /// Which resource ran out: `"download"`, `"upload"` or `"transcode"`.
        resource: &'static str,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Insufficient { agent, resource } => {
                write!(f, "agent {agent} has insufficient {resource}")
            }
        }
    }
}

/// One agent's booked totals. The reserved fields are atomics:
/// *mutation* happens only while the owning shard lock is held (so
/// read-modify-write needs no CAS), while *readers* — per-hop and
/// per-admit totals snapshots, telemetry, the audit — load them
/// lock-free. Each field is individually consistent; cross-field
/// consistency for mutators comes from the shard lock, and the audit
/// runs under the fleet's FREEZE write lock, which quiesces all
/// mutators.
#[derive(Debug)]
struct AgentEntry {
    capacity: Capacity,
    /// `f64` bit pattern of the reserved download bandwidth (Mbps).
    reserved_download: AtomicU64,
    /// `f64` bit pattern of the reserved upload bandwidth (Mbps).
    reserved_upload: AtomicU64,
    reserved_units: AtomicU32,
    /// Region id (index into the ledger's region-name table), fixed at
    /// registration.
    region: u32,
}

impl AgentEntry {
    fn fresh(capacity: Capacity, region: u32) -> Self {
        Self {
            capacity,
            reserved_download: AtomicU64::new(0.0f64.to_bits()),
            reserved_upload: AtomicU64::new(0.0f64.to_bits()),
            reserved_units: AtomicU32::new(0),
            region,
        }
    }
}

impl AgentEntry {
    fn download(&self) -> f64 {
        f64::from_bits(self.reserved_download.load(Ordering::Relaxed))
    }

    fn upload(&self) -> f64 {
        f64::from_bits(self.reserved_upload.load(Ordering::Relaxed))
    }

    fn units(&self) -> u32 {
        self.reserved_units.load(Ordering::Relaxed)
    }

    /// [`agent_fits`] of `hold` here, with `freed` — what the caller
    /// gives up here, if anything — as the old demand: what a hop's draw
    /// asked through [`vc_core::demand_fits`] of the same totals.
    fn check(&self, freed: Option<AgentHold>, hold: AgentHold) -> Result<(), LedgerError> {
        let free = FreeCapacity::new(&self.capacity, self.download(), self.upload(), self.units());
        let old = freed.map_or_else(AgentDemand::default, AgentHold::demand);
        let resource = match agent_fits(&self.capacity, free, &old, &hold.demand()) {
            Ok(()) => return Ok(()),
            Err(Violation::Download { .. }) => "download",
            Err(Violation::Upload { .. }) => "upload",
            Err(_) => "transcode",
        };
        Err(LedgerError::Insufficient {
            agent: hold.agent,
            resource,
        })
    }

    /// Caller holds the owning shard lock.
    fn add(&self, hold: &AgentHold) {
        self.reserved_download.store(
            (self.download() + hold.download_mbps).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_upload.store(
            (self.upload() + hold.upload_mbps).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_units
            .store(self.units() + hold.transcode_units, Ordering::Relaxed);
    }

    /// Caller holds the owning shard lock.
    fn remove(&self, hold: &AgentHold) {
        self.reserved_download.store(
            (self.download() - hold.download_mbps).max(0.0).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_upload.store(
            (self.upload() - hold.upload_mbps).max(0.0).to_bits(),
            Ordering::Relaxed,
        );
        self.reserved_units.store(
            self.units().saturating_sub(hold.transcode_units),
            Ordering::Relaxed,
        );
    }
}

/// Point-in-time utilization of one agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentUtilization {
    /// The agent.
    pub agent: AgentId,
    /// Reserved download bandwidth (Mbps).
    pub download_mbps: f64,
    /// Reserved upload bandwidth (Mbps).
    pub upload_mbps: f64,
    /// Reserved transcoding units.
    pub transcode_units: u32,
    /// Largest of the three fractional utilizations (0 for unlimited
    /// capacities).
    pub max_fraction: f64,
}

/// Aggregate residual capacity of one region — the telemetry shape
/// behind the `vc_region_*` gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResiduals {
    /// Region id (index into the name table).
    pub region: u32,
    /// Region name.
    pub name: String,
    /// Agents registered in the region.
    pub agents: usize,
    /// Of those, currently available.
    pub available_agents: usize,
    /// Residual download bandwidth summed over available agents (Mbps).
    pub download_mbps: f64,
    /// Residual upload bandwidth summed over available agents (Mbps).
    pub upload_mbps: f64,
    /// Residual transcoding units over available agents (`+∞` if any
    /// agent is unlimited).
    pub transcode_units: f64,
    /// Reserved download bandwidth summed over all agents (Mbps).
    pub reserved_download_mbps: f64,
    /// Reserved upload bandwidth summed over all agents (Mbps).
    pub reserved_upload_mbps: f64,
}

/// The sharded ledger. See the module docs.
#[derive(Debug)]
pub struct CapacityLedger {
    /// Per-agent entries, indexed by agent id. Reserved totals are
    /// atomics, so totals snapshots and telemetry read them with only
    /// the entries read lock (uncontended except during registration) —
    /// a hop's capacity snapshot costs `L` relaxed loads instead of a
    /// walk over every shard mutex. The `RwLock` exists solely for
    /// append-only agent registration; entries never move or shrink.
    entries: RwLock<Vec<AgentEntry>>,
    /// `shard_locks[i]` serializes mutation of every entry whose
    /// `agent.index() % shard_locks.len() == i`. The shard count is
    /// fixed at construction so registration never remaps agents.
    shard_locks: Vec<Mutex<()>>,
    /// Region-name table; index = region id. Append-only.
    regions: RwLock<Vec<String>>,
}

/// The region every seed agent starts in.
pub const DEFAULT_REGION: &str = "default";

impl CapacityLedger {
    /// Builds a ledger over the problem's agents, all capacity free,
    /// every agent in region 0 ([`DEFAULT_REGION`]). `num_shards` is
    /// clamped to `[1, num_agents]`.
    pub fn new(problem: &UapProblem, num_shards: usize) -> Self {
        let inst = problem.instance();
        let num_agents = inst.num_agents();
        let num_shards = num_shards.clamp(1, num_agents.max(1));
        let entries = inst
            .agent_ids()
            .map(|l| AgentEntry::fresh(inst.agent(l).capacity(), 0))
            .collect();
        Self {
            entries: RwLock::new(entries),
            shard_locks: (0..num_shards).map(|_| Mutex::new(())).collect(),
            regions: RwLock::new(vec![DEFAULT_REGION.to_string()]),
        }
    }

    /// Number of shards (for telemetry / tests).
    pub fn num_shards(&self) -> usize {
        self.shard_locks.len()
    }

    /// Number of agents the ledger covers (grows with registration).
    pub fn num_agents(&self) -> usize {
        self.entries.read().len()
    }

    /// Appends one agent in `region`, all capacity free — the ledger
    /// half of `Fleet::register_agent`. Existing entries never move and
    /// the shard count is fixed, so no existing agent's shard changes.
    /// Returns the new agent's id (always the next dense index).
    ///
    /// Caller serializes against other coarse ops (the fleet holds its
    /// FREEZE write lock).
    pub fn register_agent(&self, capacity: Capacity, region: u32) -> AgentId {
        debug_assert!((region as usize) < self.regions.read().len());
        let mut entries = self.entries.write();
        let id = AgentId::from(entries.len());
        entries.push(AgentEntry::fresh(capacity, region));
        id
    }

    /// Returns the id of region `name`, creating it if new.
    pub fn ensure_region(&self, name: &str) -> u32 {
        let mut regions = self.regions.write();
        if let Some(i) = regions.iter().position(|r| r == name) {
            return i as u32;
        }
        regions.push(name.to_string());
        (regions.len() - 1) as u32
    }

    /// The region-name table (index = region id).
    pub fn region_names(&self) -> Vec<String> {
        self.regions.read().clone()
    }

    /// The region agent `agent` belongs to.
    pub fn region_of(&self, agent: AgentId) -> u32 {
        self.entries.read()[agent.index()].region
    }

    /// Locks, in ascending shard order, every shard the hold spans, and
    /// runs `f` over the entries with those agents exclusively
    /// writable. The entries read lock is taken *after* the shard locks
    /// (the module-level lock order).
    fn with_span<T>(
        &self,
        hold_agents: impl Iterator<Item = AgentId>,
        f: impl FnOnce(&[AgentEntry]) -> T,
    ) -> T {
        let mut shard_ids: Vec<usize> = hold_agents
            .map(|a| a.index() % self.shard_locks.len())
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        let _guards: Vec<parking_lot::MutexGuard<'_, ()>> = shard_ids
            .iter()
            .map(|&i| self.shard_locks[i].lock())
            .collect();
        f(&self.entries.read())
    }

    /// Visits every agent entry under the entries read lock. Each field
    /// is individually consistent; concurrent reservations may land
    /// between reads, which every caller here tolerates (residuals/
    /// utilization are advisory; the audit runs under the fleet's
    /// FREEZE write lock, which quiesces all mutators).
    fn for_each_entry(&self, mut f: impl FnMut(AgentId, &AgentEntry)) {
        for (i, entry) in self.entries.read().iter().enumerate() {
            f(AgentId::from(i), entry);
        }
    }

    /// Atomically reserves `hold`: a [`try_swap`](Self::try_swap) from
    /// an empty hold, so either all of it is booked or nothing is —
    /// across regions too. Like every booking it is availability-blind:
    /// which agents may be booked is the caller's to decide.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Insufficient`] when some agent of the hold lacks
    /// room.
    pub fn try_reserve(&self, hold: &impl Reservation) -> Result<(), LedgerError> {
        self.try_swap(&SessionHold::default(), hold)
    }

    /// Releases `held` — what a departing or displaced session reserved;
    /// the fleet passes the hold of the slot it removes.
    pub fn release(&self, held: &impl Reservation) {
        self.with_span(held.agent_holds().map(|h| h.agent), |view| {
            for h in held.agent_holds() {
                view[h.agent.index()].remove(&h);
            }
        });
    }

    /// Atomically replaces the reservation `old` with `new` **iff**
    /// every agent of `new` has room once `old` is released — the
    /// commit point of a *concurrent* HOP, where the ledger (not a
    /// global state lock) arbitrates capacity races between sessions:
    /// it asks what the hop's draw asked, so a refusal is a lost race.
    /// The caller holds the session's slot lock, so `old` is what the
    /// session has booked. Nothing is written unless the swap is made:
    /// a refusal leaves every total's bits as they were.
    ///
    /// The ledger knows no availability: the hop's draw asked the
    /// fleet's universe whether the target is up, under the shared
    /// FREEZE that an agent failure's exclusive hold excludes.
    ///
    /// # Errors
    ///
    /// [`LedgerError::Insufficient`] when a concurrent reservation beat
    /// this one to the capacity.
    pub fn try_swap(
        &self,
        old: &impl Reservation,
        new: &impl Reservation,
    ) -> Result<(), LedgerError> {
        let agents = old.agent_holds().chain(new.agent_holds()).map(|h| h.agent);
        self.with_span(agents, |view| {
            for h in new.agent_holds() {
                let freed = old.agent_holds().find(|o| o.agent == h.agent);
                view[h.agent.index()].check(freed, h)?;
            }
            Self::swap_in(view, old, new);
            Ok(())
        })
    }

    /// Replaces the reservation `old` with `new` *unconditionally* (no
    /// capacity check) — the mirror operation for migrations the journal
    /// already committed (`Hop` replay), for forced evacuations, which
    /// deliberately overshoot (service continuity over constraint
    /// purity; the overshoot shows up in
    /// [`utilization`](Self::utilization)), and for a load re-evaluation
    /// that found drift.
    pub fn force_swap(&self, old: &impl Reservation, new: &impl Reservation) {
        let agents = old.agent_holds().chain(new.agent_holds()).map(|h| h.agent);
        self.with_span(agents, |view| Self::swap_in(view, old, new));
    }

    /// Releases `old` then books `new` over `view` (the caller holds
    /// every shard lock the two span).
    fn swap_in(view: &[AgentEntry], old: &impl Reservation, new: &impl Reservation) {
        for h in old.agent_holds() {
            view[h.agent.index()].remove(&h);
        }
        for h in new.agent_holds() {
            view[h.agent.index()].add(&h);
        }
    }

    /// Books `load` *without* a capacity check, in one span whatever
    /// regions it touches. Two callers: an admission, live
    /// or replayed, whose engine already proved the placement fits
    /// against this ledger's reserved totals under the exclusive FREEZE
    /// lock, through the rule a checked booking would ask again;
    /// and crash recovery booking each live slot's cold-evaluated load,
    /// which may legitimately overshoot (forced evacuations) and may sit
    /// on failed agents — validity is established afterwards by the
    /// recovery audit, not here.
    pub(crate) fn book_unchecked(&self, load: &impl Reservation) {
        self.with_span(load.agent_holds().map(|h| h.agent), |view| {
            for h in load.agent_holds() {
                view[h.agent.index()].add(&h);
            }
        });
    }

    /// Point-in-time utilization of every agent, up or down: booked
    /// load stays on a down agent until its sessions move or depart.
    pub fn utilization(&self) -> Vec<AgentUtilization> {
        let entries = self.entries.read();
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let frac = |used: f64, cap: f64| {
                    if cap.is_finite() && cap > 0.0 {
                        used / cap
                    } else {
                        0.0
                    }
                };
                let units = e.units();
                let slot_frac = if e.capacity.transcode_slots == u32::MAX {
                    0.0
                } else if e.capacity.transcode_slots == 0 {
                    f64::from(units.min(1))
                } else {
                    f64::from(units) / f64::from(e.capacity.transcode_slots)
                };
                AgentUtilization {
                    agent: AgentId::from(i),
                    download_mbps: e.download(),
                    upload_mbps: e.upload(),
                    transcode_units: units,
                    max_fraction: frac(e.download(), e.capacity.download_mbps)
                        .max(frac(e.upload(), e.capacity.upload_mbps))
                        .max(slot_frac),
                }
            })
            .collect()
    }

    /// Conservation audit against the authoritative slots: per agent,
    /// the booked totals must equal `totals` — the sum of the live slot
    /// holds — within float slack. Returns human-readable discrepancies
    /// (empty = conserved).
    pub fn audit_against_totals(&self, totals: &AgentTotals) -> Vec<String> {
        let mut problems = Vec::new();
        self.for_each_entry(|agent, e| {
            let i = agent.index();
            if (e.download() - totals.download[i]).abs() > 1e-3 {
                problems.push(format!(
                    "agent {agent}: ledger download {:.4} != state {:.4}",
                    e.download(),
                    totals.download[i]
                ));
            }
            if (e.upload() - totals.upload[i]).abs() > 1e-3 {
                problems.push(format!(
                    "agent {agent}: ledger upload {:.4} != state {:.4}",
                    e.upload(),
                    totals.upload[i]
                ));
            }
            if e.units() != totals.transcode[i] {
                problems.push(format!(
                    "agent {agent}: ledger units {} != state {}",
                    e.units(),
                    totals.transcode[i]
                ));
            }
        });
        problems
    }

    /// The booked per-agent reservation totals as [`AgentTotals`] —
    /// everything the ledger books, in the one shape reserved capacity
    /// leaves it in, the same a closed-world state keeps as its totals.
    /// They move by exactly the demands the callers hand in, in commit
    /// order. Every reader forms `capacity − reserved` (signed) at the
    /// agents it looks at and asks [`agent_fits`] of it: the admission
    /// engine through `Residuals::fill_from_totals` (so it searches the
    /// space the offline world searches), a hop through
    /// [`vc_core::demand_fits`], and this ledger's checked bookings —
    /// all availability-*blind* (failed agents are excluded separately,
    /// as *targets* only, so load already on a down agent may still be
    /// carried by moves that do not increase it). Lock-free (`L` relaxed loads per resource
    /// under the uncontended entries read lock); globally consistent
    /// when called under the fleet's FREEZE write lock, which quiesces
    /// mutators.
    pub fn reserved_totals(&self) -> AgentTotals {
        let mut totals = AgentTotals::zero(0);
        self.reserved_totals_into(&mut totals);
        totals
    }

    /// [`reserved_totals`](Self::reserved_totals) into a caller-owned
    /// buffer — every admission and every hop takes this snapshot and
    /// keeps one buffer for it (no allocation after warm-up).
    pub fn reserved_totals_into(&self, totals: &mut AgentTotals) {
        let entries = self.entries.read();
        totals.download.clear();
        totals
            .download
            .extend(entries.iter().map(AgentEntry::download));
        totals.upload.clear();
        totals.upload.extend(entries.iter().map(AgentEntry::upload));
        totals.transcode.clear();
        totals
            .transcode
            .extend(entries.iter().map(AgentEntry::units));
    }

    /// Per-region residual/reserved aggregates — the data behind the
    /// `vc_region_*` telemetry gauges. `available[l]` says whether agent
    /// `l` is up (the fleet universe's flags, read under the FREEZE lock
    /// the caller holds); a down agent counts toward `agents` and the
    /// reserved sums, not the residuals. Advisory, like
    /// [`utilization`](Self::utilization): taken without the shard
    /// locks, so a concurrent mutator may be half-reflected.
    pub fn region_residuals(&self, available: &[bool]) -> Vec<RegionResiduals> {
        let names = self.regions.read().clone();
        let entries = self.entries.read();
        let mut out: Vec<RegionResiduals> = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| RegionResiduals {
                region: i as u32,
                name,
                agents: 0,
                available_agents: 0,
                download_mbps: 0.0,
                upload_mbps: 0.0,
                transcode_units: 0.0,
                reserved_download_mbps: 0.0,
                reserved_upload_mbps: 0.0,
            })
            .collect();
        debug_assert_eq!(entries.len(), available.len(), "one flag per agent");
        for (e, &up) in entries.iter().zip(available) {
            let slot = &mut out[e.region as usize];
            slot.agents += 1;
            slot.reserved_download_mbps += e.download();
            slot.reserved_upload_mbps += e.upload();
            if up {
                slot.available_agents += 1;
                slot.download_mbps += (e.capacity.download_mbps - e.download()).max(0.0);
                slot.upload_mbps += (e.capacity.upload_mbps - e.upload()).max(0.0);
                slot.transcode_units += if e.capacity.transcode_slots == u32::MAX {
                    f64::INFINITY
                } else {
                    f64::from(e.capacity.transcode_slots.saturating_sub(e.units()))
                };
            }
        }
        out
    }
}
