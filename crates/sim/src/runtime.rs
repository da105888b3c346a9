//! The conferencing simulation runtime.
//!
//! Drives Alg. 1's per-session countdown/hop loops in simulated
//! continuous time: hops are processed one event at a time, which *is*
//! the FREEZE/UNFREEZE serialization of the paper (no two sessions ever
//! migrate concurrently). Session arrivals bootstrap through a
//! configurable policy and start their own countdown; departures release
//! resources. Metrics are sampled once per simulated second, matching
//! the prototype's reporting.

use crate::event::{Event, EventQueue};
use crate::metrics::TimeSeries;
use crate::migration::{MigrationModel, MigrationStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vc_algo::agrank::{self, AgRankConfig, Residuals};
use vc_algo::markov::{Alg1Config, Alg1Engine, HopOutcome};
use vc_algo::placement;
use vc_core::{SystemState, UapProblem};
use vc_model::{AgentId, SessionId};

/// How an arriving session is bootstrapped.
#[derive(Debug, Clone)]
pub enum ArrivalPolicy {
    /// Keep whatever the pre-built assignment says (the paper: "it can be
    /// bootstrapped with any feasible assignment").
    Preset,
    /// Nearest-agent placement at arrival time.
    Nearest,
    /// AgRank against the residual capacities at arrival time.
    AgRank(AgRankConfig),
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Alg. 1 parameters (β, countdown, measurement noise).
    pub alg1: Alg1Config,
    /// Whether Alg. 1 runs at all (off = static baseline).
    pub optimize: bool,
    /// Metric sampling interval (s).
    pub sample_interval_s: f64,
    /// Simulated duration (s).
    pub duration_s: f64,
    /// RNG seed (the simulation is fully deterministic given the seed).
    pub seed: u64,
    /// Migration overhead model.
    pub migration: MigrationModel,
    /// Bootstrap policy for dynamic arrivals.
    pub arrival_policy: ArrivalPolicy,
}

impl SimConfig {
    /// The prototype setup: β = 400, 10 s mean countdown, 1 s sampling.
    pub fn paper_default(duration_s: f64, seed: u64) -> Self {
        Self {
            alg1: Alg1Config::paper(400.0),
            optimize: true,
            sample_interval_s: 1.0,
            duration_s,
            seed,
            migration: MigrationModel::default(),
            arrival_policy: ArrivalPolicy::Preset,
        }
    }
}

/// A scheduled session arrival or departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsEvent {
    /// When it happens (s).
    pub time_s: f64,
    /// The session affected.
    pub session: SessionId,
    /// `true` = arrival, `false` = departure.
    pub arrives: bool,
}

/// A scheduled agent failure or recovery (failure injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// When it happens (s).
    pub time_s: f64,
    /// The agent affected.
    pub agent: vc_model::AgentId,
    /// `true` = recovery, `false` = failure.
    pub up: bool,
}

/// One executed HOP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopRecord {
    /// Simulated time of the hop.
    pub time_s: f64,
    /// The hopping session.
    pub session: SessionId,
    /// What happened.
    pub outcome: HopOutcome,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total inter-agent traffic (Mbps) per sample instant.
    pub traffic: TimeSeries,
    /// Mean conferencing delay (ms) per sample instant.
    pub delay: TimeSeries,
    /// Per-session inter-agent traffic series (indexed by session id).
    pub per_session_traffic: Vec<TimeSeries>,
    /// Per-session mean user delay series (indexed by session id).
    pub per_session_delay: Vec<TimeSeries>,
    /// Executed hops in time order.
    pub hops: Vec<HopRecord>,
    /// Migration overhead totals.
    pub migrations: MigrationStats,
    /// Migrations forced by agent failures (evacuations), including the
    /// count of moves that had no feasible target.
    pub evacuations: Vec<(f64, vc_model::AgentId, usize, usize)>,
    /// Final objective value.
    pub final_objective: f64,
    /// Final traffic (Mbps).
    pub final_traffic_mbps: f64,
    /// Final mean delay (ms).
    pub final_delay_ms: f64,
    /// The final system state.
    pub final_state: SystemState,
}

/// The simulator.
#[derive(Debug)]
pub struct ConferenceSim {
    state: SystemState,
    config: SimConfig,
    dynamics: Vec<DynamicsEvent>,
    churn: Vec<ChurnEvent>,
}

impl ConferenceSim {
    /// Creates a simulation over an initial state (all its active sessions
    /// run Alg. 1 from t = 0).
    pub fn new(state: SystemState, config: SimConfig) -> Self {
        Self {
            state,
            config,
            dynamics: Vec::new(),
            churn: Vec::new(),
        }
    }

    /// Adds session arrival/departure events.
    pub fn with_dynamics(mut self, dynamics: Vec<DynamicsEvent>) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Adds agent failure/recovery events (failure injection).
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> SimReport {
        let problem: Arc<UapProblem> = self.state.problem().clone();
        let num_sessions = problem.instance().num_sessions();
        let engine = Alg1Engine::new(self.config.alg1.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut queue = EventQueue::new();
        let mut report = SimReport {
            traffic: TimeSeries::new(),
            delay: TimeSeries::new(),
            per_session_traffic: vec![TimeSeries::new(); num_sessions],
            per_session_delay: vec![TimeSeries::new(); num_sessions],
            hops: Vec::new(),
            migrations: MigrationStats::default(),
            evacuations: Vec::new(),
            final_objective: 0.0,
            final_traffic_mbps: 0.0,
            final_delay_ms: 0.0,
            final_state: self.state.clone(),
        };

        queue.schedule(0.0, Event::Sample);
        if self.config.optimize {
            for s in self.state.active_sessions().collect::<Vec<_>>() {
                queue.schedule(engine.next_countdown(&mut rng), Event::Wake(s));
            }
        }
        for d in &self.dynamics {
            queue.schedule(
                d.time_s,
                if d.arrives {
                    Event::Arrive(d.session)
                } else {
                    Event::Depart(d.session)
                },
            );
        }
        for c in &self.churn {
            queue.schedule(
                c.time_s,
                if c.up {
                    Event::AgentUp(c.agent)
                } else {
                    Event::AgentDown(c.agent)
                },
            );
        }

        while let Some((t, event)) = queue.pop() {
            if t > self.config.duration_s {
                break;
            }
            match event {
                Event::Sample => {
                    self.sample(t, &mut report);
                    let next = t + self.config.sample_interval_s;
                    if next <= self.config.duration_s {
                        queue.schedule(next, Event::Sample);
                    }
                }
                Event::Wake(s) => {
                    if self.state.is_active(s) && self.config.optimize {
                        let outcome = engine.hop(&mut self.state, s, &mut rng);
                        if let HopOutcome::Migrated(decision) = outcome {
                            self.config.migration.record(
                                &self.state,
                                decision,
                                &mut report.migrations,
                            );
                        }
                        report.hops.push(HopRecord {
                            time_s: t,
                            session: s,
                            outcome,
                        });
                        queue.schedule(t + engine.next_countdown(&mut rng), Event::Wake(s));
                    }
                }
                Event::Arrive(s) => {
                    self.bootstrap_arrival(s);
                    self.state.activate(s);
                    if self.config.optimize {
                        queue.schedule(t + engine.next_countdown(&mut rng), Event::Wake(s));
                    }
                }
                Event::Depart(s) => {
                    self.state.deactivate(s);
                }
                Event::AgentDown(l) => {
                    let evac = vc_algo::churn::evacuate_agent(&mut self.state, l);
                    // Evacuation migrations pay the same dual-feed cost.
                    for d in &evac.moves {
                        self.config
                            .migration
                            .record(&self.state, *d, &mut report.migrations);
                    }
                    report
                        .evacuations
                        .push((t, l, evac.moves.len(), evac.forced));
                }
                Event::AgentUp(l) => {
                    self.state.set_agent_available(l, true);
                }
            }
        }

        report.final_objective = self.state.objective();
        report.final_traffic_mbps = self.state.total_traffic_mbps();
        report.final_delay_ms = self.state.mean_delay_ms();
        report.final_state = self.state;
        report
    }

    fn sample(&self, t: f64, report: &mut SimReport) {
        report.traffic.push(t, self.state.total_traffic_mbps());
        report.delay.push(t, self.state.mean_delay_ms());
        for s in self.state.problem().instance().session_ids() {
            if self.state.is_active(s) {
                let load = self.state.session_load(s);
                report.per_session_traffic[s.index()].push(t, load.total_ingress_mbps());
                let d = if load.user_delay.is_empty() {
                    0.0
                } else {
                    load.user_delay.iter().sum::<f64>() / load.user_delay.len() as f64
                };
                report.per_session_delay[s.index()].push(t, d);
            }
        }
    }

    fn bootstrap_arrival(&mut self, s: SessionId) {
        let problem = self.state.problem().clone();
        let inst = problem.instance();
        match &self.config.arrival_policy {
            ArrivalPolicy::Preset => {}
            ArrivalPolicy::Nearest => {
                let users: Vec<_> = inst
                    .session(s)
                    .users()
                    .iter()
                    .map(|&u| (u, inst.delays().nearest_agent(u)))
                    .collect();
                let mut user_agent: Vec<AgentId> = self.state.assignment().user_agents().to_vec();
                for &(u, a) in &users {
                    user_agent[u.index()] = a;
                }
                let all_tasks = placement::rule_of_thumb(&problem, &user_agent);
                let tasks: Vec<_> = problem
                    .tasks()
                    .of_session(s)
                    .iter()
                    .map(|&t| (t, all_tasks[t.index()]))
                    .collect();
                self.state.reassign_session(s, &users, &tasks);
            }
            ArrivalPolicy::AgRank(config) => {
                let residuals = Residuals::from_totals(&problem, self.state.totals());
                let sa = agrank::assign_session(&problem, s, &residuals, config);
                self.state.reassign_session(s, &sa.users, &sa.tasks);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_algo::nearest::nearest_assignment;
    use vc_core::Assignment;
    use vc_cost::CostModel;
    use vc_model::{AgentSpec, InstanceBuilder, ReprLadder};

    /// Two sessions spread across three agents with room to improve.
    fn problem() -> Arc<UapProblem> {
        let ladder = ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        b.add_agent(AgentSpec::builder("c").speed_factor(1.3).build());
        for _ in 0..2 {
            let s = b.add_session();
            b.add_user(s, r720, r360);
            b.add_user(s, r360, r360);
            b.add_user(s, r720, r720);
        }
        b.symmetric_delays(
            |l, k| 25.0 + 12.0 * ((l as f64) - (k as f64)).abs(),
            |l, u| 10.0 + 9.0 * ((l + u) % 3) as f64,
        );
        Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ))
    }

    fn initial_state(p: &Arc<UapProblem>) -> SystemState {
        SystemState::new(p.clone(), nearest_assignment(p))
    }

    #[test]
    fn run_samples_at_every_second() {
        let p = problem();
        let sim = ConferenceSim::new(initial_state(&p), SimConfig::paper_default(30.0, 1));
        let report = sim.run();
        // Samples at t = 0, 1, ..., 30.
        assert_eq!(report.traffic.len(), 31);
        assert_eq!(report.delay.len(), 31);
        assert!(report.final_state.is_feasible());
    }

    #[test]
    fn optimization_reduces_objective_over_time() {
        let p = problem();
        let start_obj = initial_state(&p).objective();
        let mut config = SimConfig::paper_default(300.0, 7);
        config.alg1.beta = 1000.0;
        config.alg1.mean_countdown_s = 2.0;
        let report = ConferenceSim::new(initial_state(&p), config).run();
        assert!(
            report.final_objective < start_obj,
            "no improvement: {start_obj} → {}",
            report.final_objective
        );
        assert!(!report.hops.is_empty());
    }

    #[test]
    fn disabled_optimizer_is_static() {
        let p = problem();
        let mut config = SimConfig::paper_default(20.0, 3);
        config.optimize = false;
        let report = ConferenceSim::new(initial_state(&p), config).run();
        assert!(report.hops.is_empty());
        assert_eq!(report.traffic.first_value(), report.traffic.last_value());
    }

    #[test]
    fn dynamics_change_the_load() {
        let p = problem();
        // Start with only session 0 active; session 1 arrives at t = 10,
        // session 0 departs at t = 20.
        let asg = nearest_assignment(&p);
        let state = SystemState::with_active(p.clone(), asg, vec![true, false]);
        let mut config = SimConfig::paper_default(30.0, 5);
        config.optimize = false;
        let report = ConferenceSim::new(state, config)
            .with_dynamics(vec![
                DynamicsEvent {
                    time_s: 10.0,
                    session: SessionId::new(1),
                    arrives: true,
                },
                DynamicsEvent {
                    time_s: 20.0,
                    session: SessionId::new(0),
                    arrives: false,
                },
            ])
            .run();
        let t5 = report.traffic.value_at(5.0).unwrap();
        let t15 = report.traffic.value_at(15.0).unwrap();
        let t25 = report.traffic.value_at(25.0).unwrap();
        assert!(t15 > t5, "arrival should raise traffic: {t5} → {t15}");
        assert!(t25 < t15, "departure should lower traffic: {t15} → {t25}");
        // Session 1 has no samples before its arrival.
        assert!(report.per_session_traffic[1]
            .points()
            .iter()
            .all(|&(t, _)| t >= 10.0));
    }

    #[test]
    fn arrival_policies_bootstrap_differently() {
        let p = problem();
        let asg = Assignment::all_to_agent(&p, AgentId::new(2));
        let state = SystemState::with_active(p.clone(), asg, vec![true, false]);
        let arrive = vec![DynamicsEvent {
            time_s: 5.0,
            session: SessionId::new(1),
            arrives: true,
        }];
        let mut config = SimConfig::paper_default(10.0, 9);
        config.optimize = false;
        config.arrival_policy = ArrivalPolicy::Nearest;
        let nearest_run = ConferenceSim::new(state.clone(), config.clone())
            .with_dynamics(arrive.clone())
            .run();
        config.arrival_policy = ArrivalPolicy::Preset;
        let preset_run = ConferenceSim::new(state, config)
            .with_dynamics(arrive)
            .run();
        // Preset keeps session 1 on agent c (everyone co-located, no
        // inter-agent traffic); Nearest spreads users to their closest
        // agents, creating traffic.
        let nearest_final = nearest_run.final_state.assignment();
        let preset_final = preset_run.final_state.assignment();
        assert_ne!(
            nearest_final.user_agents(),
            preset_final.user_agents(),
            "policies should place the arrival differently"
        );
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let p = problem();
        let r1 = ConferenceSim::new(initial_state(&p), SimConfig::paper_default(60.0, 42)).run();
        let r2 = ConferenceSim::new(initial_state(&p), SimConfig::paper_default(60.0, 42)).run();
        assert_eq!(r1.traffic, r2.traffic);
        assert_eq!(r1.hops.len(), r2.hops.len());
        let r3 = ConferenceSim::new(initial_state(&p), SimConfig::paper_default(60.0, 43)).run();
        // Different seed gives a different hop sequence (statistically certain).
        assert!(r1.hops.len() != r3.hops.len() || r1.traffic != r3.traffic);
    }

    #[test]
    fn agent_failure_is_evacuated_and_recovery_reused() {
        let p = problem();
        let state = initial_state(&p);
        // Fail agent 0 at t = 5 s, recover it at t = 20 s.
        let failed = AgentId::new(0);
        let report = ConferenceSim::new(state, SimConfig::paper_default(60.0, 13))
            .with_churn(vec![
                ChurnEvent {
                    time_s: 5.0,
                    agent: failed,
                    up: false,
                },
                ChurnEvent {
                    time_s: 20.0,
                    agent: failed,
                    up: true,
                },
            ])
            .run();
        assert_eq!(report.evacuations.len(), 1);
        let (t, agent, moved, forced) = report.evacuations[0];
        assert_eq!(t, 5.0);
        assert_eq!(agent, failed);
        assert!(moved > 0, "Nrst places users on every agent here");
        assert_eq!(forced, 0);
        assert!(report.final_state.is_feasible());
        assert!(report.final_state.is_agent_available(failed));
    }

    #[test]
    fn failed_agent_stays_empty_until_recovery() {
        let p = problem();
        let state = initial_state(&p);
        let failed = AgentId::new(1);
        let report = ConferenceSim::new(state, SimConfig::paper_default(40.0, 17))
            .with_churn(vec![ChurnEvent {
                time_s: 2.0,
                agent: failed,
                up: false,
            }])
            .run();
        let final_asg = report.final_state.assignment();
        for u in p.instance().user_ids() {
            assert_ne!(final_asg.agent_of_user(u), failed, "{u} on failed agent");
        }
        assert!(!report.final_state.is_agent_available(failed));
    }

    #[test]
    fn migration_stats_accumulate() {
        let p = problem();
        let mut config = SimConfig::paper_default(200.0, 11);
        config.alg1.beta = 1000.0;
        config.alg1.mean_countdown_s = 2.0;
        let report = ConferenceSim::new(initial_state(&p), config).run();
        let migrated = report
            .hops
            .iter()
            .filter(|h| matches!(h.outcome, HopOutcome::Migrated(_)))
            .count();
        assert_eq!(
            migrated,
            report.migrations.user_migrations + report.migrations.task_migrations
        );
        if report.migrations.user_migrations > 0 {
            assert!(report.migrations.redundant_kb > 0.0);
        }
    }
}
