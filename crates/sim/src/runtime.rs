//! The conferencing simulation runtime.
//!
//! Drives Alg. 1's per-session countdown/hop loops in simulated
//! continuous time: hops are processed one event at a time, which *is*
//! the FREEZE/UNFREEZE serialization of the paper (no two sessions ever
//! migrate concurrently). Session arrivals bootstrap through a
//! configurable policy and start their own countdown, retiring any left
//! from an earlier registration, so a session runs one countdown chain;
//! departures release resources. Metrics are sampled once per simulated
//! second, matching the prototype's reporting. Agents never fail here;
//! failures run on `vc-orchestrator`'s fleet. A run without Alg. 1 is
//! one whose countdowns never end: a mean countdown far past the
//! horizon.

use crate::event::{Event, EventQueue};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_algo::agrank::{self, AgRankConfig, Residuals};
use vc_algo::markov::{Alg1Config, Alg1Engine, HopOutcome, HopScratch};
use vc_core::SystemState;
use vc_model::{SessionId, TimeSeries};

/// How an arriving session is bootstrapped.
#[derive(Debug, Clone)]
pub enum ArrivalPolicy {
    /// Keep whatever the pre-built assignment says (the paper: "it can be
    /// bootstrapped with any feasible assignment").
    Preset,
    /// AgRank against the residual capacities at arrival time.
    AgRank(AgRankConfig),
}

/// Metric sampling interval (s): one sample per simulated second, as
/// the prototype reported.
const SAMPLE_INTERVAL_S: f64 = 1.0;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Alg. 1 parameters (β, countdown, measurement noise).
    pub alg1: Alg1Config,
    /// Simulated duration (s).
    pub duration_s: f64,
    /// RNG seed (the simulation is fully deterministic given the seed).
    pub seed: u64,
    /// Bootstrap policy for dynamic arrivals.
    pub arrival_policy: ArrivalPolicy,
}

impl SimConfig {
    /// The prototype setup: β = 400, 10 s mean countdown.
    pub fn paper_default(duration_s: f64, seed: u64) -> Self {
        Self {
            alg1: Alg1Config::paper(400.0),
            duration_s,
            seed,
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
    /// The final system state.
    pub final_state: SystemState,
}

/// The simulator.
#[derive(Debug)]
pub struct ConferenceSim {
    state: SystemState,
    config: SimConfig,
    dynamics: Vec<DynamicsEvent>,
}

impl ConferenceSim {
    /// Creates a simulation over an initial state (all its active sessions
    /// run Alg. 1 from t = 0).
    pub fn new(state: SystemState, config: SimConfig) -> Self {
        Self {
            state,
            config,
            dynamics: Vec::new(),
        }
    }

    /// Adds session arrival/departure events.
    pub fn with_dynamics(mut self, dynamics: Vec<DynamicsEvent>) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Runs to completion and reports.
    pub fn run(self) -> SimReport {
        let Self {
            state,
            config,
            dynamics,
        } = self;
        let num_sessions = state.problem().instance().num_sessions();
        let engine = Alg1Engine::new(config.alg1.clone());
        let mut scratch = HopScratch::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut queue = EventQueue::new();
        // Per session, how many times it has arrived: its wakes carry
        // the epoch they were drawn in.
        let mut epochs = vec![0u32; num_sessions];

        queue.schedule(0.0, Event::Sample);
        for s in state.active_sessions() {
            queue.schedule(engine.next_countdown(&mut rng), Event::Wake(s, 0));
        }
        for d in &dynamics {
            queue.schedule(
                d.time_s,
                if d.arrives {
                    Event::Arrive(d.session)
                } else {
                    Event::Depart(d.session)
                },
            );
        }

        // The run's state lives in the report; it is final once the
        // queue passes the horizon.
        let mut report = SimReport {
            traffic: TimeSeries::new(),
            delay: TimeSeries::new(),
            per_session_traffic: vec![TimeSeries::new(); num_sessions],
            per_session_delay: vec![TimeSeries::new(); num_sessions],
            hops: Vec::new(),
            final_state: state,
        };
        while let Some((t, event)) = queue.pop() {
            if t > config.duration_s {
                break;
            }
            let state = &mut report.final_state;
            match event {
                Event::Sample => {
                    report.sample(t);
                    let next = t + SAMPLE_INTERVAL_S;
                    if next <= config.duration_s {
                        queue.schedule(next, Event::Sample);
                    }
                }
                Event::Wake(s, epoch) => {
                    if epoch == epochs[s.index()] && state.is_active(s) {
                        let outcome = engine.hop_scratch(state, s, &mut rng, &mut scratch);
                        report.hops.push(HopRecord {
                            time_s: t,
                            session: s,
                            outcome,
                        });
                        queue.schedule(t + engine.next_countdown(&mut rng), Event::Wake(s, epoch));
                    }
                }
                Event::Arrive(s) => {
                    bootstrap_arrival(state, &config.arrival_policy, s);
                    state.activate(s);
                    let epoch = &mut epochs[s.index()];
                    *epoch += 1;
                    let wake = Event::Wake(s, *epoch);
                    queue.schedule(t + engine.next_countdown(&mut rng), wake);
                }
                Event::Depart(s) => {
                    state.deactivate(s);
                }
            }
        }
        report
    }
}

impl SimReport {
    /// Samples the reported metrics of the run's state at `t`.
    fn sample(&mut self, t: f64) {
        let state = &self.final_state;
        self.traffic.push(t, state.total_traffic_mbps());
        self.delay.push(t, state.mean_delay_ms());
        for s in state.problem().instance().session_ids() {
            if state.is_active(s) {
                let load = state.session_load(s);
                self.per_session_traffic[s.index()].push(t, load.total_ingress_mbps());
                let d = if load.user_delay.is_empty() {
                    0.0
                } else {
                    load.user_delay.iter().sum::<f64>() / load.user_delay.len() as f64
                };
                self.per_session_delay[s.index()].push(t, d);
            }
        }
    }
}

fn bootstrap_arrival(state: &mut SystemState, policy: &ArrivalPolicy, s: SessionId) {
    match policy {
        ArrivalPolicy::Preset => {}
        ArrivalPolicy::AgRank(config) => {
            let problem = state.problem().clone();
            let residuals = Residuals::from_totals(&problem, state.totals());
            let sa = agrank::assign_session(&problem, s, &residuals, config);
            state.reassign_session(s, &sa.users, &sa.tasks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vc_algo::nearest::nearest_assignment;
    use vc_core::{Assignment, UapProblem};
    use vc_cost::CostModel;
    use vc_model::{AgentId, AgentSpec, InstanceBuilder, ReprLadder};
    use vc_workloads::{prototype_instance, PrototypeConfig};

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

    /// The paper's setup without Alg. 1: a countdown that outlasts any
    /// horizon here, so no session ever hops.
    fn without_alg1(duration_s: f64, seed: u64) -> SimConfig {
        let mut config = SimConfig::paper_default(duration_s, seed);
        config.alg1.mean_countdown_s = 1e9;
        config
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
        let end_obj = report.final_state.objective();
        assert!(
            end_obj < start_obj,
            "no improvement: {start_obj} → {end_obj}"
        );
        assert!(!report.hops.is_empty());
    }

    #[test]
    fn dynamics_change_the_load() {
        let p = problem();
        // Start with only session 0 active; session 1 arrives at t = 10,
        // session 0 departs at t = 20.
        let asg = nearest_assignment(&p);
        let state = SystemState::with_active(p.clone(), asg, vec![true, false]);
        let report = ConferenceSim::new(state, without_alg1(30.0, 5))
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
        let mut config = without_alg1(10.0, 9);
        config.arrival_policy = ArrivalPolicy::AgRank(AgRankConfig::paper(3));
        let agrank_run = ConferenceSim::new(state.clone(), config.clone())
            .with_dynamics(arrive.clone())
            .run();
        config.arrival_policy = ArrivalPolicy::Preset;
        let preset_run = ConferenceSim::new(state, config)
            .with_dynamics(arrive)
            .run();
        // Preset keeps session 1 on agent c (everyone co-located, no
        // inter-agent traffic); AgRank places its users by rank.
        let agrank_final = agrank_run.final_state.assignment();
        let preset_final = preset_run.final_state.assignment();
        assert_ne!(
            agrank_final.user_agents(),
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

    /// A session that departs and arrives again before its pending wake
    /// fires hops at τ like every other session, not at 2τ: the return
    /// retires the countdown of its first registration.
    #[test]
    fn a_returning_session_runs_one_countdown_chain() {
        let instance = prototype_instance(&PrototypeConfig::default());
        let p = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
        let s0 = SessionId::new(0);
        let leave_and_return = vec![
            DynamicsEvent {
                time_s: 1.0,
                session: s0,
                arrives: false,
            },
            DynamicsEvent {
                time_s: 1.5,
                session: s0,
                arrives: true,
            },
        ];
        for seed in 1..=5 {
            let report =
                ConferenceSim::new(initial_state(&p), SimConfig::paper_default(2000.0, seed))
                    .with_dynamics(leave_and_return.clone())
                    .run();
            let mut hops = vec![0usize; p.instance().num_sessions()];
            for h in &report.hops {
                hops[h.session.index()] += 1;
            }
            let others = hops[1..].iter().sum::<usize>() as f64 / (hops.len() - 1) as f64;
            assert!(
                hops[0] as f64 <= 1.3 * others,
                "seed {seed}: session 0 hopped {} times, the others {others:.0} on average",
                hops[0]
            );
        }
    }
}
