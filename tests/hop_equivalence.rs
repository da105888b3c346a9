//! Properties of the allocation-free hop path:
//!
//! * **incremental ≡ fresh** — a candidate evaluated through a reused
//!   [`EvalScratch`] + [`OverlayView`] is bitwise identical (asserted to
//!   `to_bits`, with a ≤1e-12 fallback documented by the issue) to a
//!   fresh full `evaluate_session` over a cloned-and-mutated
//!   assignment, across random instances and long random decision
//!   sequences (exercising scratch-reuse clearing and the commit swap);
//! * **kernel ≡ fresh** — every single-decision candidate the
//!   neighbourhood kernel weighs ([`Neighborhood::candidate`] and each
//!   step of [`Neighborhood::sweep_lazy`]) is bit-equal, `touched`
//!   included, to a fresh `evaluate_session` over a cloned-and-mutated
//!   assignment, and each probe's delay floor ≤ traffic floor ≤ that
//!   fresh `Φ`: over random universes and placements under the linear,
//!   quadratic and piecewise-linear bandwidth shapes, with a
//!   zero-bitrate ladder rung, shared transcoded representations, tasks
//!   on their source's or destination's agent, one scratch reused
//!   across conferences of different sizes, and an agent pool that
//!   grows between hops;
//! * **kernel ≡ the dense reference** — the same candidates, and a
//!   fresh `evaluate_session`, are bit-equal (`touched` aside) to a
//!   session load transcribed from the paper's formulas over global
//!   ids: per-flow `flow_delay_breakdown` totals, `θ` from the
//!   instance, a dense `L×L` flow matrix folded row-major, cost sums
//!   over every agent — so a kernel rewrite is checked against
//!   something other than itself, on the random universes, the named
//!   shapes and shapes whose flow-cell sums round differently in
//!   another emission order;
//! * **concurrent hops conserve** — hops racing on OS threads under
//!   the sharded FREEZE leave `Fleet::audit` empty and the slot loads
//!   exactly re-evaluable.

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::evaluate::{evaluate_session, flow_delay_breakdown};
use vc_core::neighborhood::Neighborhood;
use vc_core::{EvalScratch, SessionLoad, TaskId, UapProblem};
use vc_cost::BandwidthCost;
use vc_model::{DownstreamDemand, ReprId};
use vc_orchestrator::{Fleet, PlacementPolicy, ReoptPool};

/// A random universe: agents with tight-ish capacities, sessions of
/// mixed sizes and demands, pseudo-random delays.
#[derive(Debug, Clone)]
struct RandomUniverse {
    agents: Vec<(f64, u32)>,
    sessions: Vec<Vec<(u8, u8)>>,
    delay_seed: u64,
    /// Whether the ladder's lowest rung carries 0 kbps (audio-only).
    zero_rung: bool,
    /// The bandwidth shape `g`: linear (the paper's), quadratic or
    /// piecewise-linear ([`bandwidth_shape`]).
    bandwidth: u8,
}

fn universe_strategy() -> impl Strategy<Value = RandomUniverse> {
    (
        prop::collection::vec((20.0f64..120.0, 1u32..8), 2..=4),
        prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=4), 2..=5),
        any::<u64>(),
        any::<bool>(),
        0u8..3,
    )
        .prop_map(
            |(agents, sessions, delay_seed, zero_rung, bandwidth)| RandomUniverse {
                agents,
                sessions,
                delay_seed,
                zero_rung,
                bandwidth,
            },
        )
}

/// The three `g` shapes; the piecewise one has knots where 2.5 Mbps
/// streams add up to them exactly.
fn bandwidth_shape(which: u8) -> BandwidthCost {
    match which {
        0 => BandwidthCost::linear(),
        1 => BandwidthCost::quadratic(0.5, 0.05),
        _ => BandwidthCost::piecewise(vec![2.5, 5.0], vec![0.5, 1.0, 3.0]),
    }
}

/// The standard four rungs, the lowest optionally at 0 kbps — a legal
/// ladder whose transcoded streams add exactly 0.0 Mbps to a flow cell.
fn ladder(zero_rung: bool) -> ReprLadder {
    if zero_rung {
        ReprLadder::from_steps([
            ("audio", 0, 0),
            ("480p", 480, 2_500),
            ("720p", 720, 5_000),
            ("1080p", 1080, 8_000),
        ])
        .expect("strictly increasing from zero")
    } else {
        ReprLadder::standard_four()
    }
}

fn build_problem(spec: &RandomUniverse) -> Arc<UapProblem> {
    let ladder = ladder(spec.zero_rung);
    let reprs: Vec<ReprId> = ladder.ids().collect();
    let mut b = InstanceBuilder::new(ladder);
    for (i, &(mbps, slots)) in spec.agents.iter().enumerate() {
        b.add_agent(
            AgentSpec::builder(format!("a{i}"))
                .capacity(Capacity::new(mbps, mbps, slots))
                .build(),
        );
    }
    for session in &spec.sessions {
        let sid = b.add_session();
        for &(up, down) in session {
            b.add_user(sid, reprs[up as usize % 4], reprs[down as usize % 4]);
        }
    }
    let seed = spec.delay_seed;
    b.symmetric_delays(
        |l, k| 15.0 + 9.0 * ((l as f64) - (k as f64)).abs(),
        move |l, u| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((l * 131 + u * 31) as u64);
            5.0 + (x % 700) as f64 / 10.0
        },
    );
    b.d_max_ms(10_000.0);
    let cost = CostModel {
        bandwidth: bandwidth_shape(spec.bandwidth),
        ..CostModel::paper_default()
    };
    Arc::new(UapProblem::new(b.build().expect("valid universe"), cost))
}

/// Decodes `(which, target)` bytes into a decision over the problem.
fn decode_decision(problem: &UapProblem, which: u8, target: u8) -> Decision {
    let nl = problem.instance().num_agents();
    let nu = problem.instance().num_users();
    let nt = problem.tasks().len();
    let agent = AgentId::from(target as usize % nl);
    let idx = which as usize;
    if nt > 0 && idx % 2 == 1 {
        Decision::Task(TaskId::from(idx / 2 % nt), agent)
    } else {
        Decision::User(UserId::new((idx / 2 % nu) as u32), agent)
    }
}

/// Asserts that every semantic field of the two loads is bitwise equal
/// (the issue's ≤1e-12 bound is the fallback contract; the
/// implementation achieves exact equality by accumulating in the same
/// order as the dense scan).
fn assert_loads_bitwise(scratch: &SessionLoad, fresh: &SessionLoad, ctx: &str) {
    let bitwise = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        bitwise(&scratch.download, &fresh.download),
        "{ctx}: download"
    );
    assert!(bitwise(&scratch.upload, &fresh.upload), "{ctx}: upload");
    assert!(bitwise(&scratch.ingress, &fresh.ingress), "{ctx}: ingress");
    assert_eq!(
        scratch.transcode_units, fresh.transcode_units,
        "{ctx}: transcode units"
    );
    assert!(
        bitwise(&scratch.user_delay, &fresh.user_delay),
        "{ctx}: user delay"
    );
    for (name, a, b) in [
        (
            "max_flow_delay",
            scratch.max_flow_delay,
            fresh.max_flow_delay,
        ),
        ("delay_cost", scratch.delay_cost, fresh.delay_cost),
        ("traffic_cost", scratch.traffic_cost, fresh.traffic_cost),
        (
            "transcode_cost",
            scratch.transcode_cost,
            fresh.transcode_cost,
        ),
        ("phi", scratch.phi, fresh.phi),
    ] {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: {name} differs: {a} vs {b} (|Δ| = {})",
            (a - b).abs()
        );
        assert!((a - b).abs() <= 1e-12, "{ctx}: {name} beyond 1e-12");
    }
}

/// A placement drawn from `seed`: users anywhere, each task on its
/// source's agent, its destination's agent, or anywhere (a third each).
fn scattered_assignment(problem: &UapProblem, seed: u64) -> Assignment {
    let nl = problem.instance().num_agents() as u64;
    let draw = |salt: u64| {
        let x = (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut asg = Assignment::all_to_agent(problem, AgentId::new(0));
    for u in problem.instance().user_ids() {
        asg.set_user(u, AgentId::from((draw(u.index() as u64) % nl) as usize));
    }
    for (t, task) in problem.tasks().iter() {
        let x = draw(1_000 + t.index() as u64);
        let agent = match x % 3 {
            0 => asg.agent_of_user(task.src),
            1 => asg.agent_of_user(task.dst),
            _ => AgentId::from((x / 3 % nl) as usize),
        };
        asg.set_task(t, agent);
    }
    asg
}

/// Weighs **every** single-decision candidate of every session of
/// `problem` around `asg` through the kernel — each user and each task
/// to each agent, its current one included — and requires each load
/// bit-equal, `touched` included, to a fresh evaluation of the mutated
/// assignment; then requires `sweep_lazy` to visit exactly the
/// non-current candidates, in enumeration order, each probe's floors
/// ordered as delay floor ≤ traffic floor ≤ the fresh `Φ`, and each
/// fold after them those same loads. One `scratch` serves every
/// session. Returns the candidates weighed.
fn assert_kernel_matches_fresh(
    problem: &Arc<UapProblem>,
    asg: &Assignment,
    scratch: &mut EvalScratch,
) -> usize {
    let state = SystemState::new(problem.clone(), asg.clone());
    let inst = problem.instance();
    let mut weighed = 0;
    for s in inst.session_ids() {
        let decisions: Vec<Decision> = (inst.session(s).users().iter())
            .flat_map(|&u| inst.agent_ids().map(move |l| Decision::User(u, l)))
            .chain(
                (problem.tasks().of_session(s).iter())
                    .flat_map(|&t| inst.agent_ids().map(move |l| Decision::Task(t, l))),
            )
            .collect();
        let mut hood = Neighborhood::of_state(&state, s, scratch);
        let mut moves = Vec::new();
        for &d in &decisions {
            let mut mutated = asg.clone();
            let current = mutated.apply(d);
            let fresh = evaluate_session(problem, &mutated, s);
            let ctx = format!("{s} {d}");
            let (slot, load) = hood.candidate(d);
            assert_loads_bitwise(load, &fresh, &ctx);
            assert_eq!(load.touched, fresh.touched, "{ctx}: touched");
            let (ids, target) = match d {
                Decision::User(u, l) => (inst.session(s).users().iter().position(|&w| w == u), l),
                Decision::Task(t, l) => (
                    problem.tasks().of_session(s).iter().position(|&w| w == t),
                    l,
                ),
            };
            assert_eq!(Some(slot), ids, "{ctx}: slot");
            if target != current {
                moves.push((d, fresh));
            }
            weighed += 1;
        }
        let mut visited = 0;
        hood.sweep_lazy(
            |_| true,
            |d, mut probe| {
                let (expected, fresh) = &moves[visited];
                assert_eq!(d, *expected, "{s}: sweep order at {visited}");
                let (delay_floor, traffic_floor) = (probe.phi_floor(), probe.traffic_floor());
                assert!(
                    delay_floor <= traffic_floor,
                    "{s} sweep {d}: floors out of order"
                );
                assert!(
                    traffic_floor <= fresh.phi,
                    "{s} sweep {d}: traffic floor above Φ"
                );
                let load = probe.fold();
                assert_loads_bitwise(load, fresh, &format!("{s} sweep {d}"));
                assert_eq!(load.touched, fresh.touched, "{s} sweep {d}: touched");
                visited += 1;
            },
        );
        assert_eq!(visited, moves.len(), "{s}: sweep skipped candidates");
    }
    weighed
}

/// `problem` with one more agent registered online, and `asg` grown to
/// it (nobody placed on the new agent yet).
fn with_one_more_agent(
    problem: &Arc<UapProblem>,
    asg: &Assignment,
) -> (Arc<UapProblem>, Assignment) {
    let mut grown = (**problem).clone();
    let inst = grown.instance();
    let def = AgentDef {
        spec: AgentSpec::builder("late")
            .capacity(Capacity::new(80.0, 80.0, 4))
            .build(),
        inter_agent_ms: (0..inst.num_agents())
            .map(|k| 21.0 + 7.0 * k as f64)
            .collect(),
        user_delays_ms: (0..inst.num_users())
            .map(|u| 9.0 + (u % 11) as f64)
            .collect(),
    };
    grown.register_agent(&def).expect("agent registers");
    let grown = Arc::new(grown);
    let mut asg = asg.clone();
    asg.grow(&grown);
    (grown, asg)
}

/// The shapes the kernel must not get wrong, each built on purpose: a
/// 0 Mbps transcoded delivery that is the *first* write to a flow cell
/// another stream then adds to (the duplicate-cell case the fold
/// dedups), two destinations on different agents sharing one transcoded
/// representation from two transcoders, tasks on their source's and on
/// their destination's agent, conferences of 4, 2 and 3 users through
/// one scratch — and a placement scattering them.
fn named_shapes() -> (Arc<UapProblem>, Assignment) {
    let ladder = ladder(true);
    let [r0, r1, r2, r3]: [ReprId; 4] = ladder.ids().collect::<Vec<_>>().try_into().unwrap();
    let mut b = InstanceBuilder::new(ladder);
    for (i, slots) in [4u32, 4, 4].into_iter().enumerate() {
        b.add_agent(
            AgentSpec::builder(format!("a{i}"))
                .capacity(Capacity::new(90.0, 90.0, slots))
                .build(),
        );
    }
    // Session 0: u0 sends 1080p; u1 and u2 both want it at 0 kbps (one
    // shared representation, two tasks); everyone else's 480p goes
    // around raw, so u2's and u3's streams reach u1's agent *after*
    // u0's 0 Mbps deliveries opened those cells.
    let s0 = b.add_session();
    let u0 = b.add_user(s0, r3, r1);
    b.add_user_with_demand(s0, r1, DownstreamDemand::uniform(r1).with_override(u0, r0));
    b.add_user_with_demand(s0, r1, DownstreamDemand::uniform(r1).with_override(u0, r0));
    b.add_user_with_demand(s0, r1, DownstreamDemand::uniform(r1).with_override(u0, r3));
    let s1 = b.add_session();
    b.add_user(s1, r2, r1);
    b.add_user(s1, r1, r1);
    let s2 = b.add_session();
    b.add_user(s2, r3, r2);
    b.add_user(s2, r2, r2);
    b.add_user(s2, r0, r2);
    b.symmetric_delays(
        |l, k| 12.0 + 5.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 4.0 + ((l * 7 + u * 3) % 23) as f64,
    );
    b.d_max_ms(10_000.0);
    let problem = Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ));
    let (a, bb, c) = (AgentId::new(0), AgentId::new(1), AgentId::new(2));
    let mut asg = Assignment::all_to_agent(&problem, a);
    // u0 and u3 on a, u1 on b, u2 on c; u0→u1 transcoded at its source's
    // agent, u0→u2 at its destination's.
    let users = problem.instance().session(s0).users().to_vec();
    asg.set_user(users[1], bb);
    asg.set_user(users[2], c);
    let to_u1 = problem.tasks().find(users[0], users[1]).expect("task");
    let to_u2 = problem.tasks().find(users[0], users[2]).expect("task");
    assert_eq!(
        problem.tasks().task(to_u1).target,
        problem.tasks().task(to_u2).target,
        "fixture lost its shared representation"
    );
    assert_eq!(
        problem.instance().kappa(problem.tasks().task(to_u1).target),
        0.0
    );
    asg.set_task(to_u1, a);
    asg.set_task(to_u2, c);
    for (i, &u) in problem.instance().session(s2).users().iter().enumerate() {
        asg.set_user(u, AgentId::from(i));
    }
    (problem, asg)
}

/// Kernel ≡ fresh on the [named shapes](named_shapes), the agent pool
/// growing between two neighbourhoods.
#[test]
fn kernel_matches_fresh_on_the_named_shapes() {
    let (problem, asg) = named_shapes();
    let s0 = SessionId::new(0);
    // The fold itself, by hand (both sides of the comparison below run
    // it): a→b and c→b each open with u0's 0 Mbps delivery and then take
    // one raw 2.5 Mbps stream — counted once, not once per opening.
    let base = evaluate_session(&problem, &asg, s0);
    assert_eq!(base.ingress, [5.0, 5.0, 13.0]);
    assert_eq!(base.download, [15.5, 7.5, 15.5]);
    assert_eq!(base.transcode_units, [1, 0, 1]);

    let mut scratch = EvalScratch::new();
    let before = assert_kernel_matches_fresh(&problem, &asg, &mut scratch);
    let (grown, asg) = with_one_more_agent(&problem, &asg);
    let after = assert_kernel_matches_fresh(&grown, &asg, &mut scratch);
    // (9 users + tasks) × agents candidates, one more agent's worth after.
    let decisions = 9 + problem.tasks().len();
    assert_eq!((before, after), (decisions * 3, decisions * 4));
}

/// Session `s`'s load under `asg` from the paper's formulas over global
/// ids, dense and written apart from the kernel (Sec. III-B/III-C):
/// every flow's `d_uv` is its [`flow_delay_breakdown`] total and `d_v`
/// the worst incoming one; the last miles come first, then `μ_klu`'s
/// terms are added source by source (session order) into a dense `L×L`
/// flow matrix — `u`'s raw upstream to every other agent that
/// transcodes it or hosts a `θ_uv = 0` destination, then each
/// transcoded representation, in the order `u`'s destinations first
/// demand it, from its transcoders to the agents hosting its
/// destinations, never back to `u`'s own agent — and the matrix is
/// folded row-major; occupancy counts the distinct `(u, r)` per agent;
/// `G` and `H` sum over every agent, ascending. `touched` stays empty.
fn dense_session_load(problem: &UapProblem, asg: &Assignment, s: SessionId) -> SessionLoad {
    let inst = problem.instance();
    let nl = inst.num_agents();
    let users = inst.session(s).users();
    let lambda = |u: UserId| asg.agent_of_user(u).index();
    let mut load = SessionLoad::empty(nl);

    load.user_delay = (users.iter())
        .map(|&v| {
            (users.iter().filter(|&&u| u != v))
                .map(|&u| flow_delay_breakdown(problem, asg, u, v).total())
                .fold(0.0, f64::max)
        })
        .collect();
    load.max_flow_delay = load.user_delay.iter().copied().fold(0.0, f64::max);
    load.delay_cost = problem.cost().delay.cost(&load.user_delay);

    let mut flows = vec![0.0; nl * nl];
    let mut units = std::collections::BTreeSet::new();
    for &u in users {
        let a_u = lambda(u);
        let k_up = inst.kappa(inst.user(u).upstream());
        load.download[a_u] += k_up;
        load.upload[a_u] += (users.iter().filter(|&&v| v != u))
            .map(|&v| inst.kappa(inst.user(u).downstream_from(v)))
            .sum::<f64>();
        // Agents receiving u's raw upstream, and (destination agent,
        // transcoder, representation) per transcoded flow.
        let mut raw = vec![false; nl];
        let mut transcoded = Vec::new();
        for &v in users.iter().filter(|&&v| v != u) {
            if inst.theta(u, v) {
                let t = problem.tasks().find(u, v).expect("a θ = 1 flow has a task");
                let transcoder = asg.agent_of_task(t).index();
                raw[transcoder] = true;
                transcoded.push((lambda(v), transcoder, inst.user(v).downstream_from(u)));
            } else {
                raw[lambda(v)] = true;
            }
        }
        for l in (0..nl).filter(|&l| raw[l] && l != a_u) {
            flows[a_u * nl + l] += k_up;
        }
        let mut reps: Vec<ReprId> = Vec::new();
        for &(_, _, r) in &transcoded {
            if !reps.contains(&r) {
                reps.push(r);
            }
        }
        for r in reps {
            let sends = |k| transcoded.iter().any(|&(_, g, w)| (g, w) == (k, r));
            let serves = |l| transcoded.iter().any(|&(d, _, w)| (d, w) == (l, r));
            for k in (0..nl).filter(|&k| sends(k)) {
                units.insert((k, u, r));
                for l in (0..nl).filter(|&l| serves(l) && l != a_u && l != k) {
                    flows[k * nl + l] += inst.kappa(r);
                }
            }
        }
    }
    for k in 0..nl {
        for l in 0..nl {
            let f = flows[k * nl + l];
            load.download[l] += f;
            load.upload[k] += f;
            load.ingress[l] += f;
        }
    }
    for &(k, _, _) in &units {
        load.transcode_units[k] += 1;
    }

    let cost = problem.cost();
    let spec = |l: usize| inst.agent(AgentId::from(l));
    load.traffic_cost = (0..nl)
        .map(|l| spec(l).price_per_mbps() * cost.bandwidth.cost(load.ingress[l]))
        .sum();
    load.transcode_cost = (0..nl)
        .map(|l| spec(l).price_per_task() * cost.transcode.cost(f64::from(load.transcode_units[l])))
        .sum();
    load.phi = cost
        .weights
        .combine(load.delay_cost, load.traffic_cost, load.transcode_cost);
    load
}

/// Requires the [dense reference](dense_session_load) bit-equal
/// (`touched` aside) to a fresh `evaluate_session` and to what the
/// kernel weighs: for every session of `problem` around `asg`, the
/// base placement and every single-decision candidate — each user and
/// each task to each agent, through [`Neighborhood::candidate`] and
/// [`Neighborhood::sweep`]. One `scratch` serves every session.
/// Returns the candidates weighed.
fn assert_kernel_matches_dense(
    problem: &Arc<UapProblem>,
    asg: &Assignment,
    scratch: &mut EvalScratch,
) -> usize {
    let state = SystemState::new(problem.clone(), asg.clone());
    let inst = problem.instance();
    let mut weighed = 0;
    for s in inst.session_ids() {
        let dense = dense_session_load(problem, asg, s);
        let fresh = evaluate_session(problem, asg, s);
        assert_loads_bitwise(&fresh, &dense, &format!("{s} base"));
        let mut hood = Neighborhood::of_state(&state, s, scratch);
        let users = (inst.session(s).users().iter())
            .flat_map(|&u| inst.agent_ids().map(move |l| Decision::User(u, l)));
        let tasks = (problem.tasks().of_session(s).iter())
            .flat_map(|&t| inst.agent_ids().map(move |l| Decision::Task(t, l)));
        for d in users.chain(tasks) {
            let mut moved = asg.clone();
            moved.apply(d);
            let dense = dense_session_load(problem, &moved, s);
            let ctx = format!("{s} {d}");
            assert_loads_bitwise(&evaluate_session(problem, &moved, s), &dense, &ctx);
            assert_loads_bitwise(hood.candidate(d).1, &dense, &ctx);
            weighed += 1;
        }
        hood.sweep(
            |_| true,
            |d, load| {
                let mut moved = asg.clone();
                moved.apply(d);
                let dense = dense_session_load(problem, &moved, s);
                assert_loads_bitwise(load, &dense, &format!("{s} sweep {d}"));
            },
        );
    }
    weighed
}

/// Shapes where the order of a flow cell's addends shows in its bits:
/// a ladder of rates that are not binary fractions (0.3, 1.1, 2.3 and
/// 4.7 Mbps, whose sums round), and a 720p source whose stream reaches
/// one agent raw and in two transcoded representations from one
/// transcoder, so that cell takes 4.7, 1.1 and 2.3 in that order.
fn order_sensitive_shapes() -> (Arc<UapProblem>, Assignment) {
    let ladder = ReprLadder::from_steps([
        ("240p", 240, 300),
        ("360p", 360, 1_100),
        ("480p", 480, 2_300),
        ("720p", 720, 4_700),
    ])
    .expect("strictly increasing");
    let [_, r1, r2, r3]: [ReprId; 4] = ladder.ids().collect::<Vec<_>>().try_into().unwrap();
    let mut b = InstanceBuilder::new(ladder);
    for i in 0..3 {
        b.add_agent(
            AgentSpec::builder(format!("a{i}"))
                .capacity(Capacity::new(90.0, 90.0, 4))
                .build(),
        );
    }
    // Session 0: u1 wants u0's 720p at 360p, u2 at 480p, u3 raw.
    let s0 = b.add_session();
    let u0 = b.add_user(s0, r3, r1);
    b.add_user(s0, r1, r1);
    b.add_user_with_demand(s0, r1, DownstreamDemand::uniform(r1).with_override(u0, r2));
    b.add_user_with_demand(s0, r1, DownstreamDemand::uniform(r1).with_override(u0, r3));
    let s1 = b.add_session();
    b.add_user(s1, r2, r1);
    b.add_user(s1, r1, r3);
    b.symmetric_delays(
        |l, k| 12.0 + 5.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 4.0 + ((l * 7 + u * 3) % 23) as f64,
    );
    b.d_max_ms(10_000.0);
    let problem = Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ));
    // u0 and its tasks on a0, its destinations on a1; session 1 split.
    let mut asg = Assignment::all_to_agent(&problem, AgentId::new(0));
    for &u in &problem.instance().session(s0).users()[1..] {
        asg.set_user(u, AgentId::new(1));
    }
    asg.set_user(problem.instance().session(s1).users()[1], AgentId::new(2));
    (problem, asg)
}

/// Kernel ≡ fresh ≡ the dense reference on the named shapes and on
/// shapes whose flow-cell sums depend on the emission order, the agent
/// pool growing between two neighbourhoods.
#[test]
fn kernel_matches_the_dense_reference_on_the_named_shapes() {
    let mut scratch = EvalScratch::new();
    for (problem, asg) in [named_shapes(), order_sensitive_shapes()] {
        let before = assert_kernel_matches_dense(&problem, &asg, &mut scratch);
        let (grown, asg) = with_one_more_agent(&problem, &asg);
        let after = assert_kernel_matches_dense(&grown, &asg, &mut scratch);
        assert!(before > 0 && after > before, "{before} {after}");
    }
    // The order the fixture is named for, by hand: cell a0→a1 takes
    // u0's raw 4.7 Mbps, then its 1.1, then its 2.3.
    let (problem, asg) = order_sensitive_shapes();
    let ingress = evaluate_session(&problem, &asg, SessionId::new(0)).ingress[1];
    assert_eq!(ingress.to_bits(), (4.7f64 + 1.1 + 2.3).to_bits());
    assert_ne!(ingress.to_bits(), (4.7f64 + 2.3 + 1.1).to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kernel ≡ fresh ≡ the dense reference on random universes around
    /// random placements, the same scratch carried over a grown agent
    /// pool.
    #[test]
    fn kernel_candidate_equals_the_dense_reference(
        spec in universe_strategy(),
        placement_seed in any::<u64>(),
    ) {
        let problem = build_problem(&spec);
        let asg = scattered_assignment(&problem, placement_seed);
        let mut scratch = EvalScratch::new();
        assert_kernel_matches_dense(&problem, &asg, &mut scratch);
        let (grown, asg) = with_one_more_agent(&problem, &asg);
        assert_kernel_matches_dense(&grown, &asg, &mut scratch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A reused scratch evaluating overlay candidates matches a fresh
    /// full evaluation of the mutated assignment, at every step of a
    /// random decision walk (committing a subset of the candidates so
    /// the scratch sees swapped-in loads, partially-filled buffers, and
    /// every other reuse hazard).
    #[test]
    fn incremental_candidate_equals_fresh_evaluation(
        spec in universe_strategy(),
        walk in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..=60),
    ) {
        let problem = build_problem(&spec);
        let mut state = SystemState::new(
            problem.clone(),
            Assignment::all_to_agent(&problem, AgentId::new(0)),
        );
        let mut scratch = EvalScratch::new();
        for (step, &(which, target, commit)) in walk.iter().enumerate() {
            let decision = decode_decision(&problem, which, target);
            let s = state.session_of(decision);
            let verdict = state.candidate_into(decision, &mut scratch);

            // Fresh reference: clone the assignment, apply, evaluate.
            let mut asg = state.assignment().clone();
            asg.apply(decision);
            let fresh = evaluate_session(&problem, &asg, s);
            assert_loads_bitwise(scratch.load(), &fresh, &format!("step {step}"));

            if commit && verdict.is_ok() {
                state.commit_scratch(decision, &mut scratch);
                // The committed load must be what the state now reports.
                let stored = state.session_load(s);
                prop_assert!((stored.phi - fresh.phi).abs() <= 1e-12);
            }
        }
        // After the walk, a full rebuild agrees with the incrementally
        // maintained totals.
        let drift = state.rebuild();
        prop_assert!(drift < 1e-9, "totals drifted by {drift}");
    }

    /// Kernel ≡ fresh on random universes around random placements, the
    /// same scratch carried over a grown agent pool.
    #[test]
    fn kernel_candidate_equals_fresh_evaluation(
        spec in universe_strategy(),
        placement_seed in any::<u64>(),
    ) {
        let problem = build_problem(&spec);
        let asg = scattered_assignment(&problem, placement_seed);
        let mut scratch = EvalScratch::new();
        assert_kernel_matches_fresh(&problem, &asg, &mut scratch);
        let (grown, asg) = with_one_more_agent(&problem, &asg);
        assert_kernel_matches_fresh(&grown, &asg, &mut scratch);
    }

    /// `candidate()` (internal scratch) and `candidate_into` (external
    /// scratch) agree with each other and leave the state untouched.
    #[test]
    fn candidate_paths_agree(
        spec in universe_strategy(),
        probes in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=20),
    ) {
        let problem = build_problem(&spec);
        let state = SystemState::new(
            problem.clone(),
            Assignment::all_to_agent(&problem, AgentId::new(0)),
        );
        let before = state.assignment().clone();
        let mut scratch = EvalScratch::new();
        for &(which, target) in &probes {
            let decision = decode_decision(&problem, which, target);
            let (load, verdict) = state.candidate(decision);
            let verdict2 = state.candidate_into(decision, &mut scratch);
            prop_assert_eq!(verdict.is_ok(), verdict2.is_ok());
            assert_loads_bitwise(scratch.load(), &load, "candidate vs candidate_into");
        }
        prop_assert_eq!(state.assignment(), &before);
    }
}

/// Hops racing on 4 OS threads under the sharded FREEZE must leave the
/// ledger conservation-clean and every slot load exactly re-evaluable.
#[test]
fn concurrent_hops_leave_the_fleet_conserved() {
    let spec = RandomUniverse {
        agents: vec![(600.0, 40), (600.0, 40), (600.0, 40), (600.0, 40)],
        sessions: vec![vec![(3, 0), (0, 0), (1, 1)]; 12],
        delay_seed: 9,
        zero_rung: false,
        bandwidth: 0,
    };
    let problem = build_problem(&spec);
    let num_sessions = problem.instance().num_sessions();
    let fleet = Arc::new(Fleet::new(
        problem,
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config {
                mean_countdown_s: 0.5,
                ..Alg1Config::paper(200.0)
            },
            ..FleetConfig::default()
        },
    ));
    let pool = ReoptPool::new(17);
    for i in 0..num_sessions {
        fleet
            .admit(SessionId::from(i))
            .expect("roomy universe admits");
        pool.register(&fleet, SessionId::from(i), 0.0);
    }
    let hops = pool.run_wall(&fleet, std::time::Duration::from_millis(250), 4);
    assert!(hops > 0, "threaded pool never hopped");
    let audit = fleet.audit();
    assert!(audit.is_empty(), "conservation broke: {audit:?}");
    let drift = fleet.load_drift();
    assert!(drift < 1e-9, "slot loads drifted by {drift}");
    assert_eq!(fleet.live_count(), num_sessions);
}

/// Direct racing on `hop_session_with` (no pool pacing): every thread
/// hammers a disjoint-then-overlapping session range as fast as it can;
/// conservation must still hold and every hop outcome must be coherent.
#[test]
fn unpaced_concurrent_hops_conserve() {
    let spec = RandomUniverse {
        agents: vec![(120.0, 6), (120.0, 6), (120.0, 6)],
        sessions: vec![vec![(3, 0), (1, 1)]; 8],
        delay_seed: 4,
        zero_rung: false,
        bandwidth: 0,
    };
    let problem = build_problem(&spec);
    let num_sessions = problem.instance().num_sessions();
    let fleet = Arc::new(Fleet::new(
        problem,
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(100.0),
            ..FleetConfig::default()
        },
    ));
    for i in 0..num_sessions {
        let _ = fleet.admit(SessionId::from(i));
    }
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let fleet = Arc::clone(&fleet);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                let mut scratch = vc_orchestrator::FleetHopScratch::new();
                for round in 0..200usize {
                    let s = SessionId::from((round + t as usize) % num_sessions);
                    let _ = fleet.hop_session_with(s, &mut rng, &mut scratch);
                }
            });
        }
    });
    let audit = fleet.audit();
    assert!(audit.is_empty(), "conservation broke: {audit:?}");
    assert!(fleet.load_drift() < 1e-9);
}
