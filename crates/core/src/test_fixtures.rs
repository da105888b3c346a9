//! Shared fixtures for the crate's unit tests.

use crate::{Assignment, UapProblem};
use std::sync::Arc;
use vc_cost::{BandwidthCost, CostModel};
use vc_model::{
    AgentId, AgentSpec, DelayMatrices, DownstreamDemand, InstanceBuilder, Matrix, ReprId,
    ReprLadder,
};

/// Two agents A (speed 1.0), B (speed 2.0); `D_AB = 40`;
/// `H = [[10, 25], [30, 5]]`. One session: u0 (720p up, wants 360p),
/// u1 (360p up, wants 360p). Exactly one task: (u0→u1, 360p).
pub fn two_agent_problem() -> UapProblem {
    let ladder = ReprLadder::standard_four();
    let r360 = ladder.by_name("360p").unwrap().id();
    let r720 = ladder.by_name("720p").unwrap().id();
    let mut b = InstanceBuilder::new(ladder);
    b.add_agent(AgentSpec::builder("a").speed_factor(1.0).build());
    b.add_agent(AgentSpec::builder("b").speed_factor(2.0).build());
    let s = b.add_session();
    b.add_user(s, r720, r360);
    b.add_user(s, r360, r360);
    let d = Matrix::from_rows(2, 2, vec![0.0, 40.0, 40.0, 0.0]).unwrap();
    let h = Matrix::from_rows(2, 2, vec![10.0, 25.0, 30.0, 5.0]).unwrap();
    b.delays(DelayMatrices::new(d, h).unwrap());
    UapProblem::new(b.build().unwrap(), CostModel::paper_default())
}

/// Three agents A, B, C (all speed 1.0 except B = 2.0);
/// `D`: A–B 40, A–C 30, B–C 20; same session shape as
/// [`two_agent_problem`].
pub fn three_agent_problem() -> UapProblem {
    let ladder = ReprLadder::standard_four();
    let r360 = ladder.by_name("360p").unwrap().id();
    let r720 = ladder.by_name("720p").unwrap().id();
    let mut b = InstanceBuilder::new(ladder);
    b.add_agent(AgentSpec::builder("a").speed_factor(1.0).build());
    b.add_agent(AgentSpec::builder("b").speed_factor(2.0).build());
    b.add_agent(AgentSpec::builder("c").speed_factor(1.0).build());
    let s = b.add_session();
    b.add_user(s, r720, r360);
    b.add_user(s, r360, r360);
    let d = Matrix::from_rows(
        3,
        3,
        vec![
            0.0, 40.0, 30.0, //
            40.0, 0.0, 20.0, //
            30.0, 20.0, 0.0,
        ],
    )
    .unwrap();
    let h = Matrix::from_rows(3, 2, vec![10.0, 25.0, 30.0, 5.0, 50.0, 50.0]).unwrap();
    b.delays(DelayMatrices::new(d, h).unwrap());
    UapProblem::new(b.build().unwrap(), CostModel::paper_default())
}

/// Alias used by modules that only need "some valid small problem".
pub fn small_problem() -> UapProblem {
    two_agent_problem()
}

/// Two sessions over three agents, with capacity limits tight enough that
/// some assignments are infeasible — exercises the constraint machinery.
pub fn capacity_limited_problem() -> UapProblem {
    let ladder = ReprLadder::standard_four();
    let r360 = ladder.by_name("360p").unwrap().id();
    let r720 = ladder.by_name("720p").unwrap().id();
    let mut b = InstanceBuilder::new(ladder);
    b.add_agent(
        AgentSpec::builder("a")
            .upload_mbps(30.0)
            .download_mbps(30.0)
            .transcode_slots(2)
            .build(),
    );
    b.add_agent(
        AgentSpec::builder("b")
            .upload_mbps(12.0)
            .download_mbps(12.0)
            .transcode_slots(1)
            .speed_factor(1.5)
            .build(),
    );
    b.add_agent(
        AgentSpec::builder("c")
            .upload_mbps(8.0)
            .download_mbps(8.0)
            .transcode_slots(0)
            .speed_factor(2.0)
            .build(),
    );
    let s0 = b.add_session();
    b.add_user(s0, r720, r360);
    b.add_user(s0, r360, r360);
    b.add_user(s0, r720, r720);
    let s1 = b.add_session();
    b.add_user(s1, r720, r720);
    b.add_user(s1, r720, r360);
    b.symmetric_delays(
        |l, k| 20.0 + 10.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 8.0 + 6.0 * ((l + u) % 3) as f64,
    );
    UapProblem::new(b.build().unwrap(), CostModel::paper_default())
}

/// The named shapes of `tests/hop_equivalence.rs`, scattered: a
/// zero-bitrate rung, one transcoded representation shared by two
/// destinations, tasks on their source's and on their destination's
/// agent, conferences of 4, 2 and 3 users — traffic priced through
/// `bandwidth`.
pub fn named_shapes(bandwidth: BandwidthCost) -> (Arc<UapProblem>, Assignment) {
    let ladder = ReprLadder::from_steps([
        ("audio", 0, 0),
        ("480p", 480, 2_500),
        ("720p", 720, 5_000),
        ("1080p", 1080, 8_000),
    ])
    .unwrap();
    let [r0, r1, r2, r3]: [ReprId; 4] = ladder.ids().collect::<Vec<_>>().try_into().unwrap();
    let mut b = InstanceBuilder::new(ladder);
    for i in 0..4 {
        b.add_agent(AgentSpec::builder(format!("a{i}")).build());
    }
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
    let cost = CostModel {
        bandwidth,
        ..CostModel::paper_default()
    };
    let problem = Arc::new(UapProblem::new(b.build().unwrap(), cost));
    let mut asg = Assignment::all_to_agent(&problem, AgentId::new(0));
    for u in problem.instance().user_ids() {
        asg.set_user(u, AgentId::from((u.index() * 5 + 1) % 3));
    }
    for (k, (t, task)) in problem.tasks().iter().enumerate() {
        // Alternately the source's and the destination's agent.
        let host = if k % 2 == 0 { task.src } else { task.dst };
        asg.set_task(t, asg.agent_of_user(host));
    }
    (problem, asg)
}
