//! The late-joiner guard through the public API, after it stopped
//! scanning the universe.
//!
//! `UapProblem::register_session` refuses to extend its task table over
//! an instance where an already-covered session gained a user
//! (`Instance::register_user`). The guard now reads the instance's
//! late-joined record instead of walking every registered session, so
//! these tests pin what must not have changed: after ten thousand
//! whole-session registrations the guard still fires, names the
//! lowest mutated session, leaves the table untouched, and the record
//! it reads survives `clone`, `prefix` and `agent_prefix`. (The
//! `UapProblem`-level half — a refused registration leaves instance,
//! task table and cached demands equal to a clone taken before — is a
//! `vc-core` unit test, which can reach the problem's private instance.)

use cloud_vc::prelude::*;
use vc_core::TaskTable;
use vc_model::ModelError;

fn grown_instance(sessions: usize) -> (Instance, SessionDef) {
    let mut instance = cloud_vc::net::fig2::instance();
    let def = SessionDef::of_instance(&instance, SessionId::new(0));
    for _ in 0..sessions {
        instance
            .register_session(&def)
            .expect("extracted def re-registers");
    }
    (instance, def)
}

#[test]
fn guard_fires_after_ten_thousand_registrations_and_names_the_session() {
    let (mut instance, def) = grown_instance(10_000);
    let mut table = TaskTable::build(&instance);
    assert!(instance.late_joined_sessions().is_empty());
    assert_eq!(table.check_extension(&instance), Ok(()));

    // Two covered sessions gain a user, higher id first: the guard must
    // still name the lowest, like the ascending scan it replaced.
    let joiner = def.users[0].clone();
    for s in [7_000u32, 1_234] {
        instance
            .register_user(SessionId::new(s), &joiner)
            .expect("model-level late join is legal");
    }
    assert_eq!(
        instance.late_joined_sessions(),
        [SessionId::new(1_234), SessionId::new(7_000)]
    );
    // A second joiner into the same session does not duplicate it.
    instance
        .register_user(SessionId::new(7_000), &joiner)
        .expect("second late join");
    assert_eq!(instance.late_joined_sessions().len(), 2);

    let before = table.clone();
    let err = ModelError::LateJoinExtension {
        session: SessionId::new(1_234),
    };
    assert_eq!(table.check_extension(&instance), Err(err.clone()));
    assert_eq!(table.extend_for_instance(&instance), Err(err));
    assert_eq!(table, before, "a refused extension changed the table");

    // Sessions registered after the late joiners are new, not mutated:
    // a table rebuilt over the mutated instance extends cleanly.
    let mut rebuilt = TaskTable::build(&instance);
    instance.register_session(&def).expect("whole session");
    assert_eq!(rebuilt.extend_for_instance(&instance), Ok(()));
    assert_eq!(rebuilt, TaskTable::build(&instance));
}

#[test]
fn late_joined_record_survives_clone_prefix_and_agent_prefix() {
    let (mut instance, def) = grown_instance(40);
    instance
        .register_user(SessionId::new(25), &def.users[1])
        .expect("late join");
    let mutated = [SessionId::new(25)];

    assert_eq!(instance.clone().late_joined_sessions(), mutated);
    let fewer_agents = instance.agent_prefix(2).expect("two-agent prefix");
    assert_eq!(fewer_agents.late_joined_sessions(), mutated);

    // `prefix` keeps the record for the sessions it keeps: the full
    // prefix carries it, a cut below the mutated session drops it.
    let all = instance
        .prefix(instance.num_sessions())
        .expect("full prefix");
    assert_eq!(all.late_joined_sessions(), mutated);
    assert_eq!(all, instance);
    let below = instance.prefix(20).expect("prefix below the late joiner");
    assert!(below.late_joined_sessions().is_empty());
    assert!(!below.has_late_joiners());

    // And the guard reads the carried record: a table built before the
    // join refuses the carried instance exactly like the original.
    let (clean, _) = grown_instance(40);
    let table = TaskTable::build(&clean);
    for carried in [&instance, &all, &instance.clone()] {
        assert_eq!(
            table.check_extension(carried),
            Err(ModelError::LateJoinExtension {
                session: SessionId::new(25)
            })
        );
    }
}
