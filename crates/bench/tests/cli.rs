//! CLI contract of the `experiments` binary: failures must be loud.
//!
//! CI invokes the binary by experiment id; a typo (or an id removed in
//! a refactor) must fail the job with a non-zero exit status, not
//! print the valid ids and report success.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn unknown_experiment_id_exits_non_zero() {
    let out = experiments()
        .arg("definitely_not_an_experiment")
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "unknown id must fail, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id") && stderr.contains("admission_parity"),
        "stderr must name the problem and list valid ids: {stderr}"
    );
}

#[test]
fn retired_ids_are_refused_and_no_longer_listed() {
    // `fleetbench` measures what these three timed; an automation
    // script still naming one must fail, not run nothing.
    for retired in ["persist", "open_world", "orchestrator"] {
        let out = experiments().arg(retired).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "'{retired}' must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment id '{retired}'")),
            "stderr must name the problem: {stderr}"
        );
        let listed: Vec<&str> = stderr.lines().skip(1).map(str::trim).collect();
        assert!(listed.contains(&"hop_bench") && listed.contains(&"all"));
        assert!(
            !listed.contains(&retired),
            "'{retired}' is still listed as a valid id: {stderr}"
        );
    }
}

#[test]
fn unknown_id_mixed_with_valid_ones_still_fails() {
    // The refusal must cover argument lists that *start* valid: nothing
    // may run before the parse completes.
    let out = experiments()
        .args(["fig2", "definitely_not_an_experiment"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("Fig. 2"),
        "no experiment may run when any id is invalid"
    );
}

#[test]
fn no_arguments_exits_non_zero_with_usage() {
    let out = experiments().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "missing usage line: {stderr}");
}
