//! Exact work counts of the default `source-dpor-lin` reduction, pinned.
//!
//! The oracle tests prove the reduced verdict-signature sets equal full
//! enumeration; they do not notice a change that keeps the verdicts but
//! explores a different tree. These pins do: the schedule, executed-step,
//! race and race-seed counts below are the exact output of the
//! happens-before layer driving the explorer, so any drift in clocks, race
//! order or weak initials shows up here as a changed number.

use scl_check::{find, CheckConfig, Outcome};
use scl_core::AbdRegister;
use scl_sim::{
    explore_schedules_report, ExploreConfig, ExploreOutcome, ExploreStats, Reduction, ResumeMode,
    SharedMemory, Workload,
};
use scl_spec::{RegisterOp, RegisterSpec};

/// `(schedules, executed_steps, races, race_seeds)` of one run.
fn counts(stats: &ExploreStats) -> (u64, u64, u64, u64) {
    (
        stats.schedules,
        stats.executed_steps,
        stats.races,
        stats.race_seeds,
    )
}

#[test]
fn spec_tas_n3_source_dpor_lin_counts_are_pinned() {
    let report = find("spec_tas_n3")
        .expect("registered scenario")
        .run(&CheckConfig::default());
    assert!(
        matches!(report.outcome, Outcome::Exhausted { schedules: 11_923 }),
        "{:?}",
        report.outcome
    );
    assert_eq!(counts(&report.explore), (11_923, 75_087, 41_552, 12_388));
    // Full replay rebuilds the happens-before stream on every backtrack.
    let report = find("spec_tas_n3")
        .expect("registered scenario")
        .run(&CheckConfig {
            resume: ResumeMode::FullReplay,
            ..CheckConfig::default()
        });
    assert_eq!(counts(&report.explore), (11_923, 321_533, 41_552, 12_388));
}

#[test]
fn abd_lossy_n2_budget_counts_are_pinned() {
    // Two clients over a lossy network: races between the clients' message
    // deliveries and replica accesses drive the seeding. The space is far
    // larger than the budget, so the pin covers a fixed budget-bound prefix
    // of the DFS.
    for (resume, pinned) in [
        (ResumeMode::PrefixResume, (10_000, 25_654, 3_172, 9)),
        (ResumeMode::FullReplay, (10_000, 413_325, 3_172, 9)),
    ] {
        let report = find("abd_lossy_n2")
            .expect("registered scenario")
            .run(&CheckConfig {
                resume,
                max_schedules: 10_000,
                ..CheckConfig::default()
            });
        assert!(
            matches!(report.outcome, Outcome::LimitReached { schedules: 10_000 }),
            "{:?}",
            report.outcome
        );
        assert_eq!(counts(&report.explore), pinned, "{resume:?}");
    }
}

/// The one-writer ABD emulation (2 replicas, majority quorum, retry budget
/// 1, cap 12) under a 1-crash + 1-drop budget: the network cell of
/// `bench_check`.
fn abd_crash_drop(resume: ResumeMode) -> ExploreStats {
    let workload: Workload<RegisterSpec, ()> = Workload::from_ops(vec![vec![RegisterOp::Write(5)]]);
    let config = ExploreConfig {
        reduction: Reduction::SourceDporLinPreserving,
        resume,
        max_crashes: 1,
        max_drops: 1,
        metrics_only: true,
        ..Default::default()
    };
    let report = explore_schedules_report(
        |mem: &mut SharedMemory| AbdRegister::new(mem, 1, 2, 12, 1),
        &workload,
        &config,
        |_r, _m| Ok(()),
    );
    assert!(
        matches!(report.outcome, Ok(ExploreOutcome::Exhausted { .. })),
        "{:?}",
        report.outcome
    );
    report.stats
}

#[test]
fn abd_crash_drop_source_dpor_lin_counts_are_pinned() {
    assert_eq!(
        counts(&abd_crash_drop(ResumeMode::PrefixResume)),
        (12_524, 9_278, 0, 0)
    );
    assert_eq!(
        counts(&abd_crash_drop(ResumeMode::FullReplay)),
        (12_524, 111_170, 0, 0)
    );
}
