//! The traced scenarios, rebuilt from public constructors.
//!
//! Each function mirrors one runner of `scl_check::scenarios` — the same
//! object constructor, workload, per-scenario `CheckConfig` overrides, check
//! closure and lin gate — but drives the explorer itself, with the object,
//! the `LinMonitor` bridge, the verdict and the check closure wrapped in the
//! timers of [`crate::layers`]. The CLI's always-on `TelemetryObserver` is
//! attached exactly as `scl-check` attaches it, including the timing of
//! every verdict into its checker counter. `main`'s parity guard compares
//! every rebuilt run against `scl_check::find(name).run(..)`, so a runner
//! that drifts from its original fails the traced run.

use crate::layers::{self, timed, Layer, TimedMonitor, TimedObject, Totals};
use scl_check::{CheckConfig, CheckerMode, LinMonitor};
use scl_core::{new_composable_universal, new_speculative_tas, AbdRegister};
use scl_sim::{
    explore_schedules_monitored_observed_report, ExecutionResult, ExploreConfig, ExploreError,
    ExploreOutcome, ExploreReport, ExploreStats, OpOutcome, SharedMemory, SimObject,
    TelemetryObserver, TelemetrySnapshot, Workload,
};
use scl_spec::{
    QueueOp, QueueSpec, RegisterOp, RegisterSpec, SequentialSpec, TasOp, TasResp, TasSpec,
    TasSwitch,
};
use std::cell::Cell;
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

/// One traced run of a rebuilt scenario.
pub struct Traced {
    /// Outcome tag, as `scl_check::Outcome::tag` spells it.
    pub outcome: &'static str,
    /// Explorer work accounting.
    pub stats: ExploreStats,
    /// Checker states expanded across the run.
    pub checker_states: u64,
    /// Wall seconds of the whole run, timers included.
    pub secs: f64,
    /// The CLI observer's counters.
    pub telemetry: TelemetrySnapshot,
    /// Time and calls per layer.
    pub layers: Totals,
}

/// Runs the rebuilt scenario `name` under `config` (the configuration the
/// scenario's registry entry would receive), or `None` if it is not rebuilt
/// here.
pub fn run(name: &str, config: &CheckConfig) -> Option<Traced> {
    let traced = match name {
        "spec_tas_n3" => {
            let config = CheckConfig {
                checker: CheckerMode::FromScratch,
                ..config.clone()
            };
            let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
            explore_traced(
                &config,
                TasSpec,
                new_speculative_tas,
                &wl,
                tas_wait_free_single_winner,
                |_res| false,
            )
            .0
        }
        "spec_tas_n3_realtime" => {
            let wl: Workload<TasSpec, TasSwitch> = Workload::single_op_each(3, TasOp::TestAndSet);
            explore_traced(
                config,
                TasSpec,
                new_speculative_tas,
                &wl,
                tas_wait_free_single_winner,
                |_res| true,
            )
            .0
        }
        "universal_queue_n2" => {
            let wl: Workload<QueueSpec, _> =
                Workload::from_ops(vec![vec![QueueOp::Enqueue(1)], vec![QueueOp::Dequeue]]);
            explore_traced(
                config,
                QueueSpec,
                |mem| new_composable_universal(mem, 2, QueueSpec),
                &wl,
                |res, _mem| {
                    if !res.completed {
                        return Err("execution hit the tick limit".into());
                    }
                    if res.metrics.aborted_count() > 0 {
                        return Err("the composed universal construction aborted".into());
                    }
                    Ok(())
                },
                |_res| true,
            )
            .0
        }
        "abd_quorum_mutant" => {
            explore_traced(
                config,
                RegisterSpec,
                |mem| AbdRegister::new_quorum_mutant(mem, 1, 2, 24, 2),
                &Workload::from_ops(vec![vec![RegisterOp::Write(5), RegisterOp::Read]]),
                completed,
                |_res| true,
            )
            .0
        }
        "abd_lossy_n2" => {
            let config = CheckConfig {
                max_drops: config.max_drops.max(1),
                max_crashes: 1,
                crash_eligible: !0,
                ..config.clone()
            };
            explore_traced(
                &config,
                RegisterSpec,
                |mem| AbdRegister::new(mem, 2, 2, 24, 2),
                &abd_workload(),
                completed,
                |res| !abd_aborted(res),
            )
            .0
        }
        "abd_partition_minority_n2" => {
            let config = CheckConfig {
                partition: 1 << 4,
                ..config.clone()
            };
            explore_traced(
                &config,
                RegisterSpec,
                |mem| AbdRegister::new(mem, 2, 3, 24, 2),
                &abd_workload(),
                |res, mem| {
                    completed(res, mem)?;
                    if abd_aborted(res) {
                        return Err("an operation aborted despite a live majority".into());
                    }
                    Ok(())
                },
                |res| !abd_aborted(res),
            )
            .0
        }
        "abd_retry_exhaustion_abort_n2" => {
            let config = CheckConfig {
                max_drops: config.max_drops.max(1),
                ..config.clone()
            };
            let aborts = Cell::new(0u64);
            let (mut traced, exhausted) = explore_traced(
                &config,
                RegisterSpec,
                |mem| AbdRegister::new(mem, 2, 2, 16, 0),
                &abd_workload(),
                |res, mem| {
                    completed(res, mem)?;
                    if res.ops.iter().any(|o| o.outcome.is_none()) {
                        return Err("an operation neither committed nor aborted".into());
                    }
                    if abd_aborted(res) {
                        aborts.set(aborts.get() + 1);
                    }
                    Ok(())
                },
                |res| !abd_aborted(res),
            );
            // The registry runner fails an exhausted space without aborts.
            if exhausted && aborts.get() == 0 {
                traced.outcome = "violation";
            }
            traced
        }
        _ => return None,
    };
    Some(traced)
}

/// `CheckConfig`'s mapping onto the explorer's configuration (private in
/// `scl-check`, mirrored field by field).
fn explore_config(c: &CheckConfig) -> ExploreConfig {
    ExploreConfig {
        max_schedules: c.max_schedules,
        max_ticks: c.max_ticks,
        metrics_only: c.metrics_only,
        threads: c.workers,
        reduction: c.reduction,
        resume: c.resume,
        max_crashes: c.max_crashes,
        crash_eligible: c.crash_eligible,
        max_recoveries: c.max_recoveries,
        recovery_eligible: c.recovery_eligible,
        max_drops: c.max_drops,
        partition: c.partition,
        deadline: c.deadline,
    }
}

/// The sequential monitored, observed exploration `scl-check` runs at
/// `--workers 1`, with every layer boundary timed. Returns the traced run
/// and whether the space was exhausted.
fn explore_traced<S, V, O, FSetup, FExtra, FGate>(
    config: &CheckConfig,
    spec: S,
    mut setup: FSetup,
    workload: &Workload<S, V>,
    mut extra: FExtra,
    lin_applies: FGate,
) -> (Traced, bool)
where
    S: SequentialSpec + 'static,
    V: Clone + Eq + Hash + Debug + 'static,
    O: SimObject<S, V>,
    FSetup: FnMut(&mut SharedMemory) -> O,
    FExtra: FnMut(&ExecutionResult<S, V>, &SharedMemory) -> Result<(), String>,
    FGate: Fn(&ExecutionResult<S, V>) -> bool,
{
    assert_eq!(config.workers, 1, "traced runs are sequential");
    let observer = TelemetryObserver::new(0, config.max_schedules);
    layers::take();
    let start = Instant::now();
    let mut monitor = TimedMonitor(
        LinMonitor::new(spec, config.checker).with_crashed_pending(config.crashed_pending),
    );
    let report: ExploreReport = explore_schedules_monitored_observed_report(
        |mem: &mut SharedMemory| TimedObject(setup(mem)),
        workload,
        &explore_config(config),
        &mut monitor,
        &observer,
        |res: &ExecutionResult<S, V>, mem: &SharedMemory, m: &mut TimedMonitor<LinMonitor<S>>| {
            timed(Layer::Checks, || {
                extra(res, mem)?;
                if !lin_applies(res) {
                    return Ok(());
                }
                let t0 = Instant::now();
                let verdict = timed(Layer::Verdict, || m.0.verdict());
                observer.add_checker_nanos(t0.elapsed().as_nanos() as u64);
                verdict
            })
        },
    );
    let secs = start.elapsed().as_secs_f64();
    let layers = layers::take();
    let (outcome, exhausted) = match report.outcome {
        Ok(ExploreOutcome::Exhausted { .. }) => ("exhausted", true),
        Ok(ExploreOutcome::LimitReached { .. }) => ("limit_reached", false),
        Err(ExploreError::Check(_)) => ("violation", false),
        Err(ExploreError::WorkerPanic { .. }) => ("harness_failure", false),
    };
    let traced = Traced {
        outcome,
        stats: report.stats,
        checker_states: monitor.0.checker_states(),
        secs,
        telemetry: observer.snapshot(),
        layers,
    };
    (traced, exhausted)
}

fn abd_workload() -> Workload<RegisterSpec, ()> {
    Workload::from_ops(vec![vec![RegisterOp::Write(5)], vec![RegisterOp::Read]])
}

fn abd_aborted<V>(res: &ExecutionResult<RegisterSpec, V>) -> bool {
    res.ops
        .iter()
        .any(|o| matches!(o.outcome, Some(OpOutcome::Abort(_))))
}

fn completed<S: SequentialSpec, V>(
    res: &ExecutionResult<S, V>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("execution hit the tick limit".into());
    }
    Ok(())
}

fn tas_wait_free_single_winner<V>(
    res: &ExecutionResult<TasSpec, V>,
    _mem: &SharedMemory,
) -> Result<(), String> {
    if !res.completed {
        return Err("execution hit the tick limit".into());
    }
    if res.metrics.aborted_count() > 0 {
        return Err("the composition aborted".into());
    }
    let winners = res
        .ops
        .iter()
        .filter(|o| matches!(o.outcome, Some(OpOutcome::Commit(TasResp::Winner))))
        .count();
    if winners != 1 {
        return Err(format!("{winners} winners (expected exactly 1)"));
    }
    Ok(())
}
