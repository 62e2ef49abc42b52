//! The measuring half of the scl benchmark; `run.py` drives it.
//!
//! ```text
//! scl-perfbench passes --workload W --seed N --seconds T --parallel 0|1
//! scl-perfbench trace  --workload W --seed N
//! ```
//!
//! `passes` runs the workload's scenarios through `Scenario::run` with the
//! configuration the `scl-check` CLI builds by default (one fresh
//! `TelemetryObserver` per scenario): one cold pass at `--workers 1` in the
//! workload's table order, then warm passes at `--workers 1` in the order
//! the seed fixes while the next one still ends within `T` seconds, then,
//! with `--parallel 1`, one pass at `--workers 2`. It prints one JSON line
//! per pass as the pass ends, then a line with the process's peak resident
//! memory after the cold pass and at the end.
//!
//! `trace` prints one JSON line of per-layer metrics: it times the calls the
//! explorer makes into each layer of the workload's heaviest scenarios,
//! rebuilt in [`rebuilt`], and checks every rebuilt run against the
//! registry's own run (the parity guard).
//!
//! The seed only fixes the order of scenarios within the warm passes and
//! the traced run.

mod layers;
mod rebuilt;

use layers::{ClockCost, Layer, Totals, LAYERS};
use scl_check::{find, CheckConfig, Outcome, Scenario, ScenarioReport};
use scl_sim::{Reduction, SplitMix64, TelemetryObserver};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload: a fixed scenario list, and the scenarios that make
/// up most of its wall time, which the traced run rebuilds.
struct Workload {
    name: &'static str,
    scenarios: &'static [&'static str],
    traced: &'static [&'static str],
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "decided",
        scenarios: &[
            // Proofs: correct objects whose space exhausts.
            "spec_tas_n2",
            "spec_tas_n3",
            "solo_fast_tas_n2",
            "a1_n2",
            "resettable_tas_n2",
            "universal_queue_n2",
            "universal_register_n2",
            "consensus_split_n2",
            "consensus_cas_n2",
            "crash_spec_tas_n2",
            "crash_write_behind_open_n2",
            "recovery_tas_n2",
            "recovery_write_behind_flush_durable_n2",
            "recovery_write_behind_abandon_durable_n2",
            // Counterexamples: the search stops at the first violation.
            "spec_tas_n3_realtime",
            "a1_dropped_raw_fence_n2",
            "crash_write_behind_strict_n2",
            "crash_resettable_tas_wedge_n2",
            "crash_a1_dropped_raw_fence_n2",
            "recovery_tas_mutant_n2",
            "recovery_write_behind_flush_strict_n2",
            "recovery_write_behind_abandon_recoverable_n2",
            "recovery_recrash_unrecovered_n2",
            "abd_partition_majority_wedge_n2",
            "abd_quorum_mutant",
        ],
        traced: &[
            "spec_tas_n3",
            "universal_queue_n2",
            "spec_tas_n3_realtime",
            "abd_quorum_mutant",
        ],
    },
    Workload {
        name: "abd_budget",
        scenarios: &[
            "abd_lossy_n2",
            "abd_partition_minority_n2",
            "abd_retry_exhaustion_abort_n2",
        ],
        traced: &[
            "abd_lossy_n2",
            "abd_partition_minority_n2",
            "abd_retry_exhaustion_abort_n2",
        ],
    },
];

fn fail(msg: &str) -> ! {
    eprintln!("scl-perfbench: {msg}");
    std::process::exit(2);
}

/// The workload's scenarios, checked against the registry, in table order.
fn scenarios(w: &Workload) -> Vec<&'static Scenario> {
    w.scenarios
        .iter()
        .map(|name| find(name).unwrap_or_else(|| fail(&format!("unknown scenario `{name}`"))))
        .collect()
}

/// `scenarios` in the order the seed fixes (Fisher–Yates over SplitMix64).
fn shuffled(mut order: Vec<&'static Scenario>, seed: u64) -> Vec<&'static Scenario> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The configuration the `scl-check` CLI builds for one scenario run with no
/// flags but `--workers` (and, for the traced comparison, `--reduction`),
/// with its always-on telemetry observer when `observer` is set.
fn cli_config(workers: usize, reduction: Option<Reduction>, observer: bool) -> CheckConfig {
    let mut config = CheckConfig {
        workers,
        ..CheckConfig::default()
    };
    if let Some(r) = reduction {
        config.reduction = r;
    }
    if observer {
        config.observer = Some(Arc::new(TelemetryObserver::new(0, config.max_schedules)));
    }
    config
}

/// One pass over `order` at `workers`, as the CLI runs it.
fn pass(order: &[&'static Scenario], workers: usize) -> (f64, Vec<ScenarioReport>) {
    let start = Instant::now();
    let reports = order
        .iter()
        .map(|s| s.run(&cli_config(workers, None, true)))
        .collect();
    (start.elapsed().as_secs_f64(), reports)
}

/// A fingerprint of a violation verdict (its message and schedule; FNV-1a),
/// or `-` for the other outcomes: the determinism guard compares verdicts
/// through it.
fn verdict(outcome: &Outcome) -> String {
    let Outcome::Violation { schedule, message } = outcome else {
        return "-".to_string();
    };
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let ids = schedule
        .iter()
        .flat_map(|p| (p.index() as u64).to_le_bytes());
    for byte in message.bytes().chain(ids) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn pass_json(index: usize, workers: usize, secs: f64, reports: &[ScenarioReport]) -> String {
    let runs: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "[\"{}\", \"{}\", \"{}\", {}, {}, {}, {}]",
                r.name,
                r.outcome.tag(),
                verdict(&r.outcome),
                r.as_expected(),
                r.explore.schedules,
                r.explore.executed_steps,
                r.checker_states
            )
        })
        .collect();
    format!(
        "{{\"pass\": {index}, \"workers\": {workers}, \"secs\": {secs}, \"runs\": [{}]}}",
        runs.join(", ")
    )
}

/// Peak resident memory of this process in KiB (`VmHWM`).
fn vmhwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fail(&format!("cannot read /proc/self/status: {e}")));
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| fail("no VmHWM in /proc/self/status"))
}

fn passes_main(w: &Workload, seed: u64, seconds: f64, parallel: bool) {
    let order = shuffled(scenarios(w), seed);
    let start = Instant::now();
    let mut out = std::io::stdout().lock();
    let mut emit = |line: String| {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .unwrap_or_else(|e| {
                fail(&format!("cannot write to stdout: {e}"));
            });
    };
    // The cold pass runs in table order: the allocator's high-water mark
    // depends on the order of scenarios, and `peak_rss_mb` must not depend
    // on the seed.
    let (cold_secs, reports) = pass(&scenarios(w), 1);
    emit(pass_json(0, 1, cold_secs, &reports));
    // The peak memory of a one-shot `scl-check` call: one pass at the
    // default `--workers 1`, before any parallel pass adds its threads.
    let cold_vmhwm_kb = vmhwm_kb();
    // Warm passes at 1 worker run while the next one, as long as the last,
    // and the pass at 2 workers, if any, counted as long too, still end
    // within `seconds`. The pass at 2 workers comes last, so that no pass at
    // 1 worker runs on the heap the parallel pass has grown.
    let passes_left = 1.0 + f64::from(u8::from(parallel));
    let mut last_secs = cold_secs;
    let mut index = 1;
    while start.elapsed().as_secs_f64() + last_secs * passes_left <= seconds {
        let (secs, reports) = pass(&order, 1);
        emit(pass_json(index, 1, secs, &reports));
        last_secs = secs;
        index += 1;
    }
    if parallel {
        let (secs, reports) = pass(&order, 2);
        emit(pass_json(index, 2, secs, &reports));
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    emit(format!(
        "{{\"cold_vmhwm_kb\": {cold_vmhwm_kb}, \"vmhwm_kb\": {}, \
         \"available_parallelism\": {parallelism}}}",
        vmhwm_kb()
    ));
}

/// The runs of one variant of a traced scenario: their total wall seconds,
/// their number, and the last of them. Every run's key must equal the
/// first's.
struct Series<T, K> {
    what: String,
    secs: f64,
    runs: u64,
    first: Option<K>,
    last: Option<T>,
}

impl<T, K: PartialEq + std::fmt::Debug> Series<T, K> {
    fn new(what: String) -> Self {
        Series {
            what,
            secs: 0.0,
            runs: 0,
            first: None,
            last: None,
        }
    }

    /// Runs `run` once, recording a failure if its key differs from the
    /// first run's.
    fn run(
        &mut self,
        failures: &mut Vec<String>,
        run: impl FnOnce() -> (f64, T),
        key: impl FnOnce(&T) -> K,
    ) {
        let (secs, r) = run();
        let k = key(&r);
        match &self.first {
            Some(first) if *first != k => failures.push(format!(
                "{}: nondeterministic {first:?} vs {k:?}",
                self.what
            )),
            Some(_) => {}
            None => self.first = Some(k),
        }
        self.secs += secs;
        self.runs += 1;
        self.last = Some(r);
    }

    fn mean_secs(&self) -> f64 {
        self.secs / self.runs as f64
    }

    fn last(&self) -> &T {
        self.last.as_ref().expect("every series runs at least once")
    }
}

/// The counts the parity and determinism guards compare: outcome,
/// schedules, executed steps, checker states.
type Key = (&'static str, u64, u64, u64);

fn report_key(r: &ScenarioReport) -> Key {
    (
        r.outcome.tag(),
        r.explore.schedules,
        r.explore.executed_steps,
        r.checker_states,
    )
}

fn traced_key(t: &rebuilt::Traced) -> Key {
    (
        t.outcome,
        t.stats.schedules,
        t.stats.executed_steps,
        t.checker_states,
    )
}

/// Sums over a workload's traced scenarios under one reduction.
#[derive(Default)]
struct TraceSums {
    untraced_secs: f64,
    traced_secs: f64,
    layers: Totals,
    ticks: u64,
    steps: u64,
    schedules: u64,
    sleep_blocked: u64,
    replayed_ticks: u64,
    races: u64,
    race_seeds: u64,
    checkpoint_saves: u64,
    checkpoint_restores: u64,
    hb_classes: u64,
    checker_states: u64,
    cli_checker_secs: f64,
}

impl TraceSums {
    /// The explorer's own seconds: the untraced wall time minus the time
    /// spent in the timed layers, their timers' cost removed. Whatever the
    /// wrappers cost beyond the timers is charged to the layers.
    fn self_secs(&self, clock: &ClockCost) -> f64 {
        self.untraced_secs - self.layers.layer_secs(clock)
    }

    /// The part of the traced wall time that neither the untraced run nor
    /// the timers account for (the wrappers' boxes and calls, cache effects),
    /// as a share of the untraced wall time.
    fn residual_ratio(&self, clock: &ClockCost) -> f64 {
        ratio(
            self.traced_secs - self.layers.clock_secs(clock) - self.untraced_secs,
            self.untraced_secs,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Adds one scenario's runs under one reduction into `sums`: the registry's
/// untraced runs (the parity reference and the trace-overhead base) and the
/// rebuilt, traced runs with their mean `layers`.
fn add_scenario(
    sums: &mut TraceSums,
    reference: &Series<ScenarioReport, Key>,
    traced: &Series<rebuilt::Traced, Key>,
    layers: &Totals,
    failures: &mut Vec<String>,
) {
    let (r, t) = (reference.last(), traced.last());
    if !r.as_expected() {
        failures.push(format!("{}: {} not as expected", reference.what, r.outcome.tag()));
    }
    if report_key(r) != traced_key(t) {
        failures.push(format!(
            "parity: {}: registry (outcome, schedules, steps, states) = {:?}, rebuilt = {:?}",
            reference.what,
            report_key(r),
            traced_key(t)
        ));
    }
    sums.untraced_secs += reference.mean_secs();
    sums.traced_secs += traced.mean_secs();
    sums.layers.absorb(layers);
    sums.ticks += t.stats.executed_ticks;
    sums.steps += t.stats.executed_steps;
    sums.schedules += t.stats.schedules;
    sums.sleep_blocked += t.stats.sleep_blocked;
    sums.replayed_ticks += t.stats.replayed_ticks;
    sums.races += t.telemetry.races;
    sums.race_seeds += t.telemetry.race_seeds;
    sums.checkpoint_saves += t.telemetry.checkpoint_saves;
    sums.checkpoint_restores += t.telemetry.checkpoint_restores;
    sums.hb_classes += t.telemetry.hb_classes;
    sums.checker_states += t.checker_states;
    sums.cli_checker_secs += r
        .telemetry
        .as_ref()
        .map_or(0.0, |tel| tel.checker_nanos as f64 / 1e9);
}

/// Wall seconds the traced run spends on one scenario, at most. Its variants
/// run in rounds, one run of each per round, so the machine's speed drifts
/// over all of them alike, and their times are means over the rounds. A
/// round of an `abd_budget` scenario takes longer than this: it runs once.
const SCENARIO_SECS: f64 = 10.0;

/// Per-layer metrics that are zero on every workload's traced scenarios.
const ALWAYS_ZERO: [&str; 3] = [
    "explore.replayed_ticks",
    "object.recover_s",
    "object.recover_calls",
];

fn trace_main(w: &Workload, seed: u64) {
    // The traced scenarios, in the order the seed fixes.
    let traced = shuffled(
        scenarios(w)
            .into_iter()
            .filter(|s| w.traced.contains(&s.name))
            .collect(),
        seed,
    );
    // The timers' cost, measured once a round, as the machine's speed drifts.
    let mut clocks = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;

    let reductions = [
        Reduction::SourceDporLinPreserving,
        Reduction::SleepSetsLinPreserving,
    ];
    let mut sums = [TraceSums::default(), TraceSums::default()];
    let mut unobserved_secs = 0.0;
    let (mut parallel_secs, mut parallel_schedules) = (0.0, 0);
    for s in traced {
        let label = |what: &str| format!("{} {what}", s.name);
        let mut registry = reductions.map(|r| Series::new(label(&format!("under {r:?}"))));
        let mut rebuilt_runs =
            reductions.map(|r| Series::new(label(&format!("traced under {r:?}"))));
        let mut layers = [Totals::default(); 2];
        // The registry runs above have the CLI's observer; this one has none.
        let mut unobserved = Series::new(label("without observer"));
        // The parallel driver, against the registry runs at 1 worker.
        let mut parallel = Series::new(label("at 2 workers"));
        let start = Instant::now();
        let mut rounds = 0;
        // Rounds run while the next one, as long as their mean, still ends
        // within `SCENARIO_SECS`; there is always one.
        while rounds == 0
            || start.elapsed().as_secs_f64() * (rounds + 1) as f64 / rounds as f64
                <= SCENARIO_SECS
        {
            // The runs the ratios compare with the observed registry run at
            // `source-dpor-lin` are next to it.
            unobserved.run(
                &mut failures,
                || {
                    let r = s.run(&cli_config(1, None, false));
                    (r.secs, r)
                },
                report_key,
            );
            for (i, &reduction) in reductions.iter().enumerate() {
                registry[i].run(
                    &mut failures,
                    || {
                        let r = s.run(&cli_config(1, Some(reduction), true));
                        (r.secs, r)
                    },
                    report_key,
                );
                rebuilt_runs[i].run(
                    &mut failures,
                    || {
                        let t = rebuilt::run(s.name, &cli_config(1, Some(reduction), false))
                            .expect("traced scenarios are rebuilt");
                        layers[i].absorb(&t.layers);
                        (t.secs, t)
                    },
                    traced_key,
                );
            }
            parallel.run(
                &mut failures,
                || {
                    let r = s.run(&cli_config(2, None, true));
                    (r.secs, r)
                },
                |r| r.outcome.tag(),
            );
            clocks.push(ClockCost::measure());
            rounds += 1;
        }
        attempted += 6 * rounds;
        for i in 0..reductions.len() {
            add_scenario(
                &mut sums[i],
                &registry[i],
                &rebuilt_runs[i],
                &layers[i].per_run(rounds),
                &mut failures,
            );
        }
        unobserved_secs += unobserved.mean_secs();
        let p = parallel.last();
        if !p.as_expected() {
            failures.push(format!("{}: {} not as expected", parallel.what, p.outcome.tag()));
        }
        parallel_secs += parallel.mean_secs();
        parallel_schedules += p.explore.schedules;
    }
    let [source, sleep] = &sums;
    let clock = ClockCost::mean(&clocks);

    let self_source = source.self_secs(&clock);
    let per_tick = |sums: &TraceSums, self_secs: f64| ratio(self_secs * 1e9, sums.ticks as f64);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), value, unit));
    };
    let s = source;
    push("explore.self_s", self_source, "s");
    push("explore.self_ns_per_tick", per_tick(s, self_source), "ns");
    push("explore.ticks", s.ticks as f64, "count");
    push("explore.steps", s.steps as f64, "count");
    push("explore.schedules", s.schedules as f64, "count");
    push(
        "explore.schedules_per_s",
        ratio(s.schedules as f64, s.untraced_secs),
        "1/s",
    );
    push("explore.sleep_blocked", s.sleep_blocked as f64, "count");
    push(
        "explore.useful_ratio",
        ratio(s.schedules as f64, (s.schedules + s.sleep_blocked) as f64),
        "ratio",
    );
    push(
        "explore.checkpoint_saves",
        s.checkpoint_saves as f64,
        "count",
    );
    push(
        "explore.checkpoint_restores",
        s.checkpoint_restores as f64,
        "count",
    );
    push("explore.replayed_ticks", s.replayed_ticks as f64, "count");
    push(
        "explore.class_ratio",
        ratio(s.hb_classes as f64, s.schedules as f64),
        "ratio",
    );
    push("hb.races", s.races as f64, "count");
    push("hb.race_seeds", s.race_seeds as f64, "count");
    push(
        "hb.seed_ratio",
        ratio(s.race_seeds as f64, s.races as f64),
        "ratio",
    );
    let sleep_per_tick = per_tick(sleep, sleep.self_secs(&clock));
    push(
        "hb.extra_ns_per_tick",
        per_tick(s, self_source) - sleep_per_tick,
        "ns",
    );
    push("hb.sleep_sets_self_ns_per_tick", sleep_per_tick, "ns");
    push("hb.sleep_sets_ticks", sleep.ticks as f64, "count");
    for (layer, name) in LAYERS {
        if matches!(layer, Layer::Checks) {
            continue;
        }
        push(&format!("{name}_s"), s.layers.secs(layer), "s");
        push(
            &format!("{name}_calls"),
            s.layers.calls(layer) as f64,
            "count",
        );
    }
    // The checker's time in the bridge and in `verdict`, clock reads removed.
    let checker_layers = [Layer::Observe, Layer::Mark, Layer::Rewind, Layer::Verdict];
    let checker_secs: f64 = checker_layers
        .iter()
        .map(|&l| s.layers.secs(l) - s.layers.calls(l) as f64 * clock.inside_ns / 1e9)
        .sum();
    push("checker.states", s.checker_states as f64, "count");
    push("checker.cli_reported_s", s.cli_checker_secs, "s");
    push(
        "checker.true_share",
        ratio(checker_secs, s.untraced_secs),
        "ratio",
    );
    push("checks.s", s.layers.secs(Layer::Checks), "s");
    push(
        "checks.calls",
        s.layers.calls(Layer::Checks) as f64,
        "count",
    );
    push(
        "telemetry.overhead_ratio",
        ratio(source.untraced_secs, unobserved_secs),
        "ratio",
    );
    push(
        "parallel.schedule_inflation",
        ratio(parallel_schedules as f64, s.schedules as f64),
        "ratio",
    );
    push(
        "parallel.speedup",
        ratio(s.untraced_secs, parallel_secs),
        "ratio",
    );
    push(
        "trace.overhead_ratio",
        ratio(s.traced_secs, s.untraced_secs),
        "ratio",
    );
    push("trace.clock_ns", clock.total_ns(), "ns");
    push("trace.residual_ratio", source.residual_ratio(&clock), "ratio");

    // Metrics that are zero on every workload (no traced scenario replays a
    // prefix or restarts a process) are printed but kept out of the gated
    // set: a metric that reads the same on every run says nothing.
    let json = |zero: bool| -> String {
        metrics
            .iter()
            .filter(|(name, ..)| ALWAYS_ZERO.contains(&name.as_str()) == zero)
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let failures: Vec<String> = failures.iter().map(|f| format!("{f:?}")).collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"attempted\": {attempted}, \"available_parallelism\": {parallelism}, \
         \"failures\": [{}], \"metrics\": {{{}}}, \"always_zero\": {{{}}}}}",
        failures.join(", "),
        json(false),
        json(true)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: scl-perfbench passes --workload W --seed N --seconds T --parallel 0|1\n       scl-perfbench trace --workload W --seed N";
    let mode = args
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| fail(usage));
    let (mut workload, mut seed, mut seconds, mut parallel) = (None, None, None, None);
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| fail(usage));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| fail(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| fail(usage))),
            "--seconds" => seconds = Some(value.parse::<f64>().unwrap_or_else(|_| fail(usage))),
            "--parallel" => {
                parallel = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail(usage),
                })
            }
            _ => fail(usage),
        }
        i += 2;
    }
    let (Some(w), Some(seed)) = (workload, seed) else {
        fail(usage)
    };
    match (mode, seconds, parallel) {
        ("passes", Some(t), Some(p)) => passes_main(w, seed, t, p),
        ("trace", None, None) => trace_main(w, seed),
        _ => fail(usage),
    }
}
