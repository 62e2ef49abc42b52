//! The explorer ↔ specification bridge: a [`ScheduleMonitor`] that feeds
//! invoke/commit events to a linearizability checker *incrementally* while
//! the schedule explorer runs, and answers per-schedule verdicts.
//!
//! Before this bridge existed, every test that wanted a linearizability
//! verdict per schedule called `res.trace.commit_projection()` in its check
//! — allocating a fresh history and re-running the Wing–Gong search from
//! scratch for every explored schedule, and requiring full trace recording.
//! The bridge instead:
//!
//! * works under [`TraceMode::MetricsOnly`](scl_sim::TraceMode) — events are
//!   taken from the executor's [`TickEmission`] stream, not from the trace;
//! * in [`CheckerMode::Incremental`], feeds the events to an
//!   [`IncrementalLinChecker`] whose frontier is memoised at branch points,
//!   so backtracking re-checks only the suffix of each schedule instead of
//!   re-running the checker from tick 0;
//! * in [`CheckerMode::FromScratch`] (the reference the incremental checker
//!   is tested against), records the events into **one**
//!   [`ConcurrentHistory`] per worker for the whole exploration, rewound by
//!   high-water-mark truncation whenever the explorer restores a checkpoint,
//!   and re-runs the Wing–Gong search on it per schedule.
//!
//! Each mode keeps exactly one record of the execution: the incremental
//! checker's frontier or the history, never both.

use scl_sim::{ExecSession, OpOutcome, ScheduleMonitor, TickEmission};
use scl_spec::{
    check_linearizable_with_stats, check_strict_linearizable_with_stats, ConcurrentHistory,
    HistoryMark, IncVerdict, IncrementalLinChecker, LinCheckResult, RequestId, SequentialSpec,
};
use std::fmt::Debug;
use std::hash::Hash;

/// How [`LinMonitor`] computes its per-schedule verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckerMode {
    /// The incremental Wing–Gong checker: frontier states are checkpointed
    /// at branch points and only the suffix is re-checked on backtrack.
    #[default]
    Incremental,
    /// Re-run the from-scratch Wing–Gong search on the (incrementally
    /// maintained, allocation-reusing) history at every leaf. The reference
    /// the incremental mode is tested and measured against.
    FromScratch,
}

impl CheckerMode {
    /// The CLI/report name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            CheckerMode::Incremental => "incremental",
            CheckerMode::FromScratch => "from_scratch",
        }
    }
}

/// How crashed-pending operations enter the completion closure — the axis
/// that separates plain linearizability from *strict* linearizability on the
/// same crashy histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashedPending {
    /// The classic (open) closure: a pending operation of a crashed process
    /// may take effect at any later point, or be dropped — crashes are
    /// invisible to the checker.
    #[default]
    Open,
    /// Strict linearizability: a crashed-pending operation may only take
    /// effect *before* its crash point (or be dropped) — it must precede
    /// every operation invoked after the crash.
    Strict,
    /// Durable linearizability: completed operations persist across
    /// crash/restart, and an operation interrupted by a crash may be lost —
    /// but once its owner's recovery completes without resolving it, it may
    /// no longer take effect (the deadline is the *recovery completion*, not
    /// the crash point). An operation the recovery resolves simply commits,
    /// late. Crashes without a restart leave the operation open-pending.
    Durable,
    /// Recoverable linearizability: like durable, except an interrupted
    /// operation must take *effect* before its owner's recovery completes —
    /// recovery may abandon the response, but not the operation. A recovery
    /// completing with the operation neither resolved nor linearizable
    /// before its completion point is a violation.
    Recoverable,
}

impl CrashedPending {
    /// The CLI/report name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            CrashedPending::Open => "open",
            CrashedPending::Strict => "strict",
            CrashedPending::Durable => "durable",
            CrashedPending::Recoverable => "recoverable",
        }
    }
}

/// A [`LinMonitor`] mark's position in the record its checker mode keeps.
#[derive(Debug, Clone, Copy)]
enum Position {
    /// An [`IncrementalLinChecker::mark`] token.
    Checker(u64),
    /// A [`ConcurrentHistory::mark`].
    History(HistoryMark),
}

/// See the [module documentation](self).
pub struct LinMonitor<S: SequentialSpec> {
    spec: S,
    mode: CheckerMode,
    crashed_pending: CrashedPending,
    /// The recorded history ([`CheckerMode::FromScratch`] only; stays empty
    /// in incremental mode).
    hist: ConcurrentHistory<S>,
    /// The incremental checker ([`CheckerMode::Incremental`] only).
    inc: IncrementalLinChecker<S>,
    /// Stack of (token, position in the mode's record).
    marks: Vec<(u64, Position)>,
    next_token: u64,
    /// Checker states expanded by [`CheckerMode::FromScratch`] verdicts.
    scratch_states: u64,
}

impl<S: SequentialSpec> LinMonitor<S> {
    /// A fresh monitor checking against `spec`, with the open crashed-pending
    /// closure (crashes invisible — plain linearizability).
    pub fn new(spec: S, mode: CheckerMode) -> Self {
        LinMonitor {
            inc: IncrementalLinChecker::new(spec.clone()),
            spec,
            mode,
            crashed_pending: CrashedPending::Open,
            hist: ConcurrentHistory::new(),
            marks: Vec::new(),
            next_token: 0,
            scratch_states: 0,
        }
    }

    /// Selects how crashed-pending operations are closed (builder style).
    pub fn with_crashed_pending(mut self, crashed_pending: CrashedPending) -> Self {
        self.crashed_pending = crashed_pending;
        self
    }

    /// The checker mode.
    pub fn mode(&self) -> CheckerMode {
        self.mode
    }

    /// The crashed-pending closure mode.
    pub fn crashed_pending(&self) -> CrashedPending {
        self.crashed_pending
    }

    /// Total checker states expanded so far (across the whole exploration):
    /// frontier expansions in incremental mode, search nodes of the repeated
    /// from-scratch runs otherwise.
    pub fn checker_states(&self) -> u64 {
        match self.mode {
            CheckerMode::Incremental => self.inc.stats().states,
            CheckerMode::FromScratch => self.scratch_states,
        }
    }

    /// The linearizability verdict for the execution observed since the last
    /// explorer restart/rewind, as a check-style result.
    pub fn verdict(&mut self) -> Result<(), String> {
        match self.mode {
            CheckerMode::Incremental => match self.inc.verdict() {
                IncVerdict::Linearizable => Ok(()),
                IncVerdict::NotLinearizable(id) => Err(format!(
                    "commit projection is not linearizable (no order admits the response of {id})"
                )),
                IncVerdict::TooLarge => {
                    Err("history exceeds the 128-operation checker bound".to_string())
                }
            },
            CheckerMode::FromScratch => {
                let (result, stats) = match self.crashed_pending {
                    CrashedPending::Open => check_linearizable_with_stats(&self.spec, &self.hist),
                    // The durable and recoverable closures share the strict
                    // search — the difference is entirely in *what* `observe`
                    // recorded: where the deadline sits (crash point vs
                    // recovery completion) and whether the op is required.
                    CrashedPending::Strict
                    | CrashedPending::Durable
                    | CrashedPending::Recoverable => {
                        check_strict_linearizable_with_stats(&self.spec, &self.hist)
                    }
                };
                self.scratch_states += stats.states;
                match result {
                    LinCheckResult::Linearizable(_) => Ok(()),
                    LinCheckResult::NotLinearizable => match self.crashed_pending {
                        CrashedPending::Open => {
                            Err("commit projection is not linearizable".to_string())
                        }
                        CrashedPending::Strict => Err(
                            "commit projection is not strictly linearizable (crashed-pending: \
                             strict)"
                                .to_string(),
                        ),
                        CrashedPending::Durable => Err(
                            "commit projection is not durably linearizable (crashed-pending: \
                             durable)"
                                .to_string(),
                        ),
                        CrashedPending::Recoverable => Err(
                            "commit projection is not recoverably linearizable (crashed-pending: \
                             recoverable)"
                                .to_string(),
                        ),
                    },
                    LinCheckResult::TooLarge => {
                        Err("history exceeds the 128-operation checker bound".to_string())
                    }
                }
            }
        }
    }

    /// Records the response `resp` of operation `id` in the mode's record.
    fn commit(&mut self, incremental: bool, id: RequestId, resp: &S::Resp) {
        if incremental {
            self.inc.commit(id, resp);
        } else {
            let at = self.hist.event_count();
            self.hist.record_response(at, id, resp.clone());
        }
    }

    /// Records a crash deadline for operation `id` in the mode's record.
    fn crash(&mut self, incremental: bool, id: RequestId) {
        if incremental {
            self.inc.crash(id);
        } else {
            let at = self.hist.event_count();
            self.hist.record_crash(at, id);
        }
    }
}

impl<S, V> ScheduleMonitor<S, V> for LinMonitor<S>
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    fn begin(&mut self) {
        match self.mode {
            CheckerMode::Incremental => self.inc.begin(),
            CheckerMode::FromScratch => self.hist.clear(),
        }
        self.marks.clear();
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        let incremental = self.mode == CheckerMode::Incremental;
        // `event_count` is a dense clock over recorded events, so relative
        // order (all the from-scratch checker consumes) matches the trace's.
        match session.last_emission() {
            TickEmission::Invoked { op_index } => {
                let req = &session.result().ops[op_index].req;
                if incremental {
                    self.inc.invoke(req);
                } else {
                    let at = self.hist.event_count();
                    self.hist.record_invoke(at, req.clone());
                }
            }
            TickEmission::Committed { op_index } => {
                let record = &session.result().ops[op_index];
                let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                    unreachable!("Committed emission always carries a commit outcome");
                };
                self.commit(incremental, record.req.id, resp);
            }
            TickEmission::Crashed { op_index } => {
                // Under the open closure a crashed-pending op is just a
                // pending op (may take effect any time, or be dropped), so
                // the crash records nothing. Under the strict closure the
                // crash point caps where the op may take effect. The durable
                // and recoverable closures record nothing *here* — their
                // deadline is the recovery completion, consumed below.
                if self.crashed_pending == CrashedPending::Strict {
                    if let Some(op_index) = op_index {
                        self.crash(incremental, session.result().ops[op_index].req.id);
                    }
                }
            }
            TickEmission::Recovered { op_index, resolved } => {
                let Some(op_index) = op_index else {
                    // No operation was interrupted: the recovery carries no
                    // history event under any closure.
                    return;
                };
                let record = &session.result().ops[op_index];
                let id = record.req.id;
                if resolved {
                    // The recovery resolved the interrupted operation: a
                    // late commit, recorded under every closure (strict
                    // included — a committed op's crash gate dissolves, in
                    // both checkers).
                    let Some(OpOutcome::Commit(resp)) = &record.outcome else {
                        unreachable!("a resolving recovery always commits the op");
                    };
                    self.commit(incremental, id, resp);
                    return;
                }
                // The recovery completed without resolving the operation.
                match self.crashed_pending {
                    // Open: still just a pending op. Strict: the crash point
                    // (recorded at the Crashed emission) already caps it.
                    CrashedPending::Open | CrashedPending::Strict => {}
                    // Durable: the op may be lost, but not take effect after
                    // its owner recovered — a strict-style deadline at the
                    // recovery completion.
                    CrashedPending::Durable => self.crash(incremental, id),
                    // Recoverable: the op must have taken effect by now.
                    CrashedPending::Recoverable => {
                        if incremental {
                            self.inc.recovered_required(id);
                        } else {
                            let at = self.hist.event_count();
                            self.hist.record_crash_required(at, id);
                        }
                    }
                }
            }
            // Aborts are not part of the commit projection (the operation
            // simply stays pending), silent steps record nothing, restarts
            // move no operation event (the history consequences arrive with
            // the recovery's completion), and network deliveries/drops move
            // no operation event — their history effect surfaces later
            // through the owner's own commit/abort step.
            TickEmission::Aborted { .. }
            | TickEmission::None
            | TickEmission::Restarted { .. }
            | TickEmission::Delivered { .. }
            | TickEmission::Dropped { .. } => {}
        }
    }

    fn mark(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let position = match self.mode {
            CheckerMode::Incremental => Position::Checker(self.inc.mark()),
            CheckerMode::FromScratch => Position::History(self.hist.mark()),
        };
        self.marks.push((token, position));
        token
    }

    fn rewind_to(&mut self, mark: u64) {
        while let Some(&(token, _)) = self.marks.last() {
            if token > mark {
                self.marks.pop();
            } else {
                break;
            }
        }
        let &(token, position) = self.marks.last().expect("mark exists");
        assert_eq!(token, mark, "rewound to an unknown monitor mark");
        match position {
            Position::Checker(t) => self.inc.rewind_to(t),
            Position::History(m) => self.hist.truncate_to(m),
        }
    }
}
