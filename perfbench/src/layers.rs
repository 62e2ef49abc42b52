//! Outside-in layer timers: wrappers around the public traits the explorer
//! calls into, each timing every call it forwards.
//!
//! Nothing inside `scl` is instrumented. [`TimedObject`] wraps a
//! [`SimObject`] (and every [`OpExecution`] it hands out), [`TimedMonitor`]
//! wraps a [`ScheduleMonitor`], and [`timed`] brackets any other call (the
//! check closure, `LinMonitor::verdict`). The explorer's own time is what is
//! left of the untraced wall time once these, their timers' cost removed,
//! are subtracted.

use scl_sim::{
    ExecSession, Footprint, ObjectSnapshot, OpExecution, ScheduleMonitor, SharedMemory, SimObject,
    StepOutcome,
};
use scl_spec::{ProcessId, Request, SequentialSpec};
use std::cell::RefCell;
use std::time::Instant;

/// A timed layer boundary.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `OpExecution::step`.
    Step,
    /// `OpExecution::fork`.
    Fork,
    /// `OpExecution::{next_footprint, may_respond_next, blocked}`.
    Query,
    /// `SimObject::snapshot`.
    Snapshot,
    /// `SimObject::restore`.
    Restore,
    /// `SimObject::invoke`.
    Invoke,
    /// `SimObject::recover`.
    Recover,
    /// `ScheduleMonitor::observe`.
    Observe,
    /// `ScheduleMonitor::mark`.
    Mark,
    /// `ScheduleMonitor::rewind_to`, and `begin` (a rewind to the start).
    Rewind,
    /// `LinMonitor::verdict`, called from inside the check closure.
    Verdict,
    /// The whole check closure (including its verdict call).
    Checks,
}

/// Every layer with its metric name, in report order.
pub const LAYERS: [(Layer, &str); 12] = [
    (Layer::Step, "object.step"),
    (Layer::Fork, "object.fork"),
    (Layer::Query, "object.query"),
    (Layer::Snapshot, "object.snapshot"),
    (Layer::Restore, "object.restore"),
    (Layer::Invoke, "object.invoke"),
    (Layer::Recover, "object.recover"),
    (Layer::Observe, "bridge.observe"),
    (Layer::Mark, "bridge.mark"),
    (Layer::Rewind, "bridge.rewind"),
    (Layer::Verdict, "checker.verdict"),
    (Layer::Checks, "checks"),
];

/// Calls and nanoseconds per layer, indexed by `Layer as usize`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Calls per layer.
    pub calls: [u64; LAYERS.len()],
    /// Nanoseconds inside the calls per layer.
    pub nanos: [u64; LAYERS.len()],
}

impl Totals {
    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Totals) {
        for i in 0..LAYERS.len() {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    /// The mean of `runs` runs whose totals were absorbed into `self`.
    pub fn per_run(&self, runs: u64) -> Totals {
        Totals {
            calls: self.calls.map(|c| c / runs),
            nanos: self.nanos.map(|n| n / runs),
        }
    }

    /// Seconds recorded for `layer`, one clock read per call included. The
    /// check closure's exclude the verdict call nested in it.
    pub fn secs(&self, layer: Layer) -> f64 {
        let mut ns = self.nanos[layer as usize];
        if matches!(layer, Layer::Checks) {
            ns -= self.nanos[Layer::Verdict as usize];
        }
        ns as f64 / 1e9
    }

    /// Seconds in all timed layers with every timer's cost removed: the
    /// clock read inside each interval, and the whole timer of each verdict
    /// call, which runs inside the check closure's interval.
    pub fn layer_secs(&self, clock: &ClockCost) -> f64 {
        let recorded: f64 = LAYERS.iter().map(|&(l, _)| self.secs(l)).sum();
        let calls = self.calls.iter().sum::<u64>() as f64;
        recorded
            - (calls * clock.inside_ns + self.calls(Layer::Verdict) as f64 * clock.outside_ns)
                / 1e9
    }

    /// Seconds the timers themselves added to the wall time.
    pub fn clock_secs(&self, clock: &ClockCost) -> f64 {
        self.calls.iter().sum::<u64>() as f64 * clock.total_ns() / 1e9
    }
}

thread_local! {
    static TOTALS: RefCell<Totals> = RefCell::new(Totals::default());
}

/// Runs `f`, charging its wall time and one call to `layer`.
#[inline]
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    TOTALS.with(|t| {
        let mut totals = t.borrow_mut();
        totals.calls[layer as usize] += 1;
        totals.nanos[layer as usize] += nanos;
    });
    r
}

/// Returns this thread's totals and resets them.
pub fn take() -> Totals {
    TOTALS.with(|t| t.take())
}

/// The cost of one [`timed`] call's own clock reads, measured on empty
/// calls.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Nanoseconds per call inside the interval the call records: charged
    /// to its layer although the layer did not spend them.
    pub inside_ns: f64,
    /// Nanoseconds per call outside that interval (the return of the first
    /// clock read, the bookkeeping, the call of the second): charged to no
    /// layer.
    pub outside_ns: f64,
}

impl ClockCost {
    /// Measures the cost on a batch of empty calls.
    pub fn measure() -> ClockCost {
        const N: u32 = 100_000;
        take();
        let t0 = Instant::now();
        for i in 0..N {
            std::hint::black_box(timed(Layer::Step, || std::hint::black_box(i)));
        }
        let wall = t0.elapsed().as_nanos() as f64 / f64::from(N);
        let inside = take().nanos[Layer::Step as usize] as f64 / f64::from(N);
        ClockCost {
            inside_ns: inside,
            outside_ns: (wall - inside).max(0.0),
        }
    }

    /// The mean of several measurements.
    pub fn mean(samples: &[ClockCost]) -> ClockCost {
        let n = samples.len() as f64;
        ClockCost {
            inside_ns: samples.iter().map(|c| c.inside_ns).sum::<f64>() / n,
            outside_ns: samples.iter().map(|c| c.outside_ns).sum::<f64>() / n,
        }
    }

    /// Both halves: what one timed call adds to the wall time.
    pub fn total_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// A [`SimObject`] whose every call, and every call into the operation
/// executions it hands out, is timed.
pub struct TimedObject<O>(pub O);

impl<S, V, O> SimObject<S, V> for TimedObject<O>
where
    S: SequentialSpec + 'static,
    V: 'static,
    O: SimObject<S, V>,
{
    fn invoke(
        &mut self,
        mem: &mut SharedMemory,
        req: Request<S>,
        switch: Option<V>,
    ) -> Box<dyn OpExecution<S, V>> {
        // The wrapper's own box is charged to the call, not to the explorer.
        timed(Layer::Invoke, || {
            Box::new(TimedExec(self.0.invoke(mem, req, switch))) as Box<dyn OpExecution<S, V>>
        })
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn recover(
        &mut self,
        mem: &mut SharedMemory,
        proc: ProcessId,
        interrupted: Option<&Request<S>>,
    ) -> Option<Box<dyn OpExecution<S, V>>> {
        timed(Layer::Recover, || {
            self.0
                .recover(mem, proc, interrupted)
                .map(|exec| Box::new(TimedExec(exec)) as Box<dyn OpExecution<S, V>>)
        })
    }

    fn snapshot(&self) -> Option<ObjectSnapshot> {
        timed(Layer::Snapshot, || self.0.snapshot())
    }

    fn restore(&mut self, snap: &ObjectSnapshot) {
        timed(Layer::Restore, || self.0.restore(snap))
    }
}

/// An [`OpExecution`] whose every call is timed.
struct TimedExec<S, V>(Box<dyn OpExecution<S, V>>);

impl<S, V> OpExecution<S, V> for TimedExec<S, V>
where
    S: SequentialSpec + 'static,
    V: 'static,
{
    fn step(&mut self, mem: &mut SharedMemory) -> StepOutcome<S, V> {
        timed(Layer::Step, || self.0.step(mem))
    }

    fn fork(&self) -> Option<Box<dyn OpExecution<S, V>>> {
        timed(Layer::Fork, || {
            self.0
                .fork()
                .map(|exec| Box::new(TimedExec(exec)) as Box<dyn OpExecution<S, V>>)
        })
    }

    fn next_footprint(&self) -> Footprint {
        timed(Layer::Query, || self.0.next_footprint())
    }

    fn may_respond_next(&self) -> bool {
        timed(Layer::Query, || self.0.may_respond_next())
    }

    fn blocked(&self, mem: &SharedMemory) -> bool {
        timed(Layer::Query, || self.0.blocked(mem))
    }
}

/// A [`ScheduleMonitor`] whose every call is timed.
pub struct TimedMonitor<M>(pub M);

impl<S, V, M> ScheduleMonitor<S, V> for TimedMonitor<M>
where
    S: SequentialSpec,
    M: ScheduleMonitor<S, V>,
{
    fn begin(&mut self) {
        timed(Layer::Rewind, || self.0.begin())
    }

    fn observe(&mut self, session: &ExecSession<S, V>) {
        timed(Layer::Observe, || self.0.observe(session))
    }

    fn mark(&mut self) -> u64 {
        timed(Layer::Mark, || self.0.mark())
    }

    fn rewind_to(&mut self, mark: u64) {
        timed(Layer::Rewind, || self.0.rewind_to(mark))
    }
}
