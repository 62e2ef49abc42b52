//! The happens-before layer of the source-DPOR reduction: vector clocks
//! over the executed transition stream, reversible-race detection, and the
//! weak-initials computation that seeds wakeup/backtrack sets.
//!
//! The eager sleep-set reduction in [`crate::explore`] prunes *already-covered*
//! sibling subtrees but still branch eagerly at every decision point. Source
//! DPOR (Abdulla, Aronis, Jonsson, Sagonas, *Optimal dynamic partial order
//! reduction*, POPL 2014 — the "source sets" half, without wakeup trees)
//! instead looks at the trace that was actually executed, detects the
//! *reversible races* in it, and seeds a backtrack point only where a race
//! reversal is realisable. This module supplies the trace-side machinery:
//!
//! * every executed transition is recorded as a [`StepLabel`] (process,
//!   exact footprint, exact invoke/response emissions — see
//!   [`crate::executor::ExecSession::last_step_footprint`]) and stamped with
//!   a **vector clock** over the dependence relation (program order plus
//!   [`StepLabel::dependent`], which folds in the invoke/commit barriers
//!   that keep linearizability verdicts);
//! * a pair `(i, j)` is a **reversible race** when the two transitions
//!   belong to different processes, are dependent, and `i` happens-before
//!   `j` *only* through their direct dependence — no intermediate event
//!   `k` with `i → k → j`. In this simulator every enabled process stays
//!   enabled until it moves (scheduling is the only source of blocking), so
//!   every such race is reversible;
//! * for a race `(i, j)` the candidate backtrack processes at the prefix
//!   before `i` are the **weak initials** of `v = notdep(i)·j` — the
//!   subsequence of events after `i` that do *not* happen-after `i`,
//!   followed by `j` itself: a process is an initial iff its first event in
//!   `v` has no happens-before predecessor inside `v`.
//!
//! The tracker mirrors the explorer's current schedule prefix: events are
//! [pushed](HbTracker::push) as transitions execute and
//! [truncated](HbTracker::truncate) when the explorer backtracks, so the
//! wakeup state travels with prefix-resume checkpoints exactly like sleep
//! sets do. Storage is flat (one `Vec` of labels, one stride-`n` `Vec` of
//! clock entries) and reused across the whole exploration.
//!
//! # Cost per tick
//!
//! [`HbTracker::push`] computes the new event's clock *and* its reversible
//! races in one backward pass over the prefix, from event `j − 1` down to
//! `0`, keeping the running join `J` of the clocks merged so far (it is the
//! new event's clock row under construction). An event `i` with
//! `J[proc(i)] ≥ clock(i)[proc(i)]` is **covered** and skipped; any other
//! event is tested for dependence with `j`, and a dependent one is joined
//! into `J` and is a race iff its process differs from `j`'s. A push costs
//! `O(j)` label/clock probes plus `O(n)` per joined event; no pair is
//! rescanned for a transitive witness, which makes the direct reading of
//! the race definition `O(j²)` per tick.
//! [`HbTracker::race_initials`] costs `O((j − i) + n²)` per race.
//!
//! Skipping covered events is exact. `J[proc(i)] ≥ clock(i)[proc(i)]`
//! means some already-joined event `k` (with `i < k < j` and `k` dependent
//! with `j`) has `i → k`. Then `clock(i) ≤ clock(k) ≤ J` entry-wise, so
//! joining `clock(i)` would change nothing, and `i → k → j` makes `(i, j)`
//! transitive, not a reversible race. Conversely, when `i` is reached
//! uncovered, no event `k` in `(i, j)` has `i → k → j`: `k → j` means `k`
//! happens-before some event `m ≥ k` that is directly dependent with `j`,
//! and `m` was either joined or covered by a joined event, so `i → k → m`
//! would already have covered `i`. The pass visits events in descending
//! order; the races are reported ascending, the order the explorer seeds
//! backtrack points in.

use crate::executor::{ExecSession, TickEmission};
use crate::memory::{Footprint, StepLabel};
use crate::step::StepKind;
use scl_spec::{ProcessId, SequentialSpec};
use std::fmt::Debug;
use std::hash::Hash;

/// The bit of process `p` in an initials/backtrack mask (processes are
/// bounded to 64 by the reduced explorer modes).
#[inline]
fn bit(p: ProcessId) -> u64 {
    debug_assert!(p.index() < 64);
    1u64 << p.index()
}

/// The exact label of the transition `session` just executed, scheduled as
/// the raw pseudo-process id `chosen` over `n` processes and a network of
/// `cap` slots. The exploration engine and [`crate::replay`] both record
/// this label, so replayed race pairs match the explored ones.
pub(crate) fn step_label<S, V>(
    session: &ExecSession<S, V>,
    chosen: ProcessId,
    n: usize,
    cap: usize,
) -> StepLabel
where
    S: SequentialSpec,
    V: Clone + Eq + Hash + Debug,
{
    let (invoked, responded) = match session.last_emission() {
        TickEmission::Invoked { .. } => (true, false),
        TickEmission::Committed { .. } | TickEmission::Aborted { .. } => (false, true),
        // A crash emits no trace event, but the strict crashed-pending
        // verdict is sensitive to its order against other processes'
        // invocations, so the reductions must treat it like a response
        // barrier.
        TickEmission::Crashed { .. } => (false, true),
        // A restart is a conservative barrier like a crash, and a
        // recovery completion is a genuine response event under the
        // durable/recoverable closures (it may resolve — or forever
        // abandon — the interrupted operation).
        TickEmission::Restarted { .. } | TickEmission::Recovered { .. } => (false, true),
        // Network transitions move no operation event; their ordering
        // effect is carried entirely by their footprint (inbox/replica
        // writes, or Unknown for reply-enqueuing deliveries).
        TickEmission::Delivered { .. } | TickEmission::Dropped { .. } => (false, false),
        TickEmission::None => (false, false),
    };
    // Crash transitions are scheduled as the pseudo-process `n + p`; their
    // label belongs to the *real* process `p`, which makes a crash
    // dependent with every step of the same process for free. Network
    // transitions (`2n + …`) are labelled with the *owner* of the
    // delivered/dropped message — the client whose operation the message
    // belongs to.
    let proc = match session.last_emission() {
        TickEmission::Delivered { owner, .. } | TickEmission::Dropped { owner, .. } => owner,
        _ => match StepKind::decode(chosen, n, cap) {
            StepKind::Step(p) | StepKind::Crash(p) | StepKind::Restart(p) => p,
            // Unreachable: a network transition always emits
            // Delivered/Dropped, matched above.
            StepKind::Deliver(_) | StepKind::Drop(_) => chosen,
        },
    };
    StepLabel {
        proc,
        footprint: session.last_step_footprint(),
        invoked,
        responded,
    }
}

/// Happens-before tracking over one executed schedule prefix. See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct HbTracker {
    procs: usize,
    labels: Vec<StepLabel>,
    /// Flat per-event vector clocks, stride `procs`:
    /// `clocks[e * procs + p]` is the number of events of process `p` that
    /// happen-before (or are) event `e`. An event's own entry is its
    /// 1-based per-process index.
    clocks: Vec<u32>,
}

impl HbTracker {
    /// A fresh tracker for `procs` processes.
    pub fn new(procs: usize) -> Self {
        assert!(
            procs <= 64,
            "the race-driven reduction supports at most 64 processes"
        );
        HbTracker {
            procs,
            labels: Vec::new(),
            clocks: Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no event is recorded.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Drops every recorded event, keeping allocations.
    pub fn clear(&mut self) {
        self.labels.clear();
        self.clocks.clear();
    }

    /// Truncates to the first `len` events (the explorer backtracked).
    pub fn truncate(&mut self, len: usize) {
        if len < self.labels.len() {
            self.labels.truncate(len);
            self.clocks.truncate(len * self.procs);
        }
    }

    /// The label of event `i`.
    pub fn label(&self, i: usize) -> StepLabel {
        self.labels[i]
    }

    /// Event `i`'s clock entry for process `p`.
    pub fn clock(&self, i: usize, p: ProcessId) -> u32 {
        self.clocks[i * self.procs + p.index()]
    }

    /// Records one executed transition `j` and appends to `races`, in
    /// ascending order, every `i` such that `(i, j)` is a reversible race:
    /// different processes, dependent, and no intermediate event `k` with
    /// `i → k → j`. The event's vector clock is the join of every dependent
    /// predecessor's clock (program order included) plus its own
    /// per-process tick. One backward pass computes both; see the
    /// [module documentation](self) for why skipping covered events is
    /// exact.
    pub fn push(&mut self, label: StepLabel, races: &mut Vec<usize>) {
        debug_assert!(label.proc.index() < self.procs);
        let n = self.procs;
        let j = self.labels.len();
        let base = j * n;
        self.clocks.resize(base + n, 0);
        let (prefix, join) = self.clocks.split_at_mut(base);
        let first_race = races.len();
        for (i, (li, row)) in self
            .labels
            .iter()
            .zip(prefix.chunks_exact(n))
            .enumerate()
            .rev()
        {
            let pi = li.proc.index();
            if join[pi] >= row[pi] || !li.dependent(label) {
                continue;
            }
            for (dst, &src) in join.iter_mut().zip(row) {
                *dst = (*dst).max(src);
            }
            if li.proc != label.proc {
                races.push(i);
            }
        }
        races[first_race..].reverse();
        join[label.proc.index()] += 1;
        self.labels.push(label);
    }

    /// Whether event `i` happens-before event `j` (reflexive; `i <= j`).
    pub fn happens_before(&self, i: usize, j: usize) -> bool {
        debug_assert!(i <= j);
        let p = self.labels[i].proc;
        self.clock(j, p) >= self.clock(i, p)
    }

    /// A fingerprint of the happens-before *class* of the recorded
    /// schedule: two schedules that are equivalent up to commuting
    /// independent transitions (the same Mazurkiewicz trace) produce the
    /// same value.
    ///
    /// The hash folds, per process in index order and per event of that
    /// process in program order, the event's label content (footprint and
    /// invoke/response flags) and its full vector clock row. Program order
    /// and clock rows are invariant under commuting independent steps, and
    /// together they determine the trace's dependence graph, so equivalent
    /// linearizations hash identically while schedules with a different
    /// dependence structure (almost surely) do not.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, folded manually — no external hashers here.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        let fp_words = |fp: Footprint| -> (u64, u64) {
            match fp {
                Footprint::Pure => (1, 0),
                Footprint::Read(r) => (2, r.0 as u64),
                Footprint::Write(r) => (3, r.0 as u64),
                Footprint::Net(w) => {
                    let mut acc = 0u64;
                    for r in w.regs() {
                        acc = acc
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(r.0 as u64 + 1);
                    }
                    (4, acc)
                }
                Footprint::Unknown => (5, 0),
            }
        };
        for p in 0..self.procs {
            fold(0xffff_ffff_ffff_0000 | p as u64);
            for (e, label) in self.labels.iter().enumerate() {
                if label.proc.index() != p {
                    continue;
                }
                let (tag, detail) = fp_words(label.footprint);
                fold(tag | (u64::from(label.invoked) << 8) | (u64::from(label.responded) << 9));
                fold(detail);
                for q in 0..self.procs {
                    fold(u64::from(self.clocks[e * self.procs + q]));
                }
            }
        }
        h
    }

    /// The weak initials of `v = notdep(i)·last` for a race `(i, last)`
    /// reported by [`Self::push`], as a process bit mask: the events after
    /// `i` that do not happen-after `i`, followed by the last event; a
    /// process is an initial iff its first event in `v` has no
    /// happens-before predecessor inside `v`. Exploring any one initial
    /// from the prefix before `i` realises the race reversal.
    ///
    /// Only each process's *first event after `i`* can be such a
    /// predecessor: if `l` in `v` happens-before `m`, the first event `f`
    /// of `l`'s process after `i` satisfies `f → l → m`, and `f` is in `v`
    /// too (were `i → f`, program order would give `i → l`). So one forward
    /// scan that keeps those first events suffices.
    pub fn race_initials(&self, i: usize) -> u64 {
        let n = self.procs;
        let j = self.labels.len() - 1;
        let pi = self.labels[i].proc.index();
        let ci = self.clocks[i * n + pi];
        // Processes whose first event after `i` has been scanned.
        let mut seen = 0u64;
        // The scanned first events that lie in `v`, as (process, own clock
        // entry) pairs: the only candidate predecessors.
        let mut firsts = [(0usize, 0u32); 64];
        let mut n_firsts = 0;
        // Processes whose first event in `v` has been classified.
        let mut decided = 0u64;
        let mut initials = 0u64;
        for ((m, lm), row) in (i + 1..=j)
            .zip(&self.labels[i + 1..=j])
            .zip(self.clocks[(i + 1) * n..].chunks_exact(n))
        {
            let pm = lm.proc.index();
            let b = bit(lm.proc);
            let in_v = m == j || row[pi] < ci;
            if in_v && decided & b == 0 {
                decided |= b;
                let has_pred = firsts[..n_firsts].iter().any(|&(q, c)| row[q] >= c);
                if !has_pred {
                    initials |= b;
                }
            }
            if seen & b == 0 {
                seen |= b;
                if in_v {
                    firsts[n_firsts] = (pm, row[pm]);
                    n_firsts += 1;
                }
            }
        }
        initials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Footprint, NetWrites, RegId};
    use crate::rng::SplitMix64;

    fn p(i: usize) -> ProcessId {
        ProcessId(i)
    }

    fn step(proc: usize, fp: Footprint) -> StepLabel {
        StepLabel {
            proc: p(proc),
            footprint: fp,
            invoked: false,
            responded: false,
        }
    }

    /// Pushes `label`, returning the races it closes.
    fn push(hb: &mut HbTracker, label: StepLabel) -> Vec<usize> {
        let mut races = Vec::new();
        hb.push(label, &mut races);
        races
    }

    /// The definitions transcribed directly, in quadratic time: the
    /// reference the property test compares the tracker against. Clocks
    /// join every dependent predecessor, races rescan the prefix for a
    /// transitive witness, and initials rescan `v` for a predecessor.
    struct Reference {
        procs: usize,
        labels: Vec<StepLabel>,
        clocks: Vec<u32>,
    }

    impl Reference {
        fn new(procs: usize) -> Self {
            Reference {
                procs,
                labels: Vec::new(),
                clocks: Vec::new(),
            }
        }

        fn truncate(&mut self, len: usize) {
            self.labels.truncate(len);
            self.clocks.truncate(len * self.procs);
        }

        fn clock(&self, i: usize, p: ProcessId) -> u32 {
            self.clocks[i * self.procs + p.index()]
        }

        fn push(&mut self, label: StepLabel) {
            let j = self.labels.len();
            let base = j * self.procs;
            self.clocks.resize(base + self.procs, 0);
            for i in 0..j {
                if self.labels[i].dependent(label) {
                    let (head, tail) = self.clocks.split_at_mut(base);
                    let src = &head[i * self.procs..(i + 1) * self.procs];
                    for (dst, &s) in tail.iter_mut().zip(src) {
                        *dst = (*dst).max(s);
                    }
                }
            }
            self.clocks[base + label.proc.index()] += 1;
            self.labels.push(label);
        }

        fn happens_before(&self, i: usize, j: usize) -> bool {
            let p = self.labels[i].proc;
            self.clock(j, p) >= self.clock(i, p)
        }

        fn races_of_last(&self) -> Vec<usize> {
            let j = self.labels.len() - 1;
            let lj = self.labels[j];
            (0..j)
                .filter(|&i| {
                    let li = self.labels[i];
                    li.proc != lj.proc
                        && li.dependent(lj)
                        && !(i + 1..j)
                            .any(|k| self.happens_before(i, k) && self.happens_before(k, j))
                })
                .collect()
        }

        fn race_initials(&self, i: usize) -> u64 {
            let j = self.labels.len() - 1;
            let in_v = |k: usize| k == j || !self.happens_before(i, k);
            let mut initials = 0u64;
            let mut preceded = 0u64;
            for m in i + 1..=j {
                if !in_v(m) {
                    continue;
                }
                let pm = self.labels[m].proc;
                if preceded & bit(pm) != 0 {
                    continue;
                }
                let has_pred = (i + 1..m).any(|l| in_v(l) && self.happens_before(l, m));
                if !has_pred {
                    initials |= bit(pm);
                }
                preceded |= bit(pm);
            }
            initials
        }
    }

    /// A random label over `n` processes and a handful of registers: every
    /// footprint kind, with invoke/response flags on some pure steps.
    fn random_label(rng: &mut SplitMix64, n: usize) -> StepLabel {
        let reg = |rng: &mut SplitMix64| RegId(rng.next_below(4));
        let footprint = match rng.next_below(9) {
            0 | 1 => Footprint::Pure,
            2 | 3 => Footprint::Read(reg(rng)),
            4 | 5 => Footprint::Write(reg(rng)),
            6 => Footprint::Unknown,
            _ => {
                let regs: Vec<RegId> = (0..1 + rng.next_below(3)).map(|_| reg(rng)).collect();
                Footprint::Net(NetWrites::new(&regs))
            }
        };
        let (invoked, responded) = match rng.next_below(4) {
            0 => (true, false),
            1 => (false, true),
            _ => (false, false),
        };
        StepLabel {
            proc: p(rng.next_below(n)),
            footprint,
            invoked,
            responded,
        }
    }

    #[test]
    fn single_pass_matches_the_quadratic_reference() {
        let mut rng = SplitMix64::new(0x5eed_4b1d);
        let mut events = 0usize;
        let mut races_seen = 0usize;
        for stream in 0..1_000 {
            let n = 1 + stream % 8;
            let mut hb = HbTracker::new(n);
            let mut reference = Reference::new(n);
            let len = 1 + rng.next_below(40);
            let mut pushed = 0;
            while pushed < len {
                // Occasionally backtrack, as the explorer does, and keep
                // pushing on the shortened prefix.
                if hb.len() > 2 && rng.next_below(10) == 0 {
                    let keep = rng.next_below(hb.len());
                    hb.truncate(keep);
                    reference.truncate(keep);
                }
                let label = random_label(&mut rng, n);
                let races = push(&mut hb, label);
                reference.push(label);
                pushed += 1;
                events += 1;
                let j = hb.len() - 1;
                for q in 0..n {
                    assert_eq!(
                        hb.clock(j, p(q)),
                        reference.clock(j, p(q)),
                        "stream {stream}: clock of event {j}, process {q}"
                    );
                }
                assert_eq!(
                    races,
                    reference.races_of_last(),
                    "stream {stream}: races of event {j}"
                );
                races_seen += races.len();
                // Initials are defined for any earlier event, not just the
                // racing ones; compare them all.
                for i in 0..j {
                    assert_eq!(
                        hb.race_initials(i),
                        reference.race_initials(i),
                        "stream {stream}: initials of ({i}, {j})"
                    );
                }
            }
        }
        assert!(
            events > 10_000 && races_seen > 5_000,
            "{events} events, {races_seen} races"
        );
    }

    #[test]
    fn unknown_footprints_are_ordered_with_everything() {
        let mut hb = HbTracker::new(3);
        push(&mut hb, step(0, Footprint::Unknown));
        push(&mut hb, step(1, Footprint::Pure));
        push(&mut hb, step(2, Footprint::Read(RegId(0))));
        // Unknown is dependent with Pure and with any access, so event 0
        // happens-before both later events...
        assert!(hb.happens_before(0, 1));
        assert!(hb.happens_before(0, 2));
        // ...and every subsequent Unknown event observes the full history.
        push(&mut hb, step(0, Footprint::Unknown));
        assert!(hb.happens_before(1, 3));
        assert!(hb.happens_before(2, 3));
        assert_eq!(hb.clock(3, p(0)), 2);
        assert_eq!(hb.clock(3, p(1)), 1);
        assert_eq!(hb.clock(3, p(2)), 1);
    }

    #[test]
    fn per_process_counters_stay_concurrent_on_disjoint_registers() {
        let (a, b) = (RegId(0), RegId(1));
        let mut hb = HbTracker::new(2);
        push(&mut hb, step(0, Footprint::Write(a)));
        push(&mut hb, step(0, Footprint::Write(a)));
        let races = push(&mut hb, step(1, Footprint::Write(b)));
        // p1's event is concurrent with both of p0's: its clock never saw
        // p0's counter, and no happens-before edge exists in either
        // direction.
        assert_eq!(hb.clock(2, p(0)), 0);
        assert_eq!(hb.clock(2, p(1)), 1);
        assert!(!hb.happens_before(0, 2));
        assert!(!hb.happens_before(1, 2));
        // Program order within p0 is tracked.
        assert!(hb.happens_before(0, 1));
        assert_eq!(hb.clock(1, p(0)), 2);
        // And no races: the steps commute.
        assert!(races.is_empty());
    }

    #[test]
    fn three_conflicting_writes_race_only_adjacently() {
        // p0: W(a); p1: W(a); p2: W(a). The (0, 2) pair is ordered through
        // event 1, so the reversible races are exactly (0, 1) and (1, 2).
        let a = RegId(0);
        let mut hb = HbTracker::new(3);
        push(&mut hb, step(0, Footprint::Write(a)));
        assert_eq!(push(&mut hb, step(1, Footprint::Write(a))), vec![0]);
        assert_eq!(
            push(&mut hb, step(2, Footprint::Write(a))),
            vec![1],
            "the (0, 2) race must be transitive, not reversible"
        );
    }

    #[test]
    fn races_are_reported_in_ascending_order() {
        // p0: W(a); p1: W(b); p2: W(c); p3: one Unknown step. The three
        // writes are mutually independent, so each races with the last
        // event directly.
        let mut hb = HbTracker::new(4);
        for q in 0..3 {
            push(&mut hb, step(q, Footprint::Write(RegId(q))));
        }
        let mut races = vec![usize::MAX];
        hb.push(step(3, Footprint::Unknown), &mut races);
        assert_eq!(races, vec![usize::MAX, 0, 1, 2], "appended, ascending");
    }

    #[test]
    fn race_initials_are_the_movable_first_events() {
        // p0: W(a); p1: W(b); p2: R(a). Race (0, 2); v = [W(b), R(a)].
        // Both p1's and p2's first events are front-movable.
        let (a, b) = (RegId(0), RegId(1));
        let mut hb = HbTracker::new(3);
        push(&mut hb, step(0, Footprint::Write(a)));
        push(&mut hb, step(1, Footprint::Write(b)));
        assert_eq!(push(&mut hb, step(2, Footprint::Read(a))), vec![0]);
        assert_eq!(hb.race_initials(0), 0b110);

        // p0: W(a); p1: W(b); p2: R(b); p2: R(a). Race (0, 3);
        // v = [W(b), R(b), R(a)] and p2's first event in v (the R(b))
        // happens-after p1's W(b), so only p1 is an initial.
        let mut hb = HbTracker::new(3);
        push(&mut hb, step(0, Footprint::Write(a)));
        push(&mut hb, step(1, Footprint::Write(b)));
        push(&mut hb, step(2, Footprint::Read(b)));
        assert_eq!(push(&mut hb, step(2, Footprint::Read(a))), vec![0]);
        assert_eq!(hb.race_initials(0), 0b010);
    }

    #[test]
    fn invoke_commit_barriers_race_across_processes() {
        let mk = |responded, invoked| {
            let mut hb = HbTracker::new(2);
            push(
                &mut hb,
                StepLabel {
                    proc: p(0),
                    footprint: Footprint::Pure,
                    invoked: false,
                    responded,
                },
            );
            push(
                &mut hb,
                StepLabel {
                    proc: p(1),
                    footprint: Footprint::Pure,
                    invoked,
                    responded: false,
                },
            )
        };
        assert!(mk(false, false).is_empty(), "silent pure steps never race");
        assert!(
            mk(true, false).is_empty(),
            "a response races no silent step"
        );
        assert_eq!(mk(true, true), vec![0], "response vs invocation races");
    }

    #[test]
    fn fingerprint_is_mazurkiewicz_invariant() {
        let (a, b) = (RegId(0), RegId(1));
        let trace = |steps: &[(usize, Footprint)]| {
            let mut hb = HbTracker::new(2);
            for &(q, fp) in steps {
                push(&mut hb, step(q, fp));
            }
            hb.fingerprint()
        };
        // Independent steps commute: the two interleavings of W(a) and W(b)
        // are the same trace, so they fingerprint identically.
        let one = trace(&[(0, Footprint::Write(a)), (1, Footprint::Write(b))]);
        let two = trace(&[(1, Footprint::Write(b)), (0, Footprint::Write(a))]);
        assert_eq!(one, two);

        // Dependent steps do not: swapping two writes to the same register
        // changes the dependence structure's orientation.
        let three = trace(&[(0, Footprint::Write(a)), (1, Footprint::Write(a))]);
        let four = trace(&[(1, Footprint::Write(a)), (0, Footprint::Write(a))]);
        assert_ne!(three, four);
        assert_ne!(one, three);
    }

    #[test]
    fn truncate_rewinds_the_event_stream() {
        let a = RegId(0);
        let mut hb = HbTracker::new(2);
        push(&mut hb, step(0, Footprint::Write(a)));
        push(&mut hb, step(1, Footprint::Write(a)));
        hb.truncate(1);
        assert_eq!(hb.len(), 1);
        // Re-pushing after a truncation recomputes the clock fresh.
        push(&mut hb, step(1, Footprint::Read(a)));
        assert_eq!(hb.clock(1, p(1)), 1);
        assert!(hb.happens_before(0, 1));
        hb.clear();
        assert!(hb.is_empty());
    }
}
