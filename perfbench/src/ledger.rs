//! The self-time ledger behind the traced pass.
//!
//! Every wrapper in [`crate::wrap`] opens a span on entry to a layer's
//! public function and closes it on return. A span's *self* time is its
//! duration minus the durations of the spans opened inside it, so the
//! slots partition the instrumented time: no nanosecond is charged to
//! two layers, and summing the slots plus an untracked residual gives
//! the pass's wall time back.
//!
//! The ledger is per thread (campaign points run on sweep workers);
//! [`take`] drains the calling thread's totals so they can be merged.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One ledger slot: a layer of the workspace, named after its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `CwfFile::parse` + `CwfFile::to_workload`.
    Parse,
    /// `JobSource::next_item`.
    Source,
    /// `calibrated_workload`.
    Gen,
    /// `Engine::load`.
    Load,
    /// `Engine::run` / `Engine::run_streaming_folded`, less the spans
    /// inside it (the engine loop, event queue, admission, observers).
    Sim,
    /// The engine services a scheduler calls through `SchedContext`.
    Ctx,
    /// `Scheduler` callbacks of the policy stack, less the layers below.
    Sched,
    /// `BatchPolicy::cycle` / `dedicated_cycle` of the policy core.
    Core,
    /// `StackLayer::drive` of the batch-only layer.
    BatchOnly,
    /// `StackLayer::drive` of `WithDedicated`, less the core.
    Dedicated,
    /// `StackLayer::drive` of `WithMalleable`, less the layer it wraps.
    Malleable,
    /// `RunMetrics::from_result` and the `RunAccumulator` fold.
    Fold,
    /// One sweep point or replay run, less everything above: engine and
    /// stack construction, experiment plumbing.
    Point,
    /// The benchmark's own output checks and digests.
    Bench,
}

/// Number of slots.
pub const SLOTS: usize = 14;

impl Slot {
    /// Every slot, in report order.
    pub const ALL: [Slot; SLOTS] = [
        Slot::Parse,
        Slot::Source,
        Slot::Gen,
        Slot::Load,
        Slot::Sim,
        Slot::Ctx,
        Slot::Sched,
        Slot::Core,
        Slot::BatchOnly,
        Slot::Dedicated,
        Slot::Malleable,
        Slot::Fold,
        Slot::Point,
        Slot::Bench,
    ];

    /// The slot's metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Slot::Parse => "workload.parse",
            Slot::Source => "workload.source",
            Slot::Gen => "workload.gen",
            Slot::Load => "sim.load",
            Slot::Sim => "sim.self",
            Slot::Ctx => "sim.ctx",
            Slot::Sched => "sched.self",
            Slot::Core => "sched.core",
            Slot::BatchOnly => "sched.batch_only",
            Slot::Dedicated => "sched.dedicated",
            Slot::Malleable => "sched.malleable",
            Slot::Fold => "metrics.fold",
            Slot::Point => "core.self",
            Slot::Bench => "bench.self",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Items (jobs and ECCs) the workload layer produced.
    pub items: u64,
    /// Jobs among those items.
    pub jobs_in: u64,
    /// Scheduler cycles entered through the wrapper.
    pub cycles: u64,
    /// Sum of `Scheduler::waiting_len` at cycle entry.
    pub depth_sum: u64,
    /// Successful `SchedContext::start` calls.
    pub starts: u64,
    /// Failed `SchedContext::start` calls.
    pub start_errors: u64,
    /// Jobs folded into metrics.
    pub jobs_folded: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.items += o.items;
        self.jobs_in += o.jobs_in;
        self.cycles += o.cycles;
        self.depth_sum += o.depth_sum;
        self.starts += o.starts;
        self.start_errors += o.start_errors;
        self.jobs_folded += o.jobs_folded;
    }
}

/// Accumulated self time per slot, plus the boundary counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Self nanoseconds per slot, indexed like [`Slot::ALL`].
    pub nanos: [u64; SLOTS],
    /// Closed spans per slot.
    pub spans: [u64; SLOTS],
    /// Inclusive nanoseconds per slot: span durations, children kept.
    pub incl: [u64; SLOTS],
    /// Boundary counts.
    pub counts: Counts,
}

impl Totals {
    /// Self seconds charged to `slot`.
    pub fn secs(&self, slot: Slot) -> f64 {
        self.nanos[slot.index()] as f64 * 1e-9
    }

    /// Inclusive seconds of `slot`'s spans.
    pub fn incl_secs(&self, slot: Slot) -> f64 {
        self.incl[slot.index()] as f64 * 1e-9
    }

    /// Self seconds of every slot together.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        for i in 0..SLOTS {
            self.nanos[i] += other.nanos[i];
            self.spans[i] += other.spans[i];
            self.incl[i] += other.incl[i];
        }
        self.counts.add(&other.counts);
    }
}

struct Frame {
    slot: Slot,
    start: u64,
    /// Nanoseconds covered by spans closed directly inside this one.
    child: u64,
}

/// A stack of open spans over an explicit clock, so the subtraction
/// can be tested with made-up timestamps.
#[derive(Default)]
pub struct Ledger {
    stack: Vec<Frame>,
    totals: Totals,
}

impl Ledger {
    /// Open a span of `slot` at time `now` (nanoseconds).
    pub fn enter(&mut self, slot: Slot, now: u64) {
        self.stack.push(Frame {
            slot,
            start: now,
            child: 0,
        });
    }

    /// Close the innermost span at time `now`, charging its self time.
    pub fn exit(&mut self, now: u64) {
        let frame = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let dur = now.saturating_sub(frame.start);
        let i = frame.slot.index();
        self.totals.nanos[i] += dur.saturating_sub(frame.child);
        self.totals.spans[i] += 1;
        self.totals.incl[i] += dur;
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
    }

    /// Open spans (0 between runs).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Drain the totals.
    pub fn take(&mut self) -> Totals {
        std::mem::take(&mut self.totals)
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

fn clock() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Closes its span when dropped, so a panicking layer still balances
/// the stack.
pub struct SpanGuard(());

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let now = clock();
        LEDGER.with(|l| l.borrow_mut().exit(now));
    }
}

/// Open a span of `slot` on this thread until the guard drops.
pub fn enter(slot: Slot) -> SpanGuard {
    let now = clock();
    LEDGER.with(|l| l.borrow_mut().enter(slot, now));
    SpanGuard(())
}

/// Run `f` inside a span of `slot`.
pub fn span<R>(slot: Slot, f: impl FnOnce() -> R) -> R {
    let _g = enter(slot);
    f()
}

/// Add to this thread's boundary counts.
pub fn count(f: impl FnOnce(&mut Counts)) {
    LEDGER.with(|l| f(&mut l.borrow_mut().totals.counts));
}

/// Drain this thread's totals. Panics if a span is still open, which
/// would mean a wrapper lost its guard.
pub fn take() -> Totals {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        assert_eq!(l.depth(), 0, "ledger drained with open spans");
        l.take()
    })
}

static MERGED: Mutex<Totals> = Mutex::new(Totals {
    nanos: [0; SLOTS],
    spans: [0; SLOTS],
    incl: [0; SLOTS],
    counts: Counts {
        items: 0,
        jobs_in: 0,
        cycles: 0,
        depth_sum: 0,
        starts: 0,
        start_errors: 0,
        jobs_folded: 0,
    },
});

/// Move this thread's totals into the process-wide merge (sweep
/// workers call this at the end of every point, before they exit).
pub fn flush() {
    let t = take();
    MERGED
        .lock()
        .expect("no thread panics holding the ledger merge")
        .merge(&t);
}

/// Flush this thread, then drain the process-wide merge.
pub fn take_merged() -> Totals {
    flush();
    std::mem::take(
        &mut *MERGED
            .lock()
            .expect("no thread panics holding the ledger merge"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_only_self_time() {
        let mut l = Ledger::default();
        // sim [0, 100) holds sched [10, 60) which holds ctx [20, 30)
        // and core [35, 55); fold [70, 90) is a second child of sim.
        l.enter(Slot::Sim, 0);
        l.enter(Slot::Sched, 10);
        l.enter(Slot::Ctx, 20);
        l.exit(30);
        l.enter(Slot::Core, 35);
        l.exit(55);
        l.exit(60);
        l.enter(Slot::Fold, 70);
        l.exit(90);
        l.exit(100);
        let t = l.take();
        assert_eq!(t.nanos[Slot::Sim.index()], 100 - 50 - 20);
        assert_eq!(t.incl[Slot::Sim.index()], 100);
        assert_eq!(t.incl[Slot::Sched.index()], 50);
        assert_eq!(t.nanos[Slot::Sched.index()], 50 - 10 - 20);
        assert_eq!(t.nanos[Slot::Ctx.index()], 10);
        assert_eq!(t.nanos[Slot::Core.index()], 20);
        assert_eq!(t.nanos[Slot::Fold.index()], 20);
        // The self times partition the root span.
        assert_eq!(t.nanos.iter().sum::<u64>(), 100);
        assert_eq!(t.spans[Slot::Sim.index()], 1);
    }

    #[test]
    fn sibling_roots_sum_to_their_own_spans() {
        let mut l = Ledger::default();
        l.enter(Slot::Parse, 0);
        l.exit(7);
        l.enter(Slot::Point, 10);
        l.enter(Slot::Load, 11);
        l.exit(13);
        l.exit(20);
        let t = l.take();
        assert_eq!(t.nanos.iter().sum::<u64>(), 7 + 10);
        assert_eq!(t.nanos[Slot::Point.index()], 8);
        assert_eq!(l.depth(), 0);
        assert_eq!(l.take(), Totals::default(), "take drains");
    }

    #[test]
    fn thread_ledger_balances_through_guards() {
        let _ = take();
        span(Slot::Point, || {
            span(Slot::Sim, || count(|c| c.cycles += 2));
        });
        let t = take();
        assert_eq!(t.spans[Slot::Point.index()], 1);
        assert_eq!(t.spans[Slot::Sim.index()], 1);
        assert_eq!(t.counts.cycles, 2);
        let caught = std::panic::catch_unwind(|| span(Slot::Core, || panic!("layer bug")));
        assert!(caught.is_err());
        let t = take();
        assert_eq!(t.spans[Slot::Core.index()], 1, "guard closed the span");
    }

    #[test]
    fn merge_adds_slots_and_counts() {
        let mut a = Totals::default();
        a.nanos[Slot::Sim.index()] = 5;
        a.counts.starts = 1;
        let mut b = a;
        b.counts.jobs_folded = 3;
        a.merge(&b);
        assert_eq!(a.nanos[Slot::Sim.index()], 10);
        assert_eq!(a.counts.starts, 2);
        assert_eq!(a.counts.jobs_folded, 3);
        assert!((a.total_secs() - 10e-9).abs() < 1e-18);
    }
}
