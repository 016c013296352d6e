//! Conservative backfilling (paper §II-B).
//!
//! Unlike EASY, a job may move ahead only if it delays **no** job in the
//! queue, not just the head. Implemented with a [`ResourceProfile`]: the
//! free-capacity timeline of the running set, in which every queued job,
//! in FIFO order, holds the earliest reservation that fits; exactly the
//! jobs whose reservation is "now" start.
//!
//! The profile and the reservations are kept across cycles and repaired
//! rather than rebuilt (DESIGN.md §4.2). A cycle reuses them when the
//! running set is the one they account for — the jobs running at the
//! last rebuild plus the jobs started since, each ending at its start
//! plus its reserved duration — and the queue is the reserved jobs,
//! unchanged and none of them overdue, followed by new arrivals. Then a
//! rebuild would compute the same reservations, so the cycle only
//! advances the profile and reserves the arrivals. Anything else (an
//! early completion, an ECC, a resize, a promotion, a start the freeze
//! refused) rebuilds from the running set.
//!
//! When stacked as Conservative-D the dedicated freeze is an additional
//! gate on actual starts: a job whose profile reservation is "now" still
//! stays queued if starting it would invade the first future dedicated
//! job's window.

use crate::freeze::Freeze;
use crate::profile::ResourceProfile;
use crate::queue::{BatchQueue, WaitingJob};
use crate::stack::{ded_allows, ded_commit, BatchOnly, BatchPolicy, PolicyShared, PolicyStack};
use elastisched_sim::{Duration, JobId, RunningJob, RunningSet, SchedContext, SimTime};

#[cfg(test)]
thread_local! {
    static EARLIEST_STARTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The window a queued job reserves: at least one second, so
/// zero-duration jobs still occupy a decision slot.
fn reserved_dur(dur: Duration) -> Duration {
    dur.max(Duration::from_secs(1))
}

/// The running jobs that still hold processors after `now`.
fn still_running(running: &RunningSet, now: SimTime) -> &[RunningJob] {
    let running = running.as_slice();
    &running[running.partition_point(|j| j.finish <= now)..]
}

/// A queued job's reservation, kept across cycles.
#[derive(Debug, Clone, Copy)]
struct Reservation {
    id: JobId,
    num: u32,
    /// The job's requested duration (the window is [`reserved_dur`]).
    dur: Duration,
    /// Reserved start; [`SimTime::MAX`] for a job wider than the machine.
    at: SimTime,
}

impl Reservation {
    /// Does this reservation still describe queued job `w`?
    fn describes(&self, w: &WaitingJob) -> bool {
        self.id == w.view.id && self.num == w.view.num && self.dur == w.view.dur
    }
}

/// The conservative-backfilling policy core: everyone gets a
/// reservation, only "start now" reservations (allowed by the dedicated
/// freeze, when present) actually start.
#[derive(Debug)]
pub struct ConservativeCore {
    /// Free capacity from the last cycle's `now`: the running windows in
    /// `expected` minus every reservation in `reserved`.
    profile: ResourceProfile,
    /// One reservation per queued job, in queue order.
    reserved: Vec<Reservation>,
    /// The running windows `profile` accounts for, in [`RunningSet`]
    /// order: the running set at the last rebuild plus every job started
    /// since, ending at its start plus its reserved duration.
    expected: Vec<RunningJob>,
    /// Per-cycle scratch: queue positions whose reservation is "now".
    start_now: Vec<usize>,
}

impl ConservativeCore {
    /// A new conservative core with nothing reserved.
    pub fn new() -> Self {
        ConservativeCore {
            profile: ResourceProfile::idle(SimTime::ZERO, 0),
            reserved: Vec::new(),
            expected: Vec::new(),
            start_now: Vec::new(),
        }
    }

    /// Is `running` (jobs finishing after `now`) exactly the set of
    /// windows the profile accounts for? Drops the expected windows that
    /// have ended.
    fn running_as_expected(&mut self, running: &RunningSet, now: SimTime) -> bool {
        let ended = self.expected.partition_point(|j| j.finish <= now);
        self.expected.drain(..ended);
        still_running(running, now) == self.expected
    }

    /// Does `queue` start with the reserved jobs, unchanged and none
    /// overdue? Collects the positions whose reservation is `now`.
    fn queue_extends_reserved(&mut self, queue: &BatchQueue, now: SimTime) -> bool {
        if queue.len() < self.reserved.len() {
            return false;
        }
        for (pos, (w, r)) in queue.iter().zip(&self.reserved).enumerate() {
            if !r.describes(w) || r.at < now {
                return false;
            }
            if r.at == now {
                self.start_now.push(pos);
            }
        }
        true
    }

    /// Reserve `w` at its earliest fit from `now`, after every job
    /// already reserved.
    fn reserve(&mut self, pos: usize, w: &WaitingJob, now: SimTime) {
        #[cfg(test)]
        EARLIEST_STARTS.with(|c| c.set(c.get() + 1));
        let (num, dur) = (w.view.num, w.view.dur);
        // `None`: wider than the machine, which engine validation forbids.
        let at = match self.profile.earliest_start(now, num, reserved_dur(dur)) {
            Some(at) => {
                self.profile
                    .try_reserve(at, reserved_dur(dur), num)
                    .expect("earliest_start guarantees feasibility");
                at
            }
            None => SimTime::MAX,
        };
        if at == now {
            self.start_now.push(pos);
        }
        self.reserved.push(Reservation {
            id: w.view.id,
            num,
            dur,
            at,
        });
    }
}

impl Default for ConservativeCore {
    fn default() -> Self {
        ConservativeCore::new()
    }
}

impl BatchPolicy for ConservativeCore {
    fn name(&self) -> &'static str {
        "Conservative"
    }

    fn dedicated_name(&self) -> &'static str {
        "Conservative-D"
    }

    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        mut ded: Option<Freeze>,
        _shared: &mut PolicyShared,
    ) {
        let now = ctx.now();
        self.start_now.clear();
        if self.profile.total() == ctx.total()
            && self.running_as_expected(ctx.running(), now)
            && self.queue_extends_reserved(queue, now)
        {
            self.profile.advance(now);
        } else {
            self.start_now.clear();
            self.reserved.clear();
            self.expected.clear();
            self.expected
                .extend_from_slice(still_running(ctx.running(), now));
            self.profile
                .reset_from_running(ctx.running(), now, ctx.total());
        }
        let kept = self.reserved.len();
        for (pos, w) in queue.iter().enumerate().skip(kept) {
            self.reserve(pos, w, now);
        }
        // Start in FIFO order; keep in `start_now` the positions started.
        self.start_now.retain(|&pos| {
            let r = self.reserved[pos];
            if !ded_allows(&ded, now, r.num, r.dur) {
                return false;
            }
            ctx.start(r.id).expect("profile guarantees fit");
            ded_commit(&mut ded, now, r.num, r.dur);
            let window = RunningJob {
                id: r.id,
                num: r.num,
                finish: now + reserved_dur(r.dur),
            };
            let at = self
                .expected
                .partition_point(|j| (j.finish, j.id) < (window.finish, window.id));
            self.expected.insert(at, window);
            true
        });
        for &pos in self.start_now.iter().rev() {
            queue.remove_at(pos);
            self.reserved.remove(pos);
        }
    }
}

/// Conservative backfilling scheduler.
pub type Conservative = PolicyStack<BatchOnly<ConservativeCore>>;

impl Conservative {
    /// A new, empty conservative scheduler.
    pub fn new() -> Self {
        PolicyStack::batch_only(ConservativeCore::new())
    }
}

/// The conservative core that rebuilds the profile and re-reserves the
/// whole queue every cycle, with the candidate-search
/// [`ResourceProfile::earliest_start_reference`]: the differential
/// oracle of [`ConservativeCore`]'s profile repair.
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference {
    use super::*;

    /// Per-cycle-rebuild conservative backfilling.
    #[derive(Debug)]
    pub struct RebuildConservativeCore {
        profile: ResourceProfile,
        start_now: Vec<JobId>,
    }

    impl RebuildConservativeCore {
        /// A new rebuild-every-cycle core.
        pub fn new() -> Self {
            RebuildConservativeCore {
                profile: ResourceProfile::idle(SimTime::ZERO, 0),
                start_now: Vec::new(),
            }
        }
    }

    impl Default for RebuildConservativeCore {
        fn default() -> Self {
            RebuildConservativeCore::new()
        }
    }

    impl BatchPolicy for RebuildConservativeCore {
        fn name(&self) -> &'static str {
            "Conservative"
        }

        fn dedicated_name(&self) -> &'static str {
            "Conservative-D"
        }

        fn cycle(
            &mut self,
            queue: &mut BatchQueue,
            ctx: &mut dyn SchedContext,
            mut ded: Option<Freeze>,
            _shared: &mut PolicyShared,
        ) {
            let now = ctx.now();
            self.profile
                .reset_from_running(ctx.running(), now, ctx.total());
            self.start_now.clear();
            for w in queue.iter() {
                let dur = w.view.dur.max(Duration::from_secs(1));
                let Some(at) = self.profile.earliest_start_reference(now, w.view.num, dur) else {
                    continue;
                };
                self.profile
                    .try_reserve(at, dur, w.view.num)
                    .expect("earliest_start guarantees feasibility");
                if at == now {
                    self.start_now.push(w.view.id);
                }
            }
            for &id in &self.start_now {
                let w = queue
                    .iter()
                    .find(|w| w.view.id == id)
                    .expect("selected job still queued");
                let (num, dur) = (w.view.num, w.view.dur);
                if !ded_allows(&ded, now, num, dur) {
                    continue;
                }
                ctx.start(id).expect("profile guarantees fit");
                ded_commit(&mut ded, now, num, dur);
                queue.remove(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobSpec;
    use elastisched_test_util::{run_on_bluegene, started};

    fn run(jobs: &[JobSpec]) -> elastisched_sim::SimResult {
        run_on_bluegene(Conservative::new(), jobs)
    }

    #[test]
    fn backfills_when_no_job_is_delayed() {
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 320, 100),
            JobSpec::batch(3, 2, 32, 50), // finishes before job 2's start
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 3), 2);
        assert_eq!(started(&r, 2), 100);
    }

    #[test]
    fn refuses_backfill_that_delays_any_reservation() {
        // Job 2 (256 procs) reserved at t=100; job 3 (128) reserved after.
        // Job 4 (64, runs 300 s) fits now but would overlap job 2's and
        // job 3's reservations; conservative must hold it unless it
        // demonstrably delays no one. Verify job 2 and 3 keep their
        // earliest-possible starts.
        let jobs = vec![
            JobSpec::batch(1, 0, 256, 100),
            JobSpec::batch(2, 1, 256, 100),
            JobSpec::batch(3, 2, 128, 100),
            JobSpec::batch(4, 3, 64, 300),
        ];
        let r = run(&jobs);
        assert_eq!(started(&r, 2), 100);
        // Job 3's reservation: at t=100 only 64 free after job 2 → t=200.
        assert_eq!(started(&r, 3), 200);
        // Job 4 fits beside job 1 now (free 64) and beside job 2 at 100
        // (free 64) and beside job 3 at 200 (free 192): no delay → runs.
        assert_eq!(started(&r, 4), 3);
    }

    #[test]
    fn drains_everything() {
        let jobs: Vec<JobSpec> = (0..50)
            .map(|i| JobSpec::batch(i + 1, i * 7, 32 + 32 * (i as u32 % 5), 50 + i * 3))
            .collect();
        let r = run(&jobs);
        assert_eq!(r.outcomes.len(), 50);
    }

    #[test]
    fn exact_estimates_reserve_each_job_about_once() {
        // With exact estimates the running set evolves as reserved, so
        // cycles reuse the kept reservations and reserve only arrivals;
        // a per-cycle rebuild would make one call per queued job per
        // cycle.
        use elastisched_workload::{generate, GeneratorConfig};
        let mut w = generate(
            &GeneratorConfig::paper_batch(0.5)
                .with_jobs(4_000)
                .with_seed(7),
        );
        w.scale_to_load(320, 1.0);
        EARLIEST_STARTS.with(|c| c.set(0));
        let r = run(&w.jobs);
        let calls = EARLIEST_STARTS.with(|c| c.get());
        assert_eq!(r.outcomes.len(), 4_000);
        assert!(
            calls <= 2 * 4_000,
            "{calls} earliest_start calls for 4,000 jobs"
        );
    }
}
