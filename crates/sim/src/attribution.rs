//! Wait-time attribution: *why* did each job wait?
//!
//! The metrics plane reports *that* jobs waited; this module decomposes
//! each job's queue wait into causes so two scheduler stacks can be
//! compared causally ("Delayed-LOS traded 400s of head skips for 9000s
//! less capacity blocking") instead of numerically.
//!
//! # Cause taxonomy
//!
//! Every second of every job's wait (from [`JobSpec::eligible_at`] to
//! its start) lands in exactly one bucket:
//!
//! - **capacity** — the job did not fit in the free processors, and the
//!   shortfall is held by ordinary running batch jobs. The running job
//!   with the largest current allocation (the lower id on a tie) is
//!   recorded as the *lead blocker*.
//! - **dedicated** — the job would fit if the processors held by
//!   running dedicated jobs were free: dedicated-node contention.
//! - **ecc** — the job would fit were it not for processors gained by
//!   running jobs through expand-procs ECCs: elastic reconfiguration
//!   stole the headroom.
//! - **malleable** — the job would fit were it not for processors held
//!   by running jobs *above their preferred width* through
//!   scheduler-initiated malleable grows: the malleable layer's
//!   opportunistic expansion is holding the headroom.
//! - **policy_skip** — the job fit but the policy passed it over: a DP
//!   selection skipped the head (Delayed-LOS `scount` budget), or the
//!   policy simply did not reach it this cycle.
//! - **freeze** — the job fit but a freeze window (EASY/LOS shadow
//!   reservation, or a dedicated claim's freeze) blocked starts at or
//!   below the frozen width.
//!
//! # Cause logs
//!
//! A waiting job's cause is a function of two things only: its width
//! and the cycle's *regime* — the free processors, the processors held
//! by dedicated jobs, by expand-procs ECCs and by malleable grows, the
//! lead blocker, and the freeze flag — plus the job's own skip note.
//! So the engine classifies once per cycle per live *width class*
//! (every distinct width among waiting jobs; at most 10 on the paper's
//! BlueGene/P), not per waiting job, and appends `(instant, cause)` to
//! a class's **cause log** only when that class's cause changes. A job
//! keeps a cursor into its class's log and catches up — replaying the
//! entries past its cursor through [`JobAttr::charge_until`] — only
//! when it must: at its start, when a queued ECC moves it to another
//! width class, and when a Delayed-LOS skip note overrides its class's
//! freeze for one cycle. A cycle costs O(running + live classes), and
//! a job's charges track its cause changes instead of the cycles it
//! waited through.
//!
//! Catching up late is exact because two consecutive charges to the
//! same cause merge into one charge over the joined span:
//!
//! - **Buckets.** A charge adds `now − max(from, eligible)` (saturating)
//!   to one bucket. For instants `a ≤ b ≤ c`, the spans of `[a, b)` and
//!   `[b, c)` add up to that of `[a, c)` wherever the eligibility instant
//!   `e` falls: both are `c − max(a, e)` when `e ≤ b`, and `0 + (c − e)`
//!   or `0 + 0` beyond.
//! - **Lead blocker.** The k=1 Misra–Gries vote obeys
//!   `vote(b, s1); vote(b, s2) ≡ vote(b, s1 + s2)` (a zero span never
//!   votes, so take `s1, s2 > 0`). If the lead is `b` or there is none,
//!   both add `s1 + s2` to `b`'s weight. If another lead `a` holds
//!   weight `w`: when `w > s1 + s2`, both leave `a` with `w − s1 − s2`;
//!   when `s1 < w ≤ s1 + s2`, the split run leaves `a` with `w − s1`
//!   and the second vote hands the lead to `b` with `s2 − (w − s1)`,
//!   which is the merged `s1 + s2 − w`; when `w ≤ s1`, the first vote
//!   hands `b` the lead with `s1 − w` and the second adds `s2`, again
//!   `s1 + s2 − w` (a tie `w = s1` leaves `b` leading on weight 0, then
//!   `s2`, exactly as the merged vote leaves it).
//!
//! So a job charged once per cause change holds bit-for-bit the buckets
//! and vote of a job charged once per cycle. A skip note overrides only
//! a freeze (a fitting job the policy passed over is a policy skip
//! whether or not a freeze window was also up), so only jobs named in
//! the notes while their class is frozen are touched individually; the
//! override lapses at the next cycle unless renewed.
//!
//! **Memory.** Logs hold only entries some waiting job has not yet
//! replayed. When the logs together outgrow twice the waiting jobs
//! (plus a small constant), every waiting job catches up and every log
//! is truncated. The pass costs O(waiting + entries) and follows at
//! least that many appends, so it is amortized O(1) per entry, and the
//! logs stay O(waiting jobs) whatever the run length. A class is
//! dropped when its last member leaves.
//!
//! Every charge happens at a cycle instant and intervals telescope, so
//! `sum(causes) == total wait` holds exactly; the `audit` feature
//! promotes it to a per-completion hard check. The per-cycle pass the
//! logs replaced — charge and reclassify every waiting job every cycle
//! — survives as `reference` behind the `reference-kernels` feature, the
//! oracle of the `attribution_differential` suite.
//!
//! [`JobSpec::eligible_at`]: crate::JobSpec::eligible_at

use crate::job::JobId;
use crate::sched_api::JobView;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Bound on the per-run "top blockers" summary (Misra–Gries heavy
/// hitters over lead-blocker seconds).
pub const TOP_BLOCKERS: usize = 8;

/// Per-job decomposition of queue wait into causes, in whole seconds.
///
/// Produced by the engine when attribution is enabled (see
/// `Engine::enable_attribution`) and attached to the job's
/// [`JobOutcome`]. The six `*_secs` buckets always sum to the job's
/// total wait.
///
/// [`JobOutcome`]: crate::JobOutcome
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitAttribution {
    /// Seconds blocked on insufficient free capacity held by ordinary
    /// running jobs.
    pub capacity_secs: u64,
    /// Seconds blocked specifically by running dedicated jobs.
    pub dedicated_secs: u64,
    /// Seconds blocked by processors gained through expand-procs ECCs.
    pub ecc_secs: u64,
    /// Seconds blocked by processors held above preferred width through
    /// scheduler-initiated malleable grows.
    #[serde(default)]
    pub malleable_secs: u64,
    /// Seconds the job fit but was passed over by the policy (head
    /// skips, DP selections, queue order).
    pub policy_skip_secs: u64,
    /// Seconds the job fit but a freeze window (shadow reservation or
    /// dedicated claim) blocked starts.
    pub freeze_secs: u64,
    /// The running job that most often led the capacity blockade, by
    /// majority vote over capacity-blocked seconds (k=1 Misra–Gries:
    /// exact when one blocker dominates).
    pub lead_blocker: Option<u64>,
    /// Surviving vote weight behind `lead_blocker`, in seconds.
    pub lead_blocker_secs: u64,
}

impl WaitAttribution {
    /// Total attributed seconds — equals the job's wait exactly.
    pub fn total_secs(&self) -> u64 {
        self.capacity_secs
            + self.dedicated_secs
            + self.ecc_secs
            + self.malleable_secs
            + self.policy_skip_secs
            + self.freeze_secs
    }
}

/// One heavy-hitter entry in [`AttributionProfile::top_blockers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockerShare {
    /// The running job charged with blocking.
    pub job: u64,
    /// Surviving Misra–Gries weight, in lead-blocker seconds. A lower
    /// bound on the true count; ordering is reliable for dominant
    /// blockers.
    pub secs: u64,
}

/// Per-run roll-up of every completed job's [`WaitAttribution`],
/// folded O(1) at completion so streamed runs carry it in bounded
/// memory.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AttributionProfile {
    /// Jobs folded into this profile.
    pub jobs: u64,
    /// Jobs that started the instant they became eligible.
    pub zero_wait_jobs: u64,
    /// Sum of per-job capacity-blocked seconds.
    pub capacity_secs: u64,
    /// Sum of per-job dedicated-contention seconds.
    pub dedicated_secs: u64,
    /// Sum of per-job ECC-reconfiguration seconds.
    pub ecc_secs: u64,
    /// Sum of per-job malleable-grow contention seconds.
    #[serde(default)]
    pub malleable_secs: u64,
    /// Sum of per-job policy-skip seconds.
    pub policy_skip_secs: u64,
    /// Sum of per-job freeze-window seconds.
    pub freeze_secs: u64,
    /// Heavy hitters among lead blockers ([`TOP_BLOCKERS`]-bounded
    /// Misra–Gries summary; weights are lower bounds).
    pub top_blockers: Vec<BlockerShare>,
}

impl AttributionProfile {
    /// True when no job has been folded in (attribution disabled, or
    /// an empty run).
    pub fn is_empty(&self) -> bool {
        self.jobs == 0
    }

    /// Total attributed seconds across every folded job — equals the
    /// run's total wait exactly.
    pub fn total_secs(&self) -> u64 {
        self.capacity_secs
            + self.dedicated_secs
            + self.ecc_secs
            + self.malleable_secs
            + self.policy_skip_secs
            + self.freeze_secs
    }

    /// Fold one completed job's attribution into the run profile.
    pub fn fold(&mut self, a: &WaitAttribution) {
        self.jobs += 1;
        if a.total_secs() == 0 {
            self.zero_wait_jobs += 1;
        }
        self.capacity_secs += a.capacity_secs;
        self.dedicated_secs += a.dedicated_secs;
        self.ecc_secs += a.ecc_secs;
        self.malleable_secs += a.malleable_secs;
        self.policy_skip_secs += a.policy_skip_secs;
        self.freeze_secs += a.freeze_secs;
        if let Some(job) = a.lead_blocker {
            if a.lead_blocker_secs > 0 {
                self.credit_blocker(job, a.lead_blocker_secs);
            }
        }
    }

    /// Misra–Gries update: exact for blockers that dominate, bounded
    /// at [`TOP_BLOCKERS`] entries regardless of run length.
    fn credit_blocker(&mut self, job: u64, secs: u64) {
        if let Some(e) = self.top_blockers.iter_mut().find(|e| e.job == job) {
            e.secs += secs;
            return;
        }
        if self.top_blockers.len() < TOP_BLOCKERS {
            self.top_blockers.push(BlockerShare { job, secs });
            return;
        }
        for e in &mut self.top_blockers {
            e.secs = e.secs.saturating_sub(secs);
        }
        self.top_blockers.retain(|e| e.secs > 0);
    }
}

/// Per-cycle notes a policy leaves for the attribution pass (via
/// `SchedContext::attribution`). Cleared by the engine after each
/// cycle's classification.
#[derive(Debug, Default)]
pub struct AttrNotes {
    /// Jobs the policy *saw and deliberately passed over* this cycle
    /// (Delayed-LOS head skips under the `scount` budget).
    pub skipped: Vec<JobId>,
    /// A freeze window (EASY/LOS shadow reservation or a dedicated
    /// claim's freeze) constrained starts this cycle.
    pub freeze: bool,
}

impl AttrNotes {
    /// Note that the policy deliberately skipped `id` this cycle.
    #[inline]
    pub fn note_skip(&mut self, id: JobId) {
        if !self.skipped.contains(&id) {
            self.skipped.push(id);
        }
    }

    /// Note that a freeze window constrained starts this cycle.
    #[inline]
    pub fn note_freeze(&mut self) {
        self.freeze = true;
    }

    pub(crate) fn clear(&mut self) {
        self.skipped.clear();
        self.freeze = false;
    }
}

/// The cause the *next* wait interval will be charged to, decided at
/// the end of the previous cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum PendingCause {
    Capacity(JobId),
    Dedicated,
    Ecc,
    Malleable,
    #[default]
    PolicySkip,
    Freeze,
}

/// The per-cycle blocking regime, read from the running set after the
/// policy ran. A waiting job's cause is a function of its width and
/// this alone, bar its own skip note.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Regime {
    pub free: u32,
    /// Processors held by running dedicated jobs.
    pub ded_procs: u32,
    /// Processors running jobs gained through expand-procs ECCs.
    pub ecc_procs: u32,
    /// Processors running jobs hold above their preferred width through
    /// malleable grows.
    pub mal_procs: u32,
    /// The running job with the largest allocation, the lower id on a
    /// tie.
    pub blocker: JobId,
    /// A freeze window constrained starts this cycle.
    pub freeze: bool,
}

impl Regime {
    /// Why a job `num` processors wide waits from this cycle on, before
    /// its own skip note. Capacity-style causes outrank policy causes: a
    /// job that does not fit was not schedulable no matter what the
    /// policy decided this cycle.
    fn classify(&self, num: u32) -> PendingCause {
        let free = self.free;
        if num <= free {
            if self.freeze {
                PendingCause::Freeze
            } else {
                PendingCause::PolicySkip
            }
        } else if num <= free + self.ded_procs {
            PendingCause::Dedicated
        } else if num <= free + self.ded_procs + self.ecc_procs {
            PendingCause::Ecc
        } else if num <= free + self.ded_procs + self.ecc_procs + self.mal_procs {
            PendingCause::Malleable
        } else {
            PendingCause::Capacity(self.blocker)
        }
    }
}

/// `JobSpec::eligible_at` from a waiting job's view, which carries the
/// spec's submit and class.
fn view_eligible(v: &JobView) -> SimTime {
    v.class
        .requested_start()
        .map_or(v.submit, |s| v.submit.max(s))
}

/// One cause-log entry: from this cycle instant on, the class waits on
/// this cause.
type LogEntry = (SimTime, PendingCause);

/// Per-job attribution accumulator, parallel to the engine's
/// waiting-job views while the job waits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobAttr {
    /// Instant up to which this job's wait has been charged.
    pub from: SimTime,
    /// Cause for the interval since `from`.
    pub pending: PendingCause,
    /// Buckets charged so far.
    pub attr: WaitAttribution,
    /// Slot of the job's width class in [`AttrState::classes`].
    class: u32,
    /// Entries of the class's cause log already replayed.
    cursor: u32,
    /// A skip note overrode the class's freeze at the last cycle:
    /// `pending` is a policy skip until the next cycle, whatever the
    /// class log says.
    skipped: bool,
}

impl JobAttr {
    /// Fresh accumulator for a job arriving at `at`. The initial
    /// pending cause is irrelevant: a cycle fires at every arrival
    /// instant, so the first charge always spans zero seconds.
    pub fn new(at: SimTime) -> Self {
        JobAttr {
            from: at,
            ..JobAttr::default()
        }
    }

    /// Charge the interval `[max(from, eligible), now)` to the pending
    /// cause and advance `from`. Clamping to `eligible` means seconds
    /// before a dedicated job's requested start are never charged, so
    /// the buckets telescope to exactly `started - eligible`.
    pub fn charge_until(&mut self, now: SimTime, eligible: SimTime) {
        let base = if self.from > eligible { self.from } else { eligible };
        let span = now.saturating_since(base).as_secs();
        if span > 0 {
            match self.pending {
                PendingCause::Capacity(b) => {
                    self.attr.capacity_secs += span;
                    self.vote_blocker(b.0, span);
                }
                PendingCause::Dedicated => self.attr.dedicated_secs += span,
                PendingCause::Ecc => self.attr.ecc_secs += span,
                PendingCause::Malleable => self.attr.malleable_secs += span,
                PendingCause::PolicySkip => self.attr.policy_skip_secs += span,
                PendingCause::Freeze => self.attr.freeze_secs += span,
            }
        }
        self.from = now;
    }

    /// One charge step of the incremental pass: charge up to `now`
    /// unless nothing has elapsed since `from` (a zero-span charge
    /// changes nothing, and skipping it keeps the step count at the
    /// job's cause changes).
    fn step_to(&mut self, now: SimTime, eligible: SimTime) {
        if now > self.from {
            self.charge_until(now, eligible);
            work::charge_step();
        }
    }

    /// Replay the entries of the class's cause log past the cursor: each
    /// closes the interval charged to the cause before it.
    fn catch_up(&mut self, log: &[LogEntry], eligible: SimTime) {
        for &(at, cause) in &log[self.cursor as usize..] {
            self.step_to(at, eligible);
            self.pending = cause;
        }
        self.cursor = log.len() as u32;
    }

    /// k=1 Misra–Gries majority vote over capacity-blocked seconds.
    fn vote_blocker(&mut self, job: u64, secs: u64) {
        match self.attr.lead_blocker {
            Some(cur) if cur == job => self.attr.lead_blocker_secs += secs,
            Some(_) => {
                if self.attr.lead_blocker_secs > secs {
                    self.attr.lead_blocker_secs -= secs;
                } else {
                    self.attr.lead_blocker = Some(job);
                    self.attr.lead_blocker_secs = secs - self.attr.lead_blocker_secs;
                }
            }
            None => {
                self.attr.lead_blocker = Some(job);
                self.attr.lead_blocker_secs = secs;
            }
        }
    }
}

/// The waiting jobs of one width and the history of their shared cause.
#[derive(Debug, Default)]
struct WidthClass {
    num: u32,
    /// Waiting jobs of this width; 0 marks a free slot.
    members: u32,
    /// The cause as of the last cycle, `None` before the class's first.
    cause: Option<PendingCause>,
    /// Every cause change not yet replayed by all members.
    log: Vec<LogEntry>,
}

/// Slack on the log bound, so a short queue whose causes flip often is
/// not caught up every few cycles.
const LOG_SLACK: usize = 64;

/// Engine-side attribution state: the per-job accumulators, the width
/// classes with their cause logs, the run profile, and the policy's
/// per-cycle notes. Boxed behind an `Option` on the engine so the
/// disabled path costs one branch per cycle.
#[derive(Debug, Default)]
pub(crate) struct AttrState {
    /// Accumulators of waiting jobs, index-parallel to the engine's
    /// waiting-job views (and compacted with them).
    pub waiting: Vec<JobAttr>,
    /// Final buckets of started jobs, parallel to the record slab, from
    /// start until the completion folds them into `profile`.
    pub started: Vec<WaitAttribution>,
    pub profile: AttributionProfile,
    pub notes: AttrNotes,
    /// Width-class slab; slots whose members all left are reused.
    classes: Vec<WidthClass>,
    /// Entries across every class's log.
    log_len: usize,
    /// Jobs whose skip note overrides their class's freeze until the
    /// next cycle.
    skipped: Vec<JobId>,
    /// Run the per-cycle [`reference`] pass instead of the cause logs.
    #[cfg(feature = "reference-kernels")]
    reference: bool,
}

impl AttrState {
    /// State that runs the per-cycle [`reference`] pass.
    #[cfg(feature = "reference-kernels")]
    pub fn reference() -> Self {
        AttrState {
            reference: true,
            ..AttrState::default()
        }
    }

    fn is_reference(&self) -> bool {
        #[cfg(feature = "reference-kernels")]
        return self.reference;
        #[cfg(not(feature = "reference-kernels"))]
        false
    }

    /// Slot of the class of width `num`, created (or a free slot reused)
    /// when it has no members yet.
    fn class_of(&mut self, num: u32) -> usize {
        let mut free = None;
        for (i, c) in self.classes.iter().enumerate() {
            if c.members > 0 && c.num == num {
                return i;
            }
            if c.members == 0 && free.is_none() {
                free = Some(i);
            }
        }
        let i = free.unwrap_or_else(|| {
            self.classes.push(WidthClass::default());
            self.classes.len() - 1
        });
        self.classes[i].num = num;
        i
    }

    /// An accumulator for a job `num` processors wide that starts
    /// waiting at `now`, joined to its width class.
    fn join(&mut self, num: u32, now: SimTime) -> JobAttr {
        let mut ja = JobAttr::new(now);
        if self.is_reference() {
            return ja;
        }
        let i = self.class_of(num);
        let c = &mut self.classes[i];
        c.members += 1;
        ja.class = i as u32;
        ja.cursor = c.log.len() as u32;
        ja.pending = c.cause.unwrap_or_default();
        ja
    }

    /// A member leaves class slot `i`; the last one out frees the slot
    /// and its log.
    fn leave(&mut self, i: u32) {
        let c = &mut self.classes[i as usize];
        c.members -= 1;
        if c.members == 0 {
            self.log_len -= c.log.len();
            c.log.clear();
            c.cause = None;
        }
    }

    /// A job `num` processors wide arrived at `now`: append its
    /// accumulator, parallel to its new view.
    pub fn arrive(&mut self, num: u32, now: SimTime) {
        let ja = self.join(num, now);
        self.waiting.push(ja);
    }

    /// The job at view position `pos`, record slot `slot`, starts at
    /// `now`: charge the rest of its wait and park the buckets with the
    /// record until the completion folds them.
    pub fn start(&mut self, pos: usize, slot: usize, now: SimTime, eligible: SimTime) {
        let mut ja = self.waiting[pos];
        if self.is_reference() {
            ja.charge_until(now, eligible);
        } else {
            ja.catch_up(&self.classes[ja.class as usize].log, eligible);
            ja.step_to(now, eligible);
            self.leave(ja.class);
        }
        if self.started.len() <= slot {
            self.started.resize(slot + 1, WaitAttribution::default());
        }
        self.started[slot] = ja.attr;
    }

    /// A queued ECC edited the view `v` at position `pos` at `now`: if
    /// its width changed, settle its wait up to now under its old class,
    /// then move it to the new one. The charge is the one the next cycle
    /// would have made, and the new class's cause applies from this
    /// instant.
    pub fn resize(&mut self, pos: usize, v: &JobView, now: SimTime) {
        if self.is_reference() {
            return; // the next cycle reads the new width from the view
        }
        let mut ja = self.waiting[pos];
        let (num, eligible) = (v.num, view_eligible(v));
        if self.classes[ja.class as usize].num == num {
            return;
        }
        ja.catch_up(&self.classes[ja.class as usize].log, eligible);
        ja.step_to(now, eligible);
        self.leave(ja.class);
        // Charged up to `now`, the job rejoins like an arrival that keeps
        // its buckets.
        let mut moved = self.join(num, now);
        moved.attr = ja.attr;
        self.waiting[pos] = moved;
    }

    /// The post-cycle pass at instant `t`: classify every live width
    /// class under `regime` and log the changes, apply and lapse skip
    /// overrides, and truncate the logs once they outgrow the waiting
    /// jobs. `live` yields the view position and view of every waiting
    /// job (consumed only by a truncation or the reference pass);
    /// `locate` maps a waiting job's id to its view position and
    /// eligibility instant.
    pub fn cycle<'v>(
        &mut self,
        t: SimTime,
        regime: &Regime,
        live: impl Iterator<Item = (usize, &'v JobView)>,
        locate: impl Fn(JobId) -> Option<(usize, SimTime)>,
    ) {
        #[cfg(feature = "reference-kernels")]
        if self.reference {
            reference::attribute_cycle(t, regime, &self.notes, live, &mut self.waiting);
            self.notes.clear();
            return;
        }
        let mut members = 0;
        for c in &mut self.classes {
            if c.members == 0 {
                continue;
            }
            members += c.members as usize;
            let cause = regime.classify(c.num);
            if c.cause != Some(cause) {
                c.cause = Some(cause);
                c.log.push((t, cause));
                self.log_len += 1;
            }
        }
        self.apply_skips(t, locate);
        if self.log_len > 2 * members + LOG_SLACK {
            for (pos, v) in live {
                let ja = &mut self.waiting[pos];
                ja.catch_up(&self.classes[ja.class as usize].log, view_eligible(v));
                ja.cursor = 0;
            }
            for c in &mut self.classes {
                c.log.clear();
            }
            self.log_len = 0;
        }
        self.notes.clear();
    }

    /// Skip notes override a frozen class's cause for one cycle. Last
    /// cycle's overrides lapse — the job is charged the skip and rejoins
    /// its class's cause as of `t` — unless this cycle's notes renew
    /// them; then this cycle's new overrides settle the job up to `t`
    /// under its class's cause and switch it to a policy skip.
    fn apply_skips(&mut self, t: SimTime, locate: impl Fn(JobId) -> Option<(usize, SimTime)>) {
        let frozen = Some(PendingCause::Freeze);
        for id in std::mem::take(&mut self.skipped) {
            let Some((pos, eligible)) = locate(id) else {
                continue; // started since
            };
            let ja = &mut self.waiting[pos];
            if !ja.skipped {
                continue; // resized since
            }
            let c = &self.classes[ja.class as usize];
            if c.cause == frozen && self.notes.skipped.contains(&id) {
                self.skipped.push(id);
                continue;
            }
            ja.step_to(t, eligible);
            ja.pending = c.cause.unwrap_or_default();
            ja.cursor = c.log.len() as u32;
            ja.skipped = false;
        }
        for &id in &self.notes.skipped {
            let Some((pos, eligible)) = locate(id) else {
                continue;
            };
            let ja = &mut self.waiting[pos];
            let c = &self.classes[ja.class as usize];
            if ja.skipped || c.cause != frozen {
                continue;
            }
            ja.catch_up(&c.log, eligible);
            ja.step_to(t, eligible);
            ja.pending = PendingCause::PolicySkip;
            ja.skipped = true;
            self.skipped.push(id);
        }
    }
}

/// The per-cycle pass the cause logs replaced, kept verbatim as the
/// differential oracle (armed by `Engine::enable_reference_attribution`).
#[cfg(feature = "reference-kernels")]
pub(crate) mod reference {
    use super::{view_eligible, work, AttrNotes, JobAttr, PendingCause, Regime};
    use crate::sched_api::JobView;
    use crate::time::SimTime;

    /// Charge the interval since the last cycle to each waiting job's
    /// pending cause, then reclassify why each job still waits for the
    /// interval that begins now. O(waiting) per cycle.
    pub(crate) fn attribute_cycle<'v>(
        t: SimTime,
        regime: &Regime,
        notes: &AttrNotes,
        live: impl Iterator<Item = (usize, &'v JobView)>,
        waiting: &mut [JobAttr],
    ) {
        let Regime {
            free,
            ded_procs,
            ecc_procs,
            mal_procs,
            blocker,
            freeze: _,
        } = *regime;
        for (pos, v) in live {
            let ja = &mut waiting[pos];
            ja.charge_until(t, view_eligible(v));
            // Capacity-style causes outrank policy causes: a job that
            // does not fit was not schedulable no matter what the
            // policy decided this cycle. Among the policy causes, a
            // deliberate skip outranks an ambient freeze window.
            let next = if v.num > free {
                if v.num <= free + ded_procs {
                    PendingCause::Dedicated
                } else if v.num <= free + ded_procs + ecc_procs {
                    PendingCause::Ecc
                } else if v.num <= free + ded_procs + ecc_procs + mal_procs {
                    PendingCause::Malleable
                } else {
                    PendingCause::Capacity(blocker)
                }
            } else if notes.skipped.contains(&v.id) {
                PendingCause::PolicySkip
            } else if notes.freeze {
                PendingCause::Freeze
            } else {
                PendingCause::PolicySkip
            };
            if next != ja.pending {
                work::cause_change();
            }
            ja.pending = next;
        }
    }
}

/// Work counters for the attribution work-bound test: charge steps
/// taken by the incremental pass, and per-job cause changes seen by the
/// [`reference`] pass. Counted per thread (an engine runs on its
/// caller's thread) and only where the reference pass is compiled;
/// elsewhere the hooks are empty.
pub mod work {
    #[cfg(feature = "reference-kernels")]
    use std::cell::Cell;

    /// Counts since the last [`take`] on this thread.
    #[cfg(feature = "reference-kernels")]
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WorkCounts {
        /// Per-job charge steps of the incremental pass.
        pub charge_steps: u64,
        /// Per-job cause changes the reference pass classified.
        pub cause_changes: u64,
    }

    #[cfg(feature = "reference-kernels")]
    thread_local! {
        static COUNTS: Cell<WorkCounts> = const {
            Cell::new(WorkCounts { charge_steps: 0, cause_changes: 0 })
        };
    }

    #[inline]
    pub(crate) fn charge_step() {
        #[cfg(feature = "reference-kernels")]
        COUNTS.with(|c| {
            let mut w = c.get();
            w.charge_steps += 1;
            c.set(w);
        });
    }

    #[cfg(feature = "reference-kernels")]
    pub(crate) fn cause_change() {
        COUNTS.with(|c| {
            let mut w = c.get();
            w.cause_changes += 1;
            c.set(w);
        });
    }

    /// Read and reset this thread's counts.
    #[cfg(feature = "reference-kernels")]
    pub fn take() -> WorkCounts {
        COUNTS.with(|c| c.replace(WorkCounts::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_telescope_to_the_full_wait() {
        let mut ja = JobAttr::new(SimTime::from_secs(10));
        let eligible = SimTime::from_secs(10);
        ja.pending = PendingCause::Capacity(JobId(7));
        ja.charge_until(SimTime::from_secs(40), eligible);
        ja.pending = PendingCause::PolicySkip;
        ja.charge_until(SimTime::from_secs(55), eligible);
        ja.pending = PendingCause::Freeze;
        ja.charge_until(SimTime::from_secs(60), eligible);
        assert_eq!(ja.attr.capacity_secs, 30);
        assert_eq!(ja.attr.policy_skip_secs, 15);
        assert_eq!(ja.attr.freeze_secs, 5);
        assert_eq!(ja.attr.total_secs(), 50);
        assert_eq!(ja.attr.lead_blocker, Some(7));
    }

    #[test]
    fn eligibility_clamp_skips_pre_eligible_spans() {
        // Dedicated job: submitted at 0, requested start 100. Waiting
        // before t=100 is not "wait" in the paper's sense.
        let mut ja = JobAttr::new(SimTime::ZERO);
        let eligible = SimTime::from_secs(100);
        ja.pending = PendingCause::Dedicated;
        ja.charge_until(SimTime::from_secs(50), eligible);
        assert_eq!(ja.attr.total_secs(), 0, "pre-eligible span never charged");
        ja.charge_until(SimTime::from_secs(130), eligible);
        assert_eq!(ja.attr.dedicated_secs, 30);
    }

    #[test]
    fn lead_blocker_majority_vote() {
        let mut ja = JobAttr::new(SimTime::ZERO);
        let e = SimTime::ZERO;
        ja.pending = PendingCause::Capacity(JobId(1));
        ja.charge_until(SimTime::from_secs(100), e);
        ja.pending = PendingCause::Capacity(JobId(2));
        ja.charge_until(SimTime::from_secs(130), e);
        ja.pending = PendingCause::Capacity(JobId(1));
        ja.charge_until(SimTime::from_secs(180), e);
        // 150s for job 1 vs 30s for job 2: job 1 survives the vote.
        assert_eq!(ja.attr.lead_blocker, Some(1));
        assert_eq!(ja.attr.capacity_secs, 180);
    }

    #[test]
    fn same_cause_charges_merge_exactly() {
        // The cause logs charge a run of same-cause cycles at once; that
        // is exact iff two consecutive same-cause charges equal one over
        // the joined span, for every lead state the vote can be in and
        // wherever eligibility falls.
        let leads = [
            None,
            Some((7, 0)),
            Some((3, 0)),
            Some((3, 2)),
            Some((3, 5)),
            Some((3, 9)),
        ];
        for lead in leads {
            for eligible in [0, 3, 5, 9, 20] {
                for s1 in 0..6u64 {
                    for s2 in 0..6u64 {
                        let mut start = JobAttr::new(SimTime::ZERO);
                        if let Some((job, secs)) = lead {
                            start.attr.lead_blocker = Some(job);
                            start.attr.lead_blocker_secs = secs;
                        }
                        start.pending = PendingCause::Capacity(JobId(7));
                        let e = SimTime::from_secs(eligible);
                        let (t1, t2) = (SimTime::from_secs(s1), SimTime::from_secs(s1 + s2));
                        let mut split = start;
                        split.charge_until(t1, e);
                        split.charge_until(t2, e);
                        let mut merged = start;
                        merged.charge_until(t2, e);
                        assert_eq!(split.attr, merged.attr, "{lead:?} e={eligible} {s1}+{s2}");
                    }
                }
            }
        }
    }

    fn regime(free: u32) -> Regime {
        Regime {
            free,
            ded_procs: 0,
            ecc_procs: 0,
            mal_procs: 0,
            blocker: JobId(1),
            freeze: false,
        }
    }

    #[test]
    fn classes_log_only_cause_changes() {
        let mut st = AttrState::default();
        let none = |_: JobId| None;
        let views = |_: ()| std::iter::empty();
        st.arrive(64, SimTime::ZERO);
        st.arrive(64, SimTime::ZERO);
        st.arrive(256, SimTime::ZERO);
        assert_eq!(st.classes.iter().filter(|c| c.members > 0).count(), 2);
        // Three cycles with the same regime log one entry per class.
        for t in [0, 10, 20] {
            st.cycle(SimTime::from_secs(t), &regime(128), views(()), none);
        }
        assert_eq!(st.log_len, 2);
        // Capacity frees up: only the wide class changes cause.
        st.cycle(SimTime::from_secs(30), &regime(320), views(()), none);
        assert_eq!(st.log_len, 3);
        // The narrow jobs waited 40s on policy; the wide one 30s on
        // capacity behind job 1, then 10s on policy.
        st.start(0, 0, SimTime::from_secs(40), SimTime::ZERO);
        st.start(2, 2, SimTime::from_secs(40), SimTime::ZERO);
        assert_eq!(st.started[0].policy_skip_secs, 40);
        assert_eq!(st.started[2].capacity_secs, 30);
        assert_eq!(st.started[2].policy_skip_secs, 10);
        assert_eq!(st.started[2].lead_blocker, Some(1));
        // The wide class emptied: its slot and log are free again.
        assert_eq!(st.log_len, 1);
        assert_eq!(st.classes.iter().filter(|c| c.members > 0).count(), 1);
    }

    #[test]
    fn cause_logs_stay_bounded_by_the_waiting_jobs() {
        // Capacity flips every cycle for a long-waiting pair of jobs:
        // the logs are truncated once they outgrow twice the waiting
        // jobs plus the slack, and the charges still telescope.
        let mut st = AttrState::default();
        st.arrive(64, SimTime::ZERO);
        st.arrive(128, SimTime::ZERO);
        let views = [
            JobView {
                id: JobId(1),
                num: 64,
                dur: crate::Duration::from_secs(1),
                submit: SimTime::ZERO,
                class: crate::JobClass::Batch,
            },
            JobView {
                id: JobId(2),
                num: 128,
                dur: crate::Duration::from_secs(1),
                submit: SimTime::ZERO,
                class: crate::JobClass::Batch,
            },
        ];
        for t in 0..1_000u64 {
            let free = if t % 2 == 0 { 0 } else { 320 };
            let live = views.iter().enumerate();
            st.cycle(SimTime::from_secs(t), &regime(free), live, |_| None);
            assert!(st.log_len <= 2 * 2 + LOG_SLACK + 2, "{} entries", st.log_len);
        }
        st.start(0, 0, SimTime::from_secs(1_000), SimTime::ZERO);
        assert_eq!(st.started[0].capacity_secs, 500);
        assert_eq!(st.started[0].policy_skip_secs, 500);
    }

    #[test]
    fn profile_fold_sums_and_counts_zero_waits() {
        let mut p = AttributionProfile::default();
        assert!(p.is_empty());
        let a = WaitAttribution {
            capacity_secs: 40,
            freeze_secs: 2,
            lead_blocker: Some(9),
            lead_blocker_secs: 40,
            ..Default::default()
        };
        p.fold(&a);
        p.fold(&WaitAttribution::default());
        assert_eq!(p.jobs, 2);
        assert_eq!(p.zero_wait_jobs, 1);
        assert_eq!(p.total_secs(), 42);
        assert_eq!(p.top_blockers, vec![BlockerShare { job: 9, secs: 40 }]);
        assert!(!p.is_empty());
    }

    #[test]
    fn top_blockers_stay_bounded() {
        let mut p = AttributionProfile::default();
        for i in 0..100u64 {
            let a = WaitAttribution {
                capacity_secs: 1,
                lead_blocker: Some(i % 20),
                lead_blocker_secs: 1,
                ..WaitAttribution::default()
            };
            p.fold(&a);
        }
        assert!(p.top_blockers.len() <= TOP_BLOCKERS);
        assert_eq!(p.jobs, 100);
    }

    #[test]
    fn profile_serde_round_trip() {
        let mut p = AttributionProfile::default();
        let a = WaitAttribution {
            capacity_secs: 10,
            policy_skip_secs: 5,
            lead_blocker: Some(3),
            lead_blocker_secs: 10,
            ..WaitAttribution::default()
        };
        p.fold(&a);
        let json = serde_json::to_string(&p).unwrap();
        let back: AttributionProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn notes_dedup_and_clear() {
        let mut n = AttrNotes::default();
        n.note_skip(JobId(4));
        n.note_skip(JobId(4));
        n.note_freeze();
        assert_eq!(n.skipped, vec![JobId(4)]);
        assert!(n.freeze);
        n.clear();
        assert!(n.skipped.is_empty());
        assert!(!n.freeze);
    }
}
