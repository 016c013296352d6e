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
//!   shortfall is held by ordinary running batch jobs. The largest
//!   current allocation is recorded as the *lead blocker*.
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
//! Classification happens once per scheduler cycle (after the policy
//! ran) and the *next* interval is charged to that cause when the next
//! cycle — or the job's start — arrives. Since every charge happens at
//! a cycle instant and intervals telescope, the invariant
//! `sum(causes) == total wait` holds exactly; the `audit` feature
//! promotes it to a per-completion hard check.
//!
//! [`JobSpec::eligible_at`]: crate::JobSpec::eligible_at

use crate::job::JobId;
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

/// Engine-side attribution state: the per-job accumulators, the run
/// profile, and the policy's per-cycle notes. Boxed behind an `Option`
/// on the engine so the disabled path costs one branch per cycle.
#[derive(Debug, Default)]
pub(crate) struct AttrState {
    /// Accumulators of waiting jobs, index-parallel to the engine's
    /// waiting-job views (and compacted with them), so the per-cycle pass
    /// is a dense scan.
    pub waiting: Vec<JobAttr>,
    /// Final buckets of started jobs, parallel to the record slab, from
    /// start until the completion folds them into `profile`.
    pub started: Vec<WaitAttribution>,
    pub profile: AttributionProfile,
    pub notes: AttrNotes,
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
