//! Waiting-queue data structures.
//!
//! * [`BatchQueue`] is the paper's `W^b`: a FIFO queue of waiting batch
//!   jobs, each carrying a skip count `scount` (the number of scheduling
//!   cycles in which the job sat at the head without being selected).
//! * [`DedicatedQueue`] is `W^d`: waiting dedicated jobs kept sorted by
//!   increasing requested start time.

use crate::freeze::Freeze;
use crate::stack::{ded_allows, ded_commit};
use elastisched_sim::{Duration, JobId, JobView, SimTime};
use std::collections::VecDeque;

/// A waiting batch job with its skip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingJob {
    /// The job's scheduler-facing attributes (`num`, `dur`, `arr`, …).
    pub view: JobView,
    /// `scount`: cycles this job was skipped while at the head.
    pub scount: u32,
}

impl WaitingJob {
    /// A freshly arrived job (`scount = 0`).
    pub fn new(view: JobView) -> Self {
        WaitingJob { view, scount: 0 }
    }
}

/// Jobs per [`BatchQueue`] chunk: the granularity at which a backfill or
/// candidate walk can skip the queue.
pub const CHUNK: usize = 64;

/// A run of at most [`CHUNK`] consecutive waiting jobs with lower bounds
/// on their `num` and `dur`.
///
/// The live jobs are `jobs[head..]`: popping the front only advances
/// `head`; the dead prefix takes front inserts and is reclaimed once the
/// storage is full.
/// Every insert lowers the bounds to cover the new job. A removal or a
/// widening ECC leaves them stale-low (still valid lower bounds); a full
/// scan by [`BatchQueue::backfill`] tightens them to the exact minima,
/// and one by [`BatchQueue::fitting`] that finds no fit raises `num`'s.
/// An empty chunk carries the `MAX` sentinels and is never tested.
#[derive(Debug, Clone)]
struct Chunk {
    jobs: Vec<WaitingJob>,
    head: usize,
    bound: Bound,
}

/// Lower bounds on the `num` and `dur` of a chunk's jobs.
#[derive(Debug, Clone, Copy)]
struct Bound {
    num: u32,
    dur: Duration,
}

impl Bound {
    /// The bound of no jobs.
    const EMPTY: Bound = Bound {
        num: u32::MAX,
        dur: Duration(u64::MAX),
    };

    /// The bound also covering a job of `num` × `dur`.
    fn cover(self, num: u32, dur: Duration) -> Bound {
        Bound {
            num: self.num.min(num),
            dur: self.dur.min(dur),
        }
    }
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            jobs: Vec::with_capacity(CHUNK),
            head: 0,
            bound: Bound::EMPTY,
        }
    }

    fn live(&self) -> &[WaitingJob] {
        &self.jobs[self.head..]
    }

    fn len(&self) -> usize {
        self.jobs.len() - self.head
    }

    /// Lower the bounds to cover a job of `num` × `dur`.
    fn cover(&mut self, num: u32, dur: Duration) {
        self.bound = self.bound.cover(num, dur);
    }

    /// Recompute the exact bounds of the live jobs.
    fn tighten(&mut self) {
        let live = self.live().iter();
        self.bound = live.fold(Bound::EMPTY, |b, w| b.cover(w.view.num, w.view.dur));
    }

    /// Make room for one more job, reclaiming the dead prefix when it is
    /// at least half the storage (so the move is amortized O(1) per
    /// push). False when the chunk is full of live jobs.
    fn has_room(&mut self) -> bool {
        if self.jobs.len() < CHUNK {
            return true;
        }
        if self.head < CHUNK / 2 {
            return false;
        }
        self.jobs.drain(..self.head);
        self.head = 0;
        true
    }

    /// Remove live job `j`, shifting whichever side of it is shorter.
    fn remove(&mut self, j: usize) -> WaitingJob {
        let at = self.head + j;
        if j >= self.len() / 2 {
            return self.jobs.remove(at);
        }
        let w = self.jobs[at];
        self.jobs.copy_within(self.head..at, self.head + 1);
        self.head += 1;
        w
    }

    fn clear(&mut self) {
        self.jobs.clear();
        self.head = 0;
        self.tighten();
    }
}

/// The thresholds of one EASY backfill pass over a [`BatchQueue`].
///
/// A job may start when it fits the free processors, does not delay the
/// head's reservation (it ends before `shadow.fret` or fits in the
/// extra capacity `shadow.frec` left at that time) and respects the
/// dedicated freeze, if any. Every start lowers `free`, `shadow.frec`
/// and the dedicated `frec`, so within one pass a job rejected once
/// stays rejected — the property that lets the walk skip whole chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backfill {
    /// The scheduling instant.
    pub now: SimTime,
    /// Processors free now.
    pub free: u32,
    /// The blocked head's reservation and the extra capacity left at it.
    pub shadow: Freeze,
    /// The dedicated freeze, when the pass runs under one (EASY-D).
    pub ded: Option<Freeze>,
}

impl Backfill {
    /// May a job of `num` processors × `dur` start now? Monotone: a
    /// smaller `num` or `dur` is never rejected where a larger one is
    /// admitted, so a chunk's lower bounds decide for the whole chunk.
    pub(crate) fn admits(&self, num: u32, dur: Duration) -> bool {
        num <= self.free
            && (!self.shadow.extends(self.now, dur) || num <= self.shadow.frec)
            && ded_allows(&self.ded, self.now, num, dur)
    }

    /// Charge a started job of `num` × `dur` against the thresholds.
    pub(crate) fn commit(&mut self, num: u32, dur: Duration) {
        self.free -= num;
        if self.shadow.extends(self.now, dur) {
            self.shadow.frec -= num;
        }
        ded_commit(&mut self.ded, self.now, num, dur);
    }
}

#[cfg(test)]
thread_local! {
    /// Chunk bounds plus jobs tested by [`BatchQueue::backfill`].
    static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_visit() {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + 1));
}

/// The FIFO queue of waiting batch jobs (`W^b`).
///
/// Stored as a deque of chunks of at most [`CHUNK`] jobs, each with lower
/// bounds on its jobs' `num` and `dur`, so a walk that wants only jobs
/// that can start now ([`Self::backfill`], [`Self::fitting`]) skips every
/// chunk whose bounds already rule it out. Only the sole chunk of an
/// otherwise empty queue may be empty; emptied chunks are recycled, so a
/// shallow queue lives in one chunk and never allocates.
#[derive(Debug, Clone)]
pub struct BatchQueue {
    chunks: VecDeque<Chunk>,
    spare: Vec<Chunk>,
    len: usize,
}

impl Default for BatchQueue {
    fn default() -> Self {
        let mut chunks = VecDeque::with_capacity(8);
        chunks.push_back(Chunk::new());
        BatchQueue {
            chunks,
            spare: Vec::new(),
            len: 0,
        }
    }
}

impl BatchQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting jobs `B`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a newly arrived job (FIFO order).
    pub fn push_back(&mut self, view: JobView) {
        let back = self.chunks.back_mut().expect("never chunkless");
        if !back.has_room() {
            let fresh = self.spare.pop().unwrap_or_else(Chunk::new);
            self.chunks.push_back(fresh);
        }
        let back = self.chunks.back_mut().expect("never chunkless");
        back.cover(view.num, view.dur);
        back.jobs.push(WaitingJob::new(view));
        self.len += 1;
    }

    /// Insert a job at the head of the queue with an explicit skip count —
    /// used by `Move_Dedicated_Head_To_Batch_Head` (Algorithm 3), which
    /// sets `scount = C_s` so the job starts as soon as capacity allows.
    pub fn push_front_with_scount(&mut self, view: JobView, scount: u32) {
        self.insert(0, WaitingJob { view, scount });
    }

    /// Insert a promoted dedicated job into the priority region at the
    /// front of the queue: after any leading dedicated jobs with an
    /// earlier-or-equal requested start, before everything else. This
    /// keeps repeatedly promoted dedicated jobs in requested-start order
    /// even when promotions happen in different scheduling cycles.
    pub fn insert_priority(&mut self, view: JobView, scount: u32) {
        let my_start = view.class.requested_start().unwrap_or(SimTime::ZERO);
        let mut pos = 0;
        for j in self.iter() {
            match j.view.class.requested_start() {
                Some(start) if start <= my_start => pos += 1,
                _ => break,
            }
        }
        self.insert(pos, WaitingJob { view, scount });
    }

    /// Insert `job` at position `pos` (≤ `len`): into the dead prefix when
    /// the chunk has one and the front side is the shorter move, else at
    /// the back, splitting a chunk full of live jobs first.
    fn insert(&mut self, pos: usize, job: WaitingJob) {
        let (mut k, mut j) = (0, pos);
        while j > self.chunks[k].len() {
            j -= self.chunks[k].len();
            k += 1;
        }
        let c = &mut self.chunks[k];
        if c.head > 0 && (j <= c.len() / 2 || c.jobs.len() == CHUNK) {
            c.head -= 1;
            c.jobs.copy_within(c.head + 1..c.head + 1 + j, c.head);
            c.jobs[c.head + j] = job;
        } else {
            if c.jobs.len() == CHUNK {
                let keep = CHUNK / 2;
                let mut tail = self.spare.pop().unwrap_or_else(Chunk::new);
                tail.jobs.extend(c.jobs.drain(keep..));
                c.tighten();
                tail.tighten();
                self.chunks.insert(k + 1, tail);
                if j > keep {
                    k += 1;
                    j -= keep;
                }
            }
            let c = &mut self.chunks[k];
            c.jobs.insert(c.head + j, job);
        }
        self.chunks[k].cover(job.view.num, job.view.dur);
        self.len += 1;
    }

    /// The head job `w_1^b`, if any.
    pub fn head(&self) -> Option<&WaitingJob> {
        let c = &self.chunks[0];
        c.jobs.get(c.head)
    }

    /// Mutable head access (for `scount++`). The head chunk's bounds drop
    /// to zero first, so they stay lower bounds whatever the caller
    /// changes; the next full scan tightens them again.
    pub fn head_mut(&mut self) -> Option<&mut WaitingJob> {
        let c = &mut self.chunks[0];
        if c.len() > 0 {
            c.cover(0, Duration::ZERO);
        }
        c.jobs.get_mut(c.head)
    }

    /// Remove and return the head job.
    pub fn pop_head(&mut self) -> Option<WaitingJob> {
        let c = &mut self.chunks[0];
        let w = *c.jobs.get(c.head)?;
        c.head += 1;
        self.len -= 1;
        if c.len() == 0 {
            self.release(0);
        }
        Some(w)
    }

    /// Iterate in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &WaitingJob> {
        self.chunks.iter().flat_map(Chunk::live)
    }

    /// The LOS-family candidate scan: call `take(position, job)`, in FIFO
    /// order, for the first `limit` jobs at positions ≥ `from` that fit
    /// in `free` processors. Chunks whose `num` bound exceeds `free` are
    /// skipped, and a chunk scanned whole without a fit raises its bound
    /// above `free`, so the next scan at the same or a smaller `free`
    /// skips it.
    pub fn fitting(
        &mut self,
        from: usize,
        free: u32,
        limit: usize,
        mut take: impl FnMut(usize, &WaitingJob),
    ) {
        let (mut base, mut skip, mut taken) = (0, from, 0);
        for c in self.chunks.iter_mut() {
            let len = c.len();
            if taken == limit {
                return;
            }
            if skip >= len || c.bound.num > free {
                base += len;
                skip = skip.saturating_sub(len);
                continue;
            }
            let before = taken;
            for (j, w) in c.live()[skip..].iter().enumerate() {
                if w.view.num <= free {
                    take(base + skip + j, w);
                    taken += 1;
                    if taken == limit {
                        return;
                    }
                }
            }
            if skip == 0 && taken == before {
                // Every job here is wider than `free`.
                c.bound.num = c.bound.num.max(free.saturating_add(1));
            }
            base += len;
            skip = 0;
        }
    }

    /// Chunk index and offset of position `i`, if it holds a job.
    fn locate(&self, i: usize) -> Option<(usize, usize)> {
        if i >= self.len {
            return None;
        }
        let mut j = i;
        for (k, c) in self.chunks.iter().enumerate() {
            if j < c.len() {
                return Some((k, j));
            }
            j -= c.len();
        }
        unreachable!("position below len lies in some chunk")
    }

    /// The job at position `i` (0 = head), if any.
    pub fn get(&self, i: usize) -> Option<&WaitingJob> {
        let (k, j) = self.locate(i)?;
        Some(&self.chunks[k].live()[j])
    }

    /// Remove and return the job at position `i`, preserving FIFO order
    /// of the rest.
    pub fn remove_at(&mut self, i: usize) -> Option<WaitingJob> {
        let (k, j) = self.locate(i)?;
        Some(self.remove_in(k, j))
    }

    /// Remove one job by id; returns it if present.
    pub fn remove(&mut self, id: JobId) -> Option<WaitingJob> {
        let (k, j) = self.find(id)?;
        Some(self.remove_in(k, j))
    }

    fn find(&self, id: JobId) -> Option<(usize, usize)> {
        self.chunks.iter().enumerate().find_map(|(k, c)| {
            let j = c.live().iter().position(|w| w.view.id == id)?;
            Some((k, j))
        })
    }

    fn remove_in(&mut self, k: usize, j: usize) -> WaitingJob {
        let w = self.chunks[k].remove(j);
        self.len -= 1;
        if self.chunks[k].len() == 0 {
            self.release(k);
        }
        w
    }

    /// Recycle emptied chunk `k`, keeping at least one chunk.
    fn release(&mut self, k: usize) {
        if self.chunks.len() == 1 {
            self.chunks[k].clear();
        } else {
            let mut c = self.chunks.remove(k).expect("index in range");
            c.clear();
            self.spare.push(c);
        }
    }

    /// Update a queued job after an Elastic Control Command changed its
    /// requirements. Returns true if the job was found.
    pub fn apply_ecc(&mut self, id: JobId, num: u32, dur: Duration) -> bool {
        let Some((k, j)) = self.find(id) else {
            return false;
        };
        let c = &mut self.chunks[k];
        let w = &mut c.jobs[c.head + j];
        w.view.num = num;
        w.view.dur = dur;
        c.cover(num, dur);
        true
    }

    /// One EASY backfill walk: in FIFO order over positions ≥ 1 (the head
    /// holds the reservation), start every job `pass` admits — `start`
    /// is called with it, then it is charged to `pass` and removed.
    ///
    /// Chunks whose bounds `pass` rejects are skipped without looking at
    /// their jobs. The thresholds only fall during the walk, so a skipped
    /// job is exactly one the linear walk would have rejected: the starts
    /// and their order are the linear walk's. Each fully scanned chunk
    /// gets exact bounds for the next walk.
    pub fn backfill(&mut self, pass: &mut Backfill, mut start: impl FnMut(&WaitingJob)) {
        let (mut k, mut from) = (0, 1);
        while k < self.chunks.len() {
            count_visit();
            let c = &mut self.chunks[k];
            if c.len() <= from || !pass.admits(c.bound.num, c.bound.dur) {
                k += 1;
                from = 0;
                continue;
            }
            let mut j = from;
            while j < c.len() {
                count_visit();
                let w = c.live()[j];
                if pass.admits(w.view.num, w.view.dur) {
                    start(&w);
                    pass.commit(w.view.num, w.view.dur);
                    c.remove(j);
                    self.len -= 1;
                } else {
                    j += 1;
                }
            }
            from = 0;
            if c.len() == 0 {
                self.release(k);
            } else {
                c.tighten();
                k += 1;
            }
        }
    }

    /// FIFO invariant: arrival times are non-decreasing, except where a
    /// dedicated job was explicitly promoted to the head.
    #[cfg(test)]
    pub fn check_fifo(&self) {
        for w in self
            .iter()
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| !w[0].view.class.is_dedicated() && !w[1].view.class.is_dedicated())
        {
            assert!(w[0].view.submit <= w[1].view.submit, "batch queue not FIFO");
        }
    }
}

/// The sorted list of waiting dedicated jobs (`W^d`).
///
/// Backed by a `VecDeque` so the common consumption pattern — pop the
/// earliest-start head once its time arrives — is O(1) instead of
/// sliding the whole tail down.
#[derive(Debug, Clone, Default)]
pub struct DedicatedQueue {
    jobs: VecDeque<JobView>,
}

impl DedicatedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting dedicated jobs `D`.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn key(v: &JobView) -> (SimTime, SimTime, JobId) {
        (
            v.class.requested_start().unwrap_or(SimTime::ZERO),
            v.submit,
            v.id,
        )
    }

    /// Insert keeping the sort order
    /// `w_1^d.start ≤ w_2^d.start ≤ … ≤ w_D^d.start`.
    pub fn insert(&mut self, view: JobView) {
        debug_assert!(view.class.is_dedicated(), "batch job in dedicated queue");
        let pos = self
            .jobs
            .partition_point(|j| Self::key(j) < Self::key(&view));
        self.jobs.insert(pos, view);
    }

    /// The head `w_1^d` (earliest requested start), if any.
    pub fn head(&self) -> Option<&JobView> {
        self.jobs.front()
    }

    /// Remove and return the head.
    pub fn pop_head(&mut self) -> Option<JobView> {
        self.jobs.pop_front()
    }

    /// Iterate in increasing requested-start order.
    pub fn iter(&self) -> impl Iterator<Item = &JobView> {
        self.jobs.iter()
    }

    /// Total processors requested by dedicated jobs whose requested start
    /// equals `start` (the paper's `tot_start_num`, Algorithm 2 line 16).
    /// The queue is sorted by requested start, so the scan stops at the
    /// first later start instead of filtering the whole queue.
    pub fn total_num_at_start(&self, start: SimTime) -> u32 {
        let mut tot = 0;
        for j in &self.jobs {
            let Some(s) = j.class.requested_start() else {
                continue;
            };
            if s < start {
                continue;
            }
            if s > start {
                break;
            }
            tot += j.num;
        }
        tot
    }

    /// Update a queued dedicated job after an ECC. Returns true if found.
    pub fn apply_ecc(&mut self, id: JobId, num: u32, dur: Duration) -> bool {
        match self.jobs.iter_mut().find(|j| j.id == id) {
            Some(j) => {
                j.num = num;
                j.dur = dur;
                true
            }
            None => false,
        }
    }
}

/// The single-`VecDeque` batch queue and the linear EASY backfill walk
/// that [`BatchQueue`] replaced, kept as a differential oracle
/// (`tests/queue_differential.rs`).
#[cfg(any(test, feature = "reference-kernels"))]
pub mod reference {
    use super::{Backfill, WaitingJob};
    use elastisched_sim::{Duration, JobId, JobView, SimTime};
    use std::collections::VecDeque;

    /// The FIFO queue of waiting batch jobs as one flat ring buffer.
    #[derive(Debug, Clone, Default)]
    pub struct LinearBatchQueue {
        jobs: VecDeque<WaitingJob>,
    }

    impl LinearBatchQueue {
        /// An empty queue.
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of waiting jobs.
        pub fn len(&self) -> usize {
            self.jobs.len()
        }

        /// True when empty.
        pub fn is_empty(&self) -> bool {
            self.jobs.is_empty()
        }

        /// Append a newly arrived job.
        pub fn push_back(&mut self, view: JobView) {
            self.jobs.push_back(WaitingJob::new(view));
        }

        /// Insert a promoted dedicated job after the leading dedicated
        /// jobs with an earlier-or-equal requested start.
        pub fn insert_priority(&mut self, view: JobView, scount: u32) {
            let my_start = view.class.requested_start().unwrap_or(SimTime::ZERO);
            let mut pos = 0;
            for j in &self.jobs {
                match j.view.class.requested_start() {
                    Some(start) if start <= my_start => pos += 1,
                    _ => break,
                }
            }
            self.jobs.insert(pos, WaitingJob { view, scount });
        }

        /// The head job, if any.
        pub fn head(&self) -> Option<&WaitingJob> {
            self.jobs.front()
        }

        /// Mutable head access.
        pub fn head_mut(&mut self) -> Option<&mut WaitingJob> {
            self.jobs.front_mut()
        }

        /// Remove and return the head job.
        pub fn pop_head(&mut self) -> Option<WaitingJob> {
            self.jobs.pop_front()
        }

        /// Iterate in FIFO order.
        pub fn iter(&self) -> impl Iterator<Item = &WaitingJob> {
            self.jobs.iter()
        }

        /// The first `limit` jobs at positions ≥ `from` that fit in
        /// `free` processors, passed to `take` in FIFO order.
        pub fn fitting(
            &mut self,
            from: usize,
            free: u32,
            limit: usize,
            mut take: impl FnMut(usize, &WaitingJob),
        ) {
            let fits = self.jobs.iter().enumerate().skip(from).filter(|(_, w)| w.view.num <= free);
            for (pos, w) in fits.take(limit) {
                take(pos, w);
            }
        }

        /// The job at position `i`, if any.
        pub fn get(&self, i: usize) -> Option<&WaitingJob> {
            self.jobs.get(i)
        }

        /// Remove and return the job at position `i`.
        pub fn remove_at(&mut self, i: usize) -> Option<WaitingJob> {
            self.jobs.remove(i)
        }

        /// Remove one job by id.
        pub fn remove(&mut self, id: JobId) -> Option<WaitingJob> {
            let pos = self.jobs.iter().position(|j| j.view.id == id)?;
            self.jobs.remove(pos)
        }

        /// Update a queued job's requirements after an ECC.
        pub fn apply_ecc(&mut self, id: JobId, num: u32, dur: Duration) -> bool {
            match self.jobs.iter_mut().find(|j| j.view.id == id) {
                Some(j) => {
                    j.view.num = num;
                    j.view.dur = dur;
                    true
                }
                None => false,
            }
        }

        /// The linear EASY backfill walk: test every job at positions ≥ 1
        /// in FIFO order, starting (and removing) each one `pass` admits.
        pub fn backfill(&mut self, pass: &mut Backfill, mut start: impl FnMut(&WaitingJob)) {
            let mut i = 1;
            while let Some(w) = self.jobs.get(i) {
                let (num, dur) = (w.view.num, w.view.dur);
                if !pass.admits(num, dur) {
                    i += 1;
                    continue;
                }
                start(w);
                pass.commit(num, dur);
                self.jobs.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::JobClass;

    fn batch_view(id: u64, submit: u64, num: u32, dur: u64) -> JobView {
        JobView {
            id: JobId(id),
            num,
            dur: Duration::from_secs(dur),
            submit: SimTime::from_secs(submit),
            class: JobClass::Batch,
        }
    }

    fn ded_view(id: u64, submit: u64, num: u32, dur: u64, start: u64) -> JobView {
        JobView {
            id: JobId(id),
            num,
            dur: Duration::from_secs(dur),
            submit: SimTime::from_secs(submit),
            class: JobClass::Dedicated {
                requested_start: SimTime::from_secs(start),
            },
        }
    }

    #[test]
    fn batch_queue_is_fifo() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_back(batch_view(2, 5, 64, 10));
        q.push_back(batch_view(3, 9, 96, 10));
        q.check_fifo();
        assert_eq!(q.pop_head().unwrap().view.id, JobId(1));
        assert_eq!(q.head().unwrap().view.id, JobId(2));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn push_front_with_scount_takes_head() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_front_with_scount(ded_view(9, 0, 64, 10, 100), 5);
        let h = q.head().unwrap();
        assert_eq!(h.view.id, JobId(9));
        assert_eq!(h.scount, 5);
    }

    #[test]
    fn batch_apply_ecc_updates_view() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        assert!(q.apply_ecc(JobId(1), 64, Duration::from_secs(99)));
        let h = q.head().unwrap();
        assert_eq!(h.view.num, 64);
        assert_eq!(h.view.dur, Duration::from_secs(99));
        assert!(!q.apply_ecc(JobId(7), 32, Duration::from_secs(1)));
    }

    #[test]
    fn remove_by_id() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.push_back(batch_view(2, 5, 64, 10));
        assert_eq!(q.remove(JobId(2)).unwrap().view.id, JobId(2));
        assert!(q.remove(JobId(2)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn scount_increment_via_head_mut() {
        let mut q = BatchQueue::new();
        q.push_back(batch_view(1, 0, 32, 10));
        q.head_mut().unwrap().scount += 1;
        assert_eq!(q.head().unwrap().scount, 1);
    }

    #[test]
    fn backfill_walk_skips_chunks_nothing_in_can_start() {
        // A narrow head keeps the first chunk's bounds admissible, so
        // that chunk is scanned; every other chunk holds only jobs wider
        // than the free pool and must be skipped on its bounds alone.
        let mut q = BatchQueue::new();
        q.push_back(batch_view(0, 0, 32, 10));
        for id in 1..65_536 {
            q.push_back(batch_view(id, id, 64, 10));
        }
        let mut pass = Backfill {
            now: SimTime::ZERO,
            free: 32,
            shadow: Freeze {
                fret: SimTime::from_secs(100),
                frec: 32,
            },
            ded: None,
        };
        VISITS.with(|v| v.set(0));
        let mut started = 0;
        q.backfill(&mut pass, |_| started += 1);
        let visits = VISITS.with(|v| v.get());
        assert_eq!(started, 0);
        assert_eq!(q.len(), 65_536);
        assert!(
            visits <= q.len() / CHUNK + CHUNK,
            "{visits} visits for {} jobs",
            q.len()
        );
    }

    #[test]
    fn dedicated_queue_sorts_by_start() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 300));
        q.insert(ded_view(2, 1, 32, 10, 100));
        q.insert(ded_view(3, 2, 32, 10, 200));
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(q.pop_head().unwrap().id, JobId(2));
    }

    #[test]
    fn dedicated_ties_broken_by_submit_then_id() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(5, 10, 32, 10, 100));
        q.insert(ded_view(2, 10, 32, 10, 100));
        q.insert(ded_view(3, 5, 32, 10, 100));
        let order: Vec<u64> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![3, 2, 5]);
    }

    #[test]
    fn total_num_at_start_sums_equal_starts() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 100));
        q.insert(ded_view(2, 0, 64, 10, 100));
        q.insert(ded_view(3, 0, 96, 10, 200));
        assert_eq!(q.total_num_at_start(SimTime::from_secs(100)), 96);
        assert_eq!(q.total_num_at_start(SimTime::from_secs(200)), 96);
        assert_eq!(q.total_num_at_start(SimTime::from_secs(999)), 0);
    }

    #[test]
    fn dedicated_apply_ecc() {
        let mut q = DedicatedQueue::new();
        q.insert(ded_view(1, 0, 32, 10, 100));
        assert!(q.apply_ecc(JobId(1), 96, Duration::from_secs(77)));
        assert_eq!(q.head().unwrap().num, 96);
    }
}
