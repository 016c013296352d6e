//! Output checks every run must pass, from its `JobOutcome`s: each
//! submitted job completes exactly once and starts no earlier than its
//! submission.

use elastisched_sim::{JobOutcome, JobSource, JobSpec, SourceItem};
use std::cell::RefCell;
use std::collections::HashMap;

/// Check a materialized run's outcomes against the jobs it was given.
pub fn outcomes(jobs: &[JobSpec], outcomes: &[JobOutcome]) -> Result<(), String> {
    let mut pending: HashMap<u64, bool> = HashMap::with_capacity(jobs.len());
    for j in jobs {
        if pending.insert(j.id.0, false).is_some() {
            return Err(format!("input holds job {} twice", j.id.0));
        }
    }
    for o in outcomes {
        match pending.get_mut(&o.id.0) {
            None => return Err(format!("job {} completed but was never submitted", o.id.0)),
            Some(true) => return Err(format!("job {} completed twice", o.id.0)),
            Some(done) => *done = true,
        }
        if o.started < o.submit {
            return Err(format!("job {} started before its submission", o.id.0));
        }
    }
    match pending.iter().find(|(_, done)| !**done) {
        Some((id, _)) => Err(format!("job {id} never completed")),
        None => Ok(()),
    }
}

/// A growable bitset over job ids, so a 10⁶-job stream is checked in
/// O(jobs / 8) bytes.
#[derive(Default)]
struct Bits(Vec<u64>);

impl Bits {
    /// Set bit `i`, returning whether it was already set.
    fn set(&mut self, i: u64) -> bool {
        let (word, bit) = ((i / 64) as usize, i % 64);
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let was = self.0[word] >> bit & 1 == 1;
        self.0[word] |= 1 << bit;
        was
    }

    fn get(&self, i: u64) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// The same checks for a streamed run, fed as the run goes: submissions
/// by [`Checked`] on the source side, completions from the fold.
#[derive(Default)]
pub struct Stream {
    submitted: Bits,
    completed: Bits,
    n_submitted: u64,
    n_completed: u64,
    first_error: Option<String>,
}

impl Stream {
    fn error(&mut self, msg: String) {
        self.first_error.get_or_insert(msg);
    }

    /// A job entered the stream.
    pub fn submit(&mut self, id: u64) {
        self.n_submitted += 1;
        if self.submitted.set(id) {
            self.error(format!("stream holds job {id} twice"));
        }
    }

    /// A job completed.
    pub fn complete(&mut self, o: &JobOutcome) {
        let id = o.id.0;
        self.n_completed += 1;
        if !self.submitted.get(id) {
            self.error(format!("job {id} completed but was never submitted"));
        }
        if self.completed.set(id) {
            self.error(format!("job {id} completed twice"));
        }
        if o.started < o.submit {
            self.error(format!("job {id} started before its submission"));
        }
    }

    /// The verdict once the run has ended.
    pub fn finish(self) -> Result<u64, String> {
        if let Some(e) = self.first_error {
            return Err(e);
        }
        if self.n_completed != self.n_submitted {
            return Err(format!(
                "{} jobs submitted but {} completed",
                self.n_submitted, self.n_completed
            ));
        }
        Ok(self.n_completed)
    }
}

/// A source adapter recording each submitted job into a [`Stream`].
pub struct Checked<'a, S> {
    /// The wrapped source.
    pub inner: S,
    /// Where submissions are recorded.
    pub check: &'a RefCell<Stream>,
}

impl<S: JobSource> JobSource for Checked<'_, S> {
    fn next_item(&mut self) -> Option<SourceItem> {
        let item = self.inner.next_item();
        if let Some(SourceItem::Job(j)) = &item {
            self.check.borrow_mut().submit(j.id.0);
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastisched_sim::{Duration, JobId, SimTime};

    fn outcome(id: u64, submit: u64, started: u64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submit: SimTime::from_secs(submit),
            requested_start: None,
            started: SimTime::from_secs(started),
            finished: SimTime::from_secs(started + 10),
            num: 32,
            runtime: Duration::from_secs(10),
            wait: Duration::from_secs(started - submit.min(started)),
            attribution: None,
        }
    }

    #[test]
    fn materialized_checks() {
        let jobs = [JobSpec::batch(1, 0, 32, 10), JobSpec::batch(2, 5, 32, 10)];
        assert!(outcomes(&jobs, &[outcome(2, 5, 5), outcome(1, 0, 3)]).is_ok());
        assert!(outcomes(&jobs, &[outcome(1, 0, 0)])
            .unwrap_err()
            .contains("never completed"));
        let twice = [outcome(1, 0, 0), outcome(1, 0, 0), outcome(2, 5, 5)];
        assert!(outcomes(&jobs, &twice).unwrap_err().contains("twice"));
        let early = [outcome(1, 0, 0), outcome(2, 5, 4)];
        assert!(outcomes(&jobs, &early).unwrap_err().contains("before"));
        let stranger = [outcome(1, 0, 0), outcome(2, 5, 5), outcome(9, 0, 0)];
        assert!(outcomes(&jobs, &stranger)
            .unwrap_err()
            .contains("never submitted"));
    }

    #[test]
    fn stream_checks() {
        let mut s = Stream::default();
        s.submit(1);
        s.submit(200);
        s.complete(&outcome(200, 0, 1));
        s.complete(&outcome(1, 0, 0));
        assert_eq!(s.finish(), Ok(2));

        let mut s = Stream::default();
        s.submit(1);
        s.submit(2);
        s.complete(&outcome(1, 0, 0));
        assert!(s.finish().unwrap_err().contains("2 jobs submitted but 1"));

        let mut s = Stream::default();
        s.submit(1);
        s.complete(&outcome(1, 0, 0));
        s.complete(&outcome(1, 0, 0));
        assert!(s.finish().unwrap_err().contains("twice"));

        let mut s = Stream::default();
        s.complete(&outcome(64, 0, 0));
        assert!(s.finish().unwrap_err().contains("never submitted"));
    }
}
