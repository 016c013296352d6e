//! `soak`: 10⁶ Lublin jobs streamed through Delayed-LOS-E into the
//! bounded accumulator, in `repro soak`'s posture (timeline sampler
//! on), so peak memory follows live jobs rather than trace length.

use crate::check::{self, Checked};
use crate::harness::{Digests, Mode, SimCounts, Tally, Workload};
use crate::ledger::{self, Slot};
use crate::stats::digest;
use crate::wrap::{build_timed, TimedSource};
use elastisched::MachineSpec;
use elastisched_metrics::{RunAccumulator, RunMetrics};
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_sim::{Engine, JobSource, SimResult, SourceItem, TimelineConfig};
use elastisched_workload::load::offered_load;
use elastisched_workload::{GeneratorConfig, LublinSource, ScaleArrivals, TakeJobs};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Jobs per soak run.
pub const JOBS: usize = 1_000_000;
/// Jobs in the set-up's warm-up stream.
const WARMUP_JOBS: usize = 20_000;
const LOAD: f64 = 0.8;
const ALGO: Algorithm = Algorithm::DelayedLosE;

/// `repro soak`'s traffic model (the paper's batch mix with elastic
/// commands), seeded by the workload seed.
fn config(seed: u64, jobs: usize) -> GeneratorConfig {
    GeneratorConfig::paper_batch(0.5)
        .with_paper_eccs()
        .with_jobs(jobs)
        .with_seed(seed)
}

/// The `soak` workload.
pub struct SoakBench {
    seed: u64,
    factor: f64,
}

/// Fit the arrival scale factor and warm up, `times` times.
pub fn setup(seed: u64, times: usize) -> (SoakBench, Vec<f64>, Tally) {
    let mut secs = Vec::new();
    let mut factor = 1.0;
    let mut tally = Tally::default();
    for _ in 0..times {
        let t0 = Instant::now();
        factor = fit_factor(seed);
        let warm = stream(seed, factor, WARMUP_JOBS, false);
        secs.push(t0.elapsed().as_secs_f64());
        tally.check(warm.map(|_| ()));
    }
    (SoakBench { seed, factor }, secs, tally)
}

/// The arrival scale factor that puts the whole `JOBS`-job stream at
/// [`LOAD`], computed by streaming the source once (bounded memory).
fn fit_factor(seed: u64) -> f64 {
    let mut source = TakeJobs::new(LublinSource::unbounded(&config(seed, JOBS)), JOBS);
    let jobs = std::iter::from_fn(|| source.next_item()).filter_map(|item| match item {
        SourceItem::Job(j) => Some((f64::from(j.num), j.actual.as_secs_f64(), j.submit.as_secs())),
        SourceItem::Ecc(_) => None,
    });
    offered_load(jobs, MachineSpec::BLUEGENE_P.total) / LOAD
}

/// Stream `jobs` jobs through a fresh engine; returns the result, the
/// metrics and the host seconds from the first pull to `RunMetrics`.
fn stream(
    seed: u64,
    factor: f64,
    jobs: usize,
    traced: bool,
) -> Result<(SimResult, RunMetrics, f64), String> {
    let check = RefCell::new(check::Stream::default());
    let source = ScaleArrivals::new(
        TakeJobs::new(LublinSource::unbounded(&config(seed, jobs)), jobs),
        factor,
    );
    let machine = MachineSpec::BLUEGENE_P.build();
    let params = SchedParams::default();
    let mut acc = RunAccumulator::bounded();
    let t0 = Instant::now();
    let (result, metrics) = if traced {
        let mut engine = Engine::new(
            machine,
            build_timed(ALGO.stack_spec(), params),
            ALGO.ecc_policy(),
        );
        engine.enable_timeline(TimelineConfig::default());
        let source = TimedSource(Checked {
            inner: source,
            check: &check,
        });
        let result = ledger::span(Slot::Sim, || {
            engine.run_streaming_folded(source, &mut |o| {
                check.borrow_mut().complete(o);
                ledger::span(Slot::Fold, || acc.record(o));
            })
        })
        .map_err(|e| e.to_string())?;
        let metrics = ledger::span(Slot::Fold, || acc.finish(&result));
        ledger::count(|c| c.jobs_folded += metrics.jobs as u64);
        (result, metrics)
    } else {
        let mut engine = Engine::new(machine, ALGO.build(params), ALGO.ecc_policy());
        engine.enable_timeline(TimelineConfig::default());
        let source = Checked {
            inner: source,
            check: &check,
        };
        let result = engine
            .run_streaming_folded(source, &mut |o| {
                check.borrow_mut().complete(o);
                acc.record(o);
            })
            .map_err(|e| e.to_string())?;
        let metrics = acc.finish(&result);
        (result, metrics)
    };
    let secs = t0.elapsed().as_secs_f64();
    let done = check.into_inner().finish()?;
    if done != jobs as u64 || metrics.jobs != jobs {
        return Err(format!("{jobs} jobs streamed but {done} completed"));
    }
    Ok((result, metrics, secs))
}

impl Workload for SoakBench {
    fn rep(&mut self, _idx: usize, mode: Mode, tally: &mut Tally, digests: &mut Digests) {
        let traced = mode.traced();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                ledger::span(Slot::Point, || stream(self.seed, self.factor, JOBS, true))
            } else {
                stream(self.seed, self.factor, JOBS, false)
            }
        }))
        .unwrap_or_else(|_| Err("panicked".to_string()));
        let checked = run.and_then(|(result, metrics, secs)| {
            let key = format!("soak/{}", metrics.scheduler);
            digests.check(&key, digest(&metrics))?;
            Ok((key, result, metrics, secs))
        });
        match checked {
            Ok((key, result, metrics, secs)) => {
                tally.measured_s += secs;
                tally.points += 1;
                tally.ok(
                    key,
                    secs * 1e3,
                    metrics.jobs as u64,
                    &SimCounts::of(&result),
                );
            }
            Err(e) => tally.fail(format!("soak: {e}")),
        }
    }
}
