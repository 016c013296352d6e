//! `replay` and `observed`: archive-scale CWF traces, each run timed
//! from CWF text to `RunMetrics` the way `escli run` does it.
//!
//! Set-up generates the traces and writes them as CWF files into a
//! work directory beside this package, removed when the workload is
//! dropped. A repetition reads one trace set into memory (untimed) and
//! replays it, rotating through the sets so input variation averages
//! out within a run; only that set is resident, so the peak resident
//! set is the program's, not the corpus's. `observed` replays
//! `replay`'s batch traces with attribution and the timeline sampler
//! armed.

use crate::check;
use crate::harness::{Digests, Mode, SimCounts, Tally, Workload};
use crate::ledger::{self, Slot};
use crate::stats::{digest, Fnv};
use crate::wrap::{run_materialized, Observers};
use elastisched::MachineSpec;
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::TimelineConfig;
use elastisched_workload::{generate, CwfFile, GeneratorConfig, Workload as Jobs};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Jobs per trace.
pub const JOBS: usize = 32_000;
/// Offered load every trace is scaled to.
const LOAD: f64 = 0.9;
/// Trace sets generated per workload seed for `replay`: the per-set
/// cost varies up to 2× between sets (queue build-up at load 0.9), so
/// a run covers many of them.
const REPLAY_SETS: usize = 12;
/// Trace sets for `observed` (two runs per set instead of five).
const OBSERVED_SETS: usize = 24;
/// `escli run`'s default `C_s`.
const CS: u32 = 7;

/// The three trace kinds, as `escli generate` would make them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Rigid batch jobs.
    Batch,
    /// `--pd 0.3 --eccs`: dedicated jobs and elastic commands.
    Heterogeneous,
    /// `--pm 0.5`: half the jobs malleable.
    Malleable,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Batch => "batch",
            Kind::Heterogeneous => "heterogeneous",
            Kind::Malleable => "malleable",
        }
    }

    fn config(self) -> GeneratorConfig {
        let (pd, pm) = match self {
            Kind::Batch => (0.0, 0.0),
            Kind::Heterogeneous => (0.3, 0.0),
            Kind::Malleable => (0.0, 0.5),
        };
        let cfg = GeneratorConfig::paper_heterogeneous(0.5, pd)
            .with_jobs(JOBS)
            .with_malleable(pm);
        if self == Kind::Heterogeneous {
            cfg.with_paper_eccs()
        } else {
            cfg
        }
    }

    /// The stacks replayed on this kind of trace.
    fn stacks(self) -> Vec<StackSpec> {
        match self {
            Kind::Batch => vec![
                Algorithm::Easy.stack_spec(),
                Algorithm::DelayedLos.stack_spec(),
            ],
            Kind::Heterogeneous => vec![
                Algorithm::HybridLosE.stack_spec(),
                Algorithm::EasyDE.stack_spec(),
            ],
            Kind::Malleable => vec!["delayed-los+m".parse().expect("a valid stack spec")],
        }
    }
}

/// The generator seed of trace `kind` in set `set` for workload seed
/// `seed`: distinct per (seed, set, kind), and the program sees only
/// the generated trace.
pub fn trace_seed(seed: u64, set: usize, kind: Kind) -> u64 {
    Fnv::default()
        .text("perfbench trace")
        .word(seed)
        .word(set as u64)
        .text(kind.name())
        .finish()
}

struct Trace {
    set: usize,
    kind: Kind,
    path: PathBuf,
}

/// Generate one trace and serialize it to CWF text.
fn trace_text(seed: u64, set: usize, kind: Kind) -> String {
    let mut w = generate(&kind.config().with_seed(trace_seed(seed, set, kind)));
    w.scale_to_load(MachineSpec::BLUEGENE_P.total, LOAD);
    CwfFile::from_workload(&w).to_text()
}

/// A directory for one process's trace files, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Result<Self, String> {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"))
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other process uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn parse(text: &str) -> Result<Jobs, String> {
    CwfFile::parse(text)
        .map(|f| f.to_workload())
        .map_err(|e| format!("parsing: {e}"))
}

/// The `replay` and `observed` workloads.
pub struct ReplayBench {
    name: &'static str,
    sets: usize,
    traces: Vec<Trace>,
    /// Holds the trace files, removed with the workload.
    _dir: WorkDir,
    observers: Observers,
    /// Untraced run milliseconds per stack.
    by_stack: BTreeMap<String, Vec<f64>>,
}

/// Generate and write the traces `times` times; returns the workload
/// and each set-up's seconds.
pub fn setup(
    name: &'static str,
    seed: u64,
    times: usize,
) -> Result<(ReplayBench, Vec<f64>), String> {
    let (sets, kinds, observers) = match name {
        "observed" => (
            OBSERVED_SETS,
            vec![Kind::Batch],
            Observers {
                timeline: Some(TimelineConfig::default()),
                attribution: true,
            },
        ),
        _ => (
            REPLAY_SETS,
            vec![Kind::Batch, Kind::Heterogeneous, Kind::Malleable],
            Observers::default(),
        ),
    };
    let dir = WorkDir::new(name)?;
    let mut secs = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..times {
        traces.clear();
        let t0 = Instant::now();
        for set in 0..sets {
            for &kind in &kinds {
                let path = dir.0.join(format!("set{set}-{}.cwf", kind.name()));
                std::fs::write(&path, trace_text(seed, set, kind))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                traces.push(Trace { set, kind, path });
            }
        }
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        ReplayBench {
            name,
            sets,
            traces,
            _dir: dir,
            observers,
            by_stack: BTreeMap::new(),
        },
        secs,
    ))
}

impl ReplayBench {
    fn one(
        &mut self,
        tr: &Trace,
        text: &str,
        spec: StackSpec,
        mode: Mode,
        tally: &mut Tally,
        digests: &mut Digests,
    ) -> Result<(), String> {
        let traced = mode.traced();
        let observers = match mode {
            Mode::TracedDisarmed => Observers::default(),
            _ => self.observers,
        };
        let params = SchedParams::with_cs(CS);
        let machine = MachineSpec::BLUEGENE_P;
        let body = || -> Result<_, String> {
            let w = if traced {
                let w = ledger::span(Slot::Parse, || parse(text))?;
                let (jobs, items) = (w.jobs.len() as u64, (w.jobs.len() + w.eccs.len()) as u64);
                ledger::count(|c| {
                    c.items += items;
                    c.jobs_in += jobs;
                });
                w
            } else {
                parse(text)?
            };
            let (result, metrics) = run_materialized(spec, params, machine, observers, &w, traced)
                .map_err(|e| e.to_string())?;
            Ok((w, result, metrics))
        };
        let t0 = Instant::now();
        let (w, result, metrics) = if traced {
            ledger::span(Slot::Point, body)
        } else {
            body()
        }?;
        let secs = t0.elapsed().as_secs_f64();
        tally.measured_s += secs;
        tally.points += 1;
        let key = format!(
            "{}/set{}/{}/{}",
            self.name,
            tr.set,
            tr.kind.name(),
            metrics.scheduler
        );
        let mut checked = || {
            check::outcomes(&w.jobs, &result.outcomes)?;
            digests.check(&key, digest(&metrics))
        };
        if traced {
            ledger::span(Slot::Bench, checked)
        } else {
            checked()
        }?;
        tally.ok(
            key,
            secs * 1e3,
            metrics.jobs as u64,
            &SimCounts::of(&result),
        );
        if !traced {
            let key = format!("{} on {}", metrics.scheduler, tr.kind.name());
            self.by_stack.entry(key).or_default().push(secs * 1e3);
        }
        Ok(())
    }
}

impl Workload for ReplayBench {
    fn rep(&mut self, idx: usize, mode: Mode, tally: &mut Tally, digests: &mut Digests) {
        let set = self.class(idx);
        let traces = std::mem::take(&mut self.traces);
        for tr in traces.iter().filter(|t| t.set == set) {
            let text = match std::fs::read_to_string(&tr.path) {
                Ok(text) => text,
                Err(e) => {
                    tally.fail(format!("reading {}: {e}", tr.path.display()));
                    continue;
                }
            };
            for spec in tr.kind.stacks() {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    self.one(tr, &text, spec, mode, tally, digests)
                }))
                .unwrap_or_else(|_| Err("panicked".to_string()));
                if let Err(e) = r {
                    tally.fail(format!(
                        "{} set{} {} {spec}: {e}",
                        self.name,
                        tr.set,
                        tr.kind.name()
                    ));
                }
            }
        }
        self.traces = traces;
    }

    fn lines(&self) -> Vec<String> {
        self.by_stack
            .iter()
            .map(|(k, ms)| {
                format!(
                    "run_ms_mean {k}: {:.3} ms over {} runs",
                    crate::stats::mean(ms),
                    ms.len()
                )
            })
            .collect()
    }

    fn class(&self, idx: usize) -> usize {
        idx % self.sets
    }

    fn classes(&self) -> usize {
        self.sets
    }

    fn has_observers(&self) -> bool {
        self.observers.timeline.is_some() || self.observers.attribution
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_seeds_are_distinct_and_repeatable() {
        let a = trace_seed(7, 0, Kind::Batch);
        assert_eq!(a, trace_seed(7, 0, Kind::Batch));
        assert_ne!(a, trace_seed(8, 0, Kind::Batch));
        assert_ne!(a, trace_seed(7, 1, Kind::Batch));
        assert_ne!(a, trace_seed(7, 0, Kind::Malleable));
    }

    #[test]
    fn same_seed_same_trace_text() {
        let a = trace_text(11, 0, Kind::Heterogeneous);
        assert_eq!(a, trace_text(11, 0, Kind::Heterogeneous));
        assert_ne!(a, trace_text(12, 0, Kind::Heterogeneous));
        let w = parse(&a).unwrap();
        assert_eq!(w.jobs.len(), JOBS);
        assert!(w.jobs.iter().any(|j| j.class.is_dedicated()));
        assert!(!w.eccs.is_empty());
    }
}
