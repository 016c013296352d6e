//! `campaign`: the computations of `repro all` at the paper's settings.
//!
//! The measured section of a repetition is one pass of the real figure,
//! table and study functions (what `repro all` prints, without writing
//! files), checked for dropped points, shape and repeatable output. The
//! same campaign then runs untimed as a grid of sweep points — every
//! workload generation and every simulation the figures perform, fanned
//! out through `try_parallel_map` stage by stage as the figures do — so
//! each run can be timed, checked and digested. The grid's per-point
//! metrics, averaged the way the figures average them, must equal the
//! pass's figures bit for bit: a dropped or altered replication shows up
//! as a mismatch. The traced pass runs the grid through the wrappers.

use crate::check;
use crate::harness::{Digests, Mode, SimCounts, Tally, Workload};
use crate::ledger::{self, Slot};
use crate::stats::digest;
use crate::wrap::{run_materialized, Observers};
use elastisched::contiguity::{self, ContiguityPoint, ContiguityStudy};
use elastisched::figures::{self, default_cs_for_ps, Figure, ImprovementTable, ReproConfig};
use elastisched::report::{figure_to_text, table_to_text};
use elastisched::{calibrated_workload, try_parallel_map, MachineSpec, SeriesPoint};
use elastisched_sched::{Algorithm, SchedParams};
use elastisched_sim::JobOutcome;
use elastisched_workload::{GeneratorConfig, Workload as Jobs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Panics seen anywhere in the process (counted by the hook `main`
/// installs): `figures` catches a panicking point and drops it, so this
/// is how set-up notices.
pub static PANICS: AtomicU64 = AtomicU64::new(0);

const BGP: MachineSpec = MachineSpec::BLUEGENE_P;

/// One calibrated workload generation.
#[derive(Debug, Clone, Copy)]
struct Gen {
    base: GeneratorConfig,
    machine: MachineSpec,
    load: f64,
    seed: u64,
}

impl Gen {
    fn make(&self, traced: bool) -> Jobs {
        let gen = || calibrated_workload(&self.base, self.machine, self.load, self.seed);
        let w = if traced {
            ledger::span(Slot::Gen, gen)
        } else {
            gen()
        };
        if traced {
            let jobs = w.jobs.len() as u64;
            let items = jobs + w.eccs.len() as u64;
            ledger::count(|c| {
                c.items += items;
                c.jobs_in += jobs;
            });
        }
        w
    }
}

#[derive(Debug, Clone, Copy)]
struct Run {
    algo: Algorithm,
    params: SchedParams,
    machine: MachineSpec,
    /// Index of the run's input in its stage's `gens`.
    input: usize,
    /// Replay the schedule through the contiguous allocator.
    contiguity: bool,
}

/// Per x value, the runs averaged into that point (in order).
type Points = Vec<(f64, Vec<usize>)>;

/// How a stage's runs average into the figure it reproduces.
enum Expect {
    /// Series of the figure with this id: per algorithm, per x value,
    /// the runs averaged (in order).
    Figure {
        id: &'static str,
        series: Vec<(Algorithm, Points)>,
    },
    /// The contiguity study of this algorithm, one run per load.
    Contiguity(Algorithm),
}

/// How a stage produces its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gens {
    /// Up front, fanned out over the sweep pool.
    Parallel,
    /// Up front, one after another on the calling thread.
    Serial,
    /// Inside each run's point, as the over-estimation ablation and
    /// the contiguity study do.
    Inline,
}

struct Stage {
    name: String,
    gens: Vec<Gen>,
    how: Gens,
    runs: Vec<Run>,
    expect: Expect,
}

fn with_jobs(base: GeneratorConfig, n_jobs: usize) -> GeneratorConfig {
    GeneratorConfig { n_jobs, ..base }
}

/// A load sweep (Figures 1, 7–11, baselines): every algorithm on one
/// workload per (load, replication).
fn load_sweep(
    cfg: &ReproConfig,
    id: &'static str,
    base: GeneratorConfig,
    machine: MachineSpec,
    algos: &[(Algorithm, SchedParams)],
) -> Stage {
    let reps = cfg.replications;
    let gens: Vec<Gen> = cfg
        .loads
        .iter()
        .flat_map(|&load| {
            (0..reps).map(move |r| Gen {
                base: with_jobs(base, cfg.n_jobs),
                machine,
                load,
                seed: cfg.base_seed + r as u64,
            })
        })
        .collect();
    let mut runs = Vec::new();
    let mut series = Vec::new();
    for &(algo, params) in algos {
        let first = runs.len();
        runs.extend((0..gens.len()).map(|wi| Run {
            algo,
            params,
            machine,
            input: wi,
            contiguity: false,
        }));
        let points = cfg
            .loads
            .iter()
            .enumerate()
            .map(|(li, &load)| (load, (0..reps).map(|r| first + li * reps + r).collect()))
            .collect();
        series.push((algo, points));
    }
    Stage {
        name: id.to_string(),
        gens,
        how: Gens::Parallel,
        runs,
        expect: Expect::Figure { id, series },
    }
}

/// Figures 5–6: the `C_s` sweep at load 0.9 with flat baselines.
fn cs_sweep(cfg: &ReproConfig, id: &'static str, p_small: f64) -> Stage {
    let reps = cfg.replications;
    let gens: Vec<Gen> = (0..reps)
        .map(|r| Gen {
            base: with_jobs(GeneratorConfig::paper_batch(p_small), cfg.n_jobs),
            machine: BGP,
            load: 0.9,
            seed: cfg.base_seed + r as u64,
        })
        .collect();
    let run = |algo, params, wi| Run {
        algo,
        params,
        machine: BGP,
        input: wi,
        contiguity: false,
    };
    let mut runs = Vec::new();
    let mut series = Vec::new();
    for algo in [Algorithm::Easy, Algorithm::Los] {
        let first = runs.len();
        runs.extend((0..reps).map(|wi| run(algo, SchedParams::default(), wi)));
        let all: Vec<usize> = (first..first + reps).collect();
        series.push((
            algo,
            cfg.cs_values
                .iter()
                .map(|&cs| (f64::from(cs), all.clone()))
                .collect(),
        ));
    }
    let mut dl = Vec::new();
    for &cs in &cfg.cs_values {
        let first = runs.len();
        runs.extend((0..reps).map(|wi| run(Algorithm::DelayedLos, SchedParams::with_cs(cs), wi)));
        dl.push((f64::from(cs), (first..first + reps).collect()));
    }
    series.push((Algorithm::DelayedLos, dl));
    Stage {
        name: id.to_string(),
        gens,
        how: Gens::Parallel,
        runs,
        expect: Expect::Figure { id, series },
    }
}

/// The Delayed-LOS lookahead ablation (generation runs serially, as in
/// the figure).
fn ablation_lookahead(cfg: &ReproConfig) -> Stage {
    let reps = cfg.replications;
    let gens: Vec<Gen> = (0..reps)
        .map(|r| Gen {
            base: with_jobs(GeneratorConfig::paper_batch(0.2), cfg.n_jobs),
            machine: BGP,
            load: 0.9,
            seed: cfg.base_seed + r as u64,
        })
        .collect();
    let mut runs = Vec::new();
    let mut points = Vec::new();
    for look in [1usize, 2, 5, 10, 25, 50, 100] {
        let first = runs.len();
        let params = SchedParams {
            cs: default_cs_for_ps(0.2),
            lookahead: look,
        };
        runs.extend((0..reps).map(|wi| Run {
            algo: Algorithm::DelayedLos,
            params,
            machine: BGP,
            input: wi,
            contiguity: false,
        }));
        points.push((look as f64, (first..first + reps).collect()));
    }
    Stage {
        name: "ablation-lookahead".into(),
        gens,
        how: Gens::Serial,
        runs,
        expect: Expect::Figure {
            id: "ablation-lookahead",
            series: vec![(Algorithm::DelayedLos, points)],
        },
    }
}

/// The over-estimation ablation: each point generates its own input.
fn ablation_overestimate(cfg: &ReproConfig) -> Stage {
    let reps = cfg.replications;
    let algos = [Algorithm::Easy, Algorithm::DelayedLos];
    let factors = [1.0f64, 1.5, 2.0, 3.0];
    let (mut gens, mut runs) = (Vec::new(), Vec::new());
    for &factor in &factors {
        for &algo in &algos {
            for r in 0..reps {
                let mut base = with_jobs(GeneratorConfig::paper_batch(0.5), cfg.n_jobs);
                base.overestimate_factor = factor;
                gens.push(Gen {
                    base,
                    machine: BGP,
                    load: 0.9,
                    seed: cfg.base_seed + r as u64,
                });
                runs.push(Run {
                    algo,
                    params: SchedParams::default(),
                    machine: BGP,
                    input: runs.len(),
                    contiguity: false,
                });
            }
        }
    }
    let series = algos
        .iter()
        .enumerate()
        .map(|(ai, &algo)| {
            let points = factors
                .iter()
                .enumerate()
                .map(|(fi, &f)| {
                    (
                        f,
                        (0..reps)
                            .map(|r| (fi * algos.len() + ai) * reps + r)
                            .collect(),
                    )
                })
                .collect();
            (algo, points)
        })
        .collect();
    Stage {
        name: "ablation-overestimate".into(),
        gens,
        how: Gens::Inline,
        runs,
        expect: Expect::Figure {
            id: "ablation-overestimate",
            series,
        },
    }
}

/// The contiguity study of `algo`: one generated input per load.
fn contiguity_stage(cfg: &ReproConfig, algo: Algorithm) -> Stage {
    let gens: Vec<Gen> = cfg
        .loads
        .iter()
        .map(|&load| Gen {
            base: with_jobs(GeneratorConfig::paper_batch(0.2), cfg.n_jobs),
            machine: BGP,
            load,
            seed: cfg.base_seed,
        })
        .collect();
    let runs = (0..gens.len())
        .map(|input| Run {
            algo,
            params: SchedParams::default(),
            machine: BGP,
            input,
            contiguity: true,
        })
        .collect();
    Stage {
        name: format!("contiguity-{}", algo.name()),
        gens,
        how: Gens::Inline,
        runs,
        expect: Expect::Contiguity(algo),
    }
}

/// Every stage of `repro all`, in its order.
fn plan(cfg: &ReproConfig) -> Vec<Stage> {
    let def = SchedParams::default;
    let cs = |p| SchedParams::with_cs(default_cs_for_ps(p));
    let batch = GeneratorConfig::paper_batch;
    let het = GeneratorConfig::paper_heterogeneous;
    vec![
        load_sweep(
            cfg,
            "fig1",
            GeneratorConfig::sdsc_like(),
            MachineSpec::SDSC_SP2,
            &[(Algorithm::Easy, def()), (Algorithm::Los, def())],
        ),
        cs_sweep(cfg, "fig5", 0.5),
        cs_sweep(cfg, "fig6", 0.8),
        load_sweep(
            cfg,
            "fig7",
            batch(0.2),
            BGP,
            &[
                (Algorithm::Easy, def()),
                (Algorithm::Los, def()),
                (Algorithm::DelayedLos, cs(0.2)),
            ],
        ),
        load_sweep(
            cfg,
            "fig8a",
            batch(0.5),
            BGP,
            &[
                (Algorithm::Easy, def()),
                (Algorithm::Los, def()),
                (Algorithm::DelayedLos, cs(0.5)),
            ],
        ),
        load_sweep(
            cfg,
            "fig8b",
            batch(0.8),
            BGP,
            &[
                (Algorithm::Easy, def()),
                (Algorithm::Los, def()),
                (Algorithm::DelayedLos, cs(0.8)),
            ],
        ),
        load_sweep(
            cfg,
            "fig9",
            het(0.2, 0.5),
            BGP,
            &[
                (Algorithm::EasyD, def()),
                (Algorithm::LosD, def()),
                (Algorithm::HybridLos, cs(0.2)),
            ],
        ),
        load_sweep(
            cfg,
            "fig10",
            het(0.5, 0.9),
            BGP,
            &[
                (Algorithm::EasyD, def()),
                (Algorithm::LosD, def()),
                (Algorithm::HybridLos, cs(0.5)),
            ],
        ),
        load_sweep(
            cfg,
            "fig11a",
            batch(0.5).with_paper_eccs(),
            BGP,
            &[
                (Algorithm::EasyE, def()),
                (Algorithm::LosE, def()),
                (Algorithm::DelayedLosE, cs(0.5)),
            ],
        ),
        load_sweep(
            cfg,
            "fig11b",
            het(0.5, 0.5).with_paper_eccs(),
            BGP,
            &[
                (Algorithm::EasyDE, def()),
                (Algorithm::LosDE, def()),
                (Algorithm::HybridLosE, cs(0.5)),
            ],
        ),
        load_sweep(
            cfg,
            "baselines",
            batch(0.5),
            BGP,
            &[
                (Algorithm::Fcfs, def()),
                (Algorithm::Sjf, def()),
                (Algorithm::SjfBf, def()),
                (Algorithm::SmallestFirstBf, def()),
                (Algorithm::LargestFirstBf, def()),
                (Algorithm::Conservative, def()),
                (Algorithm::Easy, def()),
                (Algorithm::Adaptive, def()),
                (Algorithm::DelayedLos, cs(0.5)),
            ],
        ),
        contiguity_stage(cfg, Algorithm::Easy),
        contiguity_stage(cfg, Algorithm::DelayedLos),
        ablation_lookahead(cfg),
        ablation_overestimate(cfg),
    ]
}

/// What `repro all` computes and prints.
struct Campaign {
    figures: Vec<Figure>,
    tables: Vec<ImprovementTable>,
    studies: Vec<ContiguityStudy>,
}

/// The `repro all` computations, rendered to text as `repro all`
/// prints them; nothing is written to disk.
fn repro_all(cfg: &ReproConfig) -> (Campaign, String) {
    let mut figs = vec![figures::fig1(cfg), figures::fig5(cfg), figures::fig6(cfg)];
    let f7 = figures::fig7(cfg);
    let mut tables = vec![figures::table4(&f7)];
    figs.push(f7);
    figs.extend(figures::fig8(cfg));
    let f9 = figures::fig9(cfg);
    tables.push(figures::table5(&f9));
    figs.push(f9);
    figs.push(figures::fig10(cfg));
    let f11 = figures::fig11(cfg);
    tables.push(figures::table6(&f11[0]));
    tables.push(figures::table7(&f11[1]));
    figs.extend(f11);
    figs.push(figures::baselines(cfg));
    let studies = [Algorithm::Easy, Algorithm::DelayedLos]
        .map(|a| elastisched::contiguity_study(cfg, a))
        .to_vec();
    figs.push(figures::ablation_lookahead(cfg));
    figs.push(figures::ablation_overestimate(cfg));
    let mut text = String::new();
    for f in &figs {
        text.push_str(&figure_to_text(f));
    }
    for t in &tables {
        text.push_str(&table_to_text(t));
    }
    for s in &studies {
        text.push_str(&contiguity::study_to_text(s));
    }
    (
        Campaign {
            figures: figs,
            tables,
            studies,
        },
        text,
    )
}

/// Shape checks on the campaign output: every figure, table and study
/// the configuration implies, with the right number of points, and
/// finite values throughout. One result per item checked.
fn check_shape(cfg: &ReproConfig, stages: &[Stage], c: &Campaign) -> Vec<Result<(), String>> {
    let mut out = Vec::new();
    for st in stages {
        match &st.expect {
            Expect::Figure { id, series } => {
                let Some(fig) = c.figures.iter().find(|f| f.id == *id) else {
                    out.push(Err(format!("figure {id} missing")));
                    continue;
                };
                out.push(if fig.series.len() == series.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "{id}: {} series, expected {}",
                        fig.series.len(),
                        series.len()
                    ))
                });
                for (algo, points) in series {
                    let got = fig.series_for(algo.name()).map_or(0, |s| s.points.len());
                    out.push(if got == points.len() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{id}/{}: {got} points, expected {}",
                            algo.name(),
                            points.len()
                        ))
                    });
                }
                for s in &fig.series {
                    for p in &s.points {
                        let vals = [
                            p.x,
                            p.utilization,
                            p.mean_wait,
                            p.slowdown,
                            p.dedicated_delay,
                        ];
                        out.push(if vals.iter().all(|v| v.is_finite()) {
                            Ok(())
                        } else {
                            Err(format!(
                                "{id}/{}: non-finite point at x={}",
                                s.algorithm, p.x
                            ))
                        });
                    }
                }
            }
            Expect::Contiguity(algo) => {
                let Some(s) = c.studies.iter().find(|s| s.algorithm == algo.name()) else {
                    out.push(Err(format!("contiguity study of {} missing", algo.name())));
                    continue;
                };
                out.push(if s.points.len() == cfg.loads.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "contiguity {}: {} points",
                        s.algorithm,
                        s.points.len()
                    ))
                });
            }
        }
    }
    out.push(if c.tables.len() == 4 {
        Ok(())
    } else {
        Err(format!("{} improvement tables, expected 4", c.tables.len()))
    });
    for t in &c.tables {
        let ok = t.rows.len() == 3
            && t.rows
                .iter()
                .all(|(_, v)| v.len() == t.baselines.len() && v.iter().all(|x| x.is_finite()));
        out.push(if ok {
            Ok(())
        } else {
            Err(format!("{}: wrong shape or non-finite improvement", t.id))
        });
    }
    out
}

/// What one simulation point returns to the main thread.
#[derive(Debug, Clone, Copy)]
struct Point {
    ms: f64,
    jobs: u64,
    digest: u64,
    counts: SimCounts,
    /// Utilization, mean wait, slowdown, dedicated delay.
    avg: [f64; 4],
    contiguity: Option<ContiguityPoint>,
}

/// The contiguity study's per-load point, computed from a run's
/// outcomes exactly as `contiguity_study` does.
fn contiguity_point(load: f64, outcomes: &[JobOutcome], machine: MachineSpec) -> ContiguityPoint {
    let units = machine.total / machine.unit;
    let events = contiguity::outcomes_to_replay(outcomes, machine.unit);
    let without = elastisched_sim::contiguous::replay(units, &events, false);
    let with = elastisched_sim::contiguous::replay(units, &events, true);
    let total = without.direct + without.after_migration + without.blocked;
    let fraction = |n: u64| {
        if total == 0 {
            0.0
        } else {
            n as f64 / total as f64
        }
    };
    ContiguityPoint {
        load,
        blocked_without_migration: fraction(without.blocked),
        blocked_with_migration: fraction(with.blocked),
        migrations_per_rescue: if with.after_migration == 0 {
            0.0
        } else {
            with.jobs_migrated as f64 / with.after_migration as f64
        },
        peak_fragmentation: without.peak_fragmentation,
    }
}

fn exec_run(run: &Run, st: &Stage, pre: &[Option<Jobs>], traced: bool) -> Result<Point, String> {
    let gen = &st.gens[run.input];
    let inline;
    let w = if st.how == Gens::Inline {
        inline = gen.make(traced);
        &inline
    } else {
        pre[run.input]
            .as_ref()
            .ok_or("its input failed to generate")?
    };
    let spec = run.algo.stack_spec();
    let t0 = Instant::now();
    let (result, metrics) = run_materialized(
        spec,
        run.params,
        run.machine,
        Observers::default(),
        w,
        traced,
    )
    .map_err(|e| e.to_string())?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let checked = || check::outcomes(&w.jobs, &result.outcomes);
    if traced {
        ledger::span(Slot::Bench, checked)
    } else {
        checked()
    }?;
    let contiguity = run
        .contiguity
        .then(|| contiguity_point(gen.load, &result.outcomes, run.machine));
    Ok(Point {
        ms,
        jobs: metrics.jobs as u64,
        digest: digest(&metrics),
        counts: SimCounts::of(&result),
        avg: [
            metrics.utilization,
            metrics.mean_wait,
            metrics.slowdown,
            metrics.mean_dedicated_delay,
        ],
        contiguity,
    })
}

/// A sweep point: timed as one `core` span when traced, with the
/// worker's ledger flushed before it picks up the next point.
fn point<O>(traced: bool, f: impl FnOnce() -> O) -> O {
    if !traced {
        return f();
    }
    let out = ledger::span(Slot::Point, f);
    ledger::flush();
    out
}

/// Campaigns a run rotates through. Class 0 is `repro all` with base
/// seed = the workload seed; class `c` shifts the base seed by
/// `c × CLASS_SEED_STEP`. Some base seeds make a campaign 10–15%
/// dearer than others, so a run averages twelve campaigns instead of
/// depending on one.
const CLASSES: usize = 12;
const CLASS_SEED_STEP: u64 = 1000;

/// One `repro all` pass, timed.
struct Pass {
    campaign: Campaign,
    text: String,
    secs: f64,
    /// Panics seen during the pass (each a dropped point).
    panics: u64,
}

fn pass(cfg: &ReproConfig) -> Pass {
    let panics = PANICS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let (campaign, text) = repro_all(cfg);
    let secs = t0.elapsed().as_secs_f64();
    Pass {
        campaign,
        text,
        secs,
        panics: PANICS.load(Ordering::Relaxed) - panics,
    }
}

/// Check a pass of class `class`: no dropped points, the shape the
/// configuration implies, and the same output on every pass.
fn check_pass(
    cfg: &ReproConfig,
    stages: &[Stage],
    class: usize,
    p: &Pass,
    tally: &mut Tally,
    digests: &mut Digests,
) {
    tally.check(if p.panics == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} campaign points panicked and were dropped",
            p.panics
        ))
    });
    for r in check_shape(cfg, stages, &p.campaign) {
        tally.check(r);
    }
    let d = crate::stats::Fnv::default().text(&p.text).finish();
    tally.check(digests.check(&format!("campaign/c{class}/output"), d));
}

/// The `campaign` workload: per class, its configuration and its grid.
pub struct CampaignBench {
    classes: Vec<(ReproConfig, Vec<Stage>)>,
}

/// Plan every class and warm up with a checked `repro all` pass of
/// class 0, `times` times. Returns the workload and each set-up's
/// seconds.
pub fn setup(seed: u64, times: usize) -> (CampaignBench, Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let mut digests = Digests::default();
    let mut secs = Vec::new();
    let mut classes = Vec::new();
    for _ in 0..times {
        let t0 = Instant::now();
        classes = (0..CLASSES as u64)
            .map(|c| {
                let cfg = ReproConfig {
                    base_seed: seed.wrapping_add(c * CLASS_SEED_STEP),
                    ..ReproConfig::paper()
                };
                let stages = plan(&cfg);
                (cfg, stages)
            })
            .collect();
        let warm = pass(&classes[0].0);
        secs.push(t0.elapsed().as_secs_f64());
        check_pass(
            &classes[0].0,
            &classes[0].1,
            0,
            &warm,
            &mut tally,
            &mut digests,
        );
    }
    (CampaignBench { classes }, secs, tally)
}

impl CampaignBench {
    /// Run class `class`'s grid: every generation and simulation of
    /// the campaign, stage by stage through `try_parallel_map`. Each run
    /// is timed, checked and digested; returns the points per stage.
    fn grid(
        &self,
        class: usize,
        traced: bool,
        tally: &mut Tally,
        digests: &mut Digests,
    ) -> Vec<Vec<Option<Point>>> {
        let stages = &self.classes[class].1;
        let mut all = Vec::with_capacity(stages.len());
        for st in stages {
            let gen_name =
                |_: usize, g: &Gen| format!("{} gen load={:.2} seed={}", st.name, g.load, g.seed);
            let gen_one = |g: Gen| {
                point(traced, || {
                    let w = g.make(traced);
                    // As the figures do: drain the generation's pending
                    // phase timer so it does not leak into a later run.
                    let _ = elastisched_sim::profile::take_pending();
                    w
                })
            };
            let pre: Vec<Option<Jobs>> = match st.how {
                Gens::Inline => Vec::new(),
                Gens::Parallel => {
                    let (pre, failures) = try_parallel_map(st.gens.clone(), gen_name, gen_one);
                    for f in failures {
                        tally.fail(format!("generation {f}"));
                    }
                    pre
                }
                Gens::Serial => st
                    .gens
                    .iter()
                    .map(|&g| {
                        let w = std::panic::catch_unwind(|| gen_one(g)).ok();
                        if w.is_none() {
                            tally.fail(format!("{} generation seed={} panicked", st.name, g.seed));
                        }
                        w
                    })
                    .collect(),
            };
            let run_name = |i: usize, r: &Run| format!("{} #{i} {}", st.name, r.algo.name());
            let (results, failures) = try_parallel_map(st.runs.clone(), run_name, |run| {
                point(traced, || exec_run(&run, st, &pre, traced))
            });
            for f in failures {
                tally.fail(format!("sweep {f}"));
            }
            let gen_points = if st.how == Gens::Inline {
                0
            } else {
                st.gens.len()
            };
            tally.points += (gen_points + st.runs.len()) as u64;
            let mut points = Vec::with_capacity(results.len());
            for (i, r) in results.into_iter().enumerate() {
                let key = format!(
                    "campaign/c{class}/{}/{}/{i}",
                    st.name,
                    st.runs[i].algo.name()
                );
                let p = match r {
                    Some(Ok(p)) => match digests.check(&key, p.digest) {
                        Ok(()) => {
                            tally.ok(key, p.ms, p.jobs, &p.counts);
                            Some(p)
                        }
                        Err(e) => {
                            tally.fail(e);
                            None
                        }
                    },
                    Some(Err(e)) => {
                        tally.fail(format!("{key}: {e}"));
                        None
                    }
                    // A panicked point: already counted from `failures`.
                    None => None,
                };
                points.push(p);
            }
            all.push(points);
        }
        all
    }
}

impl Workload for CampaignBench {
    /// Untraced: a timed `repro all` pass (the measured section), then
    /// the same campaign as a grid, untimed as a whole, whose per-point
    /// metrics averaged as the figures average them must equal the
    /// pass's figures bit for bit. The grid supplies the per-run times
    /// and the job count (it runs exactly the pass's simulations).
    /// Traced: the grid alone, through the wrappers.
    fn rep(&mut self, idx: usize, mode: Mode, tally: &mut Tally, digests: &mut Digests) {
        let class = self.class(idx);
        let traced = mode.traced();
        let measured = (!traced).then(|| {
            let (cfg, stages) = &self.classes[class];
            let p = pass(cfg);
            tally.measured_s += p.secs;
            check_pass(cfg, stages, class, &p, tally, digests);
            p
        });
        let points = self.grid(class, traced, tally, digests);
        if let Some(p) = measured {
            let (cfg, stages) = &self.classes[class];
            for (st, pts) in stages.iter().zip(&points) {
                for r in compare(cfg, st, pts, &p.campaign) {
                    tally.check(r);
                }
            }
        }
    }

    fn class(&self, idx: usize) -> usize {
        idx % self.classes.len()
    }

    fn classes(&self) -> usize {
        self.classes.len()
    }

    fn workers(&self) -> usize {
        elastisched::sweep::worker_count(usize::MAX)
    }
}

/// `figures`' averaging, replicated: the same sums in the same order.
fn average(points: &[Point], x: f64) -> SeriesPoint {
    let n = points.len().max(1) as f64;
    SeriesPoint {
        x,
        utilization: points.iter().map(|p| p.avg[0]).sum::<f64>() / n,
        mean_wait: points.iter().map(|p| p.avg[1]).sum::<f64>() / n,
        slowdown: points.iter().map(|p| p.avg[2]).sum::<f64>() / n,
        dedicated_delay: points.iter().map(|p| p.avg[3]).sum::<f64>() / n,
    }
}

/// Compare one stage's grid points with the campaign's output.
fn compare(
    cfg: &ReproConfig,
    st: &Stage,
    points: &[Option<Point>],
    c: &Campaign,
) -> Vec<Result<(), String>> {
    let mut out = Vec::new();
    match &st.expect {
        Expect::Figure { id, series } => {
            let Some(fig) = c.figures.iter().find(|f| f.id == *id) else {
                return vec![Err(format!("figure {id} missing"))];
            };
            for (algo, xs) in series {
                let Some(got) = fig.series_for(algo.name()) else {
                    out.push(Err(format!("{id}: series {} missing", algo.name())));
                    continue;
                };
                for (k, (x, runs)) in xs.iter().enumerate() {
                    let grid: Option<Vec<Point>> = runs.iter().map(|&i| points[i]).collect();
                    let want = grid.map(|g| average(&g, *x));
                    out.push(match (want, got.points.get(k)) {
                        (Some(w), Some(g)) if w == *g => Ok(()),
                        (None, _) => Err(format!("{id}/{} x={x}: grid point failed", algo.name())),
                        _ => Err(format!(
                            "{id}/{} x={x}: figure value differs from the average of its {} replications",
                            algo.name(),
                            runs.len()
                        )),
                    });
                }
            }
        }
        Expect::Contiguity(algo) => {
            let study = c.studies.iter().find(|s| s.algorithm == algo.name());
            for (k, load) in cfg.loads.iter().enumerate() {
                let want = points[k].and_then(|p| p.contiguity);
                let got = study.and_then(|s| s.points.get(k));
                out.push(match (want, got) {
                    (Some(w), Some(g)) if w == *g => Ok(()),
                    _ => Err(format!(
                        "contiguity {} load={load}: study differs from its run",
                        algo.name()
                    )),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_runs_the_whole_campaign() {
        let stages = plan(&ReproConfig::paper());
        let runs: usize = stages.iter().map(|s| s.runs.len()).sum();
        assert_eq!(runs, 765);
        let algos: std::collections::BTreeSet<&str> = stages
            .iter()
            .flat_map(|s| s.runs.iter().map(|r| r.algo.name()))
            .collect();
        assert_eq!(
            algos.len(),
            Algorithm::ALL.len(),
            "every registry algorithm runs"
        );
    }

    /// The grid reproduces the figures bit for bit, a dropped
    /// replication or an altered figure is caught, and the traced grid
    /// digests like the untraced one.
    #[test]
    fn grid_matches_figures_and_catches_a_dropped_replication() {
        let cfg = ReproConfig {
            replications: 2,
            ..ReproConfig::quick()
        };
        let stages = plan(&cfg);
        let mut bench = CampaignBench {
            classes: vec![(cfg.clone(), stages)],
        };
        let mut digests = Digests::default();
        let mut tally = Tally::default();
        bench.rep(0, Mode::Untraced, &mut tally, &mut digests);
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        let runs: usize = bench.classes[0].1.iter().map(|s| s.runs.len()).sum();
        assert!(tally.attempted as usize > runs + 20);
        assert!(tally.measured_s > 0.0 && tally.jobs == (runs * cfg.n_jobs) as u64);

        let mut traced = Tally::default();
        bench.rep(0, Mode::Traced, &mut traced, &mut digests);
        let _ = ledger::take_merged();
        assert_eq!(traced.failed, 0, "{:?}", traced.errors);

        let (cfg, stages) = &bench.classes[0];
        let p = pass(cfg);
        let mut points = bench.grid(0, false, &mut Tally::default(), &mut digests);
        let failures = |points: &[Vec<Option<Point>>], c: &Campaign| {
            stages
                .iter()
                .zip(points)
                .flat_map(|(st, pts)| compare(cfg, st, pts, c))
                .filter(Result::is_err)
                .count()
        };
        assert_eq!(failures(&points, &p.campaign), 0);

        // Drop one replication of one fig7 point.
        let fig7 = stages.iter().position(|s| s.name == "fig7").unwrap();
        let kept = points[fig7][1].take();
        assert_eq!(failures(&points, &p.campaign), 1);
        points[fig7][1] = kept;

        // A figure whose average lost a replication differs from the grid.
        let mut altered = p.campaign;
        assert_eq!(altered.figures[3].id, "fig7");
        altered.figures[3].series[0].points[0].mean_wait += 1.0;
        assert_eq!(failures(&points, &altered), 1);
    }
}
