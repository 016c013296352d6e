//! Differential oracle for conservative backfilling's profile repair.
//!
//! [`ConservativeCore`] keeps its resource profile and reservations
//! across cycles and searches the profile in one forward sweep. Its
//! oracle is `conservative::reference::RebuildConservativeCore`, which
//! rebuilds the profile and re-reserves the whole queue every cycle with
//! the candidate × `min_free` search
//! ([`ResourceProfile::earliest_start_reference`]). The legacy
//! scheduler shares `ResourceProfile` with the core, so it cannot see a
//! profile bug; this suite checks the profile against a brute-force
//! per-second model as well.
//!
//! * The sweep equals the candidate search on random profiles, before
//!   and after [`ResourceProfile::advance`], and `try_reserve` agrees
//!   with the model on every accepted and refused window.
//! * Both cores produce identical [`RunMetrics`] and identical decision
//!   traces under every stack a conservative core appears in, on
//!   workloads that defeat reuse in every known way: over-estimated
//!   runtimes (early completions), zero-duration jobs, sizes off the
//!   paper's 32-processor grid, dedicated jobs, ECCs and malleable jobs.

use elastisched_metrics::RunMetrics;
use elastisched_sched::conservative::reference::RebuildConservativeCore;
use elastisched_sched::{
    BatchOnly, BatchPolicy, ConservativeCore, PolicyStack, ResourceProfile, StackSpec,
    WithDedicated,
};
use elastisched_sim::{Duration, Engine, Machine, Scheduler, SimTime, TraceEvent, TraceSink};
use elastisched_workload::{generate, GeneratorConfig, Workload};
use proptest::prelude::*;

const TOTAL: u32 = 320;

/// Free processors at second `t` under the accepted `windows`.
fn model_free(windows: &[(u64, u64, u32)], t: u64) -> u32 {
    TOTAL
        - windows
            .iter()
            .filter(|&&(s, d, _)| s <= t && t < s + d)
            .map(|&(_, _, n)| n)
            .sum::<u32>()
}

/// Random reservations on an idle machine, checked against the model;
/// returns the profile and the windows it accepted.
fn built_profile(reservations: &[(u64, u64, u32)]) -> (ResourceProfile, Vec<(u64, u64, u32)>) {
    let mut p = ResourceProfile::idle(SimTime::ZERO, TOTAL);
    let mut windows = Vec::new();
    for &(s, d, n) in reservations {
        let fits = (s..s + d).all(|t| model_free(&windows, t) >= n);
        let before = p.clone();
        let r = p.try_reserve(SimTime::from_secs(s), Duration::from_secs(d), n);
        assert_eq!(
            r.is_ok(),
            fits,
            "try_reserve({s}, {d}, {n}) disagrees with the model"
        );
        if fits {
            windows.push((s, d, n));
        } else {
            assert_eq!(p, before, "a refused reservation changed the profile");
        }
    }
    (p, windows)
}

fn assert_sweep_matches(p: &ResourceProfile, queries: &[(u64, u32, u64)]) {
    for &(from, num, dur) in queries {
        let (from, dur) = (SimTime::from_secs(from), Duration::from_secs(dur));
        assert_eq!(
            p.earliest_start(from, num, dur),
            p.earliest_start_reference(from, num, dur),
            "earliest_start({from:?}, {num}, {dur:?}) on {p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sweep_matches_candidate_search(
        reservations in prop::collection::vec((0u64..400, 1u64..150, 1u32..=TOTAL), 0..40),
        queries in prop::collection::vec((0u64..600, 1u32..=TOTAL + 1, 0u64..250), 1..24),
        advance_to in 0u64..500,
    ) {
        let (mut p, windows) = built_profile(&reservations);
        for t in (0..600).step_by(7) {
            prop_assert_eq!(p.free_at(SimTime::from_secs(t)), model_free(&windows, t));
        }
        assert_sweep_matches(&p, &queries);

        p.advance(SimTime::from_secs(advance_to));
        for t in (advance_to..600).step_by(5) {
            prop_assert_eq!(p.free_at(SimTime::from_secs(t)), model_free(&windows, t));
        }
        assert_sweep_matches(&p, &queries);
        // Reserving on an advanced profile still agrees with the model.
        let mut windows = windows;
        for &(s, d, n) in reservations.iter().take(8) {
            let s = s.max(advance_to);
            let fits = (s..s + d).all(|t| model_free(&windows, t) >= n);
            let r = p.try_reserve(SimTime::from_secs(s), Duration::from_secs(d), n);
            prop_assert_eq!(r.is_ok(), fits);
            if fits {
                windows.push((s, d, n));
            }
        }
        assert_sweep_matches(&p, &queries);
    }
}

/// Every stack a conservative core appears in: batch-only, dedicated,
/// ECC, malleable, and their combinations.
const SPECS: [&str; 6] = [
    "conservative",
    "conservative+d",
    "conservative+e",
    "conservative+d+e",
    "conservative+m",
    "conservative+d+m+e",
];

fn stack<P: BatchPolicy + Send + 'static>(core: P, spec: StackSpec) -> Box<dyn Scheduler + Send> {
    match (spec.dedicated, spec.malleable) {
        (false, false) => Box::new(PolicyStack::batch_only(core)),
        (true, false) => Box::new(PolicyStack::with_dedicated(core, 0)),
        (false, true) => Box::new(PolicyStack::with_malleable(BatchOnly::new(core))),
        (true, true) => Box::new(PolicyStack::with_malleable(WithDedicated::new(core, 0))),
    }
}

fn run(
    sched: Box<dyn Scheduler + Send>,
    spec: StackSpec,
    machine: &Machine,
    w: &Workload,
) -> (RunMetrics, Vec<TraceEvent>) {
    let mut engine = Engine::new(machine.clone(), sched, spec.ecc_policy());
    let mut sink = TraceSink::with_capacity(1 << 20);
    sink.disable_timing();
    engine.enable_tracing(sink);
    engine.load(&w.jobs, &w.eccs).expect("workload is valid");
    let r = engine.run().expect("simulation runs to completion");
    let sink = r.trace.as_deref().expect("tracing was enabled");
    assert_eq!(sink.dropped(), 0, "trace ring overflowed");
    let events = sink.events().cloned().collect();
    (RunMetrics::from_result(&r), events)
}

/// The workload knobs the proptest draws.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    load: f64,
    overestimate: f64,
    p_dedicated: f64,
    eccs: bool,
    p_malleable: f64,
    /// Zero the runtime of every fifth job.
    zero_dur: bool,
    /// Run on a unit-1 machine with sizes moved off the 32-grid.
    fine: bool,
}

fn workload(s: Shape, jobs: usize) -> (Machine, Workload) {
    let mut cfg = GeneratorConfig::paper_heterogeneous(0.5, s.p_dedicated)
        .with_jobs(jobs)
        .with_seed(s.seed)
        .with_malleable(s.p_malleable);
    cfg.overestimate_factor = s.overestimate;
    if s.eccs {
        cfg = cfg.with_paper_eccs();
    }
    let mut w = generate(&cfg);
    w.scale_to_load(TOTAL, s.load);
    for (i, j) in w.jobs.iter_mut().enumerate() {
        if s.zero_dur && i % 5 == 0 {
            j.dur = Duration::ZERO;
            j.actual = Duration::ZERO;
        }
        if s.fine && !j.is_malleable() {
            j.num = (j.num - (i as u32 * 7) % 31).max(1);
        }
    }
    let unit = if s.fine { 1 } else { 32 };
    (Machine::new(TOTAL, unit), w)
}

fn assert_cores_agree(spec: &str, s: Shape, jobs: usize) {
    let spec: StackSpec = spec.parse().expect("valid stack spec");
    let (machine, w) = workload(s, jobs);
    let (kept, kept_trace) = run(stack(ConservativeCore::new(), spec), spec, &machine, &w);
    let (rebuilt, rebuilt_trace) = run(
        stack(RebuildConservativeCore::new(), spec),
        spec,
        &machine,
        &w,
    );
    assert_eq!(
        kept, rebuilt,
        "{spec} diverged from the rebuild oracle on {s:?}"
    );
    assert!(
        kept_trace == rebuilt_trace,
        "{spec} decision trace diverged from the rebuild oracle on {s:?}"
    );
}

const EXACT: Shape = Shape {
    seed: 1,
    load: 0.9,
    overestimate: 1.0,
    p_dedicated: 0.0,
    eccs: false,
    p_malleable: 0.0,
    zero_dur: false,
    fine: false,
};

#[test]
fn every_stack_matches_the_rebuild_oracle_on_named_workloads() {
    let shapes = [
        EXACT,
        Shape {
            overestimate: 1.5,
            ..EXACT
        },
        Shape {
            overestimate: 2.0,
            seed: 2,
            ..EXACT
        },
        Shape {
            zero_dur: true,
            seed: 3,
            ..EXACT
        },
        Shape {
            fine: true,
            seed: 4,
            ..EXACT
        },
        Shape {
            p_dedicated: 0.3,
            eccs: true,
            seed: 5,
            ..EXACT
        },
        Shape {
            p_malleable: 0.5,
            load: 1.0,
            seed: 6,
            ..EXACT
        },
        Shape {
            overestimate: 2.0,
            p_dedicated: 0.3,
            eccs: true,
            p_malleable: 0.5,
            zero_dur: true,
            fine: true,
            seed: 7,
            load: 1.0,
        },
    ];
    for s in shapes {
        for spec in SPECS {
            assert_cores_agree(spec, s, 250);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kept_reservations_decide_like_a_rebuild(
        seed in 0u64..10_000,
        load_pct in 50u32..120,
        over_idx in 0usize..3,
        dedicated in prop::bool::ANY,
        eccs in prop::bool::ANY,
        malleable in prop::bool::ANY,
        zero_dur in prop::bool::ANY,
        fine in prop::bool::ANY,
        spec_idx in 0usize..SPECS.len(),
    ) {
        let s = Shape {
            seed,
            load: f64::from(load_pct) / 100.0,
            overestimate: [1.0, 1.5, 2.0][over_idx],
            p_dedicated: if dedicated { 0.3 } else { 0.0 },
            eccs,
            p_malleable: if malleable { 0.5 } else { 0.0 },
            zero_dur,
            fine,
        };
        assert_cores_agree(SPECS[spec_idx], s, 150);
    }
}
