//! Incremental ≡ per-cycle wait attribution.
//!
//! The engine attributes wait through per-width cause logs: it
//! classifies each live width class once per cycle, logs only cause
//! changes, and charges a job when it starts, changes width, or has a
//! skip note override its class's freeze. The per-cycle pass it
//! replaced — charge and reclassify every waiting job every cycle —
//! is kept as `attribution::reference` behind the `reference-kernels`
//! feature. Every test here runs one workload under both and asserts
//! the same per-job [`WaitAttribution`] (every bucket, lead blocker and
//! its weight) and the same run [`AttributionProfile`], on materialized
//! and streamed runs, across all 19 registry algorithms plus `+m`
//! stacks. The workloads cover batch contention, dedicated jobs with
//! time ECCs and queued processor ECCs (which move a job between width
//! classes), malleable jobs under `+m` grows and shrinks, and a unit-1
//! machine with many width classes.
//!
//! [`WaitAttribution`]: elastisched_sim::WaitAttribution
//! [`AttributionProfile`]: elastisched_sim::AttributionProfile

use elastisched::MachineSpec;
use elastisched_sched::{Algorithm, SchedParams, StackSpec};
use elastisched_sim::attribution::work;
use elastisched_sim::{EccKind, EccPolicy, EccSpec, Engine, JobId, SimResult};
use elastisched_workload::{generate, GeneratorConfig, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every registry algorithm, plus `+m` stacks over a skip-budgeted
/// core, the dedicated layer, and conservative backfilling with every
/// layer on.
fn stacks() -> Vec<StackSpec> {
    let mut specs: Vec<StackSpec> = Algorithm::ALL.iter().map(|a| a.stack_spec()).collect();
    for extra in ["delayed-los+m", "hybrid-los+m", "conservative+d+m+e"] {
        specs.push(extra.parse().expect("stack spec parses"));
    }
    specs
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Paper batch jobs.
    Batch,
    /// 30% dedicated jobs, paper ET/RT commands, and queued EP/RP
    /// commands under resource elasticity.
    Heterogeneous,
    /// Half the batch jobs malleable.
    Malleable,
    /// An SDSC-SP2-like trace on a 128-processor unit-1 machine.
    Unit1,
}

const KINDS: [Kind; 4] = [
    Kind::Batch,
    Kind::Heterogeneous,
    Kind::Malleable,
    Kind::Unit1,
];

/// A workload of `kind` at offered load 0.9, and its machine.
fn workload(kind: Kind, jobs: usize, seed: u64) -> (MachineSpec, Workload) {
    let (machine, cfg) = match kind {
        Kind::Batch => (MachineSpec::BLUEGENE_P, GeneratorConfig::paper_batch(0.5)),
        Kind::Heterogeneous => (
            MachineSpec::BLUEGENE_P,
            GeneratorConfig::paper_heterogeneous(0.5, 0.3).with_paper_eccs(),
        ),
        Kind::Malleable => (
            MachineSpec::BLUEGENE_P,
            GeneratorConfig::paper_batch(0.5).with_malleable(0.5),
        ),
        Kind::Unit1 => (MachineSpec::SDSC_SP2, GeneratorConfig::sdsc_like()),
    };
    let mut w = generate(&cfg.with_jobs(jobs).with_seed(seed));
    w.scale_to_load(machine.total, 0.9);
    if let Kind::Heterogeneous = kind {
        add_processor_eccs(&mut w, seed);
    }
    (machine, w)
}

/// Queued expand/reduce-procs commands shortly after about a third of
/// the arrivals, so waiting jobs change width class mid-wait.
fn add_processor_eccs(w: &mut Workload, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for j in &w.jobs {
        if !rng.gen_bool(0.35) {
            continue;
        }
        let kind = if rng.gen_bool(0.5) {
            EccKind::ExtendProcs
        } else {
            EccKind::ReduceProcs
        };
        w.eccs.push(EccSpec {
            job: j.id,
            issue_at: j.submit + elastisched_sim::Duration::from_secs(rng.gen_range(0..120)),
            kind,
            amount: 32 * rng.gen_range(1u64..4),
        });
    }
    w.eccs.sort_by_key(|e| e.issue_at);
}

fn ecc_policy(kind: Kind, spec: &StackSpec) -> EccPolicy {
    match kind {
        Kind::Heterogeneous => EccPolicy::with_resource_elasticity(),
        _ => spec.ecc_policy(),
    }
}

fn run(
    spec: &StackSpec,
    machine: MachineSpec,
    ecc: EccPolicy,
    w: &Workload,
    reference: bool,
    streamed: bool,
) -> SimResult {
    let mut engine = Engine::new(machine.build(), spec.build(SchedParams::default()), ecc);
    if reference {
        engine.enable_reference_attribution();
    } else {
        engine.enable_attribution();
    }
    if streamed {
        engine.run_streaming(w.source()).expect("streamed run")
    } else {
        engine.load(&w.jobs, &w.eccs).expect("valid workload");
        engine.run().expect("materialized run")
    }
}

/// Reference and incremental attribution agree job by job and in the
/// run profile; returns the run's total attributed wait.
fn assert_identical(label: &str, reference: &SimResult, incremental: &SimResult) -> u64 {
    assert_eq!(
        reference.outcomes.len(),
        incremental.outcomes.len(),
        "{label}: job count"
    );
    for (r, i) in reference.outcomes.iter().zip(&incremental.outcomes) {
        assert_eq!(r.id, i.id, "{label}: completion order");
        let (ra, ia) = (r.attribution.expect("armed"), i.attribution.expect("armed"));
        assert_eq!(ra, ia, "{label}: job {} attribution", r.id.0);
        assert_eq!(
            ia.total_secs(),
            i.wait.as_secs(),
            "{label}: job {} conservation",
            r.id.0
        );
    }
    assert_eq!(
        reference.attribution, incremental.attribution,
        "{label}: profile"
    );
    incremental.attribution.total_secs()
}

/// Both paths of `kind` under every stack; returns the summed wait so
/// callers can require the workload to queue at all.
fn check_all_stacks(kind: Kind, jobs: usize, seed: u64) -> u64 {
    let (machine, w) = workload(kind, jobs, seed);
    let mut waited = 0;
    for spec in stacks() {
        let ecc = ecc_policy(kind, &spec);
        for streamed in [false, true] {
            let label = format!("{kind:?} seed {seed} {spec} streamed={streamed}");
            let reference = run(&spec, machine, ecc, &w, true, streamed);
            let incremental = run(&spec, machine, ecc, &w, false, streamed);
            waited += assert_identical(&label, &reference, &incremental);
        }
    }
    waited
}

#[test]
fn batch_workload_matches_reference_under_every_stack() {
    assert!(check_all_stacks(Kind::Batch, 300, 7) > 0);
}

#[test]
fn queued_processor_eccs_move_jobs_between_width_classes() {
    let (_, w) = workload(Kind::Heterogeneous, 300, 11);
    assert!(w
        .eccs
        .iter()
        .any(|e| matches!(e.kind, EccKind::ExtendProcs | EccKind::ReduceProcs)));
    assert!(check_all_stacks(Kind::Heterogeneous, 300, 11) > 0);
}

#[test]
fn malleable_workload_matches_reference_under_every_stack() {
    assert!(check_all_stacks(Kind::Malleable, 300, 5) > 0);
}

#[test]
fn unit1_machine_with_many_width_classes_matches_reference() {
    let (_, w) = workload(Kind::Unit1, 300, 3);
    let mut widths: Vec<u32> = w.jobs.iter().map(|j| j.num).collect();
    widths.sort_unstable();
    widths.dedup();
    assert!(widths.len() > 10, "only {} widths", widths.len());
    assert!(check_all_stacks(Kind::Unit1, 300, 3) > 0);
}

#[test]
fn skip_notes_override_a_dedicated_freeze_for_one_cycle() {
    // A skip note changes a job's cause only while its class is frozen,
    // which takes a dedicated claim's freeze window and a skip-budgeted
    // core passing over fitting jobs in the same cycle: Hybrid-LOS on a
    // heterogeneous mix. Queued processor ECCs also move skipped jobs
    // to other width classes while their override stands.
    for seed in [1, 2, 3, 4] {
        let (machine, w) = workload(Kind::Heterogeneous, 400, seed);
        for spec in ["hybrid-los", "hybrid-los+e", "hybrid-los+m", "adaptive+d"] {
            let spec: StackSpec = spec.parse().unwrap();
            let ecc = EccPolicy::with_resource_elasticity();
            for streamed in [false, true] {
                let reference = run(&spec, machine, ecc, &w, true, streamed);
                let incremental = run(&spec, machine, ecc, &w, false, streamed);
                let label = format!("seed {seed} {spec} streamed={streamed}");
                assert_identical(&label, &reference, &incremental);
            }
        }
    }
}

#[test]
fn long_queue_truncates_cause_logs_without_drift() {
    // 1,500 jobs at load 0.9 keep a deep queue for long enough that the
    // cause logs outgrow the waiting jobs many times over, so every
    // job catches up through at least one truncation.
    let (machine, w) = workload(Kind::Batch, 1_500, 21);
    for spec in ["delayed-los", "easy", "hybrid-los+m"] {
        let spec: StackSpec = spec.parse().unwrap();
        let ecc = spec.ecc_policy();
        let reference = run(&spec, machine, ecc, &w, true, false);
        let incremental = run(&spec, machine, ecc, &w, false, false);
        assert_identical(&format!("{spec}"), &reference, &incremental);
    }
}

/// The work bound: the incremental pass charges a job once per change
/// of its cause plus once at its start, where the per-cycle pass
/// charged every waiting job every cycle.
#[test]
fn charge_steps_track_cause_changes_not_cycles() {
    let (machine, w) = workload(Kind::Batch, 4_000, 9);
    let spec = StackSpec::from(Algorithm::Easy);
    let ecc = spec.ecc_policy();
    work::take();
    let reference = run(&spec, machine, ecc, &w, true, false);
    let changes = work::take().cause_changes;
    let incremental = run(&spec, machine, ecc, &w, false, false);
    let steps = work::take().charge_steps;
    assert_identical("EASY 4k", &reference, &incremental);
    let jobs = w.len() as u64;
    assert!(changes > 0, "a load-0.9 run must change causes");
    assert!(
        steps <= changes + jobs,
        "{steps} charge steps for {changes} cause changes over {jobs} jobs"
    );
}

/// A `+m` grow holds the headroom a waiting job needs: the malleable
/// job grows into the idle machine, then a job that would fit in the
/// grown width — but is not the batch head the shrink pass serves —
/// waits on the malleable layer.
#[test]
fn malleable_grow_holding_headroom_is_charged_to_malleable() {
    let jobs = vec![
        // Grows from 128 to 192 into the free processors at t=0.
        elastisched_sim::JobSpec::batch(1, 0, 128, 20_000).with_proc_range(64, 256),
        elastisched_sim::JobSpec::batch(2, 0, 128, 2_000),
        // The head: needs the whole machine, more than any shrink frees.
        elastisched_sim::JobSpec::batch(3, 10, 320, 100),
        // Fits in the 64 processors the grow holds.
        elastisched_sim::JobSpec::batch(4, 20, 64, 100),
    ];
    let w = Workload::from_jobs(jobs);
    for spec in ["easy+m", "fcfs+m", "delayed-los+m"] {
        let spec: StackSpec = spec.parse().unwrap();
        let ecc = spec.ecc_policy();
        let machine = MachineSpec::BLUEGENE_P;
        for streamed in [false, true] {
            let reference = run(&spec, machine, ecc, &w, true, streamed);
            let incremental = run(&spec, machine, ecc, &w, false, streamed);
            assert_identical(&format!("{spec}"), &reference, &incremental);
            let job4 = incremental
                .outcomes
                .iter()
                .find(|o| o.id == JobId(4))
                .expect("job 4 completes");
            let a = job4.attribution.expect("armed");
            assert!(a.malleable_secs > 0, "{spec}: {a:?}");
            assert_eq!(a.total_secs(), job4.wait.as_secs(), "{spec}: conservation");
            assert!(incremental.attribution.malleable_secs > 0, "{spec}");
        }
    }
}

proptest! {
    // Each case runs 22 stacks × 2 paths × 2 passes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_workloads_match_reference(
        kind in 0usize..KINDS.len(),
        seed in 0u64..1_000_000,
        jobs in 60usize..160,
    ) {
        check_all_stacks(KINDS[kind], jobs, seed);
    }
}
