//! Property-based tests of wait-time attribution.
//!
//! Two invariants, over random workloads × all 19 registry algorithms,
//! plus the `+m` stacks on workloads with malleable jobs:
//!
//! 1. **Conservation** — every job's cause buckets sum *exactly* to its
//!    total wait (`sum(causes) == started − eligible`), whole seconds,
//!    no rounding slop. The attribution machinery charges intervals at
//!    cycle boundaries; this pins that the telescoping never loses or
//!    double-counts a span, whatever the policy decided.
//! 2. **Path independence** — a streamed run (per-job state reclaimed
//!    at completion, attributions folded on reclamation) produces the
//!    identical [`AttributionProfile`] to the materialized run, top
//!    blockers included.

use elastisched::Experiment;
use elastisched_sched::{Algorithm, StackSpec};
use elastisched_workload::{generate, GeneratorConfig, LublinSource};
use proptest::prelude::*;

/// Every registry algorithm, and — when the workload has malleable
/// jobs for it to resize — the same stacks with the `+m` layer.
fn stacks(malleable: bool) -> Vec<StackSpec> {
    let mut specs: Vec<StackSpec> = Algorithm::ALL.iter().map(|a| a.stack_spec()).collect();
    if malleable {
        let with_m: Vec<StackSpec> = specs.iter().map(|s| s.with_malleable()).collect();
        specs.extend(with_m);
    }
    specs
}

fn arb_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        0u64..1_000_000,
        30usize..100,
        0usize..3,
        prop::bool::ANY,
        prop::bool::ANY,
        prop::bool::ANY,
    )
        .prop_map(|(seed, jobs, psi, dedicated, eccs, malleable)| {
            let ps = [0.2, 0.5, 0.8][psi];
            let pd = if dedicated { 0.3 } else { 0.0 };
            let mut cfg = GeneratorConfig::paper_heterogeneous(ps, pd)
                .with_jobs(jobs)
                .with_seed(seed);
            if eccs {
                cfg = cfg.with_paper_eccs();
            }
            if malleable {
                cfg = cfg.with_malleable(0.5);
            }
            cfg
        })
}

proptest! {
    // Each case simulates the workload 38 times (19 algorithms × 2
    // paths), 76 with the `+m` stacks, so a modest case count already
    // covers a wide space.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cause_buckets_sum_to_the_wait_and_profiles_are_path_independent(
        cfg in arb_config(),
    ) {
        let w = generate(&cfg);
        for spec in stacks(cfg.p_malleable > 0.0) {
            let exp = Experiment::new(spec).with_attribution();
            let mat = exp.run_raw(&w).unwrap();
            prop_assert_eq!(mat.outcomes.len(), w.len());
            let mut waited = 0u64;
            for o in &mat.outcomes {
                let attr = o.attribution.expect("attribution was enabled");
                prop_assert_eq!(
                    attr.total_secs(),
                    o.wait.as_secs(),
                    "{}: job {} buckets {:?} != wait {}s",
                    spec, o.id.0, attr, o.wait.as_secs()
                );
                waited += o.wait.as_secs();
            }
            // The run-level profile conserves the fleet total too.
            prop_assert_eq!(mat.attribution.total_secs(), waited, "{}", spec);
            prop_assert_eq!(mat.attribution.jobs, w.len() as u64, "{}", spec);

            // Streamed run: identical profile, fold order and all.
            let st = exp.run_streamed_raw(LublinSource::new(&cfg)).unwrap();
            prop_assert_eq!(&st.attribution, &mat.attribution, "{}", spec);
        }
    }
}
