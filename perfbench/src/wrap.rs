//! Forwarding wrappers that time each layer's public entry points from
//! outside the program.
//!
//! Every wrapper forwards every trait method to the value it wraps and
//! opens a [`ledger`](crate::ledger) span around the ones that do work,
//! so a stack assembled from them makes exactly the decisions of the
//! stack [`StackSpec::build`] assembles — the digests prove it run by
//! run. Cheap `SchedContext` accessors (`now`, `free`, `running`, …) are
//! forwarded untimed: their cost stays with the caller.

use crate::ledger::{self, Slot};
use elastisched::{MachineSpec, StackExperiment};
use elastisched_metrics::RunMetrics;
use elastisched_sched::stack::WithMalleable;
use elastisched_sched::{
    AdaptiveCore, BatchOnly, BatchPolicy, BatchQueue, ConservativeCore, CorePolicy, DedicatedClaim,
    DelayedLosCore, EasyCore, FcfsCore, Freeze, LosCore, OrderPolicy, OrderedCore, PolicyShared,
    PolicyStack, SchedParams, StackLayer, StackSpec, StackState, WithDedicated,
};
use elastisched_sim::{
    AttrNotes, Duration, Engine, JobId, JobSource, JobView, RunningSet, SchedContext, SchedStats,
    Scheduler, SimError, SimResult, SimTime, SourceItem, StartError, TimelineConfig, TraceSink,
};
use elastisched_workload::Workload;

/// Times `JobSource::next_item`.
pub struct TimedSource<S>(pub S);

impl<S: JobSource> JobSource for TimedSource<S> {
    fn next_item(&mut self) -> Option<SourceItem> {
        let item = ledger::span(Slot::Source, || self.0.next_item());
        if let Some(it) = &item {
            let job = matches!(it, SourceItem::Job(_));
            ledger::count(|c| {
                c.items += 1;
                c.jobs_in += u64::from(job);
            });
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// Times the engine services a scheduler calls during a cycle.
struct TimedCtx<'a>(&'a mut dyn SchedContext);

impl SchedContext for TimedCtx<'_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn total(&self) -> u32 {
        self.0.total()
    }
    fn free(&self) -> u32 {
        self.0.free()
    }
    fn unit(&self) -> u32 {
        self.0.unit()
    }
    fn running(&self) -> &RunningSet {
        self.0.running()
    }
    fn start(&mut self, id: JobId) -> Result<(), StartError> {
        let r = ledger::span(Slot::Ctx, || self.0.start(id));
        let ok = r.is_ok();
        ledger::count(|c| {
            c.starts += u64::from(ok);
            c.start_errors += u64::from(!ok);
        });
        r
    }
    fn waiting_dur(&self, id: JobId) -> Option<Duration> {
        ledger::span(Slot::Ctx, || self.0.waiting_dur(id))
    }
    fn request_wakeup(&mut self, at: SimTime) {
        ledger::span(Slot::Ctx, || self.0.request_wakeup(at))
    }
    fn waiting_jobs(&mut self) -> &[JobView] {
        let _g = ledger::enter(Slot::Ctx);
        self.0.waiting_jobs()
    }
    fn trace(&mut self) -> Option<&mut TraceSink> {
        self.0.trace()
    }
    fn attribution(&mut self) -> Option<&mut AttrNotes> {
        self.0.attribution()
    }
    fn malleable_bounds(&self, id: JobId) -> Option<(u32, u32)> {
        self.0.malleable_bounds(id)
    }
    fn shrink_running(&mut self, id: JobId, delta: u32) -> u32 {
        ledger::span(Slot::Ctx, || self.0.shrink_running(id, delta))
    }
    fn grow_running(&mut self, id: JobId, delta: u32) -> u32 {
        ledger::span(Slot::Ctx, || self.0.grow_running(id, delta))
    }
    fn reconfig_charge(&self, delta: u32) -> Duration {
        self.0.reconfig_charge(delta)
    }
}

/// Times the `Scheduler` callbacks and hands cycles a timed context.
pub struct TimedScheduler<S>(S);

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn on_arrival(&mut self, job: JobView) {
        ledger::span(Slot::Sched, || self.0.on_arrival(job))
    }
    fn on_queued_ecc(&mut self, id: JobId, num: u32, dur: Duration) {
        ledger::span(Slot::Sched, || self.0.on_queued_ecc(id, num, dur))
    }
    fn on_completion(&mut self, id: JobId) {
        ledger::span(Slot::Sched, || self.0.on_completion(id))
    }
    fn cycle(&mut self, ctx: &mut dyn SchedContext) {
        let _g = ledger::enter(Slot::Sched);
        let depth = self.0.waiting_len() as u64;
        ledger::count(|c| {
            c.cycles += 1;
            c.depth_sum += depth;
        });
        self.0.cycle(&mut TimedCtx(ctx));
    }
    fn waiting_len(&self) -> usize {
        self.0.waiting_len()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn stats(&self) -> SchedStats {
        self.0.stats()
    }
}

/// Times a policy core's cycles.
pub struct TimedCore<P>(P);

impl<P: BatchPolicy> BatchPolicy for TimedCore<P> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn dedicated_name(&self) -> &'static str {
        self.0.dedicated_name()
    }
    fn on_admit(&mut self, job: &JobView) {
        self.0.on_admit(job)
    }
    fn skip_budget(&self) -> Option<u32> {
        self.0.skip_budget()
    }
    fn cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        ded: Option<Freeze>,
        shared: &mut PolicyShared,
    ) {
        ledger::span(Slot::Core, || self.0.cycle(queue, ctx, ded, shared))
    }
    fn dedicated_cycle(
        &mut self,
        queue: &mut BatchQueue,
        ctx: &mut dyn SchedContext,
        claim: DedicatedClaim,
        bump_scount: bool,
        shared: &mut PolicyShared,
    ) {
        ledger::span(Slot::Core, || {
            self.0
                .dedicated_cycle(queue, ctx, claim, bump_scount, shared)
        })
    }
}

/// Times a stack layer's drive under its own slot.
pub struct TimedLayer<L> {
    inner: L,
    slot: Slot,
}

impl<L: StackLayer> StackLayer for TimedLayer<L> {
    fn admit(&mut self, job: JobView, state: &mut StackState) {
        self.inner.admit(job, state)
    }
    fn drive(&mut self, ctx: &mut dyn SchedContext, state: &mut StackState) {
        ledger::span(self.slot, || self.inner.drive(ctx, state))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn boxed<L: StackLayer + Send + 'static>(layer: L) -> Box<dyn Scheduler + Send> {
    Box::new(TimedScheduler(PolicyStack::from_layer(layer)))
}

/// Assemble `spec` from timed pieces: the same composition as
/// [`StackSpec::build`], with every core, layer and the `PolicyStack`
/// wrapped.
pub fn build_timed(spec: StackSpec, params: SchedParams) -> Box<dyn Scheduler + Send> {
    macro_rules! stack {
        ($core:expr, $scount:expr) => {{
            let core = TimedCore($core);
            match (spec.dedicated, spec.malleable) {
                (false, false) => boxed(TimedLayer {
                    inner: BatchOnly::new(core),
                    slot: Slot::BatchOnly,
                }),
                (true, false) => boxed(TimedLayer {
                    inner: WithDedicated::new(core, $scount),
                    slot: Slot::Dedicated,
                }),
                (false, true) => boxed(TimedLayer {
                    inner: WithMalleable::new(TimedLayer {
                        inner: BatchOnly::new(core),
                        slot: Slot::BatchOnly,
                    }),
                    slot: Slot::Malleable,
                }),
                (true, true) => boxed(TimedLayer {
                    inner: WithMalleable::new(TimedLayer {
                        inner: WithDedicated::new(core, $scount),
                        slot: Slot::Dedicated,
                    }),
                    slot: Slot::Malleable,
                }),
            }
        }};
    }
    match spec.core {
        CorePolicy::Fcfs => stack!(FcfsCore, 0),
        CorePolicy::Conservative => stack!(ConservativeCore::new(), 0),
        CorePolicy::Easy => stack!(EasyCore, 0),
        CorePolicy::Los => stack!(LosCore::new(params.lookahead), 0),
        CorePolicy::DelayedLos => {
            stack!(DelayedLosCore::new(params.cs, params.lookahead), params.cs)
        }
        CorePolicy::Adaptive => stack!(AdaptiveCore::new(), params.cs),
        CorePolicy::Sjf => stack!(OrderedCore::new(OrderPolicy::ShortestJobFirst), 0),
        CorePolicy::SjfBf => stack!(OrderedCore::with_backfill(OrderPolicy::ShortestJobFirst), 0),
        CorePolicy::SmallestFirst => stack!(OrderedCore::new(OrderPolicy::SmallestJobFirst), 0),
        CorePolicy::SmallestFirstBf => {
            stack!(OrderedCore::with_backfill(OrderPolicy::SmallestJobFirst), 0)
        }
        CorePolicy::LargestFirst => stack!(OrderedCore::new(OrderPolicy::LargestJobFirst), 0),
        CorePolicy::LargestFirstBf => {
            stack!(OrderedCore::with_backfill(OrderPolicy::LargestJobFirst), 0)
        }
    }
}

/// The observers a run arms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observers {
    /// The virtual-time telemetry sampler.
    pub timeline: Option<TimelineConfig>,
    /// Per-job wait attribution.
    pub attribution: bool,
}

impl Observers {
    /// Arm these observers on `engine`.
    pub fn arm<S: Scheduler>(self, engine: &mut Engine<S>) {
        if let Some(cfg) = self.timeline {
            engine.enable_timeline(cfg);
        }
        if self.attribution {
            engine.enable_attribution();
        }
    }
}

/// One materialized run: through `StackExperiment::run_raw` untraced,
/// through the same steps on the wrapped stack when `traced`. Returns the
/// raw result (outcomes kept for the checks) and its metrics.
pub fn run_materialized(
    spec: StackSpec,
    params: SchedParams,
    machine: MachineSpec,
    observers: Observers,
    w: &Workload,
    traced: bool,
) -> Result<(SimResult, RunMetrics), SimError> {
    if !traced {
        let exp = StackExperiment {
            spec,
            params,
            machine,
            timeline: observers.timeline,
            attribution: observers.attribution,
            reconfig_cost: None,
        };
        let result = exp.run_raw(w)?;
        let metrics = RunMetrics::from_result(&result);
        return Ok((result, metrics));
    }
    let mut engine = Engine::new(
        machine.build(),
        build_timed(spec, params),
        spec.ecc_policy(),
    );
    observers.arm(&mut engine);
    ledger::span(Slot::Load, || engine.load(&w.jobs, &w.eccs))?;
    let result = ledger::span(Slot::Sim, || engine.run())?;
    let metrics = ledger::span(Slot::Fold, || RunMetrics::from_result(&result));
    ledger::count(|c| c.jobs_folded += result.outcomes.len() as u64);
    Ok((result, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::digest;
    use elastisched_sched::Algorithm;
    use elastisched_workload::{generate, GeneratorConfig};

    /// The wrapped stack decides exactly like the registry's, for every
    /// registry algorithm and the malleable layer.
    #[test]
    fn timed_stacks_match_registry_stacks() {
        let het = generate(
            &GeneratorConfig::paper_heterogeneous(0.5, 0.3)
                .with_paper_eccs()
                .with_malleable(0.5)
                .with_jobs(150)
                .with_seed(3),
        );
        let params = SchedParams::with_cs(7);
        let mut specs: Vec<StackSpec> = Algorithm::ALL.iter().map(|a| a.stack_spec()).collect();
        specs.push("delayed-los+m".parse().unwrap());
        specs.push("hybrid-los+m".parse().unwrap());
        for spec in specs {
            let plain = run_materialized(
                spec,
                params,
                MachineSpec::BLUEGENE_P,
                Observers::default(),
                &het,
                false,
            )
            .unwrap();
            let timed = run_materialized(
                spec,
                params,
                MachineSpec::BLUEGENE_P,
                Observers::default(),
                &het,
                true,
            )
            .unwrap();
            assert_eq!(plain.1, timed.1, "{spec}");
            assert_eq!(digest(&plain.1), digest(&timed.1), "{spec}");
        }
        let t = ledger::take();
        assert!(t.counts.cycles > 0 && t.counts.starts > 0);
        assert!(t.spans[Slot::Core as usize] > 0);
        assert!(t.spans[Slot::Dedicated as usize] > 0);
        assert!(t.spans[Slot::Malleable as usize] > 0);
    }
}
