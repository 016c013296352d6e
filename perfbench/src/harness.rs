//! The measurement loop shared by every workload: repetitions for a
//! time budget, the untraced end-to-end figures, the traced pass with
//! its self-time ledger, and the output.

use crate::ledger::{self, Slot, Totals};
use crate::stats::{self, Fnv};
use elastisched_sim::SimResult;
use std::collections::BTreeMap;
use std::time::Instant;

/// How a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The program's own entry points, no wrappers.
    Untraced,
    /// Wrapped layers recording into the ledger.
    Traced,
    /// Traced, with the workload's observers left disarmed.
    TracedDisarmed,
}

impl Mode {
    /// Whether the wrappers are in.
    pub fn traced(self) -> bool {
        self != Mode::Untraced
    }
}

/// Counters from `SimResult`s, summed (peaks: maximum) over runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    pub events: u64,
    pub cycles: u64,
    pub coalesced: u64,
    pub peak_queue_len: u64,
    pub peak_live_jobs: u64,
    pub ecc_applied: u64,
    pub ecc_dropped: u64,
    pub reconfigs: u64,
    pub dp_hits: u64,
    pub dp_misses: u64,
    pub dp_incremental_hits: u64,
    pub head_skips: u64,
}

impl SimCounts {
    /// The counters of one run.
    pub fn of(r: &SimResult) -> Self {
        SimCounts {
            events: r.engine.events,
            cycles: r.engine.cycles,
            coalesced: r.engine.events_coalesced,
            peak_queue_len: r.engine.peak_queue_len,
            peak_live_jobs: r.engine.peak_live_jobs,
            ecc_applied: r.ecc.applied(),
            ecc_dropped: r.ecc.dropped_policy + r.ecc.dropped_stale,
            reconfigs: r.reconfig.grows + r.reconfig.shrinks,
            dp_hits: r.sched_stats.dp_cache_hits,
            dp_misses: r.sched_stats.dp_cache_misses,
            dp_incremental_hits: r.sched_stats.dp_incremental_hits,
            head_skips: r.sched_stats.head_skips,
        }
    }

    /// Fold another run in.
    pub fn add(&mut self, o: &SimCounts) {
        self.events += o.events;
        self.cycles += o.cycles;
        self.coalesced += o.coalesced;
        self.peak_queue_len = self.peak_queue_len.max(o.peak_queue_len);
        self.peak_live_jobs = self.peak_live_jobs.max(o.peak_live_jobs);
        self.ecc_applied += o.ecc_applied;
        self.ecc_dropped += o.ecc_dropped;
        self.reconfigs += o.reconfigs;
        self.dp_hits += o.dp_hits;
        self.dp_misses += o.dp_misses;
        self.dp_incremental_hits += o.dp_incremental_hits;
        self.head_skips += o.head_skips;
    }
}

/// Digests by (workload, stack) key, shared by every pass of a process:
/// a key digested twice must digest the same.
#[derive(Default)]
pub struct Digests(BTreeMap<String, u64>);

impl Digests {
    /// Record `d` under `key`; an error when `key` already holds another
    /// digest.
    pub fn check(&mut self, key: &str, d: u64) -> Result<(), String> {
        match self.0.get(key) {
            Some(&old) if old != d => {
                Err(format!("digest of {key} changed: {old:016x} -> {d:016x}"))
            }
            Some(_) => Ok(()),
            None => {
                self.0.insert(key.to_string(), d);
                Ok(())
            }
        }
    }

    /// One line per (workload, stack): keys ending in a point number
    /// (the campaign's) fold into one digest per prefix.
    pub fn lines(&self) -> Vec<String> {
        let mut groups: BTreeMap<&str, (Fnv, usize)> = BTreeMap::new();
        for (k, d) in &self.0 {
            let group = match k.rsplit_once('/') {
                Some((g, n)) if n.parse::<usize>().is_ok() => g,
                _ => k.as_str(),
            };
            let e = groups.entry(group).or_default();
            e.0.text(k).word(*d);
            e.1 += 1;
        }
        groups
            .into_iter()
            .map(|(g, (h, n))| {
                format!(
                    "digest {g}: {:016x} ({n} run{})",
                    h.finish(),
                    if n == 1 { "" } else { "s" }
                )
            })
            .collect()
    }
}

/// One pass's run results.
#[derive(Default)]
pub struct Tally {
    /// Host milliseconds of each run, input to `RunMetrics`.
    pub run_ms: Vec<f64>,
    /// Simulated jobs completed.
    pub jobs: u64,
    /// Host seconds of the measured sections.
    pub measured_s: f64,
    /// Runs (and output checks) attempted.
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// Simulation counters.
    pub sim: SimCounts,
    /// Sweep points run (campaign) or runs (the rest).
    pub points: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Host milliseconds of each (input, stack) pair's runs.
    pub by_key: BTreeMap<String, Vec<f64>>,
    /// Each repetition's input class, measured seconds and jobs.
    pub reps: Vec<(usize, f64, u64)>,
    /// Each untraced repetition's input class and peak resident MiB.
    pub peaks: Vec<(usize, f64)>,
}

impl Tally {
    /// A run of the (input, stack) pair `key` that completed and passed
    /// its checks.
    pub fn ok(&mut self, key: String, ms: f64, jobs: u64, counts: &SimCounts) {
        self.attempted += 1;
        self.run_ms.push(ms);
        self.by_key.entry(key).or_default().push(ms);
        self.jobs += jobs;
        self.sim.add(counts);
    }

    /// A run or check that failed.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// A check of something other than a run: counts as attempted, and
    /// as failed when `r` is an error.
    pub fn check(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.attempted += 1,
            Err(e) => self.fail(e),
        }
    }
}

/// One workload, set up and ready to repeat.
pub trait Workload {
    /// Run repetition `idx` in `mode`, recording into `tally` and
    /// checking digests against `digests`.
    fn rep(&mut self, idx: usize, mode: Mode, tally: &mut Tally, digests: &mut Digests);

    /// Threads a repetition keeps busy.
    fn workers(&self) -> usize {
        1
    }

    /// Whether the workload arms observers, so the traced pass also
    /// runs them disarmed to isolate their cost.
    fn has_observers(&self) -> bool {
        false
    }

    /// The input class of repetition `idx`: repetitions of one class
    /// replay the same inputs.
    fn class(&self, idx: usize) -> usize {
        let _ = idx;
        0
    }

    /// Input classes; the untraced pass covers each at least once.
    fn classes(&self) -> usize {
        1
    }

    /// Workload-specific report lines.
    fn lines(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Command-line settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints.
#[derive(Default)]
pub struct Output {
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Output {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn absorb(&mut self, label: &str, t: &Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        for e in &t.errors {
            self.lines.push(format!("FAILED ({label}): {e}"));
        }
    }

    /// Print the report lines, then the one-line JSON result.
    pub fn print(mut self) {
        let mut bad = Vec::new();
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                bad.push(m.name);
                m.value = 0.0;
            }
        }
        for name in bad {
            self.lines
                .push(format!("FAILED: metric {name} is not finite"));
            self.failed += 1;
            self.attempted += 1;
        }
        for l in &self.lines {
            println!("{l}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Run repetition `i` in `mode`, recording its class, measured seconds
/// and jobs. Returns its wall seconds.
fn one(
    w: &mut dyn Workload,
    i: usize,
    mode: Mode,
    tally: &mut Tally,
    digests: &mut Digests,
) -> f64 {
    let start = Instant::now();
    let (m0, j0) = (tally.measured_s, tally.jobs);
    w.rep(i, mode, tally, digests);
    tally
        .reps
        .push((w.class(i), tally.measured_s - m0, tally.jobs - j0));
    start.elapsed().as_secs_f64()
}

/// Throughput of the median repetition: per input class, the median
/// jobs and the median measured seconds of its repetitions, summed over
/// classes so every class weighs the same however often it ran.
pub fn jobs_per_s(t: &Tally) -> f64 {
    let mut classes: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for &(c, secs, jobs) in &t.reps {
        let e = classes.entry(c).or_default();
        e.0.push(jobs as f64);
        e.1.push(secs);
    }
    let (jobs, secs) = classes.values().fold((0.0, 0.0), |(j, s), (js, ss)| {
        (j + stats::median(js), s + stats::median(ss))
    });
    jobs / secs
}

/// The peak resident set of the median repetition: per input class the
/// median of its repetitions' peaks, averaged over classes.
pub fn peak_rss_mb(t: &Tally) -> f64 {
    let mut classes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(c, mb) in &t.peaks {
        classes.entry(c).or_default().push(mb);
    }
    let medians: Vec<f64> = classes.values().map(|v| stats::median(v)).collect();
    stats::mean(&medians)
}

/// The mean over (input, stack) pairs of each pair's median run time.
pub fn run_ms_mean(t: &Tally) -> f64 {
    let medians: Vec<f64> = t.by_key.values().map(|v| stats::median(v)).collect();
    stats::mean(&medians)
}

/// Host milliseconds of all runs of a pass.
fn run_ms_sum(t: &Tally) -> f64 {
    t.run_ms.iter().sum()
}

fn run_lines(label: &str, t: &Tally) -> Vec<String> {
    let pct = |p: f64| match stats::percentile(&t.run_ms, p) {
        Some(v) => format!("{v:.3} ms"),
        None => format!("n/a (needs {} runs)", (10.0 / (1.0 - p)).round() as u64),
    };
    vec![
        format!("{label} runs: {} (sample count)", t.run_ms.len()),
        format!("{label} run_ms_p50: {}", pct(0.5)),
        format!("{label} run_ms_p90: {}", pct(0.9)),
        format!(
            "{label} fail_ratio: {} ({} failed of {} attempted)",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        ),
    ]
}

/// Measure `w` as the settings ask and build the output.
pub fn measure(w: &mut dyn Workload, s: Settings, setup_s: f64) -> Output {
    let mut out = Output::default();
    let mut digests = Digests::default();
    if !s.trace {
        // Untraced: repeat until the budget has passed and every input
        // class has run. The peak resident set is taken per repetition,
        // so neither set-up nor an earlier repetition counts in it.
        let mut t = Tally::default();
        t.check(stats::reset_peak_rss());
        let start = Instant::now();
        let mut reps = 0;
        while reps < w.classes() || start.elapsed().as_secs_f64() < s.seconds {
            one(w, reps, Mode::Untraced, &mut t, &mut digests);
            match stats::peak_rss_mb().and_then(|mb| stats::reset_peak_rss().map(|()| mb)) {
                Ok(mb) => t.peaks.push((w.class(reps), mb)),
                Err(e) => t.fail(e),
            }
            reps += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        out.lines
            .push(format!("repetitions: {reps} in {wall:.3} s"));
        out.lines.extend(run_lines("untraced", &t));
        out.absorb("untraced", &t);
        out.lines.extend(w.lines());
        out.lines.extend(digests.lines());
        out.metric("jobs_per_s", jobs_per_s(&t), "jobs/s");
        out.metric("run_ms_mean", run_ms_mean(&t), "ms");
        out.metric("peak_rss_mb", peak_rss_mb(&t), "MiB");
        out.metric("setup_s", setup_s, "s");
        for m in &out.metrics {
            out.lines
                .push(format!("{}: {} {}", m.name, m.value, m.unit));
        }
        return out;
    }

    // Traced: each repetition runs traced, then (for workloads with
    // observers) traced with the observers disarmed, then untraced, so
    // host-speed drift falls on all three alike.
    let mut traced = Tally::default();
    let mut disarmed = Tally::default();
    let mut untraced = Tally::default();
    let mut totals = Totals::default();
    let mut disarmed_totals = Totals::default();
    let _ = ledger::take_merged();
    let start = Instant::now();
    let (mut reps, mut wall) = (0, 0.0);
    while reps == 0 || start.elapsed().as_secs_f64() < s.seconds {
        wall += one(w, reps, Mode::Traced, &mut traced, &mut digests);
        totals.merge(&ledger::take_merged());
        if w.has_observers() {
            one(w, reps, Mode::TracedDisarmed, &mut disarmed, &mut digests);
            disarmed_totals.merge(&ledger::take_merged());
        }
        one(w, reps, Mode::Untraced, &mut untraced, &mut digests);
        reps += 1;
    }
    out.lines.push(format!(
        "traced repetitions: {reps}, traced wall {wall:.3} s"
    ));
    out.lines.extend(run_lines("traced", &traced));
    out.absorb("traced", &traced);
    out.absorb("traced, observers disarmed", &disarmed);
    out.absorb("untraced", &untraced);
    out.lines.extend(digests.lines());
    layer_metrics(
        &mut out,
        &totals,
        w.has_observers().then_some(&disarmed_totals),
        &traced,
        &untraced,
        reps,
        wall,
        w.workers(),
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Output,
    t: &Totals,
    disarmed: Option<&Totals>,
    traced: &Tally,
    untraced: &Tally,
    reps: usize,
    wall: f64,
    workers: usize,
) {
    let r = reps as f64;
    let c = &t.counts;
    let sim = &traced.sim;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let ns = |slots: &[Slot]| slots.iter().map(|&s| t.nanos[s as usize]).sum::<u64>();
    let ingest = [Slot::Parse, Slot::Source, Slot::Gen];
    let layers = [Slot::BatchOnly, Slot::Dedicated, Slot::Malleable];
    let sched_all = [
        Slot::Sched,
        Slot::Core,
        Slot::BatchOnly,
        Slot::Dedicated,
        Slot::Malleable,
    ];
    let budget = wall * workers as f64;
    let residual = budget - t.total_secs();

    // The ledger must partition the pass: no slot negative (by
    // construction) and nothing charged twice, so the slots fit in the
    // pass's worker-seconds with a non-negative residual.
    let mut check = Tally::default();
    check.check(if residual >= -1e-6 * budget {
        Ok(())
    } else {
        Err(format!(
            "ledger over-counts: slots {:.6} s > wall x workers {budget:.6} s",
            t.total_secs()
        ))
    });
    out.absorb("ledger", &check);

    out.metric("workload.ingest_s", ns(&ingest) as f64 * 1e-9 / r, "s");
    out.metric("workload.ns_per_job", per(ns(&ingest), c.jobs_in), "ns");
    out.metric("workload.items", c.items as f64 / r, "count");
    out.metric("sim.self_s", t.secs(Slot::Sim) / r, "s");
    out.metric("sim.ns_per_event", per(ns(&[Slot::Sim]), sim.events), "ns");
    out.metric("sim.ctx_s", t.secs(Slot::Ctx) / r, "s");
    out.metric("sim.events", sim.events as f64 / r, "count");
    out.metric("sim.cycles", sim.cycles as f64 / r, "count");
    out.metric(
        "sim.coalesced_ratio",
        per(sim.coalesced, sim.events),
        "ratio",
    );
    out.metric("sim.peak_queue_len", sim.peak_queue_len as f64, "count");
    out.metric("sim.peak_live_jobs", sim.peak_live_jobs as f64, "count");
    out.metric("sim.ecc_applied", sim.ecc_applied as f64 / r, "count");
    out.metric("sim.ecc_dropped", sim.ecc_dropped as f64 / r, "count");
    out.metric("sim.reconfigs", sim.reconfigs as f64 / r, "count");
    out.metric("sched.self_s", t.secs(Slot::Sched) / r, "s");
    out.metric("sched.ns_per_cycle", per(ns(&sched_all), c.cycles), "ns");
    out.metric("sched.core_s", t.secs(Slot::Core) / r, "s");
    out.metric("sched.layer_s", ns(&layers) as f64 * 1e-9 / r, "s");
    out.metric("sched.queue_depth_mean", per(c.depth_sum, c.cycles), "jobs");
    out.metric("sched.starts_per_cycle", per(c.starts, c.cycles), "ratio");
    out.metric("sched.start_errors", c.start_errors as f64 / r, "count");
    out.metric(
        "sched.dp_solves",
        (sim.dp_hits + sim.dp_misses) as f64 / r,
        "count",
    );
    out.metric(
        "sched.dp_hit_ratio",
        per(sim.dp_hits, sim.dp_hits + sim.dp_misses),
        "ratio",
    );
    out.metric(
        "sched.dp_incremental_ratio",
        per(sim.dp_incremental_hits, sim.dp_misses),
        "ratio",
    );
    out.metric("sched.head_skips", sim.head_skips as f64 / r, "count");
    out.metric("metrics.fold_s", t.secs(Slot::Fold) / r, "s");
    out.metric(
        "metrics.ns_per_job",
        per(ns(&[Slot::Fold]), c.jobs_folded),
        "ns",
    );
    out.metric("core.points", traced.points as f64 / r, "count");
    out.metric(
        "core.parallel_efficiency",
        t.incl_secs(Slot::Point) / budget,
        "ratio",
    );
    out.metric("bench.residual_share", residual / budget, "ratio");
    let (traced_ms, untraced_ms) = (run_ms_sum(traced), run_ms_sum(untraced));
    out.metric(
        "bench.trace_overhead_ratio",
        traced_ms / untraced_ms,
        "ratio",
    );

    out.lines.push(format!(
        "ledger over {reps} traced repetitions, {workers} worker(s), wall {wall:.6} s (per repetition below):"
    ));
    for s in Slot::ALL {
        out.lines.push(format!(
            "  {:<22} {:>12.6} s  {:>6.2}%  ({} spans)",
            format!("{}_s", s.name()),
            t.secs(s) / r,
            100.0 * t.secs(s) / budget,
            t.spans[s as usize]
        ));
    }
    out.lines.push(format!(
        "  {:<22} {:>12.6} s  {:>6.2}%",
        "bench.residual_s",
        residual / r,
        100.0 * residual / budget
    ));
    out.lines.push(format!(
        "  {:<22} {:>12.6} s  (slots + residual = wall x workers)",
        "sum",
        (t.total_secs() + residual) / r
    ));
    let jobs_parsed = c.jobs_in;
    if t.spans[Slot::Parse as usize] > 0 {
        out.lines.push(format!(
            "workload.parse_s: {:.6} s/rep, workload.parse_ns_per_job: {:.1} ns",
            t.secs(Slot::Parse) / r,
            per(ns(&[Slot::Parse]), jobs_parsed)
        ));
    }
    if let Some(d) = disarmed {
        out.lines.push(format!(
            "sim.observer_s: {:.6} s/rep (sim.self_s armed {:.6} - disarmed {:.6})",
            (t.secs(Slot::Sim) - d.secs(Slot::Sim)) / r,
            t.secs(Slot::Sim) / r,
            d.secs(Slot::Sim) / r
        ));
    }
    out.lines.push(format!(
        "run time traced {:.6} s vs untraced {:.6} s over the same runs",
        traced_ms * 1e-3,
        untraced_ms * 1e-3
    ));
    for m in &out.metrics {
        out.lines
            .push(format!("{}: {} {}", m.name, m.value, m.unit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_per_s_weighs_each_input_class_once() {
        // Class 0 ran three times (one slow outlier), class 1 once.
        let t = Tally {
            reps: vec![(0, 1.0, 100), (1, 3.0, 300), (0, 1.0, 100), (0, 9.0, 100)],
            ..Tally::default()
        };
        // Medians: class 0 → 100 jobs in 1 s; class 1 → 300 jobs in 3 s.
        assert_eq!(jobs_per_s(&t), 400.0 / 4.0);
    }

    #[test]
    fn peak_rss_averages_per_class_medians() {
        let t = Tally {
            peaks: vec![(0, 10.0), (1, 30.0), (0, 12.0), (0, 50.0)],
            ..Tally::default()
        };
        // Medians: class 0 → 12, class 1 → 30.
        assert_eq!(peak_rss_mb(&t), (12.0 + 30.0) / 2.0);
    }

    #[test]
    fn run_ms_mean_averages_per_pair_medians() {
        let mut t = Tally::default();
        let c = SimCounts::default();
        for ms in [1.0, 2.0, 30.0] {
            t.ok("a".into(), ms, 1, &c);
        }
        t.ok("b".into(), 10.0, 1, &c);
        assert_eq!(run_ms_mean(&t), (2.0 + 10.0) / 2.0);
        assert_eq!(t.run_ms.len(), 4);
        assert_eq!((t.attempted, t.failed, t.jobs), (4, 0, 4));
        t.fail("boom".into());
        t.check(Ok(()));
        assert_eq!((t.attempted, t.failed), (6, 1));
    }

    #[test]
    fn digests_must_repeat() {
        let mut d = Digests::default();
        assert!(d.check("w/set0/EASY", 1).is_ok());
        assert!(d.check("w/set0/EASY", 1).is_ok());
        assert!(d.check("w/set0/EASY", 2).unwrap_err().contains("changed"));
        assert!(d.check("c/fig7/EASY/0", 5).is_ok());
        assert!(d.check("c/fig7/EASY/1", 6).is_ok());
        let lines = d.lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].starts_with("digest c/fig7/EASY:") && lines[0].ends_with("(2 runs)"));
        assert!(lines[1].starts_with("digest w/set0/EASY:") && lines[1].ends_with("(1 run)"));
    }
}
