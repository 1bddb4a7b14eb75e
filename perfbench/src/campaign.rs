//! The campaign workload: a Monte-Carlo campaign of sub-microsecond
//! N-version-programming trials, untraced (`campaign-nvp`), and the same
//! campaign traced into a bounded ring sink, which `campaign-nvp`'s traced
//! run measures for the `obs` layer.
//!
//! Each trial runs a 3-version ensemble through the Figure-1(a) pattern
//! engine with a majority voter. Every version carries its own seeded
//! Bohrbug (failing a quarter of the input space) whose wrong output is
//! the correct one shifted by a version-specific amount, so two wrong
//! outputs never agree and the voter can detect but never be fooled.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use redundancy_core::adjudicator::voting::MajorityVoter;
use redundancy_core::obs::{Observer, RingBufferObserver};
use redundancy_core::patterns::ParallelEvaluation;
use redundancy_core::rng::SplitMix64;
use redundancy_core::variant::{BoxedVariant, Variant};
use redundancy_core::ExecContext;
use redundancy_faults::{FaultPlan, FaultyVariant};
use redundancy_sim::trial::{Campaign, TracedMergeStats, TrialOutcome, TrialSummary};

use crate::layers::{
    CountingObserver, HashingObserver, Meter, TimedAdjudicator, TimedVariant, TimerCost,
};
use crate::{ns_since, Bench, Check, Sample};

/// Trials per round.
const TRIALS: usize = 8_192;
/// Versions in the ensemble.
const VERSIONS: usize = 3;
/// Share of the input space each version's Bohrbug fails on.
const DENSITY: f64 = 0.25;
/// Work units each version charges per call.
const WORK: u64 = 25;
/// Event capacity of the traced workload's ring sink: far below the
/// events of one round, so the sink stays bounded and drops the oldest.
const RING_CAPACITY: usize = 4_096;

fn golden(x: &u64) -> u64 {
    x.wrapping_mul(2)
}

/// The seeded versions: slot `s` corrupts by adding `1001 * (s + 1)`.
fn versions(plan: &FaultPlan) -> Vec<FaultyVariant<u64, u64>> {
    (0..plan.slots())
        .map(|slot| {
            let shift = 1001 * (slot as u64 + 1);
            plan.build_variant_corrupting(
                slot,
                format!("v{slot}"),
                WORK,
                golden,
                move |c: &u64, _| c.wrapping_add(shift),
            )
        })
        .collect()
}

fn ensemble(plan: &FaultPlan) -> ParallelEvaluation<u64, u64> {
    let mut pattern = ParallelEvaluation::new(MajorityVoter::new());
    for version in versions(plan) {
        pattern.push_variant(Box::new(version));
    }
    pattern
}

/// The same ensemble with every version and the voter timed.
fn timed_ensemble(
    plan: &FaultPlan,
    variant: &Arc<Meter>,
    voter: &Arc<Meter>,
) -> ParallelEvaluation<u64, u64> {
    let mut pattern = ParallelEvaluation::new(TimedAdjudicator::new(MajorityVoter::new(), voter));
    for version in versions(plan) {
        let boxed: BoxedVariant<u64, u64> = Box::new(version);
        pattern.push_variant(TimedVariant::boxed(boxed, variant));
    }
    pattern
}

fn trial(
    pattern: &ParallelEvaluation<u64, u64>,
    ctx: &mut ExecContext,
    input: u64,
) -> TrialOutcome {
    let report = pattern.run(&input, ctx);
    let cost = ctx.cost();
    match report.verdict.output() {
        Some(out) if *out == golden(&input) => TrialOutcome::Correct { cost },
        Some(_) => TrialOutcome::Undetected { cost },
        None => TrialOutcome::Detected { cost },
    }
}

fn code(outcome: &TrialOutcome) -> u8 {
    match outcome {
        TrialOutcome::Correct { .. } => 1,
        TrialOutcome::Undetected { .. } => 2,
        TrialOutcome::Detected { .. } => 3,
    }
}

/// What the shared parts of both campaign workloads are built from.
struct Inputs {
    seed: u64,
    /// Trial `i` feeds input `base + i`.
    base: u64,
    plan: FaultPlan,
    pattern: ParallelEvaluation<u64, u64>,
    campaign: Campaign,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let plan = FaultPlan::bohrbugs(rng.next_u64(), VERSIONS, DENSITY);
        Inputs {
            seed,
            base: rng.next_u64() >> 24,
            pattern: ensemble(&plan),
            plan,
            campaign: Campaign::new(TRIALS),
        }
    }

    fn untraced(&self, jobs: usize) -> TrialSummary {
        self.campaign.run_parallel(self.seed, jobs, |seed, i| {
            trial(
                &self.pattern,
                &mut ExecContext::new(seed),
                self.base + i as u64,
            )
        })
    }

    fn traced(&self, jobs: usize, sink: Arc<dyn Observer>) -> (TrialSummary, TracedMergeStats) {
        self.campaign
            .run_traced_parallel_stats(self.seed, jobs, sink, |ctx, _seed, i| {
                trial(&self.pattern, ctx, self.base + i as u64)
            })
    }

    /// The trial dispositions by hand: every version's `execute` called
    /// directly on every input, then 2-of-3 equality.
    fn hand_vote(&self) -> Vec<u8> {
        let versions = versions(&self.plan);
        (0..TRIALS)
            .map(|i| {
                let input = self.base + i as u64;
                let seed = Campaign::trial_seed(self.seed, i);
                let outs: Vec<Option<u64>> = versions
                    .iter()
                    .map(|v| v.execute(&input, &mut ExecContext::new(seed)).ok())
                    .collect();
                let agreed = outs
                    .iter()
                    .flatten()
                    .find(|&&out| outs.iter().filter(|other| **other == Some(out)).count() >= 2);
                match agreed {
                    Some(&out) if out == golden(&input) => 1,
                    Some(_) => 2,
                    None => 3,
                }
            })
            .collect()
    }

    /// Checks one campaign's per-trial dispositions against the hand vote
    /// and its summary against their counts.
    fn check_trials(
        &self,
        check: &mut Check,
        expected: &[u8],
        seen: &[AtomicU8],
        summary: &TrialSummary,
        what: &str,
    ) {
        let failed = expected
            .iter()
            .zip(seen)
            .filter(|(e, s)| **e != s.load(Ordering::Relaxed))
            .count();
        check.ops(TRIALS as u64, failed as u64, what);
        let count = |c: u8| expected.iter().filter(|&&e| e == c).count();
        check.require(
            summary.reliability.successes == count(1),
            &format!("{what}: correct count equals the hand vote"),
        );
        check.require(
            summary.detected.successes == count(3),
            &format!("{what}: detected count equals the hand vote"),
        );
        check.require(
            summary.undetected.successes == 0,
            &format!("{what}: distinct corruptions never outvote the correct output"),
        );
    }

    /// The untraced campaign with each trial's disposition recorded.
    fn recorded(&self, jobs: usize) -> (TrialSummary, Vec<AtomicU8>) {
        let seen: Vec<AtomicU8> = (0..TRIALS).map(|_| AtomicU8::new(0)).collect();
        let summary = self.campaign.run_parallel(self.seed, jobs, |seed, i| {
            let outcome = trial(
                &self.pattern,
                &mut ExecContext::new(seed),
                self.base + i as u64,
            );
            seen[i].store(code(&outcome), Ordering::Relaxed);
            outcome
        });
        (summary, seen)
    }

    /// Decorated jobs=1 round: the self-time split of one trial, with the
    /// round's outputs. `sink` is the traced workload's counted sink.
    fn split(
        &self,
        sink: Option<&Arc<CountingObserver>>,
    ) -> (TrialSummary, Option<TracedMergeStats>, Sample) {
        let (variant, voter) = (Meter::shared(), Meter::shared());
        let pattern = timed_ensemble(&self.plan, &variant, &voter);
        let pattern_ns = AtomicU64::new(0);
        let timed_trial = |ctx: &mut ExecContext, i: usize| {
            let started = Instant::now();
            let outcome = trial(&pattern, ctx, self.base + i as u64);
            pattern_ns.fetch_add(ns_since(started) as u64, Ordering::Relaxed);
            outcome
        };
        let clock = TimerCost::measure();
        if let Some(sink) = sink {
            sink.take();
        }
        let started = Instant::now();
        let (summary, stats) = match sink {
            None => (
                self.campaign.run_parallel(self.seed, 1, |seed, i| {
                    timed_trial(&mut ExecContext::new(seed), i)
                }),
                None,
            ),
            Some(sink) => {
                let (summary, stats) = self.campaign.run_traced_parallel_stats(
                    self.seed,
                    1,
                    Arc::clone(sink) as Arc<dyn Observer>,
                    |ctx, _seed, i| timed_trial(ctx, i),
                );
                (summary, Some(stats))
            }
        };
        let wall = ns_since(started);
        let ops = TRIALS as f64;
        let (variant_ns, variant_calls) = variant.take();
        let (voter_ns, voter_calls) = voter.take();
        let (sink_ns, events) = sink.map_or((0, 0), |s| s.take());
        let (variant_calls, voter_calls, events) =
            (variant_calls as f64, voter_calls as f64, events as f64);
        // Each layer's own reading less its timers' cost; the pattern's
        // reading also holds the whole cost of the timers nested in it.
        let variant_ns = variant_ns as f64 - variant_calls * clock.inner;
        let voter_ns = voter_ns as f64 - voter_calls * clock.inner;
        let sink_ns = sink_ns as f64 - events * clock.inner;
        let pattern_self = pattern_ns.into_inner() as f64
            - ops * clock.inner
            - (variant_calls + voter_calls) * clock.outer
            - variant_ns
            - voter_ns;
        let timers = (variant_calls + voter_calls + ops + events) * clock.outer;
        let trial_self = wall - variant_ns - voter_ns - pattern_self - sink_ns - timers;
        let mut split = vec![
            ("faults.variant_ns_per_op", variant_ns / ops),
            ("faults.variant_calls_per_op", variant_calls / ops),
            ("core.adjudicate_ns_per_op", voter_ns / ops),
            ("core.adjudicate_calls_per_op", voter_calls / ops),
            ("core.pattern_self_ns_per_op", pattern_self / ops),
            ("sim.trial_self_ns_per_op", trial_self / ops),
            ("trace.timer_ns_per_op", timers / ops),
            ("run.ns_per_op", wall / ops),
        ];
        if sink.is_some() {
            split.extend([
                ("obs.events_per_op", events / ops),
                ("obs.sink_ns_per_op", sink_ns / ops),
                ("obs.sink_ns_per_event", sink_ns / events.max(1.0)),
            ]);
        }
        (summary, stats, split)
    }
}

/// `campaign-nvp`: the untraced campaign through `Campaign::run_parallel`.
pub struct Nvp {
    inputs: Inputs,
}

impl Bench for Nvp {
    type Output = TrialSummary;
    type Fingerprint = TrialSummary;

    fn new(seed: u64) -> Self {
        Nvp {
            inputs: Inputs::new(seed),
        }
    }

    fn ops(&self) -> u64 {
        TRIALS as u64
    }

    fn round(&self, jobs: usize) -> TrialSummary {
        self.inputs.untraced(jobs)
    }

    fn fingerprint(out: &TrialSummary) -> TrialSummary {
        out.clone()
    }

    fn check(&self, jobs: usize) -> (Check, TrialSummary) {
        let mut check = Check::default();
        let expected = self.inputs.hand_vote();
        let (serial, seen) = self.inputs.recorded(1);
        self.inputs
            .check_trials(&mut check, &expected, &seen, &serial, "jobs=1");
        let (parallel, seen) = self.inputs.recorded(jobs);
        self.inputs
            .check_trials(&mut check, &expected, &seen, &parallel, "jobs=nproc");
        check.require(
            serial == parallel,
            "the summary is identical at jobs=1 and jobs=nproc",
        );
        (check, serial)
    }

    fn layer_round(&self) -> (TrialSummary, Sample, Sample) {
        let (summary, _, split) = self.inputs.split(None);
        (summary, split, Vec::new())
    }
}

/// The same campaign through `Campaign::run_traced_parallel_stats` into a
/// bounded ring sink: the `obs` layer of `campaign-nvp`'s traced run.
pub struct Traced {
    inputs: Inputs,
    ring: Arc<RingBufferObserver>,
    /// The ring behind the counting decorator, for the traced run.
    counted: Arc<CountingObserver>,
}

impl Traced {
    fn events_seen(&self) -> u64 {
        self.ring.len() as u64 + self.ring.dropped()
    }
}

impl Bench for Traced {
    type Output = (TrialSummary, TracedMergeStats, u64);
    /// The summary and the events the sink saw.
    type Fingerprint = (TrialSummary, u64);

    fn new(seed: u64) -> Self {
        let ring = RingBufferObserver::shared(RING_CAPACITY);
        Traced {
            inputs: Inputs::new(seed),
            counted: CountingObserver::shared(Arc::clone(&ring) as Arc<dyn Observer>),
            ring,
        }
    }

    fn ops(&self) -> u64 {
        TRIALS as u64
    }

    fn round(&self, jobs: usize) -> Self::Output {
        self.ring.clear();
        let sink = Arc::clone(&self.ring) as Arc<dyn Observer>;
        let (summary, stats) = self.inputs.traced(jobs, sink);
        (summary, stats, self.events_seen())
    }

    fn fingerprint(out: &Self::Output) -> Self::Fingerprint {
        (out.0.clone(), out.2)
    }

    fn check(&self, jobs: usize) -> (Check, Self::Fingerprint) {
        let mut check = Check::default();
        let expected = self.inputs.hand_vote();
        let untraced = self.inputs.untraced(1);
        let mut streams = Vec::new();
        for jobs in [1, jobs] {
            let seen: Vec<AtomicU8> = (0..TRIALS).map(|_| AtomicU8::new(0)).collect();
            let hash = HashingObserver::shared();
            let counted = CountingObserver::shared(Arc::clone(&hash) as Arc<dyn Observer>);
            let (summary, _) = self.inputs.campaign.run_traced_parallel_stats(
                self.inputs.seed,
                jobs,
                Arc::clone(&counted) as Arc<dyn Observer>,
                |ctx, _seed, i| {
                    let outcome = trial(&self.inputs.pattern, ctx, self.inputs.base + i as u64);
                    seen[i].store(code(&outcome), Ordering::Relaxed);
                    outcome
                },
            );
            let what = format!("traced jobs={jobs}");
            self.inputs
                .check_trials(&mut check, &expected, &seen, &summary, &what);
            check.require(
                summary == untraced,
                &format!("{what}: the summary equals the untraced campaign's"),
            );
            streams.push((summary, hash.digest(), counted.take().1));
        }
        let (serial, parallel) = (&streams[0], &streams[1]);
        check.require(
            serial.1 == parallel.1,
            "the event stream at jobs=nproc is byte-identical to jobs=1",
        );
        check.require(
            serial.2 == parallel.2 && serial.2 == serial.1 .0,
            "the counting sink sees the same event total at both job counts",
        );
        check.require(
            serial.2 > RING_CAPACITY as u64,
            "the event stream overflows the bounded sink",
        );
        (check, (serial.0.clone(), serial.2))
    }

    fn layer_round(&self) -> (Self::Output, Sample, Sample) {
        self.ring.clear();
        let (summary, stats, split) = self.inputs.split(Some(&self.counted));
        let decorated = (summary, stats.expect("a traced round"), self.events_seen());
        // Tracing overhead: an untraced and a traced round back to back.
        let started = Instant::now();
        std::hint::black_box(self.inputs.untraced(1));
        let untraced = ns_since(started);
        let started = Instant::now();
        std::hint::black_box(self.round(1));
        let overhead = (ns_since(started) - untraced) / TRIALS as f64;
        (decorated, split, vec![("obs.trace_ns_per_op", overhead)])
    }

    fn output_sample(&self, out: &Self::Output) -> Sample {
        vec![("obs.peak_buffered", out.1.peak_buffered as f64)]
    }
}
