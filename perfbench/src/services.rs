//! The service workloads: E20's twelve provider-profile × policy cells
//! fanned across the worker pool (`service-policies`), and E21's bursty,
//! one-sick-provider scenario through the sharded runtime with circuit
//! breakers (`service-sharded`).
//!
//! Requests arrive open-loop on the engine's virtual clock, so queueing
//! belongs to the simulated system; the benchmark drives whole runs in a
//! closed loop. Every run is followed by the p50, p99 and p999 latency
//! quantiles and the ledger digest, as every experiment computes them.

use std::sync::Arc;
use std::time::Instant;

use redundancy_services::breaker::BreakerConfig;
use redundancy_services::provider::SimProvider;
use redundancy_services::recovery::Backoff;
use redundancy_services::registry::InterfaceId;
use redundancy_services::runtime::{
    PlannedProvider, RequestOutcome, RequestPolicy, RuntimeConfig, RuntimeReport, ServiceRuntime,
    Workload,
};
use redundancy_services::shard::ShardedRuntime;
use redundancy_services::{ArrivalProcess, Value};
use redundancy_sim::parallel_tasks;

use crate::layers::{Meter, TimedProvider, TimerCost};
use crate::{ns_since, Bench, Check, Sample};

/// E20's provider profiles and request policies, in table order.
const SCENARIOS: [&str; 4] = ["healthy", "spiky", "flaky", "wearing"];
const POLICIES: [&str; 3] = ["single", "hedged", "failover"];
/// Requests per E20 cell.
const CELL_REQUESTS: u64 = 10_000;
/// Requests per sharded run, and the shard count (more shards than
/// workers).
const SHARDED_REQUESTS: u64 = 40_000;
const SHARDS: usize = 8;
/// Base service time of every provider (virtual ns).
const BASE_NS: u64 = 200_000;
/// The latency spike of the spiky and sick providers (virtual ns).
const SPIKE_NS: u64 = 20_000_000;
const QUANTILES: [f64; 3] = [0.5, 0.99, 0.999];

fn provider(id: String) -> redundancy_services::SimProviderBuilder {
    SimProvider::builder(id, InterfaceId::new("svc"))
        .latency(BASE_NS, BASE_NS / 10)
        .operation("work", |_, _| Ok(Value::Int(1)))
}

/// E20's three-provider pool for one profile.
fn e20_pool(scenario: &str) -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let b = provider(format!("{scenario}{i}"));
            let b = match scenario {
                "healthy" => b,
                "spiky" => b.latency_spike(0.02, SPIKE_NS),
                "flaky" => b.fail_prob(0.10),
                "wearing" => b.fail_prob(0.01).wear_out(0.0003),
                other => unreachable!("unknown profile {other:?}"),
            };
            Arc::new(b.build()) as Arc<dyn PlannedProvider>
        })
        .collect()
}

fn e20_config(policy: &str) -> RuntimeConfig {
    let policy = match policy {
        "single" => RequestPolicy::Single,
        "hedged" => RequestPolicy::Hedged {
            delay_ns: 1_000_000,
            max_hedges: 2,
        },
        "failover" => RequestPolicy::Failover {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base_ns: 500_000,
                factor: 2,
                cap_ns: 4_000_000,
            },
        },
        other => unreachable!("unknown policy {other:?}"),
    };
    RuntimeConfig {
        policy,
        deadline_ns: 100_000_000,
        max_in_flight: 256,
        queue_capacity: 1_024,
        breaker: None,
    }
}

/// E21's pool: one sick provider (60% fail-stop, 10% latency spikes)
/// between two healthy ones.
fn e21_pool() -> Vec<Arc<dyn PlannedProvider>> {
    (0..3)
        .map(|i| {
            let b = provider(format!("p{i}"));
            let b = if i == 1 {
                b.fail_prob(0.60).latency_spike(0.10, SPIKE_NS)
            } else {
                b
            };
            Arc::new(b.build()) as Arc<dyn PlannedProvider>
        })
        .collect()
}

fn e21_config(breaker: bool) -> RuntimeConfig {
    RuntimeConfig {
        policy: RequestPolicy::Hedged {
            delay_ns: 1_000_000,
            max_hedges: 2,
        },
        deadline_ns: 100_000_000,
        max_in_flight: 4_096,
        queue_capacity: 4_096,
        breaker: breaker.then_some(BreakerConfig {
            window: 32,
            failure_pct: 50,
            min_samples: 16,
            cooldown_ns: 10_000_000,
            half_open_probes: 3,
            slow_call_ns: 10_000_000,
        }),
    }
}

/// A finished run with the figures every experiment reads off it.
pub struct Run {
    report: RuntimeReport,
    quantiles: [Option<u64>; 3],
    digest: u64,
}

impl Run {
    fn of(report: RuntimeReport) -> Self {
        Run {
            quantiles: QUANTILES.map(|q| report.latency_quantile(q)),
            digest: report.ledger_digest(),
            report,
        }
    }

    fn fingerprint(&self) -> ([Option<u64>; 3], u64) {
        (self.quantiles, self.digest)
    }
}

/// Timed pieces of decorated runs, in ns, with the timers they used.
#[derive(Default)]
struct Split {
    arrival: f64,
    run: f64,
    quantiles: f64,
    digest: f64,
    /// Runs measured.
    runs: f64,
}

impl Split {
    /// Times `ArrivalProcess::arrival_times` called alone, then `run`,
    /// then the quantiles, then the digest.
    fn measure(
        &mut self,
        arrivals: impl FnOnce() -> Vec<u64>,
        run: impl FnOnce() -> RuntimeReport,
    ) -> RuntimeReport {
        let started = Instant::now();
        drop(std::hint::black_box(arrivals()));
        self.arrival += ns_since(started);
        let started = Instant::now();
        let report = run();
        self.run += ns_since(started);
        let started = Instant::now();
        std::hint::black_box(QUANTILES.map(|q| report.latency_quantile(q)));
        self.quantiles += ns_since(started);
        let started = Instant::now();
        std::hint::black_box(report.ledger_digest());
        self.digest += ns_since(started);
        self.runs += 1.0;
        report
    }

    /// The per-request self times; with the timers' own cost they add up
    /// to `run.ns_per_op`, the timed run, quantiles and digest.
    fn sample(&self, plan: &Meter, clock: TimerCost, requests: u64) -> Sample {
        let ops = requests as f64;
        let (plan_ns, attempts) = plan.take();
        let attempts = attempts as f64;
        let each = self.runs * clock.inner;
        let plan_ns = plan_ns as f64 - attempts * clock.inner;
        let arrival = self.arrival - each;
        // `run` computes the arrivals itself and holds the plan timers.
        let runtime = self.run - each - attempts * clock.outer - plan_ns - arrival;
        let quantiles = self.quantiles - each;
        let digest = self.digest - each;
        let total = self.run + self.quantiles + self.digest;
        let timers = total - arrival - plan_ns - runtime - quantiles - digest;
        vec![
            ("services.arrival_ns_per_op", arrival / ops),
            (
                "services.provider.plan_ns_per_attempt",
                plan_ns / attempts.max(1.0),
            ),
            ("services.provider.attempts_per_op", attempts / ops),
            ("services.provider.plan_ns_per_op", plan_ns / ops),
            ("services.runtime.self_ns_per_op", runtime / ops),
            ("services.ledger.quantiles_ns_per_op", quantiles / ops),
            ("services.ledger.digest_ns_per_op", digest / ops),
            ("trace.timer_ns_per_op", timers / ops),
            ("run.ns_per_op", total / ops),
        ]
    }
}

/// The ledger invariants of one run of `requests` requests: each id
/// exactly once, arrivals as the arrival process alone computes them,
/// latencies within the deadline, tallies that add up, and quantiles
/// equal to the benchmark's own sort.
fn check_ledger(
    check: &mut Check,
    run: &Run,
    workload: &Workload,
    seed: u64,
    deadline: u64,
    what: &str,
) {
    let report = &run.report;
    let requests = workload.requests;
    let arrivals = workload.arrival.arrival_times(requests, seed);
    let mut seen = vec![0u32; usize::try_from(requests).expect("request count fits memory")];
    let mut bad = 0u64;
    let (mut ok, mut failed, mut rejected, mut late) = (0, 0, 0, 0);
    let mut latencies = Vec::new();
    for record in &report.ledger {
        let Some(id) = usize::try_from(record.id)
            .ok()
            .filter(|&id| id < seen.len())
        else {
            bad += 1;
            continue;
        };
        seen[id] += 1;
        if seen[id] > 1 || record.arrival_ns != arrivals[id] || record.latency_ns() > deadline {
            bad += 1;
        }
        match record.outcome {
            RequestOutcome::Ok { .. } => {
                ok += 1;
                latencies.push(record.latency_ns());
            }
            RequestOutcome::Failed => failed += 1,
            RequestOutcome::Rejected => rejected += 1,
            RequestOutcome::DeadlineExceeded => late += 1,
        }
    }
    bad += seen.iter().filter(|&&n| n == 0).count() as u64;
    check.ops(requests, bad, &format!("{what}: ledger rows"));
    check.require(
        ok + failed + rejected + late == requests
            && (
                report.ok,
                report.failed,
                report.rejected,
                report.deadline_exceeded,
            ) == (ok, failed, rejected, late),
        &format!("{what}: ok + failed + rejected + deadline equals the requests"),
    );
    latencies.sort_unstable();
    let own = QUANTILES.map(|q| {
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len().max(1));
        latencies.get(rank - 1).copied()
    });
    check.require(
        own == run.quantiles,
        &format!("{what}: p50/p99/p999 equal the benchmark's own sort"),
    );
}

/// `service-policies`: E20's twelve cells, one event loop each.
pub struct Policies {
    seed: u64,
    workload: Workload,
    cells: Vec<(&'static str, &'static str)>,
}

impl Policies {
    fn cell(&self, scenario: &str, policy: &str) -> Run {
        // Fresh providers per run: wearing providers age with each call.
        let runtime = ServiceRuntime::new(e20_pool(scenario), e20_config(policy));
        Run::of(runtime.run(&self.workload, self.seed))
    }
}

impl Bench for Policies {
    type Output = Vec<Run>;
    type Fingerprint = Vec<([Option<u64>; 3], u64)>;

    fn new(seed: u64) -> Self {
        Policies {
            seed,
            workload: Workload::poisson(CELL_REQUESTS, 100_000, "work"),
            cells: SCENARIOS
                .iter()
                .flat_map(|s| POLICIES.iter().map(move |p| (*s, *p)))
                .collect(),
        }
    }

    fn ops(&self) -> u64 {
        CELL_REQUESTS * self.cells.len() as u64
    }

    fn round(&self, jobs: usize) -> Vec<Run> {
        let tasks: Vec<_> = self
            .cells
            .iter()
            .map(|&(scenario, policy)| move || self.cell(scenario, policy))
            .collect();
        parallel_tasks(jobs, tasks)
    }

    fn fingerprint(out: &Vec<Run>) -> Self::Fingerprint {
        out.iter().map(Run::fingerprint).collect()
    }

    fn check(&self, jobs: usize) -> (Check, Self::Fingerprint) {
        let mut check = Check::default();
        let runs = self.round(1);
        for (&(scenario, policy), run) in self.cells.iter().zip(&runs) {
            let deadline = e20_config(policy).deadline_ns;
            let what = format!("{scenario}/{policy}");
            check_ledger(&mut check, run, &self.workload, self.seed, deadline, &what);
        }
        let cell = |scenario: &str, policy: &str| {
            let i = self
                .cells
                .iter()
                .position(|&c| c == (scenario, policy))
                .expect("every cell exists");
            &runs[i]
        };
        let p99 = |run: &Run| run.quantiles[1].unwrap_or(u64::MAX);
        check.require(
            p99(cell("spiky", "hedged")) < SPIKE_NS && p99(cell("spiky", "single")) > SPIKE_NS,
            "spiky: hedged p99 is below the spike and single's above it",
        );
        let ok = |policy| cell("flaky", policy).report.ok;
        check.require(
            ok("hedged") >= ok("single") && ok("failover") >= ok("single"),
            "flaky: hedged and failover complete at least as many requests as single",
        );
        let reference = Self::fingerprint(&runs);
        check.require(
            Self::fingerprint(&self.round(jobs)) == reference,
            "every cell is identical at jobs=1 and jobs=nproc",
        );
        (check, reference)
    }

    fn layer_round(&self) -> (Vec<Run>, Sample, Sample) {
        let plan = Meter::shared();
        let clock = TimerCost::measure();
        let mut split = Split::default();
        let mut reports = Vec::new();
        for &(scenario, policy) in &self.cells {
            let pool = e20_pool(scenario)
                .into_iter()
                .map(|p| TimedProvider::wrap(p, &plan))
                .collect();
            let runtime = ServiceRuntime::new(pool, e20_config(policy));
            reports.push(split.measure(
                || {
                    self.workload
                        .arrival
                        .arrival_times(CELL_REQUESTS, self.seed)
                },
                || runtime.run(&self.workload, self.seed),
            ));
        }
        let sample = split.sample(&plan, clock, self.ops());
        (
            reports.into_iter().map(Run::of).collect(),
            sample,
            Vec::new(),
        )
    }
}

/// `service-sharded`: E21's scenario with breakers on, split into more
/// shards than there are workers.
pub struct Sharded {
    seed: u64,
    workload: Workload,
    runtime: ShardedRuntime,
}

/// E21's bursty arrivals: 20 ms bursts at a 50 µs mean gap, 80 ms lulls
/// at 2 ms.
fn bursty(requests: u64) -> Workload {
    Workload {
        requests,
        arrival: ArrivalProcess::OnOff {
            on_gap_ns: 50_000,
            off_gap_ns: 2_000_000,
            on_ns: 20_000_000,
            off_ns: 80_000_000,
        },
        operation: "work".into(),
        args: vec![],
    }
}

impl Bench for Sharded {
    type Output = Run;
    type Fingerprint = ([Option<u64>; 3], u64);

    fn new(seed: u64) -> Self {
        Sharded {
            seed,
            workload: bursty(SHARDED_REQUESTS),
            runtime: ShardedRuntime::new(SHARDS, e21_config(true), e21_pool),
        }
    }

    fn ops(&self) -> u64 {
        SHARDED_REQUESTS
    }

    fn round(&self, jobs: usize) -> Run {
        Run::of(self.runtime.run_jobs(&self.workload, self.seed, jobs))
    }

    fn fingerprint(out: &Run) -> Self::Fingerprint {
        out.fingerprint()
    }

    fn check(&self, jobs: usize) -> (Check, Self::Fingerprint) {
        let mut check = Check::default();
        let deadline = e21_config(true).deadline_ns;
        let serial = self.round(1);
        check_ledger(
            &mut check,
            &serial,
            &self.workload,
            self.seed,
            deadline,
            "breakers on",
        );
        let parallel = self.round(jobs);
        check.require(
            parallel.digest == serial.digest,
            "the breaker-on digest is identical at jobs=1 and jobs=nproc",
        );
        let off = |shards| {
            Run::of(
                ShardedRuntime::new(shards, e21_config(false), e21_pool).run_jobs(
                    &self.workload,
                    self.seed,
                    jobs,
                ),
            )
        };
        let baseline = off(SHARDS);
        check_ledger(
            &mut check,
            &baseline,
            &self.workload,
            self.seed,
            deadline,
            "breakers off",
        );
        for shards in [1, 2] {
            check.require(
                off(shards).digest == baseline.digest,
                &format!("breakers off: the digest at {shards} shards equals {SHARDS} shards'"),
            );
        }
        check.require(
            serial.report.attempts_failed < baseline.report.attempts_failed,
            "breakers cut failed attempts",
        );
        (check, serial.fingerprint())
    }

    fn layer_round(&self) -> (Run, Sample, Sample) {
        let plan = Meter::shared();
        let meter = Arc::clone(&plan);
        let runtime = ShardedRuntime::new(SHARDS, e21_config(true), move || {
            e21_pool()
                .into_iter()
                .map(|p| TimedProvider::wrap(p, &meter))
                .collect()
        });
        // Building the runtime calls the factory once; that is not a run.
        plan.take();
        let clock = TimerCost::measure();
        let mut split = Split::default();
        let report = split.measure(
            || {
                self.workload
                    .arrival
                    .arrival_times(SHARDED_REQUESTS, self.seed)
            },
            || runtime.run_jobs(&self.workload, self.seed, 1),
        );
        let sample = split.sample(&plan, clock, SHARDED_REQUESTS);
        (Run::of(report), sample, Vec::new())
    }
}
