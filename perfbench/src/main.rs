//! End-to-end and per-layer benchmark of the campaign and service engines.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload in one process. It builds the
//! workload's inputs from the seed, measures for `--seconds` (with
//! `--trace 0` the end-to-end metrics, tracing off; with `--trace 1` the
//! per-layer metrics), then checks the program's outputs. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it stamps the run (build
//! revision, `nproc`, jobs, seed, host reference time).
//!
//! An operation is one trial for the campaign workloads and one
//! simulated request for the service workloads. Every timed round's
//! output is compared with the checked reference output; a round that
//! differs counts all its operations as failed. A whole-run check that
//! fails counts all the check's operations as failed and makes the
//! process exit non-zero after it prints the result.
//!
//! `setup_s` is measured on cold processes: the run's own first set-up
//! and that of `SETUPS - 1` child processes of the same binary started
//! with `--setup-only`, which set up, print their times and exit.

mod alloc;
mod campaign;
mod layers;
mod services;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use redundancy_core::obs::telemetry::{Counter, Telemetry, Timer};
use redundancy_sim::WorkerPool;

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["campaign-nvp", "service-policies", "service-sharded"];

/// Cold set-ups per run, each the first of its process; `setup_s` is
/// their median.
const SETUPS: usize = 9;

/// Every per-layer metric with its unit, printed by every traced run
/// (a layer a workload never enters reads 0).
const PER_LAYER: [(&str, &str); 34] = [
    ("faults.variant_ns_per_op", "ns"),
    ("faults.variant_calls_per_op", "count"),
    ("core.adjudicate_ns_per_op", "ns"),
    ("core.adjudicate_calls_per_op", "count"),
    ("core.pattern_self_ns_per_op", "ns"),
    ("sim.trial_self_ns_per_op", "ns"),
    ("sim.pool.wait_ns_per_op", "ns"),
    ("sim.pool.idle_ns_per_op", "ns"),
    ("sim.pool.busy_ratio", "ratio"),
    ("sim.pool.chunks_per_run", "count"),
    ("sim.pool.chunk_claim_ns", "ns"),
    ("obs.events_per_op", "count"),
    ("obs.trace_ns_per_op", "ns"),
    ("obs.sink_ns_per_event", "ns"),
    ("obs.sink_ns_per_op", "ns"),
    ("obs.merger_stalls_per_run", "count"),
    ("obs.merger_stall_ns_per_op", "ns"),
    ("obs.peak_buffered", "count"),
    ("services.arrival_ns_per_op", "ns"),
    ("services.provider.plan_ns_per_attempt", "ns"),
    ("services.provider.plan_ns_per_op", "ns"),
    ("services.provider.attempts_per_op", "count"),
    ("services.runtime.self_ns_per_op", "ns"),
    ("services.ledger.digest_ns_per_op", "ns"),
    ("services.ledger.quantiles_ns_per_op", "ns"),
    ("services.ledger.bytes_per_op", "bytes"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("trace.timer_ns_per_op", "ns"),
    ("run.ns_per_op", "ns"),
    ("setup.inputs_ns", "ns"),
    ("setup.pool_spawn_ns", "ns"),
    ("setup.warmup_ns", "ns"),
    ("host.ref_ns", "ns"),
];

/// The outcome of a workload's correctness checks.
pub struct Check {
    /// Every whole-run property held.
    pub passed: bool,
    /// Operations checked one by one.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Default for Check {
    fn default() -> Self {
        Check {
            passed: true,
            attempted: 0,
            failed: 0,
        }
    }
}

impl Check {
    /// Records a whole-run property; a failed one is reported on stderr.
    pub fn require(&mut self, holds: bool, what: &str) {
        if !holds {
            eprintln!("check failed: {what}");
            self.passed = false;
        }
    }

    /// Records `ops` operations of which `failed` failed a check.
    pub fn ops(&mut self, ops: u64, failed: u64, what: &str) {
        if failed > 0 {
            eprintln!("check failed: {failed} of {ops} operations: {what}");
        }
        self.attempted += ops;
        self.failed += failed;
    }
}

/// Named per-layer values from one traced round.
pub type Sample = Vec<(&'static str, f64)>;

/// One workload: inputs built from a seed, a round of operations, and
/// the checks and layer splits of its outputs.
pub trait Bench: Sized {
    /// What a round returns.
    type Output;

    /// The part of a round's output compared with the checked reference:
    /// small, so the timed rounds can be recorded while the run measures
    /// and compared once it has checked.
    type Fingerprint: PartialEq;

    /// Builds the inputs from the seed.
    fn new(seed: u64) -> Self;

    /// Operations per round.
    fn ops(&self) -> u64;

    /// Runs one round at `jobs` workers.
    fn round(&self, jobs: usize) -> Self::Output;

    /// The fingerprint of a round's output.
    fn fingerprint(out: &Self::Output) -> Self::Fingerprint;

    /// Checks the program's outputs against computations made apart
    /// from it; returns the outcome and the fingerprint of a checked
    /// round, the reference every timed round must equal.
    fn check(&self, jobs: usize) -> (Check, Self::Fingerprint);

    /// One decorated round at jobs = 1. Returns its output (checked like
    /// any round's), the self-time split, whose `*_ns_per_op` parts add
    /// up to its `run.ns_per_op`, and any other per-layer samples the
    /// workload measures itself.
    fn layer_round(&self) -> (Self::Output, Sample, Sample);

    /// Per-layer values read off a round's output (default: none).
    fn output_sample(&self, _out: &Self::Output) -> Sample {
        Vec::new()
    }
}

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Only set up, print the set-up times and exit (a cold set-up for
    /// the parent run's `setup_s`).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of the middle half of `values`: as robust as the median to the
/// rounds a noisy host slows down, and steadier from run to run.
fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nanoseconds elapsed since `started`.
pub fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// A fixed integer kernel in the benchmark's own code: no program change
/// can move its time, so a shift between two sets of runs is host drift.
fn host_ref_ns() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..(1u64 << 20) {
        x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ i;
    }
    std::hint::black_box(x);
    ns_since(started)
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    host_ref_ns: f64,
}

/// The parts of one set-up, in ns.
#[derive(Clone, Copy)]
struct SetupTimes {
    /// Building the inputs (fault plan and variants, provider pools,
    /// workload).
    inputs: f64,
    /// The call that spawns the `WorkerPool`'s threads.
    spawn: f64,
    /// The warm-up pass: one round at each job count.
    warmup: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.inputs + self.spawn + self.warmup
    }
}

/// The set-up a user pays once per process before steady state: builds
/// the inputs, makes the call that spawns the worker pool, and runs one
/// warm-up round at each job count. Only the first call in a process is
/// cold.
fn set_up<B: Bench>(seed: u64, jobs: usize) -> (B, SetupTimes) {
    let started = Instant::now();
    let bench = B::new(seed);
    let inputs = ns_since(started);
    let started = Instant::now();
    WorkerPool::global().run_region(jobs - 1, &|| {});
    let spawn = ns_since(started);
    let started = Instant::now();
    drop(bench.round(jobs));
    drop(bench.round(1));
    let warmup = ns_since(started);
    (
        bench,
        SetupTimes {
            inputs,
            spawn,
            warmup,
        },
    )
}

/// The cold set-ups of `SETUPS - 1` child processes, run one after the
/// other with this run's arguments and `--setup-only`.
fn child_setups() -> Result<Vec<SetupTimes>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut times = Vec::with_capacity(SETUPS - 1);
    for _ in 1..SETUPS {
        let done = Command::new(&exe)
            .args(std::env::args().skip(1))
            .arg("--setup-only")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&done.stdout);
        let parts: Vec<f64> = stdout
            .lines()
            .last()
            .and_then(|line| line.strip_prefix("setup "))
            .map(|rest| rest.split(' ').filter_map(|x| x.parse().ok()).collect())
            .unwrap_or_default();
        match (done.status.success(), parts.as_slice()) {
            (true, &[inputs, spawn, warmup]) => times.push(SetupTimes {
                inputs,
                spawn,
                warmup,
            }),
            _ => return Err(format!("a set-up process failed ({})", done.status)),
        }
    }
    Ok(times)
}

/// The fingerprints of the rounds a run measured, run-length encoded so
/// that recording them holds no memory that grows with the run.
struct Rounds<F>(Vec<(F, u64)>);

impl<F: PartialEq> Rounds<F> {
    fn record(&mut self, fingerprint: F) {
        match self.0.last_mut() {
            Some((last, count)) if *last == fingerprint => *count += 1,
            _ => self.0.push((fingerprint, 1)),
        }
    }

    /// `(rounds, rounds whose output differs from reference)`.
    fn tally(&self, reference: &F) -> (u64, u64) {
        self.0.iter().fold((0, 0), |(all, differ), (f, count)| {
            (
                all + count,
                differ + if f == reference { 0 } else { *count },
            )
        })
    }
}

/// Measures `bench`, already set up, then checks it. The set-up metrics
/// are left at 0 for the caller to fill in.
fn run<B: Bench>(bench: &B, args: &Args, jobs: usize) -> Report {
    let mut rounds = Rounds(Vec::new());
    let mut record = |out: &B::Output| rounds.record(B::fingerprint(out));
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut host = Vec::new();
    let metrics = if args.trace {
        let metrics = trace_layers(bench, jobs, deadline, &mut host, &mut record);
        let mut by_name: BTreeMap<&str, f64> = metrics.into_iter().collect();
        by_name.insert("host.ref_ns", median(&host));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, by_name.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let (mut parallel, mut serial) = (Vec::new(), Vec::new());
        let ops = bench.ops() as f64;
        loop {
            for (jobs, rates) in [(jobs, &mut parallel), (1, &mut serial)] {
                let started = Instant::now();
                let out = bench.round(jobs);
                rates.push(ops / (ns_since(started) / 1e9));
                record(&out);
            }
            host.push(host_ref_ns());
            if Instant::now() >= deadline {
                break;
            }
        }
        vec![
            ("ops_per_s", interquartile_mean(&parallel), "1/s"),
            ("serial_ops_per_s", interquartile_mean(&serial), "1/s"),
            ("setup_s", 0.0, "s"),
            // Read before the checks, which hold more than a round does.
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    };

    let (check, reference) = bench.check(jobs);
    let (measured, differ) = rounds.tally(&reference);
    if differ > 0 {
        eprintln!("{differ} of {measured} rounds differ from the checked reference");
    }
    let checked_failed = if check.passed {
        check.failed
    } else {
        check.attempted
    };
    Report {
        correct: check.passed,
        attempted: check.attempted + measured * bench.ops(),
        failed: checked_failed + differ * bench.ops(),
        metrics,
        host_ref_ns: median(&host),
    }
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        for metric in &mut self.metrics {
            if metric.0 == name {
                metric.1 = value;
            }
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|metric| metric.0 == name)
            .map_or(0.0, |metric| metric.1)
    }
}

/// The traced run: decorated jobs=1 rounds for the self-time split,
/// telemetry-on rounds at `jobs` for the pool and merge figures, and one
/// counted round for the exact heap figures.
fn trace_layers<B: Bench>(
    bench: &B,
    jobs: usize,
    deadline: Instant,
    host: &mut Vec<f64>,
    record: &mut impl FnMut(&B::Output),
) -> Vec<(&'static str, f64)> {
    let ops = bench.ops() as f64;
    let mut splits: Vec<Sample> = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut push = |sample: Sample| {
        for (name, value) in sample {
            samples.entry(name).or_default().push(value);
        }
    };
    let telemetry = Telemetry::global();
    loop {
        let (decorated, split, other) = bench.layer_round();
        record(&decorated);
        splits.push(split);
        push(other);

        // The same round at jobs = 1: the busy time of workloads whose
        // pool tasks book none (`parallel_tasks` records no busy time).
        let started = Instant::now();
        record(&bench.round(1));
        let serial_ns = ns_since(started);

        // A discarded round first, so the idle time the pool's workers
        // book on their next pick-up spans only the gap between rounds.
        telemetry.set_enabled(true);
        record(&bench.round(jobs));
        telemetry.reset();
        let started = Instant::now();
        let out = bench.round(jobs);
        let wall_ns = ns_since(started);
        telemetry.set_enabled(false);
        record(&out);
        let snap = telemetry.snapshot();
        let busy = match snap.counter(Counter::WorkerBusyNs) {
            0 => serial_ns,
            ns => ns as f64,
        };
        let capacity = wall_ns * jobs as f64;
        push(vec![
            ("sim.pool.wait_ns_per_op", (capacity - busy).max(0.0) / ops),
            (
                "sim.pool.idle_ns_per_op",
                snap.counter(Counter::WorkerIdleNs) as f64 / ops,
            ),
            ("sim.pool.busy_ratio", busy / capacity),
            (
                "sim.pool.chunks_per_run",
                snap.counter(Counter::ChunksClaimed) as f64,
            ),
            (
                "sim.pool.chunk_claim_ns",
                snap.timer(Timer::ChunkClaimNs).quantile(0.5).unwrap_or(0) as f64,
            ),
            (
                "obs.merger_stalls_per_run",
                snap.counter(Counter::MergerStalls) as f64,
            ),
            (
                "obs.merger_stall_ns_per_op",
                snap.timer(Timer::MergerStallNs).sum() as f64 / ops,
            ),
        ]);
        push(bench.output_sample(&out));
        host.push(host_ref_ns());
        if Instant::now() >= deadline {
            break;
        }
    }

    // The self-time split of the median round, kept whole so its parts
    // still add up to its total.
    splits.sort_by(|a, b| total_of(a).total_cmp(&total_of(b)));
    let mut metrics = splits[splits.len() / 2].clone();
    metrics.extend(samples.iter().map(|(&name, values)| (name, median(values))));

    // Heap counts repeat exactly at jobs = 1 in steady state; the live
    // bytes still held after the round are the results' own heap.
    let window = alloc::Window::open();
    let out = bench.round(1);
    let counts = window.counts();
    drop(window);
    record(&out);
    drop(out);
    metrics.extend([
        ("alloc.allocs_per_op", counts.allocs as f64 / ops),
        ("alloc.bytes_per_op", counts.bytes as f64 / ops),
        (
            "services.ledger.bytes_per_op",
            counts.live.max(0) as f64 / ops,
        ),
    ]);
    metrics
}

fn total_of(split: &Sample) -> f64 {
    split
        .iter()
        .find(|(name, _)| *name == "run.ns_per_op")
        .map_or(0.0, |&(_, value)| value)
}

/// Pins glibc's mmap threshold at its default, 128 KiB. Left alone, glibc
/// raises the threshold the first time a block above it is freed, after
/// which ledger-sized blocks come from the per-thread arenas instead, and
/// which blocks those are depends on how the pool's threads interleave:
/// `peak_rss_mb` of `service-policies` then read either 9.9 or 13.7 MB
/// between runs of one build. Pinned, it reads 9.8–10.0 MB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before any thread but the main one exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// The build revision: `PERFBENCH_REV` as the launcher resolved it.
fn revision() -> String {
    std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into())
}

/// Runs the workload `B`, or with `--setup-only` only sets it up and
/// prints the parts of that cold set-up for the parent run.
fn workload<B: Bench>(args: &Args, jobs: usize) -> Result<Option<Report>, String> {
    let (bench, first) = set_up::<B>(args.seed, jobs);
    if args.setup_only {
        println!("setup {} {} {}", first.inputs, first.spawn, first.warmup);
        return Ok(None);
    }
    let mut setups = child_setups()?;
    setups.push(first);
    let setup_median =
        |part: fn(&SetupTimes) -> f64| median(&setups.iter().map(part).collect::<Vec<_>>());
    let mut report = run(&bench, args, jobs);
    report.set("setup_s", setup_median(SetupTimes::total) / 1e9);
    report.set("setup.inputs_ns", setup_median(|t| t.inputs));
    report.set("setup.pool_spawn_ns", setup_median(|t| t.spawn));
    report.set("setup.warmup_ns", setup_median(|t| t.warmup));
    Ok(Some(report))
}

/// `campaign-nvp`'s traced run. The campaign's own layers come from its
/// rounds; the `obs` layer's from the same campaign traced into a bounded
/// ring sink (`campaign::Traced`). Each half runs for half of `--seconds`
/// and is checked. The traced campaign is not a workload of its own: its
/// `jobs = nproc` speed and peak memory follow the scheduling-dependent
/// fill of the merge window and spread beyond the bounds between runs.
fn campaign_layers(args: &Args, jobs: usize) -> Result<Option<Report>, String> {
    let half = Args {
        seconds: args.seconds.div_ceil(2),
        ..args.clone()
    };
    let Some(mut report) = workload::<campaign::Nvp>(&half, jobs)? else {
        return Ok(None);
    };
    let (traced, _) = set_up::<campaign::Traced>(args.seed, jobs);
    let obs = run(&traced, &half, jobs);
    for &(name, _) in PER_LAYER
        .iter()
        .filter(|(name, _)| name.starts_with("obs."))
    {
        report.set(name, obs.get(name));
    }
    report.correct &= obs.correct;
    report.attempted += obs.attempted;
    report.failed += obs.failed;
    Ok(Some(report))
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = nproc;
    let report = match args.workload.as_str() {
        "campaign-nvp" if args.trace && !args.setup_only => campaign_layers(&args, jobs),
        "campaign-nvp" => workload::<campaign::Nvp>(&args, jobs),
        "service-policies" => workload::<services::Policies>(&args, jobs),
        "service-sharded" => workload::<services::Sharded>(&args, jobs),
        _ => unreachable!("workload names are validated"),
    };
    let report = match report {
        Ok(Some(report)) => report,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if report
        .metrics
        .iter()
        .any(|(_, value, _)| !value.is_finite())
    {
        eprintln!("perfbench: a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"stamp\": {{\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {nproc}, \"jobs\": {jobs}, \"host.ref_ns\": {}}}}}",
        revision(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.host_ref_ns,
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::FAILURE
    }
}
