//! Timing decorators around the library's public traits, used by the
//! traced run to split a run's wall time into per-layer self times.
//!
//! Each decorator forwards every trait method to the wrapped value, so a
//! decorated run takes the same code paths (and produces the same
//! outputs) as an undecorated one; it only adds two clock reads per
//! timed call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use redundancy_core::adjudicator::{IncrementalAdjudicator, VoteRule};
use redundancy_core::obs::{event_to_json, Event, Observer, Symbol};
use redundancy_core::rng::SplitMix64;
use redundancy_core::taxonomy::Adjudication;
use redundancy_core::variant::{BoxedVariant, Variant};
use redundancy_core::{Adjudicator, ExecContext, VariantFailure, VariantOutcome, Verdict};
use redundancy_services::{PlannedInvoke, PlannedProvider, Value};

/// Wall nanoseconds and calls spent inside one layer.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Meter {
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(started);
        out
    }

    #[inline]
    fn add(&self, started: Instant) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(ns, calls)` since the last take, resetting both.
    pub fn take(&self) -> (u64, u64) {
        (
            self.ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

/// What one timed call costs the clock: `inner` is what a [`Meter`]
/// books for an empty call, `outer` what an enclosing timer sees it
/// take. Decorated runs subtract both so that a layer's self time
/// excludes the timers nested in it, and book the timers' total cost as
/// a layer of its own.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    pub inner: f64,
    pub outer: f64,
}

impl TimerCost {
    /// Measures both costs over a batch of empty timed calls (median of
    /// a few batches).
    pub fn measure() -> Self {
        const CALLS: u32 = 4_096;
        let meter = Meter::default();
        let mut inner = Vec::new();
        let mut outer = Vec::new();
        for _ in 0..5 {
            let started = Instant::now();
            for _ in 0..CALLS {
                meter.time(|| std::hint::black_box(()));
            }
            outer.push(started.elapsed().as_nanos() as f64 / f64::from(CALLS));
            inner.push(meter.take().0 as f64 / f64::from(CALLS));
        }
        TimerCost {
            inner: crate::median(&inner),
            outer: crate::median(&outer),
        }
    }
}

/// A [`Variant`] whose `execute` calls are timed (the `faults` layer:
/// fault injection plus the variant's own computation).
pub struct TimedVariant<I, O> {
    inner: BoxedVariant<I, O>,
    meter: Arc<Meter>,
}

impl<I, O> TimedVariant<I, O> {
    pub fn boxed(inner: BoxedVariant<I, O>, meter: &Arc<Meter>) -> BoxedVariant<I, O>
    where
        I: 'static,
        O: 'static,
    {
        Box::new(TimedVariant {
            inner,
            meter: Arc::clone(meter),
        })
    }
}

impl<I, O> Variant<I, O> for TimedVariant<I, O> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn symbol(&self) -> Symbol {
        self.inner.symbol()
    }

    fn execute(&self, input: &I, ctx: &mut ExecContext) -> Result<O, VariantFailure> {
        self.meter.time(|| self.inner.execute(input, ctx))
    }

    fn design_cost(&self) -> f64 {
        self.inner.design_cost()
    }
}

/// An [`Adjudicator`] whose verdicts are timed. It forwards
/// `vote_rule`, `adjudicate_batch_row` and `begin_incremental`, so the
/// pattern engine still takes the batch voting path it takes without
/// the decorator.
pub struct TimedAdjudicator<A> {
    inner: A,
    meter: Arc<Meter>,
}

impl<A> TimedAdjudicator<A> {
    pub fn new(inner: A, meter: &Arc<Meter>) -> Self {
        TimedAdjudicator {
            inner,
            meter: Arc::clone(meter),
        }
    }
}

impl<O, A: Adjudicator<O>> Adjudicator<O> for TimedAdjudicator<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn adjudication(&self) -> Adjudication {
        self.inner.adjudication()
    }

    fn adjudicate(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        self.meter.time(|| self.inner.adjudicate(outcomes))
    }

    fn begin_incremental<'a>(&'a self, total: usize) -> Box<dyn IncrementalAdjudicator<O> + 'a>
    where
        O: 'a,
    {
        self.inner.begin_incremental(total)
    }

    fn vote_rule(&self) -> Option<VoteRule> {
        self.inner.vote_rule()
    }

    fn adjudicate_batch_row(&self, outcomes: &[VariantOutcome<O>]) -> Verdict<O> {
        self.meter
            .time(|| self.inner.adjudicate_batch_row(outcomes))
    }
}

/// An [`Observer`] in front of a sink: counts the events that reach it
/// and times the sink's `record`.
pub struct CountingObserver {
    inner: Arc<dyn Observer>,
    meter: Meter,
}

impl CountingObserver {
    pub fn shared(inner: Arc<dyn Observer>) -> Arc<Self> {
        Arc::new(CountingObserver {
            inner,
            meter: Meter::default(),
        })
    }

    /// `(sink ns, events)` since the last take.
    pub fn take(&self) -> (u64, u64) {
        self.meter.take()
    }
}

impl Observer for CountingObserver {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: Event) {
        self.meter.time(|| self.inner.record(event));
    }
}

/// A sink that keeps only a running FNV-1a hash of the JSONL bytes of
/// the stream it receives (with its own sequence numbers, as a fresh
/// sink would assign them), so two whole streams can be compared
/// byte for byte without holding them.
pub struct HashingObserver {
    state: Mutex<(u64, u64)>,
}

impl HashingObserver {
    pub fn shared() -> Arc<Self> {
        Arc::new(HashingObserver {
            state: Mutex::new((0, 0xcbf2_9ce4_8422_2325)),
        })
    }

    /// `(events, hash)`.
    pub fn digest(&self) -> (u64, u64) {
        *self.state.lock().expect("hash lock is never poisoned")
    }
}

impl Observer for HashingObserver {
    fn record(&self, mut event: Event) {
        let mut state = self.state.lock().expect("hash lock is never poisoned");
        event.seq = state.0;
        state.0 += 1;
        for byte in event_to_json(&event).bytes().chain(std::iter::once(b'\n')) {
            state.1 = (state.1 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A [`PlannedProvider`] whose `plan` calls are timed and counted (the
/// `services.provider` layer: one call per dispatched attempt).
pub struct TimedProvider {
    inner: Arc<dyn PlannedProvider>,
    meter: Arc<Meter>,
}

impl TimedProvider {
    pub fn wrap(inner: Arc<dyn PlannedProvider>, meter: &Arc<Meter>) -> Arc<dyn PlannedProvider> {
        Arc::new(TimedProvider {
            inner,
            meter: Arc::clone(meter),
        })
    }
}

impl PlannedProvider for TimedProvider {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn plan(&self, operation: &str, args: &[Value], rng: &mut SplitMix64) -> PlannedInvoke {
        self.meter.time(|| self.inner.plan(operation, args, rng))
    }
}
