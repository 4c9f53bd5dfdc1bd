//! Resilience layer: the [`HardenedOracle`] facade that keeps a wrong,
//! slow, or crashing oracle from ever being worse than no oracle.
//!
//! PYTHIA is advisory: every host runtime has a default decision it falls
//! back to when the oracle abstains (maximum team size for OpenMP,
//! no-prefetch for MPI). This module turns every oracle failure mode into
//! that abstention:
//!
//! * **Panics** — every query runs under `catch_unwind`; after any panic
//!   the facade is *poisoned* and bypasses the oracle permanently.
//! * **Slow queries** — an optional per-query time budget is threaded into
//!   the predict walk ([`crate::predict::Predictor::predict_deadline`]); a
//!   query that cannot finish in time answers the default instead of
//!   stalling the host.
//! * **Sustained misprediction** — an accuracy watchdog scores distance-`x`
//!   predictions against the events actually observed and feeds a
//!   [`breaker::CircuitBreaker`]: too many wrong answers (or repeated
//!   deadline misses) quarantine the oracle, with exponential-backoff
//!   half-open probing to re-enable it if accuracy recovers.
//!
//! [`faults`] adds a deterministic fault-injection harness so every one of
//! these paths is exercised by the `chaos` test suite (and by CI through
//! the `PYTHIA_CHAOS` environment variable).

pub mod breaker;
pub mod faults;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use faults::{FaultInjector, FaultPlan, WireFault, WireFaultInjector};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::event::EventId;
use crate::oracle::{Oracle, OracleMode};
use crate::predict::{ObserveOutcome, PredictStats, Prediction, Predictor, PredictorConfig};
use crate::record::Recorder;
use crate::trace::{ThreadTrace, TraceData};

/// Tuning knobs of the [`HardenedOracle`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Per-query wall-clock budget for predict queries. `None` (the
    /// default) disables the deadline — the budget costs two clock reads
    /// per query, which hosts issuing sub-microsecond queries may not want
    /// to pay.
    pub time_budget: Option<Duration>,
    /// Accuracy-watchdog thresholds and backoff.
    pub breaker: BreakerConfig,
    /// Faults to inject. `None` consults the `PYTHIA_CHAOS` environment
    /// variable ([`FaultPlan::from_env`]); `Some(FaultPlan::none())` pins
    /// the facade fault-free regardless of the environment.
    pub faults: Option<FaultPlan>,
}

/// Counters kept by the [`HardenedOracle`] (all zero on a healthy facade).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Panics caught and isolated (each one poisons the facade).
    pub panics_caught: u64,
    /// Predict queries that blew their time budget.
    pub deadline_misses: u64,
    /// Times the oracle was quarantined (breaker trips plus poisoning).
    pub quarantine_transitions: u64,
    /// Nanoseconds spent degraded (quarantined, probing, or poisoned).
    pub degraded_ns: u64,
    /// Queries answered with the host default because the oracle was
    /// degraded.
    pub suppressed: u64,
    /// Predictions scored by the accuracy watchdog.
    pub scored: u64,
    /// Scored predictions that turned out wrong.
    pub mispredicted: u64,
    /// Whether the facade is permanently bypassed after a panic.
    pub poisoned: bool,
}

/// Summary of the facade's current condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleHealth {
    /// Advice flows to the host.
    Healthy,
    /// Circuit breaker open: queries answer the host default.
    Quarantined,
    /// Half-open: predictions are computed and scored but withheld.
    Probing,
    /// A panic was caught; the oracle is permanently bypassed.
    Poisoned,
}

/// One outstanding prediction awaiting its ground-truth event.
#[derive(Debug, Clone, Copy)]
struct PendingScore {
    /// 1-based index (in observed events) of the event this predicted.
    target: u64,
    /// The predicted event id.
    predicted: EventId,
}

/// Outstanding predictions kept before the oldest is discarded (bounds
/// memory if the host stops submitting events).
const MAX_PENDING: usize = 1024;

/// Crash-isolating, self-distrusting wrapper around an [`Oracle`].
///
/// Drop-in for the runtime integrations: the submission and query surface
/// mirrors [`Oracle`]'s (query methods take `&mut self` because the
/// watchdog records every prediction it hands out). Any failure — panic,
/// blown deadline, sustained misprediction — degrades to the uninformed
/// answer ([`Prediction::default`] / `None`), never to a host-visible
/// crash.
#[derive(Debug)]
pub struct HardenedOracle {
    inner: Oracle,
    /// Copy of the inner oracle's mode (fixed at construction): the hot
    /// path branches on it several times per event.
    mode: OracleMode,
    time_budget: Option<Duration>,
    breaker: CircuitBreaker,
    injector: FaultInjector,
    /// Outstanding predictions, ascending by target index (ties in
    /// registration order).
    pending: VecDeque<PendingScore>,
    /// Events submitted by the host (ground truth for the watchdog; fault
    /// injection happens downstream of this counter).
    observed: u64,
    /// Set permanently once any panic is caught.
    poisoned: bool,
    stats: ResilienceStats,
    /// When the facade last became degraded (for `degraded_ns`).
    degraded_since: Option<Instant>,
    /// Reused buffer for fault-transformed submissions.
    scratch: Vec<EventId>,
}

impl HardenedOracle {
    /// Wraps an existing oracle. Without an explicit
    /// [`ResilienceConfig::faults`] plan, the `PYTHIA_CHAOS` environment
    /// variable is consulted.
    pub fn new(inner: Oracle, config: ResilienceConfig) -> Self {
        let plan = config
            .faults
            .clone()
            .or_else(FaultPlan::from_env)
            .unwrap_or_default();
        HardenedOracle {
            mode: inner.mode(),
            inner,
            time_budget: config.time_budget,
            breaker: CircuitBreaker::new(config.breaker),
            injector: FaultInjector::new(plan),
            pending: VecDeque::new(),
            observed: 0,
            poisoned: false,
            stats: ResilienceStats::default(),
            degraded_since: None,
            scratch: Vec::new(),
        }
    }

    /// A facade around a no-op oracle (vanilla mode).
    pub fn off(config: ResilienceConfig) -> Self {
        Self::new(Oracle::off(), config)
    }

    /// A predicting facade over thread `index` of `trace`, with predictor
    /// construction (including the grammar-index build) itself guarded:
    /// a hostile grammar that panics the build yields
    /// [`Error::OracleUnavailable`], not a host-visible panic.
    pub fn try_predict(
        trace: &TraceData,
        index: usize,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Result<Self> {
        let thread = trace.thread(index)?.clone();
        Self::try_predict_thread(thread, pconfig, config)
    }

    /// [`HardenedOracle::try_predict`] over a bare [`ThreadTrace`].
    fn try_predict_thread(
        thread: Arc<ThreadTrace>,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Result<Self> {
        match catch_unwind(AssertUnwindSafe(|| {
            Predictor::try_from_thread_trace(thread, pconfig)
        })) {
            Ok(Ok(p)) => Ok(Self::new(Oracle::Predict(p), config)),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::OracleUnavailable(
                "predictor construction panicked (hostile grammar)".into(),
            )),
        }
    }

    /// Infallible construction for hosts that must start regardless: any
    /// error or panic yields a *poisoned* facade that answers every query
    /// with the host default (and says so in its stats).
    pub fn predict_or_bypass(
        trace: &TraceData,
        index: usize,
        pconfig: PredictorConfig,
        config: ResilienceConfig,
    ) -> Self {
        match Self::try_predict(trace, index, pconfig.clone(), config.clone()) {
            Ok(h) => h,
            Err(e) => Self::bypassed_after(e, config),
        }
    }

    fn bypassed_after(cause: Error, config: ResilienceConfig) -> Self {
        let was_panic = matches!(cause, Error::OracleUnavailable(_));
        let mut h = Self::new(Oracle::off(), config);
        h.poisoned = true;
        if was_panic {
            h.stats.panics_caught += 1;
        }
        h.degraded_since = Some(Instant::now());
        h
    }

    /// The inner oracle's mode.
    #[inline]
    pub fn mode(&self) -> OracleMode {
        self.mode
    }

    /// Whether this facade wraps a no-op oracle (hosts skip instrumentation
    /// entirely then).
    #[inline]
    pub fn is_off(&self) -> bool {
        matches!(self.mode, OracleMode::Off)
    }

    /// Current condition.
    pub fn health(&self) -> OracleHealth {
        if self.poisoned {
            OracleHealth::Poisoned
        } else {
            match self.breaker.state() {
                BreakerState::Closed => OracleHealth::Healthy,
                BreakerState::Open => OracleHealth::Quarantined,
                BreakerState::HalfOpen => OracleHealth::Probing,
            }
        }
    }

    /// Resilience counters (with `degraded_ns` including the current
    /// degraded period, if one is running).
    pub fn resilience_stats(&self) -> ResilienceStats {
        let mut s = self.stats;
        s.quarantine_transitions = self.breaker.transitions() + u64::from(self.poisoned);
        if let Some(t0) = self.degraded_since {
            s.degraded_ns = s.degraded_ns.saturating_add(t0.elapsed().as_nanos() as u64);
        }
        s.poisoned = self.poisoned;
        s
    }

    /// The inner predictor's statistics (`None` when not predicting); the
    /// facade's own counters are in [`HardenedOracle::resilience_stats`].
    pub fn predict_stats(&self) -> Option<PredictStats> {
        self.inner.predictor().map(Predictor::stats)
    }

    /// Submits one event. Mirrors [`Oracle::event`], with fault injection,
    /// panic isolation, and watchdog scoring applied.
    #[inline]
    pub fn event(&mut self, event: EventId) -> Option<ObserveOutcome> {
        self.one_event(event, None)
    }

    /// Submits a batch of events; returns the last event's outcome
    /// (mirrors [`Oracle::events`]).
    pub fn events(&mut self, events: &[EventId]) -> Option<ObserveOutcome> {
        let mut last = None;
        for &e in events {
            last = self.one_event(e, None);
        }
        last
    }

    /// Submits an event with an explicit timestamp (mirrors
    /// [`Oracle::event_at`]).
    #[inline]
    pub fn event_at(&mut self, event: EventId, ns: u64) -> Option<ObserveOutcome> {
        self.one_event(event, Some(ns))
    }

    fn one_event(&mut self, event: EventId, ns: Option<u64>) -> Option<ObserveOutcome> {
        if self.is_off() {
            return None;
        }
        self.observed += 1;

        if self.mode == OracleMode::Predict && !self.poisoned {
            // Tick the breaker, then score outstanding predictions against
            // the *host* event: fault injection corrupts what the oracle
            // sees, never the ground truth, so a lossy channel shows up as
            // mispredictions.
            self.breaker.on_event();
            self.resolve_pending(event);
        }
        if self.poisoned {
            self.sync_degraded_clock();
            return None;
        }

        // Production configs inject no channel faults: deliver the event
        // itself, without a copy into the scratch buffer.
        let delivered: &[EventId] = if self.injector.is_identity() {
            self.injector.submit_identity();
            std::slice::from_ref(&event)
        } else {
            self.scratch.clear();
            self.injector.transform(event, &mut self.scratch);
            &self.scratch
        };
        let panic_now = self.injector.observe_panics();
        let inner = &mut self.inner;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_now {
                panic!("injected observe fault");
            }
            let mut last = None;
            for &e in delivered {
                last = match ns {
                    Some(t) => inner.event_at(e, t),
                    None => inner.event(e),
                };
            }
            last
        }));
        let outcome = match result {
            Ok(o) => o,
            Err(_) => {
                self.poison();
                None
            }
        };
        self.sync_degraded_clock();
        outcome
    }

    /// Predicts the event `distance` steps ahead (mirrors
    /// [`Oracle::predict_event`]); answers [`Prediction::default`] whenever
    /// the facade is degraded or the query fails in any way.
    pub fn predict_event(&mut self, distance: usize) -> Prediction {
        self.guarded_query(
            distance,
            |p, deadline| match deadline {
                Some(dl) => p.predict_deadline(distance, dl),
                None => Ok(p.predict(distance)),
            },
            Prediction::most_likely,
        )
    }

    /// Predicts the delay until the event `distance` steps ahead (mirrors
    /// [`Oracle::predict_delay`]); `None` whenever degraded or failed.
    pub fn predict_delay(&mut self, distance: usize) -> Option<Duration> {
        self.guarded_query(
            distance,
            |p, deadline| {
                let ns = match deadline {
                    Some(dl) => match p.predict_delay_deadline_ns(distance, dl) {
                        Ok(ns) => Some(ns),
                        Err(Error::OracleUnavailable(_)) => None,
                        Err(e) => return Err(e),
                    },
                    None => p.predict_delay_ns(distance),
                };
                Ok(ns.map(|ns| Duration::from_nanos(ns.max(0.0) as u64)))
            },
            |_| None,
        )
    }

    /// The guard every predict query runs under. Answers `T::default()`
    /// (the host default) when not predicting, when poisoned or
    /// quarantined, and when `query` panics or fails; a blown time budget
    /// is a hard failure for the breaker. A successful answer registers
    /// its `scored` event for the watchdog, then reaches the host only if
    /// the breaker is closed (a half-open probe withholds it).
    fn guarded_query<T: Default>(
        &mut self,
        distance: usize,
        query: impl FnOnce(&Predictor, Option<Instant>) -> Result<T>,
        scored: impl FnOnce(&T) -> Option<EventId>,
    ) -> T {
        if self.mode != OracleMode::Predict {
            return T::default();
        }
        if self.poisoned || !self.breaker.computes() {
            self.stats.suppressed += 1;
            return T::default();
        }
        let deadline = self.time_budget.map(|b| Instant::now() + b);
        let plan = self.injector.plan();
        let panic_now = plan.panic_on_predict;
        let slow = plan.slow_predict;
        let inner = &self.inner;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_now {
                panic!("injected predict fault");
            }
            if let Some(d) = slow {
                spin(d);
            }
            match inner.predictor() {
                Some(p) => query(p, deadline),
                None => Ok(T::default()),
            }
        }));
        let out = match result {
            Err(_) => {
                self.poison();
                T::default()
            }
            Ok(Err(Error::Degraded(_))) => {
                self.stats.deadline_misses += 1;
                self.breaker.on_hard_failure();
                T::default()
            }
            Ok(Err(_)) => T::default(),
            Ok(Ok(answer)) => {
                self.breaker.on_query_ok();
                if let Some(next) = scored(&answer) {
                    self.register(distance, next);
                }
                if self.breaker.advice_allowed() {
                    answer
                } else {
                    self.stats.suppressed += 1;
                    T::default()
                }
            }
        };
        self.sync_degraded_clock();
        out
    }

    /// Access the inner predictor, if predicting.
    pub fn predictor(&self) -> Option<&Predictor> {
        self.inner.predictor()
    }

    /// Access the inner recorder, if recording.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.recorder()
    }

    /// Number of events recorded so far (0 unless recording).
    pub fn recorded_events(&self) -> u64 {
        self.inner.recorded_events()
    }

    /// Events submitted by the host through this facade.
    pub fn observed_events(&self) -> u64 {
        self.observed
    }

    /// Finishes a recording facade into its thread trace. `Ok(None)` for
    /// other modes — and for a poisoned facade, whose recording cannot be
    /// trusted past the panic point. A panic while finishing is likewise
    /// absorbed into `Ok(None)`; a durable recorder's journal/fsync error
    /// ([`crate::record::Recorder::finish_thread`]) propagates as `Err` so
    /// hosts know the sidecar is incomplete.
    pub fn finish(self) -> Result<Option<ThreadTrace>> {
        if self.poisoned {
            return Ok(None);
        }
        let inner = self.inner;
        catch_unwind(AssertUnwindSafe(move || inner.finish())).unwrap_or(Ok(None))
    }

    fn poison(&mut self) {
        self.poisoned = true;
        self.stats.panics_caught += 1;
        self.pending.clear();
    }

    /// Records a handed-out (or shadow) prediction for later scoring.
    fn register(&mut self, distance: usize, predicted: EventId) {
        let target = self.observed + distance as u64;
        let score = PendingScore { target, predicted };
        let pos = self
            .pending
            .iter()
            .rposition(|p| p.target <= target)
            .map_or(0, |i| i + 1);
        self.pending.insert(pos, score);
        if self.pending.len() > MAX_PENDING {
            self.pending.pop_front();
        }
    }

    /// Scores every outstanding prediction whose target is this event.
    fn resolve_pending(&mut self, event: EventId) {
        let now = self.observed;
        while let Some(front) = self.pending.front() {
            if front.target > now {
                break;
            }
            let p = self.pending.pop_front().expect("front exists");
            if p.target == now {
                self.score(p.predicted == event);
            }
        }
    }

    fn score(&mut self, correct: bool) {
        self.stats.scored += 1;
        if !correct {
            self.stats.mispredicted += 1;
        }
        self.breaker.on_scored(correct);
    }

    /// Starts/stops the degraded-time clock when health flips.
    fn sync_degraded_clock(&mut self) {
        let degraded = self.poisoned || self.breaker.state() != BreakerState::Closed;
        match (self.degraded_since, degraded) {
            (None, true) => self.degraded_since = Some(Instant::now()),
            (Some(t0), false) => {
                self.stats.degraded_ns = self
                    .stats
                    .degraded_ns
                    .saturating_add(t0.elapsed().as_nanos() as u64);
                self.degraded_since = None;
            }
            _ => {}
        }
    }
}

/// Busy-waits for `d` (fault injection; sleeping would let the scheduler
/// hide the stall the fault is supposed to model).
fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    /// Records `seq` with uniform 100ns spacing.
    fn trace_of(seq: &[u32]) -> TraceData {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        rec.finish(&EventRegistry::new()).unwrap()
    }

    fn hermetic() -> ResilienceConfig {
        ResilienceConfig {
            faults: Some(FaultPlan::none()),
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn happy_path_is_transparent() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut bare = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), hermetic()).unwrap();
        for &s in &seq[..20] {
            assert_eq!(hard.event(e(s)), bare.event(e(s)));
            assert_eq!(
                hard.predict_event(1).most_likely(),
                bare.predict_event(1).most_likely()
            );
            assert_eq!(hard.predict_delay(1), bare.predict_delay(1));
        }
        assert_eq!(hard.health(), OracleHealth::Healthy);
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 0);
        assert_eq!(r.deadline_misses, 0);
        assert_eq!(r.quarantine_transitions, 0);
        assert_eq!(r.suppressed, 0);
        assert!(r.scored > 0);
        assert_eq!(r.mispredicted, 0);
        assert_eq!(hard.predict_stats().unwrap().observed, 20);
    }

    #[test]
    fn injected_predict_panic_poisons_once() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        // First query panics inside the guard; this and every later query
        // answer the default.
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let p = hard.predict_event(1);
        std::panic::set_hook(silent_guard);
        assert!(!p.is_informed());
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.predict_delay(1), None);
        assert_eq!(hard.event(e(1)), None);
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 1);
        assert_eq!(r.quarantine_transitions, 1);
        assert!(r.suppressed >= 2);
        assert!(r.poisoned);
        assert!(r.degraded_ns > 0);
        // The predictor's own stats stay readable after the panic.
        assert!(hard.predict_stats().is_some());
    }

    #[test]
    fn observe_panic_is_isolated() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_observe_after: Some(3),
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        hard.event(e(1));
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = hard.event(e(0));
        std::panic::set_hook(silent_guard);
        assert_eq!(out, None);
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert_eq!(hard.resilience_stats().panics_caught, 1);
    }

    #[test]
    fn zero_budget_counts_deadline_misses_and_quarantines() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            time_budget: Some(Duration::ZERO),
            breaker: BreakerConfig {
                failure_threshold: 3,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan::none()),
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        for _ in 0..3 {
            assert!(!hard.predict_event(1).is_informed());
        }
        let r = hard.resilience_stats();
        assert_eq!(r.deadline_misses, 3);
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        assert_eq!(r.quarantine_transitions, 1);
        // While quarantined, queries are suppressed without computing.
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.resilience_stats().suppressed, 1);
    }

    #[test]
    fn predict_delay_is_guarded_like_predict_event() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        // A zero budget: every delay query misses its deadline, and
        // `failure_threshold` consecutive misses trip the breaker.
        let config = ResilienceConfig {
            time_budget: Some(Duration::ZERO),
            breaker: BreakerConfig {
                failure_threshold: 3,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan::none()),
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        for _ in 0..2 {
            assert_eq!(hard.predict_delay(1), None);
        }
        assert_eq!(hard.health(), OracleHealth::Healthy);
        assert_eq!(hard.predict_delay(1), None);
        let r = hard.resilience_stats();
        assert_eq!(r.deadline_misses, 3);
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.quarantine_transitions, 1);
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        // Open breaker: suppressed without computing (no further miss).
        assert_eq!(hard.predict_delay(1), None);
        let r = hard.resilience_stats();
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.deadline_misses, 3);

        // An injected predict panic through the delay query poisons the
        // facade exactly once.
        let config = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        hard.event(e(0));
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let d = hard.predict_delay(1);
        std::panic::set_hook(silent_guard);
        assert_eq!(d, None);
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert_eq!(hard.predict_delay(1), None);
        let r = hard.resilience_stats();
        assert_eq!(r.panics_caught, 1);
        assert_eq!(r.quarantine_transitions, 1);
        assert_eq!(r.suppressed, 1);
        assert!(r.poisoned);
    }

    #[test]
    fn watchdog_quarantines_then_recovers() {
        // Reference alternates a b; predictions at distance 1 are scored
        // against what actually arrives.
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            breaker: BreakerConfig {
                window: 4,
                max_error_rate: 0.5,
                failure_threshold: 8,
                backoff_initial: 4,
                backoff_max: 64,
                probe_window: 2,
                recovery_error_rate: 0.0,
            },
            faults: Some(FaultPlan::none()),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        // Feed only `a`: after each reseed the oracle predicts `b`, the
        // host keeps delivering `a` — every score is wrong.
        hard.event(e(0));
        let mut tripped_at = None;
        for i in 0..16 {
            hard.predict_event(1);
            hard.event(e(0));
            if hard.health() == OracleHealth::Quarantined {
                tripped_at = Some(i);
                break;
            }
        }
        assert!(tripped_at.is_some(), "watchdog never tripped");
        let r = hard.resilience_stats();
        assert!(r.mispredicted >= 4, "{r:?}");
        assert_eq!(r.quarantine_transitions, 1);

        // Ride out the backoff (4 events), then behave: the probe scores
        // correct shadow predictions and the breaker closes again.
        let mut healthy = false;
        hard.event(e(0));
        hard.event(e(1));
        let mut next = 0u32;
        for _ in 0..32 {
            hard.predict_event(1);
            hard.event(e(next));
            next = 1 - next;
            if hard.health() == OracleHealth::Healthy {
                healthy = true;
                break;
            }
        }
        assert!(healthy, "breaker never recovered: {:?}", hard.health());
        let r = hard.resilience_stats();
        assert!(r.degraded_ns > 0);
        assert!(r.suppressed > 0, "probe answers must be withheld");
        // Advice flows again.
        hard.event(e(0));
        assert_eq!(hard.predict_event(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn poisoned_grammar_is_contained_at_construction() {
        let thread = faults::poisoned_thread();
        let err =
            HardenedOracle::try_predict_thread(thread, PredictorConfig::default(), hermetic())
                .unwrap_err();
        assert!(matches!(err, Error::OracleUnavailable(_)), "{err}");

        // What `predict_or_bypass` hands back on that error.
        let mut hard = HardenedOracle::bypassed_after(err, hermetic());
        assert_eq!(hard.health(), OracleHealth::Poisoned);
        assert!(!hard.predict_event(1).is_informed());
        assert_eq!(hard.event(e(0)), None);
        assert!(hard.resilience_stats().panics_caught >= 1);
    }

    #[test]
    fn lossy_channel_degrades_instead_of_lying() {
        // Drop every 2nd event into the oracle: it desynchronizes from the
        // host stream and the watchdog quarantines it.
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1, 2, 3]).collect();
        let trace = trace_of(&seq);
        let config = ResilienceConfig {
            breaker: BreakerConfig {
                window: 8,
                // The half-dropped channel alternates correct/wrong scores
                // (~50% error): set the trip point below that.
                max_error_rate: 0.3,
                backoff_initial: 1 << 30,
                ..BreakerConfig::default()
            },
            faults: Some(FaultPlan {
                drop_every: 2,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), config).unwrap();
        for (i, &s) in seq.iter().enumerate().take(80) {
            hard.event(e(s));
            let _ = hard.predict_event(1);
            if hard.health() == OracleHealth::Quarantined {
                assert!(i > 4);
                break;
            }
        }
        assert_eq!(hard.health(), OracleHealth::Quarantined);
        let r = hard.resilience_stats();
        assert!(r.mispredicted > 0, "{r:?}");
    }

    #[test]
    fn record_and_off_modes_pass_through() {
        let mut rec = HardenedOracle::new(Oracle::record(RecordConfig::default()), hermetic());
        assert_eq!(rec.mode(), OracleMode::Record);
        for _ in 0..5 {
            rec.event_at(e(0), 10);
            rec.event_at(e(1), 20);
        }
        assert_eq!(rec.recorded_events(), 10);
        assert!(!rec.predict_event(1).is_informed());
        let thread = rec.finish().unwrap().unwrap();
        assert_eq!(thread.event_count, 10);

        let mut off = HardenedOracle::off(hermetic());
        assert!(off.is_off());
        assert_eq!(off.event(e(0)), None);
        assert!(off.finish().unwrap().is_none());
    }

    #[test]
    fn batch_events_match_oracle_semantics() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut bare = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
        let mut hard =
            HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), hermetic()).unwrap();
        assert_eq!(hard.events(&[e(0), e(1)]), bare.events(&[e(0), e(1)]));
        assert_eq!(hard.events(&[]), None);
        assert_eq!(
            hard.predict_event(1).most_likely(),
            bare.predict_event(1).most_likely()
        );
    }
}
