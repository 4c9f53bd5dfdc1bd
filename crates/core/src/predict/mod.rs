//! PYTHIA-PREDICT: following the current execution inside the reference
//! grammar and predicting future events (paper §II-B and §II-C).
//!
//! A [`Predictor`] is fed the events of **one thread** of the new execution
//! through [`Predictor::observe`]. It maintains a weighted set of candidate
//! [`Path`]s (progress sequences):
//!
//! * when the stream matches the reference behavior, the set quickly
//!   collapses to a handful of candidates advanced deterministically;
//! * an event that *exists* in the grammar but does not match any candidate
//!   re-seeds the set from every occurrence of that event (tolerance to
//!   unexpected events, §II-B2);
//! * an event that never occurred in the reference execution leaves the
//!   oracle without information ([`ObserveOutcome::Unknown`]) — the runtime
//!   system should fall back to its heuristic until the stream
//!   re-synchronizes.
//!
//! [`Predictor::predict`] simulates the candidate set `distance` events
//! forward, weighting branches by occurrence counts in the reference
//! execution; [`Predictor::predict_delay_ns`] additionally accumulates the
//! timing model's context-sensitive mean durations along the most probable
//! chain (§II-C).
//!
//! # Hot-path costs
//!
//! All read-side queries go through the [`crate::grammar::GrammarIndex`]
//! built once per thread trace and shared (`Arc`) by every predictor:
//!
//! * [`Predictor::observe`] advances candidates with
//!   [`Walker::expand_matching`], which decides each branch's next terminal
//!   in O(1) and never materializes non-matching successor paths; re-seeding
//!   reads the precomputed occurrence index instead of scanning the grammar.
//!   Scratch buffers (branch vector, merge map) are reused across calls, so
//!   steady-state observation performs no per-call allocation beyond the
//!   successor paths themselves.
//! * [`Predictor::predict`] runs the distance-striding simulation
//!   ([`Walker::simulate_distance`]), skipping repetition runs and whole
//!   rule subtrees shorter than the remaining distance in O(1) — roughly
//!   O(distance + path depth) per candidate instead of O(unfolded events ×
//!   branching). The stepwise reference implementation is kept as
//!   [`Predictor::predict_scan`].

pub mod path;
pub mod walker;

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::event::EventId;
use crate::grammar::GrammarIndex;
use crate::trace::{ThreadTrace, TraceData};
use crate::util::FxHashMap;
use path::Path;
use walker::{Advance, Branch, DistanceAccumulator, Outcome, Walker};

/// Tuning knobs of the predictor.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Maximum number of candidate progress sequences tracked after each
    /// observation (lowest-weight candidates are dropped). Must be ≥ 1.
    pub max_candidates: usize,
    /// Maximum number of weighted states expanded per step while
    /// simulating forward in [`Predictor::predict`]. Must be ≥ 1.
    pub max_states: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            max_candidates: 64,
            max_states: 128,
        }
    }
}

impl PredictorConfig {
    /// Checks that the configuration is usable. A zero capacity would
    /// silently discard every candidate (the oracle could never
    /// synchronize), so it is rejected up front instead.
    pub fn validate(&self) -> Result<()> {
        if self.max_candidates == 0 {
            return Err(Error::InvalidConfig(
                "max_candidates must be at least 1".into(),
            ));
        }
        if self.max_states == 0 {
            return Err(Error::InvalidConfig("max_states must be at least 1".into()));
        }
        Ok(())
    }
}

/// Statistics accumulated by a [`Predictor`]; useful for accuracy studies
/// and for runtimes that want to distrust a frequently-mismatching oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Total events observed.
    pub observed: u64,
    /// Events that matched a tracked candidate.
    pub matched: u64,
    /// Events that forced a re-seed (present in the grammar, but not where
    /// the candidates expected them).
    pub reseeded: u64,
    /// Events absent from the reference execution.
    pub unknown: u64,
}

/// How an observation related to the tracked candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveOutcome {
    /// The event continued at least one candidate progress sequence.
    Matched,
    /// The event exists in the grammar but matched no candidate; the
    /// candidate set was re-seeded from its occurrences.
    Reseeded,
    /// The event never occurred in the reference execution; the oracle has
    /// no information until the stream re-synchronizes.
    Unknown,
}

/// A probability distribution over the next event at some distance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prediction {
    /// `(event, probability)` sorted by decreasing probability. Empty when
    /// the oracle has no information.
    pub distribution: Vec<(EventId, f64)>,
    /// Probability mass on "the reference trace ends before that distance".
    pub end_probability: f64,
}

impl Prediction {
    /// The most probable event, if any.
    pub fn most_likely(&self) -> Option<EventId> {
        self.distribution.first().map(|&(e, _)| e)
    }

    /// Probability of a specific event.
    pub fn probability(&self, event: EventId) -> f64 {
        self.distribution
            .iter()
            .find(|&&(e, _)| e == event)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Whether the oracle had any information.
    pub fn is_informed(&self) -> bool {
        !self.distribution.is_empty() || self.end_probability > 0.0
    }
}

/// Follows one thread of the current execution inside a reference trace
/// and predicts its future behavior.
#[derive(Debug)]
pub struct Predictor {
    thread: Arc<ThreadTrace>,
    config: PredictorConfig,
    /// Precomputed query tables over `thread.grammar`, shared by every
    /// predictor (and walker) over the same thread trace.
    index: Arc<GrammarIndex>,
    candidates: Vec<(Path, f64)>,
    stats: PredictStats,
    // Scratch storage reused across `observe` calls so the steady-state hot
    // path allocates nothing beyond the successor paths themselves.
    scratch_branches: Vec<(Path, f64)>,
    scratch_expand: Vec<Branch>,
    scratch_merge: FxHashMap<Path, f64>,
}

impl Predictor {
    /// Creates a predictor over thread 0 of `trace` with default settings.
    pub fn new(trace: &TraceData) -> Self {
        Self::for_thread(trace, 0, PredictorConfig::default()).expect("trace has no thread 0")
    }

    /// Creates a predictor over a specific thread of a multi-thread trace.
    /// Fails on a missing thread or an invalid configuration.
    pub fn for_thread(trace: &TraceData, index: usize, config: PredictorConfig) -> Result<Self> {
        Self::try_from_thread_trace(trace.thread(index)?.clone(), config)
    }

    /// Creates a predictor directly from a [`ThreadTrace`]. Panics on an
    /// invalid configuration; use [`Predictor::try_from_thread_trace`] to
    /// handle that gracefully.
    pub fn from_thread_trace(thread: Arc<ThreadTrace>, config: PredictorConfig) -> Self {
        Self::try_from_thread_trace(thread, config).expect("invalid predictor configuration")
    }

    /// Creates a predictor directly from a [`ThreadTrace`], validating the
    /// configuration. The thread's [`GrammarIndex`] is computed once and
    /// shared, so constructing many predictors over one trace is cheap.
    pub fn try_from_thread_trace(
        thread: Arc<ThreadTrace>,
        config: PredictorConfig,
    ) -> Result<Self> {
        config.validate()?;
        let index = thread.index();
        Ok(Predictor {
            thread,
            config,
            index,
            candidates: Vec::new(),
            stats: PredictStats::default(),
            scratch_branches: Vec::new(),
            scratch_expand: Vec::new(),
            scratch_merge: FxHashMap::default(),
        })
    }

    fn walker(&self) -> Walker<'_> {
        Walker {
            grammar: &self.thread.grammar,
            index: &self.index,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictStats {
        self.stats
    }

    /// Number of candidate progress sequences currently tracked.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the predictor currently knows where the application is.
    pub fn is_synchronized(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// Submits the next event of the current execution.
    pub fn observe(&mut self, event: EventId) -> ObserveOutcome {
        self.stats.observed += 1;
        if !self.index.knows_event(event) {
            // Never seen in the reference execution: the oracle loses track
            // (paper §II-B2 — the runtime must fall back to heuristics).
            self.candidates.clear();
            self.stats.unknown += 1;
            return ObserveOutcome::Unknown;
        }
        if self.candidates.len() == 1 {
            // Steady-state fast path: a synchronized stream tracks one
            // candidate, and the in-place advance mutates its frames
            // without cloning, allocating, or touching the merge map. On
            // ambiguity it falls through to the general expansion, which
            // produces the identical result.
            let walker = Walker {
                grammar: &self.thread.grammar,
                index: &self.index,
            };
            let (path, weight) = &mut self.candidates[0];
            match walker.advance_in_place(&mut path.frames, event) {
                Advance::Advanced => {
                    *weight = 1.0; // a lone candidate always normalizes to 1
                    self.stats.matched += 1;
                    return ObserveOutcome::Matched;
                }
                Advance::NoMatch => {
                    self.seed(event);
                    self.stats.reseeded += 1;
                    return ObserveOutcome::Reseeded;
                }
                Advance::Ambiguous => {}
            }
        }
        if !self.candidates.is_empty() {
            // Advance every candidate, materializing only the branches that
            // emit the observed event. The buffers are taken out of `self`
            // for the duration of the walk (the walker borrows `self`
            // immutably) and put back afterwards, keeping their capacity.
            let mut branches = std::mem::take(&mut self.scratch_branches);
            let mut out = std::mem::take(&mut self.scratch_expand);
            branches.clear();
            {
                let walker = self.walker();
                for (path, weight) in &self.candidates {
                    out.clear();
                    walker.expand_matching(path, event, &mut out);
                    for b in out.drain(..) {
                        branches.push((b.path, weight * b.factor));
                    }
                }
            }
            self.scratch_expand = out;
            let matched = !branches.is_empty();
            if matched {
                self.consolidate_into(&mut branches);
            }
            self.scratch_branches = branches;
            if matched {
                self.stats.matched += 1;
                return ObserveOutcome::Matched;
            }
        }
        // Start (or re-start after a mismatch) from every occurrence of the
        // event, weighted by occurrence counts.
        self.seed(event);
        self.stats.reseeded += 1;
        ObserveOutcome::Reseeded
    }

    /// Submits a batch of events in order and returns the outcome of the
    /// **last** one (`None` for an empty batch) — exactly equivalent to
    /// calling [`Predictor::observe`] once per event, but the
    /// steady-state single-candidate fast path is hoisted *across the
    /// batch*: one walker (grammar + occurrence-index borrow) advances
    /// the lone candidate in place through as many consecutive events as
    /// it can absorb, so the per-event cost is one `advance_in_place`
    /// call instead of a full dispatch through the observe entry point.
    /// Any event the run cannot absorb (unknown, mismatch, ambiguity,
    /// multi-candidate tracking) falls back to the general per-event
    /// path and the run restarts after it.
    ///
    /// Serving layers that transport several events per request (the
    /// `pythia-serve` observe frames) use this to amortize the index
    /// lookup across the batch.
    pub fn observe_batch(&mut self, events: &[EventId]) -> Option<ObserveOutcome> {
        let mut last = None;
        let mut i = 0;
        while i < events.len() {
            if self.candidates.len() == 1 {
                // Disjoint field borrows: the walker holds `thread` and
                // `index`, the advance mutates `candidates`, the tallies
                // touch `stats`.
                let walker = Walker {
                    grammar: &self.thread.grammar,
                    index: &self.index,
                };
                let (path, weight) = &mut self.candidates[0];
                let mut advanced = 0u64;
                while i < events.len() {
                    let event = events[i];
                    if !walker.index.knows_event(event) {
                        break;
                    }
                    match walker.advance_in_place(&mut path.frames, event) {
                        Advance::Advanced => {
                            i += 1;
                            advanced += 1;
                        }
                        Advance::NoMatch | Advance::Ambiguous => break,
                    }
                }
                if advanced > 0 {
                    *weight = 1.0; // a lone candidate always normalizes to 1
                    self.stats.observed += advanced;
                    self.stats.matched += advanced;
                    last = Some(ObserveOutcome::Matched);
                }
                if i >= events.len() {
                    break;
                }
            }
            // The odd event out (or a non-steady candidate set): the
            // general path handles it and may collapse the candidates
            // back to one, re-arming the fast run for what remains.
            last = Some(self.observe(events[i]));
            i += 1;
        }
        last
    }

    /// Rebuilds the candidate set from the occurrence index: one candidate
    /// per use site of `event`, pre-weighted with `expansions × count`.
    fn seed(&mut self, event: EventId) {
        let index = Arc::clone(&self.index);
        let mut cands = std::mem::take(&mut self.scratch_branches);
        cands.clear();
        if let Some(occs) = index.occurrences(event) {
            cands.reserve(occs.len());
            for &(loc, weight) in occs {
                if weight > 0.0 {
                    cands.push((Path::seed(loc.rule, loc.pos), weight));
                }
            }
        }
        self.consolidate_into(&mut cands);
        self.scratch_branches = cands;
    }

    /// Merges identical paths, keeps the heaviest `max_candidates`, and
    /// normalizes weights — draining `cands` into `self.candidates` through
    /// the reused merge map, so no fresh map or vector is allocated.
    fn consolidate_into(&mut self, cands: &mut Vec<(Path, f64)>) {
        self.scratch_merge.clear();
        for (p, w) in cands.drain(..) {
            *self.scratch_merge.entry(p).or_insert(0.0) += w;
        }
        self.candidates.clear();
        self.candidates.extend(self.scratch_merge.drain());
        self.candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.candidates.truncate(self.config.max_candidates);
        let total: f64 = self.candidates.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in &mut self.candidates {
                *w /= total;
            }
        }
    }

    /// Predicts the event that will occur `distance` events from now
    /// (`distance = 1` is the next event), simulating the candidate set
    /// forward and aggregating branch weights (paper §II-C).
    ///
    /// Uses the distance-striding simulation: repetition runs and whole
    /// rule subtrees shorter than the remaining distance are skipped in
    /// O(1), so the cost grows with the distance and the grammar depth, not
    /// with the number of unfolded events. [`Predictor::predict_scan`] is
    /// the stepwise reference returning the same distribution.
    pub fn predict(&self, distance: usize) -> Prediction {
        self.predict_inner(distance, None)
            .expect("only a deadline can abort the distance walk")
    }

    /// [`Predictor::predict`] with a wall-clock deadline enforced inside
    /// the distance walk: a query that cannot finish in time returns
    /// [`Error::Degraded`] instead of stalling the host runtime. The
    /// partial distribution computed before the cutoff is discarded — a
    /// truncated distribution would be silently biased towards the branches
    /// visited first.
    pub fn predict_deadline(&self, distance: usize, deadline: Instant) -> Result<Prediction> {
        self.predict_inner(distance, Some(deadline))
    }

    fn predict_inner(&self, distance: usize, deadline: Option<Instant>) -> Result<Prediction> {
        assert!(distance >= 1, "prediction distance must be >= 1");
        if self.candidates.is_empty() {
            return Ok(Prediction::default());
        }
        let walker = self.walker();
        // Branch-node budget mirroring `predict_scan`'s per-step state cap;
        // beyond it residual branches are dropped, as truncation does.
        let budget = self
            .config
            .max_states
            .saturating_mul(distance.saturating_add(4));
        let mut acc = DistanceAccumulator::with_deadline(budget, deadline);
        for (path, weight) in &self.candidates {
            walker.simulate_distance(path, distance as u64, *weight, &mut acc);
            if acc.deadline_hit() {
                return Err(Error::Degraded(format!(
                    "predict(distance={distance}) exceeded its time budget"
                )));
            }
        }
        let mut end_mass = acc.end_mass;
        let mut distribution: Vec<(EventId, f64)> = acc.per_event.into_iter().collect();
        let total: f64 = distribution.iter().map(|&(_, w)| w).sum::<f64>() + end_mass;
        if total > 0.0 {
            for (_, w) in &mut distribution {
                *w /= total;
            }
            end_mass /= total;
        }
        distribution.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Ok(Prediction {
            distribution,
            end_probability: end_mass,
        })
    }

    /// Stepwise reference implementation of [`Predictor::predict`]: expands
    /// every state one event at a time. Kept for regression testing and as
    /// executable documentation of the semantics the striding simulation
    /// must reproduce; prefer [`Predictor::predict`] everywhere else.
    pub fn predict_scan(&self, distance: usize) -> Prediction {
        assert!(distance >= 1, "prediction distance must be >= 1");
        if self.candidates.is_empty() {
            return Prediction::default();
        }
        let walker = self.walker();
        let mut states = self.candidates.clone();
        let mut end_mass = 0.0f64;
        let mut last_step: Vec<(EventId, f64)> = Vec::new();
        for step in 0..distance {
            let mut next: Vec<(Path, f64)> = Vec::new();
            let mut out: Vec<Branch> = Vec::new();
            if step + 1 == distance {
                last_step.clear();
            }
            for (path, weight) in &states {
                out.clear();
                walker.expand(path, &mut out);
                for b in &out {
                    let w = weight * b.factor;
                    match b.outcome {
                        Outcome::End => end_mass += w,
                        Outcome::Event(e) => {
                            if step + 1 == distance {
                                last_step.push((e, w));
                            } else {
                                next.push((b.path.clone(), w));
                            }
                        }
                    }
                }
            }
            if step + 1 == distance {
                break;
            }
            if next.is_empty() {
                break;
            }
            // Merge identical states but do not renormalize: remaining mass
            // must stay comparable with `end_mass`.
            let mut merged: FxHashMap<Path, f64> = FxHashMap::default();
            for (p, w) in next {
                *merged.entry(p).or_insert(0.0) += w;
            }
            let mut v: Vec<(Path, f64)> = merged.into_iter().collect();
            v.sort_by(|a, b| b.1.total_cmp(&a.1));
            v.truncate(self.config.max_states);
            states = v;
        }
        let mut per_event: FxHashMap<EventId, f64> = FxHashMap::default();
        for (e, w) in last_step {
            *per_event.entry(e).or_insert(0.0) += w;
        }
        let mut distribution: Vec<(EventId, f64)> = per_event.into_iter().collect();
        let total: f64 = distribution.iter().map(|&(_, w)| w).sum::<f64>() + end_mass;
        if total > 0.0 {
            for (_, w) in &mut distribution {
                *w /= total;
            }
            end_mass /= total;
        }
        distribution.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Prediction {
            distribution,
            end_probability: end_mass,
        }
    }

    /// Estimated time (nanoseconds) until the event `distance` steps ahead,
    /// following the most probable chain of progress sequences and summing
    /// the timing model's context means (paper §II-C). Returns `None` when
    /// the oracle is out of sync or the trace holds no timing data.
    ///
    /// This walk stays step-by-step on purpose: the timing model keys its
    /// means on the rule context of *each intermediate event*, so every
    /// step's context frames are needed and subtree skipping cannot apply.
    pub fn predict_delay_ns(&self, distance: usize) -> Option<f64> {
        self.predict_delay_ns_inner(distance, None)
            .expect("only a deadline can abort the delay walk")
    }

    /// [`Predictor::predict_delay_ns`] with a wall-clock deadline checked
    /// at every step of the chain; returns [`Error::Degraded`] on expiry.
    pub fn predict_delay_deadline_ns(&self, distance: usize, deadline: Instant) -> Result<f64> {
        match self.predict_delay_ns_inner(distance, Some(deadline))? {
            Some(ns) => Ok(ns),
            None => Err(Error::OracleUnavailable(
                "no delay information at this position".into(),
            )),
        }
    }

    fn predict_delay_ns_inner(
        &self,
        distance: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<f64>> {
        assert!(distance >= 1, "prediction distance must be >= 1");
        if self.candidates.is_empty() || self.thread.timing.is_empty() {
            return Ok(None);
        }
        let walker = self.walker();
        // Follow the heaviest candidate.
        let Some((mut path, _)) = self
            .candidates
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .cloned()
        else {
            return Ok(None);
        };
        let mut total = 0.0f64;
        let mut out: Vec<Branch> = Vec::new();
        for _ in 0..distance {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(Error::Degraded(format!(
                        "predict_delay(distance={distance}) exceeded its time budget"
                    )));
                }
            }
            out.clear();
            walker.expand(&path, &mut out);
            let Some(best) = out
                .iter()
                .filter(|b| matches!(b.outcome, Outcome::Event(_)))
                .max_by(|a, b| a.factor.total_cmp(&b.factor))
            else {
                return Ok(None);
            };
            let Outcome::Event(e) = best.outcome else {
                return Ok(None);
            };
            let frames = best.path.context_frames();
            let Some(mean) = self
                .thread
                .timing
                .mean_ns(e, &frames)
                .or_else(|| self.thread.timing.mean_ns(e, &[]))
            else {
                return Ok(None);
            };
            total += mean;
            path = best.path.clone();
        }
        Ok(Some(total))
    }

    /// [`Predictor::predict_delay_ns`] as a [`Duration`].
    pub fn predict_delay(&self, distance: usize) -> Option<Duration> {
        self.predict_delay_ns(distance)
            .map(|ns| Duration::from_nanos(ns.max(0.0) as u64))
    }

    /// The most probable sequence of the next `n` events, following the
    /// greedy maximum-likelihood chain (useful for prefetch-style
    /// optimizations that need the whole upcoming window, not one event).
    /// Shorter than `n` if the chain reaches the end of the reference
    /// trace or the oracle is out of sync.
    pub fn predict_sequence(&self, n: usize) -> Vec<EventId> {
        let mut out_events = Vec::with_capacity(n);
        if self.candidates.is_empty() {
            return out_events;
        }
        let walker = self.walker();
        let Some((mut path, _)) = self
            .candidates
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .cloned()
        else {
            return out_events;
        };
        let mut branches: Vec<Branch> = Vec::new();
        for _ in 0..n {
            branches.clear();
            walker.expand(&path, &mut branches);
            let Some(best) = branches
                .iter()
                .filter(|b| matches!(b.outcome, Outcome::Event(_)))
                .max_by(|a, b| a.factor.total_cmp(&b.factor))
            else {
                break;
            };
            let Outcome::Event(e) = best.outcome else {
                break;
            };
            out_events.push(e);
            path = best.path.clone();
        }
        out_events
    }

    /// Drops all tracked candidates, forcing a re-seed on the next event.
    pub fn desynchronize(&mut self) {
        self.candidates.clear();
    }

    /// The grammar being tracked.
    pub fn grammar(&self) -> &crate::grammar::Grammar {
        &self.thread.grammar
    }

    /// The precomputed index over the tracked grammar.
    pub fn index(&self) -> &Arc<GrammarIndex> {
        &self.index
    }

    /// Weighted candidate summary: `(depth, weight)` per candidate, for
    /// diagnostics.
    pub fn candidate_summary(&self) -> Vec<(usize, f64)> {
        self.candidates
            .iter()
            .map(|(p, w)| (p.depth(), *w))
            .collect()
    }
}

/// Re-export the key types at module level.
pub use path::{Frame, Rep};
pub use walker::Outcome as BranchOutcome;

#[allow(unused)]
fn _assert_send_sync() {
    fn check<T: Send>() {}
    check::<Predictor>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    /// Records `seq` (with uniform 100ns spacing) into a trace.
    fn trace_of(seq: &[u32]) -> TraceData {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        rec.finish(&EventRegistry::new()).unwrap()
    }

    #[test]
    fn predicts_deterministic_next_event() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        assert_eq!(p.observe(e(0)), ObserveOutcome::Reseeded);
        let pred = p.predict(1);
        assert_eq!(pred.most_likely(), Some(e(1)));
        assert!(pred.probability(e(1)) > 0.9);
    }

    #[test]
    fn tracks_along_stream_with_high_accuracy() {
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1, 2, 2, 3]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..seq.len() - 1 {
            p.observe(e(seq[i]));
            let pred = p.predict(1);
            total += 1;
            if pred.most_likely() == Some(e(seq[i + 1])) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn distance_prediction_follows_loop() {
        // Period-3 loop: at distance 3 the same event comes back.
        let seq: Vec<u32> = (0..60).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..30] {
            p.observe(e(s));
        }
        // Last observed is seq[29] == 2 (index 29 → 29 % 3 == 2).
        let pred3 = p.predict(3);
        assert_eq!(pred3.most_likely(), Some(e(2)));
        let pred1 = p.predict(1);
        assert_eq!(pred1.most_likely(), Some(e(0)));
        let pred2 = p.predict(2);
        assert_eq!(pred2.most_likely(), Some(e(1)));
    }

    #[test]
    fn unknown_event_loses_then_resyncs() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        assert!(p.is_synchronized());
        assert_eq!(p.observe(e(99)), ObserveOutcome::Unknown);
        assert!(!p.is_synchronized());
        assert!(!p.predict(1).is_informed());
        // Re-synchronizes on the next known event.
        assert_eq!(p.observe(e(0)), ObserveOutcome::Reseeded);
        assert_eq!(p.predict(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn mismatched_event_reseeds() {
        // Reference alternates 0 1 0 1; feed 0 0 — the second 0 mismatches.
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let outcome = p.observe(e(0));
        assert_eq!(outcome, ObserveOutcome::Reseeded);
        assert!(p.is_synchronized());
        assert_eq!(p.stats().reseeded, 2);
    }

    #[test]
    fn mid_stream_start_tolerated() {
        // Paper §II-B1: start observing mid-trace.
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2, 3]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        // Start at phase 2 of the loop.
        for &s in &[2u32, 3, 0, 1, 2, 3, 0] {
            p.observe(e(s));
        }
        assert_eq!(p.predict(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn end_probability_at_trace_end() {
        let trace = trace_of(&[0, 1, 2]);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        p.observe(e(1));
        p.observe(e(2));
        let pred = p.predict(1);
        assert!(
            pred.end_probability > 0.5,
            "end probability {}",
            pred.end_probability
        );
    }

    #[test]
    fn delay_prediction_uniform_spacing() {
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..20] {
            p.observe(e(s));
        }
        let d1 = p.predict_delay_ns(1).unwrap();
        assert!((d1 - 100.0).abs() < 1.0, "{d1}");
        let d4 = p.predict_delay_ns(4).unwrap();
        assert!((d4 - 400.0).abs() < 4.0, "{d4}");
    }

    #[test]
    fn delay_none_without_timing() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..10 {
            rec.record(e(0));
            rec.record(e(1));
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        assert_eq!(p.predict_delay_ns(1), None);
    }

    #[test]
    fn stats_accumulate() {
        let seq: Vec<u32> = (0..10).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq {
            p.observe(e(s));
        }
        let st = p.stats();
        assert_eq!(st.observed, 20);
        assert_eq!(st.reseeded, 1); // only the initial seed
        assert_eq!(st.matched, 19);
        assert_eq!(st.unknown, 0);
    }

    #[test]
    fn candidate_cap_respected() {
        // Many occurrences of the same event: candidates stay bounded.
        let mut seq = Vec::new();
        for i in 0..64u32 {
            seq.push(200 + i); // unique separators
            seq.push(7); // the common event
        }
        let trace = trace_of(&seq);
        let cfg = PredictorConfig {
            max_candidates: 8,
            max_states: 16,
        };
        let mut p = Predictor::for_thread(&trace, 0, cfg).unwrap();
        p.observe(e(7));
        assert!(p.candidate_count() <= 8);
    }

    #[test]
    fn varying_problem_size_prediction() {
        // Record a loop of 10 iterations; predict on a run with 30
        // iterations: inner-loop predictions stay accurate (paper §III-C2's
        // observation about working-set-independent behavior).
        let small: Vec<u32> = (0..10).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&small);
        let large: Vec<u32> = (0..30).flat_map(|_| [0, 1, 2]).collect();
        let mut p = Predictor::new(&trace);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..large.len() - 1 {
            p.observe(e(large[i]));
            total += 1;
            if p.predict(1).most_likely() == Some(e(large[i + 1])) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn zero_capacity_config_rejected() {
        let trace = trace_of(&[0, 1, 0, 1]);
        for cfg in [
            PredictorConfig {
                max_candidates: 0,
                max_states: 16,
            },
            PredictorConfig {
                max_candidates: 16,
                max_states: 0,
            },
        ] {
            assert!(cfg.validate().is_err());
            let err = Predictor::for_thread(&trace, 0, cfg.clone()).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "unexpected error {err}"
            );
            let thread = trace.thread(0).unwrap().clone();
            assert!(Predictor::try_from_thread_trace(thread, cfg).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "invalid predictor configuration")]
    fn zero_capacity_config_panics_in_infallible_constructor() {
        let trace = trace_of(&[0, 1, 0, 1]);
        let thread = trace.thread(0).unwrap().clone();
        let _ = Predictor::from_thread_trace(
            thread,
            PredictorConfig {
                max_candidates: 0,
                max_states: 0,
            },
        );
    }

    #[test]
    fn generous_deadline_matches_plain_predict() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let deadline = Instant::now() + Duration::from_secs(60);
        let timed = p.predict_deadline(3, deadline).unwrap();
        let plain = p.predict(3);
        assert_eq!(timed.most_likely(), plain.most_likely());
        assert!((timed.end_probability - plain.end_probability).abs() < 1e-12);
        let d_timed = p.predict_delay_deadline_ns(1, deadline).unwrap();
        let d_plain = p.predict_delay_ns(1).unwrap();
        assert!((d_timed - d_plain).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_degrades() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let past = Instant::now() - Duration::from_millis(5);
        let err = p.predict_deadline(4, past).unwrap_err();
        assert!(matches!(err, Error::Degraded(_)), "{err}");
        let err = p.predict_delay_deadline_ns(1, past).unwrap_err();
        assert!(matches!(err, Error::Degraded(_)), "{err}");
        // The predictor itself is unharmed: the plain query still answers.
        assert!(p.predict(1).is_informed());
    }

    #[test]
    fn predict_matches_predict_scan() {
        // The striding simulation must reproduce the stepwise reference
        // distribution on a structured trace, at every phase and distance.
        let seq: Vec<u32> = (0..40)
            .flat_map(|i| vec![0, 1, 1, 1, 2, 3 + (i % 2)])
            .collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..25] {
            p.observe(e(s));
            for distance in [1usize, 2, 3, 7, 19, 64] {
                let fast = p.predict(distance);
                let slow = p.predict_scan(distance);
                assert!(
                    (fast.end_probability - slow.end_probability).abs() < 1e-9,
                    "end probability {} vs {} (d={distance})",
                    fast.end_probability,
                    slow.end_probability
                );
                let events: std::collections::HashSet<EventId> = fast
                    .distribution
                    .iter()
                    .chain(&slow.distribution)
                    .map(|&(ev, _)| ev)
                    .collect();
                for ev in events {
                    assert!(
                        (fast.probability(ev) - slow.probability(ev)).abs() < 1e-9,
                        "event {ev:?}: {} vs {} (d={distance})",
                        fast.probability(ev),
                        slow.probability(ev)
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod sequence_tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn predict_sequence_follows_loop() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..50 {
            for ev in [0u32, 1, 2, 3] {
                rec.record_at(e(ev), 0);
            }
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        for ev in [0u32, 1, 2, 3, 0] {
            p.observe(e(ev));
        }
        let seq = p.predict_sequence(7);
        let want: Vec<EventId> = [1u32, 2, 3, 0, 1, 2, 3].iter().map(|&x| e(x)).collect();
        assert_eq!(seq, want);
    }

    #[test]
    fn predict_sequence_stops_at_trace_end() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for ev in [0u32, 1, 2] {
            rec.record_at(e(ev), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let seq = p.predict_sequence(10);
        assert_eq!(seq, vec![e(1), e(2)]);
    }

    #[test]
    fn predict_sequence_empty_when_desynced() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        rec.record_at(e(0), 0);
        rec.record_at(e(1), 0);
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let p = Predictor::new(&trace);
        assert!(p.predict_sequence(5).is_empty());
    }

    /// `observe_batch` must be observationally identical to per-event
    /// `observe` — same outcomes, same statistics, same subsequent
    /// predictions — across streams that exercise the batched fast run,
    /// its restart after mismatches, unknown events, and every batch
    /// split of the same stream.
    #[test]
    fn observe_batch_matches_sequential_observe() {
        let seq: Vec<u32> = (0..60).flat_map(|_| [0, 1, 2, 2, 3, 0, 1, 4]).collect();
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in &seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        // A replay with disturbances: unknown events (99), mismatching
        // detours, and long clean runs.
        let mut stream: Vec<EventId> = Vec::new();
        for (i, &s) in seq.iter().take(300).enumerate() {
            stream.push(e(s));
            if i % 37 == 0 {
                stream.push(e(99)); // never recorded: Unknown
            }
            if i % 23 == 0 {
                stream.push(e(seq[(i + 5) % seq.len()])); // out-of-place
            }
        }
        for batch in [1usize, 2, 3, 7, 16, 300, stream.len()] {
            let mut a = Predictor::new(&trace);
            let mut b = Predictor::new(&trace);
            for chunk in stream.chunks(batch) {
                let mut last = None;
                for &ev in chunk {
                    last = Some(a.observe(ev));
                }
                assert_eq!(b.observe_batch(chunk), last, "batch size {batch}");
            }
            assert_eq!(a.stats(), b.stats(), "batch size {batch}");
            assert_eq!(a.candidate_count(), b.candidate_count());
            for d in [1usize, 4, 32] {
                let (pa, pb) = (a.predict(d), b.predict(d));
                assert_eq!(pa.distribution, pb.distribution, "distance {d}");
                assert_eq!(pa.end_probability.to_bits(), pb.end_probability.to_bits());
            }
        }
    }
}
