//! The record → save → load → predict pipeline every workload drives
//! through the public `pythia-core` API, with a span around each call
//! into a layer (spans cost nothing when tracing is off).

use std::path::Path;

use pythia_core::analyze::{lint_grammar, LintOptions, Severity};
use pythia_core::error::{Error, Result};
use pythia_core::event::EventId;
use pythia_core::oracle::Oracle;
use pythia_core::persist::{atomic_write, journal_path, remove_sidecars, PersistConfig};
use pythia_core::predict::PredictorConfig;
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::{FaultPlan, HardenedOracle, ResilienceConfig, ResilienceStats};
use pythia_core::trace::TraceData;

use crate::gen::{shared_registry, Unit};
use crate::util::span;

/// Checkpoint cadence of the durable recorders: small enough that every
/// stream checkpoints at least once.
pub const SNAPSHOT_EVENTS: u64 = 1 << 14;

/// Decision points whose query latency is timed individually (one in
/// this many), so the clock reads stay a small share of the predict loop.
pub const LATENCY_SAMPLE_EVERY: u64 = 4;

pub fn persist_config(unit: &Unit, snapshot_events: u64) -> PersistConfig {
    PersistConfig {
        snapshot_events,
        registry: Some(shared_registry(unit)),
        faults: Some(FaultPlan::none()),
        ..PersistConfig::default()
    }
}

pub fn hermetic() -> ResilienceConfig {
    ResilienceConfig {
        faults: Some(FaultPlan::none()),
        ..ResilienceConfig::default()
    }
}

/// What recording one unit produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recorded {
    pub events: u64,
    pub trace_bytes: u64,
    pub journal_bytes: u64,
    pub dropped: u64,
}

/// Durable record of every thread of `unit` → `finish_thread` → save to
/// `path` (the `TraceData::save` steps: encode, then atomic write).
pub fn record_unit(unit: &Unit, path: &Path) -> Result<(Recorded, TraceData)> {
    let mut out = Recorded::default();
    let mut threads = Vec::with_capacity(unit.record.len());
    let config = RecordConfig {
        timestamps: true,
        validate: false,
    };
    for (rank, stream) in unit.record.iter().enumerate() {
        let persist = persist_config(unit, SNAPSHOT_EVENTS);
        let mut rec = span("persist.create", || {
            Recorder::durable(config.clone(), path, rank, persist)
        })?;
        span("record.append", || {
            for &e in stream {
                rec.record(e);
            }
        });
        out.events += stream.len() as u64;
        out.dropped += rec.dropped_events();
        threads.push(span("persist.finish", || rec.finish_thread())?);
        out.journal_bytes += std::fs::metadata(journal_path(path, rank)).map_or(0, |m| m.len());
    }
    let trace = span("index.assemble", || {
        TraceData::from_threads(threads, unit.registry.clone())
    });
    let bytes = span("trace.encode", || trace.to_bytes());
    span("persist.write", || atomic_write(path, &bytes))?;
    span("persist.cleanup", || remove_sidecars(path));
    out.trace_bytes = bytes.len() as u64;
    Ok((out, trace))
}

/// Program set-up before the first prediction: `TraceData::load`, i.e.
/// read, decode + index build, strict lint. Traced runs make the same
/// calls one by one so each gets its own span.
pub fn load(path: &Path, traced: bool) -> Result<TraceData> {
    if !traced {
        return TraceData::load(path);
    }
    let data = span("trace.read", || std::fs::read(path))?;
    let trace = span("trace.decode", || TraceData::from_bytes_lenient(&data))?;
    span("analyze.strict_lint", || {
        for (i, t) in trace.threads().iter().enumerate() {
            let opts = LintOptions {
                expected_events: Some(t.event_count),
                annotate_positions: false,
            };
            let diags = lint_grammar(&t.grammar, &opts);
            if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
                return Err(Error::Corrupt(format!("thread {i}: {}", d.message)));
            }
        }
        Ok(())
    })?;
    Ok(trace)
}

/// Outcome of one predict pass over a unit.
#[derive(Debug, Default, Clone)]
pub struct Predicted {
    pub events: u64,
    pub decisions: u64,
    pub queries: u64,
    /// (correct, scored) at distances 1 and 64.
    pub d1: (u64, u64),
    pub d64: (u64, u64),
    pub reseeded: u64,
    pub unknown: u64,
    pub resilience: ResilienceStats,
}

impl Predicted {
    pub fn merge(&mut self, o: &Predicted) {
        self.events += o.events;
        self.decisions += o.decisions;
        self.queries += o.queries;
        self.d1.0 += o.d1.0;
        self.d1.1 += o.d1.1;
        self.d64.0 += o.d64.0;
        self.d64.1 += o.d64.1;
        self.reseeded += o.reseeded;
        self.unknown += o.unknown;
        let (a, b) = (&mut self.resilience, &o.resilience);
        a.panics_caught += b.panics_caught;
        a.deadline_misses += b.deadline_misses;
        a.quarantine_transitions += b.quarantine_transitions;
        a.suppressed += b.suppressed;
        a.scored += b.scored;
        a.mispredicted += b.mispredicted;
    }
}

/// The hardened oracle observes every replayed event; at each decision
/// point it answers `predict_event(1/8/64)` and `predict_delay(1)`.
/// Predictions are scored after the loop; one decision point in
/// [`LATENCY_SAMPLE_EVERY`] has its `predict_event(1)` timed into
/// `latency_ns`.
pub fn predict_unit(
    unit: &Unit,
    trace: &TraceData,
    latency_ns: &mut Vec<f64>,
) -> Result<Predicted> {
    let mut out = Predicted::default();
    let mut guesses: Vec<(usize, Option<EventId>, Option<EventId>)> = Vec::new();
    for (t, stream) in unit.replay.iter().enumerate() {
        let thread = trace.thread(t)?.clone();
        let mut oracle = span("resilience.create", || {
            HardenedOracle::new(
                Oracle::predict_thread(thread, PredictorConfig::default()),
                hermetic(),
            )
        });
        guesses.clear();
        span("resilience.observe_query", || {
            for (i, &e) in stream.iter().enumerate() {
                oracle.event(e);
                if !unit.is_decision(e) {
                    continue;
                }
                out.decisions += 1;
                let p1 = if out.decisions.is_multiple_of(LATENCY_SAMPLE_EVERY) {
                    let t0 = std::time::Instant::now();
                    let p = oracle.predict_event(1);
                    latency_ns.push(t0.elapsed().as_nanos() as f64);
                    p
                } else {
                    oracle.predict_event(1)
                };
                std::hint::black_box(oracle.predict_event(8));
                let p64 = oracle.predict_event(64);
                std::hint::black_box(oracle.predict_delay(1));
                out.queries += 4;
                guesses.push((i, p1.most_likely(), p64.most_likely()));
            }
        });
        for &(i, g1, g64) in &guesses {
            if let Some(&next) = stream.get(i + 1) {
                out.d1.1 += 1;
                out.d1.0 += (g1 == Some(next)) as u64;
            }
            if let Some(&far) = stream.get(i + 64) {
                out.d64.1 += 1;
                out.d64.0 += (g64 == Some(far)) as u64;
            }
        }
        out.events += stream.len() as u64;
        let stats = oracle.predict_stats().unwrap_or_default();
        out.merge(&Predicted {
            reseeded: stats.reseeded,
            unknown: stats.unknown,
            resilience: oracle.resilience_stats(),
            ..Predicted::default()
        });
    }
    Ok(out)
}

/// Output checks on a saved and reloaded trace: each thread's grammar
/// unfolds to the recorded stream, its length and event count equal the
/// events recorded, and the loaded trace re-encodes byte-identically.
pub fn check_trace(
    unit: &Unit,
    saved: &[u8],
    loaded: &TraceData,
) -> std::result::Result<(), String> {
    if loaded.thread_count() != unit.record.len() {
        return Err(format!(
            "{}: {} threads loaded, {} recorded",
            unit.name,
            loaded.thread_count(),
            unit.record.len()
        ));
    }
    for (t, stream) in unit.record.iter().enumerate() {
        let thread = &loaded.threads()[t];
        let n = stream.len() as u64;
        if thread.grammar.trace_len() != n || thread.event_count != n {
            return Err(format!(
                "{} thread {t}: trace_len {} / event_count {} != {n} recorded",
                unit.name,
                thread.grammar.trace_len(),
                thread.event_count
            ));
        }
        if thread.grammar.unfold() != *stream {
            return Err(format!(
                "{} thread {t}: grammar does not unfold to the input",
                unit.name
            ));
        }
    }
    if loaded.to_bytes()[..] != *saved {
        return Err(format!(
            "{}: reloaded trace does not re-encode byte-identically",
            unit.name
        ));
    }
    Ok(())
}
