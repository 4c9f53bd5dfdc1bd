//! Per-layer probes of the traced run. Each probe calls one layer of the
//! program's public API on the workload's own inputs and times it from
//! outside, so every workload reports the same layer rows.

use std::hint::black_box;
use std::time::Instant;

use pythia_core::analyze::pattern::run_query;
use pythia_core::analyze::{lint_grammar, protocol, race, ClassTable, LintOptions, PatternQuery};
use pythia_core::analyze::{RaceSummary, RankProfile, Severity};
use pythia_core::event::ConcurrentRegistry;
use pythia_core::grammar::GrammarIndex;
use pythia_core::oracle::Oracle;
use pythia_core::persist::{journal_path, remove_sidecars};
use pythia_core::predict::{Predictor, PredictorConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::HardenedOracle;
use pythia_core::trace::TraceData;

use crate::gen::Unit;
use crate::pipeline::{hermetic, persist_config, Predicted, LATENCY_SAMPLE_EVERY, SNAPSHOT_EVENTS};
use crate::util::{median, ns_since, timed, Report};

/// Repetitions of the timed probes; the median is kept (paired and
/// interleaved where two variants are compared).
const REPEATS: usize = 3;

/// The pattern query of the analyze pass: an `Isend` not completed by a
/// `Wait` within 8 events.
const PATTERN: &str = "MPI_Isend (!MPI_Wait){8}";

/// Runs every layer probe over `units` (with their loaded `traces`) and
/// adds the layer rows to `report`. `predicted` is the workload's own
/// predict phase (for the watchdog counters); `probe_path` is a path prefix
/// for the durable-recorder probe files.
pub fn probe(
    units: &[Unit],
    traces: &[TraceData],
    predicted: &Predicted,
    dropped_events: u64,
    probe_path: &std::path::Path,
    report: &mut Report,
) -> pythia_core::error::Result<()> {
    // event: intern each recorded event's descriptor into a fresh
    // concurrent registry (the runtime's per-event cost without a cache).
    let mut interns = 0u64;
    let mut intern_ns = 0.0;
    for u in units {
        let reg = ConcurrentRegistry::new();
        let descs: Vec<(&str, Option<i64>)> = u
            .registry
            .iter()
            .map(|(_, d)| (d.name.as_str(), d.payload))
            .collect();
        let stream = &u.record[0][..u.record[0].len().min(16_384)];
        let t0 = Instant::now();
        for &e in stream {
            let (name, payload) = descs[e.index()];
            black_box(reg.intern(name, payload));
        }
        intern_ns += ns_since(t0);
        interns += stream.len() as u64;
    }
    report.layer("event.intern_ns", intern_ns / interns as f64, "ns");
    report.layer("event.interns", interns as f64, "count");

    // record/grammar: plain in-memory append, no timestamps; first and
    // second half of each stream timed apart, median of three passes.
    let (mut firsts, mut seconds, mut n) = (vec![], vec![], 0u64);
    let (mut rules, mut symbols) = (0u64, 0u64);
    let mut finish_plain_ns = 0.0;
    for pass in 0..REPEATS {
        let (mut first, mut second) = (0.0, 0.0);
        for u in units {
            for s in &u.record {
                let mut rec = Recorder::new(RecordConfig {
                    timestamps: false,
                    validate: false,
                });
                let half = s.len() / 2;
                let t0 = Instant::now();
                for &e in &s[..half] {
                    rec.record(e);
                }
                let t1 = Instant::now();
                for &e in &s[half..] {
                    rec.record(e);
                }
                first += (t1 - t0).as_nanos() as f64;
                second += ns_since(t1);
                let (thread, ns) = timed(|| rec.finish_thread());
                let g = &thread?.grammar;
                if pass == 0 {
                    n += s.len() as u64;
                    finish_plain_ns += ns;
                    rules += g.rule_count() as u64;
                    symbols += g
                        .iter_rules()
                        .map(|(_, r)| r.body.len() as u64)
                        .sum::<u64>();
                }
            }
        }
        firsts.push(first);
        seconds.push(second);
    }
    let ratios: Vec<f64> = seconds.iter().zip(&firsts).map(|(s, f)| s / f).collect();
    // Halves differ by at most one event, so the time ratio is the
    // per-event cost ratio: 1.0 means linear-time append.
    let append_ns = (median(&firsts) + median(&seconds)) / n as f64;
    report.layer("record.append_ns_per_event", append_ns, "ns");
    report.layer("record.append_growth", median(&ratios), "ratio");
    report.layer("grammar.rules", rules as f64, "count");
    report.layer("grammar.symbols", symbols as f64, "count");

    // persist: durable vs plain recorder with the workload's settings
    // (timestamps on), paired and interleaved; median of the ratios.
    let config = RecordConfig {
        timestamps: true,
        validate: false,
    };
    let mut ratios = Vec::new();
    let mut finish_durable = Vec::new();
    let mut finish_ts = Vec::new();
    for _ in 0..REPEATS {
        let (mut plain, mut durable, mut fin_d, mut fin_p) = (0.0, 0.0, 0.0, 0.0);
        for (ui, u) in units.iter().enumerate() {
            let path = probe_path.with_extension(format!("probe{ui}"));
            for (rank, s) in u.record.iter().enumerate() {
                let mut rec = Recorder::new(config.clone());
                let t0 = Instant::now();
                for &e in s {
                    rec.record(e);
                }
                let (r, f) = timed(|| rec.finish_thread());
                r?;
                plain += ns_since(t0);
                fin_p += f;
                let t0 = Instant::now();
                let mut rec = Recorder::durable(
                    config.clone(),
                    &path,
                    rank,
                    persist_config(u, SNAPSHOT_EVENTS),
                )?;
                for &e in s {
                    rec.record(e);
                }
                let (r, f) = timed(|| rec.finish_thread());
                r?;
                durable += ns_since(t0);
                fin_d += f;
            }
            remove_sidecars(&path);
        }
        ratios.push(durable / plain);
        finish_durable.push(fin_d);
        finish_ts.push(fin_p);
    }
    report.layer(
        "persist.journal_overhead_pct",
        (median(&ratios) - 1.0) * 100.0,
        "%",
    );
    // Journal size per event with checkpoints off (nothing truncates it).
    let (mut jbytes, mut jevents) = (0u64, 0u64);
    for (ui, u) in units.iter().enumerate() {
        let path = probe_path.with_extension(format!("journal{ui}"));
        for (rank, s) in u.record.iter().enumerate() {
            let mut rec = Recorder::durable(config.clone(), &path, rank, persist_config(u, 0))?;
            for &e in s {
                rec.record(e);
            }
            rec.finish_thread()?;
            jbytes += std::fs::metadata(journal_path(&path, rank)).map_or(0, |m| m.len());
            jevents += s.len() as u64;
        }
        remove_sidecars(&path);
    }
    let checkpoints: u64 = units
        .iter()
        .flat_map(|u| &u.record)
        .map(|s| s.len() as u64 / SNAPSHOT_EVENTS)
        .sum();
    report.layer(
        "persist.journal_bytes_per_event",
        jbytes as f64 / jevents as f64,
        "B",
    );
    report.layer("persist.checkpoints", checkpoints as f64, "count");
    report.layer("persist.finish_ms", median(&finish_durable) / 1e6, "ms");
    report.layer("persist.dropped_events", dropped_events as f64, "count");
    // Timing-model share of finishing: the finish cost timestamps add on
    // a plain recorder, over that recorder's finish.
    let finish_ts = median(&finish_ts);
    report.layer(
        "timing.finish_share",
        (finish_ts - finish_plain_ns).max(0.0) / finish_ts,
        "share",
    );

    // trace/index: encode, decode (lenient load minus its index build),
    // index build, each the median of three passes over every trace.
    let (mut enc, mut dec, mut idx, mut bytes) = (vec![], vec![], vec![], 0u64);
    for _ in 0..3 {
        let (mut e, mut d, mut i) = (0.0, 0.0, 0.0);
        bytes = 0;
        for t in traces {
            let (b, ns) = timed(|| t.to_bytes());
            e += ns;
            bytes += b.len() as u64;
            let (r, ns) = timed(|| TraceData::from_bytes_lenient(&b));
            r?;
            d += ns;
            for th in t.threads() {
                let (_, ns) = timed(|| black_box(GrammarIndex::build(&th.grammar)));
                i += ns;
            }
        }
        enc.push(e);
        dec.push(d - i);
        idx.push(i);
    }
    report.layer("trace.encode_ms", median(&enc) / 1e6, "ms");
    report.layer("trace.decode_ms", median(&dec).max(0.0) / 1e6, "ms");
    report.layer("trace.bytes", bytes as f64, "B");
    report.layer("index.build_ms", median(&idx) / 1e6, "ms");

    // predict: the bare predictor's observe walk, then per-distance
    // query cost at sampled decision points.
    let (mut obs_ns, mut obs_n) = (0.0, 0u64);
    let (mut observed, mut reseeded, mut unknown) = (0u64, 0u64, 0u64);
    let (mut q1, mut q8, mut q64, mut qd) = (vec![], vec![], vec![], vec![]);
    for (u, t) in units.iter().zip(traces) {
        for (ti, s) in u.replay.iter().enumerate() {
            let thread = t.thread(ti)?.clone();
            let mut p = Predictor::from_thread_trace(thread.clone(), PredictorConfig::default());
            let t0 = Instant::now();
            for &e in s {
                p.observe(e);
            }
            obs_ns += ns_since(t0);
            obs_n += s.len() as u64;
            let st = p.stats();
            observed += st.observed;
            reseeded += st.reseeded;
            unknown += st.unknown;
            let mut p = Predictor::from_thread_trace(thread, PredictorConfig::default());
            let mut k = 0u64;
            for &e in s {
                p.observe(e);
                if !u.is_decision(e) {
                    continue;
                }
                k += 1;
                if !k.is_multiple_of(LATENCY_SAMPLE_EVERY) {
                    continue;
                }
                for (d, out) in [(1usize, &mut q1), (8, &mut q8), (64, &mut q64)] {
                    let t0 = Instant::now();
                    black_box(p.predict(d));
                    out.push(ns_since(t0));
                }
                let t0 = Instant::now();
                black_box(p.predict_delay_ns(1));
                qd.push(ns_since(t0));
            }
        }
    }
    report.layer("predict.observe_ns_per_event", obs_ns / obs_n as f64, "ns");
    report.layer("predict.query_ns.d1", median(&q1), "ns");
    report.layer("predict.query_ns.d8", median(&q8), "ns");
    report.layer("predict.query_ns.d64", median(&q64), "ns");
    report.layer(
        "predict.reseed_share",
        reseeded as f64 / observed as f64,
        "share",
    );
    report.layer(
        "predict.unknown_share",
        unknown as f64 / observed as f64,
        "share",
    );
    report.layer("timing.predict_delay_ns", median(&qd), "ns");

    // resilience: the same observe + decision-point query loop through
    // the bare oracle and the hardened facade, paired and interleaved.
    let mut ratios = Vec::new();
    for _ in 0..REPEATS {
        let (mut bare, mut hard) = (0.0, 0.0);
        for (u, t) in units.iter().zip(traces) {
            for (ti, s) in u.replay.iter().enumerate() {
                let thread = t.thread(ti)?.clone();
                let mut o = Oracle::predict_thread(thread.clone(), PredictorConfig::default());
                let t0 = Instant::now();
                for &e in s {
                    o.event(e);
                    if u.is_decision(e) {
                        black_box(o.predict_event(1).most_likely());
                    }
                }
                bare += ns_since(t0);
                let mut h = HardenedOracle::new(
                    Oracle::predict_thread(thread, PredictorConfig::default()),
                    hermetic(),
                );
                let t0 = Instant::now();
                for &e in s {
                    h.event(e);
                    if u.is_decision(e) {
                        black_box(h.predict_event(1).most_likely());
                    }
                }
                hard += ns_since(t0);
            }
        }
        ratios.push(hard / bare);
    }
    let rs = &predicted.resilience;
    report.layer(
        "resilience.overhead_pct",
        (median(&ratios) - 1.0) * 100.0,
        "%",
    );
    report.layer("resilience.suppressed", rs.suppressed as f64, "count");
    report.layer(
        "resilience.mispredicted_share",
        rs.mispredicted as f64 / rs.scored.max(1) as f64,
        "share",
    );
    report.layer(
        "resilience.quarantines",
        rs.quarantine_transitions as f64,
        "count",
    );

    // analyze: the four passes over every loaded trace.
    let a = analyze(traces)?;
    report.layer("analyze.lint_ms", a.lint_ns / 1e6, "ms");
    report.layer("analyze.protocol_ms", a.protocol_ns / 1e6, "ms");
    report.layer("analyze.race_ms", a.race_ns / 1e6, "ms");
    report.layer("analyze.pattern_ms", a.pattern_ns / 1e6, "ms");
    Ok(())
}

/// Wall time of each analyze pass and the diagnostics they raised.
#[derive(Debug, Default, Clone, Copy)]
pub struct Analyzed {
    pub lint_ns: f64,
    pub protocol_ns: f64,
    pub race_ns: f64,
    pub pattern_ns: f64,
    pub diagnostics: u64,
    pub errors: u64,
}

impl Analyzed {
    pub fn total_ms(&self) -> f64 {
        (self.lint_ns + self.protocol_ns + self.race_ns + self.pattern_ns) / 1e6
    }
}

/// The `pythia-analyze` passes — lint, protocol, race, one pattern
/// query — over each trace, as `analyze_trace` composes them.
pub fn analyze(traces: &[TraceData]) -> pythia_core::error::Result<Analyzed> {
    let query = PatternQuery::new(PATTERN, Severity::Warning, false)
        .map_err(pythia_core::error::Error::Corrupt)?;
    let mut a = Analyzed::default();
    for trace in traces {
        let mut diags = Vec::new();
        let (sound, ns) = timed(|| {
            trace
                .threads()
                .iter()
                .map(|t| {
                    let d = lint_grammar(
                        &t.grammar,
                        &LintOptions {
                            expected_events: Some(t.event_count),
                            annotate_positions: true,
                        },
                    );
                    let ok = !d.iter().any(|d| d.severity == Severity::Error);
                    diags.extend(d);
                    ok
                })
                .collect::<Vec<bool>>()
        });
        a.lint_ns += ns;
        let all_sound = sound.iter().all(|&s| s);
        let classes = ClassTable::from_registry(trace.registry());
        if all_sound {
            let (d, ns) = timed(|| {
                let profiles: Vec<RankProfile> = trace
                    .threads()
                    .iter()
                    .map(|t| protocol::profile_from_grammar(&t.grammar, &classes))
                    .collect();
                let mut d = protocol::verify(&profiles);
                protocol::localize_collective_divergence(trace, &classes, &mut d);
                d
            });
            a.protocol_ns += ns;
            diags.extend(d);
            let (d, ns) = timed(|| {
                let summaries: Vec<RaceSummary> = trace
                    .threads()
                    .iter()
                    .map(|t| race::summary_from_grammar(&t.grammar, &classes))
                    .collect();
                race::detect(&summaries)
            });
            a.race_ns += ns;
            diags.extend(d);
        }
        let (d, ns) = timed(|| run_query(&query, trace, &sound));
        a.pattern_ns += ns;
        diags.extend(d);
        a.diagnostics += diags.len() as u64;
        a.errors += diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count() as u64;
    }
    Ok(a)
}
