//! `app_replay` and `irregular_replay`: single-threaded record → save →
//! load → predict rounds over generated streams, repeated for the run's
//! duration; each metric is the median over rounds.

use std::time::{Duration, Instant};

use pythia_core::error::Result;
use pythia_core::trace::TraceData;

use crate::gen::Unit;
use crate::layers;
use crate::pipeline::{self, check_trace, Predicted, Recorded};
use crate::util::{median, ns_since, quantile, set_tracing, span, take_spans, Report};
use crate::Opts;
use serde_json::json;

/// One pass of the pipeline over every unit.
pub struct Round {
    pub record_ns: f64,
    pub load_ns: f64,
    pub predict_ns: f64,
    pub wall_ns: f64,
    pub recorded: Recorded,
    pub predicted: Predicted,
    /// Decision-point query latency of the round: p50 and p99 (ns).
    pub query_ns: (f64, f64),
    pub counts: Vec<(&'static str, u64)>,
}

/// Records, saves, loads and predicts every unit once; returns the round
/// and the loaded traces. On the first round (`check`), the saved traces
/// are checked against the inputs.
pub fn round(
    units: &[Unit],
    opts: &Opts,
    check: Option<&mut Report>,
) -> Result<(Round, Vec<TraceData>)> {
    let start = Instant::now();
    let mut r = Round {
        record_ns: 0.0,
        load_ns: 0.0,
        predict_ns: 0.0,
        wall_ns: 0.0,
        recorded: Recorded::default(),
        predicted: Predicted::default(),
        query_ns: (0.0, 0.0),
        counts: Vec::new(),
    };
    let mut latency_ns = Vec::new();
    let mut traces = Vec::with_capacity(units.len());
    let traced = opts.trace;
    let mut saved = Vec::new();
    for unit in units {
        let path = opts.work_dir.join(format!("{}.pythia", unit.name));
        let t0 = Instant::now();
        let (rec, _) = span("phase.record", || pipeline::record_unit(unit, &path))?;
        r.record_ns += ns_since(t0);
        let t0 = Instant::now();
        let trace = span("phase.load", || pipeline::load(&path, traced))?;
        r.load_ns += ns_since(t0);
        let t0 = Instant::now();
        let pred = span("phase.predict", || {
            pipeline::predict_unit(unit, &trace, &mut latency_ns)
        })?;
        r.predict_ns += ns_since(t0);
        r.recorded.events += rec.events;
        r.recorded.trace_bytes += rec.trace_bytes;
        r.recorded.journal_bytes += rec.journal_bytes;
        r.recorded.dropped += rec.dropped;
        r.predicted.merge(&pred);
        if check.is_some() {
            saved.push(std::fs::read(&path)?);
        }
        traces.push(trace);
    }
    r.wall_ns = ns_since(start);
    if let Some(report) = check {
        for ((unit, bytes), trace) in units.iter().zip(&saved).zip(&traces) {
            let res = check_trace(unit, bytes, trace);
            report.check(
                "trace_roundtrip",
                res.is_ok(),
                res.err().unwrap_or_default(),
            );
        }
    }
    r.query_ns = (quantile(&latency_ns, 0.5), quantile(&latency_ns, 0.99));
    r.counts = round_counts(&r, &traces);
    Ok((r, traces))
}

/// The deterministic work counts of a round (must repeat exactly).
fn round_counts(r: &Round, traces: &[TraceData]) -> Vec<(&'static str, u64)> {
    let p = &r.predicted;
    vec![
        ("trace.bytes", r.recorded.trace_bytes),
        ("persist.journal_bytes", r.recorded.journal_bytes),
        ("record.events", r.recorded.events),
        ("predict.events", p.events),
        ("predict.decisions", p.decisions),
        ("predict.correct_d1", p.d1.0),
        ("predict.correct_d64", p.d64.0),
        ("predict.reseeds", p.reseeded),
        ("predict.unknowns", p.unknown),
        (
            "grammar.rules",
            traces
                .iter()
                .flat_map(|t| t.threads())
                .map(|t| t.grammar.rule_count() as u64)
                .sum(),
        ),
        (
            "grammar.symbols",
            traces
                .iter()
                .flat_map(|t| t.threads())
                .map(|t| {
                    t.grammar
                        .iter_rules()
                        .map(|(_, r)| r.body.len() as u64)
                        .sum::<u64>()
                })
                .sum(),
        ),
    ]
}

pub fn run(units: Vec<Unit>, opts: &Opts, report: &mut Report) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    // Only the latest round's traces are kept, so memory does not grow
    // with the run length.
    let mut traces = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    // Traced runs alternate untraced and traced rounds so the tracing
    // overhead is measured on the same inputs, interleaved.
    while rounds.len() < 3 || Instant::now() < deadline {
        let traced = opts.trace && rounds.len() % 2 == 1;
        set_tracing(traced);
        let o = Opts {
            trace: traced,
            ..opts.clone()
        };
        let check = rounds.is_empty().then_some(&mut *report);
        let (r, t) = round(&units, &o, check)?;
        traces = t;
        set_tracing(false);
        if traced {
            traced_walls.push(r.wall_ns);
        } else {
            untraced_walls.push(r.wall_ns);
        }
        rounds.push(r);
    }
    let first = &rounds[0].counts;
    let repeat = rounds.iter().all(|r| r.counts == *first);
    report.check("counts_repeat", repeat, "work counts differ between rounds");
    for (name, v) in first {
        // Prediction hits repeat within a process but moved by one in
        // ~356k between processes on some seeds, so they are not
        // reported as deterministic counts.
        if name.starts_with("predict.correct") {
            report.volume(name, *v);
        } else {
            report.count(name, *v);
        }
    }

    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let p = &rounds[0].predicted;
    let rec = &rounds[0].recorded;
    report.e2e("setup_s", per(&|r| r.load_ns) / 1e9, "s");
    report.e2e(
        "record_ns_per_event",
        per(&|r| r.record_ns / r.recorded.events as f64),
        "ns",
    );
    report.e2e(
        "predict_ns_per_event",
        per(&|r| r.predict_ns / r.predicted.events as f64),
        "ns",
    );
    report.e2e("accuracy_d1", p.d1.0 as f64 / p.d1.1 as f64, "share");
    report.e2e("accuracy_d64", p.d64.0 as f64 / p.d64.1 as f64, "share");
    report.e2e(
        "trace_bytes_per_event",
        rec.trace_bytes as f64 / rec.events as f64,
        "B",
    );
    report.e2e("query_p50_ns", per(&|r| r.query_ns.0), "ns");
    report.e2e("query_p99_ns", per(&|r| r.query_ns.1), "ns");
    let series = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    report.extra.push((
        "per_round".into(),
        json!({
            "record_ns_per_event": series(&|r| r.record_ns / r.recorded.events as f64),
            "predict_ns_per_event": series(&|r| r.predict_ns / r.predicted.events as f64),
            "setup_s": series(&|r| r.load_ns / 1e9),
        }),
    ));
    report.volume("rounds", rounds.len() as u64);
    for r in &rounds {
        let res = &r.predicted.resilience;
        report.attempt(
            r.recorded.events + r.predicted.events + r.predicted.queries,
            r.recorded.dropped + res.panics_caught + res.deadline_misses,
        );
    }

    let analyzed = layers::analyze(&traces)?;
    report.count("analyze.diagnostics", analyzed.diagnostics);

    if opts.trace {
        let spans = take_spans();
        report.tracing_overhead_ms = Some((median(&traced_walls) - median(&untraced_walls)) / 1e6);
        report.spans = spans;
        let last = rounds.last().expect("at least three rounds");
        layers::probe(
            &units,
            &traces,
            &last.predicted,
            last.recorded.dropped,
            &opts.work_dir.join("probe"),
            report,
        )?;
    }
    Ok(())
}
