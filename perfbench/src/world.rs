//! `mpi_world`: the 13 skeletons end to end through `PythiaComm` on a
//! 2-rank threads world with zero compute. Each sweep runs every app
//! vanilla, then record (+ save), then the analyze passes on the loaded
//! trace, then predict at distances {1, 8, 64}.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pythia_apps::harness::run_app;
use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, WorkingSet};
use pythia_core::error::{Error, Result};
use pythia_core::persist::atomic_write;
use pythia_core::trace::TraceData;
use pythia_minimpi::{ReduceOp, World};
use pythia_runtime_mpi::MpiMode;
use serde_json::json;

use crate::gen::{blocking_mask, Unit, RANKS};
use crate::layers::{self, Analyzed};
use crate::pipeline::{self, Predicted};
use crate::util::{median, ns_since, set_tracing, span, take_spans, Report};
use crate::Opts;

#[derive(Default)]
struct Sweep {
    vanilla_ns: f64,
    record_ns: f64,
    load_ns: f64,
    predict_ns: f64,
    analyzed: Analyzed,
    wall_ns: f64,
    events: u64,
    trace_bytes: u64,
    correct: [u64; 2],
    scored: [u64; 2],
    elastic_events: u64,
    dropped: u64,
    rules: u64,
    traces: Vec<TraceData>,
}

const DISTANCES: [usize; 3] = [1, 8, 64];

fn sweep(opts: &Opts, first: bool, report: &mut Report) -> Result<Sweep> {
    let start = Instant::now();
    let mut s = Sweep::default();
    for app in all_apps() {
        let app = app.as_ref();
        let path = opts.work_dir.join(format!("{}.pythia", app.name()));
        let run = |mode: MpiMode| run_app(app, RANKS, WorkingSet::Large, mode, WorkScale::ZERO);

        let t0 = Instant::now();
        span("phase.vanilla", || {
            span("runtime_mpi.world_vanilla", || run(MpiMode::Vanilla))
        });
        s.vanilla_ns += ns_since(t0);

        let t0 = Instant::now();
        let (events, bytes) = span("phase.record", || -> Result<_> {
            let r = span("runtime_mpi.world_record", || run(MpiMode::record()));
            let events = r.total_events();
            for rep in &r.reports {
                let t = rep.thread_trace.as_ref().ok_or_else(|| {
                    Error::Corrupt(format!("{} rank {}: no recording", app.name(), rep.rank))
                })?;
                if t.grammar.trace_len() != rep.events || t.event_count != rep.events {
                    report.check(
                        "trace_len",
                        false,
                        format!("{} rank {}: trace_len != events", app.name(), rep.rank),
                    );
                }
            }
            let trace = span("runtime_mpi.assemble", || r.into_trace())?;
            let bytes = span("trace.encode", || trace.to_bytes());
            span("persist.write", || atomic_write(&path, &bytes))?;
            Ok((events, bytes))
        })?;
        s.record_ns += ns_since(t0);
        s.events += events;
        s.trace_bytes += bytes.len() as u64;

        let t0 = Instant::now();
        let trace = span("phase.load", || pipeline::load(&path, opts.trace))?;
        s.load_ns += ns_since(t0);
        if first {
            let same = trace.to_bytes()[..] == bytes[..];
            report.check(
                "trace_roundtrip",
                same,
                format!("{}: re-encode differs", app.name()),
            );
        }
        s.rules += trace
            .threads()
            .iter()
            .map(|t| t.grammar.rule_count() as u64)
            .sum::<u64>();

        let a = span("phase.analyze", || {
            span("analyze.passes", || {
                layers::analyze(std::slice::from_ref(&trace))
            })
        })?;
        s.analyzed.lint_ns += a.lint_ns;
        s.analyzed.protocol_ns += a.protocol_ns;
        s.analyzed.race_ns += a.race_ns;
        s.analyzed.pattern_ns += a.pattern_ns;
        s.analyzed.diagnostics += a.diagnostics;
        s.analyzed.errors += a.errors;

        let shared = Arc::new(trace.clone());
        let t0 = Instant::now();
        let p = span("phase.predict", || {
            span("runtime_mpi.world_predict", || {
                run(MpiMode::predict_distances(shared, DISTANCES.to_vec()))
            })
        });
        s.predict_ns += ns_since(t0);
        for rep in &p.reports {
            for (d, acc) in &rep.accuracy {
                let slot = match d {
                    1 => 0,
                    64 => 1,
                    _ => continue,
                };
                s.correct[slot] += acc.correct;
                s.scored[slot] += acc.total();
            }
            let e = rep.elastic;
            s.elastic_events += e.rank_failures_detected + e.ranks_replaced + e.remap_validations;
            s.dropped += rep.dropped_events;
        }
        s.traces.push(trace);
    }
    s.wall_ns = ns_since(start);
    Ok(s)
}

/// Raw communicator loops on 2 ranks: ns per allreduce, barrier, and
/// ping-pong message.
fn minimpi_probe(report: &mut Report) {
    const N: usize = 20_000;
    let time = |f: &(dyn Fn(&pythia_minimpi::Comm) + Sync)| -> f64 {
        let walls = World::run(RANKS, |comm| {
            comm.barrier();
            let t0 = Instant::now();
            f(&comm);
            ns_since(t0)
        });
        walls.iter().cloned().fold(0.0, f64::max) / N as f64
    };
    let allreduce = time(&|c| {
        for _ in 0..N {
            std::hint::black_box(c.allreduce(&[1u64], ReduceOp::Sum));
        }
    });
    let barrier = time(&|c| {
        for _ in 0..N {
            c.barrier();
        }
    });
    let p2p = time(&|c| {
        let peer = 1 - c.rank();
        for _ in 0..N / 2 {
            if c.rank() == 0 {
                c.send(&[1u64], peer, 0);
                std::hint::black_box(c.recv::<u64>(Some(peer), Some(0)));
            } else {
                std::hint::black_box(c.recv::<u64>(Some(peer), Some(0)));
                c.send(&[1u64], peer, 0);
            }
        }
    }) / 2.0;
    report.layer("minimpi.allreduce_ns", allreduce, "ns");
    report.layer("minimpi.barrier_ns", barrier, "ns");
    report.layer("minimpi.p2p_ns", p2p, "ns");
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let mut sweeps: Vec<Sweep> = Vec::new();
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    while sweeps.len() < 3 || Instant::now() < deadline {
        let traced = opts.trace && sweeps.len() % 2 == 1;
        set_tracing(traced);
        let o = Opts {
            trace: traced,
            ..opts.clone()
        };
        let s = sweep(&o, sweeps.is_empty(), report)?;
        set_tracing(false);
        if traced {
            traced_walls.push(s.wall_ns);
        } else {
            untraced_walls.push(s.wall_ns);
        }
        // Only the latest sweep keeps its traces, so memory does not grow
        // with the run length.
        if let Some(prev) = sweeps.last_mut() {
            prev.traces.clear();
        }
        sweeps.push(s);
    }
    let s0 = &sweeps[0];
    // Prediction hits are left out: the two rank threads interleave
    // differently from sweep to sweep, which moves a few of them.
    let counts = |s: &Sweep| {
        (
            s.events,
            s.trace_bytes,
            s.rules,
            s.scored,
            s.analyzed.diagnostics,
        )
    };
    let repeat = sweeps.iter().all(|s| counts(s) == counts(s0));
    report.check("counts_repeat", repeat, "work counts differ between sweeps");
    let elastic: u64 = sweeps.iter().map(|s| s.elastic_events).sum();
    report.check(
        "elastic_zero",
        elastic == 0,
        format!("{elastic} elastic events"),
    );

    let per = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let ev = s0.events as f64;
    report.e2e("setup_s", per(&|s| s.load_ns) / 1e9, "s");
    report.e2e("record_ns_per_event", per(&|s| s.record_ns) / ev, "ns");
    report.e2e("predict_ns_per_event", per(&|s| s.predict_ns) / ev, "ns");
    report.e2e("vanilla_ns_per_event", per(&|s| s.vanilla_ns) / ev, "ns");
    report.e2e(
        "accuracy_d1",
        s0.correct[0] as f64 / s0.scored[0] as f64,
        "share",
    );
    report.e2e(
        "accuracy_d64",
        s0.correct[1] as f64 / s0.scored[1] as f64,
        "share",
    );
    report.e2e("trace_bytes_per_event", s0.trace_bytes as f64 / ev, "B");
    report.e2e("analyze_ms", per(&|s| s.analyzed.total_ms()), "ms");
    report.count("record.events", s0.events);
    report.count("trace.bytes", s0.trace_bytes);
    report.count("grammar.rules", s0.rules);
    report.volume("predict.correct_d1", s0.correct[0]);
    report.volume("predict.correct_d64", s0.correct[1]);
    report.count("analyze.diagnostics", s0.analyzed.diagnostics);
    report.count("analyze.errors", s0.analyzed.errors);
    report.volume("rounds", sweeps.len() as u64);
    // Per sweep: every event in each of the three modes is one operation.
    let dropped: u64 = sweeps.iter().map(|s| s.dropped).sum();
    report.attempt(3 * s0.events * sweeps.len() as u64, dropped + elastic);

    if opts.trace {
        report.spans = take_spans();
        report.tracing_overhead_ms = Some((median(&traced_walls) - median(&untraced_walls)) / 1e6);
        report.layer(
            "runtime_mpi.record_overhead_ns_per_event",
            per(&|s| s.record_ns - s.vanilla_ns) / ev,
            "ns",
        );
        report.layer(
            "runtime_mpi.predict_overhead_ns_per_event",
            per(&|s| s.predict_ns - s.vanilla_ns) / ev,
            "ns",
        );
        report.layer("runtime_mpi.elastic_events", elastic as f64, "count");
        minimpi_probe(report);
        // The universal layer rows, over the rank streams the apps
        // recorded (each replayed against its own trace).
        let last = sweeps.pop().expect("at least three sweeps");
        let units: Vec<Unit> = last
            .traces
            .iter()
            .zip(all_apps())
            .map(|(t, app)| {
                let streams: Vec<_> = t.threads().iter().map(|th| th.grammar.unfold()).collect();
                Unit {
                    name: app.name().to_owned(),
                    registry: t.registry().clone(),
                    blocking: blocking_mask(t.registry()),
                    replay: streams.clone(),
                    record: streams,
                }
            })
            .collect();
        let mut predicted = Predicted::default();
        let mut lat = Vec::new();
        for (u, t) in units.iter().zip(&last.traces) {
            predicted.merge(&pipeline::predict_unit(u, t, &mut lat)?);
        }
        report.extra.push((
            "analyze_passes_ms".into(),
            json!({
                "lint": last.analyzed.lint_ns / 1e6,
                "protocol": last.analyzed.protocol_ns / 1e6,
                "race": last.analyzed.race_ns / 1e6,
                "pattern": last.analyzed.pattern_ns / 1e6,
            }),
        ));
        layers::probe(
            &units,
            &last.traces,
            &predicted,
            last.dropped,
            &opts.work_dir.join("probe"),
            report,
        )?;
    }
    Ok(())
}
