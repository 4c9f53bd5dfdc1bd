//! `serve_mixed`: one in-process closed-loop client against a 1-worker
//! `Server` with two tenants (an app trace and an irregular trace). The
//! client keeps ~1000 sessions sending `ObservePredict` batches of 16; a
//! share of requests closes a session and opens a fresh one, and a share
//! of sessions is durable, so journal writes run beside predict reads.

use std::time::{Duration, Instant};

use pythia_apps::work::SplitMix64;
use pythia_core::error::{Error, Result};
use pythia_core::event::EventId;
use pythia_core::predict::{Predictor, PredictorConfig};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::TraceData;
use pythia_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, split_frame,
};
use pythia_serve::{Admission, Client, Request, Response, ServeConfig, Server, SessionId, Tenants};
use serde_json::json;

use crate::gen::{self, Unit};
use crate::layers;
use crate::pipeline::{self, Predicted};
use crate::util::{median, ns_since, quantile, set_tracing, span, take_spans, Report};
use crate::Opts;

const SESSIONS: usize = 1000;
const BATCH: usize = 16;
/// One request in this many closes its session and opens a new one.
const CHURN_EVERY: u64 = 50;
/// One session in this many is durable (journaled).
const DURABLE_EVERY: u64 = 4;
/// One session slot in this many is mirrored by an in-process predictor.
const MIRROR_EVERY: usize = 50;
/// Set-up repetitions (record, then load + start) whose median is kept.
const SETUP_REPS: usize = 9;
/// Requests per measurement window: the loop's metrics are medians over
/// windows, so a transient stall moves one window, not the run. 2000
/// requests leave 20 samples beyond each window's p99.
const WINDOW: usize = 2000;

struct Session {
    id: SessionId,
    tenant: usize,
    pos: usize,
    durable: bool,
    /// Events sent since the session opened.
    sent: u64,
    mirror: Option<Predictor>,
}

struct LoopClient<'a> {
    client: Client,
    units: &'a [Unit],
    traces: &'a [TraceData],
    rng: SplitMix64,
}

impl LoopClient<'_> {
    fn open(&mut self, slot: usize) -> Result<Session> {
        let tenant = self.rng.below(2) as usize;
        let durable = self.rng.below(DURABLE_EVERY) == 0;
        let name = self.units[tenant].name.clone();
        let id = match self.client.call(&Request::Open {
            tenant: name,
            durable,
        })? {
            Response::Session { id } => id,
            other => return Err(Error::Corrupt(format!("open answered {other:?}"))),
        };
        let len = self.units[tenant].record[0].len();
        let mirror = slot.is_multiple_of(MIRROR_EVERY).then(|| {
            Predictor::from_thread_trace(
                self.traces[tenant].threads()[0].clone(),
                PredictorConfig::default(),
            )
        });
        Ok(Session {
            id,
            tenant,
            pos: self.rng.below((len - BATCH) as u64) as usize,
            durable,
            sent: 0,
            mirror,
        })
    }
}

#[derive(Default)]
struct Loop {
    requests: u64,
    events: u64,
    failed: u64,
    degraded: u64,
    wall_ns: f64,
    /// Latencies (µs) of the current window.
    latency_us: Vec<f64>,
    /// (correct, scored) at distances 1 and 64.
    d1: (u64, u64),
    d64: (u64, u64),
    mirrored: u64,
    mirror_mismatch: u64,
    samples: Vec<(Request, Response)>,
    /// Per window: ns per event served, p50 and p99 latency (µs).
    windows: Vec<(f64, f64, f64)>,
}

/// Drives the closed loop until `deadline` (or `max_requests`).
fn drive(
    c: &mut LoopClient<'_>,
    sessions: &mut [Session],
    deadline: Instant,
    max_requests: u64,
    traced: bool,
) -> Result<Loop> {
    let mut l = Loop::default();
    let start = Instant::now();
    let (mut w_start, mut w_events) = (Instant::now(), 0u64);
    while l.requests < max_requests && (l.requests % 64 != 0 || Instant::now() < deadline) {
        let slot = c.rng.below(sessions.len() as u64) as usize;
        if c.rng.below(CHURN_EVERY) == 0 {
            let t0 = Instant::now();
            let closed = c.client.call(&Request::Close {
                session: sessions[slot].id,
            })?;
            l.latency_us.push(ns_since(t0) / 1e3);
            l.requests += 1;
            if closed != Response::Closed {
                l.failed += 1;
            }
            sessions[slot] = c.open(slot)?;
            l.requests += 1;
            continue;
        }
        let s = &mut sessions[slot];
        let stream = &c.units[s.tenant].record[0];
        if s.pos + BATCH > stream.len() {
            // Jump to a fresh offset: the server's predictor (and the
            // mirror, fed the same batches) re-seeds.
            s.pos = c.rng.below((stream.len() - BATCH) as u64) as usize;
        }
        let distance = if c.rng.below(2) == 0 { 1 } else { 64 };
        let events: Vec<EventId> = stream[s.pos..s.pos + BATCH].to_vec();
        let req = Request::ObservePredict {
            session: s.id,
            distance: distance as u32,
            events,
        };
        let t0 = Instant::now();
        let resp = if traced {
            span("serve.call", || c.client.call(&req))
        } else {
            c.client.call(&req)
        }?;
        l.latency_us.push(ns_since(t0) / 1e3);
        l.requests += 1;
        match &resp {
            Response::Advice {
                prediction: Some(p),
                admission,
                ..
            } => {
                l.events += BATCH as u64;
                s.sent += BATCH as u64;
                if *admission == Admission::Degraded {
                    l.degraded += 1;
                }
                let last = s.pos + BATCH - 1;
                if let Some(&target) = stream.get(last + distance) {
                    let hit = (p.most_likely() == Some(target)) as u64;
                    let acc = if distance == 1 { &mut l.d1 } else { &mut l.d64 };
                    acc.0 += hit;
                    acc.1 += 1;
                }
                if let Some(m) = &mut s.mirror {
                    if *admission == Admission::Served {
                        if let Request::ObservePredict { events, .. } = &req {
                            m.observe_batch(events);
                        }
                        l.mirrored += 1;
                        if m.predict(distance) != *p {
                            l.mirror_mismatch += 1;
                        }
                    } else {
                        // The server skipped oracle work: stop mirroring.
                        s.mirror = None;
                    }
                }
            }
            _ => l.failed += 1,
        }
        s.pos += BATCH;
        if l.samples.len() < 2048 && l.requests % 7 == 0 {
            l.samples.push((req, resp));
        }
        if l.latency_us.len() >= WINDOW {
            let lat = &l.latency_us;
            let served = (l.events - w_events).max(1) as f64;
            l.windows.push((
                ns_since(w_start) / served,
                quantile(lat, 0.5),
                quantile(lat, 0.99),
            ));
            l.latency_us.clear();
            (w_start, w_events) = (Instant::now(), l.events);
        }
    }
    l.wall_ns = ns_since(start);
    Ok(l)
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<()> {
    let seed = opts.seed;
    let app = gen::app_units(seed, gen::APP_STREAM_LEN)
        .into_iter()
        .find(|u| u.name == "Lulesh")
        .expect("Lulesh is one of the skeletons");
    // Tenants serve thread 0: keep rank 0's stream.
    let app = Unit {
        record: app.record[..1].to_vec(),
        replay: app.replay[..1].to_vec(),
        ..app
    };
    let irregular = gen::irregular_unit(seed, gen::IRREGULAR_LEN / 2);
    let units = vec![app, irregular];

    // Record the tenant traces, then load them and start the server;
    // both repeated, medians kept. The last server serves the loop.
    let (mut record_ns, mut setup_ns) = (Vec::new(), Vec::new());
    let mut recorded = pipeline::Recorded::default();
    let mut server = None;
    let mut traces = Vec::new();
    set_tracing(opts.trace);
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        recorded = pipeline::Recorded::default();
        span("phase.record", || -> Result<()> {
            for u in &units {
                let path = opts.work_dir.join(format!("{}.pythia", u.name));
                let (r, _) = pipeline::record_unit(u, &path)?;
                recorded.events += r.events;
                recorded.trace_bytes += r.trace_bytes;
                recorded.journal_bytes += r.journal_bytes;
                recorded.dropped += r.dropped;
            }
            Ok(())
        })?;
        record_ns.push(ns_since(t0));
        if let Some(mut s) = server.take() {
            Server::shutdown(&mut s);
        }
        let journal_dir = opts.work_dir.join(format!("journals{rep}"));
        let t0 = Instant::now();
        let (s, loaded) = span("phase.load", || -> Result<_> {
            let mut loaded = Vec::new();
            for u in &units {
                let path = opts.work_dir.join(format!("{}.pythia", u.name));
                loaded.push(pipeline::load(&path, opts.trace)?);
            }
            let tenants = span("serve.tenants", || {
                Tenants::from_traces(
                    units
                        .iter()
                        .zip(&loaded)
                        .map(|(u, t)| (u.name.clone(), t.clone())),
                )
            })?;
            let config = ServeConfig {
                workers: 1,
                max_sessions_per_shard: 4 * SESSIONS,
                journal_dir: Some(journal_dir),
                faults: Some(FaultPlan::none()),
                ..ServeConfig::default()
            };
            let s = span("serve.start", || Server::start(tenants, config))?;
            Ok((s, loaded))
        })?;
        setup_ns.push(ns_since(t0));
        if rep == 0 {
            for (u, t) in units.iter().zip(&loaded) {
                let bytes = std::fs::read(opts.work_dir.join(format!("{}.pythia", u.name)))?;
                let res = pipeline::check_trace(u, &bytes, t);
                report.check(
                    "trace_roundtrip",
                    res.is_ok(),
                    res.err().unwrap_or_default(),
                );
            }
        }
        server = Some(s);
        traces = loaded;
    }
    set_tracing(false);
    let mut server = server.expect("SETUP_REPS > 0");

    let mut c = LoopClient {
        client: server.client(),
        units: &units,
        traces: &traces,
        rng: SplitMix64::new(seed ^ 0x5E4E_C11E),
    };
    let mut sessions = Vec::with_capacity(SESSIONS);
    for slot in 0..SESSIONS {
        sessions.push(c.open(slot)?);
    }
    // Warm-up, not measured: a session's first batch re-seeds its
    // predictor at a random offset; 4 requests per session reach ~98% of
    // them.
    let no_deadline = Instant::now() + Duration::from_secs(3600);
    drive(
        &mut c,
        &mut sessions,
        no_deadline,
        4 * SESSIONS as u64,
        false,
    )?;
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let main = if opts.trace {
        // Interleave untraced and traced slices of equal request counts.
        let mut both = Loop::default();
        let (mut u_wall, mut t_wall, mut n) = (0.0, 0.0, 0u64);
        while Instant::now() < deadline || n == 0 {
            let a = drive(&mut c, &mut sessions, no_deadline, 20_000, false)?;
            set_tracing(true);
            let b = span("phase.serve", || {
                drive(&mut c, &mut sessions, no_deadline, 20_000, true)
            })?;
            set_tracing(false);
            u_wall += a.wall_ns;
            t_wall += b.wall_ns;
            n += 1;
            merge(&mut both, a);
            merge(&mut both, b);
        }
        report.tracing_overhead_ms = Some((t_wall - u_wall) / 1e6);
        both
    } else {
        drive(&mut c, &mut sessions, deadline, u64::MAX, false)?
    };
    let stats = server.router().stats();

    // serve layer probes, before the sessions close: the client codec on
    // captured request/response pairs, and the router without it.
    if opts.trace {
        // The in-process client's codec work per call: frame and decode
        // the request, then frame and decode the response.
        let unframe = |frame: &[u8]| -> Result<Vec<u8>> {
            let mut cursor = frame;
            split_frame(&mut cursor)?.ok_or_else(|| Error::Corrupt("short frame".into()))
        };
        let t0 = Instant::now();
        for (req, resp) in &main.samples {
            std::hint::black_box(decode_request(&unframe(&encode_request(req))?)?);
            std::hint::black_box(decode_response(&unframe(&encode_response(resp))?)?);
        }
        let codec = ns_since(t0) / main.samples.len().max(1) as f64;
        // One fresh ObservePredict per live session, straight to the router.
        let router = server.router();
        let t0 = Instant::now();
        for s in sessions.iter_mut() {
            let stream = &units[s.tenant].record[0];
            if s.pos + BATCH > stream.len() {
                s.pos = 0;
            }
            let events = stream[s.pos..s.pos + BATCH].to_vec();
            s.pos += BATCH;
            let req = Request::ObservePredict {
                session: s.id,
                distance: 1,
                events,
            };
            std::hint::black_box(router.dispatch(req));
        }
        let dispatch_us = ns_since(t0) / sessions.len() as f64 / 1e3;
        report.layer("serve.codec_ns", codec, "ns");
        report.layer("serve.dispatch_us", dispatch_us, "us");
    }
    let journal_dir = opts.work_dir.join(format!("journals{}", SETUP_REPS - 1));
    let journal_bytes: u64 = std::fs::read_dir(&journal_dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let durable_events: u64 = sessions.iter().filter(|s| s.durable).map(|s| s.sent).sum();
    for s in &sessions {
        c.client.call(&Request::Close { session: s.id })?;
    }
    server.shutdown();

    report.check(
        "serve_matches_predictor",
        main.mirror_mismatch == 0 && main.mirrored > 0,
        format!(
            "{} of {} mirrored answers differ",
            main.mirror_mismatch, main.mirrored
        ),
    );
    let events = recorded.events as f64;
    report.e2e("setup_s", median(&setup_ns) / 1e9, "s");
    report.e2e("record_ns_per_event", median(&record_ns) / events, "ns");
    let window = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        median(&main.windows.iter().map(f).collect::<Vec<_>>())
    };
    report.e2e("predict_ns_per_event", window(&|w| w.0), "ns");
    report.e2e(
        "accuracy_d1",
        main.d1.0 as f64 / main.d1.1.max(1) as f64,
        "share",
    );
    report.e2e(
        "accuracy_d64",
        main.d64.0 as f64 / main.d64.1.max(1) as f64,
        "share",
    );
    report.e2e(
        "trace_bytes_per_event",
        recorded.trace_bytes as f64 / events,
        "B",
    );
    report.e2e("request_p50_us", window(&|w| w.1), "us");
    report.e2e("request_p99_us", window(&|w| w.2), "us");
    report.volume("windows", main.windows.len() as u64);
    report.extra.push((
        "per_window".into(),
        json!({
            "ns_per_event": main.windows.iter().map(|w| w.0).collect::<Vec<f64>>(),
            "p99_us": main.windows.iter().map(|w| w.2).collect::<Vec<f64>>(),
        }),
    ));
    report.volume("requests", main.requests);
    report.volume("serve.events", main.events);
    report.volume("serve.mirrored", main.mirrored);
    report.count("trace.bytes", recorded.trace_bytes);
    report.count("record.events", recorded.events);
    report.count(
        "grammar.rules",
        traces
            .iter()
            .map(|t| t.threads()[0].grammar.rule_count() as u64)
            .sum(),
    );
    let failed = main.failed + stats.busy_rejects + stats.journal_dropped_events + recorded.dropped;
    report.attempt(main.requests, failed);
    report.extra.push((
        "serve_stats".into(),
        json!({
            "busy_rejects": stats.busy_rejects,
            "journal_errors": stats.journal_errors,
            "journal_dropped_events": stats.journal_dropped_events,
            "breaker_trips": stats.breaker_trips,
            "degraded_events": stats.degraded_events,
            "degraded_responses": main.degraded,
        }),
    ));
    let analyzed = layers::analyze(&traces)?;
    report.count("analyze.diagnostics", analyzed.diagnostics);

    if opts.trace {
        report.spans = take_spans();
        report.layer("serve.busy_rejects", stats.busy_rejects as f64, "count");
        report.layer(
            "serve.journal_bytes_per_event",
            journal_bytes as f64 / durable_events.max(1) as f64,
            "B",
        );
        let mut predicted = Predicted::default();
        let mut lat = Vec::new();
        for (u, t) in units.iter().zip(&traces) {
            predicted.merge(&pipeline::predict_unit(u, t, &mut lat)?);
        }
        layers::probe(
            &units,
            &traces,
            &predicted,
            recorded.dropped,
            &opts.work_dir.join("probe"),
            report,
        )?;
    }
    Ok(())
}

fn merge(into: &mut Loop, l: Loop) {
    into.requests += l.requests;
    into.events += l.events;
    into.failed += l.failed;
    into.degraded += l.degraded;
    into.wall_ns += l.wall_ns;
    into.d1.0 += l.d1.0;
    into.d1.1 += l.d1.1;
    into.d64.0 += l.d64.0;
    into.d64.1 += l.d64.1;
    into.mirrored += l.mirrored;
    into.mirror_mismatch += l.mirror_mismatch;
    into.windows.extend(l.windows);
    if into.samples.is_empty() {
        into.samples = l.samples;
    }
}
