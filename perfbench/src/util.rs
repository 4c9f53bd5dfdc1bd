//! Shared plumbing: the metric report, statistics, in-memory spans, host
//! fingerprint and peak memory.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (tracing off).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Deterministic work counts: must repeat exactly for a given seed.
    pub counts: BTreeMap<String, u64>,
    /// Work done in the run's time budget (not deterministic).
    pub volume: BTreeMap<String, u64>,
    /// Output checks: name → (passed, detail).
    pub checks: BTreeMap<String, (bool, String)>,
    /// Operations attempted and failed (error returns, caught panics,
    /// dropped journal events, serve errors/busy, rank failures).
    pub attempted: u64,
    pub failed: u64,
    /// Traced-round wall minus untraced-round wall (traced runs only).
    pub tracing_overhead_ms: Option<f64>,
    /// Spans of the traced rounds, kept until the run ends.
    pub spans: Vec<Span>,
    /// Workload-specific extra sections of the full report.
    pub extra: Vec<(String, Value)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_owned(), value);
    }

    pub fn volume(&mut self, name: &str, value: u64) {
        self.volume.insert(name.to_owned(), value);
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        // A check that fails once stays failed.
        let entry = self
            .checks
            .entry(name.to_owned())
            .or_insert((true, String::new()));
        if !ok && entry.0 {
            *entry = (false, detail.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.values().all(|(ok, _)| *ok)
    }

    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }
}

pub fn metrics_json(ms: &[Metric]) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Runs `f` and returns its result and wall time in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, ns_since(t0))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Aggregate CPU time counters of the host (`/proc/stat`, in ticks):
/// (steal, total).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Cores and CPU model of the host, stamped on every report.
pub fn host_fingerprint() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({"cores": cores, "cpu_model": model})
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed call into a layer, named `<layer>.<operation>`; phases are
/// spans named `phase.<name>` whose self time is the unattributed rest.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for this thread.
pub fn set_tracing(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.epoch.get_or_insert_with(Instant::now);
    });
}

/// Runs `f` inside a span (a plain call when tracing is off). Spans stay
/// in memory until [`take_spans`].
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let start_ns = t
            .epoch
            .expect("set_tracing sets the epoch")
            .elapsed()
            .as_nanos() as u64;
        let parent = t.stack.last().copied();
        let idx = t.spans.len();
        t.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        t.stack.push(idx);
        Some(idx)
    });
    let r = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.expect("set").elapsed().as_nanos() as u64;
            t.spans[idx].end_ns = end;
            t.stack.pop();
        });
    }
    r
}

/// Removes and returns every recorded span.
pub fn take_spans() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time (duration minus the time covered by direct children) per
/// span.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64)
        .collect()
}

/// Layer reconciliation over a span set: per phase, the phase wall, the
/// self time of each layer inside it, and the unattributed leftover
/// (the phase span's own self time).
pub fn reconcile(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    // Phase of each span: walk up to the outermost `phase.*` ancestor.
    let phase_of = |mut i: usize| -> Option<usize> {
        let mut found = None;
        loop {
            if spans[i].name.starts_with("phase.") {
                found = Some(i);
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return found,
            }
        }
    };
    let mut phases: BTreeMap<&str, (f64, f64, BTreeMap<&str, f64>)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = phase_of(i) else { continue };
        let entry = phases
            .entry(spans[p].name)
            .or_insert((0.0, 0.0, BTreeMap::new()));
        if p == i {
            entry.0 += (s.end_ns - s.start_ns) as f64;
            entry.1 += selfs[i];
        } else {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *entry.2.entry(layer).or_insert(0.0) += selfs[i];
        }
    }
    let mut out = Vec::new();
    let (mut wall_all, mut left_all) = (0.0, 0.0);
    for (name, (wall, left, layers)) in &phases {
        wall_all += wall;
        left_all += left;
        let layer_ms: Vec<(String, Value)> = layers
            .iter()
            .map(|(l, ns)| (l.to_string(), json!(ns / 1e6)))
            .collect();
        out.push((
            name.to_string(),
            json!({
                "wall_ms": wall / 1e6,
                "layer_self_ms": Value::Object(layer_ms),
                "unattributed_ms": left / 1e6,
                "unattributed_share": if *wall > 0.0 { left / wall } else { 0.0 },
            }),
        ));
    }
    json!({
        "phases": Value::Object(out),
        "unattributed_share": if wall_all > 0.0 { left_all / wall_all } else { 0.0 },
    })
}

/// Serializes spans for the trace file written at the end of a run.
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| json!([s.name, s.parent, s.start_ns, s.end_ns]))
            .collect(),
    )
}
