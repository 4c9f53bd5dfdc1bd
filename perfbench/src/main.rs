//! `perfbench` — the repository benchmark of the PYTHIA oracle.
//!
//! ```text
//! perfbench --workload <app_replay|irregular_replay|mpi_world|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the library
//! crates' public API for `--seconds`, checks the outputs, and prints the
//! full report (every metric, work count and check) followed by one last
//! line holding the gated metrics: the end-to-end ones with `--trace 0`,
//! the per-layer ones with `--trace 1`. Files go under `.bench_work/` in
//! the working directory. See README.md for the metrics.

mod gen;
mod layers;
mod pipeline;
mod replay;
mod serve;
mod util;
mod world;

use std::path::PathBuf;

use serde_json::{json, Value};

use util::{metrics_json, peak_rss_mb, reconcile, spans_json, Metric, Report};

/// Names of the gated metrics of one kind (`end_to_end` or `per_layer`),
/// as `BENCHMARK.json` in the working directory lists them.
fn gated_names(kind: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    spec[kind]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json has no {kind} list"))?
        .iter()
        .map(|m| {
            m["name"]
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: unnamed {kind} metric"))
        })
        .collect()
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let key = format!("--{name}");
        argv.iter()
            .position(|a| *a == key)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {key}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    let workload = value("workload")?;
    if !["app_replay", "irregular_replay", "mpi_world", "serve_mixed"].contains(&workload.as_str())
    {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let seed = num("seed")?;
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{workload}-s{seed}-p{}", std::process::id()));
    Ok(Opts {
        workload,
        seed,
        seconds: num("seconds")?.max(1),
        trace,
        work_dir,
    })
}

fn run(opts: &Opts, report: &mut Report) -> pythia_core::error::Result<()> {
    match opts.workload.as_str() {
        "app_replay" => replay::run(gen::app_units(opts.seed, gen::APP_STREAM_LEN), opts, report),
        "irregular_replay" => replay::run(
            vec![gen::irregular_unit(opts.seed, gen::IRREGULAR_LEN)],
            opts,
            report,
        ),
        "mpi_world" => world::run(opts, report),
        "serve_mixed" => serve::run(opts, report),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        std::process::exit(1);
    }
    let mut report = Report::default();
    let ticks = util::cpu_ticks();
    let outcome = run(&opts, &mut report);
    let (steal, total) = util::cpu_ticks();
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", opts.workload);
        std::process::exit(1);
    }
    report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    report.e2e(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "share",
    );
    let mut host = util::host_fingerprint();
    // Share of the host's CPU time stolen by other guests during the run:
    // a noisy neighbour shows here, not as a slower program.
    let steal_share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    if let Value::Object(fields) = &mut host {
        fields.push(("steal_share".into(), json!(steal_share)));
    }
    let mut tracing = Value::Null;
    if opts.trace {
        let rec = reconcile(&report.spans);
        let unattributed = rec["unattributed_share"].as_f64().unwrap_or(f64::NAN);
        report.layer("unattributed_share", unattributed, "share");
        report.layer(
            "tracing.overhead_ms",
            report.tracing_overhead_ms.unwrap_or(f64::NAN),
            "ms",
        );
        let diags = report
            .counts
            .get("analyze.diagnostics")
            .copied()
            .unwrap_or(0);
        report.layer("analyze.diagnostics", diags as f64, "count");
        tracing = json!({"reconciliation": rec, "spans": report.spans.len()});
        write_file(
            &opts,
            "spans",
            &json!({"workload": opts.workload, "seed": opts.seed, "spans": spans_json(&report.spans)}),
        );
    }

    let (gated, kind): (&[Metric], &str) = if opts.trace {
        (&report.layers, "per_layer")
    } else {
        (&report.e2e, "end_to_end")
    };
    let names = gated_names(kind).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut last = Vec::new();
    for name in &names {
        match gated.iter().find(|m| m.name == *name) {
            Some(m) => last.push(m.clone()),
            None => {
                eprintln!("perfbench: {} did not measure {name}", opts.workload);
                std::process::exit(3);
            }
        }
    }

    let checks: Vec<(String, Value)> = report
        .checks
        .iter()
        .map(|(k, (ok, detail))| (k.clone(), json!({"ok": *ok, "detail": detail.as_str()})))
        .collect();
    let counts: Vec<(String, Value)> = report
        .counts
        .iter()
        .map(|(k, v)| (k.clone(), json!(*v)))
        .collect();
    let volume: Vec<(String, Value)> = report
        .volume
        .iter()
        .map(|(k, v)| (k.clone(), json!(*v)))
        .collect();
    let full = json!({
        "workload": opts.workload.as_str(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "host": host,
        "end_to_end": metrics_json(&report.e2e),
        "per_layer": metrics_json(&report.layers),
        "counts": Value::Object(counts),
        "volume": Value::Object(volume),
        "checks": Value::Object(checks),
        "extra": Value::Object(report.extra.clone()),
        "tracing": tracing,
    });
    for m in report.e2e.iter().chain(&report.layers) {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (k, (ok, detail)) in &report.checks {
        println!("check {k}: {}{detail}", if *ok { "ok" } else { "FAILED " });
    }
    println!("{full}");
    write_file(&opts, "report", &full);
    let result = json!({
        "correct": report.correct(),
        "attempted": report.attempted.max(1),
        "failed": report.failed,
        "metrics": metrics_json(&last),
    });
    println!("{result}");
}

/// Writes `value` to `.bench_work/<kind>-<workload>-seed<n>-trace<t>.json`
/// next to the run's (removed) work directory.
fn write_file(opts: &Opts, kind: &str, value: &Value) {
    let dir = opts
        .work_dir
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let path = dir.join(format!(
        "{kind}-{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, value.to_string()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
