//! Chaos suite: deterministic fault injection across the full stack.
//!
//! Every test drives a real runtime integration (instrumented MPI ranks,
//! the adaptive OpenMP LULESH model) with faults injected inside the
//! hardened oracle facade — forced predict panics, lossy event channels,
//! artificially slow queries, corrupted trace bytes — and asserts the two
//! invariants of the resilience layer: the *application always completes
//! with the runtime-default decisions*, and the degradation is *visible in
//! the stats* (panics caught, deadline misses, quarantine transitions).
//!
//! Tests pin their fault plans explicitly (`faults: Some(...)`), so the
//! suite also runs unchanged under an external `PYTHIA_CHAOS` environment
//! (the CI chaos pass); only [`default_config_follows_env_chaos`] reads
//! the environment deliberately.

use std::time::Duration;

use pythia::apps::harness::{record_trace, run_app};
use pythia::apps::lulesh_omp::{run as lulesh_run, LuleshOmpConfig};
use pythia::apps::work::WorkScale;
use pythia::apps::{find_app, WorkingSet};
use pythia::core::resilience::faults::{corrupt_bytes, CHAOS_ENV};
use pythia::core::resilience::{BreakerConfig, FaultPlan, ResilienceConfig};
use pythia::core::trace::TraceData;
use pythia::minomp::{OmpRuntime, PoolMode};
use pythia::runtime_mpi::MpiMode;
use pythia::runtime_omp::{OmpOracle, ThresholdPolicy};

/// Runs `f` with the default panic hook silenced: injected panics are
/// caught by the facade, but the hook would still spam the test output.
fn silencing_panics<T>(f: impl FnOnce() -> T) -> T {
    let guard = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(guard);
    out
}

/// When `PYTHIA_CHAOS_TRACE_DIR` is set (the `ci.sh` sanitize pass), save
/// each recorded reference trace there so `pythia-analyze` can be run over
/// the suite's real traces offline.
fn dump_trace(name: &str, trace: &TraceData) {
    if let Ok(dir) = std::env::var("PYTHIA_CHAOS_TRACE_DIR") {
        let dir = std::path::Path::new(&dir);
        std::fs::create_dir_all(dir).expect("create PYTHIA_CHAOS_TRACE_DIR");
        trace
            .save(dir.join(format!("{name}.trace")))
            .expect("dump chaos trace");
    }
}

fn panic_faults() -> ResilienceConfig {
    ResilienceConfig {
        faults: Some(FaultPlan {
            panic_on_predict: true,
            ..FaultPlan::none()
        }),
        ..ResilienceConfig::default()
    }
}

/// Acceptance check 1: the OpenMP LULESH model completes a full adaptive
/// run while *every* predict query panics — all regions execute with the
/// default (maximum) team size, and the stats say why.
#[test]
fn lulesh_omp_completes_under_forced_predict_panics() {
    let cfg = LuleshOmpConfig {
        problem_size: 8,
        steps: 4,
        ns_per_unit: 5,
    };
    let oracle = OmpOracle::recorder();
    {
        let rt = OmpRuntime::with_listener(4, PoolMode::Park, oracle.listener());
        lulesh_run(&rt, &cfg);
    }
    let trace = oracle.finish_trace().unwrap();

    let oracle =
        OmpOracle::predictor_with(&trace, ThresholdPolicy::default(), 0.0, 9, panic_faults());
    silencing_panics(|| {
        let rt = OmpRuntime::with_listener(4, PoolMode::Park, oracle.listener());
        lulesh_run(&rt, &cfg);
    });
    let stats = oracle.stats();
    assert_eq!(stats.regions, 4 * 30, "every region must still run");
    assert_eq!(stats.adapted, 0, "a poisoned oracle must not adapt");
    assert_eq!(stats.team_histogram, vec![(4, 4 * 30)]);
    let r = oracle.resilience_stats();
    assert_eq!(r.panics_caught, 1, "{r:?}");
    assert!(r.quarantine_transitions >= 1, "{r:?}");
    assert!(r.degraded_ns > 0, "{r:?}");
}

/// Acceptance check 2: a multi-rank MPI application completes while every
/// predict query panics — all ranks finish and report the poisoning.
#[test]
fn mpi_app_completes_under_forced_predict_panics() {
    let app = find_app("MG").unwrap();
    let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
    dump_trace("mg_4ranks", &trace);
    let mode = MpiMode::predict_resilient(trace, vec![1], panic_faults());
    let res =
        silencing_panics(|| run_app(app.as_ref(), 4, WorkingSet::Small, mode, WorkScale::ZERO));
    assert_eq!(res.reports.len(), 4);
    for r in &res.reports {
        assert!(r.events > 0, "rank {} submitted no events", r.rank);
        assert!(r.resilience.poisoned, "rank {}: {:?}", r.rank, r.resilience);
        assert_eq!(r.resilience.panics_caught, 1, "{:?}", r.resilience);
        assert!(r.resilience.quarantine_transitions >= 1);
        // Predictions were still scored — all uninformed (the default).
        let (_, acc) = r.accuracy[0];
        assert!(acc.total() > 0);
        assert_eq!(acc.correct, 0);
        assert_eq!(acc.uninformed, acc.total());
    }
}

/// A lossy event channel (every 2nd event dropped before the oracle sees
/// it) desynchronizes predictions from the host's ground truth; the
/// accuracy watchdog quarantines the oracle instead of letting it keep
/// giving wrong advice — and the application still completes.
#[test]
fn lossy_event_channel_quarantines_instead_of_lying() {
    let app = find_app("CG").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    dump_trace("cg_2ranks", &trace);
    let resilience = ResilienceConfig {
        breaker: BreakerConfig {
            window: 8,
            max_error_rate: 0.25,
            // Stay quarantined once tripped (no half-open probe mid-test).
            backoff_initial: 1 << 30,
            ..BreakerConfig::default()
        },
        faults: Some(FaultPlan {
            drop_every: 2,
            ..FaultPlan::none()
        }),
        ..ResilienceConfig::default()
    };
    let mode = MpiMode::predict_resilient(trace, vec![1], resilience);
    let res = run_app(app.as_ref(), 2, WorkingSet::Small, mode, WorkScale::ZERO);
    for r in &res.reports {
        assert!(r.events > 0);
        assert!(
            !r.resilience.poisoned,
            "drops are not panics: {:?}",
            r.resilience
        );
        assert!(r.resilience.scored > 0, "{:?}", r.resilience);
        assert!(r.resilience.mispredicted > 0, "{:?}", r.resilience);
        assert!(
            r.resilience.quarantine_transitions >= 1,
            "rank {} was never quarantined: {:?}",
            r.rank,
            r.resilience
        );
        assert!(r.resilience.suppressed > 0, "{:?}", r.resilience);
    }
}

/// An artificially slow predictor blows its per-query time budget: every
/// query is cut off at the deadline (counted as a miss), repeated misses
/// quarantine the oracle, and the application never stalls on it.
#[test]
fn slow_predictor_trips_deadline_and_quarantines() {
    let app = find_app("EP").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    dump_trace("ep_2ranks", &trace);
    let resilience = ResilienceConfig {
        time_budget: Some(Duration::from_micros(20)),
        breaker: BreakerConfig {
            failure_threshold: 3,
            backoff_initial: 1 << 30,
            ..BreakerConfig::default()
        },
        faults: Some(FaultPlan {
            slow_predict: Some(Duration::from_micros(200)),
            ..FaultPlan::none()
        }),
    };
    let mode = MpiMode::predict_resilient(trace, vec![1], resilience);
    let res = run_app(app.as_ref(), 2, WorkingSet::Small, mode, WorkScale::ZERO);
    for r in &res.reports {
        assert!(r.events > 0);
        assert!(r.resilience.deadline_misses >= 3, "{:?}", r.resilience);
        assert!(
            r.resilience.quarantine_transitions >= 1,
            "{:?}",
            r.resilience
        );
    }
}

/// Corrupted trace bytes — random bit flips and truncations over a real
/// application trace — are rejected or loaded, never a panic; anything
/// that does load drives a predict run to completion.
#[test]
fn corrupted_trace_bytes_never_panic() {
    let app = find_app("FT").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    dump_trace("ft_2ranks", &trace);
    let bytes = trace.to_bytes().to_vec();
    for seed in 0..64u64 {
        let mutated = corrupt_bytes(&bytes, seed, 8);
        let outcome = std::panic::catch_unwind(|| TraceData::from_bytes(&mutated).is_ok());
        assert!(
            outcome.is_ok(),
            "panic while parsing corruption seed {seed}"
        );
    }
    for cut in (0..bytes.len()).step_by(97) {
        assert!(
            TraceData::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
}

/// A facade built with the *default* config consults `PYTHIA_CHAOS`: with
/// the variable set (the CI chaos pass) the run still completes; without
/// it, prediction works normally. Completion is asserted unconditionally;
/// accuracy only when the environment is clean.
#[test]
fn default_config_follows_env_chaos() {
    let app = find_app("MG").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    dump_trace("mg_2ranks", &trace);
    let res = silencing_panics(|| {
        run_app(
            app.as_ref(),
            2,
            WorkingSet::Small,
            MpiMode::predict(trace),
            WorkScale::ZERO,
        )
    });
    for r in &res.reports {
        assert!(r.events > 0, "rank {} did not complete", r.rank);
    }
    if std::env::var(CHAOS_ENV).is_err() {
        // Clean environment: the facade must be transparent.
        for r in &res.reports {
            assert!(!r.resilience.poisoned);
            assert_eq!(r.resilience.panics_caught, 0);
            let (_, acc) = r.accuracy[0];
            assert!(acc.accuracy() > 0.9, "{acc:?}");
        }
    }
}
