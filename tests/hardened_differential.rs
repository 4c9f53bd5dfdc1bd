//! Differential check of the resilience facade: with no faults injected,
//! a `HardenedOracle` must be invisible on a real application stream —
//! the same observe outcomes, bit-identical predictions and equal delays
//! as the bare `Oracle` it wraps, with its watchdog scoring every
//! prediction whose target event arrives.

use pythia::apps::harness::record_trace;
use pythia::apps::work::WorkScale;
use pythia::apps::{find_app, WorkingSet};
use pythia::core::oracle::Oracle;
use pythia::core::predict::{Prediction, PredictorConfig};
use pythia::core::resilience::{FaultPlan, HardenedOracle, OracleHealth, ResilienceConfig};

/// Distances queried together at every event, so several predictions per
/// distance are outstanding at once.
const DISTANCES: [usize; 3] = [1, 8, 64];

/// A prediction as raw bits (probabilities compared bit for bit).
fn bits(p: &Prediction) -> (Vec<(u32, u64)>, u64) {
    let dist = p.distribution.iter().map(|&(e, w)| (e.0, w.to_bits()));
    (dist.collect(), p.end_probability.to_bits())
}

#[test]
fn hardened_oracle_is_transparent_on_an_app_stream() {
    let app = find_app("LULESH").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Large, WorkScale::ZERO);
    let stream = trace.thread(0).unwrap().grammar.unfold();
    assert!(stream.len() > 2 * DISTANCES[2], "stream too short");

    let mut bare = Oracle::predict(&trace, 0, PredictorConfig::default()).unwrap();
    let hermetic = ResilienceConfig {
        faults: Some(FaultPlan::none()),
        ..ResilienceConfig::default()
    };
    let mut hard =
        HardenedOracle::try_predict(&trace, 0, PredictorConfig::default(), hermetic).unwrap();

    // Predictions the facade registers (informed ones) whose target event
    // (1-based stream index) the replay reaches.
    let mut reachable = 0u64;
    for (i, &e) in stream.iter().enumerate() {
        assert_eq!(hard.event(e), bare.event(e), "outcome at event {i}");
        let observed = i as u64 + 1;
        for d in DISTANCES {
            let (h, b) = (hard.predict_event(d), bare.predict_event(d));
            assert_eq!(bits(&h), bits(&b), "prediction at event {i}, distance {d}");
            if h.most_likely().is_some() && observed + d as u64 <= stream.len() as u64 {
                reachable += 1;
            }
        }
        assert_eq!(
            hard.predict_delay(1),
            bare.predict_delay(1),
            "delay at event {i}"
        );
    }

    assert_eq!(hard.health(), OracleHealth::Healthy);
    let r = hard.resilience_stats();
    assert!(reachable > 0);
    assert_eq!(r.scored, reachable, "{r:?}");
    assert_eq!(r.suppressed, 0, "{r:?}");
    assert_eq!(
        r.panics_caught + r.deadline_misses + r.quarantine_transitions,
        0
    );
    assert_eq!(hard.predict_stats(), bare.predictor().map(|p| p.stats()));
}
