//! Acceptance test of the committed tuning-curve deck
//! `examples/decks/vco_sweep.ckt` at `wampde-cli` defaults (one worker,
//! continuation warm starts on): the tuning curve itself, the cost of the
//! cold shooting init and of the warm-started points, and the WaMPDE
//! envelope agreeing with the shooting frequency at every grid point.

use circuitdae::parse_deck;
use sweepkit::{run_deck_with, SweepConfig};

const DECK_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/decks/vco_sweep.ckt");

/// The deck's tuning curve at control voltages 1.2, 1.4, 1.6 and 1.8 V.
const FREQ_HZ: [f64; 4] = [733951.9, 742574.0, 752396.6, 763371.9];

#[test]
fn vco_sweep_deck_tuning_curve_and_shooting_cost() {
    let text = std::fs::read_to_string(DECK_PATH).expect("committed deck exists");
    let deck = parse_deck(&text).unwrap();
    let config = SweepConfig {
        jobs: 1,
        warm_start: true,
        ..SweepConfig::default()
    };
    let outcome = run_deck_with(&deck, &config, None).unwrap().outcome;
    assert_eq!(outcome.analysis_labels, ["shooting0", "wampde1"]);

    let shooting: Vec<_> = outcome.runs_of(0).collect();
    assert_eq!(shooting.len(), FREQ_HZ.len());
    for (run, want) in shooting.iter().zip(FREQ_HZ) {
        let f = run.result.metric("freq_hz").unwrap();
        let rel = (f - want).abs() / want;
        assert!(
            rel < 1e-6,
            "point {}: {f} Hz vs {want} Hz (rel {rel:e})",
            run.point
        );
    }

    // The cold init of the chain head: seed-grade transients keep it far
    // below the ~113k Newton iterations a tight settle costs.
    let cold_iters = shooting[0].result.metric("newton_iters").unwrap();
    assert!(cold_iters <= 30_000.0, "point 0 newton_iters {cold_iters}");
    // Warm-started points converge in a handful of flow evaluations.
    for run in &shooting[1..] {
        let flows = run.result.metric("iterations").unwrap();
        assert!(flows <= 6.0, "point {} took {flows} flows", run.point);
    }

    // Under a DC control the envelope's local frequency brackets the
    // shooting frequency of the same point.
    let wampde: Vec<_> = outcome.runs_of(1).collect();
    assert_eq!(wampde.len(), shooting.len());
    for (env, orbit) in wampde.iter().zip(&shooting) {
        assert_eq!(env.point, orbit.point);
        let lo = env.result.metric("omega_min_hz").unwrap();
        let hi = env.result.metric("omega_max_hz").unwrap();
        let f = orbit.result.metric("freq_hz").unwrap();
        assert!(
            lo <= f && f <= hi,
            "point {}: omega range [{lo}, {hi}] Hz misses shooting {f} Hz",
            env.point
        );
    }
}
