//! The traced run measures the same program as the timed run: traced
//! and replayed results match untraced ones bit for bit (checked inside
//! `traced_run`, which counts any mismatch as a failure), deterministic
//! counters repeat for a seed, seeds move the inputs, and the profile's
//! self times add up to its root span.

use std::path::Path;
use vcobench::workload::{deck_text, Workload};
use vcobench::{traced_run, RunConfig, TraceDetail};

fn traced(w: Workload, seed: u64, tag: &str) -> TraceDetail {
    let cfg = RunConfig {
        workload: w,
        seed,
        seconds: 1.0,
        scratch: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{}-{tag}", w.name())),
    };
    let (report, detail) = traced_run(&cfg).expect("traced run");
    assert!(report.correct(), "{}: {:?}", w.name(), report.problems);
    detail
}

#[test]
fn counters_repeat_exactly_for_one_seed() {
    for w in [Workload::VcoSweep, Workload::FmVco] {
        let a = traced(w, 3, "a");
        let b = traced(w, 3, "b");
        assert!(!a.traced.counters.is_empty(), "{}: no counters", w.name());
        assert_eq!(a.traced.counters, b.traced.counters, "{}", w.name());
        assert_eq!(
            a.replayed.map(|p| p.counters),
            b.replayed.map(|p| p.counters),
            "{}",
            w.name()
        );
    }
}

#[test]
fn traced_and_replayed_runs_match_untraced_on_every_workload() {
    for w in Workload::ALL {
        let d = traced(w, 0, "match");
        // Decks also replay; fm_vco wraps its own solver call.
        assert_eq!(d.replayed.is_some(), w != Workload::FmVco, "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_the_grid() {
    let grid = |seed| {
        let text = deck_text(Workload::VcoSweep, seed).unwrap().unwrap();
        sweepkit::expand_grid(&circuitdae::parse_deck(&text).unwrap().sweeps)
    };
    assert_eq!(grid(0), vec![vec![1.2], vec![1.4], vec![1.6], vec![1.8]]);
    assert_ne!(grid(0), grid(1));
    assert_ne!(grid(1), grid(2));
    assert_eq!(grid(7), grid(7));
    assert_ne!(
        deck_text(Workload::RingLadder, 0).unwrap(),
        deck_text(Workload::RingLadder, 1).unwrap()
    );
}

#[test]
fn self_times_sum_to_the_root_span() {
    let d = traced(Workload::VcoSweep, 0, "self");
    for p in std::iter::once(&d.traced).chain(d.replayed.as_ref()) {
        let root = p.span("bench").total_s;
        assert!(root > 0.0);
        let sum = p.self_sum_s();
        assert!(
            (sum - root).abs() <= 0.01 * root,
            "self sum {sum} vs root {root}"
        );
    }
}
