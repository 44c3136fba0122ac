//! Workspace-level acceptance tests for the `obskit` instrumentation
//! layer (see `docs/OBSERVABILITY.md`).
//!
//! The contract under test: tracing is *observation only*. Installing a
//! recorder around a deck sweep must change no artifact byte, the
//! exported Chrome trace and metrics JSONL must round-trip through the
//! suite's own JSON parser, and a disabled thread must record nothing.

use std::sync::Arc;
use sweepkit::{parse_json, run_deck, run_deck_with, Json, SweepConfig};
use wampde_bench::out::csv_string;

/// Small driven-RC sweep: three grid points, one transient analysis —
/// cheap enough to run traced and untraced in one test, rich enough to
/// exercise sweep → job → analysis → time-step → newton → factor.
const RC_DECK: &str = "V1 in 0 SIN(0 5 1k)\n\
                       R1 in out 1k\n\
                       C1 out 0 1u\n\
                       .tran 2m dt=20u\n\
                       .sweep R1 1k 3k 3\n";

fn traced_run(deck_text: &str) -> (sweepkit::SweepRun, Arc<obskit::CollectingRecorder>) {
    let deck = circuitdae::parse_deck(deck_text).unwrap();
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let run = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        run_deck_with(&deck, &SweepConfig::default(), None).unwrap()
    };
    (run, rec)
}

#[test]
fn traced_sweep_artifacts_are_byte_identical_to_untraced() {
    let deck = circuitdae::parse_deck(RC_DECK).unwrap();
    let plain = run_deck(&deck, 2).unwrap();
    let (traced, rec) = traced_run(RC_DECK);
    assert!(!rec.is_empty(), "the traced run must actually record");

    assert_eq!(plain, traced.outcome, "outcomes must match exactly");
    for ai in 0..plain.analysis_labels.len() {
        let (h, r) = plain.waveform_table(ai);
        let (ht, rt) = traced.outcome.waveform_table(ai);
        let h: Vec<&str> = h.iter().map(String::as_str).collect();
        let ht: Vec<&str> = ht.iter().map(String::as_str).collect();
        assert_eq!(
            csv_string(&h, &r).into_bytes(),
            csv_string(&ht, &rt).into_bytes(),
            "analysis {ai}: traced CSV bytes differ"
        );
        let (h, r) = plain.summary_table(ai);
        let (ht, rt) = traced.outcome.summary_table(ai);
        let h: Vec<&str> = h.iter().map(String::as_str).collect();
        let ht: Vec<&str> = ht.iter().map(String::as_str).collect();
        assert_eq!(
            csv_string(&h, &r).into_bytes(),
            csv_string(&ht, &rt).into_bytes(),
            "analysis {ai}: traced summary bytes differ"
        );
    }
}

#[test]
fn traced_factor_and_klu_solve_change_no_bytes() {
    // A two-block BTF matrix through the ordered kernel: the traced
    // factor must be byte-identical to the untraced one.
    let mut t = sparsekit::Triplets::new(6, 6);
    for b in 0..2usize {
        for r in 0..3usize {
            let i = 3 * b + r;
            t.push(i, i, 4.0 + i as f64);
            t.push(i, 3 * b + (r + 1) % 3, 0.5 - 0.1 * i as f64);
        }
    }
    t.push(0, 4, 0.25); // upper off-block coupling keeps two blocks
    let csc = t.to_csc();
    let plan = sparsekit::OrderingPlan::for_matrix(&csc).unwrap();
    let untraced = sparsekit::SparseLu::factor_ordered(&csc, &plan).unwrap();
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let traced = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let _sp = obskit::span("factor");
        sparsekit::SparseLu::factor_ordered(&csc, &plan).unwrap()
    };
    assert_eq!(format!("{traced:?}"), format!("{untraced:?}"));

    // The same contract end to end: a bordered step Jacobian stamped,
    // factored and solved via KLU returns a bit-identical solution
    // traced or not, and the traced run really recorded the KLU phases.
    let jac = wampde_bench::StepJacobian::build(8, 2);
    let plain = jac.factor_solve(wampde::LinearSolverKind::Klu);
    let rec = Arc::new(obskit::CollectingRecorder::new());
    let traced = {
        let _g = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        jac.factor_solve(wampde::LinearSolverKind::Klu)
    };
    assert!(
        traced
            .iter()
            .zip(plain.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "traced klu solve differs from untraced"
    );
    let doc = parse_json(&rec.to_chrome_trace()).expect("trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(
        events
            .iter()
            .any(|ev| ev.get("name").and_then(Json::as_str) == Some("factor.btf")),
        "the traced klu solve must record its `factor.btf` span"
    );
}

#[test]
fn uninstalled_threads_see_tracing_disabled() {
    // This test thread never installs a recorder, so the whole fast
    // path must stay off and free functions must be inert no-ops.
    assert!(!obskit::enabled());
    assert!(obskit::current().is_none());
    let sp = obskit::span("orphan");
    assert!(sp.id().is_none());
    obskit::counter_add("orphan.counter", 1);
    obskit::observe("orphan.h", 1.0);
    obskit::point("orphan.point", &[]);
}

#[test]
fn chrome_trace_round_trips_with_full_span_hierarchy() {
    let (_, rec) = traced_run(RC_DECK);
    let doc = parse_json(&rec.to_chrome_trace()).expect("trace must be valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    let mut names = std::collections::BTreeSet::new();
    for ev in events {
        match ev.get("ph").and_then(Json::as_str).unwrap() {
            "X" => {
                let args = ev.get("args").expect("span event has args");
                match args.get("span_id") {
                    Some(Json::Num(id)) if *id >= 1.0 => {}
                    other => panic!("bad span_id: {other:?}"),
                }
                names.insert(ev.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            "M" | "i" => {}
            other => panic!("unknown phase {other}"),
        }
    }
    for level in [
        "sweep",
        "job",
        "analysis",
        "time-step",
        "newton",
        "factor",
        "solve",
    ] {
        assert!(names.contains(level), "missing `{level}` span in {names:?}");
    }
}

#[test]
fn metrics_jsonl_round_trips_and_reports_convergence_traces() {
    let (run, rec) = traced_run(RC_DECK);
    let jsonl = rec.to_metrics_jsonl();

    let mut executed = None;
    let mut newton_points = 0u64;
    for line in jsonl.lines() {
        let row = parse_json(line).expect("every line is a JSON document");
        let kind = row.get("kind").and_then(Json::as_str).unwrap();
        let name = row.get("name").and_then(Json::as_str).unwrap();
        match kind {
            "counter" => {
                if name == "sweep.executed" {
                    executed = match row.get("value") {
                        Some(Json::Num(v)) => Some(*v as usize),
                        other => panic!("bad counter value {other:?}"),
                    };
                }
            }
            "histogram" => {
                for key in ["count", "sum", "min", "max"] {
                    assert!(
                        matches!(row.get(key), Some(Json::Num(_))),
                        "histogram `{name}` missing `{key}`"
                    );
                }
            }
            "point" => {
                let attrs = row.get("attrs").expect("point rows carry attrs");
                if name == "newton.iter" {
                    newton_points += 1;
                    for key in ["iter", "residual", "lambda", "factor"] {
                        assert!(attrs.get(key).is_some(), "newton.iter missing `{key}`");
                    }
                }
                if name == "step.accept" {
                    assert!(attrs.get("h").is_some(), "step.accept missing `h`");
                }
            }
            other => panic!("unknown metrics kind {other}"),
        }
    }
    assert_eq!(
        executed,
        Some(run.stats.jobs_total),
        "sweep.executed counter must equal the job count"
    );
    assert!(
        newton_points > 0,
        "the convergence trace must contain per-iteration newton.iter rows"
    );
    // The registry view and the JSONL dump come from the same data.
    assert_eq!(
        rec.counter("newton.solves"),
        rec.metrics().counter("newton.solves")
    );
}

#[test]
fn sweep_metrics_use_unified_run_stat_names() {
    let (run, _) = traced_run(RC_DECK);
    let metrics = &run.outcome.runs[0].result.metrics;
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        names.contains(&"newton_iters"),
        "per-job metrics must use the unified `newton_iters` name, got {names:?}"
    );
    assert!(
        !names.contains(&"newton_iterations"),
        "the deprecated `newton_iterations` spelling must not reappear"
    );
    for expected in ["steps", "rejected", "factorisations", "symbolic_reuses"] {
        assert!(
            names.contains(&expected),
            "missing `{expected}` in {names:?}"
        );
    }
}
