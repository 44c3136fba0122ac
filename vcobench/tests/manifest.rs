//! `BENCHMARK.json` against its rules and this package's tables, and
//! every listed workload run through the benchmark binary.

use std::path::Path;
use std::process::Command;
use sweepkit::{parse_json, Json};
use vcobench::layers::END_TO_END;
use vcobench::manifest::check_manifest;

fn manifest_text() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_passes_its_self_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let problems = check_manifest(&manifest_text(), &root);
    assert!(problems.is_empty(), "{problems:#?}");
}

#[test]
fn self_check_catches_a_malformed_manifest() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bad = manifest_text()
        .replacen("\"wall_s\"", "\"wall s\"", 1)
        .replacen("\"bound\": 0.25", "\"bound\": 0.5", 1);
    let problems = check_manifest(&bad, &root);
    assert!(
        problems.iter().any(|p| p.contains("bad name")),
        "{problems:#?}"
    );
    assert!(
        problems.iter().any(|p| p.contains("bound")),
        "{problems:#?}"
    );
}

#[test]
fn every_workload_command_runs() {
    let doc = parse_json(&manifest_text()).expect("manifest is JSON");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("manifest-runs");
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        let out = Command::new(env!("CARGO_BIN_EXE_vcobench"))
            .args([
                "--workload",
                name,
                "--seed",
                "0",
                "--seconds",
                "0.1",
                "--trace",
                "0",
            ])
            .env("CARGO_TARGET_DIR", &scratch)
            .output()
            .expect("benchmark binary starts");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        let result = parse_json(last).expect("the last line is JSON");
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(true)),
            "{name}: {stdout}"
        );
        let metrics = result.get("metrics").expect("metrics");
        for m in END_TO_END {
            match metrics.get(m.name).and_then(|v| v.get("value")) {
                Some(Json::Num(v)) => assert!(*v > 0.0, "{name}: {} = {v}", m.name),
                other => panic!("{name}: {} missing: {other:?}", m.name),
            }
        }
    }
}
