//! `vcobench` — the workspace's end-to-end benchmark.
//!
//! ```text
//! vcobench --workload NAME --seed N --seconds S --trace 0|1
//! vcobench --write-references
//! ```
//!
//! Prints the run's environment, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! The full report, with the profile aggregate of a traced run, goes to
//! `<target dir>/vcobench/reports/`. See `README.md`.

use std::path::Path;
use vcobench::workload::{write_references, Workload};
use vcobench::{environment_json, timed_run, traced_run, work_dir, RunConfig};

fn usage() -> ! {
    eprintln!("usage: vcobench --workload NAME --seed N --seconds S --trace 0|1");
    eprintln!("       vcobench --write-references");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("  NAME: {}", names.join(" | "));
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(argv: &[String], i: usize, flag: &str) -> T {
    argv.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} needs a valid value");
        usage()
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, 0u8);
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                i += 1;
                let name: String = value(&argv, i, "--workload");
                workload = Some(Workload::parse(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name}");
                    usage()
                }));
            }
            "--seed" => {
                i += 1;
                seed = value(&argv, i, "--seed");
            }
            "--seconds" => {
                i += 1;
                seconds = value(&argv, i, "--seconds");
                if !(seconds.is_finite() && seconds > 0.0) {
                    usage();
                }
            }
            "--trace" => {
                i += 1;
                trace = value(&argv, i, "--trace");
                if trace > 1 {
                    usage();
                }
            }
            "--write-references" => {
                let scratch = work_dir().join("references");
                let written = write_references(&scratch);
                let _ = std::fs::remove_dir_all(&scratch);
                match written {
                    Ok(paths) => {
                        for p in paths {
                            println!("wrote {}", p.display());
                        }
                        return;
                    }
                    Err(e) => {
                        eprintln!("vcobench: {e}");
                        std::process::exit(1);
                    }
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(workload) = workload else { usage() };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        scratch: work_dir().join(format!("run-{}-{}", workload.name(), std::process::id())),
    };
    let env = environment_json(&cfg, trace == 1);
    println!("environment: {env}");
    let result = if trace == 1 {
        traced_run(&cfg).map(|(report, detail)| {
            let replayed = detail
                .replayed
                .as_ref()
                .map_or("null".into(), |p| p.to_json());
            let profiles = format!(
                "{{\"traced\": {}, \"replayed\": {}}}",
                detail.traced.to_json().trim_end(),
                replayed.trim_end()
            );
            (report, Some(profiles))
        })
    } else {
        timed_run(&cfg).map(|report| (report, None))
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let (report, profile) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vcobench: {e}");
            std::process::exit(1);
        }
    };
    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    let line = report.json_line();
    let saved = save_report(&cfg, trace, &env, &line, profile.as_deref());
    if let Err(e) = saved {
        eprintln!("vcobench: report not saved: {e}");
    }
    if trace == 0 {
        println!("operation wall seconds: {:?}", report.op_walls);
        println!("operation cpu seconds: {:?}", report.op_cpus);
    }
    println!("{line}");
}

fn save_report(
    cfg: &RunConfig,
    trace: u8,
    env: &str,
    line: &str,
    profile: Option<&str>,
) -> std::io::Result<()> {
    let dir = work_dir().join("reports");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{trace}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    let profile = profile.unwrap_or("null");
    std::fs::write(
        Path::new(&path),
        format!("{{\n\"environment\": {env},\n\"result\": {line},\n\"profile\": {profile}\n}}\n"),
    )
}
