//! End-to-end and per-layer benchmark of the WaMPDE VCO workspace.
//!
//! A timed run ([`timed_run`]) repeats one cold operation of a workload
//! — for a deck, the work of `wampde-cli <deck> --no-cache` at every
//! other default — with tracing off, and reports wall, CPU and set-up
//! seconds as the mean of a run's fastest timings. A traced run
//! ([`traced_run`]) does one untraced operation, one under an
//! aggregating [`profile::ProfileRecorder`], and for decks a staged
//! [`replay`] whose circuit is wrapped in a [`stamp::StampDae`]; it
//! reports the per-layer metrics of [`layers::LAYERS`] once the traced
//! results have matched the untraced ones bit for bit. `README.md` in this directory is the
//! guide.

pub mod layers;
pub mod manifest;
pub mod profile;
pub mod replay;
pub mod stamp;
pub mod workload;

use profile::{Profile, ProfileRecorder};
use stamp::StampTally;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{check, check_inputs, run_op, setup, Output, Prepared, Verdict, Workload};

/// What one benchmark invocation asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Its input seed.
    pub seed: u64,
    /// How long the timed loop measures.
    pub seconds: f64,
    /// Scratch directory for the artifacts the operations write.
    pub scratch: PathBuf,
}

/// The outcome of a run, ready to print.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Operations attempted, counted in jobs (grid point × analysis).
    pub attempted: usize,
    /// Jobs that failed a solve or a check.
    pub failed: usize,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Metric name → (value, unit), in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Wall seconds of each timed operation (timed runs).
    pub op_walls: Vec<f64>,
    /// CPU seconds of each timed operation, in 10 ms ticks (timed runs).
    pub op_cpus: Vec<f64>,
}

impl RunReport {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, every value with all its digits.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    fn absorb(&mut self, verdict: Verdict) {
        self.attempted += verdict.jobs;
        self.failed += verdict.failed;
        self.problems.extend(verdict.problems);
    }

    fn fail_op(&mut self, jobs: usize, problem: String) {
        self.attempted += jobs;
        self.failed += jobs;
        self.problems.push(problem);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Mean of the fastest `share` of a non-empty sample: the smallest
/// `round(share × n)` values, at least one.
///
/// # Panics
///
/// Panics on an empty sample, which no caller passes.
pub fn fastest_mean(xs: &[f64], share: f64) -> f64 {
    assert!(!xs.is_empty(), "fastest mean of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((share * v.len() as f64).round() as usize).clamp(1, v.len());
    v[..k].iter().sum::<f64>() / k as f64
}

/// The share of a run's timings, fastest first, that the end-to-end
/// metrics average.
///
/// The host's CPU contention only ever adds time, and it comes and goes
/// within seconds: the fastest operations of a run track the program's
/// own cost, where the median moves with however busy the host was.
pub const FASTEST_SHARE: f64 = 0.05;

/// User+sys CPU seconds of this process so far, every thread included,
/// from `/proc/self/stat` (fields 14 and 15, in 1/100 s clock ticks).
///
/// # Errors
///
/// When the file is missing or malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| -> Result<f64, String> {
        fields
            .get(k)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", k + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Batches of set-ups per run, spread evenly over the timed loop so
/// that they meet the host in as many states as the operations do;
/// `setup_s` is the [`fastest_mean`] over batches of the mean set-up
/// time within a batch.
pub const SETUP_BATCHES: usize = 41;
/// Seconds one batch of set-ups should last, so that even a set-up of
/// microseconds is timed over a span the clock resolves well.
pub const SETUP_BATCH_S: f64 = 0.05;
/// CPU seconds a group of operations should span for `cpu_s`: 25
/// ticks of `/proc/self/stat`, so a tick is at most 4% of a group,
/// while groups stay short enough to fall between bursts of contention.
pub const CPU_GROUP_S: f64 = 0.25;

/// Set-ups of one workload, timed in batches.
struct SetupTimer {
    workload: Workload,
    seed: u64,
    per_batch: usize,
    times: Vec<f64>,
}

impl SetupTimer {
    /// Does one untimed set-up, which sizes the batches, and returns it.
    fn new(workload: Workload, seed: u64) -> Result<(Prepared, SetupTimer), String> {
        let t0 = Instant::now();
        let prep = setup(workload, seed)?;
        let per_batch = (SETUP_BATCH_S / t0.elapsed().as_secs_f64())
            .ceil()
            .clamp(1.0, 1e4) as usize;
        let timer = SetupTimer {
            workload,
            seed,
            per_batch,
            times: Vec::with_capacity(SETUP_BATCHES),
        };
        Ok((prep, timer))
    }

    /// Times one batch of set-ups.
    fn batch(&mut self) -> Result<(), String> {
        let t0 = Instant::now();
        for _ in 0..self.per_batch {
            std::hint::black_box(setup(self.workload, self.seed)?);
        }
        self.times
            .push(t0.elapsed().as_secs_f64() / self.per_batch as f64);
        Ok(())
    }
}

/// CPU seconds per operation of consecutive groups of operations, each
/// group spanning at least [`CPU_GROUP_S`] of CPU time (the last,
/// shorter group is dropped unless it is the only one).
pub fn cpu_per_op_groups(cpus: &[f64]) -> Vec<f64> {
    let mut groups = Vec::new();
    let (mut sum, mut n) = (0.0, 0usize);
    for &c in cpus {
        sum += c;
        n += 1;
        if sum >= CPU_GROUP_S {
            groups.push(sum / n as f64);
            (sum, n) = (0.0, 0);
        }
    }
    if groups.is_empty() && n > 0 {
        groups.push(sum / n as f64);
    }
    groups
}

/// A timed run: set up once, then repeat the cold operation until
/// `seconds` have passed (at least once), timing a batch of set-ups
/// before the first operation and then every `seconds / SETUP_BATCHES`
/// seconds. The first output gets the full check; a later output that
/// is bitwise equal to it carries the same verdict, and any other gets
/// the full check too. Reports the [`fastest_mean`] of the operations'
/// `wall_s`, of the per-operation `cpu_s` of [`cpu_per_op_groups`], and
/// of the set-up batches' `setup_s`.
///
/// # Errors
///
/// When set-up fails; a failing operation is counted, not returned.
pub fn timed_run(cfg: &RunConfig) -> Result<RunReport, String> {
    let (prep, mut setups) = SetupTimer::new(cfg.workload, cfg.seed)?;
    let setup_every = Duration::from_secs_f64(cfg.seconds / SETUP_BATCHES as f64);
    let mut next_setup = Instant::now();
    let refs = check_inputs(&prep, &cfg.scratch.join("check"))?;
    let op_dir = cfg.scratch.join("op");
    let jobs = prep.jobs;
    let mut report = RunReport::default();
    let mut first: Option<(Output, Verdict)> = None;
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        if Instant::now() >= next_setup {
            setups.batch()?;
            next_setup += setup_every;
        }
        let c0 = process_cpu_s()?;
        let t0 = Instant::now();
        let out = run_op(&prep, &op_dir, None);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(process_cpu_s()? - c0);
        match (out, &first) {
            (Ok(out), Some((seen, verdict))) if same_output(seen, &out) => {
                report.absorb(verdict.clone());
            }
            (Ok(out), _) => {
                let verdict = check(&prep, &refs, &out);
                if first.is_none() {
                    first = Some((out, verdict.clone()));
                }
                report.absorb(verdict);
            }
            (Err(e), _) => report.fail_op(jobs, e),
        }
        if start.elapsed() >= Duration::from_secs_f64(cfg.seconds) {
            break;
        }
    }
    report.metrics = vec![
        ("wall_s", fastest_mean(&walls, FASTEST_SHARE), "s"),
        (
            "cpu_s",
            fastest_mean(&cpu_per_op_groups(&cpus), FASTEST_SHARE),
            "s",
        ),
        ("setup_s", fastest_mean(&setups.times, FASTEST_SHARE), "s"),
    ];
    report.op_walls = walls;
    report.op_cpus = cpus;
    Ok(report)
}

/// Counters the sweep executor bumps itself; a replay that bypasses the
/// executor cannot reproduce them.
pub const EXECUTOR_COUNTERS: [&str; 3] = [
    "sweep.cache_hits",
    "sweep.executed",
    "newton.warm_start_iters_saved",
];

/// Everything a traced run measured, besides the report.
#[derive(Debug, Clone, Default)]
pub struct TraceDetail {
    /// The traced operation's profile.
    pub traced: Profile,
    /// The staged replay's profile (deck workloads).
    pub replayed: Option<Profile>,
}

fn traced<T>(f: impl FnOnce() -> T) -> (T, Profile, f64) {
    let rec = Arc::new(ProfileRecorder::default());
    let t0 = Instant::now();
    let out = {
        let _obs = obskit::install(rec.clone() as Arc<dyn obskit::Recorder>);
        let _root = obskit::span("bench");
        f()
    };
    (out, rec.snapshot(), t0.elapsed().as_secs_f64())
}

fn same_output(a: &Output, b: &Output) -> bool {
    match (a, b) {
        (Output::Sweep(x), Output::Sweep(y)) => workload::outcomes_identical(x, y),
        (Output::Envelope(x), Output::Envelope(y)) => workload::envelopes_identical(x, y),
        _ => false,
    }
}

/// A traced run: one untraced operation, one traced operation, and for
/// decks one staged replay; reports every per-layer metric.
///
/// # Errors
///
/// When set-up or the untraced operation fails.
pub fn traced_run(cfg: &RunConfig) -> Result<(RunReport, TraceDetail), String> {
    let prep = setup(cfg.workload, cfg.seed)?;
    let refs = check_inputs(&prep, &cfg.scratch.join("check"))?;
    let op_dir = cfg.scratch.join("op");
    let jobs = prep.jobs;
    let mut report = RunReport::default();

    let t0 = Instant::now();
    let plain = run_op(&prep, &op_dir, None)?;
    let wall_plain = t0.elapsed().as_secs_f64();
    let verdict = check(&prep, &refs, &plain);
    let (omega_ripple_rel, phase_err_cycles) = (verdict.omega_ripple_rel, verdict.phase_err_cycles);
    report.absorb(verdict);

    // fm_vco calls the solver itself, so its traced operation carries
    // the stamp wrapper; decks get it in the replay below.
    let tally = StampTally::default();
    let stamp = prep.fm.as_ref().map(|_| &tally);
    let (out, traced_profile, wall_traced) = traced(|| run_op(&prep, &op_dir, stamp));
    match out {
        Ok(out) if same_output(&plain, &out) => report.attempted += jobs,
        Ok(_) => report.fail_op(jobs, "traced results differ from untraced".into()),
        Err(e) => report.fail_op(jobs, format!("traced operation: {e}")),
    }

    let mut replay_stats = replay::Replay::default();
    let mut replayed = None;
    if let (Some(text), Output::Sweep(plain)) = (&prep.deck, &plain) {
        let (rep, profile, _) = traced(|| replay::replay_deck(text, &tally));
        match rep {
            Ok(rep) => {
                let same = rep.results.len() == plain.runs.len()
                    && rep
                        .results
                        .iter()
                        .zip(&plain.runs)
                        .all(|(a, b)| workload::results_identical(a, &b.result));
                if !same {
                    report.fail_op(jobs, "replayed results differ from untraced".into());
                } else if let Some(name) = counter_mismatch(&traced_profile, &profile) {
                    report.fail_op(
                        jobs,
                        format!("replay counter {name} differs from the sweep's"),
                    );
                } else {
                    report.attempted += jobs;
                }
                replay_stats = rep;
            }
            Err(e) => report.fail_op(jobs, format!("replay: {e}")),
        }
        replayed = Some(profile);
    } else if let Output::Envelope(env) = &plain {
        replay_stats.t2_steps = env.stats.steps as u64;
        replay_stats.t2_rejected = env.stats.rejected as u64;
        replay_stats.periods = env.phi.last().copied().unwrap_or(0.0);
    }

    let values = layer_values(
        &traced_profile,
        replayed.as_ref(),
        &tally,
        &replay_stats,
        (wall_plain, wall_traced),
        (omega_ripple_rel, phase_err_cycles),
    );
    report.metrics = layers::LAYERS
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("no value computed for layer metric {}", m.name));
            (m.name, v, m.unit)
        })
        .collect();
    let detail = TraceDetail {
        traced: traced_profile,
        replayed,
    };
    Ok((report, detail))
}

/// The first counter (outside [`EXECUTOR_COUNTERS`]) whose sums differ
/// between two profiles.
pub fn counter_mismatch(a: &Profile, b: &Profile) -> Option<String> {
    let names: std::collections::BTreeSet<&str> = a
        .counters
        .keys()
        .chain(b.counters.keys())
        .copied()
        .collect();
    names
        .into_iter()
        .filter(|n| !EXECUTOR_COUNTERS.contains(n))
        .find(|n| a.counter(n) != b.counter(n))
        .map(str::to_string)
}

fn layer_values(
    sweep: &Profile,
    replay: Option<&Profile>,
    tally: &StampTally,
    stats: &replay::Replay,
    (wall_plain, wall_traced): (f64, f64),
    (omega_ripple_rel, phase_err_cycles): (f64, f64),
) -> BTreeMap<&'static str, f64> {
    // The envelope's own span is the benchmark's: the replay puts it
    // around the solver call for decks, the traced operation for fm_vco.
    let envelope = replay.unwrap_or(sweep).span("bench.envelope").outer_s;
    let count = |n: &str| sweep.counter(n) as f64;
    let steps_per_period = if stats.periods > 0.0 {
        stats.t2_steps as f64 / stats.periods
    } else {
        0.0
    };
    BTreeMap::from([
        (
            "sweepkit.self_s",
            ["sweep", "job", "analysis"]
                .iter()
                .map(|n| sweep.span(n).self_s)
                .sum(),
        ),
        ("sweepkit.warm_positions", stats.warm_positions as f64),
        ("sweepkit.artifact_s", sweep.span("bench.artifacts").outer_s),
        ("circuitdae.parse_s", sweep.span("bench.parse").outer_s),
        ("circuitdae.stamp_s", tally.seconds()),
        ("circuitdae.stamp_calls", tally.calls() as f64),
        ("shooting.init_s", sweep.span("shooting").outer_s),
        ("shooting.newton_iters", stats.shooting_newton_iters as f64),
        ("wampde.envelope_s", envelope),
        ("wampde.t2_steps", stats.t2_steps as f64),
        ("wampde.t2_rejected", stats.t2_rejected as f64),
        ("wampde.steps_per_period", steps_per_period),
        ("wampde.omega_ripple_rel", omega_ripple_rel),
        ("wampde.phase_err_cycles", phase_err_cycles),
        ("timekit.accepted", count("step.accepted")),
        ("timekit.rejected", count("step.rejected")),
        ("newtonkit.iters", count("newton.iters")),
        ("newtonkit.solves", count("newton.solves")),
        ("newtonkit.failures", count("newton.failures")),
        ("newtonkit.iter_self_s", sweep.span("newton-iter").self_s),
        ("linsolve.factor_s", sweep.span("factor").outer_s),
        ("linsolve.solve_s", sweep.span("solve").outer_s),
        ("linsolve.factor_fresh", count("factor.fresh")),
        ("linsolve.factor_reused", count("factor.reused")),
        (
            "linsolve.parallel_sections",
            count("factor.parallel_blocks") + count("stamp.parallel_partitions"),
        ),
        ("obskit.trace_overhead", wall_traced / wall_plain - 1.0),
    ])
}

/// The environment a report was measured in, as one JSON object.
pub fn environment_json(cfg: &RunConfig, trace: bool) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"available_parallelism\": {threads}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"commit\": \"{}\"}}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(trace),
        env!("VCOBENCH_RUSTC"),
        env!("VCOBENCH_PROFILE"),
        env!("VCOBENCH_COMMIT"),
    )
}

/// Where the benchmark keeps its scratch files and reports: under the
/// Cargo target directory, inside the checkout.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("vcobench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_mean_averages_the_smallest_share() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fastest_mean(&xs, 0.05), 1.5);
        assert_eq!(fastest_mean(&xs, 0.1), 2.5);
        assert_eq!(fastest_mean(&[7.0, 9.0], FASTEST_SHARE), 7.0);
    }

    #[test]
    fn cpu_groups_span_the_group_time_and_drop_the_short_tail() {
        let cpus = [0.125, 0.125, 0.5, 0.0625];
        assert_eq!(cpu_per_op_groups(&cpus), vec![0.125, 0.5]);
        assert_eq!(cpu_per_op_groups(&[0.0625, 0.125]), vec![0.09375]);
    }
}
