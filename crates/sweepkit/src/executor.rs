//! The parallel sweep executor: deck → job grid → worker pool →
//! deterministic, index-ordered aggregation.
//!
//! Every (grid point × analysis) pair is an independent job: workers
//! instantiate the deck's circuit with that point's overrides and run the
//! analysis. Jobs are distributed over a `std::thread` pool through mpsc
//! channels, and results are slotted back by job index, so the aggregated
//! output is **identical for any worker count** — `--jobs 1` and
//! `--jobs 8` produce byte-identical artifacts.
//!
//! With [`SweepConfig::warm_start`], jobs are dispatched as continuation
//! **chains** ([`crate::batch::BatchPlan`]) instead of one at a time:
//! each chain walks consecutive points of the fastest-varying sweep
//! axis, seeding every Newton solve from the previous point's converged
//! state ([`Analysis::run_warm`]) and sharing one sparse symbolic
//! analysis (`linsolve::SharedSymbolic`) across the whole chain. The
//! chain layout is a pure function of the grid, and each chain runs on a
//! single worker in a fixed order, so batched aggregates stay
//! byte-identical for any `--jobs` × `--shards` combination.
//!
//! [`run_deck_with`] adds the sweep-service layers on top of the pool —
//! all three preserve that byte-identity:
//!
//! * an optional content-hashed [`ResultCache`], so repeated or
//!   interrupted sweeps recompute only missing jobs (cold and warm runs
//!   produce the same bytes, warm runs just produce them faster). A
//!   warm-started chain position is keyed under [`job_hash_mode`] with
//!   its predecessors' grid values mixed in; a chain is served from the
//!   cache only when *every* owned position hits, and recomputed from
//!   position 0 otherwise, so cached and computed chains carry the same
//!   bytes;
//! * deterministic sharding (`job % shards == shard_index`), so a grid
//!   splits over independent processes with no coordination. A shard
//!   executes every chain containing at least one job it owns,
//!   recomputing non-owned positions as warm-up — computed and cached,
//!   but never recorded, streamed, or counted;
//! * an optional JSON-lines sink receiving one [`JobRecord`] per
//!   completed job in completion order, making long sweeps observable
//!   in flight without perturbing the index-ordered aggregate.

use crate::analysis::{analysis_for, Analysis, ScenarioResult, WarmState};
use crate::batch::BatchPlan;
use crate::cache::{job_hash_mode, ResultCache};
use crate::error::SweepError;
use crate::grid::expand_grid;
use crate::shard::shard_owns;
use crate::stream::{render_record, JobRecord};
use circuitdae::Deck;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// One completed job of a sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Grid point index (row-major over the deck's sweep directives).
    pub point: usize,
    /// Swept parameter values at this point (parallel to the labels).
    pub values: Vec<f64>,
    /// Index of the analysis directive in the deck.
    pub analysis_index: usize,
    /// Unique analysis label, e.g. `wampde0`.
    pub analysis: String,
    /// The analysis result.
    pub result: ScenarioResult,
}

/// The aggregated, deterministic result of a deck run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Labels of the swept parameters (`M1.control`, ...).
    pub param_labels: Vec<String>,
    /// The expanded grid, one value vector per point.
    pub grid: Vec<Vec<f64>>,
    /// Unique labels of the deck's analyses (`<keyword><directive idx>`).
    pub analysis_labels: Vec<String>,
    /// All runs, ordered point-major then by analysis — independent of
    /// the worker count.
    pub runs: Vec<RunRecord>,
}

impl SweepOutcome {
    /// Runs of one analysis (by directive index), in grid order.
    pub fn runs_of(&self, analysis_index: usize) -> impl Iterator<Item = &RunRecord> {
        self.runs
            .iter()
            .filter(move |r| r.analysis_index == analysis_index)
    }

    /// Long-format waveform table of one analysis: header
    /// `[point, <params...>, <result columns...>]`, with every grid
    /// point's rows stacked in order. Feed straight into a CSV writer.
    pub fn waveform_table(&self, analysis_index: usize) -> (Vec<String>, Vec<Vec<f64>>) {
        let mut header = vec!["point".to_string()];
        header.extend(self.param_labels.iter().cloned());
        let mut rows = Vec::new();
        let mut first = true;
        for rec in self.runs_of(analysis_index) {
            if first {
                header.extend(rec.result.columns.iter().cloned());
                first = false;
            }
            for row in &rec.result.rows {
                let mut out = Vec::with_capacity(1 + rec.values.len() + row.len());
                out.push(rec.point as f64);
                out.extend_from_slice(&rec.values);
                out.extend_from_slice(row);
                rows.push(out);
            }
        }
        (header, rows)
    }

    /// Per-point metric summary of one analysis: header
    /// `[point, <params...>, <metrics...>]`, one row per grid point.
    pub fn summary_table(&self, analysis_index: usize) -> (Vec<String>, Vec<Vec<f64>>) {
        let mut header = vec!["point".to_string()];
        header.extend(self.param_labels.iter().cloned());
        let mut rows = Vec::new();
        let mut first = true;
        for rec in self.runs_of(analysis_index) {
            if first {
                header.extend(rec.result.metrics.iter().map(|(n, _)| n.clone()));
                first = false;
            }
            let mut out = Vec::with_capacity(1 + rec.values.len() + rec.result.metrics.len());
            out.push(rec.point as f64);
            out.extend_from_slice(&rec.values);
            out.extend(rec.result.metrics.iter().map(|(_, v)| *v));
            rows.push(out);
        }
        (header, rows)
    }
}

/// Configuration for [`run_deck_with`]: worker count, shard layout,
/// batched execution, and the optional on-disk result cache. Workers
/// are the only parallelism: each job's solves run serially on the
/// worker that owns it.
#[derive(Debug, Default)]
pub struct SweepConfig {
    /// Worker thread count (clamped to `[1, job count]`; 0 means 1).
    pub jobs: usize,
    /// Total shard count of the layout (0 or 1 means unsharded).
    pub shards: usize,
    /// This process's shard index in `0..shards`.
    pub shard_index: usize,
    /// Content-hashed result cache; `None` recomputes everything.
    pub cache: Option<ResultCache>,
    /// Batched execution: dispatch continuation chains along the
    /// fastest-varying sweep axis, warm-starting each point from its
    /// predecessor and sharing sparse symbolic analysis per chain.
    /// `false` (the default) runs every job independently and cold.
    pub warm_start: bool,
    /// Ignored: every solve is serial; kept only because `vcobench` sets it.
    pub solver_threads: usize,
}

/// Observability counters for one sweep run. Cache hits change these,
/// never the [`SweepOutcome`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Job count of the whole sweep (all shards).
    pub jobs_total: usize,
    /// Jobs owned by this shard.
    pub jobs_here: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs actually computed by a solver.
    pub executed: usize,
}

/// A completed sweep: the deterministic outcome plus run counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    /// The index-ordered, worker-count-independent result.
    pub outcome: SweepOutcome,
    /// How the work was served (cache hits vs. solver runs).
    pub stats: SweepStats,
}

/// Expands a deck's sweep grid and runs every (point × analysis) job on a
/// pool of `jobs` worker threads (clamped to `[1, job count]`).
///
/// Results are aggregated in job-index order, so the outcome is
/// deterministic and independent of `jobs`. On failure the error of the
/// *lowest-indexed* failing job is returned (also independent of `jobs`);
/// queued jobs above the failure are skipped rather than run to
/// completion.
///
/// Equivalent to [`run_deck_with`] with no cache, no sharding, and no
/// stream sink.
///
/// # Errors
///
/// [`SweepError::BadInput`] for a deck without analyses, otherwise the
/// first failing job's error wrapped in [`SweepError::Job`].
pub fn run_deck(deck: &Deck, jobs: usize) -> Result<SweepOutcome, SweepError> {
    run_deck_with(
        deck,
        &SweepConfig {
            jobs,
            ..SweepConfig::default()
        },
        None,
    )
    .map(|run| run.outcome)
}

/// The full sweep-service entry point: worker pool plus content-hashed
/// caching, deterministic sharding, and JSON-lines streaming.
///
/// With a [`SweepConfig::cache`], each job's content hash (deck
/// fingerprint, grid-point values, analysis-spec fingerprint,
/// code-version salt) is looked up before running a solver; hits are
/// returned as-is and misses are computed and stored atomically, so an
/// interrupted or repeated sweep recomputes only what is missing. With
/// `shards > 1`, only jobs with `id % shards == shard_index` run and
/// the outcome contains exactly those runs (feed the shard outputs to
/// [`crate::shard::merge_shards`]). With a `sink`, one JSON line per
/// completed job ([`JobRecord`]) is written in completion order —
/// nondeterministic on the wire, while the returned outcome stays
/// index-ordered.
///
/// None of the three layers changes a single result bit: outputs are
/// identical for any worker count, any shard layout (after merge), and
/// cold vs. warm cache.
///
/// # Errors
///
/// [`SweepError::BadInput`] for a deck without analyses or an invalid
/// shard layout, [`SweepError::Io`] if the sink rejects a write,
/// otherwise the lowest-indexed failing job's error wrapped in
/// [`SweepError::Job`]. Failed jobs are never cached.
pub fn run_deck_with(
    deck: &Deck,
    config: &SweepConfig,
    mut sink: Option<&mut dyn io::Write>,
) -> Result<SweepRun, SweepError> {
    let analyses: Vec<Box<dyn Analysis>> = deck.analyses.iter().map(analysis_for).collect();
    if analyses.is_empty() {
        return Err(SweepError::BadInput(
            "deck has no analysis directive (.tran/.shooting/.mpde/.wampde)".into(),
        ));
    }
    let shards = config.shards.max(1);
    if config.shard_index >= shards {
        return Err(SweepError::BadInput(format!(
            "shard index {} out of range for {} shards",
            config.shard_index, shards
        )));
    }
    let analysis_labels: Vec<String> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{}{i}", a.name()))
        .collect();
    let grid = expand_grid(&deck.sweeps);
    let n_jobs = grid.len() * analyses.len();
    let owned: Vec<usize> = (0..n_jobs)
        .filter(|&id| shard_owns(id, shards, config.shard_index))
        .collect();
    // Chain layout: continuation runs along the fastest-varying (last)
    // sweep axis when warm starts are on, singleton chains otherwise.
    let run_len = deck.sweeps.last().map_or(1, |s| s.points.max(1));
    let plan = BatchPlan::new(&grid, run_len, analyses.len(), config.warm_start);
    let shard_index = config.shard_index;
    // A shard executes every chain containing at least one owned job.
    let dispatch: Vec<usize> = (0..plan.chains().len())
        .filter(|&ci| {
            plan.chains()[ci]
                .iter()
                .any(|&id| shard_owns(id, shards, shard_index))
        })
        .collect();
    let workers = config.jobs.max(1).min(dispatch.len().max(1));

    // The hash inputs are computed once; workers only concatenate.
    let deck_fp = deck.fingerprint();
    let spec_fps: Vec<String> = deck.analyses.iter().map(|a| a.fingerprint()).collect();

    // Chain dispatch and result return both ride std channels; the single
    // consumed receiver is shared behind a mutex (std-only work queue).
    let (job_tx, job_rx) = mpsc::channel::<usize>();
    for &ci in &dispatch {
        job_tx.send(ci).expect("queue chains");
    }
    drop(job_tx);
    let job_rx = Mutex::new(job_rx);
    type JobOutcome = Result<(ScenarioResult, bool), SweepError>;
    let (res_tx, res_rx) = mpsc::channel::<(usize, JobOutcome)>();

    let mut slots: Vec<Option<ScenarioResult>> = vec![None; n_jobs];
    let mut first_failure: Option<(usize, SweepError)> = None;
    let mut stats = SweepStats {
        jobs_total: n_jobs,
        jobs_here: owned.len(),
        ..SweepStats::default()
    };
    let mut sink_error: Option<io::Error> = None;

    // Lowest failing job index seen so far; jobs above it are skipped so
    // a failing grid does not burn the whole remaining budget. Jobs
    // *below* it still run, so the reported error is always the overall
    // lowest-indexed failure, independent of worker count.
    let cancel_above = AtomicUsize::new(usize::MAX);

    // Instrumentation: the whole pool runs under one "sweep" span, and
    // workers re-install the recorder handle so their "job" spans parent
    // under it. Recording never touches results — traced and untraced
    // sweeps are byte-identical.
    let sweep_span = obskit::span("sweep");
    sweep_span.attr("jobs_total", n_jobs);
    sweep_span.attr("jobs_here", owned.len());
    sweep_span.attr("workers", workers);
    sweep_span.attr("shards", shards);
    sweep_span.attr("chains", dispatch.len());
    let obs_handle = obskit::current();

    thread::scope(|scope| {
        for _ in 0..workers {
            let job_rx = &job_rx;
            let res_tx = res_tx.clone();
            let plan = &plan;
            let analyses = &analyses;
            let cancel_above = &cancel_above;
            let cache = config.cache.as_ref();
            let deck_fp = &deck_fp;
            let spec_fps = &spec_fps;
            let obs_handle = obs_handle.clone();
            scope.spawn(move || {
                let _obs = obs_handle.map(obskit::install_handle);
                let is_owned = |id: usize| shard_owns(id, shards, shard_index);
                'chains: loop {
                    let ci = match job_rx.lock().expect("job queue lock").recv() {
                        Ok(ci) => ci,
                        Err(_) => break, // queue drained
                    };
                    let chain = &plan.chains()[ci];
                    let still_wanted = |from: usize| {
                        let limit = cancel_above.load(Ordering::Relaxed);
                        chain[from..].iter().any(|&id| is_owned(id) && id <= limit)
                    };
                    if !still_wanted(0) {
                        continue; // a lower-indexed job already failed
                    }

                    // Per-position cache keys. Position 0 is computed
                    // cold, so its key is the plain job hash (byte-shared
                    // with unbatched runs); a later position's key mixes
                    // in the grid values of every predecessor it was
                    // warm-started through.
                    let hashes: Option<Vec<String>> = cache.map(|_| {
                        let mut upstream = String::from("warm:");
                        chain
                            .iter()
                            .enumerate()
                            .map(|(k, &id)| {
                                let point = plan.point_of(id);
                                let values = plan.point_values(point);
                                let mode = if k == 0 { "" } else { upstream.as_str() };
                                let h = job_hash_mode(
                                    deck_fp,
                                    values,
                                    &spec_fps[plan.analysis_of(id)],
                                    mode,
                                );
                                for v in values {
                                    upstream.push_str(&format!("{:016x}", v.to_bits()));
                                }
                                h
                            })
                            .collect()
                    });

                    // Serve the chain from the cache only when every owned
                    // position hits; any miss recomputes the whole chain
                    // from position 0 so warm seeds are always available.
                    if let (Some(cache), Some(hashes)) = (cache, hashes.as_ref()) {
                        let mut served: Vec<(usize, ScenarioResult)> = Vec::new();
                        let all_hit = chain.iter().enumerate().all(|(k, &id)| {
                            if !is_owned(id) {
                                return true;
                            }
                            match cache.load(&hashes[k]) {
                                Some(result) => {
                                    served.push((id, result));
                                    true
                                }
                                None => false,
                            }
                        });
                        if all_hit {
                            for (id, result) in served {
                                let job_span = obskit::span("job");
                                job_span.attr("job", id);
                                job_span.attr("point", plan.point_of(id));
                                job_span.attr("served", "cache");
                                obskit::counter_add("sweep.cache_hits", 1);
                                if res_tx.send((id, Ok((result, true)))).is_err() {
                                    break 'chains; // main thread gave up
                                }
                            }
                            continue;
                        }
                    }

                    // Recompute front to back: one shared symbolic pool
                    // and a rolling warm state for the whole chain.
                    let shared = linsolve::SharedSymbolic::new();
                    let _symbolic = shared.install();
                    let mut warm: Option<WarmState> = None;
                    let mut anchor_iters: Option<f64> = None;
                    for (k, &id) in chain.iter().enumerate() {
                        if !still_wanted(k) {
                            break; // nothing left downstream is wanted
                        }
                        let point = plan.point_of(id);
                        let a = plan.analysis_of(id);
                        let job_span = obskit::span("job");
                        job_span.attr("job", id);
                        job_span.attr("point", point);
                        let run_pos =
                            || -> Result<(ScenarioResult, Option<WarmState>), SweepError> {
                                let dae = deck.instantiate(plan.point_values(point))?;
                                analyses[a].run_warm(&dae, warm.as_ref())
                            };
                        match run_pos() {
                            Ok((result, next_warm)) => {
                                if let (Some(cache), Some(hashes)) = (cache, hashes.as_ref()) {
                                    // Best-effort: a read-only or full cache
                                    // directory slows future runs, it must
                                    // not fail this one.
                                    let _ = cache.store(&hashes[k], &result);
                                }
                                // The chain's cold anchor calibrates how many
                                // Newton iterations each warm start saves.
                                let iters = newton_iters_of(&result);
                                match (k, anchor_iters, iters) {
                                    (0, _, _) => anchor_iters = iters,
                                    (_, Some(anchor), Some(this)) if anchor > this => {
                                        obskit::counter_add(
                                            "newton.warm_start_iters_saved",
                                            (anchor - this) as u64,
                                        );
                                    }
                                    _ => {}
                                }
                                warm = next_warm;
                                job_span.attr("served", "solver");
                                if is_owned(id) {
                                    obskit::counter_add("sweep.executed", 1);
                                    if res_tx.send((id, Ok((result, false)))).is_err() {
                                        break 'chains; // main thread gave up
                                    }
                                }
                                // Non-owned positions are warm-up only:
                                // cached for the owning shard, never
                                // recorded or counted here.
                            }
                            Err(e) => {
                                // No converged state to continue from, so the
                                // chain remainder is unreachable. Surface the
                                // failure at the first still-pending owned
                                // position (the owning shard of a non-owned
                                // failing warm-up hits the same error there).
                                if let Some(fid) = chain[k..].iter().copied().find(|&j| is_owned(j))
                                {
                                    if res_tx.send((fid, Err(e))).is_err() {
                                        break 'chains;
                                    }
                                }
                                break;
                            }
                        }
                    }
                }
            });
        }
        drop(res_tx);
        for (id, res) in res_rx {
            match res {
                Ok((result, cached)) => {
                    if cached {
                        stats.cache_hits += 1;
                    } else {
                        stats.executed += 1;
                    }
                    if let Some(sink) = sink.as_deref_mut() {
                        if sink_error.is_none() {
                            let point = id / analyses.len();
                            let a = id % analyses.len();
                            let rec = JobRecord {
                                job: id,
                                point,
                                analysis_index: a,
                                analysis: analysis_labels[a].clone(),
                                cached,
                                values: grid[point].clone(),
                                result: result.clone(),
                            };
                            if let Err(e) = writeln!(sink, "{}", render_record(&rec)) {
                                sink_error = Some(e);
                            }
                        }
                    }
                    slots[id] = Some(result);
                }
                Err(e) => {
                    cancel_above.fetch_min(id, Ordering::Relaxed);
                    // Keep the lowest-indexed failure so the reported
                    // error does not depend on worker scheduling.
                    if first_failure.as_ref().is_none_or(|(fid, _)| id < *fid) {
                        first_failure = Some((id, e));
                    }
                }
            }
        }
    });

    if let Some((id, cause)) = first_failure {
        return Err(SweepError::Job {
            point: id / analyses.len(),
            analysis: analysis_labels[id % analyses.len()].clone(),
            cause: Box::new(cause),
        });
    }
    if let Some(e) = sink_error {
        return Err(SweepError::Io(format!("result stream: {e}")));
    }

    let runs = owned
        .iter()
        .map(|&id| {
            let point = id / analyses.len();
            let a = id % analyses.len();
            RunRecord {
                point,
                values: grid[point].clone(),
                analysis_index: a,
                analysis: analysis_labels[a].clone(),
                result: slots[id].take().expect("every owned job completed"),
            }
        })
        .collect();

    Ok(SweepRun {
        outcome: SweepOutcome {
            param_labels: deck.sweeps.iter().map(|s| s.label()).collect(),
            grid,
            analysis_labels,
            runs,
        },
        stats,
    })
}

/// Newton iteration count reported by an analysis, for the
/// `newton.warm_start_iters_saved` counter. Prefers the uniform
/// `newton_iters` metric, falling back to shooting's historical
/// `iterations`.
fn newton_iters_of(result: &ScenarioResult) -> Option<f64> {
    ["newton_iters", "iterations"].iter().find_map(|key| {
        result
            .metrics
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, v)| *v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::parse_deck;

    /// Sine-driven RC low-pass with a 3-point resistance sweep: cheap to
    /// run many times, and the output amplitude depends on R (the corner
    /// frequency moves), so results differ per grid point. A DC drive
    /// would start at its operating point and never move.
    const RC_DECK: &str = "V1 in 0 SIN(0 5 1k)\n\
                           R1 in out 1k\n\
                           C1 out 0 1u\n\
                           .tran 2m dt=20u\n\
                           .sweep R1 1k 3k 3\n";

    #[test]
    fn runs_all_grid_points_in_order() {
        let deck = parse_deck(RC_DECK).unwrap();
        let out = run_deck(&deck, 2).unwrap();
        assert_eq!(out.param_labels, vec!["R1"]);
        assert_eq!(out.grid.len(), 3);
        assert_eq!(out.runs.len(), 3);
        assert_eq!(out.analysis_labels, vec!["tran0"]);
        for (i, rec) in out.runs.iter().enumerate() {
            assert_eq!(rec.point, i);
            assert_eq!(rec.values, out.grid[i]);
        }
        // Larger R lowers the corner frequency, so the settled output
        // amplitude of the 1 kHz drive decreases along the grid.
        let vout = out.runs[0].result.column("v(out)").unwrap();
        let amps: Vec<f64> = out
            .runs
            .iter()
            .map(|r| {
                let half = r.result.rows.len() / 2;
                r.result.rows[half..]
                    .iter()
                    .fold(0.0_f64, |m, row| m.max(row[vout].abs()))
            })
            .collect();
        assert!(
            amps[0] > 1.2 * amps[1] && amps[1] > 1.2 * amps[2],
            "{amps:?}"
        );
    }

    #[test]
    fn outcome_is_independent_of_worker_count() {
        let deck = parse_deck(RC_DECK).unwrap();
        let one = run_deck(&deck, 1).unwrap();
        let four = run_deck(&deck, 4).unwrap();
        assert_eq!(one, four);
        let (h1, r1) = one.waveform_table(0);
        let (h4, r4) = four.waveform_table(0);
        assert_eq!(h1, h4);
        assert_eq!(r1.len(), r4.len());
        for (a, b) in r1.iter().zip(r4.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn tables_have_expected_shape() {
        let deck = parse_deck(RC_DECK).unwrap();
        let out = run_deck(&deck, 3).unwrap();
        let (header, rows) = out.waveform_table(0);
        assert_eq!(header[..2], ["point".to_string(), "R1".to_string()]);
        assert_eq!(header.len(), 2 + out.runs[0].result.columns.len());
        assert_eq!(
            rows.len(),
            out.runs.iter().map(|r| r.result.rows.len()).sum::<usize>()
        );
        let (sh, sr) = out.summary_table(0);
        assert_eq!(sr.len(), 3);
        assert!(sh.contains(&"steps".to_string()));
        // Summary rows carry the swept value in column 1.
        assert_eq!(sr[2][1], 3000.0);
    }

    #[test]
    fn bad_phase_var_is_an_error_not_a_panic() {
        // An out-of-range phase_var must surface as a Job error through
        // the pool, not panic a worker thread.
        let deck = parse_deck(
            "C1 tank 0 4.503n\n\
             L1 tank 0 10u\n\
             GN1 tank 0 5m 1.667m\n\
             .shooting phase_var=9\n",
        )
        .unwrap();
        let err = run_deck(&deck, 2).unwrap_err();
        match err {
            SweepError::Job { point, cause, .. } => {
                assert_eq!(point, 0);
                assert!(matches!(*cause, SweepError::Shooting(_)), "{cause}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn no_analysis_is_rejected() {
        let deck = parse_deck("R1 a 0 1k\nC1 a 0 1n\n").unwrap();
        assert!(matches!(run_deck(&deck, 1), Err(SweepError::BadInput(_))));
    }

    #[test]
    fn warm_cache_returns_identical_outcome() {
        let deck = parse_deck(RC_DECK).unwrap();
        let dir = std::env::temp_dir().join(format!("sweepkit-exec-warm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = SweepConfig {
            jobs: 2,
            cache: Some(ResultCache::open(&dir).unwrap()),
            ..SweepConfig::default()
        };
        let cold = run_deck_with(&deck, &config, None).unwrap();
        assert_eq!(cold.stats.executed, 3);
        assert_eq!(cold.stats.cache_hits, 0);
        let warm = run_deck_with(&deck, &config, None).unwrap();
        assert_eq!(warm.stats.executed, 0);
        assert_eq!(warm.stats.cache_hits, 3);
        assert_eq!(cold.outcome, warm.outcome);
        // And both equal the cache-free path.
        assert_eq!(cold.outcome, run_deck(&deck, 1).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_partition_the_grid_and_merge_back() {
        let deck = parse_deck(RC_DECK).unwrap();
        let full = run_deck(&deck, 2).unwrap();
        let mut shard_runs = Vec::new();
        for k in 0..2 {
            let config = SweepConfig {
                jobs: 2,
                shards: 2,
                shard_index: k,
                ..SweepConfig::default()
            };
            let run = run_deck_with(&deck, &config, None).unwrap();
            assert_eq!(run.stats.jobs_total, 3);
            shard_runs.push(run.outcome);
        }
        assert_eq!(shard_runs[0].runs.len(), 2); // jobs 0, 2
        assert_eq!(shard_runs[1].runs.len(), 1); // job 1
        let mut merged: Vec<&RunRecord> = shard_runs.iter().flat_map(|o| o.runs.iter()).collect();
        merged.sort_by_key(|r| r.point * full.analysis_labels.len() + r.analysis_index);
        assert_eq!(merged.len(), full.runs.len());
        for (a, b) in merged.iter().zip(full.runs.iter()) {
            assert_eq!(**a, *b);
        }
    }

    #[test]
    fn sink_streams_one_parseable_line_per_job() {
        let deck = parse_deck(RC_DECK).unwrap();
        let mut buf = Vec::new();
        let run = run_deck_with(
            &deck,
            &SweepConfig {
                jobs: 2,
                ..SweepConfig::default()
            },
            Some(&mut buf),
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut records: Vec<crate::stream::JobRecord> = text
            .lines()
            .map(|l| crate::stream::parse_record(l).unwrap())
            .collect();
        assert_eq!(records.len(), 3);
        // Wire order is completion order; index order must reconstruct
        // the outcome exactly.
        records.sort_by_key(|r| r.job);
        for (rec, run) in records.iter().zip(run.outcome.runs.iter()) {
            assert_eq!(rec.point, run.point);
            assert_eq!(rec.analysis, run.analysis);
            assert!(!rec.cached);
            assert_eq!(rec.result, run.result);
        }
    }

    #[test]
    fn bad_shard_layout_is_rejected() {
        let deck = parse_deck(RC_DECK).unwrap();
        let config = SweepConfig {
            jobs: 1,
            shards: 2,
            shard_index: 2,
            ..SweepConfig::default()
        };
        assert!(matches!(
            run_deck_with(&deck, &config, None),
            Err(SweepError::BadInput(_))
        ));
    }

    #[test]
    fn batched_outcome_is_independent_of_workers_and_shards() {
        let deck = parse_deck(RC_DECK).unwrap();
        let warm = |jobs| SweepConfig {
            jobs,
            warm_start: true,
            ..SweepConfig::default()
        };
        let one = run_deck_with(&deck, &warm(1), None).unwrap();
        let four = run_deck_with(&deck, &warm(4), None).unwrap();
        assert_eq!(one.outcome, four.outcome);
        assert_eq!(one.stats.executed, 3);
        // Sharded batched runs recompute non-owned warm-up positions but
        // record (and count) owned jobs only, merging back bit-for-bit.
        let mut merged: Vec<RunRecord> = Vec::new();
        for k in 0..2 {
            let run = run_deck_with(
                &deck,
                &SweepConfig {
                    jobs: 2,
                    shards: 2,
                    shard_index: k,
                    warm_start: true,
                    ..SweepConfig::default()
                },
                None,
            )
            .unwrap();
            assert_eq!(run.stats.jobs_here, run.outcome.runs.len());
            assert_eq!(run.stats.executed, run.outcome.runs.len());
            merged.extend(run.outcome.runs);
        }
        merged.sort_by_key(|r| r.point);
        assert_eq!(merged, one.outcome.runs);
    }

    #[test]
    fn warm_start_agrees_with_cold_within_solver_tolerance() {
        let deck = parse_deck(RC_DECK).unwrap();
        let cold = run_deck(&deck, 1).unwrap();
        let warm = run_deck_with(
            &deck,
            &SweepConfig {
                jobs: 1,
                warm_start: true,
                ..SweepConfig::default()
            },
            None,
        )
        .unwrap();
        let (_, cold_rows) = cold.waveform_table(0);
        let (_, warm_rows) = warm.outcome.waveform_table(0);
        assert_eq!(cold_rows.len(), warm_rows.len());
        for (a, b) in cold_rows.iter().zip(warm_rows.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn batched_cache_serves_whole_chains_on_rerun() {
        let deck = parse_deck(RC_DECK).unwrap();
        let dir = std::env::temp_dir().join(format!("sweepkit-exec-chain-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = SweepConfig {
            jobs: 2,
            cache: Some(ResultCache::open(&dir).unwrap()),
            warm_start: true,
            ..SweepConfig::default()
        };
        let cold = run_deck_with(&deck, &config, None).unwrap();
        assert_eq!(cold.stats.executed, 3);
        let rerun = run_deck_with(&deck, &config, None).unwrap();
        assert_eq!(rerun.stats.executed, 0);
        assert_eq!(rerun.stats.cache_hits, 3);
        assert_eq!(cold.outcome, rerun.outcome);
        // Dropping any one entry forces the whole chain to recompute
        // (warm positions need their predecessors), reproducing the same
        // bytes.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().is_some_and(|x| x == "sweepres"))
            .unwrap();
        std::fs::remove_file(entry.path()).unwrap();
        let partial = run_deck_with(&deck, &config, None).unwrap();
        assert_eq!(partial.stats.executed, 3);
        assert_eq!(partial.outcome, cold.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_point_reports_lowest_job_index() {
        // Sweep a diode's vt through a negative value: points 0 and 1
        // are invalid at instantiation time, point 2 is fine. The parser
        // would reject this, so build the failure via a valid parse and a
        // deck with values that fail only for the mpde node check.
        let deck = parse_deck(
            "R1 out 0 1k\n\
             C1 out 0 1n\n\
             .mpde 1meg 1m node=5\n\
             .sweep R1 1k 2k 2\n",
        )
        .unwrap();
        let err = run_deck(&deck, 4).unwrap_err();
        match err {
            SweepError::Job {
                point, analysis, ..
            } => {
                assert_eq!(point, 0);
                assert_eq!(analysis, "mpde0");
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
