//! Staged replay of a deck run through the solvers' generic entry
//! points, so a [`StampDae`] can sit between each solver and its
//! circuit. The sweep executor calls the solvers on a concrete
//! `CircuitDae`, which hides stamping from any wrapper; the replay
//! re-creates what it does for one worker with warm-start chains — the
//! same chain plan, one shared symbolic analysis per chain, the same
//! warm states, and the same `CoreBudget` on a worker thread — and must
//! reproduce the sweep's results bit for bit.

use crate::stamp::{StampDae, StampTally};
use circuitdae::{parse_deck, AnalysisSpec, CircuitDae, Dae};
use shooting::{
    find_periodic_orbit, oscillator_steady_state_with_stats, run_shooting_spec_warm,
    ShootingOptions, ShootingWarmStart,
};
use sweepkit::{expand_grid, BatchPlan, ScenarioResult};
use wampde::{solve_envelope, T2StepControl, WampdeInit, WampdeOptions};

/// What a replay produced and counted.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// One result per job, in job order (point-major, then analysis).
    pub results: Vec<ScenarioResult>,
    /// Chain positions that started from a neighbour's warm state.
    pub warm_positions: u64,
    /// Newton iterations of the periodic-orbit initialisations (the
    /// whole cold pipeline, or the orbit Newton alone when warm).
    pub shooting_newton_iters: u64,
    /// Accepted envelope `t2` steps.
    pub t2_steps: u64,
    /// Rejected envelope `t2` steps.
    pub t2_rejected: u64,
    /// Carrier periods the envelopes covered, φ(t_end) summed.
    pub periods: f64,
}

enum Warm {
    DcOp(Vec<f64>),
    Orbit(ShootingWarmStart),
}

/// Replays a deck the way `cli_default_config` runs it, tallying
/// stamping into `tally`.
///
/// # Errors
///
/// A parse or solver error, as text; `.mpde` directives are not
/// replayed.
pub fn replay_deck(text: &str, tally: &StampTally) -> Result<Replay, String> {
    let deck = parse_deck(text).map_err(|e| e.to_string())?;
    let grid = expand_grid(&deck.sweeps);
    let n_analyses = deck.analyses.len();
    let run_len = deck.sweeps.last().map_or(1, |s| s.points.max(1));
    let plan = BatchPlan::new(&grid, run_len, n_analyses, true);
    let cores = linsolve::resolve_thread_count(0);
    let budget = linsolve::CoreBudget::new(cores, cores);
    let handle = obskit::current();
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _obs = handle.map(obskit::install_handle);
                let _core = budget.occupy(1);
                let _budget = budget.install();
                let mut replay = Replay::default();
                let mut results: Vec<Option<ScenarioResult>> = vec![None; grid.len() * n_analyses];
                for chain in plan.chains() {
                    let shared = linsolve::SharedSymbolic::new();
                    let _symbolic = shared.install();
                    let mut warm: Option<Warm> = None;
                    for &id in chain {
                        let dae = deck
                            .instantiate(plan.point_values(plan.point_of(id)))
                            .map_err(|e| e.to_string())?;
                        if warm.is_some() {
                            replay.warm_positions += 1;
                        }
                        let spec = &deck.analyses[plan.analysis_of(id)];
                        let (result, next) =
                            replay_job(spec, &dae, warm.as_ref(), tally, &mut replay)?;
                        results[id] = Some(result);
                        warm = Some(next);
                    }
                }
                replay.results = results
                    .into_iter()
                    .collect::<Option<Vec<_>>>()
                    .ok_or("a job was not replayed")?;
                Ok(replay)
            })
            .join()
            .map_err(|_| "replay worker panicked".to_string())?
    })
}

fn replay_job(
    spec: &AnalysisSpec,
    dae: &CircuitDae,
    warm: Option<&Warm>,
    tally: &StampTally,
    replay: &mut Replay,
) -> Result<(ScenarioResult, Warm), String> {
    let wrap = |inner| StampDae { inner, tally };
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let state_columns = |first: &[&str]| {
        let mut c: Vec<String> = first.iter().map(|s| s.to_string()).collect();
        c.extend(dae.var_names());
        c
    };
    match spec {
        AnalysisSpec::Tran(s) => {
            let seed = match warm {
                Some(Warm::DcOp(x)) if x.len() == dae.dim() => Some(x.as_slice()),
                _ => None,
            };
            let (res, dcop) =
                transim::run_tran_spec_warm(&wrap(dae), s, seed).map_err(|e| err(&e))?;
            let rows = res
                .times
                .iter()
                .zip(&res.states)
                .map(|(&t, x)| std::iter::once(t).chain(x.iter().copied()).collect())
                .collect();
            let result = ScenarioResult {
                analysis: "tran",
                columns: state_columns(&["t"]),
                rows,
                metrics: vec![
                    ("steps".into(), res.stats.steps as f64),
                    ("rejected".into(), res.stats.rejected as f64),
                    ("newton_iters".into(), res.stats.newton_iters as f64),
                    ("factorisations".into(), res.stats.factorisations as f64),
                    ("symbolic_reuses".into(), res.stats.symbolic_reuses as f64),
                ],
            };
            Ok((result, Warm::DcOp(dcop)))
        }
        AnalysisSpec::Shooting(s) => {
            let seed = match warm {
                Some(Warm::Orbit(w)) => Some(w),
                _ => None,
            };
            let (orbit, stats) =
                run_shooting_spec_warm(&wrap(dae), s, seed).map_err(|e| err(&e))?;
            replay.shooting_newton_iters += stats.newton_iters as u64;
            let denom = orbit.samples.len().saturating_sub(1).max(1) as f64;
            let rows = orbit
                .samples
                .iter()
                .enumerate()
                .map(|(k, x)| {
                    std::iter::once(k as f64 / denom)
                        .chain(x.iter().copied())
                        .collect()
                })
                .collect();
            let result = ScenarioResult {
                analysis: "shooting",
                columns: state_columns(&["t1"]),
                rows,
                metrics: vec![
                    ("period_s".into(), orbit.period),
                    ("freq_hz".into(), orbit.frequency()),
                    ("iterations".into(), orbit.iterations as f64),
                    ("newton_iters".into(), stats.newton_iters as f64),
                ],
            };
            Ok((result, Warm::Orbit(ShootingWarmStart::from_orbit(&orbit))))
        }
        AnalysisSpec::Wampde(s) => {
            if s.phase_var >= dae.dim() {
                return Err(format!("phase_var {} out of range", s.phase_var));
            }
            let unforced = dae.frozen_at(0.0);
            let shoot_opts = ShootingOptions {
                steps_per_period: s.shooting_steps,
                phase_var: s.phase_var,
                linear_solver: s.solver,
                ..Default::default()
            };
            let warm_orbit = match warm {
                Some(Warm::Orbit(w)) if w.x0.len() == dae.dim() && w.period > 0.0 => {
                    find_periodic_orbit(&wrap(&unforced), &w.x0, w.period, &shoot_opts).ok()
                }
                _ => None,
            };
            let orbit = match warm_orbit {
                Some(orbit) => {
                    replay.shooting_newton_iters += orbit.iterations as u64;
                    orbit
                }
                None => {
                    let (orbit, stats) =
                        oscillator_steady_state_with_stats(&wrap(&unforced), &shoot_opts)
                            .map_err(|e| format!("shooting initialisation failed: {e}"))?;
                    replay.shooting_newton_iters += stats.newton_iters as u64;
                    orbit
                }
            };
            let step = if s.dt > 0.0 {
                T2StepControl::Fixed(s.dt)
            } else {
                T2StepControl::Adaptive {
                    rtol: s.rtol,
                    atol: s.atol,
                    dt_init: 0.0,
                    dt_min: s.dt_min,
                    dt_max: s.dt_max,
                }
            };
            let opts = WampdeOptions {
                harmonics: s.harmonics,
                phase_var: s.phase_var,
                linear_solver: s.solver,
                integrator: s.integrator,
                step,
                ..Default::default()
            };
            let init = {
                let _sp = obskit::span("bench.from_orbit");
                WampdeInit::from_orbit(&orbit, &opts)
            };
            let env = {
                let _sp = obskit::span("bench.envelope");
                solve_envelope(&wrap(dae), &init, s.t_stop, &opts).map_err(|e| err(&e))?
            };
            replay.t2_steps += env.stats.steps as u64;
            replay.t2_rejected += env.stats.rejected as u64;
            replay.periods += env.phi.last().copied().unwrap_or(0.0);
            let rows = (0..env.len())
                .map(|idx| {
                    let mut row = vec![env.t2[idx], env.omega_hz[idx], env.phi[idx]];
                    for v in 0..env.n {
                        let x = env.var_samples(idx, v);
                        let max = x.iter().fold(f64::NEG_INFINITY, |m, y| m.max(*y));
                        let min = x.iter().fold(f64::INFINITY, |m, y| m.min(*y));
                        row.push((max - min) / 2.0);
                    }
                    row
                })
                .collect();
            let mut columns: Vec<String> = ["t2", "omega_hz", "phi_cycles"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            columns.extend(dae.var_names().iter().map(|n| format!("amp({n})")));
            let (lo, hi) = env.frequency_range();
            let result = ScenarioResult {
                analysis: "wampde",
                columns,
                rows,
                metrics: vec![
                    ("omega_min_hz".into(), lo),
                    ("omega_max_hz".into(), hi),
                    ("steps".into(), env.stats.steps as f64),
                    ("rejected".into(), env.stats.rejected as f64),
                    ("newton_iters".into(), env.stats.newton_iters as f64),
                    ("factorisations".into(), env.stats.factorisations as f64),
                    ("symbolic_reuses".into(), env.stats.symbolic_reuses as f64),
                ],
            };
            Ok((result, Warm::Orbit(ShootingWarmStart::from_orbit(&orbit))))
        }
        AnalysisSpec::Mpde(_) => Err(".mpde directives are not replayed".into()),
    }
}
