//! A forwarding [`Dae`] that times every residual and Jacobian
//! evaluation. Stamping has no span of its own in the program; its time
//! sits inside `newton-iter`. A span per evaluation would cost as much
//! as a small circuit's stamp, so the wrapper keeps a plain tally.

use circuitdae::{Dae, Pattern};
use numkit::DMat;
use sparsekit::Triplets;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Time and calls of the evaluations a [`StampDae`] forwarded.
#[derive(Debug, Default)]
pub struct StampTally {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl StampTally {
    /// Seconds spent in the wrapped evaluations.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Evaluations forwarded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// Wraps any [`Dae`]; every method forwards to the inner one, so the
/// solvers see exactly the same numbers.
pub struct StampDae<'a, D: Dae + ?Sized> {
    /// The wrapped circuit.
    pub inner: &'a D,
    /// Where the evaluations are tallied.
    pub tally: &'a StampTally,
}

impl<D: Dae + ?Sized> Dae for StampDae<'_, D> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval_q(&self, x: &[f64], out: &mut [f64]) {
        self.tally.time(|| self.inner.eval_q(x, out))
    }

    fn eval_f(&self, x: &[f64], out: &mut [f64]) {
        self.tally.time(|| self.inner.eval_f(x, out))
    }

    fn eval_b(&self, t: f64, out: &mut [f64]) {
        self.tally.time(|| self.inner.eval_b(t, out))
    }

    fn jac_q(&self, x: &[f64], out: &mut DMat) {
        self.tally.time(|| self.inner.jac_q(x, out))
    }

    fn jac_f(&self, x: &[f64], out: &mut DMat) {
        self.tally.time(|| self.inner.jac_f(x, out))
    }

    fn var_names(&self) -> Vec<String> {
        self.inner.var_names()
    }

    fn sparsity(&self) -> Pattern {
        self.inner.sparsity()
    }

    fn jac_q_triplets(&self, x: &[f64], out: &mut Triplets) {
        self.tally.time(|| self.inner.jac_q_triplets(x, out))
    }

    fn jac_f_triplets(&self, x: &[f64], out: &mut Triplets) {
        self.tally.time(|| self.inner.jac_f_triplets(x, out))
    }

    fn jac_q_triplets_threads(&self, x: &[f64], out: &mut Triplets, threads: usize) {
        self.tally
            .time(|| self.inner.jac_q_triplets_threads(x, out, threads))
    }

    fn jac_f_triplets_threads(&self, x: &[f64], out: &mut Triplets, threads: usize) {
        self.tally
            .time(|| self.inner.jac_f_triplets_threads(x, out, threads))
    }
}
