//! Thin adapter over the workspace-wide `linsolve` crate.
//!
//! The bordered collocation solver layer (block Jacobian description,
//! dense/sparse-LU/GMRES+ILU(0) backends) used to live here; it now
//! serves *all* solver crates from `crates/linsolve`. This module
//! re-exports the shared types and provides the error-mapping helpers the
//! WaMPDE envelope uses ([`WampdeError::LinearSolve`] carries the slow
//! time of the failure).

use crate::error::WampdeError;
pub use ::linsolve::{
    BlockCirculantPrecond, CyclicShape, FactoredJacobian, JacobianParts, LinSolveError,
    LinearSolverKind, NewtonMatrix,
};
use hb::Colloc;

/// Builds the shared-layer [`JacobianParts`] for a collocation core.
///
/// The argument list mirrors the WaMPDE step structure one-to-one; see
/// [`JacobianParts`] for the meaning of each coefficient.
#[allow(clippy::too_many_arguments)]
pub fn colloc_parts<'a>(
    colloc: &'a Colloc,
    cblocks: &'a [numkit::DMat],
    gblocks: &'a [numkit::DMat],
    inv_h: f64,
    theta: f64,
    omega: f64,
    border: Option<(&'a [f64], &'a [f64])>,
) -> JacobianParts<'a> {
    JacobianParts {
        n: colloc.n,
        n0: colloc.n0,
        dmat: &colloc.dmat,
        cblocks,
        gblocks,
        inv_h,
        theta,
        omega,
        border,
    }
}

/// Factors the described Jacobian, mapping failures into
/// [`WampdeError::LinearSolve`] tagged with the slow time `at_t2`.
///
/// # Errors
///
/// [`WampdeError::LinearSolve`] when the factorisation fails.
pub fn factor(
    parts: &JacobianParts<'_>,
    kind: LinearSolverKind,
    at_t2: f64,
) -> Result<FactoredJacobian, WampdeError> {
    FactoredJacobian::factor(parts, kind).map_err(|e| WampdeError::LinearSolve {
        at_t2,
        cause: e.cause,
    })
}

/// Solves `J·x = rhs` in place with the same error mapping as [`factor`].
///
/// # Errors
///
/// [`WampdeError::LinearSolve`] when the backend fails (e.g. GMRES
/// stagnates).
pub fn solve_in_place(
    factored: &FactoredJacobian,
    rhs: &mut [f64],
    at_t2: f64,
) -> Result<(), WampdeError> {
    factored
        .solve_in_place(rhs)
        .map_err(|e| WampdeError::LinearSolve {
            at_t2,
            cause: e.cause,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuitdae::analytic::VanDerPol;
    use circuitdae::{circuits, Dae};
    use numkit::DMat;

    /// Per-sample Jacobian blocks of `dae` at a smooth synthetic state.
    fn blocks_at_synthetic_state<D: Dae>(dae: &D, colloc: &Colloc) -> (Vec<DMat>, Vec<DMat>) {
        let x: Vec<f64> = (0..colloc.len()).map(|k| (0.37 * k as f64).sin()).collect();
        circuitdae::jac_blocks(dae, &x)
    }

    /// Builds bordered vdP JacobianParts and checks all three backends
    /// produce the same solution through the wampde error adapter.
    #[test]
    fn backends_agree() {
        let vdp = VanDerPol::unforced(0.8);
        let colloc = Colloc::new(2, 3);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 0.1 + (i as f64 * 0.11).cos()).collect();
        let parts = colloc_parts(
            &colloc,
            &cblocks,
            &gblocks,
            10.0,
            0.5,
            1.3,
            Some((&row, &col)),
        );
        let rhs: Vec<f64> = (0..parts.dim())
            .map(|i| ((i * 3 % 7) as f64) - 3.0)
            .collect();

        let mut dense_sol = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::Dense, 0.0).unwrap(),
            &mut dense_sol,
            0.0,
        )
        .unwrap();

        let mut sparse_sol = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::SparseLu, 0.0).unwrap(),
            &mut sparse_sol,
            0.0,
        )
        .unwrap();

        let mut gmres_sol = rhs.clone();
        solve_in_place(
            &factor(
                &parts,
                LinearSolverKind::GmresIlu0 {
                    restart: 60,
                    max_iters: 500,
                    rtol: 1e-12,
                },
                0.0,
            )
            .unwrap(),
            &mut gmres_sol,
            0.0,
        )
        .unwrap();

        for i in 0..rhs.len() {
            assert!(
                (dense_sol[i] - sparse_sol[i]).abs() < 1e-8,
                "sparse mismatch at {i}: {} vs {}",
                dense_sol[i],
                sparse_sol[i]
            );
            assert!(
                (dense_sol[i] - gmres_sol[i]).abs() < 1e-6,
                "gmres mismatch at {i}: {} vs {}",
                dense_sol[i],
                gmres_sol[i]
            );
        }
    }

    /// The acceptance target of the solver-layer refactor: on the paper's
    /// LC VCO, dense and sparse-LU step solutions agree to 1e-9 (and
    /// GMRES at its default tolerance tracks them).
    #[test]
    fn lc_vco_dense_vs_sparse_agree_to_1e9() {
        let dae = circuits::lc_vco();
        let colloc = Colloc::new(dae.dim(), 5);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&dae, &colloc);
        let row: Vec<f64> = colloc.phase_row(0, 1);
        let col: Vec<f64> = (0..len).map(|i| 1e-9 * (0.2 * i as f64).cos()).collect();
        let parts = colloc_parts(
            &colloc,
            &cblocks,
            &gblocks,
            1.0 / 2.0e-6,
            1.0,
            0.75e6,
            Some((&row, &col)),
        );
        let rhs: Vec<f64> = (0..parts.dim()).map(|i| (0.3 * i as f64).sin()).collect();
        let mut dense = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::Dense, 0.0).unwrap(),
            &mut dense,
            0.0,
        )
        .unwrap();
        let scale = dense.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let mut sparse = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::SparseLu, 0.0).unwrap(),
            &mut sparse,
            0.0,
        )
        .unwrap();
        let mut gm = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::gmres_default(), 0.0).unwrap(),
            &mut gm,
            0.0,
        )
        .unwrap();
        for i in 0..rhs.len() {
            assert!(
                (dense[i] - sparse[i]).abs() <= 1e-9 * scale.max(1.0),
                "sparse at {i}: {} vs {}",
                dense[i],
                sparse[i]
            );
            assert!(
                (dense[i] - gm[i]).abs() <= 1e-7 * scale.max(1.0),
                "gmres at {i}: {} vs {}",
                dense[i],
                gm[i]
            );
        }
    }

    #[test]
    fn unbordered_assembly() {
        let vdp = VanDerPol::unforced(0.3);
        let colloc = Colloc::new(2, 2);
        let len = colloc.len();
        let (cblocks, gblocks) = blocks_at_synthetic_state(&vdp, &colloc);
        let parts = colloc_parts(&colloc, &cblocks, &gblocks, 5.0, 1.0, 0.7, None);
        assert_eq!(parts.dim(), len);
        let rhs = vec![1.0; len];
        let mut a = rhs.clone();
        solve_in_place(
            &factor(&parts, LinearSolverKind::Dense, 0.0).unwrap(),
            &mut a,
            0.0,
        )
        .unwrap();
        let mut b = rhs;
        solve_in_place(
            &factor(&parts, LinearSolverKind::SparseLu, 0.0).unwrap(),
            &mut b,
            0.0,
        )
        .unwrap();
        for i in 0..a.len() {
            assert!((a[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn errors_carry_the_slow_time() {
        // A singular system must surface as LinearSolve tagged with t2.
        let colloc = Colloc::new(1, 1);
        let zeros = vec![DMat::zeros(1, 1); colloc.n0];
        let parts = colloc_parts(&colloc, &zeros, &zeros, 0.0, 1.0, 0.0, None);
        match factor(&parts, LinearSolverKind::Dense, 3.5) {
            Err(WampdeError::LinearSolve { at_t2, cause }) => {
                assert_eq!(at_t2, 3.5);
                assert!(!cause.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
