//! FFT-diagonalised block-circulant preconditioner for cyclic Jacobians.
//!
//! The quasiperiodic (cyclic) WaMPDE Jacobian is block circulant to a
//! good approximation: slice `m` couples to slices `m−1, m−2` (mod
//! `n1`) through the integrator stencil, and the per-slice blocks vary
//! only as fast as the envelope. A true block-circulant matrix
//! `A_{r,c} = B_{(r−c) mod n1}` is diagonalised by the DFT over the
//! block index (the multirate frequency-domain view of Bittner &
//! Brachtendorf, arXiv:1604.07194): with the convolution theorem,
//!
//! ```text
//! (F ⊗ I) A (F⁻¹ ⊗ I) = diag(M̂_0, …, M̂_{n1−1}),
//! M̂_k = Σ_d B_d · e^{−2πi·k·d/n1},
//! ```
//!
//! so one application of the preconditioner costs `bw` FFTs of length
//! `n1`, `n1` dense complex back-substitutions of size `bw`, and `bw`
//! inverse FFTs — `O(n·log n1 + n·bw)` instead of a growing Krylov
//! space. The preconditioner averages the actual (slice-varying) blocks
//! into their circulant part, which is why GMRES iteration counts stay
//! flat as `n1` grows instead of scaling with it.

use numkit::Complex64;
use sparsekit::{Csr, Precond};

/// Block-cyclic structure hint for a Jacobian: `blocks` diagonal blocks
/// of size `block_dim`, coupled cyclically in the block index.
///
/// Produced by systems that know their own structure (the quasiperiodic
/// WaMPDE cyclic system) and consumed by the
/// [`crate::LinearSolverKind::GmresCirculant`] backend through
/// [`crate::FactorCache::set_cyclic_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicShape {
    /// Number of cyclic blocks (`n1` slow-time slices).
    pub blocks: usize,
    /// Rows per block (slice unknowns + the per-slice frequency).
    pub block_dim: usize,
}

impl CyclicShape {
    /// Total system dimension `blocks · block_dim`.
    pub fn dim(&self) -> usize {
        self.blocks * self.block_dim
    }
}

/// Dense complex LU with partial pivoting (factor once per mode, solve
/// once per preconditioner application).
#[derive(Debug, Clone)]
struct ComplexLu {
    n: usize,
    /// Factors packed in place: `L` (unit diagonal) below, `U` on/above.
    lu: Vec<Complex64>,
    /// `perm[k]` = original row pivoted at step `k`.
    perm: Vec<usize>,
}

impl ComplexLu {
    /// Factors a dense complex matrix in row-major layout. Returns
    /// `None` when a pivot column is entirely (near-)zero.
    fn factor(n: usize, mut a: Vec<Complex64>) -> Option<Self> {
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting on |·|.
            let (mut best, mut best_abs) = (k, a[perm[k] * n + k].abs());
            for (r, &pr) in perm.iter().enumerate().skip(k + 1) {
                let v = a[pr * n + k].abs();
                if v > best_abs {
                    best = r;
                    best_abs = v;
                }
            }
            if best_abs <= 0.0 || !best_abs.is_finite() {
                return None;
            }
            perm.swap(k, best);
            let pk = perm[k];
            let inv_pivot = a[pk * n + k].recip();
            for &pr in perm.iter().skip(k + 1) {
                let l = a[pr * n + k] * inv_pivot;
                a[pr * n + k] = l;
                if l != Complex64::ZERO {
                    for j in k + 1..n {
                        let u = a[pk * n + j];
                        a[pr * n + j] -= l * u;
                    }
                }
            }
        }
        Some(ComplexLu { n, lu: a, perm })
    }

    /// Solves `A·x = b` in place (in permuted order internally).
    fn solve_in_place(&self, b: &mut [Complex64]) {
        let n = self.n;
        let mut y = vec![Complex64::ZERO; n];
        for k in 0..n {
            let mut s = b[self.perm[k]];
            for (j, &yj) in y.iter().enumerate().take(k) {
                s -= self.lu[self.perm[k] * n + j] * yj;
            }
            y[k] = s;
        }
        for k in (0..n).rev() {
            let mut s = y[k];
            for (j, &bj) in b.iter().enumerate().skip(k + 1) {
                s -= self.lu[self.perm[k] * n + j] * bj;
            }
            b[k] = s * self.lu[self.perm[k] * n + k].recip();
        }
    }
}

/// The assembled preconditioner: one dense complex LU per DFT mode of
/// the circulant-averaged block sequence.
#[derive(Debug, Clone)]
pub struct BlockCirculantPrecond {
    n1: usize,
    bw: usize,
    /// Mode solvers; `None` for (rare) singular modes, applied as
    /// identity so the preconditioner stays well defined.
    modes: Vec<Option<ComplexLu>>,
}

impl BlockCirculantPrecond {
    /// Builds the preconditioner from a CSR matrix of the given cyclic
    /// shape by averaging the blocks at each cyclic distance
    /// `d = (block_row − block_col) mod n1` into `B_d`, then factoring
    /// every DFT mode `M̂_k = Σ_d B_d·e^{−2πikd/n1}`.
    ///
    /// Returns `None` when the matrix dimension disagrees with the
    /// shape (the caller should fall back to a structure-agnostic
    /// preconditioner).
    pub fn from_csr(a: &Csr, shape: CyclicShape) -> Option<Self> {
        let n1 = shape.blocks;
        let bw = shape.block_dim;
        if n1 == 0 || bw == 0 || a.nrows() != shape.dim() || a.ncols() != shape.dim() {
            return None;
        }
        // Circulant average: B_d[p][q] = (1/n1)·Σ_r A[r·bw+p][((r−d) mod n1)·bw+q].
        let mut bd = vec![0.0_f64; n1 * bw * bw];
        let inv_n1 = 1.0 / n1 as f64;
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            let (br, p) = (i / bw, i % bw);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                let (bc, q) = (j / bw, j % bw);
                let d = (br + n1 - bc) % n1;
                bd[(d * bw + p) * bw + q] += v * inv_n1;
            }
        }
        // Mode matrices via the DFT of the block sequence. Assembling
        // all n1 modes costs n1·(entries of B) complex multiplies; the
        // B_d are sparse in d (stencil depth ≤ 2 for the cyclic
        // Jacobian), so iterate distances with any nonzero block.
        let live: Vec<usize> = (0..n1)
            .filter(|&d| bd[d * bw * bw..(d + 1) * bw * bw].iter().any(|&v| v != 0.0))
            .collect();
        let tau = 2.0 * std::f64::consts::PI / n1 as f64;
        let modes = (0..n1)
            .map(|k| Self::factor_mode(bw, tau, k, &bd, &live))
            .collect();
        Some(BlockCirculantPrecond { n1, bw, modes })
    }

    /// Assembles and factors one DFT mode `M̂_k = Σ_d B_d·e^{−2πikd/n1}`.
    fn factor_mode(bw: usize, tau: f64, k: usize, bd: &[f64], live: &[usize]) -> Option<ComplexLu> {
        let mut m = vec![Complex64::ZERO; bw * bw];
        for &d in live {
            let w = Complex64::cis(-tau * (k as f64) * (d as f64));
            let block = &bd[d * bw * bw..(d + 1) * bw * bw];
            for (slot, &v) in m.iter_mut().zip(block.iter()) {
                if v != 0.0 {
                    *slot += w.scale(v);
                }
            }
        }
        ComplexLu::factor(bw, m)
    }

    /// Number of modes whose solver factored successfully (diagnostic).
    pub fn live_modes(&self) -> usize {
        self.modes.iter().filter(|m| m.is_some()).count()
    }
}

impl Precond for BlockCirculantPrecond {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let (n1, bw) = (self.n1, self.bw);
        // Forward FFT along the block index, one sequence per in-block
        // position p, gathered into per-mode right-hand sides.
        let mut rhs = vec![Complex64::ZERO; n1 * bw]; // [mode][p]
        let mut seq = vec![Complex64::ZERO; n1];
        for p in 0..bw {
            for (r, s) in seq.iter_mut().enumerate() {
                *s = Complex64::new(x[r * bw + p], 0.0);
            }
            let hat = fourier::fft::fft_of_any_len(&seq);
            for (k, h) in hat.iter().enumerate() {
                rhs[k * bw + p] = *h;
            }
        }
        // Decoupled per-mode solves.
        for (k, mode) in self.modes.iter().enumerate() {
            if let Some(lu) = mode {
                lu.solve_in_place(&mut rhs[k * bw..(k + 1) * bw]);
            }
        }
        // Inverse FFT back to the block index; the imaginary parts
        // cancel (conjugate-symmetric modes of a real operator) and are
        // dropped.
        for p in 0..bw {
            for (k, s) in seq.iter_mut().enumerate() {
                *s = rhs[k * bw + p];
            }
            let back = fourier::fft::ifft_of_any_len(&seq);
            for (r, b) in back.iter().enumerate() {
                y[r * bw + p] = b.re;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsekit::Triplets;

    /// Builds an exactly block-circulant matrix from distance blocks.
    fn circulant(n1: usize, bw: usize, dist_blocks: &[(usize, Vec<f64>)]) -> Csr {
        let mut t = Triplets::new(n1 * bw, n1 * bw);
        for r in 0..n1 {
            for &(d, ref block) in dist_blocks {
                let c = (r + n1 - d) % n1;
                for p in 0..bw {
                    for q in 0..bw {
                        let v = block[p * bw + q];
                        if v != 0.0 {
                            t.push(r * bw + p, c * bw + q, v);
                        }
                    }
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn exact_inverse_on_true_circulant() {
        // On an exactly block-circulant matrix the preconditioner IS the
        // inverse (to round-off): P⁻¹(A·x) = x.
        let (n1, bw) = (6, 3);
        let b0 = vec![4.0, 1.0, 0.0, 0.5, 3.0, 0.2, 0.0, 0.1, 5.0];
        let b1 = vec![-1.0, 0.0, 0.2, 0.0, -0.8, 0.0, 0.3, 0.0, -1.2];
        let b2 = vec![0.1, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.1];
        let a = circulant(n1, bw, &[(0, b0), (1, b1), (2, b2)]);
        let shape = CyclicShape {
            blocks: n1,
            block_dim: bw,
        };
        let p = BlockCirculantPrecond::from_csr(&a, shape).unwrap();
        assert_eq!(p.live_modes(), n1);
        let x: Vec<f64> = (0..n1 * bw).map(|i| (0.37 * i as f64).sin()).collect();
        let mut ax = vec![0.0; n1 * bw];
        a.matvec_into(&x, &mut ax);
        let mut back = vec![0.0; n1 * bw];
        p.apply(&ax, &mut back);
        for (got, want) in back.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn non_power_of_two_block_count() {
        // n1 = 7 exercises the Bluestein FFT path.
        let (n1, bw) = (7, 2);
        let b0 = vec![3.0, 0.4, 0.1, 2.0];
        let b1 = vec![-0.5, 0.0, 0.0, -0.5];
        let a = circulant(n1, bw, &[(0, b0), (1, b1)]);
        let shape = CyclicShape {
            blocks: n1,
            block_dim: bw,
        };
        let p = BlockCirculantPrecond::from_csr(&a, shape).unwrap();
        let x: Vec<f64> = (0..n1 * bw).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut ax = vec![0.0; n1 * bw];
        a.matvec_into(&x, &mut ax);
        let mut back = vec![0.0; n1 * bw];
        p.apply(&ax, &mut back);
        for (got, want) in back.iter().zip(x.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = circulant(4, 2, &[(0, vec![1.0, 0.0, 0.0, 1.0])]);
        assert!(BlockCirculantPrecond::from_csr(
            &a,
            CyclicShape {
                blocks: 3,
                block_dim: 2
            }
        )
        .is_none());
    }

    #[test]
    fn gmres_converges_fast_with_circulant_precond() {
        // A perturbed block circulant (slice-varying diagonal blocks):
        // the averaged preconditioner is inexact but close, so GMRES
        // needs only a handful of iterations.
        let (n1, bw) = (16, 2);
        let mut t = Triplets::new(n1 * bw, n1 * bw);
        for r in 0..n1 {
            let wob = 1.0 + 0.1 * (r as f64 * 0.7).sin();
            let prev = (r + n1 - 1) % n1;
            for p in 0..bw {
                t.push(r * bw + p, r * bw + p, 4.0 * wob);
                t.push(r * bw + p, prev * bw + p, -1.0);
            }
            t.push(r * bw, r * bw + 1, 0.5);
        }
        let a = t.to_csr();
        let shape = CyclicShape {
            blocks: n1,
            block_dim: bw,
        };
        let p = BlockCirculantPrecond::from_csr(&a, shape).unwrap();
        let b: Vec<f64> = (0..n1 * bw).map(|i| (0.3 * i as f64).cos()).collect();
        let op = sparsekit::CsrOp::new(&a);
        let res = sparsekit::gmres(
            &op,
            &p,
            &b,
            None,
            &sparsekit::GmresOptions {
                restart: 40,
                max_iters: 200,
                rtol: 1e-10,
                atol: 1e-300,
            },
        )
        .unwrap();
        assert!(
            res.iterations <= 10,
            "expected fast convergence, took {}",
            res.iterations
        );
    }
}
