//! Self-verifying SpMV: cross-check a compressed kernel against the CSR
//! baseline.
//!
//! A compressed format buys its bandwidth savings with a more intricate
//! decode path — exactly the kind of code where an encoder bug or a
//! corrupted representation produces *plausible-looking* wrong numbers
//! rather than a crash. [`CheckedSpMv`] wraps any [`SpMv`] implementation
//! together with a CSR baseline of the same matrix and, on every
//! multiplication, recomputes a sample of output rows with the baseline
//! kernel, comparing within a ULP tolerance.
//!
//! The tolerance is expressed in ULPs ([`Scalar::ulp_distance`]) rather
//! than an absolute epsilon because formats legitimately reorder the
//! per-row summation (CSC scatters along columns, JAD walks diagonals,
//! symmetric storage mirrors entries), which perturbs the result by a few
//! ULPs at most. Real corruption — a wrong value, a shifted column, a
//! dropped entry — lands whole exponents away, so even a generous default
//! tolerance of a few hundred ULPs separates the two regimes cleanly.
//!
//! One refinement: when a row nearly cancels (`|Σ a_ij·x_j| ≪ Σ|a_ij·x_j|`),
//! reordering error scales with the *summand* magnitudes, not the tiny
//! result, and the plain ULP distance explodes even though every digit the
//! data supports agrees. A difference is therefore also accepted when it is
//! within tolerance measured in ULPs of the row's L1 magnitude
//! `Σ|a_ij·x_j|` — the standard backward-error yardstick. Corruption is
//! comparable to the summands themselves, so it fails both measures.

use crate::csr::Csr;
use crate::error::SparseError;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::spmv::SpMv;

/// Options for [`CheckedSpMv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOptions {
    /// Number of output rows to recompute with the baseline per call.
    /// `0` means *all* rows (full cross-check). Sampled rows are spread
    /// evenly over the row range, always including the first and last
    /// non-empty stride.
    pub sample_rows: usize,
    /// Maximum tolerated [`Scalar::ulp_distance`] between the wrapped
    /// kernel's result and the baseline's — measured directly, or (for
    /// near-cancelling rows) in ULPs of the row's L1 magnitude
    /// `Σ|a_ij·x_j|`; the smaller of the two must pass.
    pub max_ulps: u64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        // 64 rows bounds the overhead on large matrices; 512 ULPs is far
        // beyond any summation-reorder effect yet ~2^50 below a single-bit
        // exponent corruption of an f64.
        CheckOptions { sample_rows: 64, max_ulps: 512 }
    }
}

/// An [`SpMv`] kernel paired with a CSR baseline for result verification.
///
/// ```
/// use spmv_core::checked::CheckedSpMv;
/// use spmv_core::csr_du::{CsrDu, DuOptions};
///
/// let csr = spmv_core::examples::paper_matrix().to_csr();
/// let du = CsrDu::from_csr(&csr, &DuOptions::default());
/// let checked = CheckedSpMv::new(&du, &csr).unwrap();
/// let x = vec![1.0; 6];
/// let mut y = vec![0.0; 6];
/// checked.spmv_verified(&x, &mut y).unwrap();
/// ```
pub struct CheckedSpMv<'a, I: SpIndex = u32, V: Scalar = f64> {
    inner: &'a dyn SpMv<V>,
    baseline: &'a Csr<I, V>,
    opts: CheckOptions,
}

impl<'a, I: SpIndex, V: Scalar> CheckedSpMv<'a, I, V> {
    /// Wraps `inner` with `baseline` as the reference kernel, using
    /// default [`CheckOptions`]. Fails with
    /// [`SparseError::DimensionMismatch`] if the two matrices do not have
    /// the same shape, or if their non-zero counts differ.
    pub fn new(inner: &'a dyn SpMv<V>, baseline: &'a Csr<I, V>) -> Result<Self, SparseError> {
        Self::with_options(inner, baseline, CheckOptions::default())
    }

    /// Like [`CheckedSpMv::new`] with explicit options.
    pub fn with_options(
        inner: &'a dyn SpMv<V>,
        baseline: &'a Csr<I, V>,
        opts: CheckOptions,
    ) -> Result<Self, SparseError> {
        if inner.nrows() != baseline.nrows() || inner.ncols() != baseline.ncols() {
            return Err(SparseError::DimensionMismatch(format!(
                "checked {} kernel is {}x{} but baseline CSR is {}x{}",
                inner.kind(),
                inner.nrows(),
                inner.ncols(),
                baseline.nrows(),
                baseline.ncols()
            )));
        }
        Ok(CheckedSpMv { inner, baseline, opts })
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &dyn SpMv<V> {
        self.inner
    }

    /// Computes `y = A·x` with the wrapped kernel, then recomputes a
    /// sample of rows with the CSR baseline and compares within the ULP
    /// tolerance. Returns [`SparseError::VerificationFailed`] naming the
    /// first out-of-tolerance row.
    pub fn spmv_verified(&self, x: &[V], y: &mut [V]) -> Result<(), SparseError> {
        self.inner.try_spmv(x, y)?;
        self.verify_against(x, y)
    }

    /// Verifies an already-computed result vector `y` against the
    /// baseline on the sampled rows (the checking half of
    /// [`CheckedSpMv::spmv_verified`]).
    pub fn verify_against(&self, x: &[V], y: &[V]) -> Result<(), SparseError> {
        let nrows = self.baseline.nrows();
        if nrows == 0 {
            return Ok(());
        }
        let samples =
            if self.opts.sample_rows == 0 { nrows } else { self.opts.sample_rows.min(nrows) };
        let mut y_row = [V::zero()];
        let isa = crate::simd::selected();
        for s in 0..samples {
            // Even spread including row 0; integer arithmetic keeps the
            // selection deterministic across platforms.
            let row = if samples == nrows { s } else { s * nrows / samples };
            self.baseline.spmm_rows_local_isa(isa, row, row + 1, x, 1, &mut y_row);
            let dist = y[row].ulp_distance(y_row[0]);
            if dist > self.opts.max_ulps {
                // Cancellation case: re-measure the difference in ULPs of
                // the row's L1 magnitude Σ|a_ij·x_j| (see module docs).
                let mut l1 = V::zero();
                for (c, v) in self.baseline.row_iter(row) {
                    l1 += (v * x[c]).abs();
                }
                let scaled_dist = l1.ulp_distance(l1 + (y[row] - y_row[0]).abs());
                if scaled_dist > self.opts.max_ulps {
                    return Err(SparseError::VerificationFailed {
                        row,
                        detail: format!(
                            "{} kernel produced {:?}, CSR baseline {:?} ({dist} ULPs apart, \
                             {scaled_dist} ULPs of the row magnitude {:?}; tolerance {})",
                            self.inner.kind(),
                            y[row],
                            y_row[0],
                            l1,
                            self.opts.max_ulps
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_du::{CsrDu, DuOptions};
    use crate::csr_vi::CsrVi;
    use crate::examples::paper_matrix;

    fn x6() -> Vec<f64> {
        (0..6).map(|i| 0.7 * i as f64 - 1.3).collect()
    }

    #[test]
    fn accepts_correct_compressed_kernels() {
        let csr = paper_matrix().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        let kernels: [&dyn SpMv<f64>; 2] = [&du, &vi];
        for k in kernels {
            let checked = CheckedSpMv::new(k, &csr).unwrap();
            let mut y = vec![0.0; 6];
            checked.spmv_verified(&x6(), &mut y).unwrap();
            let mut y_ref = vec![0.0; 6];
            csr.spmv(&x6(), &mut y_ref);
            assert_eq!(y, y_ref);
        }
    }

    #[test]
    fn rejects_corrupted_values() {
        let csr = paper_matrix().to_csr();
        // Encode a perturbed copy: one value differs from the baseline.
        let mut perturbed = paper_matrix().to_csr();
        perturbed.values_mut()[3] += 0.5;
        let du = CsrDu::from_csr(&perturbed, &DuOptions::default());
        let checked = CheckedSpMv::new(&du, &csr).unwrap();
        let mut y = vec![0.0; 6];
        let err = checked.spmv_verified(&x6(), &mut y).unwrap_err();
        assert!(matches!(err, SparseError::VerificationFailed { .. }), "{err}");
    }

    #[test]
    fn full_check_catches_single_row_corruption() {
        // Sampled checks can miss a row; sample_rows = 0 must not.
        let csr = paper_matrix().to_csr();
        let mut vi_src = paper_matrix().to_csr();
        vi_src.values_mut()[10] *= -1.0;
        let vi = CsrVi::from_csr(&vi_src);
        let opts = CheckOptions { sample_rows: 0, ..CheckOptions::default() };
        let checked = CheckedSpMv::with_options(&vi, &csr, opts).unwrap();
        let mut y = vec![0.0; 6];
        assert!(checked.spmv_verified(&x6(), &mut y).is_err());
    }

    #[test]
    fn cancellation_rows_use_row_magnitude_tolerance() {
        // Row 0 sums 1e8 + (-1e8) + 1e-8: the result is ~16 orders of
        // magnitude below the summands, so an absolute error that is
        // harmless reorder noise (a few ULPs of 1e8) is astronomically
        // many ULPs of the result itself.
        let mut coo = crate::Coo::<f64>::new(1, 3);
        coo.push(0, 0, 1e8).unwrap();
        coo.push(0, 1, -1e8).unwrap();
        coo.push(0, 2, 1e-8).unwrap();
        let csr = coo.to_csr();
        let checked = CheckedSpMv::new(&csr, &csr).unwrap();
        let x = vec![1.0; 3];
        let mut y = vec![0.0; 1];
        csr.spmv(&x, &mut y);

        // Reorder-scale error: fine under the L1-scaled measure...
        let noisy = [y[0] + 1e-9];
        assert!(y[0].ulp_distance(noisy[0]) > 512, "premise: direct ULPs blow up");
        checked.verify_against(&x, &noisy).unwrap();
        // ...but corruption comparable to the summands still fails.
        let corrupt = [y[0] + 1.0];
        assert!(checked.verify_against(&x, &corrupt).is_err());
    }

    #[test]
    fn rejects_shape_mismatch_at_construction() {
        let csr = paper_matrix().to_csr();
        let other = crate::Coo::<f64>::new(5, 6).to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        assert!(matches!(CheckedSpMv::new(&du, &other), Err(SparseError::DimensionMismatch(_))));
    }

    #[test]
    fn empty_matrix_verifies() {
        let csr = crate::Coo::<f64>::new(0, 4).to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let checked = CheckedSpMv::new(&du, &csr).unwrap();
        let mut y = vec![];
        checked.spmv_verified(&[0.0; 4], &mut y).unwrap();
    }
}
