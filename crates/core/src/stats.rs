//! Working-set accounting (§II-B) and compression reporting.
//!
//! The paper's working-set formula:
//!
//! ```text
//! ws = csr_size + vectors_size
//!    = (nnz*(idx_s + val_s) + (nrows+1)*idx_s) + (nrows + ncols)*val_s
//! ```
//!
//! Matrix-set selection in §VI-B is driven entirely by this quantity
//! (`ws ≥ 3 MB` for M0, `ws ≥ 17 MB` for ML), so the harness reuses these
//! exact definitions.

use crate::index::SpIndex;
use crate::scalar::Scalar;

/// Bytes in one MiB — the paper speaks in binary megabytes (4 MB L2 etc.).
pub const MB: usize = 1 << 20;

/// Breakdown of the SpMV working set for a matrix + its x/y vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSet {
    /// Bytes of the column-index array (`nnz * idx_s` for CSR) or its
    /// compressed replacement.
    pub index_bytes: usize,
    /// Bytes of the row-pointer array.
    pub row_ptr_bytes: usize,
    /// Bytes of numerical value data (`nnz * val_s` for CSR) or its
    /// compressed replacement.
    pub value_bytes: usize,
    /// Bytes of the dense x and y vectors.
    pub vector_bytes: usize,
}

impl WorkingSet {
    /// Working set of plain CSR per the paper's formula.
    pub fn for_csr<I: SpIndex, V: Scalar>(nrows: usize, ncols: usize, nnz: usize) -> WorkingSet {
        WorkingSet {
            index_bytes: nnz * I::BYTES,
            row_ptr_bytes: (nrows + 1) * I::BYTES,
            value_bytes: nnz * V::BYTES,
            vector_bytes: (nrows + ncols) * V::BYTES,
        }
    }

    /// Total bytes.
    pub fn total(&self) -> usize {
        self.index_bytes + self.row_ptr_bytes + self.value_bytes + self.vector_bytes
    }

    /// Matrix-only bytes (excludes the x/y vectors) — what the compression
    /// schemes act on.
    pub fn matrix_bytes(&self) -> usize {
        self.index_bytes + self.row_ptr_bytes + self.value_bytes
    }

    /// Total working set in MiB.
    pub fn total_mb(&self) -> f64 {
        self.total() as f64 / MB as f64
    }

    /// Matrix traffic per non-zero in bytes — the per-nnz streaming cost
    /// that index/value compression reduces (§II-B; 12 B/nnz for CSR with
    /// 4-byte indices and 8-byte values, ignoring `row_ptr`).
    pub fn matrix_bytes_per_nnz(&self, nnz: usize) -> f64 {
        self.matrix_bytes() as f64 / nnz.max(1) as f64
    }
}

/// Effective bandwidth in bytes/second of streaming `bytes_per_iter` bytes
/// `iters` times in `seconds` — the measured-time side of the working-set
/// model. For a memory-bound SpMV this approaches the machine's sustained
/// memory bandwidth; for a compressed format, computing it over the *CSR*
/// byte count instead yields the compression-adjusted bandwidth (the rate
/// an uncompressed kernel would have needed to match the measured time).
///
/// Degenerate timings (zero, negative, non-finite, or denormal-tiny
/// `seconds` whose quotient overflows to infinity) clamp to `0.0` so the
/// value stays finite end-to-end — BENCH.json has no representation for
/// `inf`/`NaN` and the validator rejects them. Use
/// [`try_effective_bandwidth`] to get a typed error instead.
pub fn effective_bandwidth(bytes_per_iter: usize, iters: usize, seconds: f64) -> f64 {
    try_effective_bandwidth(bytes_per_iter, iters, seconds).unwrap_or(0.0)
}

/// Checked twin of [`effective_bandwidth`]: returns
/// [`crate::SparseError::InvalidArgument`] when `seconds` is non-positive or
/// non-finite, or when the quotient is non-finite (denormal-tiny elapsed
/// time on a fast clock).
pub fn try_effective_bandwidth(
    bytes_per_iter: usize,
    iters: usize,
    seconds: f64,
) -> crate::error::Result<f64> {
    if seconds <= 0.0 || !seconds.is_finite() {
        return Err(crate::error::SparseError::InvalidArgument(format!(
            "effective_bandwidth needs a positive finite elapsed time, got {seconds}"
        )));
    }
    let bw = bytes_per_iter as f64 * iters as f64 / seconds;
    if !bw.is_finite() {
        return Err(crate::error::SparseError::InvalidArgument(format!(
            "effective_bandwidth over {seconds}s is non-finite ({bw})"
        )));
    }
    Ok(bw)
}

/// Size comparison of a compressed format against its CSR baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeReport {
    /// CSR matrix bytes (index + row_ptr + values).
    pub csr_bytes: usize,
    /// Compressed matrix bytes.
    pub compressed_bytes: usize,
}

impl SizeReport {
    /// Fraction of the CSR size that was *removed*; the number printed on
    /// each bar of the paper's Figs. 7-8 (e.g. `0.21` = 21% smaller).
    pub fn reduction(&self) -> f64 {
        1.0 - self.compressed_bytes as f64 / self.csr_bytes as f64
    }

    /// Compression ratio `csr / compressed` (> 1 is smaller).
    pub fn ratio(&self) -> f64 {
        self.csr_bytes as f64 / self.compressed_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_working_set_formula() {
        // nnz=16, nrows=ncols=6, u32 idx, f64 val:
        let ws = WorkingSet::for_csr::<u32, f64>(6, 6, 16);
        assert_eq!(ws.index_bytes, 64);
        assert_eq!(ws.row_ptr_bytes, 28);
        assert_eq!(ws.value_bytes, 128);
        assert_eq!(ws.vector_bytes, 96);
        assert_eq!(ws.total(), 64 + 28 + 128 + 96);
        assert_eq!(ws.matrix_bytes(), 64 + 28 + 128);
    }

    #[test]
    fn values_dominate_by_two_thirds() {
        // §II-B: with 4-byte indices and 8-byte values, values are 2/3 of
        // col_ind + values.
        let ws = WorkingSet::for_csr::<u32, f64>(1000, 1000, 100_000);
        let frac = ws.value_bytes as f64 / (ws.value_bytes + ws.index_bytes) as f64;
        assert!((frac - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_and_traffic_helpers() {
        let ws = WorkingSet::for_csr::<u32, f64>(1000, 1000, 100_000);
        // 12 B/nnz for col_ind + values, plus the row_ptr share.
        let per_nnz = ws.matrix_bytes_per_nnz(100_000);
        assert!((12.0..12.1).contains(&per_nnz), "{per_nnz}");
        // 1 MB streamed 10 times in 0.01 s = 1 GB/s.
        assert!((effective_bandwidth(MB, 10, 0.01) - 1.048576e9).abs() < 1.0);
    }

    #[test]
    fn effective_bandwidth_clamps_degenerate_timings_finite() {
        // Regression: zero / denormal-tiny / non-finite elapsed times used
        // to produce NaN or inf, which the BENCH.json writer serialized as
        // invalid JSON. The infallible helper now clamps to 0.0 ...
        assert_eq!(effective_bandwidth(MB, 1, 0.0), 0.0);
        assert_eq!(effective_bandwidth(MB, 1, -1.0), 0.0);
        assert_eq!(effective_bandwidth(MB, 1, f64::NAN), 0.0);
        assert_eq!(effective_bandwidth(MB, 1, f64::MIN_POSITIVE * 1e-10), 0.0);
        assert!(effective_bandwidth(MB, 1, 1e-3).is_finite());
        // ... and the checked twin reports a typed error.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = try_effective_bandwidth(MB, 1, bad).unwrap_err();
            assert!(matches!(err, crate::error::SparseError::InvalidArgument(_)), "{bad}: {err}");
        }
        // Denormal-tiny elapsed: the division itself overflows to inf.
        let err = try_effective_bandwidth(MB, 1000, f64::MIN_POSITIVE * 1e-12).unwrap_err();
        assert!(matches!(err, crate::error::SparseError::InvalidArgument(_)), "{err}");
        assert_eq!(
            try_effective_bandwidth(MB, 10, 0.01).unwrap(),
            effective_bandwidth(MB, 10, 0.01)
        );
    }

    #[test]
    fn size_report_reduction() {
        let r = SizeReport { csr_bytes: 100, compressed_bytes: 80 };
        assert!((r.reduction() - 0.2).abs() < 1e-12);
        assert!((r.ratio() - 1.25).abs() < 1e-12);
    }
}
