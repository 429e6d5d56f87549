//! CPU cost model and per-format stream/cost descriptors.
//!
//! Cycle constants are calibrated against the paper's serial anchors
//! (Table II: ≈ 620 MFLOP/s on cache-resident matrices at 2 GHz ⇒ ≈ 6.5
//! cycles per non-zero for CSR) and against the paper's qualitative
//! findings: CSR-DU decoding costs a little extra per element plus a
//! per-unit header cost; CSR-VI pays one extra (cache-resident) load per
//! element; DCSR pays a per-element command dispatch with frequent branch
//! mispredictions unless runs are grouped (§III-B).

use serde::Serialize;
use spmv_core::csr_du::CsrDu;
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::dcsr::Dcsr;
use spmv_core::{Csr, FormatKind, Scalar, SpIndex, SparseError};

/// Degenerate matrices (no rows or no non-zeros) have no meaningful
/// per-nnz/per-row cost: downstream ratios degenerate to NaN/inf and
/// would poison any ordering built on the predictions. Constructors
/// reject them with a typed error so a planner can fall back explicitly
/// instead of sorting garbage.
fn check_shape(nrows: usize, nnz: usize, format: FormatKind) -> Result<(), SparseError> {
    if nrows == 0 || nnz == 0 {
        return Err(SparseError::InvalidArgument(format!(
            "FormatCost::{}: cost model requires nrows >= 1 and nnz >= 1 \
             (got nrows={nrows}, nnz={nnz}); degenerate matrices have no \
             per-nnz cost and would yield NaN/inf predictions",
            format.name()
        )));
    }
    Ok(())
}

/// Per-operation cycle costs of the modeled core (2 GHz Clovertown-era).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostModel {
    /// Cycles per non-zero for the plain CSR inner loop (mul + add +
    /// indexed x load + loop bookkeeping).
    pub csr_nnz: f64,
    /// Cycles of per-row overhead (loop setup, final y store).
    pub row: f64,
    /// Extra cycles per non-zero for CSR-DU delta decoding.
    pub du_nnz_extra: f64,
    /// Cycles per CSR-DU unit header (flags/size/jmp decode + dispatch).
    pub du_unit: f64,
    /// Extra cycles per non-zero for CSR-VI's value indirection.
    pub vi_nnz_extra: f64,
    /// Extra cycles per non-zero for DCSR's per-element command dispatch
    /// (amortized branch-misprediction cost) when the element is NOT
    /// inside a grouped run.
    pub dcsr_dispatch: f64,
    /// Extra cycles per non-zero inside a grouped (unrolled) DCSR run.
    pub dcsr_grouped: f64,
    /// Latency penalty (cycles per non-zero) for scattered x accesses
    /// that miss the cache — captures the pointer-chasing component that
    /// bandwidth alone does not.
    pub x_scatter_penalty: f64,
    /// Per-iteration thread synchronization cost (cycles) when more than
    /// one thread runs.
    pub barrier: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            csr_nnz: 6.2,
            row: 4.0,
            du_nnz_extra: 0.9,
            du_unit: 6.0,
            vi_nnz_extra: 1.1,
            dcsr_dispatch: 2.6,
            dcsr_grouped: 1.0,
            x_scatter_penalty: 2.0,
            barrier: 4000.0,
        }
    }
}

/// What one storage format streams and computes per SpMV iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatCost {
    /// Which format.
    pub kind: FormatKind,
    /// Matrix bytes streamed per iteration (indices + values + pointers).
    pub stream_bytes: usize,
    /// Small lookup tables that stay cache-resident (CSR-VI's unique
    /// value table); they occupy cache but do not stream.
    pub resident_bytes: usize,
    /// Cycles per non-zero.
    pub cycles_per_nnz: f64,
    /// Cycles per non-empty row.
    pub cycles_per_row: f64,
    /// Additional flat cycles per iteration (unit headers etc.).
    pub cycles_flat: f64,
}

// Hand-written so `kind` serializes as its paper name (e.g. `"CSR-DU"`)
// rather than the variant identifier.
impl Serialize for FormatCost {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_map();
        s.field("kind", self.kind.name());
        s.field("stream_bytes", &self.stream_bytes);
        s.field("resident_bytes", &self.resident_bytes);
        s.field("cycles_per_nnz", &self.cycles_per_nnz);
        s.field("cycles_per_row", &self.cycles_per_row);
        s.field("cycles_flat", &self.cycles_flat);
        s.end_map();
    }
}

impl FormatCost {
    /// Cost descriptor for plain CSR with index type `I`.
    ///
    /// Rejects 0-row / 0-nnz matrices with a typed
    /// [`SparseError::InvalidArgument`] (see `check_shape`).
    pub fn csr<I: SpIndex, V: Scalar>(
        m: &Csr<I, V>,
        cm: &CostModel,
    ) -> Result<FormatCost, SparseError> {
        check_shape(m.nrows(), m.nnz(), FormatKind::Csr)?;
        Ok(FormatCost {
            kind: FormatKind::Csr,
            stream_bytes: m.nnz() * (I::BYTES + V::BYTES) + (m.nrows() + 1) * I::BYTES,
            resident_bytes: 0,
            cycles_per_nnz: cm.csr_nnz,
            cycles_per_row: cm.row,
            cycles_flat: 0.0,
        })
    }

    /// Cost descriptor for CSR-DU.
    pub fn csr_du<V: Scalar>(m: &CsrDu<V>, cm: &CostModel) -> Result<FormatCost, SparseError> {
        check_shape(m.nrows(), m.nnz(), FormatKind::CsrDu)?;
        Ok(FormatCost {
            kind: FormatKind::CsrDu,
            stream_bytes: m.size_bytes(),
            resident_bytes: 0,
            cycles_per_nnz: cm.csr_nnz + cm.du_nnz_extra,
            cycles_per_row: 0.0, // row bookkeeping happens per unit
            cycles_flat: m.units() as f64 * cm.du_unit,
        })
    }

    /// Cost descriptor for CSR-VI.
    pub fn csr_vi<I: SpIndex, V: Scalar>(
        m: &CsrVi<I, V>,
        cm: &CostModel,
    ) -> Result<FormatCost, SparseError> {
        check_shape(m.nrows(), m.nnz(), FormatKind::CsrVi)?;
        let resident = m.unique_values() * V::BYTES;
        Ok(FormatCost {
            kind: FormatKind::CsrVi,
            stream_bytes: m.size_bytes().saturating_sub(resident),
            resident_bytes: resident,
            cycles_per_nnz: cm.csr_nnz + cm.vi_nnz_extra,
            cycles_per_row: cm.row,
            cycles_flat: 0.0,
        })
    }

    /// Cost descriptor for the combined CSR-DU-VI.
    pub fn csr_duvi<V: Scalar>(m: &CsrDuVi<V>, cm: &CostModel) -> Result<FormatCost, SparseError> {
        check_shape(m.nrows(), m.nnz(), FormatKind::CsrDuVi)?;
        let resident = m.unique_values() * V::BYTES;
        Ok(FormatCost {
            kind: FormatKind::CsrDuVi,
            stream_bytes: m.size_bytes().saturating_sub(resident),
            resident_bytes: resident,
            cycles_per_nnz: cm.csr_nnz + cm.du_nnz_extra + cm.vi_nnz_extra,
            cycles_per_row: 0.0,
            cycles_flat: m.units() as f64 * cm.du_unit,
        })
    }

    /// Cost descriptor for DCSR. `grouped_fraction` is the share of
    /// non-zeros inside grouped runs (1.0 = fully grouped stream); a
    /// non-finite or out-of-range fraction is rejected rather than
    /// interpolated into a NaN dispatch cost.
    pub fn dcsr<V: Scalar>(
        m: &Dcsr<V>,
        grouped_fraction: f64,
        cm: &CostModel,
    ) -> Result<FormatCost, SparseError> {
        check_shape(m.nrows(), m.nnz(), FormatKind::Dcsr)?;
        if !(0.0..=1.0).contains(&grouped_fraction) {
            return Err(SparseError::InvalidArgument(format!(
                "FormatCost::dcsr: grouped_fraction must be in [0, 1], got {grouped_fraction}"
            )));
        }
        let dispatch =
            grouped_fraction * cm.dcsr_grouped + (1.0 - grouped_fraction) * cm.dcsr_dispatch;
        Ok(FormatCost {
            kind: FormatKind::Dcsr,
            stream_bytes: spmv_core::SpMv::<V>::size_bytes(m),
            resident_bytes: 0,
            cycles_per_nnz: cm.csr_nnz + dispatch,
            cycles_per_row: cm.row,
            cycles_flat: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::csr_du::DuOptions;
    use spmv_core::examples::paper_matrix;

    #[test]
    fn csr_stream_matches_working_set_formula() {
        let csr: Csr = paper_matrix().to_csr();
        let fc = FormatCost::csr(&csr, &CostModel::default()).expect("non-degenerate");
        assert_eq!(fc.stream_bytes, 16 * 12 + 7 * 4);
        assert_eq!(fc.resident_bytes, 0);
    }

    #[test]
    fn du_streams_less_than_csr_on_regular_matrix() {
        let coo = spmv_matgen::gen::banded(3000, 6, 1.0, 1);
        let csr = coo.to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let cm = CostModel::default();
        let c_csr = FormatCost::csr(&csr, &cm).expect("non-degenerate");
        let c_du = FormatCost::csr_du(&du, &cm).expect("non-degenerate");
        assert!(c_du.stream_bytes < c_csr.stream_bytes);
        assert!(c_du.cycles_per_nnz > c_csr.cycles_per_nnz);
    }

    #[test]
    fn vi_moves_values_to_resident_table() {
        let csr: Csr = paper_matrix().to_csr();
        let vi = CsrVi::from_csr(&csr);
        let fc = FormatCost::csr_vi(&vi, &CostModel::default()).expect("non-degenerate");
        assert_eq!(fc.resident_bytes, 9 * 8);
        // stream: row_ptr + col_ind + 1-byte val_ind
        assert_eq!(fc.stream_bytes, 7 * 4 + 16 * 4 + 16);
    }

    #[test]
    fn dcsr_dispatch_interpolates_with_grouping() {
        let csr: Csr = paper_matrix().to_csr();
        let cm = CostModel::default();
        let d = Dcsr::from_csr(&csr, &spmv_core::dcsr::DcsrOptions::default());
        let full = FormatCost::dcsr(&d, 1.0, &cm).expect("non-degenerate");
        let none = FormatCost::dcsr(&d, 0.0, &cm).expect("non-degenerate");
        assert!(full.cycles_per_nnz < none.cycles_per_nnz);
        assert!((none.cycles_per_nnz - cm.csr_nnz - cm.dcsr_dispatch).abs() < 1e-12);
    }

    #[test]
    fn degenerate_shapes_yield_typed_errors_not_nan() {
        use spmv_core::{Coo, SparseError};
        let cm = CostModel::default();
        // 0-nnz: every constructor must refuse instead of producing a
        // descriptor whose per-nnz ratios are NaN/inf downstream.
        let empty: Csr = Coo::new(4, 4).to_csr();
        assert!(matches!(FormatCost::csr(&empty, &cm), Err(SparseError::InvalidArgument(_))));
        let du = CsrDu::from_csr(&empty, &DuOptions::default());
        assert!(matches!(FormatCost::csr_du(&du, &cm), Err(SparseError::InvalidArgument(_))));
        let vi = CsrVi::from_csr(&empty);
        assert!(matches!(FormatCost::csr_vi(&vi, &cm), Err(SparseError::InvalidArgument(_))));
        let duvi = CsrDuVi::from_csr(&empty, &DuOptions::default());
        assert!(matches!(FormatCost::csr_duvi(&duvi, &cm), Err(SparseError::InvalidArgument(_))));
        let d = Dcsr::from_csr(&empty, &spmv_core::dcsr::DcsrOptions::default());
        assert!(matches!(FormatCost::dcsr(&d, 1.0, &cm), Err(SparseError::InvalidArgument(_))));
        // 0-row is equally degenerate.
        let norows: Csr = Coo::new(0, 4).to_csr();
        assert!(matches!(FormatCost::csr(&norows, &cm), Err(SparseError::InvalidArgument(_))));
        // An out-of-range grouped fraction would interpolate into a NaN
        // dispatch cost; it is rejected up front.
        let ok: Csr = paper_matrix().to_csr();
        let d = Dcsr::from_csr(&ok, &spmv_core::dcsr::DcsrOptions::default());
        assert!(matches!(
            FormatCost::dcsr(&d, f64::NAN, &cm),
            Err(SparseError::InvalidArgument(_))
        ));
        assert!(matches!(FormatCost::dcsr(&d, 1.5, &cm), Err(SparseError::InvalidArgument(_))));
        // The accepted path stays finite — nothing for a sort to choke on.
        let fc = FormatCost::csr(&ok, &cm).expect("non-degenerate");
        assert!(fc.cycles_per_nnz.is_finite() && fc.cycles_per_row.is_finite());
    }

    #[test]
    fn serial_csr_anchor_is_near_620_mflops() {
        // Cache-resident CSR at 2 GHz with ~7 nnz/row should land near the
        // paper's MS serial average (619 MFLOP/s).
        let cm = CostModel::default();
        let nnz_per_row = 7.0;
        let cycles_per_nnz = cm.csr_nnz + cm.row / nnz_per_row;
        let mflops = 2.0 * 2.0e9 / cycles_per_nnz / 1e6;
        assert!((550.0..700.0).contains(&mflops), "anchor {mflops}");
    }
}
