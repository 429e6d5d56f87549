//! CSR → CSR-DU encoder.
//!
//! One `O(nnz)` scan. Deltas of a row are buffered until the current unit
//! is *finalized*, which happens when (a) the row ends, (b) the unit
//! reaches 255 elements, or (c) an incoming delta needs a wider storage
//! class than the unit's current one and the unit is already long enough
//! that splitting beats widening (`widen_threshold`). A delta *narrower*
//! than the current class is simply stored wide — mirroring the paper's
//! trade of "less size reduction for innermost loops with minimum
//! overheads".

use super::{CsrDu, UnitType, FLAG_NEW_ROW, FLAG_ROW_JMP};
use crate::csr::Csr;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::varint::write_varint;

/// Tuning knobs for the CSR-DU encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct DuOptions {
    /// Maximum unit length (the `usize` byte caps this at 255).
    pub max_unit: usize,
    /// If an incoming delta needs a wider class and the open unit already
    /// has at least this many elements, the unit is split instead of
    /// widened. Small units are widened to avoid per-unit header overhead.
    pub widen_threshold: usize,
    /// Detect runs of consecutive columns (delta == 1) and emit them as
    /// `SEQ` units with no stored deltas. An extension beyond the paper
    /// (in the spirit of its follow-up CSX work); off by default so the
    /// default configuration matches the paper.
    pub enable_seq: bool,
    /// Minimum run length for a `SEQ` unit.
    pub min_seq: usize,
}

impl Default for DuOptions {
    fn default() -> Self {
        DuOptions { max_unit: 255, widen_threshold: 4, enable_seq: false, min_seq: 8 }
    }
}

impl DuOptions {
    /// Paper-faithful configuration (no sequential units).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Configuration with sequential-run detection enabled.
    pub fn with_seq() -> Self {
        DuOptions { enable_seq: true, ..Self::default() }
    }
}

/// Incremental builder for the ctl stream. Holds the pending unit.
struct CtlBuilder {
    ctl: Vec<u8>,
    units: usize,
    // Pending unit state.
    head_jmp: u64,
    deltas: Vec<u64>,
    unit_type: UnitType,
    new_row: bool,
    row_jmp: u64,
    open: bool,
}

impl CtlBuilder {
    fn new(nnz_hint: usize) -> Self {
        CtlBuilder {
            // Heuristic preallocation: ~1.2 bytes of ctl per nnz is typical
            // for u8-dominated matrices.
            ctl: Vec::with_capacity(nnz_hint + nnz_hint / 4 + 16),
            units: 0,
            head_jmp: 0,
            deltas: Vec::with_capacity(256),
            unit_type: UnitType::U8,
            new_row: false,
            row_jmp: 0,
            open: false,
        }
    }

    /// Opens a fresh unit whose first element is reached by `jmp`.
    fn open_unit(&mut self, jmp: u64, new_row: bool, row_jmp: u64) {
        debug_assert!(!self.open, "previous unit must be finalized first");
        self.head_jmp = jmp;
        self.deltas.clear();
        self.unit_type = UnitType::U8;
        self.new_row = new_row;
        self.row_jmp = row_jmp;
        self.open = true;
    }

    fn len(&self) -> usize {
        1 + self.deltas.len()
    }

    /// Serializes the pending unit into the ctl stream.
    fn finalize(&mut self) {
        if !self.open {
            return;
        }
        let utype = if self.deltas.is_empty() { UnitType::U8 } else { self.unit_type };
        let mut uflags = utype as u8;
        if self.new_row {
            uflags |= FLAG_NEW_ROW;
        }
        if self.row_jmp > 0 {
            debug_assert!(self.new_row, "row jump implies new row");
            uflags |= FLAG_ROW_JMP;
        }
        self.ctl.push(uflags);
        debug_assert!(self.len() <= 255);
        self.ctl.push(self.len() as u8);
        if self.row_jmp > 0 {
            write_varint(&mut self.ctl, self.row_jmp);
        }
        write_varint(&mut self.ctl, self.head_jmp);
        match utype {
            UnitType::U8 => {
                for &d in &self.deltas {
                    self.ctl.push(d as u8);
                }
            }
            UnitType::U16 => {
                for &d in &self.deltas {
                    self.ctl.extend_from_slice(&(d as u16).to_le_bytes());
                }
            }
            UnitType::U32 => {
                for &d in &self.deltas {
                    self.ctl.extend_from_slice(&(d as u32).to_le_bytes());
                }
            }
            UnitType::U64 => {
                for &d in &self.deltas {
                    self.ctl.extend_from_slice(&d.to_le_bytes());
                }
            }
            UnitType::Seq => {}
        }
        self.units += 1;
        self.open = false;
    }
}

/// Encodes the structure of `csr` into the CSR-DU ctl stream. The result
/// holds no values: [`CsrDu::from_csr`] attaches a copy of the CSR's, and
/// CSR-DU-VI stores its own value table instead.
pub(super) fn encode_ctl<I: SpIndex, V: Scalar>(csr: &Csr<I, V>, opts: &DuOptions) -> CsrDu<V> {
    assert!(opts.max_unit >= 1 && opts.max_unit <= 255, "max_unit must be in 1..=255");
    assert!(opts.min_seq >= 2, "a sequential run needs at least 2 elements");

    let mut b = CtlBuilder::new(csr.nnz());
    let mut pending_empty_rows: u64 = 0;

    let (row_ptr, col_ind) = (csr.row_ptr(), csr.col_ind());
    for row in 0..csr.nrows() {
        let cols = &col_ind[row_ptr[row].index()..row_ptr[row + 1].index()];
        if cols.is_empty() {
            pending_empty_rows += 1;
            continue;
        }

        // Column deltas for this row: deltas[0] is the absolute first
        // column (x resets to 0 at a new row), the rest are distances
        // between consecutive non-zeros.
        let mut idx = 0usize;
        let mut prev_col = 0usize;
        let mut new_row = true;

        while idx < cols.len() {
            let jmp = (cols[idx].index() - prev_col) as u64;
            let row_jmp = if new_row { std::mem::take(&mut pending_empty_rows) } else { 0 };

            if opts.enable_seq {
                // Greedy sequential-run detection starting at idx.
                let mut run = 1usize;
                while idx + run < cols.len()
                    && cols[idx + run].index() == cols[idx + run - 1].index() + 1
                    && run < opts.max_unit
                {
                    run += 1;
                }
                if run >= opts.min_seq {
                    b.open_unit(jmp, new_row, row_jmp);
                    b.unit_type = UnitType::Seq;
                    for _ in 1..run {
                        b.deltas.push(1);
                    }
                    b.finalize();
                    prev_col = cols[idx + run - 1].index();
                    idx += run;
                    new_row = false;
                    continue;
                }
            }

            // General delta unit.
            b.open_unit(jmp, new_row, row_jmp);
            prev_col = cols[idx].index();
            idx += 1;
            new_row = false;

            while idx < cols.len() && b.len() < opts.max_unit {
                let d = (cols[idx].index() - prev_col) as u64;
                let need = UnitType::for_delta(d as usize);
                if need.delta_bytes() > b.unit_type.delta_bytes() {
                    if b.len() >= opts.widen_threshold {
                        // Split: the wide delta becomes the next unit's jmp.
                        break;
                    }
                    b.unit_type = need;
                } else if opts.enable_seq && d == 1 {
                    // Peek: would a SEQ unit start here? If a long run of
                    // consecutive columns follows, close this unit so the
                    // run is emitted as SEQ.
                    let mut run = 1usize;
                    while idx + run < cols.len()
                        && cols[idx + run].index() == cols[idx + run - 1].index() + 1
                        && run < opts.min_seq
                    {
                        run += 1;
                    }
                    if run >= opts.min_seq {
                        break;
                    }
                }
                b.deltas.push(d);
                prev_col = cols[idx].index();
                idx += 1;
            }
            b.finalize();
        }
    }
    // Trailing empty rows produce no units; the decoder learns the row
    // count from the matrix header, not the stream.

    let units = b.units;
    CsrDu {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        nnz: csr.nnz(),
        ctl: std::sync::Arc::new(b.ctl),
        values: Vec::new(),
        units,
        stream_id: super::next_stream_id(),
    }
}
