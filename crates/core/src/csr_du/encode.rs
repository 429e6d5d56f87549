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
//!
//! A unit never spans rows, so from
//! [`PARALLEL_ENCODE_MIN_NNZ`](crate::PARALLEL_ENCODE_MIN_NNZ) non-zeros on
//! the scan is cut into nnz-balanced row ranges, one per available CPU,
//! each encoded into a ctl buffer of its own (see `crate::encode_parts`).
//! The only state that crosses rows is the run of empty rows before a
//! unit, which becomes its row jump. A cut falls on the first row of such
//! a run, never inside or after it, so each range's builder starts from
//! zero empty rows, as the one-range scan does at row 0. The buffers are
//! joined in row order and their unit counts summed: the stream is byte
//! for byte the one-range scan's.

use super::{CsrDu, UnitType, FLAG_NEW_ROW, FLAG_ROW_JMP};
use crate::csr::Csr;
use crate::encode_parts;
use crate::index::{narrowest_width_bytes, SpIndex};
use crate::scalar::Scalar;
use crate::varint::{varint_len, write_varint};
use std::ops::Range;

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
        // Heuristic preallocation: ~1.2 bytes of ctl per nnz is typical
        // for u8-dominated matrices.
        Self::with_capacity(nnz_hint + nnz_hint / 4 + 16)
    }

    fn with_capacity(bytes: usize) -> Self {
        CtlBuilder {
            ctl: Vec::with_capacity(bytes),
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

/// Encodes the structure of `csr` into the CSR-DU ctl stream, scanning
/// `parts` nnz-balanced row ranges at once; the stream is the same for
/// every `parts`. The result holds no values: [`CsrDu::from_csr`]
/// attaches a copy of the CSR's, and CSR-DU-VI stores its own value table
/// instead.
pub(super) fn encode_ctl<I: SpIndex, V: Scalar>(
    csr: &Csr<I, V>,
    opts: &DuOptions,
    parts: usize,
) -> CsrDu<V> {
    assert!(opts.max_unit >= 1 && opts.max_unit <= 255, "max_unit must be in 1..=255");
    assert!(opts.min_seq >= 2, "a sequential run needs at least 2 elements");

    let (row_ptr, col_ind) = (csr.row_ptr(), csr.col_ind());
    let cuts = row_cuts(row_ptr, parts);
    let split = cuts.len() > 2;
    // The calling thread allocates every range's buffer. Split, the first
    // range's buffer becomes the stream: allocated first, with room for
    // the whole stream, it never moves while the others are appended, and
    // the others lie above it on the heap. Their space and its unused
    // tail are freed together, so the join leaves no hole below a live
    // buffer. (Growing it at the join would leave one the size of the
    // buffers, 13 MB per encode of a 5.4M-nnz matrix, which a long-running
    // process keeps.)
    let ranges: Vec<(CtlBuilder, Range<usize>)> = cuts
        .windows(2)
        .enumerate()
        .map(|(p, w)| {
            let b = match p {
                0 if split => CtlBuilder::with_capacity(ctl_bound(csr)),
                0 => CtlBuilder::new(csr.nnz()),
                _ => CtlBuilder::new(row_ptr[w[1]].index() - row_ptr[w[0]].index()),
            };
            (b, w[0]..w[1])
        })
        .collect();
    let built = encode_parts::run(ranges, |(mut b, rows)| {
        debug_assert!(
            rows.start == 0 || row_ptr[rows.start - 1] < row_ptr[rows.start],
            "a cut follows an empty row"
        );
        encode_rows(row_ptr, col_ind, rows, opts, &mut b);
        b
    });
    let mut built = built.into_iter();
    let mut b = built.next().expect("at least one row range");
    for part in built {
        b.ctl.extend_from_slice(&part.ctl);
        b.units += part.units;
    }
    if split {
        debug_assert!(b.ctl.len() <= ctl_bound(csr), "the stream outgrew its bound");
        b.ctl.shrink_to_fit();
    }
    // Trailing empty rows produce no units; the decoder learns the row
    // count from the matrix header, not the stream.

    CsrDu {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        nnz: csr.nnz(),
        ctl: std::sync::Arc::new(b.ctl),
        values: Vec::new(),
        units: b.units,
        stream_id: super::next_stream_id(),
    }
}

/// An upper bound on the ctl bytes of `csr`: each non-zero either opens
/// a unit (flags, length and a column-jump varint) or is one stored delta,
/// and each non-empty row may add a row-jump varint.
fn ctl_bound<I: SpIndex, V: Scalar>(csr: &Csr<I, V>) -> usize {
    let per_nnz = (2 + varint_len(csr.ncols() as u64)).max(narrowest_width_bytes(csr.ncols()));
    csr.nnz() * per_nnz + csr.nrows().min(csr.nnz()) * varint_len(csr.nrows() as u64)
}

/// Row bounds of `parts` nnz-balanced row ranges, from 0 to `nrows`:
/// range `p` starts at the first row whose non-zeros start at or after
/// `p·nnz/parts`. An empty row starts where the row after it does, so a
/// cut never follows an empty row; a row holding most non-zeros can leave
/// a range empty.
fn row_cuts<I: SpIndex>(row_ptr: &[I], parts: usize) -> Vec<usize> {
    let nrows = row_ptr.len() - 1;
    let mut cuts: Vec<usize> = encode_parts::even_bounds(row_ptr[nrows].index(), parts)
        .into_iter()
        .map(|target| row_ptr[..nrows].partition_point(|q| q.index() < target))
        .collect();
    // Trailing empty rows start at `nnz` too; they belong to the last range.
    *cuts.last_mut().expect("even_bounds is never empty") = nrows;
    cuts
}

/// Appends the units of `rows` to `b`; the row before `rows` must not be
/// empty (see [`row_cuts`]).
fn encode_rows<I: SpIndex>(
    row_ptr: &[I],
    col_ind: &[I],
    rows: Range<usize>,
    opts: &DuOptions,
    b: &mut CtlBuilder,
) {
    let mut pending_empty_rows: u64 = 0;
    for row in rows {
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
}
