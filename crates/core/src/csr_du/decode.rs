//! CSR-DU decoding: the unit cursor, CSR reconstruction and the
//! row-partition split computation.
//!
//! ## Row tracking protocol
//!
//! The kernel tracks the current row as a *wrapping* `usize`. At every
//! `NR` unit it advances by `1 + row_jmp`. A decode that starts at the
//! stream head begins from the virtual row `-1` (`usize::MAX`), so the
//! first unit lands on row `row_jmp` — which handles leading empty rows.
//! A decode that starts mid-stream (a thread's split) begins from the
//! baseline recorded in [`DuSplit::row_wrap_base`], chosen so the split's
//! first unit lands on its true absolute row.

use super::{CsrDu, DuSplit, UnitType, FLAG_NEW_ROW, FLAG_ROW_JMP};
use crate::csr::Csr;
use crate::error::Result;
use crate::scalar::Scalar;
use crate::varint::read_varint;

/// A decoded unit header plus the absolute position it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// Byte offset of this unit's `uflags` within the ctl stream.
    pub ctl_offset: usize,
    /// Byte offset one past the unit's last ucis byte.
    pub ctl_end: usize,
    /// Row this unit lives in.
    pub row: usize,
    /// `true` if this unit started its row.
    pub new_row: bool,
    /// Number of empty rows jumped over before this unit's row (the
    /// `urjmp` varint; 0 unless the `RJMP` flag was set).
    pub row_jmp: u64,
    /// Absolute column of the unit's first non-zero.
    pub first_col: usize,
    /// Number of non-zeros covered.
    pub len: usize,
    /// Delta storage class.
    pub utype: UnitType,
    /// Offset of the unit's first value within the `values` array.
    pub val_offset: usize,
}

/// Streaming decoder over the ctl byte stream, yielding [`Unit`]s in
/// storage order. Tracks row/column position exactly as the SpMV kernel
/// does.
pub struct DuCursor<'a> {
    ctl: &'a [u8],
    pos: usize,
    row: usize, // wrapping; starts at usize::MAX (virtual row -1)
    col: usize,
    val_offset: usize,
}

impl<'a> DuCursor<'a> {
    pub(super) fn new(ctl: &'a [u8]) -> Self {
        DuCursor { ctl, pos: 0, row: usize::MAX, col: 0, val_offset: 0 }
    }

    /// Decodes the delta values of `unit` into absolute column indices.
    pub fn unit_cols(&self, unit: &Unit) -> Vec<usize> {
        let mut cols = Vec::with_capacity(unit.len);
        let mut col = unit.first_col;
        cols.push(col);
        let mut pos = unit.ctl_end - (unit.len - 1) * unit.utype.delta_bytes();
        for _ in 1..unit.len {
            col += read_delta(self.ctl, &mut pos, unit.utype);
            cols.push(col);
        }
        cols
    }
}

/// Reads one delta of class `utype` at `*pos`, advancing the position.
#[inline(always)]
fn read_delta(ctl: &[u8], pos: &mut usize, utype: UnitType) -> usize {
    match utype {
        UnitType::U8 => {
            let v = ctl[*pos] as usize;
            *pos += 1;
            v
        }
        UnitType::U16 => {
            let v = u16::from_le_bytes([ctl[*pos], ctl[*pos + 1]]) as usize;
            *pos += 2;
            v
        }
        UnitType::U32 => {
            let v = u32::from_le_bytes(ctl[*pos..*pos + 4].try_into().expect("4 bytes")) as usize;
            *pos += 4;
            v
        }
        UnitType::U64 => {
            let v = u64::from_le_bytes(ctl[*pos..*pos + 8].try_into().expect("8 bytes")) as usize;
            *pos += 8;
            v
        }
        UnitType::Seq => 1,
    }
}

impl<'a> Iterator for DuCursor<'a> {
    type Item = Unit;

    fn next(&mut self) -> Option<Unit> {
        if self.pos >= self.ctl.len() {
            return None;
        }
        let ctl_offset = self.pos;
        let uflags = self.ctl[self.pos];
        let len = self.ctl[self.pos + 1] as usize;
        self.pos += 2;
        debug_assert!(len >= 1, "corrupt ctl: zero-length unit");

        let new_row = uflags & FLAG_NEW_ROW != 0;
        let mut row_jmp = 0u64;
        if new_row {
            if uflags & FLAG_ROW_JMP != 0 {
                row_jmp = read_varint(self.ctl, &mut self.pos);
            }
            self.row = self.row.wrapping_add(1 + row_jmp as usize);
            self.col = 0;
        }
        let jmp = read_varint(self.ctl, &mut self.pos) as usize;
        self.col += jmp;
        let first_col = self.col;

        let utype = UnitType::from_flags(uflags);
        let mut pos = self.pos;
        for _ in 1..len {
            self.col += read_delta(self.ctl, &mut pos, utype);
        }
        // Seq units store no delta bytes; `pos` already accounts for that
        // because read_delta(Seq) does not advance.
        self.pos = pos;

        let unit = Unit {
            ctl_offset,
            ctl_end: self.pos,
            row: self.row,
            new_row,
            row_jmp,
            first_col,
            len,
            utype,
            val_offset: self.val_offset,
        };
        self.val_offset += len;
        Some(unit)
    }
}

/// Reconstructs a CSR matrix from the CSR-DU stream (lossless round-trip).
pub(super) fn to_csr<V: Scalar>(du: &CsrDu<V>) -> Result<Csr<u32, V>> {
    let mut row_ptr: Vec<u32> = Vec::with_capacity(du.nrows() + 1);
    let mut col_ind: Vec<u32> = Vec::with_capacity(du.nnz());
    row_ptr.push(0);
    let mut current_row = 0usize;
    let cursor = DuCursor::new(du.ctl());
    let units: Vec<Unit> = du.cursor().collect();
    // The reconstruction targets u32 indices regardless of how the stream
    // was produced, so every column and prefix count is range-checked —
    // an untrusted ctl stream must not silently wrap into a "valid" CSR.
    use crate::index::SpIndex;
    for unit in &units {
        while current_row < unit.row {
            row_ptr.push(u32::from_usize(col_ind.len())?);
            current_row += 1;
        }
        for c in cursor.unit_cols(unit) {
            col_ind.push(u32::from_usize(c)?);
        }
    }
    while current_row < du.nrows() {
        row_ptr.push(u32::from_usize(col_ind.len())?);
        current_row += 1;
    }
    Csr::from_raw_parts(du.nrows(), du.ncols(), row_ptr, col_ind, du.values().to_vec())
}

/// Computes up to `nparts` nnz-balanced splits, cutting only where the next
/// unit starts a new row.
pub(super) fn splits<V: Scalar>(du: &CsrDu<V>, nparts: usize) -> Vec<DuSplit> {
    assert!(nparts >= 1, "need at least one part");
    let total_nnz = du.nnz();
    let mut out: Vec<DuSplit> = Vec::with_capacity(nparts);
    if total_nnz == 0 {
        out.push(DuSplit {
            ctl_range: 0..0,
            val_start: 0,
            row_start: 0,
            row_end: du.nrows(),
            row_wrap_base: usize::MAX,
            nnz: 0,
            stream_id: du.stream_id,
        });
        return out;
    }

    let units: Vec<Unit> = du.cursor().collect();
    let mut part_start_ctl = 0usize;
    let mut part_start_val = 0usize;
    let mut part_start_row = 0usize;
    // Stream head decodes from virtual row -1.
    let mut part_wrap_base = usize::MAX;
    let mut nnz_seen = 0usize;
    let mut part = 0usize;

    for (i, unit) in units.iter().enumerate() {
        nnz_seen += unit.len;
        let target = (part + 1) * total_nnz / nparts;
        let next = units.get(i + 1);
        let at_end = next.is_none();
        let cuttable = next.map(|n| n.new_row).unwrap_or(true);
        if at_end || (nnz_seen >= target && cuttable && part + 1 < nparts) {
            let (row_end, next_base) = match next {
                Some(n) => {
                    // The next part's first unit advances by 1 + row_jmp
                    // from the baseline, so pick the baseline that lands it
                    // on its true row.
                    (n.row, n.row.wrapping_sub(1 + n.row_jmp as usize))
                }
                None => (du.nrows(), 0),
            };
            out.push(DuSplit {
                ctl_range: part_start_ctl..unit.ctl_end,
                val_start: part_start_val,
                row_start: part_start_row,
                row_end,
                row_wrap_base: part_wrap_base,
                nnz: unit.val_offset + unit.len - part_start_val,
                stream_id: du.stream_id,
            });
            part_start_ctl = unit.ctl_end;
            part_start_val = unit.val_offset + unit.len;
            part_start_row = row_end;
            part_wrap_base = next_base;
            part += 1;
        }
        if at_end {
            break;
        }
    }
    out
}
