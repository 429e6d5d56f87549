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

/// The part of a unit header that [`splits`] needs: the row step, the
/// length and where the next unit starts.
struct Header {
    new_row: bool,
    row_jmp: usize,
    len: usize,
    end: usize,
}

/// Reads the header of the unit at `pos` and skips its body: the column
/// jump varint is stepped over by its continuation bits and the `len - 1`
/// stored deltas without decoding them.
#[inline(always)]
fn read_header(ctl: &[u8], pos: usize) -> Header {
    let uflags = ctl[pos];
    let len = ctl[pos + 1] as usize;
    let mut end = pos + 2;
    let new_row = uflags & FLAG_NEW_ROW != 0;
    let row_jmp =
        if new_row && uflags & FLAG_ROW_JMP != 0 { read_varint(ctl, &mut end) as usize } else { 0 };
    while ctl[end] & 0x80 != 0 {
        end += 1;
    }
    end += 1 + len.saturating_sub(1) * UnitType::from_flags(uflags).delta_bytes();
    Header { new_row, row_jmp, len, end }
}

/// Computes up to `nparts` nnz-balanced splits, cutting only where the next
/// unit starts a new row. Walks unit headers only — a split needs rows and
/// value offsets, never columns — and reads the next unit's header in
/// full only where it cuts.
pub(super) fn splits<V: Scalar>(du: &CsrDu<V>, nparts: usize) -> Vec<DuSplit> {
    assert!(nparts >= 1, "need at least one part");
    let total_nnz = du.nnz();
    let mut out: Vec<DuSplit> = Vec::with_capacity(nparts);
    if total_nnz == 0 {
        out.push(du.whole_split());
        return out;
    }

    let ctl = du.ctl();
    let mut part_start_ctl = 0usize;
    let mut part_start_val = 0usize;
    let mut part_start_row = 0usize;
    // Stream head decodes from virtual row -1.
    let mut part_wrap_base = usize::MAX;
    let mut part = 0usize;
    let mut target = total_nnz / nparts;
    // Position, row (wrapping) and first value offset of the current unit.
    let mut pos = 0usize;
    let mut row = usize::MAX;
    let mut val = 0usize;

    while pos < ctl.len() {
        let unit = read_header(ctl, pos);
        if unit.new_row {
            row = row.wrapping_add(1 + unit.row_jmp);
        }
        let val_end = val + unit.len;
        let at_end = unit.end >= ctl.len();
        let cuttable = at_end || ctl[unit.end] & FLAG_NEW_ROW != 0;
        if at_end || (val_end >= target && cuttable && part + 1 < nparts) {
            let (row_end, next_base) = if at_end {
                (du.nrows(), 0)
            } else {
                // The next part's first unit advances by 1 + row_jmp from
                // its baseline, so this unit's row is the baseline that
                // lands it on its true row.
                (row.wrapping_add(1 + read_header(ctl, unit.end).row_jmp), row)
            };
            out.push(DuSplit {
                ctl_range: part_start_ctl..unit.end,
                val_start: part_start_val,
                row_start: part_start_row,
                row_end,
                row_wrap_base: part_wrap_base,
                nnz: val_end - part_start_val,
                stream_id: du.stream_id,
            });
            part_start_ctl = unit.end;
            part_start_val = val_end;
            part_start_row = row_end;
            part_wrap_base = next_base;
            part += 1;
            target = (part + 1) * total_nnz / nparts;
        }
        pos = unit.end;
        val = val_end;
    }
    out
}
