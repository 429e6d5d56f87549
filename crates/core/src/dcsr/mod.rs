//! DCSR — a reimplementation of Willcock & Lumsdaine's delta-compressed
//! CSR (ICS'06), the closest related work the paper compares against
//! (§III-B).
//!
//! DCSR serializes the column structure into a byte stream of *command
//! codes* for primitive sub-operations — small literal deltas, escape
//! codes for wider deltas, and row-advance commands — decoded **per
//! element**. This fine-grained decoding is precisely what the paper
//! criticizes: the per-element `match` produces frequently mispredicted
//! branches. The original mitigates this by grouping frequent six-command
//! patterns into unrolled sequences; we implement the analogous
//! optimization as *literal run grouping* (a run command followed by a
//! count and raw delta bytes, executed in a tight loop).
//!
//! This module is a behavioral reimplementation from the published
//! description, not a bit-compatible re-encoding. It exists so the
//! benchmark suite can reproduce the decode-overhead comparison between
//! fine-grained (DCSR) and coarse-grained (CSR-DU) delta compression
//! (ablation A2 in DESIGN.md).

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::Result;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use crate::spmv::{FormatKind, SpMv};
use crate::stats::SizeReport;
use crate::varint::{read_varint, write_varint};

/// Largest column delta encoded as a single literal byte.
pub const MAX_LITERAL: u8 = 0xEF; // 239

/// Escape: 2-byte little-endian delta follows.
pub const CMD_DELTA16: u8 = 0xF0;
/// Escape: 4-byte little-endian delta follows.
pub const CMD_DELTA32: u8 = 0xF1;
/// Escape: 8-byte little-endian delta follows.
pub const CMD_DELTA64: u8 = 0xF2;
/// Advance exactly one row; column position resets.
pub const CMD_NEW_ROW: u8 = 0xF3;
/// Advance `1 + varint` rows; column position resets.
pub const CMD_ROW_JMP: u8 = 0xF4;
/// Literal run: a count byte then `count` raw u8 deltas.
pub const CMD_RUN: u8 = 0xF5;

/// Encoder options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcsrOptions {
    /// Emit [`CMD_RUN`] groups for runs of ≥ `min_run` literal deltas —
    /// the analog of the original's six-command pattern unrolling.
    pub group_literals: bool,
    /// Minimum literal-run length worth a run header.
    pub min_run: usize,
}

impl Default for DcsrOptions {
    fn default() -> Self {
        DcsrOptions { group_literals: true, min_run: 4 }
    }
}

impl DcsrOptions {
    /// Fully fine-grained encoding: one command per element, no grouping.
    /// This is the worst-case branching configuration.
    pub fn ungrouped() -> Self {
        DcsrOptions { group_literals: false, min_run: usize::MAX }
    }
}

/// A sparse matrix in (reimplemented) DCSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct Dcsr<V: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    stream: Vec<u8>,
    values: Vec<V>,
}

impl<V: Scalar> Dcsr<V> {
    /// Encodes a CSR matrix. `O(nnz)`.
    pub fn from_csr<I: SpIndex>(csr: &Csr<I, V>, opts: &DcsrOptions) -> Dcsr<V> {
        let mut stream: Vec<u8> = Vec::with_capacity(csr.nnz() + csr.nrows() + 16);
        let mut pending_rows: u64 = 0;

        for r in 0..csr.nrows() {
            if csr.row_nnz(r) == 0 {
                pending_rows += 1;
                continue;
            }
            // Row-advance command.
            if pending_rows == 0 {
                stream.push(CMD_NEW_ROW);
            } else {
                stream.push(CMD_ROW_JMP);
                write_varint(&mut stream, pending_rows);
                pending_rows = 0;
            }

            // Column deltas (first is the absolute column).
            let deltas: Vec<usize> = {
                let mut prev = 0usize;
                let mut first = true;
                csr.row_iter(r)
                    .map(|(c, _)| {
                        let d = if first { c } else { c - prev };
                        first = false;
                        prev = c;
                        d
                    })
                    .collect()
            };

            let mut k = 0usize;
            while k < deltas.len() {
                let d = deltas[k];
                if d <= MAX_LITERAL as usize {
                    if opts.group_literals {
                        // Measure the literal run starting here.
                        let mut run = 1usize;
                        while k + run < deltas.len()
                            && deltas[k + run] <= MAX_LITERAL as usize
                            && run < 255
                        {
                            run += 1;
                        }
                        if run >= opts.min_run {
                            stream.push(CMD_RUN);
                            stream.push(run as u8);
                            for &dd in &deltas[k..k + run] {
                                stream.push(dd as u8);
                            }
                            k += run;
                            continue;
                        }
                    }
                    stream.push(d as u8);
                    k += 1;
                } else if d <= u16::MAX as usize {
                    stream.push(CMD_DELTA16);
                    stream.extend_from_slice(&(d as u16).to_le_bytes());
                    k += 1;
                } else if d <= u32::MAX as usize {
                    stream.push(CMD_DELTA32);
                    stream.extend_from_slice(&(d as u32).to_le_bytes());
                    k += 1;
                } else {
                    stream.push(CMD_DELTA64);
                    stream.extend_from_slice(&(d as u64).to_le_bytes());
                    k += 1;
                }
            }
        }

        Dcsr { nrows: csr.nrows(), ncols: csr.ncols(), stream, values: csr.values().to_vec() }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The command/delta byte stream.
    pub fn stream(&self) -> &[u8] {
        &self.stream
    }

    /// Size comparison against the u32-index CSR baseline.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            csr_bytes: self.nnz() * (4 + V::BYTES) + (self.nrows + 1) * 4,
            compressed_bytes: SpMv::size_bytes(self),
        }
    }

    /// Reconstructs CSR (lossless).
    pub fn to_csr(&self) -> Result<Csr<u32, V>> {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        let mut pos = 0usize;
        let mut row = usize::MAX; // wrapping: first NEW_ROW lands on 0
        let mut col = 0usize;
        let mut val = 0usize;
        while pos < self.stream.len() {
            let cmd = self.stream[pos];
            pos += 1;
            match cmd {
                CMD_NEW_ROW => {
                    row = row.wrapping_add(1);
                    col = 0;
                }
                CMD_ROW_JMP => {
                    let extra = read_varint(&self.stream, &mut pos) as usize;
                    row = row.wrapping_add(1 + extra);
                    col = 0;
                }
                CMD_RUN => {
                    let count = self.stream[pos] as usize;
                    pos += 1;
                    for _ in 0..count {
                        col += self.stream[pos] as usize;
                        pos += 1;
                        coo.push(row, col, self.values[val])?;
                        val += 1;
                    }
                }
                CMD_DELTA16 => {
                    col += u16::from_le_bytes([self.stream[pos], self.stream[pos + 1]]) as usize;
                    pos += 2;
                    coo.push(row, col, self.values[val])?;
                    val += 1;
                }
                CMD_DELTA32 => {
                    col +=
                        u32::from_le_bytes(self.stream[pos..pos + 4].try_into().expect("4 bytes"))
                            as usize;
                    pos += 4;
                    coo.push(row, col, self.values[val])?;
                    val += 1;
                }
                CMD_DELTA64 => {
                    col +=
                        u64::from_le_bytes(self.stream[pos..pos + 8].try_into().expect("8 bytes"))
                            as usize;
                    pos += 8;
                    coo.push(row, col, self.values[val])?;
                    val += 1;
                }
                literal => {
                    col += literal as usize;
                    coo.push(row, col, self.values[val])?;
                    val += 1;
                }
            }
        }
        coo.to_csr_with_index::<u32>()
    }
}

impl<V: Scalar> SpMv<V> for Dcsr<V> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn kind(&self) -> FormatKind {
        FormatKind::Dcsr
    }
    fn size_bytes(&self) -> usize {
        self.stream.len() + self.values.len() * V::BYTES
    }

    fn spmv(&self, x: &[V], y: &mut [V]) {
        assert_eq!(x.len(), self.ncols, "x length must equal ncols");
        assert_eq!(y.len(), self.nrows, "y length must equal nrows");
        for v in y.iter_mut() {
            *v = V::zero();
        }
        let stream = &self.stream[..];
        let values = &self.values[..];
        let mut pos = 0usize;
        let mut row = usize::MAX;
        let mut col = 0usize;
        let mut val = 0usize;
        let mut acc = V::zero();
        let mut have_row = false;

        // The per-element command dispatch below is the point of this
        // format: every non-zero pays one (potentially mispredicted)
        // branch, unless it falls inside a CMD_RUN group.
        while pos < stream.len() {
            let cmd = stream[pos];
            pos += 1;
            match cmd {
                CMD_NEW_ROW => {
                    if have_row {
                        y[row] = acc;
                    }
                    row = row.wrapping_add(1);
                    col = 0;
                    acc = V::zero();
                    have_row = true;
                }
                CMD_ROW_JMP => {
                    if have_row {
                        y[row] = acc;
                    }
                    let extra = read_varint(stream, &mut pos) as usize;
                    row = row.wrapping_add(1 + extra);
                    col = 0;
                    acc = V::zero();
                    have_row = true;
                }
                CMD_RUN => {
                    let count = stream[pos] as usize;
                    pos += 1;
                    for _ in 0..count {
                        col += stream[pos] as usize;
                        pos += 1;
                        acc += values[val] * x[col];
                        val += 1;
                    }
                }
                CMD_DELTA16 => {
                    col += u16::from_le_bytes([stream[pos], stream[pos + 1]]) as usize;
                    pos += 2;
                    acc += values[val] * x[col];
                    val += 1;
                }
                CMD_DELTA32 => {
                    col += u32::from_le_bytes(stream[pos..pos + 4].try_into().expect("4 bytes"))
                        as usize;
                    pos += 4;
                    acc += values[val] * x[col];
                    val += 1;
                }
                CMD_DELTA64 => {
                    col += u64::from_le_bytes(stream[pos..pos + 8].try_into().expect("8 bytes"))
                        as usize;
                    pos += 8;
                    acc += values[val] * x[col];
                    val += 1;
                }
                literal => {
                    col += literal as usize;
                    acc += values[val] * x[col];
                    val += 1;
                }
            }
        }
        if have_row {
            y[row] = acc;
        }
    }

    fn validate(&self) -> std::result::Result<(), crate::error::SparseError> {
        use crate::error::SparseError;
        use crate::varint::try_read_varint;
        let fail = |msg: String| SparseError::InvalidFormat(format!("DCSR stream: {msg}"));
        let stream = &self.stream[..];
        let mut pos = 0usize;
        let mut row = usize::MAX; // wrapping: first row command lands on 0
        let mut col = 0usize;
        let mut val = 0usize;
        let mut started = false;
        let mut row_elems = 0usize;

        // One bounds-checked decode of every element: `element` plays the
        // roles the kernel's delta arms share (column advance + value
        // consumption), erroring instead of indexing out of range.
        let element = |delta: usize,
                       row: usize,
                       col: &mut usize,
                       val: &mut usize,
                       row_elems: &mut usize|
         -> std::result::Result<(), SparseError> {
            if *row_elems > 0 && delta == 0 {
                return Err(SparseError::UnsortedIndices { row });
            }
            *col = col
                .checked_add(delta)
                .ok_or_else(|| fail(format!("column overflow in row {row}")))?;
            if *col >= self.ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row,
                    col: *col,
                    nrows: self.nrows,
                    ncols: self.ncols,
                });
            }
            *val += 1;
            *row_elems += 1;
            Ok(())
        };

        while pos < stream.len() {
            let cmd = stream[pos];
            pos += 1;
            if !started && cmd != CMD_NEW_ROW && cmd != CMD_ROW_JMP {
                return Err(fail("stream must start with a row command".into()));
            }
            match cmd {
                CMD_NEW_ROW | CMD_ROW_JMP => {
                    if started && row_elems == 0 {
                        return Err(fail(format!("row command for empty row after row {row}")));
                    }
                    let extra = if cmd == CMD_ROW_JMP {
                        try_read_varint(stream, &mut pos)
                            .ok_or_else(|| fail("truncated row jump".into()))?
                            as usize
                    } else {
                        0
                    };
                    row = if started {
                        row.checked_add(1 + extra).ok_or_else(|| fail("row overflow".into()))?
                    } else {
                        started = true;
                        extra
                    };
                    if row >= self.nrows {
                        return Err(fail(format!("row {row} >= nrows {}", self.nrows)));
                    }
                    col = 0;
                    row_elems = 0;
                }
                CMD_RUN => {
                    if pos >= stream.len() {
                        return Err(fail("truncated run header".into()));
                    }
                    let count = stream[pos] as usize;
                    pos += 1;
                    if count == 0 {
                        return Err(fail("zero-length run".into()));
                    }
                    if pos + count > stream.len() {
                        return Err(fail("truncated run body".into()));
                    }
                    for _ in 0..count {
                        let d = stream[pos] as usize;
                        pos += 1;
                        element(d, row, &mut col, &mut val, &mut row_elems)?;
                    }
                }
                CMD_DELTA16 | CMD_DELTA32 | CMD_DELTA64 => {
                    let width = match cmd {
                        CMD_DELTA16 => 2,
                        CMD_DELTA32 => 4,
                        _ => 8,
                    };
                    if pos + width > stream.len() {
                        return Err(fail("truncated wide delta".into()));
                    }
                    let mut bytes = [0u8; 8];
                    bytes[..width].copy_from_slice(&stream[pos..pos + width]);
                    pos += width;
                    let d = u64::from_le_bytes(bytes);
                    let d = usize::try_from(d)
                        .map_err(|_| fail(format!("delta {d} exceeds usize in row {row}")))?;
                    element(d, row, &mut col, &mut val, &mut row_elems)?;
                }
                literal => {
                    element(literal as usize, row, &mut col, &mut val, &mut row_elems)?;
                }
            }
        }
        if started && row_elems == 0 {
            return Err(fail(format!("trailing row command for empty row {row}")));
        }
        if val != self.values.len() {
            return Err(fail(format!(
                "stream encodes {val} non-zeros but {} values stored",
                self.values.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_matrix;

    #[test]
    fn roundtrip_paper_matrix_both_configs() {
        let csr = paper_matrix().to_csr();
        for opts in [DcsrOptions::default(), DcsrOptions::ungrouped()] {
            let d = Dcsr::from_csr(&csr, &opts);
            assert_eq!(d.to_csr().unwrap(), csr, "{opts:?}");
        }
    }

    #[test]
    fn spmv_matches_csr() {
        let coo = paper_matrix();
        let csr = coo.to_csr();
        let d = Dcsr::from_csr(&csr, &DcsrOptions::default());
        let x: Vec<f64> = (0..6).map(|i| 0.1 * i as f64 + 1.0).collect();
        let mut y0 = vec![0.0; 6];
        let mut y1 = vec![9.0; 6];
        csr.spmv(&x, &mut y0);
        d.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn empty_rows_and_wide_deltas() {
        let coo = Coo::from_triplets(
            10,
            200_000,
            vec![(0, 5, 1.0), (0, 199_999, 2.0), (4, 0, 3.0), (9, 100_000, 4.0)],
        )
        .unwrap();
        let csr = coo.to_csr();
        let d = Dcsr::from_csr(&csr, &DcsrOptions::default());
        assert_eq!(d.to_csr().unwrap(), csr);

        let x = vec![1.0; 200_000];
        let mut y = vec![0.0; 10];
        let mut y_ref = vec![0.0; 10];
        d.spmv(&x, &mut y);
        coo.spmv_reference(&x, &mut y_ref);
        assert_eq!(y, y_ref);
    }

    #[test]
    fn grouping_shrinks_stream_for_regular_rows() {
        // Banded rows produce long literal runs; grouping replaces k
        // literal commands with (2 + k) bytes -> same size but fewer
        // dispatches. Stream sizes must stay comparable and both decode
        // identically.
        let n = 500;
        let mut t = Vec::new();
        for i in 0..n {
            for d in 0..8usize {
                if i + d < n {
                    t.push((i, i + d, 1.0 + d as f64));
                }
            }
        }
        let coo = Coo::from_triplets(n, n, t).unwrap();
        let csr = coo.to_csr();
        let grouped = Dcsr::from_csr(&csr, &DcsrOptions::default());
        let plain = Dcsr::from_csr(&csr, &DcsrOptions::ungrouped());
        assert_eq!(grouped.to_csr().unwrap(), plain.to_csr().unwrap());
        // A run header costs 2 bytes per run; with 8-element runs the
        // grouped stream is at most ~25% larger and typically similar.
        let ratio = grouped.stream().len() as f64 / plain.stream().len() as f64;
        assert!(ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn compresses_versus_csr_indices() {
        let n = 2000;
        let mut t = Vec::new();
        for i in 0..n {
            for d in [0usize, 1, 2, 5, 9] {
                if i + d < n {
                    t.push((i, i + d, 1.0));
                }
            }
        }
        let coo = Coo::from_triplets(n, n, t).unwrap();
        let d = Dcsr::from_csr(&coo.to_csr(), &DcsrOptions::default());
        let report = d.size_report();
        assert!(report.reduction() > 0.15, "reduction {}", report.reduction());
    }

    #[test]
    fn empty_matrix() {
        let coo: Coo<f64> = Coo::new(3, 3);
        let d = Dcsr::from_csr(&coo.to_csr(), &DcsrOptions::default());
        assert!(d.stream().is_empty());
        let mut y = vec![1.0; 3];
        d.spmv(&[1.0; 3], &mut y);
        assert_eq!(y, vec![0.0; 3]);
    }
}
