//! CSR-DU unit tests, including the paper's Table I worked example.

use super::*;
use crate::coo::Coo;
use crate::examples::paper_matrix;
use crate::spmv::SpMv;

fn du_default(coo: &Coo<f64>) -> CsrDu<f64> {
    CsrDu::from_csr(&coo.to_csr(), &DuOptions::default())
}

/// Table I of the paper: the ctl structure for the Fig. 1 matrix consists of
/// six u8 units, all starting a new row, with the listed sizes, jumps and
/// delta arrays.
#[test]
fn paper_table1() {
    let du = du_default(&paper_matrix());
    assert_eq!(du.units(), 6);

    let cursor = du.cursor();
    let units: Vec<Unit> = du.cursor().collect();
    // (usize, ujmp-as-first-col, ucis deltas) from Table I:
    let expected: [(usize, usize, &[usize]); 6] = [
        (2, 0, &[1]),
        (3, 1, &[2, 2]),
        (1, 2, &[]),
        (3, 2, &[2, 1]),
        (3, 0, &[3, 1]),
        (4, 0, &[2, 1, 2]),
    ];
    for (i, (unit, (len, jmp, deltas))) in units.iter().zip(expected.iter()).enumerate() {
        assert_eq!(unit.utype, UnitType::U8, "unit {i} type");
        assert!(unit.new_row, "unit {i} starts a row");
        assert_eq!(unit.row, i, "unit {i} row");
        assert_eq!(unit.len, *len, "unit {i} usize");
        assert_eq!(unit.first_col, *jmp, "unit {i} ujmp (row-start => absolute col)");
        let cols = cursor.unit_cols(unit);
        let got_deltas: Vec<usize> = cols.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(got_deltas, *deltas, "unit {i} ucis");
    }
}

#[test]
fn roundtrip_paper_matrix() {
    let coo = paper_matrix();
    let csr = coo.to_csr();
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    assert_eq!(du.to_csr().unwrap(), csr);
}

#[test]
fn spmv_matches_csr_bit_exact() {
    let coo = paper_matrix();
    let csr = coo.to_csr();
    let du = du_default(&coo);
    let x: Vec<f64> = (0..6).map(|i| (i as f64) * 0.7 - 1.3).collect();
    let mut y_csr = vec![0.0; 6];
    let mut y_du = vec![7.7; 6]; // y is fully overwritten
    csr.spmv(&x, &mut y_csr);
    du.spmv(&x, &mut y_du);
    assert_eq!(y_du, y_csr);
}

#[test]
fn empty_rows_leading_middle_trailing() {
    // Rows 0-1 empty, row 2 has entries, rows 3-4 empty, row 5 entry,
    // rows 6-7 empty (trailing).
    let coo = Coo::from_triplets(8, 4, vec![(2, 1, 1.0), (2, 3, 2.0), (5, 0, 3.0)]).unwrap();
    let du = du_default(&coo);
    assert_eq!(du.to_csr().unwrap(), coo.to_csr());

    let x = vec![1.0; 4];
    let mut y = vec![9.0; 8];
    let mut y_ref = vec![0.0; 8];
    du.spmv(&x, &mut y);
    coo.spmv_reference(&x, &mut y_ref);
    assert_eq!(y, y_ref);
}

#[test]
fn entirely_empty_matrix() {
    let coo: Coo<f64> = Coo::new(5, 5);
    let du = du_default(&coo);
    assert_eq!(du.units(), 0);
    assert_eq!(du.ctl().len(), 0);
    let mut y = vec![3.0; 5];
    du.spmv(&[1.0; 5], &mut y);
    assert_eq!(y, vec![0.0; 5]);
}

#[test]
fn zero_dimension_matrix_rejects_nonempty_stream() {
    // One row-starting unit at row 0, column 0: valid for a 1x1 matrix,
    // but it addresses a row or column a 0-row or 0-column matrix does
    // not have (the unchecked AVX2 gather relies on columns < ncols).
    let ctl = vec![FLAG_NEW_ROW, 1, 0];
    assert!(CsrDu::from_parts_checked(1, 1, ctl.clone(), vec![1.0f64]).is_ok());
    assert!(CsrDu::from_parts_checked(1, 0, ctl.clone(), vec![1.0f64]).is_err());
    assert!(CsrDu::from_parts_checked(0, 1, ctl, vec![1.0f64]).is_err());
    assert!(CsrDu::<f64>::from_parts_checked(0, 0, Vec::new(), Vec::new()).is_ok());
}

#[test]
fn long_row_spans_multiple_units() {
    // 600 non-zeros in one row forces ceil(600/255) = 3 units; only the
    // first starts the row.
    let coo = Coo::from_triplets(1, 1200, (0..600).map(|i| (0usize, 2 * i, 1.0))).unwrap();
    let du = du_default(&coo);
    let units: Vec<Unit> = du.cursor().collect();
    assert_eq!(units.len(), 3);
    assert!(units[0].new_row);
    assert!(!units[1].new_row && !units[2].new_row);
    assert_eq!(units.iter().map(|u| u.len).sum::<usize>(), 600);
    assert!(units.iter().all(|u| u.len <= 255));
    assert_eq!(du.to_csr().unwrap(), coo.to_csr());
}

#[test]
fn wide_deltas_use_wider_units() {
    // Deltas of 300 need u16; deltas of 100_000 need u32.
    let cols: Vec<usize> = (0..20).map(|i| i * 300).collect();
    let coo = Coo::from_triplets(1, 6000, cols.iter().map(|&c| (0usize, c, 1.0))).unwrap();
    let du = du_default(&coo);
    let stats = du.stats();
    assert!(stats.nnz_by_type[UnitType::U16 as usize] > 0);
    assert_eq!(du.to_csr().unwrap(), coo.to_csr());

    let cols: Vec<usize> = (0..10).map(|i| i * 100_000).collect();
    let coo = Coo::from_triplets(1, 1_000_000, cols.iter().map(|&c| (0usize, c, 1.0))).unwrap();
    let du = du_default(&coo);
    assert!(du.stats().nnz_by_type[UnitType::U32 as usize] > 0);
    assert_eq!(du.to_csr().unwrap(), coo.to_csr());
}

#[test]
fn mixed_width_splits_units() {
    // A long run of small deltas followed by a big jump then small again:
    // the big jump should start a new unit (absorbed into its ujmp varint),
    // keeping both neighbouring units u8.
    let mut cols: Vec<usize> = (0..50).collect();
    cols.extend((0..50).map(|i| 10_000 + i));
    let coo = Coo::from_triplets(1, 20_000, cols.iter().map(|&c| (0usize, c, 1.0))).unwrap();
    let du = du_default(&coo);
    let stats = du.stats();
    assert_eq!(stats.nnz, 100);
    assert_eq!(
        stats.nnz_by_type[UnitType::U8 as usize],
        100,
        "big jump must be absorbed by a unit header, not widen deltas: {stats:?}"
    );
    assert_eq!(du.to_csr().unwrap(), coo.to_csr());
}

#[test]
fn seq_units_detected_when_enabled() {
    // A fully dense row: with seq enabled it should use Seq units and
    // store no delta bytes for them.
    let coo = Coo::from_triplets(1, 100, (0..100).map(|c| (0usize, c, 1.0))).unwrap();
    let plain = CsrDu::from_csr(&coo.to_csr(), &DuOptions::default());
    let seq = CsrDu::from_csr(&coo.to_csr(), &DuOptions::with_seq());
    assert!(seq.ctl().len() < plain.ctl().len());
    let stats = seq.stats();
    assert!(stats.nnz_by_type[UnitType::Seq as usize] >= 99 - 1);
    assert_eq!(seq.to_csr().unwrap(), coo.to_csr());

    let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let mut y0 = vec![0.0; 1];
    let mut y1 = vec![0.0; 1];
    plain.spmv(&x, &mut y0);
    seq.spmv(&x, &mut y1);
    assert_eq!(y0, y1);
}

#[test]
fn size_reduction_on_regular_matrix() {
    // A banded matrix compresses col_ind from 4 bytes/nnz to ~1.
    let n = 2000usize;
    let mut triplets = Vec::new();
    for i in 0..n {
        for d in 0..5usize {
            let j = i + d;
            if j < n {
                triplets.push((i, j, 1.0 + d as f64));
            }
        }
    }
    let coo = Coo::from_triplets(n, n, triplets).unwrap();
    let du = du_default(&coo);
    let report = du.size_report();
    assert!(report.reduction() > 0.15, "expected >15% total reduction, got {}", report.reduction());
    let stats = du.stats();
    assert!(stats.ctl_bytes_per_nnz() < 2.0, "ctl bytes/nnz = {}", stats.ctl_bytes_per_nnz());
    assert!(stats.index_compression_ratio() > 2.0);
}

#[test]
fn splits_partition_everything_exactly_once() {
    let coo = paper_matrix();
    let du = du_default(&coo);
    for nparts in 1..=8 {
        let splits = du.splits(nparts);
        assert!(!splits.is_empty() && splits.len() <= nparts);
        // Rows covered contiguously from 0 to nrows.
        assert_eq!(splits[0].row_start, 0);
        assert_eq!(splits.last().unwrap().row_end, du.nrows());
        for w in splits.windows(2) {
            assert_eq!(w[0].row_end, w[1].row_start);
            assert_eq!(w[0].ctl_range.end, w[1].ctl_range.start);
        }
        assert_eq!(splits.iter().map(|s| s.nnz).sum::<usize>(), du.nnz());
    }
}

#[test]
fn spmv_via_splits_matches_serial() {
    // Matrix with empty rows at awkward positions plus a long row.
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..40 {
        if i % 7 == 3 {
            continue; // empty row
        }
        for j in 0..(1 + (i * 13) % 17) {
            triplets.push((i, (j * 31 + i) % 500, (i + j) as f64 * 0.25 + 1.0));
        }
    }
    for j in 0..300 {
        triplets.push((40, j * 3 % 900, 0.5));
    }
    let mut coo = Coo::from_triplets(41, 1000, triplets).unwrap();
    coo.canonicalize();
    let du = du_default(&coo);

    let x: Vec<f64> = (0..1000).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut y_full = vec![0.0; 41];
    du.spmv(&x, &mut y_full);

    let isa = crate::simd::selected();
    for nparts in [1, 2, 3, 5, 8] {
        let mut y_parts = vec![42.0; 41];
        for split in du.splits(nparts) {
            let rows = split.row_start..split.row_end;
            du.spmm_split_local_isa(isa, &split, &x, 1, &mut y_parts[rows]);
        }
        assert_eq!(y_parts, y_full, "nparts={nparts}");
    }
}

#[test]
fn split_nnz_is_balanced() {
    // 10k nnz spread over 1000 rows; 4 parts should each get ~2500.
    let coo = Coo::from_triplets(1000, 1000, (0..10_000).map(|k| (k / 10, (k * 97) % 1000, 1.0)))
        .unwrap();
    let mut c = coo.clone();
    c.canonicalize();
    let du = du_default(&c);
    let splits = du.splits(4);
    assert_eq!(splits.len(), 4);
    for s in &splits {
        let frac = s.nnz as f64 / du.nnz() as f64;
        assert!((frac - 0.25).abs() < 0.05, "unbalanced split: {frac}");
    }
}

#[test]
fn options_validation() {
    let coo = paper_matrix();
    let csr = coo.to_csr();
    // max_unit smaller than rows forces many units but stays correct.
    let opts = DuOptions { max_unit: 2, ..Default::default() };
    let du = CsrDu::from_csr(&csr, &opts);
    assert!(du.units() > 6);
    assert_eq!(du.to_csr().unwrap(), csr);
}

#[test]
#[should_panic(expected = "max_unit")]
fn zero_max_unit_panics() {
    let csr = paper_matrix().to_csr();
    let _ = CsrDu::from_csr(&csr, &DuOptions { max_unit: 0, ..Default::default() });
}

#[test]
fn single_element_matrix() {
    let coo = Coo::from_triplets(1, 1, vec![(0, 0, 2.5)]).unwrap();
    let du = du_default(&coo);
    assert_eq!(du.units(), 1);
    let mut y = vec![0.0];
    du.spmv(&[2.0], &mut y);
    assert_eq!(y, vec![5.0]);
}

#[test]
fn f32_values_supported() {
    let coo = Coo::<f32>::from_triplets(2, 2, vec![(0, 1, 1.5f32), (1, 0, 2.5)]).unwrap();
    let csr = coo.to_csr_with_index::<u32>().unwrap();
    let du = CsrDu::from_csr(&csr, &DuOptions::default());
    let mut y = vec![0.0f32; 2];
    du.spmv(&[2.0, 4.0], &mut y);
    assert_eq!(y, vec![6.0, 5.0]);
}

#[test]
fn unit_type_flag_roundtrip() {
    for t in [UnitType::U8, UnitType::U16, UnitType::U32, UnitType::U64, UnitType::Seq] {
        assert_eq!(UnitType::from_flags(t as u8), t);
        assert_eq!(UnitType::from_flags(t as u8 | FLAG_NEW_ROW | FLAG_ROW_JMP), t);
    }
}

#[test]
fn stats_totals_consistent() {
    let du = du_default(&paper_matrix());
    let s = du.stats();
    assert_eq!(s.units, du.units());
    assert_eq!(s.nnz, du.nnz());
    assert_eq!(s.units_by_type.iter().sum::<usize>(), s.units);
    assert_eq!(s.nnz_by_type.iter().sum::<usize>(), s.nnz);
    assert!((s.avg_unit_len() - 16.0 / 6.0).abs() < 1e-12);
    assert_eq!(s.u8_fraction(), 1.0);
}

// ---------------------------------------------------------------------
// Header-only splits against the cursor walk
// ---------------------------------------------------------------------

/// The split walk `splits` replaced, kept as its reference: every unit
/// decoded through [`DuCursor`], with the same cut rule. `stream_id` is
/// the identity the splits are stamped with.
fn cursor_splits(
    ctl: &[u8],
    nrows: usize,
    total_nnz: usize,
    stream_id: u64,
    nparts: usize,
) -> Vec<DuSplit> {
    if total_nnz == 0 {
        return vec![DuSplit {
            ctl_range: 0..0,
            val_start: 0,
            row_start: 0,
            row_end: nrows,
            row_wrap_base: usize::MAX,
            nnz: 0,
            stream_id,
        }];
    }
    let units: Vec<Unit> = DuCursor::new(ctl).collect();
    let mut out = Vec::new();
    let (mut part_start_ctl, mut part_start_val, mut part_start_row) = (0, 0, 0);
    let mut part_wrap_base = usize::MAX;
    let (mut nnz_seen, mut part) = (0, 0);
    for (i, unit) in units.iter().enumerate() {
        nnz_seen += unit.len;
        let target = (part + 1) * total_nnz / nparts;
        let next = units.get(i + 1);
        let cuttable = next.map(|n| n.new_row).unwrap_or(true);
        if next.is_none() || (nnz_seen >= target && cuttable && part + 1 < nparts) {
            let (row_end, next_base) = match next {
                Some(n) => (n.row, n.row.wrapping_sub(1 + n.row_jmp as usize)),
                None => (nrows, 0),
            };
            out.push(DuSplit {
                ctl_range: part_start_ctl..unit.ctl_end,
                val_start: part_start_val,
                row_start: part_start_row,
                row_end,
                row_wrap_base: part_wrap_base,
                nnz: unit.val_offset + unit.len - part_start_val,
                stream_id,
            });
            part_start_ctl = unit.ctl_end;
            part_start_val = unit.val_offset + unit.len;
            part_start_row = row_end;
            part_wrap_base = next_base;
            part += 1;
        }
    }
    out
}

/// Matrices covering every path of the split walk and of both value
/// builders: empty-row runs leading, interior (one long enough for a
/// two-byte row-jump varint) and trailing; u16 and u32 deltas; rows
/// longer than a unit, so some units do not start a row; SEQ units;
/// repeated values, NaN payloads and both signed zeros; and the
/// degenerate 1×1, 0-nnz and 0-row shapes.
fn split_shapes() -> Vec<(&'static str, Csr<u32, f64>, DuOptions)> {
    let value = |r: usize, c: usize| match (r + c) % 7 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(0x7FF8_0000_0000_0000 | (r * 31 + c) as u64),
        k => k as f64 * 0.5,
    };
    let coo = |nrows, ncols, cells: Vec<(usize, usize)>| {
        let t = cells.into_iter().map(|(r, c)| (r, c, value(r, c)));
        Coo::from_triplets(nrows, ncols, t).unwrap().to_csr()
    };

    let mut empty_runs = Vec::new();
    for r in (3..40).chain(240..390) {
        for j in 0..(1 + r % 5) {
            empty_runs.push((r, (r * 7 + j * 13) % 500));
        }
    }
    empty_runs.sort_unstable();
    empty_runs.dedup();

    let mut wide = Vec::new();
    for r in 0..60 {
        wide.extend((0..4).map(|j| (r, j * 300 + r)));
        wide.extend((0..3).map(|j| (r, 2_000 + j * 100_000 + r)));
    }

    let mut long_rows = Vec::new();
    for r in 0..12 {
        if r % 4 != 1 {
            long_rows.extend((0..(100 + r * 60)).map(|j| (r, j * 2 + r % 2)));
        }
    }

    let mut runs = Vec::new();
    for r in 0..80 {
        runs.extend((0..(10 + r % 20)).map(|j| (r, r + j)));
        runs.extend([(r, 200 + r * 3), (r, 700 + r)]);
    }

    vec![
        ("empty-row runs", coo(400, 500, empty_runs), DuOptions::default()),
        ("u16/u32 deltas", coo(60, 400_000, wide.clone()), DuOptions::default()),
        ("long rows", coo(12, 1_600, long_rows), DuOptions::default()),
        ("seq units", coo(80, 900, runs), DuOptions::with_seq()),
        ("seq units, wide", coo(60, 400_000, wide), DuOptions::with_seq()),
        ("1x1", coo(1, 1, vec![(0, 0)]), DuOptions::default()),
        ("0-nnz", coo(5, 5, Vec::new()), DuOptions::default()),
        ("0-row", coo(0, 7, Vec::new()), DuOptions::default()),
    ]
}

#[test]
fn split_shapes_reach_every_walk_path() {
    let shapes = split_shapes();
    let du = |name: &str| {
        let (_, csr, opts) = shapes.iter().find(|(n, _, _)| *n == name).unwrap();
        CsrDu::from_csr(csr, opts)
    };
    let units = |name: &str| du(name).cursor().collect::<Vec<Unit>>();
    let jumps = units("empty-row runs");
    assert_eq!(jumps[0].row_jmp, 3, "leading empty rows");
    assert!(jumps.iter().any(|u| u.row_jmp >= 128), "two-byte row-jump varint");
    assert!(du("empty-row runs").nrows() > jumps.last().unwrap().row + 1, "trailing empty rows");
    let types: Vec<UnitType> = units("u16/u32 deltas").iter().map(|u| u.utype).collect();
    assert!(types.contains(&UnitType::U16) && types.contains(&UnitType::U32));
    assert!(units("long rows").iter().any(|u| !u.new_row), "units inside a row");
    assert!(units("seq units").iter().any(|u| u.utype == UnitType::Seq));
}

#[test]
fn header_splits_equal_the_cursor_walk() {
    for (name, csr, opts) in split_shapes() {
        let du = CsrDu::from_csr(&csr, &opts);
        let duvi = crate::csr_duvi::CsrDuVi::from_csr(&csr, &opts);
        // A DU-VI split carries its own matrix's stream identity.
        let duvi_stream = duvi.splits(1)[0].stream_id;
        for n in (1..=16).chain([du.units() + 1, du.units() + 9]) {
            assert_eq!(
                du.splits(n),
                cursor_splits(du.ctl(), du.nrows(), du.nnz(), du.stream_id, n),
                "{name}: CSR-DU, n = {n}"
            );
            assert_eq!(
                duvi.splits(n),
                cursor_splits(duvi.ctl(), duvi.nrows(), duvi.nnz(), duvi_stream, n),
                "{name}: CSR-DU-VI, n = {n}"
            );
        }
    }
}

#[test]
fn duvi_from_parts_equals_the_direct_encode() {
    use crate::csr_duvi::CsrDuVi;
    use crate::csr_vi::CsrVi;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, csr, opts) in split_shapes() {
        let direct = CsrDuVi::from_csr(&csr, &opts);
        let parts = CsrDuVi::from_du_vi(&CsrDu::from_csr(&csr, &opts), &CsrVi::from_csr(&csr));
        assert_eq!(parts.ctl(), direct.ctl(), "{name}: ctl");
        assert_eq!(parts.units(), direct.units(), "{name}: units");
        assert_eq!(bits(parts.vals_unique()), bits(direct.vals_unique()), "{name}: table bits");
        assert_eq!(parts.val_ind(), direct.val_ind(), "{name}: ids");
        assert_eq!(
            (parts.nrows(), parts.ncols(), parts.nnz()),
            (direct.nrows(), direct.ncols(), direct.nnz()),
            "{name}: shape"
        );
        assert!(parts.validate().is_ok(), "{name}: assembled matrix validates");
    }
}

#[test]
#[should_panic(expected = "encode different matrices")]
fn duvi_from_parts_rejects_mismatched_encodings() {
    let a = paper_matrix().to_csr();
    let b = Coo::from_triplets(6, 6, vec![(0usize, 0usize, 1.0f64)]).unwrap().to_csr();
    let _ = crate::csr_duvi::CsrDuVi::from_du_vi(
        &CsrDu::from_csr(&a, &DuOptions::default()),
        &crate::csr_vi::CsrVi::from_csr(&b),
    );
}
