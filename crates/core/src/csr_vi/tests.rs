//! CSR-VI unit tests, including the paper's Fig. 4 worked example.

use super::*;
use crate::coo::Coo;
use crate::examples::paper_matrix;
use crate::spmv::SpMv;

fn vi_paper() -> CsrVi<u32, f64> {
    CsrVi::from_csr(&paper_matrix().to_csr())
}

/// Fig. 4 of the paper: the value-indexing structure for the Fig. 1 matrix.
/// vals_unique holds each distinct value once in first-occurrence order and
/// val_ind maps every non-zero to its slot.
#[test]
fn paper_fig4() {
    let vi = vi_paper();
    // values: 5.4 1.1 6.3 7.7 8.8 1.1 2.9 3.7 2.9 9.0 1.1 4.5 1.1 2.9 3.7 1.1
    assert_eq!(vi.vals_unique(), &[5.4, 1.1, 6.3, 7.7, 8.8, 2.9, 3.7, 9.0, 4.5]);
    assert_eq!(vi.unique_values(), 9);
    let ind: Vec<usize> = (0..16).map(|j| vi.val_ind().get(j)).collect();
    assert_eq!(ind, vec![0, 1, 2, 3, 4, 1, 5, 6, 5, 7, 1, 8, 1, 5, 6, 1]);
    // 9 unique values fit in u8 indices.
    assert_eq!(vi.val_ind().width_bytes(), 1);
}

#[test]
fn roundtrip_paper_matrix() {
    let csr = paper_matrix().to_csr();
    let vi = CsrVi::from_csr(&csr);
    assert_eq!(vi.to_csr().unwrap(), csr);
}

#[test]
fn spmv_matches_csr_bit_exact() {
    let csr = paper_matrix().to_csr();
    let vi = CsrVi::from_csr(&csr);
    let x: Vec<f64> = (0..6).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut y0 = vec![0.0; 6];
    let mut y1 = vec![1.0; 6];
    csr.spmv(&x, &mut y0);
    vi.spmv(&x, &mut y1);
    assert_eq!(y0, y1);
}

#[test]
fn ttu_and_profitability() {
    let vi = vi_paper();
    assert!((vi.ttu() - 16.0 / 9.0).abs() < 1e-12);
    assert!(!vi.is_profitable(), "ttu {} <= 5 must not be profitable", vi.ttu());

    // A matrix with 2 unique values over 100 nnz: ttu = 50 > 5.
    let coo = Coo::from_triplets(
        10,
        10,
        (0..100).map(|k| (k / 10, k % 10, if k % 2 == 0 { 1.0 } else { 2.0 })),
    )
    .unwrap();
    let vi = CsrVi::from_csr(&coo.to_csr());
    assert_eq!(vi.unique_values(), 2);
    assert!(vi.is_profitable());
}

#[test]
fn width_escalates_with_unique_count() {
    // 300 unique values -> u16 indices.
    let coo = Coo::from_triplets(1, 300, (0..300).map(|c| (0usize, c, c as f64))).unwrap();
    let vi = CsrVi::from_csr(&coo.to_csr());
    assert_eq!(vi.unique_values(), 300);
    assert_eq!(vi.val_ind().width_bytes(), 2);
    assert_eq!(vi.to_csr().unwrap(), coo.to_csr());
}

#[test]
fn exactly_256_unique_values_stay_u8() {
    let coo = Coo::from_triplets(1, 256, (0..256).map(|c| (0usize, c, c as f64))).unwrap();
    let vi = CsrVi::from_csr(&coo.to_csr());
    assert_eq!(vi.unique_values(), 256);
    assert_eq!(vi.val_ind().width_bytes(), 1, "256 values are addressable by u8");
}

#[test]
fn zero_and_negative_zero_are_distinct() {
    let coo = Coo::from_triplets(1, 2, vec![(0, 0, 0.0), (0, 1, -0.0)]).unwrap();
    let vi = CsrVi::from_csr(&coo.to_csr());
    assert_eq!(vi.unique_values(), 2);
}

#[test]
fn size_reduction_with_few_values() {
    // 100k nnz, 3 unique values: value data shrinks 8B -> 1B per element.
    let coo = Coo::from_triplets(
        1000,
        1000,
        (0..100_000).map(|k| (k / 100, (k * 17 + k / 100) % 1000, [1.0, 2.0, 3.0][k % 3])),
    )
    .unwrap();
    let mut c = coo;
    c.canonicalize();
    let csr = c.to_csr();
    let vi = CsrVi::from_csr(&csr);
    let report = vi.size_report();
    // CSR: 12 B/nnz (+row_ptr); CSR-VI: 5 B/nnz (+row_ptr +table).
    assert!(report.reduction() > 0.5, "reduction {}", report.reduction());
    assert!(vi.size_bytes() < csr.size_bytes());
}

#[test]
fn spmv_rows_partitioned_matches_full() {
    let csr = paper_matrix().to_csr();
    let vi = CsrVi::from_csr(&csr);
    let x = vec![0.5; 6];
    let mut y_full = vec![0.0; 6];
    vi.spmv(&x, &mut y_full);
    let mut y_parts = vec![9.0; 6];
    vi.spmv_rows(0, 2, &x, &mut y_parts);
    vi.spmv_rows(2, 5, &x, &mut y_parts);
    vi.spmv_rows(5, 6, &x, &mut y_parts);
    assert_eq!(y_parts, y_full);
}

#[test]
fn empty_matrix() {
    let coo: Coo<f64> = Coo::new(3, 3);
    let vi = CsrVi::from_csr(&coo.to_csr());
    assert_eq!(vi.nnz(), 0);
    assert_eq!(vi.unique_values(), 0);
    assert_eq!(vi.ttu(), 0.0);
    let mut y = vec![5.0; 3];
    vi.spmv(&[1.0; 3], &mut y);
    assert_eq!(y, vec![0.0; 3]);
}

#[test]
fn u16_structure_indices_supported() {
    let coo = paper_matrix();
    let csr = coo.to_csr_with_index::<u16>().unwrap();
    let vi = CsrVi::from_csr(&csr);
    let mut y = vec![0.0; 6];
    let mut y_ref = vec![0.0; 6];
    vi.spmv(&[1.0; 6], &mut y);
    coo.spmv_reference(&[1.0; 6], &mut y_ref);
    assert_eq!(y, y_ref);
}

// ---------------------------------------------------------------------
// Canonical-bit-pattern deduplication pins (untrusted-input hardening):
// NaN payloads must not explode the unique table, and -0.0/+0.0 must not
// be conflated into a result-changing value.
// ---------------------------------------------------------------------

#[test]
fn nan_payloads_collapse_to_one_table_slot() {
    // 100 NaNs with distinct payload bits plus one real value. Without
    // canonicalization the unique table would hold 101 entries.
    let n = 100usize;
    let triplets: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (0usize, i, f64::from_bits(0x7FF8_0000_0000_0001 + i as u64)))
        .chain(std::iter::once((0usize, n, 2.5)))
        .collect();
    assert!(triplets.iter().take(n).all(|(_, _, v)| v.is_nan()));
    let csr: Csr<u32, f64> = Coo::from_triplets(1, n + 1, triplets).unwrap().to_csr();
    let vi = CsrVi::from_csr(&csr);
    assert_eq!(vi.unique_values(), 2, "all NaNs must share one canonical slot");
    // Every NaN element reconstructs as (some) NaN; the real value survives.
    let back = vi.to_csr().unwrap();
    assert!(back.values()[..n].iter().all(|v| v.is_nan()));
    assert_eq!(back.values()[n], 2.5);
    // The combined format uses the same dedup.
    let duvi = crate::csr_duvi::CsrDuVi::from_csr(&csr, &crate::csr_du::DuOptions::default());
    assert_eq!(duvi.unique_values(), 2);
}

#[test]
fn signed_zeros_stay_distinct() {
    let csr: Csr<u32, f64> =
        Coo::from_triplets(1, 2, vec![(0usize, 0usize, 0.0f64), (0, 1, -0.0)]).unwrap().to_csr();
    let vi = CsrVi::from_csr(&csr);
    assert_eq!(vi.unique_values(), 2, "-0.0 and +0.0 are different bit patterns");
    let back = vi.to_csr().unwrap();
    assert!(back.values()[0].is_sign_positive());
    assert!(back.values()[1].is_sign_negative());
    // The distinction is observable in arithmetic: 1/x differs.
    assert_eq!(1.0 / back.values()[0], f64::INFINITY);
    assert_eq!(1.0 / back.values()[1], f64::NEG_INFINITY);
}

#[test]
fn nan_spmv_still_propagates() {
    // A NaN entry must still poison exactly the rows it touches.
    let csr: Csr<u32, f64> =
        Coo::from_triplets(2, 2, vec![(0usize, 0usize, f64::NAN), (1, 1, 3.0)]).unwrap().to_csr();
    let vi = CsrVi::from_csr(&csr);
    let mut y = vec![0.0; 2];
    vi.spmv(&[1.0, 1.0], &mut y);
    assert!(y[0].is_nan());
    assert_eq!(y[1], 3.0);
}

// ---------------------------------------------------------------------
// Dedup on hostile and boundary inputs
// ---------------------------------------------------------------------

/// `values` deduplicated, with the reference ids every element must get:
/// its value's first-occurrence rank (NaNs sharing one slot).
fn dedup_with_ranks(values: &[f64]) -> (Vec<f64>, ValInd, Vec<usize>) {
    let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let canonical = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
    let ranks = values
        .iter()
        .map(|&v| {
            let next = seen.len();
            *seen.entry(canonical(v)).or_insert(next)
        })
        .collect();
    let (table, ind) = build::dedup_values(values, 1);
    (table, ind, ranks)
}

#[test]
fn id_width_turns_at_65_536_distinct_values() {
    for (distinct, width) in [(65_536usize, 2usize), (65_537, 4)] {
        // Every value twice, the second pass in reverse order.
        let values: Vec<f64> =
            (0..distinct).chain((0..distinct).rev()).map(|i| i as f64 * 0.25 - 7.0).collect();
        let (table, ind, ranks) = dedup_with_ranks(&values);
        assert_eq!(table.len(), distinct);
        assert_eq!(ind.width_bytes(), width, "{distinct} distinct values");
        assert!((0..values.len()).all(|j| ind.get(j) == ranks[j]), "{distinct}: ids");
    }
}

#[test]
fn distinct_integers_dedup_in_first_occurrence_order() {
    // Integer-valued f64s carry all their information in the high bits;
    // a hash that does not fold them into the low bits the table indexes
    // by turns this fraction of a second into minutes.
    let n = 200_000u64;
    let scrambled = |i: u64| ((i * 7_919) % n) as f64;
    let values: Vec<f64> =
        (0..n).map(scrambled).chain((0..n).map(|i| (n - 1 - i) as f64)).collect();
    let (table, ind, ranks) = dedup_with_ranks(&values);
    assert_eq!(table.len(), n as usize);
    assert!(table.iter().enumerate().all(|(i, &v)| v == scrambled(i as u64)), "table order");
    assert_eq!(ind.width_bytes(), 4);
    assert!((0..values.len()).all(|j| ind.get(j) == ranks[j]), "ids");
}

#[test]
fn keyed_fold_spreads_integer_values_over_the_low_bits() {
    // The table indexes by the low bits of the hash: 2^16 integer-valued
    // f64s (all-zero low mantissa bits) must land on most of the 2^16
    // low-16-bit buckets, for any key. A uniform hash fills 1 - 1/e of
    // them; a multiply-only hash fills one.
    use std::hash::BuildHasher;
    let hasher = build::KeyedFold::new();
    let mut hit = vec![false; 1 << 16];
    for i in 0..1u64 << 16 {
        hit[(hasher.hash_one((i as f64).to_bits()) & 0xffff) as usize] = true;
    }
    let filled = hit.iter().filter(|&&h| h).count();
    assert!(filled > 30_000, "only {filled} of 65536 low-bit buckets used");
}

#[test]
fn nan_runs_with_different_payloads_share_one_slot() {
    // Runs of NaNs, each element with its own payload, between runs of
    // real values: the run skipping must not split or duplicate the slot.
    let nan = |p: u64| f64::from_bits(0x7FF8_0000_0000_0000 | p);
    let mut values = Vec::new();
    for run in 0..50u64 {
        values.extend((0..(1 + run % 9)).map(|i| nan(run * 100 + i + 1)));
        values.extend([1.5, 1.5, -2.0]);
        values.push(f64::from_bits(0xFFF0_0000_0000_0001 + run)); // negative signalling NaNs
    }
    let (table, ind, ranks) = dedup_with_ranks(&values);
    assert_eq!(table.len(), 3, "one NaN slot and two real values");
    assert!(table[0].is_nan());
    assert!((0..values.len()).all(|j| ind.get(j) == ranks[j]), "ids");
}

#[test]
fn alternating_signed_zero_runs_keep_two_slots() {
    let mut values = Vec::new();
    for run in 0..40usize {
        let z = if run % 2 == 0 { -0.0 } else { 0.0 };
        values.resize(values.len() + 1 + run % 6, z);
    }
    let (table, ind, ranks) = dedup_with_ranks(&values);
    assert_eq!(table.len(), 2);
    assert!(table[0].is_sign_negative() && table[1].is_sign_positive());
    assert!((0..values.len()).all(|j| ind.get(j) == ranks[j]), "ids");
    assert!((0..values.len()).all(|j| table[ind.get(j)].to_bits() == values[j].to_bits()));
}
