//! Construction identity: every encoding and every ctl-stream split of
//! three corpus matrices hashes to a pinned digest. The pinned values
//! were taken from the builders before they were rewritten for speed
//! (header-only splits, width-direct value dedup, the values-free
//! CSR-DU-VI encode), so any byte the kernels would read differently —
//! a ctl byte, a value bit, a table entry, an id, its width, or a split
//! boundary — changes a digest. Two matrices above
//! `PARALLEL_ENCODE_MIN_NNZ` are pinned the same way, with digests taken
//! before the encoders split their scan across CPUs; with more than one
//! CPU available they take the split path, with one (`taskset -c 0`) the
//! one-part scan, and both must hash the same.
//!
//! The encoders' explicit part counts are checked too: split into 2, 3
//! and 7 parts, every encoding of the corpus at a small scale and of
//! inputs crafted against the cuts (empty rows at a cut, a row holding
//! most non-zeros, NaN payloads and signed zeros across a cut, unique
//! counts that cross an id width only once the parts' tables merge, wide
//! deltas at a cut) is byte-identical to the one-part scan.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spmv_core::csr_du::{CsrDu, DuOptions, DuSplit};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::{CsrVi, ValInd};
use spmv_core::{Csr, PARALLEL_ENCODE_MIN_NNZ};

/// Split counts the digests cover: the service's chunkings and uneven
/// ones.
const PARTS: [usize; 7] = [1, 2, 3, 4, 7, 8, 16];

/// 64-bit FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }
}

fn hash_splits(h: &mut Fnv, splits: &[DuSplit]) {
    h.word(splits.len() as u64);
    for s in splits {
        let r = s.ctl_range();
        h.words(
            [r.start, r.end, s.val_start(), s.row_start(), s.row_end(), s.row_wrap_base(), s.nnz()]
                .map(|v| v as u64),
        );
    }
}

fn hash_val_ind(h: &mut Fnv, ind: &ValInd) {
    h.word(ind.width_bytes() as u64);
    match ind {
        ValInd::U8(v) => h.bytes(v),
        ValInd::U16(v) => h.words(v.iter().map(|&i| u64::from(i))),
        ValInd::U32(v) => h.words(v.iter().map(|&i| u64::from(i))),
    }
}

/// `[CSR-DU, CSR-DU with SEQ units, CSR-VI, CSR-DU-VI]` digests of `csr`.
fn digests(csr: &Csr<u32, f64>) -> [u64; 4] {
    let du_digest = |opts: &DuOptions| {
        let du = CsrDu::from_csr(csr, opts);
        let mut h = Fnv::new();
        h.word(du.units() as u64);
        h.bytes(du.ctl());
        h.words(du.values().iter().map(|v| v.to_bits()));
        for n in PARTS {
            hash_splits(&mut h, &du.splits(n));
        }
        h.0
    };

    let vi = CsrVi::from_csr(csr);
    let mut h = Fnv::new();
    h.words(vi.row_ptr().iter().map(|&p| u64::from(p)));
    h.words(vi.col_ind().iter().map(|&c| u64::from(c)));
    h.words(vi.vals_unique().iter().map(|v| v.to_bits()));
    hash_val_ind(&mut h, vi.val_ind());
    let vi_digest = h.0;

    let duvi = CsrDuVi::from_csr(csr, &DuOptions::default());
    let mut h = Fnv::new();
    h.word(duvi.units() as u64);
    h.bytes(duvi.ctl());
    h.words(duvi.vals_unique().iter().map(|v| v.to_bits()));
    hash_val_ind(&mut h, duvi.val_ind());
    for n in PARTS {
        hash_splits(&mut h, &duvi.splits(n));
    }

    [du_digest(&DuOptions::default()), du_digest(&DuOptions::with_seq()), vi_digest, h.0]
}

#[test]
fn corpus_constructions_match_pinned_digests() {
    // (id, [CSR-DU, CSR-DU seq, CSR-VI, CSR-DU-VI]) at corpus scale 0.08.
    let pinned: [(u32, [u64; 4]); 3] = [
        (
            26,
            [
                0x95a1_1f34_7d06_bd62,
                0x9e78_254b_4db7_613f,
                0xb33f_25f8_a50b_3311,
                0x0dcf_1db3_bde4_a0c0,
            ],
        ),
        (
            27,
            [
                0x3b8d_bf23_57fb_6897,
                0xb80c_cb7a_ea21_ea89,
                0xb9e0_a288_8e73_13dd,
                0x216a_a881_e8f1_cd10,
            ],
        ),
        (
            79,
            [
                0x3038_5324_bddd_8f3b,
                0x3038_5324_bddd_8f3b,
                0x1948_e874_5193_05c6,
                0xa138_4db7_9a21_13ca,
            ],
        ),
    ];
    let corpus = spmv_matgen::corpus::corpus_scaled(0.08);
    let mut got = Vec::new();
    for (id, _) in pinned {
        let entry = corpus.iter().find(|e| e.id == id).expect("corpus ids run 1..=100");
        got.push((id, digests(&entry.build().to_csr())));
    }
    for ((id, want), (_, have)) in pinned.iter().zip(&got) {
        assert_eq!(
            have.map(|d| format!("{d:#018x}")),
            want.map(|d| format!("{d:#018x}")),
            "id {id}: [CSR-DU, CSR-DU seq, CSR-VI, CSR-DU-VI] digests; all: {got:x?}"
        );
    }
}

#[test]
fn large_constructions_match_pinned_digests() {
    // (id, [CSR-DU, CSR-DU seq, CSR-VI, CSR-DU-VI]) at corpus scale 0.5:
    // 1.34M non-zeros with 139 distinct values (u8 ids), and 1.06M all
    // distinct (u32 ids).
    let pinned: [(u32, [u64; 4]); 2] = [
        (
            51,
            [
                0x6542_0a06_ac25_67dd,
                0x6542_0a06_ac25_67dd,
                0x29e1_d614_ac6d_c274,
                0xc43d_bfcb_9905_f750,
            ],
        ),
        (
            59,
            [
                0xe038_36d3_ef4e_9d06,
                0xe038_36d3_ef4e_9d06,
                0xa866_7d8b_28e4_bc70,
                0x87d7_7eeb_572f_afb8,
            ],
        ),
    ];
    let corpus = spmv_matgen::corpus::corpus_scaled(0.5);
    let mut got = Vec::new();
    for (id, _) in pinned {
        let entry = corpus.iter().find(|e| e.id == id).expect("corpus ids run 1..=100");
        let csr = entry.build().to_csr();
        assert!(csr.nnz() >= PARALLEL_ENCODE_MIN_NNZ, "id {id}: {} nnz", csr.nnz());
        got.push((id, digests(&csr)));
    }
    for ((id, want), (_, have)) in pinned.iter().zip(&got) {
        assert_eq!(
            have.map(|d| format!("{d:#018x}")),
            want.map(|d| format!("{d:#018x}")),
            "id {id}: [CSR-DU, CSR-DU seq, CSR-VI, CSR-DU-VI] digests; all: {got:x?}"
        );
    }
}

/// Part counts checked against the one-part scan.
const SPLIT_PARTS: [usize; 3] = [2, 3, 7];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts that every encoding of `csr`, built in each of
/// [`SPLIT_PARTS`] parts, is byte-identical to the one-part build: ctl
/// stream, unit count, values, unique table, ids and id width.
fn assert_parts_identical(what: &str, csr: &Csr<u32, f64>) {
    for opts in [DuOptions::default(), DuOptions::with_seq()] {
        let one = CsrDu::from_csr_in_parts(csr, &opts, 1);
        for parts in SPLIT_PARTS {
            let du = CsrDu::from_csr_in_parts(csr, &opts, parts);
            let at = format!("{what}: CSR-DU in {parts} parts, seq {}", opts.enable_seq);
            assert_eq!(du.ctl(), one.ctl(), "{at}: ctl");
            assert_eq!(du.units(), one.units(), "{at}: units");
            assert_eq!(bits(du.values()), bits(one.values()), "{at}: values");
        }
    }
    let one = CsrVi::from_csr_in_parts(csr, 1);
    for parts in SPLIT_PARTS {
        let vi = CsrVi::from_csr_in_parts(csr, parts);
        let at = format!("{what}: CSR-VI in {parts} parts");
        assert_eq!(vi.row_ptr(), one.row_ptr(), "{at}: row_ptr");
        assert_eq!(vi.col_ind(), one.col_ind(), "{at}: col_ind");
        assert_eq!(bits(vi.vals_unique()), bits(one.vals_unique()), "{at}: unique table");
        assert_eq!(vi.val_ind(), one.val_ind(), "{at}: ids and id width");
    }
    let opts = DuOptions::default();
    let one = CsrDuVi::from_csr_in_parts(csr, &opts, 1);
    for parts in SPLIT_PARTS {
        let duvi = CsrDuVi::from_csr_in_parts(csr, &opts, parts);
        let at = format!("{what}: CSR-DU-VI in {parts} parts");
        assert_eq!(duvi.ctl(), one.ctl(), "{at}: ctl");
        assert_eq!(duvi.units(), one.units(), "{at}: units");
        assert_eq!(bits(duvi.vals_unique()), bits(one.vals_unique()), "{at}: unique table");
        assert_eq!(duvi.val_ind(), one.val_ind(), "{at}: ids and id width");
    }
}

/// The CSR matrix whose row `r` holds the `(column, value)` pairs
/// `rows[r]`, columns ascending.
fn from_rows(ncols: usize, rows: &[Vec<(u32, f64)>]) -> Csr<u32, f64> {
    let mut row_ptr = vec![0u32];
    let (mut col_ind, mut values) = (Vec::new(), Vec::new());
    for row in rows {
        for &(c, v) in row {
            col_ind.push(c);
            values.push(v);
        }
        row_ptr.push(col_ind.len() as u32);
    }
    Csr::from_raw_parts(rows.len(), ncols, row_ptr, col_ind, values).expect("valid CSR")
}

/// A row of `len` non-zeros: columns from `start`, `gap` apart, values
/// from `value(k)` for the row's `k`-th non-zero.
fn row(start: u32, len: u32, gap: u32, value: impl Fn(u32) -> f64) -> Vec<(u32, f64)> {
    (0..len).map(|k| (start + k * gap, value(k))).collect()
}

#[test]
fn corpus_encodes_are_identical_in_every_part_count() {
    for entry in spmv_matgen::corpus::corpus_scaled(0.005) {
        assert_parts_identical(&entry.name, &entry.build().to_csr());
    }
}

#[test]
fn empty_rows_at_and_around_cuts_keep_their_row_jumps() {
    let full = |r: u32| row(r % 5, 3, 2, |k| f64::from(k + r));
    // Two parts cut at row 1, which is empty; three leave a middle part
    // of empty rows only, whose jump the last row carries.
    let rows = vec![full(0), vec![], vec![], full(3)];
    assert_parts_identical("a cut on an empty row", &from_rows(8, &rows));
    let rows = vec![full(0), vec![], vec![], vec![], vec![], full(5), vec![], full(7)];
    assert_parts_identical("empty rows around the cuts", &from_rows(8, &rows));
    // Runs of empty rows of every length, wherever the cuts land.
    let mut rng = StdRng::seed_from_u64(1);
    let rows: Vec<_> = (0..3_000u32)
        .map(|_| match rng.random_range(0..4u32) {
            0 | 1 => vec![],
            _ => row(
                rng.random_range(0..100u32),
                1 + rng.random_range(0..30u32),
                1 + rng.random_range(0..60u32),
                |k| f64::from(k % 9),
            ),
        })
        .enumerate()
        .map(|(r, cols)| if r % 997 == 0 { vec![] } else { cols })
        .collect();
    assert_parts_identical("random empty-row runs", &from_rows(2_000, &rows));
}

#[test]
fn leading_and_trailing_empty_rows_stay_outside_the_units() {
    let mut rows = vec![vec![]; 50];
    rows.extend((0..100).map(|r| row(r % 7, 5, 3, f64::from)));
    rows.extend(vec![vec![]; 50]);
    assert_parts_identical("leading and trailing empty rows", &from_rows(32, &rows));
    assert_parts_identical("no non-zeros", &from_rows(4, &vec![vec![]; 9]));
    assert_parts_identical("no rows", &from_rows(4, &[]));
}

#[test]
fn one_row_holding_most_nonzeros_leaves_parts_empty() {
    let mut rows: Vec<_> = (0..100).map(|r| row(r % 11, 1, 1, |_| 2.5)).collect();
    rows[5] = row(0, 5_000, 1, |k| f64::from(k % 13));
    rows[6] = vec![];
    assert_parts_identical("one heavy row", &from_rows(5_000, &rows));
    let heavy_last = vec![row(0, 2, 1, |_| 1.0), vec![], row(3, 4_000, 1, |k| f64::from(k % 3))];
    assert_parts_identical("a heavy last row", &from_rows(5_000, &heavy_last));
}

#[test]
fn nan_payloads_and_signed_zeros_across_cuts_dedup_alike() {
    // Runs of seven equal bit patterns over NaNs of several payloads and
    // signs, both zeros and two numbers, so runs and first occurrences
    // straddle every cut.
    let patterns = [
        0x7ff8_0000_0000_0001,
        0.0f64.to_bits(),
        (-0.0f64).to_bits(),
        0xfff8_0000_0000_00ab,
        1.5f64.to_bits(),
        0x7ff0_0000_0000_0002,
        (-0.0f64).to_bits(),
        0x7ff8_dead_beef_0000,
        (-3.0f64).to_bits(),
    ];
    let value = |j: u32| f64::from_bits(patterns[(j / 7) as usize % patterns.len()]);
    let rows: Vec<_> = (0..120u32).map(|r| row(r % 4, 9, 1, |k| value(r * 9 + k))).collect();
    let csr = from_rows(16, &rows);
    assert_parts_identical("NaNs and signed zeros", &csr);
    let vi = CsrVi::from_csr_in_parts(&csr, 3);
    assert_eq!(vi.unique_values(), 5, "one NaN slot, two zeros, two numbers");
}

#[test]
fn unique_counts_cross_an_id_width_only_once_the_tables_merge() {
    // Each half of the values holds `per_half` distinct values of its
    // own, few enough for the narrower width; together they need the
    // wider one.
    for (per_half, width) in [(200u32, 2usize), (40_000, 4)] {
        let half = |base: u32| {
            (0..per_half).map(move |i| row(i % 5, 2, 1, move |_| f64::from(base + i) * 0.5 + 1.0))
        };
        let rows: Vec<_> = half(0).chain(half(per_half)).collect();
        let csr = from_rows(8, &rows);
        assert_parts_identical(&format!("{per_half} + {per_half} distinct values"), &csr);
        let vi = CsrVi::from_csr_in_parts(&csr, 2);
        assert_eq!(vi.unique_values(), 2 * per_half as usize);
        assert_eq!(vi.val_ind().width_bytes(), width, "{per_half} + {per_half}");
    }
}

#[test]
fn wide_deltas_and_sequential_runs_at_cuts_encode_alike() {
    // Rows mix u8, u16 and u32 deltas and runs of consecutive columns
    // long enough for SEQ units, in an order that puts every kind next to
    // some cut.
    let ncols = 1 << 22;
    let mut rng = StdRng::seed_from_u64(7);
    let rows: Vec<_> = (0..2_000u32)
        .map(|r| {
            let gap = [1, 3, 300, 70_000, 1, 1_000][rng.random_range(0..6usize)];
            let len = 1 + rng.random_range(0..40u32);
            let start = rng.random_range(0..1u32 << 16);
            let mut cols = row(start, len, gap, |k| f64::from((k + r) % 17));
            if r % 3 == 0 {
                let tail = cols.last().map_or(0, |&(c, _)| c + 100_000);
                cols.extend(row(tail, 12, 1, f64::from));
            }
            cols
        })
        .collect();
    assert_parts_identical("wide deltas and runs", &from_rows(ncols, &rows));
}
