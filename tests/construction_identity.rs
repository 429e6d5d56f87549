//! Construction identity: every encoding and every ctl-stream split of
//! three corpus matrices hashes to a pinned digest. The pinned values
//! were taken from the builders before they were rewritten for speed
//! (header-only splits, width-direct value dedup, the values-free
//! CSR-DU-VI encode), so any byte the kernels would read differently —
//! a ctl byte, a value bit, a table entry, an id, its width, or a split
//! boundary — changes a digest.

use spmv_core::csr_du::{CsrDu, DuOptions, DuSplit};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::{CsrVi, ValInd};
use spmv_core::Csr;

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
