//! CSR → CSR-VI construction: hash-based value deduplication.
//!
//! From [`PARALLEL_ENCODE_MIN_NNZ`](crate::PARALLEL_ENCODE_MIN_NNZ)
//! non-zeros on, the dedup and the `row_ptr`/`col_ind` copies run on
//! near-equal ranges, one per available CPU (see `crate::encode_parts`),
//! and produce the same table, ids and id width as one range does. Only
//! the per-range first-occurrence tables are allocated on the workers;
//! they are dropped before the encode returns.

use super::{CsrVi, ValInd};
use crate::csr::Csr;
use crate::encode_parts;
use crate::index::SpIndex;
use crate::scalar::Scalar;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Deduplicates a value array by *canonical* bit pattern, returning the
/// unique-value table (first-occurrence order) and the width-narrowed
/// per-element indices. Shared by CSR-VI and CSR-DU-VI construction.
///
/// Canonicalization rules:
///
/// * Distinct bit patterns are distinct values — in particular `-0.0` and
///   `+0.0` stay separate (conflating them would change results:
///   `1.0 / -0.0 == -inf`), exactly what a byte-level compressor would do.
/// * **Except** NaNs: every NaN, regardless of payload bits, maps to one
///   canonical NaN table slot. Arithmetic cannot distinguish NaN payloads
///   (any NaN operand yields NaN), but an adversarial or bit-rotted input
///   with per-element NaN payloads would otherwise explode the unique
///   table to `nnz` entries and destroy the format's entire premise.
///
/// Two passes, each probing the table once per *run* of equal canonical
/// values: the first assigns ids in first-occurrence order, which fixes
/// `uv` and with it the id width (§V: `uv ≤ 2^8` → u8, `≤ 2^16` → u16,
/// else u32); the second writes every id straight at that width. The
/// table hashes with [`KeyedFold`], keyed per call.
///
/// Both passes run on `parts` near-equal ranges of `values` at once. The
/// first builds one first-occurrence table per range; merged in range
/// order, they give the global first-occurrence order, so the first
/// range's table extended by each later range's new values, in order, is
/// the one-range table. The second pass writes each range's ids into its
/// own slice of the output.
pub(crate) fn dedup_values<V: Scalar>(values: &[V], parts: usize) -> (Vec<V>, ValInd) {
    let hasher = KeyedFold::new();
    let bounds = encode_parts::even_bounds(values.len(), parts);
    let ranges: Vec<&[V]> = bounds.windows(2).map(|w| &values[w[0]..w[1]]).collect();
    let mut firsts =
        encode_parts::run(ranges, |range| first_occurrences(range, hasher)).into_iter();
    let (mut table, mut vals_unique) = firsts.next().expect("at least one range");
    for (_, range_unique) in firsts {
        for v in range_unique {
            let next_id = u32::try_from(vals_unique.len())
                .expect("more than 2^32 unique values cannot be indexed");
            table.entry(v.to_bits()).or_insert_with(|| {
                vals_unique.push(v);
                next_id
            });
        }
    }

    // Every id is < uv, so the narrowing casts are lossless by the branch
    // condition.
    let uv = vals_unique.len();
    let val_ind = if uv <= (1 << 8) {
        ValInd::U8(ids(values, &bounds, &table, |id| id as u8))
    } else if uv <= (1 << 16) {
        ValInd::U16(ids(values, &bounds, &table, |id| id as u16))
    } else {
        ValInd::U32(ids(values, &bounds, &table, |id| id))
    };
    (vals_unique, val_ind)
}

/// `v`, or the one canonical NaN if `v` is a NaN of any payload.
fn canonical<V: Scalar>(v: V) -> V {
    if v.to_f64().is_nan() {
        V::from_f64(f64::NAN)
    } else {
        v
    }
}

/// The first-occurrence table of `values` (canonical bit pattern → id,
/// ids in order of first occurrence) and its canonical values in that
/// order, probing the table once per run of equal canonical values.
fn first_occurrences<V: Scalar>(
    values: &[V],
    hasher: KeyedFold,
) -> (HashMap<V::Bits, u32, KeyedFold>, Vec<V>) {
    let mut table: HashMap<V::Bits, u32, KeyedFold> = HashMap::with_hasher(hasher);
    let mut unique: Vec<V> = Vec::new();
    let mut prev = None;
    for &v in values {
        let v = canonical(v);
        let bits = v.to_bits();
        if prev == Some(bits) {
            continue;
        }
        prev = Some(bits);
        // Matrices with more than 2^32 distinct values are not supported
        // (they could not profit from CSR-VI anyway).
        let next_id =
            u32::try_from(unique.len()).expect("more than 2^32 unique values cannot be indexed");
        table.entry(bits).or_insert_with(|| {
            unique.push(v);
            next_id
        });
    }
    (table, unique)
}

/// The id of every element of `values`, stored through `narrow`. One
/// range (`bounds` of length 2) is collected on the calling thread; more
/// each write their ids into their own slice of an output the calling
/// thread allocated.
fn ids<V: Scalar, T: Copy + Default + Send>(
    values: &[V],
    bounds: &[usize],
    table: &HashMap<V::Bits, u32, KeyedFold>,
    narrow: impl Fn(u32) -> T + Sync,
) -> Vec<T> {
    if bounds.len() <= 2 {
        return range_ids(values, table, &narrow).collect();
    }
    let mut out = vec![T::default(); values.len()];
    let items: Vec<_> =
        encode_parts::split_mut(&mut out, bounds).into_iter().zip(bounds.windows(2)).collect();
    encode_parts::run(items, |(dst, w)| {
        for (slot, id) in dst.iter_mut().zip(range_ids(&values[w[0]..w[1]], table, &narrow)) {
            *slot = id;
        }
    });
    out
}

/// The ids of `values`, looked up once per run of equal canonical values.
fn range_ids<'a, V: Scalar, T: Copy + 'a>(
    values: &'a [V],
    table: &'a HashMap<V::Bits, u32, KeyedFold>,
    narrow: &'a impl Fn(u32) -> T,
) -> impl Iterator<Item = T> + 'a {
    let mut prev: Option<(V::Bits, T)> = None;
    values.iter().map(move |&v| {
        let bits = canonical(v).to_bits();
        match prev {
            Some((b, id)) if b == bits => id,
            _ => {
                let id = narrow(table[&bits]);
                prev = Some((bits, id));
                id
            }
        }
    })
}

/// Hash builder for the dedup table: a keyed folded multiply, seeded per
/// table from [`std::collections::hash_map::RandomState`].
///
/// Two properties matter, and each rules out a cheaper or a slower
/// choice. The hash must fold high input bits into the low bits the
/// table indexes by: integer-valued and dyadic `f64`s carry all their
/// information in the sign, exponent and top mantissa bits, so a
/// multiply-only hash (Fx-style) leaves their low bits equal and
/// degrades the table to long probe chains: deduplicating 5.4M values
/// drawn from 200 000 distinct integers took 422 s with one, 0.32 s with
/// this, on a 2-vCPU x86-64 host. And its worst case must stay bounded on crafted input, because
/// matrices arrive from files (`read_mtx`, the container readers): a
/// fixed public function lets an adversary pick values that collide, a
/// per-table random key does not. SipHash has both properties but took
/// 2.5–2.8× as long on every value set measured.
#[derive(Clone, Copy)]
pub(super) struct KeyedFold {
    key: u64,
}

impl KeyedFold {
    pub(super) fn new() -> KeyedFold {
        KeyedFold { key: std::collections::hash_map::RandomState::new().hash_one(0u64) }
    }
}

impl BuildHasher for KeyedFold {
    type Hasher = FoldHasher;
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { key: self.key, state: 0 }
    }
}

/// The 128-bit product of `a` and `b`, high half XORed into the low half.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Odd multiplier of the fold (the 64-bit golden-ratio constant).
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hasher of [`KeyedFold`]: each word is XORed with the running state and
/// the key, then folded.
pub(super) struct FoldHasher {
    key: u64,
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word ^ self.key, FOLD_MUL);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// CSR-VI of `csr`, deduplicated and copied in `parts` ranges.
pub(super) fn build<I: SpIndex, V: Scalar>(csr: &Csr<I, V>, parts: usize) -> CsrVi<I, V> {
    let (vals_unique, val_ind) = dedup_values(csr.values(), parts);
    CsrVi {
        nrows: csr.nrows(),
        ncols: csr.ncols(),
        row_ptr: encode_parts::copy(csr.row_ptr(), parts),
        col_ind: encode_parts::copy(csr.col_ind(), parts),
        vals_unique,
        val_ind: std::sync::Arc::new(val_ind),
    }
}
