//! Dependency-free CRC-32 (IEEE 802.3, polynomial `0xEDB88320`).
//!
//! Used by the binary container ([`crate::io`]) to detect corruption of
//! persisted matrices: a pre-encoded CSR-DU/CSR-VI container is a
//! long-lived artifact that crosses trust boundaries (disk, network,
//! other tenants), and a single flipped value byte would otherwise load
//! silently and poison every subsequent SpMV.
//!
//! It also keys the planner's plan cache: every planner-routed
//! registration hashes the whole matrix ([`crate::io::fingerprint_csr`]),
//! so on a multi-million-nnz matrix the checksum is on the registration's
//! critical path and its throughput matters.
//!
//! This is the ubiquitous reflected CRC-32 (zlib/gzip/PNG variant):
//! initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`. It stays
//! dependency-free per the workspace's offline build constraint.
//!
//! # Two paths, one checksum
//!
//! * **Carry-less fold.** On x86-64 CPUs with `pclmulqdq` and `sse4.1`,
//!   [`Crc32::update`] folds inputs of at least 128 bytes 64 bytes at a
//!   time: four 128-bit accumulators are each multiplied (carry-less) by
//!   a constant `x^n mod P(x)` and XORed with the next block, then folded
//!   into one and brought down to 32 bits by a Barrett reduction. This
//!   is the reflected-polynomial algorithm of Gopal et al., *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction*
//!   (Intel, 2009). It runs at about memory speed: a 68 MB fingerprint
//!   takes about 11 ms on one core of a 2-vCPU Xeon host, against about
//!   53 ms for slicing-by-8.
//! * **Slicing-by-8**, in safe code: eight table lookups retire eight
//!   input bytes per step, with a byte-at-a-time tail. It serves inputs
//!   under 128 bytes, the bytes after the fold's last 16-byte block,
//!   and other CPUs.
//!
//! Both paths compute the same CRC for every input, so every stored
//! checksum and plan-cache key is the same whichever runs; the tests
//! compare them at every length up to 1 KiB and every start offset
//! 0–15.
//!
//! [`crc32_combine`] gives `crc(A‖B)` from `crc(A)`, `crc(B)` and the
//! length of `B`, without reading either: the fingerprint hashes each
//! array once and folds its section checksum into the payload's.

/// The reflected polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Shortest input the carry-less fold takes: below it, loading and
/// reducing the four accumulators costs more than slicing-by-8.
const FOLD_MIN_LEN: usize = 128;

/// Slicing-by-8 lookup tables for the reflected polynomial `0xEDB88320`.
/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances `crc` over the eight little-endian bytes of `word`.
#[inline(always)]
fn step8(crc: u32, word: u64) -> u32 {
    let lo = word as u32 ^ crc;
    let hi = (word >> 32) as u32;
    let t = &TABLES;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Slicing-by-8 over `data`, starting from the register value `crc`.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = step8(crc, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Advances the register value `crc` over `data` on the fastest path
/// this CPU has for its length.
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_LEN && clmul::available() {
        // SAFETY: `available` checked that the CPU has pclmulqdq and sse4.1.
        return unsafe { clmul::update(crc, data) };
    }
    update_table(crc, data)
}

/// The carry-less-multiply fold (Gopal et al., 2009).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Each folding constant is `x^n mod P(x)`, bit-reflected and shifted
    // left by one, for the `n` named beside it (the test
    // `fold_constants_derive_from_the_polynomial` recomputes them).
    /// Folds an accumulator across 4·128 bits: `x^(4·128+32)`.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `x^(4·128−32)`.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// Folds across 128 bits: `x^(128+32)`.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `x^(128−32)`.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// Folds 96 bits down to 64: `x^64`.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// `P(x)`, bit-reflected, 33 bits.
    pub(super) const P_X: i64 = 0x1_DB71_0641;
    /// Barrett constant `floor(x^64 / P(x))`, bit-reflected, 33 bits.
    pub(super) const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether the CPU has the instructions [`update`] needs.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Advances the register value `crc` over `data`: the same result as
    /// slicing-by-8 for every input. Inputs under 64 bytes, and the bytes
    /// after the last whole 16-byte block, go through the tables.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        // SAFETY (every intrinsic and `fold` call below): the caller
        // guarantees pclmulqdq and sse4.1, which this function enables;
        // memory is read only through `load`, which checks its bounds.
        let mut quads = data.chunks_exact(64);
        let Some(first) = quads.next() else {
            return super::update_table(crc, data);
        };
        // Four accumulators over the first 64 bytes, the running
        // register folded into the lowest 32 bits of the first.
        let mut x = [load(first, 0), load(first, 1), load(first, 2), load(first, 3)];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for q in &mut quads {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = fold(*acc, load(q, i), k1k2);
            }
        }
        // Four accumulators into one, then the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for b in &mut blocks {
            acc = fold(acc, load(b, 0), k3k4);
        }
        // 128 bits to 64: fold the low half across 64 bits, then the low
        // 32 bits of the result across 32.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction of the reflected 64-bit remainder to 32 bits:
        // T1 = (R mod x^32)·µ, T2 = (T1 mod x^32)·P, CRC = (R ⊕ T2) / x^32.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00);
        let reg = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;
        super::update_table(reg, blocks.remainder())
    }

    /// The 16-byte block `i` of `chunk`.
    #[inline(always)]
    fn load(chunk: &[u8], i: usize) -> __m128i {
        let block = &chunk[16 * i..16 * (i + 1)];
        // SAFETY: `block` is 16 readable bytes (the slice above is
        // bounds-checked), and `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried 2·64 bits further (each half multiplied by its key)
    /// and XORed with the next block `b`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`; inlined into [`update`], which
    /// enables it.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }
}

/// `X8N[k]` is `x^(8·2^k) mod P(x)`, bit-reflected (bit 31 holds `x^0`):
/// multiplying a CRC by it moves the CRC past `2^k` zero bytes.
const X8N: [u32; 64] = build_x8n();

const fn build_x8n() -> [u32; 64] {
    let mut t = [0u32; 64];
    t[0] = 1 << (31 - 8); // x^8
    let mut k = 1;
    while k < 64 {
        t[k] = mul_mod(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
}

/// `a·b mod P(x)` for bit-reflected operands.
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `x^(8·len) mod P(x)`, bit-reflected: the factor that moves a CRC past
/// `len` bytes.
fn shift_bytes(len: u64) -> u32 {
    let mut factor = 1 << 31; // x^0
    for (k, &x8n) in X8N.iter().enumerate() {
        if (len >> k) & 1 != 0 {
            factor = mul_mod(x8n, factor);
        }
    }
    factor
}

/// CRC-32 of the concatenation `A‖B`, from `crc_a = crc32(A)`,
/// `crc_b = crc32(B)` and `len_b = B.len()`, without reading either
/// (zlib's `crc32_combine`): about 64 GF(2) multiplications at most.
///
/// ```
/// use spmv_core::crc32::{crc32, crc32_combine};
///
/// let ab = crc32_combine(crc32(b"1234"), crc32(b"56789"), 5);
/// assert_eq!(ab, crc32(b"123456789"));
/// ```
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod(shift_bytes(len_b), crc_a) ^ crc_b
}

/// Element types [`Crc32::update_words`] may read in place: plain
/// numbers with no padding, so every byte of a slice of them is
/// initialized.
pub(crate) trait Word: Copy {
    /// Little-endian bytes of one element (the slow path of big-endian
    /// targets).
    fn le_bytes(self) -> impl AsRef<[u8]>;
}

impl Word for u32 {
    fn le_bytes(self) -> impl AsRef<[u8]> {
        self.to_le_bytes()
    }
}

impl Word for u64 {
    fn le_bytes(self) -> impl AsRef<[u8]> {
        self.to_le_bytes()
    }
}

impl Word for f64 {
    fn le_bytes(self) -> impl AsRef<[u8]> {
        self.to_le_bytes()
    }
}

/// Incremental CRC-32 state, for hashing data that arrives in chunks.
///
/// ```
/// use spmv_core::crc32::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"123");
/// h.update(b"456789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Feeds the little-endian bytes of `words` — the same as `update`
    /// over each element's `to_le_bytes` in turn — reading the slice in
    /// place on little-endian targets, so typed arrays hash without
    /// being serialized first.
    pub(crate) fn update_words<W: Word>(&mut self, words: &[W]) {
        if cfg!(target_endian = "little") {
            // SAFETY: `Word` is implemented only for `u32`, `u64` and
            // `f64`, which have no padding, so all `size_of_val(words)`
            // bytes behind the pointer are initialized and borrowed for
            // as long as `words` is; `u8` needs no alignment. On a
            // little-endian target these bytes are the elements'
            // little-endian encodings, in order.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    words.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(words),
                )
            };
            self.update(bytes);
        } else {
            for &w in words {
                self.update(w.le_bytes().as_ref());
            }
        }
    }

    /// Extends the checksum over a block of `len` bytes whose own CRC-32
    /// is `crc`, without reading the block: afterwards the state is what
    /// `update(block)` would have left (see [`crc32_combine`]).
    pub fn combine(&mut self, crc: u32, len: u64) {
        self.state = !crc32_combine(self.finish(), crc, len);
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The CRC-32 "check" value and other standard vectors.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The textbook one-byte-at-a-time CRC-32, bit by bit: the reference
    /// the slicing path must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// `len` deterministic pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect()
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0, 1, 13, 4096, 9999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
        assert_eq!(crc32(&data), bytewise(&data));
        // Every length 0..=40 at every start offset 0..8: covers whole
        // 8-byte steps, every tail length, and unaligned starts.
        let noise = noise(64);
        for start in 0..8 {
            for len in 0..=40 {
                let s = &noise[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
                // Word-fed and byte-fed states agree mid-stream.
                let mut h = Crc32::new();
                h.update(&s[..len % 8]);
                let words: Vec<u64> = s[len % 8..]
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                    .collect();
                h.update_words(&words);
                assert_eq!(h.finish(), bytewise(s), "word-fed, start {start} len {len}");
            }
        }
    }

    #[test]
    fn typed_words_hash_as_their_little_endian_bytes() {
        let ints: Vec<u32> = (0..301u32).map(|i| i.wrapping_mul(0x0101_0101) ^ 0xDEAD).collect();
        let floats: Vec<f64> = (0..301).map(|i| i as f64 * -1.25e-3).collect();
        let int_bytes: Vec<u8> = ints.iter().flat_map(|v| v.to_le_bytes()).collect();
        let float_bytes: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        for n in [0, 1, 31, 32, 33, 301] {
            let mut h = Crc32::new();
            h.update_words(&ints[..n]);
            h.update_words(&floats[..n]);
            let mut want = int_bytes[..4 * n].to_vec();
            want.extend_from_slice(&float_bytes[..8 * n]);
            assert_eq!(h.finish(), bytewise(&want), "{n} elements");
        }
    }

    #[test]
    fn fold_path_equals_table_path_at_every_length_and_offset() {
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            let data = noise(1024 + 16);
            for start in 0..=15 {
                for len in 0..=1024 {
                    let s = &data[start..start + len];
                    for reg in [0xFFFF_FFFF, 0x1234_5678] {
                        // SAFETY: `available` checked the CPU features.
                        let folded = unsafe { clmul::update(reg, s) };
                        assert_eq!(folded, update_table(reg, s), "start {start} len {len}");
                    }
                }
            }
            return;
        }
        eprintln!("no pclmulqdq/sse4.1 on this CPU: only the table path runs");
    }

    #[test]
    fn splits_mixing_both_paths_match_the_oneshot_crc() {
        // Parts shorter than FOLD_MIN_LEN take the tables, longer ones the
        // fold (where the CPU has it): every pair of cut points around
        // the 128-byte cut and the 64- and 16-byte block edges.
        let data = noise(700);
        let want = bytewise(&data);
        assert_eq!(crc32(&data), want);
        let cuts = [0, 1, 15, 16, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 572, 699, 700];
        for (i, &a) in cuts.iter().enumerate() {
            for &b in &cuts[i..] {
                let mut h = Crc32::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finish(), want, "cuts at {a} and {b}");
            }
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let data = noise(5000);
        for (a, b) in
            [(0, 0), (0, 9), (9, 0), (1, 1), (3, 4096), (127, 129), (4096, 904), (5000, 0)]
        {
            let (x, y) = (&data[..a], &data[a..a + b]);
            let want = crc32(&data[..a + b]);
            assert_eq!(crc32_combine(crc32(x), crc32(y), b as u64), want, "{a} + {b}");
            let mut h = Crc32::new();
            h.update(x);
            h.combine(crc32(y), b as u64);
            assert_eq!(h.finish(), want, "{a} + {b}, in a running checksum");
        }
        // Moving past 2^k zero bytes for large k uses the top of the
        // table: compare with stepping over the zeros one length at a time.
        let zeros = vec![0u8; 1 << 16];
        assert_eq!(
            crc32_combine(crc32(b"x"), crc32(&zeros), 1 << 16),
            crc32(&[b"x", &zeros[..]].concat())
        );
    }

    #[test]
    fn fold_constants_derive_from_the_polynomial() {
        #[cfg(target_arch = "x86_64")]
        {
            // `x^n mod P(x)`, reflected, shifted left by one; n = 8·bytes.
            let k = |bytes: u64| i64::from(shift_bytes(bytes)) << 1;
            assert_eq!(clmul::K1, k((4 * 128 + 32) / 8));
            assert_eq!(clmul::K2, k((4 * 128 - 32) / 8));
            assert_eq!(clmul::K3, k((128 + 32) / 8));
            assert_eq!(clmul::K4, k((128 - 32) / 8));
            assert_eq!(clmul::K5, k(64 / 8));
            assert_eq!(clmul::P_X, (i64::from(POLY) << 1) | 1);
            // floor(x^64 / P(x)) by long division in the normal (MSB-first)
            // domain, then reflected across its 33 bits.
            let p = u128::from(POLY.reverse_bits()) | 1 << 32;
            let (mut rem, mut quot) = (1u128 << 64, 0u128);
            while rem >> 32 != 0 {
                let shift = 127 - rem.leading_zeros() - 32;
                quot |= 1 << shift;
                rem ^= p << shift;
            }
            assert_eq!(clmul::U_PRIME as u64, (quot as u64).reverse_bits() >> (64 - 33));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"container payload with values".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
