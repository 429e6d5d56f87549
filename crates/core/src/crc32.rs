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
//! initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`. It runs
//! slicing-by-8 — eight table lookups retire eight input bytes per step,
//! with a byte-at-a-time tail — in safe code, and stays dependency-free
//! per the workspace's offline build constraint.

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
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            crc = step8(crc, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Feeds the eight little-endian bytes of `word` — the same as
    /// `update(&word.to_le_bytes())`, in one slicing step. Lets callers
    /// hash typed arrays without first serializing them to bytes.
    #[inline]
    pub(crate) fn update_u64(&mut self, word: u64) {
        self.state = step8(self.state, word);
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
        let noise: Vec<u8> =
            (0..64u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=40 {
                let s = &noise[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
                // Word-fed and byte-fed states agree mid-stream.
                let mut h = Crc32::new();
                h.update(&s[..len % 8]);
                for w in s[len % 8..].chunks_exact(8) {
                    h.update_u64(u64::from_le_bytes(w.try_into().unwrap()));
                }
                assert_eq!(h.finish(), bytewise(s), "word-fed, start {start} len {len}");
            }
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
