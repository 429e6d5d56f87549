//! Binary serialization of the compressed formats.
//!
//! Compression is only worth paying for once; this module lets a
//! pre-encoded matrix be persisted and memory-loaded later (e.g. a solver
//! service encoding at ingest time). The container is a simple
//! little-endian layout with a magic/version header and per-format tags —
//! deliberately dependency-free and stable.
//!
//! Concrete types only (`u32` indices, `f64` values — the paper's
//! baseline widths); other widths can be converted on load.
//!
//! # Container layout
//!
//! Version 2 (written by this build):
//!
//! ```text
//! "SPMV" magic | u16 version | u8 format tag
//! u64 payload length | u32 payload CRC-32
//! payload:
//!   scalar u64 fields (nrows, ncols, ...)
//!   sections, each:  u64 element count | raw LE bytes | u32 section CRC-32
//! ```
//!
//! Version 1 (still readable) had no declared length and no checksums:
//! the header was followed directly by the scalar fields and `u64
//! len`-prefixed arrays.
//!
//! # Trust boundaries
//!
//! A container is a long-lived artifact that crosses machines and tenants,
//! so the readers treat every byte as untrusted:
//!
//! * **Truncation** is detected *before* parsing: the v2 header declares
//!   the payload length, and a short read fails immediately.
//! * **Corruption** is detected by CRC-32 checksums — one over the whole
//!   payload and one per section (so the error names the damaged array).
//!   A bit-flipped `f64` is rejected with
//!   [`SparseError::ChecksumMismatch`] instead of silently poisoning every
//!   subsequent SpMV. CRC-32 is an integrity check against *accidental*
//!   corruption; it is **not** cryptographic authentication — an attacker
//!   who can rewrite the file can also rewrite the checksums. Sign the
//!   file externally if you need provenance.
//! * **Resource exhaustion** is bounded by [`LoadLimits`]: every declared
//!   length is checked against the configured ceilings *before any
//!   allocation*, so a 16-byte file declaring `len = u64::MAX` can never
//!   trigger a multi-gigabyte allocation. The default limits are generous
//!   (see [`LoadLimits::default`]); [`LoadLimits::unlimited`] is the
//!   escape hatch for trusted inputs.
//! * **Structural invariants** are re-established on load regardless of
//!   checksums: CSR pointer monotonicity and column bounds
//!   ([`Csr::from_raw_parts`]), full bounds-checked re-validation of the
//!   CSR-DU ctl stream ([`CsrDu::from_parts_checked`]), and value-index
//!   range checks ([`CsrVi::from_parts_checked`]). Checksums catch what
//!   structure cannot (a flipped value bit yields a perfectly well-formed
//!   matrix); structure catches what checksums cannot (a well-checksummed
//!   file written by a buggy or malicious encoder).
//!
//! The checksums are computed by [`crate::crc32`], which folds long
//! inputs with carry-less multiplication where the CPU has it and uses
//! tables elsewhere. Both paths give the same value for every input, so
//! a container written on one host verifies on any other, and
//! [`fingerprint_csr`] keys the same plan-cache entries everywhere.
//!
//! # Fingerprints
//!
//! [`fingerprint_csr`] hashes a matrix as its v2 CSR payload without
//! building it: it reads each array once, in place, takes that section's
//! CRC over it, and appends the section to the running payload CRC with
//! a CRC-32 combine ([`crate::crc32::crc32_combine`]). On a 5.4M-nnz
//! matrix (68 MB) that takes about 11 ms on one core.

use crate::crc32::{crc32, Crc32, Word};
use crate::csc::Csc;
use crate::csr::Csr;
use crate::csr_du::CsrDu;
use crate::csr_vi::{CsrVi, ValInd};
use crate::error::SparseError;
use crate::spmv::SpMv;
use std::io::{Read, Write};

/// Container magic bytes.
pub const MAGIC: &[u8; 4] = b"SPMV";
/// Current container version (always written).
pub const VERSION: u16 = 2;
/// Oldest container version the readers still accept.
pub const MIN_SUPPORTED_VERSION: u16 = 1;

const TAG_CSR: u8 = 1;
const TAG_CSR_DU: u8 = 2;
const TAG_CSR_VI: u8 = 3;
const TAG_CSC: u8 = 4;

type Result<T> = std::result::Result<T, SparseError>;

fn io_err(e: std::io::Error) -> SparseError {
    SparseError::Parse(format!("io error: {e}"))
}

// ---------------------------------------------------------------------
// load limits
// ---------------------------------------------------------------------

/// Ceilings applied to *declared* sizes in untrusted inputs before any
/// allocation or parsing work is done on their behalf.
///
/// The defaults accommodate any matrix this workspace can realistically
/// process (a billion rows, four billion non-zeros, 8 GiB of container
/// payload) while refusing absurd headers outright. Tune them down for
/// multi-tenant ingest (e.g. a service accepting uploads) or up — or off
/// with [`LoadLimits::unlimited`] — for trusted batch jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadLimits {
    /// Maximum accepted number of rows.
    pub max_nrows: usize,
    /// Maximum accepted number of columns.
    pub max_ncols: usize,
    /// Maximum accepted number of non-zeros (also caps array lengths).
    pub max_nnz: usize,
    /// Maximum accepted total payload bytes (container body / byte arrays).
    pub max_bytes: u64,
}

impl Default for LoadLimits {
    fn default() -> Self {
        LoadLimits { max_nrows: 1 << 30, max_ncols: 1 << 30, max_nnz: 1 << 32, max_bytes: 8 << 30 }
    }
}

impl LoadLimits {
    /// No limits at all — for fully trusted inputs only.
    pub fn unlimited() -> LoadLimits {
        LoadLimits {
            max_nrows: usize::MAX,
            max_ncols: usize::MAX,
            max_nnz: usize::MAX,
            max_bytes: u64::MAX,
        }
    }

    /// Tight limits suitable for fuzzing and tests: nothing a hostile
    /// input declares can cost more than a few megabytes.
    pub fn strict_for_tests() -> LoadLimits {
        LoadLimits { max_nrows: 1 << 16, max_ncols: 1 << 16, max_nnz: 1 << 20, max_bytes: 4 << 20 }
    }

    fn check(&self, what: &str, requested: u64, limit: u64) -> Result<()> {
        if requested > limit {
            return Err(SparseError::ResourceLimit { what: what.into(), requested, limit });
        }
        Ok(())
    }

    fn check_dims(&self, nrows: u64, ncols: u64) -> Result<()> {
        self.check("nrows", nrows, self.max_nrows as u64)?;
        self.check("ncols", ncols, self.max_ncols as u64)
    }

    fn check_count(&self, what: &str, len: u64) -> Result<()> {
        self.check(what, len, self.max_nnz as u64)
    }

    fn check_bytes(&self, what: &str, len: u64) -> Result<()> {
        self.check(what, len, self.max_bytes)
    }
}

/// Largest up-front allocation taken on the word of an untrusted v1
/// header (v2 validates the declared payload length against the actual
/// bytes first, so it can size exactly).
const PREALLOC_CAP: usize = 1 << 16;

// ---------------------------------------------------------------------
// v2 writer: payload assembled in memory, sections carry their own CRC
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a section: `u64 count | data | u32 crc(data)`.
fn put_section(out: &mut Vec<u8>, count: u64, data: &[u8]) {
    put_u64(out, count);
    out.extend_from_slice(data);
    out.extend_from_slice(&crc32(data).to_le_bytes());
}

fn put_u32_section(out: &mut Vec<u8>, data: &[u32]) {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for &v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    put_section(out, data.len() as u64, &bytes);
}

fn put_u16_section(out: &mut Vec<u8>, data: &[u16]) {
    let mut bytes = Vec::with_capacity(data.len() * 2);
    for &v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    put_section(out, data.len() as u64, &bytes);
}

fn put_f64_section(out: &mut Vec<u8>, data: &[f64]) {
    let mut bytes = Vec::with_capacity(data.len() * 8);
    for &v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    put_section(out, data.len() as u64, &bytes);
}

fn put_byte_section(out: &mut Vec<u8>, data: &[u8]) {
    put_section(out, data.len() as u64, data);
}

/// Writes the v2 frame: header, declared payload length, whole-payload
/// checksum, payload.
fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<()> {
    w.write_all(MAGIC).map_err(io_err)?;
    w.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
    w.write_all(&[tag]).map_err(io_err)?;
    w.write_all(&(payload.len() as u64).to_le_bytes()).map_err(io_err)?;
    w.write_all(&crc32(payload).to_le_bytes()).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)
}

// ---------------------------------------------------------------------
// v2 reader: in-memory payload cursor
// ---------------------------------------------------------------------

/// Bounds-checked cursor over the verified payload buffer.
struct Payload<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SparseError::Parse(format!("payload truncated inside {what}")))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Reads one section (`u64 count | data | u32 crc`), enforcing
    /// `count <= max_elems` *before* touching the data and verifying the
    /// section checksum after. Returns the raw data bytes.
    fn section(
        &mut self,
        what: &str,
        elem_bytes: usize,
        max_elems: u64,
        limits: &LoadLimits,
    ) -> Result<(u64, &'a [u8])> {
        let count = self.u64(what)?;
        limits.check(what, count, max_elems)?;
        let nbytes = (count as usize).checked_mul(elem_bytes).ok_or_else(|| {
            SparseError::Parse(format!("section {what} byte size overflows usize"))
        })?;
        let data = self.take(nbytes, what)?;
        let stored = u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes"));
        let computed = crc32(data);
        if stored != computed {
            return Err(SparseError::ChecksumMismatch { section: what.into(), stored, computed });
        }
        Ok((count, data))
    }

    fn u32_section(&mut self, what: &str, max: u64, limits: &LoadLimits) -> Result<Vec<u32>> {
        let (_, data) = self.section(what, 4, max, limits)?;
        Ok(data.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    fn u16_section(&mut self, what: &str, max: u64, limits: &LoadLimits) -> Result<Vec<u16>> {
        let (_, data) = self.section(what, 2, max, limits)?;
        Ok(data.chunks_exact(2).map(|c| u16::from_le_bytes(c.try_into().expect("2"))).collect())
    }

    fn f64_section(&mut self, what: &str, max: u64, limits: &LoadLimits) -> Result<Vec<f64>> {
        let (_, data) = self.section(what, 8, max, limits)?;
        Ok(data.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect())
    }

    fn byte_section(&mut self, what: &str, limits: &LoadLimits) -> Result<Vec<u8>> {
        let (_, data) = self.section(what, 1, limits.max_bytes, limits)?;
        Ok(data.to_vec())
    }
}

/// Header parse result: version and format tag.
struct Header {
    version: u16,
    tag: u8,
}

fn read_header<R: Read>(r: &mut R) -> Result<Header> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(SparseError::Parse("bad magic: not an SPMV container".into()));
    }
    let mut ver = [0u8; 2];
    r.read_exact(&mut ver).map_err(io_err)?;
    let version = u16::from_le_bytes(ver);
    if !(MIN_SUPPORTED_VERSION..=VERSION).contains(&version) {
        return Err(SparseError::UnsupportedVersion { found: version, max_supported: VERSION });
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(io_err)?;
    Ok(Header { version, tag: tag[0] })
}

fn check_tag(h: &Header, expected: u8, name: &str) -> Result<()> {
    if h.tag != expected {
        return Err(SparseError::Parse(format!("expected {name} container, found tag {}", h.tag)));
    }
    Ok(())
}

/// Reads the declared-length, checksum-verified v2 payload and returns it
/// with the whole-payload CRC it was verified against. The length is
/// checked against `limits.max_bytes` *before* any allocation; the buffer
/// then grows only as bytes actually arrive, so a truncated file costs at
/// most its real size.
fn read_payload<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<(Vec<u8>, u32)> {
    let mut head = [0u8; 12];
    r.read_exact(&mut head).map_err(io_err)?;
    let declared = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
    let stored = u32::from_le_bytes(head[8..].try_into().expect("4 bytes"));
    limits.check_bytes("payload bytes", declared)?;
    let mut payload = Vec::with_capacity((declared as usize).min(PREALLOC_CAP));
    let mut remaining = declared as usize;
    let mut chunk = [0u8; 64 * 1024];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])
            .map_err(|e| SparseError::Parse(format!("payload truncated: {e}")))?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    let computed = crc32(&payload);
    if stored != computed {
        return Err(SparseError::ChecksumMismatch { section: "payload".into(), stored, computed });
    }
    Ok((payload, stored))
}

// ---------------------------------------------------------------------
// v1 streaming readers (no checksums, length-prefixed arrays)
// ---------------------------------------------------------------------

fn read_u64_v1<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32_vec_v1<R: Read>(r: &mut R, what: &str, limits: &LoadLimits) -> Result<Vec<u32>> {
    let len = read_u64_v1(r)?;
    limits.check_count(what, len)?;
    // Never pre-allocate from an untrusted length: grow as bytes actually
    // arrive (read_exact fails fast on truncated input).
    let mut out = Vec::with_capacity((len as usize).min(PREALLOC_CAP));
    let mut buf = [0u8; 4];
    for _ in 0..len {
        r.read_exact(&mut buf).map_err(io_err)?;
        out.push(u32::from_le_bytes(buf));
    }
    Ok(out)
}

fn read_f64_vec_v1<R: Read>(r: &mut R, what: &str, limits: &LoadLimits) -> Result<Vec<f64>> {
    let len = read_u64_v1(r)?;
    limits.check_count(what, len)?;
    let mut out = Vec::with_capacity((len as usize).min(PREALLOC_CAP));
    let mut buf = [0u8; 8];
    for _ in 0..len {
        r.read_exact(&mut buf).map_err(io_err)?;
        out.push(f64::from_le_bytes(buf));
    }
    Ok(out)
}

fn read_bytes_v1<R: Read>(r: &mut R, what: &str, limits: &LoadLimits) -> Result<Vec<u8>> {
    let len = read_u64_v1(r)?;
    limits.check_bytes(what, len)?;
    // Chunked read: no untrusted up-front allocation.
    let mut out = Vec::with_capacity((len as usize).min(PREALLOC_CAP));
    let mut remaining = len as usize;
    let mut chunk = [0u8; 64 * 1024];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take]).map_err(io_err)?;
        out.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/// Compact identity of a matrix payload: the container-v2 whole-payload
/// CRC-32 plus the shape `(nrows, ncols, nnz)`.
///
/// The CRC alone is a 32-bit hash — collisions are unlikely but legal,
/// and the same CRC with *different* dims genuinely occurs across
/// container versions (v1 bodies hash differently than v2 payloads).
/// Consumers keying caches on a fingerprint must therefore treat a CRC
/// match with a shape mismatch as a **miss**, never as a hit — see
/// [`Fingerprint::matches_shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// CRC-32 over the container payload bytes (v2: the stored
    /// whole-payload checksum; v1: computed over the raw body).
    pub crc: u32,
    /// Number of rows.
    pub nrows: u64,
    /// Number of columns.
    pub ncols: u64,
    /// Number of stored non-zeros.
    pub nnz: u64,
}

impl Fingerprint {
    /// `true` when this fingerprint's recorded shape matches the given
    /// dimensions — the guard that keeps a CRC collision (or a stale
    /// cache entry) from impersonating a different matrix.
    pub fn matches_shape(&self, nrows: usize, ncols: usize, nnz: usize) -> bool {
        self.nrows == nrows as u64 && self.ncols == ncols as u64 && self.nnz == nnz as u64
    }
}

/// Fingerprint of an in-memory CSR matrix: CRC-32 over exactly the
/// payload bytes [`write_csr`] produces, so it equals the stored
/// whole-payload checksum of the matrix's v2 CSR container byte for
/// byte — fingerprinting in memory and fingerprinting the file agree.
///
/// The payload is never built: each array is read once, in place (no
/// allocation), and its section checksum is folded into the payload's.
pub fn fingerprint_csr(m: &Csr<u32, f64>) -> Fingerprint {
    let mut payload = Crc32::new();
    payload.update(&(m.nrows() as u64).to_le_bytes());
    payload.update(&(m.ncols() as u64).to_le_bytes());
    fold_section(&mut payload, m.row_ptr());
    fold_section(&mut payload, m.col_ind());
    fold_section(&mut payload, m.values());
    Fingerprint {
        crc: payload.finish(),
        nrows: m.nrows() as u64,
        ncols: m.ncols() as u64,
        nnz: m.nnz() as u64,
    }
}

/// Feeds one section exactly as [`put_section`] lays it out (`u64 count
/// | data | u32 crc(data)`) into the running payload checksum, reading
/// `data` once: the section CRC is taken over its bytes and then
/// appended to the payload CRC with a CRC-32 combine.
fn fold_section<W: Word>(payload: &mut Crc32, data: &[W]) {
    payload.update(&(data.len() as u64).to_le_bytes());
    let mut section = Crc32::new();
    section.update_words(data);
    let crc = section.finish();
    payload.combine(crc, std::mem::size_of_val(data) as u64);
    payload.update(&crc.to_le_bytes());
}

/// Reads a [`Fingerprint`] from any supported container version without
/// materializing the matrix.
///
/// * **v2**: the payload is read under `limits` and verified against the
///   stored whole-payload CRC; that checksum is the fingerprint key and
///   the shape comes from a minimal scan of the payload head.
/// * **v1** (no declared length, no checksums): falls back to hashing
///   the raw body bytes. The same matrix therefore fingerprints
///   *differently* in v1 and v2 containers — on a fingerprint-keyed
///   cache that is a miss (a re-plan), never a false hit.
pub fn read_fingerprint<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<Fingerprint> {
    let h = read_header(r)?;
    if h.version == 1 {
        let body = read_body_to_end_v1(r, limits)?;
        let (nrows, ncols, nnz) = body_shape(h.tag, &body, 0)?;
        Ok(Fingerprint { crc: crc32(&body), nrows, ncols, nnz })
    } else {
        let (payload, crc) = read_payload(r, limits)?;
        let (nrows, ncols, nnz) = body_shape(h.tag, &payload, 4)?;
        Ok(Fingerprint { crc, nrows, ncols, nnz })
    }
}

/// Reads a v1 body to EOF in bounded chunks, enforcing
/// `limits.max_bytes` as the bytes actually arrive (v1 declares no
/// up-front length to check).
fn read_body_to_end_v1<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = r.read(&mut chunk).map_err(io_err)?;
        if n == 0 {
            return Ok(out);
        }
        limits.check_bytes("v1 container body", (out.len() + n) as u64)?;
        out.extend_from_slice(&chunk[..n]);
    }
}

/// Minimal shape scan over a container body: `nrows`/`ncols` from the
/// head, `nnz` from the element count of the tag's nnz-bearing array,
/// skipping earlier arrays without decoding their data. `sec_trailer`
/// is the per-array trailer size — 4 for v2 sections (trailing CRC-32),
/// 0 for v1 length-prefixed arrays.
fn body_shape(tag: u8, body: &[u8], sec_trailer: usize) -> Result<(u64, u64, u64)> {
    let u64_at = |pos: usize, what: &str| -> Result<u64> {
        body.get(pos..pos + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .ok_or_else(|| SparseError::Parse(format!("container truncated inside {what}")))
    };
    let nrows = u64_at(0, "nrows")?;
    let ncols = u64_at(8, "ncols")?;
    // Each array is `u64 count | count * elem_bytes | trailer`.
    let skip = |pos: usize, elem_bytes: u64, what: &str| -> Result<usize> {
        let count = u64_at(pos, what)?;
        let adv = count
            .checked_mul(elem_bytes)
            .and_then(|b| b.checked_add(8 + sec_trailer as u64))
            .filter(|&b| b <= (body.len() - pos) as u64)
            .ok_or_else(|| SparseError::Parse(format!("container truncated inside {what}")))?;
        Ok(pos + adv as usize)
    };
    let nnz = match tag {
        // nrows | ncols | row_ptr | col_ind(=nnz) | ...
        TAG_CSR | TAG_CSR_VI => u64_at(skip(16, 4, "row_ptr")?, "col_ind count")?,
        // nrows | ncols | col_ptr | row_ind(=nnz) | values
        TAG_CSC => u64_at(skip(16, 4, "col_ptr")?, "row_ind count")?,
        // nrows | ncols | ctl | values(=nnz)
        TAG_CSR_DU => u64_at(skip(16, 1, "ctl")?, "values count")?,
        other => {
            return Err(SparseError::Parse(format!("unknown container tag {other}")));
        }
    };
    Ok((nrows, ncols, nnz))
}

// ---------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------

fn csr_payload(m: &Csr<u32, f64>) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, m.nrows() as u64);
    put_u64(&mut payload, m.ncols() as u64);
    put_u32_section(&mut payload, m.row_ptr());
    put_u32_section(&mut payload, m.col_ind());
    put_f64_section(&mut payload, m.values());
    payload
}

/// Serializes a CSR matrix (always the current container version).
pub fn write_csr<W: Write>(m: &Csr<u32, f64>, w: &mut W) -> Result<()> {
    write_frame(w, TAG_CSR, &csr_payload(m))
}

/// Deserializes a CSR matrix with default [`LoadLimits`] (revalidates all
/// invariants).
pub fn read_csr<R: Read>(r: &mut R) -> Result<Csr<u32, f64>> {
    read_csr_with(r, &LoadLimits::default())
}

/// Deserializes a CSR matrix under explicit [`LoadLimits`].
pub fn read_csr_with<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<Csr<u32, f64>> {
    let h = read_header(r)?;
    check_tag(&h, TAG_CSR, "CSR")?;
    let (nrows, ncols, row_ptr, col_ind, values);
    if h.version == 1 {
        nrows = read_u64_v1(r)?;
        ncols = read_u64_v1(r)?;
        limits.check_dims(nrows, ncols)?;
        row_ptr = read_u32_vec_v1(r, "row_ptr", limits)?;
        col_ind = read_u32_vec_v1(r, "col_ind", limits)?;
        values = read_f64_vec_v1(r, "values", limits)?;
    } else {
        let (payload, _) = read_payload(r, limits)?;
        let mut p = Payload { buf: &payload, pos: 0 };
        nrows = p.u64("nrows")?;
        ncols = p.u64("ncols")?;
        limits.check_dims(nrows, ncols)?;
        row_ptr = p.u32_section("row_ptr", (limits.max_nrows as u64).saturating_add(1), limits)?;
        col_ind = p.u32_section("col_ind", limits.max_nnz as u64, limits)?;
        values = p.f64_section("values", limits.max_nnz as u64, limits)?;
    }
    let m = Csr::from_raw_parts(nrows as usize, ncols as usize, row_ptr, col_ind, values)?;
    // Final acceptance gate after the CRC pass: the checked constructor
    // establishes the invariants, validate() re-proves them on the
    // assembled object — so a future constructor shortcut cannot quietly
    // weaken the untrusted-input path.
    m.validate()?;
    Ok(m)
}

// ---------------------------------------------------------------------
// CSC
// ---------------------------------------------------------------------

/// Serializes a CSC matrix (CSC frames exist only in container v2).
pub fn write_csc<W: Write>(m: &Csc<u32, f64>, w: &mut W) -> Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, m.nrows() as u64);
    put_u64(&mut payload, m.ncols() as u64);
    put_u32_section(&mut payload, m.col_ptr());
    put_u32_section(&mut payload, m.row_ind());
    put_f64_section(&mut payload, m.values());
    write_frame(w, TAG_CSC, &payload)
}

/// Deserializes a CSC matrix with default [`LoadLimits`] (revalidates all
/// invariants).
pub fn read_csc<R: Read>(r: &mut R) -> Result<Csc<u32, f64>> {
    read_csc_with(r, &LoadLimits::default())
}

/// Deserializes a CSC matrix under explicit [`LoadLimits`].
pub fn read_csc_with<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<Csc<u32, f64>> {
    let h = read_header(r)?;
    check_tag(&h, TAG_CSC, "CSC")?;
    if h.version == 1 {
        // The tag postdates v1, so such a header is an encoder bug.
        return Err(SparseError::Parse("CSC frames require container v2".into()));
    }
    let (payload, _) = read_payload(r, limits)?;
    let mut p = Payload { buf: &payload, pos: 0 };
    let nrows = p.u64("nrows")?;
    let ncols = p.u64("ncols")?;
    limits.check_dims(nrows, ncols)?;
    let col_ptr = p.u32_section("col_ptr", (limits.max_ncols as u64).saturating_add(1), limits)?;
    let row_ind = p.u32_section("row_ind", limits.max_nnz as u64, limits)?;
    let values = p.f64_section("values", limits.max_nnz as u64, limits)?;
    let m = Csc::from_raw_parts(nrows as usize, ncols as usize, col_ptr, row_ind, values)?;
    // Final acceptance gate after the CRC pass, mirroring read_csr_with:
    // the constructor establishes the invariants, validate() re-proves
    // them on the assembled object.
    m.validate()?;
    Ok(m)
}

// ---------------------------------------------------------------------
// CSR-DU
// ---------------------------------------------------------------------

/// Serializes a CSR-DU matrix (ctl stream + values).
pub fn write_csr_du<W: Write>(m: &CsrDu<f64>, w: &mut W) -> Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, m.nrows() as u64);
    put_u64(&mut payload, m.ncols() as u64);
    put_byte_section(&mut payload, m.ctl());
    put_f64_section(&mut payload, m.values());
    write_frame(w, TAG_CSR_DU, &payload)
}

/// Deserializes a CSR-DU matrix with default [`LoadLimits`]. The ctl
/// stream is *validated by re-decoding*: the reconstruction must produce
/// a well-formed CSR with matching nnz, so corrupt streams are rejected
/// rather than trusted.
pub fn read_csr_du<R: Read>(r: &mut R) -> Result<CsrDu<f64>> {
    read_csr_du_with(r, &LoadLimits::default())
}

/// Deserializes a CSR-DU matrix under explicit [`LoadLimits`].
pub fn read_csr_du_with<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<CsrDu<f64>> {
    let h = read_header(r)?;
    check_tag(&h, TAG_CSR_DU, "CSR-DU")?;
    let (nrows, ncols, ctl, values);
    if h.version == 1 {
        nrows = read_u64_v1(r)?;
        ncols = read_u64_v1(r)?;
        limits.check_dims(nrows, ncols)?;
        ctl = read_bytes_v1(r, "ctl", limits)?;
        values = read_f64_vec_v1(r, "values", limits)?;
    } else {
        let (payload, _) = read_payload(r, limits)?;
        let mut p = Payload { buf: &payload, pos: 0 };
        nrows = p.u64("nrows")?;
        ncols = p.u64("ncols")?;
        limits.check_dims(nrows, ncols)?;
        ctl = p.byte_section("ctl", limits)?;
        values = p.f64_section("values", limits.max_nnz as u64, limits)?;
    }
    let m = CsrDu::from_parts_checked(nrows as usize, ncols as usize, ctl, values)?;
    m.validate()?; // final acceptance gate after the CRC pass
    Ok(m)
}

// ---------------------------------------------------------------------
// CSR-VI
// ---------------------------------------------------------------------

/// Serializes a CSR-VI matrix.
pub fn write_csr_vi<W: Write>(m: &CsrVi<u32, f64>, w: &mut W) -> Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, m.nrows() as u64);
    put_u64(&mut payload, m.ncols() as u64);
    put_u32_section(&mut payload, m.row_ptr());
    put_u32_section(&mut payload, m.col_ind());
    put_f64_section(&mut payload, m.vals_unique());
    put_u64(&mut payload, m.val_ind().width_bytes() as u64);
    match m.val_ind() {
        ValInd::U8(v) => put_byte_section(&mut payload, v),
        ValInd::U16(v) => put_u16_section(&mut payload, v),
        ValInd::U32(v) => put_u32_section(&mut payload, v),
    }
    write_frame(w, TAG_CSR_VI, &payload)
}

/// Deserializes a CSR-VI matrix with default [`LoadLimits`] (revalidates
/// structure and value-index bounds).
pub fn read_csr_vi<R: Read>(r: &mut R) -> Result<CsrVi<u32, f64>> {
    read_csr_vi_with(r, &LoadLimits::default())
}

/// Deserializes a CSR-VI matrix under explicit [`LoadLimits`].
pub fn read_csr_vi_with<R: Read>(r: &mut R, limits: &LoadLimits) -> Result<CsrVi<u32, f64>> {
    let h = read_header(r)?;
    check_tag(&h, TAG_CSR_VI, "CSR-VI")?;
    let (nrows, ncols, row_ptr, col_ind, vals_unique, val_ind);
    if h.version == 1 {
        nrows = read_u64_v1(r)?;
        ncols = read_u64_v1(r)?;
        limits.check_dims(nrows, ncols)?;
        row_ptr = read_u32_vec_v1(r, "row_ptr", limits)?;
        col_ind = read_u32_vec_v1(r, "col_ind", limits)?;
        vals_unique = read_f64_vec_v1(r, "vals_unique", limits)?;
        let width = read_u64_v1(r)?;
        val_ind = match width {
            1 => ValInd::U8(read_bytes_v1(r, "val_ind", limits)?),
            2 => {
                let len = read_u64_v1(r)?;
                limits.check_count("val_ind", len)?;
                let mut v = Vec::with_capacity((len as usize).min(PREALLOC_CAP));
                let mut buf = [0u8; 2];
                for _ in 0..len {
                    r.read_exact(&mut buf).map_err(io_err)?;
                    v.push(u16::from_le_bytes(buf));
                }
                ValInd::U16(v)
            }
            4 => ValInd::U32(read_u32_vec_v1(r, "val_ind", limits)?),
            other => {
                return Err(SparseError::Parse(format!("invalid val_ind width {other}")));
            }
        };
    } else {
        let (payload, _) = read_payload(r, limits)?;
        let mut p = Payload { buf: &payload, pos: 0 };
        nrows = p.u64("nrows")?;
        ncols = p.u64("ncols")?;
        limits.check_dims(nrows, ncols)?;
        row_ptr = p.u32_section("row_ptr", (limits.max_nrows as u64).saturating_add(1), limits)?;
        col_ind = p.u32_section("col_ind", limits.max_nnz as u64, limits)?;
        vals_unique = p.f64_section("vals_unique", limits.max_nnz as u64, limits)?;
        let width = p.u64("val_ind width")?;
        let max = limits.max_nnz as u64;
        val_ind = match width {
            1 => {
                let (_, data) = p.section("val_ind", 1, max, limits)?;
                ValInd::U8(data.to_vec())
            }
            2 => ValInd::U16(p.u16_section("val_ind", max, limits)?),
            4 => ValInd::U32(p.u32_section("val_ind", max, limits)?),
            other => {
                return Err(SparseError::Parse(format!("invalid val_ind width {other}")));
            }
        };
    }
    let m = CsrVi::from_parts_checked(
        nrows as usize,
        ncols as usize,
        row_ptr,
        col_ind,
        vals_unique,
        val_ind,
    )?;
    m.validate()?; // final acceptance gate after the CRC pass
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_du::DuOptions;
    use crate::examples::paper_matrix;
    use crate::SpMv;
    use std::io::Cursor;

    // -----------------------------------------------------------------
    // v1 fixture writers: reproduce the exact layout the version-1 code
    // emitted, so old containers keep loading after the v2 bump.
    // -----------------------------------------------------------------

    fn v1_header(tag: u8) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&1u16.to_le_bytes());
        out.push(tag);
        out
    }

    fn v1_u32s(out: &mut Vec<u8>, data: &[u32]) {
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for &v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn v1_f64s(out: &mut Vec<u8>, data: &[f64]) {
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        for &v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn v1_csr_fixture(m: &Csr<u32, f64>) -> Vec<u8> {
        let mut out = v1_header(1);
        out.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
        out.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
        v1_u32s(&mut out, m.row_ptr());
        v1_u32s(&mut out, m.col_ind());
        v1_f64s(&mut out, m.values());
        out
    }

    fn v1_csr_du_fixture(m: &CsrDu<f64>) -> Vec<u8> {
        let mut out = v1_header(2);
        out.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
        out.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
        out.extend_from_slice(&(m.ctl().len() as u64).to_le_bytes());
        out.extend_from_slice(m.ctl());
        v1_f64s(&mut out, m.values());
        out
    }

    fn v1_csr_vi_fixture(m: &CsrVi<u32, f64>) -> Vec<u8> {
        let mut out = v1_header(3);
        out.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
        out.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
        v1_u32s(&mut out, m.row_ptr());
        v1_u32s(&mut out, m.col_ind());
        v1_f64s(&mut out, m.vals_unique());
        out.extend_from_slice(&(m.val_ind().width_bytes() as u64).to_le_bytes());
        match m.val_ind() {
            ValInd::U8(v) => {
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                out.extend_from_slice(v);
            }
            ValInd::U16(v) => {
                out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for &x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ValInd::U32(v) => v1_u32s(&mut out, v),
        }
        out
    }

    #[test]
    fn csr_roundtrip() {
        let csr = paper_matrix().to_csr();
        let mut buf = Vec::new();
        write_csr(&csr, &mut buf).unwrap();
        let back = read_csr(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, csr);
    }

    #[test]
    fn fingerprint_matches_stored_v2_payload_crc() {
        let csr = paper_matrix().to_csr();
        let fp = fingerprint_csr(&csr);
        assert!(fp.matches_shape(csr.nrows(), csr.ncols(), csr.nnz()));
        let mut buf = Vec::new();
        write_csr(&csr, &mut buf).unwrap();
        // The stored whole-payload CRC sits right after the 7-byte header
        // and the 8-byte declared length: the in-memory fingerprint must
        // equal it byte for byte (no re-hash needed for v2 files).
        let stored = u32::from_le_bytes(buf[15..19].try_into().unwrap());
        assert_eq!(fp.crc, stored);
        // And reading the fingerprint back from the container agrees.
        let read = read_fingerprint(&mut Cursor::new(&buf), &LoadLimits::default()).unwrap();
        assert_eq!(read, fp);
    }

    #[test]
    fn streamed_fingerprint_equals_written_payload_crc() {
        fn stored_crc(m: &Csr<u32, f64>) -> u32 {
            let mut buf = Vec::new();
            write_csr(m, &mut buf).unwrap();
            u32::from_le_bytes(buf[15..19].try_into().unwrap())
        }
        fn from_entries(nrows: usize, ncols: usize, e: &[(usize, usize, f64)]) -> Csr<u32, f64> {
            let mut coo = crate::Coo::new(nrows, ncols);
            for &(r, c, v) in e {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr()
        }
        let mut banded = crate::Coo::new(2_000, 2_000);
        for r in 0..2_000usize {
            for c in r.saturating_sub(2)..(r + 3).min(2_000) {
                banded.push(r, c, (r * 7 + c) as f64 * 0.25 - 3.0).unwrap();
            }
        }
        let cases: Vec<(&str, Csr<u32, f64>)> = vec![
            ("0x0", crate::Coo::new(0, 0).to_csr()),
            ("5x5, 0 nnz", crate::Coo::new(5, 5).to_csr()),
            // (row_ptr len, col_ind len) parity: (odd, odd), (even, even),
            // (even, odd); the paper matrix is (odd, even).
            ("2x3, 3 nnz", from_entries(2, 3, &[(0, 0, 1.0), (0, 2, -2.0), (1, 1, 0.5)])),
            ("3x3, 2 nnz", from_entries(3, 3, &[(0, 1, 4.0), (2, 2, 1e-300)])),
            ("3x3, 3 nnz", from_entries(3, 3, &[(0, 0, 1.0), (1, 2, f64::MAX), (2, 0, -0.0)])),
            ("paper", paper_matrix().to_csr()),
            ("banded", banded.to_csr()),
        ];
        for (name, m) in &cases {
            assert_eq!(fingerprint_csr(m).crc, stored_crc(m), "{name}");
            assert_eq!(fingerprint_csr(m).crc, crc32(&csr_payload(m)), "{name}");
        }
        let nnz = cases.last().unwrap().1.nnz();
        assert!((9_000..=11_000).contains(&nnz), "banded case has {nnz} nnz");
    }

    #[test]
    fn fingerprint_v1_falls_back_to_hashing_the_payload() {
        // A v1 container carries no payload CRC: read_fingerprint must
        // fall back to hashing the raw body instead of failing (or worse,
        // trusting garbage bytes as a checksum).
        let csr: Csr<u32, f64> = paper_matrix().to_csr();
        let v1 = v1_csr_fixture(&csr);
        let fp1 = read_fingerprint(&mut Cursor::new(&v1), &LoadLimits::default()).unwrap();
        assert!(fp1.matches_shape(csr.nrows(), csr.ncols(), csr.nnz()));
        // The hash is over the body after the 7-byte header.
        assert_eq!(fp1.crc, crc32(&v1[7..]));
        // v1 bodies hash differently than v2 payloads (section trailers
        // differ), so the same matrix gets a *different* key per container
        // version — on a fingerprint-keyed cache that is a miss (safe),
        // never a false hit.
        assert_ne!(fp1.crc, fingerprint_csr(&csr).crc);
        // Shape extraction also works for the other v1 tags.
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let fdu =
            read_fingerprint(&mut Cursor::new(v1_csr_du_fixture(&du)), &LoadLimits::default())
                .unwrap();
        assert!(fdu.matches_shape(du.nrows(), du.ncols(), du.nnz()));
        let vi = CsrVi::from_csr(&csr);
        let fvi =
            read_fingerprint(&mut Cursor::new(v1_csr_vi_fixture(&vi)), &LoadLimits::default())
                .unwrap();
        assert!(fvi.matches_shape(vi.nrows(), vi.ncols(), vi.nnz()));
    }

    #[test]
    fn fingerprint_rejects_corrupt_v2_payload() {
        let csr = paper_matrix().to_csr();
        let mut buf = Vec::new();
        write_csr(&csr, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(
            read_fingerprint(&mut Cursor::new(&buf), &LoadLimits::default()),
            Err(SparseError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_distinguishes_different_matrices() {
        let a: Csr<u32, f64> = paper_matrix().to_csr();
        let mut coo = crate::Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0).unwrap();
        }
        let b: Csr<u32, f64> = coo.to_csr();
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&b));
    }

    #[test]
    fn csr_du_roundtrip() {
        let csr = paper_matrix().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut buf = Vec::new();
        write_csr_du(&du, &mut buf).unwrap();
        let back = read_csr_du(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, du);
        // And it still multiplies identically.
        let x = vec![1.0; 6];
        let mut y0 = vec![0.0; 6];
        let mut y1 = vec![0.0; 6];
        du.spmv(&x, &mut y0);
        back.spmv(&x, &mut y1);
        assert_eq!(y0, y1);
    }

    #[test]
    fn csr_vi_roundtrip_all_widths() {
        // u8 width (paper matrix, 9 unique values).
        let csr = paper_matrix().to_csr();
        let vi = CsrVi::from_csr(&csr);
        let mut buf = Vec::new();
        write_csr_vi(&vi, &mut buf).unwrap();
        assert_eq!(read_csr_vi(&mut Cursor::new(&buf)).unwrap(), vi);

        // u16 width (300 unique values).
        let coo =
            crate::Coo::from_triplets(1, 300, (0..300).map(|c| (0usize, c, c as f64))).unwrap();
        let vi = CsrVi::from_csr(&coo.to_csr());
        assert_eq!(vi.val_ind().width_bytes(), 2);
        let mut buf = Vec::new();
        write_csr_vi(&vi, &mut buf).unwrap();
        assert_eq!(read_csr_vi(&mut Cursor::new(&buf)).unwrap(), vi);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01\x00\x01".to_vec();
        assert!(read_csr(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap();
        buf[4] = 99; // version byte
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(
            err,
            SparseError::UnsupportedVersion { found: 99, max_supported: VERSION }
        ));
    }

    #[test]
    fn version_zero_rejected() {
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap();
        buf[4] = 0;
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::UnsupportedVersion { found: 0, .. }));
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap();
        assert!(read_csr_du(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn truncation_rejected_at_every_byte_csr() {
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_csr(&mut Cursor::new(&buf[..cut])).is_err(), "cut at {cut}");
        }
        assert!(read_csr(&mut Cursor::new(&buf)).is_ok());
    }

    #[test]
    fn truncation_rejected_at_every_byte_csr_du() {
        let csr = paper_matrix().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut buf = Vec::new();
        write_csr_du(&du, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_csr_du(&mut Cursor::new(&buf[..cut])).is_err(), "cut at {cut}");
        }
        assert!(read_csr_du(&mut Cursor::new(&buf)).is_ok());
    }

    #[test]
    fn truncation_rejected_at_every_byte_csr_vi() {
        let vi = CsrVi::from_csr(&paper_matrix().to_csr());
        let mut buf = Vec::new();
        write_csr_vi(&vi, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(read_csr_vi(&mut Cursor::new(&buf[..cut])).is_err(), "cut at {cut}");
        }
        assert!(read_csr_vi(&mut Cursor::new(&buf)).is_ok());
    }

    #[test]
    fn truncation_rejected_at_every_byte_v1_fixtures() {
        let csr = paper_matrix().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        type ErrCheck = fn(&[u8]) -> bool;
        let fixtures: [(Vec<u8>, ErrCheck); 3] = [
            (v1_csr_fixture(&csr), |b| read_csr(&mut Cursor::new(b)).is_err()),
            (v1_csr_du_fixture(&du), |b| read_csr_du(&mut Cursor::new(b)).is_err()),
            (v1_csr_vi_fixture(&vi), |b| read_csr_vi(&mut Cursor::new(b)).is_err()),
        ];
        for (buf, errs) in &fixtures {
            for cut in 0..buf.len() {
                assert!(errs(&buf[..cut]), "v1 cut at {cut}");
            }
        }
    }

    #[test]
    fn v1_fixtures_still_load() {
        // Regression guard for the v2 bump: byte-exact version-1 containers
        // (no declared length, no checksums) must keep loading.
        let csr = paper_matrix().to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let vi = CsrVi::from_csr(&csr);
        assert_eq!(read_csr(&mut Cursor::new(v1_csr_fixture(&csr))).unwrap(), csr);
        assert_eq!(read_csr_du(&mut Cursor::new(v1_csr_du_fixture(&du))).unwrap(), du);
        assert_eq!(read_csr_vi(&mut Cursor::new(v1_csr_vi_fixture(&vi))).unwrap(), vi);
    }

    #[test]
    fn bitflip_anywhere_in_v2_payload_is_detected() {
        // Every flipped bit in the body must surface as ChecksumMismatch —
        // including value bytes, which no structural validation can catch.
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap();
        let body_start = 7 + 12; // header + (payload len, payload crc)
        for byte in body_start..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 0x10;
            let err = read_csr(&mut Cursor::new(&corrupt)).unwrap_err();
            assert!(
                matches!(err, SparseError::ChecksumMismatch { .. }),
                "byte {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn section_checksum_names_damaged_array() {
        // Zero out the whole-payload CRC so the per-section check is the
        // one that fires; it must name the damaged section.
        let csr = paper_matrix().to_csr();
        let mut buf = Vec::new();
        write_csr(&csr, &mut buf).unwrap();
        // Corrupt the first byte of the values section's data: payload is
        // nrows(8) ncols(8) row_ptr(8 + 7*4 + 4) col_ind(8 + 16*4 + 4) values...
        let values_data = 7 + 12 + 8 + 8 + (8 + 7 * 4 + 4) + (8 + 16 * 4 + 4) + 8;
        buf[values_data] ^= 0x01;
        // Re-stamp the whole-payload CRC to match, isolating the section CRC.
        let payload_crc = crc32(&buf[19..]);
        buf[15..19].copy_from_slice(&payload_crc.to_le_bytes());
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        match err {
            SparseError::ChecksumMismatch { section, .. } => assert_eq!(section, "values"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn length_inflated_header_trips_resource_limit() {
        // A tiny file declaring a u64::MAX payload must be refused before
        // any allocation happens.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(1); // CSR tag
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, SparseError::ResourceLimit { ref what, .. } if what == "payload bytes"),
            "unexpected error {err}"
        );
    }

    #[test]
    fn length_inflated_v1_array_trips_resource_limit() {
        // v1 has no payload framing; the per-array length check must fire.
        let csr = paper_matrix().to_csr();
        let mut buf = v1_csr_fixture(&csr);
        // row_ptr length field sits right after header + nrows + ncols.
        let len_at = 7 + 8 + 8;
        buf[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::ResourceLimit { .. }), "unexpected error {err}");
    }

    #[test]
    fn dimension_limits_enforced() {
        let strict = LoadLimits { max_nrows: 4, ..LoadLimits::unlimited() };
        let mut buf = Vec::new();
        write_csr(&paper_matrix().to_csr(), &mut buf).unwrap(); // 6x6
        let err = read_csr_with(&mut Cursor::new(&buf), &strict).unwrap_err();
        assert!(matches!(err, SparseError::ResourceLimit { ref what, .. } if what == "nrows"));
        // Unlimited accepts it.
        assert!(read_csr_with(&mut Cursor::new(&buf), &LoadLimits::unlimited()).is_ok());
    }

    #[test]
    fn csc_roundtrip_preserves_matrix() {
        let csc = Csc::from_csr(&paper_matrix().to_csr()).unwrap();
        let mut buf = Vec::new();
        write_csc(&csc, &mut buf).unwrap();
        let back = read_csc(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, csc);
    }

    #[test]
    fn csc_bitflip_anywhere_in_payload_is_detected() {
        let csc = Csc::from_csr(&paper_matrix().to_csr()).unwrap();
        let mut buf = Vec::new();
        write_csc(&csc, &mut buf).unwrap();
        let body_start = 7 + 12; // header + (payload len, payload crc)
        for byte in body_start..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 0x10;
            let err = read_csc(&mut Cursor::new(&corrupt)).unwrap_err();
            assert!(
                matches!(err, SparseError::ChecksumMismatch { .. }),
                "byte {byte}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn structurally_bogus_csc_rejected_despite_valid_checksums() {
        // A hostile writer can stamp correct CRCs onto a CSC whose
        // row_ind points outside the matrix; the validate-after-CRC gate
        // must still reject it (mirror of the CSR case).
        let mut payload = Vec::new();
        put_u64(&mut payload, 2); // nrows
        put_u64(&mut payload, 2); // ncols
        put_u32_section(&mut payload, &[0, 1, 2]); // col_ptr
        put_u32_section(&mut payload, &[0, 7]); // row 7 in a 2-row matrix
        put_f64_section(&mut payload, &[1.0, 2.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CSC, &payload).unwrap();
        let err = read_csc(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "unexpected error {err}");
    }

    #[test]
    fn csc_frame_with_v1_header_is_refused() {
        let mut buf = v1_header(TAG_CSC);
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_csc(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::Parse(_)), "unexpected error {err}");
    }

    #[test]
    fn corrupt_du_ctl_rejected_even_with_fixed_checksums() {
        // Structural validation still runs underneath the checksums: a
        // well-checksummed container holding a garbage ctl stream (e.g.
        // written by a buggy encoder) is rejected by validate_ctl.
        let nrows = 2u64;
        let ncols = 2u64;
        let mut payload = Vec::new();
        put_u64(&mut payload, nrows);
        put_u64(&mut payload, ncols);
        put_byte_section(&mut payload, &[0x80, 0x00]); // zero-length unit
        put_f64_section(&mut payload, &[]);
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CSR_DU, &payload).unwrap();
        let err = read_csr_du(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::InvalidFormat(_)), "unexpected error {err}");
    }

    #[test]
    fn structurally_bogus_csr_rejected_despite_valid_checksums() {
        // Checksums only prove the bytes arrived as written; a hostile or
        // buggy writer can stamp correct CRCs onto a CSR whose col_ind
        // points outside the matrix. validate() must still reject it.
        let mut payload = Vec::new();
        put_u64(&mut payload, 2); // nrows
        put_u64(&mut payload, 2); // ncols
        put_u32_section(&mut payload, &[0, 1, 2]); // row_ptr
        put_u32_section(&mut payload, &[0, 7]); // col 7 >= ncols 2
        put_f64_section(&mut payload, &[1.0, 2.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CSR, &payload).unwrap();
        let err = read_csr(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }), "unexpected error {err}");
    }

    #[test]
    fn out_of_table_value_index_rejected_despite_valid_checksums() {
        // A CSR-VI container with a val_ind entry past the unique table:
        // structurally consistent CSR arrays, valid CRCs, bogus indirection.
        let mut payload = Vec::new();
        put_u64(&mut payload, 2); // nrows
        put_u64(&mut payload, 2); // ncols
        put_u32_section(&mut payload, &[0, 1, 2]); // row_ptr
        put_u32_section(&mut payload, &[0, 1]); // col_ind
        put_f64_section(&mut payload, &[4.5]); // one unique value
        put_u64(&mut payload, 1); // val_ind width = u8
        put_byte_section(&mut payload, &[0, 3]); // index 3 >= unique count 1
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_CSR_VI, &payload).unwrap();
        let err = read_csr_vi(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SparseError::InvalidFormat(_)), "unexpected error {err}");
    }
}
