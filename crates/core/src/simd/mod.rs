//! Runtime ISA dispatch for the hot SpMV/SpMM kernels.
//!
//! The paper's premise is that SpMV is bandwidth-bound, so decode cycles
//! are "free" — but that only holds when the decode+compute loop keeps up
//! with the memory stream. This module adds explicit AVX2 paths for the
//! four hot kernels (CSR accumulate, CSR-DU delta-unit decode, CSR-VI
//! palette gather, fixed-`k` SpMM accumulators) and a tiny dispatch enum,
//! [`Isa`], selected **once** per kernel call or plan construction — the
//! per-row loops never re-run feature detection.
//!
//! Selection policy, in priority order:
//!
//! 1. the `SPMV_ISA` environment variable (`scalar`/`avx2`/`auto`),
//!    read once and cached — the CI `simd-smoke` gate uses this;
//! 2. CPUID feature detection ([`Isa::detect`], cached).
//!
//! Requesting [`Isa::Avx2`] on a machine without AVX2 silently degrades
//! to [`Isa::Scalar`] at every dispatch site (checked against the cached
//! detection result), so no setting can execute an unsupported
//! instruction.
//!
//! # Bit-identical by construction
//!
//! Every vector path performs *the same floating-point operations in the
//! same order* as its scalar twin: multiplies are kept separate from adds
//! (no FMA contraction — the scalar kernels round twice per element, so
//! the vector kernels must too), `k`-wide panels vectorize *across* the
//! `k` independent per-lane accumulation chains, and the `k = 1` path
//! computes four products at a time but folds them into the row
//! accumulator sequentially. The differential suite
//! (`tests/simd_equivalence.rs`) pins this down with bit-pattern
//! comparisons over formats × k × threads.

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

use std::any::TypeId;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::error::SparseError;
use crate::index::SpIndex;
use crate::scalar::Scalar;

/// Instruction-set architecture a kernel was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar Rust — always available.
    Scalar,
    /// x86-64 AVX2 (256-bit) intrinsics; requires CPU support.
    Avx2,
}

const CODE_SCALAR: u8 = 1;
const CODE_AVX2: u8 = 2;

/// Cached CPUID detection result (0 = not yet probed).
static DETECTED: AtomicU8 = AtomicU8::new(0);
/// `SPMV_ISA` environment variable, read once.
static ENV_CHOICE: OnceLock<Option<Isa>> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
fn detect_uncached() -> Isa {
    if std::arch::is_x86_feature_detected!("avx2") {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_uncached() -> Isa {
    Isa::Scalar
}

impl Isa {
    /// Best ISA the running CPU supports. Probes CPUID once and caches.
    pub fn detect() -> Isa {
        match DETECTED.load(Ordering::Relaxed) {
            CODE_SCALAR => Isa::Scalar,
            CODE_AVX2 => Isa::Avx2,
            _ => {
                let isa = detect_uncached();
                DETECTED.store(isa.code(), Ordering::Relaxed);
                isa
            }
        }
    }

    /// Whether this ISA can actually run on the current CPU.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => Isa::detect() == Isa::Avx2,
        }
    }

    /// Stable lowercase name (the `kernel_isa` BENCH.json field).
    pub fn as_str(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parses a concrete ISA name (`"scalar"` / `"avx2"`).
    pub fn parse(s: &str) -> Option<Isa> {
        match s {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            Isa::Scalar => CODE_SCALAR,
            Isa::Avx2 => CODE_AVX2,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parses an ISA *choice* as accepted by the `SPMV_ISA` environment
/// variable: `"auto"` means "pick the best supported ISA" (`Ok(None)`); a
/// concrete name pins it.
pub fn parse_choice(s: &str) -> Result<Option<Isa>, String> {
    match s {
        "auto" => Ok(None),
        other => Isa::parse(other)
            .map(Some)
            .ok_or_else(|| format!("unknown ISA {other:?} (expected auto, scalar or avx2)")),
    }
}

fn env_choice() -> Option<Isa> {
    // The init closure runs once per process, so a malformed value warns
    // exactly once; explicit API paths use [`env_isa_checked`] to get the
    // typed error instead of this lenient fallback.
    *ENV_CHOICE.get_or_init(|| match std::env::var("SPMV_ISA") {
        Ok(s) => match parse_choice(s.trim()) {
            Ok(choice) => choice,
            Err(e) => {
                eprintln!("warning: ignoring SPMV_ISA: {e}; falling back to auto-detection");
                None
            }
        },
        Err(_) => None,
    })
}

/// Strict form of the `SPMV_ISA` reader for explicit API paths
/// (`run_planned`, the service builder): re-reads the environment and
/// returns [`SparseError::InvalidArgument`] for a malformed value
/// instead of the warn-and-ignore fallback the cached [`selected`] path
/// uses. `Ok(None)` means unset or `auto`.
pub fn env_isa_checked() -> Result<Option<Isa>, SparseError> {
    match std::env::var("SPMV_ISA") {
        Ok(s) => parse_choice(s.trim())
            .map_err(|e| SparseError::InvalidArgument(format!("SPMV_ISA: {e}"))),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(SparseError::InvalidArgument("SPMV_ISA is not valid unicode".into()))
        }
    }
}

/// The ISA new kernel calls and plans use: `SPMV_ISA`, else
/// [`Isa::detect`] — degraded to [`Isa::Scalar`] whenever the choice is
/// not actually available.
pub fn selected() -> Isa {
    let choice = env_choice().unwrap_or_else(Isa::detect);
    if choice.available() {
        choice
    } else {
        Isa::Scalar
    }
}

/// True when `isa` asks for AVX2 *and* the CPU really has it — the single
/// gate every dispatch site checks before entering an AVX2 kernel, so a
/// stale or hostile [`Isa::Avx2`] on unsupported hardware degrades to the
/// scalar path instead of executing unsupported instructions.
#[inline]
pub(crate) fn avx2_ok(isa: Isa) -> bool {
    isa == Isa::Avx2 && Isa::Avx2.available()
}

/// Reinterprets a generic value slice as `f64` when `V` *is* `f64`
/// (monomorphization-time check; the cast is then the identity).
#[inline]
pub(crate) fn as_f64s<V: Scalar>(s: &[V]) -> Option<&[f64]> {
    if TypeId::of::<V>() == TypeId::of::<f64>() {
        debug_assert_eq!(std::mem::size_of::<V>(), std::mem::size_of::<f64>());
        // Safety: V == f64 (same layout), lifetimes unchanged.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr() as *const f64, s.len()) })
    } else {
        None
    }
}

/// Mutable twin of [`as_f64s`].
#[inline]
pub(crate) fn as_f64s_mut<V: Scalar>(s: &mut [V]) -> Option<&mut [f64]> {
    if TypeId::of::<V>() == TypeId::of::<f64>() {
        // Safety: V == f64 (same layout), lifetimes unchanged.
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut f64, s.len()) })
    } else {
        None
    }
}

/// Reinterprets a generic index slice as `u32` when `I` *is* `u32`.
#[inline]
pub(crate) fn as_u32s<I: SpIndex>(s: &[I]) -> Option<&[u32]> {
    if TypeId::of::<I>() == TypeId::of::<u32>() {
        debug_assert_eq!(std::mem::size_of::<I>(), std::mem::size_of::<u32>());
        // Safety: I == u32 (same layout), lifetimes unchanged.
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u32, s.len()) })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_available() {
        let a = Isa::detect();
        let b = Isa::detect();
        assert_eq!(a, b);
        assert!(a.available());
        assert!(Isa::Scalar.available());
    }

    #[test]
    fn parse_roundtrips_names() {
        assert_eq!(Isa::parse("scalar"), Some(Isa::Scalar));
        assert_eq!(Isa::parse("avx2"), Some(Isa::Avx2));
        assert_eq!(Isa::parse("sse9"), None);
        for isa in [Isa::Scalar, Isa::Avx2] {
            assert_eq!(Isa::parse(isa.as_str()), Some(isa));
            assert_eq!(format!("{isa}"), isa.as_str());
        }
    }

    #[test]
    fn parse_choice_accepts_auto_and_rejects_garbage() {
        assert_eq!(parse_choice("auto"), Ok(None));
        assert_eq!(parse_choice("scalar"), Ok(Some(Isa::Scalar)));
        assert_eq!(parse_choice("avx2"), Ok(Some(Isa::Avx2)));
        assert!(parse_choice("AVX2").is_err());
        assert!(parse_choice("").is_err());
    }

    #[test]
    fn selected_never_picks_unavailable_isa() {
        assert!(selected().available());
    }

    #[test]
    fn checked_env_isa_agrees_with_cached_choice_on_valid_env() {
        // CI runs the suite with SPMV_ISA unset and set to valid names;
        // either way the strict reader must succeed and agree with the
        // cached lenient one. (Malformed values are covered through the
        // pure `parse_choice` tests — mutating the environment here would
        // race other tests in this binary.)
        assert_eq!(env_isa_checked().unwrap(), env_choice());
    }

    #[test]
    fn slice_casts_specialize_on_type() {
        let v = [1.0f64, 2.0];
        assert_eq!(as_f64s(&v), Some(&v[..]));
        let w = [1.0f32, 2.0];
        assert!(as_f64s(&w).is_none());
        let i = [1u32, 2];
        assert_eq!(as_u32s(&i), Some(&i[..]));
        let j = [1u16, 2];
        assert!(as_u32s(&j).is_none());
    }
}
