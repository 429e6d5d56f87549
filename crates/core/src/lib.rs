//! # spmv-core — sparse matrix formats and SpMV kernels with index & value compression
//!
//! This crate implements the storage formats and Sparse Matrix-Vector
//! multiplication (SpMV, `y = A·x`) kernels studied in
//!
//! > K. Kourtis, G. Goumas, N. Koziris, *"Improving the Performance of
//! > Multithreaded Sparse Matrix-Vector Multiplication using Index and Value
//! > Compression"*, ICPP 2008.
//!
//! The paper's contributions are two compressed variants of the classic
//! Compressed Sparse Row (CSR) format:
//!
//! * [`CsrDu`](csr_du::CsrDu) — **CSR Delta Unit**: the column-index array is
//!   replaced by a byte stream of *units*, each holding delta-encoded column
//!   indices at the narrowest width (u8/u16/u32/u64) that fits, reducing the
//!   index portion of the working set.
//! * [`CsrVi`](csr_vi::CsrVi) — **CSR Value Index**: the value array is
//!   replaced by a table of *unique* values plus narrow per-element indices
//!   into that table; profitable when the matrix has few distinct values
//!   (high total-to-unique ratio).
//!
//! Both trade extra CPU work for reduced memory traffic, which pays off when
//! several cores contend for shared memory bandwidth.
//!
//! Also provided, as baselines and comparators:
//!
//! * [`Coo`], [`Csr`], [`Csc`] — the classic general formats;
//! * [`Bcsr`](bcsr::Bcsr), [`Ell`](ell::Ell), [`Dia`](dia::Dia),
//!   [`Jad`](jad::Jad) — the structured formats surveyed in the paper's
//!   related-work section;
//! * [`Dcsr`](dcsr::Dcsr) — a reimplementation of Willcock & Lumsdaine's
//!   byte-oriented delta-compressed CSR, the closest prior work;
//! * [`CsrDuVi`](csr_duvi::CsrDuVi) — the combination of both compression
//!   schemes (from the companion CF'08 paper).
//!
//! ## Quick example
//!
//! ```
//! use spmv_core::{Coo, Csr, SpMv};
//! use spmv_core::csr_du::CsrDu;
//!
//! // The 6x6 example matrix from Fig. 1 of the paper.
//! let coo = spmv_core::examples::paper_matrix();
//! let csr: Csr = coo.to_csr();
//! let du = CsrDu::from_csr(&csr, &Default::default());
//!
//! let x = vec![1.0f64; 6];
//! let mut y0 = vec![0.0; 6];
//! let mut y1 = vec![0.0; 6];
//! csr.spmv(&x, &mut y0);
//! du.spmv(&x, &mut y1);
//! assert_eq!(y0, y1);
//! // The compressed structure is smaller than CSR's col_ind array:
//! assert!(du.ctl().len() < csr.nnz() * 4);
//! ```

pub mod bcsr;
pub mod builder;
pub mod checked;
pub mod coo;
pub mod crc32;
pub mod csc;
pub mod csr;
pub mod csr_du;
pub mod csr_duvi;
pub mod csr_vi;
pub mod dcsr;
pub mod dense;
pub mod dia;
pub mod ell;
mod encode_parts;
pub mod error;
pub mod examples;
pub mod hyb;
pub mod index;
pub mod io;
pub mod jad;
pub mod scalar;
pub mod simd;
pub mod spmm;
pub mod spmspv;
pub mod spmv;
pub mod stats;
pub mod sym;
pub mod varint;

pub use builder::CsrBuilder;
pub use checked::{CheckOptions, CheckedSpMv};
pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use encode_parts::{split_mut, PARALLEL_ENCODE_MIN_NNZ};
pub use error::SparseError;
pub use index::SpIndex;
pub use io::{fingerprint_csr, read_fingerprint, Fingerprint, LoadLimits};
pub use scalar::Scalar;
pub use simd::Isa;
pub use spmm::{DenseBlock, DenseBlockMut, SpMm};
pub use spmspv::{SpMSpV, SpMSpVPath, SparseVec};
pub use spmv::{FormatKind, SpMv};
pub use stats::{SizeReport, WorkingSet};
pub use sym::SymCsr;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::bcsr::Bcsr;
    pub use crate::checked::{CheckOptions, CheckedSpMv};
    pub use crate::csr_du::{CsrDu, DuOptions};
    pub use crate::csr_duvi::CsrDuVi;
    pub use crate::csr_vi::CsrVi;
    pub use crate::dcsr::Dcsr;
    pub use crate::dia::Dia;
    pub use crate::ell::Ell;
    pub use crate::hyb::Hyb;
    pub use crate::jad::Jad;
    pub use crate::sym::SymCsr;
    pub use crate::{
        Coo, Csc, Csr, Dense, DenseBlock, DenseBlockMut, FormatKind, LoadLimits, Scalar, SpIndex,
        SpMSpV, SpMSpVPath, SpMm, SpMv, SparseError, SparseVec,
    };
}
