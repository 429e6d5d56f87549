//! Inputs of a run: corpus matrices, their seeded x vectors with serial
//! CSR reference products, the four paper encodings, and constructors
//! for the executors of each layer.

use spmv_core::csr_du::{CsrDu, DuOptions};
use spmv_core::csr_duvi::CsrDuVi;
use spmv_core::csr_vi::CsrVi;
use spmv_core::{Csr, FormatKind, SpMv};
use spmv_parallel::{
    ChunkKernel, CsrChunks, CsrDuChunks, CsrDuViChunks, CsrViChunks, ParCsr, ParCsrDu, ParCsrDuVi,
    ParCsrVi, ParSpMm,
};
use std::sync::Arc;

use crate::host::THREADS;

/// Seeded x vectors per matrix. Column `v` of the k = 8 panel is
/// `xs[v % XS]`.
pub const XS: usize = 4;
/// Panel width of the SpMM cells.
pub const K8: usize = 8;

/// splitmix64: every seed is its own stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The four paper formats, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    Csr,
    Du,
    Vi,
    DuVi,
}

pub const FMTS: [Fmt; 4] = [Fmt::Csr, Fmt::Du, Fmt::Vi, Fmt::DuVi];

impl Fmt {
    pub fn name(self) -> &'static str {
        match self {
            Fmt::Csr => "csr",
            Fmt::Du => "csr-du",
            Fmt::Vi => "csr-vi",
            Fmt::DuVi => "csr-duvi",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_kind(kind: FormatKind) -> Option<Fmt> {
        match kind {
            FormatKind::Csr => Some(Fmt::Csr),
            FormatKind::CsrDu => Some(Fmt::Du),
            FormatKind::CsrVi => Some(Fmt::Vi),
            FormatKind::CsrDuVi => Some(Fmt::DuVi),
            _ => None,
        }
    }
}

/// A corpus matrix with its seeded inputs and reference outputs.
pub struct Mat {
    pub id: u32,
    /// Registry name in the service.
    pub name: String,
    pub csr: Arc<Csr<u32, f64>>,
    /// Seeded x vectors.
    pub xs: Vec<Vec<f64>>,
    /// `ys[i]` = serial CSR `A · xs[i]`, the reference every output is
    /// compared with bit for bit.
    pub ys: Vec<Vec<f64>>,
    /// Row-major `ncols × K8` panel whose column `v` is `xs[v % XS]`.
    pub x8: Vec<f64>,
}

impl Mat {
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Bitwise comparison of a k = 1 output with `ys[xi]`.
    pub fn check1(&self, xi: usize, y: &[f64]) -> bool {
        same_bits(&self.ys[xi], y)
    }

    /// Bitwise comparison of a k = 8 panel output with the references.
    pub fn check8(&self, y: &[f64]) -> bool {
        y.len() == self.csr.nrows() * K8
            && y.chunks_exact(K8).enumerate().all(|(r, row)| {
                row.iter().enumerate().all(|(v, y)| y.to_bits() == self.ys[v % XS][r].to_bits())
            })
    }
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Builds corpus matrix `id` at `scale` (deterministic; the seed does
/// not change the matrix) and its inputs from `seed`.
pub fn corpus_mat(id: u32, scale: f64, seed: u64) -> Mat {
    let entry = spmv_matgen::corpus::corpus_scaled(scale)
        .into_iter()
        .find(|e| e.id == id)
        .expect("corpus ids run 1..=100");
    let csr = Arc::new(entry.build().to_csr());
    let mut rng = Rng::new(seed ^ (id as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let xs: Vec<Vec<f64>> = (0..XS)
        .map(|_| spmv_bench::measured::random_x::<f64>(csr.ncols(), rng.next_u64()))
        .collect();
    let ys: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            let mut y = vec![0.0; csr.nrows()];
            csr.spmv(x, &mut y);
            y
        })
        .collect();
    let mut x8 = vec![0.0; csr.ncols() * K8];
    for (c, row) in x8.chunks_exact_mut(K8).enumerate() {
        for (v, slot) in row.iter_mut().enumerate() {
            *slot = xs[v % XS][c];
        }
    }
    Mat { id, name: format!("m{id}"), csr, xs, ys, x8 }
}

/// The three compressed encodings of one matrix.
pub struct Enc {
    pub du: Arc<CsrDu<f64>>,
    pub vi: Arc<CsrVi<u32, f64>>,
    pub duvi: Arc<CsrDuVi<f64>>,
}

pub fn encode(csr: &Csr<u32, f64>) -> Enc {
    let opts = DuOptions::default();
    Enc {
        du: Arc::new(CsrDu::from_csr(csr, &opts)),
        vi: Arc::new(CsrVi::from_csr(csr)),
        duvi: Arc::new(CsrDuVi::from_csr(csr, &opts)),
    }
}

/// Bytes of the stored arrays of `fmt`, as the format reports them.
pub fn stored_bytes(m: &Mat, e: &Enc, fmt: Fmt) -> usize {
    match fmt {
        Fmt::Csr => m.csr.size_bytes(),
        Fmt::Du => e.du.size_bytes(),
        Fmt::Vi => e.vi.size_bytes(),
        Fmt::DuVi => e.duvi.size_bytes(),
    }
}

/// Serial `y = A·x` in `fmt` (the core layer).
pub fn serial_spmv(m: &Mat, e: &Enc, fmt: Fmt, x: &[f64], y: &mut [f64]) {
    match fmt {
        Fmt::Csr => m.csr.spmv(x, y),
        Fmt::Du => e.du.spmv(x, y),
        Fmt::Vi => e.vi.spmv(x, y),
        Fmt::DuVi => e.duvi.spmv(x, y),
    }
}

/// The `Par*` executor of `fmt` at [`THREADS`] threads (plans its
/// partition and spawns its pool).
pub fn par_exec<'a>(m: &'a Mat, e: &'a Enc, fmt: Fmt) -> Box<dyn ParSpMm<f64> + 'a> {
    match fmt {
        Fmt::Csr => Box::new(ParCsr::new(&*m.csr, THREADS)),
        Fmt::Du => Box::new(ParCsrDu::new(&*e.du, THREADS)),
        Fmt::Vi => Box::new(ParCsrVi::new(&*e.vi, THREADS)),
        Fmt::DuVi => Box::new(ParCsrDuVi::new(&*e.duvi, THREADS)),
    }
}

/// The chunk kernel the supervised executor runs for `fmt`.
pub fn chunk_kernel(m: &Mat, e: &Enc, fmt: Fmt, chunks: usize) -> Arc<dyn ChunkKernel<f64>> {
    let n = chunks.max(1);
    match fmt {
        Fmt::Csr => Arc::new(CsrChunks::new(Arc::clone(&m.csr), n)),
        Fmt::Du => Arc::new(CsrDuChunks::new(Arc::clone(&e.du), n)),
        Fmt::Vi => Arc::new(CsrViChunks::new(Arc::clone(&e.vi), n)),
        Fmt::DuVi => Arc::new(CsrDuViChunks::new(Arc::clone(&e.duvi), n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inputs_repeat_and_every_format_matches_the_reference() {
        let a = corpus_mat(26, 0.004, 7);
        let b = corpus_mat(26, 0.004, 7);
        let c = corpus_mat(26, 0.004, 8);
        assert!(same_bits(&a.xs[3], &b.xs[3]), "same seed, same inputs");
        assert!(!same_bits(&a.xs[3], &c.xs[3]), "another seed, other inputs");
        let e = encode(&a.csr);
        for fmt in FMTS {
            let mut y = vec![0.0; a.csr.nrows()];
            serial_spmv(&a, &e, fmt, &a.xs[1], &mut y);
            assert!(a.check1(1, &y), "{}", fmt.name());
            let mut p = par_exec(&a, &e, fmt);
            let mut y8 = vec![0.0; a.csr.nrows() * K8];
            p.par_spmm(&a.x8, K8, &mut y8);
            assert!(a.check8(&y8), "{}", fmt.name());
            y8[0] += 1.0;
            assert!(!a.check8(&y8));
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut v: Vec<usize> = (0..10).collect();
        Rng::new(1).shuffle(&mut v);
        let mut w: Vec<usize> = (0..10).collect();
        Rng::new(1).shuffle(&mut w);
        assert_eq!(v, w);
        w.sort_unstable();
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }
}
