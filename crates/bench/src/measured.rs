//! Timing helpers for `reproduce plan`: per-iteration samples summarized
//! with *robust* statistics ([`TimingStats`]) after an *adaptive*
//! warm-up ([`WarmupOpts`]), plus the seeded random `x` of the paper's
//! §VI-A protocol ([`random_x`]).
//!
//! Every iteration is timed as its own sample: the median and MAD are
//! insensitive to the occasional scheduler-preemption outlier that
//! poisons a mean, the p95 and the coefficient of variation expose
//! whether the run was quiet enough to trust at all, and warm-up runs
//! until the last few iterations stabilize instead of assuming one
//! iteration fills the caches. The §VI-A protocol itself — timed SpMV
//! calls with a random `x` on each format — is perfbench's `kernel-ml`
//! workload.

use serde::Serialize;
use spmv_core::checked::{CheckOptions, CheckedSpMv};
use spmv_core::{Csr, Scalar, SpIndex, SpMv, SparseError};
use spmv_parallel::ParSpMv;
use std::time::Instant;

/// Deterministic pseudo-random x vector ("randomly created x vertices",
/// §VI-A) in `[-1, 1)` — splitmix64, no rand dependency in the hot path.
///
/// splitmix64 rather than raw xorshift for two reasons that bit earlier
/// versions: every 64-bit seed is a distinct stream (a `seed | 1` guard
/// made each even seed collide with its odd neighbor), and values come
/// from the *high* 53 bits of a well-mixed word (a `state % 2000` took
/// the weakest bits of an unmixed state, with modulo bias on top).
pub fn random_x<V: Scalar>(ncols: usize, seed: u64) -> Vec<V> {
    let mut state = seed;
    (0..ncols)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            V::from_f64((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        })
        .collect()
}

/// Robust summary statistics over per-iteration timing samples (seconds).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimingStats {
    /// Number of timed iterations.
    pub samples: usize,
    /// Fastest iteration.
    pub min_s: f64,
    /// Median iteration time — the headline number (outlier-robust).
    pub median_s: f64,
    /// Arithmetic mean iteration time.
    pub mean_s: f64,
    /// Median absolute deviation from the median — the robust spread.
    pub mad_s: f64,
    /// 95th-percentile iteration time (tail latency).
    pub p95_s: f64,
    /// 99th-percentile iteration time — the deep-tail figure the serving
    /// layer's deadline budgets are judged against. With fewer than 100
    /// samples it coincides with the maximum.
    pub p99_s: f64,
    /// Coefficient of variation (population stddev / mean): a noise
    /// gauge; above ~0.1 the run was too disturbed to compare formats.
    pub cv: f64,
}

impl TimingStats {
    /// Summarizes raw per-iteration samples. Rejects an empty slice with
    /// [`SparseError::InvalidArgument`] — there is no meaningful summary
    /// of zero measurements (and silently returning NaNs poisons every
    /// downstream bandwidth figure).
    pub fn from_samples(samples: &[f64]) -> Result<TimingStats, SparseError> {
        if samples.is_empty() {
            return Err(SparseError::InvalidArgument(
                "cannot summarize zero timing samples (iters must be >= 1)".into(),
            ));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
        let n = sorted.len();
        let median = median_of_sorted(&sorted);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let mut dev: Vec<f64> = sorted.iter().map(|s| (s - median).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).expect("deviations are finite"));
        let mad = median_of_sorted(&dev);
        let p95 = percentile_of_sorted(&sorted, 0.95);
        let p99 = percentile_of_sorted(&sorted, 0.99);
        let var = sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        Ok(TimingStats {
            samples: n,
            min_s: sorted[0],
            median_s: median,
            mean_s: mean,
            mad_s: mad,
            p95_s: p95,
            p99_s: p99,
            cv,
        })
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) over an ascending slice.
fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    sorted[(((n as f64) * q).ceil() as usize).clamp(1, n) - 1]
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Adaptive warm-up policy: run warm-up iterations until the last
/// `window` of them agree within `tolerance`, bounded by
/// `[min_iters, max_iters]`.
#[derive(Debug, Clone, Copy)]
pub struct WarmupOpts {
    /// Warm-up iterations always run, stable or not (caches must be
    /// touched at least once).
    pub min_iters: usize,
    /// Hard cap — tiny kernels near timer resolution never stabilize, so
    /// warm-up must terminate regardless.
    pub max_iters: usize,
    /// Number of trailing iterations that must agree.
    pub window: usize,
    /// Relative spread `(max - min) / min` the window must stay within.
    pub tolerance: f64,
}

impl Default for WarmupOpts {
    fn default() -> WarmupOpts {
        WarmupOpts { min_iters: 2, max_iters: 16, window: 3, tolerance: 0.2 }
    }
}

/// Whether a trailing warm-up window has stabilized: relative spread
/// `(max - min) / min` within `tolerance`. A window whose fastest sample
/// is zero (kernel faster than the timer tick) is *unstable* by fiat —
/// the spread quotient would be a divide-by-zero, and a timer that can't
/// resolve the kernel has said nothing about cache steady state.
fn window_is_stable(recent: &[f64], tolerance: f64) -> bool {
    let mx = recent.iter().fold(f64::MIN, |a, &b| a.max(b));
    let mn = recent.iter().fold(f64::MAX, |a, &b| a.min(b));
    mn > 0.0 && (mx - mn) / mn <= tolerance
}

/// Runs `iter` until the trailing window stabilizes per `opts`; returns
/// how many warm-up iterations ran.
fn adaptive_warmup(opts: &WarmupOpts, mut iter: impl FnMut()) -> usize {
    let window = opts.window.max(2);
    let max_iters = opts.max_iters.max(opts.min_iters).max(1);
    let mut recent: Vec<f64> = Vec::with_capacity(window);
    let mut count = 0;
    while count < max_iters {
        let t0 = Instant::now();
        iter();
        if recent.len() == window {
            recent.remove(0);
        }
        recent.push(t0.elapsed().as_secs_f64());
        count += 1;
        if count >= opts.min_iters
            && recent.len() == window
            && window_is_stable(&recent, opts.tolerance)
        {
            break;
        }
    }
    count
}

/// Wall-clock measurement of one kernel.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Adaptive warm-up iterations that ran (untimed) before the samples.
    pub warmup_iterations: usize,
    /// Achieved MFLOP/s at the median iteration time.
    pub mflops: f64,
    /// Full per-iteration sample summary.
    pub stats: TimingStats,
}

/// Measures `iters` serial SpMV iterations of `m`. FLOPs per iteration
/// are `2 * nnz` (one multiply-add per non-zero).
pub fn measure_serial_spmv<V: Scalar>(
    m: &dyn SpMv<V>,
    iters: usize,
    seed: u64,
    warmup: &WarmupOpts,
) -> Result<Measurement, SparseError> {
    if iters == 0 {
        return Err(SparseError::InvalidArgument(
            "measure_serial_spmv requires iters >= 1 (a zero-iteration measurement has no data)"
                .into(),
        ));
    }
    let x = random_x::<V>(m.ncols(), seed);
    let mut y = vec![V::zero(); m.nrows()];
    // First warm-up iteration is shape-checked; the rest (and the timed
    // loop) use the unchecked entry point.
    m.try_spmv(&x, &mut y)?;
    let warmed = 1 + adaptive_warmup(warmup, || {
        m.spmv(&x, &mut y);
        std::hint::black_box(&mut y);
    });
    let samples = collect_samples(iters, || {
        m.spmv(&x, &mut y);
        std::hint::black_box(&mut y);
    });
    summarize(m.flops(), warmed, &samples)
}

/// Measures `iters` multithreaded SpMV iterations of a planned executor.
/// The plan's persistent worker pool was spawned at plan time (the
/// paper's spawn-once protocol), so the timed loop contains only pool
/// dispatches.
pub fn measure_parallel_spmv<V: Scalar>(
    m: &dyn SpMv<V>,
    par: &mut dyn ParSpMv<V>,
    iters: usize,
    seed: u64,
    warmup: &WarmupOpts,
) -> Result<Measurement, SparseError> {
    if iters == 0 {
        return Err(SparseError::InvalidArgument(
            "measure_parallel_spmv requires iters >= 1 (a zero-iteration measurement has no data)"
                .into(),
        ));
    }
    let x = random_x::<V>(m.ncols(), seed);
    let mut y = vec![V::zero(); m.nrows()];
    let warmed = adaptive_warmup(warmup, || {
        par.par_spmv(&x, &mut y);
        std::hint::black_box(&mut y);
    });
    let samples = collect_samples(iters, || {
        par.par_spmv(&x, &mut y);
        std::hint::black_box(&mut y);
    });
    summarize(m.flops(), warmed, &samples)
}

/// Verifies a parallel SpMV result against the serial CSR reference
/// before its timing is trusted, through the ULP/L1 comparator of
/// [`spmv_core::checked`] over **every** row (`sample_rows: 0`) — never a
/// raw `==`: parallel reductions legitimately reorder sums. `baseline`
/// is the CSR form of the same matrix; a mismatch returns the typed
/// [`SparseError::VerificationFailed`] naming the row and the ULP
/// distances.
pub fn validate_parallel_spmv<I: SpIndex, V: Scalar>(
    m: &dyn SpMv<V>,
    baseline: &Csr<I, V>,
    par: &mut dyn ParSpMv<V>,
    seed: u64,
) -> Result<(), SparseError> {
    let x = random_x::<V>(m.ncols(), seed);
    let mut y = vec![V::zero(); m.nrows()];
    par.par_spmv(&x, &mut y);
    let opts = CheckOptions { sample_rows: 0, ..CheckOptions::default() };
    CheckedSpMv::with_options(m, baseline, opts)?.verify_against(&x, &y)
}

/// Times `iters` calls of `iter`, one sample per call.
fn collect_samples(iters: usize, mut iter: impl FnMut()) -> Vec<f64> {
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            iter();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn summarize(
    flops_per_iter: usize,
    warmup_iterations: usize,
    samples: &[f64],
) -> Result<Measurement, SparseError> {
    let stats = TimingStats::from_samples(samples)?;
    // A sub-timer-resolution median clamps to 0.0 MFLOP/s instead of NaN:
    // the figure is meaningless either way, but NaN is unrepresentable in
    // BENCH.json and would poison the artifact.
    let mflops =
        if stats.median_s > 0.0 { flops_per_iter as f64 / stats.median_s / 1e6 } else { 0.0 };
    if !mflops.is_finite() {
        return Err(SparseError::InvalidArgument(format!(
            "non-finite MFLOP/s from median {}s",
            stats.median_s
        )));
    }
    Ok(Measurement { warmup_iterations, mflops, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::csr_du::{CsrDu, DuOptions};
    use spmv_core::Csr;
    use spmv_parallel::ParCsrDu;

    #[test]
    fn serial_measurement_is_sane() {
        let csr: Csr = spmv_matgen::gen::banded(5000, 4, 1.0, 1).to_csr();
        let m = measure_serial_spmv(&csr, 4, 42, &WarmupOpts::default()).unwrap();
        assert!(m.mflops > 1.0, "mflops {}", m.mflops);
        assert!(m.warmup_iterations >= WarmupOpts::default().min_iters);
        assert!(m.warmup_iterations <= 1 + WarmupOpts::default().max_iters);
        let s = &m.stats;
        assert_eq!(s.samples, 4);
        assert!(s.min_s <= s.median_s && s.median_s <= s.p95_s && s.p95_s <= s.p99_s);
        assert!(s.mad_s >= 0.0 && s.cv >= 0.0);
    }

    #[test]
    fn zero_iterations_are_rejected_not_divided() {
        let csr: Csr = spmv_matgen::gen::banded(100, 2, 1.0, 1).to_csr();
        let err = measure_serial_spmv(&csr, 0, 1, &WarmupOpts::default()).unwrap_err();
        assert!(matches!(err, SparseError::InvalidArgument(_)), "{err}");
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut par = ParCsrDu::new(&du, 2);
        let err = measure_parallel_spmv(&du, &mut par, 0, 1, &WarmupOpts::default()).unwrap_err();
        assert!(matches!(err, SparseError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn validator_reports_typed_mismatch() {
        // Validate a *different* matrix's executor against our baseline:
        // every disagreement is real, and the error must be the typed
        // verification report, not a bare float.
        let csr: Csr = spmv_matgen::gen::banded(200, 3, 1.0, 5).to_csr();
        let mut perturbed = spmv_matgen::gen::banded(200, 3, 1.0, 5).to_csr();
        perturbed.values_mut()[7] += 100.0;
        let du = CsrDu::from_csr(&perturbed, &DuOptions::default());
        let mut par = ParCsrDu::new(&du, 2);
        let err = validate_parallel_spmv(&du, &csr, &mut par, 3).unwrap_err();
        assert!(matches!(err, SparseError::VerificationFailed { .. }), "{err}");
    }

    #[test]
    fn parallel_measurement_and_validation_work() {
        let csr: Csr = spmv_matgen::gen::banded(2000, 4, 1.0, 2).to_csr();
        let du = CsrDu::from_csr(&csr, &DuOptions::default());
        let mut par = ParCsrDu::new(&du, 3);
        validate_parallel_spmv(&du, &csr, &mut par, 7).unwrap();
        let mp = measure_parallel_spmv(&du, &mut par, 3, 7, &WarmupOpts::default()).unwrap();
        assert!(mp.stats.median_s > 0.0);
        assert_eq!(mp.stats.samples, 3);
        // MFLOP/s at the median is `2 * nnz` per iteration.
        let flops = mp.mflops * mp.stats.median_s * 1e6;
        assert!((flops - du.flops() as f64).abs() < 1e-6, "{flops} vs {}", du.flops());
    }

    #[test]
    fn random_x_is_deterministic_and_bounded() {
        let a = random_x::<f64>(100, 9);
        let b = random_x::<f64>(100, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, random_x::<f64>(100, 10));
    }

    #[test]
    fn adjacent_seeds_give_distinct_vectors() {
        // Regression: the old generator's `seed | 1` made every even seed
        // collide with its odd successor (10 and 11 were identical).
        for seed in [0u64, 1, 2, 9, 10, 42, 1000] {
            let a = random_x::<f64>(64, seed);
            let b = random_x::<f64>(64, seed + 1);
            assert_ne!(a, b, "seeds {seed} and {} collide", seed + 1);
        }
    }

    #[test]
    fn random_x_distribution_is_not_degenerate() {
        // Regression: the old `state % 2000` drew from the weakest bits
        // with modulo bias. The fixed generator must look uniform on
        // [-1, 1): rich value set, centered mean, both tails populated.
        let xs = random_x::<f64>(4096, 12345);
        let mut distinct = xs.clone();
        distinct.sort_by(|a, b| a.partial_cmp(b).unwrap());
        distinct.dedup();
        assert!(distinct.len() > 4000, "only {} distinct values", distinct.len());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean} far from 0");
        // Each quarter of the range gets a reasonable share (uniform
        // expectation: 1024 each; allow wide slack).
        for lo in [-1.0, -0.5, 0.0, 0.5] {
            let n = xs.iter().filter(|v| (lo..lo + 0.5).contains(*v)).count();
            assert!((700..1400).contains(&n), "quarter [{lo}, {}) has {n}", lo + 0.5);
        }
    }

    #[test]
    fn timing_stats_known_values() {
        let s = TimingStats::from_samples(&[3.0, 1.0, 4.0, 2.0, 100.0]).unwrap();
        assert_eq!(s.samples, 5);
        assert_eq!(s.min_s, 1.0);
        assert_eq!(s.median_s, 3.0);
        assert_eq!(s.mean_s, 22.0);
        // deviations from 3: [2, 1, 0, 1, 97] -> median 1.
        assert_eq!(s.mad_s, 1.0);
        assert_eq!(s.p95_s, 100.0);
        // Five samples: both tail percentiles land on the maximum.
        assert_eq!(s.p99_s, 100.0);
        assert!(s.cv > 1.0, "one huge outlier must show up in cv: {}", s.cv);
        // Even-length median averages the middle pair.
        let e = TimingStats::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.median_s, 2.5);
        assert!(TimingStats::from_samples(&[]).is_err());
    }

    #[test]
    fn p99_separates_from_p95_at_scale() {
        // 100 samples 1..=100: nearest-rank p95 lands on 95, p99 on 99.
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = TimingStats::from_samples(&samples).unwrap();
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        // A single sample is its own percentile at every rank.
        let one = TimingStats::from_samples(&[7.0]).unwrap();
        assert_eq!(one.p95_s, 7.0);
        assert_eq!(one.p99_s, 7.0);
    }

    #[test]
    fn adaptive_warmup_respects_bounds() {
        // A perfectly steady "kernel" stabilizes as early as allowed.
        let opts = WarmupOpts { min_iters: 3, max_iters: 10, window: 2, tolerance: 10.0 };
        let n = adaptive_warmup(&opts, || std::thread::sleep(std::time::Duration::from_micros(50)));
        assert!((3..=10).contains(&n), "warmed {n}");
        // A zero-cost closure never stabilizes (times at timer
        // resolution) but the cap still terminates it.
        let opts = WarmupOpts { min_iters: 1, max_iters: 4, window: 3, tolerance: 0.0 };
        assert_eq!(adaptive_warmup(&opts, || {}), 4);
    }

    #[test]
    fn zero_min_window_is_unstable_not_a_division() {
        // Regression: a window containing a 0 ns sample used to feed the
        // (max - min) / min spread a zero divisor. The helper must call
        // such a window unstable — even with an infinite tolerance — and
        // adaptive_warmup must still terminate at max_iters.
        assert!(!window_is_stable(&[0.0, 0.0, 0.0], f64::INFINITY));
        assert!(!window_is_stable(&[0.0, 1e-9, 2e-9], f64::INFINITY));
        assert!(window_is_stable(&[1e-6, 1.1e-6, 1.05e-6], 0.2));
        assert!(!window_is_stable(&[1e-6, 2e-6, 1e-6], 0.2));
        // A kernel the timer genuinely reads as 0 ns never stabilizes but
        // still terminates at the cap (Instant is monotonic and mocked
        // here by construction: every all-zero window is unstable, so the
        // loop can only exit via max_iters).
        let opts = WarmupOpts { min_iters: 1, max_iters: 7, window: 2, tolerance: f64::INFINITY };
        let mut calls = 0usize;
        let n = adaptive_warmup(&opts, || calls += 1);
        assert!(n <= 7 && calls == n, "warmup must terminate within the cap ({n}, {calls})");
    }
}
