//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank over the sorted samples, in per-mille so
//! the rank arithmetic is exact integers. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it; with
//! fewer completions the highest rung of [`TAIL_LADDER`] that the sample
//! supports is reported instead, together with its rung.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the top, in per-mille (990 = p99).
pub const TAIL_LADDER: [u32; 7] = [990, 980, 970, 950, 900, 750, 500];

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
pub fn rank(n: usize, pm: u32) -> usize {
    let r = (pm as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of already sorted samples; `None` when empty.
pub fn percentile(sorted: &[f64], pm: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pm) - 1])
}

/// Median (nearest rank, so the lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 500)
}

/// A tail percentile together with the rung it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The rung, in per-mille.
    pub pm: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

/// The highest rung of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it; `None` when not even the median qualifies.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pm| {
        let r = rank(n, pm);
        let beyond = n.saturating_sub(r);
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail { pm, value: sorted[r - 1], beyond })
    })
}

/// Windows the tail latency of a served run is taken in.
pub const WINDOWS: usize = 5;

/// Splits consecutive slices, given by their sample counts, into
/// `min(n, slices)` windows of as equal a number of slices as possible.
/// Returns the sample count of each window.
pub fn windows(counts: &[usize], n: usize) -> Vec<usize> {
    let w = n.min(counts.len());
    (0..w).map(|i| counts[i * counts.len() / w..(i + 1) * counts.len() / w].iter().sum()).collect()
}

/// The tail latency of a served run: [`tail`] within each of
/// [`WINDOWS`] windows of consecutive slices, then the median over
/// windows, so one burst of host noise moves one window, not the figure.
/// `samples` are in arrival order and `counts` are their slices. Returns
/// the median value, the lowest rung any window used, and the window
/// count; `None` when a window is too small for any rung.
pub fn windowed_tail(samples: &[f64], counts: &[usize]) -> Option<(f64, u32, usize)> {
    let mut start = 0;
    let mut values = Vec::new();
    let mut rung = u32::MAX;
    for n in windows(counts, WINDOWS) {
        let mut w = samples[start..start + n].to_vec();
        start += n;
        w.sort_by(f64::total_cmp);
        let t = tail(&w)?;
        values.push(t.value);
        rung = rung.min(t.pm);
    }
    let nwin = values.len();
    median(&values).map(|v| (v, rung, nwin))
}

/// Scale and pooled ratios for the percentiles of a mixture of cells
/// whose typical times differ several-fold, such as kernel-ml's 24
/// cells. Each sample is divided by its cell's median and the ratios are
/// pooled and sorted; a percentile of the mixture is then the percentile
/// of the ratios times the returned scale, the geometric mean of the cell
/// medians. A plain percentile of the raw mixture falls in the gap
/// between two cells and hops between them from run to run.
pub fn mixture(cells: &[Vec<f64>]) -> Option<(f64, Vec<f64>)> {
    let meds: Vec<f64> = cells.iter().filter_map(|c| median(c)).filter(|m| *m > 0.0).collect();
    if meds.len() != cells.len() || meds.is_empty() {
        return None;
    }
    let scale = (meds.iter().map(|m| m.ln()).sum::<f64>() / meds.len() as f64).exp();
    let mut ratios: Vec<f64> =
        cells.iter().zip(&meds).flat_map(|(c, m)| c.iter().map(move |t| t / m)).collect();
    ratios.sort_by(f64::total_cmp);
    Some((scale, ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let t = tail(&ramp(1000)).expect("1000 samples support a tail");
        assert_eq!((t.pm, t.value, t.beyond), (990, 990.0, 10));
        // One sample fewer leaves only 9 beyond the p99 rank: fall to p98.
        let t = tail(&ramp(999)).expect("999 samples support a tail");
        assert_eq!(t.pm, 980);
        assert_eq!(t.value, 980.0);
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn small_samples_fall_down_the_ladder() {
        // 100 samples: p90 leaves exactly 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pm, t.value, t.beyond), (900, 90.0, 10));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail(&ramp(20)).unwrap().pm, 500);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn slices_split_into_even_windows() {
        assert_eq!(windows(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 5), vec![3, 7, 11, 15, 19]);
        assert_eq!(windows(&[1, 2, 3, 4, 5, 6, 7], 5), vec![1, 2, 7, 5, 13]);
        assert_eq!(windows(&[4, 4], 5), vec![4, 4], "never more windows than slices");
        assert_eq!(windows(&[], 5), Vec::<usize>::new());
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three windows of 1000; the middle one holds a burst of slow
        // samples, which moves its own p99 but not the median over windows.
        let mut s = ramp(1000);
        s.extend((1..=1000).map(|i| 10.0 * i as f64));
        s.extend(ramp(1000).into_iter().map(|v| v + 1.0));
        let (v, rung, n) = windowed_tail(&s, &[1000, 1000, 1000]).unwrap();
        assert_eq!((v, rung, n), (991.0, 990, 3));
        // Five windows of 200 samples: each falls to p95.
        let s: Vec<f64> = (0..5).flat_map(|_| ramp(200)).collect();
        let (v, rung, n) = windowed_tail(&s, &[100; 10]).unwrap();
        assert_eq!((v, rung, n), (190.0, 950, 5));
        assert_eq!(windowed_tail(&ramp(15), &[15]), None);
    }

    #[test]
    fn mixture_scales_pooled_ratios_by_the_geometric_mean_of_cell_medians() {
        // A fast cell around 1 and a slow cell around 100: their medians'
        // geometric mean is 10, and each cell's own spread survives.
        let fast = vec![1.0, 1.0, 1.0, 2.0];
        let slow = vec![100.0, 100.0, 100.0, 300.0];
        let (scale, ratios) = mixture(&[fast, slow]).unwrap();
        assert!((scale - 10.0).abs() < 1e-12);
        assert_eq!(ratios, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0]);
        assert!((percentile(&ratios, 500).unwrap() * scale - 10.0).abs() < 1e-12);
        assert_eq!(mixture(&[vec![1.0], vec![]]), None, "every cell needs samples");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 500), Some(5.0));
        assert_eq!(percentile(&s, 1000), Some(10.0));
        assert_eq!(percentile(&s, 1), Some(1.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(rank(0, 990), 1);
    }
}
