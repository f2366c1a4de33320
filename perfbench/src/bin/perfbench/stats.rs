//! Sample statistics shared by every workload: nearest-rank percentiles and
//! the tail rule (report the highest percentile that still has at least ten
//! samples beyond it).

/// Percentiles a tail metric may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending). `None` on an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank(sorted.len(), p);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps `0.999 * 10_000` from rounding up past 9 990).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile not above `wanted` that has at least
/// [`MIN_BEYOND`] samples beyond it among `n`, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize, wanted: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (nearest rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(f64::NAN)
}

/// A latency distribution summarized for reporting.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail value, at [`tail_p`](Self::tail_p).
    pub tail: f64,
    /// The percentile the tail value sits at (99 unless too few samples).
    pub tail_p: f64,
}

/// Median and the tail (p99, or the highest percentile the rule allows) of
/// `samples`. Falls back to the maximum when there are too few samples for
/// any tail percentile.
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    let tail_p = tail_percentile(s.len(), 99.0).unwrap_or(100.0);
    Summary {
        n: s.len(),
        p50: percentile(&s, 50.0).unwrap_or(f64::NAN),
        tail: percentile(&s, tail_p).unwrap_or(f64::NAN),
        tail_p,
    }
}

/// Groups `(key, value)` pairs into consecutive windows of `width` by key
/// (window `i` holds keys in `[i * width, (i + 1) * width)`).
pub fn windows<T>(items: impl IntoIterator<Item = (u64, T)>, width: u64) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = Vec::new();
    for (key, value) in items {
        let i = (key / width.max(1)) as usize;
        if out.len() <= i {
            out.resize_with(i + 1, Vec::new);
        }
        out[i].push(value);
    }
    out
}

/// How far into its quiet side a run's sub-window figures are read: the
/// 10th percentile of a latency, the 75th of a rate. (A rate sub-window
/// also varies with the operations it happened to draw, so it is read
/// nearer the middle.)
pub const QUIET_TIME_PERCENTILE: f64 = 10.0;
pub const QUIET_RATE_PERCENTILE: f64 = 75.0;

/// The figure a run reports from its sub-windows, read on the quiet side.
/// Noise from the rest of the machine (other tenants of a shared host) only
/// ever adds time, so the quieter sub-windows measure the program; a change
/// to the program moves every sub-window.
pub fn robust(per_window: &[f64], higher_is_better: bool) -> f64 {
    let p = if higher_is_better {
        QUIET_RATE_PERCENTILE
    } else {
        QUIET_TIME_PERCENTILE
    };
    percentile(&sorted(per_window), p).unwrap_or(f64::NAN)
}

/// A latency distribution measured as several consecutive sub-windows: the
/// [`robust`] figure over sub-windows of each one's median and tail. Stalls
/// of the machine then spoil some sub-windows, not the run.
pub fn summarize_windows(windows: &[Vec<f64>]) -> Summary {
    let per: Vec<Summary> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| summarize(w))
        .collect();
    let pick = |v: Vec<f64>| robust(&v, false);
    Summary {
        n: per.iter().map(|s| s.n).sum(),
        p50: pick(per.iter().map(|s| s.p50).collect()),
        tail: pick(per.iter().map(|s| s.tail).collect()),
        tail_p: per.iter().map(|s| s.tail_p).fold(100.0, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_group_by_key() {
        let w = windows([(0, 'a'), (9, 'b'), (10, 'c'), (35, 'd')], 10);
        assert_eq!(w, vec![vec!['a', 'b'], vec!['c'], vec![], vec!['d']]);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_summary() {
        let calm: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 10) as f64).collect();
        let stalled: Vec<f64> = vec![5000.0; 1000];
        let mut w = vec![calm.clone(); 4];
        let base = summarize_windows(&w);
        w.push(stalled);
        let with_stall = summarize_windows(&w);
        assert_eq!(base.p50, with_stall.p50);
        assert_eq!(base.tail, with_stall.tail);
        assert_eq!(with_stall.n, 5000);
        assert_eq!(with_stall.tail_p, 99.0);
    }

    #[test]
    fn robust_reads_the_quiet_side() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(robust(&v, false), 1.0);
        assert_eq!(robust(&v, true), 8.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99, so p99 is reportable,
        // but p99.9 has only 1 beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(1000, 99.9), Some(99.0));
        assert_eq!(tail_percentile(10_000, 99.9), Some(99.9));
        // 999 samples: only 9 beyond p99, so fall back to p95 (49 beyond).
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(tail_percentile(100, 99.0), Some(90.0));
        // 15 samples: even the median has only 7 beyond it; 20 samples: the
        // median has 10.
        assert_eq!(tail_percentile(15, 99.0), None);
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        assert_eq!(tail_percentile(5, 99.0), None);
    }

    #[test]
    fn summary_reports_the_tail_it_used() {
        let samples: Vec<f64> = (0..500).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 500);
        assert_eq!(s.tail_p, 95.0);
        assert_eq!(s.tail, 474.0);
        assert_eq!(s.p50, 249.0);
    }
}
