//! Percentile rules: exact nearest-rank over the generator's own samples
//! (unanswered commands count as infinite latency), and an interpolated
//! quantile over the replicas' bucketed histograms.

use atlas_metrics::BoundedHistogram;

/// Nearest-rank percentile of ascending `sorted` (`p` in `(0, 1]`): the
/// smallest sample with at least `p` of all samples at or below it.
/// Infinite samples rank last, so enough of them make the result infinite.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts latencies ascending, infinities last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Median of a non-empty set of values (the mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Splits `samples` (in schedule order) into as many consecutive windows of
/// at least `window` samples as fit (at least one), takes each window's
/// nearest-rank quantile `p`, and returns the median of those and the
/// window count. A burst that ruins one window moves the result by one
/// rank instead of dominating a pooled tail.
pub fn windowed_quantile(samples: &[f64], window: usize, p: f64) -> (f64, usize) {
    let windows = (samples.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|k| {
            let range = k * samples.len() / windows..(k + 1) * samples.len() / windows;
            nearest_rank(&sorted(samples[range].to_vec()), p)
        })
        .collect();
    (median(&per_window), windows)
}

/// CPU per command: for each interval between consecutive `(ns, cpu
/// seconds)` samples that lies inside `[from_ns, to_ns]`, the CPU spent
/// divided by the commands sent in it (µs), and the median over those
/// intervals with their count. A host hiccup that inflates a few intervals
/// then moves the result by a few ranks. Without a whole interval inside
/// the window, the span of all samples is one interval.
pub fn cpu_per_op(
    samples: &[(u64, f64)],
    sent_ns: &[u64],
    from_ns: u64,
    to_ns: u64,
) -> (f64, usize) {
    let per_op = |a: &(u64, f64), b: &(u64, f64)| {
        let sent = sent_ns.partition_point(|&t| t < b.0) - sent_ns.partition_point(|&t| t < a.0);
        (sent > 0).then(|| (b.1 - a.1) * 1e6 / sent as f64)
    };
    let inside: Vec<f64> = samples
        .windows(2)
        .filter(|w| w[0].0 >= from_ns && w[1].0 <= to_ns)
        .filter_map(|w| per_op(&w[0], &w[1]))
        .collect();
    if !inside.is_empty() {
        return (median(&inside), inside.len());
    }
    match (samples.first(), samples.last()) {
        (Some(a), Some(b)) => (per_op(a, b).unwrap_or(0.0), 1),
        _ => (0.0, 0),
    }
}

/// Quantile `p` of a replica histogram, interpolated inside the bucket that
/// holds the nearest-rank sample. [`BoundedHistogram::percentile`] reports
/// the bucket's upper edge (up to 6.25% high, and identical from run to run
/// while the quantile stays in one bucket); this spreads the ranks that
/// share the bucket evenly over its width instead. Buckets are found
/// through the public percentile query alone.
pub fn histogram_quantile(h: &BoundedHistogram, p: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let at = |rank: u64| h.percentile(((rank as f64 - 0.5) / count as f64).clamp(0.0, 1.0));
    let rank = ((p * count as f64).ceil() as u64).clamp(1, count);
    let value = at(rank);
    // First and last rank reporting the same bucket (`at` is monotone).
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < value {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, count);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > value {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let (start, end) = bucket_span(value);
    let start = start.max(h.min()) as f64;
    let end = end.min(h.max()) as f64 + 1.0;
    let frac = (rank - first) as f64 + 0.5;
    (start + frac / (last - first + 1) as f64 * (end - start)).min(h.max() as f64)
}

/// Inclusive value range of the histogram bucket holding `value`: exact
/// below 16, otherwise 16 linear buckets per power-of-two octave.
fn bucket_span(value: u64) -> (u64, u64) {
    if value < 16 {
        return (value, value);
    }
    let shift = 63 - value.leading_zeros() - 4;
    let start = (value >> shift) << shift;
    (start, start + (1 << shift) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(nearest_rank(&s, 0.5), 3.0);
        assert_eq!(nearest_rank(&s, 0.2), 1.0);
        assert_eq!(nearest_rank(&s, 0.21), 2.0);
        assert_eq!(nearest_rank(&s, 1.0), 5.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
    }

    #[test]
    fn unanswered_commands_count_as_infinite_latency() {
        // 100 samples, 2 unanswered: p99 needs rank 99, the first infinity.
        let mut v: Vec<f64> = (1..=98).map(f64::from).collect();
        v.extend([f64::INFINITY, f64::INFINITY]);
        let s = sorted(v);
        assert_eq!(nearest_rank(&s, 0.98), 98.0);
        assert!(nearest_rank(&s, 0.99).is_infinite());
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        // One unanswered of 100 leaves p99 finite.
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(nearest_rank(&sorted(v), 0.99), 99.0);
    }

    #[test]
    fn windowed_quantile_takes_the_median_window() {
        // Three windows of 100: one with a 1% tail at 1000, one clean, one
        // ruined; the ruined window moves the result by one rank only.
        let mut v: Vec<f64> = Vec::new();
        v.extend((0..99).map(|_| 1.0).chain([1000.0]));
        v.extend((0..100).map(|_| 2.0));
        v.extend((0..100).map(|_| f64::INFINITY));
        let (q, windows) = windowed_quantile(&v, 100, 0.99);
        assert_eq!(windows, 3);
        assert_eq!(q, 2.0);
        // Fewer samples than one window: one window over everything.
        assert_eq!(windowed_quantile(&[3.0, 1.0, 2.0], 100, 0.5), (2.0, 1));
        // Remainders spread over the windows instead of being dropped.
        let (_, windows) = windowed_quantile(&vec![1.0; 250], 100, 0.99);
        assert_eq!(windows, 2);
    }

    #[test]
    fn cpu_per_op_takes_the_median_interval_inside_the_window() {
        // One command sent every 10 ms; 10 ms of CPU per second, except a
        // 1 s hiccup that burns 500 ms.
        let sent: Vec<u64> = (0..500).map(|i| i * 10_000_000).collect();
        let mut cpu = 0.0;
        let mut samples = Vec::new();
        for s in 0..=5u64 {
            samples.push((s * 1_000_000_000, cpu));
            cpu += if s == 3 { 0.5 } else { 0.01 };
        }
        // Intervals [1,2), [2,3), [3,4), [4,5): 100 commands each.
        let (per_op, n) = cpu_per_op(&samples, &sent, 1_000_000_000, 5_000_000_000);
        assert_eq!(n, 4);
        assert!((per_op - 100.0).abs() < 1e-6, "{per_op}");
        // A window too short for a whole interval falls back to the span.
        let (per_op, n) = cpu_per_op(&samples, &sent, 1_500_000_000, 1_600_000_000);
        assert_eq!(n, 1);
        assert!((per_op - (0.54 * 1e6 / 500.0)).abs() < 1e-6, "{per_op}");
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bucket_spans_tile_the_value_range() {
        assert_eq!(bucket_span(7), (7, 7));
        assert_eq!(bucket_span(16), (16, 16));
        assert_eq!(bucket_span(32), (32, 33));
        assert_eq!(bucket_span(33), (32, 33));
        assert_eq!(bucket_span(1000), (992, 1023));
        let mut next = 16;
        for _ in 0..500 {
            let (start, end) = bucket_span(next);
            assert_eq!(start, next);
            next = end + 1;
        }
    }

    #[test]
    fn histogram_quantile_is_close_to_exact_and_not_stuck_on_bucket_edges() {
        let mut h = BoundedHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        for (p, exact) in [(0.5, 1499.0), (0.99, 1989.0), (0.1, 1099.0)] {
            let got = histogram_quantile(&h, p);
            assert!((got - exact).abs() / exact < 0.02, "p{p}: {got} vs {exact}");
        }
        // One more sample inside the median's bucket moves the estimate;
        // the bucket edge the histogram reports does not move.
        let (before, edge) = (histogram_quantile(&h, 0.5), h.percentile(0.5));
        h.record(1480);
        assert_eq!(h.percentile(0.5), edge);
        assert_ne!(histogram_quantile(&h, 0.5), before);
        assert_eq!(histogram_quantile(&BoundedHistogram::new(), 0.5), 0.0);
        let mut one = BoundedHistogram::new();
        one.record(700);
        assert_eq!(histogram_quantile(&one, 0.5), 700.0);
    }
}
