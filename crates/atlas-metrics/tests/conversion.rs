//! Contract between `BoundedHistogram` and the exact statistics of the same
//! samples: recording into log buckets must preserve count/sum/min/max
//! exactly and every quantile to within the documented 6.25% bucket error.
//! The exact reference is computed here from a sorted copy of the samples.

use atlas_metrics::BoundedHistogram;

fn bounded_of(samples: &[u64]) -> BoundedHistogram {
    let mut h = BoundedHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Exact nearest-rank percentile of `sorted` (non-empty, ascending).
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn moments_are_exact() {
    let samples: Vec<u64> = (0..5_000u64).map(|i| (i * i) % 777_777 + 1).collect();
    let bounded = bounded_of(&samples);
    let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
    assert_eq!(bounded.count(), samples.len() as u64);
    assert_eq!(bounded.sum(), sum);
    assert_eq!(bounded.min(), *samples.iter().min().unwrap());
    assert_eq!(bounded.max(), *samples.iter().max().unwrap());
    assert_eq!(bounded.mean(), sum as f64 / samples.len() as f64);
}

#[test]
fn quantile_error_is_bounded_and_never_under_reports() {
    // Latency-shaped data spanning several orders of magnitude.
    let samples: Vec<u64> = (1..=20_000u64).map(|i| 50 + (i * i) / 300).collect();
    let bounded = bounded_of(&samples);
    let mut sorted = samples;
    sorted.sort_unstable();
    for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
        let e = nearest_rank(&sorted, p);
        let b = bounded.percentile(p);
        // The bounded answer is a bucket upper bound: never below the exact
        // nearest-rank sample, and at most one bucket width (v/16) above.
        assert!(b >= e, "p={p}: bounded {b} under-reports exact {e}");
        assert!(
            b - e <= e / 16 + 1,
            "p={p}: bounded {b} beyond error bound of exact {e}"
        );
    }
}

#[test]
fn merge_equals_recording_the_concatenation() {
    let a: Vec<u64> = (1..1_000u64).collect();
    let b: Vec<u64> = (500..5_000u64).map(|v| v * 3).collect();
    let mut merged = bounded_of(&a);
    merged.merge(&bounded_of(&b));
    let concatenated: Vec<u64> = a.iter().chain(&b).copied().collect();
    assert_eq!(merged, bounded_of(&concatenated));
}
