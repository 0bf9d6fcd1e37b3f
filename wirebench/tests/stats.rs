//! The reporting rule: a tail percentile is reported only when at least
//! ten samples lie beyond it.

use wirebench::stats::{beyond, highest_percentile, median, percentile, tail, MIN_BEYOND};

#[test]
fn samples_beyond_a_percentile_use_the_nearest_rank() {
    assert_eq!(beyond(1000, 99.0), 10);
    assert_eq!(beyond(999, 99.0), 9);
    assert_eq!(beyond(10_000, 99.9), 10);
    assert_eq!(beyond(20, 50.0), 10);
    assert_eq!(beyond(0, 50.0), 0);
}

#[test]
fn the_highest_supported_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_percentile(10_000), Some(99.9));
    assert_eq!(highest_percentile(9_999), Some(99.0));
    assert_eq!(highest_percentile(1_000), Some(99.0));
    assert_eq!(highest_percentile(999), Some(95.0));
    assert_eq!(highest_percentile(200), Some(95.0));
    assert_eq!(highest_percentile(100), Some(90.0));
    assert_eq!(highest_percentile(20), Some(50.0));
    assert_eq!(highest_percentile(19), None);
    for n in 0..5_000 {
        if let Some(p) = highest_percentile(n) {
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }
}

#[test]
fn a_tail_with_too_few_samples_beyond_is_refused() {
    let samples: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(tail(&samples, 99.0), None);
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = tail(&samples, 99.0).expect("1000 samples support p99");
    assert!((p99 - 990.01).abs() < 1e-9, "p99 = {p99}");
}

#[test]
fn percentiles_interpolate_between_ranks() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(percentile(&[0.0, 10.0], 90.0), Some(9.0));
}
