//! Order statistics with the benchmark's reporting rule: a timing is
//! reported as its median plus a tail percentile, and a tail percentile
//! is only reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples strictly beyond the `p`-th percentile of `n` samples (the
/// nearest-rank position `ceil(p/100 · n)` and everything below it are
/// not beyond).
pub fn beyond(n: usize, p: f64) -> usize {
    // The epsilon absorbs binary rounding of decimal percentiles
    // (99.9 / 100 · 10 000 evaluates just above 9 990).
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    n.saturating_sub(rank)
}

/// The highest ladder percentile (99.9, 99, 95, 90, 50) that has at
/// least [`MIN_BEYOND`] samples beyond it, if any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile of `samples` by linear interpolation between
/// closest ranks. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let pos = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A tail percentile that obeys the reporting rule: `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The median over consecutive blocks of `block` samples (in the order
/// given, a trailing partial block dropped) of `stat` per block: a
/// block statistic that one disturbed stretch of a run cannot move.
/// `None` when no full block exists or `stat` refuses every block.
pub fn block_median(
    samples: &[f64],
    block: usize,
    stat: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let per_block: Vec<f64> = samples
        .chunks_exact(block.max(1))
        .filter_map(stat)
        .collect();
    median(&per_block)
}
