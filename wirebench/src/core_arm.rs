//! The long-session arm for `core`: each backend's `push_batch`, built
//! through `BackendSpec::build` and called directly on the `track`
//! walk's per-beacon batches, priced at fixed session ages.

use crate::inputs::Inputs;
use crate::stats::median;
use crate::trace::Spans;
use locble_core::{BackendSpec, Estimator, FingerprintConfig, ParticleConfig, RssBatch};
use locble_engine::EngineConfig;
use std::time::Instant;

/// Session ages (samples already pushed) the arm prices.
pub const AGES: [usize; 3] = [200, 1000, 4000];

/// Batches timed per beacon at each age.
const BATCHES_PER_AGE: usize = 8;

/// The backends priced, by metric name.
pub fn backends() -> [(&'static str, BackendSpec); 3] {
    [
        ("streaming", BackendSpec::Streaming),
        ("particle", BackendSpec::Particle(ParticleConfig::default())),
        (
            "fingerprint",
            BackendSpec::Fingerprint(FingerprintConfig::default()),
        ),
    ]
}

/// Cuts one physical beacon's first-walk stream into the engine's
/// batch windows (a window closes at the first sample at or past
/// `window_s` after its first).
pub fn beacon_batches(inputs: &Inputs, beacon: u32, window_s: f64) -> Vec<RssBatch> {
    let mut batches = Vec::new();
    let (mut t, mut v) = (Vec::new(), Vec::new());
    let mut start = 0.0;
    for a in inputs.first_walk_of(beacon) {
        if t.is_empty() {
            start = a.t;
        } else if a.t >= start + window_s {
            batches.push(RssBatch::new(
                std::mem::take(&mut t),
                std::mem::take(&mut v),
            ));
            start = a.t;
        }
        t.push(a.t);
        v.push(a.rssi_dbm);
    }
    if !t.is_empty() {
        batches.push(RssBatch::new(t, v));
    }
    batches
}

/// `core.batch_us.<backend>.age<N>`: the median `push_batch` time,
/// microseconds, over the first batches each of `beacons` sessions
/// pushes once it holds at least N samples. Ages a walk never reaches
/// are left out.
pub fn run(
    inputs: &Inputs,
    prototype: &Estimator,
    beacons: u32,
    spans: &mut Spans,
) -> Vec<(String, f64)> {
    let window_s = EngineConfig::default().batch_window_s;
    let per_beacon: Vec<Vec<RssBatch>> = (0..inputs.beacons)
        .map(|b| beacon_batches(inputs, b, window_s))
        .filter(|batches| !batches.is_empty())
        .take(beacons as usize)
        .collect();
    let stop_at = AGES[AGES.len() - 1];
    let mut out = Vec::new();
    for (name, spec) in backends() {
        let span_name = format!("core.push_batch.{name}");
        let mut at_age: Vec<Vec<f64>> = vec![Vec::new(); AGES.len()];
        for batches in &per_beacon {
            let mut backend = spec.build(prototype, 1);
            let mut age = 0usize;
            let mut timed = [0usize; AGES.len()];
            for batch in batches {
                if age >= stop_at && timed[AGES.len() - 1] >= BATCHES_PER_AGE {
                    break;
                }
                let us = spans.time(&span_name, || {
                    let t0 = Instant::now();
                    std::hint::black_box(backend.push_batch(batch, &inputs.motion));
                    t0.elapsed().as_secs_f64() * 1e6
                });
                for (k, &a) in AGES.iter().enumerate() {
                    if age >= a && timed[k] < BATCHES_PER_AGE {
                        at_age[k].push(us);
                        timed[k] += 1;
                    }
                }
                age += batch.t.len();
            }
        }
        for (k, a) in AGES.iter().enumerate() {
            if let Some(m) = median(&at_age[k]) {
                out.push((format!("core.batch_us.{name}.age{a}"), m));
            }
        }
    }
    out
}
