//! Bounded-horizon contract of the streaming sessions.
//!
//! A session that has run past [`WINDOW_SAMPLES`] fits only its last
//! `WINDOW_SAMPLES` samples. Three properties pin that down:
//!
//! 1. every refit past the window is **bit-identical** to the batch API
//!    over a series of exactly those samples (the cached solver rebuilds
//!    on a slid window instead of downdating, so nothing drifts);
//! 2. exporting state past the window and restoring it continues the
//!    session bit-for-bit;
//! 3. no session ever holds more than `WINDOW_SAMPLES` samples, whatever
//!    the batch sizes.

use locble_core::backend::Estimator as _;
use locble_core::streaming::WINDOW_SAMPLES;
use locble_core::{
    Estimator, EstimatorConfig, FingerprintBackend, FingerprintConfig, LocationEstimate, RssBatch,
    StreamingEstimator,
};
use locble_dsp::TimeSeries;
use locble_geom::{Trajectory, Vec2};
use locble_motion::{MotionTrack, StepResult};
use locble_rf::LogDistanceModel;

/// A deterministic walk of `n` samples looping a 4 m × 3 m rectangle
/// next to a beacon, RSS from the log-distance model plus bounded
/// alternating noise, sliced into `chunk`-sample batches.
fn loop_walk(n: usize, chunk: usize) -> (Vec<RssBatch>, MotionTrack) {
    let model = LogDistanceModel::new(-59.0, 2.2);
    let target = Vec2::new(5.5, 4.0);
    let dt = 0.11;
    let speed = 1.1;
    let mut traj = Trajectory::new();
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 * dt;
        let s = (t * speed) % 14.0;
        let pos = match s {
            s if s < 4.0 => Vec2::new(s, 0.0),
            s if s < 7.0 => Vec2::new(4.0, s - 4.0),
            s if s < 11.0 => Vec2::new(11.0 - s, 3.0),
            s => Vec2::new(0.0, 14.0 - s),
        };
        traj.push(t, pos);
        let jitter = [0.9, -0.7, 1.4, -1.1, 0.3][i % 5];
        samples.push((t, model.rss_at(target.distance(pos)) + jitter));
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: n as f64 * dt * speed,
        },
        turns: vec![],
    };
    let batches = samples
        .chunks(chunk)
        .map(|c| {
            RssBatch::new(
                c.iter().map(|(t, _)| *t).collect(),
                c.iter().map(|(_, v)| *v).collect(),
            )
        })
        .collect();
    (batches, track)
}

fn bits(e: Option<&LocationEstimate>) -> Option<[u64; 6]> {
    e.map(|e| {
        [
            e.position.x.to_bits(),
            e.position.y.to_bits(),
            e.confidence.to_bits(),
            e.exponent.to_bits(),
            e.gamma_dbm.to_bits(),
            e.residual_db.to_bits(),
        ]
    })
}

#[test]
fn windowed_refit_equals_a_batch_fit_of_the_last_window() {
    // 23-sample batches: the window slides by a batch that does not
    // divide it, so the trimmed prefix is never a whole batch.
    let (batches, track) = loop_walk(1500, 23);
    let estimator = Estimator::new(EstimatorConfig::default());
    let mut session = StreamingEstimator::new(estimator.clone());
    let mut all = TimeSeries::default();
    let mut checked = 0;
    for b in &batches {
        let before = session.current().copied();
        session.push_batch(b, &track);
        for (&t, &v) in b.t.iter().zip(&b.v) {
            all.push(t, v);
        }
        if all.len() <= WINDOW_SAMPLES {
            continue;
        }
        let from = all.len() - WINDOW_SAMPLES;
        let last = TimeSeries::new(all.t[from..].to_vec(), all.v[from..].to_vec());
        // A refit that finds nothing keeps the previous estimate.
        let want = estimator.estimate_stationary(&last, &track).or(before);
        assert_eq!(session.active_samples(), WINDOW_SAMPLES);
        assert_eq!(
            bits(session.current()),
            bits(want.as_ref()),
            "diverged at {} samples",
            all.len()
        );
        assert_eq!(session.current().copied(), want);
        checked += 1;
    }
    assert!(checked >= 35, "only {checked} batches past the window");
    let est = session.current().expect("the walk localizes");
    assert_eq!(est.points_used, WINDOW_SAMPLES);
}

#[test]
fn export_restore_past_the_window_continues_bit_for_bit() {
    let (batches, track) = loop_walk(1400, 20);
    let new_session =
        || StreamingEstimator::new(Estimator::new(EstimatorConfig::default())).with_refit_stride(2);
    let mut live = new_session();
    // Cuts after 640, 900 and 1160 samples: just past the window, and
    // twice more once it has slid by a fraction of itself.
    let cuts = [32, 45, 58];
    let mut restored: Vec<(usize, StreamingEstimator)> = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        if cuts.contains(&k) {
            let state = live.export_state();
            assert_eq!(state.series_t.len(), WINDOW_SAMPLES);
            let copy =
                StreamingEstimator::from_state(Estimator::new(EstimatorConfig::default()), state);
            restored.push((k, copy));
        }
        let want = bits(live.push_batch(b, &track));
        for (cut, copy) in &mut restored {
            assert_eq!(
                bits(copy.push_batch(b, &track)),
                want,
                "cut {cut}: diverged at batch {k}"
            );
        }
    }
    for (cut, copy) in &restored {
        assert_eq!(copy.export_state(), live.export_state(), "cut {cut}");
    }
}

#[test]
fn sessions_never_hold_more_than_the_window() {
    let (batches, track) = loop_walk(1300, 20);
    let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    let mut fingerprint = FingerprintBackend::new(FingerprintConfig::default());
    let mut pushed = 0;
    for b in &batches {
        streaming.push_batch(b, &track);
        fingerprint.push_batch(b, &track);
        pushed += b.len();
        assert_eq!(streaming.active_samples(), pushed.min(WINDOW_SAMPLES));
        assert_eq!(fingerprint.active_samples(), pushed.min(WINDOW_SAMPLES));
    }
    let times: Vec<f64> = batches.iter().flat_map(|b| b.t.iter().copied()).collect();
    let newest = &times[pushed - WINDOW_SAMPLES..];
    assert_eq!(streaming.export_state().series_t, newest);
    assert_eq!(fingerprint.export_state().series_t, newest);

    // One batch longer than the window keeps only its own tail.
    let (long, _) = loop_walk(1300, 1300);
    let (t0, v0) = (long[0].t.clone(), long[0].v.clone());
    let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    let mut fingerprint = FingerprintBackend::new(FingerprintConfig::default());
    streaming.push_batch(&long[0], &track);
    fingerprint.push_batch(&long[0], &track);
    let tail = t0.len() - WINDOW_SAMPLES;
    let s = streaming.export_state();
    assert_eq!(
        (s.series_t.as_slice(), s.series_v.as_slice()),
        (&t0[tail..], &v0[tail..])
    );
    let f = fingerprint.export_state();
    assert_eq!(
        (f.series_t.as_slice(), f.series_v.as_slice()),
        (&t0[tail..], &v0[tail..])
    );
}
