//! Zero-allocation regression tests for the steady-state hot paths.
//!
//! The vectorization/arena work (DESIGN.md §17) promises that a *warm*
//! session — scratch arenas grown, batch buffers reclaimed, headroom
//! reserved — processes further batches without touching the heap.
//! These tests install the counting allocator and assert exactly that:
//! the measured section performs **zero** allocations, not "few".
//!
//! Warm-up is deliberately generous (it may allocate: arenas grow, the
//! ANF designs itself, the particle cloud spawns); only the steady
//! state afterwards is measured.

use locble_bench::util::{alloc_count, CountingAlloc};
use locble_ble::BeaconId;
use locble_core::backend::Estimator as EstimatorBackend;
use locble_core::streaming::WINDOW_SAMPLES;
use locble_core::{
    Estimator, EstimatorConfig, FingerprintBackend, FingerprintConfig, ParticleBackend,
    ParticleConfig, RssBatch, StreamingEstimator,
};
use locble_engine::{Advert, Engine, EngineConfig};
use locble_geom::{Trajectory, Vec2};
use locble_motion::{MotionTrack, StepResult};
use locble_obs::Obs;
use locble_rf::LogDistanceModel;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A long deterministic L-walk: per-sample observer positions and RSS
/// readings for one beacon, chunked into `batch` -sample batches.
fn walk_fixture(total: usize, batch: usize) -> (Vec<RssBatch>, MotionTrack) {
    walk_fixture_with(total, batch, |i| {
        if i % 80 < 40 {
            Vec2::new(1.0, 0.0)
        } else {
            Vec2::new(0.0, 1.0)
        }
    })
}

/// Like [`walk_fixture`], but looping a 4.4 m × 3.3 m rectangle, so a
/// session of any length stays next to the beacon.
fn loop_fixture(total: usize, batch: usize) -> (Vec<RssBatch>, MotionTrack) {
    walk_fixture_with(total, batch, |i| match i % 140 {
        0..40 => Vec2::new(1.0, 0.0),
        40..70 => Vec2::new(0.0, 1.0),
        70..110 => Vec2::new(-1.0, 0.0),
        _ => Vec2::new(0.0, -1.0),
    })
}

/// The walk fixtures' common body: the observer moves `dt` metres per
/// sample along the unit direction `heading(i)`.
fn walk_fixture_with(
    total: usize,
    batch: usize,
    heading: impl Fn(usize) -> Vec2,
) -> (Vec<RssBatch>, MotionTrack) {
    let model = LogDistanceModel::new(-59.0, 2.0);
    let target = Vec2::new(4.0, 3.5);
    let dt = 0.11;
    let mut traj = Trajectory::new();
    let mut all = Vec::new();
    let mut pos = Vec2::ZERO;
    for i in 0..total {
        let t = i as f64 * dt;
        traj.push(t, pos);
        let noise = if i % 2 == 0 { 0.9 } else { -0.7 };
        all.push((t, model.rss_at(target.distance(pos)) + noise));
        pos += heading(i) * dt;
    }
    let track = MotionTrack {
        trajectory: traj,
        steps: StepResult {
            step_times: vec![],
            frequency_hz: 1.8,
            step_length_m: 0.75,
            distance_m: 7.7,
        },
        turns: vec![],
    };
    let batches = all
        .chunks(batch)
        .map(|c| {
            RssBatch::new(
                c.iter().map(|(t, _)| *t).collect(),
                c.iter().map(|(_, v)| *v).collect(),
            )
        })
        .collect();
    (batches, track)
}

#[test]
fn warm_streaming_session_processes_batches_without_allocating() {
    let (batches, track) = walk_fixture(400, 20);
    let (warm, measured) = batches.split_at(batches.len() / 2);
    let measured_samples: usize = measured.iter().map(RssBatch::len).sum();

    let mut session = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    for b in warm {
        session.push_batch(b, &track);
    }
    session.reserve(measured_samples);

    let before = alloc_count();
    for b in measured {
        session.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    assert!(session.current().is_some(), "warm session must estimate");
    assert_eq!(
        allocs,
        0,
        "warm streaming push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

/// Past the window a session trims its oldest samples before appending
/// and its solver rebuilds over the slid window, both inside buffers
/// sized once for the window: however long the session runs, batches
/// stay off the allocator.
#[test]
fn sessions_past_the_window_process_batches_without_allocating() {
    let batch = 20;
    let (batches, track) = loop_fixture(WINDOW_SAMPLES * 5, batch);
    let (warm, measured) = batches.split_at(WINDOW_SAMPLES * 3 / batch);

    let mut streaming = StreamingEstimator::new(Estimator::new(EstimatorConfig::default()));
    let mut fingerprint = FingerprintBackend::new(FingerprintConfig::default());
    for b in warm {
        streaming.push_batch(b, &track);
        fingerprint.push_batch(b, &track);
    }
    streaming.reserve(WINDOW_SAMPLES + batch);
    fingerprint.reserve(WINDOW_SAMPLES + batch);

    for (name, session) in [
        ("streaming", &mut streaming as &mut dyn EstimatorBackend),
        ("fingerprint", &mut fingerprint),
    ] {
        let before = alloc_count();
        for b in measured {
            session.push_batch(b, &track);
        }
        let allocs = alloc_count() - before;
        assert!(session.current().is_some(), "{name} session must estimate");
        assert_eq!(session.active_samples(), WINDOW_SAMPLES);
        assert_eq!(
            allocs,
            0,
            "{name} push_batch past the window allocated {allocs} times over {} batches",
            measured.len()
        );
    }
}

#[test]
fn warm_particle_session_processes_batches_without_allocating() {
    let (batches, track) = walk_fixture(400, 20);
    let (warm, measured) = batches.split_at(batches.len() / 2);

    let mut filter = ParticleBackend::new(ParticleConfig::default());
    for b in warm {
        filter.push_batch(b, &track);
    }
    // The warm phase must have exercised the resample path, or the
    // scratch target buffers would first grow inside the measurement.
    assert!(
        filter.export_state().resamples > 0,
        "fixture failed to trigger resampling during warm-up"
    );

    let before = alloc_count();
    for b in measured {
        filter.push_batch(b, &track);
    }
    let allocs = alloc_count() - before;
    assert!(filter.current().is_some());
    assert_eq!(
        allocs,
        0,
        "warm particle push_batch allocated {allocs} times over {} batches",
        measured.len()
    );
}

#[test]
fn warm_engine_tick_processes_pending_batches_without_allocating() {
    // Single worker thread: the inline drain path is the zero-alloc
    // one (the pooled path pays scoped-thread setup by design).
    let config = EngineConfig {
        shards: 4,
        threads: 1,
        idle_evict_s: f64::INFINITY,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        config,
        Estimator::new(EstimatorConfig::default()),
        Obs::noop(),
    );

    let beacons = 6u32;
    let adverts: Vec<Advert> = (0..4000)
        .map(|i| Advert {
            beacon: BeaconId(i % beacons),
            t: f64::from(i / beacons) * 0.11,
            rssi_dbm: -60.0 - f64::from(i % 13) * 0.5,
        })
        .collect();
    let (warm, measured) = adverts.split_at(adverts.len() / 2);

    engine.ingest_all(warm);
    engine.process();
    engine.reserve_headroom(measured.len());

    // The measured tick: queues already hold the pending samples
    // (ingest reuses the recycled deque capacity), then one process()
    // call flushes completed windows and refits — the reactor's
    // coalesced tick shape.
    let report = engine.ingest(measured);
    assert_eq!(report.consumed, measured.len(), "fixture overruns queues");
    let before = alloc_count();
    let processed = engine.process();
    let allocs = alloc_count() - before;
    assert!(processed.samples_processed > 0);
    assert!(
        processed.batches_pushed > 0,
        "measured tick must flush at least one completed window"
    );
    assert_eq!(
        allocs, 0,
        "warm engine process() allocated {allocs} times while draining {} samples",
        processed.samples_processed
    );
}
