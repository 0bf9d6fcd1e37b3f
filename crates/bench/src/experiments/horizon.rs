//! Bounded horizon: accuracy of long tracking sessions, windowed vs
//! unbounded.
//!
//! Not a paper figure. A streaming session fits only its last
//! [`WINDOW_SAMPLES`] samples (DESIGN.md §12); this experiment checks
//! what that costs in accuracy on sessions that live for minutes. The
//! observer loops a 4 m × 3 m rectangle 32 times (~490 s, ~4,400
//! adverts per beacon) past 16 beacons in the parking lot, six walks per
//! seed, five seeds: 480 sessions, each fed batch by batch (2.2 s
//! batches) to the EnvAware streaming backend.
//!
//! The unbounded arm is the same session without the window: after each
//! batch it refits everything since the windowed session's last
//! EnvAware restart (restarts depend only on each batch's
//! classification, so both arms restart at the same batches). It uses
//! the same cached batch estimator the streaming backend does.
//!
//! Reported per arm, over sessions: the p50/p90 of the final estimate's
//! error and of the mean error over the second half of the session's
//! batches, and the mean wall time per batch.

use crate::stats::{mean, median, percentile};
use crate::util::{default_estimator, header, parallel_map, row, stream_batches};
use locble_core::streaming::WINDOW_SAMPLES;
use locble_core::{FitSolver, LocationEstimate, StreamingEstimator};
use locble_dsp::TimeSeries;
use locble_geom::{Pose2, Vec2};
use locble_scenario::runner::track_observer;
use locble_scenario::world::{fleet_beacons, simulate_session};
use locble_scenario::{environment_by_index, Environment, SessionConfig};
use locble_sensors::{WalkLeg, WalkPlan};
use std::f64::consts::FRAC_PI_2;
use std::time::Instant;

const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];
const WALKS_PER_SEED: u64 = 6;
const BEACONS: usize = 16;
const LOOPS: usize = 32;

/// One session's errors (metres) and refit wall time (seconds), for
/// the windowed arm (index 0) and the unbounded arm (index 1).
struct SessionResult {
    final_err: [f64; 2],
    second_half_err: [f64; 2],
    wall_s: [f64; 2],
    batches: usize,
}

/// Mirror-aware error of an estimate against the truth.
fn error(est: &LocationEstimate, truth: Vec2) -> f64 {
    let d = est.position.distance(truth);
    est.mirror.map_or(d, |m| d.min(m.distance(truth)))
}

/// Simulates one 32-loop walk past 16 beacons deployed over the 12 m ×
/// 11 m corner of the parking lot the walk loops in, and streams every
/// heard beacon through both arms.
fn walk(seed: u64) -> Vec<SessionResult> {
    let env = environment_by_index(9).expect("parking lot exists");
    let area = Environment {
        width_m: 12.0,
        depth_m: 11.0,
        ..env.clone()
    };
    let fleet = fleet_beacons(&area, BEACONS, seed);
    let legs = 4 * LOOPS;
    let plan = WalkPlan {
        start: Pose2::new(Vec2::new(4.0, 4.0), 0.0),
        legs: (0..legs)
            .map(|k| WalkLeg {
                distance_m: if k % 2 == 0 { 4.0 } else { 3.0 },
            })
            .collect(),
        turn_angles: vec![FRAC_PI_2; legs - 1],
    };
    let session = simulate_session(&env, &fleet, &plan, &SessionConfig::paper_default(seed));
    let motion = track_observer(&session);
    let estimator = default_estimator();
    fleet
        .iter()
        .filter_map(|b| {
            let truth = session.truth_local(b.id)?;
            let batches = stream_batches(session.rss_of(b.id)?);
            let mut windowed = StreamingEstimator::new(estimator.clone());
            let (mut all, mut solver) = (TimeSeries::default(), FitSolver::new());
            let mut unbounded: Option<LocationEstimate> = None;
            let mut errors = [Vec::new(), Vec::new()];
            let mut wall_s = [0.0; 2];
            for batch in &batches {
                let restarts = windowed.restarts();
                let t0 = Instant::now();
                let w = windowed.push_batch(batch, &motion).copied();
                wall_s[0] += t0.elapsed().as_secs_f64();
                if windowed.restarts() > restarts {
                    all.clear();
                }
                let t0 = Instant::now();
                for (&t, &v) in batch.t.iter().zip(&batch.v) {
                    all.push(t, v);
                }
                if let Some(e) = estimator.estimate_stationary_cached(&all, &motion, &mut solver) {
                    unbounded = Some(e);
                }
                wall_s[1] += t0.elapsed().as_secs_f64();
                for (errs, est) in errors.iter_mut().zip([w, unbounded]) {
                    errs.push(est.map(|e| error(&e, truth)));
                }
            }
            let summary = |errs: &[Option<f64>]| {
                let half: Vec<f64> = errs[errs.len() / 2..].iter().flatten().copied().collect();
                Some(((*errs.last()?)?, mean(&half)))
            };
            let (wf, wh) = summary(&errors[0])?;
            let (uf, uh) = summary(&errors[1])?;
            Some(SessionResult {
                final_err: [wf, uf],
                second_half_err: [wh, uh],
                wall_s,
                batches: batches.len(),
            })
        })
        .collect()
}

/// Runs the study.
pub fn run() -> String {
    let walks: Vec<u64> = SEEDS
        .iter()
        .flat_map(|&seed| {
            (0..WALKS_PER_SEED).map(move |k| seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    let sessions: Vec<SessionResult> = parallel_map(walks.len(), |i| walk(walks[i]))
        .into_iter()
        .flatten()
        .collect();
    let batches: usize = sessions.iter().map(|s| s.batches).sum();
    let column =
        |f: &dyn Fn(&SessionResult) -> f64| -> Vec<f64> { sessions.iter().map(f).collect() };

    let mut out = header(
        "horizon",
        &format!("bounded horizon ({WINDOW_SAMPLES}-sample window) on ~490 s tracking sessions"),
        "Algorithm 1 refits incrementally (§5.3); not a paper figure",
    );
    out += &row("sessions", sessions.len());
    out += &row(
        "batches per session (mean)",
        batches / sessions.len().max(1),
    );
    out += &format!(
        "  {:<12} {:>18} {:>22} {:>12}\n",
        "arm", "final err p50/p90", "2nd-half err p50/p90", "us/batch"
    );
    let mut p = [[0.0; 2]; 2];
    for (arm, name) in ["windowed", "unbounded"].iter().enumerate() {
        let fin = column(&|s| s.final_err[arm]);
        let half = column(&|s| s.second_half_err[arm]);
        let wall: f64 = sessions.iter().map(|s| s.wall_s[arm]).sum();
        p[arm] = [median(&fin), percentile(&fin, 90.0)];
        out += &format!(
            "  {:<12} {:>9.2} / {:<6.2} {:>11.2} / {:<8.2} {:>12.0}\n",
            name,
            p[arm][0],
            p[arm][1],
            median(&half),
            percentile(&half, 90.0),
            wall / batches.max(1) as f64 * 1e6
        );
    }
    out += &row("windowed final p90 <= unbounded", p[0][1] <= p[1][1]);
    out += &row("windowed final p50 within +10%", p[0][0] <= p[1][0] * 1.1);
    out
}
