//! Input generation: simulated walks, replayed as an unbounded advert
//! stream.
//!
//! The observer walks a 4 m × 3 m rectangle in the parking lot, loop
//! after loop, so every two consecutive legs form a paper L-walk. A
//! workload simulates `walks` such walks (`scenario::simulate_session`,
//! each with its own beacon deployment and channel realisation drawn
//! from the seed) and lays them end to end as one *cycle*; the stream
//! repeats that cycle shifted in time by its duration, relabelling
//! beacon ids so no session ever spans two walks. The program receives
//! only the advert stream, the motion track (each walk's dead-reckoned
//! track, laid out with the same time shifts) and, for scoring, the
//! ground truth.

use locble_ble::BeaconId;
use locble_engine::Advert;
use locble_geom::{Pose2, TimedPoint, Trajectory, Vec2};
use locble_motion::MotionTrack;
use locble_scenario::runner::track_observer;
use locble_scenario::world::{fleet_beacons, simulate_session, SessionConfig};
use locble_scenario::{environment_by_index, Environment};
use locble_sensors::{WalkLeg, WalkPlan};
use std::f64::consts::FRAC_PI_2;

/// Shape of one workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkSpec {
    /// Physical beacons deployed per walk.
    pub beacons: usize,
    /// Rectangle loops per walk.
    pub loops: usize,
    /// Independently simulated walks per cycle.
    pub walks: usize,
    /// `true`: ids change at every L-pass (two legs), so each session
    /// lives for one pass. `false`: ids change only between walks, so
    /// each session lives for a whole walk.
    pub relabel_per_pass: bool,
    /// Cycle copies the motion track covers: the stream's upper bound.
    pub max_copies: usize,
}

/// The part of the parking lot (from its origin corner) beacons are
/// deployed in, metres: the corner the walk loops in, so every beacon
/// stays within radio range.
const DEPLOY_AREA_M: (f64, f64) = (12.0, 11.0);

/// Longest silence a session may have, seconds: well under the
/// engine's 60 s idle eviction even with the drift guard's lead.
pub const MAX_SILENCE_S: f64 = 30.0;

/// The walk's leg lengths, metres.
const LEG_LONG_M: f64 = 4.0;
const LEG_SHORT_M: f64 = 3.0;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Physical beacons per walk.
    pub beacons: u32,
    /// Walks per cycle.
    walks: u32,
    /// One cycle's adverts, time-ordered, physical ids `0..beacons`.
    cycle: Vec<Advert>,
    /// The label each cycle advert's session has within the cycle
    /// (walk-major, then L-pass).
    label_of: Vec<u32>,
    /// Session labels per cycle.
    labels: u32,
    /// Cycle index where each walk starts, plus the cycle length.
    walk_starts: Vec<usize>,
    /// Time shift between consecutive copies, seconds.
    pub cycle_s: f64,
    /// Copies the motion track covers.
    pub max_copies: usize,
    /// Ground truth per walk and physical beacon, observer's local
    /// frame.
    truth: Vec<Vec<Vec2>>,
    /// Beacons left out for a silence of [`MAX_SILENCE_S`] or more,
    /// over all walks.
    pub silent_beacons: usize,
    /// The observer's motion track over every copy.
    pub motion: MotionTrack,
}

/// One simulated walk, times from its own start.
struct Walk {
    adverts: Vec<Advert>,
    passes: Vec<u32>,
    pass_count: u32,
    truth: Vec<Vec2>,
    track: MotionTrack,
    duration_s: f64,
    silent: usize,
}

fn simulate(spec: &WalkSpec, seed: u64) -> Walk {
    let env = environment_by_index(9).expect("parking lot environment exists");
    let area = Environment {
        width_m: DEPLOY_AREA_M.0,
        depth_m: DEPLOY_AREA_M.1,
        ..env.clone()
    };
    let fleet = fleet_beacons(&area, spec.beacons, seed);
    let legs = 4 * spec.loops;
    let plan = WalkPlan {
        start: Pose2::new(Vec2::new(4.0, 4.0), 0.0),
        legs: (0..legs)
            .map(|k| WalkLeg {
                distance_m: if k % 2 == 0 { LEG_LONG_M } else { LEG_SHORT_M },
            })
            .collect(),
        turn_angles: vec![FRAC_PI_2; legs - 1],
    };
    let session = simulate_session(&env, &fleet, &plan, &SessionConfig::paper_default(seed));
    // Pass boundaries: the middle of every second turn (the corner that
    // ends an L).
    let bounds: Vec<f64> = if spec.relabel_per_pass {
        session
            .walk
            .true_turns
            .iter()
            .skip(1)
            .step_by(2)
            .map(|turn| 0.5 * (turn.t_start + turn.t_end))
            .collect()
    } else {
        Vec::new()
    };
    let adverts: Vec<Advert> = session
        .interleaved_rss()
        .into_iter()
        .map(Advert::from)
        .collect();
    let passes: Vec<u32> = adverts
        .iter()
        .map(|a| bounds.partition_point(|&b| b <= a.t) as u32)
        .collect();
    // A session silent for longer than the engine's idle-eviction
    // threshold is evicted at whichever `process` call sees it idle,
    // which depends on processing cadence; the replay gate needs
    // eviction to retire finished sessions only. Beacons with such a
    // silence inside one session are left out of the stream.
    let mut last: Vec<Option<(u32, f64)>> = vec![None; spec.beacons];
    let mut silent = vec![false; spec.beacons];
    for (a, &pass) in adverts.iter().zip(&passes) {
        let k = a.beacon.0 as usize;
        if let Some((p, t)) = last[k] {
            silent[k] |= p == pass && a.t - t >= MAX_SILENCE_S;
        }
        last[k] = Some((pass, a.t));
    }
    let (adverts, passes): (Vec<Advert>, Vec<u32>) = adverts
        .into_iter()
        .zip(passes)
        .filter(|(a, _)| !silent[a.beacon.0 as usize])
        .unzip();
    Walk {
        adverts,
        passes,
        pass_count: bounds.len() as u32 + 1,
        truth: fleet
            .iter()
            .map(|b| session.truth_local(b.id).expect("deployed beacon"))
            .collect(),
        track: track_observer(&session),
        duration_s: session.walk.imu.last().map_or(0.0, |s| s.t),
        silent: silent.iter().filter(|&&s| s).count(),
    }
}

impl Inputs {
    /// Simulates the walks for `seed` and prepares the stream.
    pub fn generate(spec: WalkSpec, seed: u64) -> Inputs {
        assert!(spec.beacons > 0 && spec.loops > 0 && spec.walks > 0 && spec.max_copies > 0);
        let walks: Vec<Walk> = (0..spec.walks as u64)
            .map(|k| simulate(&spec, seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let passes = walks[0].pass_count;
        assert!(
            walks.iter().all(|w| w.pass_count == passes),
            "walks share one plan"
        );
        let (mut cycle, mut label_of, mut walk_starts, mut tracks) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // A short quiet gap after each walk keeps time strictly
        // increasing across the seams.
        let mut offset = 0.0;
        for (k, w) in walks.iter().enumerate() {
            walk_starts.push(cycle.len());
            cycle.extend(w.adverts.iter().map(|a| Advert {
                t: a.t + offset,
                ..*a
            }));
            label_of.extend(w.passes.iter().map(|p| k as u32 * passes + p));
            tracks.push((offset, &w.track));
            offset += w.duration_s + 1.0;
        }
        walk_starts.push(cycle.len());
        let cycle_s = offset;
        let motion = lay_out((0..spec.max_copies).flat_map(|c| {
            tracks
                .iter()
                .map(move |&(shift, track)| (shift + c as f64 * cycle_s, track))
        }));
        Inputs {
            beacons: spec.beacons as u32,
            walks: spec.walks as u32,
            cycle,
            label_of,
            labels: spec.walks as u32 * passes,
            walk_starts,
            cycle_s,
            max_copies: spec.max_copies,
            truth: walks.iter().map(|w| w.truth.clone()).collect(),
            silent_beacons: walks.iter().map(|w| w.silent).sum(),
            motion,
        }
    }

    /// Adverts in one cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// The stream's `copy`-th repetition of cycle advert `j`.
    pub fn advert(&self, copy: usize, j: usize) -> Advert {
        let a = self.cycle[j];
        let label = copy as u32 * self.labels + self.label_of[j];
        Advert {
            beacon: BeaconId(label * self.beacons + a.beacon.0),
            t: a.t + copy as f64 * self.cycle_s,
            rssi_dbm: a.rssi_dbm,
        }
    }

    /// Ground truth of a (relabelled) beacon id.
    pub fn truth_of(&self, beacon: BeaconId) -> Vec2 {
        let label = beacon.0 / self.beacons;
        let walk = (label % self.labels) / (self.labels / self.walks);
        self.truth[walk as usize][(beacon.0 % self.beacons) as usize]
    }

    /// The first walk's adverts of one physical beacon (the long-session
    /// arm's input).
    pub fn first_walk_of(&self, beacon: u32) -> impl Iterator<Item = Advert> + '_ {
        self.cycle[..self.walk_starts[1]]
            .iter()
            .copied()
            .filter(move |a| a.beacon.0 == beacon)
    }

    /// The longest silence, seconds, between consecutive adverts of one
    /// session (one relabelled id) within a copy.
    pub fn max_gap_s(&self) -> f64 {
        let mut last: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        let mut gap: f64 = 0.0;
        for j in 0..self.cycle.len() {
            let a = self.advert(0, j);
            if let Some(prev) = last.insert(a.beacon.0, a.t) {
                gap = gap.max(a.t - prev);
            }
        }
        gap
    }

    /// Cursor over connection `conn`'s share when the stream is split
    /// over `conns` connections by physical beacon (ids keep their
    /// residue class across relabelling, so every session stays on one
    /// connection, in order).
    pub fn cursor(&self, conn: usize, conns: usize) -> Cursor {
        let mut share = Vec::new();
        let mut breaks = Vec::new();
        for w in self.walk_starts.windows(2) {
            breaks.push(share.len() as u64);
            share.extend(
                (w[0] as u32..w[1] as u32)
                    .filter(|&j| self.cycle[j as usize].beacon.0 as usize % conns == conn),
            );
        }
        breaks.push(share.len() as u64);
        breaks.dedup();
        assert!(!share.is_empty(), "a connection needs a non-empty share");
        Cursor {
            share,
            breaks,
            taken: 0,
        }
    }

    /// FNV-1a digest over every generated byte the program is fed or
    /// scored against: the cycle, its session labels and time shift,
    /// the ground truth and the motion track.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(u64::from(self.beacons));
        h.u64(u64::from(self.labels));
        h.u64(self.cycle_s.to_bits());
        h.u64(self.max_copies as u64);
        for (a, l) in self.cycle.iter().zip(&self.label_of) {
            h.u64(u64::from(a.beacon.0));
            h.u64(a.t.to_bits());
            h.u64(a.rssi_dbm.to_bits());
            h.u64(u64::from(*l));
        }
        for v in self.truth.iter().flatten() {
            h.u64(v.x.to_bits());
            h.u64(v.y.to_bits());
        }
        for p in self.motion.trajectory.points() {
            h.u64(p.t.to_bits());
            h.u64(p.pos.x.to_bits());
            h.u64(p.pos.y.to_bits());
        }
        h.finish()
    }
}

/// One connection's cursor over its share of the unbounded stream.
#[derive(Debug, Clone)]
pub struct Cursor {
    /// Cycle indices of this connection's share, in order.
    share: Vec<u32>,
    /// Share positions where a walk starts, plus the share length.
    breaks: Vec<u64>,
    /// Adverts taken so far.
    pub taken: u64,
}

impl Cursor {
    fn share_len(&self) -> u64 {
        self.share.len() as u64
    }

    /// Fills `out` with the next at most `n` adverts, never crossing a
    /// walk boundary (so a run can stop on whole walks); `false` once
    /// the motion track's horizon (`max_copies`) is exhausted.
    pub fn next_frame(&mut self, inputs: &Inputs, n: usize, out: &mut Vec<Advert>) -> bool {
        out.clear();
        let copy = (self.taken / self.share_len()) as usize;
        if copy >= inputs.max_copies {
            return false;
        }
        let first = self.taken % self.share_len();
        let walk_end = self.breaks[self.breaks.partition_point(|&b| b <= first)];
        let last = (first + n as u64).min(walk_end);
        out.extend(
            self.share[first as usize..last as usize]
                .iter()
                .map(|&j| inputs.advert(copy, j as usize)),
        );
        self.taken += last - first;
        true
    }

    /// `true` when the next advert starts a walk.
    pub fn at_walk_start(&self) -> bool {
        self.breaks.contains(&(self.taken % self.share_len()))
    }

    /// Time of the next advert, seconds (the drift guard's clock).
    pub fn next_t(&self, inputs: &Inputs) -> f64 {
        let copy = (self.taken / self.share_len()) as usize;
        let j = self.share[(self.taken % self.share_len()) as usize] as usize;
        inputs.advert(copy, j).t
    }
}

/// Replays, in global stream order and in chunks of `chunk`, every
/// advert the connections took: `taken[c]` adverts from connection
/// `c`'s share. Order across connections only matters to idle eviction,
/// which the drift guard keeps out of play.
pub fn for_each_taken(inputs: &Inputs, taken: &[u64], chunk: usize, mut f: impl FnMut(&[Advert])) {
    let conns = taken.len();
    let mut remaining = taken.to_vec();
    let mut left: u64 = remaining.iter().sum();
    let mut buf = Vec::with_capacity(chunk);
    'copies: for copy in 0..inputs.max_copies {
        for j in 0..inputs.cycle.len() {
            if left == 0 {
                break 'copies;
            }
            let class = inputs.cycle[j].beacon.0 as usize % conns;
            if remaining[class] > 0 {
                remaining[class] -= 1;
                left -= 1;
                buf.push(inputs.advert(copy, j));
                if buf.len() == chunk {
                    f(&buf);
                    buf.clear();
                }
            }
        }
    }
    if !buf.is_empty() {
        f(&buf);
    }
}

/// Lays tracks out end to end, each shifted by its offset, seconds.
fn lay_out<'a>(parts: impl Iterator<Item = (f64, &'a MotionTrack)>) -> MotionTrack {
    let mut points = Vec::new();
    let mut turns = Vec::new();
    let mut steps: Option<locble_motion::StepResult> = None;
    for (shift, track) in parts {
        points.extend(track.trajectory.points().iter().map(|p| TimedPoint {
            t: p.t + shift,
            pos: p.pos,
        }));
        turns.extend(track.turns.iter().map(|turn| {
            let mut turn = *turn;
            turn.t_start += shift;
            turn.t_end += shift;
            turn
        }));
        let s = steps.get_or_insert_with(|| {
            let mut s = track.steps.clone();
            s.step_times.clear();
            s.distance_m = 0.0;
            s
        });
        s.step_times
            .extend(track.steps.step_times.iter().map(|t| t + shift));
        s.distance_m += track.steps.distance_m;
    }
    MotionTrack {
        trajectory: Trajectory::from_points(points),
        steps: steps.expect("at least one track"),
        turns,
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
