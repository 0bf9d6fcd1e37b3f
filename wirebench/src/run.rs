//! One workload run: set up, drive, finish, check, measure.

use crate::core_arm;
use crate::deploy::{self, Handles, Topology};
use crate::drive::{self, ReaderOutcome, Shared, WriterOutcome};
use crate::gates::{bit_identical, Accounting};
use crate::heap;
use crate::inputs::{for_each_taken, Inputs, WalkSpec};
use crate::stats::{block_median, median, percentile, tail};
use crate::trace::{lap_spans, BatchTrace, Clock, Spans};
use locble_ble::BeaconId;
use locble_core::LocationEstimate;
use locble_engine::{Engine, EngineConfig};
use locble_net::{Client, IngestSummary, WireStats};
use locble_obs::{MetricsSnapshot, Obs, Stage};
use locble_scenario::train_default_envaware;
use locble_store::{FsyncPolicy, SessionStore, WAL_FILE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 200 beacons relabelled every L-pass, in-memory server, one
    /// connection of 1024-advert frames.
    Sweep,
    /// 16 beacons that keep their ids for the whole walk, durable
    /// server, one connection of 32-advert frames.
    Track,
    /// `sweep` traffic on an in-memory server plus an open-loop reader.
    ReadMix,
    /// 16 beacons over quarter-length track walks, in 64-advert frames,
    /// through a front to an owner replicating to a follower.
    Cluster,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::Sweep,
    Workload::Track,
    Workload::ReadMix,
    Workload::Cluster,
];

impl Workload {
    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Track => "track",
            Workload::ReadMix => "read_mix",
            Workload::Cluster => "cluster",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Only workloads whose WAL stays small are durable. A shared
    /// 2-vCPU VM's disk sustained about 16 MB/s of fsync'd writes after
    /// a burst; sweep traffic at ~0.6M adverts/s appends 17 MB/s of WAL
    /// (29 B per advert), after which fsyncs stalled for 55–80 ms and
    /// throughput fell to a third, so a durable sweep measured the
    /// disk's throttle. Track traffic appends ~0.5 MB/s.
    fn topology(self) -> Topology {
        match self {
            Workload::Track => Topology::Durable,
            Workload::Sweep | Workload::ReadMix => Topology::InMemory,
            Workload::Cluster => Topology::Cluster,
        }
    }

    /// Closed-loop writer connections. One on every workload: on a
    /// 2-core machine the reactor and two engine workers already share
    /// the cores, and a second writer thread made run-to-run throughput
    /// depend on scheduling more than on the program.
    fn writers(self) -> usize {
        1
    }

    /// Adverts per frame. Sweep traffic sends 1024: with 128 the fixed
    /// per-batch wake-ups (client, reactor, per-`process` worker spawns)
    /// dominated a cheap batch, and their cost moved 20–40 % between
    /// runs minutes apart while the in-process replay of the same
    /// adverts moved under 10 %. Cluster sends 64, so its per-batch
    /// hops stay a visible share and a 15 s run still sends well over
    /// the 1,000 batches `bench.ack_p99_us` needs.
    fn frame(self) -> usize {
        match self {
            Workload::Track => 32,
            Workload::Cluster => 64,
            Workload::Sweep | Workload::ReadMix => 1024,
        }
    }

    /// The walk this workload replays.
    pub fn walk(self, size: &Size) -> WalkSpec {
        match self {
            Workload::Sweep | Workload::ReadMix => size.sweep,
            Workload::Track => size.track,
            Workload::Cluster => size.cluster,
        }
    }

    /// Replays whole walks of long-lived sessions, stopping only between
    /// walks.
    fn whole_walks(self) -> bool {
        matches!(self, Workload::Track | Workload::Cluster)
    }
}

/// Everything that scales a run.
#[derive(Debug, Clone)]
pub struct Size {
    /// The sweep-traffic walk (sweep, read_mix).
    pub sweep: WalkSpec,
    /// The track walk.
    pub track: WalkSpec,
    /// The cluster walk: track traffic in quarter-length walks. Its
    /// WALs stay small as track's do, and a run covers ~30 walks instead
    /// of 2–3, so which sessions see EnvAware restarts (a walk's cost
    /// moves ±15 % with them) averages out.
    pub cluster: WalkSpec,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
    /// Post-`Finish` probe: blocks, each of [`BLOCK`] `QueryBeacon`
    /// and [`SNAPSHOT_BLOCK`] `QuerySnapshot`, 20 ms apart.
    pub probe_blocks: usize,
    /// Beacons per backend in the long-session arm.
    pub core_beacons: u32,
    /// `store.checkpoint_ms` is the median of this many checkpoints.
    pub checkpoints: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            sweep: WalkSpec {
                beacons: 200,
                loops: 10,
                walks: 1,
                relabel_per_pass: true,
                max_copies: 200,
            },
            track: WalkSpec {
                beacons: 16,
                loops: 32,
                walks: 6,
                relabel_per_pass: false,
                max_copies: 10,
            },
            cluster: WalkSpec {
                beacons: 16,
                loops: 8,
                walks: 6,
                relabel_per_pass: false,
                max_copies: 20,
            },
            setups: 21,
            probe_blocks: 10,
            core_beacons: 2,
            checkpoints: 3,
        }
    }

    /// A tiny size for smoke tests.
    pub fn tiny() -> Size {
        Size {
            sweep: WalkSpec {
                beacons: 12,
                loops: 2,
                walks: 1,
                relabel_per_pass: true,
                max_copies: 50,
            },
            track: WalkSpec {
                beacons: 4,
                loops: 3,
                walks: 2,
                relabel_per_pass: false,
                max_copies: 50,
            },
            cluster: WalkSpec {
                beacons: 4,
                loops: 2,
                walks: 2,
                relabel_per_pass: false,
                max_copies: 50,
            },
            setups: 2,
            probe_blocks: 1,
            core_beacons: 1,
            checkpoints: 1,
        }
    }
}

/// What one phase (an untraced or a traced drive) measured.
pub struct Phase {
    /// Every set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// First send → `FinishAck`, seconds.
    pub wall_s: f64,
    /// Ingest round trips, microseconds.
    pub rtt_us: Vec<f64>,
    /// Localization error of every session live at `Finish`, metres.
    pub errors_m: Vec<f64>,
    /// Highest live heap from the first send until the reads are done,
    /// MiB (the generated inputs included).
    pub peak_heap_mb: f64,
    /// Reads: the open-loop reader (read_mix) or the post-run probe.
    pub reads: ReaderOutcome,
    /// Adverts offered plus reads attempted.
    pub attempted: u64,
    /// Adverts not acked as routed, plus failed reads.
    pub failed: u64,
    /// Folded ack accounting.
    pub acked: IngestSummary,
    /// Adverts delivered in acked batches.
    pub delivered: u64,
    /// Batches sent.
    pub batches: u64,
    /// Stats after `Finish`.
    pub stats: WireStats,
    /// Estimates served after `Finish`.
    pub snapshot: Vec<(BeaconId, LocationEstimate)>,
    /// Engine-owning server's metrics (traced phases).
    pub metrics: Option<MetricsSnapshot>,
    /// Traced batches (traced phases).
    pub traces: Vec<BatchTrace>,
    /// Highest `sessions_live` polled (traced phases).
    pub live_peak: u64,
    /// WAL bytes on disk after the run (durable topologies).
    pub wal_bytes: u64,
    /// The engine returned by shutdown.
    pub engine: Engine,
    /// Adverts taken per connection class.
    pub taken: Vec<u64>,
    /// Drift-guard waits.
    pub drift_waits: u64,
    /// Client errors and error frames seen by writers.
    pub writer_failures: u64,
}

fn error_m(inputs: &Inputs, beacon: BeaconId, est: &LocationEstimate) -> f64 {
    let truth = inputs.truth_of(beacon);
    let mut e = est.position.distance(truth);
    if let Some(mirror) = est.mirror {
        e = e.min(mirror.distance(truth));
    }
    e
}

/// Runs one phase of `workload`. `Err` on a set-up or transport
/// failure, or when a correctness gate fails.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    workload: Workload,
    size: &Size,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    run_dir: &Path,
    epoch: Instant,
    spans: &mut Spans,
) -> Result<Phase, String> {
    let handles = if traced {
        Handles {
            server: Obs::ring(4096),
            front: Obs::ring(4096),
        }
    } else {
        Handles::noop()
    };
    let (server_clock, front_clock) = (
        Clock::of(&handles.server, epoch),
        Clock::of(&handles.front, epoch),
    );
    // Half the set-ups run before the drive (the last one serves it),
    // the rest after it, so `setup_s` samples the machine at two times.
    let before = setups.div_ceil(2).max(1);
    let (deployment, mut setup_s) = deploy::set_up_repeatedly(
        before,
        workload.topology(),
        &inputs.motion,
        &handles,
        run_dir,
    )
    .map_err(|e| format!("set-up failed: {e}"))?;
    let conns = workload.writers();
    let reader = workload == Workload::ReadMix;
    let shared = Shared {
        inputs,
        addr: deployment.addr,
        owner_addr: deployment.owner_addr,
        frame: workload.frame(),
        deadline: Instant::now() + std::time::Duration::from_secs_f64(seconds),
        whole_walks: workload.whole_walks(),
        traced,
        cluster: workload == Workload::Cluster,
        nonce: seed,
        clocks: (0..conns).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        recent_base: AtomicU32::new(0),
        writers_done: AtomicBool::new(false),
        barrier: Barrier::new(conns + usize::from(reader) + 1),
        epoch,
    };
    heap::reset_peak();
    let (mut writers, reads, start): (Vec<WriterOutcome>, Option<ReaderOutcome>, Instant) =
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (0..conns)
                .map(|class| scope.spawn(move || drive::writer(shared, class, conns)))
                .collect();
            let reader = reader.then(|| scope.spawn(move || drive::reader(shared)));
            shared.barrier.wait();
            let start = Instant::now();
            let writers = handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect();
            shared.writers_done.store(true, Ordering::SeqCst);
            let reads = reader.map(|h| h.join().expect("reader thread panicked"));
            (writers, reads, start)
        });

    let mut client = writers[0]
        .client
        .take()
        .ok_or_else(|| "writer connection failed".to_string())?;
    let finish = spans.time("client.finish", || client.finish());
    let end = Instant::now();
    finish.map_err(|e| format!("finish failed: {e}"))?;
    let acked = writers.iter().fold(IngestSummary::default(), |mut acc, w| {
        acc.absorb(w.acked);
        acc
    });
    let stats = spans
        .time("client.stats", || client.stats())
        .map_err(|e| format!("stats failed: {e}"))?;
    let snapshot = spans
        .time("client.snapshot", || client.snapshot())
        .map_err(|e| format!("snapshot failed: {e}"))?;
    let reads = match reads {
        Some(reads) => reads,
        None => {
            // The probe reads from the engine-owning server. On a cluster
            // that skips the front, whose blocking relay thread's wake-up
            // latency flips between runs on a 2-core machine by more
            // than any bound; the front's hop is priced by the writes.
            let beacons: Vec<BeaconId> = snapshot.iter().map(|(b, _)| *b).collect();
            let mut reader =
                Client::connect(deployment.owner_addr).map_err(|e| format!("connect: {e}"))?;
            spans.time("client.probe", || {
                drive::probe(
                    &mut reader,
                    &beacons,
                    size.probe_blocks,
                    BLOCK,
                    SNAPSHOT_BLOCK,
                )
            })
        }
    };
    let metrics = if traced {
        let mut owner =
            Client::connect(deployment.owner_addr).map_err(|e| format!("connect: {e}"))?;
        let m = spans
            .time("client.metrics", || owner.metrics())
            .map_err(|e| format!("metrics failed: {e}"))?;
        Some(m.to_snapshot())
    } else {
        None
    };
    let peak_heap_mb = heap::peak_mb();
    drop(client);
    for w in &mut writers {
        w.client = None;
    }
    let wal_bytes = deployment
        .dirs
        .first()
        .and_then(|d| std::fs::metadata(d.join(WAL_FILE)).ok())
        .map_or(0, |m| m.len());
    let engine = deployment.tear_down();
    if setups > before {
        let (last, after) = deploy::set_up_repeatedly(
            setups - before,
            workload.topology(),
            &inputs.motion,
            &Handles::noop(),
            &run_dir.join("setups"),
        )
        .map_err(|e| format!("set-up failed: {e}"))?;
        last.tear_down();
        setup_s.extend(after);
    }

    let delivered: u64 = writers.iter().map(|w| w.delivered).sum();
    let taken: Vec<u64> = writers.iter().map(|w| w.taken).collect();
    let writer_failures: u64 = writers.iter().map(|w| w.failed).sum();
    let offered: u64 = taken.iter().sum();
    let attempted = offered + reads.attempted;
    let failed = (offered - acked.routed.min(offered)) + reads.failed + writer_failures;

    // Gate 1: exact accounting on both sides of the wire.
    Accounting {
        delivered,
        acked_routed: acked.routed,
        acked_rejected: acked.rejected(),
        engine_routed: stats.samples_routed,
        engine_rejected: stats.samples_rejected,
        engine_processed: stats.samples_processed,
        queued_after_finish: stats.queued,
    }
    .check()
    .map_err(|e| format!("accounting gate: {e}"))?;
    if delivered != offered {
        return Err(format!(
            "accounting gate: {offered} adverts offered but {delivered} delivered in acked batches"
        ));
    }
    // Gate 2: bit-identical to an in-process replay of the same inputs.
    let replayed = replay(inputs, &taken);
    if replayed.stats().samples_routed != stats.samples_routed {
        return Err(format!(
            "replay gate: replay routed {} adverts, the server {}",
            replayed.stats().samples_routed,
            stats.samples_routed
        ));
    }
    bit_identical(&snapshot, &replayed.snapshot())
        .map_err(|e| format!("bit-identity gate: {e}"))?;

    let batches = writers.iter().map(|w| w.batches).sum();
    let mut rtt_us = Vec::new();
    let mut traces = Vec::new();
    let mut live_peak = stats.sessions_live;
    let mut drift_waits = 0;
    for w in writers {
        live_peak = live_peak.max(w.live_peak);
        drift_waits += w.drift_waits;
        rtt_us.extend(w.rtt_us);
        traces.extend(w.traces);
        spans.absorb(w.spans);
    }
    if traced {
        lap_spans(
            spans,
            &traces,
            workload == Workload::Cluster,
            server_clock,
            front_clock,
        );
    }
    Ok(Phase {
        setup_s,
        wall_s: (end - start).as_secs_f64(),
        rtt_us,
        errors_m: snapshot
            .iter()
            .map(|(b, e)| error_m(inputs, *b, e))
            .collect(),
        peak_heap_mb,
        reads,
        attempted,
        failed,
        acked,
        delivered,
        batches,
        stats,
        snapshot,
        metrics,
        traces,
        live_peak,
        wal_bytes,
        engine,
        taken,
        drift_waits,
        writer_failures,
    })
}

/// The in-process reference: the same prototype, config and motion,
/// fed every taken advert through `Engine::ingest_all` in order (with a
/// `process` between chunks so idle eviction keeps pace, as the
/// server's ticks do), then `finish`.
pub fn replay(inputs: &Inputs, taken: &[u64]) -> Engine {
    let model = train_default_envaware(deploy::MODEL_SEED);
    let mut engine = Engine::new(
        EngineConfig::default(),
        deploy::prototype(&model, &Obs::noop()),
        Obs::noop(),
    );
    engine.set_motion(inputs.motion.clone());
    for_each_taken(inputs, taken, 16_384, |chunk| {
        engine.ingest_all(chunk);
        engine.process();
    });
    engine.finish();
    engine
}

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// Samples per block of the block-median statistics: a p99 per block
/// then has exactly ten samples beyond it.
pub const BLOCK: usize = 1000;

/// `QuerySnapshot` samples per block (snapshots are 100× rarer).
pub const SNAPSHOT_BLOCK: usize = 10;

/// Acked adverts per second, first send → `FinishAck` (so work
/// deferred to `Finish` still counts).
pub fn adverts_per_s(p: &Phase) -> f64 {
    p.acked.consumed as f64 / p.wall_s
}

/// The end-to-end metrics of an untraced phase. `Err` names a metric
/// the reporting rule cannot support (too few samples).
pub fn end_to_end(p: &Phase) -> Result<Vec<Metric>, String> {
    Ok(vec![
        m(
            "setup_s",
            median(&p.setup_s).ok_or("too few samples for setup_s")?,
            "s",
        ),
        m("adverts_per_s", adverts_per_s(p), "1/s"),
        m("peak_heap_mb", p.peak_heap_mb, "MB"),
    ])
}

/// Times `SessionStore::checkpoint` on the drained engine: median
/// milliseconds and the snapshot size in bytes.
pub fn time_checkpoint(
    engine: &Engine,
    dir: &Path,
    times: usize,
    spans: &mut Spans,
) -> Result<(f64, u64), String> {
    let mut store = SessionStore::open(dir, FsyncPolicy::EveryAppend, Obs::noop())
        .map_err(|e| format!("checkpoint store: {e}"))?;
    let mut ms = Vec::new();
    let mut bytes = 0;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        bytes = spans
            .time("store.checkpoint", || store.checkpoint(engine))
            .map_err(|e| format!("checkpoint: {e}"))?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&ms).unwrap_or(0.0), bytes))
}

/// The per-layer metrics of a traced run. Layers a workload's path
/// does not include read 0.
pub fn per_layer(
    workload: Workload,
    traced: &Phase,
    untraced: &Phase,
    checkpoint: (f64, u64),
    core: &[(String, f64)],
) -> Vec<Metric> {
    let cluster = workload == Workload::Cluster;
    let laps = |stage: Stage| -> Vec<f64> {
        traced
            .traces
            .iter()
            .filter_map(|b| b.stage_us(stage, cluster))
            .collect()
    };
    // Laps have microsecond resolution and most read 0–10 µs, so a
    // median cannot resolve a change; the mean is exact and additive
    // (mean × batches is the stage's total time).
    let mean = |stage: Stage| {
        let v = laps(stage);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let p99 = |stage: Stage| tail(&laps(stage), 99.0).unwrap_or(0.0);
    let counter = |name: &str| traced.metrics.as_ref().map_or(0, |m| m.counter(name)) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let delivered = traced.delivered as f64;
    let rtt: f64 = traced.traces.iter().map(|b| b.rtt_us).sum();
    let unattributed: f64 = traced
        .traces
        .iter()
        .map(|b| (b.rtt_us - b.covered_us(cluster)).max(0.0))
        .sum();
    let points: Vec<f64> = traced
        .snapshot
        .iter()
        .map(|(_, e)| e.points_used as f64)
        .collect();
    let mut out = vec![
        m("net.decode_us", mean(Stage::Decode), "us"),
        m("net.ack_us", mean(Stage::Ack), "us"),
        m("net.coalesce_us", mean(Stage::Coalesce), "us"),
        m("net.coalesce_p99_us", p99(Stage::Coalesce), "us"),
        m(
            "net.frames_per_pass",
            traced
                .metrics
                .as_ref()
                .and_then(|m| m.histograms.get("net.reactor.ops_per_tick"))
                .map_or(0.0, |h| h.mean()),
            "frames/pass",
        ),
        m(
            "net.request_bytes_per_advert",
            ratio(counter("net.bytes_rx"), delivered),
            "B/advert",
        ),
        m(
            "net.error_frames",
            counter("net.frame_errors")
                + counter("net.framing_lost")
                + traced.writer_failures as f64,
            "count",
        ),
        m("store.wal_us", mean(Stage::Wal), "us"),
        m(
            "store.wal_bytes_per_advert",
            ratio(traced.wal_bytes as f64, delivered),
            "B/advert",
        ),
        m("store.checkpoint_ms", checkpoint.0, "ms"),
        m("store.snapshot_bytes", checkpoint.1 as f64, "B"),
        m("engine.route_us", mean(Stage::Route), "us"),
        m("engine.shard_queue_us", mean(Stage::ShardQueue), "us"),
        m(
            "engine.samples_per_process",
            ratio(
                traced.stats.samples_processed as f64,
                traced.stats.processes as f64,
            ),
            "samples",
        ),
        m(
            "net.query_p50_us",
            block_median(&traced.reads.query_us, BLOCK, median).unwrap_or(0.0),
            "us",
        ),
        m(
            "net.query_p99_us",
            block_median(&traced.reads.query_us, BLOCK, |b| tail(b, 99.0)).unwrap_or(0.0),
            "us",
        ),
        m(
            "engine.snapshot_p50_us",
            median(&traced.reads.snapshot_us).unwrap_or(0.0),
            "us",
        ),
        m(
            "engine.sessions_created",
            traced.stats.sessions_created as f64,
            "count",
        ),
        m(
            "engine.sessions_evicted",
            traced.stats.sessions_evicted as f64,
            "count",
        ),
        m(
            "engine.sessions_live_peak",
            traced.live_peak as f64,
            "count",
        ),
        m(
            "engine.rejected_non_finite",
            traced.acked.rejected_non_finite as f64,
            "count",
        ),
        m(
            "engine.rejected_out_of_order",
            traced.acked.rejected_out_of_order as f64,
            "count",
        ),
        m(
            "engine.rejected_capacity",
            traced.acked.rejected_capacity as f64,
            "count",
        ),
        m("core.refit_us", mean(Stage::Refit), "us"),
        m("core.refit_p99_us", p99(Stage::Refit), "us"),
        m(
            "core.points_used_p50",
            median(&points).unwrap_or(0.0),
            "samples",
        ),
        m("core.env_restarts", counter("stream.env_restarts"), "count"),
        m(
            "core.error_p50_m",
            median(&traced.errors_m).unwrap_or(0.0),
            "m",
        ),
        m(
            "core.error_p90_m",
            percentile(&traced.errors_m, 90.0).unwrap_or(0.0),
            "m",
        ),
    ];
    for (name, _) in core_arm::backends() {
        for age in core_arm::AGES {
            let key = format!("core.batch_us.{name}.age{age}");
            let v = core
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0.0, |(_, v)| *v);
            out.push((key, v, "us"));
        }
    }
    out.extend([
        m("cluster.forward_us", mean(Stage::Forward), "us"),
        m("cluster.replicate_us", mean(Stage::Replicate), "us"),
        m("cluster.replicate_p99_us", p99(Stage::Replicate), "us"),
        m(
            "cluster.replication_failures",
            counter("net.replication_failures"),
            "count",
        ),
        m(
            "obs.unattributed_pct",
            100.0 * ratio(unattributed, rtt),
            "%",
        ),
        m(
            "obs.trace_overhead_pct",
            {
                let (u, t) = (adverts_per_s(untraced), adverts_per_s(traced));
                100.0 * ratio(u - t, u)
            },
            "%",
        ),
        // The client's ack round trip moved with the host by up to 0.2
        // of its median between runs of the same code (the median, mostly
        // per-batch wake-ups, by more than any allowed bound), so it is
        // read here, from the untraced phase, next to the laps that
        // explain it.
        m(
            "bench.ack_p50_us",
            median(&untraced.rtt_us).unwrap_or(0.0),
            "us",
        ),
        m(
            "bench.ack_p99_us",
            tail(&untraced.rtt_us, 99.0).unwrap_or(0.0),
            "us",
        ),
        m(
            "bench.reader_late_p99_us",
            if workload == Workload::ReadMix {
                tail(&traced.reads.late_us, 99.0).unwrap_or(0.0)
            } else {
                0.0
            },
            "us",
        ),
    ]);
    out
}

/// A scratch directory for one run under `root`, removed first if a
/// previous run left it.
pub fn run_dir(root: &Path, tag: &str) -> PathBuf {
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
