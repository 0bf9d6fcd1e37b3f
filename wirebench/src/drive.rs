//! The load generator: closed-loop writer connections, the open-loop
//! reader, and the post-stream read probe. Every timing here is taken
//! by the benchmark around a public client call.

use crate::inputs::Inputs;
use crate::trace::{BatchTrace, Spans};
use locble_ble::BeaconId;
use locble_engine::Advert;
use locble_net::{Client, ClientError, IngestSummary};
use locble_obs::{trace_id, TraceCtx, TraceRecord};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A sweep connection may run at most this far (simulated seconds)
/// ahead of the other before it waits. Idle eviction is 60 s, so a
/// session on the slower connection is never evicted mid-pass by the
/// faster one's watermark, and the served estimates stay comparable
/// with the in-process replay.
const MAX_DRIFT_S: f64 = 20.0;

/// Traced runs drain the trace table every this many batches per
/// connection: two connections then add at most 128 records between
/// drains, and the table holds 256.
const HARVEST_EVERY: usize = 64;

/// The open-loop reader's rates: `QueryBeacon`/s and `QuerySnapshot`/s.
const READER_QPS: f64 = 1000.0;
const READER_SPS: f64 = 10.0;

/// Everything the writers share.
pub struct Shared<'a> {
    /// The generated inputs.
    pub inputs: &'a Inputs,
    /// Where writers connect.
    pub addr: SocketAddr,
    /// The engine-owning server (traced cluster runs read its trace
    /// table directly).
    pub owner_addr: SocketAddr,
    /// Adverts per frame.
    pub frame: usize,
    /// When writers stop taking new frames.
    pub deadline: Instant,
    /// Stop only between walks.
    pub whole_walks: bool,
    /// Traced run: every batch is a `TracedAdvertBatch`.
    pub traced: bool,
    /// Traced cluster run: harvest the owner's trace table too.
    pub cluster: bool,
    /// Trace-id nonce (the seed).
    pub nonce: u64,
    /// Per-connection clock of the next advert (f64 bits), for the
    /// drift guard; `+inf` once a connection is done.
    pub clocks: Vec<AtomicU64>,
    /// Physical-beacon base id of the newest acked pass (for the
    /// reader's "recently ingested" queries).
    pub recent_base: AtomicU32,
    /// Set once every writer has stopped.
    pub writers_done: AtomicBool,
    /// Start line for writers and the reader.
    pub barrier: Barrier,
    /// The run's time origin.
    pub epoch: Instant,
}

/// What one writer connection did.
pub struct WriterOutcome {
    /// Adverts taken from the stream (sent or attempted).
    pub taken: u64,
    /// Adverts put on the wire in acked batches.
    pub delivered: u64,
    /// Folded ack accounting.
    pub acked: IngestSummary,
    /// Batches attempted.
    pub batches: u64,
    /// Client errors and error frames.
    pub failed: u64,
    /// Ingest round trips, microseconds.
    pub rtt_us: Vec<f64>,
    /// Traced batches (traced runs only).
    pub traces: Vec<BatchTrace>,
    /// Highest `sessions_live` seen while polling (traced runs only).
    pub live_peak: u64,
    /// Times the drift guard made this connection wait.
    pub drift_waits: u64,
    /// The connection, handed back for `Finish` and the probe.
    pub client: Option<Client>,
    /// The benchmark's spans around this connection's calls.
    pub spans: Spans,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_since(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// Runs one closed-loop writer connection over `class`'s share.
pub fn writer(shared: &Shared<'_>, class: usize, conns: usize) -> WriterOutcome {
    let inputs = shared.inputs;
    let mut out = WriterOutcome {
        taken: 0,
        delivered: 0,
        acked: IngestSummary::default(),
        batches: 0,
        failed: 0,
        rtt_us: Vec::new(),
        traces: Vec::new(),
        live_peak: 0,
        drift_waits: 0,
        client: None,
        spans: Spans::new(shared.epoch),
    };
    let mut cursor = inputs.cursor(class, conns);
    let connected = Client::connect(shared.addr).and_then(|c| {
        let owner = if shared.traced && shared.cluster {
            Some(Client::connect(shared.owner_addr)?)
        } else {
            None
        };
        Ok((c, owner))
    });
    shared.barrier.wait();
    let (mut client, mut owner) = match connected {
        Ok(pair) => pair,
        Err(_) => {
            out.failed += 1;
            shared.clocks[class].store(f64::INFINITY.to_bits(), Ordering::SeqCst);
            return out;
        }
    };
    let mut frame: Vec<Advert> = Vec::with_capacity(shared.frame);
    let mut pending: Vec<usize> = Vec::new();
    loop {
        let now = Instant::now();
        if now >= shared.deadline && (!shared.whole_walks || cursor.at_walk_start()) {
            break;
        }
        if conns > 1 {
            let next_t = cursor.next_t(inputs);
            shared.clocks[class].store(next_t.to_bits(), Ordering::SeqCst);
            let mut waited = false;
            while shared.clocks.iter().enumerate().any(|(c, clock)| {
                c != class && next_t > f64::from_bits(clock.load(Ordering::SeqCst)) + MAX_DRIFT_S
            }) {
                waited = true;
                std::thread::yield_now();
            }
            out.drift_waits += u64::from(waited);
        }
        if !cursor.next_frame(inputs, shared.frame, &mut frame) {
            break;
        }
        out.batches += 1;
        let t0 = Instant::now();
        let result: Result<IngestSummary, ClientError> = if shared.traced {
            let id = trace_id(shared.nonce ^ class as u64, out.batches);
            let sent = client.ingest_traced(&frame, TraceCtx::mint(id));
            let end = Instant::now();
            sent.map(|ack| {
                let span = out.spans.push(
                    0,
                    id,
                    "client.ingest_traced",
                    ns_since(shared.epoch, t0),
                    ns_since(shared.epoch, end),
                );
                pending.push(out.traces.len());
                out.traces.push(BatchTrace {
                    trace_id: id,
                    span,
                    rtt_us: us(end - t0),
                    ack_laps: ack.laps,
                    server_laps: None,
                });
                ack.summary
            })
        } else {
            client.ingest(&frame)
        };
        let rtt = us(t0.elapsed());
        match result {
            Ok(summary) => {
                out.rtt_us.push(rtt);
                out.delivered += frame.len() as u64;
                out.acked.absorb(summary);
                let last = frame[frame.len() - 1].beacon.0;
                shared
                    .recent_base
                    .store(last - last % inputs.beacons, Ordering::SeqCst);
            }
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
        if shared.traced && pending.len() >= HARVEST_EVERY {
            harvest(shared, &mut client, owner.as_mut(), &mut out, &mut pending);
        }
    }
    out.taken = cursor.taken;
    shared.clocks[class].store(f64::INFINITY.to_bits(), Ordering::SeqCst);
    if shared.traced {
        harvest(shared, &mut client, owner.as_mut(), &mut out, &mut pending);
    }
    out.client = Some(client);
    out
}

/// Drains the server's trace table (and the owner's, on a cluster) for
/// this connection's pending batches, and polls the live-session count.
fn harvest(
    shared: &Shared<'_>,
    client: &mut Client,
    owner: Option<&mut Client>,
    out: &mut WriterOutcome,
    pending: &mut Vec<usize>,
) {
    let source: &mut Client = match owner {
        Some(owner) => owner,
        None => client,
    };
    let t0 = Instant::now();
    let records = source.traces(None);
    out.spans.push(
        0,
        0,
        "client.traces",
        ns_since(shared.epoch, t0),
        ns_since(shared.epoch, Instant::now()),
    );
    match records {
        Ok(records) => {
            let by_id: HashMap<u64, TraceRecord> =
                records.into_iter().map(|r| (r.ctx.trace_id, r)).collect();
            for &i in pending.iter() {
                if let Some(record) = by_id.get(&out.traces[i].trace_id) {
                    out.traces[i].server_laps = Some(record.laps.clone());
                }
            }
        }
        Err(_) => out.failed += 1,
    }
    pending.clear();
    let t0 = Instant::now();
    let stats = client.stats();
    out.spans.push(
        0,
        0,
        "client.stats",
        ns_since(shared.epoch, t0),
        ns_since(shared.epoch, Instant::now()),
    );
    match stats {
        Ok(stats) => out.live_peak = out.live_peak.max(stats.sessions_live),
        Err(_) => out.failed += 1,
    }
}

/// What the open-loop reader measured.
#[derive(Debug, Default)]
pub struct ReaderOutcome {
    /// `QueryBeacon` latencies from when each was due, microseconds.
    pub query_us: Vec<f64>,
    /// `QuerySnapshot` latencies from when each was due, microseconds.
    pub snapshot_us: Vec<f64>,
    /// How late each request went out, microseconds.
    pub late_us: Vec<f64>,
    /// Reads attempted.
    pub attempted: u64,
    /// Client errors and error frames.
    pub failed: u64,
}

/// The open-loop reader: [`READER_QPS`] `QueryBeacon` for recently
/// ingested beacons plus [`READER_SPS`] `QuerySnapshot`, each timed
/// from when it was due, until the writers stop.
pub fn reader(shared: &Shared<'_>) -> ReaderOutcome {
    let mut out = ReaderOutcome::default();
    let connected = Client::connect(shared.addr);
    shared.barrier.wait();
    let Ok(mut client) = connected else {
        out.failed += 1;
        return out;
    };
    let start = Instant::now();
    let q_period = Duration::from_secs_f64(1.0 / READER_QPS);
    let s_period = Duration::from_secs_f64(1.0 / READER_SPS);
    let (mut nq, mut ns) = (0u32, 0u32);
    let n = shared.inputs.beacons;
    while !shared.writers_done.load(Ordering::SeqCst) {
        let q_due = start + q_period * nq;
        let s_due = start + s_period * ns;
        let (due, snapshot) = if s_due <= q_due {
            (s_due, true)
        } else {
            (q_due, false)
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.late_us.push(us(sent.saturating_duration_since(due)));
        out.attempted += 1;
        let ok = if snapshot {
            ns += 1;
            client.snapshot().is_ok()
        } else {
            nq += 1;
            let base = shared.recent_base.load(Ordering::SeqCst);
            let beacon = BeaconId(base + nq.wrapping_mul(7919) % n);
            client.query(beacon).is_ok()
        };
        let latency = us(Instant::now().saturating_duration_since(due));
        if !ok {
            out.failed += 1;
            continue;
        }
        if snapshot {
            out.snapshot_us.push(latency);
        } else {
            out.query_us.push(latency);
        }
    }
    out
}

/// The closed-loop read probe run after `Finish` on workloads without
/// the concurrent reader: `blocks` blocks, 20 ms apart, each of
/// `queries` `QueryBeacon` over the live beacons and `snapshots`
/// `QuerySnapshot`.
pub fn probe(
    client: &mut Client,
    beacons: &[BeaconId],
    blocks: usize,
    queries: usize,
    snapshots: usize,
) -> ReaderOutcome {
    let mut out = ReaderOutcome::default();
    if beacons.is_empty() {
        return out;
    }
    for block in 0..blocks {
        if block > 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        for k in 0..queries {
            out.attempted += 1;
            let t0 = Instant::now();
            match client.query(beacons[(block * queries + k) % beacons.len()]) {
                Ok(_) => out.query_us.push(us(t0.elapsed())),
                Err(_) => out.failed += 1,
            }
        }
        for _ in 0..snapshots {
            out.attempted += 1;
            let t0 = Instant::now();
            match client.snapshot() {
                Ok(_) => out.snapshot_us.push(us(t0.elapsed())),
                Err(_) => out.failed += 1,
            }
        }
    }
    out
}
