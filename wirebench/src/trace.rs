//! The traced run's records: the benchmark's own spans around every
//! public call it makes, and the server's stage laps read back from
//! traced acks and `TraceQuery`.

use locble_obs::{Obs, Stage, StageLap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across every thread of the run.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One span: a named interval, its cause, and the batch it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id (0 for a root).
    pub parent: u64,
    /// The batch's trace id (0 when not tied to a batch).
    pub trace_id: u64,
    /// `layer.operation`.
    pub name: String,
    /// Start, nanoseconds since the run's time origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's time origin.
    pub end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span; returns its id.
    pub fn push(
        &mut self,
        parent: u64,
        trace_id: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            trace_id,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as a root span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.ns(t0), self.ns(end));
        self.push(0, 0, name, s, e);
        out
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends another log.
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Writes the log as JSON Lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":\"{:016x}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Maps a recording handle's clock (`Obs::now_us`) onto the run's.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Run-clock nanoseconds at the handle's microsecond zero.
    offset_ns: i128,
}

impl Clock {
    /// Reads `obs`'s clock against the run's origin.
    pub fn of(obs: &Obs, epoch: Instant) -> Clock {
        let handle_us = obs.now_us();
        let run_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as i128;
        Clock {
            offset_ns: run_ns - i128::from(handle_us) * 1000,
        }
    }

    /// A handle timestamp on the run's clock, nanoseconds.
    pub fn ns(&self, handle_us: u64) -> u64 {
        (self.offset_ns + i128::from(handle_us) * 1000).max(0) as u64
    }
}

/// One traced batch as the client saw it.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    /// The client-minted trace id.
    pub trace_id: u64,
    /// The client span's id.
    pub span: u64,
    /// Client-measured round trip, microseconds.
    pub rtt_us: f64,
    /// Laps carried by the ack (the front's laps on a cluster).
    pub ack_laps: Vec<StageLap>,
    /// The engine-owning server's full record, from `TraceQuery`.
    pub server_laps: Option<Vec<StageLap>>,
}

impl BatchTrace {
    /// The engine-owning server's laps: the harvested record when
    /// found, else what the ack carried (`cluster`: the front's ack
    /// carries only the front's laps, so nothing).
    pub fn server(&self, cluster: bool) -> &[StageLap] {
        match (&self.server_laps, cluster) {
            (Some(laps), _) => laps,
            (None, false) => &self.ack_laps,
            (None, true) => &[],
        }
    }

    /// The front's laps (cluster only).
    pub fn front(&self, cluster: bool) -> &[StageLap] {
        if cluster {
            &self.ack_laps
        } else {
            &[]
        }
    }

    /// Total microseconds `stage` took for this batch, if it ran.
    pub fn stage_us(&self, stage: Stage, cluster: bool) -> Option<f64> {
        let laps = if stage == Stage::Forward {
            self.front(cluster)
        } else {
            self.server(cluster)
        };
        let mut hit = false;
        let mut total = 0u64;
        for lap in laps.iter().filter(|l| l.stage == stage) {
            hit = true;
            total += lap.duration_us;
        }
        hit.then_some(total as f64)
    }

    /// Microseconds of the round trip some lap covers: the union of the
    /// lap intervals of each handle, the larger handle's (a cluster
    /// front's forward lap encloses the owner's laps).
    pub fn covered_us(&self, cluster: bool) -> f64 {
        union_us(self.server(cluster)).max(union_us(self.front(cluster))) as f64
    }
}

/// Length of the union of the laps' intervals, microseconds.
fn union_us(laps: &[StageLap]) -> u64 {
    let mut iv: Vec<(u64, u64)> = laps
        .iter()
        .map(|l| (l.start_us, l.start_us + l.duration_us))
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Adds every batch's laps to `spans` as children of its client span.
pub fn lap_spans(
    spans: &mut Spans,
    batches: &[BatchTrace],
    cluster: bool,
    server: Clock,
    front: Clock,
) {
    for b in batches {
        for (laps, clock, handle) in [
            (b.server(cluster), server, "server"),
            (b.front(cluster), front, "front"),
        ] {
            for lap in laps {
                let start = clock.ns(lap.start_us);
                spans.push(
                    b.span,
                    b.trace_id,
                    &format!("{handle}.{}", lap.stage.name()),
                    start,
                    start + lap.duration_us * 1000,
                );
            }
        }
    }
}
