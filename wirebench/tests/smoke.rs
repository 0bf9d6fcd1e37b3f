//! A tiny-size run of each workload through the real wire path, with
//! both correctness gates, plus one traced run's per-layer table.

use std::path::PathBuf;
use std::time::Instant;
use wirebench::inputs::Inputs;
use wirebench::run::{self, Size, Workload, ALL};
use wirebench::trace::Spans;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("wirebench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke(workload: Workload) {
    let size = Size::tiny();
    let inputs = Inputs::generate(workload.walk(&size), 5);
    let dir = scratch(workload.name());
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let p = run::phase(
        workload,
        &size,
        &inputs,
        5,
        0.3,
        false,
        size.setups,
        &dir,
        epoch,
        &mut spans,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(run::adverts_per_s(&p) > 0.0);
    assert_eq!(p.failed, 0, "{}: no operation fails", workload.name());
    assert_eq!(p.setup_s.len(), size.setups);
    assert!(!p.snapshot.is_empty());
    assert!(!p.rtt_us.is_empty());
    assert!(!p.reads.query_us.is_empty() && !p.reads.snapshot_us.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_smoke() {
    smoke(Workload::Sweep);
}

#[test]
fn track_smoke() {
    smoke(Workload::Track);
}

#[test]
fn read_mix_smoke() {
    smoke(Workload::ReadMix);
}

#[test]
fn cluster_smoke() {
    smoke(Workload::Cluster);
}

#[test]
fn traced_cluster_reports_every_layer() {
    let size = Size::tiny();
    let workload = Workload::Cluster;
    let inputs = Inputs::generate(workload.walk(&size), 6);
    let dir = scratch("traced");
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let u = run::phase(
        workload,
        &size,
        &inputs,
        6,
        0.3,
        false,
        1,
        &dir.join("u"),
        epoch,
        &mut spans,
    )
    .expect("untraced phase");
    let t = run::phase(
        workload,
        &size,
        &inputs,
        6,
        0.3,
        true,
        1,
        &dir.join("t"),
        epoch,
        &mut spans,
    )
    .expect("traced phase");
    assert!(!t.traces.is_empty());
    assert!(
        t.traces.iter().all(|b| b.server_laps.is_some()),
        "every batch's owner-side laps were drained from TraceQuery"
    );
    let checkpoint =
        run::time_checkpoint(&t.engine, &dir.join("ckpt"), 1, &mut spans).expect("checkpoint");
    let metrics = run::per_layer(workload, &t, &u, checkpoint, &[]);
    let names: Vec<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    for must in [
        "cluster.forward_us",
        "cluster.replicate_us",
        "store.wal_us",
        "obs.unattributed_pct",
    ] {
        assert!(names.contains(&must), "{must} missing");
    }
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1)
            .unwrap()
    };
    assert!(get("cluster.forward_us") > 0.0);
    assert!(get("cluster.replicate_us") > 0.0);
    assert!(spans.spans.iter().any(|s| s.name == "client.ingest_traced"));
    assert!(spans
        .spans
        .iter()
        .any(|s| s.name == "front.forward" && s.parent != 0));
    assert_eq!(ALL.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
