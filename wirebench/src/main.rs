//! `wirebench --workload <sweep|track|read_mix|cluster|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Drives the real wire path in one process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A run that fails a correctness gate prints
//! `"correct": false` with no metrics and exits 1. See README.md.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wirebench::core_arm;
use wirebench::inputs::Inputs;
use wirebench::run::{self, Metric, Size, Workload, ALL};
use wirebench::trace::Spans;

#[global_allocator]
static HEAP: wirebench::heap::Counting = wirebench::heap::Counting;

/// Where runs keep their stores and write their spans, relative to the
/// working directory.
const WORK_DIR: &str = ".wirebench";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workloads = if name == "all" {
        ALL.to_vec()
    } else {
        vec![Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?]
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// One workload's outcome.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Result<Vec<Metric>, String>,
}

fn run_workload(workload: Workload, args: &Args, size: &Size) -> Outcome {
    let epoch = Instant::now();
    let inputs = Inputs::generate(workload.walk(size), args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wirebench workload={} seed={} seconds={} trace={} nproc={} engine_workers={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        locble_engine::EngineConfig::default().threads,
    );
    println!(
        "inputs digest={:016x} beacons={} silent_beacons={} cycle_adverts={} cycle_s={:.3}",
        inputs.digest(),
        inputs.beacons,
        inputs.silent_beacons,
        inputs.cycle_len(),
        inputs.cycle_s
    );
    let dir = run::run_dir(Path::new(WORK_DIR), workload.name());
    let mut spans = Spans::new(epoch);
    let outcome = if args.trace {
        traced(workload, args, size, &inputs, &dir, epoch, &mut spans)
    } else {
        match run::phase(
            workload,
            size,
            &inputs,
            args.seed,
            args.seconds,
            false,
            size.setups,
            &dir,
            epoch,
            &mut spans,
        ) {
            Ok(p) => {
                report_phase(&p);
                Outcome {
                    attempted: p.attempted,
                    failed: p.failed,
                    metrics: run::end_to_end(&p),
                }
            }
            Err(e) => Outcome {
                attempted: 1,
                failed: 1,
                metrics: Err(e),
            },
        }
    };
    if args.trace {
        let path = PathBuf::from(WORK_DIR).join("spans").join(format!(
            "{}-seed{}.jsonl",
            workload.name(),
            args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans {} written to {}", spans.spans.len(), path.display()),
            Err(e) => eprintln!("spans not written: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn traced(
    workload: Workload,
    args: &Args,
    size: &Size,
    inputs: &Inputs,
    dir: &Path,
    epoch: Instant,
    spans: &mut Spans,
) -> Outcome {
    let phases = run::phase(
        workload,
        size,
        inputs,
        args.seed,
        args.seconds,
        false,
        1,
        &dir.join("untraced"),
        epoch,
        spans,
    )
    .and_then(|u| {
        report_phase(&u);
        let t = run::phase(
            workload,
            size,
            inputs,
            args.seed,
            args.seconds,
            true,
            1,
            &dir.join("traced"),
            epoch,
            spans,
        )?;
        report_phase(&t);
        Ok((u, t))
    });
    let (u, t) = match phases {
        Ok(pair) => pair,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                metrics: Err(e),
            }
        }
    };
    let metrics = run::time_checkpoint(&t.engine, &dir.join("checkpoint"), size.checkpoints, spans)
        .map(|checkpoint| {
            let track;
            let core_inputs = if workload == Workload::Track {
                inputs
            } else {
                track = Inputs::generate(size.track, args.seed);
                &track
            };
            let model = locble_scenario::train_default_envaware(wirebench::deploy::MODEL_SEED);
            let prototype = wirebench::deploy::prototype(&model, &locble_obs::Obs::noop());
            let core = core_arm::run(core_inputs, &prototype, size.core_beacons, spans);
            run::per_layer(workload, &t, &u, checkpoint, &core)
        });
    Outcome {
        attempted: u.attempted + t.attempted,
        failed: u.failed + t.failed,
        metrics,
    }
}

fn report_phase(p: &run::Phase) {
    println!(
        "  gates ok: delivered={} routed={} rejected={} batches={} estimates={} sessions_created={} drift_waits={} wall_s={:.3}",
        p.delivered,
        p.acked.routed,
        p.acked.rejected(),
        p.batches,
        p.snapshot.len(),
        p.stats.sessions_created,
        p.drift_waits,
        p.wall_s,
    );
}

fn json_metrics(metrics: &[Metric], prefix: &str) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!("usage: wirebench --workload <sweep|track|read_mix|cluster|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let size = Size::full();
    let prefix_names = args.workloads.len() > 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut entries = Vec::new();
    for &workload in &args.workloads {
        let outcome = run_workload(workload, &args, &size);
        attempted += outcome.attempted;
        failed += outcome.failed;
        match outcome.metrics {
            Ok(metrics) if metrics.iter().all(|(_, v, _)| v.is_finite()) => {
                println!(
                    "{:<42} {:>16} unit",
                    format!("[{}] metric", workload.name()),
                    "value"
                );
                for (name, value, unit) in &metrics {
                    println!("{name:<42} {value:>16.4} {unit}");
                }
                println!("attempted {} failed {}", outcome.attempted, outcome.failed);
                let prefix = if prefix_names {
                    format!("{}.", workload.name())
                } else {
                    String::new()
                };
                entries.push(json_metrics(&metrics, &prefix));
            }
            Ok(_) => {
                eprintln!("wirebench: {}: a metric is not finite", workload.name());
                correct = false;
            }
            Err(e) => {
                eprintln!("wirebench: {}: FAILED: {e}", workload.name());
                correct = false;
            }
        }
    }
    if !correct {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            attempted.max(1),
            failed.max(1)
        );
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
    ExitCode::SUCCESS
}
