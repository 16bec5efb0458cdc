//! The repository benchmark: two seeded workloads against the on-disk
//! `XmlDb`, run in one process; their traced runs also drive the `nokd`
//! service stack (wire protocols, admission, plan cache) beside a durable
//! writer.
//!
//! ```text
//! cargo run --release --manifest-path nokbench/Cargo.toml -- \
//!     --workload <lowsel|point> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Databases are built under `.nokbench/`
//! and removed at exit; a traced run leaves its spans in
//! `.nokbench/trace-<workload>-<seed>.json`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Any wrong answer or broken premise exits non-zero
//! without a result.

mod corpus;
mod gen;
mod inproc;
mod layers;
mod metrics;
mod rng;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use corpus::Res;
use workloads::Run;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["lowsel", "point"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("nokbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Res<String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(".nokbench");
    let work = WorkDir(out_dir.join(format!(
        "run-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# nokbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let r = Run {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        work: work.0.clone(),
        epoch: Instant::now(),
        nproc,
    };
    let outcome = match args.workload.as_str() {
        "lowsel" => workloads::lowsel(&r)?,
        _ => workloads::point(&r)?,
    };
    let rendered = if args.trace {
        let spans = outcome.spans.as_ref().ok_or("traced run without spans")?;
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::to_json(spans.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# spans: {} written to {}",
            spans.spans().len(),
            path.display()
        );
        outcome.layers.render(&metrics::per_layer())?
    } else {
        let e2e: Vec<(String, &str)> = metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        outcome.e2e.render(&e2e)?
    };
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {rendered}}}",
        outcome.tally.attempted, outcome.tally.failed
    ))
}
