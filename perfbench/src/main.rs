//! Open-loop cluster benchmark.
//!
//! ```text
//! perfbench --workload <wan5-conflict|wan5-ycsb|lan-ycsb|lan-write> --seed <n>
//!           --seconds <s> --trace <0|1> --replica-bin <path> [--work-dir <dir>]
//! ```
//!
//! Launches the workload's replicas as separate `atlas-replica` processes on
//! loopback, drives them with a seeded open-loop schedule over two client
//! connections, checks every reply and the replicas' final state, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced run plus the layer probes (`--trace 1`). The last line of
//! standard output is one JSON object with the result.

mod cluster;
mod generator;
mod probes;
mod report;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Every allocation in this process is counted, so the protocol probe can
/// report allocations per command.
#[global_allocator]
static ALLOC: atlas_metrics::CountingAllocator = atlas_metrics::CountingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --replica-bin <path> [--work-dir <dir>]",
        workload::NAMES.join("|")
    );
    exit(2);
}

/// Checked command line.
pub struct Args {
    pub workload: workload::Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub replica_bin: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace, mut bin) = (None, None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_run");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(workload::by_name(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                let s: u64 = value.parse().unwrap_or_else(|_| usage());
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--replica-bin" => bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, bin) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(replica_bin)) => Args {
            workload,
            seed,
            seconds,
            trace,
            replica_bin,
            work_dir,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    // The generator's runtime gets no more workers than there are cores;
    // the vendored runtime reads this once, when it boots below.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("TOKIO_WORKER_THREADS", cores.to_string());
    let rt = tokio::runtime::Runtime::new().expect("generator runtime boots");
    let result = if args.trace {
        run::traced(&rt, &args)
    } else {
        run::untraced(&rt, &args)
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match result {
        Ok(report) => println!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
