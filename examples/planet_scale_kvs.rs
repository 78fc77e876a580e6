//! A replicated key–value store served by a **real TCP cluster**: a
//! cluster of each protocol (3 replicas by default;
//! `ATLAS_EXAMPLE_N`/`ATLAS_EXAMPLE_F` resize it) is booted on localhost,
//! closed-loop clients drive conflicting and private writes through actual
//! sockets, and per-command latency is measured at the client.
//!
//! ```text
//! cargo run --release --example planet_scale_kvs
//! ```
//!
//! This is the networked sibling of the WAN simulation experiments: the same
//! protocol state machines, but every message crosses the loopback TCP stack
//! (framing, serialization, reconnecting links, client sessions). Use the
//! planet simulator (`examples/quickstart.rs`) for geo-latency questions and
//! this runtime for real-deployment plumbing and throughput questions.

use atlas::core::{Command, Config, Protocol, Rifl};
use atlas::metrics::{BoundedHistogram, HistogramSummary};
use atlas::protocol::Atlas;
use atlas::runtime::{Client, Cluster};
use std::time::Instant;

const CLIENTS: u64 = 4;
const OPS_PER_CLIENT: u64 = 250;
const CONFLICT_PCT: u64 = 10;

/// Cluster size from `ATLAS_EXAMPLE_N`/`ATLAS_EXAMPLE_F` (default 3/1):
/// every member-set reference below derives from this one configuration
/// (client spreading and the stats sweep already iterate the cluster), so
/// resizing is one environment variable, not an edit per protocol row.
fn example_config() -> Config {
    let read = |var: &str, default: usize| {
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    Config::new(read("ATLAS_EXAMPLE_N", 3), read("ATLAS_EXAMPLE_F", 1))
}

async fn drive(addr: std::net::SocketAddr, client_id: u64) -> std::io::Result<Vec<u64>> {
    let mut client = Client::connect(addr, client_id).await?;
    let mut latencies_us = Vec::with_capacity(OPS_PER_CLIENT as usize);
    for seq in 1..=OPS_PER_CLIENT {
        // The §5.2 microbenchmark shape: key 0 with probability
        // CONFLICT_PCT%, a client-private key otherwise.
        let key = if seq % (100 / CONFLICT_PCT) == 0 {
            0
        } else {
            1 + client_id
        };
        let cmd = Command::put(Rifl::new(client_id, seq), key, seq, 100);
        let start = Instant::now();
        client.submit(cmd).await?;
        latencies_us.push(start.elapsed().as_micros() as u64);
    }
    Ok(latencies_us)
}

fn run_cluster<P: Protocol>(label: &str, config: Config) {
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async {
        let cluster = Cluster::spawn::<P>(config).await.expect("cluster boots");
        let started = Instant::now();
        let mut tasks = Vec::new();
        for client_id in 1..=CLIENTS {
            // Spread clients over the membership.
            let members = cluster.members();
            let replica = members[(client_id - 1) as usize % members.len()];
            tasks.push(tokio::spawn(drive(cluster.addr(replica), client_id)));
        }
        let mut hist = BoundedHistogram::new();
        for task in tasks {
            for latency_us in task.await.expect("client task").expect("client run") {
                hist.record(latency_us);
            }
        }
        let elapsed = started.elapsed();

        // The cluster's own view of the run, via the stats plane: sum the
        // fast/slow path split over every replica (each command is
        // classified once, at its coordinator).
        let (mut fast, mut slow) = (0u64, 0u64);
        for &id in cluster.members() {
            let mut probe = Client::connect(cluster.addr(id), 900 + u64::from(id))
                .await
                .expect("stats probe connects");
            let snapshot = probe.stats().await.expect("stats");
            fast += snapshot.protocol_stats.fast_paths;
            slow += snapshot.protocol_stats.slow_paths;
        }
        let fast_pct = if fast + slow > 0 {
            format!("{:>5.1}%", fast as f64 / (fast + slow) as f64 * 100.0)
        } else {
            "    -".to_string()
        };
        let s = HistogramSummary::of(&hist);
        println!(
            "{label}  {:>5} cmds in {:>8.2?}   {:>6.0} ops/s   p50 {:>6.2} ms   p95 {:>6.2} ms   p99 {:>6.2} ms   fast {fast_pct}",
            s.count,
            elapsed,
            s.count as f64 / elapsed.as_secs_f64(),
            s.p50_us as f64 / 1_000.0,
            s.p95_us as f64 / 1_000.0,
            s.p99_us as f64 / 1_000.0,
        );
        cluster.shutdown();
    });
}

fn main() {
    let config = example_config();
    println!(
        "{}-replica clusters (f = {}) over 127.0.0.1 TCP — {CLIENTS} closed-loop clients, \
         {OPS_PER_CLIENT} single-key PUTs each, {CONFLICT_PCT}% conflicts",
        config.n, config.f
    );
    println!();
    run_cluster::<Atlas>("Atlas            ", config);
    run_cluster::<Atlas>("Atlas      + NFR ", config.with_nfr(true));
    run_cluster::<epaxos::EPaxos>("EPaxos           ", config);
    run_cluster::<fpaxos::FPaxos>("FPaxos           ", config);
    run_cluster::<mencius::Mencius>("Mencius          ", config);
    println!();
    println!("On loopback every replica is equidistant, so the differences above are");
    println!("protocol overhead (quorum sizes, message counts, forwarding hops), not");
    println!("geography — run the planet simulator examples for the WAN picture.");
}
