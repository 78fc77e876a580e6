//! The shard-count determinism oracle: the sharded parallel executor pool
//! must be **observationally identical** to single-threaded execution.
//!
//! The same seeded, heavily conflicting workload — four logical clients
//! round-robin over 16 shared keys, with gets, puts, deletes and multi-key
//! commands that span shards — is driven through a `shards = 1` cluster and
//! a `shards = 8` cluster of the same protocol, one command in flight at a
//! time, so the protocol order is the submission order in both runs. The
//! two runs must then agree byte-for-byte on
//!
//! * every reply (per-key outputs, in reply wire order),
//! * every replica's final store digest, and
//! * the execution record projected onto the workload (same dots, same
//!   order — ticks may interleave protocol-internal entries, the workload's
//!   own sequence may not move).
//!
//! One oracle per hosted protocol: Atlas, EPaxos, FPaxos and Mencius all
//! route their `Action::Execute` stream through the same pool.

use atlas_core::{Config, Dot, Key, KvOp, ProcessId, Protocol, Rifl};
use atlas_protocol::Atlas;
use atlas_runtime::{Client, Cluster, ClusterOptions};
use kvstore::Output;
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const SHARED_KEYS: Key = 16;
const CLIENTS: u64 = 4;
const OPS: u64 = 240;
const SEED: u64 = 0x5EED_5AAD;

/// splitmix64 — the workload's only source of randomness, so both cluster
/// runs see the exact same command sequence.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Command `i` of the seeded workload: mostly single-key writes on the
/// shared (conflicting) keys, a read and a delete mixed in, and every
/// seventh command a multi-key one (2–4 keys, gets and puts mixed) so the
/// cross-shard barrier is continuously exercised.
fn command_for(seed: u64, i: u64, rifl: Rifl) -> atlas_core::Command {
    let r = mix(seed, i);
    let key = r % SHARED_KEYS;
    match r % 7 {
        0..=2 => atlas_core::Command::put(rifl, key, r, 8),
        3 => atlas_core::Command::get(rifl, key),
        4 => atlas_core::Command::new(rifl, [(key, KvOp::Delete)], 8),
        5 => atlas_core::Command::put(rifl, key, i, 8),
        _ => {
            let width = 2 + (r >> 8) % 3; // 2..=4 keys
            let ops = (0..width).map(|j| {
                let k = (key + 1 + j * 5) % SHARED_KEYS;
                let op = if (r >> (16 + j)) & 1 == 0 {
                    KvOp::Put(r ^ j)
                } else {
                    KvOp::Get
                };
                (k, op)
            });
            atlas_core::Command::new(rifl, ops, 8)
        }
    }
}

/// Everything one cluster run externalizes about the workload.
#[derive(Debug, PartialEq)]
struct RunResult {
    /// Per-command reply outputs, in submission order.
    replies: Vec<Vec<(Key, Output)>>,
    /// Final store digest, identical across the run's replicas.
    digest: u64,
    /// Each replica's execution record filtered to workload rifls.
    workload_log: Vec<(Dot, Rifl)>,
}

/// Drives the seeded workload through a fresh `shards`-configured cluster
/// of `P`, one command in flight at a time (deterministic protocol order),
/// and collects the run's observable behaviour.
fn run_cluster<P: Protocol>(shards: usize) -> RunResult {
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let options = ClusterOptions::default().with_shards(shards);
        let cluster = Cluster::spawn_with::<P>(Config::new(REPLICAS, 1), options)
            .await
            .expect("cluster boots");
        let mut clients = Vec::new();
        for c in 1..=CLIENTS {
            clients.push(
                Client::connect(cluster.addr(1), c)
                    .await
                    .expect("client connects"),
            );
        }
        let mut replies = Vec::with_capacity(OPS as usize);
        for i in 0..OPS {
            let client = &mut clients[(i % CLIENTS) as usize];
            let rifl = client.next_rifl();
            let cmd = command_for(SEED, i, rifl);
            replies.push(client.submit(cmd).await.expect("command executes"));
        }

        // Wait until every replica executed the whole workload and the
        // digests agree, then keep one canonical (filtered) record.
        let is_workload = |rifl: &Rifl| rifl.client >= 1 && rifl.client <= CLIENTS;
        let deadline = Instant::now() + Duration::from_secs(60);
        let logs = loop {
            let mut logs = Vec::new();
            for id in 1..=REPLICAS as ProcessId {
                if let Ok(mut probe) = Client::connect(cluster.addr(id), 900 + id as u64).await {
                    if let Ok(log) = probe.execution_log().await {
                        logs.push(log);
                    }
                }
            }
            if logs.len() == REPLICAS
                && logs
                    .iter()
                    .all(|(e, _)| e.iter().filter(|(_, r)| is_workload(r)).count() == OPS as usize)
                && logs.iter().all(|(_, d)| *d == logs[0].1)
            {
                break logs;
            }
            assert!(
                Instant::now() < deadline,
                "shards={shards}: no convergence: {:?} workload commands executed (want {OPS})",
                logs.iter()
                    .map(|(e, _)| e.iter().filter(|(_, r)| is_workload(r)).count())
                    .collect::<Vec<_>>(),
            );
            tokio::time::sleep(Duration::from_millis(100)).await;
        };
        let digest = logs[0].1;
        let workload_log: Vec<(Dot, Rifl)> = logs[0]
            .0
            .iter()
            .filter(|(_, rifl)| is_workload(rifl))
            .copied()
            .collect();
        cluster.shutdown();
        RunResult {
            replies,
            digest,
            workload_log,
        }
    })
}

/// The oracle: a `shards = 1` and a `shards = 8` run of the same seeded
/// workload must be indistinguishable.
fn oracle<P: Protocol>() {
    let flat = run_cluster::<P>(1);
    let sharded = run_cluster::<P>(8);
    assert_eq!(
        flat.digest, sharded.digest,
        "store digests diverge between shards=1 and shards=8"
    );
    for (i, (a, b)) in flat.replies.iter().zip(&sharded.replies).enumerate() {
        assert_eq!(a, b, "reply of workload command {i} diverges");
    }
    assert_eq!(
        flat.workload_log, sharded.workload_log,
        "execution records diverge between shards=1 and shards=8"
    );
}

#[test]
fn atlas_shards_1_vs_8_identical() {
    oracle::<Atlas>();
}

#[test]
fn epaxos_shards_1_vs_8_identical() {
    oracle::<epaxos::EPaxos>();
}

#[test]
fn fpaxos_shards_1_vs_8_identical() {
    oracle::<fpaxos::FPaxos>();
}

#[test]
fn mencius_shards_1_vs_8_identical() {
    oracle::<mencius::Mencius>();
}
