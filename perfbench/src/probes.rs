//! Layer probes of the traced run: the benchmark's own code calls each
//! layer's public functions on the workload's seeded stream and times them
//! (and, for the protocols, counts their allocations).
//!
//! * protocol — n in-memory replicas of each protocol driven through
//!   `Protocol::submit`/`Protocol::handle`, every message delivered in FIFO
//!   order; only the time and allocations inside those calls count.
//! * wire — `encode_peer_frame_into`/`decode_peer_frame` over Atlas's
//!   remote messages from the protocol probe.
//! * reactor — a one-connection TCP ping-pong on the vendored runtime.
//! * journal — `Wal::append` of the records a replica journals,
//!   `Wal::sync` and `SnapshotStore::save`, on the work directory's
//!   filesystem.
//! * graph — `DependencyGraph::commit` with the dependencies Atlas's
//!   commits carried in the protocol probe.
//! * executor — `ExecutorPool` dispatch and drain with one shard.

use crate::stats::{median, nearest_rank, sorted};
use crate::workload::{self, Workload};
use atlas_core::{Action, Command, Config, Dot, ProcessId, Protocol, Topology};
use atlas_log::{FlushPolicy, SnapshotStore, Wal};
use atlas_metrics::allocations;
use atlas_protocol::{Atlas, DependencyGraph, Message};
use atlas_runtime::journal::JournalRecord;
use atlas_runtime::wire::{decode_peer_frame, encode_peer_frame_into, PeerBodyRef};
use atlas_runtime::{ExecCtx, ExecutorPool, ReplicaMetrics};
use serde::Serialize;
use std::collections::{HashSet, VecDeque};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

/// Commands of the workload stream each probe runs over.
pub const PROBE_COMMANDS: usize = 3000;

/// Repetitions of each timed probe; the median pass is reported.
const PASSES: usize = 5;

/// Ping-pongs of the reactor probe (after as many unmeasured ones).
pub const ECHO_ROUNDS: usize = 2000;

/// Bytes of each reactor ping.
const ECHO_BYTES: usize = 64;

/// `Wal::sync` calls of the fsync probe.
pub const FSYNC_ROUNDS: usize = 50;

/// `SnapshotStore::save` calls of the snapshot probe.
const SNAPSHOT_ROUNDS: usize = 5;

/// Cost of one protocol per command.
#[derive(Debug, Clone)]
pub struct ProtocolCost {
    pub name: &'static str,
    pub us_per_cmd: f64,
    pub allocs_per_cmd: f64,
}

/// Everything the probes measured.
#[derive(Debug, Clone)]
pub struct Probes {
    /// Commands each per-command probe ran over.
    pub commands: usize,
    pub protocols: Vec<ProtocolCost>,
    pub atlas_msgs_per_cmd: f64,
    pub atlas_bytes_per_cmd: f64,
    /// Peer frames the wire probe encoded and decoded per pass.
    pub frames: usize,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub echo_rtt_us: f64,
    /// Records the append probe wrote per pass.
    pub records: usize,
    pub append_us: f64,
    pub fsync_us: f64,
    pub snapshot_bytes: usize,
    pub snapshot_ms: f64,
    /// Commits the graph probe replayed per pass.
    pub commits: usize,
    pub graph_commit_ns: f64,
    pub executor_ns: f64,
}

/// What one drive of an in-memory cluster produced besides its cost.
#[derive(Debug, Default)]
struct Transcript {
    /// Every remote delivery: `(from, to, bincode payload)`.
    remote: Vec<(ProcessId, ProcessId, Vec<u8>)>,
    /// Every message replica 1 handled (its own included), encoded, in
    /// delivery order.
    to_first: Vec<Vec<u8>>,
}

/// The commits among Atlas messages replica 1 handled: first per dot, in
/// arrival order, with sorted dependencies.
fn atlas_commits(to_first: &[Vec<u8>]) -> Vec<(Dot, Command, Vec<Dot>)> {
    let mut seen = HashSet::new();
    to_first
        .iter()
        .filter_map(|bytes| match bincode::deserialize::<Message>(bytes) {
            Ok(Message::MCommit { dot, cmd, deps }) if seen.insert(dot) => {
                let mut deps: Vec<Dot> = deps.into_iter().collect();
                deps.sort_unstable();
                Some((dot, cmd, deps))
            }
            _ => None,
        })
        .collect()
}

/// Runs every probe over `workload`'s stream for `seed`, using `dir` (which
/// is removed afterwards) for the journal probes. `snapshot_bytes` is the
/// size of the snapshot the traced run left behind.
pub fn run(
    rt: &tokio::runtime::Runtime,
    workload: &Workload,
    seed: u64,
    dir: &Path,
    snapshot_bytes: u64,
) -> io::Result<Probes> {
    let plan = workload::plan(workload, seed, Duration::from_secs(60));
    let n = PROBE_COMMANDS.min(plan.cmds.len());
    let stream: Vec<(Command, ProcessId, u64)> = (0..n)
        .map(|i| {
            (
                plan.cmds[i].clone(),
                plan.conn[i] as ProcessId + 1,
                plan.due_ns[i] / 1_000,
            )
        })
        .collect();
    let config = Config::new(workload.n, workload.f);

    let (atlas, transcript) = protocol_cost::<Atlas>(config, &stream, true);
    let protocols = vec![
        atlas,
        protocol_cost::<epaxos::EPaxos>(config, &stream, false).0,
        protocol_cost::<fpaxos::FPaxos>(config, &stream, false).0,
        protocol_cost::<mencius::Mencius>(config, &stream, false).0,
    ];
    let frames = encode_all(&transcript.remote)?;
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    let (encode_ns, decode_ns) = wire_cost(&transcript.remote)?;

    std::fs::create_dir_all(dir)?;
    let journal = journal_records(&stream, &transcript);
    let commits = atlas_commits(&transcript.to_first);
    let result = (|| {
        let append_us = append_cost(&dir.join("append"), &journal)?;
        let fsync_us = fsync_cost(&dir.join("fsync"))?;
        let size = (snapshot_bytes as usize).max(1024);
        let snapshot_ms = snapshot_cost(&dir.join("snapshot"), size)?;
        io::Result::Ok((append_us, fsync_us, size, snapshot_ms))
    })();
    let _ = std::fs::remove_dir_all(dir);
    let (append_us, fsync_us, snapshot_bytes, snapshot_ms) = result?;

    Ok(Probes {
        commands: n,
        protocols,
        atlas_msgs_per_cmd: transcript.remote.len() as f64 / n as f64,
        atlas_bytes_per_cmd: frame_bytes as f64 / n as f64,
        frames: frames.len(),
        encode_ns,
        decode_ns,
        echo_rtt_us: rt.block_on(echo_rtt_us())?,
        records: journal.len(),
        append_us,
        fsync_us,
        snapshot_bytes,
        snapshot_ms,
        commits: commits.len(),
        graph_commit_ns: graph_cost(&commits),
        executor_ns: executor_cost(&stream),
    })
}

/// Median over [`PASSES`] drives of `P`: CPU time and allocations inside
/// `submit`/`handle`, summed over replicas, per command. With `record`, the
/// first pass also keeps the transcript (Atlas only).
fn protocol_cost<P>(
    config: Config,
    stream: &[(Command, ProcessId, u64)],
    record: bool,
) -> (ProtocolCost, Transcript)
where
    P: Protocol,
    P::Message: Serialize,
{
    let mut times = Vec::new();
    let mut allocs = 0;
    let mut transcript = Transcript::default();
    for pass in 0..PASSES {
        let keep = record && pass == 0;
        let (busy, counted) = drive::<P>(config, stream, keep.then_some(&mut transcript));
        times.push(busy.as_secs_f64());
        allocs = counted;
    }
    let cmds = stream.len() as f64;
    let cost = ProtocolCost {
        name: P::name(),
        us_per_cmd: median(&times) * 1e6 / cmds,
        allocs_per_cmd: allocs as f64 / cmds,
    };
    (cost, transcript)
}

/// One drive of an in-memory cluster over `stream`: returns the time spent
/// inside protocol calls and the allocations they made.
fn drive<P>(
    config: Config,
    stream: &[(Command, ProcessId, u64)],
    mut transcript: Option<&mut Transcript>,
) -> (Duration, u64)
where
    P: Protocol,
    P::Message: Serialize,
{
    let n = config.n;
    let mut replicas: Vec<P> = (1..=n as ProcessId)
        .map(|id| P::new(id, config, Topology::identity(id, n)))
        .collect();
    let mut busy = Duration::ZERO;
    let mut allocs = 0u64;
    let mut queue: VecDeque<(ProcessId, ProcessId, P::Message)> = VecDeque::new();
    for (cmd, at, now) in stream {
        let cmd = cmd.clone();
        let (a0, t0) = (allocations(), Instant::now());
        let actions = replicas[*at as usize - 1].submit(cmd, *now);
        busy += t0.elapsed();
        allocs += allocations() - a0;
        enqueue(*at, actions, &mut queue);
        while let Some((from, to, msg)) = queue.pop_front() {
            if let Some(t) = transcript.as_deref_mut() {
                let payload = bincode::serialize(&msg).expect("protocol messages encode");
                if to == 1 {
                    t.to_first.push(payload.clone());
                }
                if from != to {
                    t.remote.push((from, to, payload));
                }
            }
            let (a0, t0) = (allocations(), Instant::now());
            let actions = replicas[to as usize - 1].handle(from, msg, *now);
            busy += t0.elapsed();
            allocs += allocations() - a0;
            enqueue(to, actions, &mut queue);
        }
    }
    (busy, allocs)
}

fn enqueue<M: Clone>(
    from: ProcessId,
    actions: Vec<Action<M>>,
    queue: &mut VecDeque<(ProcessId, ProcessId, M)>,
) {
    for action in actions {
        if let Action::Send { targets, msg } = action {
            for to in targets {
                queue.push_back((from, to, msg.clone()));
            }
        }
    }
}

/// Every remote message as a length-prefixed peer frame.
fn encode_all(remote: &[(ProcessId, ProcessId, Vec<u8>)]) -> io::Result<Vec<Vec<u8>>> {
    remote
        .iter()
        .enumerate()
        .map(|(seq, (from, _, payload))| {
            let mut buf = Vec::new();
            encode_peer_frame_into(
                &mut buf,
                *from,
                seq as u64 + 1,
                0,
                PeerBodyRef::Msg(payload),
            )?;
            Ok(buf)
        })
        .collect()
}

/// Median ns per frame of encoding into one reused buffer, and of decoding.
fn wire_cost(remote: &[(ProcessId, ProcessId, Vec<u8>)]) -> io::Result<(f64, f64)> {
    if remote.is_empty() {
        return Ok((0.0, 0.0));
    }
    let frames = encode_all(remote)?;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for (seq, (from, _, payload)) in remote.iter().enumerate() {
            encode_peer_frame_into(
                &mut buf,
                *from,
                seq as u64 + 1,
                0,
                PeerBodyRef::Msg(payload),
            )?;
            black_box(&buf);
        }
        enc.push(t0.elapsed().as_nanos() as f64 / remote.len() as f64);
        let t0 = Instant::now();
        for frame in &frames {
            black_box(decode_peer_frame(&frame[4..])?);
        }
        dec.push(t0.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    Ok((median(&enc), median(&dec)))
}

/// p50 round trip of a one-connection TCP ping-pong on the runtime.
async fn echo_rtt_us() -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0").await?;
    let addr = listener.local_addr()?;
    let server = tokio::spawn(async move {
        let (stream, _) = listener.accept().await?;
        stream.set_nodelay(true)?;
        let (mut r, mut w) = stream.into_split();
        let mut buf = [0u8; ECHO_BYTES];
        loop {
            if r.read_exact(&mut buf).await.is_err() {
                return io::Result::Ok(());
            }
            w.write_all(&buf).await?;
        }
    });
    let stream = TcpStream::connect(addr).await?;
    stream.set_nodelay(true)?;
    let (mut r, mut w) = stream.into_split();
    let mut buf = [7u8; ECHO_BYTES];
    let mut rtts = Vec::with_capacity(ECHO_ROUNDS);
    for round in 0..2 * ECHO_ROUNDS {
        let t0 = Instant::now();
        w.write_all(&buf).await?;
        r.read_exact(&mut buf).await?;
        if round >= ECHO_ROUNDS {
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop((r, w));
    let _ = tokio::time::timeout(Duration::from_secs(5), server).await;
    Ok(nearest_rank(&sorted(rtts), 0.5))
}

/// The journal records a coordinator of the stream writes: its client
/// submissions and the peer messages it receives.
fn journal_records(stream: &[(Command, ProcessId, u64)], transcript: &Transcript) -> Vec<Vec<u8>> {
    let submits = stream
        .iter()
        .filter(|(_, at, _)| *at == 1)
        .map(|(cmd, _, _)| JournalRecord::Submit { cmd: cmd.clone() });
    let peers = transcript
        .remote
        .iter()
        .filter(|(_, to, _)| *to == 1)
        .map(|(from, _, payload)| JournalRecord::Peer {
            from: *from,
            payload: payload.clone(),
        });
    submits
        .chain(peers)
        .map(|r| bincode::serialize(&r).expect("journal records encode"))
        .collect()
}

/// Median µs per `Wal::append` (no fsync) over the journal records.
fn append_cost(dir: &Path, records: &[Vec<u8>]) -> io::Result<f64> {
    let mut passes = Vec::new();
    for pass in 0..PASSES {
        let (mut wal, _) = Wal::open(&dir.join(pass.to_string()), FlushPolicy::OsBuffered)?;
        let t0 = Instant::now();
        for record in records {
            wal.append(record)?;
        }
        passes.push(t0.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64);
    }
    Ok(median(&passes))
}

/// p50 µs of `Wal::sync` after one small append each.
fn fsync_cost(dir: &Path) -> io::Result<f64> {
    let (mut wal, _) = Wal::open(dir, FlushPolicy::OsBuffered)?;
    let mut syncs = Vec::new();
    for _ in 0..FSYNC_ROUNDS {
        wal.append(&[0u8; 128])?;
        let t0 = Instant::now();
        wal.sync()?;
        syncs.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(nearest_rank(&sorted(syncs), 0.5))
}

/// Median ms of `SnapshotStore::save` of `size` bytes.
fn snapshot_cost(dir: &Path, size: usize) -> io::Result<f64> {
    let store = SnapshotStore::open(dir)?;
    let payload: Vec<u8> = (0..size).map(|i| i as u8).collect();
    let mut saves = Vec::new();
    for index in 1..=SNAPSHOT_ROUNDS as u64 {
        let t0 = Instant::now();
        store.save(index, &payload)?;
        saves.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&saves))
}

/// Median ns per `DependencyGraph::commit` replaying Atlas's commits.
fn graph_cost(commits: &[(Dot, Command, Vec<Dot>)]) -> f64 {
    if commits.is_empty() {
        return 0.0;
    }
    let mut passes = Vec::new();
    for _ in 0..PASSES {
        let inputs = commits.to_vec();
        let mut graph = DependencyGraph::new();
        let t0 = Instant::now();
        for (dot, cmd, deps) in inputs {
            black_box(graph.commit(dot, cmd, deps));
        }
        passes.push(t0.elapsed().as_nanos() as f64 / commits.len() as f64);
    }
    median(&passes)
}

/// Median ns per command of dispatching the stream to a one-shard
/// executor pool and draining it.
fn executor_cost(stream: &[(Command, ProcessId, u64)]) -> f64 {
    let mut passes = Vec::new();
    for _ in 0..PASSES {
        let cmds: Vec<Command> = stream.iter().map(|(c, _, _)| c.clone()).collect();
        let mut pool = ExecutorPool::new(1, Arc::new(ReplicaMetrics::new()), Instant::now());
        let t0 = Instant::now();
        for cmd in cmds {
            let ctx = ExecCtx::detached(cmd.rifl);
            pool.dispatch(cmd, ctx);
        }
        pool.drain();
        passes.push(t0.elapsed().as_nanos() as f64 / stream.len() as f64);
        black_box(pool.digest());
    }
    median(&passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str) -> (Config, Vec<(Command, ProcessId, u64)>) {
        let w = workload::by_name(name).unwrap();
        let plan = workload::plan(&w, 3, Duration::from_millis(200));
        let stream = (0..plan.cmds.len())
            .map(|i| (plan.cmds[i].clone(), plan.conn[i] as ProcessId + 1, 0))
            .collect();
        (Config::new(w.n, w.f), stream)
    }

    #[test]
    fn atlas_drive_commits_every_command_and_records_a_transcript() {
        let (config, stream) = stream("wan5-conflict");
        let mut t = Transcript::default();
        let (busy, allocs) = drive::<Atlas>(config, &stream, Some(&mut t));
        assert!(busy > Duration::ZERO);
        // Allocations are only counted under the binary's global allocator.
        let _ = allocs;
        let commits = atlas_commits(&t.to_first);
        assert_eq!(commits.len(), stream.len());
        assert!(t.remote.iter().all(|(from, to, _)| from != to));
        let (enc, dec) = wire_cost(&t.remote).unwrap();
        assert!(enc > 0.0 && dec > 0.0);
        assert!(graph_cost(&commits) > 0.0);
    }

    #[test]
    fn every_protocol_drives_the_stream() {
        let (config, stream) = stream("lan-ycsb");
        for cost in [
            protocol_cost::<Atlas>(config, &stream, false).0,
            protocol_cost::<epaxos::EPaxos>(config, &stream, false).0,
            protocol_cost::<fpaxos::FPaxos>(config, &stream, false).0,
            protocol_cost::<mencius::Mencius>(config, &stream, false).0,
        ] {
            assert!(cost.us_per_cmd > 0.0, "{cost:?}");
        }
        assert!(executor_cost(&stream) > 0.0);
    }
}
