//! The open-loop generator: two client connections speaking the public
//! `wire` protocol, a pacing thread that sends each pre-encoded `Submit`
//! frame at its due time, and one reader task per connection that checks
//! every reply and stamps its arrival.
//!
//! Pacing runs on a plain thread with `std::thread::sleep` (tens of
//! microseconds of slack) rather than on the runtime's millisecond timer
//! wheel, and its lateness is recorded per command; the sockets and reader
//! tasks run on the vendored tokio runtime.

use crate::workload::{Plan, CLIENTS};
use atlas_core::{Command, KvOp};
use atlas_runtime::wire::{
    decode_payload, encode_frame_into, read_frame_into, write_frame, ClientReply, ClientRequest,
    Hello,
};
use kvstore::Output;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::io::AsyncWriteExt;
use tokio::net::tcp::OwnedWriteHalf;
use tokio::net::TcpStream;
use tokio::task::JoinHandle;

/// Reply slot of a command that was never answered.
pub const UNANSWERED: u64 = u64::MAX;

/// Delay before the first due time, so connection set-up never makes the
/// first commands late.
const LEAD: Duration = Duration::from_millis(50);

/// What one run observed, per command of the [`Plan`].
#[derive(Debug)]
pub struct Outcome {
    /// The instant due times count from.
    pub start: Instant,
    /// When each command was actually written, ns after the run's start.
    pub sent_ns: Vec<u64>,
    /// When each command's `Executed` reply arrived, ns after the run's
    /// start, or [`UNANSWERED`].
    pub reply_ns: Vec<u64>,
    /// Replies for a command that had already been answered.
    pub duplicates: u64,
    /// Replies whose request id is not one this connection sent.
    pub foreign: u64,
    /// Replies whose outputs do not fit their command.
    pub wrong_outputs: u64,
}

impl Outcome {
    /// Commands answered exactly once.
    pub fn answered(&self) -> usize {
        self.reply_ns.iter().filter(|&&r| r != UNANSWERED).count()
    }
}

struct Shared {
    reply_ns: Vec<AtomicU64>,
    answered: AtomicU64,
    duplicates: AtomicU64,
    foreign: AtomicU64,
    wrong_outputs: AtomicU64,
}

/// The reader tasks of a drained run, still attached to their sockets.
pub struct Readers(Vec<JoinHandle<()>>);

impl Readers {
    /// Waits for the reader tasks, which end once the replicas' sockets
    /// close (call after the cluster is torn down).
    pub async fn join(self) {
        for reader in self.0 {
            let _ = tokio::time::timeout(Duration::from_secs(5), reader).await;
        }
    }
}

/// Sends `plan` to the replicas at `addrs` (one connection each) on
/// schedule, then waits up to `drain` after the last due time for the
/// replies.
pub fn drive(
    rt: &tokio::runtime::Runtime,
    plan: &Plan,
    addrs: [SocketAddr; 2],
    drain: Duration,
) -> io::Result<(Outcome, Readers)> {
    let frames = encode_frames(&plan.cmds)?;
    let shared = Arc::new(Shared {
        reply_ns: (0..plan.cmds.len())
            .map(|_| AtomicU64::new(UNANSWERED))
            .collect(),
        answered: AtomicU64::new(0),
        duplicates: AtomicU64::new(0),
        foreign: AtomicU64::new(0),
        wrong_outputs: AtomicU64::new(0),
    });
    let plan = Arc::new(plan.clone());
    let (mut writers, readers, start) = rt.block_on(async {
        let mut writers = Vec::new();
        let mut halves = Vec::new();
        for (conn, addr) in addrs.into_iter().enumerate() {
            let stream = TcpStream::connect(addr).await?;
            stream.set_nodelay(true)?;
            let (reader, mut writer) = stream.into_split();
            write_frame(
                &mut writer,
                &Hello::Client {
                    client: CLIENTS[conn],
                },
            )
            .await?;
            writers.push(writer);
            halves.push(reader);
        }
        let start = Instant::now() + LEAD;
        let readers: Vec<_> = halves
            .into_iter()
            .enumerate()
            .map(|(conn, reader)| {
                tokio::spawn(read_replies(
                    reader,
                    conn,
                    start,
                    Arc::clone(&plan),
                    Arc::clone(&shared),
                ))
            })
            .collect();
        io::Result::Ok((writers, readers, start))
    })?;

    let mut sent_ns = vec![0u64; plan.cmds.len()];
    for (i, frame) in frames.iter().enumerate() {
        let due = start + Duration::from_nanos(plan.due_ns[i]);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        rt.block_on(writers[plan.conn[i]].write_all(frame))?;
        sent_ns[i] = start.elapsed().as_nanos() as u64;
    }

    let deadline = start + Duration::from_nanos(plan.total_ns) + drain;
    let total = plan.cmds.len() as u64;
    while shared.answered.load(Ordering::Relaxed) < total && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    shutdown(&mut writers);
    let outcome = Outcome {
        start,
        sent_ns,
        reply_ns: shared
            .reply_ns
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect(),
        duplicates: shared.duplicates.load(Ordering::Relaxed),
        foreign: shared.foreign.load(Ordering::Relaxed),
        wrong_outputs: shared.wrong_outputs.load(Ordering::Relaxed),
    };
    Ok((outcome, Readers(readers)))
}

fn shutdown(writers: &mut [OwnedWriteHalf]) {
    for writer in writers {
        let _ = writer.shutdown_now();
    }
}

/// One length-prefixed single-command `Submit` frame per command.
fn encode_frames(cmds: &[Command]) -> io::Result<Vec<Vec<u8>>> {
    cmds.iter()
        .map(|cmd| {
            let mut frame = Vec::new();
            encode_frame_into(
                &mut frame,
                &ClientRequest::Submit {
                    cmds: vec![cmd.clone()],
                },
            )?;
            Ok(frame)
        })
        .collect()
}

async fn read_replies(
    mut reader: tokio::net::tcp::OwnedReadHalf,
    conn: usize,
    start: Instant,
    plan: Arc<Plan>,
    shared: Arc<Shared>,
) {
    let mut buf = Vec::new();
    while read_frame_into(&mut reader, &mut buf).await.is_ok() {
        let now = start.elapsed().as_nanos() as u64;
        let Ok(ClientReply::Executed { rifl, outputs }) = decode_payload::<ClientReply>(&buf)
        else {
            shared.foreign.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let index = rifl.seq.wrapping_sub(1) as usize;
        if rifl.client != CLIENTS[conn] || index >= plan.cmds.len() || plan.conn[index] != conn {
            shared.foreign.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if !outputs_fit(&plan, index, &outputs) {
            shared.wrong_outputs.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &shared.reply_ns[index];
        if slot
            .compare_exchange(UNANSWERED, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            shared.answered.fetch_add(1, Ordering::Relaxed);
        } else {
            shared.duplicates.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Whether `outputs` answer command `index` of `plan`: one output per key
/// of the command, `Done` for each write, and for each read either no value
/// or a value some write of the plan put under that key (PUT values are
/// their command's sequence number, so the writer is found by index).
pub fn outputs_fit(plan: &Plan, index: usize, outputs: &[(u64, Output)]) -> bool {
    let cmd = &plan.cmds[index];
    if outputs.len() != cmd.key_count() {
        return false;
    }
    outputs.iter().all(|(key, output)| {
        let Some(op) = cmd.ops().find(|(k, _)| *k == key).map(|(_, op)| op) else {
            return false;
        };
        match (op, output) {
            (KvOp::Put(_), Output::Done) => true,
            (KvOp::Get, Output::Value(None)) => true,
            (KvOp::Get, Output::Value(Some(v))) => {
                let writer = v.wrapping_sub(1) as usize;
                plan.cmds.get(writer).is_some_and(|w| {
                    w.ops()
                        .any(|(k, op)| k == key && matches!(op, KvOp::Put(x) if x == v))
                })
            }
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn outputs_must_match_their_command() {
        let w = workload::by_name("lan-ycsb").unwrap();
        let plan = workload::plan(&w, 1, Duration::from_millis(500));
        let write = plan.cmds.iter().position(|c| c.is_write()).unwrap();
        let read = plan.cmds.iter().position(|c| c.is_read_only()).unwrap();
        let wkey = *plan.cmds[write].keys().next().unwrap();
        let rkey = *plan.cmds[read].keys().next().unwrap();
        assert!(outputs_fit(&plan, write, &[(wkey, Output::Done)]));
        assert!(!outputs_fit(&plan, write, &[(wkey + 1, Output::Done)]));
        assert!(!outputs_fit(&plan, write, &[]));
        assert!(outputs_fit(&plan, read, &[(rkey, Output::Value(None))]));
        assert!(!outputs_fit(&plan, read, &[(rkey, Output::Done)]));
        // A read may return a value only some write to *that* key stored.
        let v = plan.cmds[write].rifl.seq;
        assert_eq!(
            outputs_fit(&plan, read, &[(rkey, Output::Value(Some(v)))]),
            rkey == wkey
        );
        assert!(!outputs_fit(
            &plan,
            read,
            &[(rkey, Output::Value(Some(u64::MAX)))]
        ));
    }
}
