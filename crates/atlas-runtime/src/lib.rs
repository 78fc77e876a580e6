//! # atlas-runtime
//!
//! A tokio-based **networked runtime** that hosts any
//! [`Protocol`](atlas_core::Protocol) implementation — Atlas, EPaxos,
//! Flexible Paxos, Mencius — as a replica speaking real TCP, so the very same
//! pure state machines the discrete-event simulator drives also serve
//! traffic over sockets. This mirrors the separation the paper's artifact
//! (and the Compartmentalization line of work) draws between *protocol
//! logic* and the *deployment substrate*: protocols never see sockets, and
//! the runtime never sees quorums.
//!
//! ## The `Action` → network mapping
//!
//! A protocol consumes inputs (`submit`, `handle`, `tick`) and returns
//! [`Action`](atlas_core::Action)s. The replica event loop
//! ([`replica`]) owns the protocol plus the local
//! [`KVStore`](kvstore::KVStore) and maps each action onto the runtime:
//!
//! | `Action` | runtime effect |
//! |---|---|
//! | `Send { targets, msg }`, remote target | `msg` is bincode-encoded once, wrapped in a length-prefixed [`wire::PeerFrame`], and queued on the reconnecting [`transport::PeerLink`] to each target |
//! | `Send { .. }`, own id among targets | delivered back into `Protocol::handle` with zero delay, before the next event is taken (the paper's "self-addressed messages are delivered immediately") |
//! | `Execute { dot, cmd }` | `cmd` is applied to the local KVS, `dot` is appended to the replica's execution record, and — if the submitting client's session lives on this replica — a [`wire::ClientReply::Executed`] is pushed to it |
//! | `Commit { dot }` | bookkeeping only; clients are answered at execution time |
//!
//! Inbound, the runtime turns every network event back into protocol inputs:
//! peer frames become `handle` calls, client `Submit` frames become `submit`
//! calls, and a timer drives the runtime's own periodic work (acks,
//! heartbeats, failure detection, GC). Time is passed to the protocol as microseconds since replica start, so
//! protocol-side latency metrics keep working unchanged.
//!
//! ## Durability and crash recovery
//!
//! With [`ReplicaConfig::data_dir`](replica::ReplicaConfig) set, a replica
//! journals every protocol input (client submissions, peer messages) to a
//! write-ahead log **before** processing it, and periodically checkpoints
//! its full state — the serialized protocol
//! ([`journal::save_protocol`]), the KVS, the execution record — truncating the journal prefix the snapshot
//! covers. A crashed replica restarted **under the same identifier** first
//! restores the snapshot, then replays the journal suffix (protocols are
//! deterministic state machines, so replay reconstructs exactly the state
//! its peers observed), and only then serves traffic. A replica that lost
//! its data directory rejoins with
//! [`catch_up`](replica::ReplicaConfig::catch_up): it **streams** committed
//! state from every reachable peer as a sequence of bounded-size
//! [`wire::CatchUpChunk`]s carrying each peer's protocol
//! [`transfer`](atlas_core::Protocol::transfer) — an executed-state base
//! (store records, the execution record, the protocol's opaque base)
//! applied atomically, then each peer's retained committed log replayed
//! through the normal message path (base-covered entries are idempotent
//! no-ops) — and advances its identifier generator past the peers'
//! observed horizon so identifiers of the lost incarnation are never
//! reissued. No frame ever carries the whole history, so catch-up keeps
//! working after the committed log has outgrown
//! [`wire::MAX_FRAME_BYTES`]. Peer links carry sequence numbers and
//! cumulative acks with sender-side resend buffers ([`transport`]), so
//! messages sent while a replica was down are redelivered once it returns.
//! See `ARCHITECTURE.md` at the repository root for the full design,
//! including what is deliberately *not* recovered (commands that were in
//! flight, uncommitted anywhere, when a disk was lost).
//!
//! ## Log compaction
//!
//! With [`gc_every`](replica::ReplicaConfig::gc_every) set, replicas
//! exchange their [`executed
//! watermarks`](atlas_core::Protocol::executed_watermarks) on the tick
//! cadence (piggybacked on the peer links) and hand the pointwise minimum
//! — entries executed at **every** replica — to
//! [`Protocol::gc_executed`](atlas_core::Protocol::gc_executed), dropping
//! per-command bookkeeping that can never be needed again. Each advancing
//! round is journaled and followed by a snapshot, which truncates the WAL
//! and prunes older snapshots — protocol maps, journal and on-disk state
//! all stay bounded on a long-lived cluster.
//!
//! ## Failure detection
//!
//! The event loop runs a timeout-based [`FailureDetector`]
//! ([`ReplicaConfig::suspect_after`](replica::ReplicaConfig) /
//! [`trust_after`](replica::ReplicaConfig)): outbound links heartbeat every
//! tick, any inbound frame counts as evidence its sender is alive, and a
//! peer silent past the threshold is handed to
//! [`Protocol::suspect`](atlas_core::Protocol::suspect) through the
//! journaled input pipeline — every hosted protocol turns this into real
//! recovery (Atlas Algorithm-2 takeover, EPaxos explicit prepare, Mencius
//! slot revocation, FPaxos leader election), so a dead coordinator's
//! in-flight commands are resolved and the commands that conflict with
//! them stop stalling. See [`detector`] for the hysteresis state machine.
//!
//! ## Pieces
//!
//! * [`wire`] — length-prefixed bincode framing and the
//!   hello/request/reply/catch-up envelope types;
//! * [`transport`] — reconnecting outbound peer links with at-least-once
//!   delivery (resend buffers trimmed by cumulative acks, capped against
//!   long-dead peers) and tick-driven heartbeat probes;
//! * [`detector`] — the per-peer suspicion state machine with hysteresis
//!   that turns link silence into [`Protocol::suspect`
//!   calls](atlas_core::Protocol::suspect);
//! * [`netem`] — transport-level network-condition injection
//!   ([`NetProfile`]): per-directed-link delay/jitter/bandwidth schedules,
//!   scheduled symmetric and asymmetric cuts, and injected connection
//!   resets, enforced by the link writer below the resend buffer so every
//!   frame kind (heartbeats included) feels the imposed WAN;
//! * [`journal`] — what goes into the write-ahead log and snapshots, and
//!   how recovery replays them;
//! * [`metrics`] — the replica's runtime metric registry
//!   ([`ReplicaMetrics`]): command-lifecycle stage latencies, durability,
//!   detector and GC counters, exported as a
//!   [`MetricsSnapshot`] over the stats plane;
//! * [`replica`] — the event loop, acceptor, peer readers, client sessions
//!   and ticker;
//! * [`client`] — closed-loop ([`Client`]) and open-loop
//!   ([`OpenLoopClient`]) drivers with per-command latency capture;
//! * [`cluster`] — [`Cluster`], a harness booting an n-replica localhost
//!   cluster (each replica journaling to an ephemeral data dir) with
//!   kill/restart fault injection for tests/examples/benches.
//!
//! ## Example
//!
//! ```no_run
//! use atlas_core::Config;
//! use atlas_protocol::Atlas;
//! use atlas_runtime::{Client, Cluster};
//!
//! let rt = tokio::runtime::Runtime::new().unwrap();
//! rt.block_on(async {
//!     // A real 3-replica Atlas cluster over 127.0.0.1 TCP.
//!     let cluster = Cluster::spawn::<Atlas>(Config::new(3, 1)).await.unwrap();
//!     let mut client = Client::connect(cluster.addr(1), 1).await.unwrap();
//!     client.put(42, 7).await.unwrap();
//!     assert_eq!(client.get(42).await.unwrap(), Some(7));
//!     cluster.shutdown();
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod detector;
pub mod executor;
pub mod journal;
pub mod metrics;
pub mod netem;
pub mod replica;
pub mod transport;
pub mod wire;

pub use client::{Client, OpenLoopClient};
pub use cluster::{Cluster, ClusterOptions};
pub use detector::{DetectorEvent, FailureDetector};
pub use executor::{ExecCtx, ExecutorPool};
pub use metrics::{ReplicaMetrics, ShardExecutorMetrics};
pub use netem::{Cut, LinkRule, LinkShaper, NetProfile};
pub use replica::{ReplicaConfig, ReplicaHandle};

// Re-exported so downstream code can consume `Client::stats()` / the
// `--metrics-every` JSONL without naming the metrics crate directly.
pub use atlas_metrics::{HistogramSummary, MetricsSnapshot};
