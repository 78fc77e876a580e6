//! What the replica persists and how it recovers.
//!
//! The durable state of a replica is an **input journal** plus periodic
//! **snapshots**, both kept under one data directory by `atlas-log`:
//!
//! * every protocol-relevant input — a client [`JournalRecord::Submit`] or a
//!   peer [`JournalRecord::Peer`] message — is appended to the write-ahead
//!   log *before* the protocol processes it. Protocols are deterministic
//!   state machines (wall-clock time only feeds metrics), so replaying the
//!   journaled inputs in order reconstructs exactly the state the previous
//!   incarnation reached — including the dots it assigned, the dependencies
//!   it reported and the promises it made to peers;
//! * every `snapshot_every` records the replica serializes a
//!   [`ReplicaSnapshot`] — the whole protocol state ([`save_protocol`]),
//!   the key–value store and the execution record — and truncates the
//!   journal prefix the snapshot covers, so replay work and disk usage stay
//!   bounded.
//!
//! Recovery is then: load the latest snapshot (if any), rebuild the
//! protocol with [`restore_protocol`], and replay the journal suffix. A
//! replica whose data directory was wiped additionally performs
//! peer-assisted catch-up (see [`crate::replica`]).

use atlas_core::{ClusterView, Command, Config, Dot, ProcessId, Protocol, Rifl};
use atlas_log::{FlushPolicy, SnapshotStore, Wal};
use kvstore::KVStore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One journaled protocol input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A local client submitted `cmd`.
    Submit {
        /// The submitted command.
        cmd: Command,
    },
    /// Peer `from` sent a protocol message (bincode encoding of the hosted
    /// protocol's `Message`; kept opaque so the record type is not generic).
    Peer {
        /// The sending replica.
        from: ProcessId,
        /// Encoded protocol message, exactly as received.
        payload: Vec<u8>,
    },
    /// During catch-up, peers reported having seen this replica's
    /// identifiers up to `past`, and the replica moved its identifier
    /// generator past it ([`Protocol::install`] without a base). Journaled so
    /// the advance survives a second crash.
    Advance {
        /// Horizon below which identifiers must never be reissued.
        past: u64,
    },
    /// The failure detector suspected `peer` and the replica dispatched
    /// [`Protocol::suspect`]. Journaled
    /// because suspicion is a protocol *input* like any other: it can mint
    /// recovery ballots (promises this replica makes as a recovery
    /// coordinator), and replaying the subsequent peer messages without it
    /// would reconstruct a different — unsound — replica.
    Suspect {
        /// The suspected replica.
        peer: ProcessId,
    },
    /// A garbage-collection round ran:
    /// [`Protocol::gc_executed`] was
    /// called with this all-executed horizon. Journaled so replay
    /// reconstructs the exact post-GC state — the compaction floor changes
    /// which straggler messages the protocol ignores, and replaying the
    /// suffix against an uncompacted replica would diverge.
    Gc {
        /// Per identifier space, the horizon below which every replica had
        /// executed (sorted by space).
        horizon: Vec<(ProcessId, u64)>,
    },
    /// The runtime adopted a configuration view it learned *off the log* —
    /// from a peer's epoch announcement frame — rather than by executing a
    /// `Reconfigure` barrier itself (barrier-driven switches are **not**
    /// journaled: replaying the journaled `Submit`/`Peer` inputs re-executes
    /// the barrier and re-derives the same view deterministically).
    /// Journaled so a restarting replica rebuilds the same peer set, failure
    /// detector membership and GC watermark keying it had before crashing.
    /// Appended last so journals written before reconfiguration existed
    /// still decode (records encode positionally).
    Epoch {
        /// The adopted view.
        view: ClusterView,
        /// Address of every process in the view (current and outgoing).
        addrs: Vec<(ProcessId, String)>,
    },
}

/// Everything a snapshot captures. Restoring this plus replaying the
/// journal suffix is equivalent to replaying the full journal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaSnapshot {
    /// The protocol state, as encoded by [`save_protocol`].
    pub protocol: Vec<u8>,
    /// The replicated key–value store, always in **flat** (merged) form —
    /// never per-shard parts. A replica running the sharded executor pool
    /// merges its shard stores before snapshotting, so on-disk state is
    /// independent of `--shards` and a restart may use a different count.
    pub store: KVStore,
    /// The execution record: `(dot, rifl)` in local execution order.
    pub log: Vec<(Dot, Rifl)>,
    /// The runtime's configuration view when the snapshot was taken, so a
    /// restart resumes with the post-reconfiguration peer set instead of
    /// the boot-time one.
    pub view: ClusterView,
    /// Address of every process in `view` (current and outgoing members).
    pub addrs: Vec<(ProcessId, String)>,
}

/// Serializes a protocol replica's complete state for a snapshot. Every
/// protocol is a deterministic state machine whose fields all round-trip
/// through serde, so the state *is* the snapshot: [`restore_protocol`]
/// rebuilds an equivalent replica from these bytes.
pub fn save_protocol<P: Protocol>(protocol: &P) -> Vec<u8> {
    bincode::serialize(protocol).expect("protocol state always encodes")
}

/// Rebuilds a replica from [`save_protocol`] bytes. Returns `None` if the
/// bytes do not decode or belong to another replica — the caller must treat
/// that as corruption, not as an empty state. The state must carry identifier
/// `id`, and at epoch 0 it must also carry the boot configuration `config`.
/// Past epoch 0 the snapshot's own view is authoritative: a reconfiguration
/// replaced the boot configuration, which is all the caller can know.
pub fn restore_protocol<P: Protocol>(id: ProcessId, config: Config, bytes: &[u8]) -> Option<P> {
    let protocol: P = bincode::deserialize(bytes).ok()?;
    (protocol.id() == id && (protocol.view().epoch > 0 || protocol.config() == config))
        .then_some(protocol)
}

/// The open durable state of a running replica.
#[derive(Debug)]
pub(crate) struct Journal {
    wal: Wal,
    snapshots: SnapshotStore,
    /// Take a snapshot after this many journaled records (0 = never).
    snapshot_every: u64,
    /// Records appended since the last snapshot.
    since_snapshot: u64,
}

/// An `InvalidData` error for journal/snapshot corruption — the class of
/// failure recovery must surface loudly instead of booting amnesiac.
pub(crate) fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Journal {
    /// Opens the data directory, returning the journal positioned for
    /// appending, the latest snapshot (if any) and the journal records the
    /// snapshot does not cover, in order.
    pub fn open(
        dir: &Path,
        policy: FlushPolicy,
        snapshot_every: u64,
    ) -> io::Result<(Self, Option<ReplicaSnapshot>, Vec<JournalRecord>)> {
        let snapshots = SnapshotStore::open(dir)?;
        let (wal, raw_records) = Wal::open(&dir.join("wal"), policy)?;
        let (snapshot, covered) = match snapshots.load_latest()? {
            Some((index, bytes)) => {
                let snapshot: ReplicaSnapshot = bincode::deserialize(&bytes)
                    .map_err(|e| corrupt(format!("undecodable snapshot {index}: {e}")))?;
                (Some(snapshot), index)
            }
            None => (None, 0),
        };
        let mut records = Vec::new();
        for raw in raw_records {
            if raw.index < covered {
                continue; // segment straddling the snapshot index
            }
            let record = bincode::deserialize(&raw.payload)
                .map_err(|e| corrupt(format!("undecodable journal record {}: {e}", raw.index)))?;
            records.push(record);
        }
        // The replayed suffix counts toward the snapshot cadence: a replica
        // that keeps crashing just short of `snapshot_every` *new* records
        // would otherwise never snapshot, and its journal (and recovery
        // time) would grow without bound across restarts.
        let since_snapshot = records.len() as u64;
        Ok((
            Self {
                wal,
                snapshots,
                snapshot_every,
                since_snapshot,
            },
            snapshot,
            records,
        ))
    }

    /// Appends one input record (write-ahead: call this *before* handing the
    /// input to the protocol). Returns whether the append itself issued an
    /// fsync — every append under [`FlushPolicy::Always`], every `n`-th
    /// under [`FlushPolicy::EveryN`] — so the caller can meter real disk
    /// syncs that [`Journal::make_durable`] will never see as pending.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<bool> {
        let bytes = bincode::serialize(record).expect("journal records always encode");
        self.wal.append(&bytes)?;
        self.since_snapshot += 1;
        let synced = match self.wal.policy() {
            FlushPolicy::OsBuffered => false,
            _ => self.wal.pending() == 0,
        };
        Ok(synced)
    }

    /// Whether enough records accumulated since the last snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every
    }

    /// Makes every appended record durable before an effect derived from it
    /// is externalized — a delivery ack (the peer then drops the record
    /// from its resend buffer forever) or a freshly minted command
    /// identifier (reissuing it after losing the record would be unsound).
    /// Under [`FlushPolicy::OsBuffered`] this is a no-op — that policy
    /// explicitly trades host-power-loss durability away (process crashes
    /// are still covered by the page cache).
    ///
    /// Returns whether an fsync was actually issued, so the caller can meter
    /// real disk syncs without timing no-ops.
    pub fn make_durable(&mut self) -> io::Result<bool> {
        self.wal.sync_pending()
    }

    /// Number of live WAL segment files (compaction health metric).
    pub fn wal_segments(&self) -> usize {
        self.wal.segment_count()
    }

    /// Persists `snapshot` as covering every record journaled so far and
    /// truncates the log prefix it covers.
    pub fn save_snapshot(&mut self, snapshot: &ReplicaSnapshot) -> io::Result<()> {
        let index = self.wal.next_index();
        let bytes = bincode::serialize(snapshot).expect("snapshots always encode");
        // Snapshot must be durable before the log it replaces goes away.
        self.wal.sync()?;
        self.snapshots.save(index, &bytes)?;
        self.wal.truncate_below(index)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_log::TempDir;

    fn submit(n: u64) -> JournalRecord {
        JournalRecord::Submit {
            cmd: Command::put(Rifl::new(n, 1), n, n, 8),
        }
    }

    #[test]
    fn journal_records_round_trip_across_reopen() {
        let dir = TempDir::new("journal-roundtrip").unwrap();
        let (mut journal, snap, records) =
            Journal::open(dir.path(), FlushPolicy::OsBuffered, 0).unwrap();
        assert!(snap.is_none());
        assert!(records.is_empty());
        journal.append(&submit(1)).unwrap();
        journal
            .append(&JournalRecord::Peer {
                from: 2,
                payload: vec![1, 2, 3],
            })
            .unwrap();
        journal.append(&JournalRecord::Suspect { peer: 3 }).unwrap();
        journal
            .append(&JournalRecord::Gc {
                horizon: vec![(1, 9), (2, 4)],
            })
            .unwrap();
        drop(journal);

        let (_, snap, records) = Journal::open(dir.path(), FlushPolicy::OsBuffered, 0).unwrap();
        assert!(snap.is_none());
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], submit(1));
        assert_eq!(
            records[1],
            JournalRecord::Peer {
                from: 2,
                payload: vec![1, 2, 3]
            }
        );
        assert_eq!(records[2], JournalRecord::Suspect { peer: 3 });
        assert_eq!(
            records[3],
            JournalRecord::Gc {
                horizon: vec![(1, 9), (2, 4)]
            }
        );
    }

    #[test]
    fn snapshot_truncates_the_covered_prefix() {
        let dir = TempDir::new("journal-snap").unwrap();
        let (mut journal, _, _) = Journal::open(dir.path(), FlushPolicy::OsBuffered, 3).unwrap();
        for i in 0..3 {
            journal.append(&submit(i)).unwrap();
        }
        assert!(journal.snapshot_due());
        let snapshot = ReplicaSnapshot {
            protocol: vec![9, 9],
            store: KVStore::new(),
            log: vec![(Dot::new(1, 1), Rifl::new(1, 1))],
            view: ClusterView::at(2, [1, 2, 4], 1),
            addrs: vec![(1, "a:1".into()), (2, "a:2".into()), (4, "a:4".into())],
        };
        journal.save_snapshot(&snapshot).unwrap();
        assert!(!journal.snapshot_due());
        journal.append(&submit(7)).unwrap();
        drop(journal);

        let (_, snap, records) = Journal::open(dir.path(), FlushPolicy::OsBuffered, 3).unwrap();
        let snap = snap.expect("snapshot restored");
        assert_eq!(snap.protocol, vec![9, 9]);
        assert_eq!(snap.log.len(), 1);
        assert_eq!(snap.view, ClusterView::at(2, [1, 2, 4], 1));
        assert_eq!(snap.addrs.len(), 3);
        assert_eq!(records, vec![submit(7)], "only the suffix replays");
    }

    #[test]
    fn epoch_records_round_trip_across_reopen() {
        let dir = TempDir::new("journal-epoch").unwrap();
        let (mut journal, _, _) = Journal::open(dir.path(), FlushPolicy::OsBuffered, 0).unwrap();
        let record = JournalRecord::Epoch {
            view: ClusterView::at(4, [1, 2, 4, 5, 6], 2),
            addrs: (1..=6).map(|i| (i, format!("h:{i}"))).collect(),
        };
        journal.append(&record).unwrap();
        drop(journal);

        let (_, _, records) = Journal::open(dir.path(), FlushPolicy::OsBuffered, 0).unwrap();
        assert_eq!(records, vec![record]);
    }
}
