//! The [`Protocol`] trait implemented by every replication protocol in this
//! workspace, and the [`Action`] output language a protocol uses to talk to
//! its runtime (the discrete-event simulator, or any networked runtime).
//!
//! Protocols are written as *pure state machines*: every input (a client
//! submission, an incoming message, a failure suspicion, a reconfiguration)
//! returns a list of [`Action`]s — messages to send and commands that became
//! executable. This makes protocols trivially testable and lets the planet
//! simulator drive Atlas, EPaxos, Flexible Paxos and Mencius through the very
//! same code path.

use crate::command::Command;
use crate::config::Config;
use crate::id::{Dot, ProcessId};
use crate::metrics::ProtocolMetrics;
use crate::view::ClusterView;
use serde::{Deserialize, Serialize};

/// Simulated (or wall-clock) time, in microseconds.
pub type Time = u64;

/// One millisecond expressed in [`Time`] units.
pub const MILLIS: Time = 1_000;

/// What a protocol asks its runtime to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to every process in `targets`.
    ///
    /// Targets may include the sending process itself; the runtime must then
    /// deliver the message locally with zero delay (the paper assumes
    /// self-addressed messages are delivered immediately).
    Send {
        /// Destination processes.
        targets: Vec<ProcessId>,
        /// The protocol message.
        msg: M,
    },
    /// The local replica executed `cmd` (applied it to the local state
    /// machine). The runtime uses this to answer the client that submitted
    /// the command, if that client is attached to this process.
    Execute {
        /// Identifier under which the command was ordered.
        dot: Dot,
        /// The executed command.
        cmd: Command,
    },
    /// The command with identifier `dot` was committed locally (its final
    /// dependencies / log slot are known). Used only for bookkeeping; clients
    /// are answered at execution time.
    Commit {
        /// Identifier of the committed command.
        dot: Dot,
    },
}

impl<M> Action<M> {
    /// Convenience constructor for a send to a set of targets.
    pub fn send(targets: impl IntoIterator<Item = ProcessId>, msg: M) -> Self {
        Action::Send {
            targets: targets.into_iter().collect(),
            msg,
        }
    }
}

/// Static placement information handed to a protocol at construction time.
///
/// The planet simulator computes, for every process, the list of all
/// processes sorted by network proximity; leaderless protocols use it to pick
/// the *closest* fast quorum, while leader-based protocols learn the
/// leader's identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// All process identifiers in the deployment (`1..=n`).
    pub processes: Vec<ProcessId>,
    /// Processes sorted by distance from the owning process. The owning
    /// process itself is always first (distance zero).
    pub by_distance: Vec<ProcessId>,
    /// Leader process for leader-based protocols (ignored by leaderless
    /// ones). The paper selects the leader as the site minimizing the
    /// standard deviation of client-perceived latency.
    pub leader: Option<ProcessId>,
}

impl Topology {
    /// Builds a topology where distance follows identifier order — handy in
    /// unit tests where the network is not modeled.
    pub fn identity(id: ProcessId, n: usize) -> Self {
        let processes: Vec<ProcessId> = (1..=n as ProcessId).collect();
        let mut by_distance = vec![id];
        by_distance.extend(processes.iter().copied().filter(|p| *p != id));
        Self {
            processes,
            by_distance,
            leader: Some(1),
        }
    }

    /// Builds a topology over an explicit, possibly non-contiguous member
    /// list (identifier order doubles as distance order). Used after a
    /// reconfiguration, where a replacement replica's identifier need not be
    /// `<= n`, and for a joiner that is not (yet) part of `members` — the
    /// joiner still puts itself first in `by_distance` but does not appear
    /// in `processes`.
    pub fn from_members(id: ProcessId, members: &[ProcessId]) -> Self {
        let mut processes: Vec<ProcessId> = members.to_vec();
        processes.sort_unstable();
        processes.dedup();
        let mut by_distance = vec![id];
        by_distance.extend(processes.iter().copied().filter(|p| *p != id));
        let leader = processes.first().copied();
        Self {
            processes,
            by_distance,
            leader,
        }
    }

    /// The closest `size` processes (including the owning process itself).
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds the number of processes.
    pub fn closest_quorum(&self, size: usize) -> Vec<ProcessId> {
        assert!(
            size <= self.by_distance.len(),
            "quorum of size {size} requested but only {} processes exist",
            self.by_distance.len()
        );
        self.by_distance[..size].to_vec()
    }

    /// The closest `size` processes drawn only from `alive`, including the
    /// owning process itself. Returns `None` if fewer than `size` processes
    /// are alive.
    pub fn closest_alive_quorum(&self, size: usize, alive: &[ProcessId]) -> Option<Vec<ProcessId>> {
        let quorum: Vec<ProcessId> = self
            .by_distance
            .iter()
            .copied()
            .filter(|p| alive.contains(p))
            .take(size)
            .collect();
        (quorum.len() == size).then_some(quorum)
    }
}

/// A replica's catch-up payload for a peer that lost its state: the
/// output of [`Protocol::transfer`], the input of [`Protocol::install`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer<M> {
    /// The highest identifier sequence (dot sequence or log slot) the
    /// transferring replica has seen from the peer, committed or not; the
    /// peer must never reissue identifiers at or below it.
    pub horizon: u64,
    /// An opaque, protocol-defined encoding of which identifiers the
    /// transferring replica's state machine has executed (plus whatever
    /// configuration the protocol needs to interpret them).
    pub base: Vec<u8>,
    /// Messages that, replayed through [`Protocol::handle`], convey every
    /// command the transferring replica still retains as committed — after
    /// [`Protocol::gc_executed`], everything above the compaction floor,
    /// executed entries included: an entry executed there may be unknown
    /// to the replica whose base the peer installed. Commit-style messages
    /// are idempotent, and entries a base covers replay as no-ops.
    pub log: Vec<M>,
}

/// A replication protocol, written as a deterministic state machine.
///
/// All methods take the current [`Time`] so protocols can record latency
/// metrics and schedule timeout-based behaviour without reading a clock.
///
/// The contract is total: every method is required and every protocol in
/// this workspace supports all of it — snapshots, reconfiguration, garbage
/// collection and catch-up state transfer. The state itself is the snapshot:
/// a runtime persists a replica by serializing it whole, which is why the
/// trait (and its message type) carry serde bounds.
pub trait Protocol: Serialize + Deserialize + Send + 'static {
    /// The wire message type of the protocol.
    type Message: Clone + std::fmt::Debug + Serialize + Deserialize + Send + 'static;

    /// Human-readable protocol name (used in experiment reports).
    fn name() -> &'static str;

    /// Creates a replica with identifier `id`.
    fn new(id: ProcessId, config: Config, topology: Topology) -> Self;

    /// This replica's identifier.
    fn id(&self) -> ProcessId;

    /// The configuration this replica currently operates under: the boot
    /// configuration until a [`reconfigure`](Protocol::reconfigure) call
    /// derives a new one from its view.
    fn config(&self) -> Config;

    /// The [`ClusterView`] this replica currently operates in. The runtime
    /// derives the target of a `Reconfigure` barrier from **this** view —
    /// `enter`/`finalize` applied to the protocol's own configuration,
    /// which may lag the runtime's announcement-fed view — so it must
    /// advance exactly and only at [`Protocol::reconfigure`] calls (and
    /// base/state restores).
    fn view(&self) -> &ClusterView;

    /// Submits a command on behalf of a local client; the replica becomes the
    /// command's (initial) coordinator.
    fn submit(&mut self, cmd: Command, time: Time) -> Vec<Action<Self::Message>>;

    /// Handles a protocol message from `from`.
    fn handle(
        &mut self,
        from: ProcessId,
        msg: Self::Message,
        time: Time,
    ) -> Vec<Action<Self::Message>>;

    /// Approximate wire size of a message in bytes. Runtimes use it to model
    /// serialization/bandwidth costs (e.g. a leader broadcasting 3 KB
    /// payloads to every replica).
    fn message_size(msg: &Self::Message) -> usize;

    /// Notifies the replica that `suspected` is believed to have failed.
    /// Leaderless protocols recover the suspected process's in-flight
    /// commands; leader-based protocols elect a new leader.
    ///
    /// Both the simulator and the networked runtime's failure detector call
    /// this, so implementations must uphold two contracts:
    ///
    /// * **Idempotent under re-dispatch.** The runtime repeats the call
    ///   every `suspect_after` while a peer stays suspected (recovery of
    ///   one command can surface further identifiers of the dead peer that
    ///   only a later pass can pick up), and a flapping peer may be
    ///   suspected, trusted and suspected again. Re-suspecting must never
    ///   corrupt state — at worst it reissues recovery traffic at higher
    ///   ballots.
    /// * **Deterministic.** The networked runtime journals suspicions as
    ///   protocol inputs (they can mint recovery ballots, i.e. promises)
    ///   and replays them in order after a crash; `suspect` must depend
    ///   only on protocol state and its arguments, never on a clock or
    ///   randomness (`time` may be 0 during replay, as for every other
    ///   replayed input).
    ///
    /// A wrong suspicion must be *safe* (consensus-protected), merely not
    /// free: the paper only requires the detector to be eventually accurate
    /// for liveness.
    fn suspect(&mut self, suspected: ProcessId, time: Time) -> Vec<Action<Self::Message>>;

    /// Installs a new [`ClusterView`]: the replica switches to gathering
    /// quorums from `view.members` (and, while `view.is_joint()`, from the
    /// outgoing members too), and re-drives any of its own in-flight
    /// proposals under the new view so they cannot strand waiting for
    /// quorums that no longer form.
    ///
    /// The runtime calls this when a `Reconfigure` barrier command executes
    /// (the same position of the execution order on every replica) or when
    /// a journaled/peer-announced epoch switch is applied. Implementations
    /// must uphold the same contracts as [`Protocol::suspect`] and
    /// [`Protocol::gc_executed`]:
    ///
    /// * **Idempotent.** Applying a view whose `epoch` is not newer than
    ///   the current [`view`](Protocol::view)'s must change nothing and
    ///   return no actions — the runtime may deliver the same switch twice
    ///   (once from the barrier's execution, once from a journal record or
    ///   a peer's epoch announcement).
    /// * **Deterministic for replay.** Epoch switches are protocol inputs:
    ///   they are journaled (or re-derived by re-executing the barrier)
    ///   and replayed in order after a crash. The result must depend only
    ///   on protocol state and `view`, never on a clock or randomness
    ///   (`time` may be 0 during replay).
    /// * **GC-floor respecting.** Re-driven proposals must skip entries at
    ///   or below the compaction floor, exactly like recovery traffic; the
    ///   switch must never resurrect a collected entry. Watermarks keep the
    ///   [`executed_watermarks`](Protocol::executed_watermarks) contract
    ///   (monotone, truthful) across the switch — identifier spaces of
    ///   removed members must still be reported until fully collected, so
    ///   the GC horizon can keep advancing over their leftover entries.
    /// * **Ballot hygiene.** Ballots minted after the switch must exceed
    ///   [`ClusterView::ballot_floor`], so ballot-to-owner arithmetic
    ///   (which is modular in the member count) can never collide across
    ///   epochs.
    fn reconfigure(&mut self, view: &ClusterView, time: Time) -> Vec<Action<Self::Message>>;

    /// This replica's **executed watermarks**: for every identifier space
    /// (a coordinating process for dot-based protocols, the sentinel
    /// process `0` for the single shared log of slot-based protocols), the
    /// highest sequence `w` such that *every* identifier `1..=w` of that
    /// space has been executed by the local state machine — the contiguous
    /// executed prefix, not merely the highest executed identifier.
    ///
    /// Watermarks drive garbage collection: the runtime exchanges them
    /// between replicas and hands the **pointwise minimum** (the
    /// all-executed horizon) to [`Protocol::gc_executed`]. They must be
    ///
    /// * **monotone** — a watermark never regresses on a live replica
    ///   (installing a peer's base via [`Protocol::install`] after a wipe
    ///   may legitimately report lower values than the lost
    ///   incarnation once did; see `ARCHITECTURE.md` for why that stale
    ///   window is safe), and
    /// * **truthful** — reporting `w` promises this replica will never
    ///   need a peer to re-send a commit for an identifier `<= w`.
    ///
    /// Sorted by space identifier, deterministic for a given state.
    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)>;

    /// Drops bookkeeping for entries at or below `horizon` — the pointwise
    /// minimum of every replica's [`executed
    /// watermarks`](Protocol::executed_watermarks), i.e. identifiers that
    /// **every** replica has already executed. Returns how many entries
    /// were dropped (0 = nothing to do).
    ///
    /// The caller guarantees `horizon` is an all-executed horizon; the
    /// implementation in turn guarantees:
    ///
    /// * **Idempotent and monotone.** Re-applying the same (or a lower)
    ///   horizon drops nothing and changes nothing; the compaction floor
    ///   only ever rises.
    /// * **Deterministic for replay.** The networked runtime journals each
    ///   GC round (as a `Gc` input record) and replays it in order after a
    ///   crash, exactly like `suspect`; the result must depend only on
    ///   protocol state and `horizon`.
    /// * **Invisible to the protocol's future behaviour.** Messages that
    ///   still arrive for a collected entry (duplicates from at-least-once
    ///   links, stragglers, recovery probes) must be ignored exactly as if
    ///   the entry were still present in its terminal phase — never
    ///   treated as a fresh command. Digests and per-key execution order
    ///   must be indistinguishable from a never-collected replica.
    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64;

    /// Number of per-command bookkeeping entries currently held (command
    /// info maps, decided-slot maps, …) — the quantity
    /// [`Protocol::gc_executed`] exists to bound. Observability only; the
    /// runtime exposes it to clients so tests and operators can assert the
    /// maps stay bounded under GC.
    fn tracked_entries(&self) -> usize;

    /// What this replica hands peer `to` when `to` lost its state and
    /// rejoins (a peer-assisted catch-up); see [`Transfer`]. The runtime
    /// pairs the opaque `base` with its own copy of the state machine
    /// (store + execution record), so the two together form an
    /// executed-state base, and ships the retained `log` on top.
    fn transfer(&self, to: ProcessId) -> Transfer<Self::Message>;

    /// Installs what a peer's [`transfer`](Protocol::transfer) handed this
    /// replica. Always ensures every identifier this replica generates from
    /// now on is strictly greater than `horizon` in its own identifier
    /// space (so identifiers of a lost incarnation are never reissued for
    /// different commands). Marks the identifiers `base` covers executed
    /// only on a replica that has executed nothing yet: marking an
    /// identifier executed suppresses its execution, so installing a base
    /// over real progress would skip commands. Returns `false` if a `base`
    /// was given but not installed (it does not decode, or this replica
    /// has executed something); the identifier advance happens anyway,
    /// after the base, so a base can never pull the generator back below
    /// `horizon`.
    fn install(&mut self, horizon: u64, base: Option<&[u8]>) -> bool;

    /// Protocol metrics accumulated so far: constant-size counters and
    /// moments, exported whole over the runtime's stats plane.
    fn metrics(&self) -> &ProtocolMetrics;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_topology_puts_self_first() {
        let t = Topology::identity(3, 5);
        assert_eq!(t.by_distance[0], 3);
        assert_eq!(t.by_distance.len(), 5);
        assert_eq!(t.processes, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn closest_quorum_takes_prefix() {
        let t = Topology::identity(2, 5);
        assert_eq!(t.closest_quorum(3), vec![2, 1, 3]);
        assert_eq!(t.closest_quorum(1), vec![2]);
        assert_eq!(t.closest_quorum(5).len(), 5);
    }

    #[test]
    #[should_panic(expected = "quorum of size")]
    fn closest_quorum_rejects_oversized_requests() {
        let t = Topology::identity(1, 3);
        let _ = t.closest_quorum(4);
    }

    #[test]
    fn closest_alive_quorum_skips_dead_processes() {
        let t = Topology::identity(1, 5);
        let alive = vec![1, 3, 5];
        assert_eq!(t.closest_alive_quorum(3, &alive), Some(vec![1, 3, 5]));
        assert_eq!(t.closest_alive_quorum(4, &alive), None);
    }
}
