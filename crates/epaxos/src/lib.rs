//! # epaxos
//!
//! Baseline: a commit-protocol implementation of **Egalitarian Paxos**
//! (EPaxos, SOSP 2013) as characterized in the Atlas paper (§3.3), sharing
//! the Atlas dependency-graph execution layer so that the comparison between
//! the two protocols isolates the commit protocol itself — exactly like the
//! shared codebase used in the paper's evaluation.
//!
//! Differences from Atlas that this crate reproduces:
//!
//! * **Large fast quorums** whose size depends only on `n` (roughly `3n/4`):
//!   `f_max + ⌈(f_max + 1)/2⌉` with `f_max = ⌊(n−1)/2⌋` tolerated failures.
//! * **Strict fast-path condition**: the fast path is taken only when every
//!   fast-quorum member reports exactly the same dependency set, so
//!   concurrent conflicting commands usually force the slow path.
//! * The slow path runs a Paxos accept round over a **majority** (not `f+1`).
//!
//! # Instance recovery
//!
//! EPaxos' instance-recovery procedure is notoriously intricate (the Atlas
//! paper notes the published one contains a bug, §3.3; Bipartisan Paxos
//! devotes a paper section to why). This crate implements a ballot-based
//! **explicit prepare** ([`EPaxos::suspect`]) that is deliberately simpler
//! than — and provably safe for — *this* crate's strict fast-path variant,
//! where the coordinator commits on the fast path only when **every**
//! fast-quorum member reported exactly the same dependency set:
//!
//! 1. A survivor takes over an in-flight instance of a suspected
//!    coordinator with a takeover ballot it owns (shared machinery with
//!    Atlas's `MRec`: `atlas_protocol::recovery`), broadcasting
//!    `MPrepare` and collecting `MPrepareOk` from a majority.
//! 2. If any reply carries a value accepted at a ballot > 0, the value
//!    accepted at the **highest ballot** is adopted (standard Paxos). Such
//!    a value always equals any fast-path commit (the coordinator decides
//!    between the paths exactly once), so this rule is consistent with it.
//! 3. Otherwise, if the replies show a pre-accepted instance: any majority
//!    intersects the (≈3n/4-sized) fast quorum in at least
//!    `⌈(f_max+1)/2⌉ ≥ 1` live members. If every responding fast-quorum
//!    member pre-accepted the **same** dependency set, a fast-path commit
//!    with exactly that set may have happened, and it is adopted verbatim.
//!    If any responding fast-quorum member reports a different set — or
//!    never saw the pre-accept at all — the strict matching condition
//!    proves the fast path was **not** taken, and the union of every
//!    reply's dependencies (responders that never saw the instance
//!    contribute their current conflicts, exactly as in Atlas's `MRec`) is
//!    proposed instead.
//! 4. If no reply ever saw the command, it is replaced with a `noOp` so
//!    dependants stop waiting (the dead coordinator's client retries).
//!
//! The chosen proposal then runs the regular accept phase at the takeover
//! ballot before being committed — and the proposal computed for a ballot
//! is memoized, so straggling `MPrepareOk`s can only re-send it, never
//! re-derive a different value at the same ballot. Re-dispatched suspicions
//! (the runtime repeats them while a peer stays dead) re-send the same
//! prepare instead of opening a fresh ballot. A *crashed-and-restarted*
//! replica is still handled by the runtime durability layer; `suspect`
//! exists for the coordinator that never comes back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlas_core::protocol::{Time, Transfer};
use atlas_core::{
    Action, ClusterView, Command, Config, Dot, ProcessId, Protocol, ProtocolMetrics, Topology,
};
use atlas_protocol::recovery::{ballot_owner_in, highest_accepted, takeover_ballot_in, RecAck};
use atlas_protocol::{DepCore, Entry};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Ballot numbers for the accept phase.
pub type Ballot = u64;

/// Wire messages of the EPaxos commit protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Coordinator → fast quorum: start the pre-accept phase.
    MPreAccept {
        /// Command identifier (EPaxos instance).
        dot: Dot,
        /// Command payload.
        cmd: Command,
        /// Dependencies known to the coordinator.
        deps: HashSet<Dot>,
        /// Fast quorum chosen by the coordinator.
        quorum: Vec<ProcessId>,
    },
    /// Fast-quorum member → coordinator: locally extended dependencies.
    MPreAcceptAck {
        /// Command identifier.
        dot: Dot,
        /// Dependencies computed by the sender.
        deps: HashSet<Dot>,
    },
    /// Paxos accept for the slow path.
    MAccept {
        /// Command identifier.
        dot: Dot,
        /// Command payload.
        cmd: Command,
        /// Proposed dependencies (union of the pre-accept replies).
        deps: HashSet<Dot>,
        /// Proposal ballot.
        ballot: Ballot,
    },
    /// Accept acknowledgement.
    MAcceptAck {
        /// Command identifier.
        dot: Dot,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
    /// Commit notification with the final dependencies.
    MCommit {
        /// Command identifier.
        dot: Dot,
        /// Command payload.
        cmd: Command,
        /// Final dependencies.
        deps: HashSet<Dot>,
    },
    /// Recovery phase-1: a survivor tries to take over an in-flight
    /// instance of a suspected coordinator.
    MPrepare {
        /// Command identifier being recovered.
        dot: Dot,
        /// The command as known by the new coordinator (`noOp` if unknown).
        cmd: Command,
        /// Takeover ballot (always greater than `n`).
        ballot: Ballot,
    },
    /// Recovery phase-1 acknowledgement carrying everything the sender
    /// knows about the instance.
    MPrepareOk {
        /// Command identifier being recovered.
        dot: Dot,
        /// The command as known by the sender (`noOp` if unknown).
        cmd: Command,
        /// The sender's current dependency set for the instance.
        deps: HashSet<Dot>,
        /// The fast quorum as known by the sender (empty if the sender
        /// never saw the initial `MPreAccept`).
        quorum: Vec<ProcessId>,
        /// Ballot at which the sender last accepted a proposal (0 if none).
        accepted_ballot: Ballot,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
}

impl Message {
    /// Approximate wire size in bytes, used by the simulator's CPU model.
    pub fn size_bytes(&self) -> usize {
        const HEADER: usize = 32;
        const PER_DEP: usize = 12;
        match self {
            Message::MPreAccept { cmd, deps, .. }
            | Message::MAccept { cmd, deps, .. }
            | Message::MCommit { cmd, deps, .. } => {
                HEADER + cmd.payload_size + PER_DEP * deps.len()
            }
            Message::MPreAcceptAck { deps, .. } => HEADER + PER_DEP * deps.len(),
            Message::MAcceptAck { .. } => HEADER,
            Message::MPrepare { cmd, .. } => HEADER + cmd.payload_size,
            Message::MPrepareOk { cmd, deps, .. } => {
                HEADER + cmd.payload_size + PER_DEP * deps.len()
            }
        }
    }
}

/// Progress of an instance at this replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
enum Phase {
    #[default]
    Start,
    PreAccept,
    Accept,
    /// A recovery coordinator has taken over this instance; the original
    /// fast path can no longer complete here.
    Recover,
    Commit,
}

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Info {
    phase: Phase,
    cmd: Option<Command>,
    deps: HashSet<Dot>,
    /// Highest ballot this replica has promised or accepted (`bal`); 0
    /// until the slow path or a recovery touches the instance.
    bal: Ballot,
    /// Ballot at which `cmd`/`deps` were last accepted (`abal`; 0 = never).
    abal: Ballot,
    quorum: Vec<ProcessId>,
    preaccept_acks: HashMap<ProcessId, HashSet<Dot>>,
    /// Proposer side: accept acknowledgements, per ballot.
    accept_acks: HashMap<Ballot, HashSet<ProcessId>>,
    /// Recovery-coordinator side: `MPrepareOk` replies, per ballot.
    prepare_acks: HashMap<Ballot, HashMap<ProcessId, RecAck>>,
    /// Recovery-coordinator side: the proposal computed for each ballot we
    /// led. Straggling `MPrepareOk`s re-send the memoized proposal — two
    /// different values at the same ballot would be unsound Paxos.
    proposed: HashMap<Ballot, (Command, HashSet<Dot>)>,
    /// Whether the initial coordinator already decided between the fast
    /// and slow path (prevents reprocessing duplicate pre-accept acks).
    decided: bool,
    /// Whether this replica already broadcast `MCommit` for the instance.
    committed_sent: bool,
}

impl Entry for Info {
    fn committed(&self) -> Option<(&Command, &HashSet<Dot>)> {
        if self.phase != Phase::Commit {
            return None;
        }
        Some((self.cmd.as_ref()?, &self.deps))
    }
}

/// An EPaxos replica: its per-instance entries on top of the bookkeeping
/// it shares with Atlas ([`DepCore`]).
#[derive(Debug, Serialize, Deserialize)]
pub struct EPaxos {
    core: DepCore,
    info: HashMap<Dot, Info>,
}

impl EPaxos {
    fn info_mut(&mut self, dot: Dot) -> &mut Info {
        self.core.see(dot);
        self.info.entry(dot).or_default()
    }

    fn handle_preaccept(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        quorum: Vec<ProcessId>,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) || self.info_mut(dot).phase != Phase::Start {
            return Vec::new();
        }
        let mut local = self.core.key_deps.conflicts_and_add(dot, &cmd);
        local.extend(deps);
        local.remove(&dot);
        let info = self.info_mut(dot);
        info.phase = Phase::PreAccept;
        info.cmd = Some(cmd);
        info.deps = local.clone();
        info.quorum = quorum;
        vec![Action::send(
            [from],
            Message::MPreAcceptAck { dot, deps: local },
        )]
    }

    fn handle_preaccept_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        deps: HashSet<Dot>,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            // A straggling ack for a collected instance; `info_mut` below
            // would resurrect an empty entry that GC could never drop.
            return Vec::new();
        }
        let view = self.core.view().clone();
        let base = self.core.config();
        let everyone = self.core.everyone();
        let slow_quorum = if view.is_joint() {
            // Joint window: the accept phase needs a majority of *both*
            // configurations — send to everyone and let the dual count in
            // `handle_accept_ack` decide.
            everyone.clone()
        } else {
            self.core.closest(Config::majority)
        };
        let info = self.info_mut(dot);
        if info.phase != Phase::PreAccept || info.decided {
            return Vec::new();
        }
        if !info.quorum.contains(&from) {
            return Vec::new();
        }
        info.preaccept_acks.insert(from, deps);
        let ready = if view.is_joint() {
            // A majority of each configuration keeps conflicting commands
            // visible to each other across the membership change; waiting
            // for the full union would deadlock on a dead outgoing member.
            let have: HashSet<ProcessId> = info.preaccept_acks.keys().copied().collect();
            view.quorum_met(&have, base, Config::majority)
        } else {
            info.preaccept_acks.len() >= info.quorum.len()
        };
        if !ready {
            return Vec::new();
        }
        info.decided = true;

        // Fast path only when every fast-quorum reply matches exactly —
        // and never in the joint window, whose recovery rule is per
        // configuration, not across two of them.
        let mut replies = info.preaccept_acks.values();
        let first = replies.next().cloned().unwrap_or_default();
        let matching = !view.is_joint() && replies.all(|deps| *deps == first);
        let cmd = info.cmd.clone().expect("pre-accepted command is known");
        let mut union = HashSet::new();
        for deps in info.preaccept_acks.values() {
            union.extend(deps.iter().copied());
        }

        if matching {
            info.committed_sent = true;
            self.core.metrics.fast_paths += 1;
            vec![Action::send(
                everyone,
                Message::MCommit {
                    dot,
                    cmd,
                    deps: first,
                },
            )]
        } else {
            // Slow path: accept the union of the replies at a majority.
            self.core.metrics.slow_paths += 1;
            let ballot = self.core.id() as Ballot;
            vec![Action::send(
                slow_quorum,
                Message::MAccept {
                    dot,
                    cmd,
                    deps: union,
                    ballot,
                },
            )]
        }
    }

    fn handle_accept(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            // Executed everywhere and garbage-collected; the proposer has
            // it too, so no short-circuit MCommit is needed (or possible).
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit {
            let cmd = info.cmd.clone().expect("committed command is known");
            let deps = info.deps.clone();
            return vec![Action::send([from], Message::MCommit { dot, cmd, deps })];
        }
        if info.bal > ballot {
            return Vec::new();
        }
        info.phase = Phase::Accept;
        info.cmd = Some(cmd);
        info.deps = deps;
        info.bal = ballot;
        info.abal = ballot;
        vec![Action::send([from], Message::MAcceptAck { dot, ballot })]
    }

    fn handle_accept_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            return Vec::new(); // straggling ack for a collected instance
        }
        let view = self.core.view().clone();
        let base = self.core.config();
        let everyone = self.core.everyone();
        let info = self.info_mut(dot);
        if info.bal != ballot || info.phase == Phase::Commit || info.committed_sent {
            return Vec::new();
        }
        let acks = info.accept_acks.entry(ballot).or_default();
        acks.insert(from);
        // A majority of the current configuration — and, during the joint
        // window, of the outgoing one too.
        if !view.quorum_met(acks, base, Config::majority) {
            return Vec::new();
        }
        info.committed_sent = true;
        let cmd = info.cmd.clone().expect("accepted command is known");
        let deps = info.deps.clone();
        vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })]
    }

    fn handle_commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        time: Time,
    ) -> Vec<Action<Message>> {
        if self.core.is_executed(&dot) {
            // Already executed here: a garbage-collected entry (the floor
            // implies it) or one covered by a catch-up base, where no
            // `info` entry exists to dedupe through. A duplicate commit
            // must not resurrect bookkeeping.
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit {
            return Vec::new();
        }
        info.phase = Phase::Commit;
        info.cmd = Some(cmd.clone());
        info.deps = deps.clone();
        self.core.commit(dot, cmd, deps, time)
    }

    /// Takes over as coordinator of `dot` with an explicit prepare. A
    /// re-dispatched suspicion while this replica already leads the
    /// instance's current ballot re-sends the *same* prepare (lost-message
    /// recovery) instead of opening a second ballot.
    fn prepare(&mut self, dot: Dot) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            // Executed everywhere and garbage-collected; nothing can be
            // blocked on it, so there is nothing to recover.
            return Vec::new();
        }
        let id = self.core.id();
        let view = self.core.view().clone();
        let everyone = self.core.everyone();
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit {
            return Vec::new();
        }
        // A ballot this replica minted in the *current* epoch is re-sent as
        // is; anything else (older epoch included — `ballot_owner_in`
        // refuses cross-epoch owner arithmetic) gets a fresh takeover
        // ballot above the epoch floor.
        let resend = ballot_owner_in(&view, info.bal) == Some(id);
        let ballot = if resend {
            info.bal
        } else {
            takeover_ballot_in(&view, id, info.bal)
        };
        let cmd = info.cmd.clone().unwrap_or_else(Command::noop);
        if !resend {
            self.core.metrics.recoveries += 1;
        }
        vec![Action::send(
            everyone,
            Message::MPrepare { dot, cmd, ballot },
        )]
    }

    /// Handles `MPrepare`: promise the takeover ballot and report everything
    /// known about the instance (mirrors Atlas's `MRec` handler).
    fn handle_prepare(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            // The instance executed at every replica before being collected
            // here; a recovery probe for it is a straggler and must not
            // resurrect bookkeeping (or panic) — nothing can be blocked on
            // a collected instance.
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit {
            // Already decided here: short-circuit the recovery.
            let cmd = info.cmd.clone().expect("committed command is known");
            let deps = info.deps.clone();
            return vec![Action::send([from], Message::MCommit { dot, cmd, deps })];
        }
        if info.bal > ballot {
            // Stale takeover attempt. A *re-sent* prepare at exactly the
            // promised ballot is re-acknowledged (at-least-once links).
            return Vec::new();
        }
        // If this replica has never seen the instance, its contribution is
        // its current set of conflicts for the command — and the command is
        // indexed so later conflicting commands observe it.
        if info.bal == 0 && info.phase == Phase::Start {
            let deps = self.core.key_deps.conflicts_and_add(dot, &cmd);
            let info = self.info_mut(dot);
            info.deps = deps;
            info.cmd = Some(cmd);
        }
        let info = self.info_mut(dot);
        info.bal = ballot;
        info.phase = Phase::Recover;
        let reply = Message::MPrepareOk {
            dot,
            cmd: info.cmd.clone().unwrap_or_else(Command::noop),
            deps: info.deps.clone(),
            quorum: info.quorum.clone(),
            accepted_ballot: info.abal,
            ballot,
        };
        vec![Action::send([from], reply)]
    }

    /// Handles `MPrepareOk` at the recovery coordinator: with a majority of
    /// replies, select the proposal (see the crate docs for the safety
    /// argument) and run the accept phase at the takeover ballot.
    #[allow(clippy::too_many_arguments)]
    fn handle_prepare_ok(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        quorum: Vec<ProcessId>,
        accepted_ballot: Ballot,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.core.collected(&dot) {
            // A straggling ack for a collected instance; `info_mut` below
            // would resurrect an empty entry that GC could never drop.
            return Vec::new();
        }
        let view = self.core.view().clone();
        let base = self.core.config();
        let everyone = self.core.everyone();
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit || info.committed_sent || info.bal != ballot {
            return Vec::new();
        }
        let acks = info.prepare_acks.entry(ballot).or_default();
        acks.insert(
            from,
            RecAck {
                cmd,
                deps,
                quorum,
                accepted_ballot,
            },
        );
        // A majority of promises in the current configuration — and of the
        // outgoing one during the joint window, so any value accepted under
        // either configuration is visible here.
        let responder_set: HashSet<ProcessId> = acks.keys().copied().collect();
        if !view.quorum_met(&responder_set, base, Config::majority) {
            return Vec::new();
        }
        // A proposal is computed at most once per ballot; replies beyond
        // the majority (or re-sent ones) re-send the memoized proposal —
        // proposing two different values at one ballot would be unsound.
        let (cmd, deps) = if let Some((cmd, deps)) = info.proposed.get(&ballot) {
            (cmd.clone(), deps.clone())
        } else {
            let acks = acks.clone();
            let (cmd, deps) = if let Some(highest) = highest_accepted(acks.values()) {
                // Case 1: adopt the value accepted at the highest ballot —
                // standard Paxos. Accepted values always agree with any
                // fast-path commit (the coordinator decides between the
                // paths exactly once), so this rule is consistent with it.
                (highest.cmd.clone(), highest.deps.clone())
            } else if let Some(witness) = acks.values().find(|ack| !ack.quorum.is_empty()) {
                // Case 2: some responder pre-accepted the instance at the
                // original ballot. Only fast-quorum members ever receive
                // MPreAccept, so the responders inside the witnessed quorum
                // tell whether a fast-path commit is possible.
                let fq: HashSet<ProcessId> = witness.quorum.iter().copied().collect();
                let fq_replies: Vec<&RecAck> = acks
                    .iter()
                    .filter(|(p, _)| fq.contains(p))
                    .map(|(_, ack)| ack)
                    .collect();
                // A fast-path commit required *every* fast-quorum member to
                // pre-accept the same dependency set, so it is only
                // indistinguishable from this side when every responding
                // member pre-accepted (non-empty quorum) the same set.
                let fast_possible = !fq_replies.is_empty()
                    && fq_replies.iter().all(|ack| !ack.quorum.is_empty())
                    && fq_replies.iter().all(|ack| ack.deps == fq_replies[0].deps);
                if fast_possible {
                    (witness.cmd.clone(), fq_replies[0].deps.clone())
                } else {
                    // The strict matching condition proves the fast path
                    // was not taken: free choice. The union over every
                    // reply keeps all conflicting commands ordered.
                    let mut union: HashSet<Dot> = HashSet::new();
                    for ack in acks.values() {
                        union.extend(ack.deps.iter().copied());
                    }
                    union.remove(&dot);
                    (witness.cmd.clone(), union)
                }
            } else {
                // Case 3: nobody saw the command; replace it with a noOp so
                // dependants stop waiting.
                (Command::noop(), HashSet::new())
            };
            info.proposed.insert(ballot, (cmd.clone(), deps.clone()));
            (cmd, deps)
        };
        // Accept phase at the takeover ballot, open to every replica (the
        // suspected one included — a falsely suspected coordinator is a
        // perfectly good acceptor); commit needs a majority of acks.
        vec![Action::send(
            everyone,
            Message::MAccept {
                dot,
                cmd,
                deps,
                ballot,
            },
        )]
    }
}

impl Protocol for EPaxos {
    type Message = Message;

    fn name() -> &'static str {
        "epaxos"
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        Self {
            core: DepCore::new(id, config, topology),
            info: HashMap::new(),
        }
    }

    fn id(&self) -> ProcessId {
        self.core.id()
    }

    fn config(&self) -> Config {
        self.core.config()
    }

    fn view(&self) -> &ClusterView {
        self.core.view()
    }

    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        let dot = self.core.dot_gen.next_dot();
        let deps = self.core.key_deps.conflicts(&cmd);
        let quorum = if self.core.view().is_joint() {
            // Joint window: pre-accept at everyone and decide on a dual
            // majority (see `handle_preaccept_ack`).
            self.core.everyone()
        } else if self.core.config().nfr && cmd.is_read_only() {
            self.core.closest(Config::majority)
        } else {
            self.core.closest(Config::epaxos_fast_quorum_size)
        };
        vec![Action::send(
            quorum.clone(),
            Message::MPreAccept {
                dot,
                cmd,
                deps,
                quorum,
            },
        )]
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        match msg {
            Message::MPreAccept {
                dot,
                cmd,
                deps,
                quorum,
            } => self.handle_preaccept(from, dot, cmd, deps, quorum),
            Message::MPreAcceptAck { dot, deps } => self.handle_preaccept_ack(from, dot, deps),
            Message::MAccept {
                dot,
                cmd,
                deps,
                ballot,
            } => self.handle_accept(from, dot, cmd, deps, ballot),
            Message::MAcceptAck { dot, ballot } => self.handle_accept_ack(from, dot, ballot),
            Message::MCommit { dot, cmd, deps } => self.handle_commit(dot, cmd, deps, time),
            Message::MPrepare { dot, cmd, ballot } => self.handle_prepare(from, dot, cmd, ballot),
            Message::MPrepareOk {
                dot,
                cmd,
                deps,
                quorum,
                accepted_ballot,
                ballot,
            } => self.handle_prepare_ok(from, dot, cmd, deps, quorum, accepted_ballot, ballot),
        }
    }

    /// Ballot-based explicit-prepare instance recovery (see the crate
    /// docs): takes over every in-flight instance of the suspected
    /// coordinator, adopting accepted or possibly-fast-committed values and
    /// replacing never-seen commands with `noOp`s. Idempotent under the
    /// runtime's repeated suspicion dispatch — a re-dispatch while this
    /// replica already leads an instance's ballot re-sends the same
    /// prepare — and deterministic (state-only, no clock or randomness),
    /// as the journal-replay contract requires.
    fn suspect(&mut self, suspected: ProcessId, _time: Time) -> Vec<Action<Message>> {
        let dots = self.core.suspected_dots(suspected, &self.info);
        dots.into_iter().flat_map(|dot| self.prepare(dot)).collect()
    }

    fn reconfigure(&mut self, view: &ClusterView, _time: Time) -> Vec<Action<Message>> {
        // Liveness across the switch: the re-driven instances go through
        // explicit prepare, whose accept phase gathers quorums under the
        // *new* view.
        let stuck = self.core.switch_view(view, &self.info);
        stuck
            .into_iter()
            .flat_map(|dot| self.prepare(dot))
            .collect()
    }

    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        self.core.executed_watermarks()
    }

    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        self.core.gc(horizon, &mut self.info)
    }

    fn tracked_entries(&self) -> usize {
        self.info.len()
    }

    fn transfer(&self, to: ProcessId) -> Transfer<Message> {
        self.core
            .transfer(to, &self.info, |dot, cmd, deps| Message::MCommit {
                dot,
                cmd,
                deps,
            })
    }

    fn install(&mut self, horizon: u64, base: Option<&[u8]>) -> bool {
        self.core.install(horizon, base)
    }

    fn metrics(&self) -> &ProtocolMetrics {
        &self.core.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;

    struct Cluster {
        replicas: Vec<EPaxos>,
        executed: HashMap<ProcessId, Vec<Dot>>,
        crashed: HashSet<ProcessId>,
    }

    impl Cluster {
        fn new(n: usize, f: usize) -> Self {
            let config = Config::new(n, f);
            let replicas = (1..=n as ProcessId)
                .map(|id| EPaxos::new(id, config, Topology::identity(id, n)))
                .collect();
            Self {
                replicas,
                executed: HashMap::new(),
                crashed: HashSet::new(),
            }
        }

        fn replica(&mut self, id: ProcessId) -> &mut EPaxos {
            &mut self.replicas[(id - 1) as usize]
        }

        fn crash(&mut self, id: ProcessId) {
            self.crashed.insert(id);
        }

        fn run(&mut self, source: ProcessId, actions: Vec<Action<Message>>) {
            let mut queue: Vec<(ProcessId, ProcessId, Message)> = Vec::new();
            self.enqueue(source, actions, &mut queue);
            while !queue.is_empty() {
                let (from, to, msg) = queue.remove(0);
                if self.crashed.contains(&from) || self.crashed.contains(&to) {
                    continue;
                }
                let out = self.replica(to).handle(from, msg, 0);
                self.enqueue(to, out, &mut queue);
            }
        }

        /// Submits at `at`, delivering the MPreAccept only to `reach` and
        /// losing every reply — a command stranded mid-pre-accept.
        fn submit_reaching(&mut self, at: ProcessId, cmd: Command, reach: &[ProcessId]) {
            let actions = self.replica(at).submit(cmd, 0);
            for action in actions {
                if let Action::Send { targets, msg } = action {
                    for to in targets {
                        if reach.contains(&to) {
                            let _ = self.replica(to).handle(at, msg.clone(), 0);
                        }
                    }
                }
            }
        }

        fn suspect(&mut self, at: ProcessId, suspected: ProcessId) {
            let actions = self.replica(at).suspect(suspected, 0);
            self.run(at, actions);
        }

        fn enqueue(
            &mut self,
            source: ProcessId,
            actions: Vec<Action<Message>>,
            queue: &mut Vec<(ProcessId, ProcessId, Message)>,
        ) {
            for action in actions {
                match action {
                    Action::Send { targets, msg } => {
                        let mut targets = targets;
                        targets.sort_by_key(|t| if *t == source { 0 } else { 1 });
                        for to in targets {
                            queue.push((source, to, msg.clone()));
                        }
                    }
                    Action::Execute { dot, .. } => {
                        self.executed.entry(source).or_default().push(dot);
                    }
                    Action::Commit { .. } => {}
                }
            }
        }

        fn submit(&mut self, at: ProcessId, cmd: Command) {
            let actions = self.replica(at).submit(cmd, 0);
            self.run(at, actions);
        }
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    #[test]
    fn fast_quorum_is_larger_than_atlas() {
        let config = Config::new(5, 2);
        assert_eq!(config.epaxos_fast_quorum_size(), 4);
        let config = Config::new(13, 2);
        assert_eq!(config.epaxos_fast_quorum_size(), 10);
        assert_eq!(config.atlas_fast_quorum_size(), 8);
    }

    #[test]
    fn non_conflicting_commands_take_fast_path() {
        let mut cluster = Cluster::new(5, 2);
        cluster.submit(1, put(1, 1, 1));
        cluster.submit(2, put(2, 1, 2));
        let fast: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().fast_paths)
            .sum();
        let slow: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().slow_paths)
            .sum();
        assert_eq!(fast, 2);
        assert_eq!(slow, 0);
    }

    #[test]
    fn sequential_conflicting_commands_take_fast_path() {
        // Matching replies: every quorum member reports the same dependency.
        let mut cluster = Cluster::new(5, 2);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(2, put(2, 1, 0));
        let fast: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().fast_paths)
            .sum();
        assert_eq!(fast, 2);
    }

    #[test]
    fn all_commands_execute_everywhere_in_same_order() {
        let mut cluster = Cluster::new(7, 3);
        for seq in 1..=5u64 {
            for coordinator in 1..=7u32 {
                cluster.submit(coordinator, put(coordinator as u64, seq, 0));
            }
        }
        let reference = cluster.executed.get(&1).cloned().unwrap();
        assert_eq!(reference.len(), 35);
        for id in 2..=7 {
            assert_eq!(cluster.executed.get(&id).unwrap(), &reference);
        }
    }

    #[test]
    fn executions_match_submissions_per_process() {
        let mut cluster = Cluster::new(5, 2);
        for i in 0..20u64 {
            let coordinator = (i % 5 + 1) as ProcessId;
            cluster.submit(coordinator, put(coordinator as u64, i + 1, i % 4));
        }
        for id in 1..=5 {
            assert_eq!(cluster.executed.get(&id).unwrap().len(), 20);
        }
    }

    #[test]
    fn commit_metrics_are_recorded() {
        let mut cluster = Cluster::new(5, 2);
        cluster.submit(1, put(1, 1, 0));
        let m = cluster.replicas[0].metrics();
        assert_eq!(m.commits, 1);
        assert_eq!(m.executions, 1);
    }

    #[test]
    fn killed_coordinator_instance_is_recovered_as_the_real_command() {
        // Coordinator 1 pre-accepts to part of its fast quorum {1,2,3,4}
        // and dies before deciding. Recovery by a survivor must commit the
        // *real* command (a fast-quorum member saw it), not a noOp.
        let mut cluster = Cluster::new(5, 2);
        let cmd = put(1, 1, 0);
        cluster.submit_reaching(1, cmd.clone(), &[1, 2, 3]);
        cluster.crash(1);
        cluster.suspect(2, 1);
        let dot = Dot::new(1, 1);
        for id in 2..=5u32 {
            let info = cluster.replicas[(id - 1) as usize].info.get(&dot).unwrap();
            assert_eq!(info.phase, Phase::Commit, "replica {id}");
            let committed = info.cmd.as_ref().unwrap();
            assert!(!committed.is_noop(), "replica {id} committed a noOp");
            assert_eq!(committed.rifl, cmd.rifl);
            assert_eq!(
                cluster.executed.get(&id).map(Vec::len).unwrap_or(0),
                1,
                "replica {id} must execute the recovered command"
            );
        }
        assert!(cluster.replicas[1].metrics().recoveries >= 1);
    }

    #[test]
    fn recovery_noops_an_instance_nobody_saw() {
        // Replica 3 commits a command that depends on ⟨1,1⟩, which no live
        // replica ever saw (its coordinator died before the pre-accept went
        // out). Recovery must commit ⟨1,1⟩ as a noOp so the dependant
        // executes.
        let mut cluster = Cluster::new(5, 2);
        let missing = Dot::new(1, 1);
        let blocked = Dot::new(2, 1);
        let deps: HashSet<Dot> = [missing].into_iter().collect();
        let _ = cluster.replica(3).handle(
            2,
            Message::MCommit {
                dot: blocked,
                cmd: put(2, 1, 0),
                deps,
            },
            0,
        );
        assert!(!cluster.executed.contains_key(&3), "blocked on ⟨1,1⟩");
        cluster.crash(1);
        cluster.suspect(3, 1);
        let info = cluster.replicas[2].info.get(&missing).unwrap();
        assert_eq!(info.phase, Phase::Commit);
        assert!(info.cmd.as_ref().unwrap().is_noop());
        // The dependant executed; the noOp itself is never applied, but it
        // is counted.
        assert_eq!(cluster.executed.get(&3).unwrap(), &vec![blocked]);
        assert!(cluster.replicas[2].metrics().noops >= 1);
    }

    #[test]
    fn suspect_redispatch_resends_the_same_ballot() {
        // With the majority unreachable, recovery stalls mid-prepare. A
        // re-dispatched suspicion (the runtime repeats them while the peer
        // stays dead) must re-send the *same* prepare, not open a second
        // recovery ballot for the instance.
        let mut cluster = Cluster::new(5, 2);
        cluster.submit_reaching(1, put(1, 1, 0), &[1, 2]);
        cluster.crash(1);
        cluster.crash(4);
        cluster.crash(5);
        let dot = Dot::new(1, 1);
        cluster.suspect(2, 1);
        let first_ballot = cluster.replicas[1].info.get(&dot).unwrap().bal;
        assert!(first_ballot > 5, "a takeover ballot was opened");
        assert_eq!(cluster.replicas[1].metrics().recoveries, 1);
        cluster.suspect(2, 1);
        let info = cluster.replicas[1].info.get(&dot).unwrap();
        assert_eq!(info.bal, first_ballot, "re-dispatch opened a new ballot");
        assert_ne!(info.phase, Phase::Commit, "two replies cannot commit");
        assert_eq!(
            cluster.replicas[1].metrics().recoveries,
            1,
            "a re-sent prepare is not a new recovery"
        );
        // Once a third replica is reachable again, the re-sent prepare at
        // the same ballot completes the recovery.
        cluster.crashed.remove(&4);
        cluster.suspect(2, 1);
        let info = cluster.replicas[1].info.get(&dot).unwrap();
        assert_eq!(info.phase, Phase::Commit);
        assert!(!info.cmd.as_ref().unwrap().is_noop());
    }

    #[test]
    fn highest_accepted_ballot_wins_recovery() {
        // A proposal accepted at a ballot (a slow path or an earlier
        // recovery) must survive: the new coordinator adopts the value
        // accepted at the highest ballot, never a smaller pre-accept view.
        let mut cluster = Cluster::new(5, 2);
        let dot = Dot::new(1, 1);
        let cmd = put(1, 1, 3);
        let deps: HashSet<Dot> = [Dot::new(2, 9)].into_iter().collect();
        for id in [1u32, 2, 3] {
            let out = cluster.replica(id).handle(
                1,
                Message::MAccept {
                    dot,
                    cmd: cmd.clone(),
                    deps: deps.clone(),
                    ballot: 1,
                },
                0,
            );
            drop(out); // acks are lost
        }
        cluster.crash(1);
        // Replica 5 learns the identifier only as a missing dependency.
        let _ = cluster.replica(5).handle(
            2,
            Message::MCommit {
                dot: Dot::new(2, 5),
                cmd: put(2, 5, 7),
                deps: [dot].into_iter().collect(),
            },
            0,
        );
        cluster.suspect(5, 1);
        for id in [2u32, 3, 4, 5] {
            let info = cluster.replicas[(id - 1) as usize].info.get(&dot).unwrap();
            assert_eq!(info.phase, Phase::Commit, "replica {id}");
            assert_eq!(info.cmd.as_ref().unwrap().rifl, cmd.rifl);
            assert_eq!(info.deps, deps, "replica {id} lost the accepted deps");
        }
    }

    #[test]
    fn stale_recovery_messages_below_the_gc_floor_are_ignored() {
        // Regression: a Prepare (or its ack) for an instance that executed
        // at every replica and was garbage-collected must be ignored — not
        // panic, and not resurrect an empty info entry GC can never drop.
        let mut cluster = Cluster::new(3, 1);
        for seq in 1..=4u64 {
            cluster.submit(1, put(1, seq, 0));
        }
        let replica = cluster.replica(2);
        let horizon = replica.executed_watermarks();
        assert!(replica.gc_executed(&horizon) > 0);
        let tracked = replica.tracked_entries();
        let dot = Dot::new(1, 1);
        let out = replica.handle(
            3,
            Message::MPrepare {
                dot,
                cmd: Command::noop(),
                ballot: 99,
            },
            0,
        );
        assert!(out.is_empty(), "stale prepare must be dropped");
        let out = replica.handle(
            3,
            Message::MPrepareOk {
                dot,
                cmd: Command::noop(),
                deps: HashSet::new(),
                quorum: vec![],
                accepted_ballot: 0,
                ballot: 99,
            },
            0,
        );
        assert!(out.is_empty(), "stale prepare ack must be dropped");
        assert_eq!(
            replica.tracked_entries(),
            tracked,
            "a collected instance was resurrected"
        );
    }

    /// EPaxos recovery under realistic schedules, mirroring the Atlas
    /// sweep: commands stranded at random propagation stages, the
    /// coordinator crashed, and the survivors' concurrent recoveries
    /// delivered with random reordering, duplication and loss-to-the-dead —
    /// across many seeds, every survivor must commit the same
    /// `(command, dependencies)` per instance and execute in the same
    /// order.
    #[test]
    fn recovery_converges_under_reordering_and_duplication() {
        atlas_protocol::chaos::sweep(
            "epaxos-recovery-convergence",
            0xE9A05,
            0..25,
            recovery_chaos_at,
        );
    }

    /// One exact schedule from the sweep above, pinned in-tree so a chaos
    /// regression reproduces without re-sweeping.
    #[test]
    fn recovery_converges_at_pinned_seed() {
        recovery_chaos_at(0xE9A05 + 13);
    }

    /// The per-seed body of the EPaxos recovery chaos sweep.
    fn recovery_chaos_at(seed: u64) {
        use atlas_protocol::chaos::ChaosNet;
        use rand::Rng;
        {
            let mut net = ChaosNet::<EPaxos>::new(5, 2, seed);
            // A few conflicting commands stranded at random subsets of the
            // fast quorum {1,2,3,4}; coordinator 1 owns them all and then
            // crashes. The coordinator always processes its own MPreAccept
            // (self-addressed messages are delivered immediately), so
            // `survivor_reach` tracks who *else* saw each command.
            let stranded = net.rng().gen_range(1..=3u64);
            let mut survivor_reach: Vec<Vec<ProcessId>> = Vec::new();
            for seq in 1..=stranded {
                let reach_mask: [bool; 3] = [
                    net.rng().gen_bool(0.6),
                    net.rng().gen_bool(0.6),
                    net.rng().gen_bool(0.6),
                ];
                let survivors: Vec<ProcessId> = [2u32, 3, 4]
                    .into_iter()
                    .zip(reach_mask)
                    .filter(|(_, keep)| *keep)
                    .map(|(id, _)| id)
                    .collect();
                let mut reach = vec![1u32];
                reach.extend(&survivors);
                net.submit_reaching(1, put(1, seq, 0), &reach);
                survivor_reach.push(survivors);
            }
            // One fully propagated conflicting command from a survivor, so
            // there is always something blocked behind the stranded ones.
            net.submit(2, put(2, 1, 0));
            net.crash(1);

            // Every survivor suspects the coordinator, in random order,
            // twice — mirroring the runtime's periodic re-dispatch, since
            // recovering one command can surface further identifiers of
            // the dead coordinator.
            for _pass in 0..2 {
                let mut suspecters = vec![2u32, 3, 4, 5];
                while !suspecters.is_empty() {
                    let idx = net.rng().gen_range(0..suspecters.len());
                    let at = suspecters.swap_remove(idx);
                    net.suspect(at, 1);
                }
            }

            // Agreement: for every instance any survivor committed, all
            // survivors that committed it agree on command + dependencies.
            let mut by_dot: HashMap<Dot, (bool, HashSet<Dot>)> = HashMap::new();
            for replica in &net.replicas[1..] {
                for (dot, info) in &replica.info {
                    if info.phase != Phase::Commit {
                        continue;
                    }
                    let noop = info.cmd.as_ref().unwrap().is_noop();
                    let entry = by_dot
                        .entry(*dot)
                        .or_insert_with(|| (noop, info.deps.clone()));
                    assert_eq!(entry.0, noop, "seed {seed}: {dot:?} noop-ness differs");
                    assert_eq!(
                        entry.1, info.deps,
                        "seed {seed}: {dot:?} committed deps differ"
                    );
                }
            }
            // Every stranded instance that at least one survivor saw was
            // resolved by recovery.
            for seq in 1..=stranded {
                if !survivor_reach[(seq - 1) as usize].is_empty() {
                    assert!(
                        by_dot.contains_key(&Dot::new(1, seq)),
                        "seed {seed}: stranded dot ⟨1,{seq}⟩ (seen by {:?}) never committed",
                        survivor_reach[(seq - 1) as usize]
                    );
                }
            }
            // And the survivor's blocked command executed everywhere alive,
            // in the same order.
            let reference = net.executed_at(2);
            assert!(
                !reference.is_empty(),
                "seed {seed}: survivor 2 executed nothing"
            );
            for id in [3u32, 4, 5] {
                assert_eq!(
                    net.executed_at(id),
                    reference,
                    "seed {seed}: execution order diverges at {id}"
                );
            }
        }
    }
}
