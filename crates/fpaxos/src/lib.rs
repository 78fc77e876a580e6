//! # fpaxos
//!
//! Baseline: leader-based Multi-Paxos with **Flexible Paxos** quorums
//! (Howard et al., OPODIS 2016), as used in the Atlas paper's evaluation.
//!
//! * All commands are funnelled through a distinguished *leader*: a replica
//!   that receives a client command forwards it to the leader, which assigns
//!   it a slot in a totally ordered log.
//! * The leader replicates a slot with a phase-2 quorum of only `f + 1`
//!   replicas (itself included), in exchange for phase-1 (leader election)
//!   quorums of `n − f`.
//! * Commands execute in log order at every replica; the replica that
//!   proxied a command answers its client after executing it, which gives
//!   the four message delays on the critical path discussed in §5.4 of the
//!   paper (client → proxy → leader → quorum → leader → proxy).
//! * When the leader is suspected to have failed, the surviving replica with
//!   the smallest identifier elects itself by running phase 1 over `n − f`
//!   replicas, adopting the highest accepted value per slot and filling gaps
//!   with no-ops.
//!
//! Plain Paxos (majority quorums both ways) is obtained by instantiating the
//! protocol with `f = ⌊(n−1)/2⌋`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atlas_core::protocol::{Time, Transfer};
use atlas_core::view::EPOCH_BALLOT_STRIDE;
use atlas_core::{
    Action, ClusterView, Command, Config, Dot, ProcessId, Protocol, ProtocolMetrics, Rifl, Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Log slot index (1-based).
pub type Slot = u64;

/// Ballot number; encodes the leader identity (`ballot % n == leader - 1`).
pub type Ballot = u64;

/// Previously accepted entries reported in a phase-1 promise:
/// slot → (accepted ballot, command).
pub type PromisedEntries = BTreeMap<Slot, (Ballot, Command)>;

/// Wire messages of the FPaxos protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Proxy → leader: please order this command.
    MForward {
        /// The client command.
        cmd: Command,
    },
    /// Proxy → new leader: re-forward of a command whose original forward
    /// may have died with the previous leader. Unlike `MForward`, the
    /// leader first checks its log for the command's request identifier —
    /// the old leader may have proposed it before failing, in which case
    /// the election's gap-filling already carries it and re-proposing
    /// would execute it twice.
    MForwardRetry {
        /// The client command.
        cmd: Command,
    },
    /// Leader → phase-2 quorum: accept `cmd` at `slot`.
    MAccept {
        /// Log slot.
        slot: Slot,
        /// Leader ballot.
        ballot: Ballot,
        /// Command proposed for the slot (`noOp` to fill gaps on recovery).
        cmd: Command,
    },
    /// Acceptor → leader: accepted.
    MAccepted {
        /// Log slot.
        slot: Slot,
        /// Ballot being acknowledged.
        ballot: Ballot,
    },
    /// Leader → all: `slot` is decided.
    MCommit {
        /// Log slot.
        slot: Slot,
        /// Decided command.
        cmd: Command,
    },
    /// Candidate → all: phase-1 prepare for a new ballot.
    MPrepare {
        /// Candidate ballot.
        ballot: Ballot,
    },
    /// Acceptor → candidate: phase-1 promise with previously accepted
    /// entries.
    MPromise {
        /// Ballot being promised.
        ballot: Ballot,
        /// Previously accepted entries: slot → (accepted ballot, command).
        accepted: BTreeMap<Slot, (Ballot, Command)>,
    },
    /// New leader → all: a new ballot has been established; route commands to
    /// its owner from now on.
    MNewLeader {
        /// The winning ballot.
        ballot: Ballot,
    },
}

impl Message {
    /// Approximate wire size in bytes, used by the simulator's CPU model.
    pub fn size_bytes(&self) -> usize {
        const HEADER: usize = 32;
        match self {
            Message::MForward { cmd }
            | Message::MForwardRetry { cmd }
            | Message::MCommit { cmd, .. }
            | Message::MAccept { cmd, .. } => HEADER + cmd.payload_size,
            Message::MAccepted { .. } | Message::MPrepare { .. } | Message::MNewLeader { .. } => {
                HEADER
            }
            Message::MPromise { accepted, .. } => {
                HEADER
                    + accepted
                        .values()
                        .map(|(_, cmd)| cmd.payload_size + 16)
                        .sum::<usize>()
            }
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SlotState {
    ballot: Ballot,
    cmd: Command,
    acks: HashSet<ProcessId>,
    committed: bool,
}

/// A Flexible Paxos replica.
#[derive(Debug, Serialize, Deserialize)]
pub struct FPaxos {
    id: ProcessId,
    config: Config,
    topology: Topology,
    /// Highest ballot this replica has promised or accepted.
    ballot: Ballot,
    /// Ballot this replica believes is currently leading.
    leader_ballot: Ballot,
    /// Accepted (and possibly committed) entries, by slot.
    log: BTreeMap<Slot, SlotState>,
    /// Decided commands, by slot.
    decided: BTreeMap<Slot, Command>,
    /// Next slot the leader will assign.
    next_slot: Slot,
    /// Next slot this replica will execute.
    execute_next: Slot,
    /// Processes this replica believes have failed.
    suspected: HashSet<ProcessId>,
    /// Commands waiting to be forwarded once a leader is known (buffered
    /// during leader changes).
    pending_forward: Vec<Command>,
    /// Commands this replica forwarded to a leader and has not yet seen
    /// executed, by request identifier. On a leader change they are
    /// re-forwarded as [`Message::MForwardRetry`] — a forward in flight
    /// when the leader died would otherwise be lost forever, leaving its
    /// client waiting.
    in_flight: BTreeMap<Rifl, Command>,
    /// Phase-1 promises received while campaigning, keyed by ballot.
    promises: HashMap<Ballot, HashMap<ProcessId, PromisedEntries>>,
    /// Commit times per slot (for commit→execute metrics).
    commit_times: HashMap<Slot, Time>,
    /// Compaction floor: slots at or below it executed at **every** replica
    /// and were dropped from `log`/`decided` by [`Protocol::gc_executed`];
    /// messages about them are stragglers and are ignored.
    gc_floor: Slot,
    /// Highest slot seen in any role; kept separately from the trimmed maps
    /// so the seen horizon survives garbage collection.
    max_seen_slot: Slot,
    /// The configuration epoch this replica operates in.
    view: ClusterView,
    /// Member rings of recent epochs, oldest first. Ballots encode the
    /// leader by position in the ring of the epoch that minted them
    /// (`ballot / EPOCH_BALLOT_STRIDE`), so decoding a ballot adopted
    /// before a reconfiguration needs that epoch's ring — a leader that
    /// survives a membership change keeps riding its old ballot.
    rings: Vec<(u64, Vec<ProcessId>)>,
    metrics: ProtocolMetrics,
}

impl FPaxos {
    /// Records that `slot` exists (for the GC-surviving seen horizon).
    fn note_slot(&mut self, slot: Slot) {
        self.max_seen_slot = self.max_seen_slot.max(slot);
    }
    /// The member ring of `epoch` (falls back to the current member set for
    /// epochs whose ring has been forgotten).
    fn ring_of(&self, epoch: u64) -> Vec<ProcessId> {
        self.rings
            .iter()
            .rev()
            .find(|(e, _)| *e == epoch)
            .map(|(_, ring)| ring.clone())
            .unwrap_or_else(|| self.view.all_members())
    }

    /// The leader encoded by a ballot: its position in the ring of the
    /// epoch that minted the ballot. At epoch 0 with members `1..=n` this
    /// is the classic `(ballot % n) + 1`.
    fn ballot_leader(&self, ballot: Ballot) -> ProcessId {
        let epoch = ballot / EPOCH_BALLOT_STRIDE;
        let ring = self.ring_of(epoch);
        let off = (ballot % EPOCH_BALLOT_STRIDE) as usize % ring.len();
        ring[off]
    }

    /// The smallest ballot owned by `leader` that is strictly greater than
    /// `at_least`, minted in the **current** epoch (above its ballot floor,
    /// so cross-epoch ballots decode with the right ring).
    fn next_ballot_for(&self, leader: ProcessId, at_least: Ballot) -> Ballot {
        let ring = self.view.all_members();
        let len = ring.len() as Ballot;
        let base = ring.iter().position(|&p| p == leader).unwrap_or(0) as Ballot;
        let floor = self.view.ballot_floor();
        let mut round = at_least.saturating_sub(floor) / len;
        loop {
            let candidate = floor + round * len + base;
            if candidate > at_least {
                return candidate;
            }
            round += 1;
        }
    }

    /// Every process this replica talks to (all current members plus
    /// itself). Replaces `Action::broadcast(n, ..)`, whose `1..=n` targets
    /// are wrong once a reconfiguration makes identifiers non-contiguous.
    fn everyone(&self) -> Vec<ProcessId> {
        let mut all = self.topology.processes.clone();
        if !all.contains(&self.id) {
            all.push(self.id);
            all.sort_unstable();
        }
        all
    }

    /// Current leader according to this replica.
    pub fn current_leader(&self) -> ProcessId {
        self.ballot_leader(self.leader_ballot)
    }

    /// Whether this replica believes itself to be the leader.
    pub fn is_leader(&self) -> bool {
        self.current_leader() == self.id
    }

    /// The phase-2 quorum: the `f + 1` closest replicas (leader included),
    /// restricted to replicas not suspected of having failed.
    fn phase2_quorum(&self) -> Vec<ProcessId> {
        if self.view.is_joint() {
            // Joint window: the accept needs `f + 1` in both configurations;
            // send to everyone and let `handle_accepted`'s dual count decide.
            return self.everyone();
        }
        let alive: Vec<ProcessId> = self
            .topology
            .processes
            .iter()
            .copied()
            .filter(|p| !self.suspected.contains(p))
            .collect();
        self.topology
            .closest_alive_quorum(self.config.slow_quorum_size(), &alive)
            .unwrap_or_else(|| self.topology.closest_quorum(self.config.slow_quorum_size()))
    }

    /// Leader side: assign the next slot to `cmd` and replicate it.
    fn propose(&mut self, cmd: Command) -> Vec<Action<Message>> {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.note_slot(slot);
        let ballot = self.leader_ballot;
        self.log.insert(
            slot,
            SlotState {
                ballot,
                cmd: cmd.clone(),
                acks: HashSet::new(),
                committed: false,
            },
        );
        vec![Action::send(
            self.phase2_quorum(),
            Message::MAccept { slot, ballot, cmd },
        )]
    }

    fn handle_forward(&mut self, cmd: Command) -> Vec<Action<Message>> {
        if self.is_leader() {
            self.propose(cmd)
        } else {
            // Not the leader (e.g. a stale forward during a leader change):
            // re-forward to the current leader.
            vec![Action::send(
                [self.current_leader()],
                Message::MForward { cmd },
            )]
        }
    }

    /// A proxy re-forwarded `cmd` after a leader change. The previous
    /// leader may have proposed it before dying — and the election's
    /// gap-filling would then carry it into this leader's log — so the log
    /// is checked for the request identifier before proposing: a duplicate
    /// retry must not order (and execute) the command twice.
    fn handle_forward_retry(&mut self, cmd: Command) -> Vec<Action<Message>> {
        if !self.is_leader() {
            return vec![Action::send(
                [self.current_leader()],
                Message::MForwardRetry { cmd },
            )];
        }
        let rifl = cmd.rifl;
        let known = self.decided.values().any(|c| c.rifl == rifl)
            || self.log.values().any(|s| s.cmd.rifl == rifl);
        if known {
            // Already in the log (or decided): the normal replication /
            // commit flow answers the client; re-proposing would duplicate.
            return Vec::new();
        }
        self.propose(cmd)
    }

    /// Re-forwards every not-yet-executed forwarded command to the current
    /// leader, as retries. Called on leader change; until a command is seen
    /// executed, only this replica can guarantee it reaches *some* leader.
    fn reforward_in_flight(&mut self) -> Vec<Action<Message>> {
        let leader = self.current_leader();
        self.in_flight
            .values()
            .cloned()
            .map(|cmd| Action::send([leader], Message::MForwardRetry { cmd }))
            .collect()
    }

    fn handle_accept(
        &mut self,
        from: ProcessId,
        slot: Slot,
        ballot: Ballot,
        cmd: Command,
    ) -> Vec<Action<Message>> {
        if ballot < self.ballot || slot <= self.gc_floor {
            return Vec::new();
        }
        self.note_slot(slot);
        let mut actions = self.learn_leader(ballot);
        self.log.insert(
            slot,
            SlotState {
                ballot,
                cmd,
                acks: HashSet::new(),
                committed: false,
            },
        );
        actions.push(Action::send([from], Message::MAccepted { slot, ballot }));
        actions
    }

    /// Adopts `ballot` as the current leader ballot and re-routes any command
    /// buffered while the previous leader was suspected — plus, on an actual
    /// leader *change*, every forwarded-but-not-yet-executed command, whose
    /// original forward may have died with the old leader.
    fn learn_leader(&mut self, ballot: Ballot) -> Vec<Action<Message>> {
        self.ballot = self.ballot.max(ballot);
        if ballot < self.leader_ballot {
            return Vec::new();
        }
        let leader_changed = ballot > self.leader_ballot;
        self.leader_ballot = ballot;
        let pending = std::mem::take(&mut self.pending_forward);
        let mut actions = Vec::new();
        for cmd in pending {
            // Slow path: these commands stalled behind a leader election
            // and only proceed under the new ballot.
            self.metrics.slow_paths += 1;
            if self.is_leader() {
                actions.extend(self.propose(cmd));
            } else {
                actions.push(Action::send(
                    [self.current_leader()],
                    Message::MForward { cmd },
                ));
            }
        }
        if leader_changed {
            actions.extend(self.reforward_in_flight());
        }
        actions
    }

    fn handle_accepted(
        &mut self,
        from: ProcessId,
        slot: Slot,
        ballot: Ballot,
        time: Time,
    ) -> Vec<Action<Message>> {
        let view = self.view.clone();
        let base = self.config;
        let everyone = self.everyone();
        let Some(state) = self.log.get_mut(&slot) else {
            return Vec::new();
        };
        if state.ballot != ballot || state.committed || ballot != self.leader_ballot {
            return Vec::new();
        }
        state.acks.insert(from);
        // `f + 1` accepts in the current configuration — and, during the
        // joint window, in the outgoing one too.
        if !view.quorum_met(&state.acks, base, Config::slow_quorum_size) {
            return Vec::new();
        }
        state.committed = true;
        let cmd = state.cmd.clone();
        let mut actions = vec![Action::send(everyone, Message::MCommit { slot, cmd })];
        actions.extend(self.try_execute(time));
        actions
    }

    fn handle_commit(&mut self, slot: Slot, cmd: Command, time: Time) -> Vec<Action<Message>> {
        if self.decided.contains_key(&slot) || slot <= self.gc_floor {
            return Vec::new();
        }
        self.note_slot(slot);
        self.decided.insert(slot, cmd);
        self.metrics.commits += 1;
        self.commit_times.insert(slot, time);
        self.try_execute(time)
    }

    /// Executes decided slots in order, stopping at the first gap.
    fn try_execute(&mut self, time: Time) -> Vec<Action<Message>> {
        let mut actions = Vec::new();
        while let Some(cmd) = self.decided.get(&self.execute_next).cloned() {
            let slot = self.execute_next;
            self.execute_next += 1;
            self.metrics.executions += 1;
            if let Some(commit_time) = self.commit_times.remove(&slot) {
                self.metrics
                    .record_commit_to_execute(time.saturating_sub(commit_time));
            }
            if !cmd.is_noop() {
                // Executed: the forward provably reached a leader and was
                // ordered; no retry will ever be needed.
                self.in_flight.remove(&cmd.rifl);
                // Leader-based protocols have no per-command identifiers;
                // reuse the slot as a synthetic one for reporting purposes.
                let dot = Dot::new(self.current_leader(), slot);
                actions.push(Action::Execute { dot, cmd });
            }
        }
        actions
    }

    /// Starts a leader election for this replica (phase 1 over all replicas).
    fn campaign(&mut self) -> Vec<Action<Message>> {
        let ballot = self.next_ballot_for(self.id, self.ballot.max(self.leader_ballot));
        self.ballot = ballot;
        self.metrics.recoveries += 1;
        vec![Action::send(self.everyone(), Message::MPrepare { ballot })]
    }

    fn handle_prepare(&mut self, from: ProcessId, ballot: Ballot) -> Vec<Action<Message>> {
        if ballot < self.ballot {
            return Vec::new();
        }
        self.ballot = ballot;
        let accepted: BTreeMap<Slot, (Ballot, Command)> = self
            .log
            .iter()
            .map(|(slot, state)| (*slot, (state.ballot, state.cmd.clone())))
            .collect();
        vec![Action::send([from], Message::MPromise { ballot, accepted })]
    }

    fn handle_promise(
        &mut self,
        from: ProcessId,
        ballot: Ballot,
        accepted: BTreeMap<Slot, (Ballot, Command)>,
        time: Time,
    ) -> Vec<Action<Message>> {
        if ballot != self.ballot || self.leader_ballot == ballot {
            return Vec::new();
        }
        let view = self.view.clone();
        let base = self.config;
        let promises = self.promises.entry(ballot).or_default();
        promises.insert(from, accepted);
        // `n − f` promises in the current configuration — and, during the
        // joint window, in the outgoing one too, so every value accepted
        // under either configuration is visible to the new leader.
        let responder_set: HashSet<ProcessId> = promises.keys().copied().collect();
        if !view.quorum_met(&responder_set, base, Config::recovery_quorum_size) {
            return Vec::new();
        }
        // Elected: adopt the highest accepted value per slot, fill gaps with
        // noOps, and resume normal operation.
        let promises = promises.clone();
        self.leader_ballot = ballot;
        let mut actions = vec![Action::send(
            self.everyone(),
            Message::MNewLeader { ballot },
        )];
        let mut chosen: BTreeMap<Slot, (Ballot, Command)> = BTreeMap::new();
        for accepted in promises.values() {
            for (slot, (abal, cmd)) in accepted {
                match chosen.get(slot) {
                    Some((existing, _)) if existing >= abal => {}
                    _ => {
                        chosen.insert(*slot, (*abal, cmd.clone()));
                    }
                }
            }
        }
        let max_slot = chosen.keys().next_back().copied().unwrap_or(0);
        self.next_slot = self.next_slot.max(max_slot + 1);
        self.note_slot(max_slot);
        // Re-propose every known slot and fill unknown ones with noOps so
        // the log has no gaps. Slots at or below the GC floor executed at
        // every replica and need no re-proposal (their payloads are gone).
        for slot in (self.gc_floor + 1)..=max_slot {
            if self.decided.contains_key(&slot) {
                continue;
            }
            let cmd = chosen
                .get(&slot)
                .map(|(_, cmd)| cmd.clone())
                .unwrap_or_else(Command::noop);
            self.log.insert(
                slot,
                SlotState {
                    ballot,
                    cmd: cmd.clone(),
                    acks: HashSet::new(),
                    committed: false,
                },
            );
            actions.push(Action::send(
                self.phase2_quorum(),
                Message::MAccept { slot, ballot, cmd },
            ));
        }
        // Drain commands buffered while there was no leader, and re-route
        // this replica's own forwarded-but-unexecuted commands through the
        // dedupe path (the old leader may have proposed them; they would
        // then already sit in the rebuilt log above).
        let pending = std::mem::take(&mut self.pending_forward);
        for cmd in pending {
            actions.extend(self.propose(cmd));
        }
        let retries: Vec<Command> = self.in_flight.values().cloned().collect();
        for cmd in retries {
            actions.extend(self.handle_forward_retry(cmd));
        }
        let _ = time;
        actions
    }

    /// The base half of [`Protocol::install`]: adopts a peer's executed
    /// watermark and configuration, on a fresh replica only.
    fn install_base(&mut self, bytes: &[u8]) -> bool {
        type Base = (Slot, ClusterView, Vec<(u64, Vec<ProcessId>)>, Ballot);
        let Ok((watermark, view, rings, leader_ballot)) = bincode::deserialize::<Base>(bytes)
        else {
            return false;
        };
        if self.execute_next != 1 {
            return false; // only a fresh replica may adopt a peer's base
        }
        self.execute_next = watermark + 1;
        self.gc_floor = watermark;
        self.next_slot = self.next_slot.max(watermark + 1);
        self.note_slot(watermark);
        if view.epoch > self.view.epoch {
            self.config = view.config(self.config);
            self.topology = Topology::from_members(self.id, &view.all_members());
            self.rings = rings;
            self.view = view;
        }
        // Adopting the peer's *observed* leader ballot is pure learning —
        // no promise is made — and keeps a fresh joiner from forwarding
        // submissions to a long-deposed boot leader.
        self.leader_ballot = self.leader_ballot.max(leader_ballot);
        true
    }
}

impl Protocol for FPaxos {
    type Message = Message;

    fn name() -> &'static str {
        "fpaxos"
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        let leader = topology.leader.unwrap_or(1);
        let view = ClusterView::at(0, topology.processes.clone(), config.f);
        let ring = view.all_members();
        // The initial leader's first ballot is the smallest ballot it owns.
        let leader_ballot = ring.iter().position(|&p| p == leader).unwrap_or(0) as Ballot;
        let rings = vec![(0, ring)];
        Self {
            id,
            config,
            topology,
            ballot: leader_ballot,
            leader_ballot,
            log: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_slot: 1,
            execute_next: 1,
            suspected: HashSet::new(),
            pending_forward: Vec::new(),
            in_flight: BTreeMap::new(),
            promises: HashMap::new(),
            commit_times: HashMap::new(),
            gc_floor: 0,
            max_seen_slot: 0,
            view,
            rings,
            metrics: ProtocolMetrics::new(),
        }
    }

    fn id(&self) -> ProcessId {
        self.id
    }

    fn config(&self) -> Config {
        self.config
    }

    fn view(&self) -> &ClusterView {
        &self.view
    }

    // Path classification: FPaxos has no per-command fast quorum — "fast"
    // here means the command rode the steady-state leader (phase 2 only),
    // "slow" means it was caught by a leader change and waited for a
    // prepare phase (see `learn_leader`).
    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        if self.is_leader() {
            self.metrics.fast_paths += 1;
            self.propose(cmd)
        } else if self.suspected.contains(&self.current_leader()) {
            // Leader change in progress: buffer until a new leader is known.
            self.pending_forward.push(cmd);
            Vec::new()
        } else {
            self.metrics.fast_paths += 1;
            // Track the forward until it is seen executed, so a leader
            // change re-forwards it instead of losing it with the leader.
            self.in_flight.insert(cmd.rifl, cmd.clone());
            vec![Action::send(
                [self.current_leader()],
                Message::MForward { cmd },
            )]
        }
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        match msg {
            Message::MForward { cmd } => self.handle_forward(cmd),
            Message::MForwardRetry { cmd } => self.handle_forward_retry(cmd),
            Message::MAccept { slot, ballot, cmd } => self.handle_accept(from, slot, ballot, cmd),
            Message::MAccepted { slot, ballot } => self.handle_accepted(from, slot, ballot, time),
            Message::MCommit { slot, cmd } => self.handle_commit(slot, cmd, time),
            Message::MPrepare { ballot } => self.handle_prepare(from, ballot),
            Message::MPromise { ballot, accepted } => {
                self.handle_promise(from, ballot, accepted, time)
            }
            Message::MNewLeader { ballot } => {
                if ballot >= self.ballot {
                    self.learn_leader(ballot)
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        // One shared totally ordered log; report its contiguous executed
        // prefix under the sentinel space 0 (no replica has identifier 0).
        vec![(0, self.execute_next - 1)]
    }

    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        let Some(&(_, h)) = horizon.iter().find(|(space, _)| *space == 0) else {
            return 0;
        };
        // Never collect beyond what executed locally, whatever the caller
        // claims; idempotent past the current floor.
        let eff = h.min(self.execute_next.saturating_sub(1));
        if eff <= self.gc_floor {
            return 0;
        }
        self.gc_floor = eff;
        let mut dropped = 0u64;
        let keep = self.log.split_off(&(eff + 1));
        dropped += self.log.len() as u64;
        self.log = keep;
        let keep = self.decided.split_off(&(eff + 1));
        dropped += self.decided.len() as u64;
        self.decided = keep;
        self.commit_times.retain(|&slot, _| slot > eff);
        dropped
    }

    fn tracked_entries(&self) -> usize {
        self.log.len() + self.decided.len()
    }

    fn transfer(&self, _to: ProcessId) -> Transfer<Message> {
        // Watermark plus configuration: the view and ring history let a
        // joiner whose base covers an executed `Reconfigure` barrier decode
        // old-epoch leader ballots, and the observed leader ballot points
        // its submissions at the current leader immediately.
        let base = (
            self.execute_next - 1,
            self.view.clone(),
            self.rings.clone(),
            self.leader_ballot,
        );
        Transfer {
            // Slots are assigned centrally by the leader rather than per
            // process, so the horizon is the highest slot this replica has
            // seen in any role — tracked apart from the (GC-trimmed) maps.
            horizon: self.max_seen_slot,
            base: bincode::serialize(&base).expect("markers always encode"),
            // Slot order; noOp gap-fillers are included so the receiver's
            // in-order executor does not stall on them.
            log: self
                .decided
                .iter()
                .map(|(&slot, cmd)| Message::MCommit {
                    slot,
                    cmd: cmd.clone(),
                })
                .collect(),
        }
    }

    fn install(&mut self, horizon: u64, base: Option<&[u8]>) -> bool {
        let installed = base.is_none_or(|bytes| self.install_base(bytes));
        self.next_slot = self.next_slot.max(horizon + 1);
        installed
    }

    // Safe under the runtime detector's repeated dispatch: the suspected
    // set is idempotent, a non-leader suspicion stays inert, and
    // re-campaigning for a still-incomplete election merely reissues
    // MPrepare at a higher ballot (which doubles as lost-message
    // recovery). Trust restoration has no protocol hook — a falsely
    // suspected leader stays deposed, which ballots make safe.
    fn suspect(&mut self, suspected: ProcessId, _time: Time) -> Vec<Action<Message>> {
        if suspected == self.id {
            return Vec::new();
        }
        self.suspected.insert(suspected);
        if suspected != self.current_leader() {
            return Vec::new();
        }
        // The leader failed: the smallest-id surviving replica campaigns.
        let successor = self
            .topology
            .processes
            .iter()
            .copied()
            .filter(|p| !self.suspected.contains(p))
            .min();
        if successor == Some(self.id) {
            self.campaign()
        } else {
            Vec::new()
        }
    }

    fn metrics(&self) -> &ProtocolMetrics {
        &self.metrics
    }

    fn reconfigure(&mut self, view: &ClusterView, _time: Time) -> Vec<Action<Message>> {
        // Idempotence: apply only strictly newer views.
        if view.epoch <= self.view.epoch {
            return Vec::new();
        }
        let old_leader = self.current_leader();
        self.view = view.clone();
        self.config = view.config(self.config);
        self.topology = Topology::from_members(self.id, &view.all_members());
        self.rings.push((view.epoch, view.all_members()));
        if self.rings.len() > 4 {
            self.rings.remove(0);
        }
        let members = view.all_members();
        if !members.contains(&self.id) {
            // Removed replicas stop participating; the runtime retires them.
            return Vec::new();
        }
        self.suspected.retain(|p| members.contains(p));
        if members.contains(&old_leader) {
            // The leader survives the change and keeps riding its ballot
            // (the ring history decodes it); nothing to re-drive — accepts
            // in flight gather dual quorums via `handle_accepted`.
            return Vec::new();
        }
        // The leader was removed: mark it deposed so submissions buffer
        // until the election completes, then let the deterministic
        // successor (smallest live member) campaign above the new epoch's
        // ballot floor. Phase 1 re-proposes every undecided slot, which is
        // what re-drives the old leader's in-flight proposals.
        self.suspected.insert(old_leader);
        let successor = self
            .topology
            .processes
            .iter()
            .copied()
            .filter(|p| !self.suspected.contains(p))
            .min();
        if successor == Some(self.id) {
            self.campaign()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;

    struct Cluster {
        replicas: Vec<FPaxos>,
        executed: HashMap<ProcessId, Vec<Command>>,
        crashed: HashSet<ProcessId>,
    }

    impl Cluster {
        fn new(n: usize, f: usize, leader: ProcessId) -> Self {
            let config = Config::new(n, f);
            let replicas = (1..=n as ProcessId)
                .map(|id| {
                    let mut topology = Topology::identity(id, n);
                    topology.leader = Some(leader);
                    FPaxos::new(id, config, topology)
                })
                .collect();
            Self {
                replicas,
                executed: HashMap::new(),
                crashed: HashSet::new(),
            }
        }

        fn replica(&mut self, id: ProcessId) -> &mut FPaxos {
            &mut self.replicas[(id - 1) as usize]
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
                    Action::Execute { cmd, .. } => {
                        self.executed.entry(source).or_default().push(cmd);
                    }
                    Action::Commit { .. } => {}
                }
            }
        }

        fn submit(&mut self, at: ProcessId, cmd: Command) {
            let actions = self.replica(at).submit(cmd, 0);
            self.run(at, actions);
        }

        fn crash(&mut self, id: ProcessId) {
            self.crashed.insert(id);
        }

        fn suspect_everywhere(&mut self, suspected: ProcessId) {
            for id in 1..=self.replicas.len() as ProcessId {
                if self.crashed.contains(&id) {
                    continue;
                }
                let actions = self.replica(id).suspect(suspected, 0);
                self.run(id, actions);
            }
        }
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    #[test]
    fn leader_orders_commands_from_any_proxy() {
        let mut cluster = Cluster::new(5, 1, 1);
        cluster.submit(3, put(3, 1, 0));
        cluster.submit(5, put(5, 1, 0));
        cluster.submit(1, put(1, 1, 0));
        for id in 1..=5u32 {
            let executed = cluster.executed.get(&id).unwrap();
            assert_eq!(executed.len(), 3, "process {id}");
        }
        // Same order everywhere.
        let reference: Vec<Rifl> = cluster
            .executed
            .get(&1)
            .unwrap()
            .iter()
            .map(|c| c.rifl)
            .collect();
        for id in 2..=5u32 {
            let order: Vec<Rifl> = cluster
                .executed
                .get(&id)
                .unwrap()
                .iter()
                .map(|c| c.rifl)
                .collect();
            assert_eq!(order, reference);
        }
    }

    #[test]
    fn phase2_quorum_is_f_plus_one() {
        let config = Config::new(5, 1);
        assert_eq!(config.slow_quorum_size(), 2);
        let config = Config::new(5, 2);
        assert_eq!(config.slow_quorum_size(), 3);
    }

    #[test]
    fn non_leader_forwards_to_leader() {
        let mut cluster = Cluster::new(3, 1, 2);
        let actions = cluster.replica(1).submit(put(1, 1, 0), 0);
        match &actions[0] {
            Action::Send { targets, msg } => {
                assert_eq!(targets, &vec![2]);
                assert!(matches!(msg, Message::MForward { .. }));
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn leader_failover_elects_new_leader_and_continues() {
        let mut cluster = Cluster::new(3, 1, 1);
        cluster.submit(2, put(2, 1, 0));
        // Crash the leader; the surviving replicas elect a new one.
        cluster.crash(1);
        cluster.suspect_everywhere(1);
        assert!(cluster.replica(2).is_leader());
        assert_eq!(cluster.replica(3).current_leader(), 2);
        // New submissions still complete at the survivors.
        cluster.submit(3, put(3, 1, 0));
        cluster.submit(2, put(2, 2, 0));
        assert_eq!(cluster.executed.get(&2).unwrap().len(), 3);
        assert_eq!(cluster.executed.get(&3).unwrap().len(), 3);
    }

    #[test]
    fn failover_preserves_previously_executed_commands() {
        let mut cluster = Cluster::new(5, 2, 1);
        for seq in 1..=5 {
            cluster.submit(2, put(2, seq, 0));
        }
        cluster.crash(1);
        cluster.suspect_everywhere(1);
        cluster.submit(3, put(3, 1, 0));
        // The five pre-crash commands plus the new one execute at survivors
        // in the same order.
        let reference: Vec<Rifl> = cluster
            .executed
            .get(&2)
            .unwrap()
            .iter()
            .map(|c| c.rifl)
            .collect();
        assert_eq!(reference.len(), 6);
        for id in 3..=5u32 {
            let order: Vec<Rifl> = cluster
                .executed
                .get(&id)
                .unwrap()
                .iter()
                .map(|c| c.rifl)
                .collect();
            assert_eq!(order, reference, "process {id}");
        }
    }

    #[test]
    fn in_flight_forward_lost_with_the_leader_is_reforwarded() {
        // Replica 3 forwards a command to leader 1, but the forward dies
        // with the leader before being proposed. After failover the proxy
        // must re-forward it to the new leader — before this existed, the
        // command (and its client) hung forever.
        let mut cluster = Cluster::new(3, 1, 1);
        let cmd = put(3, 1, 0);
        let actions = cluster.replica(3).submit(cmd.clone(), 0);
        drop(actions); // the MForward is lost in flight
        cluster.crash(1);
        cluster.suspect_everywhere(1);
        let executed: Vec<Rifl> = cluster
            .executed
            .get(&3)
            .map(|cmds| cmds.iter().map(|c| c.rifl).collect())
            .unwrap_or_default();
        assert_eq!(
            executed,
            vec![cmd.rifl],
            "the re-forwarded command must execute after failover"
        );
    }

    #[test]
    fn retry_of_a_command_the_old_leader_proposed_is_not_duplicated() {
        // Leader 1 proposed the forwarded command and an acceptor stored
        // it before 1 died; the election's gap-filling re-proposes it. The
        // proxy's retry must then be deduplicated by rifl, or the command
        // would be ordered (and executed) twice.
        let mut cluster = Cluster::new(3, 1, 1);
        let cmd = put(3, 1, 0);
        let forward = cluster.replica(3).submit(cmd.clone(), 0);
        // Deliver the forward to leader 1; its MAccept reaches acceptor 2,
        // whose ack is lost.
        let Action::Send { msg, .. } = &forward[0] else {
            panic!("expected the forward send");
        };
        let accepts = cluster.replica(1).handle(3, msg.clone(), 0);
        for action in accepts {
            if let Action::Send { targets, msg } = action {
                if targets.contains(&2) {
                    let _ = cluster.replica(2).handle(1, msg, 0);
                }
            }
        }
        cluster.crash(1);
        cluster.suspect_everywhere(1);
        for id in 2..=3u32 {
            let executed: Vec<Rifl> = cluster
                .executed
                .get(&id)
                .map(|cmds| cmds.iter().map(|c| c.rifl).collect())
                .unwrap_or_default();
            assert_eq!(
                executed,
                vec![cmd.rifl],
                "replica {id}: the command must execute exactly once"
            );
        }
    }

    #[test]
    fn commands_buffered_during_leader_change_are_not_lost() {
        let mut cluster = Cluster::new(3, 1, 1);
        cluster.crash(1);
        // Replica 3 suspects the leader before a new one is elected and
        // buffers its submission.
        let actions = cluster.replica(3).suspect(1, 0);
        cluster.run(3, actions);
        let actions = cluster.replica(3).submit(put(3, 1, 0), 0);
        assert!(actions.is_empty() || !cluster.executed.contains_key(&3));
        cluster.run(3, actions);
        // Once replica 2 campaigns and wins, new commands flow again.
        cluster.suspect_everywhere(1);
        cluster.submit(3, put(3, 2, 0));
        let executed = cluster.executed.get(&3).unwrap();
        assert!(!executed.is_empty());
    }
}
