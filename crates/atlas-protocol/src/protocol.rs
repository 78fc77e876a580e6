//! The Atlas replica state machine: failure-free protocol (Algorithm 1) plus
//! the execution loop (Algorithm 3). The recovery path (Algorithm 2) lives in
//! the crate-private `recovery` module.

use crate::graph::DependencyGraph;
use crate::keydeps::KeyDeps;
use crate::messages::{Ballot, Message};
use crate::recovery::RecAck;
use atlas_core::protocol::Time;
use atlas_core::{
    Action, ClusterView, Command, Config, Dot, DotGen, ProcessId, Protocol, ProtocolMetrics,
    Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Progress of a command identifier at this replica (paper §3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Nothing known beyond possibly the identifier itself.
    Start,
    /// The replica has processed the `MCollect` for this identifier.
    Collect,
    /// A recovery coordinator has taken over this identifier.
    Recover,
    /// Final command and dependencies are known.
    Commit,
    /// The command has been applied to the local state machine.
    Execute,
}

/// Per-identifier bookkeeping (the mappings at the bottom of Algorithm 1/4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Info {
    pub phase: Phase,
    pub cmd: Option<Command>,
    pub deps: HashSet<Dot>,
    /// Fast quorum chosen by the initial coordinator (empty if unknown).
    pub quorum: Vec<ProcessId>,
    /// Current ballot this replica participates in (`bal`).
    pub bal: Ballot,
    /// Last ballot at which a consensus proposal was accepted (`abal`).
    pub abal: Ballot,
    /// Coordinator side: `MCollectAck` replies received so far.
    pub collect_acks: HashMap<ProcessId, HashSet<Dot>>,
    /// Proposer side: `MConsensusAck` senders, per ballot.
    pub consensus_acks: HashMap<Ballot, HashSet<ProcessId>>,
    /// Recovery coordinator side: `MRecAck` replies, per ballot.
    pub rec_acks: HashMap<Ballot, HashMap<ProcessId, RecAck>>,
    /// Recovery coordinator side: the proposal computed for each ballot
    /// this replica led. Replies beyond the recovery quorum re-send the
    /// memoized proposal instead of re-deriving one — a straggling
    /// `MRecAck` could otherwise grow the union and make the same ballot
    /// carry two different values, which is unsound Paxos.
    pub rec_proposed: HashMap<Ballot, (Command, HashSet<Dot>)>,
    /// Whether an `MCommit` has already been broadcast by this replica for
    /// this identifier (prevents duplicate commits by the same proposer).
    pub committed_sent: bool,
    /// Whether the coordinator already decided between fast and slow path
    /// for this identifier (prevents reprocessing duplicate collect acks).
    pub collect_decided: bool,
}

impl Info {
    fn new() -> Self {
        Self {
            phase: Phase::Start,
            cmd: None,
            deps: HashSet::new(),
            quorum: Vec::new(),
            bal: 0,
            abal: 0,
            collect_acks: HashMap::new(),
            consensus_acks: HashMap::new(),
            rec_acks: HashMap::new(),
            rec_proposed: HashMap::new(),
            committed_sent: false,
            collect_decided: false,
        }
    }
}

/// An Atlas replica.
///
/// Drive it through the [`Protocol`] trait: [`Protocol::submit`] makes this
/// replica the initial coordinator of a command, [`Protocol::handle`]
/// processes a message from a peer, and [`Protocol::suspect`] triggers
/// recovery of a failed peer's in-flight commands. A runtime snapshots the
/// whole replica through serde (every field below, including the conflict
/// index and the execution graph, round-trips).
#[derive(Debug, Serialize, Deserialize)]
pub struct Atlas {
    pub(crate) id: ProcessId,
    pub(crate) config: Config,
    pub(crate) topology: Topology,
    pub(crate) dot_gen: DotGen,
    pub(crate) key_deps: KeyDeps,
    pub(crate) info: HashMap<Dot, Info>,
    pub(crate) graph: DependencyGraph,
    pub(crate) metrics: ProtocolMetrics,
    /// Local commit time per identifier, to measure commit→execute delay.
    pub(crate) commit_times: HashMap<Dot, Time>,
    /// Highest identifier sequence seen per source. Kept separately from
    /// the `info` keys so [`Protocol::seen_horizon`] survives garbage
    /// collection of executed entries — the horizon protects identifier
    /// reissue, not replay, so it must never shrink.
    pub(crate) seen: HashMap<ProcessId, u64>,
    /// The configuration epoch this replica operates in. `config` and
    /// `topology` always mirror it (in the joint window `topology` spans
    /// the union of both member sets).
    pub(crate) view: ClusterView,
}

impl Atlas {
    pub(crate) fn info_mut(&mut self, dot: Dot) -> &mut Info {
        let seen = self.seen.entry(dot.source).or_insert(0);
        *seen = (*seen).max(dot.seq);
        self.info.entry(dot).or_insert_with(Info::new)
    }

    /// Whether `dot` sits at or below the GC floor: committed and executed
    /// by **every** replica, with its bookkeeping dropped here. Messages
    /// about such identifiers (duplicates, stragglers, recovery probes) are
    /// ignored exactly as a terminal-phase entry would ignore them — no
    /// replica can still be waiting on them.
    pub(crate) fn collected(&self, dot: &Dot) -> bool {
        dot.seq <= self.graph.floor_of(dot.source)
    }

    /// The fast quorum for a regular command: the `⌊n/2⌋ + f` closest
    /// processes, including this coordinator (paper §3.2.2).
    fn fast_quorum(&self) -> Vec<ProcessId> {
        self.topology
            .closest_quorum(self.config.atlas_fast_quorum_size())
    }

    /// The fast quorum for an NFR read: a plain majority (paper §4).
    fn read_quorum(&self) -> Vec<ProcessId> {
        self.topology.closest_quorum(self.config.majority())
    }

    /// The slow quorum: the `f + 1` closest processes, including this
    /// coordinator (paper §3.2.3).
    fn slow_quorum(&self) -> Vec<ProcessId> {
        self.topology.closest_quorum(self.config.slow_quorum_size())
    }

    /// Every process this replica talks to (the current members — in the
    /// joint window, of both configurations — plus itself). Replaces
    /// `Action::broadcast(n, ..)`, whose `1..=n` targets are wrong once a
    /// reconfiguration makes identifiers non-contiguous.
    pub(crate) fn everyone(&self) -> Vec<ProcessId> {
        let mut all = self.topology.processes.clone();
        if !all.contains(&self.id) {
            all.push(self.id);
            all.sort_unstable();
        }
        all
    }

    /// Threshold union `⋃_f Q dep`: the identifiers reported by at least `f`
    /// fast-quorum processes (paper §3.2.4).
    fn threshold_union(acks: &HashMap<ProcessId, HashSet<Dot>>, f: usize) -> HashSet<Dot> {
        let mut counts: HashMap<Dot, usize> = HashMap::new();
        for deps in acks.values() {
            for dot in deps {
                *counts.entry(*dot).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .filter(|(_, count)| *count >= f)
            .map(|(dot, _)| dot)
            .collect()
    }

    /// Plain union `⋃ Q dep` of all reported dependency sets.
    fn union(acks: &HashMap<ProcessId, HashSet<Dot>>) -> HashSet<Dot> {
        let mut union = HashSet::new();
        for deps in acks.values() {
            union.extend(deps.iter().copied());
        }
        union
    }

    /// Handles `MCollect` (Algorithm 1, line 6).
    fn handle_collect(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        past: HashSet<Dot>,
        quorum: Vec<ProcessId>,
    ) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase != Phase::Start {
            // Either recovery already took over (Recover), or the command is
            // already committed here; in both cases the MCollect is stale.
            return Vec::new();
        }
        // Compute this replica's contribution to the dependencies: local
        // conflicts combined with the coordinator's `past` (line 8), and
        // record the command so later commands depend on it. NFR reads are
        // excluded from the dependencies of later commands, which
        // `KeyDeps::add` takes care of.
        let mut deps = self.key_deps.conflicts(&cmd);
        deps.extend(past);
        self.key_deps.add(dot, &cmd);
        deps.remove(&dot);

        let info = self.info_mut(dot);
        info.phase = Phase::Collect;
        info.cmd = Some(cmd);
        info.quorum = quorum;
        info.deps = deps.clone();
        vec![Action::send([from], Message::MCollectAck { dot, deps })]
    }

    /// Handles `MCollectAck` at the initial coordinator (Algorithm 1,
    /// line 12).
    fn handle_collect_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        deps: HashSet<Dot>,
        time: Time,
    ) -> Vec<Action<Message>> {
        let f = self.config.f;
        let slow_path_pruning = self.config.slow_path_pruning;
        let nfr = self.config.nfr;
        let view = self.view.clone();
        let base = self.config;
        let everyone = self.everyone();
        let slow_quorum = if view.is_joint() {
            // Joint window: the accept phase needs `f + 1` in *both*
            // configurations, and the closest-quorum prefix cannot know
            // which subset satisfies that — send to everyone and let
            // `handle_consensus_ack`'s dual count decide.
            everyone.clone()
        } else {
            self.slow_quorum()
        };
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new();
        };
        // Precondition: still in the collect phase (a recovery or a commit
        // invalidates the fast path, line 13) and a decision has not been
        // taken yet (guards against duplicate deliveries).
        if info.phase != Phase::Collect || dot.coordinator() != self.id || info.collect_decided {
            return Vec::new();
        }
        if !info.quorum.contains(&from) {
            return Vec::new();
        }
        info.collect_acks.insert(from, deps);
        let ready = if view.is_joint() {
            // Joint window: a majority of each configuration — any two
            // collect quorums still intersect in both, which is what keeps
            // conflicting commands visible to each other. Waiting for the
            // full union would deadlock on the dead member a swap removes.
            let have: HashSet<ProcessId> = info.collect_acks.keys().copied().collect();
            view.quorum_met(&have, base, Config::majority)
        } else {
            info.collect_acks.len() >= info.quorum.len()
        };
        if !ready {
            return Vec::new();
        }
        // Mark the collect phase as decided so duplicate acks are ignored.
        info.collect_decided = true;

        // All fast-quorum members replied: decide between fast and slow path.
        let union = Self::union(&info.collect_acks);
        let cmd = info.cmd.clone().expect("collect phase stores the command");
        // The fast path is disabled inside the joint window: its recovery
        // argument (threshold union over the fast quorum) holds per
        // configuration, not across two of them, so every joint-window
        // command runs consensus at dual quorums instead.
        let is_nfr_read = nfr && cmd.is_read_only() && !view.is_joint();
        let threshold = Self::threshold_union(&info.collect_acks, f);
        let fast_path = !view.is_joint() && (is_nfr_read || union == threshold);

        if fast_path {
            // Fast path (line 16): commit after a single round trip.
            self.metrics.fast_paths += 1;
            let deps = union;
            let mut actions = vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })];
            actions.extend(self.noop_actions(time));
            actions
        } else {
            // Slow path (lines 17-19): run consensus on the dependencies.
            // With the pruning optimization (§4) the proposal is ⋃_f instead
            // of ⋃, dropping dependencies reported by fewer than f members.
            // The pruning argument is fast-quorum-shaped, so the joint
            // window always proposes the plain union.
            self.metrics.slow_paths += 1;
            let proposal = if slow_path_pruning && !view.is_joint() {
                threshold
            } else {
                union
            };
            let ballot = self.id as Ballot;
            vec![Action::send(
                slow_quorum,
                Message::MConsensus {
                    dot,
                    cmd,
                    deps: proposal,
                    ballot,
                },
            )]
        }
    }

    /// Handles `MConsensus` (Algorithm 1, line 20) — Paxos phase-2 accept.
    fn handle_consensus(
        &mut self,
        from: ProcessId,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        ballot: Ballot,
    ) -> Vec<Action<Message>> {
        if self.collected(&dot) {
            // Executed everywhere and garbage-collected: the proposer has
            // it too (the GC horizon is all-executed), so no short-circuit
            // MCommit is needed — or possible, the payload is gone.
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit || info.phase == Phase::Execute {
            // Already decided: tell the proposer.
            let cmd = info.cmd.clone().expect("committed command is known");
            let deps = info.deps.clone();
            return vec![Action::send([from], Message::MCommit { dot, cmd, deps })];
        }
        if info.bal > ballot {
            return Vec::new();
        }
        info.cmd = Some(cmd);
        info.deps = deps;
        info.bal = ballot;
        info.abal = ballot;
        vec![Action::send([from], Message::MConsensusAck { dot, ballot })]
    }

    /// Handles `MConsensusAck` at the proposer (Algorithm 1, line 25).
    fn handle_consensus_ack(
        &mut self,
        from: ProcessId,
        dot: Dot,
        ballot: Ballot,
        time: Time,
    ) -> Vec<Action<Message>> {
        let view = self.view.clone();
        let base = self.config;
        let everyone = self.everyone();
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new();
        };
        // Precondition: we are still at the ballot we proposed.
        if info.bal != ballot || info.committed_sent {
            return Vec::new();
        }
        let acks = info.consensus_acks.entry(ballot).or_default();
        acks.insert(from);
        // `f + 1` accepts in the current configuration — and, during the
        // joint window, in the outgoing one too.
        if !view.quorum_met(acks, base, Config::slow_quorum_size) {
            return Vec::new();
        }
        // The proposal survives f failures: commit it.
        info.committed_sent = true;
        let cmd = info
            .cmd
            .clone()
            .expect("accepted proposal stores the command");
        let deps = info.deps.clone();
        let mut actions = vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })];
        actions.extend(self.noop_actions(time));
        actions
    }

    /// Handles `MCommit` (Algorithm 1, line 28) and runs the execution loop.
    pub(crate) fn handle_commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        time: Time,
    ) -> Vec<Action<Message>> {
        if self.graph.is_executed(&dot) {
            // Already executed here: either a garbage-collected entry (the
            // graph's floor implies it) or one covered by a catch-up base
            // marker, where no `info` entry exists to dedupe through. A
            // duplicate commit must not resurrect bookkeeping.
            return Vec::new();
        }
        {
            let info = self.info_mut(dot);
            if info.phase == Phase::Commit || info.phase == Phase::Execute {
                return Vec::new();
            }
            info.phase = Phase::Commit;
            info.cmd = Some(cmd.clone());
            info.deps = deps.clone();
        }
        // Make sure later commands observe this one as a conflict even if
        // this replica was not in its fast quorum.
        self.key_deps.add(dot, &cmd);
        self.metrics.commits += 1;
        if cmd.is_noop() {
            self.metrics.noops += 1;
        }
        self.metrics.record_dependencies(deps.len());
        self.commit_times.insert(dot, time);

        let executed =
            self.graph
                .commit_recording(dot, cmd, deps.into_iter().collect(), &mut self.metrics);
        self.process_executions(executed, time)
    }

    /// Converts a batch returned by the dependency graph into `Execute`
    /// actions and records execution metrics.
    pub(crate) fn process_executions(
        &mut self,
        executed: Vec<(Dot, Command)>,
        time: Time,
    ) -> Vec<Action<Message>> {
        let mut actions = Vec::with_capacity(executed.len() + 1);
        for (dot, cmd) in executed {
            if let Some(info) = self.info.get_mut(&dot) {
                info.phase = Phase::Execute;
            }
            self.metrics.executions += 1;
            if let Some(commit_time) = self.commit_times.remove(&dot) {
                self.metrics
                    .record_commit_to_execute(time.saturating_sub(commit_time));
            }
            actions.push(Action::Execute { dot, cmd });
        }
        actions
    }

    /// No extra actions are needed after a commit broadcast; kept as a hook
    /// so both commit paths share the same shape.
    fn noop_actions(&mut self, _time: Time) -> Vec<Action<Message>> {
        Vec::new()
    }
}

impl Protocol for Atlas {
    type Message = Message;

    fn name() -> &'static str {
        "atlas"
    }

    fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        assert!(
            topology.processes.len() == config.n,
            "topology lists {} processes but config.n = {}",
            topology.processes.len(),
            config.n
        );
        let view = ClusterView::at(0, topology.processes.clone(), config.f);
        Self {
            id,
            config,
            topology,
            dot_gen: DotGen::new(id),
            key_deps: KeyDeps::new(config.nfr),
            info: HashMap::new(),
            graph: DependencyGraph::new(),
            metrics: ProtocolMetrics::new(),
            commit_times: HashMap::new(),
            seen: HashMap::new(),
            view,
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

    fn submit(&mut self, cmd: Command, _time: Time) -> Vec<Action<Message>> {
        // Algorithm 1, lines 1-5. The coordinator's own dependency
        // contribution is produced when it handles its own MCollect (the
        // runtime delivers self-addressed messages immediately), so `past`
        // here is what the paper calls conflicts(c) at submission time.
        let dot = self.dot_gen.next_dot();
        let past = self.key_deps.conflicts(&cmd);
        let quorum = if self.view.is_joint() {
            // Joint window: collect from everyone and decide on a dual
            // majority (see `handle_collect_ack`); the closest-quorum draw
            // below cannot name a set that is safe in both configurations.
            self.everyone()
        } else if self.config.nfr && cmd.is_read_only() {
            self.read_quorum()
        } else {
            self.fast_quorum()
        };
        vec![Action::send(
            quorum.clone(),
            Message::MCollect {
                dot,
                cmd,
                past,
                quorum,
            },
        )]
    }

    fn message_size(msg: &Message) -> usize {
        msg.size_bytes()
    }

    fn handle(&mut self, from: ProcessId, msg: Message, time: Time) -> Vec<Action<Message>> {
        match msg {
            Message::MCollect {
                dot,
                cmd,
                past,
                quorum,
            } => self.handle_collect(from, dot, cmd, past, quorum),
            Message::MCollectAck { dot, deps } => self.handle_collect_ack(from, dot, deps, time),
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            } => self.handle_consensus(from, dot, cmd, deps, ballot),
            Message::MConsensusAck { dot, ballot } => {
                self.handle_consensus_ack(from, dot, ballot, time)
            }
            Message::MCommit { dot, cmd, deps } => self.handle_commit(dot, cmd, deps, time),
            Message::MRec { dot, cmd, ballot } => self.handle_rec(from, dot, cmd, ballot),
            Message::MRecAck {
                dot,
                cmd,
                deps,
                quorum,
                accepted_ballot,
                ballot,
            } => self.handle_rec_ack(from, dot, cmd, deps, quorum, accepted_ballot, ballot),
        }
    }

    fn suspect(&mut self, suspected: ProcessId, time: Time) -> Vec<Action<Message>> {
        self.recover_suspected(suspected, time)
    }

    fn committed_log(&self) -> Vec<Message> {
        let mut commits: Vec<(Dot, Message)> = self
            .info
            .iter()
            .filter(|(_, info)| matches!(info.phase, Phase::Commit | Phase::Execute))
            .filter_map(|(dot, info)| {
                Some((
                    *dot,
                    Message::MCommit {
                        dot: *dot,
                        cmd: info.cmd.clone()?,
                        deps: info.deps.clone(),
                    },
                ))
            })
            .collect();
        commits.sort_by_key(|(dot, _)| *dot);
        commits.into_iter().map(|(_, msg)| msg).collect()
    }

    fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        // Dense over every process so the runtime's pointwise minimum can
        // tell "nothing executed from this source yet" (watermark 0) apart
        // from "this replica never reported".
        // The union with `seen` keeps reporting the identifier spaces of
        // members a reconfiguration removed, so their leftover entries can
        // still be collected once every current replica has executed them.
        let mut spaces: Vec<ProcessId> = self.topology.processes.clone();
        spaces.extend(self.seen.keys().copied());
        spaces.sort_unstable();
        spaces.dedup();
        let mut watermarks: Vec<(ProcessId, u64)> = spaces
            .into_iter()
            .map(|p| (p, self.graph.executed_frontier(p)))
            .collect();
        watermarks.sort_unstable();
        watermarks
    }

    fn gc_executed(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        self.graph.compact_below(horizon);
        // Drop the per-command bookkeeping of everything at or below the
        // graph's (frontier-clamped) floor; by construction of the horizon
        // those entries are executed at every replica. All of them, not
        // only terminal phases: the only non-terminal entries that can sit
        // below the floor are empty shells a straggler ack resurrected
        // after an earlier collection, and keeping those would leak.
        let before = self.info.len();
        let graph = &self.graph;
        self.info
            .retain(|dot, _| dot.seq > graph.floor_of(dot.source));
        let dropped = (before - self.info.len()) as u64;
        self.key_deps.prune_below(horizon);
        dropped
    }

    fn save_executed(&self) -> Vec<u8> {
        // The view rides along so a bootstrap base that covers an executed
        // `Reconfigure` barrier still hands the joiner the configuration it
        // must gather quorums in (the message tail only replays what the
        // base does not cover).
        let marker = (self.graph.executed_marker(), self.view.clone());
        bincode::serialize(&marker).expect("markers always encode")
    }

    fn restore_executed(&mut self, marker: &[u8]) -> bool {
        let Ok((marker, view)) =
            bincode::deserialize::<(crate::graph::ExecutedMarker, ClusterView)>(marker)
        else {
            return false;
        };
        if !self.graph.restore_marker(&marker) {
            return false;
        }
        if view.epoch > self.view.epoch {
            self.config = view.config(self.config);
            self.topology = Topology::from_members(self.id, &view.all_members());
            self.view = view;
        }
        // The marked identifiers were seen (they executed); fold them into
        // the seen horizon so this replica's reports protect them too.
        for &(source, frontier) in &marker.frontiers {
            let seen = self.seen.entry(source).or_insert(0);
            *seen = (*seen).max(frontier);
        }
        for dot in &marker.above {
            let seen = self.seen.entry(dot.source).or_insert(0);
            *seen = (*seen).max(dot.seq);
        }
        true
    }

    fn tracked_entries(&self) -> usize {
        self.info.len()
    }

    fn seen_horizon(&self, source: ProcessId) -> u64 {
        self.seen.get(&source).copied().unwrap_or(0)
    }

    fn advance_identifiers(&mut self, past: u64) {
        self.dot_gen.advance_past(past);
    }

    fn metrics(&self) -> &ProtocolMetrics {
        &self.metrics
    }

    fn reconfigure(&mut self, view: &ClusterView, time: Time) -> Vec<Action<Message>> {
        // Idempotence: apply only strictly newer views (the runtime may
        // deliver the same epoch both via the log barrier and a journaled
        // epoch record on replay).
        if view.epoch <= self.view.epoch {
            return Vec::new();
        }
        self.view = view.clone();
        self.config = view.config(self.config);
        self.topology = Topology::from_members(self.id, &view.all_members());
        if !view.all_members().contains(&self.id) {
            // Removed replicas stop driving proposals; the runtime retires
            // them shortly after.
            return Vec::new();
        }
        // Liveness across the switch: re-drive every in-flight proposal this
        // replica coordinates, plus any whose coordinator the new view
        // dropped (nobody else will finish those), through the recovery
        // path — its consensus gathers quorums under the *new* view. Sorted
        // for replay determinism.
        let members = self.view.all_members();
        let mut stuck: Vec<Dot> = self
            .info
            .iter()
            .filter(|(_, info)| !matches!(info.phase, Phase::Commit | Phase::Execute))
            .filter(|(dot, _)| {
                dot.coordinator() == self.id || !members.contains(&dot.coordinator())
            })
            .map(|(dot, _)| *dot)
            .collect();
        stuck.sort_unstable();
        let mut actions = Vec::new();
        for dot in stuck {
            actions.extend(self.recover(dot, time));
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;

    /// Drives a full cluster of Atlas replicas in-memory, delivering messages
    /// immediately (self messages first), in deterministic order.
    #[allow(dead_code)]
    pub(crate) struct TestCluster {
        pub replicas: Vec<Atlas>,
        pub executed: HashMap<ProcessId, Vec<(Dot, Command)>>,
        /// Messages dropped instead of delivered (crashed processes).
        pub crashed: HashSet<ProcessId>,
    }

    #[allow(dead_code)]
    impl TestCluster {
        pub fn new(n: usize, f: usize) -> Self {
            Self::with_config(Config::new(n, f))
        }

        pub fn with_config(config: Config) -> Self {
            let replicas = (1..=config.n as ProcessId)
                .map(|id| Atlas::new(id, config, Topology::identity(id, config.n)))
                .collect();
            Self {
                replicas,
                executed: HashMap::new(),
                crashed: HashSet::new(),
            }
        }

        pub fn crash(&mut self, id: ProcessId) {
            self.crashed.insert(id);
        }

        fn replica(&mut self, id: ProcessId) -> &mut Atlas {
            &mut self.replicas[(id - 1) as usize]
        }

        /// Runs `actions` produced by `source` to completion, breadth-first.
        pub fn run(&mut self, source: ProcessId, actions: Vec<Action<Message>>) {
            let mut queue: Vec<(ProcessId, ProcessId, Message)> = Vec::new();
            self.enqueue(source, actions, &mut queue);
            while !queue.is_empty() {
                let (from, to, msg) = queue.remove(0);
                if self.crashed.contains(&to) || self.crashed.contains(&from) {
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
                        // Deliver self-addressed messages first.
                        let mut targets = targets;
                        targets.sort_by_key(|t| if *t == source { 0 } else { 1 });
                        for to in targets {
                            queue.push((source, to, msg.clone()));
                        }
                    }
                    Action::Execute { dot, cmd } => {
                        self.executed.entry(source).or_default().push((dot, cmd));
                    }
                    Action::Commit { .. } => {}
                }
            }
        }

        pub fn submit(&mut self, at: ProcessId, cmd: Command) {
            let actions = self.replica(at).submit(cmd, 0);
            self.run(at, actions);
        }

        pub fn suspect_everywhere(&mut self, suspected: ProcessId) {
            for id in 1..=self.replicas.len() as ProcessId {
                if self.crashed.contains(&id) || id == suspected {
                    continue;
                }
                let actions = self.replica(id).suspect(suspected, 0);
                self.run(id, actions);
            }
        }

        pub fn executed_at(&self, id: ProcessId) -> Vec<Dot> {
            self.executed
                .get(&id)
                .map(|v| v.iter().map(|(d, _)| *d).collect())
                .unwrap_or_default()
        }
    }

    fn put(client: u64, seq: u64, key: u64) -> Command {
        Command::put(Rifl::new(client, seq), key, client, 100)
    }

    #[test]
    fn single_command_commits_on_fast_path_and_executes_everywhere() {
        let mut cluster = TestCluster::new(5, 2);
        cluster.submit(1, put(1, 1, 0));
        for id in 1..=5 {
            assert_eq!(cluster.executed_at(id).len(), 1, "process {id}");
        }
        let coordinator = &cluster.replicas[0];
        assert_eq!(coordinator.metrics().fast_paths, 1);
        assert_eq!(coordinator.metrics().slow_paths, 0);
    }

    #[test]
    fn f1_always_takes_fast_path_under_conflicts() {
        let mut cluster = TestCluster::new(3, 1);
        for i in 0..20u64 {
            let coordinator = (i % 3 + 1) as ProcessId;
            cluster.submit(coordinator, put(coordinator as u64, i + 1, 0));
        }
        let total_fast: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().fast_paths)
            .sum();
        let total_slow: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().slow_paths)
            .sum();
        assert_eq!(total_fast, 20);
        assert_eq!(total_slow, 0);
    }

    #[test]
    fn sequential_conflicting_commands_still_fast_path() {
        // Sequential (non-concurrent) conflicting commands always take the
        // fast path: every fast-quorum member reports the same dependency.
        let mut cluster = TestCluster::new(5, 2);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(3, put(3, 1, 0));
        let fast: u64 = cluster
            .replicas
            .iter()
            .map(|r| r.metrics().fast_paths)
            .sum();
        assert_eq!(fast, 2);
        // Every process executes both, in the same order.
        let reference = cluster.executed_at(1);
        assert_eq!(reference.len(), 2);
        for id in 2..=5 {
            assert_eq!(cluster.executed_at(id), reference);
        }
    }

    #[test]
    fn conflicting_commands_execute_in_same_order_everywhere() {
        let mut cluster = TestCluster::new(5, 2);
        for seq in 1..=10u64 {
            for coordinator in 1..=5u32 {
                cluster.submit(coordinator, put(coordinator as u64, seq, 0));
            }
        }
        let reference = cluster.executed_at(1);
        assert_eq!(reference.len(), 50);
        for id in 2..=5 {
            assert_eq!(cluster.executed_at(id), reference, "process {id}");
        }
    }

    #[test]
    fn commuting_commands_may_execute_without_waiting() {
        let mut cluster = TestCluster::new(5, 1);
        cluster.submit(1, put(1, 1, 1));
        cluster.submit(2, put(2, 1, 2));
        // Both execute everywhere (5 processes × 2 commands).
        let total: usize = (1..=5).map(|id| cluster.executed_at(id).len()).sum();
        assert_eq!(total, 10);
        // No dependencies were recorded between them at the coordinators.
        for r in &cluster.replicas {
            assert_eq!(r.metrics().slow_paths, 0);
        }
    }

    #[test]
    fn nfr_read_commits_from_majority() {
        let config = Config::new(5, 2).with_nfr(true);
        let mut cluster = TestCluster::with_config(config);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(2, Command::get(Rifl::new(2, 1), 0));
        // Both commands execute at every process.
        for id in 1..=5 {
            assert!(!cluster.executed_at(id).is_empty());
        }
        // The read never becomes a dependency of a later write.
        cluster.submit(3, put(3, 1, 0));
        let reference = cluster.executed_at(1);
        for id in 2..=5 {
            assert_eq!(cluster.executed_at(id), reference);
        }
    }

    #[test]
    fn executions_per_process_match_submissions() {
        let mut cluster = TestCluster::new(7, 3);
        let total = 21u64;
        for i in 0..total {
            let coordinator = (i % 7 + 1) as ProcessId;
            cluster.submit(coordinator, put(coordinator as u64, i + 1, i % 3));
        }
        for id in 1..=7 {
            assert_eq!(cluster.executed_at(id).len() as u64, total);
        }
    }

    #[test]
    fn metrics_record_dependencies_and_commit_delay() {
        let mut cluster = TestCluster::new(3, 1);
        cluster.submit(1, put(1, 1, 0));
        cluster.submit(2, put(2, 1, 0));
        let m = cluster.replicas[0].metrics();
        assert_eq!(m.commits, 2);
        assert_eq!(m.executions, 2);
        assert!(m.dependency_count >= 2);
        // Two conflicting commands, committed in order: singleton batches.
        assert_eq!((m.batch_count, m.batch_sum), (2, 2));
    }
}
