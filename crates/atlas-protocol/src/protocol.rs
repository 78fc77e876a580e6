//! The Atlas replica state machine: failure-free protocol (Algorithm 1) plus
//! the execution loop (Algorithm 3). The recovery path (Algorithm 2) lives in
//! the crate-private `recovery` module; the bookkeeping Atlas shares with
//! EPaxos lives in [`DepCore`].

use crate::dep_core::{DepCore, Entry};
use crate::messages::{Ballot, Message};
use crate::recovery::RecAck;
use atlas_core::protocol::{Time, Transfer};
use atlas_core::{
    Action, ClusterView, Command, Config, Dot, ProcessId, Protocol, ProtocolMetrics, Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Progress of a command identifier at this replica (paper §3.2.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Phase {
    /// Nothing known beyond possibly the identifier itself.
    #[default]
    Start,
    /// The replica has processed the `MCollect` for this identifier.
    Collect,
    /// A recovery coordinator has taken over this identifier.
    Recover,
    /// Final command and dependencies are known.
    Commit,
}

/// Per-identifier bookkeeping (the mappings at the bottom of Algorithm 1/4).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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

impl Entry for Info {
    fn committed(&self) -> Option<(&Command, &HashSet<Dot>)> {
        if self.phase != Phase::Commit {
            return None;
        }
        Some((self.cmd.as_ref()?, &self.deps))
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
    pub(crate) core: DepCore,
    pub(crate) info: HashMap<Dot, Info>,
}

impl Atlas {
    pub(crate) fn info_mut(&mut self, dot: Dot) -> &mut Info {
        self.core.see(dot);
        self.info.entry(dot).or_default()
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
        if self.core.collected(&dot) {
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
        let mut deps = self.core.key_deps.conflicts_and_add(dot, &cmd);
        deps.extend(past);
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
    ) -> Vec<Action<Message>> {
        let id = self.core.id();
        let base = self.core.config();
        let view = self.core.view().clone();
        let everyone = self.core.everyone();
        let slow_quorum = if view.is_joint() {
            // Joint window: the accept phase needs `f + 1` in *both*
            // configurations, and the closest-quorum prefix cannot know
            // which subset satisfies that — send to everyone and let
            // `handle_consensus_ack`'s dual count decide.
            everyone.clone()
        } else {
            self.core.closest(Config::slow_quorum_size)
        };
        let Some(info) = self.info.get_mut(&dot) else {
            return Vec::new();
        };
        // Precondition: still in the collect phase (a recovery or a commit
        // invalidates the fast path, line 13) and a decision has not been
        // taken yet (guards against duplicate deliveries).
        if info.phase != Phase::Collect || dot.coordinator() != id || info.collect_decided {
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
        let is_nfr_read = base.nfr && cmd.is_read_only() && !view.is_joint();
        let threshold = Self::threshold_union(&info.collect_acks, base.f);
        let fast_path = !view.is_joint() && (is_nfr_read || union == threshold);

        if fast_path {
            // Fast path (line 16): commit after a single round trip.
            self.core.metrics.fast_paths += 1;
            let deps = union;
            vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })]
        } else {
            // Slow path (lines 17-19): run consensus on the dependencies.
            // With the pruning optimization (§4) the proposal is ⋃_f instead
            // of ⋃, dropping dependencies reported by fewer than f members.
            // The pruning argument is fast-quorum-shaped, so the joint
            // window always proposes the plain union.
            self.core.metrics.slow_paths += 1;
            let proposal = if base.slow_path_pruning && !view.is_joint() {
                threshold
            } else {
                union
            };
            let ballot = id as Ballot;
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
        if self.core.collected(&dot) {
            // Executed everywhere and garbage-collected: the proposer has
            // it too (the GC horizon is all-executed), so no short-circuit
            // MCommit is needed — or possible, the payload is gone.
            return Vec::new();
        }
        let info = self.info_mut(dot);
        if info.phase == Phase::Commit {
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
    ) -> Vec<Action<Message>> {
        let view = self.core.view().clone();
        let base = self.core.config();
        let everyone = self.core.everyone();
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
        vec![Action::send(everyone, Message::MCommit { dot, cmd, deps })]
    }

    /// Handles `MCommit` (Algorithm 1, line 28) and runs the execution loop.
    fn handle_commit(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        time: Time,
    ) -> Vec<Action<Message>> {
        if self.core.is_executed(&dot) {
            // Already executed here: either a garbage-collected entry (the
            // graph's floor implies it) or one covered by a catch-up base,
            // where no `info` entry exists to dedupe through. A duplicate
            // commit must not resurrect bookkeeping.
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
        // Algorithm 1, lines 1-5. The coordinator's own dependency
        // contribution is produced when it handles its own MCollect (the
        // runtime delivers self-addressed messages immediately), so `past`
        // here is what the paper calls conflicts(c) at submission time.
        let dot = self.core.dot_gen.next_dot();
        let past = self.core.key_deps.conflicts(&cmd);
        let quorum = if self.core.view().is_joint() {
            // Joint window: collect from everyone and decide on a dual
            // majority (see `handle_collect_ack`); the closest-quorum draw
            // below cannot name a set that is safe in both configurations.
            self.core.everyone()
        } else if self.core.config().nfr && cmd.is_read_only() {
            self.core.closest(Config::majority)
        } else {
            self.core.closest(Config::atlas_fast_quorum_size)
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
            Message::MCollectAck { dot, deps } => self.handle_collect_ack(from, dot, deps),
            Message::MConsensus {
                dot,
                cmd,
                deps,
                ballot,
            } => self.handle_consensus(from, dot, cmd, deps, ballot),
            Message::MConsensusAck { dot, ballot } => self.handle_consensus_ack(from, dot, ballot),
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

    fn suspect(&mut self, suspected: ProcessId, _time: Time) -> Vec<Action<Message>> {
        let dots = self.core.suspected_dots(suspected, &self.info);
        dots.into_iter().flat_map(|dot| self.recover(dot)).collect()
    }

    fn reconfigure(&mut self, view: &ClusterView, _time: Time) -> Vec<Action<Message>> {
        // Liveness across the switch: the re-driven proposals go through
        // the recovery path, whose consensus gathers quorums under the
        // *new* view.
        let stuck = self.core.switch_view(view, &self.info);
        stuck
            .into_iter()
            .flat_map(|dot| self.recover(dot))
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
