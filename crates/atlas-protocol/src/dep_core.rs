//! The bookkeeping every dependency-graph protocol shares.
//!
//! Atlas and EPaxos differ in their messages, quorum sizes, fast-path
//! condition and recovery value rule, but not in what surrounds them: both
//! track the identifiers they have seen, commit into the same
//! [`DependencyGraph`] (Algorithm 3), report the same executed watermarks,
//! compact below the same floor, transfer the same executed-state base to a
//! wiped peer and switch views the same way. [`DepCore`] holds that state
//! and implements it once; each protocol keeps a [`DepCore`] plus its own
//! per-command map, whose entries implement [`Entry`].

use crate::graph::{DependencyGraph, ExecutedMarker};
use crate::keydeps::KeyDeps;
use atlas_core::protocol::{Time, Transfer};
use atlas_core::{
    Action, ClusterView, Command, Config, Dot, DotGen, ProcessId, ProtocolMetrics, Topology,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// What [`DepCore`] needs to know about a protocol's per-command entry.
pub trait Entry {
    /// The command and its final dependencies once the entry is committed;
    /// `None` while it is still in flight.
    fn committed(&self) -> Option<(&Command, &HashSet<Dot>)>;
}

/// The state and bookkeeping shared by the dependency-graph protocols.
#[derive(Debug, Serialize, Deserialize)]
pub struct DepCore {
    id: ProcessId,
    /// The configuration of the current `view`.
    config: Config,
    /// Placement of the current view's members (in the joint window, of
    /// both member sets).
    topology: Topology,
    /// The configuration epoch this replica operates in; `config` and
    /// `topology` always mirror it.
    view: ClusterView,
    /// Generator of this replica's command identifiers.
    pub dot_gen: DotGen,
    /// Conflict index: the dependencies of each new command.
    pub key_deps: KeyDeps,
    /// The execution layer.
    graph: DependencyGraph,
    /// Counters and moments exported over the stats plane.
    pub metrics: ProtocolMetrics,
    /// Highest identifier sequence seen per source. Kept apart from the
    /// protocol's entry map so the horizon [`transfer`](DepCore::transfer)
    /// reports survives garbage collection — it protects identifier
    /// reissue, not replay, so it must never shrink.
    seen: HashMap<ProcessId, u64>,
    /// Local commit time per identifier, to measure commit→execute delay.
    commit_times: HashMap<Dot, Time>,
}

impl DepCore {
    /// A replica at epoch 0 of `topology`'s members.
    pub fn new(id: ProcessId, config: Config, topology: Topology) -> Self {
        Self {
            id,
            config,
            view: ClusterView::at(0, topology.processes.clone(), config.f),
            topology,
            dot_gen: DotGen::new(id),
            key_deps: KeyDeps::new(config.nfr),
            graph: DependencyGraph::new(),
            metrics: ProtocolMetrics::new(),
            seen: HashMap::new(),
            commit_times: HashMap::new(),
        }
    }

    /// This replica's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The configuration of the current view.
    pub fn config(&self) -> Config {
        self.config
    }

    /// The configuration epoch this replica operates in.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// The `size(config)` processes closest to this replica, itself first.
    pub fn closest(&self, size: fn(&Config) -> usize) -> Vec<ProcessId> {
        self.topology.closest_quorum(size(&self.config))
    }

    /// Whether `dot` has executed here (garbage-collected, covered by an
    /// installed base, or executed by the graph).
    pub fn is_executed(&self, dot: &Dot) -> bool {
        self.graph.is_executed(dot)
    }

    /// Records that `dot` has been seen here.
    pub fn see(&mut self, dot: Dot) {
        let seen = self.seen.entry(dot.source).or_insert(0);
        *seen = (*seen).max(dot.seq);
    }

    /// Whether `dot` sits at or below the GC floor: committed and executed
    /// by **every** replica, with its bookkeeping dropped here. Messages
    /// about such identifiers (duplicates, stragglers, recovery probes) are
    /// ignored exactly as a terminal-phase entry would ignore them — no
    /// replica can still be waiting on them.
    pub fn collected(&self, dot: &Dot) -> bool {
        dot.seq <= self.graph.floor_of(dot.source)
    }

    /// Every process this replica talks to: the current members (in the
    /// joint window, of both configurations) plus itself — identifiers may
    /// be non-contiguous after a reconfiguration.
    pub fn everyone(&self) -> Vec<ProcessId> {
        let mut all = self.topology.processes.clone();
        if !all.contains(&self.id) {
            all.push(self.id);
            all.sort_unstable();
        }
        all
    }

    /// Commits `dot` into the execution graph and returns an
    /// `Action::Execute` for every command that became executable, in
    /// execution order. The caller has already recorded the commit in its
    /// own entry and checked it is not a duplicate.
    pub fn commit<M>(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: HashSet<Dot>,
        time: Time,
    ) -> Vec<Action<M>> {
        // Later commands must observe this one as a conflict even if this
        // replica was not in its fast quorum.
        self.key_deps.add(dot, &cmd);
        self.metrics.commits += 1;
        if cmd.is_noop() {
            // A noOp never reaches the state machine, so it has no
            // commit→execute delay to measure.
            self.metrics.noops += 1;
        } else {
            self.commit_times.insert(dot, time);
        }
        self.metrics.record_dependencies(deps.len());
        let executed =
            self.graph
                .commit_recording(dot, cmd, deps.into_iter().collect(), &mut self.metrics);
        let mut actions = Vec::with_capacity(executed.len());
        for (dot, cmd) in executed {
            self.metrics.executions += 1;
            if let Some(commit_time) = self.commit_times.remove(&dot) {
                self.metrics
                    .record_commit_to_execute(time.saturating_sub(commit_time));
            }
            actions.push(Action::Execute { dot, cmd });
        }
        actions
    }

    /// The contiguous executed prefix of every identifier space, dense over
    /// the current members so the runtime's pointwise minimum can tell
    /// "nothing executed from this source yet" (0) from "never reported".
    /// The seen spaces keep members a reconfiguration removed reported, so
    /// their leftover entries can still be collected.
    pub fn executed_watermarks(&self) -> Vec<(ProcessId, u64)> {
        let mut spaces: Vec<ProcessId> = self.topology.processes.clone();
        spaces.extend(self.seen.keys().copied());
        spaces.sort_unstable();
        spaces.dedup();
        spaces
            .into_iter()
            .map(|p| (p, self.graph.executed_frontier(p)))
            .collect()
    }

    /// Raises the compaction floor to the all-executed `horizon` and drops
    /// every entry of `entries` at or below it; returns how many were
    /// dropped. All of them go, not only committed ones: the only
    /// in-flight entries that can sit below the floor are empty shells a
    /// straggler resurrected after an earlier collection, and keeping those
    /// would leak.
    pub fn gc<I>(&mut self, horizon: &[(ProcessId, u64)], entries: &mut HashMap<Dot, I>) -> u64 {
        self.graph.compact_below(horizon);
        self.key_deps.prune_below(horizon);
        let before = entries.len();
        entries.retain(|dot, _| !self.collected(dot));
        (before - entries.len()) as u64
    }

    /// The catch-up payload for peer `to`: the horizon of `to`'s
    /// identifiers seen here, the executed-state base (the graph's executed
    /// marker plus the view, so a base that covers an executed
    /// `Reconfigure` barrier still hands a joiner its configuration) and
    /// every retained committed entry, in identifier order, as the message
    /// `commit` builds.
    pub fn transfer<I: Entry, M>(
        &self,
        to: ProcessId,
        entries: &HashMap<Dot, I>,
        commit: impl Fn(Dot, Command, HashSet<Dot>) -> M,
    ) -> Transfer<M> {
        let mut committed: Vec<(Dot, &Command, &HashSet<Dot>)> = entries
            .iter()
            .filter_map(|(dot, entry)| entry.committed().map(|(cmd, deps)| (*dot, cmd, deps)))
            .collect();
        committed.sort_unstable_by_key(|(dot, _, _)| *dot);
        let base = (self.graph.executed_marker(), self.view.clone());
        Transfer {
            horizon: self.seen.get(&to).copied().unwrap_or(0),
            base: bincode::serialize(&base).expect("markers always encode"),
            log: committed
                .into_iter()
                .map(|(dot, cmd, deps)| commit(dot, cmd.clone(), deps.clone()))
                .collect(),
        }
    }

    /// Marks `base` executed if it decodes and this replica has executed
    /// nothing, then moves the identifier generator past `horizon` either
    /// way. Returns `false` if a `base` was given but not installed.
    pub fn install(&mut self, horizon: u64, base: Option<&[u8]>) -> bool {
        let installed = base.is_none_or(|bytes| self.install_base(bytes));
        self.dot_gen.advance_past(horizon);
        installed
    }

    fn install_base(&mut self, bytes: &[u8]) -> bool {
        let Ok((marker, view)) = bincode::deserialize::<(ExecutedMarker, ClusterView)>(bytes)
        else {
            return false;
        };
        if !self.graph.restore_marker(&marker) {
            return false;
        }
        if view.epoch > self.view.epoch {
            self.adopt(view);
        }
        // The marked identifiers were seen (they executed); fold them into
        // the seen horizon so this replica's transfers protect them too.
        let frontiers = marker.frontiers.iter().map(|&(s, f)| Dot::new(s, f));
        for dot in frontiers.chain(marker.above.iter().copied()) {
            self.see(dot);
        }
        true
    }

    /// Installs `view` if it is newer and returns, sorted for replay
    /// determinism, the in-flight entries to re-drive under it: those this
    /// replica coordinates plus those whose coordinator the view dropped
    /// (nobody else will finish them). A replica the view removes re-drives
    /// nothing; the runtime retires it shortly after.
    pub fn switch_view<I: Entry>(
        &mut self,
        view: &ClusterView,
        entries: &HashMap<Dot, I>,
    ) -> Vec<Dot> {
        // Idempotence: apply only strictly newer views (the runtime may
        // deliver the same epoch both via the log barrier and a journaled
        // epoch record on replay).
        if view.epoch <= self.view.epoch {
            return Vec::new();
        }
        self.adopt(view.clone());
        let members = view.all_members();
        if !members.contains(&self.id) {
            return Vec::new();
        }
        in_flight(entries, |c| c == self.id || !members.contains(&c))
    }

    /// The identifiers to recover once `suspected` is suspected, sorted so
    /// runs are reproducible: its in-flight entries here plus the missing
    /// dependencies of committed commands that it coordinates.
    pub fn suspected_dots<I: Entry>(
        &self,
        suspected: ProcessId,
        entries: &HashMap<Dot, I>,
    ) -> Vec<Dot> {
        if suspected == self.id {
            return Vec::new();
        }
        let mut dots = in_flight(entries, |c| c == suspected);
        let missing = self.graph.missing_dependencies().into_iter();
        dots.extend(missing.filter(|dot| dot.coordinator() == suspected));
        dots.sort_unstable();
        dots.dedup();
        dots
    }

    fn adopt(&mut self, view: ClusterView) {
        self.config = view.config(self.config);
        self.topology = Topology::from_members(self.id, &view.all_members());
        self.view = view;
    }
}

/// The in-flight entries whose coordinator satisfies `pick`, sorted.
fn in_flight<I: Entry>(entries: &HashMap<Dot, I>, pick: impl Fn(ProcessId) -> bool) -> Vec<Dot> {
    let mut dots: Vec<Dot> = entries
        .iter()
        .filter(|(dot, entry)| entry.committed().is_none() && pick(dot.coordinator()))
        .map(|(dot, _)| *dot)
        .collect();
    dots.sort_unstable();
    dots
}
