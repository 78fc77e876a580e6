//! Protocol-level tests of the durability hooks, for all four protocols:
//!
//! * `save_protocol` → `restore_protocol` is an exact round trip
//!   (byte-identical re-serialization), and restore rejects corrupted
//!   bytes, a foreign identifier and — at epoch 0 only — a different boot
//!   configuration;
//! * restoring a mid-run snapshot and replaying the input suffix yields the
//!   **same state bytes** as replaying the full input history — the
//!   correctness condition behind journal truncation;
//! * a fresh replica fed the log of a peer's `transfer` converges to the
//!   same store state (the peer-assisted catch-up payload is sufficient),
//!   and `install` adopts a peer's base only on a replica that has
//!   executed nothing while always advancing its identifiers;
//! * the GC invariant sweep: a cluster that garbage-collects executed
//!   entries on the all-executed horizon mid-run executes **exactly** the
//!   same command sequence (hence identical digests and per-key order) as
//!   a never-collected twin, keeps strictly less bookkeeping, ignores
//!   straggler duplicates of collected commits, and GC is idempotent;
//! * state stays bounded: once GC has collected every entry, the encoded
//!   protocol state does not grow with the number of commands processed.

use atlas_core::{Action, ClusterView, Command, Config, Dot, ProcessId, Protocol, Rifl, Topology};
use atlas_runtime::journal::{restore_protocol, save_protocol};
use kvstore::KVStore;
use std::collections::HashMap;

/// One protocol input as a replica's journal would record it.
#[derive(Clone)]
enum Input<M> {
    Submit(Command),
    Msg(ProcessId, M),
}

/// A tiny deterministic in-memory cluster driver that also records, per
/// replica, the exact input sequence it processed — the same information the
/// runtime's write-ahead journal captures.
struct Net<P: Protocol> {
    replicas: Vec<P>,
    inputs: Vec<Vec<Input<P::Message>>>,
    executed: HashMap<ProcessId, Vec<(Dot, Command)>>,
}

impl<P: Protocol> Net<P>
where
    P::Message: Clone,
{
    fn new(n: usize, f: usize) -> Self {
        let config = Config::new(n, f);
        let replicas = (1..=n as ProcessId)
            .map(|id| P::new(id, config, Topology::identity(id, n)))
            .collect();
        Self {
            replicas,
            inputs: vec![Vec::new(); n],
            executed: HashMap::new(),
        }
    }

    fn replica(&mut self, id: ProcessId) -> &mut P {
        &mut self.replicas[(id - 1) as usize]
    }

    fn submit(&mut self, at: ProcessId, cmd: Command) {
        self.inputs[(at - 1) as usize].push(Input::Submit(cmd.clone()));
        let actions = self.replica(at).submit(cmd, 0);
        self.run(at, actions);
    }

    fn run(&mut self, source: ProcessId, actions: Vec<Action<P::Message>>) {
        let mut queue: Vec<(ProcessId, ProcessId, P::Message)> = Vec::new();
        self.enqueue(source, actions, &mut queue);
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            self.inputs[(to - 1) as usize].push(Input::Msg(from, msg.clone()));
            let out = self.replica(to).handle(from, msg, 0);
            self.enqueue(to, out, &mut queue);
        }
    }

    fn enqueue(
        &mut self,
        source: ProcessId,
        actions: Vec<Action<P::Message>>,
        queue: &mut Vec<(ProcessId, ProcessId, P::Message)>,
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
                Action::Execute { dot, cmd } => {
                    self.executed.entry(source).or_default().push((dot, cmd));
                }
                Action::Commit { .. } => {}
            }
        }
    }
}

fn put(client: u64, seq: u64, key: u64) -> Command {
    Command::put(Rifl::new(client, seq), key, client * 1000 + seq, 64)
}

/// Drives a 3-replica cluster through a conflicting workload, returning the
/// driver. Every replica executes every command.
fn drive<P: Protocol>(commands: u64) -> Net<P>
where
    P::Message: Clone,
{
    let mut net = Net::<P>::new(3, 1);
    for seq in 1..=commands {
        for coordinator in 1..=3u32 {
            net.submit(coordinator, put(coordinator as u64, seq, seq % 4));
        }
    }
    net
}

/// Replays an input sequence into `replica`, discarding emitted actions
/// (a replica's state depends only on its inputs; during runtime recovery
/// the re-emitted sends are deduplicated by the peers anyway).
fn replay<P: Protocol>(replica: &mut P, inputs: &[Input<P::Message>])
where
    P::Message: Clone,
{
    for input in inputs {
        match input {
            Input::Submit(cmd) => {
                let _ = replica.submit(cmd.clone(), 0);
            }
            Input::Msg(from, msg) => {
                let _ = replica.handle(*from, msg.clone(), 0);
            }
        }
    }
}

fn save_restore_roundtrip<P: Protocol>()
where
    P::Message: Clone,
{
    let mut net = drive::<P>(10);
    let config = Config::new(3, 1);
    for replica in &net.replicas {
        let id = replica.id();
        let bytes = save_protocol(replica);
        let restored = restore_protocol::<P>(id, config, &bytes).expect("state restores");
        assert_eq!(
            save_protocol(&restored),
            bytes,
            "{}: restore(save(s)) must reproduce s exactly (replica {id})",
            P::name()
        );
        // A corrupted blob must not restore.
        let mut corrupted = bytes.clone();
        corrupted.truncate(corrupted.len() / 2);
        assert!(
            restore_protocol::<P>(id, config, &corrupted).is_none(),
            "{}: truncated state must fail to restore",
            P::name()
        );
        // State from one replica must not restore under another identifier.
        let wrong_id = id % 3 + 1;
        assert!(
            restore_protocol::<P>(wrong_id, config, &bytes).is_none(),
            "{}: replica {id} state must not restore as replica {wrong_id}",
            P::name()
        );
        // At epoch 0 the boot configuration must match exactly, down to the
        // optimization switches.
        for other in [
            config.with_nfr(!config.nfr),
            config.with_slow_path_pruning(!config.slow_path_pruning),
        ] {
            assert!(
                restore_protocol::<P>(id, other, &bytes).is_none(),
                "{}: epoch-0 state must not restore under {other:?}",
                P::name()
            );
        }
    }

    // Past epoch 0 the state's own view is authoritative: it restores under
    // the boot-time configuration a restarting replica still passes in.
    let joint = ClusterView::initial(config)
        .enter(&[1, 2, 3, 4, 5], 2)
        .expect("a new member set opens a joint epoch");
    let replica = &mut net.replicas[0];
    let _ = replica.reconfigure(&joint, 0);
    assert_eq!(replica.view().epoch, 1);
    let bytes = save_protocol(&*replica);
    let restored = restore_protocol::<P>(1, config, &bytes)
        .unwrap_or_else(|| panic!("{}: reconfigured state must restore", P::name()));
    assert_eq!(restored.view(), &joint);
    assert_eq!(save_protocol(&restored), bytes);
}

fn snapshot_plus_suffix_equals_full_replay<P: Protocol>()
where
    P::Message: Clone,
{
    let net = drive::<P>(12);
    let config = Config::new(3, 1);
    for id in 1..=3u32 {
        let inputs = &net.inputs[(id - 1) as usize];
        let live = save_protocol(&net.replicas[(id - 1) as usize]);

        // (a) Full replay of the input journal from scratch.
        let mut full = P::new(id, config, Topology::identity(id, 3));
        replay(&mut full, inputs);
        let full_bytes = save_protocol(&full);

        // (b) Snapshot mid-run, restore, replay only the suffix.
        let half = inputs.len() / 2;
        let mut prefix = P::new(id, config, Topology::identity(id, 3));
        replay(&mut prefix, &inputs[..half]);
        let snapshot = save_protocol(&prefix);
        let mut resumed = restore_protocol::<P>(id, config, &snapshot).unwrap();
        replay(&mut resumed, &inputs[half..]);
        let resumed_bytes = save_protocol(&resumed);

        assert_eq!(
            full_bytes,
            live,
            "{}: replaying the journal must reproduce the live state (replica {id})",
            P::name()
        );
        assert_eq!(
            resumed_bytes,
            full_bytes,
            "{}: snapshot + suffix replay must equal full replay (replica {id})",
            P::name()
        );
    }
}

fn transferred_log_rebuilds_store<P: Protocol>()
where
    P::Message: Clone,
{
    let net = drive::<P>(10);
    // Reference store: what replica 1 executed.
    let mut reference = KVStore::new();
    for (_, cmd) in &net.executed[&1] {
        reference.execute(cmd);
    }

    // A fresh replica 3 (wiped disk) is fed replica 1's committed log, the
    // catch-up payload, as ordinary messages from peer 1.
    let transfer = net.replicas[0].transfer(3);
    let committed = transfer.log;
    assert!(
        !committed.is_empty(),
        "{}: a loaded replica must export a committed log",
        P::name()
    );
    let mut fresh = P::new(3, Config::new(3, 1), Topology::identity(3, 3));
    let mut store = KVStore::new();
    for msg in committed {
        for action in fresh.handle(1, msg, 0) {
            if let Action::Execute { cmd, .. } = action {
                store.execute(&cmd);
            }
        }
    }
    assert_eq!(
        store.digest(),
        reference.digest(),
        "{}: catch-up replay must rebuild the exact store state",
        P::name()
    );

    // The serving peer must also report how far it has seen the wiped
    // replica's identifier space, so identifiers are never reissued.
    assert!(
        transfer.horizon > 0,
        "{}: peer must have seen replica 3's identifiers",
        P::name()
    );
}

/// The catch-up pair: `install(horizon, Some(base))` adopts a peer's
/// executed state on a fresh replica (the peer's log then replays as
/// no-ops), refuses it — changing no executed state — on a replica that
/// has executed something, and `install(horizon, None)` alone already
/// moves the next identifier past `horizon`.
fn transfer_install_pair<P: Protocol>()
where
    P::Message: Clone,
{
    let donor = drive::<P>(10);
    let transfer = donor.replicas[0].transfer(3);

    let mut fresh = P::new(3, Config::new(3, 1), Topology::identity(3, 3));
    assert!(
        !fresh.install(0, Some(&[0xff; 3])),
        "{}: an undecodable base must be refused",
        P::name()
    );
    assert!(
        fresh.install(transfer.horizon, Some(&transfer.base)),
        "{}: a fresh replica must accept a peer's base",
        P::name()
    );
    assert_eq!(
        fresh.executed_watermarks(),
        donor.replicas[0].executed_watermarks(),
        "{}: the base must mark exactly the donor's executed identifiers",
        P::name()
    );
    for msg in transfer.log {
        let executed = fresh
            .handle(1, msg, 0)
            .into_iter()
            .filter(|a| matches!(a, Action::Execute { .. }))
            .count();
        assert_eq!(
            executed,
            0,
            "{}: a base-covered entry re-executed",
            P::name()
        );
    }

    let mut busy = drive::<P>(2);
    let replica = busy.replica(3);
    let before = replica.executed_watermarks();
    assert!(
        !replica.install(transfer.horizon, Some(&transfer.base)),
        "{}: a replica that executed something must refuse a base",
        P::name()
    );
    assert_eq!(
        replica.executed_watermarks(),
        before,
        "{}: a refused base changed the executed state",
        P::name()
    );

    // Replica 1 (the leader, for the leader-based protocols) moves past
    // `horizon` — alone, or together with a base whose executed prefix ends
    // below it — and the identifier of its next command, as its peers see
    // it, lies beyond. (Kept within Mencius's proposal window, which parks
    // proposals more than `RECONFIG_ALPHA` slots past the executed prefix.)
    let horizon = transfer.horizon + 20;
    for base in [None, Some(transfer.base.as_slice())] {
        let mut net = Net::<P>::new(3, 1);
        assert!(net.replica(1).install(horizon, base));
        net.submit(1, put(1, 1, 0));
        let seen = net.replicas[1].transfer(1).horizon;
        assert!(
            seen > horizon,
            "{}: next identifier {seen} does not exceed the installed horizon {horizon} \
             (base: {})",
            P::name(),
            base.is_some()
        );
    }
}

/// The all-executed horizon of a cluster: for every identifier space
/// reported by **all** replicas, the minimum of their executed watermarks —
/// the same pointwise minimum the networked runtime computes from the
/// watermark reports piggybacked on the peer links.
fn min_horizon<P: Protocol>(replicas: &[P]) -> Vec<(ProcessId, u64)> {
    let mut horizon: Option<HashMap<ProcessId, u64>> = None;
    for replica in replicas {
        let report: HashMap<ProcessId, u64> = replica.executed_watermarks().into_iter().collect();
        horizon = Some(match horizon {
            None => report,
            Some(mut h) => {
                h.retain(|space, v| match report.get(space) {
                    Some(&peer) => {
                        *v = (*v).min(peer);
                        true
                    }
                    None => false,
                });
                h
            }
        });
    }
    let mut horizon: Vec<(ProcessId, u64)> = horizon.unwrap_or_default().into_iter().collect();
    horizon.sort_unstable();
    horizon
}

/// Drives two identical conflicting workloads, garbage-collecting one
/// cluster every other round on the all-executed horizon and never
/// collecting the other. The collected cluster must be observationally
/// identical — same executed `(dot, cmd)` sequence per replica (which
/// implies the same per-key order), same store digest — while holding
/// strictly fewer bookkeeping entries; straggler duplicates of collected
/// commits must be ignored, and re-applying the same horizon must drop
/// nothing.
fn gc_matches_never_collected_twin<P: Protocol>()
where
    P::Message: Clone,
{
    let mut collected = Net::<P>::new(3, 1);
    let mut pristine = Net::<P>::new(3, 1);
    let mut dropped_total = 0u64;
    for seq in 1..=16u64 {
        for coordinator in 1..=3u32 {
            let cmd = put(coordinator as u64, seq, seq % 4);
            collected.submit(coordinator, cmd.clone());
            pristine.submit(coordinator, cmd);
        }
        if seq % 2 == 0 {
            let horizon = min_horizon(&collected.replicas);
            for replica in &mut collected.replicas {
                dropped_total += replica.gc_executed(&horizon);
            }
        }
    }
    assert!(
        dropped_total > 0,
        "{}: the sweep must actually collect something",
        P::name()
    );

    for id in 1..=3u32 {
        // Identical executed sequences ⇒ identical per-key order.
        assert_eq!(
            collected.executed.get(&id),
            pristine.executed.get(&id),
            "{}: GC changed replica {id}'s execution sequence",
            P::name()
        );
        // Identical store digests.
        let digest = |net: &Net<P>| {
            let mut store = KVStore::new();
            for (_, cmd) in &net.executed[&id] {
                store.execute(cmd);
            }
            store.digest()
        };
        assert_eq!(
            digest(&collected),
            digest(&pristine),
            "{}: GC changed replica {id}'s digest",
            P::name()
        );
        // Strictly less bookkeeping than the never-collected twin.
        let a = collected.replicas[(id - 1) as usize].tracked_entries();
        let b = pristine.replicas[(id - 1) as usize].tracked_entries();
        assert!(
            a < b,
            "{}: replica {id} tracked {a} entries with GC vs {b} without",
            P::name()
        );
    }

    // Straggler duplicates of collected commits (an at-least-once link
    // replaying old frames) must be ignored: no actions, no new entries.
    let stragglers = pristine.replicas[0].transfer(2).log;
    let replica = &mut collected.replicas[1];
    let tracked_before = replica.tracked_entries();
    let mut actions = 0;
    for msg in stragglers {
        actions += replica
            .handle(1, msg, 0)
            .iter()
            .filter(|a| matches!(a, Action::Execute { .. }))
            .count();
    }
    assert_eq!(actions, 0, "{}: stragglers re-executed", P::name());
    assert_eq!(
        replica.tracked_entries(),
        tracked_before,
        "{}: stragglers of collected commits grew the bookkeeping maps",
        P::name()
    );

    // GC is idempotent: the same horizon again drops nothing.
    let horizon = min_horizon(&collected.replicas);
    for replica in &mut collected.replicas {
        assert_eq!(
            replica.gc_executed(&horizon),
            0,
            "{}: re-applying the horizon must be a no-op",
            P::name()
        );
    }
}

/// Submits `rounds` conflicting commands per replica (3 per round), then
/// garbage-collects on the all-executed horizon until no replica tracks an
/// entry.
fn run_and_collect<P: Protocol>(net: &mut Net<P>, rounds: std::ops::RangeInclusive<u64>)
where
    P::Message: Clone,
{
    for seq in rounds {
        for coordinator in 1..=3u32 {
            net.submit(coordinator, put(coordinator as u64, seq, seq % 4));
        }
    }
    for _ in 0..3 {
        let horizon = min_horizon(&net.replicas);
        for replica in &mut net.replicas {
            replica.gc_executed(&horizon);
        }
    }
    for replica in &net.replicas {
        assert_eq!(
            replica.tracked_entries(),
            0,
            "{}: replica {} still tracks entries after a drained GC",
            P::name(),
            replica.id()
        );
    }
}

/// A replica whose every entry has been garbage-collected keeps only
/// constant-size state: sixteen times the commands must not grow the
/// encoded protocol state (the slack absorbs varint-width growth of the
/// counters). Retained metric samples or per-batch records would.
fn collected_state_does_not_grow<P: Protocol>()
where
    P::Message: Clone,
{
    const SLACK: usize = 256;
    let mut net = Net::<P>::new(3, 1);
    run_and_collect(&mut net, 1..=200); // 600 commands
    let early: Vec<usize> = net
        .replicas
        .iter()
        .map(|r| save_protocol(r).len())
        .collect();
    run_and_collect(&mut net, 201..=3_200); // 9,600 commands
    for (replica, early) in net.replicas.iter().zip(early) {
        let late = save_protocol(replica).len();
        assert!(
            late <= early + SLACK,
            "{}: replica {} state grew from {early} to {late} bytes with nothing tracked",
            P::name(),
            replica.id()
        );
    }
}

macro_rules! durability_hook_tests {
    ($name:ident, $proto:ty) => {
        mod $name {
            #[test]
            fn save_restore_roundtrip() {
                super::save_restore_roundtrip::<$proto>();
            }

            #[test]
            fn snapshot_plus_suffix_equals_full_replay() {
                super::snapshot_plus_suffix_equals_full_replay::<$proto>();
            }

            #[test]
            fn transferred_log_rebuilds_store() {
                super::transferred_log_rebuilds_store::<$proto>();
            }

            #[test]
            fn transfer_install_pair() {
                super::transfer_install_pair::<$proto>();
            }

            #[test]
            fn gc_matches_never_collected_twin() {
                super::gc_matches_never_collected_twin::<$proto>();
            }

            #[test]
            fn collected_state_does_not_grow() {
                super::collected_state_does_not_grow::<$proto>();
            }
        }
    };
}

durability_hook_tests!(atlas, ::atlas_protocol::Atlas);
durability_hook_tests!(epaxos, ::epaxos::EPaxos);
durability_hook_tests!(fpaxos, ::fpaxos::FPaxos);
durability_hook_tests!(mencius, ::mencius::Mencius);
