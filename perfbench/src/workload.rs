//! The benchmark's workloads and the open-loop schedule generated from a
//! seed: every command, its due time and its connection are fixed before
//! the run starts, so a stalled generator shows up as latency instead of
//! silently offering less load.

use atlas_core::{ClientId, Command};
use kvstore::workload::YcsbMix;
use kvstore::{ConflictWorkload, YcsbWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Client identifiers of the two generator connections (to replicas 1 and
/// 2). Setup and inspection clients use identifiers above these.
pub const CLIENTS: [ClientId; 2] = [1, 2];

/// What the commands of a workload look like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// 100-byte single-key PUTs: the shared key with the given probability,
    /// otherwise the connection's private key.
    Conflict(f64),
    /// YCSB 50/50 reads and 100-byte writes over [`YCSB_RECORDS`] keys
    /// chosen by scrambled Zipf.
    Ycsb,
}

/// Keys of the YCSB workload.
pub const YCSB_RECORDS: u64 = 100_000;

/// Payload of every write, in bytes.
pub const PAYLOAD: usize = 100;

/// One benchmark workload: cluster shape, replica flags and traffic.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub f: usize,
    /// `--flush` policy of every replica.
    pub flush: &'static str,
    /// `--gc-every` of every replica.
    pub gc_every: u64,
    /// `--net-profile` of every replica, if any.
    pub net_profile: Option<String>,
    /// Offered load over both connections, commands per second.
    pub rate: f64,
    pub traffic: Traffic,
    /// Unmeasured lead-in at the start of the schedule.
    pub warmup: Duration,
}

/// Names of all workloads, in report order.
pub const NAMES: [&str; 4] = ["lan-write", "lan-ycsb", "wan5-conflict", "wan5-ycsb"];

/// Seed of the `wan5-conflict` network profile's jitter stream. Fixed, so
/// the workload seed changes the traffic and not the network.
const GEO5_SEED: u64 = 11;

/// One-way delays (ms) of the five-site geo shape used by the WAN scenario
/// tests: each pair of replicas gets this delay ± 2 ms jitter both ways.
const GEO5_DELAYS_MS: [(u32, u32, u32); 10] = [
    (1, 2, 10),
    (1, 3, 15),
    (1, 4, 20),
    (1, 5, 40),
    (2, 3, 10),
    (2, 4, 25),
    (2, 5, 35),
    (3, 4, 15),
    (3, 5, 30),
    (4, 5, 20),
];

/// The `--net-profile` spelling of the five-site geo shape.
pub fn geo5_profile() -> String {
    let mut spec = String::new();
    for (a, b, ms) in GEO5_DELAYS_MS {
        for (from, to) in [(a, b), (b, a)] {
            spec.push_str(&format!("{from}->{to}:delay={ms}ms,jitter=2ms;"));
        }
    }
    spec.push_str(&format!("seed={GEO5_SEED}"));
    spec
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    let lan = |name, why, flush, traffic| Workload {
        name,
        why,
        n: 3,
        f: 1,
        flush,
        gc_every: 10,
        net_profile: None,
        rate: 1000.0,
        traffic,
        warmup: Duration::from_secs(2),
    };
    let wan5 = |name, why, flush, rate, traffic| Workload {
        name,
        why,
        n: 5,
        f: 2,
        flush,
        gc_every: 10,
        net_profile: Some(geo5_profile()),
        rate,
        traffic,
        warmup: Duration::from_secs(2),
    };
    match name {
        "lan-write" => Some(lan(
            "lan-write",
            "fast path with no cross-client dependencies, fsync per submit: \
             time goes to the per-command CPU path (wire, reactor, transport, \
             protocol, journal fsync)",
            "every:64",
            Traffic::Conflict(0.0),
        )),
        "lan-ycsb" => Some(lan(
            "lan-ycsb",
            "skewed reads and writes shared by two coordinators, no fsync: \
             keydeps, the dependency graph and a growing store do the work",
            "os",
            Traffic::Ycsb,
        )),
        "wan5-conflict" => Some(wan5(
            "wan5-conflict",
            "the paper's setting: five sites with 10-40 ms links, fast quorum \
             of 4, 10% conflicts; quorum round trips set latency",
            "every:64",
            300.0,
            Traffic::Conflict(0.10),
        )),
        "wan5-ycsb" => Some(wan5(
            "wan5-ycsb",
            "the paper's YCSB mix on the five sites: skewed reads and writes \
             from two coordinators wait on each other's dependencies across \
             WAN round trips",
            "every:64",
            300.0,
            Traffic::Ycsb,
        )),
        _ => None,
    }
}

/// The open-loop schedule of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Commands in due order; command `i` carries `Rifl { client, seq: i + 1 }`.
    pub cmds: Vec<Command>,
    /// Due time of each command, in nanoseconds after the run's start.
    pub due_ns: Vec<u64>,
    /// Connection (index into [`CLIENTS`]) of each command.
    pub conn: Vec<usize>,
    /// Commands due before this offset are warm-up and not measured.
    pub warmup_ns: u64,
    /// Length of the schedule: warm-up plus the measured window.
    pub total_ns: u64,
}

impl Plan {
    /// Index of the first measured command.
    pub fn first_measured(&self) -> usize {
        self.due_ns.partition_point(|&d| d < self.warmup_ns)
    }
}

/// Builds the schedule of `workload` for `measure` seconds after its
/// warm-up: Poisson arrivals at the workload's rate, each command assigned
/// to one of the two connections at random, all drawn from `seed`.
pub fn plan(workload: &Workload, seed: u64, measure: Duration) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut source: Box<dyn kvstore::Workload> = match workload.traffic {
        Traffic::Conflict(rate) => Box::new(ConflictWorkload::new(rate, PAYLOAD)),
        Traffic::Ycsb => Box::new(YcsbWorkload::new(YCSB_RECORDS, YcsbMix::Balanced, PAYLOAD)),
    };
    let warmup_ns = workload.warmup.as_nanos() as u64;
    let total_ns = warmup_ns + measure.as_nanos() as u64;
    let mean_gap_ns = 1e9 / workload.rate;
    let mut plan = Plan {
        cmds: Vec::new(),
        due_ns: Vec::new(),
        conn: Vec::new(),
        warmup_ns,
        total_ns,
    };
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival gap; `1 - u` keeps the logarithm finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * mean_gap_ns;
        if t >= total_ns as f64 {
            return plan;
        }
        let conn = rng.gen_range(0..CLIENTS.len());
        let seq = plan.cmds.len() as u64 + 1;
        plan.cmds
            .push(source.next_command(CLIENTS[conn], seq, &mut rng));
        plan.due_ns.push(t as u64);
        plan.conn.push(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan_write() -> Workload {
        by_name("lan-write").unwrap()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = plan(&lan_write(), 7, Duration::from_secs(1));
        let b = plan(&lan_write(), 7, Duration::from_secs(1));
        let c = plan(&lan_write(), 8, Duration::from_secs(1));
        assert_eq!(a.due_ns, b.due_ns);
        assert_eq!(a.cmds, b.cmds);
        assert_eq!(a.conn, b.conn);
        assert_ne!(a.due_ns, c.due_ns);
    }

    #[test]
    fn due_times_are_sorted_inside_the_schedule_and_match_the_rate() {
        let w = lan_write();
        let p = plan(&w, 3, Duration::from_secs(8));
        assert!(p.due_ns.windows(2).all(|d| d[0] <= d[1]));
        assert!(*p.due_ns.last().unwrap() < p.total_ns);
        assert_eq!(p.total_ns, 10_000_000_000);
        // 10 s at 1000/s: Poisson count 10000 ± 100 (one sigma).
        assert!((9_500..10_500).contains(&p.cmds.len()), "{}", p.cmds.len());
        let measured = (p.cmds.len() - p.first_measured()) as f64;
        assert!((measured / p.cmds.len() as f64 - 0.8).abs() < 0.02);
        assert!(p.due_ns[p.first_measured()] >= p.warmup_ns);
        assert!(p.due_ns[p.first_measured() - 1] < p.warmup_ns);
    }

    #[test]
    fn rifls_index_the_schedule_and_match_the_connection() {
        let p = plan(&by_name("lan-ycsb").unwrap(), 5, Duration::from_secs(1));
        for (i, cmd) in p.cmds.iter().enumerate() {
            assert_eq!(cmd.rifl.seq, i as u64 + 1);
            assert_eq!(cmd.rifl.client, CLIENTS[p.conn[i]]);
        }
        assert!(p.conn.contains(&0) && p.conn.contains(&1));
    }

    #[test]
    fn geo5_profile_parses_with_every_directed_link() {
        let profile = atlas_runtime::NetProfile::parse(&geo5_profile()).unwrap();
        assert_eq!(profile.rules.len(), 20);
    }

    #[test]
    fn every_named_workload_exists() {
        for name in NAMES {
            let w = by_name(name).unwrap();
            assert_eq!(w.name, name);
            assert!(w.f <= (w.n - 1) / 2);
        }
        assert!(by_name("nope").is_none());
    }
}
