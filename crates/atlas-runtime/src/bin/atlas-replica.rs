//! Runs one networked replica: `atlas-replica --id 1 --f 1
//! --addrs 127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003 [--protocol atlas]
//! [--data-dir /var/lib/atlas/r1]`
//!
//! The `--addrs` list is the full cluster membership in identifier order;
//! replica `--id i` binds the `i`-th address and dials the others with
//! reconnecting links, so start order does not matter. After membership
//! changes identifiers are no longer contiguous, so each entry may also be
//! written `id=addr` (`--addrs 1=127.0.0.1:4001,2=127.0.0.1:4002,5=...`);
//! the two syntaxes cannot be mixed.
//!
//! `--join` starts the replica as an **incoming member**: its address book
//! must list the current members plus itself, it boots as a non-voting
//! learner of the existing configuration (peer-assisted catch-up is
//! implied) and starts voting only once the `Enter` barrier that admits it
//! executes. Submit that barrier through any current member (e.g.
//! `atlas-client --enter`) *before* starting the joiner — see the
//! membership-change runbook in the README.
//!
//! With `--data-dir` the replica journals every input and snapshots its
//! state there; after a crash (SIGKILL included), rerunning the same command
//! line recovers the replica before it serves traffic. `--flush` trades
//! durability against fsync cost (`always`, `every:<n>`, `os`), and
//! `--catch-up` makes a replica whose data dir was lost rebuild committed
//! state from its peers.
//!
//! Failure detection is on by default: a peer silent past `--suspect-after`
//! (milliseconds, default 1500) is handed to the protocol's recovery
//! (`Protocol::suspect`), and trusted again only after being audible for
//! `--trust-after` (default 250). `--no-failure-detector` turns it off.
//!
//! `--gc-every <ticks>` enables executed-entry garbage collection: the
//! replicas exchange executed watermarks on that cadence and drop
//! per-command bookkeeping once **every** replica has executed an entry,
//! keeping protocol maps, the journal and the snapshots bounded.
//! `--catch-up-chunk-bytes <bytes>` bounds each frame of the streamed
//! catch-up a recovering replica receives (default 4 MiB).
//!
//! `--metrics-every <ticks>` appends one JSON line of the replica's full
//! metrics snapshot (lifecycle latencies, fast/slow path counters,
//! fsync/detector/GC/link telemetry) to `metrics.jsonl` in the data
//! directory on that cadence. The live stats plane — `atlas-top`, or any
//! client sending a `Stats` request — works without this flag.
//!
//! `--shards <n>` (default 1) runs the sharded parallel executor pool:
//! committed commands are routed by key hash onto `n` executor threads, so
//! commands touching disjoint shards execute concurrently while per-key
//! order, replies, digests and crash-replay stay byte-identical to the
//! single-threaded run. `--shards 1` keeps execution inline on the event
//! loop (no executor threads at all).
//!
//! `--net-profile <spec>` injects WAN conditions on this replica's
//! **outbound** peer links — per-directed-link delay/jitter/bandwidth,
//! scheduled cuts (symmetric when both sides carry the rule, asymmetric
//! otherwise) and probabilistic connection resets. The spec is a
//! semicolon-separated rule list, e.g.
//! `delay=25ms,jitter=2ms;1->3:cut=10s+2s;seed=7` — see
//! `atlas_runtime::NetProfile::parse` for the grammar. Run every replica
//! with its own profile (rules select links by `<from>-><to>` identifiers,
//! so the same spec can be shared cluster-wide).

use atlas_core::{Config, ProcessId, Protocol};
use atlas_log::FlushPolicy;
use atlas_runtime::replica::{self, ReplicaConfig};
use atlas_runtime::NetProfile;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: atlas-replica --id <id> --addrs <a1,a2,...|id=addr,...> [--f <f>] \
         [--protocol atlas|epaxos|fpaxos|mencius] [--nfr] \
         [--data-dir <path>] [--flush always|every:<n>|os] \
         [--snapshot-every <records>] [--catch-up] [--join] \
         [--suspect-after <ms>] [--trust-after <ms>] [--no-failure-detector] \
         [--gc-every <ticks>] [--catch-up-chunk-bytes <bytes>] \
         [--metrics-every <ticks>] [--shards <n>] [--net-profile <spec>]"
    );
    exit(2);
}

struct Args {
    id: ProcessId,
    addrs: Vec<(ProcessId, SocketAddr)>,
    f: usize,
    protocol: String,
    nfr: bool,
    data_dir: Option<PathBuf>,
    flush: FlushPolicy,
    snapshot_every: u64,
    catch_up: bool,
    join: bool,
    suspect_after: Option<u64>,
    trust_after: Option<u64>,
    failure_detector: bool,
    gc_every: u64,
    catch_up_chunk_bytes: Option<usize>,
    metrics_every: u64,
    shards: usize,
    net: Option<NetProfile>,
}

fn parse_args() -> Args {
    let mut args = Args {
        id: 0,
        addrs: Vec::new(),
        f: 1,
        protocol: "atlas".to_string(),
        nfr: false,
        data_dir: None,
        flush: FlushPolicy::default(),
        snapshot_every: 4096,
        catch_up: false,
        join: false,
        suspect_after: None,
        trust_after: None,
        failure_detector: true,
        gc_every: 0,
        catch_up_chunk_bytes: None,
        metrics_every: 0,
        shards: 1,
        net: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |flag: &str| iter.next().unwrap_or_else(|| usage_for(flag));
        fn usage_for(flag: &str) -> String {
            eprintln!("missing value for {flag}");
            usage()
        }
        match flag.as_str() {
            "--id" => args.id = value("--id").parse().unwrap_or_else(|_| usage()),
            "--f" => args.f = value("--f").parse().unwrap_or_else(|_| usage()),
            "--protocol" => args.protocol = value("--protocol"),
            "--nfr" => args.nfr = true,
            "--addrs" => {
                args.addrs = value("--addrs")
                    .split(',')
                    .enumerate()
                    .map(|(i, entry)| match entry.split_once('=') {
                        // Explicit `id=addr` — the post-reconfiguration
                        // form, where identifiers are not contiguous.
                        Some((id, addr)) => (
                            id.parse().unwrap_or_else(|_| usage()),
                            addr.parse().unwrap_or_else(|_| usage()),
                        ),
                        // Bare `addr` — positional, identifier `i + 1`.
                        None => (
                            i as ProcessId + 1,
                            entry.parse().unwrap_or_else(|_| usage()),
                        ),
                    })
                    .collect()
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--flush" => {
                args.flush = FlushPolicy::parse(&value("--flush")).unwrap_or_else(|| usage())
            }
            "--snapshot-every" => {
                args.snapshot_every = value("--snapshot-every")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--catch-up" => args.catch_up = true,
            "--join" => args.join = true,
            "--suspect-after" => {
                args.suspect_after =
                    Some(value("--suspect-after").parse().unwrap_or_else(|_| usage()))
            }
            "--trust-after" => {
                args.trust_after = Some(value("--trust-after").parse().unwrap_or_else(|_| usage()))
            }
            "--no-failure-detector" => args.failure_detector = false,
            "--gc-every" => args.gc_every = value("--gc-every").parse().unwrap_or_else(|_| usage()),
            "--catch-up-chunk-bytes" => {
                args.catch_up_chunk_bytes = Some(
                    value("--catch-up-chunk-bytes")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--metrics-every" => {
                args.metrics_every = value("--metrics-every").parse().unwrap_or_else(|_| usage())
            }
            "--shards" => {
                args.shards = value("--shards").parse().unwrap_or_else(|_| usage());
                if args.shards == 0 {
                    eprintln!("--shards must be at least 1");
                    usage();
                }
            }
            "--net-profile" => {
                args.net = Some(
                    NetProfile::parse(&value("--net-profile")).unwrap_or_else(|e| {
                        eprintln!("bad --net-profile: {e}");
                        usage()
                    }),
                )
            }
            _ => usage(),
        }
    }
    let mut ids: Vec<ProcessId> = args.addrs.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    let unique = ids.windows(2).all(|w| w[0] != w[1]);
    if args.id == 0 || args.addrs.is_empty() || !unique || !ids.contains(&args.id) {
        usage();
    }
    args
}

fn run<P: Protocol>(args: &Args) {
    let n = args.addrs.len();
    let config = Config::new(n, args.f).with_nfr(args.nfr);
    let addrs: HashMap<ProcessId, SocketAddr> = args.addrs.iter().copied().collect();
    let mut cfg = ReplicaConfig::new(args.id, config, addrs);
    cfg.data_dir = args.data_dir.clone();
    cfg.flush_policy = args.flush;
    cfg.snapshot_every = args.snapshot_every;
    // A joiner has no configuration prefix of its own: peer-assisted
    // catch-up is how it reaches the `Enter` barrier that admits it.
    cfg.catch_up = args.catch_up || args.join;
    cfg.join = args.join;
    if !args.failure_detector {
        cfg.suspect_after = None;
    } else if let Some(ms) = args.suspect_after {
        cfg.suspect_after = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(ms) = args.trust_after {
        cfg.trust_after = std::time::Duration::from_millis(ms);
    }
    cfg.gc_every = args.gc_every;
    if let Some(bytes) = args.catch_up_chunk_bytes {
        cfg.catch_up_chunk_bytes = bytes;
    }
    cfg.metrics_every = args.metrics_every;
    cfg.shards = args.shards;
    cfg.net = args.net.clone();
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    rt.block_on(async {
        let handle = replica::spawn::<P>(cfg).await.expect("replica spawn");
        println!(
            "{} replica {} listening on {} (n={n}, f={}, {})",
            P::name(),
            handle.id,
            handle.addr,
            args.f,
            match &args.data_dir {
                Some(dir) => format!("journaling to {}", dir.display()),
                None => "ephemeral".to_string(),
            }
        );
        // Serve until killed.
        loop {
            tokio::time::sleep(std::time::Duration::from_secs(3600)).await;
        }
    });
}

fn main() {
    let args = parse_args();
    match args.protocol.as_str() {
        "atlas" => run::<atlas_protocol::Atlas>(&args),
        "epaxos" => run::<epaxos::EPaxos>(&args),
        "fpaxos" => run::<fpaxos::FPaxos>(&args),
        "mencius" => run::<mencius::Mencius>(&args),
        other => {
            eprintln!("unknown protocol {other:?}");
            usage();
        }
    }
}
