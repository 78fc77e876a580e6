//! One invocation: the cluster runs, their checks, and the metrics derived
//! from them.

use crate::cluster::Cluster;
use crate::generator::{self, Outcome, UNANSWERED};
use crate::report::Report;
use crate::stats::{
    cpu_per_op, histogram_quantile, median, nearest_rank, sorted, windowed_quantile,
};
use crate::workload::{self, Plan};
use crate::{probes, Args};
use atlas_metrics::{BoundedHistogram, MetricsSnapshot};
use atlas_runtime::Client;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::runtime::Runtime;

/// Set-ups per cluster run; `setup_s` is their median and the last one
/// serves the run.
const SETUP_REPEATS: usize = 11;

/// How long after the last due time replies may still arrive.
const DRAIN: Duration = Duration::from_secs(5);

/// How long the replicas get to agree on their final state after the drain.
const CONVERGE_DEADLINE: Duration = Duration::from_secs(10);

/// Spacing of the replica CPU samples behind `cpu_us_per_op`: long enough
/// that 10 ms CPU-clock ticks and the Poisson count of commands per interval
/// stay a few percent of the interval, short enough for several intervals
/// per run.
const CPU_INTERVAL: Duration = Duration::from_secs(5);

/// Commands per window of the windowed p99: enough that each window's
/// p99 has ten samples beyond it.
const WINDOW_COMMANDS: usize = 1000;

/// Client identifiers of inspection connections (execution logs, stats).
const INSPECT_CLIENT_BASE: u64 = 2_000;

/// One Stats-plane sample of the traced run, summed over replicas.
#[derive(Debug, Clone, Copy)]
struct Tick {
    at: Instant,
    replied: u64,
    fsyncs: u64,
    snapshots: u64,
    tracked: u64,
}

/// Everything one cluster run observed.
struct ClusterRun {
    replicas: usize,
    setup_s: Vec<f64>,
    plan: Plan,
    outcome: Outcome,
    /// Median over the window's [`CPU_INTERVAL`]s of replica CPU per
    /// command sent, and the number of intervals.
    cpu_us_per_op: f64,
    cpu_intervals: usize,
    rss_mb: f64,
    /// Entry count and digest every replica agreed on, or why they did not.
    converged: Result<(usize, u64), String>,
    /// Traced runs only: each replica's final Stats snapshot, the largest
    /// snapshot file left in a data dir, and the 1 Hz Stats series.
    stats: Vec<MetricsSnapshot>,
    snapshot_bytes: u64,
    series: Vec<Tick>,
}

impl ClusterRun {
    fn attempted(&self) -> u64 {
        self.plan.cmds.len() as u64
    }

    fn failed(&self) -> u64 {
        self.attempted() - self.outcome.answered() as u64
    }

    /// Why the run's outputs are wrong, if they are.
    fn faults(&self) -> Vec<String> {
        let o = &self.outcome;
        let mut faults = Vec::new();
        if o.duplicates > 0 {
            faults.push(format!("{} duplicate replies", o.duplicates));
        }
        if o.foreign > 0 {
            faults.push(format!("{} replies to request ids never sent", o.foreign));
        }
        if o.wrong_outputs > 0 {
            faults.push(format!("{} replies with wrong outputs", o.wrong_outputs));
        }
        if let Err(e) = &self.converged {
            faults.push(e.clone());
        }
        faults
    }

    /// Commands the cluster executed: the schedule plus one set-up probe
    /// per replica.
    fn commands(&self) -> f64 {
        (self.plan.cmds.len() + self.replicas) as f64
    }
}

/// Latency of the measured window.
struct Latency {
    samples: usize,
    unanswered: usize,
    /// From due time to reply.
    p50_ms: f64,
    /// Median over windows of [`WINDOW_COMMANDS`] consecutive commands of
    /// each window's p99, and how many windows there were.
    p99_ms: f64,
    p99_windows: usize,
    /// p99 over the whole measured window.
    p99_pooled_ms: f64,
    /// From actual send to reply.
    p50_from_send_ms: f64,
    /// How late the generator sent, over the whole schedule.
    late_p99_ms: f64,
}

fn latency(plan: &Plan, o: &Outcome) -> Latency {
    let first = plan.first_measured();
    let since = |from: &[u64]| -> Vec<f64> {
        (first..plan.cmds.len())
            .map(|i| match o.reply_ns[i] {
                UNANSWERED => f64::INFINITY,
                r => r.saturating_sub(from[i]) as f64 / 1e6,
            })
            .collect()
    };
    let in_due_order = since(&plan.due_ns);
    let (p99_ms, p99_windows) = windowed_quantile(&in_due_order, WINDOW_COMMANDS, 0.99);
    let from_due = sorted(in_due_order);
    let from_send = sorted(since(&o.sent_ns));
    let late = sorted(
        o.sent_ns
            .iter()
            .zip(&plan.due_ns)
            .map(|(s, d)| s.saturating_sub(*d) as f64 / 1e6)
            .collect(),
    );
    Latency {
        samples: from_due.len(),
        unanswered: from_due.iter().filter(|l| l.is_infinite()).count(),
        p50_ms: nearest_rank(&from_due, 0.50),
        p99_ms,
        p99_windows,
        p99_pooled_ms: nearest_rank(&from_due, 0.99),
        p50_from_send_ms: nearest_rank(&from_send, 0.50),
        late_p99_ms: nearest_rank(&late, 0.99),
    }
}

fn cluster_run(rt: &Runtime, args: &Args, traced: bool, tag: &str) -> io::Result<ClusterRun> {
    let w = &args.workload;
    let mut setup_s = Vec::new();
    let mut cluster = None;
    for k in 0..SETUP_REPEATS {
        let root = args.work_dir.join(format!("{tag}-{k}"));
        let (c, took) = rt.block_on(Cluster::spawn_ready(&args.replica_bin, w, &root))?;
        setup_s.push(took.as_secs_f64());
        // Earlier clusters are torn down here; the last one serves the run.
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one set-up");
    let result = drive_cluster(rt, args, traced, &mut cluster, setup_s);
    if result.is_err() {
        eprint!("replica logs:\n{}", cluster.log_tails());
    }
    drop(cluster);
    let (run, readers) = result?;
    rt.block_on(readers.join());
    Ok(run)
}

fn drive_cluster(
    rt: &Runtime,
    args: &Args,
    traced: bool,
    cluster: &mut Cluster,
    setup_s: Vec<f64>,
) -> io::Result<(ClusterRun, generator::Readers)> {
    let plan = workload::plan(&args.workload, args.seed, args.seconds);
    let stop = Arc::new(AtomicBool::new(false));
    let poller =
        traced.then(|| tokio::spawn(poll_series(cluster.addrs().to_vec(), Arc::clone(&stop))));
    let cpu_stop = AtomicBool::new(false);
    let (driven, cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_cpu(cluster, &cpu_stop));
        let driven = generator::drive(rt, &plan, [cluster.addr(1), cluster.addr(2)], DRAIN);
        cpu_stop.store(true, Ordering::Relaxed);
        (driven, sampler.join().expect("cpu sampler panicked"))
    });
    let (outcome, readers) = driven?;
    let cpu: Vec<(u64, f64)> = cpu?
        .into_iter()
        .map(|(at, s)| {
            (
                at.saturating_duration_since(outcome.start).as_nanos() as u64,
                s,
            )
        })
        .collect();
    let (cpu_us_per_op, cpu_intervals) =
        cpu_per_op(&cpu, &outcome.sent_ns, plan.warmup_ns, plan.total_ns);
    cluster.check_alive()?;
    stop.store(true, Ordering::Relaxed);
    let series = match poller {
        Some(p) => rt
            .block_on(p)
            .map_err(|_| io::Error::other("stats poller panicked"))??,
        None => Vec::new(),
    };
    let converged = rt.block_on(converge(cluster.addrs(), CONVERGE_DEADLINE))?;
    let rss_mb = cluster.peak_rss_mb()?;
    let (stats, snapshot_bytes) = if traced {
        let stats = rt.block_on(fetch_stats(cluster))?;
        let bytes = (1..=cluster.len())
            .map(|id| largest_snapshot(&cluster.data_dir(id)))
            .max()
            .unwrap_or(0);
        (stats, bytes)
    } else {
        (Vec::new(), 0)
    };
    let run = ClusterRun {
        replicas: cluster.len(),
        setup_s,
        plan,
        outcome,
        cpu_us_per_op,
        cpu_intervals,
        rss_mb,
        converged,
        stats,
        snapshot_bytes,
        series,
    };
    Ok((run, readers))
}

/// Samples the replicas' total CPU time every [`CPU_INTERVAL`] until `stop`.
fn sample_cpu(cluster: &Cluster, stop: &AtomicBool) -> io::Result<Vec<(Instant, f64)>> {
    let mut samples = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        samples.push((Instant::now(), cluster.cpu_seconds()?));
        next += CPU_INTERVAL;
        while !stop.load(Ordering::Relaxed) && Instant::now() < next {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    Ok(samples)
}

/// Polls every replica's Stats plane once a second until `stop`.
async fn poll_series(addrs: Vec<SocketAddr>, stop: Arc<AtomicBool>) -> io::Result<Vec<Tick>> {
    let mut clients = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        clients.push(Client::connect(*addr, INSPECT_CLIENT_BASE + 100 + i as u64).await?);
    }
    let mut series = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut tick = Tick {
            at: Instant::now(),
            replied: 0,
            fsyncs: 0,
            snapshots: 0,
            tracked: 0,
        };
        for c in &mut clients {
            let s = c.stats().await?;
            tick.replied += s.lifecycle.replied;
            tick.fsyncs += s.durability.fsyncs;
            tick.snapshots += s.durability.snapshots_saved;
            tick.tracked += s.tracked_entries;
        }
        series.push(tick);
        let next = tick.at + Duration::from_secs(1);
        while Instant::now() < next && !stop.load(Ordering::Relaxed) {
            tokio::time::sleep(Duration::from_millis(20)).await;
        }
    }
    Ok(series)
}

/// Waits up to `patience` until every replica at `addrs` reports the same
/// execution-log length and store digest, with no request id executed
/// twice.
async fn converge(
    addrs: &[SocketAddr],
    patience: Duration,
) -> io::Result<Result<(usize, u64), String>> {
    let mut clients = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        clients.push(Client::connect(*addr, INSPECT_CLIENT_BASE + i as u64).await?);
    }
    let deadline = Instant::now() + patience;
    loop {
        let mut seen = Vec::new();
        for c in &mut clients {
            let (entries, digest) = c.execution_log().await?;
            let distinct: HashSet<_> = entries.iter().map(|(_, rifl)| *rifl).collect();
            if distinct.len() != entries.len() {
                return Ok(Err(format!(
                    "a replica executed {} request ids more than once",
                    entries.len() - distinct.len()
                )));
            }
            seen.push((entries.len(), digest));
        }
        if seen.iter().all(|s| *s == seen[0]) {
            return Ok(Ok(seen[0]));
        }
        if Instant::now() > deadline {
            return Ok(Err(format!(
                "replicas disagree after the drain: (entries, digest) = {seen:?}"
            )));
        }
        tokio::time::sleep(Duration::from_millis(50)).await;
    }
}

async fn fetch_stats(cluster: &Cluster) -> io::Result<Vec<MetricsSnapshot>> {
    let mut all = Vec::new();
    for id in 1..=cluster.len() {
        let mut c =
            Client::connect(cluster.addr(id), INSPECT_CLIENT_BASE + 200 + id as u64).await?;
        all.push(c.stats().await?);
    }
    Ok(all)
}

/// Size of the largest snapshot file in a replica data dir.
fn largest_snapshot(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0)
}

fn header(args: &Args, what: &str) {
    let w = &args.workload;
    println!(
        "{what} {}: n={} f={}, --flush {}, --gc-every {}{}, open loop {} cmd/s over 2 connections, \
         seed {}, {} s measured after {} s warm-up",
        w.name,
        w.n,
        w.f,
        w.flush,
        w.gc_every,
        if w.net_profile.is_some() { ", geo5 net profile" } else { "" },
        w.rate,
        args.seed,
        args.seconds.as_secs(),
        w.warmup.as_secs()
    );
    println!("  why: {}", w.why);
}

fn check(report: &mut Report, run: &ClusterRun) {
    for fault in run.faults() {
        report.correct = false;
        report.line(format!("  CHECK FAILED: {fault}"));
    }
    if let Ok((entries, digest)) = run.converged {
        report.line(format!(
            "  check: {} of {} commands answered exactly once; all replicas executed {entries} commands, digest {digest:#018x}",
            run.outcome.answered(),
            run.attempted()
        ));
    }
}

/// `--trace 0`: one cluster run, end-to-end metrics.
pub fn untraced(rt: &Runtime, args: &Args) -> io::Result<Report> {
    header(args, "workload");
    let run = cluster_run(rt, args, false, "run")?;
    let mut report = Report::new(run.attempted(), run.failed());
    end_to_end(&mut report, &run);
    check(&mut report, &run);
    Ok(report)
}

fn end_to_end(report: &mut Report, run: &ClusterRun) {
    let lat = latency(&run.plan, &run.outcome);
    let measured = format!(
        "n={} measured commands, {} unanswered",
        lat.samples, lat.unanswered
    );
    report.metric(
        "setup_s",
        median(&run.setup_s),
        "s",
        format!(
            "median of n={} set-ups: {}",
            run.setup_s.len(),
            run.setup_s
                .iter()
                .map(|s| format!("{:.1}", s * 1e3))
                .collect::<Vec<_>>()
                .join(" ")
                + " ms"
        ),
    );
    report.metric("p50_ms", lat.p50_ms, "ms", measured.clone());
    report.metric(
        "p99_ms",
        lat.p99_ms,
        "ms",
        format!(
            "median of {} windows' p99, each of >= {WINDOW_COMMANDS} consecutive commands; {measured}",
            lat.p99_windows
        ),
    );
    report.extra("p99_pooled_ms", lat.p99_pooled_ms, "ms", measured.clone());
    report.metric(
        "cpu_us_per_op",
        run.cpu_us_per_op,
        "us",
        format!(
            "median of {} {}-second intervals of all replicas' user+sys CPU / commands sent",
            run.cpu_intervals,
            CPU_INTERVAL.as_secs()
        ),
    );
    report.metric("rss_mb", run.rss_mb, "MiB", "largest replica VmHWM");
    report.extra(
        "error_ratio",
        run.failed() as f64 / run.attempted() as f64,
        "ratio",
        format!("n={} attempted", run.attempted()),
    );
    report.extra(
        "send_late_p99_ms",
        lat.late_p99_ms,
        "ms",
        format!("generator lateness, n={} sends", run.attempted()),
    );
    let seconds: Vec<String> = per_second(&run.plan, &run.outcome)
        .iter()
        .map(|lat| {
            format!(
                "{:.2}/{:.1}",
                nearest_rank(lat, 0.5),
                nearest_rank(lat, 0.99)
            )
        })
        .collect();
    report.line(format!("  per-second p50/p99 ms: {}", seconds.join(" ")));
}

/// Latencies (ms, ascending, unanswered infinite) of the commands due in
/// each whole second of the schedule.
fn per_second(plan: &Plan, o: &Outcome) -> Vec<Vec<f64>> {
    let seconds = plan.total_ns.div_ceil(1_000_000_000) as usize;
    let mut buckets = vec![Vec::new(); seconds];
    for (i, due) in plan.due_ns.iter().enumerate() {
        buckets[(*due / 1_000_000_000) as usize].push(match o.reply_ns[i] {
            UNANSWERED => f64::INFINITY,
            r => r.saturating_sub(*due) as f64 / 1e6,
        });
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(sorted)
        .collect()
}

/// `--trace 1`: an untraced run, a traced run of the same workload and
/// seed, and the layer probes.
pub fn traced(rt: &Runtime, args: &Args) -> io::Result<Report> {
    header(args, "traced workload");
    let base = cluster_run(rt, args, false, "untraced")?;
    let run = cluster_run(rt, args, true, "traced")?;
    let probe = probes::run(
        rt,
        &args.workload,
        args.seed,
        &args.work_dir.join("probes"),
        run.snapshot_bytes,
    )?;
    let mut report = Report::new(
        base.attempted() + run.attempted(),
        base.failed() + run.failed(),
    );
    check(&mut report, &base);
    check(&mut report, &run);
    per_layer(&mut report, &run, &probe);
    reconcile(&mut report, args, &base, &run);
    series(&mut report, &run);
    Ok(report)
}

/// Selects one lifecycle-stage histogram from a replica's snapshot.
type StagePick = fn(&MetricsSnapshot) -> &BoundedHistogram;

/// Histograms of one lifecycle stage, merged across replicas.
fn merged(
    stats: &[MetricsSnapshot],
    pick: impl Fn(&MetricsSnapshot) -> &BoundedHistogram,
) -> BoundedHistogram {
    let mut h = BoundedHistogram::new();
    for s in stats {
        h.merge(pick(s));
    }
    h
}

fn per_layer(report: &mut Report, run: &ClusterRun, probe: &probes::Probes) {
    for p in &probe.protocols {
        report.metric(
            format!("protocol.{}.us_per_cmd", p.name),
            p.us_per_cmd,
            "us",
            format!(
                "submit+handle CPU over all replicas, n={} commands",
                probe.commands
            ),
        );
        report.metric(
            format!("protocol.{}.allocs_per_cmd", p.name),
            p.allocs_per_cmd,
            "count",
            format!("inside submit+handle, n={} commands", probe.commands),
        );
    }
    report.metric(
        "protocol.atlas.msgs_per_cmd",
        probe.atlas_msgs_per_cmd,
        "count",
        "peer frames",
    );
    report.metric(
        "protocol.atlas.bytes_per_cmd",
        probe.atlas_bytes_per_cmd,
        "bytes",
        "peer frame bytes",
    );

    let s = &run.stats;
    let sum = |f: &dyn Fn(&MetricsSnapshot) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let cmds = run.commands();
    let fast = sum(&|m| m.protocol_stats.fast_paths);
    let slow = sum(&|m| m.protocol_stats.slow_paths);
    report.metric(
        "protocol.fast_path_ratio",
        if fast + slow > 0.0 {
            fast / (fast + slow)
        } else {
            0.0
        },
        "ratio",
        format!("Stats: n={} fast + {} slow", fast, slow),
    );
    report.metric(
        "wire.encode_ns",
        probe.encode_ns,
        "ns",
        format!("per peer frame, n={}", probe.frames),
    );
    report.metric(
        "wire.decode_ns",
        probe.decode_ns,
        "ns",
        format!("per peer frame, n={}", probe.frames),
    );
    report.metric(
        "reactor.echo_rtt_us",
        probe.echo_rtt_us,
        "us",
        format!("p50 of n={} one-connection ping-pongs", probes::ECHO_ROUNDS),
    );
    let resent = sum(&|m| m.links.iter().map(|l| l.resent).sum());
    report.metric(
        "transport.resent_per_kcmd",
        resent * 1000.0 / cmds,
        "count",
        format!("Stats: {resent} resent frames / {cmds} commands"),
    );
    report.metric(
        "journal.append_us",
        probe.append_us,
        "us",
        format!("Wal::append, n={} records", probe.records),
    );
    report.metric(
        "journal.fsync_us",
        probe.fsync_us,
        "us",
        format!("p50 of n={} Wal::sync", probes::FSYNC_ROUNDS),
    );
    report.metric(
        "journal.snapshot_ms",
        probe.snapshot_ms,
        "ms",
        format!(
            "median SnapshotStore::save of {} bytes",
            probe.snapshot_bytes
        ),
    );
    let fsyncs = sum(&|m| m.durability.fsyncs);
    let records = sum(&|m| m.durability.journal_records);
    let snapshots = sum(&|m| m.durability.snapshots_saved);
    report.metric(
        "journal.fsyncs_per_cmd",
        fsyncs / cmds,
        "count",
        format!("Stats: {fsyncs} fsyncs, all replicas"),
    );
    report.metric(
        "journal.records_per_cmd",
        records / cmds,
        "count",
        format!("Stats: {records} records, all replicas"),
    );
    let fsync_h = merged(s, |m| &m.durability.fsync_us);
    report.metric(
        "journal.fsync_p50_us",
        histogram_quantile(&fsync_h, 0.5),
        "us",
        format!("Stats: n={}", fsync_h.count()),
    );
    report.metric(
        "journal.snapshots_per_kcmd",
        snapshots * 1000.0 / cmds,
        "count",
        format!("Stats: {snapshots} snapshots, all replicas"),
    );
    report.metric(
        "graph.commit_ns_per_cmd",
        probe.graph_commit_ns,
        "ns",
        format!("DependencyGraph::commit, n={} commits", probe.commits),
    );
    report.metric(
        "executor.apply_ns_per_cmd",
        probe.executor_ns,
        "ns",
        format!(
            "ExecutorPool dispatch+drain, 1 shard, n={} commands",
            probe.commands
        ),
    );
    let stages: [(&str, StagePick, &[f64]); 5] = [
        ("journaled", |m| &m.lifecycle.submit_to_journaled, &[0.5]),
        ("proposed", |m| &m.lifecycle.submit_to_proposed, &[0.5]),
        (
            "committed",
            |m| &m.lifecycle.submit_to_committed,
            &[0.5, 0.99],
        ),
        (
            "executed",
            |m| &m.lifecycle.submit_to_executed,
            &[0.5, 0.99],
        ),
        ("replied", |m| &m.lifecycle.submit_to_replied, &[0.5, 0.99]),
    ];
    for (stage, pick, quantiles) in stages {
        let h = merged(s, pick);
        for &q in quantiles {
            report.metric(
                format!("replica.{stage}_p{}_us", (q * 100.0) as u32),
                histogram_quantile(&h, q),
                "us",
                format!("Stats: merged over replicas, n={}", h.count()),
            );
        }
    }
    let lat = latency(&run.plan, &run.outcome);
    report.metric(
        "client.send_late_p99_ms",
        lat.late_p99_ms,
        "ms",
        format!("generator lateness, n={} sends", run.plan.cmds.len()),
    );
    let replied = report.value("replica.replied_p50_us").unwrap_or(0.0);
    report.metric(
        "client.socket_gap_p50_us",
        lat.p50_from_send_ms * 1e3 - replied,
        "us",
        "client p50 from send minus replica.replied_p50_us",
    );
}

fn reconcile(report: &mut Report, args: &Args, base: &ClusterRun, run: &ClusterRun) {
    let v = |name: &str| report.value(name).unwrap_or(0.0);
    let lat = latency(&run.plan, &run.outcome);
    let parts = v("client.socket_gap_p50_us") + v("replica.replied_p50_us");
    let mut lines = vec![format!(
        "  reconcile p50: p50_ms {:.4} ms vs socket_gap + replica.replied p50 = {:.4} ms; gap {:+.4} ms \
         (time from due to actual send, and percentile non-additivity)",
        lat.p50_ms,
        parts / 1e3,
        lat.p50_ms - parts / 1e3
    )];
    // On loopback without injected delay, a fast-path commit is one journal
    // write, one round trip to a peer and the protocol's CPU.
    if args.workload.net_profile.is_none() {
        let fsyncs = v("journal.fsyncs_per_cmd");
        let frames = v("protocol.atlas.msgs_per_cmd");
        let frame_ns = v("wire.encode_ns") + v("wire.decode_ns");
        let (fsync_us, atlas_us, echo_us) = (
            v("journal.fsync_us"),
            v("protocol.atlas.us_per_cmd"),
            v("reactor.echo_rtt_us"),
        );
        let path = fsyncs * fsync_us + frames * frame_ns / 1e3 + atlas_us + echo_us;
        let committed = v("replica.committed_p50_us");
        lines.push(format!(
            "  reconcile commit: replica.committed_p50_us {committed:.1} us vs probe critical path {path:.1} us \
             = {fsyncs:.2} fsyncs x {fsync_us:.1} us + {frames:.2} frames x {frame_ns:.0} ns \
             + atlas {atlas_us:.1} us + echo rtt {echo_us:.1} us; gap {:+.1} us",
            committed - path
        ));
    }
    let base_lat = latency(&base.plan, &base.outcome);
    lines.push(format!(
        "  tracing overhead: traced p50_ms {:.4} vs untraced {:.4} ({:+.1}%); traced p99_ms {:.4} vs untraced {:.4}",
        lat.p50_ms,
        base_lat.p50_ms,
        (lat.p50_ms / base_lat.p50_ms - 1.0) * 100.0,
        lat.p99_ms,
        base_lat.p99_ms
    ));
    for line in lines {
        report.line(line);
    }
}

/// The 1 Hz series of the traced run: client p50/p99 of the commands due in
/// each second next to the replicas' reply, fsync, snapshot and tracked
/// entry counts (the Stats polls start with the run, within a few tens of
/// milliseconds of the schedule's seconds).
fn series(report: &mut Report, run: &ClusterRun) {
    if run.series.is_empty() {
        return;
    }
    report.line(
        "  second  client_p50_ms  client_p99_ms  replied  fsyncs  snapshots  tracked".to_string(),
    );
    let seconds = per_second(&run.plan, &run.outcome);
    for (k, pair) in run.series.windows(2).enumerate() {
        let (p50, p99) = match seconds.get(k) {
            Some(lat) => (nearest_rank(lat, 0.5), nearest_rank(lat, 0.99)),
            None => (0.0, 0.0),
        };
        report.line(format!(
            "  {:>6}  {:>13.3}  {:>13.3}  {:>7}  {:>6}  {:>9}  {:>7}",
            k + 1,
            p50,
            p99,
            pair[1].replied - pair[0].replied,
            pair[1].fsyncs - pair[0].fsyncs,
            pair[1].snapshots - pair[0].snapshots,
            pair[1].tracked
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Config;
    use atlas_protocol::Atlas;

    /// A tiny run through the real generator against an in-process
    /// cluster passes every check; replicas that executed different
    /// commands fail the digest check.
    #[test]
    fn tiny_run_converges_and_diverged_replicas_are_caught() {
        let rt = Runtime::new().unwrap();
        let mut w = workload::by_name("lan-ycsb").unwrap();
        w.rate = 300.0;
        w.warmup = Duration::from_millis(100);
        let plan = workload::plan(&w, 9, Duration::from_millis(400));
        let clusters = rt.block_on(async {
            let mut clusters = Vec::new();
            for _ in 0..3 {
                clusters.push(
                    atlas_runtime::Cluster::spawn::<Atlas>(Config::new(3, 1))
                        .await
                        .unwrap(),
                );
            }
            clusters
        });
        let addrs = |c: &atlas_runtime::Cluster| -> Vec<SocketAddr> {
            (1..=3).map(|id| c.addr(id)).collect()
        };

        let (outcome, readers) = generator::drive(
            &rt,
            &plan,
            [clusters[0].addr(1), clusters[0].addr(2)],
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(outcome.answered(), plan.cmds.len());
        assert_eq!(
            (outcome.duplicates, outcome.foreign, outcome.wrong_outputs),
            (0, 0, 0)
        );
        let agreed = rt.block_on(converge(&addrs(&clusters[0]), Duration::from_secs(10)));
        assert_eq!(agreed.unwrap().unwrap().0, plan.cmds.len());

        // Same number of commands, different values: only the digest differs.
        rt.block_on(async {
            for (value, cluster) in [(1, &clusters[1]), (2, &clusters[2])] {
                let mut client = Client::connect(cluster.addr(1), 77).await.unwrap();
                client.put(5, value).await.unwrap();
            }
        });
        let mixed = [clusters[1].addr(1), clusters[2].addr(1)];
        let verdict = rt
            .block_on(converge(&mixed, Duration::from_millis(300)))
            .unwrap();
        assert!(verdict.unwrap_err().contains("disagree"));

        for cluster in clusters {
            cluster.shutdown();
        }
        rt.block_on(readers.join());
    }
}
