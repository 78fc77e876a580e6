//! Replica processes: spawning `atlas-replica` on loopback with fresh data
//! directories, each pinned to one CPU, timing set-up, reading `/proc`, and
//! teardown that kills the processes and removes their directories on every
//! exit path.

use crate::workload::Workload;
use atlas_core::{Command, Rifl};
use atlas_runtime::Client;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh cluster may take to answer its first commands.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);

/// Client identifiers of the set-up probes (one per replica).
const SETUP_CLIENT_BASE: u64 = 1_000;

/// Keys the set-up probes write: far from every workload key.
const SETUP_KEY_BASE: u64 = 1 << 40;

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every architecture the kernel supports.
const USER_HZ: f64 = 100.0;

/// A running cluster of replica processes. Dropping it kills the processes
/// and removes the data directories.
#[derive(Debug)]
pub struct Cluster {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
    root: PathBuf,
}

impl Cluster {
    /// Spawns `workload.n` replicas of `bin`, each with a fresh data
    /// directory under `root` (which must not exist yet).
    fn spawn(bin: &Path, workload: &Workload, root: &Path) -> io::Result<Self> {
        fs::create_dir_all(root)?;
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: free_ports(workload.n)?,
            root: root.to_path_buf(),
        };
        let book = cluster
            .addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let cpus = allowed_cpus()?;
        for id in 1..=workload.n {
            let dir = root.join(format!("r{id}"));
            let log = fs::File::create(root.join(format!("r{id}.log")))?;
            // Each replica stays on one CPU (`taskset`, util-linux),
            // round-robin over the CPUs this process may use. Left to the
            // scheduler, the replicas' threads migrate and wake each other
            // across CPUs, and on a shared 2-vCPU virtual machine replica
            // CPU per command then moved by up to 40% between runs of the
            // same code, against about 12% pinned.
            let mut cmd = Process::new("taskset");
            cmd.args(["--cpu-list", &cpus[(id - 1) % cpus.len()].to_string()])
                .arg(bin)
                .args(["--id", &id.to_string(), "--f", &workload.f.to_string()])
                .args(["--addrs", &book])
                .arg("--data-dir")
                .arg(&dir)
                .args(["--flush", workload.flush])
                .args(["--gc-every", &workload.gc_every.to_string()]);
            if let Some(profile) = &workload.net_profile {
                cmd.args(["--net-profile", profile]);
            }
            // Replicas run with their own default worker pool, not the
            // generator's.
            cmd.env_remove("TOKIO_WORKER_THREADS")
                .stdin(Stdio::null())
                .stdout(log.try_clone()?)
                .stderr(log);
            let child = cmd
                .spawn()
                .map_err(|e| io::Error::other(format!("spawning replica {id} via taskset: {e}")))?;
            cluster.children.push(child);
        }
        Ok(cluster)
    }

    /// Spawns a cluster and waits until every replica answered one command;
    /// returns it with the time that took.
    pub async fn spawn_ready(
        bin: &Path,
        workload: &Workload,
        root: &Path,
    ) -> io::Result<(Self, Duration)> {
        let start = Instant::now();
        let cluster = Self::spawn(bin, workload, root)?;
        let probes: Vec<_> = cluster
            .addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| tokio::spawn(first_answer(addr, i as u64)))
            .collect();
        for probe in probes {
            probe
                .await
                .map_err(|_| io::Error::other("set-up probe panicked"))??;
        }
        Ok((cluster, start.elapsed()))
    }

    /// Loopback address of replica `id` (1-based).
    pub fn addr(&self, id: usize) -> SocketAddr {
        self.addrs[id - 1]
    }

    /// Loopback addresses of all replicas, in identifier order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Data directory of replica `id`.
    pub fn data_dir(&self, id: usize) -> PathBuf {
        self.root.join(format!("r{id}"))
    }

    /// User plus system CPU seconds consumed so far by all replicas.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ticks = 0u64;
        for child in &self.children {
            ticks += cpu_ticks(child.id())?;
        }
        Ok(ticks as f64 / USER_HZ)
    }

    /// Largest peak resident set (`VmHWM`) over the replicas, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut peak_kb = 0u64;
        for child in &self.children {
            peak_kb = peak_kb.max(vm_hwm_kb(child.id())?);
        }
        Ok(peak_kb as f64 / 1024.0)
    }

    /// Fails if a replica process has exited.
    pub fn check_alive(&mut self) -> io::Result<()> {
        for (i, child) in self.children.iter_mut().enumerate() {
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "replica {} exited early ({status})",
                    i + 1
                )));
            }
        }
        Ok(())
    }

    /// Last lines of every replica's log, for failure reports.
    pub fn log_tails(&self) -> String {
        let mut out = String::new();
        for id in 1..=self.len() {
            let text = fs::read_to_string(self.root.join(format!("r{id}.log"))).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            for line in &lines[lines.len().saturating_sub(5)..] {
                out.push_str(&format!("  r{id}: {line}\n"));
            }
        }
        out
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Connects to a fresh replica (retrying until it listens) and waits for
/// one PUT to execute.
async fn first_answer(addr: SocketAddr, index: u64) -> io::Result<()> {
    let deadline = Instant::now() + SETUP_DEADLINE;
    let client = SETUP_CLIENT_BASE + index;
    loop {
        match Client::connect(addr, client).await {
            Ok(mut c) => {
                let cmd = Command::put(Rifl::new(client, 1), SETUP_KEY_BASE + index, 1, 8);
                return tokio::time::timeout(SETUP_DEADLINE, c.submit(cmd))
                    .await
                    .map_err(|_| io::Error::other(format!("{addr} never answered")))?
                    .map(drop);
            }
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => tokio::time::sleep(Duration::from_millis(1)).await,
        }
    }
}

/// `n` loopback addresses that were free a moment ago.
fn free_ports(n: usize) -> io::Result<Vec<SocketAddr>> {
    // Hold every listener until all ports are chosen so none repeats.
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

/// CPUs this process may run on (`Cpus_allowed_list` of
/// `/proc/self/status`).
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .ok_or_else(|| io::Error::other("no Cpus_allowed_list in /proc/self/status"))
}

/// Parses a kernel CPU list such as `0-3,8,10-11`; `None` if it is
/// malformed or empty.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi): (usize, usize) = match part.split_once('-') {
            Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
            None => {
                let cpu = part.parse().ok()?;
                (cpu, cpu)
            }
        };
        if lo > hi {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// `utime + stime` of a process, in clock ticks (`/proc/<pid>/stat` fields
/// 14 and 15; the command name in field 2 may contain spaces, so fields
/// are counted after its closing parenthesis).
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_cpu_ticks(&stat).ok_or_else(|| io::Error::other(format!("bad /proc/{pid}/stat")))
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of a process in KiB (`VmHWM` in `/proc/<pid>/status`).
pub fn vm_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM for {pid}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let stat = "42 (tokio worker) S 1 2 3 4 5 6 7 8 9 10 250 31 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(281));
        assert_eq!(parse_cpu_ticks("42 (x) S 1"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,5,7-8"), Some(vec![0, 1, 2, 5, 7, 8]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("2-1"), None);
        assert!(!allowed_cpus().unwrap().is_empty());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_ok());
        assert!(vm_hwm_kb(pid).unwrap() > 0);
    }
}
