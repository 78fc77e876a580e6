//! Per-protocol counters.
//!
//! The evaluation section of the paper reports fast-path ratios and
//! commit-to-execute delays alongside client latencies. [`ProtocolMetrics`]
//! collects the protocol side of that: scalar counters plus count/sum/max
//! moments, all constant-size, so a replica can keep recording into it for
//! its whole life and snapshot it with the rest of its state. Client latency
//! distributions live in `atlas_metrics::BoundedHistogram`.

use serde::{Deserialize, Serialize};

/// Counters and moments accumulated by a protocol replica — the same value
/// the runtime exports as `MetricsSnapshot::protocol_stats`. Integer-only
/// and constant-size: no sample is retained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolMetrics {
    /// Commands committed via the fast path at this replica (as coordinator).
    pub fast_paths: u64,
    /// Commands committed via the slow path at this replica (as coordinator).
    pub slow_paths: u64,
    /// Commands committed locally (any coordinator).
    pub commits: u64,
    /// Commands executed locally.
    pub executions: u64,
    /// Recoveries this replica initiated (took over as coordinator).
    pub recoveries: u64,
    /// `noOp` commands this replica committed during recovery.
    pub noops: u64,
    /// Commands with a recorded commit-to-execute delay.
    pub commit_to_execute_count: u64,
    /// Sum of commit-to-execute delays (µs).
    pub commit_to_execute_sum_us: u128,
    /// Largest commit-to-execute delay (µs).
    pub commit_to_execute_max_us: u64,
    /// Execution batches recorded (strongly connected components of the
    /// dependency graph, for the graph-executing protocols).
    pub batch_count: u64,
    /// Sum of execution batch sizes.
    pub batch_sum: u128,
    /// Committed commands with a recorded dependency count.
    pub dependency_count: u64,
    /// Sum of per-command dependency counts.
    pub dependency_sum: u128,
}

impl ProtocolMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one command's delay between local commit and local execution.
    pub fn record_commit_to_execute(&mut self, us: u64) {
        self.commit_to_execute_count += 1;
        self.commit_to_execute_sum_us += u128::from(us);
        self.commit_to_execute_max_us = self.commit_to_execute_max_us.max(us);
    }

    /// Records one execution batch of `size` commands.
    pub fn record_batch(&mut self, size: usize) {
        self.batch_count += 1;
        self.batch_sum += size as u128;
    }

    /// Records the dependency count of one committed command.
    pub fn record_dependencies(&mut self, count: usize) {
        self.dependency_count += 1;
        self.dependency_sum += count as u128;
    }

    /// Fraction of coordinator commits that took the fast path, in `[0, 1]`.
    /// Returns `None` if this replica coordinated no commands.
    pub fn fast_path_ratio(&self) -> Option<f64> {
        let total = self.fast_paths + self.slow_paths;
        (total > 0).then(|| self.fast_paths as f64 / total as f64)
    }

    /// Mean commit-to-execute delay in µs, or 0 if none recorded.
    pub fn commit_to_execute_mean_us(&self) -> f64 {
        mean(self.commit_to_execute_sum_us, self.commit_to_execute_count)
    }

    /// Mean execution batch size, or 0 if none recorded.
    pub fn mean_batch_size(&self) -> f64 {
        mean(self.batch_sum, self.batch_count)
    }

    /// Mean dependencies per committed command, or 0 if none recorded.
    pub fn mean_dependencies(&self) -> f64 {
        mean(self.dependency_sum, self.dependency_count)
    }

    /// Merges another replica's metrics into this one (cluster-wide
    /// aggregation).
    pub fn merge(&mut self, other: &ProtocolMetrics) {
        self.fast_paths += other.fast_paths;
        self.slow_paths += other.slow_paths;
        self.commits += other.commits;
        self.executions += other.executions;
        self.recoveries += other.recoveries;
        self.noops += other.noops;
        self.commit_to_execute_count += other.commit_to_execute_count;
        self.commit_to_execute_sum_us += other.commit_to_execute_sum_us;
        self.commit_to_execute_max_us = self
            .commit_to_execute_max_us
            .max(other.commit_to_execute_max_us);
        self.batch_count += other.batch_count;
        self.batch_sum += other.batch_sum;
        self.dependency_count += other.dependency_count;
        self.dependency_sum += other.dependency_sum;
    }
}

fn mean(sum: u128, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_ratio() {
        let mut m = ProtocolMetrics::new();
        assert_eq!(m.fast_path_ratio(), None);
        m.fast_paths = 3;
        m.slow_paths = 1;
        assert_eq!(m.fast_path_ratio(), Some(0.75));
    }

    #[test]
    fn moments_track_count_sum_and_max() {
        let mut m = ProtocolMetrics::new();
        assert_eq!(m.commit_to_execute_mean_us(), 0.0);
        assert_eq!(m.mean_batch_size(), 0.0);
        assert_eq!(m.mean_dependencies(), 0.0);
        m.record_commit_to_execute(100);
        m.record_commit_to_execute(300);
        m.record_dependencies(1);
        m.record_dependencies(3);
        m.record_batch(1);
        m.record_batch(2);
        assert_eq!(m.commit_to_execute_count, 2);
        assert_eq!(m.commit_to_execute_mean_us(), 200.0);
        assert_eq!(m.commit_to_execute_max_us, 300);
        assert_eq!(m.mean_dependencies(), 2.0);
        assert_eq!(m.mean_batch_size(), 1.5);
    }

    #[test]
    fn metrics_merge_accumulates() {
        let mut a = ProtocolMetrics::new();
        a.fast_paths = 1;
        a.commits = 2;
        a.record_commit_to_execute(5);
        let mut b = ProtocolMetrics::new();
        b.fast_paths = 2;
        b.slow_paths = 4;
        b.commits = 6;
        b.record_commit_to_execute(7);
        a.merge(&b);
        assert_eq!(a.fast_paths, 3);
        assert_eq!(a.slow_paths, 4);
        assert_eq!(a.commits, 8);
        assert_eq!(a.commit_to_execute_count, 2);
        assert_eq!(a.commit_to_execute_sum_us, 12);
        assert_eq!(a.commit_to_execute_max_us, 7);
    }
}
