//! Per-second resource-usage traces: the simulated "environment logs".
//!
//! The trace plays the role of the `sar`/`/proc` sampling a real Granula
//! deployment runs on every node: per second and per node, how much CPU time
//! was consumed and how many bytes moved through disk and network.

use serde::{Deserialize, Serialize};

use crate::activity::ActivityKind;
use crate::intern::Symbol;
use crate::topology::{ClusterSpec, NodeId};

/// Which channel of the trace to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Busy core-seconds per second (a node with 8 fully-busy cores shows 8.0).
    Cpu,
    /// Disk bytes per second.
    Disk,
    /// Network receive bytes per second.
    NetIn,
    /// Network transmit bytes per second.
    NetOut,
}

/// Accumulated per-node, per-bucket resource usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageTrace {
    /// Bucket width in microseconds (default: one second).
    pub bucket_us: u64,
    /// Interned node names — `Copy`-cheap records, no per-trace `String`
    /// clones; serde round-trips them as text so archives stay portable.
    node_names: Vec<Symbol>,
    cpu: Vec<Vec<f64>>,
    disk: Vec<Vec<f64>>,
    net_in: Vec<Vec<f64>>,
    net_out: Vec<Vec<f64>>,
}

impl UsageTrace {
    /// An empty trace for `cluster` with one-second buckets.
    pub fn new(cluster: &ClusterSpec) -> Self {
        Self::with_bucket(cluster, 1_000_000)
    }

    /// An empty trace with a custom bucket width.
    pub fn with_bucket(cluster: &ClusterSpec, bucket_us: u64) -> Self {
        assert!(bucket_us > 0, "bucket width must be positive");
        let n = cluster.len();
        UsageTrace {
            bucket_us,
            node_names: cluster
                .nodes
                .iter()
                .map(|s| Symbol::intern(&s.name))
                .collect(),
            cpu: vec![Vec::new(); n],
            disk: vec![Vec::new(); n],
            net_in: vec![Vec::new(); n],
            net_out: vec![Vec::new(); n],
        }
    }

    /// Node names in [`NodeId`] order, as interned symbols
    /// ([`Symbol::as_str`] resolves the text).
    pub fn node_names(&self) -> &[Symbol] {
        &self.node_names
    }

    /// Accumulates a constant-rate usage of `rate` (unit/µs) on `node` over
    /// `[t0_us, t1_us)` into the channel. For CPU the rate is in cores, so a
    /// bucket's value is busy core-seconds within that second.
    pub(crate) fn add(&mut self, ch: Channel, node: NodeId, t0_us: f64, t1_us: f64, rate: f64) {
        if t1_us <= t0_us || rate <= 0.0 {
            return;
        }
        let bucket = self.bucket_us as f64;
        let series = self.series_mut(ch, node);
        let scale = match ch {
            // cores * µs -> core-seconds
            Channel::Cpu => 1e-6,
            // bytes/µs * µs -> bytes; buckets are per second already
            _ => 1.0,
        };
        let first = (t0_us / bucket).floor() as usize;
        let last = ((t1_us / bucket).ceil() as usize).max(first + 1);
        if series.len() < last {
            series.resize(last, 0.0);
        }
        // Slice from `first` directly — a skip() over the full series would
        // cost O(first) per call, which adds up for spans late in long runs.
        for (off, slot) in series[first..last].iter_mut().enumerate() {
            let lo = ((first + off) as f64) * bucket;
            let hi = lo + bucket;
            let overlap = (t1_us.min(hi) - t0_us.max(lo)).max(0.0);
            *slot += rate * overlap * scale;
        }
    }

    fn series_mut(&mut self, ch: Channel, node: NodeId) -> &mut Vec<f64> {
        let i = node.0 as usize;
        match ch {
            Channel::Cpu => &mut self.cpu[i],
            Channel::Disk => &mut self.disk[i],
            Channel::NetIn => &mut self.net_in[i],
            Channel::NetOut => &mut self.net_out[i],
        }
    }

    fn series_ref(&self, ch: Channel, node: NodeId) -> &[f64] {
        let i = node.0 as usize;
        match ch {
            Channel::Cpu => &self.cpu[i],
            Channel::Disk => &self.disk[i],
            Channel::NetIn => &self.net_in[i],
            Channel::NetOut => &self.net_out[i],
        }
    }

    /// The `(bucket_start_us, value)` series of a node and channel.
    pub fn series(&self, ch: Channel, node: NodeId) -> Vec<(u64, f64)> {
        self.series_ref(ch, node)
            .iter()
            .enumerate()
            .map(|(b, &v)| (b as u64 * self.bucket_us, v))
            .collect()
    }

    /// Cluster-wide sum per bucket for a channel (Figures 6–7's cumulative
    /// CPU line).
    pub fn cumulative(&self, ch: Channel) -> Vec<(u64, f64)> {
        let n_buckets = (0..self.node_names.len())
            .map(|i| self.series_ref(ch, NodeId(i as u16)).len())
            .max()
            .unwrap_or(0);
        (0..n_buckets)
            .map(|b| {
                let sum: f64 = (0..self.node_names.len())
                    .map(|i| {
                        self.series_ref(ch, NodeId(i as u16))
                            .get(b)
                            .copied()
                            .unwrap_or(0.0)
                    })
                    .sum();
                (b as u64 * self.bucket_us, sum)
            })
            .collect()
    }

    /// Peak cluster-wide value of a channel.
    pub fn peak(&self, ch: Channel) -> f64 {
        self.cumulative(ch)
            .into_iter()
            .map(|(_, v)| v)
            .fold(0.0, f64::max)
    }
}

/// Where an activity's usage is charged (up to two `(channel, node)` targets).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceTargets {
    pub(crate) ch: [(Channel, NodeId); 2],
    pub(crate) n: u8,
}

pub(crate) fn trace_targets(kind: &ActivityKind) -> TraceTargets {
    let mut t = TraceTargets {
        ch: [(Channel::Cpu, NodeId(0)); 2],
        n: 0,
    };
    match kind {
        ActivityKind::Compute { node, .. } => {
            t.ch[0] = (Channel::Cpu, *node);
            t.n = 1;
        }
        ActivityKind::DiskRead { node, .. } | ActivityKind::DiskWrite { node, .. } => {
            t.ch[0] = (Channel::Disk, *node);
            t.n = 1;
        }
        ActivityKind::Transfer { src, dst, .. } => {
            t.ch[0] = (Channel::NetOut, *src);
            t.ch[1] = (Channel::NetIn, *dst);
            t.n = 2;
        }
        ActivityKind::SharedRead { node, .. } => {
            t.ch[0] = (Channel::NetIn, *node);
            t.n = 1;
        }
        ActivityKind::Delay { .. } | ActivityKind::Barrier => {}
    }
    t
}

/// Dense per-`(channel, node)` accumulator batching [`UsageTrace`] spans.
///
/// Within one flush wave every pushed span ends at the same boundary, so
/// spans sharing `(channel, node, start)` — the common case when many
/// activities share one resource — merge into a single `UsageTrace::add`.
pub(crate) struct FlushWave {
    t0: Vec<f64>,
    rate: Vec<f64>,
    on: Vec<bool>,
    touched: Vec<u32>,
    nodes: usize,
}

fn channel_index(ch: Channel) -> usize {
    match ch {
        Channel::Cpu => 0,
        Channel::Disk => 1,
        Channel::NetIn => 2,
        Channel::NetOut => 3,
    }
}

fn channel_of(i: usize) -> Channel {
    match i {
        0 => Channel::Cpu,
        1 => Channel::Disk,
        2 => Channel::NetIn,
        _ => Channel::NetOut,
    }
}

impl FlushWave {
    pub(crate) fn new(nodes: usize) -> Self {
        FlushWave {
            t0: vec![0.0; 4 * nodes],
            rate: vec![0.0; 4 * nodes],
            on: vec![false; 4 * nodes],
            touched: Vec::new(),
            nodes,
        }
    }

    fn slot_index(&self, ch: Channel, node: NodeId) -> usize {
        channel_index(ch) * self.nodes + node.0 as usize
    }

    /// Adds the span `[t0, t1) @ rate`; merges with a pending span of the
    /// same `(channel, node, t0)`, else emits the pending one first.
    pub(crate) fn push(
        &mut self,
        trace: &mut UsageTrace,
        ch: Channel,
        node: NodeId,
        t0: f64,
        t1: f64,
        rate: f64,
    ) {
        let i = self.slot_index(ch, node);
        if self.on[i] {
            if self.t0[i] == t0 {
                self.rate[i] += rate;
                return;
            }
            trace.add(ch, node, self.t0[i], t1, self.rate[i]);
            self.t0[i] = t0;
            self.rate[i] = rate;
        } else {
            self.on[i] = true;
            self.t0[i] = t0;
            self.rate[i] = rate;
            self.touched.push(i as u32);
        }
    }

    /// Emits every pending span, all ending at `t1`.
    pub(crate) fn flush_all(&mut self, trace: &mut UsageTrace, t1: f64) {
        for k in 0..self.touched.len() {
            let i = self.touched[k] as usize;
            if self.on[i] {
                let ch = channel_of(i / self.nodes);
                let node = NodeId((i % self.nodes) as u16);
                trace.add(ch, node, self.t0[i], t1, self.rate[i]);
                self.on[i] = false;
            }
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        )
    }

    #[test]
    fn cpu_accumulates_core_seconds_per_bucket() {
        let mut t = UsageTrace::new(&cluster());
        // 4 cores busy for 2.5 seconds starting at t=0.
        t.add(Channel::Cpu, NodeId(0), 0.0, 2_500_000.0, 4.0);
        let s = t.series(Channel::Cpu, NodeId(0));
        assert_eq!(s.len(), 3);
        assert!((s[0].1 - 4.0).abs() < 1e-9);
        assert!((s[1].1 - 4.0).abs() < 1e-9);
        assert!((s[2].1 - 2.0).abs() < 1e-9); // half of the third second
    }

    #[test]
    fn spans_crossing_bucket_boundaries_split_proportionally() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Cpu, NodeId(0), 500_000.0, 1_500_000.0, 2.0);
        let s = t.series(Channel::Cpu, NodeId(0));
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        assert!((s[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_sums_nodes() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Cpu, NodeId(0), 0.0, 1_000_000.0, 3.0);
        t.add(Channel::Cpu, NodeId(1), 0.0, 1_000_000.0, 5.0);
        let c = t.cumulative(Channel::Cpu);
        assert_eq!(c.len(), 1);
        assert!((c[0].1 - 8.0).abs() < 1e-9);
        assert!((t.peak(Channel::Cpu) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_negative_spans_ignored() {
        let mut t = UsageTrace::new(&cluster());
        t.add(Channel::Disk, NodeId(0), 5.0, 5.0, 100.0);
        t.add(Channel::Disk, NodeId(0), 10.0, 5.0, 100.0);
        assert!(t.series(Channel::Disk, NodeId(0)).is_empty());
    }

    #[test]
    fn disk_bytes_accumulate_raw() {
        let mut t = UsageTrace::new(&cluster());
        // 100 bytes/µs over 1s = 1e8 bytes in the bucket.
        t.add(Channel::Disk, NodeId(0), 0.0, 1_000_000.0, 100.0);
        let s = t.series(Channel::Disk, NodeId(0));
        assert!((s[0].1 - 1e8).abs() < 1.0);
    }

    #[test]
    fn flush_wave_merges_same_span() {
        let cluster = ClusterSpec::homogeneous(
            2,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut trace = UsageTrace::new(&cluster);
        let mut wave = FlushWave::new(2);
        // Three readers on node 0's disk over the same span merge into one
        // accumulation; a fourth on node 1 stays separate.
        for _ in 0..3 {
            wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 10.0, 5.0);
        }
        wave.push(&mut trace, Channel::Disk, NodeId(1), 0.0, 10.0, 7.0);
        wave.flush_all(&mut trace, 10.0);
        let s0 = trace.series(Channel::Disk, NodeId(0));
        let s1 = trace.series(Channel::Disk, NodeId(1));
        assert!((s0[0].1 - 150.0).abs() < 1e-9, "{s0:?}");
        assert!((s1[0].1 - 70.0).abs() < 1e-9, "{s1:?}");
    }

    #[test]
    fn flush_wave_splits_differing_starts() {
        let cluster = ClusterSpec::homogeneous(
            1,
            NodeSpec {
                name: String::new(),
                cores: 8,
                disk_bps: 1e8,
                nic_bps: 1e8,
                mem_bytes: 1,
            },
        );
        let mut trace = UsageTrace::new(&cluster);
        let mut wave = FlushWave::new(1);
        // Same (channel, node), different anchors: both spans must land.
        wave.push(&mut trace, Channel::Disk, NodeId(0), 0.0, 20.0, 1.0);
        wave.push(&mut trace, Channel::Disk, NodeId(0), 10.0, 20.0, 1.0);
        wave.flush_all(&mut trace, 20.0);
        let s = trace.series(Channel::Disk, NodeId(0));
        // 1.0 over [0,20) plus 1.0 over [10,20) = 30 units in the bucket.
        assert!((s[0].1 - 30.0).abs() < 1e-9, "{s:?}");
    }
}
