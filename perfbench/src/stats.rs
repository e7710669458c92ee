//! Small statistics helpers and the simulated-statistics digest.

use ultrascalar::{LaneBatchStats, RunResult};

/// Median of a sample (mean of the middle pair for even lengths);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in [0, 1] of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Mean of a sample; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A digest of the simulated statistics of one pass over a workload's
/// distinct inputs. A speed-only change must leave every field
/// identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Distinct results folded in.
    pub results: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Flushed (wrong-path) instructions.
    pub flushed: u64,
    /// Completed loads plus stores.
    pub mem_ops: u64,
    /// Lane-batch counters: lock-step-delivered runs, peels, replay
    /// peels, epochs and demotions, summed.
    pub lane_events: u64,
    /// FNV-1a over every field of every folded result, in order.
    pub hash: u64,
}

impl Digest {
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// An empty digest.
    pub fn new() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            ..Default::default()
        }
    }

    /// Fold one run's result in: timing counts, branch and memory
    /// counters, and the architectural registers.
    pub fn add_run(&mut self, r: &RunResult) {
        let s = &r.stats;
        self.results += 1;
        self.cycles += r.cycles;
        self.committed += s.committed;
        self.flushed += s.flushed;
        self.mem_ops += s.mem.loads + s.mem.stores;
        for v in [
            u64::from(r.halted),
            r.cycles,
            s.committed,
            s.flushed,
            s.branches,
            s.mispredictions,
            s.mem.loads,
            s.mem.stores,
            s.mem.admitted,
            s.mem.link_rejections,
            s.mem.bank_conflicts,
            s.store_forwards,
        ] {
            self.mix(v);
        }
        for &x in &r.regs {
            self.mix(u64::from(x));
        }
    }

    /// Fold one result known only by its counts and its serialised
    /// form (a served response line).
    pub fn add_counts(
        &mut self,
        cycles: u64,
        committed: u64,
        flushed: u64,
        mem_ops: u64,
        repr: &[u8],
    ) {
        self.results += 1;
        self.cycles += cycles;
        self.committed += committed;
        self.flushed += flushed;
        self.mem_ops += mem_ops;
        for &b in repr {
            self.mix(u64::from(b));
        }
    }

    /// Fold another digest in (its counts add; its hash is mixed in).
    pub fn merge(&mut self, other: &Digest) {
        self.results += other.results;
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.flushed += other.flushed;
        self.mem_ops += other.mem_ops;
        self.lane_events += other.lane_events;
        self.mix(other.hash);
    }

    /// Fold a lane-batch counter delta in.
    pub fn add_lanes(&mut self, l: &LaneBatchStats) {
        let fields = [
            l.batches,
            l.lane_runs,
            l.peels,
            l.replay_peels,
            l.epochs,
            l.fallback_incompatible,
            l.fallback_leader,
            l.fallback_structure,
            l.fallback_verify,
        ];
        self.lane_events += l.lane_runs + l.peels + l.replay_peels + l.epochs + l.fallbacks;
        for v in fields {
            self.mix(v);
        }
    }

    /// The hash cut to 48 bits, so it prints exactly as a JSON number.
    pub fn hash48(&self) -> u64 {
        self.hash & ((1 << 48) - 1)
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "digest {:012x}: results {} cycles {} committed {} flushed {} mem_ops {} lane_events {}",
            self.hash48(),
            self.results,
            self.cycles,
            self.committed,
            self.flushed,
            self.mem_ops,
            self.lane_events
        )
    }
}
