//! Cluster sizing, quorum arithmetic and the process layout.
//!
//! The paper's bounds, all expressed in terms of the Byzantine budget `f`:
//!
//! | quantity | value | role |
//! |---|---|---|
//! | resilience | `n ≥ 5f + 1` | Theorem 1 tight bound for stabilizing BFT regular registers |
//! | quorum | `n − f` | replies a client waits for (termination despite `f` silent servers) |
//! | witnesses | `2f + 1` | WTsG node weight needed to return a value (pins `f+1` correct servers) |
//! | acks | `2f + 1` | ACKs a writer needs among its `n − f` phase-2 replies |
//! | propagation | `3f + 1` | correct servers guaranteed to store a completed write (Lemma 2) |
//!
//! Configurations with `n ≤ 5f` are deliberately constructible — experiment
//! E1 replays the Theorem 1 counterexample on one — but flagged by
//! [`ClusterConfig::is_stabilizing_safe`].

use sbft_net::ProcessId;
use serde::{Deserialize, Serialize};

/// Static parameters of a register cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of servers.
    pub n: usize,
    /// Upper bound on Byzantine servers.
    pub f: usize,
    /// Length of each server's `old_vals` sliding history. The paper uses
    /// `n`; experiment E8 sweeps it.
    pub history_depth: usize,
    /// Size of each client's bounded read-label pool (`k` in Figure 3).
    pub read_labels: usize,
}

impl ClusterConfig {
    /// The paper's tight configuration: `n = 5f + 1` servers.
    pub fn stabilizing(f: usize) -> Self {
        Self::with_n(5 * f + 1, f)
    }

    /// A configuration with explicit `n` (possibly below the stabilizing
    /// bound, for lower-bound experiments).
    pub fn with_n(n: usize, f: usize) -> Self {
        assert!(n >= 1, "need at least one server");
        assert!(n > 3 * f, "even non-stabilizing BFT registers need n > 3f");
        Self { n, f, history_depth: n, read_labels: 4 }
    }

    /// Override the server history depth.
    pub fn history(mut self, depth: usize) -> Self {
        assert!(depth >= 1);
        self.history_depth = depth;
        self
    }

    /// Override the read-label pool size (must be ≥ 2).
    pub fn labels(mut self, k: usize) -> Self {
        assert!(k >= 2);
        self.read_labels = k;
        self
    }

    /// Whether `n ≥ 5f + 1` — the Theorem 1 requirement for
    /// pseudo-stabilizing BFT regularity.
    pub fn is_stabilizing_safe(&self) -> bool {
        self.n > 5 * self.f
    }

    /// `n − f`: the reply quorum every operation waits for.
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// `2f + 1`: WTsG witness threshold and writer ACK threshold.
    pub fn witness_threshold(&self) -> usize {
        2 * self.f + 1
    }

    /// `3f + 1`: correct servers guaranteed to hold a completed write
    /// (Lemma 2), checked by experiment E3.
    pub fn propagation_bound(&self) -> usize {
        3 * self.f + 1
    }

    /// `k` for the bounded labeling system: the writer computes `next()`
    /// over exactly the `n − f` labels its GET_TS quorum returned (it
    /// caches no label of its own), so any `k ≥ n − f` suffices; the value
    /// is `n + 1`, a margin of `f + 1` above that.
    pub fn label_k(&self) -> usize {
        (self.n + 1).max(2)
    }

    /// Process ids `0..n` are servers.
    pub fn server_ids(&self) -> impl Iterator<Item = ProcessId> + Clone {
        0..self.n
    }

    /// Process id of the `i`-th client (clients live above the servers).
    pub fn client_pid(&self, i: usize) -> ProcessId {
        self.n + i
    }

    /// Whether `pid` designates a server.
    pub fn is_server(&self, pid: ProcessId) -> bool {
        pid < self.n
    }
}

/// The process layout every cluster has: `shards` independent groups of
/// `cfg.n` servers (shard `s` at pids `[s·n, (s+1)·n)`), clients after all
/// servers — plus the stateless key → shard placement of a keyed store. A
/// register or baseline cluster is the one-shard layout, where global and
/// local pids coincide.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter {
    cfg: ClusterConfig,
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` groups of `cfg.n` servers each (clamped to
    /// at least one shard).
    pub fn new(cfg: ClusterConfig, shards: usize) -> Self {
        Self { cfg, shards: shards.max(1) }
    }

    /// The per-group cluster arithmetic.
    pub fn cfg(&self) -> ClusterConfig {
        self.cfg
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard hosting `key`: Fibonacci multiplicative hash so adjacent
    /// keys spread across shards instead of striping.
    pub fn shard_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.shards
    }

    /// Total servers across all shards.
    pub fn total_servers(&self) -> usize {
        self.shards * self.cfg.n
    }

    /// Global pid of client `i` (clients sit after every shard's servers).
    pub fn client_pid(&self, i: usize) -> ProcessId {
        self.total_servers() + i
    }

    /// Global pids of `shard`'s server group.
    pub fn server_pids(&self, shard: usize) -> std::ops::Range<ProcessId> {
        shard * self.cfg.n..(shard + 1) * self.cfg.n
    }

    /// Which shard a global server pid belongs to.
    pub fn shard_of_server(&self, pid: ProcessId) -> usize {
        debug_assert!(pid < self.total_servers());
        pid / self.cfg.n
    }

    /// Translate a global pid into `shard`'s local pid space: that shard's
    /// servers map to `0..n`, clients to `n..`; servers of *other* shards
    /// have no local identity and yield `None`.
    pub fn to_local(&self, shard: usize, global: ProcessId) -> Option<ProcessId> {
        let servers = self.total_servers();
        if global >= servers {
            Some(self.cfg.n + (global - servers))
        } else if self.server_pids(shard).contains(&global) {
            Some(global - shard * self.cfg.n)
        } else {
            None
        }
    }

    /// Translate `shard`'s local pid back into the global space.
    pub fn to_global(&self, shard: usize, local: ProcessId) -> ProcessId {
        if local < self.cfg.n {
            shard * self.cfg.n + local
        } else {
            self.total_servers() + (local - self.cfg.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizing_sizes() {
        let c = ClusterConfig::stabilizing(1);
        assert_eq!(c.n, 6);
        assert_eq!(c.quorum(), 5);
        assert_eq!(c.witness_threshold(), 3);
        assert_eq!(c.propagation_bound(), 4);
        assert!(c.is_stabilizing_safe());
    }

    #[test]
    fn f2_sizes() {
        let c = ClusterConfig::stabilizing(2);
        assert_eq!(c.n, 11);
        assert_eq!(c.quorum(), 9);
        assert_eq!(c.witness_threshold(), 5);
        assert_eq!(c.propagation_bound(), 7);
    }

    #[test]
    fn theorem1_configuration_is_flagged() {
        // 5 servers, 1 Byzantine: n = 5f — constructible but unsafe.
        let c = ClusterConfig::with_n(5, 1);
        assert!(!c.is_stabilizing_safe());
        assert_eq!(c.quorum(), 4);
    }

    #[test]
    #[should_panic]
    fn below_3f_rejected() {
        ClusterConfig::with_n(3, 1);
    }

    #[test]
    fn client_pids_follow_servers() {
        let c = ClusterConfig::stabilizing(1);
        assert_eq!(c.client_pid(0), 6);
        assert_eq!(c.client_pid(2), 8);
        assert!(c.is_server(5));
        assert!(!c.is_server(6));
    }

    #[test]
    fn label_k_covers_quorum() {
        for f in 1..5 {
            let c = ClusterConfig::stabilizing(f);
            assert!(c.label_k() >= c.quorum());
        }
    }

    #[test]
    fn builders_chain() {
        let c = ClusterConfig::stabilizing(1).history(3).labels(8);
        assert_eq!(c.history_depth, 3);
        assert_eq!(c.read_labels, 8);
    }

    fn router(shards: usize) -> ShardRouter {
        ShardRouter::new(ClusterConfig::stabilizing(1), shards)
    }

    #[test]
    fn placement_arithmetic_round_trips() {
        let r = router(4); // n = 6, servers 0..24, clients 24..
        assert_eq!(r.total_servers(), 24);
        assert_eq!(r.client_pid(0), 24);
        assert_eq!(r.server_pids(2), 12..18);
        for g in 0..24 {
            let s = r.shard_of_server(g);
            let l = r.to_local(s, g).unwrap();
            assert!(l < 6);
            assert_eq!(r.to_global(s, l), g);
        }
        // Clients translate in every shard's local space.
        for shard in 0..4 {
            assert_eq!(r.to_local(shard, 25), Some(7));
            assert_eq!(r.to_global(shard, 7), 25);
        }
        // A foreign shard's server has no local identity.
        assert_eq!(r.to_local(0, 12), None);
    }

    #[test]
    fn keys_spread_over_all_shards() {
        let r = router(4);
        let mut seen = [false; 4];
        for key in 0..64u64 {
            let s = r.shard_of(key);
            assert!(s < 4);
            seen[s] = true;
        }
        assert!(seen.iter().all(|&b| b), "{seen:?}");
    }

    #[test]
    fn single_shard_matches_unsharded_layout() {
        let r = router(1);
        let cfg = ClusterConfig::stabilizing(1);
        assert_eq!(r.total_servers(), cfg.n);
        assert_eq!(r.client_pid(3), cfg.client_pid(3));
        for key in 0..32u64 {
            assert_eq!(r.shard_of(key), 0);
        }
    }
}
