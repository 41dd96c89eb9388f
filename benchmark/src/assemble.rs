//! Two ways to stand a workload's cluster up: through the program's own
//! [`sbft_kv::cluster::KvClusterBuilder`] (every end-to-end number comes
//! from this one), and by hand from the public constructors with the
//! tracing shims wrapped around each process and disk. The drift guard in
//! [`crate::run`] fails the benchmark when the two stop behaving alike.

use std::sync::Arc;
use std::time::Duration;

use sbft_core::reader::ReaderOptions;
use sbft_core::{ClusterConfig, RetryPolicy, Sys};
use sbft_kv::client::KvClient;
use sbft_kv::cluster::AnyKvSubstrate;
use sbft_kv::server::KvServer;
use sbft_kv::{KvCluster, ShardRouter, ShardedClient, ShardedServer};
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{AnySubstrate, Automaton, Backend, ProcessId, Substrate, SubstrateConfig};
use sbft_storage::{DiskFault, DiskHandle, SimDisk};

use crate::trace::{Collector, CountingLabeling, Role, Traced, TracedDisk, B, E, M};
use crate::workload::Workload;

/// Byzantine servers tolerated (`n = 5f + 1 = 6` per shard).
const F: usize = 1;

/// How long one threaded `pump` waits before reporting idle: short enough
/// that a closed loop refills promptly, as in E19.
const PUMP_TIMEOUT: Duration = Duration::from_millis(5);

type Proc = Box<dyn Automaton<M, E>>;
/// Rebuilds a storage node from its disk; also says how many keys survived.
type Reboot = Box<dyn FnMut(DiskHandle) -> (Proc, usize)>;

/// A running cluster, however it was assembled.
pub struct Cluster {
    /// The substrate hosting it.
    pub sub: AnyKvSubstrate<B>,
    /// Client pids, in order.
    pub clients: Vec<ProcessId>,
    /// One disk per server when the workload is durable, else empty.
    pub disks: Vec<DiskHandle>,
    reboot: Reboot,
}

impl Cluster {
    /// Assemble `w` with the program's own builder.
    pub fn built(w: &Workload, seed: u64) -> Self {
        let mut builder = KvCluster::bounded(F)
            .clients(w.clients)
            .seed(seed)
            .shards(w.shards)
            .pipeline(w.pipeline)
            .batch(w.batch)
            .backend(w.backend)
            .pump_timeout(PUMP_TIMEOUT);
        if w.durable {
            builder = builder.durable();
        }
        let cluster = builder.build_any();
        let clients = (0..w.clients).map(|i| cluster.client(i)).collect();
        let KvCluster { sim, cfg, sys, router, disks, .. } = cluster;
        let disks: Vec<DiskHandle> = disks
            .map(|d| (0..router.total_servers()).map(|pid| d.get(pid)).collect())
            .unwrap_or_default();
        let reboot: Reboot = Box::new(move |disk| {
            let node = KvServer::recover(sys.clone(), cfg, disk);
            let keys = node.key_count();
            (Box::new(node) as Proc, keys)
        });
        Self { sub: sim, clients, disks, reboot }
    }

    /// Assemble `w` by hand, the way `KvClusterBuilder` does, with every
    /// process inside a [`Traced`], every disk inside a [`TracedDisk`] and
    /// the labeling system inside a [`CountingLabeling`].
    pub fn traced(w: &Workload, seed: u64, col: &Arc<Collector>) -> Self {
        let cfg = ClusterConfig::stabilizing(F);
        let sys: Sys<CountingLabeling<B>> =
            MwmrLabeling::new(CountingLabeling(BoundedLabeling::new(cfg.label_k())));
        let router = ShardRouter::new(cfg, w.shards);
        let disks: Vec<DiskHandle> = if w.durable {
            (0..router.total_servers()).map(|pid| traced_disk(seed, pid, col)).collect()
        } else {
            Vec::new()
        };
        let node = |pid: ProcessId| {
            let node = KvServer::new(sys.clone(), cfg);
            match disks.get(pid) {
                Some(d) => node.with_disk(d.clone()),
                None => node,
            }
        };
        let client = |i: usize| {
            // The inner client keeps its local writer identity n + i,
            // whatever the shard count.
            KvClient::with_retry(
                sys.clone(),
                cfg,
                cfg.client_pid(i) as u32,
                ReaderOptions::default(),
                RetryPolicy::none(),
            )
            .with_pipeline(w.pipeline)
        };
        let mut procs: Vec<Proc> = Vec::new();
        if w.shards == 1 {
            for pid in 0..cfg.n {
                procs.push(Box::new(Traced::new(node(pid), Role::Server, col)));
            }
            for i in 0..w.clients {
                procs.push(Box::new(Traced::new(client(i), Role::Client, col)));
            }
        } else {
            for shard in 0..w.shards {
                for pid in router.server_pids(shard) {
                    let wrapped = ShardedServer::new(node(pid), router, shard);
                    procs.push(Box::new(Traced::new(wrapped, Role::Server, col)));
                }
            }
            for i in 0..w.clients {
                let wrapped = ShardedClient::new(client(i), router);
                procs.push(Box::new(Traced::new(wrapped, Role::Client, col)));
            }
        }
        let config = SubstrateConfig::seeded(seed)
            .with_delay(sbft_net::DelayModel::uniform(1, 10))
            .with_batching(w.batch)
            .with_pump_timeout(PUMP_TIMEOUT);
        let sub = AnySubstrate::spawn(w.backend, procs, &config);
        let col = Arc::clone(col);
        assert!(!w.durable || w.shards == 1, "no durable sharded workload is pinned");
        let reboot: Reboot = Box::new(move |disk| {
            let node = KvServer::recover(sys.clone(), cfg, disk);
            let keys = node.key_count();
            (Box::new(Traced::new(node, Role::Server, &col)) as Proc, keys)
        });
        Self { sub, clients: (0..w.clients).map(|i| router.client_pid(i)).collect(), disks, reboot }
    }

    /// Whether the cluster runs on the simulator.
    pub fn is_sim(&self) -> bool {
        self.sub.backend() == Backend::Sim
    }

    /// Crash server `pid`, damage its disk with `fault`, and reboot it from
    /// the damaged bytes (the pattern of `kv/src/cluster.rs`'s durable
    /// test). Returns how many keys the rebooted node salvaged.
    pub fn crash_and_reboot(&mut self, pid: ProcessId, fault: DiskFault) -> usize {
        self.sub.crash(pid);
        let disk = self.disks[pid].clone();
        disk.crash(fault);
        let (node, keys) = (self.reboot)(disk);
        self.sub.restart_with(pid, node);
        keys
    }

    /// `syncs + snapshots` summed over all disks.
    pub fn disk_syncs(&self) -> u64 {
        self.disks.iter().map(|d| d.stats()).map(|s| s.syncs + s.snapshots).sum()
    }
}

/// Server `pid`'s traced disk, seeded as `KvClusterBuilder::durable` and
/// `DiskSet::sim` seed the untraced one.
fn traced_disk(seed: u64, pid: ProcessId, col: &Arc<Collector>) -> DiskHandle {
    let seed = (seed ^ 0xD15C_D15C) ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    DiskHandle::new(TracedDisk::new(SimDisk::new(seed), pid, col))
}
