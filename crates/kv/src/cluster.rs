//! The store driver: the one cluster driver of `sbft-core` over the keyed
//! envelope.
//!
//! [`KvCluster`] *is* [`sbft_core::cluster::Cluster`] — blocking
//! `put`/`get`, concurrent operations, per-key history recording, transient
//! faults, nemesis wiring and the [`Soak`](sbft_core::Soak) loop are the
//! register's own code. What this module adds is the [`Keyed`] envelope
//! (messages carry a [`Key`], storage nodes are [`KvServer`]s behind their
//! shard's pid translation) and the builder that assembles those automata —
//! on the deterministic simulator by default, or on a runtime-chosen backend
//! via [`KvClusterBuilder::backend`] + [`KvClusterBuilder::build_any`].
//!
//! ```
//! use sbft_kv::KvCluster;
//!
//! let mut store = KvCluster::bounded(1).seed(3).build();
//! let c = store.client(0);
//! store.put(c, 10, 111).unwrap();
//! store.put(c, 20, 222).unwrap();
//! assert_eq!(store.get(c, 10).unwrap().value, 111);
//! assert_eq!(store.get(c, 20).unwrap().value, 222);
//! assert!(store.check_history().is_ok());
//! ```

use std::collections::BTreeMap;
use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::Rng;
use sbft_core::adversary::{random_message, ByzServer, ByzStrategy};
use sbft_core::builder_core_setters;
use sbft_core::cluster::{BuilderCore, Cluster, Envelope, Proc};
use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::reader::ReaderOptions;
use sbft_core::spec::{group_verdicts, GroupVerdict};
use sbft_core::{Sys, Ts};
use sbft_labels::LabelingSystem;
use sbft_net::substrate::{AnySubstrate, SubstrateConfig};
use sbft_net::{Automaton, BatchPolicy, Ctx, ProcessId, Simulation};
use sbft_storage::{DiskHandle, DiskSet};

use crate::client::KvClient;
use crate::messages::{Key, KvEvent, KvMsg};
use crate::server::KvServer;
use crate::shard::{ShardRouter, ShardedClient, ShardedServer};

/// The simulator substrate type for the store.
pub type KvSimSubstrate<B> = Simulation<KvMsg<Ts<B>>, KvEvent<Ts<B>>>;
/// The runtime-chosen substrate type for the store.
pub type AnyKvSubstrate<B> = AnySubstrate<KvMsg<Ts<B>>, KvEvent<Ts<B>>>;

/// A key-value store on a substrate `S` — the simulator by default.
pub type KvCluster<B, S = KvSimSubstrate<B>> = Cluster<Keyed<B>, S>;

/// The envelope of the store: every message and client event carries the
/// [`Key`] of the register it belongs to.
pub struct Keyed<B>(PhantomData<B>);

impl<B: LabelingSystem> Envelope for Keyed<B> {
    type Base = B;
    type Key = Key;
    type Msg = KvMsg<Ts<B>>;
    type Out = KvEvent<Ts<B>>;
    type Builder = KvClusterBuilder<B>;

    fn wrap(key: Key, msg: Msg<Ts<B>>) -> KvMsg<Ts<B>> {
        KvMsg::new(key, msg)
    }

    fn emit(key: Key, inner: ClientEvent<Ts<B>>) -> KvEvent<Ts<B>> {
        KvEvent { key, inner }
    }

    fn open(out: &KvEvent<Ts<B>>) -> (Key, &ClientEvent<Ts<B>>) {
        (out.key, &out.inner)
    }

    fn garbage(sys: &Sys<B>, cfg: &ClusterConfig, rng: &mut StdRng) -> KvMsg<Ts<B>> {
        let key = rng.gen_range(0..4u64);
        KvMsg::new(key, random_message::<B>(sys, cfg, rng))
    }

    fn honest_server(
        sys: &Sys<B>,
        layout: &ShardRouter,
        pid: ProcessId,
        disk: Option<DiskHandle>,
    ) -> Proc<Self> {
        let node = match disk {
            Some(disk) => KvServer::recover(sys.clone(), layout.cfg(), disk),
            None => KvServer::new(sys.clone(), layout.cfg()),
        };
        seat(node, layout, pid)
    }

    fn byzantine_server(sys: &Sys<B>, cfg: ClusterConfig, strat: ByzStrategy) -> Proc<Self> {
        Box::new(KeyedByz(ByzServer::new(sys.clone(), cfg, strat)))
    }
}

/// The adversary's seat in the store: one [`ByzServer`] answering under
/// whatever key it is asked about. One shadow state for all keys is a legal
/// Byzantine behaviour, and it only ever answers its interlocutor, so it is
/// seated bare in any layout — what it says about keys outside its shard,
/// the honest [`ShardedClient`] drops.
struct KeyedByz<B: LabelingSystem>(ByzServer<B>);

impl<B: LabelingSystem> Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>> for KeyedByz<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        self.0.handle::<Keyed<B>>(msg.key, from, msg.inner, ctx);
    }
}

/// Seat `node` at server pid `pid`: bare in the one-shard layout (exactly
/// the layout every pre-sharding experiment runs on), behind its shard's
/// pid translation and placement enforcement otherwise.
fn seat<B: LabelingSystem>(
    node: KvServer<B>,
    layout: &ShardRouter,
    pid: ProcessId,
) -> Proc<Keyed<B>> {
    if layout.shards() == 1 {
        Box::new(node)
    } else {
        Box::new(ShardedServer::new(node, *layout, layout.shard_of_server(pid)))
    }
}

/// Builder for a [`KvCluster`].
pub struct KvClusterBuilder<B: LabelingSystem> {
    core: BuilderCore<B>,
    shards: usize,
    pipeline: usize,
    batch: BatchPolicy,
}

impl<B: LabelingSystem> From<BuilderCore<B>> for KvClusterBuilder<B> {
    fn from(core: BuilderCore<B>) -> Self {
        Self { core, shards: 1, pipeline: 1, batch: BatchPolicy::disabled() }
    }
}

impl<B: LabelingSystem> KvClusterBuilder<B> {
    builder_core_setters!();

    /// Hash-partition the keyspace over `s` independent `5f + 1` server
    /// groups (default 1 — the classic single-group store). Each shard is
    /// its own unit of placement and fault isolation.
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = s.max(1);
        self
    }

    /// Let every client pipeline up to `depth` concurrent operations on
    /// distinct keys (default 1 — strictly sequential, the original
    /// discipline).
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth.max(1);
        self
    }

    /// Coalesce same-link messages into batched wire frames under
    /// `policy` (default [`BatchPolicy::disabled`]).
    pub fn batch(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// The automata in pid order: every shard's storage nodes, then the
    /// clients.
    fn procs(&self, layout: &ShardRouter, disks: Option<&DiskSet>) -> Vec<Proc<Keyed<B>>> {
        let (sys, cfg) = (self.core.sys(), self.core.cfg);
        let mut procs: Vec<Proc<Keyed<B>>> = Vec::new();
        for pid in 0..layout.total_servers() {
            let node = KvServer::new(sys.clone(), cfg);
            let node = match disks {
                Some(d) => node.with_disk(d.get(pid)),
                None => node,
            };
            procs.push(seat(node, layout, pid));
        }
        for c in 0..self.core.clients {
            // The client keeps its local writer identity n + c — unique per
            // client, independent of the shard count.
            let client = KvClient::with_retry(
                sys.clone(),
                cfg,
                cfg.client_pid(c) as u32,
                ReaderOptions::default(),
                self.core.retry,
            )
            .with_pipeline(self.pipeline);
            procs.push(if layout.shards() == 1 {
                Box::new(client)
            } else {
                Box::new(ShardedClient::new(client, *layout))
            });
        }
        procs
    }

    fn assemble<S>(
        self,
        spawn: impl FnOnce(Vec<Proc<Keyed<B>>>, &SubstrateConfig) -> S,
    ) -> KvCluster<B, S> {
        let layout = ShardRouter::new(self.core.cfg, self.shards);
        let disks = self.core.disks(&layout);
        let procs = self.procs(&layout, disks.as_ref());
        self.core.assemble(layout, self.batch, disks, procs, spawn)
    }

    /// Assemble the store on the deterministic simulator.
    pub fn build(self) -> KvCluster<B> {
        self.assemble(Simulation::from_procs)
    }

    /// Assemble the store on the backend chosen with
    /// [`KvClusterBuilder::backend`].
    pub fn build_any(self) -> KvCluster<B, AnyKvSubstrate<B>> {
        let backend = self.core.backend;
        self.assemble(|procs, config| AnySubstrate::spawn(backend, procs, config))
    }
}

/// Fold every key's regularity verdict by hosting shard: how many keys
/// each shard served and how many violations its histories carry. A
/// shard with zero violations is regular as a unit — fault isolation
/// means a Byzantine or crashed neighbour shard cannot change that.
pub fn check_per_shard<B: LabelingSystem, S>(
    store: &KvCluster<B, S>,
) -> BTreeMap<usize, GroupVerdict> {
    group_verdicts(
        store
            .recorders
            .iter()
            .map(|(&key, rec)| (store.router.shard_of(key), rec.check(&store.sys))),
    )
}

#[cfg(test)]
mod tests {
    use sbft_core::cluster::{OpOutcome, RegisterCluster};
    use sbft_core::{RetryPolicy, Soak};
    use sbft_labels::BoundedLabeling;
    use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
    use sbft_net::{Backend, CorruptionSeverity, LinkFault, Substrate};
    use sbft_storage::DiskFault;

    use super::*;

    #[test]
    fn independent_keys_round_trip() {
        let mut store = KvCluster::bounded(1).seed(1).build();
        let c = store.client(0);
        for key in 0..5u64 {
            store.put(c, key, 100 + key).unwrap();
        }
        for key in 0..5u64 {
            assert_eq!(store.get(c, key).unwrap().value, 100 + key);
        }
        assert!(store.check_history().is_ok());
    }

    #[test]
    fn two_clients_share_the_store() {
        let mut store = KvCluster::bounded(1).clients(2).seed(2).build();
        let (a, b) = (store.client(0), store.client(1));
        store.put(a, 1, 11).unwrap();
        store.put(b, 2, 22).unwrap();
        assert_eq!(store.get(b, 1).unwrap().value, 11);
        assert_eq!(store.get(a, 2).unwrap().value, 22);
        assert!(store.check_history().is_ok());
    }

    #[test]
    fn overwrites_read_latest_per_key() {
        let mut store = KvCluster::bounded(1).seed(3).build();
        let c = store.client(0);
        for v in 1..=5 {
            store.put(c, 9, v).unwrap();
        }
        assert_eq!(store.get(c, 9).unwrap().value, 5);
        assert!(store.check_key(9).is_ok());
    }

    #[test]
    fn whole_store_recovers_from_total_corruption() {
        let mut store = KvCluster::bounded(1).seed(4).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        store.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1, per key: one complete write re-stabilizes a key.
        store.put(c, 1, 111).unwrap();
        store.put(c, 2, 222).unwrap();
        let stable = store.now();
        assert_eq!(store.get(c, 1).unwrap().value, 111);
        assert_eq!(store.get(c, 2).unwrap().value, 222);
        assert!(store.check_history_from(stable).is_ok());
    }

    #[test]
    fn unwritten_key_reads_genesis() {
        let mut store = KvCluster::bounded(1).seed(5).build();
        let c = store.client(0);
        assert_eq!(store.get(c, 777).unwrap().value, 0);
        assert!(store.check_key(777).is_ok());
    }

    #[test]
    fn retries_ride_out_a_healed_link_cut() {
        let mut store = KvCluster::bounded(1).seed(8).retry(RetryPolicy::chaos()).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        // Cut the client off from two servers: no quorum, puts exhaust.
        for s in [0usize, 1] {
            store.sim.set_link_fault(c, s, Some(LinkFault::cut()));
            store.sim.set_link_fault(s, c, Some(LinkFault::cut()));
        }
        let out = store.put_outcome(c, 1, 22);
        assert!(!out.is_ok(), "{out:?}");
        for s in [0usize, 1] {
            store.sim.set_link_fault(c, s, None);
            store.sim.set_link_fault(s, c, None);
        }
        assert!(store.put_outcome(c, 1, 33).is_ok());
        let got = store.get_outcome(c, 1);
        assert!(matches!(&got, OpOutcome::Ok(r) if r.value == 33), "{got:?}");
        assert!(store.check_history().is_ok());
    }

    #[test]
    fn durable_store_reboots_a_node_from_its_damaged_disk() {
        let mut store = KvCluster::bounded(1).seed(9).durable().build();
        let c = store.client(0);
        for key in 0..3u64 {
            store.put(c, key, 100 + key).unwrap();
            store.put(c, key, 200 + key).unwrap();
        }
        let sched = NemesisSchedule::scripted(vec![
            (0, NemesisEvent::Crash(0)),
            (1, NemesisEvent::CrashRecover { pid: 0, fault: DiskFault::LostSuffix }),
        ]);
        let mut runner = store.nemesis_runner(sched, vec![], ByzStrategy::Silent);
        assert!(runner.fire_next(&mut store.sim));
        assert!(runner.fire_next(&mut store.sim));
        assert_eq!(runner.cures.len(), 1, "recovery counts as a cure");
        let node = store.sim.process_mut(0).as_any_mut().unwrap();
        let node = node.downcast_mut::<KvServer<BoundedLabeling>>().expect("a bare storage node");
        assert!(node.key_count() >= 1, "nothing salvaged from the disk");
        // The store keeps serving with the rebooted node back in the pool.
        store.put(c, 1, 999).unwrap();
        assert_eq!(store.get(c, 1).unwrap().value, 999);
        for key in 0..3u64 {
            assert!(store.check_key(key).is_ok(), "key {key}");
        }
    }

    /// The register's soak loop, unchanged, on a durable two-shard store:
    /// a link cut, a crash with state loss and a reboot from a damaged disk,
    /// all on the second shard. Returns the rebooted seat.
    fn soak_a_sharded_durable_store<S>(store: &mut KvCluster<BoundedLabeling, S>) -> ProcessId
    where
        S: Substrate<KvMsg<Ts<BoundedLabeling>>, KvEvent<Ts<BoundedLabeling>>>,
    {
        let (key, backend) = (5, store.backend());
        let home = store.router.server_pids(store.router.shard_of(key));
        let (s0, s1, writer) = (home.start, home.start + 1, store.client(0));
        assert_eq!(s0, store.cfg.n, "the key lives where global and local pids differ");
        let sched = NemesisSchedule::scripted(vec![
            (50, NemesisEvent::LinkFault { a: writer, b: s0, fault: LinkFault::cut() }),
            (150, NemesisEvent::LinkHeal { a: writer, b: s0 }),
            (250, NemesisEvent::Crash(s1)),
            (350, NemesisEvent::Restart(s1)),
            (450, NemesisEvent::Crash(s0)),
            (550, NemesisEvent::CrashRecover { pid: s0, fault: DiskFault::TornFrame }),
        ]);
        let runner = store.nemesis_runner(sched, vec![], ByzStrategy::Silent);
        let report = Soak::new(store, key, runner).run();
        assert_eq!((report.events_fired, report.cures), (6, 1), "{backend:?}: {report:?}");
        assert_eq!(report.window_violations, 0, "{backend:?}: {report:?}");
        assert_eq!(report.post_heal_failures, 0, "{backend:?}: {report:?}");
        assert!(report.windows >= 2 && report.writes_ok > 0, "{backend:?}: {report:?}");
        assert!(store.check_history().is_ok(), "{backend:?}");
        store.stop();
        s0
    }

    fn sharded_durable() -> KvClusterBuilder<BoundedLabeling> {
        KvCluster::bounded(1).shards(2).durable().seed(14).retry(RetryPolicy::chaos())
    }

    #[test]
    fn soak_runs_on_a_sharded_durable_store() {
        let mut store = sharded_durable().build();
        let s0 = soak_a_sharded_durable_store(&mut store);
        // The rebooted node sits behind its shard's placement enforcement
        // again, with state from its disk.
        let node = store.sim.process_mut(s0).as_any_mut().unwrap();
        let node = node.downcast_mut::<ShardedServer<BoundedLabeling>>().expect("re-wrapped");
        assert_eq!((node.shard(), node.inner.key_count()), (1, 1));
    }

    #[test]
    fn soak_runs_on_a_sharded_durable_store_on_threads() {
        soak_a_sharded_durable_store(&mut sharded_durable().backend(Backend::Threaded).build_any());
    }

    /// The merge's premise: a register and a one-key store are the same
    /// execution, tick for tick, message for message, event for event.
    #[test]
    fn one_key_store_is_the_register() {
        for seed in 1..=5 {
            let mut reg = RegisterCluster::bounded(1).seed(seed).build();
            let mut store = KvCluster::bounded(1).seed(seed).build();
            let same = |reg: &RegisterCluster<BoundedLabeling>,
                        store: &KvCluster<BoundedLabeling>| {
                let (r, s) = (reg.metrics(), store.metrics());
                assert_eq!(reg.now(), store.now(), "seed {seed}");
                assert_eq!(r.messages_sent, s.messages_sent, "seed {seed}");
                assert_eq!(r.events_processed, s.events_processed, "seed {seed}");
            };
            for round in 0..8 {
                let (w, r) = (reg.client(0), reg.client(1));
                assert_eq!(reg.write(w, 10 + round).unwrap(), store.put(w, 3, 10 + round).unwrap());
                same(&reg, &store);
                assert_eq!(reg.read(r).unwrap(), store.get(r, 3).unwrap(), "seed {seed}");
                same(&reg, &store);
            }
        }
    }

    #[test]
    fn threaded_store_round_trips_and_reports_metrics() {
        let mut store = KvCluster::bounded(1).seed(6).backend(Backend::Threaded).build_any();
        assert_eq!(store.backend(), Backend::Threaded);
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        assert_eq!(store.get(c, 1).unwrap().value, 11);
        assert_eq!(store.get(c, 2).unwrap().value, 22);
        assert!(store.check_history().is_ok());
        let m = store.metrics();
        assert!(m.messages_sent > 0 && m.messages_delivered > 0, "{m:?}");
        store.stop();
    }

    #[test]
    fn sharded_store_round_trips_across_all_shards() {
        let mut store = KvCluster::bounded(1).shards(4).seed(11).build();
        let c = store.client(0);
        for key in 0..16u64 {
            store.put(c, key, 1000 + key).unwrap();
        }
        for key in 0..16u64 {
            assert_eq!(store.get(c, key).unwrap().value, 1000 + key);
        }
        assert!(store.check_history().is_ok());
        let verdicts = check_per_shard(&store);
        assert_eq!(verdicts.values().map(|v| v.registers).sum::<usize>(), 16);
        assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
        assert!(verdicts.len() > 1, "16 keys should span several shards");
    }

    #[test]
    fn sharded_store_with_batching_and_pipelining_stays_regular() {
        let mut store = KvCluster::bounded(1)
            .shards(2)
            .pipeline(4)
            .batch(BatchPolicy::new(8, 4))
            .seed(12)
            .build();
        let c = store.client(0);
        for key in 0..8u64 {
            store.put(c, key, 7 + key).unwrap();
        }
        for key in 0..8u64 {
            assert_eq!(store.get(c, key).unwrap().value, 7 + key);
        }
        assert!(store.check_history().is_ok());
        let m = store.metrics();
        assert!(m.frames_delivered > 0 && m.frames_delivered <= m.messages_delivered, "{m:?}");
    }

    #[test]
    fn sharded_store_recovers_from_total_corruption() {
        let mut store = KvCluster::bounded(1).shards(2).seed(13).build();
        let c = store.client(0);
        store.put(c, 1, 11).unwrap();
        store.put(c, 2, 22).unwrap();
        store.corrupt_everything(CorruptionSeverity::Heavy);
        store.put(c, 1, 111).unwrap();
        store.put(c, 2, 222).unwrap();
        let stable = store.now();
        assert_eq!(store.get(c, 1).unwrap().value, 111);
        assert_eq!(store.get(c, 2).unwrap().value, 222);
        assert!(store.check_history_from(stable).is_ok());
    }

    #[test]
    fn backend_switch_selects_runtime() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let mut store = KvCluster::bounded(1).seed(7).backend(backend).build_any();
            assert_eq!(store.backend(), backend);
            let c = store.client(0);
            store.put(c, 5, 55).unwrap();
            assert_eq!(store.get(c, 5).unwrap().value, 55, "{backend:?}");
            assert!(store.check_history().is_ok(), "{backend:?}");
            store.stop();
        }
    }
}
