//! The one cluster driver: a set of automata assembled on a substrate, with
//! blocking-style operation helpers, per-key history recording, transient
//! faults and nemesis wiring — shared by tests, examples, benches and the
//! experiment harness, for every protocol in the tree.
//!
//! [`Cluster`] is generic over the [`Substrate`] `S` hosting the automata —
//! the deterministic [`Simulation`] by default, a runtime-chosen backend via
//! [`ClusterBuilder::backend`] + [`ClusterBuilder::build_any`] — and over
//! the [`Envelope`] `W`, how an operation is addressed on the wire.
//! [`Plain`] (`Key = ()`, bare [`Msg`] / [`ClientEvent`]) is the register,
//! [`RegisterCluster`], and the baselines of `sbft-baseline`, which speak
//! the same wire types; `sbft-kv` supplies the keyed envelope of the store.
//!
//! ```
//! use sbft_core::cluster::RegisterCluster;
//!
//! let mut cluster = RegisterCluster::bounded(1).clients(2).seed(7).build();
//! let (w, r) = (cluster.client(0), cluster.client(1));
//! cluster.write(w, 10).unwrap();
//! assert_eq!(cluster.read(r).unwrap().value, 10);
//! assert!(cluster.check_history().is_ok());
//! ```

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::time::Duration;

use rand::rngs::StdRng;
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling, UnboundedLabeling};
use sbft_net::corruption::FaultPlan;
use sbft_net::nemesis::{AutomatonFactory, NemesisRunner, NemesisSchedule};
// `Backend` and `DelayModel` are public here because the builder setters
// of `builder_core_setters!` name them from other crates.
pub use sbft_net::substrate::Backend;
use sbft_net::substrate::{AnySubstrate, Substrate, SubstrateConfig};
pub use sbft_net::DelayModel;
use sbft_net::{Automaton, BatchPolicy, CorruptionSeverity, NetMetrics, ProcessId, Simulation};
use sbft_storage::{DiskHandle, DiskSet};

use crate::adversary::{random_message, ByzServer, ByzStrategy, ScriptedServer};
use crate::byzclient::{ByzClient, ByzReaderStrategy};
use crate::client::Client;
use crate::config::{ClusterConfig, ShardRouter};
use crate::messages::{ClientEvent, Msg, Value};
use crate::reader::ReaderOptions;
use crate::retry::RetryPolicy;
use crate::server::Server;
use crate::spec::{HistoryRecorder, OpKind, RegularityError};
use crate::{Sys, Ts};

/// The simulator substrate type for a labeling system `B`.
pub type SimSubstrate<B> = Simulation<Msg<Ts<B>>, ClientEvent<Ts<B>>>;
/// The runtime-chosen substrate type for a labeling system `B`.
pub type AnyRegisterSubstrate<B> = AnySubstrate<Msg<Ts<B>>, ClientEvent<Ts<B>>>;

/// One automaton of an envelope `W`, boxed for a substrate.
pub type Proc<W> = Box<dyn Automaton<<W as Envelope>::Msg, <W as Envelope>::Out>>;

/// Consecutive idle pumps (threaded runtime) before an operation is
/// declared stuck. With the default pump timeout this bounds a blocking
/// operation to a few wall-clock seconds.
const MAX_IDLE_PUMPS: u32 = 50;

/// Why a blocking operation helper failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The read returned `abort` (servers in a transitory phase).
    Aborted,
    /// The event budget ran out or the substrate went quiet before the
    /// operation completed.
    Stuck,
}

/// Typed outcome of one driver-level operation under a [`RetryPolicy`] —
/// what chaos experiments tally instead of panicking on failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome<T> {
    /// The operation completed; `T` carries its result.
    Ok(T),
    /// The read aborted and the policy allowed no retry.
    Aborted,
    /// The operation stalled: either its single attempt died on the
    /// deadline, or the driver's event budget ran dry with no terminal
    /// event (`attempts == 0`).
    TimedOut {
        /// Attempts consumed (0 when the driver itself gave up).
        attempts: u32,
    },
    /// Every attempt the retry policy allowed failed.
    Exhausted {
        /// Attempts consumed.
        attempts: u32,
    },
}

impl<T> OpOutcome<T> {
    /// Whether the operation completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, OpOutcome::Ok(_))
    }

    /// The success payload, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            OpOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }
}

/// Map a terminal failure event onto the outcome taxonomy: a lone attempt
/// dying on its deadline is a [`OpOutcome::TimedOut`]; anything that burned
/// through retries is [`OpOutcome::Exhausted`].
fn failure_outcome<T>(timed_out: bool, attempts: u32) -> OpOutcome<T> {
    if timed_out && attempts <= 1 {
        OpOutcome::TimedOut { attempts }
    } else {
        OpOutcome::Exhausted { attempts }
    }
}

/// A successful read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOk<B: LabelingSystem> {
    /// The value read.
    pub value: Value,
    /// The timestamp witnessing it.
    pub ts: Ts<B>,
    /// Whether the union-graph fallback decided.
    pub via_union: bool,
}

/// An operation request for [`Cluster::invoke`] and
/// [`Cluster::run_concurrent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `write(value)`.
    Write(Value),
    /// `read()`.
    Read,
}

/// How an operation is addressed on the wire — the one decision the
/// driver and the register automata leave open. An envelope names the key
/// an operation targets, wraps register messages under it, turns client
/// events into outputs under it and opens them back into `(key, event)`,
/// and supplies what the nemesis needs to re-seat a server: garbage for
/// corrupted channels, the honest server automaton, fresh or recovered
/// from its disk, and the Byzantine one.
pub trait Envelope: Sized + 'static {
    /// The base labeling system the registers run on.
    type Base: LabelingSystem;
    /// What names one register: `()` for a lone register, a key for a store.
    type Key: Copy + Ord + Debug;
    /// The wire message type.
    type Msg: Clone + Debug + Send + 'static;
    /// The client output type.
    type Out: Clone + Debug + Send + 'static;
    /// The builder [`Cluster::bounded`] and friends start.
    type Builder: From<BuilderCore<Self::Base>>;

    /// Address `msg` to the register named `key`.
    fn wrap(key: Self::Key, msg: Msg<Ts<Self::Base>>) -> Self::Msg;

    /// `ev` as an output of the register named `key`.
    fn emit(key: Self::Key, ev: ClientEvent<Ts<Self::Base>>) -> Self::Out;

    /// The register an output belongs to, and the event itself — the
    /// inverse of [`Envelope::emit`].
    fn open(out: &Self::Out) -> (Self::Key, &ClientEvent<Ts<Self::Base>>);

    /// One garbage message for a corrupted channel.
    fn garbage(sys: &Sys<Self::Base>, cfg: &ClusterConfig, rng: &mut StdRng) -> Self::Msg;

    /// The honest server for seat `pid`: rebuilt from whatever `disk` holds,
    /// or fresh (restart with state loss) without one.
    fn honest_server(
        sys: &Sys<Self::Base>,
        layout: &ShardRouter,
        pid: ProcessId,
        disk: Option<DiskHandle>,
    ) -> Proc<Self>;

    /// A Byzantine server following `strat`, for seats the nemesis hands to
    /// the adversary.
    fn byzantine_server(
        sys: &Sys<Self::Base>,
        cfg: ClusterConfig,
        strat: ByzStrategy,
    ) -> Proc<Self>;
}

/// The envelope of a lone register: no key, bare [`Msg`] / [`ClientEvent`].
pub struct Plain<B>(PhantomData<B>);

impl<B: LabelingSystem> Envelope for Plain<B> {
    type Base = B;
    type Key = ();
    type Msg = Msg<Ts<B>>;
    type Out = ClientEvent<Ts<B>>;
    type Builder = ClusterBuilder<B>;

    fn wrap(_key: (), msg: Msg<Ts<B>>) -> Msg<Ts<B>> {
        msg
    }

    fn emit(_key: (), ev: ClientEvent<Ts<B>>) -> ClientEvent<Ts<B>> {
        ev
    }

    fn open(out: &ClientEvent<Ts<B>>) -> ((), &ClientEvent<Ts<B>>) {
        ((), out)
    }

    fn garbage(sys: &Sys<B>, cfg: &ClusterConfig, rng: &mut StdRng) -> Msg<Ts<B>> {
        random_message::<B>(sys, cfg, rng)
    }

    fn honest_server(
        sys: &Sys<B>,
        layout: &ShardRouter,
        _pid: ProcessId,
        disk: Option<DiskHandle>,
    ) -> Proc<Self> {
        Box::new(match disk {
            Some(disk) => Server::recover(sys.clone(), layout.cfg(), disk),
            None => Server::new(sys.clone(), layout.cfg()),
        })
    }

    fn byzantine_server(sys: &Sys<B>, cfg: ClusterConfig, strat: ByzStrategy) -> Proc<Self> {
        Box::new(ByzServer::new(sys.clone(), cfg, strat))
    }
}

/// What every cluster builder holds, once: sizing, labeling system, client
/// count and the substrate parameters. Builders embed it as their `core`
/// field and get its setters from [`crate::builder_core_setters!`]; a cluster whose
/// automata the caller lists by hand (the baselines) fills the fields and
/// calls [`BuilderCore::assemble`] directly.
pub struct BuilderCore<B: LabelingSystem> {
    /// Per-group cluster arithmetic.
    pub cfg: ClusterConfig,
    /// The base labeling system.
    pub base: B,
    /// Number of correct clients (default 2).
    pub clients: usize,
    /// Substrate seed (default 0).
    pub seed: u64,
    /// Message delay model (default uniform 1..=10; simulator only).
    pub delay: DelayModel,
    /// Retry policy of every correct client (default [`RetryPolicy::none`]).
    pub retry: RetryPolicy,
    /// Runtime `build_any` assembles on (default [`Backend::Sim`]).
    pub backend: Backend,
    /// Threaded pump timeout override.
    pub pump_timeout: Option<Duration>,
    /// Whether honest servers get a simulated disk.
    pub durable: bool,
}

impl<B: LabelingSystem> BuilderCore<B> {
    /// Start from a config and base labeling system.
    pub fn new(cfg: ClusterConfig, base: B) -> Self {
        Self {
            cfg,
            base,
            clients: 2,
            seed: 0,
            delay: DelayModel::uniform(1, 10),
            retry: RetryPolicy::none(),
            backend: Backend::Sim,
            pump_timeout: None,
            durable: false,
        }
    }

    /// The MWMR labeling system over `base`.
    pub fn sys(&self) -> Sys<B> {
        MwmrLabeling::new(self.base.clone())
    }

    /// One simulated disk per server of `layout` when the cluster is
    /// durable. Disk seeds derive from the cluster seed, so identical
    /// builds produce byte-identical disks on either backend.
    pub fn disks(&self, layout: &ShardRouter) -> Option<DiskSet> {
        self.durable.then(|| DiskSet::sim(layout.total_servers(), self.seed ^ 0xD15C_D15C))
    }

    /// Hand `procs` (in pid order: `layout`'s servers, then `clients`
    /// correct clients, then anything else) to `spawn` and wrap the
    /// substrate it returns in the driver.
    pub fn assemble<W: Envelope<Base = B>, S>(
        self,
        layout: ShardRouter,
        batch: BatchPolicy,
        disks: Option<DiskSet>,
        procs: Vec<Proc<W>>,
        spawn: impl FnOnce(Vec<Proc<W>>, &SubstrateConfig) -> S,
    ) -> Cluster<W, S> {
        let mut config =
            SubstrateConfig::seeded(self.seed).with_delay(self.delay).with_batching(batch);
        config.pump_timeout = self.pump_timeout.unwrap_or(config.pump_timeout);
        Cluster {
            sim: spawn(procs, &config),
            cfg: self.cfg,
            sys: self.sys(),
            router: layout,
            n_clients: self.clients,
            recorders: BTreeMap::new(),
            op_budget: 400_000,
            disks,
        }
    }
}

/// The setters every cluster builder shares, written once. Expand inside
/// the `impl` block of a builder whose `core` field is a [`BuilderCore`].
#[macro_export]
macro_rules! builder_core_setters {
    () => {
        /// Give every honest server a simulated disk (the cluster's `disks`):
        /// applied writes persist, and `NemesisEvent::CrashRecover` reboots a
        /// crashed server *from its own, possibly damaged, storage*.
        pub fn durable(mut self) -> Self {
            self.core.durable = true;
            self
        }

        /// Number of clients to attach (default 2).
        pub fn clients(mut self, n: usize) -> Self {
            self.core.clients = n.max(1);
            self
        }

        /// Substrate seed.
        pub fn seed(mut self, seed: u64) -> Self {
            self.core.seed = seed;
            self
        }

        /// Message delay model (default uniform 1..=10; simulator only).
        pub fn delay(mut self, delay: $crate::cluster::DelayModel) -> Self {
            self.core.delay = delay;
            self
        }

        /// Retry/timeout/backoff policy for every correct client (default
        /// `RetryPolicy::none()`: single attempts).
        pub fn retry(mut self, policy: $crate::RetryPolicy) -> Self {
            self.core.retry = policy;
            self
        }

        /// Select the runtime `build_any` assembles on (default
        /// `Backend::Sim`).
        pub fn backend(mut self, backend: $crate::cluster::Backend) -> Self {
            self.core.backend = backend;
            self
        }

        /// Longest one threaded `pump` blocks before reporting idle
        /// (threaded runtime only; default 100 ms). Open-loop drivers that
        /// pace arrivals between pumps want this close to the arrival
        /// interval.
        pub fn pump_timeout(mut self, timeout: std::time::Duration) -> Self {
            self.core.pump_timeout = Some(timeout);
            self
        }
    };
}

/// Builder for a [`RegisterCluster`].
pub struct ClusterBuilder<B: LabelingSystem> {
    core: BuilderCore<B>,
    byz: BTreeMap<usize, ByzStrategy>,
    scripted: Vec<usize>,
    hostile_clients: Vec<ByzReaderStrategy>,
    reader_opts: ReaderOptions,
}

impl<B: LabelingSystem> From<BuilderCore<B>> for ClusterBuilder<B> {
    fn from(core: BuilderCore<B>) -> Self {
        Self {
            core,
            byz: BTreeMap::new(),
            scripted: Vec::new(),
            hostile_clients: Vec::new(),
            reader_opts: ReaderOptions::default(),
        }
    }
}

impl<B: LabelingSystem> ClusterBuilder<B> {
    /// Start from a config and base labeling system.
    pub fn new(cfg: ClusterConfig, base: B) -> Self {
        BuilderCore::new(cfg, base).into()
    }

    builder_core_setters!();

    /// Make server `idx` Byzantine with the given strategy.
    pub fn byzantine(mut self, idx: usize, strategy: ByzStrategy) -> Self {
        assert!(idx < self.core.cfg.n);
        self.byz.insert(idx, strategy);
        self
    }

    /// Make the *last* `f` servers Byzantine with one strategy.
    pub fn byzantine_tail(mut self, strategy: ByzStrategy) -> Self {
        let cfg = self.core.cfg;
        for idx in cfg.n - cfg.f..cfg.n {
            self.byz.insert(idx, strategy);
        }
        self
    }

    /// Make server `idx` a fully scripted (driver-controlled) adversary.
    pub fn scripted(mut self, idx: usize) -> Self {
        assert!(idx < self.core.cfg.n);
        self.scripted.push(idx);
        self
    }

    /// Attach a Byzantine (hostile) client after the correct clients; kick
    /// it with [`Cluster::kick_hostile`] to emit traffic volleys.
    pub fn hostile_client(mut self, strategy: ByzReaderStrategy) -> Self {
        self.hostile_clients.push(strategy);
        self
    }

    /// Reader ablation switches.
    pub fn reader_options(mut self, opts: ReaderOptions) -> Self {
        self.reader_opts = opts;
        self
    }

    /// The automata in pid order: servers, correct clients, hostile clients.
    fn procs(&self, disks: Option<&DiskSet>) -> Vec<Proc<Plain<B>>> {
        let (sys, cfg) = (self.core.sys(), self.core.cfg);
        let mut procs: Vec<Proc<Plain<B>>> = Vec::new();
        for s in 0..cfg.n {
            if self.scripted.contains(&s) {
                procs.push(Box::new(ScriptedServer::<B>::new(sys.clone())));
            } else if let Some(&strategy) = self.byz.get(&s) {
                // Adversaries don't persist: their seat's disk stays empty
                // (or stale), which is itself a realistic recovery input.
                procs.push(Box::new(ByzServer::new(sys.clone(), cfg, strategy)));
            } else {
                let server = Server::new(sys.clone(), cfg);
                procs.push(match disks {
                    Some(disks) => Box::new(server.with_disk(disks.get(s))),
                    None => Box::new(server),
                });
            }
        }
        for c in 0..self.core.clients {
            procs.push(Box::new(Client::with_retry(
                sys.clone(),
                cfg,
                cfg.client_pid(c) as u32,
                self.reader_opts,
                self.core.retry,
            )));
        }
        for strategy in &self.hostile_clients {
            procs.push(Box::new(ByzClient::new(sys.clone(), cfg, *strategy)));
        }
        procs
    }

    fn assemble<S>(
        self,
        spawn: impl FnOnce(Vec<Proc<Plain<B>>>, &SubstrateConfig) -> S,
    ) -> RegisterCluster<B, S> {
        let layout = ShardRouter::new(self.core.cfg, 1);
        let disks = self.core.disks(&layout);
        let procs = self.procs(disks.as_ref());
        self.core.assemble(layout, BatchPolicy::disabled(), disks, procs, spawn)
    }

    /// Assemble the cluster on the deterministic simulator.
    pub fn build(self) -> RegisterCluster<B> {
        self.assemble(Simulation::from_procs)
    }

    /// Assemble the cluster on the backend chosen with
    /// [`ClusterBuilder::backend`].
    pub fn build_any(self) -> RegisterCluster<B, AnyRegisterSubstrate<B>> {
        let backend = self.core.backend;
        self.assemble(|procs, config| AnySubstrate::spawn(backend, procs, config))
    }
}

/// A cluster (servers + clients + per-key recorders) speaking envelope `W`
/// on a substrate `S` — the simulator by default.
pub struct Cluster<W: Envelope, S = Simulation<<W as Envelope>::Msg, <W as Envelope>::Out>> {
    /// The underlying substrate (exposed for schedule steering when `S` is
    /// the simulator).
    pub sim: S,
    /// Per-group cluster arithmetic.
    pub cfg: ClusterConfig,
    /// The MWMR labeling system in use.
    pub sys: Sys<W::Base>,
    /// The process layout, and key → shard placement.
    pub router: ShardRouter,
    n_clients: usize,
    /// One operation history per register (public so experiments can
    /// inspect records); an entry appears with the key's first operation.
    pub recorders: BTreeMap<W::Key, HistoryRecorder<W::Base>>,
    /// Max substrate events per blocking operation.
    pub op_budget: u64,
    /// Per-server stable storage, when built durable. The driver holds
    /// these handles alongside the servers (works on both backends), so the
    /// nemesis can damage a crashed server's disk and rebuild the automaton
    /// from it — and parity tests can compare disk digests across
    /// substrates.
    pub disks: Option<DiskSet>,
}

/// A register cluster: the driver over the [`Plain`] envelope.
pub type RegisterCluster<B, S = SimSubstrate<B>> = Cluster<Plain<B>, S>;

impl<W: Envelope<Base = BoundedLabeling>> Cluster<W> {
    /// Builder for the paper's protocol: bounded labels, `n = 5f + 1`.
    pub fn bounded(f: usize) -> W::Builder {
        Self::bounded_with_n(5 * f + 1, f)
    }

    /// Builder with explicit `n` (e.g. `n = 5f` for the lower bound).
    pub fn bounded_with_n(n: usize, f: usize) -> W::Builder {
        let cfg = ClusterConfig::with_n(n, f);
        BuilderCore::new(cfg, BoundedLabeling::new(cfg.label_k())).into()
    }
}

impl<W: Envelope<Base = UnboundedLabeling>> Cluster<W> {
    /// Builder for the same protocol over unbounded timestamps (used by
    /// E6 to isolate the effect of boundedness).
    pub fn unbounded(f: usize) -> W::Builder {
        BuilderCore::new(ClusterConfig::stabilizing(f), UnboundedLabeling).into()
    }
}

impl<W, S> Cluster<W, S>
where
    W: Envelope,
    S: Substrate<W::Msg, W::Out>,
{
    /// Pid of the `i`-th client (clients sit after every server).
    pub fn client(&self, i: usize) -> ProcessId {
        assert!(i < self.n_clients, "client {i} not attached");
        self.router.client_pid(i)
    }

    /// Which backend the cluster runs on.
    pub fn backend(&self) -> Backend {
        self.sim.backend()
    }

    /// Current time: virtual (simulator) or elapsed ticks (threads).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Snapshot of the network metrics so far.
    pub fn metrics(&self) -> NetMetrics {
        self.sim.metrics_snapshot()
    }

    /// The instant to record for an operation invoked now. On the
    /// simulator this is `now + 1`: the command reaches the client only
    /// after at least one tick of channel delay, so an operation completing
    /// at time `t` strictly precedes one invoked at the same driver step.
    /// On wall-clock ticks the `+1` would claim the invocation happened
    /// later than it did and manufacture false precedence edges, so the
    /// threaded backend stamps `now` exactly — two stamps from the same
    /// monotonic clock order soundly without adjustment.
    fn invoke_time(&self) -> u64 {
        match self.sim.backend() {
            Backend::Sim => self.sim.now() + 1,
            Backend::Threaded => self.sim.now(),
        }
    }

    /// The history of the register named `key`.
    pub fn history(&mut self, key: W::Key) -> &mut HistoryRecorder<W::Base> {
        self.recorders.entry(key).or_default()
    }

    /// Non-blocking: start `op` on `client` against the register `key`.
    pub fn invoke(&mut self, client: ProcessId, key: W::Key, op: Op) {
        let now = self.invoke_time();
        let (kind, intent, msg) = match op {
            Op::Write(value) => (OpKind::Write, Some(value), Msg::InvokeWrite { value }),
            Op::Read => (OpKind::Read, None, Msg::InvokeRead),
        };
        self.history(key).begin_with_intent(client, kind, now, intent);
        self.sim.inject(client, W::wrap(key, msg));
    }

    /// Pump the substrate, recording every event of every client into its
    /// register's history, until `visit` returns `Some`.
    fn pump_recording<R>(
        &mut self,
        max_events: u64,
        max_idle: u32,
        mut visit: impl FnMut(ProcessId, &ClientEvent<Ts<W::Base>>) -> Option<R>,
    ) -> Option<R> {
        let recorders = &mut self.recorders;
        self.sim.pump_until(max_events, max_idle, &mut |time, pid, out| {
            let (key, ev) = W::open(&out);
            recorders.entry(key).or_default().complete(pid, time, ev);
            visit(pid, ev)
        })
    }

    /// Pump the substrate until `client` emits a terminal event.
    pub fn await_client(&mut self, client: ProcessId) -> Result<ClientEvent<Ts<W::Base>>, OpError> {
        self.pump_recording(self.op_budget, MAX_IDLE_PUMPS, |pid, ev| {
            (pid == client).then(|| ev.clone())
        })
        .ok_or(OpError::Stuck)
    }

    /// Blocking write to `key`: returns the installed timestamp.
    pub fn put(
        &mut self,
        client: ProcessId,
        key: W::Key,
        value: Value,
    ) -> Result<Ts<W::Base>, OpError> {
        self.put_outcome(client, key, value).ok().ok_or(OpError::Stuck)
    }

    /// Blocking read of `key`.
    pub fn get(&mut self, client: ProcessId, key: W::Key) -> Result<ReadOk<W::Base>, OpError> {
        self.invoke(client, key, Op::Read);
        match self.await_client(client)? {
            ClientEvent::ReadDone { value, ts, via_union } => Ok(ReadOk { value, ts, via_union }),
            ClientEvent::ReadAborted | ClientEvent::ReadFailed { timed_out: false, .. } => {
                Err(OpError::Aborted)
            }
            ClientEvent::ReadFailed { timed_out: true, .. } => Err(OpError::Stuck),
            other => unreachable!("read terminated by non-read event {other:?}"),
        }
    }

    /// Blocking write under the retry policy, reporting the typed outcome
    /// instead of an error — the chaos-experiment surface.
    pub fn put_outcome(
        &mut self,
        client: ProcessId,
        key: W::Key,
        value: Value,
    ) -> OpOutcome<Ts<W::Base>> {
        self.invoke(client, key, Op::Write(value));
        match self.await_client(client) {
            Ok(ClientEvent::WriteDone { ts, .. }) => OpOutcome::Ok(ts),
            Ok(ClientEvent::WriteFailed { timed_out, attempts, .. }) => {
                failure_outcome(timed_out, attempts)
            }
            Ok(other) => unreachable!("write terminated by non-write event {other:?}"),
            Err(_) => OpOutcome::TimedOut { attempts: 0 },
        }
    }

    /// Blocking read under the retry policy, reporting the typed outcome.
    pub fn get_outcome(&mut self, client: ProcessId, key: W::Key) -> OpOutcome<ReadOk<W::Base>> {
        self.invoke(client, key, Op::Read);
        match self.await_client(client) {
            Ok(ClientEvent::ReadDone { value, ts, via_union }) => {
                OpOutcome::Ok(ReadOk { value, ts, via_union })
            }
            Ok(ClientEvent::ReadAborted) => OpOutcome::Aborted,
            Ok(ClientEvent::ReadFailed { timed_out, attempts }) => {
                failure_outcome(timed_out, attempts)
            }
            Ok(other) => unreachable!("read terminated by non-read event {other:?}"),
            Err(_) => OpOutcome::TimedOut { attempts: 0 },
        }
    }

    /// Launch several operations concurrently (one per distinct client
    /// index) and run until each has terminated (or the budget runs out).
    /// Returns the terminal event per client index, in input order.
    pub fn run_concurrent(
        &mut self,
        ops: &[(usize, W::Key, Op)],
    ) -> Vec<Option<ClientEvent<Ts<W::Base>>>> {
        let mut pending: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for (slot, &(ci, key, op)) in ops.iter().enumerate() {
            let pid = self.client(ci);
            assert!(pending.insert(pid, slot).is_none(), "one concurrent op per client");
            self.invoke(pid, key, op);
        }
        let mut results = vec![None; ops.len()];
        self.pump_recording(self.op_budget, MAX_IDLE_PUMPS, |pid, ev| {
            if let Some(slot) = pending.remove(&pid) {
                results[slot] = Some(ev.clone());
            }
            pending.is_empty().then_some(())
        });
        results
    }

    /// Let in-flight background traffic (late replies, forwards) drain.
    pub fn settle(&mut self, max_events: u64) {
        self.pump_recording(max_events, 1, |_, _| None::<()>);
    }

    /// Transient fault: corrupt the local state of **all** servers and
    /// clients and load garbage messages on every server-adjacent channel.
    pub fn corrupt_everything(&mut self, severity: CorruptionSeverity) {
        let total = self.router.total_servers() + self.n_clients;
        self.apply_plan(&FaultPlan::total(total, severity));
    }

    /// Transient fault hitting only the listed servers.
    pub fn corrupt_servers(&mut self, victims: &[usize], severity: CorruptionSeverity) {
        let total = self.router.total_servers() + self.n_clients;
        self.apply_plan(&FaultPlan::targeting(victims, total, severity));
    }

    fn apply_plan(&mut self, plan: &FaultPlan) {
        let (sys, cfg) = (&self.sys, &self.cfg);
        self.sim.apply_fault(plan, &mut |rng| W::garbage(sys, cfg, rng));
    }

    /// Tear down the substrate (joins worker threads on the threaded
    /// backend; no-op beyond queue draining on the simulator).
    pub fn stop(&mut self) {
        self.sim.stop();
    }

    /// Check one register's history against MWMR regularity.
    pub fn check_key(&self, key: W::Key) -> Result<(), Vec<RegularityError>> {
        self.recorders.get(&key).map_or(Ok(()), |rec| rec.check(&self.sys))
    }

    /// Check every register's whole history; `Err` carries every
    /// violation of every key.
    pub fn check_history(&self) -> Result<(), Vec<RegularityError>> {
        collect(self.recorders.values().map(|rec| rec.check(&self.sys)))
    }

    /// Check only the suffix from `t` (pseudo-stabilization verdict).
    pub fn check_history_from(&self, t: u64) -> Result<(), Vec<RegularityError>> {
        collect(self.recorders.values().map(|rec| rec.check_from(&self.sys, t)))
    }

    /// Record one externally-observed client output into the history — the
    /// spec hook for drivers that step the substrate *themselves* (the
    /// schedule explorer) instead of going through the pump helpers above.
    /// Returns the closed op's index when `out` was terminal for an open op,
    /// so callers can re-check regularity exactly when the history grew.
    pub fn observe_event(&mut self, time: u64, pid: ProcessId, out: &W::Out) -> Option<usize> {
        let (key, ev) = W::open(out);
        self.history(key).complete(pid, time, ev)
    }

    /// Build a [`NemesisRunner`] wired to this cluster: honest restarts
    /// spawn the envelope's fresh server, Byzantine seats its adversary
    /// following `strat`, corruption garbage is drawn from the cluster's
    /// labeling system, and — on a durable cluster — `CrashRecover`
    /// damages the server's own disk and reboots it from whatever
    /// survives. `byz_seats` is the initial seat set — it must match the
    /// seats the cluster was *built* with (e.g.
    /// [`ClusterBuilder::byzantine_tail`]), since the runner only tracks
    /// movement from there. The one place seat bookkeeping is defined,
    /// shared by the chaos soak, the mobile frontier, and tests.
    pub fn nemesis_runner(
        &self,
        schedule: NemesisSchedule,
        byz_seats: Vec<ProcessId>,
        strat: ByzStrategy,
    ) -> NemesisRunner<W::Msg, W::Out> {
        let (cfg, layout) = (self.cfg, self.router);
        let sys = self.sys.clone();
        let make_honest: AutomatonFactory<W::Msg, W::Out> =
            Box::new(move |pid| W::honest_server(&sys, &layout, pid, None));
        let sys = self.sys.clone();
        let make_byz: AutomatonFactory<W::Msg, W::Out> =
            Box::new(move |_pid| W::byzantine_server(&sys, cfg, strat));
        let sys = self.sys.clone();
        let garbage = Box::new(move |rng: &mut StdRng| W::garbage(&sys, &cfg, rng));
        let runner =
            NemesisRunner::new_multi(schedule, make_honest, Some(make_byz), byz_seats, garbage);
        match &self.disks {
            Some(disks) => {
                let (disks, sys) = (disks.clone(), self.sys.clone());
                runner.recovery(Box::new(move |pid, fault| {
                    let disk = disks.get(pid);
                    disk.crash(fault);
                    W::honest_server(&sys, &layout, pid, Some(disk))
                }))
            }
            None => runner,
        }
    }
}

/// Fold per-register verdicts into one, keeping every violation.
fn collect(
    verdicts: impl Iterator<Item = Result<(), Vec<RegularityError>>>,
) -> Result<(), Vec<RegularityError>> {
    let errs: Vec<RegularityError> = verdicts.filter_map(Result::err).flatten().collect();
    errs.is_empty().then_some(()).ok_or(errs)
}

/// The register's own spelling of the keyed operations: its one key is `()`.
impl<B, S> Cluster<Plain<B>, S>
where
    B: LabelingSystem,
    S: Substrate<Msg<Ts<B>>, ClientEvent<Ts<B>>>,
{
    /// Kick every hostile client — they sit after the correct ones — once
    /// (each kick triggers a volley of hostile traffic; server replies
    /// re-trigger throttled volleys).
    pub fn kick_hostile(&mut self) {
        for pid in self.router.client_pid(self.n_clients)..self.sim.process_count() {
            self.sim.inject(pid, Msg::InvokeRead);
        }
    }

    /// Blocking write: returns the installed timestamp.
    pub fn write(&mut self, client: ProcessId, value: Value) -> Result<Ts<B>, OpError> {
        self.put(client, (), value)
    }

    /// Blocking read.
    pub fn read(&mut self, client: ProcessId) -> Result<ReadOk<B>, OpError> {
        self.get(client, ())
    }
}

/// Simulator-only surface: typed state inspection requires in-process
/// access to the automata, which threads cannot share.
impl<B: LabelingSystem> RegisterCluster<B> {
    /// Typed access to an honest server's state (None for adversaries).
    pub fn server_state(&mut self, idx: usize) -> Option<&mut Server<B>> {
        self.sim.process_mut(idx).as_any_mut()?.downcast_mut::<Server<B>>()
    }

    /// Typed access to a scripted server (None otherwise).
    pub fn scripted_server(&mut self, idx: usize) -> Option<&mut ScriptedServer<B>> {
        self.sim.process_mut(idx).as_any_mut()?.downcast_mut::<ScriptedServer<B>>()
    }

    /// Typed access to a client's state.
    pub fn client_state(&mut self, i: usize) -> Option<&mut Client<B>> {
        let pid = self.client(i);
        self.sim.process_mut(pid).as_any_mut()?.downcast_mut::<Client<B>>()
    }

    /// Count of honest servers currently storing `(value, ts)` — the
    /// Lemma 2 propagation measurement of experiment E3.
    pub fn servers_storing(&mut self, value: Value, ts: &Ts<B>) -> usize {
        let n = self.cfg.n;
        (0..n)
            .filter(|&s| {
                self.server_state(s).map(|srv| srv.value == value && &srv.ts == ts).unwrap_or(false)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_write_read_roundtrip() {
        let mut c = RegisterCluster::bounded(1).seed(1).build();
        let w = c.client(0);
        let ts = c.write(w, 123).unwrap();
        let r = c.read(c.client(1)).unwrap();
        assert_eq!(r.value, 123);
        assert_eq!(r.ts, ts);
        assert!(!r.via_union);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn sequential_writes_read_latest() {
        let mut c = RegisterCluster::bounded(1).seed(2).build();
        let w = c.client(0);
        for v in 1..=10 {
            c.write(w, v).unwrap();
        }
        let r = c.read(c.client(1)).unwrap();
        assert_eq!(r.value, 10);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn lemma2_propagation_bound_holds() {
        let mut c = RegisterCluster::bounded(1).seed(3).build();
        let w = c.client(0);
        for v in 1..=5 {
            let ts = c.write(w, v).unwrap();
            let stored = c.servers_storing(v, &ts);
            assert!(
                stored >= c.cfg.propagation_bound(),
                "write {v}: {stored} servers < 3f+1 = {}",
                c.cfg.propagation_bound()
            );
        }
    }

    #[test]
    fn works_with_each_byzantine_strategy() {
        for (i, strat) in ByzStrategy::all().into_iter().enumerate() {
            let mut c =
                RegisterCluster::bounded(1).byzantine_tail(strat).seed(100 + i as u64).build();
            let w = c.client(0);
            c.write(w, 7).unwrap_or_else(|e| panic!("write under {strat:?}: {e:?}"));
            let r = c.read(c.client(1)).unwrap_or_else(|e| panic!("read under {strat:?}: {e:?}"));
            assert_eq!(r.value, 7, "value under {strat:?}");
            assert!(c.check_history().is_ok(), "history under {strat:?}");
        }
    }

    #[test]
    fn concurrent_write_and_read_satisfy_regularity() {
        let mut c = RegisterCluster::bounded(1).clients(3).seed(5).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        let evs = c.run_concurrent(&[(0, (), Op::Write(2)), (1, (), Op::Read), (2, (), Op::Read)]);
        assert!(evs.iter().all(|e| e.is_some()), "all ops must terminate");
        c.settle(50_000);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn unbounded_base_works_fault_free() {
        let mut c = RegisterCluster::unbounded(1).seed(6).build();
        let w = c.client(0);
        c.write(w, 9).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 9);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn stabilizes_after_total_corruption() {
        let mut c = RegisterCluster::bounded(1).seed(7).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1: the first post-fault write runs to completion.
        c.write(w, 2).unwrap();
        let t_stable = c.now();
        // Every subsequent read must satisfy regularity.
        for _ in 0..5 {
            let r = c.read(c.client(1)).unwrap();
            assert!(r.value == 2 || r.value == 0 || r.value == 1 || r.value > 2);
        }
        assert!(
            c.check_history_from(t_stable).is_ok(),
            "suffix after first complete write must be regular"
        );
    }

    #[test]
    fn genesis_read_without_writes() {
        let mut c = RegisterCluster::bounded(1).seed(8).build();
        let r = c.read(c.client(0)).unwrap();
        assert_eq!(r.value, 0);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn threaded_backend_runs_the_same_scenario() {
        let mut c =
            RegisterCluster::bounded(1).clients(2).seed(21).backend(Backend::Threaded).build_any();
        assert_eq!(c.backend(), Backend::Threaded);
        let (w, r) = (c.client(0), c.client(1));
        for v in 1..=5 {
            c.write(w, v).unwrap();
        }
        assert_eq!(c.read(r).unwrap().value, 5);
        assert!(c.check_history().is_ok());
        let m = c.metrics();
        assert!(m.messages_sent > 0 && m.messages_delivered > 0, "{m:?}");
        c.stop();
    }

    #[test]
    fn backend_switch_selects_runtime() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let mut c = RegisterCluster::bounded(1).seed(22).backend(backend).build_any();
            assert_eq!(c.backend(), backend);
            let w = c.client(0);
            c.write(w, 77).unwrap();
            assert_eq!(c.read(c.client(1)).unwrap().value, 77, "{backend:?}");
            assert!(c.check_history().is_ok(), "{backend:?}");
            c.stop();
        }
    }

    #[test]
    fn deadline_exhausts_write_when_quorum_is_gone() {
        let policy =
            RetryPolicy { max_attempts: 2, deadline: 200, backoff_base: 10, backoff_max: 40 };
        let mut c = RegisterCluster::bounded(1).seed(30).retry(policy).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        // Two crashed servers leave 4 < n − f = 5 repliers: phase 1 stalls,
        // the deadline fires, and both attempts burn out.
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.put_outcome(w, (), 2);
        assert_eq!(out, OpOutcome::Exhausted { attempts: 2 }, "{out:?}");
        // The failed write is permanently concurrent, never a violation.
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn retries_ride_out_a_healed_link_cut() {
        use sbft_net::LinkFault;
        let mut c = RegisterCluster::bounded(1).seed(31).retry(RetryPolicy::chaos()).build();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        // Cut the writer off from two servers: no quorum, writes exhaust.
        for s in [0usize, 1] {
            c.sim.set_link_fault(w, s, Some(LinkFault::cut()));
            c.sim.set_link_fault(s, w, Some(LinkFault::cut()));
        }
        let out = c.put_outcome(w, (), 2);
        assert!(!out.is_ok(), "{out:?}");
        for s in [0usize, 1] {
            c.sim.set_link_fault(w, s, None);
            c.sim.set_link_fault(s, w, None);
        }
        let out = c.put_outcome(w, (), 3);
        assert!(out.is_ok(), "post-heal write must complete: {out:?}");
        let r = c.get_outcome(c.client(1), ());
        assert!(r.is_ok(), "{r:?}");
        c.settle(50_000);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn durable_cluster_recovers_server_from_damaged_disk() {
        use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
        use sbft_storage::DiskFault;
        let mut c = RegisterCluster::bounded(1).seed(40).durable().build();
        let w = c.client(0);
        for v in 1..=6 {
            c.write(w, v).unwrap();
        }
        let disks = c.disks.clone().expect("durable cluster has disks");
        assert!(disks.get(0).stats().appends > 0, "servers persist applied writes");
        let sched = NemesisSchedule::scripted(vec![
            (0, NemesisEvent::Crash(0)),
            (1, NemesisEvent::CrashRecover { pid: 0, fault: DiskFault::LostSuffix }),
        ]);
        let mut runner = c.nemesis_runner(sched, vec![], ByzStrategy::Silent);
        assert!(runner.fire_next(&mut c.sim));
        assert!(runner.fire_next(&mut c.sim));
        assert_eq!(runner.cures.len(), 1, "recovery counts as a cure");
        // The recovered server rejoined with the synced prefix of its
        // state; normal operation continues and regularity holds.
        let srv = c.server_state(0).expect("recovered server is honest");
        assert!(srv.writes_applied > 0, "state came back from disk, not genesis");
        c.write(w, 7).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 7);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn durable_cluster_byte_identical_across_backends() {
        use std::time::{Duration, Instant};
        let digests = |backend: Backend| {
            let mut c = RegisterCluster::bounded(1)
                .seed(41)
                .durable()
                .backend(backend)
                .pump_timeout(Duration::from_millis(5))
                .build_any();
            let (w, disks) = (c.client(0), c.disks.clone().unwrap());
            let persisted = |pid| {
                let st = disks.get(pid).stats();
                st.appends + st.snapshots
            };
            let deadline = Instant::now() + Duration::from_secs(60);
            for v in 1..=9 {
                c.write(w, v).unwrap();
                // A write completes on a quorum of acks, and on threads a
                // quiet output channel says nothing about a slow server's
                // inbox. The next write's label is computed from the
                // timestamps its first n − f repliers hold, so a server still
                // one write behind changes the bytes every disk gets: wait
                // until all of them hold this write (each applied write is
                // exactly one append or one snapshot).
                while (0..c.cfg.n).any(|pid| persisted(pid) < v) {
                    assert!(Instant::now() < deadline, "{backend:?}: write {v} never landed");
                    c.settle(200_000);
                }
            }
            c.stop();
            disks.digests()
        };
        assert_eq!(
            digests(Backend::Sim),
            digests(Backend::Threaded),
            "same writes, same bytes on disk"
        );
    }

    #[test]
    fn threaded_backend_recovers_from_corruption() {
        let mut c = RegisterCluster::bounded(1).seed(23).backend(Backend::Threaded).build_any();
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1: first post-fault write completes; suffix regular.
        c.write(w, 2).unwrap();
        let t_stable = c.now();
        for _ in 0..3 {
            let _ = c.read(c.client(1));
        }
        assert!(c.check_history_from(t_stable).is_ok());
        c.stop();
    }
}
