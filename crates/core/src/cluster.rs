//! One-call assembly of a register cluster, with blocking-style operation
//! helpers and integrated history recording — the scenario driver shared by
//! tests, examples, benches and the experiment harness.
//!
//! The driver is generic over the [`Substrate`] hosting the automata: the
//! default is the deterministic [`Simulation`] (all correctness work), and
//! the same scenarios run on the [`ThreadedCluster`] via
//! [`ClusterBuilder::build_threaded`], or on a runtime-chosen backend via
//! [`ClusterBuilder::backend`] + [`ClusterBuilder::build_any`].
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

use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling, UnboundedLabeling};
use sbft_net::corruption::FaultPlan;
use sbft_net::nemesis::{AutomatonFactory, NemesisRunner, NemesisSchedule};
use sbft_net::substrate::{AnySubstrate, Backend, Substrate, SubstrateConfig};
use sbft_net::{
    Automaton, CorruptionSeverity, DelayModel, NetMetrics, ProcessId, Simulation, ThreadedCluster,
};
use sbft_storage::DiskSet;

use crate::adversary::{random_message, ByzServer, ByzStrategy, ScriptedServer};
use crate::byzclient::{ByzClient, ByzReaderStrategy};
use crate::client::Client;
use crate::config::ClusterConfig;
use crate::messages::{ClientEvent, Msg, Value};
use crate::reader::ReaderOptions;
use crate::retry::RetryPolicy;
use crate::server::Server;
use crate::spec::{HistoryRecorder, OpKind, RegularityError};
use crate::{Sys, Ts};

/// The simulator substrate type for a labeling system `B`.
pub type SimSubstrate<B> = Simulation<Msg<Ts<B>>, ClientEvent<Ts<B>>>;
/// The threaded substrate type for a labeling system `B`.
pub type ThreadedSubstrate<B> = ThreadedCluster<Msg<Ts<B>>, ClientEvent<Ts<B>>>;
/// The runtime-chosen substrate type for a labeling system `B`.
pub type AnyRegisterSubstrate<B> = AnySubstrate<Msg<Ts<B>>, ClientEvent<Ts<B>>>;

/// Boxed automata in pid order, ready to hand to a substrate.
type RegisterProcs<B> = Vec<Box<dyn Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>>>>;

/// Consecutive idle pumps (threaded runtime) before an operation is
/// declared stuck. With the default pump timeout this bounds a blocking
/// operation to a few wall-clock seconds.
const MAX_IDLE_PUMPS: u32 = 50;

/// Why a blocking operation helper failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpError {
    /// The read returned `abort` (servers in a transitory phase).
    Aborted,
    /// The event budget ran out or the simulation went quiet before the
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

/// An operation request for [`RegisterCluster::run_concurrent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `write(value)`.
    Write(Value),
    /// `read()`.
    Read,
}

/// Builder for a [`RegisterCluster`].
pub struct ClusterBuilder<B: LabelingSystem> {
    cfg: ClusterConfig,
    base: B,
    n_clients: usize,
    byz: BTreeMap<usize, ByzStrategy>,
    scripted: Vec<usize>,
    hostile_clients: Vec<ByzReaderStrategy>,
    seed: u64,
    delay: DelayModel,
    reader_opts: ReaderOptions,
    retry: RetryPolicy,
    backend: Backend,
    pump_timeout: Option<std::time::Duration>,
    durable: bool,
}

impl<B: LabelingSystem> ClusterBuilder<B> {
    /// Start from a config and base labeling system.
    pub fn new(cfg: ClusterConfig, base: B) -> Self {
        Self {
            cfg,
            base,
            n_clients: 2,
            byz: BTreeMap::new(),
            scripted: Vec::new(),
            hostile_clients: Vec::new(),
            seed: 0,
            delay: DelayModel::uniform(1, 10),
            reader_opts: ReaderOptions::default(),
            retry: RetryPolicy::none(),
            backend: Backend::Sim,
            pump_timeout: None,
            durable: false,
        }
    }

    /// Give every honest server a simulated disk: applied writes persist,
    /// and the cluster can reboot crashed servers *from their own
    /// (possibly damaged) storage* via
    /// [`sbft_net::NemesisEvent::CrashRecover`] — see
    /// [`RegisterCluster::disks`]. Disk seeds derive from the cluster
    /// seed, so identical builds produce byte-identical disks on either
    /// backend.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Number of clients to attach (default 2).
    pub fn clients(mut self, n: usize) -> Self {
        self.n_clients = n.max(1);
        self
    }

    /// Make server `idx` Byzantine with the given strategy.
    pub fn byzantine(mut self, idx: usize, strategy: ByzStrategy) -> Self {
        assert!(idx < self.cfg.n);
        self.byz.insert(idx, strategy);
        self
    }

    /// Make the *last* `f` servers Byzantine with one strategy.
    pub fn byzantine_tail(mut self, strategy: ByzStrategy) -> Self {
        for idx in self.cfg.n - self.cfg.f..self.cfg.n {
            self.byz.insert(idx, strategy);
        }
        self
    }

    /// Make server `idx` a fully scripted (driver-controlled) adversary.
    pub fn scripted(mut self, idx: usize) -> Self {
        assert!(idx < self.cfg.n);
        self.scripted.push(idx);
        self
    }

    /// Attach a Byzantine (hostile) client after the correct clients. Its
    /// pid is reported by [`RegisterCluster::hostile_client`]; kick it
    /// with [`RegisterCluster::kick_hostile`] to emit traffic volleys.
    pub fn hostile_client(mut self, strategy: ByzReaderStrategy) -> Self {
        self.hostile_clients.push(strategy);
        self
    }

    /// Simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Message delay model (default uniform 1..=10; simulator only).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Reader ablation switches.
    pub fn reader_options(mut self, opts: ReaderOptions) -> Self {
        self.reader_opts = opts;
        self
    }

    /// Retry/timeout/backoff policy for every correct client (default
    /// [`RetryPolicy::none`]: single attempts, the historical behaviour).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Select the runtime used by [`ClusterBuilder::build_any`]
    /// (default [`Backend::Sim`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Longest one threaded `pump` blocks before reporting idle (threaded
    /// runtime only; default 100 ms). Open-loop drivers that pace arrivals
    /// between pumps want this close to the arrival interval.
    pub fn pump_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.pump_timeout = Some(timeout);
        self
    }

    fn substrate_config(&self) -> SubstrateConfig {
        let cfg = SubstrateConfig::seeded(self.seed).with_delay(self.delay);
        match self.pump_timeout {
            Some(t) => cfg.with_pump_timeout(t),
            None => cfg,
        }
    }

    /// The automata, in pid order, plus the hostile clients' pids and the
    /// per-server disks (when the cluster is durable).
    fn procs(&self) -> (RegisterProcs<B>, Vec<ProcessId>, Option<DiskSet>) {
        let sys: Sys<B> = MwmrLabeling::new(self.base.clone());
        let disks = self.durable.then(|| DiskSet::sim(self.cfg.n, self.seed ^ 0xD15C_D15C));
        let mut procs: RegisterProcs<B> = Vec::new();
        for s in 0..self.cfg.n {
            if self.scripted.contains(&s) {
                procs.push(Box::new(ScriptedServer::<B>::new(sys.clone())));
            } else if let Some(&strategy) = self.byz.get(&s) {
                // Adversaries don't persist: their seat's disk stays empty
                // (or stale), which is itself a realistic recovery input.
                procs.push(Box::new(ByzServer::new(sys.clone(), self.cfg, strategy)));
            } else {
                let mut server = Server::new(sys.clone(), self.cfg);
                if let Some(disks) = &disks {
                    server = server.with_disk(disks.get(s));
                }
                procs.push(Box::new(server));
            }
        }
        for c in 0..self.n_clients {
            let pid = self.cfg.client_pid(c);
            procs.push(Box::new(Client::with_retry(
                sys.clone(),
                self.cfg,
                pid as u32,
                self.reader_opts,
                self.retry,
            )));
        }
        let mut hostile_pids = Vec::new();
        for strategy in &self.hostile_clients {
            hostile_pids.push(procs.len());
            procs.push(Box::new(ByzClient::new(sys.clone(), self.cfg, *strategy)));
        }
        (procs, hostile_pids, disks)
    }

    fn assemble<S>(
        self,
        sim: S,
        hostile_pids: Vec<ProcessId>,
        disks: Option<DiskSet>,
    ) -> RegisterCluster<B, S> {
        RegisterCluster {
            sim,
            cfg: self.cfg,
            sys: MwmrLabeling::new(self.base.clone()),
            n_clients: self.n_clients,
            hostile_pids,
            recorder: HistoryRecorder::new(),
            op_budget: 400_000,
            disks,
        }
    }

    /// Assemble the cluster on the deterministic simulator.
    pub fn build(self) -> RegisterCluster<B> {
        let (procs, hostile_pids, disks) = self.procs();
        let sim = Simulation::from_procs(procs, &self.substrate_config());
        self.assemble(sim, hostile_pids, disks)
    }

    /// Assemble the cluster on the threaded runtime.
    pub fn build_threaded(self) -> RegisterCluster<B, ThreadedSubstrate<B>> {
        let (procs, hostile_pids, disks) = self.procs();
        let sub = ThreadedCluster::spawn_with(procs, &self.substrate_config());
        self.assemble(sub, hostile_pids, disks)
    }

    /// Assemble the cluster on the backend chosen with
    /// [`ClusterBuilder::backend`].
    pub fn build_any(self) -> RegisterCluster<B, AnyRegisterSubstrate<B>> {
        let (procs, hostile_pids, disks) = self.procs();
        let sub = AnySubstrate::spawn(self.backend, procs, &self.substrate_config());
        self.assemble(sub, hostile_pids, disks)
    }
}

/// A register cluster (servers + clients + recorder) on a substrate `S` —
/// the simulator by default.
pub struct RegisterCluster<B: LabelingSystem, S = SimSubstrate<B>> {
    /// The underlying substrate (exposed for schedule steering when `S` is
    /// the simulator).
    pub sim: S,
    /// Cluster arithmetic.
    pub cfg: ClusterConfig,
    /// The MWMR labeling system in use.
    pub sys: Sys<B>,
    n_clients: usize,
    hostile_pids: Vec<ProcessId>,
    /// Operation history (public so experiments can inspect records).
    pub recorder: HistoryRecorder<B>,
    /// Max substrate events per blocking operation.
    pub op_budget: u64,
    /// Per-server stable storage, when built with
    /// [`ClusterBuilder::durable`]. The driver holds these handles
    /// alongside the servers (works on both backends), so it can damage a
    /// crashed server's disk and rebuild the automaton from it — and
    /// parity tests can compare disk digests across substrates.
    pub disks: Option<DiskSet>,
}

impl RegisterCluster<BoundedLabeling> {
    /// Builder for the paper's protocol: bounded labels, `n = 5f + 1`.
    pub fn bounded(f: usize) -> ClusterBuilder<BoundedLabeling> {
        let cfg = ClusterConfig::stabilizing(f);
        ClusterBuilder::new(cfg, BoundedLabeling::new(cfg.label_k()))
    }

    /// Builder with explicit `n` (e.g. `n = 5f` for the lower bound).
    pub fn bounded_with_n(n: usize, f: usize) -> ClusterBuilder<BoundedLabeling> {
        let cfg = ClusterConfig::with_n(n, f);
        ClusterBuilder::new(cfg, BoundedLabeling::new(cfg.label_k()))
    }
}

impl RegisterCluster<UnboundedLabeling> {
    /// Builder for the same protocol over unbounded timestamps (used by
    /// E6 to isolate the effect of boundedness).
    pub fn unbounded(f: usize) -> ClusterBuilder<UnboundedLabeling> {
        let cfg = ClusterConfig::stabilizing(f);
        ClusterBuilder::new(cfg, UnboundedLabeling)
    }
}

impl<B, S> RegisterCluster<B, S>
where
    B: LabelingSystem,
    S: Substrate<Msg<Ts<B>>, ClientEvent<Ts<B>>>,
{
    /// Pid of the `i`-th client.
    pub fn client(&self, i: usize) -> ProcessId {
        assert!(i < self.n_clients, "client {i} not attached");
        self.cfg.client_pid(i)
    }

    /// Number of attached clients.
    pub fn client_count(&self) -> usize {
        self.n_clients
    }

    /// Pid of the `i`-th hostile (Byzantine) client.
    pub fn hostile_client(&self, i: usize) -> ProcessId {
        self.hostile_pids[i]
    }

    /// Kick every hostile client once (each kick triggers a volley of
    /// hostile traffic; server replies re-trigger throttled volleys).
    pub fn kick_hostile(&mut self) {
        for i in 0..self.hostile_pids.len() {
            let pid = self.hostile_pids[i];
            self.sim.inject(pid, Msg::InvokeRead);
        }
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

    /// Non-blocking: start a write on `client`.
    pub fn invoke_write(&mut self, client: ProcessId, value: Value) {
        self.recorder.begin_with_intent(client, OpKind::Write, self.invoke_time(), Some(value));
        self.sim.inject(client, Msg::InvokeWrite { value });
    }

    /// Non-blocking: start a read on `client` (timing as for writes).
    pub fn invoke_read(&mut self, client: ProcessId) {
        self.recorder.begin(client, OpKind::Read, self.invoke_time());
        self.sim.inject(client, Msg::InvokeRead);
    }

    /// Pump the substrate until `client` emits a terminal event (recording
    /// every event from every client along the way).
    pub fn await_client(&mut self, client: ProcessId) -> Result<ClientEvent<Ts<B>>, OpError> {
        let recorder = &mut self.recorder;
        self.sim
            .pump_until(self.op_budget, MAX_IDLE_PUMPS, &mut |time, pid, out| {
                recorder.complete(pid, time, &out);
                (pid == client).then_some(out)
            })
            .ok_or(OpError::Stuck)
    }

    /// Blocking write: returns the installed timestamp.
    pub fn write(&mut self, client: ProcessId, value: Value) -> Result<Ts<B>, OpError> {
        self.invoke_write(client, value);
        match self.await_client(client)? {
            ClientEvent::WriteDone { ts, .. } => Ok(ts),
            ClientEvent::WriteFailed { .. } => Err(OpError::Stuck),
            other => unreachable!("write terminated by non-write event {other:?}"),
        }
    }

    /// Blocking read.
    pub fn read(&mut self, client: ProcessId) -> Result<ReadOk<B>, OpError> {
        self.invoke_read(client);
        match self.await_client(client)? {
            ClientEvent::ReadDone { value, ts, via_union } => Ok(ReadOk { value, ts, via_union }),
            ClientEvent::ReadAborted => Err(OpError::Aborted),
            ClientEvent::ReadFailed { timed_out: false, .. } => Err(OpError::Aborted),
            ClientEvent::ReadFailed { timed_out: true, .. } => Err(OpError::Stuck),
            other => unreachable!("read terminated by non-read event {other:?}"),
        }
    }

    /// Blocking write under the retry policy, reporting the typed outcome
    /// instead of an error — the chaos-experiment surface.
    pub fn write_outcome(&mut self, client: ProcessId, value: Value) -> OpOutcome<Ts<B>> {
        self.invoke_write(client, value);
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
    pub fn read_outcome(&mut self, client: ProcessId) -> OpOutcome<ReadOk<B>> {
        self.invoke_read(client);
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
    pub fn run_concurrent(&mut self, ops: &[(usize, Op)]) -> Vec<Option<ClientEvent<Ts<B>>>> {
        let mut pending: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for (slot, &(ci, op)) in ops.iter().enumerate() {
            let pid = self.client(ci);
            assert!(pending.insert(pid, slot).is_none(), "one concurrent op per client");
            match op {
                Op::Write(v) => self.invoke_write(pid, v),
                Op::Read => self.invoke_read(pid),
            }
        }
        let mut results: Vec<Option<ClientEvent<Ts<B>>>> = vec![None; ops.len()];
        let recorder = &mut self.recorder;
        self.sim.pump_until(self.op_budget, MAX_IDLE_PUMPS, &mut |time, pid, out| {
            recorder.complete(pid, time, &out);
            if let Some(slot) = pending.remove(&pid) {
                results[slot] = Some(out);
            }
            pending.is_empty().then_some(())
        });
        results
    }

    /// Let in-flight background traffic (late replies, forwards) drain.
    pub fn settle(&mut self, max_events: u64) {
        let recorder = &mut self.recorder;
        self.sim.pump_until(max_events, 1, &mut |time, pid, out| {
            recorder.complete(pid, time, &out);
            None::<()>
        });
    }

    /// Transient fault: corrupt the local state of **all** servers and
    /// clients and load garbage messages on every server-adjacent channel.
    pub fn corrupt_everything(&mut self, severity: CorruptionSeverity) {
        let total = self.cfg.n + self.n_clients;
        let plan = FaultPlan::total(total, severity);
        self.apply_plan(&plan);
    }

    /// Transient fault hitting only the listed servers.
    pub fn corrupt_servers(&mut self, victims: &[usize], severity: CorruptionSeverity) {
        let plan = FaultPlan::targeting(victims, self.cfg.n + self.n_clients, severity);
        self.apply_plan(&plan);
    }

    fn apply_plan(&mut self, plan: &FaultPlan) {
        let sys = self.sys.clone();
        let cfg = self.cfg;
        let mut gen = move |rng: &mut rand::rngs::StdRng| random_message::<B>(&sys, &cfg, rng);
        self.sim.apply_fault(plan, &mut gen);
    }

    /// Tear down the substrate (joins worker threads on the threaded
    /// backend; no-op beyond queue draining on the simulator).
    pub fn stop(&mut self) {
        self.sim.stop();
    }

    /// Check the whole recorded history against MWMR regularity.
    pub fn check_history(&self) -> Result<(), Vec<RegularityError>> {
        self.recorder.check(&self.sys)
    }

    /// Check only the suffix from `t` (pseudo-stabilization verdict).
    pub fn check_history_from(&self, t: u64) -> Result<(), Vec<RegularityError>> {
        self.recorder.check_from(&self.sys, t)
    }

    /// Record one externally-observed client event into the history — the
    /// spec hook for drivers that step the substrate *themselves* (the
    /// schedule explorer) instead of going through the pump helpers above.
    /// Returns the closed op's index when `ev` was terminal for an open op,
    /// so callers can re-check regularity exactly when the history grew.
    pub fn observe_event(
        &mut self,
        time: u64,
        pid: ProcessId,
        ev: &ClientEvent<Ts<B>>,
    ) -> Option<usize> {
        self.recorder.complete(pid, time, ev)
    }

    /// Build a [`NemesisRunner`] wired to this cluster: honest restarts
    /// spawn fresh [`Server`]s, Byzantine seats spawn [`ByzServer`]s with
    /// `strat`, and corruption garbage is drawn from the cluster's
    /// labeling system. `byz_seats` is the initial seat set — it must
    /// match the seats the cluster was *built* with (e.g.
    /// [`ClusterBuilder::byzantine_tail`]), since the runner only tracks
    /// movement from there. The one place seat bookkeeping is defined,
    /// shared by the chaos soak, the mobile frontier, and tests.
    pub fn nemesis_runner(
        &self,
        schedule: NemesisSchedule,
        byz_seats: Vec<ProcessId>,
        strat: ByzStrategy,
    ) -> NemesisRunner<Msg<Ts<B>>, ClientEvent<Ts<B>>> {
        let cfg = self.cfg;
        let sys_h = self.sys.clone();
        let make_honest: AutomatonFactory<Msg<Ts<B>>, ClientEvent<Ts<B>>> = Box::new(move |_pid| {
            Box::new(Server::new(sys_h.clone(), cfg)) as Box<dyn Automaton<_, _>>
        });
        let sys_b = self.sys.clone();
        let make_byz: AutomatonFactory<Msg<Ts<B>>, ClientEvent<Ts<B>>> = Box::new(move |_pid| {
            Box::new(ByzServer::new(sys_b.clone(), cfg, strat)) as Box<dyn Automaton<_, _>>
        });
        let sys_g = self.sys.clone();
        let garbage =
            Box::new(move |rng: &mut rand::rngs::StdRng| random_message::<B>(&sys_g, &cfg, rng));
        let runner =
            NemesisRunner::new_multi(schedule, make_honest, Some(make_byz), byz_seats, garbage);
        match &self.disks {
            Some(disks) => {
                // Durable cluster: CrashRecover damages the server's own
                // disk and reboots it from whatever survives.
                let disks = disks.clone();
                let sys_r = self.sys.clone();
                runner.recovery(Box::new(move |pid, fault| {
                    let disk = disks.get(pid);
                    disk.crash(fault);
                    Box::new(Server::recover(sys_r.clone(), cfg, disk)) as Box<dyn Automaton<_, _>>
                }))
            }
            None => runner,
        }
    }
}

/// Simulator-only surface: typed state inspection requires in-process
/// access to the automata, which threads cannot share.
impl<B: LabelingSystem> RegisterCluster<B, SimSubstrate<B>> {
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
        let evs = c.run_concurrent(&[(0, Op::Write(2)), (1, Op::Read), (2, Op::Read)]);
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
        let mut c = RegisterCluster::bounded(1).clients(2).seed(21).build_threaded();
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
        let out = c.write_outcome(w, 2);
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
        let out = c.write_outcome(w, 2);
        assert!(!out.is_ok(), "{out:?}");
        for s in [0usize, 1] {
            c.sim.set_link_fault(w, s, None);
            c.sim.set_link_fault(s, w, None);
        }
        let out = c.write_outcome(w, 3);
        assert!(out.is_ok(), "post-heal write must complete: {out:?}");
        let r = c.read_outcome(c.client(1));
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
        let digests = |threaded: bool| {
            let b = RegisterCluster::bounded(1).seed(41).durable();
            let mut c = if threaded {
                b.backend(Backend::Threaded).build_any()
            } else {
                b.backend(Backend::Sim).build_any()
            };
            let w = c.client(0);
            for v in 1..=9 {
                c.write(w, v).unwrap();
            }
            c.settle(200_000);
            let d = c.disks.clone().unwrap().digests();
            c.stop();
            d
        };
        assert_eq!(digests(false), digests(true), "same writes, same bytes on disk");
    }

    #[test]
    fn threaded_backend_recovers_from_corruption() {
        let mut c = RegisterCluster::bounded(1).seed(23).build_threaded();
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
