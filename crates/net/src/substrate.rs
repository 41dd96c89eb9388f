//! The substrate abstraction: one driver surface over both runtimes.
//!
//! A *substrate* is anything that can host a set of [`Automaton`] processes
//! and let a driver inject environment commands, drain timestamped outputs,
//! inject transient faults, and read [`NetMetrics`]. The two
//! implementations are the deterministic discrete-event [`Simulation`]
//! (virtual time, replayable schedules) and the [`ThreadedCluster`]
//! (one worker thread per core hosting the processes, wall-clock time
//! measured in ticks).
//! Scenario drivers written against [`Substrate`] run the same protocol
//! unchanged on either — correctness work on the simulator, wall-clock
//! measurements on threads — selected at runtime through [`Backend`] and
//! [`AnySubstrate`].

use std::fmt::Debug;
use std::time::Duration;

use rand::rngs::StdRng;

use crate::batch::BatchPolicy;
use crate::channel::DelayModel;
use crate::corruption::FaultPlan;
use crate::metrics::NetMetrics;
use crate::nemesis::LinkFault;
use crate::process::{Automaton, ProcessId};
use crate::sim::{SimConfig, Simulation};
use crate::threaded::ThreadedCluster;

/// Which runtime a driver should assemble.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic discrete-event simulator.
    Sim,
    /// The one-OS-thread-per-process runtime.
    Threaded,
}

/// Substrate-independent construction parameters.
///
/// The simulator consumes `seed`, `delay` and `batch`; the threaded
/// runtime additionally maps virtual time onto the wall clock via
/// `tick` (timer delays of `d` units fire after `d × tick`) and bounds its
/// blocking behaviour with `pump_timeout` (one [`Substrate::pump`] wait).
#[derive(Clone, Copy, Debug)]
pub struct SubstrateConfig {
    /// Seed for all substrate randomness.
    pub seed: u64,
    /// Message delay distribution (simulator only; threads deliver asap).
    pub delay: DelayModel,
    /// Wall-clock length of one virtual time unit on threads.
    pub tick: Duration,
    /// Longest a single threaded `pump` blocks before reporting idle.
    pub pump_timeout: Duration,
    /// Per-link message coalescing policy (both substrates; disabled by
    /// default so seeded executions are unchanged).
    pub batch: BatchPolicy,
}

impl Default for SubstrateConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            delay: DelayModel::default(),
            tick: Duration::from_micros(100),
            pump_timeout: Duration::from_millis(100),
            batch: BatchPolicy::disabled(),
        }
    }
}

impl SubstrateConfig {
    /// Config with a specific seed and defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Replace the delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Replace the threaded tick length.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Replace the threaded pump timeout — the longest one blocking
    /// [`Substrate::pump`] waits before reporting [`Pumped::Idle`].
    /// Open-loop drivers that pace injections between pumps want this
    /// close to their arrival interval.
    pub fn with_pump_timeout(mut self, timeout: Duration) -> Self {
        self.pump_timeout = timeout;
        self
    }

    /// Replace the link-batching policy.
    pub fn with_batching(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// The simulator subset of this config.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig { seed: self.seed, delay: self.delay, batch: self.batch }
    }
}

/// Outputs carried by one [`Pumped::Event`] without forcing a heap
/// allocation in the common cases: simulator events usually emit zero or
/// one output, and the threaded runtime surfaces exactly one output per
/// event. Iterate it directly (`for o in outputs`) — it is `IntoIterator`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Outputs<O> {
    /// No observable output (pure message handling).
    #[default]
    None,
    /// Exactly one output, held inline.
    One(O),
    /// Two or more outputs from a single event.
    Many(Vec<O>),
}

impl<O> Outputs<O> {
    /// Number of outputs carried.
    pub fn len(&self) -> usize {
        match self {
            Outputs::None => 0,
            Outputs::One(_) => 1,
            Outputs::Many(v) => v.len(),
        }
    }

    /// Whether no outputs are carried.
    pub fn is_empty(&self) -> bool {
        matches!(self, Outputs::None) || matches!(self, Outputs::Many(v) if v.is_empty())
    }

    /// Borrowing iterator over the outputs.
    pub fn iter(&self) -> std::slice::Iter<'_, O> {
        match self {
            Outputs::None => [].iter(),
            Outputs::One(o) => std::slice::from_ref(o).iter(),
            Outputs::Many(v) => v.iter(),
        }
    }

    /// Convert into a `Vec` (allocates only in the `One` case).
    pub fn into_vec(self) -> Vec<O> {
        match self {
            Outputs::None => Vec::new(),
            Outputs::One(o) => vec![o],
            Outputs::Many(v) => v,
        }
    }
}

impl<O> From<Vec<O>> for Outputs<O> {
    fn from(mut v: Vec<O>) -> Self {
        match v.len() {
            0 => Outputs::None,
            1 => Outputs::One(v.pop().expect("len checked")),
            _ => Outputs::Many(v),
        }
    }
}

impl<O> From<O> for Outputs<O> {
    fn from(o: O) -> Self {
        Outputs::One(o)
    }
}

impl<O> IntoIterator for Outputs<O> {
    type Item = O;
    type IntoIter = std::vec::IntoIter<O>;

    fn into_iter(self) -> Self::IntoIter {
        // Vec's iterator for all arities keeps the type simple; the One
        // case allocates only when actually iterated by value, which the
        // hot threaded paths (visit callbacks) avoid.
        self.into_vec().into_iter()
    }
}

impl<'a, O> IntoIterator for &'a Outputs<O> {
    type Item = &'a O;
    type IntoIter = std::slice::Iter<'a, O>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Result of one [`Substrate::pump`] call.
#[derive(Clone, Debug)]
pub enum Pumped<O> {
    /// A process acted; `outputs` may be empty (pure message handling).
    Event {
        /// Virtual time (simulator) or elapsed ticks (threads).
        time: u64,
        /// The process that acted.
        pid: ProcessId,
        /// Observable outputs emitted during the event.
        outputs: Outputs<O>,
    },
    /// No output surfaced for a full `pump_timeout` window: the threaded
    /// pump blocks directly on the shared output channel, so `Idle` means
    /// provably no process emitted an output during the window (though
    /// workers may still be computing or waiting on timers). Never
    /// returned by the simulator.
    Idle,
    /// No event will ever surface again (simulator queue drained, or the
    /// threaded cluster stopped).
    Quiescent,
}

/// A runtime hosting sans-IO automata behind a driver-facing surface.
///
/// The surface is the intersection both runtimes support faithfully;
/// schedule steering (pause/partition) and typed state access remain
/// simulator-only inherent methods, since threads cannot replay schedules
/// or share automaton state.
pub trait Substrate<M, O> {
    /// Which backend this is (for reporting).
    fn backend(&self) -> Backend;

    /// Number of hosted processes.
    fn process_count(&self) -> usize;

    /// Current time: virtual (simulator) or elapsed ticks (threads).
    fn now(&self) -> u64;

    /// Deliver `msg` to `pid` as a command from the environment.
    fn inject(&mut self, pid: ProcessId, msg: M);

    /// Advance: process/collect one event.
    fn pump(&mut self) -> Pumped<O>;

    /// Snapshot of the network counters.
    fn metrics_snapshot(&self) -> NetMetrics;

    /// Execute a transient-fault plan: scramble the listed process states
    /// and inject `gen`-produced garbage messages on the listed channels.
    fn apply_fault(&mut self, plan: &FaultPlan, gen: &mut dyn FnMut(&mut StdRng) -> M);

    /// Crash `pid`: it silently drops all future deliveries.
    fn crash(&mut self, pid: ProcessId);

    /// Restart `pid` with a fresh automaton — crash *recovery* with state
    /// loss. The replacement runs its `on_start`, timers armed by the old
    /// incarnation never fire, and the pid resumes receiving deliveries.
    /// Sound under the paper's transient-fault model: a restarted process
    /// is one whose memory was corrupted to an initial state.
    fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>);

    /// Restart `pid` with a *specific* automaton carrying recovered state —
    /// e.g. one rebuilt from the process's own (possibly damaged) stable
    /// storage. Mechanically identical to [`Substrate::restart`] (same
    /// incarnation bump, timer invalidation, and `on_start`), but the
    /// intent differs: `restart` models reboot-from-zero, `restart_with`
    /// models reboot-from-disk. Provided so callers and both backends share
    /// one spelling for the recovery path.
    fn restart_with(&mut self, pid: ProcessId, recovered: Box<dyn Automaton<M, O>>) {
        self.restart(pid, recovered);
    }

    /// Install (`Some`) or clear (`None`) a [`LinkFault`] on the directed
    /// channel `(from, to)`: per-message drop/duplication probabilities and
    /// an extra delay. FIFO order among surviving messages is preserved on
    /// both backends.
    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>);

    /// Tear the substrate down, *discarding* all pending work: undelivered
    /// messages and unfired timers are dropped, never executed. After
    /// `stop`, `pump` returns [`Pumped::Quiescent`].
    fn stop(&mut self);

    /// Pump until `visit` returns `Some`, the substrate goes quiescent,
    /// `max_idle` consecutive idle pumps accrue, or `max_events` events
    /// were processed. `visit` is called once per output in order; outputs
    /// remaining in an event after it returns `Some` are dropped, matching
    /// the await-one-outcome semantics every driver loop wants.
    fn pump_until<R>(
        &mut self,
        max_events: u64,
        max_idle: u32,
        visit: &mut dyn FnMut(u64, ProcessId, O) -> Option<R>,
    ) -> Option<R>
    where
        Self: Sized,
    {
        let mut events = 0u64;
        let mut idle = 0u32;
        while events < max_events {
            match self.pump() {
                Pumped::Quiescent => return None,
                Pumped::Idle => {
                    idle += 1;
                    if idle >= max_idle {
                        return None;
                    }
                }
                Pumped::Event { time, pid, outputs } => {
                    idle = 0;
                    events += 1;
                    for o in outputs {
                        if let Some(r) = visit(time, pid, o) {
                            return Some(r);
                        }
                    }
                }
            }
        }
        None
    }
}

impl<M, O> Simulation<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// Assemble a simulation hosting `procs` (ids assigned in order).
    pub fn from_procs(procs: Vec<Box<dyn Automaton<M, O>>>, config: &SubstrateConfig) -> Self {
        let mut sim = Simulation::new(config.sim_config());
        for p in procs {
            sim.add_process(p);
        }
        sim
    }
}

impl<M, O> Substrate<M, O> for Simulation<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn process_count(&self) -> usize {
        Simulation::process_count(self)
    }

    fn now(&self) -> u64 {
        Simulation::now(self)
    }

    fn inject(&mut self, pid: ProcessId, msg: M) {
        Simulation::inject(self, pid, msg);
    }

    fn pump(&mut self) -> Pumped<O> {
        match self.step() {
            Some(ev) => {
                Pumped::Event { time: ev.time, pid: ev.pid, outputs: Outputs::from(ev.outputs) }
            }
            None => Pumped::Quiescent,
        }
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.metrics().clone()
    }

    fn apply_fault(&mut self, plan: &FaultPlan, gen: &mut dyn FnMut(&mut StdRng) -> M) {
        Simulation::apply_fault(self, plan, gen);
    }

    fn crash(&mut self, pid: ProcessId) {
        Simulation::crash(self, pid);
    }

    fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>) {
        Simulation::restart(self, pid, auto);
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        Simulation::set_link_fault(self, from, to, fault);
    }

    fn stop(&mut self) {
        // Discard, never execute: stopping must not run protocol work.
        self.halt();
    }
}

/// Runtime-selected substrate: the concrete type a driver stores when the
/// backend is chosen by configuration rather than at compile time.
///
/// The variants differ in size (the simulator carries its scheduler and
/// per-link batching state inline), but drivers hold exactly one of these
/// for a whole run, so the extra bytes in the threaded case don't matter.
#[allow(clippy::large_enum_variant)]
pub enum AnySubstrate<M, O> {
    /// Simulator-backed.
    Sim(Simulation<M, O>),
    /// Thread-backed.
    Threaded(ThreadedCluster<M, O>),
}

impl<M, O> AnySubstrate<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// Spawn `procs` on the requested backend.
    pub fn spawn(
        backend: Backend,
        procs: Vec<Box<dyn Automaton<M, O>>>,
        config: &SubstrateConfig,
    ) -> Self {
        match backend {
            Backend::Sim => AnySubstrate::Sim(Simulation::from_procs(procs, config)),
            Backend::Threaded => AnySubstrate::Threaded(ThreadedCluster::spawn_with(procs, config)),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $sub:ident => $e:expr) => {
        match $self {
            AnySubstrate::Sim($sub) => $e,
            AnySubstrate::Threaded($sub) => $e,
        }
    };
}

impl<M, O> Substrate<M, O> for AnySubstrate<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    fn backend(&self) -> Backend {
        delegate!(self, s => Substrate::<M, O>::backend(s))
    }

    fn process_count(&self) -> usize {
        delegate!(self, s => Substrate::<M, O>::process_count(s))
    }

    fn now(&self) -> u64 {
        delegate!(self, s => Substrate::<M, O>::now(s))
    }

    fn inject(&mut self, pid: ProcessId, msg: M) {
        delegate!(self, s => Substrate::inject(s, pid, msg))
    }

    fn pump(&mut self) -> Pumped<O> {
        delegate!(self, s => Substrate::pump(s))
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        delegate!(self, s => Substrate::<M, O>::metrics_snapshot(s))
    }

    fn apply_fault(&mut self, plan: &FaultPlan, gen: &mut dyn FnMut(&mut StdRng) -> M) {
        delegate!(self, s => Substrate::apply_fault(s, plan, gen))
    }

    fn crash(&mut self, pid: ProcessId) {
        delegate!(self, s => Substrate::<M, O>::crash(s, pid))
    }

    fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>) {
        delegate!(self, s => Substrate::restart(s, pid, auto))
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        delegate!(self, s => Substrate::<M, O>::set_link_fault(s, from, to, fault))
    }

    fn stop(&mut self) {
        delegate!(self, s => Substrate::<M, O>::stop(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{Ctx, ENV};

    /// Counts down by ping-ponging between two processes, then outputs.
    struct PingPong;
    impl Automaton<u32, u32> for PingPong {
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
            if msg == 0 {
                ctx.output(0);
            } else if from != ENV {
                ctx.send(from, msg - 1);
            } else {
                ctx.send(1 - ctx.me, msg - 1);
            }
        }
    }

    fn drive<S: Substrate<u32, u32>>(sub: &mut S) -> Vec<(u64, ProcessId, u32)> {
        sub.inject(0, 10);
        sub.pump_until(100_000, 20, &mut |time, pid, o| Some((time, pid, o))).into_iter().collect()
    }

    #[test]
    fn both_backends_complete_the_countdown() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let procs: Vec<Box<dyn Automaton<u32, u32>>> =
                vec![Box::new(PingPong), Box::new(PingPong)];
            let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(5));
            let got = drive(&mut sub);
            assert_eq!(got.len(), 1, "{backend:?}");
            assert_eq!(got[0].2, 0, "{backend:?}");
            let m = sub.metrics_snapshot();
            assert!(m.messages_delivered >= 11, "{backend:?}: {m:?}");
            sub.stop();
            assert!(matches!(sub.pump(), Pumped::Quiescent), "{backend:?}");
        }
    }

    #[test]
    fn stop_discards_pending_sends() {
        // Regression: Simulation::stop() used to *execute* every pending
        // event to drain the queue, running arbitrary protocol work and
        // mutating metrics. It must discard instead: nothing pending at
        // stop() is ever delivered. (On threads delivery is concurrent, so
        // only the simulator can assert an exact cutoff.)
        let procs: Vec<Box<dyn Automaton<u32, u32>>> = vec![Box::new(PingPong), Box::new(PingPong)];
        let mut sub: Simulation<u32, u32> =
            Simulation::from_procs(procs, &SubstrateConfig::seeded(2));
        sub.inject(0, 500); // a 500-hop countdown is now pending
        Substrate::pump(&mut sub); // deliver just the kick-off
        let delivered_at_stop = sub.metrics_snapshot().messages_delivered;
        Substrate::stop(&mut sub);
        assert!(matches!(Substrate::pump(&mut sub), Pumped::Quiescent));
        assert_eq!(
            sub.metrics_snapshot().messages_delivered,
            delivered_at_stop,
            "stop() must not deliver pending sends"
        );
        assert!(delivered_at_stop < 500, "countdown must not have run to completion");
    }

    #[test]
    fn restart_recovers_on_both_backends() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let procs: Vec<Box<dyn Automaton<u32, u32>>> =
                vec![Box::new(PingPong), Box::new(PingPong)];
            let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(4));
            sub.crash(1);
            sub.inject(0, 6);
            assert!(
                sub.pump_until(10_000, 20, &mut |_, _, o: u32| Some(o)).is_none(),
                "{backend:?}: countdown completed through a crashed peer"
            );
            sub.restart(1, Box::new(PingPong));
            sub.inject(0, 6);
            let got = sub.pump_until(10_000, 200, &mut |_, _, o: u32| Some(o));
            assert_eq!(got, Some(0), "{backend:?}: restarted peer participates");
            sub.stop();
        }
    }

    #[test]
    fn link_faults_cut_and_heal_on_both_backends() {
        for backend in [Backend::Sim, Backend::Threaded] {
            let procs: Vec<Box<dyn Automaton<u32, u32>>> =
                vec![Box::new(PingPong), Box::new(PingPong)];
            let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(6));
            sub.set_link_fault(0, 1, Some(LinkFault::cut()));
            sub.inject(0, 4);
            assert!(
                sub.pump_until(10_000, 20, &mut |_, _, o: u32| Some(o)).is_none(),
                "{backend:?}: countdown crossed a cut link"
            );
            sub.set_link_fault(0, 1, None);
            sub.inject(0, 4);
            let got = sub.pump_until(10_000, 200, &mut |_, _, o: u32| Some(o));
            assert_eq!(got, Some(0), "{backend:?}: healed link flows again");
            sub.stop();
        }
    }

    #[test]
    fn sim_substrate_reports_backend_and_counts() {
        let procs: Vec<Box<dyn Automaton<u32, u32>>> = vec![Box::new(PingPong), Box::new(PingPong)];
        let sub: Simulation<u32, u32> = Simulation::from_procs(procs, &SubstrateConfig::seeded(1));
        assert_eq!(Substrate::<u32, u32>::backend(&sub), Backend::Sim);
        assert_eq!(Substrate::<u32, u32>::process_count(&sub), 2);
    }
}
