//! Real-thread runtime: the processes share one worker thread per core,
//! crossbeam FIFO channels, event-driven end to end.
//!
//! It exists for wall-clock measurements (E15's threaded cells, the
//! `kv-threaded-readheavy` benchmark workload) and to show that the sans-IO
//! automata do not depend on their substrate. Nothing here is
//! deterministic, so correctness assertions belong on the simulator, but
//! the whole [`Substrate`] surface is supported.
//!
//! **Workers.** The cluster runs `W = min(available_parallelism, n)`
//! worker threads, and worker `p mod W` hosts process `p`: it keeps the
//! process's automaton, RNG, incarnation, crashed flag and outgoing link
//! queues, and runs one callback at a time. `W` follows the CPU affinity
//! mask, so a run pinned to one core hosts every process on one worker.
//! A panicking automaton unwinds its worker and so ends every process that
//! worker hosts; honest automata never panic.
//!
//! The runtime adds three queues to the automata, and every wait is a
//! blocking receive on one of them:
//!
//! * **Inboxes.** Each worker blocks in `recv()` on its own unbounded
//!   channel. Deliveries, controls and timer firings all arrive there,
//!   each naming the process it is for, so the worker computes no deadline
//!   and never wakes without work. Every frame goes through its
//!   destination's inbox, a co-hosted sender's too (that send wakes
//!   nobody), and a channel delivers each producer's messages in send
//!   order: the per-pair FIFO the protocol assumes.
//! * **One clock.** The cluster's [`TimerWheel`] holds every deadline —
//!   timers, batch flushes, fault-delayed frames — as an action that sends
//!   one `Ctl` into an inbox, and its `now_tick` is the cluster's time.
//!   A firing carries the incarnation that armed it, so one armed before a
//!   restart reaches no automaton.
//! * **One output queue.** Workers send `(time, pid, output)` into one
//!   channel and `pump` waits on it with `recv_timeout`, so
//!   [`Pumped::Idle`] means no output for the whole window. Only workers
//!   hold its senders: it disconnects when the last one exits, `pump` then
//!   answers [`Pumped::Quiescent`], and `stop` waits for exactly that,
//!   bounded by `JOIN_TIMEOUT`.
//!
//! Every frame, a worker's or a `FaultPlan`'s garbage, leaves through
//! `Wire::ship`: the link-fault table decides its fate on the sender's
//! side, and a delayed frame becomes a wheel entry, so only its link waits.
//! What is counted is [`crate::link::Tally`]'s rule, the simulator's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::Frame;
use crate::corruption::FaultPlan;
use crate::link::{Counter, Link, Outbound, Sent, Tally};
use crate::metrics::NetMetrics;
use crate::nemesis::LinkFault;
use crate::process::{Automaton, Buffers, Ctx, ProcessId, ENV};
use crate::substrate::{Backend, Outputs, Pumped, Substrate, SubstrateConfig};
use crate::timer_wheel::{TimerWheel, TimerWheelThread};

/// Bound on waiting for worker threads to exit during stop/drop.
const JOIN_TIMEOUT: Duration = Duration::from_secs(5);

/// One inbox message; all but `Stop` name the process they are for.
enum Ctl<M, O> {
    /// One wire frame from `from`'s side of the directed link `(from, to)`.
    Frame {
        from: ProcessId,
        to: ProcessId,
        frame: Frame<M>,
    },
    /// A timer firing routed back from the wheel; `incarnation` tags the
    /// process lifetime that armed it so stale firings die on receipt.
    Timer {
        pid: ProcessId,
        id: u64,
        incarnation: u64,
    },
    /// Tick-watermark flush of the process's own pending link batches,
    /// routed back from the wheel (batching only).
    FlushLinks(ProcessId),
    Corrupt(ProcessId),
    Crash(ProcessId),
    Restart(ProcessId, Box<dyn Automaton<M, O>>),
    /// Ends the worker (sent once to each).
    Stop,
}

/// One output on its way to `pump`: `(time, pid, output)`.
type Output<O> = (u64, ProcessId, O);

/// What the link-fault table decided for one send.
enum SendPlan {
    /// Deliver now (possibly twice).
    Direct { dup: bool },
    /// The fault ate the message.
    Dropped,
    /// Hand to the timer wheel: deliver at tick `at` (and, when
    /// duplicated, again at `dup_at`).
    Defer { at: u64, dup_at: Option<u64> },
}

/// Per-directed-link fault state. As long as `deferred_pending > 0`,
/// *every* later send on the link is deferred behind the link's last slot
/// (even a fault-free one after the fault was cleared), because a direct
/// send would overtake the queued ones.
#[derive(Default)]
struct LinkState {
    link: Link,
    deferred_pending: usize,
}

/// Shared per-directed-link fault table. The `AtomicBool` fast path keeps
/// the fault-free hot loop lock-free: workers only take the mutex while at
/// least one fault is installed or a deferred delivery is still in flight.
#[derive(Default)]
struct LinkFaults {
    any_active: AtomicBool,
    map: Mutex<HashMap<(ProcessId, ProcessId), LinkState>>,
}

impl LinkFaults {
    /// Change `(from, to)`'s state, then forget every link with neither a
    /// fault nor a deferred delivery and republish whether any is left.
    fn update(&self, from: ProcessId, to: ProcessId, change: impl FnOnce(&mut LinkState)) {
        if let Ok(mut m) = self.map.lock() {
            change(m.entry((from, to)).or_default());
            m.retain(|_, st| st.link.fault.is_some() || st.deferred_pending > 0);
            self.any_active.store(!m.is_empty(), Ordering::Release);
        }
    }

    fn set(&self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.update(from, to, |st| st.link.fault = fault);
    }

    /// Decide the fate of one send on `(from, to)` at tick `now`.
    /// Deferred sends reserve their delivery slots here, under the lock,
    /// so concurrent senders on the same link serialize their clamps.
    fn plan(&self, from: ProcessId, to: ProcessId, now: u64, rng: &mut StdRng) -> SendPlan {
        let mut map =
            self.any_active.load(Ordering::Acquire).then(|| self.map.lock().ok()).flatten();
        let Some(st) = map.as_mut().and_then(|m| m.get_mut(&(from, to))) else {
            return SendPlan::Direct { dup: false };
        };
        let Some(pass) = st.link.roll(rng) else {
            return SendPlan::Dropped;
        };
        if pass.extra_delay == 0 && st.deferred_pending == 0 {
            return SendPlan::Direct { dup: pass.dup };
        }
        let (at, dup_at) = st.link.reserve(now + pass.extra_delay, pass.dup);
        st.deferred_pending += 1 + usize::from(dup_at.is_some());
        SendPlan::Defer { at, dup_at }
    }

    /// One deferred delivery on `(from, to)` left the wheel (called by the
    /// wheel thread *after* the message is in the destination inbox, so a
    /// sender observing `deferred_pending == 0` cannot overtake it).
    fn deferred_done(&self, from: ProcessId, to: ProcessId) {
        self.update(from, to, |st| st.deferred_pending = st.deferred_pending.saturating_sub(1));
    }
}

/// The six counters as relaxed atomics shared by all workers, indexed by
/// `Counter as usize`.
#[derive(Default)]
struct SharedMetrics([AtomicU64; 6]);

impl Tally for Arc<SharedMetrics> {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

impl SharedMetrics {
    fn snapshot(&self) -> NetMetrics {
        let mut m = NetMetrics::default();
        for c in Counter::ALL {
            m.add(c, self.0[c as usize].load(Ordering::Relaxed));
        }
        m
    }
}

/// One thread's handle on the cluster's sending side: the inboxes, the
/// link-fault table, the counters and the wheel are shared by every
/// worker and the cluster handle, `wake_buf` is the thread's own. Worker
/// sends and a `FaultPlan`'s garbage both leave through [`Wire::ship`].
struct Wire<M, O> {
    /// One inbox per worker; process `p` lives on worker `p % inboxes.len()`.
    inboxes: Vec<Sender<Ctl<M, O>>>,
    /// How many processes the cluster runs.
    procs: usize,
    links: Arc<LinkFaults>,
    metrics: Arc<SharedMetrics>,
    wheel: TimerWheel,
    /// Workers with a parked receiver awaiting a wake once the current
    /// burst is published (reused across bursts to avoid allocation).
    wake_buf: Vec<usize>,
}

impl<M: Clone + Send + 'static, O: Send + 'static> Wire<M, O> {
    /// The inbox of the worker hosting `pid`.
    fn inbox(&self, pid: ProcessId) -> &Sender<Ctl<M, O>> {
        &self.inboxes[pid % self.inboxes.len()]
    }

    /// Ship one wire frame on `(from, to)`, as its link's fault decides.
    /// Quiet sends: a whole burst is published first and each parked
    /// worker is woken once by [`Wire::wake_parked`], so a woken consumer
    /// cannot preempt the sender while later frames of the burst are still
    /// unsent. A frame to a co-hosted process finds its worker running,
    /// so it wakes nobody.
    fn ship(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        frame: Frame<M>,
        now: u64,
        rng: &mut StdRng,
    ) {
        match self.links.plan(from, to, now, rng) {
            SendPlan::Direct { dup } => {
                let host = to % self.inboxes.len();
                if dup {
                    let dup = Ctl::Frame { from, to, frame: frame.clone() };
                    let _ = self.inboxes[host].send_quiet(dup);
                }
                if let Ok(true) = self.inboxes[host].send_quiet(Ctl::Frame { from, to, frame }) {
                    if !self.wake_buf.contains(&host) {
                        self.wake_buf.push(host);
                    }
                }
            }
            SendPlan::Dropped => self.metrics.dropped(frame.len()),
            SendPlan::Defer { at, dup_at } => {
                // Deferred delivery through the wheel: only this link
                // waits; the sender moves straight on to its other
                // destinations. The wheel fires in (tick, registration)
                // order and each link's slots are strictly increasing,
                // so per-link FIFO survives the detour.
                let defer = |at: u64, frame: Frame<M>| {
                    let tx = self.inbox(to).clone();
                    let links = Arc::clone(&self.links);
                    self.wheel.register(at, move || {
                        let _ = tx.send(Ctl::Frame { from, to, frame });
                        links.deferred_done(from, to);
                    });
                };
                if let Some(at2) = dup_at {
                    defer(at2, frame.clone());
                }
                defer(at, frame);
            }
        }
    }

    /// Wake every worker whose receiver was parked when [`Wire::ship`]
    /// published to it.
    fn wake_parked(&mut self) {
        for host in self.wake_buf.drain(..) {
            self.inboxes[host].wake();
        }
    }

    /// Put `ctl` into the inbox of `pid`'s worker now.
    fn post(&self, pid: ProcessId, ctl: Ctl<M, O>) {
        let _ = self.inbox(pid).send(ctl);
    }

    /// Have the wheel put `ctl` into the inbox of `pid`'s worker at tick
    /// `at`.
    fn arm(&self, pid: ProcessId, at: u64, ctl: Ctl<M, O>) {
        let tx = self.inbox(pid).clone();
        self.wheel.register(at, move || {
            let _ = tx.send(ctl);
        });
    }
}

/// What a worker keeps for each process it hosts.
struct Hosted<M, O> {
    auto: Box<dyn Automaton<M, O>>,
    rng: StdRng,
    /// Bumped on restart; `Ctl::Timer` firings from older incarnations
    /// reach no automaton (the simulator's incarnation rule).
    incarnation: u64,
    /// Armed timers stay in the wheel while crashed; their firings are
    /// counted and discarded on receipt (and by incarnation after a
    /// restart), as on the simulator.
    crashed: bool,
    /// The process's pending outgoing link queues; while any message
    /// waits there a `FlushLinks` wheel entry is outstanding.
    outbound: Outbound<M>,
}

/// One worker thread: the processes it hosts, its inbox, and its handle
/// on the sending side.
struct Worker<M, O> {
    /// Process `pid` is `hosted[pid / W]` for `W` workers.
    hosted: Vec<Hosted<M, O>>,
    rx: Receiver<Ctl<M, O>>,
    wire: Wire<M, O>,
    out: Sender<Output<O>>,
    /// Effect buffers lent to every callback's context.
    bufs: Buffers<M, O>,
}

impl<M, O> Worker<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Send + 'static,
{
    fn hosted(&mut self, pid: ProcessId) -> &mut Hosted<M, O> {
        &mut self.hosted[pid / self.wire.inboxes.len()]
    }

    /// The loop of worker `index`. Returning drops `out`, this worker's
    /// sender on the output channel; a panicking automaton drops it while
    /// unwinding, ending every process here.
    fn run(mut self, index: usize) {
        for pid in (index..self.wire.procs).step_by(self.wire.inboxes.len()) {
            self.dispatch(pid, |auto, ctx| auto.on_start(ctx));
        }

        // The whole loop is one blocking recv: deliveries, controls, and
        // timer firings all arrive as inbox messages, so the worker never
        // computes a deadline and never wakes without work.
        loop {
            match self.rx.recv() {
                Err(_) | Ok(Ctl::Stop) => return,
                Ok(Ctl::Crash(pid)) => self.hosted(pid).crashed = true,
                Ok(Ctl::Corrupt(pid)) => {
                    let p = self.hosted(pid);
                    p.auto.corrupt(&mut p.rng);
                }
                Ok(Ctl::Restart(pid, auto)) => {
                    // Crash recovery with state loss: fresh automaton, new
                    // incarnation (old firings die on receipt), inbox and
                    // worker reused.
                    let p = self.hosted(pid);
                    p.auto = auto;
                    p.crashed = false;
                    p.incarnation += 1;
                    self.dispatch(pid, |auto, ctx| auto.on_start(ctx));
                }
                Ok(Ctl::Timer { pid, id, incarnation }) => {
                    self.wire.metrics.event();
                    let p = self.hosted(pid);
                    if !p.crashed && incarnation == p.incarnation {
                        self.dispatch(pid, |auto, ctx| auto.on_timer(id, ctx));
                    }
                }
                Ok(Ctl::FlushLinks(pid)) => {
                    // Tick watermark: ship every pending link queue. Pending
                    // batches are messages already in the channel, so they
                    // flush even while this process is crashed — a crashed
                    // *destination* drops them on receipt, as usual.
                    let now = self.wire.wheel.now_tick();
                    let p = &mut self.hosted[pid / self.wire.inboxes.len()];
                    for (from, to, frame) in p.outbound.flush(&mut self.wire.metrics) {
                        self.wire.ship(from, to, frame, now, &mut p.rng);
                    }
                    self.wire.wake_parked();
                }
                Ok(Ctl::Frame { from, to, frame }) => {
                    let live = !self.hosted(to).crashed;
                    self.wire.metrics.arrived(&frame, live);
                    if live {
                        self.dispatch(to, |auto, ctx| frame.apply(from, auto, ctx));
                    }
                }
            }
        }
    }

    /// Run one callback of `pid` now, then flush its effects to
    /// peers/outputs/timers.
    fn dispatch(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut dyn Automaton<M, O>, &mut Ctx<'_, M, O>),
    ) {
        let now = self.wire.wheel.now_tick();
        let p = &mut self.hosted[pid / self.wire.inboxes.len()];
        let mut ctx = Ctx::lend(pid, now, &mut p.rng, &mut self.bufs);
        f(&mut *p.auto, &mut ctx);
        ctx.give_back(&mut self.bufs);
        for (to, msg) in self.bufs.outbox.drain(..) {
            if to >= self.wire.procs {
                self.wire.metrics.dropped(1);
                continue;
            }
            match p.outbound.send(pid, to, msg, &mut self.wire.metrics) {
                Sent::Ship(frame) => self.wire.ship(pid, to, frame, now, &mut p.rng),
                Sent::Queued { arm_flush: true } => {
                    let at = now + p.outbound.policy().flush_ticks;
                    self.wire.arm(pid, at, Ctl::FlushLinks(pid));
                }
                Sent::Queued { arm_flush: false } => {}
            }
        }
        self.wire.wake_parked();
        for o in self.bufs.outputs.drain(..) {
            let _ = self.out.send((now, pid, o));
        }
        for (delay, id) in self.bufs.timers.drain(..) {
            // Same arming rule as the simulator: fire at now + max(delay, 1).
            let timer = Ctl::Timer { pid, id, incarnation: p.incarnation };
            self.wire.arm(pid, now + delay.max(1), timer);
        }
    }
}

/// A running cluster of automata on worker threads.
pub struct ThreadedCluster<M, O> {
    /// The cluster's own handle on the shared sending side.
    wire: Wire<M, O>,
    outputs: Receiver<Output<O>>,
    handles: Vec<JoinHandle<()>>,
    wheel: TimerWheelThread,
    /// Cluster-side RNG for fault-plan garbage and its link rolls.
    rng: StdRng,
    pump_timeout: Duration,
    stopped: bool,
}

impl<M, O> ThreadedCluster<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Send + 'static,
{
    /// Spawn one worker per core, at most one per automaton;
    /// `config.seed` derives each process's RNG.
    pub fn spawn_with(procs: Vec<Box<dyn Automaton<M, O>>>, config: &SubstrateConfig) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = cores.min(procs.len());
        Self::spawn_on(procs, config, workers)
    }

    /// [`ThreadedCluster::spawn_with`] on `workers` worker threads, at
    /// least one unless `procs` is empty.
    fn spawn_on(
        procs: Vec<Box<dyn Automaton<M, O>>>,
        config: &SubstrateConfig,
        workers: usize,
    ) -> Self {
        let (inboxes, inbox_rx): (Vec<_>, Vec<_>) = (0..workers).map(|_| unbounded()).unzip();
        // The cluster keeps no sender of its own: the channel disconnects
        // when the last worker is gone.
        let (out, outputs) = unbounded();
        let metrics = Arc::new(SharedMetrics::default());
        let links = Arc::new(LinkFaults::default());
        let wheel = TimerWheel::spawn(Instant::now(), config.tick);
        let wire = || Wire {
            inboxes: inboxes.clone(),
            procs: procs.len(),
            links: Arc::clone(&links),
            metrics: Arc::clone(&metrics),
            wheel: wheel.handle(),
            wake_buf: Vec::new(),
        };
        let mut hosts: Vec<Worker<M, O>> = inbox_rx
            .into_iter()
            .map(|rx| Worker {
                hosted: Vec::new(),
                rx,
                wire: wire(),
                out: out.clone(),
                bufs: Buffers::default(),
            })
            .collect();
        let cluster_wire = wire();
        for (pid, auto) in procs.into_iter().enumerate() {
            hosts[pid % workers].hosted.push(Hosted {
                auto,
                rng: StdRng::seed_from_u64(
                    config.seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                incarnation: 0,
                crashed: false,
                outbound: Outbound::new(config.batch),
            });
        }
        let handles = hosts
            .into_iter()
            .enumerate()
            .map(|(index, worker)| std::thread::spawn(move || worker.run(index)))
            .collect();

        Self {
            wire: cluster_wire,
            outputs,
            handles,
            wheel,
            rng: StdRng::seed_from_u64(config.seed ^ 0xD1B5_4A32_D192_ED03),
            pump_timeout: config.pump_timeout,
            stopped: false,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.wire.procs
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.wire.procs == 0
    }

    /// Elapsed ticks since spawn (the cluster-wide clock).
    pub fn ticks(&self) -> u64 {
        self.wire.wheel.now_tick()
    }

    /// Send a command to `pid` as the environment (`&self`: user threads
    /// may share the cluster, hence the tally through its own handle).
    fn send(&self, pid: ProcessId, msg: M) {
        let frame = Outbound::solo(msg, &mut Arc::clone(&self.wire.metrics));
        self.wire.post(pid, Ctl::Frame { from: ENV, to: pid, frame });
    }
}

impl<M, O> ThreadedCluster<M, O> {
    fn stop_and_join(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for tx in &self.wire.inboxes {
            let _ = tx.send(Ctl::Stop);
        }
        // Halt the wheel first: pending deferred deliveries and timer
        // firings are discarded (dropping their inbox-sender clones), per
        // the stop-discards-pending-work contract.
        self.wheel.stop();
        // Only workers hold the output channel's senders, so its
        // disconnect is the moment the last one exited; outputs still
        // queued are discarded on the way.
        let deadline = Instant::now() + JOIN_TIMEOUT;
        let all = loop {
            if let Err(e) = self.outputs.recv_deadline(deadline) {
                break e == RecvTimeoutError::Disconnected;
            }
        };
        for h in self.handles.drain(..) {
            if all || h.is_finished() {
                let _ = h.join();
            }
            // Past the deadline a hung worker is abandoned (detached): its
            // inbox senders die with `self`, so it exits on its next recv.
        }
    }
}

impl<M, O> Drop for ThreadedCluster<M, O> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl<M, O> Substrate<M, O> for ThreadedCluster<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Clone + std::fmt::Debug + Send + 'static,
{
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn process_count(&self) -> usize {
        self.len()
    }

    fn now(&self) -> u64 {
        self.ticks()
    }

    fn inject(&mut self, pid: ProcessId, msg: M) {
        ThreadedCluster::send(self, pid, msg);
    }

    /// One blocking receive on the output channel, up to `pump_timeout`.
    /// [`Pumped::Idle`] therefore certifies that no process emitted an
    /// output during the window, and [`Pumped::Quiescent`] that every
    /// worker has exited (or the cluster was stopped).
    fn pump(&mut self) -> Pumped<O> {
        if self.stopped {
            return Pumped::Quiescent;
        }
        match self.outputs.recv_timeout(self.pump_timeout) {
            Ok((time, pid, o)) => Pumped::Event { time, pid, outputs: Outputs::One(o) },
            Err(RecvTimeoutError::Timeout) => Pumped::Idle,
            Err(RecvTimeoutError::Disconnected) => Pumped::Quiescent,
        }
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.wire.metrics.snapshot()
    }

    /// Garbage already in transit on `(from, to)`: frames with a spoofed
    /// sender that nobody sent, shipped on that link like any other frame.
    fn apply_fault(&mut self, plan: &FaultPlan, gen: &mut dyn FnMut(&mut StdRng) -> M) {
        for &pid in &plan.corrupt_processes {
            if pid < self.len() {
                self.wire.post(pid, Ctl::Corrupt(pid));
            }
        }
        let now = self.ticks();
        for &(from, to) in &plan.garbage_channels {
            if to >= self.len() {
                continue;
            }
            for _ in 0..plan.garbage_per_channel {
                let frame = Frame::One(gen(&mut self.rng));
                self.wire.ship(from, to, frame, now, &mut self.rng);
            }
        }
        self.wire.wake_parked();
    }

    fn crash(&mut self, pid: ProcessId) {
        self.wire.post(pid, Ctl::Crash(pid));
    }

    /// The control message lands FIFO after everything already in `pid`'s
    /// inbox, so the new incarnation sees only traffic sent after the
    /// restart was issued.
    fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>) {
        self.wire.post(pid, Ctl::Restart(pid, auto));
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.wire.links.set(from, to, fault);
    }

    fn stop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default)]
    struct Ping(u32);

    struct Doubler;
    impl Automaton<Ping, u32> for Doubler {
        fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
            if from == ENV {
                ctx.send(1, msg); // forward to the worker
            } else {
                ctx.output(msg.0); // result came back
            }
        }
    }

    struct Worker2;
    impl Automaton<Ping, u32> for Worker2 {
        fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
            ctx.send(from, Ping(msg.0 * 2));
        }
    }

    fn spawn<O: Clone + std::fmt::Debug + Send + 'static>(
        procs: Vec<Box<dyn Automaton<Ping, O>>>,
        seed: u64,
    ) -> ThreadedCluster<Ping, O> {
        ThreadedCluster::spawn_with(procs, &SubstrateConfig::seeded(seed))
    }

    /// The next output of any process, giving up after `idle_pumps`
    /// consecutive 100 ms pump windows without one.
    fn next_output<O: Clone + std::fmt::Debug + Send + 'static>(
        cluster: &mut ThreadedCluster<Ping, O>,
        idle_pumps: u32,
    ) -> Option<O> {
        cluster.pump_until(u64::MAX, idle_pumps, &mut |_, _, out| Some(out))
    }

    /// Send a command and wait for the next output.
    fn invoke(cluster: &mut ThreadedCluster<Ping, u32>, msg: Ping, idle_pumps: u32) -> Option<u32> {
        cluster.inject(0, msg);
        next_output(cluster, idle_pumps)
    }

    #[test]
    fn round_trip_through_threads() {
        let mut cluster = spawn(vec![Box::new(Doubler), Box::new(Worker2)], 1);
        assert_eq!(invoke(&mut cluster, Ping(21), 50), Some(42));
        cluster.stop();
    }

    #[test]
    fn fifo_per_producer() {
        struct Seq(Vec<u32>);
        impl Automaton<Ping, Vec<u32>> for Seq {
            fn on_message(
                &mut self,
                _from: ProcessId,
                msg: Ping,
                ctx: &mut Ctx<'_, Ping, Vec<u32>>,
            ) {
                self.0.push(msg.0);
                if self.0.len() == 100 {
                    ctx.output(self.0.clone());
                }
            }
        }
        let mut cluster = spawn(vec![Box::new(Seq(Vec::new()))], 2);
        for i in 0..100 {
            cluster.inject(0, Ping(i));
        }
        let got = next_output(&mut cluster, 50).unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        cluster.stop();
    }

    #[test]
    fn stop_joins_cleanly() {
        let mut cluster: ThreadedCluster<Ping, u32> =
            spawn(vec![Box::new(Worker2), Box::new(Worker2)], 3);
        cluster.stop();
    }

    #[test]
    fn drop_joins_without_explicit_stop() {
        let mut cluster = spawn(vec![Box::new(Doubler), Box::new(Worker2)], 7);
        let _ = invoke(&mut cluster, Ping(1), 50);
        drop(cluster); // must terminate promptly, not hang
    }

    #[test]
    fn a_cluster_whose_workers_all_exited_pumps_quiescent() {
        /// Panics on the poison payload, as a buggy automaton would.
        struct Brittle;
        impl Automaton<Ping, u32> for Brittle {
            fn on_message(&mut self, _: ProcessId, msg: Ping, _: &mut Ctx<'_, Ping, u32>) {
                assert_ne!(msg.0, 666, "poisoned");
            }
        }
        let mut cluster = spawn(vec![Box::new(Brittle), Box::new(Brittle)], 13);
        cluster.inject(0, Ping(666));
        cluster.inject(1, Ping(666));
        // No output can surface again once both threads are gone, and
        // pump must say so instead of reporting `Idle` forever.
        let first_answer = (0..50).map(|_| cluster.pump()).find(|p| !matches!(p, Pumped::Idle));
        assert!(matches!(first_answer, Some(Pumped::Quiescent)), "{first_answer:?}");
        cluster.stop();
    }

    #[test]
    fn parallel_clients_all_served() {
        // Many environment commands from multiple user threads; every one
        // gets a response. Exercises MPMC sends into one inbox.
        let mut cluster = spawn(vec![Box::new(Doubler), Box::new(Worker2)], 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..25 {
                        cluster.send(0, Ping(i));
                    }
                });
            }
        });
        let mut got = 0;
        while next_output(&mut cluster, 5).is_some() {
            got += 1;
        }
        assert_eq!(got, 100);
        cluster.stop();
    }

    #[test]
    fn timers_fire_on_threads() {
        /// Emits its tick count each time its timer fires, re-arming twice.
        struct TimerAuto {
            fired: u32,
        }
        impl Automaton<Ping, u32> for TimerAuto {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.set_timer(5, 77);
            }
            fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, Ping, u32>) {
                assert_eq!(id, 77);
                self.fired += 1;
                ctx.output(self.fired);
                if self.fired < 3 {
                    ctx.set_timer(5, 77);
                }
            }
            fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Ctx<'_, Ping, u32>) {}
        }
        let mut cluster = spawn(vec![Box::new(TimerAuto { fired: 0 })], 5);
        for expect in 1..=3u32 {
            assert_eq!(next_output(&mut cluster, 50), Some(expect));
        }
        cluster.stop();
    }

    #[test]
    fn restart_invalidates_prior_incarnation_timers() {
        /// Arms a long timer on start, outputs `gen` when it fires.
        struct Gen(u32);
        impl Automaton<Ping, u32> for Gen {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.set_timer(10, u64::from(self.0));
            }
            fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.output(id as u32);
            }
            fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Ctx<'_, Ping, u32>) {}
        }
        let mut cluster = spawn(vec![Box::new(Gen(1))], 11);
        // Restart before the first incarnation's timer fires; only the
        // second incarnation's firing may surface.
        cluster.restart(0, Box::new(Gen(2)));
        let got = next_output(&mut cluster, 50);
        assert_eq!(got, Some(2), "stale-incarnation timer must not fire");
        assert_eq!(next_output(&mut cluster, 1), None);
        cluster.stop();
    }

    #[test]
    fn metrics_count_sends_and_deliveries() {
        let mut cluster = spawn(vec![Box::new(Doubler), Box::new(Worker2)], 6);
        for _ in 0..10 {
            let _ = invoke(&mut cluster, Ping(2), 50);
        }
        let m = cluster.metrics_snapshot();
        // 10 env commands + 10 forwards + 10 replies.
        assert_eq!(m.messages_sent, 30, "{m:?}");
        assert_eq!(m.messages_delivered, 30, "{m:?}");
        cluster.stop();
    }

    #[test]
    fn shared_counters_snapshot_what_the_plain_ones_hold() {
        let (mut shared, mut plain) = (Arc::new(SharedMetrics::default()), NetMetrics::default());
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            shared.add(c, i as u64 + 1);
            plain.add(c, i as u64 + 1);
        }
        assert_eq!(shared.snapshot(), plain);
        assert_eq!(plain.frames_delivered, 6, "every counter has a slot of its own");
    }

    #[test]
    fn crash_drops_subsequent_deliveries() {
        let mut cluster = spawn(vec![Box::new(Doubler), Box::new(Worker2)], 8);
        Substrate::crash(&mut cluster, 1);
        // Give the crash control a moment to land ahead of traffic.
        std::thread::sleep(Duration::from_millis(20));
        let out = invoke(&mut cluster, Ping(3), 3);
        assert_eq!(out, None, "worker crashed, reply must never come");
        let m = cluster.metrics_snapshot();
        assert!(m.messages_dropped >= 1, "{m:?}");
        cluster.stop();
    }

    #[test]
    fn corruption_reaches_the_automaton() {
        struct Corruptible {
            poisoned: bool,
        }
        impl Automaton<Ping, u32> for Corruptible {
            fn on_message(&mut self, _: ProcessId, _: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.output(if self.poisoned { 1 } else { 0 });
            }
            fn corrupt(&mut self, _rng: &mut StdRng) {
                self.poisoned = true;
            }
        }
        let mut cluster = spawn(vec![Box::new(Corruptible { poisoned: false })], 9);
        let plan = FaultPlan {
            corrupt_processes: vec![0],
            garbage_channels: vec![],
            garbage_per_channel: 0,
        };
        Substrate::apply_fault(&mut cluster, &plan, &mut |_rng| Ping(0));
        let out = invoke(&mut cluster, Ping(0), 50);
        assert_eq!(out, Some(1), "corrupt control must precede the probe (FIFO)");
        cluster.stop();
    }

    #[test]
    fn delayed_link_does_not_stall_other_links() {
        /// Fans one env command out to both peers; peers echo back.
        struct Fan;
        impl Automaton<Ping, u32> for Fan {
            fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
                if from == ENV {
                    ctx.send(1, msg.clone());
                    ctx.send(2, msg);
                } else {
                    ctx.output(from as u32);
                }
            }
        }
        struct Echo;
        impl Automaton<Ping, u32> for Echo {
            fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.send(from, msg);
            }
        }
        let mut cluster: ThreadedCluster<Ping, u32> = ThreadedCluster::spawn_with(
            vec![Box::new(Fan), Box::new(Echo), Box::new(Echo)],
            &SubstrateConfig::seeded(10).with_tick(Duration::from_millis(2)),
        );
        // 500 ticks × 2 ms = a full second of delay on link 0→1 only.
        cluster.set_link_fault(0, 1, Some(LinkFault::flaky(0.0, 0.0, 500)));
        let t0 = Instant::now();
        cluster.inject(0, Ping(7));
        // The 0→2 echo must come back promptly even though 0→1 is stalled:
        // the old runtime slept the whole worker for the delay, so this
        // reply used to take the full second too.
        let first = next_output(&mut cluster, 50);
        let elapsed = t0.elapsed();
        assert_eq!(first, Some(2), "fast link's reply must arrive first");
        assert!(
            elapsed < Duration::from_millis(500),
            "delayed 0→1 link stalled the 0→2 send ({elapsed:?})"
        );
        // The delayed link still delivers (later), preserving the reply.
        let second = next_output(&mut cluster, 100);
        assert_eq!(second, Some(1), "delayed link must still deliver");
        cluster.stop();
    }

    #[test]
    fn delayed_link_preserves_per_link_fifo() {
        /// Collects the payload order seen by the destination.
        struct Collect(Vec<u32>);
        impl Automaton<Ping, Vec<u32>> for Collect {
            fn on_message(
                &mut self,
                _from: ProcessId,
                msg: Ping,
                ctx: &mut Ctx<'_, Ping, Vec<u32>>,
            ) {
                self.0.push(msg.0);
                if self.0.len() == 30 {
                    ctx.output(self.0.clone());
                }
            }
        }
        /// Forwards env payloads to pid 1.
        struct Fwd;
        impl Automaton<Ping, Vec<u32>> for Fwd {
            fn on_message(
                &mut self,
                from: ProcessId,
                msg: Ping,
                ctx: &mut Ctx<'_, Ping, Vec<u32>>,
            ) {
                if from == ENV {
                    ctx.send(1, msg);
                }
            }
        }
        let mut cluster: ThreadedCluster<Ping, Vec<u32>> = ThreadedCluster::spawn_with(
            vec![Box::new(Fwd), Box::new(Collect(Vec::new()))],
            &SubstrateConfig::seeded(12).with_tick(Duration::from_micros(200)),
        );
        // First 10 sends race ahead fault-free, then a delayed window, then
        // the fault is cleared mid-stream: the healed sends must still
        // queue behind the deferred ones (the FIFO clamp), not overtake.
        for i in 0..10 {
            cluster.inject(0, Ping(i));
        }
        std::thread::sleep(Duration::from_millis(20));
        cluster.set_link_fault(0, 1, Some(LinkFault::flaky(0.0, 0.0, 40)));
        for i in 10..20 {
            cluster.inject(0, Ping(i));
        }
        std::thread::sleep(Duration::from_millis(2));
        cluster.set_link_fault(0, 1, None);
        for i in 20..30 {
            cluster.inject(0, Ping(i));
        }
        let got = next_output(&mut cluster, 100).expect("all 30 delivered");
        assert_eq!(got, (0..30).collect::<Vec<u32>>(), "per-link FIFO violated");
        cluster.stop();
    }

    // --- The pool: many processes per worker -----------------------------

    /// Outputs every payload it receives.
    struct Say;
    impl Automaton<Ping, u32> for Say {
        fn on_message(&mut self, _: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
            ctx.output(msg.0);
        }
    }

    #[test]
    fn one_worker_per_core_at_most_one_per_process() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n in [1, 2, 3, 8] {
            let procs: Vec<Box<dyn Automaton<Ping, u32>>> =
                (0..n).map(|_| Box::new(Say) as _).collect();
            let mut cluster = spawn(procs, 14);
            assert_eq!((cluster.len(), cluster.handles.len()), (n, cores.min(n)));
            cluster.stop();
        }
    }

    #[test]
    fn one_worker_serves_every_process_and_stops_in_time() {
        let procs: Vec<Box<dyn Automaton<Ping, u32>>> =
            (0..5).map(|_| Box::new(Say) as _).collect();
        let mut cluster = ThreadedCluster::spawn_on(procs, &SubstrateConfig::seeded(15), 1);
        for pid in 0..5 {
            cluster.inject(pid, Ping(pid as u32));
        }
        let mut got: Vec<u32> = (0..5).filter_map(|_| next_output(&mut cluster, 50)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "every co-hosted process answers");
        let t0 = Instant::now();
        cluster.stop();
        assert!(t0.elapsed() < JOIN_TIMEOUT, "stop waited out its bound: {:?}", t0.elapsed());
        assert!(cluster.handles.is_empty());
    }

    /// Per-link FIFO between co-hosted processes 0 and 2 (one worker, or
    /// worker 0 of two) while a delayed fault on 0→2 is installed, routes
    /// frames through the wheel, and is cleared with sends still following.
    /// Process 4, co-hosted too, holds the worker until the wheel has put
    /// every deferred frame in the inbox and the link reads clear, so 0's
    /// next sends go direct while those frames wait unprocessed: a send
    /// that bypassed the inbox would overtake them.
    #[test]
    fn co_hosted_link_keeps_fifo_across_a_cleared_delay() {
        /// Forwards env payloads to pid 2 and reports each one it sent.
        struct Fwd;
        impl Automaton<Ping, Vec<u32>> for Fwd {
            fn on_message(&mut self, _: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, Vec<u32>>) {
                ctx.output(vec![msg.0]);
                ctx.send(2, msg);
            }
        }
        /// Reports the payload order once all 30 arrived.
        struct Collect(Vec<u32>);
        impl Automaton<Ping, Vec<u32>> for Collect {
            fn on_message(&mut self, _: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, Vec<u32>>) {
                self.0.push(msg.0);
                if self.0.len() == 30 {
                    ctx.output(self.0.clone());
                }
            }
        }
        /// Blocks its worker on a message until the test opens the gate.
        struct Gate(std::sync::mpsc::Receiver<()>);
        impl Automaton<Ping, Vec<u32>> for Gate {
            fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Ctx<'_, Ping, Vec<u32>>) {
                let _ = self.0.recv();
            }
        }
        struct Idle;
        impl Automaton<Ping, Vec<u32>> for Idle {
            fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Ctx<'_, Ping, Vec<u32>>) {}
        }
        for workers in [1, 2] {
            let (open, gate) = std::sync::mpsc::channel();
            let procs: Vec<Box<dyn Automaton<Ping, Vec<u32>>>> = vec![
                Box::new(Fwd),
                Box::new(Idle),
                Box::new(Collect(Vec::new())),
                Box::new(Idle),
                Box::new(Gate(gate)),
            ];
            let mut cluster =
                ThreadedCluster::spawn_on(procs, &SubstrateConfig::seeded(16), workers);
            let forwarded = |cluster: &mut ThreadedCluster<Ping, Vec<u32>>, last: u32| {
                let seen = cluster.pump_until(u64::MAX, 50, &mut |_, _, out: Vec<u32>| {
                    (out == [last]).then_some(())
                });
                assert!(seen.is_some(), "{workers} workers: payload {last} never forwarded");
            };
            let pending = |c: &ThreadedCluster<Ping, Vec<u32>>| {
                c.wire.links.map.lock().unwrap().get(&(0, 2)).map_or(0, |st| st.deferred_pending)
            };
            for i in 0..10 {
                cluster.inject(0, Ping(i));
            }
            forwarded(&mut cluster, 9);
            // 5,000 ticks of 100 µs: nothing below waits for the delay.
            cluster.set_link_fault(0, 2, Some(LinkFault::flaky(0.0, 0.0, 5_000)));
            for i in 10..20 {
                cluster.inject(0, Ping(i));
            }
            forwarded(&mut cluster, 19);
            assert_eq!(pending(&cluster), 10, "{workers} workers: the fault defers every frame");
            cluster.set_link_fault(0, 2, None);
            // Sent while frames wait in the wheel: deferred behind them.
            for i in 20..25 {
                cluster.inject(0, Ping(i));
            }
            forwarded(&mut cluster, 24);
            assert_eq!(pending(&cluster), 15, "{workers} workers: the cleared link still defers");
            // The gate holds the worker; 25..30 queue behind it, then the
            // wheel's frames behind those.
            cluster.inject(4, Ping(0));
            for i in 25..30 {
                cluster.inject(0, Ping(i));
            }
            let deadline = Instant::now() + JOIN_TIMEOUT;
            while pending(&cluster) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(pending(&cluster), 0, "{workers} workers: the wheel never delivered");
            open.send(()).unwrap();
            let got = cluster
                .pump_until(u64::MAX, 100, &mut |_, pid, out: Vec<u32>| (pid == 2).then_some(out));
            assert_eq!(got, Some((0..30).collect()), "{workers} workers: per-link FIFO violated");
            cluster.stop();
        }
    }

    /// Crashing, restarting and corrupting process 0 leaves co-hosted
    /// process 2 serving throughout, and the timer that 0's first
    /// incarnation armed never fires into the second.
    #[test]
    fn faults_on_one_process_spare_its_co_hosted_neighbour() {
        /// Arms a timer with its generation as id; adds 100 to every
        /// payload once corrupted.
        struct Victim {
            generation: u32,
            poisoned: bool,
        }
        impl Automaton<Ping, u32> for Victim {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.set_timer(100, u64::from(self.generation));
            }
            fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.output(id as u32);
            }
            fn on_message(&mut self, _: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping, u32>) {
                ctx.output(msg.0 + if self.poisoned { 100 } else { 0 });
            }
            fn corrupt(&mut self, _rng: &mut StdRng) {
                self.poisoned = true;
            }
        }
        let victim = |generation| Box::new(Victim { generation, poisoned: false });
        for workers in [1, 2] {
            let mut cluster: ThreadedCluster<Ping, u32> = ThreadedCluster::spawn_on(
                vec![victim(1), Box::new(Say), Box::new(Say)],
                &SubstrateConfig::seeded(17).with_tick(Duration::from_millis(2)),
                workers,
            );
            let ask = |cluster: &mut ThreadedCluster<Ping, u32>, pid, payload| {
                cluster.inject(pid, Ping(payload));
                next_output(cluster, 50)
            };
            Substrate::crash(&mut cluster, 0);
            assert_eq!(ask(&mut cluster, 2, 5), Some(5), "{workers} workers: after the crash");
            cluster.restart(0, victim(2));
            assert_eq!(ask(&mut cluster, 2, 6), Some(6), "{workers} workers: after the restart");
            let plan = FaultPlan {
                corrupt_processes: vec![0],
                garbage_channels: vec![],
                garbage_per_channel: 0,
            };
            Substrate::apply_fault(&mut cluster, &plan, &mut |_rng| Ping(0));
            assert_eq!(ask(&mut cluster, 2, 8), Some(8), "{workers} workers: after the corruption");
            assert_eq!(
                ask(&mut cluster, 0, 9),
                Some(109),
                "{workers} workers: restarted, corrupted"
            );
            // Both incarnations' timers come due; only the second's fires.
            assert_eq!(next_output(&mut cluster, 50), Some(2), "{workers} workers");
            assert_eq!(next_output(&mut cluster, 3), None, "{workers} workers: stale timer fired");
            cluster.stop();
        }
    }
}
