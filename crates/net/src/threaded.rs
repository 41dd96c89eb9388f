//! Real-thread runtime: one OS thread per process, crossbeam FIFO channels,
//! event-driven end to end — no polling loop anywhere.
//!
//! This substrate exists for the wall-clock measurements (E15's threaded
//! cells, the `kv-threaded-readheavy` benchmark workload) and to
//! demonstrate that the sans-IO automata are substrate-independent. Each process owns an unbounded
//! crossbeam channel as its inbox; since a crossbeam channel delivers any
//! single producer's messages in send order, the per-pair FIFO property the
//! protocol relies on holds. There is no determinism — correctness
//! assertions belong on the simulator, throughput measurements here — but
//! the full driver surface of [`crate::substrate::Substrate`] is supported.
//!
//! Every wait in the runtime is a blocking wait on a channel or condvar;
//! wakeups come from the peer that produced the work:
//!
//! * **Workers** block in `recv()` on their inbox. Everything that can
//!   happen to a process — deliveries, control messages, *and timer
//!   firings* — arrives as an inbox message, so the worker loop has no
//!   deadline arithmetic and never spins.
//! * **Timers**: a worker registers `set_timer(d, id)` with the shared
//!   [`TimerWheel`] (one dedicated thread for the whole cluster, asleep
//!   until the earliest deadline); at `d × tick` of wall clock the wheel
//!   sends `Ctl::Timer` back into the worker's inbox. Firings carry the
//!   worker's incarnation number: firings armed before a restart are
//!   discarded on receipt, matching the simulator's incarnation rule.
//! * **Outputs / pump**: workers send `(time, pid, output)` into one
//!   shared hub; [`crate::substrate::Substrate::pump`] blocks directly on
//!   it up to `pump_timeout`, so [`Pumped::Idle`] means provably
//!   no-output-for-the-window rather than poll jitter.
//! * **Link faults**: [`crate::link::Link`] decides a frame's fate on the
//!   *sender* side. A delayed frame goes to the timer wheel as a per-link
//!   deferred delivery instead of sleeping the worker, and while one is in
//!   flight every later send on that link is deferred behind it.
//! * **Crash recovery**: a restart control message replaces the worker's
//!   automaton in place, bumps its incarnation (stale timer firings are
//!   ignored on receipt), un-crashes it, and runs `on_start` — the inbox
//!   channel and thread survive, so peers keep a working route.
//! * **Shutdown**: `stop` (and `Drop`) delivers stop controls, halts the
//!   timer wheel (discarding deferred work), and parks on an exit latch
//!   that each worker signals on the way out — a condvar wait bounded by
//!   `JOIN_TIMEOUT` (5 s), not a join-poll.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::Frame;
use crate::corruption::FaultPlan;
use crate::link::{Counter, Link, Outbound, Sent, Tally};
use crate::metrics::NetMetrics;
use crate::nemesis::LinkFault;
use crate::process::{Automaton, Ctx, ProcessId, ENV};
use crate::substrate::{Backend, Outputs, Pumped, Substrate, SubstrateConfig};
use crate::timer_wheel::{TimerWheel, TimerWheelThread};

/// Bound on waiting for worker threads to exit during stop/drop.
const JOIN_TIMEOUT: Duration = Duration::from_secs(5);

enum Ctl<M, O> {
    /// One wire frame from `from`'s side of the directed link.
    Frame {
        from: ProcessId,
        frame: Frame<M>,
    },
    /// A timer firing routed back from the wheel; `incarnation` tags the
    /// worker lifetime that armed it so stale firings die on receipt.
    Timer {
        id: u64,
        incarnation: u64,
    },
    /// Tick-watermark flush of the worker's own pending link batches,
    /// routed back from the wheel (batching only).
    FlushLinks,
    Corrupt,
    Crash,
    Restart(Box<dyn Automaton<M, O>>),
    Stop,
}

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

/// Single hub carrying every worker's outputs, so `pump` blocks on one
/// wait instead of sweeping per-process queues.
struct OutputHub<O> {
    inner: Mutex<HubInner<O>>,
    cond: Condvar,
}

struct HubInner<O> {
    queue: VecDeque<(u64, ProcessId, O)>,
    /// Waiting receivers; pushes skip the condvar syscall when zero.
    waiting: usize,
    /// Live worker count; when it hits zero, blocked receivers give up.
    producers: usize,
}

impl<O> OutputHub<O> {
    fn new(producers: usize) -> Self {
        Self {
            inner: Mutex::new(HubInner { queue: VecDeque::new(), waiting: 0, producers }),
            cond: Condvar::new(),
        }
    }

    fn push(&self, item: (u64, ProcessId, O)) {
        let mut inner = self.inner.lock().expect("hub lock");
        inner.queue.push_back(item);
        if inner.waiting > 0 {
            drop(inner);
            // The driver's `pump` is the only waiter, so this wakes at most
            // one thread.
            self.cond.notify_all();
        }
    }

    fn producer_gone(&self) {
        let mut inner = self.inner.lock().expect("hub lock");
        inner.producers = inner.producers.saturating_sub(1);
        if inner.producers == 0 && inner.waiting > 0 {
            drop(inner);
            self.cond.notify_all();
        }
    }

    /// Wait for the next output from any process, up to `deadline`.
    fn recv_any(&self, deadline: Instant) -> Option<(u64, ProcessId, O)> {
        let mut inner = self.inner.lock().expect("hub lock");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.producers == 0 {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            inner.waiting += 1;
            let (guard, _) = self.cond.wait_timeout(inner, deadline - now).expect("hub wait");
            inner = guard;
            inner.waiting -= 1;
        }
    }
}

/// Counts workers still running; `stop` parks here instead of join-polling.
struct ExitLatch {
    remaining: Mutex<usize>,
    cond: Condvar,
}

impl ExitLatch {
    fn new(n: usize) -> Self {
        Self { remaining: Mutex::new(n), cond: Condvar::new() }
    }

    fn arrive(&self) {
        let mut r = self.remaining.lock().expect("latch lock");
        *r = r.saturating_sub(1);
        if *r == 0 {
            self.cond.notify_all();
        }
    }

    /// Wait until every worker arrived or `deadline` passes; returns
    /// whether all arrived.
    fn wait_all(&self, deadline: Instant) -> bool {
        let mut r = self.remaining.lock().expect("latch lock");
        while *r > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self.cond.wait_timeout(r, deadline - now).expect("latch wait");
            r = guard;
        }
        true
    }
}

/// Everything one worker thread needs; grouped to keep the spawn loop flat.
struct Worker<M, O> {
    pid: ProcessId,
    auto: Box<dyn Automaton<M, O>>,
    rx: Receiver<Ctl<M, O>>,
    /// Sender onto our own inbox, cloned into wheel actions for timers.
    self_tx: Sender<Ctl<M, O>>,
    peers: Vec<Sender<Ctl<M, O>>>,
    out: Arc<OutputHub<O>>,
    wheel: TimerWheel,
    metrics: Arc<SharedMetrics>,
    links: Arc<LinkFaults>,
    epoch: Instant,
    tick: Duration,
    rng: StdRng,
    /// Bumped on restart; `Ctl::Timer` firings from older incarnations
    /// are discarded on receipt (the simulator's incarnation rule).
    incarnation: u64,
    /// Peers with a parked receiver awaiting a wake at the end of the
    /// current dispatch (reused across dispatches to avoid allocation).
    wake_buf: Vec<ProcessId>,
    /// This worker's pending outgoing link queues; while any message
    /// waits there a `FlushLinks` wheel entry is outstanding.
    outbound: Outbound<M>,
}

impl<M, O> Worker<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Send + 'static,
{
    fn ticks(&self) -> u64 {
        ticks_since(self.epoch, self.tick)
    }

    fn run(mut self, latch: Arc<ExitLatch>) {
        struct Arrive(Arc<ExitLatch>);
        impl Drop for Arrive {
            fn drop(&mut self) {
                self.0.arrive();
            }
        }
        let _arrive = Arrive(Arc::clone(&latch));
        let hub = Arc::clone(&self.out);
        struct ProducerGone<O>(Arc<OutputHub<O>>);
        impl<O> Drop for ProducerGone<O> {
            fn drop(&mut self) {
                self.0.producer_gone();
            }
        }
        let _gone = ProducerGone(hub);

        let mut crashed = false;
        let now = self.ticks();
        self.dispatch(now, |auto, ctx| auto.on_start(ctx));

        // The whole loop is one blocking recv: deliveries, controls, and
        // timer firings all arrive as inbox messages, so the worker never
        // computes a deadline and never wakes without work.
        loop {
            match self.rx.recv() {
                Err(_) | Ok(Ctl::Stop) => return,
                Ok(Ctl::Crash) => {
                    crashed = true;
                    // Armed timers stay in the wheel; their firings are
                    // discarded below while `crashed` (and by incarnation
                    // after a restart) — same as the simulator consuming a
                    // crashed pid's timer events silently.
                }
                Ok(Ctl::Corrupt) => {
                    self.auto.corrupt(&mut self.rng);
                }
                Ok(Ctl::Restart(auto)) => {
                    // Crash recovery with state loss: fresh automaton, new
                    // incarnation (old firings die on receipt), inbox and
                    // thread reused.
                    self.auto = auto;
                    crashed = false;
                    self.incarnation += 1;
                    let now = self.ticks();
                    self.dispatch(now, |auto, ctx| auto.on_start(ctx));
                }
                Ok(Ctl::Timer { id, incarnation }) => {
                    if crashed || incarnation != self.incarnation {
                        continue;
                    }
                    self.metrics.event();
                    let now = self.ticks();
                    self.dispatch(now, |auto, ctx| auto.on_timer(id, ctx));
                }
                Ok(Ctl::FlushLinks) => {
                    // Tick watermark: ship every pending link queue. Pending
                    // batches are messages already in the channel, so they
                    // flush even while this worker is crashed — a crashed
                    // *destination* drops them on receipt, as usual.
                    let now = self.ticks();
                    for (_, to, frame) in self.outbound.flush(&mut self.metrics) {
                        self.ship(to, frame, now);
                    }
                    self.wake_parked();
                }
                Ok(Ctl::Frame { from, frame }) => {
                    self.metrics.arrived(&frame, !crashed);
                    if !crashed {
                        let now = self.ticks();
                        self.dispatch(now, |auto, ctx| frame.apply(from, auto, ctx));
                    }
                }
            }
        }
    }

    /// Run one callback, then flush its effects to peers/outputs/timers.
    fn dispatch(&mut self, now: u64, f: impl FnOnce(&mut dyn Automaton<M, O>, &mut Ctx<'_, M, O>)) {
        let mut ctx = Ctx::new(self.pid, now, &mut self.rng);
        f(&mut *self.auto, &mut ctx);
        let (outbox, outputs, set_timers) = ctx.drain();
        for (to, msg) in outbox {
            if to >= self.peers.len() {
                self.metrics.dropped(1);
                continue;
            }
            match self.outbound.send(self.pid, to, msg, &mut self.metrics) {
                Sent::Ship(frame) => self.ship(to, frame, now),
                Sent::Queued { arm_flush: true } => {
                    let tx = self.self_tx.clone();
                    self.wheel.register(now + self.outbound.policy().flush_ticks, move || {
                        let _ = tx.send(Ctl::FlushLinks);
                    });
                }
                Sent::Queued { arm_flush: false } => {}
            }
        }
        self.wake_parked();
        for o in outputs {
            self.out.push((now, self.pid, o));
        }
        for (delay, id) in set_timers {
            // Same arming rule as the simulator: fire at now + max(delay, 1).
            let fire = now + delay.max(1);
            let tx = self.self_tx.clone();
            let incarnation = self.incarnation;
            self.wheel.register(fire, move || {
                let _ = tx.send(Ctl::Timer { id, incarnation });
            });
        }
    }

    /// Ship one wire frame to `to`, as its link's fault decides. Quiet
    /// sends: the whole outbox is published first and parked peers are
    /// woken once by [`Worker::wake_parked`], so a woken consumer cannot
    /// preempt this worker while later outbox messages are still unsent.
    fn ship(&mut self, to: ProcessId, frame: Frame<M>, now: u64) {
        let from = self.pid;
        match self.links.plan(from, to, now, &mut self.rng) {
            SendPlan::Direct { dup } => {
                if dup {
                    let _ = self.peers[to].send_quiet(Ctl::Frame { from, frame: frame.clone() });
                }
                if let Ok(true) = self.peers[to].send_quiet(Ctl::Frame { from, frame }) {
                    if !self.wake_buf.contains(&to) {
                        self.wake_buf.push(to);
                    }
                }
            }
            SendPlan::Dropped => self.metrics.dropped(frame.len()),
            SendPlan::Defer { at, dup_at } => {
                // Deferred delivery through the wheel: only this link
                // waits; the worker moves straight on to its other
                // destinations. The wheel fires in (tick, registration)
                // order and each link's slots are strictly increasing,
                // so per-link FIFO survives the detour.
                let defer = |at: u64, frame: Frame<M>| {
                    let tx = self.peers[to].clone();
                    let links = Arc::clone(&self.links);
                    self.wheel.register(at, move || {
                        let _ = tx.send(Ctl::Frame { from, frame });
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

    /// Wake every peer whose receiver was parked when [`Worker::ship`]
    /// published to it.
    fn wake_parked(&mut self) {
        for to in self.wake_buf.drain(..) {
            self.peers[to].wake();
        }
    }
}

fn ticks_since(epoch: Instant, tick: Duration) -> u64 {
    (epoch.elapsed().as_nanos() / tick.as_nanos().max(1)) as u64
}

/// A running cluster of automata on OS threads.
pub struct ThreadedCluster<M, O> {
    inboxes: Vec<Sender<Ctl<M, O>>>,
    outputs: Arc<OutputHub<O>>,
    handles: Vec<JoinHandle<()>>,
    latch: Arc<ExitLatch>,
    wheel: TimerWheelThread,
    metrics: Arc<SharedMetrics>,
    links: Arc<LinkFaults>,
    /// Driver-side RNG for fault-plan garbage generation.
    rng: StdRng,
    epoch: Instant,
    tick: Duration,
    pump_timeout: Duration,
    stopped: bool,
}

impl<M, O> ThreadedCluster<M, O>
where
    M: Clone + std::fmt::Debug + Send + 'static,
    O: Send + 'static,
{
    /// Spawn one thread per automaton; `config.seed` derives each thread's
    /// RNG.
    pub fn spawn_with(procs: Vec<Box<dyn Automaton<M, O>>>, config: &SubstrateConfig) -> Self {
        let n = procs.len();
        let mut inbox_tx = Vec::with_capacity(n);
        let mut inbox_rx = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Ctl<M, O>>();
            inbox_tx.push(tx);
            inbox_rx.push(rx);
        }
        let outputs = Arc::new(OutputHub::new(n));
        let metrics = Arc::new(SharedMetrics::default());
        let links = Arc::new(LinkFaults::default());
        let latch = Arc::new(ExitLatch::new(n));
        let epoch = Instant::now();
        let wheel = TimerWheel::spawn(epoch, config.tick);

        let mut handles = Vec::with_capacity(n);
        for ((pid, auto), rx) in procs.into_iter().enumerate().zip(inbox_rx) {
            let worker = Worker {
                pid,
                auto,
                self_tx: inbox_tx[pid].clone(),
                rx,
                peers: inbox_tx.clone(),
                out: Arc::clone(&outputs),
                wheel: wheel.handle(),
                metrics: Arc::clone(&metrics),
                links: Arc::clone(&links),
                epoch,
                tick: config.tick,
                rng: StdRng::seed_from_u64(
                    config.seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                incarnation: 0,
                wake_buf: Vec::new(),
                outbound: Outbound::new(config.batch),
            };
            let latch = Arc::clone(&latch);
            handles.push(std::thread::spawn(move || worker.run(latch)));
        }

        Self {
            inboxes: inbox_tx,
            outputs,
            handles,
            latch,
            wheel,
            metrics,
            links,
            rng: StdRng::seed_from_u64(config.seed ^ 0xD1B5_4A32_D192_ED03),
            epoch,
            tick: config.tick,
            pump_timeout: config.pump_timeout,
            stopped: false,
        }
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Elapsed ticks since spawn (the cluster-wide clock).
    pub fn ticks(&self) -> u64 {
        ticks_since(self.epoch, self.tick)
    }

    /// Send a command to `pid` as the environment (`&self`: user threads
    /// may share the cluster, hence the tally through its own handle).
    fn send(&self, pid: ProcessId, msg: M) {
        let frame = Outbound::solo(msg, &mut Arc::clone(&self.metrics));
        let _ = self.inboxes[pid].send(Ctl::Frame { from: ENV, frame });
    }
}

impl<M, O> ThreadedCluster<M, O> {
    fn stop_and_join(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        for tx in &self.inboxes {
            let _ = tx.send(Ctl::Stop);
        }
        // Halt the wheel first: pending deferred deliveries and timer
        // firings are discarded (dropping their inbox-sender clones), per
        // the stop-discards-pending-work contract.
        self.wheel.stop();
        // Park on the exit latch — each worker signals it on the way out —
        // instead of polling `is_finished`.
        let all = self.latch.wait_all(Instant::now() + JOIN_TIMEOUT);
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

    /// Block directly on the shared output hub up to `pump_timeout`:
    /// one wait, no sweeping, no sleep slices. [`Pumped::Idle`] therefore
    /// certifies that no process emitted an output during the window.
    fn pump(&mut self) -> Pumped<O> {
        if self.stopped || self.inboxes.is_empty() {
            return Pumped::Quiescent;
        }
        match self.outputs.recv_any(Instant::now() + self.pump_timeout) {
            Some((time, pid, o)) => Pumped::Event { time, pid, outputs: Outputs::One(o) },
            None => Pumped::Idle,
        }
    }

    fn metrics_snapshot(&self) -> NetMetrics {
        self.metrics.snapshot()
    }

    fn apply_fault(&mut self, plan: &FaultPlan, gen: &mut dyn FnMut(&mut StdRng) -> M) {
        for &pid in &plan.corrupt_processes {
            if pid < self.inboxes.len() {
                let _ = self.inboxes[pid].send(Ctl::Corrupt);
            }
        }
        for &(from, to) in &plan.garbage_channels {
            if to >= self.inboxes.len() {
                continue;
            }
            // Garbage already in transit on `(from, to)`: a frame with a
            // spoofed sender that nobody sent.
            for _ in 0..plan.garbage_per_channel {
                let frame = Frame::One(gen(&mut self.rng));
                let _ = self.inboxes[to].send(Ctl::Frame { from, frame });
            }
        }
    }

    fn crash(&mut self, pid: ProcessId) {
        let _ = self.inboxes[pid].send(Ctl::Crash);
    }

    /// The control message lands FIFO after everything already in `pid`'s
    /// inbox, so the new incarnation sees only traffic sent after the
    /// restart was issued.
    fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>) {
        let _ = self.inboxes[pid].send(Ctl::Restart(auto));
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.links.set(from, to, fault);
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
}
