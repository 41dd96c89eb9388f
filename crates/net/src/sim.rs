//! The deterministic discrete-event simulator.
//!
//! Executions of the paper's model are sequences of message deliveries with
//! arbitrary finite delays. The simulator realizes one such execution per
//! seed: every send samples a delay from the configured [`DelayModel`]
//! (FIFO-corrected per channel), events are totally ordered by
//! `(time, sequence)`, and all randomness flows from one seeded [`StdRng`] —
//! so a `(topology, workload, seed)` triple reproduces the exact same
//! execution, message for message. Scripted adversarial schedules (Theorem 1)
//! are built from the channel pause/resume controls.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{BatchPolicy, Frame};
use crate::channel::{ChannelMap, DelayModel, Scheduled};
use crate::link::{Outbound, Sent, Tally};
use crate::metrics::NetMetrics;
use crate::nemesis::LinkFault;
use crate::process::{Automaton, Buffers, Ctx, ProcessId, ENV};

/// Simulator construction parameters.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Seed for all simulator randomness (delays, adversary coin flips).
    pub seed: u64,
    /// Message delay distribution.
    pub delay: DelayModel,
    /// Per-link message coalescing policy (disabled by default; disabled
    /// batching reproduces the exact pre-batching event and RNG streams).
    pub batch: BatchPolicy,
}

impl SimConfig {
    /// Config with a specific seed and default delays.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Replace the delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Replace the link-batching policy.
    pub fn with_batching(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }
}

enum EventKind<M> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        frame: Frame<M>,
    },
    Timer {
        pid: ProcessId,
        id: u64,
        incarnation: u64,
    },
    /// Tick-watermark flush of every pending link batch (batching only).
    Flush,
}

struct Queued<M> {
    time: u64,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Identity of an *enabled* event class, as enumerated by
/// [`Simulation::enabled_events`] and consumed by [`Simulation::step_key`].
///
/// A schedule explorer forks on these keys rather than on raw queue entries:
/// a `Channel` key stands for "deliver the FIFO head of the `(from, to)`
/// channel next" and a `Timer` key for "fire this pending timer next". The
/// key deliberately omits the queued delivery *time* — an asynchronous
/// adversary may reorder deliveries across channels arbitrarily, and tying
/// the identity to stable `(src, dst)` pairs is what lets a replayed key
/// sequence mean the same thing in every interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKey {
    /// Deliver the earliest in-flight message on the directed channel.
    Channel {
        /// Sending process (may be [`ENV`]).
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Fire the pending timer `id` armed by `pid`'s current incarnation.
    Timer {
        /// Process that armed the timer.
        pid: ProcessId,
        /// Timer id as passed to `Ctx::set_timer`.
        id: u64,
    },
}

/// Record of one processed event, as returned by [`Simulation::step`].
#[derive(Clone, Debug)]
pub struct SimEvent<O> {
    /// Virtual time at which the event was processed.
    pub time: u64,
    /// The process that acted.
    pub pid: ProcessId,
    /// Observable outputs the process emitted during this event.
    pub outputs: Vec<O>,
}

/// A deterministic discrete-event simulation over automata exchanging `M`
/// and emitting observables `O`.
pub struct Simulation<M, O> {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Queued<M>>,
    procs: Vec<Box<dyn Automaton<M, O>>>,
    crashed: Vec<bool>,
    /// Bumped on every restart of a pid; timer events carry the incarnation
    /// they were armed under, so timers armed before a restart never fire
    /// into the fresh automaton.
    incarnation: Vec<u64>,
    channels: ChannelMap<Frame<M>>,
    rng: StdRng,
    metrics: NetMetrics,
    started: bool,
    halted: bool,
    /// Pending link batches. While it holds any, one `Flush` event is
    /// queued — so `is_quiet` never lies about liveness.
    outbound: Outbound<M>,
    /// Effect buffers lent to every callback's context.
    bufs: Buffers<M, O>,
}

impl<M, O> Simulation<M, O>
where
    M: Clone + Debug + Send + 'static,
    O: Clone + Debug + Send + 'static,
{
    /// Create an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        Self {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            procs: Vec::new(),
            crashed: Vec::new(),
            incarnation: Vec::new(),
            channels: ChannelMap::new(config.delay),
            rng: StdRng::seed_from_u64(config.seed),
            metrics: NetMetrics::default(),
            started: false,
            halted: false,
            outbound: Outbound::new(config.batch),
            bufs: Buffers::default(),
        }
    }

    /// Register a process; returns its id (assigned densely from 0).
    pub fn add_process(&mut self, a: Box<dyn Automaton<M, O>>) -> ProcessId {
        self.procs.push(a);
        self.crashed.push(false);
        self.incarnation.push(0);
        self.procs.len() - 1
    }

    /// Number of registered processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Network metrics collected so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Mutable access to a process automaton (for typed state inspection in
    /// tests via `as_any_mut`-style downcasts provided by protocol crates).
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut dyn Automaton<M, O> {
        &mut *self.procs[pid]
    }

    /// Run each process's `on_start` hook. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for pid in 0..self.procs.len() {
            self.dispatch(pid, |auto, ctx| auto.on_start(ctx));
        }
    }

    /// Run one automaton callback with a context, then absorb its effects.
    /// The RNG is moved out for the duration so the borrow of `self` splits.
    fn dispatch(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut dyn Automaton<M, O>, &mut Ctx<'_, M, O>),
    ) -> Vec<O> {
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let mut bufs = std::mem::take(&mut self.bufs);
        let mut ctx = Ctx::lend(pid, self.now, &mut rng, &mut bufs);
        f(&mut *self.procs[pid], &mut ctx);
        ctx.give_back(&mut bufs);
        self.rng = rng;
        self.absorb(pid, &mut bufs.outbox, &mut bufs.timers);
        let outputs = std::mem::take(&mut bufs.outputs);
        self.bufs = bufs;
        outputs
    }

    fn push(&mut self, time: u64, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued { time, seq, kind });
    }

    /// Route one frame through the channel map, honoring pauses and link
    /// faults, and enqueue the resulting delivery (and duplicate) events.
    fn ship(&mut self, from: ProcessId, to: ProcessId, frame: Frame<M>) {
        let logical = frame.len();
        match self.channels.schedule(from, to, self.now, frame, &mut self.rng) {
            Scheduled::Held => {}
            Scheduled::Dropped => self.metrics.dropped(logical),
            Scheduled::Deliver { at, msg, dup_at } => {
                if let Some(t2) = dup_at {
                    self.push(t2, EventKind::Deliver { from, to, frame: msg.clone() });
                }
                self.push(at, EventKind::Deliver { from, to, frame: msg });
            }
        }
    }

    /// Collect effects from a finished callback into the event queue.
    fn absorb(
        &mut self,
        pid: ProcessId,
        outbox: &mut Vec<(ProcessId, M)>,
        timers: &mut Vec<(u64, u64)>,
    ) {
        for (to, msg) in outbox.drain(..) {
            if to == ENV || to >= self.procs.len() {
                self.metrics.dropped(1);
                continue;
            }
            match self.outbound.send(pid, to, msg, &mut self.metrics) {
                Sent::Ship(frame) => self.ship(pid, to, frame),
                Sent::Queued { arm_flush: true } => {
                    self.push(self.now + self.outbound.policy().flush_ticks, EventKind::Flush)
                }
                Sent::Queued { arm_flush: false } => {}
            }
        }
        for (delay, id) in timers.drain(..) {
            let incarnation = self.incarnation[pid];
            self.push(self.now + delay.max(1), EventKind::Timer { pid, id, incarnation });
        }
    }

    /// Deliver `msg` to `pid` as a command from the environment, after the
    /// usual channel delay (FIFO with respect to earlier commands to `pid`).
    /// Environment commands never batch: one command, one frame.
    pub fn inject(&mut self, pid: ProcessId, msg: M) {
        let frame = Outbound::solo(msg, &mut self.metrics);
        self.ship(ENV, pid, frame);
    }

    /// Place `msgs` in the channel `(from, to)` as if they were already in
    /// transit at time zero — the paper's "stale messages in transit"
    /// corruption of channel contents.
    pub fn preload_channel(&mut self, from: ProcessId, to: ProcessId, msgs: Vec<M>) {
        for msg in msgs {
            self.ship(from, to, Frame::One(msg));
        }
    }

    /// Pause the channel `(from, to)` (messages buffer in order).
    pub fn pause_channel(&mut self, from: ProcessId, to: ProcessId) {
        self.channels.pause(from, to);
    }

    /// Pause every channel touching `pid` in both directions — a "slow
    /// server" in the sense of the Theorem 1 proof.
    pub fn pause_process_channels(&mut self, pid: ProcessId) {
        for other in 0..self.procs.len() {
            if other != pid {
                self.channels.pause(pid, other);
                self.channels.pause(other, pid);
            }
        }
        self.channels.pause(ENV, pid);
    }

    /// Resume the channel, scheduling all held messages FIFO.
    pub fn resume_channel(&mut self, from: ProcessId, to: ProcessId) {
        for (t, frame) in self.channels.resume(from, to, self.now, &mut self.rng) {
            self.push(t, EventKind::Deliver { from, to, frame });
        }
    }

    /// Resume every channel touching `pid`.
    pub fn resume_process_channels(&mut self, pid: ProcessId) {
        for other in 0..self.procs.len() {
            if other != pid {
                self.resume_channel(pid, other);
                self.resume_channel(other, pid);
            }
        }
        self.resume_channel(ENV, pid);
    }

    /// Partition the network: every channel between a process in `side_a`
    /// and one in `side_b` (both directions) is paused. Messages buffer in
    /// FIFO order and flow again on [`Simulation::heal`] — a partition in
    /// this model is a (possibly long) transient delay, which the paper's
    /// reliable-channel assumption permits.
    pub fn partition(&mut self, side_a: &[ProcessId], side_b: &[ProcessId]) {
        for &a in side_a {
            for &b in side_b {
                self.channels.pause(a, b);
                self.channels.pause(b, a);
            }
        }
    }

    /// Heal a partition created with [`Simulation::partition`]: resume all
    /// cross-side channels, releasing buffered messages in order.
    pub fn heal(&mut self, side_a: &[ProcessId], side_b: &[ProcessId]) {
        for &a in side_a {
            for &b in side_b {
                self.resume_channel(a, b);
                self.resume_channel(b, a);
            }
        }
    }

    /// Crash `pid`: all future deliveries to it are dropped silently.
    pub fn crash(&mut self, pid: ProcessId) {
        self.crashed[pid] = true;
    }

    /// Restart `pid` with a fresh automaton: crash *recovery* with state
    /// loss. The replacement starts from its initial state (its `on_start`
    /// runs if the simulation has started), pending timers armed by the old
    /// incarnation are invalidated, and in-flight messages to `pid` deliver
    /// normally — a restarted process is indistinguishable from one whose
    /// memory was transiently corrupted to an initial state, which is
    /// exactly the fault class the paper's algorithm stabilizes from.
    pub fn restart(&mut self, pid: ProcessId, auto: Box<dyn Automaton<M, O>>) {
        self.procs[pid] = auto;
        self.crashed[pid] = false;
        self.incarnation[pid] += 1;
        if self.started {
            self.dispatch(pid, |auto, ctx| auto.on_start(ctx));
        }
    }

    /// Install (`Some`) or clear (`None`) a [`LinkFault`] on the directed
    /// channel `(from, to)`.
    pub fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.channels.set_fault(from, to, fault);
    }

    /// Halt the simulation: discard every pending event. Nothing pending at
    /// halt time is ever delivered, and subsequent [`Simulation::step`]
    /// calls return `None`.
    pub fn halt(&mut self) {
        self.halted = true;
        self.queue.clear();
        self.outbound.discard();
    }

    /// Execute a [`crate::corruption::FaultPlan`]: scramble the listed
    /// process states and preload `gen`-produced garbage messages on the
    /// listed channels — modelling the paper's arbitrary initial
    /// configuration (corrupted memories *and* corrupted channel contents).
    pub fn apply_fault(
        &mut self,
        plan: &crate::corruption::FaultPlan,
        mut gen: impl FnMut(&mut StdRng) -> M,
    ) {
        for &pid in &plan.corrupt_processes {
            if pid < self.procs.len() {
                self.procs[pid].corrupt(&mut self.rng);
            }
        }
        for &(from, to) in &plan.garbage_channels {
            let msgs: Vec<M> = (0..plan.garbage_per_channel).map(|_| gen(&mut self.rng)).collect();
            self.preload_channel(from, to, msgs);
        }
    }

    /// True when no events remain.
    pub fn is_quiet(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pending event count.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Apply one frame that reached `to`; a crashed process drops it whole.
    fn deliver_frame(&mut self, from: ProcessId, to: ProcessId, frame: Frame<M>) -> Vec<O> {
        let live = !self.crashed[to];
        self.metrics.arrived(&frame, live);
        if !live {
            return Vec::new();
        }
        self.dispatch(to, move |auto, ctx| frame.apply(from, auto, ctx))
    }

    /// Process one event. Returns `None` when the queue is empty or the
    /// simulation was halted.
    pub fn step(&mut self) -> Option<SimEvent<O>> {
        if self.halted {
            return None;
        }
        self.start();
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "time must be monotone");
        self.now = ev.time;
        Some(self.process(ev.kind))
    }

    /// Run one dequeued event at the current time.
    fn process(&mut self, kind: EventKind<M>) -> SimEvent<O> {
        let (pid, outputs) = match kind {
            EventKind::Deliver { from, to, frame } => (to, self.deliver_frame(from, to, frame)),
            EventKind::Timer { pid, id, incarnation } => {
                self.metrics.event();
                if self.crashed[pid] || incarnation != self.incarnation[pid] {
                    (pid, Vec::new())
                } else {
                    (pid, self.dispatch(pid, move |auto, ctx| auto.on_timer(id, ctx)))
                }
            }
            EventKind::Flush => {
                // Tick watermark: ship every pending link queue. Not a
                // protocol event, so it is excluded from events_processed.
                for (from, to, frame) in self.outbound.flush(&mut self.metrics) {
                    self.ship(from, to, frame);
                }
                (ENV, Vec::new())
            }
        };
        SimEvent { time: self.now, pid, outputs }
    }

    /// Guard for the schedule-exploration API ([`Simulation::enabled_events`]
    /// / [`Simulation::step_key`]): link batching holds messages in the
    /// [`LinkBatcher`] outside the event queue, where the explorer cannot
    /// see them — a "quiescent" verdict with a non-empty batcher would be a
    /// bogus termination claim, and `Flush` events are not key-addressable
    /// anyway. Exploration therefore requires batching off; panic loudly
    /// instead of silently exploring the wrong tree.
    fn assert_explorable(&self) {
        let batch = self.outbound.policy();
        assert!(
            !batch.enabled(),
            "schedule exploration (enabled_events/step_key) requires batching off: \
             BatchPolicy {{ max_batch: {}, flush_ticks: {} }} holds messages in the \
             LinkBatcher where the explorer cannot see them, so quiescence verdicts \
             would be bogus. Build the explored cluster with BatchPolicy::disabled().",
            batch.max_batch,
            batch.flush_ticks,
        );
    }

    /// Enumerate the distinct [`EventKey`]s that are currently *enabled*:
    /// every directed channel with at least one in-flight delivery to a
    /// live process, and every pending timer armed by the current
    /// incarnation of a live process. Dead queue entries (deliveries to
    /// crashed processes, timers of superseded incarnations) are excluded —
    /// they can never cause a state change, so an explorer should neither
    /// fork on them nor wait for them. The result is sorted and deduplicated
    /// so identical simulator states always report identical key lists.
    pub fn enabled_events(&self) -> Vec<EventKey> {
        self.assert_explorable();
        if self.halted {
            return Vec::new();
        }
        let mut keys: Vec<EventKey> = Vec::new();
        for q in self.queue.iter() {
            match &q.kind {
                EventKind::Deliver { from, to, .. } => {
                    if !self.crashed[*to] {
                        keys.push(EventKey::Channel { from: *from, to: *to });
                    }
                }
                EventKind::Timer { pid, id, incarnation } => {
                    if !self.crashed[*pid] && *incarnation == self.incarnation[*pid] {
                        keys.push(EventKey::Timer { pid: *pid, id: *id });
                    }
                }
                // Flush events are substrate bookkeeping, not explorable
                // protocol events (batching off is enforced by
                // `assert_explorable`, so none can be pending here).
                EventKind::Flush => {}
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Process the earliest queued event matching `key`, regardless of any
    /// earlier events on *other* channels — the step-by-key API a schedule
    /// explorer uses to realize an arbitrary interleaving.
    ///
    /// Unlike [`Simulation::step`], virtual time here is *logical*: it
    /// advances to `max(now + 1, event's scheduled time)` so time stays
    /// strictly monotone even when the chosen event was queued "in the
    /// past" relative to an already-executed later one. Within a single
    /// channel FIFO order is preserved (the earliest `(time, seq)` match is
    /// always taken), which is exactly the asynchronous-network guarantee
    /// the protocol assumes. Returns `None` when no live queue entry
    /// matches `key` (i.e. `key` is not in [`Simulation::enabled_events`]).
    pub fn step_key(&mut self, key: EventKey) -> Option<SimEvent<O>> {
        self.assert_explorable();
        if self.halted {
            return None;
        }
        self.start();
        let mut entries = std::mem::take(&mut self.queue).into_vec();
        let mut best: Option<usize> = None;
        for (i, q) in entries.iter().enumerate() {
            let matches = match (&q.kind, key) {
                (EventKind::Deliver { from, to, .. }, EventKey::Channel { from: kf, to: kt }) => {
                    *from == kf && *to == kt && !self.crashed[*to]
                }
                (
                    EventKind::Timer { pid, id, incarnation },
                    EventKey::Timer { pid: kp, id: ki },
                ) => {
                    *pid == kp
                        && *id == ki
                        && !self.crashed[*pid]
                        && *incarnation == self.incarnation[*pid]
                }
                _ => false,
            };
            if matches && best.is_none_or(|b| (q.time, q.seq) < (entries[b].time, entries[b].seq)) {
                best = Some(i);
            }
        }
        let Some(idx) = best else {
            self.queue = BinaryHeap::from(entries);
            return None;
        };
        let ev = entries.swap_remove(idx);
        self.queue = BinaryHeap::from(entries);
        self.now = (self.now + 1).max(ev.time);
        Some(self.process(ev.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Substrate;

    /// Every output until the queue drains or `max_events` events ran, as
    /// `(time, pid, output)`.
    fn drain<O: Clone + Debug + Send + 'static>(
        sim: &mut Simulation<u32, O>,
        max_events: u64,
    ) -> Vec<(u64, ProcessId, O)> {
        let mut out = Vec::new();
        sim.pump_until(max_events, 1, &mut |time, pid, o| {
            out.push((time, pid, o));
            None::<()>
        });
        out
    }

    /// Ping-pong automaton: replies with n-1 until zero, then outputs.
    struct PingPong;
    impl Automaton<u32, u32> for PingPong {
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
            if msg == 0 {
                ctx.output(0);
            } else if from != ENV {
                ctx.send(from, msg - 1);
            } else {
                // Kick off toward the other process (0 <-> 1).
                ctx.send(1 - ctx.me, msg - 1);
            }
        }
    }

    fn two_pingpong(seed: u64) -> Simulation<u32, u32> {
        let mut sim = Simulation::new(SimConfig::seeded(seed));
        sim.add_process(Box::new(PingPong));
        sim.add_process(Box::new(PingPong));
        sim
    }

    #[test]
    fn pingpong_terminates_with_output() {
        let mut sim = two_pingpong(7);
        sim.inject(0, 10);
        let out = drain(&mut sim, 10_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2, 0);
        assert_eq!(sim.metrics().messages_delivered, 11); // inject + 10 hops
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut sim = two_pingpong(seed);
            sim.inject(0, 20);
            drain(&mut sim, 10_000);
            (sim.now(), sim.metrics().messages_sent)
        };
        assert_eq!(run(3), run(3));
        // Different seeds give different delays hence (almost surely)
        // different finishing times.
        assert_ne!(run(3).0, run(4).0);
    }

    #[test]
    fn crash_drops_deliveries() {
        let mut sim = two_pingpong(1);
        sim.crash(1);
        sim.inject(0, 5);
        let out = drain(&mut sim, 1_000);
        assert!(out.is_empty());
        assert!(sim.metrics().messages_dropped >= 1);
    }

    #[test]
    fn pause_and_resume_steers_schedule() {
        let mut sim = two_pingpong(1);
        sim.pause_channel(0, 1);
        sim.inject(0, 3); // 0 sends 2 to 1, but channel is held
        let out = drain(&mut sim, 1_000);
        assert!(out.is_empty());
        assert!(!sim.is_quiet() || sim.pending_events() == 0);
        sim.resume_channel(0, 1);
        let out = drain(&mut sim, 1_000);
        // 3 -> 2 -> 1 -> 0: the countdown reaches zero at process 1.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 1);
        assert!(sim.is_quiet());
        assert!(sim.metrics().messages_delivered >= 3);
    }

    #[test]
    fn pump_until_finds_output() {
        let mut sim = two_pingpong(9);
        sim.inject(0, 6);
        let hit = sim.pump_until(10_000, 1, &mut |_, _, o| (o == 0).then_some(()));
        assert!(hit.is_some());
    }

    #[test]
    fn env_commands_are_fifo() {
        struct Collect(Vec<u32>);
        impl Automaton<u32, Vec<u32>> for Collect {
            fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, Vec<u32>>) {
                self.0.push(msg);
                if self.0.len() == 5 {
                    ctx.output(self.0.clone());
                }
            }
        }
        let mut sim: Simulation<u32, Vec<u32>> =
            Simulation::new(SimConfig::seeded(11).with_delay(DelayModel::uniform(1, 50)));
        sim.add_process(Box::new(Collect(Vec::new())));
        for i in 0..5 {
            sim.inject(0, i);
        }
        let out = drain(&mut sim, 100);
        assert_eq!(out[0].2, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn preload_models_stale_in_transit_messages() {
        let mut sim = two_pingpong(2);
        sim.preload_channel(1, 0, vec![0, 0]);
        let out = drain(&mut sim, 100);
        // Both stale messages trigger outputs at process 0.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn restart_recovers_a_crashed_process() {
        let mut sim = two_pingpong(5);
        sim.crash(1);
        sim.inject(0, 5);
        assert!(drain(&mut sim, 1_000).is_empty());
        sim.restart(1, Box::new(PingPong));
        sim.inject(0, 4);
        let out = drain(&mut sim, 1_000);
        assert_eq!(out.len(), 1, "recovered process participates again");
    }

    #[test]
    fn restart_invalidates_stale_timers() {
        /// Arms a timer on start; outputs if it ever fires.
        struct Armed;
        impl Automaton<u32, u32> for Armed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u32>) {
                ctx.set_timer(10, 1);
            }
            fn on_timer(&mut self, _id: u64, ctx: &mut Ctx<'_, u32, u32>) {
                ctx.output(99);
            }
            fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Ctx<'_, u32, u32>) {}
        }
        /// Never arms anything.
        struct Inert;
        impl Automaton<u32, u32> for Inert {
            fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Ctx<'_, u32, u32>) {}
        }
        let mut sim: Simulation<u32, u32> = Simulation::new(SimConfig::seeded(0));
        sim.add_process(Box::new(Armed));
        sim.start();
        sim.restart(0, Box::new(Inert));
        let out = drain(&mut sim, 100);
        assert!(out.is_empty(), "old incarnation's timer must not fire: {out:?}");
    }

    #[test]
    fn halt_discards_pending_events() {
        let mut sim = two_pingpong(6);
        sim.inject(0, 10);
        sim.step();
        assert!(!sim.is_quiet());
        let delivered = sim.metrics().messages_delivered;
        sim.halt();
        assert!(sim.is_quiet());
        assert!(sim.step().is_none());
        assert_eq!(sim.metrics().messages_delivered, delivered, "halt ran no protocol work");
    }

    #[test]
    fn cut_link_fault_partitions_and_heals() {
        let mut sim = two_pingpong(8);
        sim.set_link_fault(0, 1, Some(LinkFault::cut()));
        sim.inject(0, 3); // 0's first hop toward 1 is dropped on the floor
        let out = drain(&mut sim, 1_000);
        assert!(out.is_empty());
        assert!(sim.is_quiet(), "dropped messages leave nothing pending");
        sim.set_link_fault(0, 1, None);
        sim.inject(0, 3);
        let out = drain(&mut sim, 1_000);
        assert_eq!(out.len(), 1, "healed link flows again");
    }

    #[test]
    fn duplicating_link_delivers_twice() {
        let mut sim = two_pingpong(9);
        sim.set_link_fault(1, 0, Some(LinkFault::flaky(0.0, 1.0, 0)));
        sim.inject(0, 2); // 0 -> 1 (clean), 1 -> 0 (duplicated), msg 0 at 0 twice
        let out = drain(&mut sim, 1_000);
        assert_eq!(out.len(), 2, "duplicate of the final hop triggers a second output");
    }

    #[test]
    fn enabled_events_list_channel_heads_and_step_key_consumes_them() {
        let mut sim = two_pingpong(3);
        sim.inject(0, 3);
        assert_eq!(sim.enabled_events(), vec![EventKey::Channel { from: ENV, to: 0 }]);
        let ev = sim.step_key(EventKey::Channel { from: ENV, to: 0 }).expect("enabled");
        assert_eq!(ev.pid, 0);
        // 0 forwarded the countdown to 1; the env channel is now empty.
        assert_eq!(sim.enabled_events(), vec![EventKey::Channel { from: 0, to: 1 }]);
        // Stepping a key that is not enabled is a no-op returning None.
        assert!(sim.step_key(EventKey::Channel { from: ENV, to: 0 }).is_none());
        assert_eq!(sim.enabled_events(), vec![EventKey::Channel { from: 0, to: 1 }]);
    }

    #[test]
    #[should_panic(
        expected = "schedule exploration (enabled_events/step_key) requires batching off"
    )]
    fn enabled_events_panics_when_batching_is_on() {
        // Batching holds messages in the LinkBatcher outside the event
        // queue, so an explorer would report quiescence with messages still
        // pending. The exploration API must refuse, not mislead.
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(3).with_batching(BatchPolicy::new(4, 2)));
        sim.add_process(Box::new(PingPong));
        sim.add_process(Box::new(PingPong));
        sim.inject(0, 3);
        let _ = sim.enabled_events();
    }

    #[test]
    #[should_panic(
        expected = "schedule exploration (enabled_events/step_key) requires batching off"
    )]
    fn step_key_panics_when_batching_is_on() {
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(3).with_batching(BatchPolicy::new(4, 2)));
        sim.add_process(Box::new(PingPong));
        sim.add_process(Box::new(PingPong));
        sim.inject(0, 3);
        let _ = sim.step_key(EventKey::Channel { from: ENV, to: 0 });
    }

    #[test]
    fn step_key_preserves_per_channel_fifo_order() {
        struct Collect(Vec<u32>);
        impl Automaton<u32, u32> for Collect {
            fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
                self.0.push(msg);
                ctx.output(msg);
            }
        }
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(4).with_delay(DelayModel::uniform(1, 40)));
        sim.add_process(Box::new(Collect(Vec::new())));
        for i in 0..5 {
            sim.inject(0, i);
        }
        let mut seen = Vec::new();
        while let Some(ev) = sim.step_key(EventKey::Channel { from: ENV, to: 0 }) {
            seen.extend(ev.outputs);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "step_key must take channel heads in FIFO order");
        assert!(sim.enabled_events().is_empty());
    }

    #[test]
    fn enabled_events_exclude_crashed_and_stale() {
        let mut sim = two_pingpong(5);
        sim.inject(1, 4);
        sim.crash(1);
        assert!(sim.enabled_events().is_empty(), "deliveries to a crashed pid are dead");
        // Stale timers (armed by a superseded incarnation) are dead too.
        struct Armed;
        impl Automaton<u32, u32> for Armed {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u32>) {
                ctx.set_timer(10, 1);
            }
            fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Ctx<'_, u32, u32>) {}
        }
        struct Inert;
        impl Automaton<u32, u32> for Inert {
            fn on_message(&mut self, _: ProcessId, _: u32, _: &mut Ctx<'_, u32, u32>) {}
        }
        let mut sim: Simulation<u32, u32> = Simulation::new(SimConfig::seeded(0));
        sim.add_process(Box::new(Armed));
        sim.start();
        assert_eq!(sim.enabled_events(), vec![EventKey::Timer { pid: 0, id: 1 }]);
        sim.restart(0, Box::new(Inert));
        assert!(sim.enabled_events().is_empty());
        assert!(sim.step_key(EventKey::Timer { pid: 0, id: 1 }).is_none());
    }

    #[test]
    fn step_key_keeps_time_monotone_across_out_of_order_picks() {
        // Two independent channels; pick the later-scheduled head first.
        struct Sink;
        impl Automaton<u32, u32> for Sink {
            fn on_message(&mut self, _: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
                ctx.output(msg);
            }
        }
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(7).with_delay(DelayModel::uniform(1, 100)));
        sim.add_process(Box::new(Sink));
        sim.add_process(Box::new(Sink));
        sim.inject(0, 10);
        sim.inject(1, 20);
        let t1 = sim.step_key(EventKey::Channel { from: ENV, to: 1 }).expect("enabled").time;
        let t0 = sim.step_key(EventKey::Channel { from: ENV, to: 0 }).expect("enabled").time;
        assert!(t0 > t1, "logical time must advance even for an earlier-queued pick");
        assert!(sim.enabled_events().is_empty());
    }

    #[test]
    fn step_key_interleavings_agree_on_unit_delay_outcomes() {
        // With unit delays no randomness is consumed per delivery, so any
        // exploration order reaches the same quiescent outcome.
        let run = |order: &[usize]| {
            let mut sim: Simulation<u32, u32> =
                Simulation::new(SimConfig::seeded(1).with_delay(DelayModel::unit()));
            sim.add_process(Box::new(PingPong));
            sim.add_process(Box::new(PingPong));
            sim.inject(0, 4);
            sim.inject(1, 4);
            let mut outputs = Vec::new();
            let mut cursor = 0;
            loop {
                let enabled = sim.enabled_events();
                if enabled.is_empty() {
                    break;
                }
                let pick = enabled[order[cursor % order.len()] % enabled.len()];
                cursor += 1;
                outputs.extend(sim.step_key(pick).expect("enabled key steps").outputs);
            }
            outputs.sort_unstable();
            (outputs, sim.metrics().messages_delivered, sim.metrics().messages_sent)
        };
        assert_eq!(run(&[0]), run(&[1, 0, 1]), "schedule choice must not change outcomes");
    }

    /// Fans `msg` messages 0..msg to process 1 on an env command.
    struct Fan;
    impl Automaton<u32, u32> for Fan {
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
            if from == ENV {
                for i in 0..msg {
                    ctx.send(1, i);
                }
            }
        }
    }
    /// Outputs every message it receives, in arrival order.
    struct Echo;
    impl Automaton<u32, u32> for Echo {
        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
            ctx.output(msg);
        }
    }

    #[test]
    fn tick_watermark_flushes_stragglers() {
        // A single sub-watermark message must still arrive (via Flush).
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(1).with_batching(BatchPolicy::new(64, 3)));
        sim.add_process(Box::new(Fan));
        sim.add_process(Box::new(Echo));
        sim.inject(0, 1);
        let out = drain(&mut sim, 1_000);
        assert_eq!(out.len(), 1, "pending batch must flush on the tick watermark");
        assert!(sim.is_quiet());
        assert_eq!(sim.metrics().frames_delivered, 2); // inject + flushed frame
    }

    #[test]
    fn batched_runs_are_deterministic_per_seed() {
        // Ping-pong is strictly sequential, so batching only re-frames.
        let run = || {
            let mut sim: Simulation<u32, u32> =
                Simulation::new(SimConfig::seeded(21).with_batching(BatchPolicy::new(8, 2)));
            sim.add_process(Box::new(PingPong));
            sim.add_process(Box::new(PingPong));
            sim.inject(0, 12);
            let outs = drain(&mut sim, 10_000);
            let m = sim.metrics();
            (outs, m.messages_delivered, m.frames_delivered)
        };
        assert_eq!(run(), run(), "same seed + same policy must replay exactly");
        let (_, delivered, frames) = run();
        assert_eq!(delivered, 13, "logical count matches the unbatched protocol");
        assert_eq!(frames, 13, "sequential traffic never coalesces");
    }

    #[test]
    fn crashed_destination_drops_whole_frames() {
        let mut sim: Simulation<u32, u32> =
            Simulation::new(SimConfig::seeded(2).with_batching(BatchPolicy::new(4, 2)));
        sim.add_process(Box::new(Fan));
        sim.add_process(Box::new(Echo));
        sim.crash(1);
        sim.inject(0, 8);
        let out = drain(&mut sim, 1_000);
        assert!(out.is_empty());
        assert_eq!(sim.metrics().messages_dropped, 8, "every batched message counts as dropped");
        assert!(sim.is_quiet());
    }
}
