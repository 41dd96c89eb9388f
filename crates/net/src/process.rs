//! Sans-IO process automata.
//!
//! A process is a deterministic state machine reacting to delivered
//! messages; all effects (sends, timers, observable outputs) go through the
//! [`Ctx`] handed to each callback. The same automaton therefore runs
//! unchanged under the discrete-event simulator and the threaded runtime.
//!
//! **Composition rule: an automaton hosted inside another is handed the
//! host's context.** The host marks how much is queued, lets the hosted
//! automaton write its effects straight into the [`Ctx`] it was given, and
//! afterwards re-addresses in place what was added since the mark
//! ([`Ctx::sent_mut`], [`Ctx::armed_mut`], [`Ctx::emitted_mut`]; [`Ctx::me`]
//! is a plain field the host may set for the call). No second context, no
//! copy of the effects.

use rand::rngs::StdRng;

/// Index of a process within a simulation/cluster.
pub type ProcessId = usize;

/// The distinguished "environment" process: operation invocations and other
/// driver commands are delivered as messages *from* `ENV`.
pub const ENV: ProcessId = usize::MAX;

/// Effect sink passed to every automaton callback.
///
/// `M` is the protocol's wire message type; `O` the observable output type
/// (operation completions, decisions, diagnostics) collected by the harness.
pub struct Ctx<'a, M, O> {
    /// The acting process.
    pub me: ProcessId,
    /// Current virtual time (simulator) or a monotonic tick (threaded).
    pub now: u64,
    pub(crate) outbox: Vec<(ProcessId, M)>,
    pub(crate) outputs: Vec<O>,
    pub(crate) timers: Vec<(u64, u64)>,
    pub(crate) rng: &'a mut StdRng,
}

/// The three effect buffers a runtime keeps across callbacks. Each
/// callback's [`Ctx`] borrows them empty ([`Ctx::lend`]) and hands them back
/// full ([`Ctx::give_back`]); the runtime drains them in place, so a
/// callback that sends reuses their capacity instead of allocating anew.
pub(crate) struct Buffers<M, O> {
    pub(crate) outbox: Vec<(ProcessId, M)>,
    pub(crate) outputs: Vec<O>,
    pub(crate) timers: Vec<(u64, u64)>,
}

impl<M, O> Default for Buffers<M, O> {
    fn default() -> Self {
        Self { outbox: Vec::new(), outputs: Vec::new(), timers: Vec::new() }
    }
}

impl<'a, M, O> Ctx<'a, M, O> {
    pub(crate) fn new(me: ProcessId, now: u64, rng: &'a mut StdRng) -> Self {
        Self { me, now, outbox: Vec::new(), outputs: Vec::new(), timers: Vec::new(), rng }
    }

    /// A context whose effects land in `bufs`' (drained) buffers.
    pub(crate) fn lend(
        me: ProcessId,
        now: u64,
        rng: &'a mut StdRng,
        bufs: &mut Buffers<M, O>,
    ) -> Self {
        Self {
            me,
            now,
            outbox: std::mem::take(&mut bufs.outbox),
            outputs: std::mem::take(&mut bufs.outputs),
            timers: std::mem::take(&mut bufs.timers),
            rng,
        }
    }

    /// Return the lent buffers, now holding this callback's effects.
    pub(crate) fn give_back(self, bufs: &mut Buffers<M, O>) {
        bufs.outbox = self.outbox;
        bufs.outputs = self.outputs;
        bufs.timers = self.timers;
    }

    /// Build a context outside any substrate — for unit-testing automata
    /// in isolation. Effects are inspected with [`Ctx::sent`],
    /// [`Ctx::emitted`] and [`Ctx::drain`].
    pub fn detached(me: ProcessId, now: u64, rng: &'a mut StdRng) -> Self {
        Self::new(me, now, rng)
    }

    /// Messages queued so far, as `(to, message)`.
    pub fn sent(&self) -> &[(ProcessId, M)] {
        &self.outbox
    }

    /// The queued messages, re-addressable in place by a host automaton.
    pub fn sent_mut(&mut self) -> &mut [(ProcessId, M)] {
        &mut self.outbox
    }

    /// Outputs emitted so far.
    pub fn emitted(&self) -> &[O] {
        &self.outputs
    }

    /// The emitted outputs, which a host automaton may rewrite or hold
    /// back (remove) past its mark.
    pub fn emitted_mut(&mut self) -> &mut Vec<O> {
        &mut self.outputs
    }

    /// Timers armed so far, as `(delay, id)`, re-numberable in place by a
    /// host automaton.
    pub fn armed_mut(&mut self) -> &mut [(u64, u64)] {
        &mut self.timers
    }

    /// Take all queued effects: `(sends, outputs, timers)` (testing aid).
    #[allow(clippy::type_complexity)]
    pub fn drain(&mut self) -> (Vec<(ProcessId, M)>, Vec<O>, Vec<(u64, u64)>) {
        (
            std::mem::take(&mut self.outbox),
            std::mem::take(&mut self.outputs),
            std::mem::take(&mut self.timers),
        )
    }

    /// Send `msg` to `to` over the (reliable, FIFO) channel.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Send `msg` to every process in `dests`.
    pub fn broadcast(&mut self, dests: impl IntoIterator<Item = ProcessId>, msg: M)
    where
        M: Clone,
    {
        for d in dests {
            self.outbox.push((d, msg.clone()));
        }
    }

    /// Emit an observable output (collected by the driver/harness).
    pub fn output(&mut self, o: O) {
        self.outputs.push(o);
    }

    /// Request an `on_timer(id)` callback after `delay` time units.
    pub fn set_timer(&mut self, delay: u64, id: u64) {
        self.timers.push((delay, id));
    }

    /// Source of randomness (seeded; deterministic under the simulator).
    /// Correct protocol automata must not need it — it exists for
    /// adversaries and randomized workloads.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A sans-IO event-driven process.
pub trait Automaton<M, O>: Send {
    /// Called once before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M, O>) {}

    /// A message from `from` (possibly [`ENV`]) was delivered.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M, O>);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _id: u64, _ctx: &mut Ctx<'_, M, O>) {}

    /// Transient fault: scramble local state arbitrarily. Protocol automata
    /// override this to model the paper's corrupted initial configurations;
    /// the default is a no-op (stateless processes have nothing to corrupt).
    fn corrupt(&mut self, _rng: &mut StdRng) {}

    /// Optional typed access to the automaton state, used by tests and
    /// experiment harnesses to inspect or steer a process (e.g. reading a
    /// server's stored timestamp, or scripting a Byzantine reply). Protocol
    /// automata override this with `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    // Unused: kept only because the frozen `benchmark/src/trace.rs:464`
    // forwards it; it goes with the `[benchmark]` unfreeze (ROADMAP item 3).
    #[doc(hidden)]
    fn state_digest(&self) -> Option<u64> {
        None
    }
}

/// Blanket boxing support so simulations can store heterogeneous automata.
impl<M, O> Automaton<M, O> for Box<dyn Automaton<M, O>> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, O>) {
        (**self).on_start(ctx)
    }
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M, O>) {
        (**self).on_message(from, msg, ctx)
    }
    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, M, O>) {
        (**self).on_timer(id, ctx)
    }
    fn corrupt(&mut self, rng: &mut StdRng) {
        (**self).corrupt(rng)
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Echo;
    impl Automaton<u32, u32> for Echo {
        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32, u32>) {
            ctx.send(from, msg + 1);
            ctx.output(msg);
        }
    }

    #[test]
    fn ctx_collects_effects() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::new(3, 17, &mut rng);
        let mut a = Echo;
        a.on_message(5, 10, &mut ctx);
        assert_eq!(ctx.outbox, vec![(5, 11)]);
        assert_eq!(ctx.outputs, vec![10]);
        assert_eq!(ctx.me, 3);
        assert_eq!(ctx.now, 17);
    }

    #[test]
    fn broadcast_clones_to_all() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx: Ctx<'_, u32, ()> = Ctx::new(0, 0, &mut rng);
        ctx.broadcast(0..3, 9);
        assert_eq!(ctx.outbox, vec![(0, 9), (1, 9), (2, 9)]);
    }

    #[test]
    fn boxed_automaton_dispatches() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::new(0, 0, &mut rng);
        let mut boxed: Box<dyn Automaton<u32, u32>> = Box::new(Echo);
        boxed.on_message(1, 1, &mut ctx);
        assert_eq!(ctx.outbox.len(), 1);
    }
}
