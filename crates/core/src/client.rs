//! The client automaton: operation dispatch over the writer and reader
//! state machines, plus the persistent per-client bookkeeping (`last` read
//! label, the `recent_labels` matrix, `recent_vals`).
//!
//! One client runs at most one operation at a time (operations of the same
//! client are sequential by definition of the register interface); an
//! `Invoke*` command arriving mid-operation is dropped with a diagnostic
//! event. Clients of *different* processes run concurrently, which is where
//! regularity earns its keep.
//!
//! Transient faults (the `corrupt` hook) scramble everything the paper
//! lists as client state: the read-label matrix, the cached recent values
//! (with ill-formed labels), and the last-used labels — but leave the
//! automaton in `Idle` (a client hit mid-operation is equivalent to one
//! whose operation was dropped; the driver times it out).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use sbft_labels::{LabelingSystem, ReadLabel, ReadLabelPool, WriterId};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::cluster::{Envelope, Plain};
use crate::config::ClusterConfig;
use crate::messages::{ClientEvent, Msg, ValTs, Value};
use crate::reader::{ReadDecision, ReadPhase};
use crate::retry::RetryPolicy;
use crate::writer::WritePhase;
use crate::{Sys, Ts};

/// Timer-id encoding: `(epoch << 1) | kind`. The epoch ties a timer to one
/// specific attempt, so timers armed by finished attempts are ignored when
/// they eventually fire.
const TIMER_KIND_DEADLINE: u64 = 0;
const TIMER_KIND_BACKOFF: u64 = 1;

fn timer_id(kind: u64, epoch: u64) -> u64 {
    (epoch << 1) | kind
}

/// The operation a backoff will re-enter.
#[derive(Clone, Copy, Debug)]
enum RetryOp {
    Write(Value),
    Read,
}

/// What the client is currently doing.
#[derive(Debug)]
enum Phase<B: LabelingSystem> {
    Idle,
    Writing(WritePhase<B>),
    Reading(ReadPhase<B>),
    /// Waiting out a retry backoff before re-entering the operation.
    BackingOff(RetryOp),
}

/// A register client (reader and writer).
pub struct Client<B: LabelingSystem> {
    sys: Sys<B>,
    cfg: ClusterConfig,
    /// This client's writer identity (stamped into write timestamps).
    pub writer_id: WriterId,
    /// Bounded read-label pool + `recent_labels` matrix.
    pub pool: ReadLabelPool,
    /// `recent_vals` — per server, recently seen `(value, ts)` pairs.
    pub recent_vals: BTreeMap<ProcessId, Vec<ValTs<Ts<B>>>>,
    phase: Phase<B>,
    policy: RetryPolicy,
    /// Attempt number of the in-flight operation (1-based; 0 when idle).
    attempt: u32,
    /// Attempt epoch for timer-id validation; bumped whenever the current
    /// attempt ends (success, failure, retry, or corruption).
    epoch: u64,
}

impl<B: LabelingSystem> Client<B> {
    /// A clean client with the given writer identity.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig, writer_id: WriterId) -> Self {
        Self::with_retry(sys, cfg, writer_id, RetryPolicy::none())
    }

    /// A clean client with an explicit retry/timeout/backoff policy.
    pub fn with_retry(
        sys: Sys<B>,
        cfg: ClusterConfig,
        writer_id: WriterId,
        policy: RetryPolicy,
    ) -> Self {
        let pool = ReadLabelPool::new(cfg.n, cfg.read_labels);
        Self {
            sys,
            cfg,
            writer_id,
            pool,
            recent_vals: BTreeMap::new(),
            phase: Phase::Idle,
            policy,
            attempt: 0,
            epoch: 0,
        }
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// Begin (or re-begin) an operation attempt: bump the epoch, arm the
    /// deadline timer if the policy has one, and enter the protocol.
    fn begin_attempt<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        op: RetryOp,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        self.epoch += 1;
        if self.policy.deadline > 0 {
            ctx.set_timer(self.policy.deadline, timer_id(TIMER_KIND_DEADLINE, self.epoch));
        }
        match op {
            RetryOp::Write(value) => self.start_write::<W>(key, value, ctx),
            RetryOp::Read => self.start_read::<W>(key, ctx),
        }
    }

    /// End the in-flight operation successfully: invalidate its timers and
    /// reset the attempt counter.
    fn op_done(&mut self) {
        self.epoch += 1;
        self.attempt = 0;
        self.phase = Phase::Idle;
    }

    /// The current attempt failed (`timed_out` says how). Either schedule a
    /// backed-off retry or surface the typed failure event.
    fn fail_or_retry<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        op: RetryOp,
        timed_out: bool,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        self.epoch += 1; // the failed attempt's timers are now stale
        if self.attempt < self.policy.max_attempts {
            self.attempt += 1;
            self.phase = Phase::BackingOff(op);
            let delay = self.policy.backoff(self.attempt, ctx.rng());
            ctx.set_timer(delay, timer_id(TIMER_KIND_BACKOFF, self.epoch));
            return;
        }
        let attempts = self.attempt;
        self.attempt = 0;
        self.phase = Phase::Idle;
        let failed = match op {
            RetryOp::Write(value) => ClientEvent::WriteFailed { value, timed_out, attempts },
            RetryOp::Read => ClientEvent::ReadFailed { timed_out, attempts },
        };
        ctx.output(W::emit(key, failed));
    }

    /// The deadline timer of the current attempt fired: abandon whatever
    /// phase the attempt is in and fail or retry.
    fn deadline_expired<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        let op = match &self.phase {
            Phase::Idle | Phase::BackingOff(_) => return, // nothing in flight
            Phase::Writing(w) => RetryOp::Write(w.value),
            Phase::Reading(r) => {
                // Release the servers forwarding to this read's label.
                let label = r.label;
                ctx.broadcast(self.cfg.server_ids(), W::wrap(key, Msg::CompleteRead { label }));
                RetryOp::Read
            }
        };
        self.fail_or_retry::<W>(key, op, true, ctx);
    }

    fn start_write<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        value: Value,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        self.phase = Phase::Writing(WritePhase::new(value));
        ctx.broadcast(self.cfg.server_ids(), W::wrap(key, Msg::GetTs));
    }

    fn start_read<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        // find_read_label, step 1: candidate ≠ last (Figure 3a line 01).
        let label = self.pool.candidate();
        self.pool.adopt(label);
        self.phase = Phase::Reading(ReadPhase::new(label));
        // Step 2: FLUSH to every server (Figure 3a line 04).
        ctx.broadcast(self.cfg.server_ids(), W::wrap(key, Msg::Flush { label }));
    }

    /// Store a historical pair for `server`, newest first, bounded by the
    /// cluster's history depth.
    fn remember(&mut self, server: ProcessId, pair: ValTs<Ts<B>>) {
        let slot = self.recent_vals.entry(server).or_default();
        slot.insert(0, pair);
        slot.truncate(self.cfg.history_depth);
    }

    fn finish_read<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        decision: ReadDecision<B>,
        safe: Vec<ProcessId>,
        label: ReadLabel,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        // COMPLETE_READ to the safe set (Figure 2a lines 12/20).
        for s in safe {
            ctx.send(s, W::wrap(key, Msg::CompleteRead { label }));
        }
        match decision {
            ReadDecision::Return { value, ts, via_union } => {
                self.op_done();
                ctx.output(W::emit(key, ClientEvent::ReadDone { value, ts, via_union }));
            }
            ReadDecision::Abort => {
                if self.policy.max_attempts > 1 {
                    // Transitory phase: retry silently instead of surfacing
                    // the abort; the stabilization argument guarantees a
                    // later attempt decides once a write completes.
                    self.fail_or_retry::<W>(key, RetryOp::Read, false, ctx);
                    return;
                }
                self.op_done();
                ctx.output(W::emit(key, ClientEvent::ReadAborted));
            }
        }
    }

    /// The client's reaction to `msg` from `from`, as the register `key` of
    /// the envelope `W`: every send and output goes into `ctx` already
    /// addressed under `key`, so a store client hosting one `Client` per
    /// key hands each its own context. [`Automaton::on_message`] is the
    /// [`Plain`] instance.
    pub fn handle<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        match msg {
            // ---- environment commands ----
            Msg::InvokeWrite { value } if from == ENV => {
                if self.is_busy() {
                    return; // one op at a time per client
                }
                self.attempt = 1;
                self.begin_attempt::<W>(key, RetryOp::Write(value), ctx);
            }
            Msg::InvokeRead if from == ENV => {
                if self.is_busy() {
                    return;
                }
                self.attempt = 1;
                self.begin_attempt::<W>(key, RetryOp::Read, ctx);
            }

            // ---- write protocol replies ----
            Msg::TsReply { ts } => {
                if let Phase::Writing(w) = &mut self.phase {
                    if let Some(new_ts) =
                        w.on_ts_reply(&self.sys, &self.cfg, self.writer_id, from, ts)
                    {
                        let write = Msg::Write { value: w.value, ts: new_ts };
                        ctx.broadcast(self.cfg.server_ids(), W::wrap(key, write));
                    }
                }
            }
            Msg::WriteAck { ts, ack } => {
                if let Phase::Writing(w) = &mut self.phase {
                    match w.on_write_ack(&self.cfg, from, &ts, ack) {
                        crate::writer::WriteProgress::Done => {
                            let value = w.value;
                            self.op_done();
                            ctx.output(W::emit(key, ClientEvent::WriteDone { value, ts }));
                        }
                        crate::writer::WriteProgress::Retry => {
                            ctx.broadcast(self.cfg.server_ids(), W::wrap(key, Msg::GetTs));
                        }
                        crate::writer::WriteProgress::Pending => {}
                    }
                }
            }

            // ---- read protocol replies ----
            Msg::FlushAck { label } => {
                let label = self.pool.sanitize(label);
                // Figure 3a line 12: clear the matrix entry in any case.
                self.pool.clear_pending(from, label);
                if let Phase::Reading(r) = &mut self.phase {
                    if r.on_flush_ack(&self.cfg, from, label) {
                        // Figure 3a lines 14–15: the server is safe; send it
                        // the read request and re-mark the label pending.
                        ctx.send(from, W::wrap(key, Msg::Read { label }));
                        self.pool.mark_pending(from, label);
                    }
                }
            }
            Msg::Reply { value, ts, old, label } => {
                let label = self.pool.sanitize(label);
                // Figure 2a line 27: the matrix entry clears in any case.
                self.pool.clear_pending(from, label);
                let mut decided: Option<(ReadDecision<B>, Vec<ProcessId>, ReadLabel)> = None;
                let mut superseded_pair: Option<ValTs<Ts<B>>> = None;
                if let Phase::Reading(r) = &mut self.phase {
                    let (accepted, superseded) =
                        r.on_reply(&self.sys, &self.cfg, from, value, ts, label);
                    if accepted {
                        // Figure 2a line 25: adopt the server's history.
                        let hist: Vec<ValTs<Ts<B>>> = old
                            .iter()
                            .take(self.cfg.history_depth)
                            .map(|(v, t)| (*v, self.sys.sanitize(t.clone())))
                            .collect();
                        self.recent_vals.insert(from, hist);
                        superseded_pair = superseded;
                    }
                }
                if let Some(prev) = superseded_pair {
                    self.remember(from, prev);
                }
                if let Phase::Reading(r) = &mut self.phase {
                    if r.quorum_reached(&self.cfg) {
                        let d = r.decide(&self.sys, &self.cfg, &self.recent_vals);
                        let safe: Vec<ProcessId> = r.safe.iter().copied().collect();
                        decided = Some((d, safe, r.label));
                    }
                }
                if let Some((d, safe, label)) = decided {
                    self.finish_read::<W>(key, d, safe, label, ctx);
                }
            }

            // Anything else (server-bound traffic echoed back by garbage,
            // stale requests) is ignored.
            _ => {}
        }
    }

    /// The timer `id` this client armed (as the register `key` of `W`)
    /// fired. [`Automaton::on_timer`] is the [`Plain`] instance.
    pub fn timer<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        id: u64,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        let (kind, epoch) = (id & 1, id >> 1);
        if epoch != self.epoch {
            return; // armed by a finished attempt
        }
        if kind == TIMER_KIND_DEADLINE {
            self.deadline_expired::<W>(key, ctx);
        } else if let Phase::BackingOff(op) = self.phase {
            self.begin_attempt::<W>(key, op, ctx);
        }
    }
}

impl<B: LabelingSystem> Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>> for Client<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>,
    ) {
        self.handle::<Plain<B>>((), from, msg, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>) {
        self.timer::<Plain<B>>((), id, ctx);
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        // Scramble the recent_labels matrix with arbitrary bits.
        let bits: Vec<bool> =
            (0..self.cfg.n * self.cfg.read_labels).map(|_| rng.gen::<bool>()).collect();
        self.pool.corrupt_with(bits.into_iter());
        // Poison cached recent values with garbage pairs.
        self.recent_vals.clear();
        for s in 0..self.cfg.n {
            if rng.gen::<bool>() {
                let junk: Vec<ValTs<Ts<B>>> = (0..rng.gen_range(0..=self.cfg.history_depth))
                    .map(|_| (rng.gen::<Value>(), self.sys.arbitrary(rng)))
                    .collect();
                self.recent_vals.insert(s, junk);
            }
        }
        self.phase = Phase::Idle;
        self.epoch += 1; // any armed timer belongs to the pre-fault attempt
        self.attempt = 0;
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;
    type M = Msg<Ts<B>>;
    type E = ClientEvent<Ts<B>>;

    fn client() -> Client<B> {
        let cfg = ClusterConfig::stabilizing(1);
        Client::new(MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg, 7)
    }

    fn deliver(c: &mut Client<B>, from: ProcessId, msg: M) -> (Vec<(ProcessId, M)>, Vec<E>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(6, 0, &mut rng);
        c.on_message(from, msg, &mut ctx);
        let (sends, outs, _) = ctx.drain();
        (sends, outs)
    }

    #[test]
    fn invoke_write_broadcasts_get_ts() {
        let mut c = client();
        let (sends, _) = deliver(&mut c, ENV, Msg::InvokeWrite { value: 5 });
        assert_eq!(sends.len(), 6);
        assert!(sends.iter().all(|(_, m)| matches!(m, Msg::GetTs)));
        assert!(c.is_busy());
    }

    #[test]
    fn write_completes_through_both_phases() {
        let mut c = client();
        deliver(&mut c, ENV, Msg::InvokeWrite { value: 5 });
        let g = c.sys.genesis();
        let mut write_msg = None;
        for s in 0..5 {
            let (sends, _) = deliver(&mut c, s, Msg::TsReply { ts: g.clone() });
            if !sends.is_empty() {
                assert_eq!(sends.len(), 6);
                write_msg = Some(sends[0].1.clone());
            }
        }
        let Some(Msg::Write { ts, .. }) = write_msg else {
            panic!("expected WRITE broadcast after quorum")
        };
        let mut done = Vec::new();
        for s in 0..5 {
            let (_, outs) = deliver(&mut c, s, Msg::WriteAck { ts: ts.clone(), ack: true });
            done.extend(outs);
        }
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0], ClientEvent::WriteDone { value: 5, .. }));
        assert!(!c.is_busy());
    }

    #[test]
    fn invoke_while_busy_is_dropped() {
        let mut c = client();
        deliver(&mut c, ENV, Msg::InvokeWrite { value: 5 });
        let (sends, outs) = deliver(&mut c, ENV, Msg::InvokeWrite { value: 6 });
        assert!(sends.is_empty());
        assert!(outs.is_empty());
    }

    #[test]
    fn read_flush_then_reads_then_decision() {
        let mut c = client();
        let (sends, _) = deliver(&mut c, ENV, Msg::InvokeRead);
        assert_eq!(sends.len(), 6);
        let Msg::Flush { label } = sends[0].1 else { panic!("expected FLUSH") };
        // Each FLUSH_ACK triggers a READ to that server.
        let g = c.sys.genesis();
        let t = c.sys.next_for(7, std::slice::from_ref(&g));
        let mut events = Vec::new();
        for s in 0..5 {
            let (sends, _) = deliver(&mut c, s, Msg::FlushAck { label });
            assert!(matches!(sends[0].1, Msg::Read { .. }));
            let (sends, outs) =
                deliver(&mut c, s, Msg::Reply { value: 9, ts: t.clone(), old: [].into(), label });
            events.extend(outs);
            if s == 4 {
                // Decision sends COMPLETE_READ to the safe set.
                assert!(sends.iter().all(|(_, m)| matches!(m, Msg::CompleteRead { .. })));
                assert_eq!(sends.len(), 5);
            }
        }
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], ClientEvent::ReadDone { value: 9, via_union: false, .. }));
        assert!(!c.is_busy());
    }

    #[test]
    fn replies_before_flush_ack_are_not_counted() {
        let mut c = client();
        let (sends, _) = deliver(&mut c, ENV, Msg::InvokeRead);
        let Msg::Flush { label } = sends[0].1 else { panic!() };
        let g = c.sys.genesis();
        // Five replies from servers that never flush-acked: no decision.
        let mut events = Vec::new();
        for s in 0..5 {
            let (_, outs) =
                deliver(&mut c, s, Msg::Reply { value: 9, ts: g.clone(), old: [].into(), label });
            events.extend(outs);
        }
        assert!(events.is_empty());
        assert!(c.is_busy());
    }

    #[test]
    fn successive_reads_use_different_labels() {
        let mut c = client();
        let (sends, _) = deliver(&mut c, ENV, Msg::InvokeRead);
        let Msg::Flush { label: l1 } = sends[0].1 else { panic!() };
        // Finish the read quickly.
        let g = c.sys.genesis();
        for s in 0..5 {
            deliver(&mut c, s, Msg::FlushAck { label: l1 });
            deliver(&mut c, s, Msg::Reply { value: 0, ts: g.clone(), old: [].into(), label: l1 });
        }
        assert!(!c.is_busy());
        let (sends, _) = deliver(&mut c, ENV, Msg::InvokeRead);
        let Msg::Flush { label: l2 } = sends[0].1 else { panic!() };
        assert_ne!(l1, l2, "Figure 3a line 01: new label differs from last");
    }

    #[test]
    fn corrupt_resets_phase_and_scrambles_pool() {
        let mut c = client();
        deliver(&mut c, ENV, Msg::InvokeWrite { value: 1 });
        assert!(c.is_busy());
        let mut rng = StdRng::seed_from_u64(9);
        c.corrupt(&mut rng);
        assert!(!c.is_busy());
    }

    #[test]
    fn stale_labels_from_network_are_sanitized() {
        let mut c = client();
        deliver(&mut c, ENV, Msg::InvokeRead);
        // A garbage FLUSH_ACK with an out-of-pool label must not panic and
        // must not join the safe set under the wrong label.
        let (_sends, outs) = deliver(&mut c, 0, Msg::FlushAck { label: 999_999 });
        assert!(outs.is_empty());
    }
}
