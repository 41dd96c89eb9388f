//! Per-directed-link message coalescing.
//!
//! The paper's protocol broadcasts to all `n` servers in every phase, so a
//! client operation costs ~28–33 *logical* messages. Most of them travel the
//! same few directed links within the same instant of a pump round, which is
//! exactly the situation link batching exploits: a [`LinkBatcher`] queues
//! outgoing messages per `(src, dst)` link and the substrate ships each queue
//! as one [`Frame`] — one wire transfer, one delivery event — either when the
//! queue reaches the **size watermark** (`max_batch`) or when the **tick
//! watermark** (`flush_ticks`) expires for messages that would otherwise
//! linger. Replies and acks produced while a frame is being applied coalesce
//! into frames of their own (batch-in → batch-out), which is how FLUSH_ACKs
//! piggyback on data frames without a dedicated message type.
//!
//! FIFO is preserved per link: messages enter a link's queue in send order,
//! a size-triggered frame carries the whole queue, and a tick-triggered flush
//! drains the remainder behind it on the same channel — so the receiver
//! observes exactly the unbatched per-link order. Batching never reorders,
//! only re-frames.
//!
//! When a message ships and how it is counted (logical messages against
//! wire frames) is decided in [`crate::link`], for both substrates.

use std::collections::HashMap;

use crate::process::{Automaton, Ctx, ProcessId};

/// When a link's pending queue ships as a [`Frame`].
///
/// The default policy is **disabled** (`max_batch == 1`): every message
/// ships immediately as its own frame, byte-for-byte the pre-batching
/// behavior (and the same RNG stream, so seeded executions are unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Size watermark: a link's queue ships the moment it holds this many
    /// messages. `1` disables batching entirely.
    pub max_batch: usize,
    /// Tick watermark: pending messages that have not reached the size
    /// watermark ship at most this many ticks after the first of them was
    /// queued (sim: virtual ticks; threaded: wheel ticks).
    pub flush_ticks: u64,
}

impl BatchPolicy {
    /// Batching off: one frame per message (the default).
    pub const fn disabled() -> Self {
        Self { max_batch: 1, flush_ticks: 1 }
    }

    /// Coalesce up to `max_batch` messages per link, flushing stragglers
    /// after `flush_ticks`.
    pub fn new(max_batch: usize, flush_ticks: u64) -> Self {
        Self { max_batch: max_batch.max(1), flush_ticks: flush_ticks.max(1) }
    }

    /// Whether this policy actually coalesces anything.
    pub fn enabled(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What actually travels on a channel: a single message or a coalesced batch.
///
/// Both substrates move `Frame<M>` internally when batching is enabled; the
/// automata above never see frames — the substrate unpacks a batch into
/// consecutive `on_message` calls sharing one context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame<M> {
    /// An unbatched message (also used for a flushed queue of length one).
    One(M),
    /// A coalesced queue of ≥ 2 messages from the same directed link, in
    /// send order.
    Batch(Vec<M>),
}

impl<M> Frame<M> {
    /// Wrap a drained link queue, collapsing singletons.
    pub fn from_queue(mut msgs: Vec<M>) -> Self {
        if msgs.len() == 1 {
            Frame::One(msgs.pop().expect("len checked"))
        } else {
            Frame::Batch(msgs)
        }
    }

    /// Number of logical messages carried.
    pub fn len(&self) -> usize {
        match self {
            Frame::One(_) => 1,
            Frame::Batch(v) => v.len(),
        }
    }

    /// True when the frame carries no messages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hand every carried message to `auto`, in send order, through one
    /// shared context — so replies produced while applying a batch coalesce
    /// into outgoing frames of their own (batch-in → batch-out).
    pub fn apply<O>(
        self,
        from: ProcessId,
        auto: &mut dyn Automaton<M, O>,
        ctx: &mut Ctx<'_, M, O>,
    ) {
        match self {
            Frame::One(msg) => auto.on_message(from, msg, ctx),
            Frame::Batch(msgs) => msgs.into_iter().for_each(|m| auto.on_message(from, m, ctx)),
        }
    }
}

/// Pending per-link queues for one sender side.
///
/// Iteration order is deterministic: links drain in the order their queues
/// first became non-empty, independent of hash-map layout, so seeded
/// executions replay exactly.
#[derive(Debug, Default)]
pub struct LinkBatcher<M> {
    pending: HashMap<(ProcessId, ProcessId), Vec<M>>,
    /// Links with a non-empty queue, in first-push order.
    order: Vec<(ProcessId, ProcessId)>,
    len: usize,
}

impl<M> LinkBatcher<M> {
    /// An empty batcher.
    pub fn new() -> Self {
        Self { pending: HashMap::new(), order: Vec::new(), len: 0 }
    }

    /// Queue `msg` on the `(from, to)` link. Returns the full queue when it
    /// reached `max_batch` (the caller ships it as one frame immediately);
    /// otherwise the message waits for the size or tick watermark.
    pub fn push(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        max_batch: usize,
    ) -> Option<Vec<M>> {
        let queue = self.pending.entry((from, to)).or_default();
        if queue.is_empty() {
            self.order.push((from, to));
        }
        queue.push(msg);
        self.len += 1;
        if queue.len() >= max_batch {
            self.len -= queue.len();
            let full = std::mem::take(queue);
            self.order.retain(|&l| l != (from, to));
            Some(full)
        } else {
            None
        }
    }

    /// Drain every pending queue, in deterministic first-push link order.
    pub fn drain_all(&mut self) -> Vec<((ProcessId, ProcessId), Vec<M>)> {
        let mut out = Vec::with_capacity(self.order.len());
        for link in std::mem::take(&mut self.order) {
            if let Some(queue) = self.pending.remove(&link) {
                if !queue.is_empty() {
                    out.push((link, queue));
                }
            }
        }
        self.len = 0;
        out
    }

    /// Total messages waiting across all links.
    pub fn pending_len(&self) -> usize {
        self.len
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_ships_every_message_immediately() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new();
        let p = BatchPolicy::disabled();
        assert!(!p.enabled());
        assert_eq!(b.push(0, 1, 7, p.max_batch), Some(vec![7]));
        assert!(b.is_empty());
    }

    #[test]
    fn size_watermark_ships_a_full_queue() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new();
        assert_eq!(b.push(0, 1, 10, 3), None);
        assert_eq!(b.push(0, 1, 11, 3), None);
        assert_eq!(b.pending_len(), 2);
        assert_eq!(b.push(0, 1, 12, 3), Some(vec![10, 11, 12]));
        assert!(b.is_empty());
    }

    #[test]
    fn links_batch_independently_and_drain_in_first_push_order() {
        let mut b: LinkBatcher<u32> = LinkBatcher::new();
        b.push(0, 2, 1, 10);
        b.push(0, 1, 2, 10);
        b.push(0, 2, 3, 10);
        let drained = b.drain_all();
        assert_eq!(drained, vec![((0, 2), vec![1, 3]), ((0, 1), vec![2])]);
        assert!(b.is_empty());
        assert!(b.drain_all().is_empty());
    }

    #[test]
    fn frame_collapses_singletons() {
        assert_eq!(Frame::from_queue(vec![5u32]), Frame::One(5));
        assert_eq!(Frame::from_queue(vec![5u32, 6]).len(), 2);
        assert_eq!(Frame::One(5u32).len(), 1);
        assert!(!Frame::One(5u32).is_empty());
    }

    #[test]
    fn policy_constructor_clamps_degenerate_values() {
        let p = BatchPolicy::new(0, 0);
        assert_eq!(p.max_batch, 1);
        assert_eq!(p.flush_ticks, 1);
        assert!(BatchPolicy::new(16, 4).enabled());
    }
}
