//! The one link layer: what a directed link does to the frames it carries,
//! written once and called by both runtimes.
//!
//! Section II of the paper assumes reliable FIFO point-to-point channels.
//! The nemesis degrades *reliability* — a [`LinkFault`] drops, duplicates
//! and delays — but never *order*. Every chaos verdict rests on that one
//! model, so its three decisions live here and nowhere else:
//!
//! * [`Link`] — the **fault roll** and the **FIFO slot**. The simulator's
//!   channel embeds one beside its pause buffer, the threaded fault table
//!   one beside its in-flight count.
//! * [`Outbound`] — the sender side's **batch/flush policy**.
//! * [`Tally`] — the **accounting rule**, over the simulator's plain
//!   [`NetMetrics`] and the threaded runtime's relaxed atomics.

use rand::rngs::StdRng;
use rand::Rng;

use crate::batch::{BatchPolicy, Frame, LinkBatcher};
use crate::metrics::NetMetrics;
use crate::nemesis::LinkFault;
use crate::process::ProcessId;

/// What the fault roll decided for a frame the link did not drop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pass {
    /// Deliver a second copy directly behind the first.
    pub dup: bool,
    /// Ticks added to the frame's earliest delivery time.
    pub extra_delay: u64,
}

/// One directed link: the fault the nemesis installed on it and the last
/// delivery slot handed out. Faults act on whole frames, and survivors of
/// one link are delivered in send order whatever is installed or cleared
/// while earlier frames are still on their way.
#[derive(Clone, Copy, Debug, Default)]
pub struct Link {
    /// The active fault, if any; the nemesis installs and clears it freely.
    pub fault: Option<LinkFault>,
    last_slot: u64,
}

impl Link {
    /// Roll the link's fault for one frame: `None` when the frame is lost.
    ///
    /// A fault-free link draws nothing, so seeded executions that never
    /// install a fault see the random stream they always saw; a faulted
    /// link draws for the drop first and, if the frame survives, for the
    /// duplicate (a rate of zero draws nothing).
    pub fn roll(&self, rng: &mut StdRng) -> Option<Pass> {
        let Some(f) = self.fault else {
            return Some(Pass { dup: false, extra_delay: 0 });
        };
        if f.drop_rate > 0.0 && rng.gen_bool(f.drop_rate.min(1.0)) {
            return None;
        }
        let dup = f.dup_rate > 0.0 && rng.gen_bool(f.dup_rate.min(1.0));
        Some(Pass { dup, extra_delay: f.extra_delay })
    }

    /// Reserve the next delivery slot: never before `earliest`, always
    /// after every slot reserved before it.
    pub fn slot(&mut self, earliest: u64) -> u64 {
        self.last_slot = earliest.max(self.last_slot + 1);
        self.last_slot
    }

    /// Reserve the slot of a frame and, when `dup`, the slot directly
    /// behind it for its copy.
    pub fn reserve(&mut self, earliest: u64, dup: bool) -> (u64, Option<u64>) {
        let at = self.slot(earliest);
        (at, dup.then(|| self.slot(0)))
    }
}

/// The six [`NetMetrics`] counters by name; `counter as usize` is its
/// position in [`Counter::ALL`].
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    Sent,
    Delivered,
    Dropped,
    Events,
    FramesSent,
    FramesDelivered,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 6] = {
        use Counter::*;
        [Sent, Delivered, Dropped, Events, FramesSent, FramesDelivered]
    };
}

/// The accounting rule over any store of the six counters: a store supplies
/// [`Tally::add`], the rule is the provided methods.
///
/// A logical send is counted when the message is handed to its link, a
/// wire frame when it ships; what a fault then does to the frame touches
/// neither. A frame lost whole (cut link, crashed destination) drops every
/// message it carries, a duplicated frame delivers all of them twice, a
/// delayed one delivers them once, later. Garbage a
/// [`crate::corruption::FaultPlan`] places in transit was never sent, yet
/// it crosses its link's fault like any frame: it is only delivered or
/// dropped. A timer firing is one event even when it reaches no automaton
/// because its process crashed or restarted since arming it.
pub trait Tally {
    /// Add `n` to one counter.
    fn add(&mut self, counter: Counter, n: u64);

    /// One logical message was handed to a link.
    fn sent(&mut self) {
        self.add(Counter::Sent, 1);
    }

    /// `frames` wire frames shipped.
    fn shipped(&mut self, frames: usize) {
        self.add(Counter::FramesSent, frames as u64);
    }

    /// `msgs` messages were lost: a frame a fault ate whole, or a message
    /// addressed to nobody.
    fn dropped(&mut self, msgs: usize) {
        self.add(Counter::Dropped, msgs as u64);
    }

    /// A frame reached its destination: one event, and every message it
    /// carries is delivered if the process is `live`, dropped if it crashed.
    fn arrived<M>(&mut self, frame: &Frame<M>, live: bool) {
        self.event();
        if live {
            self.add(Counter::Delivered, frame.len() as u64);
            self.add(Counter::FramesDelivered, 1);
        } else {
            self.dropped(frame.len());
        }
    }

    /// One protocol event (a frame arrival or a timer firing) came due.
    fn event(&mut self) {
        self.add(Counter::Events, 1);
    }
}

impl Tally for NetMetrics {
    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        *match counter {
            Counter::Sent => &mut self.messages_sent,
            Counter::Delivered => &mut self.messages_delivered,
            Counter::Dropped => &mut self.messages_dropped,
            Counter::Events => &mut self.events_processed,
            Counter::FramesSent => &mut self.frames_sent,
            Counter::FramesDelivered => &mut self.frames_delivered,
        } += n;
    }
}

/// What [`Outbound::send`] decided for one message.
#[derive(Debug, PartialEq, Eq)]
pub enum Sent<M> {
    /// Ship this frame on the message's link now.
    Ship(Frame<M>),
    /// The message waits in its link's queue; when `arm_flush`, the caller
    /// schedules one [`Outbound::flush`] `flush_ticks` from now.
    Queued {
        /// Whether this message is the first to wait since the last flush.
        arm_flush: bool,
    },
}

/// The sending side of a runtime's links: the batch policy, the pending
/// per-link queues, and whether their flush is armed.
///
/// Invariant: while any message is pending, exactly one flush is armed —
/// a queued message lingers at most `flush_ticks`, and a runtime that
/// reports itself quiet has nothing waiting here.
#[derive(Debug)]
pub struct Outbound<M> {
    policy: BatchPolicy,
    batcher: LinkBatcher<M>,
    flush_armed: bool,
}

impl<M> Outbound<M> {
    /// An empty sender side under `policy`.
    pub fn new(policy: BatchPolicy) -> Self {
        Self { policy, batcher: LinkBatcher::new(), flush_armed: false }
    }

    /// The batch policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// A message that never batches (an environment command), as the frame
    /// it ships in: one send, one frame.
    pub fn solo(msg: M, tally: &mut impl Tally) -> Frame<M> {
        tally.sent();
        tally.shipped(1);
        Frame::One(msg)
    }

    /// Hand `msg` to the `(from, to)` link. With batching off this is
    /// [`Outbound::solo`] — no queue is touched and nothing is allocated.
    pub fn send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        tally: &mut impl Tally,
    ) -> Sent<M> {
        if !self.policy.enabled() {
            return Sent::Ship(Self::solo(msg, tally));
        }
        tally.sent();
        match self.batcher.push(from, to, msg, self.policy.max_batch) {
            Some(queue) => {
                tally.shipped(1);
                Sent::Ship(Frame::from_queue(queue))
            }
            None => Sent::Queued { arm_flush: !std::mem::replace(&mut self.flush_armed, true) },
        }
    }

    /// The armed flush came due: every pending queue ships as one frame,
    /// links in the order their queues first became non-empty.
    pub fn flush(
        &mut self,
        tally: &mut impl Tally,
    ) -> impl Iterator<Item = (ProcessId, ProcessId, Frame<M>)> {
        self.flush_armed = false;
        let queues = self.batcher.drain_all();
        tally.shipped(queues.len());
        queues.into_iter().map(|((from, to), queue)| (from, to, Frame::from_queue(queue)))
    }

    /// Discard everything pending, never shipped (a halted runtime delivers
    /// nothing further).
    pub fn discard(&mut self) {
        self.batcher.drain_all();
        self.flush_armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn faulted(fault: LinkFault) -> Link {
        Link { fault: Some(fault), last_slot: 0 }
    }

    /// Roll `link` and return the delivery slots it hands out at `now`.
    fn send(link: &mut Link, now: u64, rng: &mut StdRng) -> Vec<u64> {
        let Some(pass) = link.roll(rng) else {
            return Vec::new();
        };
        let (at, dup_at) = link.reserve(now + pass.extra_delay, pass.dup);
        std::iter::once(at).chain(dup_at).collect()
    }

    #[test]
    fn roll_draws_nothing_without_a_fault_and_drop_then_dup_with_one() {
        let (mut a, mut b) = (rng(), rng());
        // No fault, or one with both rates zero (a pure delay): no draw.
        assert_eq!(Link::default().roll(&mut a), Some(Pass { dup: false, extra_delay: 0 }));
        let slow = faulted(LinkFault::flaky(0.0, 0.0, 3));
        assert_eq!(slow.roll(&mut a), Some(Pass { dup: false, extra_delay: 3 }));
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "a clean link must leave the stream alone");
        let link = faulted(LinkFault::flaky(0.3, 0.4, 5));
        let (mut lost, mut doubled) = (0, 0);
        for _ in 0..200 {
            let expect = (!b.gen_bool(0.3)).then(|| Pass { dup: b.gen_bool(0.4), extra_delay: 5 });
            assert_eq!(link.roll(&mut a), expect);
            lost += usize::from(expect.is_none());
            doubled += usize::from(expect.is_some_and(|p| p.dup));
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "exactly the drop and dup draws, in that order");
        assert!(lost > 0 && doubled > 0, "200 rolls must exercise both draws");
    }

    #[test]
    fn cut_link_drops_everything_until_cleared() {
        let (mut r, mut link) = (rng(), faulted(LinkFault::cut()));
        assert!((0..10).all(|_| link.roll(&mut r).is_none()));
        link.fault = None;
        assert!(link.roll(&mut r).is_some());
    }

    #[test]
    fn duplication_reserves_the_next_slot_and_keeps_fifo() {
        let (mut r, mut link) = (rng(), faulted(LinkFault::flaky(0.0, 1.0, 0)));
        assert_eq!(send(&mut link, 1, &mut r), vec![1, 2], "the copy directly behind its original");
        assert_eq!(send(&mut link, 1, &mut r), vec![3, 4], "the next message behind the copy");
    }

    #[test]
    fn extra_delay_shifts_the_slot_and_clearing_it_releases_nothing_behind() {
        let (mut r, mut link) = (rng(), faulted(LinkFault::flaky(0.0, 0.0, 40)));
        assert_eq!(send(&mut link, 0, &mut r), vec![40]);
        // Fault cleared while that send is still on its way: the healed
        // send queues behind it, it does not overtake.
        link.fault = None;
        assert_eq!(send(&mut link, 1, &mut r), vec![41]);
        assert_eq!(send(&mut link, 100, &mut r), vec![100], "the clamp is only a lower bound");
    }

    #[test]
    fn slots_strictly_increase_across_any_set_clear_send_interleaving() {
        for seed in 0..50 {
            let (mut script, mut r) = (StdRng::seed_from_u64(seed), rng());
            let (mut link, mut now, mut last) = (Link::default(), 0u64, 0u64);
            for _ in 0..200 {
                now += script.gen_range(0..3u64);
                match script.gen_range(0..4) {
                    0 => {
                        let (drop, dup) = (script.gen_range(0.0..0.5), script.gen_range(0.0..0.5));
                        link.fault = Some(LinkFault::flaky(drop, dup, script.gen_range(0..60)));
                    }
                    1 => link.fault = None,
                    _ => {
                        let earliest = now + link.fault.map_or(0, |f| f.extra_delay);
                        for slot in send(&mut link, now, &mut r) {
                            assert!(
                                slot > last && slot >= earliest,
                                "seed {seed}: {slot} at {now}"
                            );
                            last = slot;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tally_counts_sends_at_push_frames_at_ship_and_faults_per_whole_frame() {
        let mut m = NetMetrics::default();
        (0..5).for_each(|_| m.sent());
        m.shipped(1);
        let frame = Frame::Batch(vec![0u32; 5]);
        m.arrived(&frame, true);
        m.arrived(&frame, true); // a duplicated frame delivers all it carries twice
        assert_eq!((m.messages_delivered, m.frames_delivered), (10, 2));
        m.arrived(&frame, false);
        m.dropped(frame.len());
        m.event();
        assert_eq!(m.messages_dropped, 10, "a crashed destination and a fault both drop whole");
        assert_eq!(m.events_processed, 4, "three arrivals and a timer");
        assert_eq!((m.messages_sent, m.frames_sent), (5, 1), "no fault distorts the send side");
    }

    /// An `Outbound` and the flush timer a runtime would keep for it;
    /// checks "pending ⇒ exactly one flush armed" after every step.
    struct Sender {
        out: Outbound<u32>,
        tally: NetMetrics,
        flushes_armed: usize,
    }

    impl Sender {
        fn new(policy: BatchPolicy) -> Self {
            Self { out: Outbound::new(policy), tally: NetMetrics::default(), flushes_armed: 0 }
        }

        fn check(&self) {
            assert!(self.flushes_armed <= 1, "two flushes armed at once");
            assert!(self.out.batcher.is_empty() || self.flushes_armed == 1, "pending, no flush");
        }

        fn send(&mut self, to: ProcessId, msg: u32) -> Option<Frame<u32>> {
            let sent = self.out.send(0, to, msg, &mut self.tally);
            self.flushes_armed += usize::from(sent == Sent::Queued { arm_flush: true });
            self.check();
            match sent {
                Sent::Ship(frame) => Some(frame),
                Sent::Queued { .. } => None,
            }
        }

        fn flush(&mut self) -> Vec<(ProcessId, ProcessId, Frame<u32>)> {
            self.flushes_armed -= 1;
            let frames = self.out.flush(&mut self.tally).collect();
            self.check();
            frames
        }
    }

    #[test]
    fn outbound_keeps_one_flush_armed_while_anything_pends() {
        let mut s = Sender::new(BatchPolicy::new(3, 2));
        assert_eq!([s.send(2, 10), s.send(1, 11), s.send(2, 12)], [None, None, None]);
        assert_eq!(s.flushes_armed, 1, "only the first queued message arms");
        // Size watermark: the full queue ships at once.
        assert_eq!(s.send(2, 13), Some(Frame::Batch(vec![10, 12, 13])));
        assert_eq!(s.send(2, 14), None);
        // Tick watermark: links drain in first-push order ((0, 2)'s queue
        // emptied and refilled after (0, 1)'s first push).
        assert_eq!(s.flush(), vec![(0, 1, Frame::One(11)), (0, 2, Frame::One(14))]);
        assert_eq!((s.tally.messages_sent, s.tally.frames_sent), (5, 3));
        // A flush that finds nothing pending disarms all the same.
        assert_eq!([s.send(1, 15), s.send(1, 16)], [None, None]);
        assert_eq!(s.send(1, 17), Some(Frame::Batch(vec![15, 16, 17])));
        assert_eq!(s.flush(), vec![]);
        assert_eq!(s.send(1, 18), None);
        assert_eq!(s.flushes_armed, 1, "the next queued message re-arms");
        // Halt: the runtime drops its timer with everything pending.
        s.out.discard();
        s.flushes_armed = 0;
        s.check();
        assert_eq!(s.send(1, 19), None);
        assert_eq!(s.flushes_armed, 1);
        assert_eq!((s.tally.messages_sent, s.tally.frames_sent), (10, 4), "discarded ≠ shipped");
    }

    #[test]
    fn batching_off_ships_every_message_as_its_own_frame() {
        let mut s = Sender::new(BatchPolicy::disabled());
        assert!((0..4).all(|i| s.send(1, i) == Some(Frame::One(i))));
        assert_eq!(Outbound::solo(9u32, &mut s.tally), Frame::One(9));
        assert_eq!((s.flushes_armed, s.tally.messages_sent, s.tally.frames_sent), (0, 5, 5));
    }
}
