//! Reliable FIFO point-to-point channel bookkeeping for the simulator.
//!
//! The paper assumes channels that neither create, modify, nor lose
//! messages and that deliver in FIFO order (Section II). In the simulator a
//! message sent at time `t` over channel `(a, b)` is scheduled for delivery
//! at `max(t + delay, last scheduled delivery on (a, b) + 1)`, so arbitrary
//! asynchrony is modelled while per-channel ordering is strict.
//!
//! Channels can additionally be **held**: a held channel buffers messages
//! instead of scheduling them, and releases them in order on demand. This is
//! the mechanism scripted adversarial schedules (the "slow server" of the
//! Theorem 1 proof) use to steer executions precisely.
//!
//! Orthogonally, a channel can carry a [`LinkFault`]: per-message drop and
//! duplication probabilities plus a constant extra delay, set and cleared at
//! runtime by the nemesis. Faulty links still never reorder — a duplicate is
//! scheduled immediately after its original, and survivors keep FIFO order —
//! so the fault model degrades the *reliability* assumption of Section II
//! while leaving the ordering assumption intact.

use std::collections::HashMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use crate::nemesis::LinkFault;
use crate::process::ProcessId;

/// Message delay distribution: uniform in `[min, max]` virtual time units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayModel {
    /// Minimum delay (≥ 1 to keep sends strictly in the future).
    pub min: u64,
    /// Maximum delay (inclusive).
    pub max: u64,
}

impl DelayModel {
    /// Uniform delays in `[min, max]`.
    pub fn uniform(min: u64, max: u64) -> Self {
        assert!(min >= 1, "delays must be at least 1 tick");
        assert!(min <= max, "empty delay range");
        Self { min, max }
    }

    /// Constant unit delay — a synchronous network, useful in unit tests.
    pub fn unit() -> Self {
        Self { min: 1, max: 1 }
    }

    /// Sample a delay.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        if self.min == self.max {
            self.min
        } else {
            rng.gen_range(self.min..=self.max)
        }
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::uniform(1, 10)
    }
}

/// Per-ordered-pair channel state.
#[derive(Debug, Default)]
struct ChannelState<M> {
    /// Latest delivery time already scheduled on this channel.
    last_delivery: u64,
    /// Held (unscheduled) messages while the channel is paused.
    held: VecDeque<M>,
    /// Whether the channel currently buffers instead of delivering.
    paused: bool,
    /// Active link fault, if any.
    fault: Option<LinkFault>,
}

/// Outcome of scheduling one message on a channel.
#[derive(Clone, Debug)]
pub enum Scheduled<M> {
    /// Channel paused: the message was buffered for a later resume.
    Held,
    /// A link fault dropped the message.
    Dropped,
    /// Deliver `msg` at time `at`; `dup_at`, when set, is the delivery time
    /// of a fault-induced duplicate of the same message.
    Deliver {
        /// Delivery time.
        at: u64,
        /// The message.
        msg: M,
        /// Delivery time of a duplicate copy, if the fault duplicated.
        dup_at: Option<u64>,
    },
}

impl<M> Scheduled<M> {
    /// The primary delivery, if one was scheduled (convenience for tests).
    pub fn delivery(self) -> Option<(u64, M)> {
        match self {
            Scheduled::Deliver { at, msg, .. } => Some((at, msg)),
            _ => None,
        }
    }
}

/// All channels of a simulation.
#[derive(Debug)]
pub struct ChannelMap<M> {
    delay: DelayModel,
    states: HashMap<(ProcessId, ProcessId), ChannelState<M>>,
}

impl<M> ChannelMap<M> {
    /// Create with the given delay model.
    pub fn new(delay: DelayModel) -> Self {
        Self { delay, states: HashMap::new() }
    }

    /// The configured delay model.
    pub fn delay_model(&self) -> DelayModel {
        self.delay
    }

    fn state(&mut self, from: ProcessId, to: ProcessId) -> &mut ChannelState<M> {
        self.states.entry((from, to)).or_insert_with(|| ChannelState {
            last_delivery: 0,
            held: VecDeque::new(),
            paused: false,
            fault: None,
        })
    }

    /// Compute the FIFO-respecting delivery time for a message sent `now`,
    /// buffer it if the channel is paused, or drop/duplicate/delay it per
    /// the channel's active [`LinkFault`].
    ///
    /// The delay is sampled *before* the fault is consulted, so executions
    /// on channels that never carried a fault draw the identical random
    /// stream as before the fault machinery existed (seed compatibility).
    pub fn schedule(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: u64,
        msg: M,
        rng: &mut StdRng,
    ) -> Scheduled<M> {
        let delay = self.delay.sample(rng);
        let fault = self.states.get(&(from, to)).and_then(|s| s.fault);
        if self.state(from, to).paused {
            self.state(from, to).held.push_back(msg);
            return Scheduled::Held;
        }
        if let Some(f) = fault {
            if f.drop_rate > 0.0 && rng.gen_bool(f.drop_rate.min(1.0)) {
                return Scheduled::Dropped;
            }
        }
        let extra = fault.map_or(0, |f| f.extra_delay);
        let duplicate = match fault {
            Some(f) if f.dup_rate > 0.0 => rng.gen_bool(f.dup_rate.min(1.0)),
            _ => false,
        };
        let st = self.state(from, to);
        let t = (now + delay + extra).max(st.last_delivery + 1);
        st.last_delivery = t;
        let dup_at = duplicate.then(|| {
            let t2 = st.last_delivery + 1;
            st.last_delivery = t2;
            t2
        });
        Scheduled::Deliver { at: t, msg, dup_at }
    }

    /// Install (`Some`) or clear (`None`) a link fault on `(from, to)`.
    pub fn set_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.state(from, to).fault = fault;
    }

    /// The active fault on `(from, to)`, if any.
    pub fn fault(&self, from: ProcessId, to: ProcessId) -> Option<LinkFault> {
        self.states.get(&(from, to)).and_then(|s| s.fault)
    }

    /// Pause the channel `(from, to)`: subsequent (and only subsequent)
    /// messages are buffered in order.
    pub fn pause(&mut self, from: ProcessId, to: ProcessId) {
        self.state(from, to).paused = true;
    }

    /// Whether the channel is paused.
    pub fn is_paused(&self, from: ProcessId, to: ProcessId) -> bool {
        self.states.get(&(from, to)).map(|s| s.paused).unwrap_or(false)
    }

    /// Resume the channel, returning the held messages (in FIFO order) with
    /// their computed delivery times, ready to be scheduled.
    pub fn resume(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: u64,
        rng: &mut StdRng,
    ) -> Vec<(u64, M)> {
        let delay = self.delay;
        let st = self.state(from, to);
        st.paused = false;
        let held: Vec<M> = st.held.drain(..).collect();
        let mut out = Vec::with_capacity(held.len());
        for msg in held {
            let d = delay.sample(rng);
            let t = (now + d).max(st.last_delivery + 1);
            st.last_delivery = t;
            out.push((t, msg));
        }
        out
    }

    /// Number of held messages on a paused channel.
    pub fn held_count(&self, from: ProcessId, to: ProcessId) -> usize {
        self.states.get(&(from, to)).map(|s| s.held.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fifo_order_is_strict() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::uniform(1, 100));
        let mut r = rng();
        let mut last = 0;
        for i in 0..50 {
            let (t, _) = ch.schedule(0, 1, 0, i, &mut r).delivery().unwrap();
            assert!(t > last, "delivery times must strictly increase per channel");
            last = t;
        }
    }

    #[test]
    fn independent_channels_do_not_interfere() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        let (t1, _) = ch.schedule(0, 1, 0, 1, &mut r).delivery().unwrap();
        let (t2, _) = ch.schedule(1, 0, 0, 2, &mut r).delivery().unwrap();
        assert_eq!(t1, 1);
        assert_eq!(t2, 1);
    }

    #[test]
    fn pause_buffers_and_resume_preserves_order() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        ch.pause(0, 1);
        assert!(matches!(ch.schedule(0, 1, 5, 10, &mut r), Scheduled::Held));
        assert!(matches!(ch.schedule(0, 1, 6, 11, &mut r), Scheduled::Held));
        assert_eq!(ch.held_count(0, 1), 2);
        let released = ch.resume(0, 1, 100, &mut r);
        let msgs: Vec<u32> = released.iter().map(|&(_, m)| m).collect();
        assert_eq!(msgs, vec![10, 11]);
        assert!(released[0].0 < released[1].0);
        assert!(released[0].0 > 100);
    }

    #[test]
    fn resume_respects_prior_deliveries() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        let (t0, _) = ch.schedule(0, 1, 50, 1, &mut r).delivery().unwrap();
        ch.pause(0, 1);
        ch.schedule(0, 1, 51, 2, &mut r);
        let rel = ch.resume(0, 1, 52, &mut r);
        assert!(rel[0].0 > t0);
    }

    #[test]
    fn cut_link_drops_everything_until_cleared() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        ch.set_fault(0, 1, Some(LinkFault::cut()));
        for i in 0..10 {
            assert!(matches!(ch.schedule(0, 1, 0, i, &mut r), Scheduled::Dropped));
        }
        ch.set_fault(0, 1, None);
        assert!(ch.schedule(0, 1, 0, 99, &mut r).delivery().is_some());
    }

    #[test]
    fn duplication_schedules_a_later_copy_and_keeps_fifo() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        ch.set_fault(0, 1, Some(LinkFault::flaky(0.0, 1.0, 0)));
        let Scheduled::Deliver { at, dup_at, .. } = ch.schedule(0, 1, 0, 7, &mut r) else {
            panic!("expected delivery");
        };
        let dup_at = dup_at.expect("dup_rate=1 must duplicate");
        assert!(dup_at > at);
        // The next message lands strictly after the duplicate.
        let (t2, _) = ch.schedule(0, 1, 0, 8, &mut r).delivery().unwrap();
        assert!(t2 > dup_at);
    }

    #[test]
    fn extra_delay_shifts_deliveries() {
        let mut ch: ChannelMap<u32> = ChannelMap::new(DelayModel::unit());
        let mut r = rng();
        ch.set_fault(0, 1, Some(LinkFault::flaky(0.0, 0.0, 50)));
        let (t, _) = ch.schedule(0, 1, 0, 1, &mut r).delivery().unwrap();
        assert_eq!(t, 51);
    }

    #[test]
    fn unfaulted_channels_sample_one_delay_per_message() {
        // Seed compatibility: the RNG stream on clean channels must be the
        // single delay draw it always was, fault machinery or not.
        let mut a: ChannelMap<u32> = ChannelMap::new(DelayModel::uniform(1, 100));
        let mut b: ChannelMap<u32> = ChannelMap::new(DelayModel::uniform(1, 100));
        let mut ra = rng();
        let mut rb = rng();
        b.set_fault(2, 3, Some(LinkFault::cut())); // fault on an unrelated pair
        for i in 0..20 {
            let ta = a.schedule(0, 1, 0, i, &mut ra).delivery().unwrap().0;
            let tb = b.schedule(0, 1, 0, i, &mut rb).delivery().unwrap().0;
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn delay_model_bounds() {
        let m = DelayModel::uniform(3, 9);
        let mut r = rng();
        for _ in 0..100 {
            let d = m.sample(&mut r);
            assert!((3..=9).contains(&d));
        }
    }

    #[test]
    #[should_panic]
    fn zero_min_delay_rejected() {
        DelayModel::uniform(0, 5);
    }
}
