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
//! Orthogonally, a channel can carry a [`LinkFault`], set and cleared at
//! runtime by the nemesis; what a fault does to a message, and how FIFO
//! order survives it, is [`crate::link::Link`]'s business.

use std::collections::HashMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use crate::link::Link;
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
#[derive(Debug)]
struct ChannelState<M> {
    /// The link's fault and its latest scheduled delivery time.
    link: Link,
    /// Held (unscheduled) messages while the channel is paused.
    held: VecDeque<M>,
    /// Whether the channel currently buffers instead of delivering.
    paused: bool,
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

    fn state(&mut self, from: ProcessId, to: ProcessId) -> &mut ChannelState<M> {
        self.states.entry((from, to)).or_insert_with(|| ChannelState {
            link: Link::default(),
            held: VecDeque::new(),
            paused: false,
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
        let st = self.state(from, to);
        if st.paused {
            st.held.push_back(msg);
            return Scheduled::Held;
        }
        let Some(pass) = st.link.roll(rng) else {
            return Scheduled::Dropped;
        };
        let (at, dup_at) = st.link.reserve(now + delay + pass.extra_delay, pass.dup);
        Scheduled::Deliver { at, msg, dup_at }
    }

    /// Install (`Some`) or clear (`None`) a link fault on `(from, to)`.
    pub fn set_fault(&mut self, from: ProcessId, to: ProcessId, fault: Option<LinkFault>) {
        self.state(from, to).link.fault = fault;
    }

    /// Pause the channel `(from, to)`: subsequent (and only subsequent)
    /// messages are buffered in order.
    pub fn pause(&mut self, from: ProcessId, to: ProcessId) {
        self.state(from, to).paused = true;
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
        st.held.drain(..).map(|msg| (st.link.slot(now + delay.sample(rng)), msg)).collect()
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
