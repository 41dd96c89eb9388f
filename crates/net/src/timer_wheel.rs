//! The threaded runtime's one clock: a deadline queue served by one thread.
//!
//! A [`ThreadedCluster`] has one wheel for every deadline it holds: worker
//! timers, link-batch flushes and fault-delayed deliveries. Deadlines are
//! substrate *ticks* (the `u64` virtual time unit the simulator uses),
//! mapped to the wall clock through the cluster's epoch and tick length.
//!
//! The wheel is one ordered map keyed by `(fire_tick, id)`, where `id` is
//! the registration counter, so iteration order is firing order:
//! **deadline order, registration order within a deadline**. An id → tick
//! index lets [`TimerWheel::cancel`] find its entry; registering, revoking,
//! collecting the due prefix and reading the next deadline are each
//! O(log n).
//!
//! The serving thread sleeps exactly until the earliest deadline (forever
//! while the map is empty) and is woken early only by a registration
//! earlier than that deadline, or by shutdown. Nothing polls. Each entry's
//! action runs on the serving thread when it fires and must be short and
//! non-blocking (in practice: one channel send plus a counter update). An
//! action registered after [`TimerWheelThread::stop`] is dropped unrun,
//! matching the substrate contract that stopping discards pending work.
//!
//! [`ThreadedCluster`]: crate::threaded::ThreadedCluster

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle returned by [`TimerWheel::register`]; pass to
/// [`TimerWheel::cancel`] to revoke a pending entry.
pub type WheelId = u64;

type Action = Box<dyn FnOnce() + Send>;

/// The deadline queue proper.
#[derive(Default)]
struct Wheel {
    /// Pending actions by `(fire_tick, id)`: iteration order is firing order.
    entries: BTreeMap<(u64, WheelId), Action>,
    /// Each pending entry's deadline by id, so `cancel` can find its key.
    ticks: HashMap<WheelId, u64>,
    /// The id of the next registration.
    next_id: WheelId,
}

impl Wheel {
    fn insert(&mut self, fire_tick: u64, action: Action) -> WheelId {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.insert((fire_tick, id), action);
        self.ticks.insert(id, fire_tick);
        id
    }

    /// Remove a pending entry by id. Returns whether one was pending.
    fn cancel(&mut self, id: WheelId) -> bool {
        let Some(tick) = self.ticks.remove(&id) else {
            return false;
        };
        self.entries.remove(&(tick, id));
        true
    }

    /// Take every entry due at or before `now_tick`, in firing order.
    fn collect_due(&mut self, now_tick: u64) -> BTreeMap<(u64, WheelId), Action> {
        let later = match now_tick.checked_add(1) {
            Some(next) => self.entries.split_off(&(next, 0)),
            None => BTreeMap::new(),
        };
        let due = std::mem::replace(&mut self.entries, later);
        for (_, id) in due.keys() {
            self.ticks.remove(id);
        }
        due
    }

    /// Earliest pending deadline, if any.
    fn next_fire_tick(&self) -> Option<u64> {
        self.entries.first_key_value().map(|(&(tick, _), _)| tick)
    }

    fn pending(&self) -> usize {
        self.entries.len()
    }
}

struct Shared {
    state: Mutex<State>,
    cond: Condvar,
}

struct State {
    wheel: Wheel,
    /// Tick the serving thread is currently sleeping toward (`None` while
    /// it holds no deadline or is mid-collection). A registration earlier
    /// than this re-parks the thread; later ones never wake it.
    sleeping_until: Option<u64>,
    shutdown: bool,
}

/// Shared handle to one wheel + its serving thread. Cheap to clone.
pub struct TimerWheel {
    shared: Arc<Shared>,
    epoch: Instant,
    tick: Duration,
}

impl Clone for TimerWheel {
    fn clone(&self) -> Self {
        Self { shared: Arc::clone(&self.shared), epoch: self.epoch, tick: self.tick }
    }
}

/// Owns the serving thread; stopping (or dropping) this joins it.
pub struct TimerWheelThread {
    wheel: TimerWheel,
    handle: Option<JoinHandle<()>>,
}

impl TimerWheel {
    /// Spawn a wheel whose tick `t` fires at wall time `epoch + t × tick`.
    pub fn spawn(epoch: Instant, tick: Duration) -> TimerWheelThread {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                wheel: Wheel::default(),
                sleeping_until: None,
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let wheel = TimerWheel { shared, epoch, tick };
        let serve = wheel.clone();
        let handle = std::thread::Builder::new()
            .name("timer-wheel".into())
            .spawn(move || serve.serve())
            .expect("spawn timer wheel thread");
        TimerWheelThread { wheel, handle: Some(handle) }
    }

    /// Current wheel time in ticks.
    pub fn now_tick(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    fn wall_of(&self, tick: u64) -> Instant {
        let nanos = (self.tick.as_nanos() as u64).saturating_mul(tick);
        self.epoch + Duration::from_nanos(nanos)
    }

    /// Register `action` to run on the wheel thread once the wall clock
    /// reaches tick `fire_tick`. Re-parks the serving thread when this
    /// deadline is earlier than the one it currently sleeps toward. After
    /// [`TimerWheelThread::stop`] the action is dropped and never runs.
    pub fn register(&self, fire_tick: u64, action: impl FnOnce() + Send + 'static) -> WheelId {
        let mut st = self.shared.state.lock().expect("wheel lock");
        if st.shutdown {
            return WheelId::MAX;
        }
        let id = st.wheel.insert(fire_tick, Box::new(action));
        if st.sleeping_until.is_none_or(|t| fire_tick < t) {
            self.shared.cond.notify_all();
        }
        id
    }

    /// Revoke a pending registration. Returns `false` when the entry
    /// already fired, was already revoked, or never existed.
    pub fn cancel(&self, id: WheelId) -> bool {
        self.shared.state.lock().expect("wheel lock").wheel.cancel(id)
    }

    /// Number of registered-but-unfired entries.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().expect("wheel lock").wheel.pending()
    }

    /// The serving loop: park until the earliest deadline (or forever when
    /// idle), wake early only on an earlier registration or shutdown, then
    /// run every due action in `(fire_tick, id)` order.
    fn serve(&self) {
        let mut st = self.shared.state.lock().expect("wheel lock");
        loop {
            if st.shutdown {
                return;
            }
            let due = st.wheel.collect_due(self.now_tick());
            if !due.is_empty() {
                drop(st);
                for action in due.into_values() {
                    action();
                }
                st = self.shared.state.lock().expect("wheel lock");
                continue;
            }
            match st.wheel.next_fire_tick() {
                None => {
                    st.sleeping_until = None;
                    st = self.shared.cond.wait(st).expect("wheel wait");
                }
                Some(tick) => {
                    let wall = self.wall_of(tick);
                    let now = Instant::now();
                    if wall <= now {
                        continue; // already due; collect on the next pass
                    }
                    st.sleeping_until = Some(tick);
                    let (guard, _) =
                        self.shared.cond.wait_timeout(st, wall - now).expect("wheel wait");
                    st = guard;
                    st.sleeping_until = None;
                }
            }
        }
    }

    fn stop(&self) {
        let mut st = self.shared.state.lock().expect("wheel lock");
        st.shutdown = true;
        // Pending actions are discarded, releasing whatever they captured
        // (inbox senders in particular).
        st.wheel = Wheel::default();
        self.shared.cond.notify_all();
    }
}

impl TimerWheelThread {
    /// A cloneable registration handle.
    pub fn handle(&self) -> TimerWheel {
        self.wheel.clone()
    }

    /// Stop serving, discard all pending entries, and join the thread.
    /// The thread never blocks in actions (they are channel sends), so the
    /// join is prompt. Idempotent.
    pub fn stop(&mut self) {
        self.wheel.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TimerWheelThread {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn wheel_ms(ms: u64) -> TimerWheelThread {
        TimerWheel::spawn(Instant::now(), Duration::from_millis(ms))
    }

    #[test]
    fn fires_in_deadline_order_not_registration_order() {
        let t = wheel_ms(5);
        let w = t.handle();
        let (tx, rx) = mpsc::channel();
        for (tick, tag) in [(6u64, 'c'), (2, 'a'), (4, 'b')] {
            let tx = tx.clone();
            w.register(tick, move || {
                let _ = tx.send(tag);
            });
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).expect("firing"));
        }
        assert_eq!(got, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let t = wheel_ms(10);
        let w = t.handle();
        let (tx, rx) = mpsc::channel();
        for i in 0..20u32 {
            let tx = tx.clone();
            w.register(3, move || {
                let _ = tx.send(i);
            });
        }
        let got: Vec<u32> =
            (0..20).map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("firing")).collect();
        assert_eq!(got, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn earlier_registration_reparks_the_sleeper() {
        let t = wheel_ms(5);
        let w = t.handle();
        let (tx, rx) = mpsc::channel();
        // Park toward a deadline far in the future…
        let tx_far = tx.clone();
        w.register(1_000_000, move || {
            let _ = tx_far.send("far");
        });
        std::thread::sleep(Duration::from_millis(20));
        // …then register something much earlier; it must fire promptly,
        // which only happens if the sleeper re-parks on the new deadline.
        let started = Instant::now();
        w.register(6, move || {
            let _ = tx.send("near");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok("near"));
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the near deadline must not wait for the far one"
        );
    }

    #[test]
    fn cancellation_suppresses_firing() {
        let t = wheel_ms(10);
        let w = t.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let (f1, f2) = (Arc::clone(&fired), Arc::clone(&fired));
        let revoke_me = w.register(3, move || {
            f1.fetch_add(100, Ordering::SeqCst);
        });
        let (tx, rx) = mpsc::channel();
        w.register(4, move || {
            f2.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(());
        });
        assert!(w.cancel(revoke_me), "entry was pending");
        assert!(!w.cancel(revoke_me), "double-cancel reports false");
        rx.recv_timeout(Duration::from_secs(5)).expect("survivor fires");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "a revoked entry must not fire");
        assert_eq!(w.pending(), 0);
    }

    /// The `(tick, id)` keys `collect_due(now)` hands back, in firing order.
    fn collect(wheel: &mut Wheel, now: u64) -> Vec<(u64, WheelId)> {
        wheel.collect_due(now).into_keys().collect()
    }

    #[test]
    fn distant_deadlines_fire_in_deadline_order() {
        // Pure wheel-structure test (no thread): deadlines from one tick to
        // 2^40 ticks out all collect, in deadline order.
        let mut wheel = Wheel::default();
        let ticks = [1u64, 63, 64, 4_000, 300_000, 20_000_000, 1 << 40];
        let ids: Vec<WheelId> = ticks.iter().map(|&t| wheel.insert(t, Box::new(|| {}))).collect();
        assert_eq!(wheel.pending(), ticks.len());
        assert_eq!(wheel.next_fire_tick(), Some(1));
        let mut want: Vec<(u64, WheelId)> = ticks.into_iter().zip(ids).collect();
        want.sort_unstable();
        assert_eq!(collect(&mut wheel, u64::MAX - 1), want);
        assert_eq!(wheel.pending(), 0);
        assert_eq!(wheel.next_fire_tick(), None);
    }

    #[test]
    fn partial_collection_leaves_future_entries_pending() {
        let mut wheel = Wheel::default();
        let a = wheel.insert(5, Box::new(|| {}));
        let b = wheel.insert(10, Box::new(|| {}));
        let c = wheel.insert(700, Box::new(|| {}));
        assert_eq!(collect(&mut wheel, 7), vec![(5, a)]);
        assert_eq!(wheel.pending(), 2);
        assert_eq!(wheel.next_fire_tick(), Some(10));
        assert_eq!(collect(&mut wheel, 1000), vec![(10, b), (700, c)]);
        assert!(!wheel.cancel(c), "a fired entry cannot be revoked");
    }

    /// One step of a wheel script.
    #[derive(Debug)]
    enum Op {
        Insert(u64),
        Cancel(WheelId),
        Collect(u64),
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200 })]

        /// The wheel against a sorted-`Vec` model of its pending entries:
        /// the same ids, the same firing order by `(tick, id)`, each fired
        /// action the one registered under its id, and the same answers from
        /// `cancel` (pending, fired, revoked twice, never registered),
        /// `pending()` and `next_fire_tick()` after every step.
        #[test]
        fn wheel_matches_a_sorted_vec_model(
            script in collection::vec(
                prop_oneof![
                    (0u64..40).prop_map(Op::Insert),
                    (0u64..48).prop_map(Op::Cancel),
                    (0u64..40).prop_map(Op::Collect),
                ],
                0..80,
            ),
        ) {
            let mut wheel = Wheel::default();
            let mut model: Vec<(u64, WheelId)> = Vec::new();
            let mut registered: WheelId = 0;
            let ran = Arc::new(Mutex::new(Vec::new()));
            for op in script {
                match op {
                    Op::Insert(tick) => {
                        let ran = Arc::clone(&ran);
                        let id = wheel.insert(tick, Box::new(move || ran.lock().unwrap().push(registered)));
                        prop_assert_eq!(id, registered, "ids are the registration counter");
                        model.push((tick, id));
                        model.sort_unstable();
                        registered += 1;
                    }
                    Op::Cancel(id) => {
                        let pending = model.iter().position(|&(_, m)| m == id);
                        prop_assert_eq!(wheel.cancel(id), pending.is_some(), "cancel({}) of {:?}", id, model);
                        if let Some(i) = pending {
                            model.remove(i);
                        }
                    }
                    Op::Collect(now) => {
                        let cut = model.partition_point(|&(t, _)| t <= now);
                        let want: Vec<(u64, WheelId)> = model.drain(..cut).collect();
                        let due = wheel.collect_due(now);
                        prop_assert_eq!(due.keys().copied().collect::<Vec<_>>(), want.clone());
                        ran.lock().unwrap().clear();
                        due.into_values().for_each(|action| action());
                        let ids: Vec<WheelId> = want.iter().map(|&(_, id)| id).collect();
                        prop_assert_eq!(ran.lock().unwrap().clone(), ids, "actions ran out of order");
                    }
                }
                prop_assert_eq!(wheel.pending(), model.len());
                prop_assert_eq!(wheel.next_fire_tick(), model.first().map(|&(t, _)| t));
            }
        }
    }

    #[test]
    fn stress_concurrent_registration_loses_and_reorders_nothing() {
        // 4 registrant threads × 250 entries with jittered deadlines; every
        // firing must arrive, and per-registrant arrivals with increasing
        // deadlines must fire in deadline order.
        let t = wheel_ms(1);
        let (tx, rx) = mpsc::channel::<(usize, u64)>();
        let start_tick = t.handle().now_tick();
        std::thread::scope(|s| {
            for reg in 0..4usize {
                let w = t.handle();
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..250u64 {
                        // Strictly increasing per-registrant deadlines with
                        // cross-registrant interleaving.
                        let tick = start_tick + 2 + i * 2 + (reg as u64 % 2);
                        let tx = tx.clone();
                        w.register(tick, move || {
                            let _ = tx.send((reg, tick));
                        });
                    }
                });
            }
        });
        drop(tx);
        let mut per_reg: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for _ in 0..1000 {
            let (reg, tick) = rx.recv_timeout(Duration::from_secs(60)).expect("no firing lost");
            per_reg[reg].push(tick);
        }
        for (reg, ticks) in per_reg.iter().enumerate() {
            assert_eq!(ticks.len(), 250, "registrant {reg} lost firings");
            assert!(
                ticks.windows(2).all(|w| w[0] <= w[1]),
                "registrant {reg} saw reordered firings: {ticks:?}"
            );
        }
    }

    #[test]
    fn stop_discards_pending_and_joins() {
        let mut t = wheel_ms(1000);
        let w = t.handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        w.register(1_000_000, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        t.stop();
        assert_eq!(w.pending(), 0, "stop discards pending entries");
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(w.register(1, || {}), WheelId::MAX, "post-stop registration is discarded");
        t.stop(); // idempotent
    }
}
