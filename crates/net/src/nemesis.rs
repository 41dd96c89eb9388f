//! Jepsen-style nemesis: seeded schedules of composable infrastructure
//! faults, fired against any [`Substrate`].
//!
//! The paper's fault model is *transient* corruption plus up to `f`
//! Byzantine servers; real deployments additionally lose processes and
//! links and get them back. The nemesis layer composes both worlds into
//! one declarative, replayable schedule: crashes with later *recovery*
//! (rejoin with arbitrary fresh state — legitimate under the transient
//! model, since a restarted process is just one whose memory was
//! corrupted to an initial state), partitions, per-link loss /
//! duplication / delay spikes, transient [`FaultPlan`] corruption, and
//! runtime movement of the Byzantine seats between servers (the
//! mobile-Byzantine regime of Bonomi–Del Pozzo–Potop-Butucaru,
//! arXiv:1505.06865).
//!
//! The mobile regime is first-class: a [`NemesisRunner`] tracks a *set*
//! of up to `f` concurrently Byzantine seats, [`NemesisEvent::MoveByz`]
//! relocates one seat, and a vacated server rejoins **cured** under a
//! [`CureMode`] — either a clean restart, or *amnesiac*: state wiped and
//! then re-corrupted to an arbitrary configuration, so the rejoiner must
//! re-run stabilization rather than resume from a known-good initial
//! state (the cured-but-amnesiac servers of the mobile-Byzantine
//! literature, folded into the source paper's transient-fault model).
//! Round-structured multi-seat movement schedules are generated by
//! [`crate::mobile`].
//!
//! A [`NemesisSchedule`] is a sorted list of `(time, event)` pairs —
//! scripted, or generated from a seed by [`NemesisSchedule::random`]
//! with fixed window lengths and gaps that keep disturbance windows
//! serialized (at most one open at a time, so `f` stays respected
//! between recoveries). A [`NemesisRunner`] owns the schedule plus the
//! automaton factories needed for restarts and fires every due event
//! through the [`Substrate`] trait, so the same chaos runs on the
//! simulator and on real threads.

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbft_storage::DiskFault;

use crate::corruption::{CorruptionSeverity, FaultPlan};
use crate::process::{Automaton, ProcessId};
use crate::substrate::Substrate;

/// Per-link fault parameters applied to one directed channel.
///
/// `drop_rate` and `dup_rate` are independent per-frame probabilities;
/// `extra_delay` adds a constant delay in ticks. What the three do to a
/// frame, and why survivors are never reordered, is [`crate::link::Link`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Probability a message is silently lost.
    pub drop_rate: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_rate: f64,
    /// Additional delay added to every delivery.
    pub extra_delay: u64,
}

impl LinkFault {
    /// A fully cut link (drops everything) — the partition building block.
    pub fn cut() -> Self {
        Self { drop_rate: 1.0, dup_rate: 0.0, extra_delay: 0 }
    }

    /// A lossy link dropping each message with probability `drop_rate`.
    pub fn lossy(drop_rate: f64) -> Self {
        Self { drop_rate, dup_rate: 0.0, extra_delay: 0 }
    }

    /// A link that loses, duplicates, and delays.
    pub fn flaky(drop_rate: f64, dup_rate: f64, extra_delay: u64) -> Self {
        Self { drop_rate, dup_rate, extra_delay }
    }

    /// Whether this fault drops every message.
    pub fn is_cut(&self) -> bool {
        self.drop_rate >= 1.0
    }
}

/// One declarative nemesis action.
///
/// Disturbances ([`NemesisEvent::Crash`], [`NemesisEvent::Partition`],
/// [`NemesisEvent::LinkFault`], [`NemesisEvent::Corrupt`],
/// [`NemesisEvent::MoveByz`]) open a *disturbance window* in the
/// runner's bookkeeping; recoveries ([`NemesisEvent::Restart`],
/// [`NemesisEvent::CrashRecover`], [`NemesisEvent::Heal`],
/// [`NemesisEvent::LinkHeal`]) close one.
/// Scripted schedules should pair every disturbance with a recovery so
/// the runner's all-clear tracking stays meaningful (instantaneous
/// disturbances like `Corrupt` pair with a plain `Heal`, which marks the
/// window closed without undoing anything).
#[derive(Clone, Debug)]
pub enum NemesisEvent {
    /// Crash a process: it silently drops all deliveries until restarted.
    Crash(ProcessId),
    /// Restart a crashed (or running) process with a fresh automaton from
    /// the runner's factory — crash *recovery* with state loss.
    Restart(ProcessId),
    /// Restart a crashed process **from its own stable storage**, after
    /// applying `fault` to the disk — crash recovery with *damaged
    /// persistence* instead of state loss. The runner's recovery factory
    /// rebuilds the automaton from whatever survives; the rejoiner counts
    /// as a cure ([`NemesisRunner::cures`]) because its recovered state may
    /// be stale or ill-formed until the next all-clear write re-converges
    /// it. Pairs with an earlier [`NemesisEvent::Crash`] like `Restart`.
    CrashRecover {
        /// The crashed process being rebooted.
        pid: ProcessId,
        /// Crash-time damage applied to its disk before recovery.
        fault: DiskFault,
    },
    /// Cut every link between `side` and the rest of the cluster, in both
    /// directions. Realized as full-drop link faults on both backends, so
    /// partitioned traffic is *lost*, not buffered; the clients' retry
    /// machinery restores liveness after [`NemesisEvent::Heal`].
    Partition {
        /// Processes isolated from everyone else.
        side: Vec<ProcessId>,
    },
    /// Clear every link cut by the previous `Partition` (and mark the
    /// current disturbance window closed).
    Heal,
    /// Apply `fault` to the link `a ↔ b` (both directions).
    LinkFault {
        /// One endpoint.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
        /// The fault parameters.
        fault: LinkFault,
    },
    /// Clear the link fault on `a ↔ b`.
    LinkHeal {
        /// One endpoint.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Transiently corrupt one process: scramble its state and load its
    /// outgoing channels with garbage (a light [`FaultPlan::targeting`],
    /// built over the substrate's processes when the event fires).
    Corrupt(ProcessId),
    /// Mobile-Byzantine seat movement: the adversary leaves server `from`
    /// (which rejoins cured per the runner's [`CureMode`]) and occupies
    /// server `to`. Instantaneous — the runner closes its own disturbance
    /// window the moment it fires; the lasting instability (the cured
    /// server re-running stabilization) is surfaced through
    /// [`NemesisRunner::cures`] for the spec layer's stable-window
    /// accounting. No paired recovery event is needed.
    MoveByz {
        /// The seat being vacated (must currently be Byzantine).
        from: ProcessId,
        /// The server the adversary moves onto (must currently be honest).
        to: ProcessId,
    },
}

impl NemesisEvent {
    /// Short kind name for logs and per-kind counters.
    pub fn kind(&self) -> &'static str {
        match self {
            NemesisEvent::Crash(_) => "crash",
            NemesisEvent::Restart(_) => "restart",
            NemesisEvent::CrashRecover { .. } => "crash-recover",
            NemesisEvent::Partition { .. } => "partition",
            NemesisEvent::Heal => "heal",
            NemesisEvent::LinkFault { .. } => "link-fault",
            NemesisEvent::LinkHeal { .. } => "link-heal",
            NemesisEvent::Corrupt(_) => "corrupt",
            NemesisEvent::MoveByz { .. } => "move-byz",
        }
    }

    /// Whether this event opens a disturbance window.
    pub fn is_disturbance(&self) -> bool {
        matches!(
            self,
            NemesisEvent::Crash(_)
                | NemesisEvent::Partition { .. }
                | NemesisEvent::LinkFault { .. }
                | NemesisEvent::Corrupt(_)
                | NemesisEvent::MoveByz { .. }
        )
    }

    /// Whether this disturbance recovers by itself the instant it fires
    /// (no paired recovery event needed in a schedule).
    pub fn is_instantaneous(&self) -> bool {
        matches!(self, NemesisEvent::MoveByz { .. })
    }
}

/// How a server vacated by the Byzantine adversary rejoins the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CureMode {
    /// Clean restart: a fresh honest automaton in its initial state.
    Clean,
    /// Cured but **amnesiac**: the fresh automaton's state is immediately
    /// re-corrupted to an arbitrary configuration (and its outgoing
    /// channels loaded with garbage), so the rejoiner must re-run
    /// stabilization from scratch — the mobile-Byzantine model's cured
    /// servers mapped onto the source paper's transient faults. Carries
    /// how aggressively the rejoiner's state is scrambled.
    Amnesiac(CorruptionSeverity),
}

/// No generated event fires before this time.
const START_AFTER: u64 = 500;
/// How long each generated disturbance window stays open before its
/// recovery.
const FAULT_LEN: u64 = 1_200;
/// Quiet time between a recovery and the next generated disturbance. Long
/// enough for a write to complete (Assumption 1 between windows), so state
/// lost to consecutive restarts cannot accumulate past `f`.
const MIN_GAP: u64 = 2_200;
/// Fault parameters of generated `LinkFault` windows.
const FLAKY: LinkFault = LinkFault { drop_rate: 0.3, dup_rate: 0.2, extra_delay: 15 };

/// Knobs for [`NemesisSchedule::random`].
#[derive(Clone, Debug)]
pub struct NemesisOpts {
    /// Server pids are `0..servers`; all targets are drawn from here.
    pub servers: usize,
    /// Current Byzantine seats (up to `f` of them). Never targeted by
    /// crash/corrupt windows (so at most one *honest* server is disturbed
    /// at a time); movement windows relocate one of them.
    pub byz_seats: Vec<ProcessId>,
    /// No disturbance opens after `horizon` minus the window length.
    pub horizon: u64,
}

impl Default for NemesisOpts {
    fn default() -> Self {
        Self { servers: 6, byz_seats: Vec::new(), horizon: 18_000 }
    }
}

/// A time-sorted list of nemesis events.
#[derive(Clone, Debug, Default)]
pub struct NemesisSchedule {
    events: Vec<(u64, NemesisEvent)>,
}

impl NemesisSchedule {
    /// A scripted schedule; events are stably sorted by time.
    pub fn scripted(mut events: Vec<(u64, NemesisEvent)>) -> Self {
        events.sort_by_key(|&(t, _)| t);
        Self { events }
    }

    /// A seeded random schedule: serialized disturbance windows of
    /// `FAULT_LEN`, separated by `MIN_GAP`, cycling through the five
    /// window templates (crash+crash-recover, partition+heal,
    /// link-fault+link-heal, corrupt+heal, move-byz) so that any schedule
    /// long enough for five windows fires five distinct disturbance
    /// kinds. Targets are drawn uniformly from the honest servers; the
    /// generator tracks the full Byzantine seat *set* across movements,
    /// so crash/corrupt windows never land on a current seat. Crash
    /// windows reboot from disk with [`DiskFault::ALL`] applied in
    /// rotation, indexed by crash-window count rather than the rng.
    pub fn random(seed: u64, opts: &NemesisOpts) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E45_4D45_5349_5321);
        let mut seats: BTreeSet<ProcessId> = opts.byz_seats.iter().copied().collect();
        let mut events = Vec::new();
        let mut t = START_AFTER;
        let mut template = 0usize;
        let mut crash_windows = 0usize;
        while t + FAULT_LEN <= opts.horizon {
            let target = Self::pick_honest(&mut rng, opts.servers, &seats);
            let recover_at = t + FAULT_LEN;
            match template % 5 {
                0 => {
                    events.push((t, NemesisEvent::Crash(target)));
                    // Every crash is paired with a recovery at
                    // `t + FAULT_LEN ≤ horizon` — no server is ever left
                    // down past the schedule (pinned by a property test).
                    let fault = DiskFault::ALL[crash_windows % DiskFault::ALL.len()];
                    events.push((recover_at, NemesisEvent::CrashRecover { pid: target, fault }));
                    crash_windows += 1;
                }
                1 => {
                    events.push((t, NemesisEvent::Partition { side: vec![target] }));
                    events.push((recover_at, NemesisEvent::Heal));
                }
                2 => {
                    let peer = Self::pick_peer(&mut rng, opts.servers, target);
                    events.push((t, NemesisEvent::LinkFault { a: target, b: peer, fault: FLAKY }));
                    events.push((recover_at, NemesisEvent::LinkHeal { a: target, b: peer }));
                }
                3 => {
                    events.push((t, NemesisEvent::Corrupt(target)));
                    events.push((recover_at, NemesisEvent::Heal));
                }
                _ => {
                    // Both draws happen unconditionally so the rng stream
                    // is identical whether or not any seat exists —
                    // schedules stay deterministic even when multi-seat
                    // movement empties or refills the seat set.
                    let peer = Self::pick_peer(&mut rng, opts.servers, target);
                    let pick = rng.gen_range(0..opts.servers);
                    if seats.is_empty() {
                        // No Byzantine seat to move: substitute a lossy
                        // link, paired with a LinkHeal (a bare Heal would
                        // close the window but leave the fault installed).
                        events.push((
                            t,
                            NemesisEvent::LinkFault { a: target, b: peer, fault: FLAKY },
                        ));
                        events.push((recover_at, NemesisEvent::LinkHeal { a: target, b: peer }));
                    } else {
                        let from = *seats.iter().nth(pick % seats.len()).expect("seats nonempty");
                        events.push((t, NemesisEvent::MoveByz { from, to: target }));
                        seats.remove(&from);
                        seats.insert(target);
                        // Movement is instantaneous and self-recovering;
                        // no paired event, but the next window still waits
                        // out FAULT_LEN + MIN_GAP like every other kind.
                    }
                }
            }
            template += 1;
            t = recover_at + MIN_GAP;
        }
        Self::scripted(events)
    }

    fn pick_honest(rng: &mut StdRng, servers: usize, seats: &BTreeSet<ProcessId>) -> ProcessId {
        assert!(servers > seats.len(), "need at least one honest server");
        loop {
            let s = rng.gen_range(0..servers);
            if !seats.contains(&s) {
                return s;
            }
        }
    }

    fn pick_peer(rng: &mut StdRng, servers: usize, not: ProcessId) -> ProcessId {
        loop {
            let s = rng.gen_range(0..servers);
            if s != not {
                return s;
            }
        }
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[(u64, NemesisEvent)] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of distinct *disturbance* kinds the schedule will fire.
    pub fn distinct_disturbances(&self) -> usize {
        let kinds: BTreeSet<&'static str> =
            self.events.iter().filter(|(_, e)| e.is_disturbance()).map(|(_, e)| e.kind()).collect();
        kinds.len()
    }

    /// Time of the last scheduled event.
    pub fn horizon(&self) -> u64 {
        self.events.last().map(|&(t, _)| t).unwrap_or(0)
    }
}

/// Factory producing a fresh automaton for a restarted process.
pub type AutomatonFactory<M, O> = Box<dyn FnMut(ProcessId) -> Box<dyn Automaton<M, O>> + Send>;

/// Factory producing an automaton *recovered from its own stable storage*
/// after a crash with `fault` applied to the disk. Implementations own the
/// disk handles: they apply the crash damage, then rebuild the automaton
/// from whatever survives.
pub type RecoveryFactory<M, O> =
    Box<dyn FnMut(ProcessId, DiskFault) -> Box<dyn Automaton<M, O>> + Send>;

/// One fired event, as logged by [`NemesisRunner::log`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fired {
    /// Substrate time at which the event fired.
    pub at: u64,
    /// [`NemesisEvent::kind`] of the event.
    pub kind: &'static str,
    /// [`NemesisEvent::is_disturbance`] of the event.
    pub disturbance: bool,
}

/// Fires a [`NemesisSchedule`] against a substrate at the right times.
///
/// The driver calls [`NemesisRunner::fire_due`] between workload
/// operations; every event whose time has been reached executes through
/// the [`Substrate`] surface, so the same schedule drives the simulator
/// and the threaded runtime identically.
pub struct NemesisRunner<M, O> {
    pending: VecDeque<(u64, NemesisEvent)>,
    make_honest: AutomatonFactory<M, O>,
    make_byz: AutomatonFactory<M, O>,
    make_recovered: Option<RecoveryFactory<M, O>>,
    garbage: Box<dyn FnMut(&mut StdRng) -> M + Send>,
    byz_seats: BTreeSet<ProcessId>,
    cure: CureMode,
    partition_pairs: Vec<(ProcessId, ProcessId)>,
    active: u32,
    /// Every fired event, in fire order.
    pub log: Vec<Fired>,
    /// Times at which the last open disturbance window closed.
    pub clear_times: Vec<u64>,
    /// Every cured-server rejoin as `(fire time, vacated pid)`, in fire
    /// order. Drivers drain this into stable-window accounting: a cured
    /// server is *unstable* until its first completed stabilizing write
    /// (paper assumption A1), even though the seat movement itself is
    /// instantaneous.
    pub cures: Vec<(u64, ProcessId)>,
}

impl<M, O> NemesisRunner<M, O> {
    /// Build a runner tracking a mobile-Byzantine seat *set* (up to `f`
    /// concurrently roaming seats; empty for an all-honest cluster).
    /// `make_byz` spawns the adversary on a seat; `garbage` generates
    /// in-transit junk for `Corrupt` events and amnesiac cures. Cure mode
    /// defaults to [`CureMode::Clean`]; chain [`NemesisRunner::cure_mode`]
    /// for amnesiac rejoins.
    pub fn new(
        schedule: NemesisSchedule,
        make_honest: AutomatonFactory<M, O>,
        make_byz: AutomatonFactory<M, O>,
        byz_seats: Vec<ProcessId>,
        garbage: Box<dyn FnMut(&mut StdRng) -> M + Send>,
    ) -> Self {
        Self {
            pending: schedule.events.into(),
            make_honest,
            make_byz,
            make_recovered: None,
            garbage,
            byz_seats: byz_seats.into_iter().collect(),
            cure: CureMode::Clean,
            partition_pairs: Vec::new(),
            active: 0,
            log: Vec::new(),
            clear_times: Vec::new(),
            cures: Vec::new(),
        }
    }

    /// Select how vacated seats rejoin (builder-style).
    pub fn cure_mode(mut self, cure: CureMode) -> Self {
        self.cure = cure;
        self
    }

    /// Install a damaged-disk recovery factory (builder-style). Without
    /// one, [`NemesisEvent::CrashRecover`] degrades to a state-losing
    /// restart via the honest factory.
    pub fn recovery(mut self, make_recovered: RecoveryFactory<M, O>) -> Self {
        self.make_recovered = Some(make_recovered);
        self
    }

    /// Whether every scheduled event has fired.
    pub fn done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Time of the next pending event.
    pub fn next_at(&self) -> Option<u64> {
        self.pending.front().map(|&(t, _)| t)
    }

    /// Whether no disturbance window is currently open.
    pub fn all_clear(&self) -> bool {
        self.active == 0
    }

    /// Current Byzantine seat set (empty for an all-honest cluster).
    pub fn byz_seats(&self) -> &BTreeSet<ProcessId> {
        &self.byz_seats
    }

    /// Fire every event whose time is at or before `sub.now()`. Returns
    /// the number fired.
    pub fn fire_due<S: Substrate<M, O>>(&mut self, sub: &mut S) -> usize {
        let mut n = 0;
        while self.next_at().map(|t| t <= sub.now()).unwrap_or(false) {
            self.fire_next(sub);
            n += 1;
        }
        n
    }

    /// Fire the next pending event regardless of its scheduled time —
    /// the fast-forward used when the substrate has gone quiet before
    /// the schedule's clock caught up. Returns `false` when done.
    pub fn fire_next<S: Substrate<M, O>>(&mut self, sub: &mut S) -> bool {
        let Some((_, ev)) = self.pending.pop_front() else {
            return false;
        };
        let now = sub.now();
        let disturbance = ev.is_disturbance();
        self.log.push(Fired { at: now, kind: ev.kind(), disturbance });
        if disturbance {
            self.active += 1;
        }
        match ev {
            NemesisEvent::Crash(pid) => sub.crash(pid),
            NemesisEvent::Restart(pid) => {
                let auto = self.spawn_for(pid);
                sub.restart(pid, auto);
                self.close_window(now);
            }
            NemesisEvent::CrashRecover { pid, fault } => {
                // Byzantine seats have no honest recovery path — the
                // adversary reboots as itself. Honest servers reboot from
                // their damaged disk when a recovery factory is wired,
                // else degrade to a blank restart.
                let auto = if self.byz_seats.contains(&pid) {
                    self.spawn_for(pid)
                } else if let Some(make_recovered) = &mut self.make_recovered {
                    make_recovered(pid, fault)
                } else {
                    (self.make_honest)(pid)
                };
                sub.restart_with(pid, auto);
                // Recovery ≡ cure: the rebooted state may be stale, torn,
                // or bit-rotted — unconverged until the next all-clear
                // write, exactly like an amnesiac rejoin.
                self.cures.push((now, pid));
                self.close_window(now);
            }
            NemesisEvent::Partition { side } => {
                let n = sub.process_count();
                for &a in &side {
                    for b in 0..n {
                        if side.contains(&b) {
                            continue;
                        }
                        sub.set_link_fault(a, b, Some(LinkFault::cut()));
                        sub.set_link_fault(b, a, Some(LinkFault::cut()));
                        self.partition_pairs.push((a, b));
                    }
                }
            }
            NemesisEvent::Heal => {
                for (a, b) in std::mem::take(&mut self.partition_pairs) {
                    sub.set_link_fault(a, b, None);
                    sub.set_link_fault(b, a, None);
                }
                self.close_window(now);
            }
            NemesisEvent::LinkFault { a, b, fault } => {
                sub.set_link_fault(a, b, Some(fault));
                sub.set_link_fault(b, a, Some(fault));
            }
            NemesisEvent::LinkHeal { a, b } => {
                sub.set_link_fault(a, b, None);
                sub.set_link_fault(b, a, None);
                self.close_window(now);
            }
            NemesisEvent::Corrupt(victim) => self.corrupt(sub, victim, CorruptionSeverity::Light),
            NemesisEvent::MoveByz { from, to } => {
                self.move_seat(sub, from, to, now);
                // Movement is instantaneous: the vacated server is back
                // honest (if amnesiac, with wiped state) the moment the
                // adversary leaves, so the event self-closes.
                self.close_window(now);
            }
        }
        true
    }

    /// Move the adversary off `from` and onto `to`. The vacated server
    /// restarts honest — cured per [`CureMode`] — and the cure is
    /// recorded in [`NemesisRunner::cures`].
    fn move_seat<S: Substrate<M, O>>(
        &mut self,
        sub: &mut S,
        from: ProcessId,
        to: ProcessId,
        now: u64,
    ) {
        if from == to || !self.byz_seats.contains(&from) || self.byz_seats.contains(&to) {
            return;
        }
        self.byz_seats.remove(&from);
        let honest = (self.make_honest)(from);
        sub.restart(from, honest);
        if let CureMode::Amnesiac(severity) = self.cure {
            // The cured server rejoins from an *arbitrary* configuration,
            // not genesis: hit it with a targeted transient corruption so
            // it has to re-run stabilization for real.
            self.corrupt(sub, from, severity);
        }
        self.cures.push((now, from));
        let byz = (self.make_byz)(to);
        sub.restart(to, byz);
        self.byz_seats.insert(to);
    }

    /// Scramble `victim` and load its outgoing channels with garbage.
    fn corrupt<S: Substrate<M, O>>(
        &mut self,
        sub: &mut S,
        victim: ProcessId,
        severity: CorruptionSeverity,
    ) {
        let plan = FaultPlan::targeting(&[victim], sub.process_count(), severity);
        sub.apply_fault(&plan, &mut *self.garbage);
    }

    fn spawn_for(&mut self, pid: ProcessId) -> Box<dyn Automaton<M, O>> {
        if self.byz_seats.contains(&pid) {
            (self.make_byz)(pid)
        } else {
            (self.make_honest)(pid)
        }
    }

    fn close_window(&mut self, now: u64) {
        self.active = self.active.saturating_sub(1);
        if self.active == 0 {
            self.clear_times.push(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let opts = NemesisOpts::default();
        let a = NemesisSchedule::random(7, &opts);
        let b = NemesisSchedule::random(7, &opts);
        assert_eq!(a.len(), b.len());
        for ((ta, ea), (tb, eb)) in a.events().iter().zip(b.events()) {
            assert_eq!(ta, tb);
            assert_eq!(ea.kind(), eb.kind());
        }
        let c = NemesisSchedule::random(8, &opts);
        assert_eq!(a.len(), c.len(), "same knobs, same window count");
    }

    #[test]
    fn random_schedule_fires_five_distinct_disturbances() {
        let opts = NemesisOpts { byz_seats: vec![5], ..NemesisOpts::default() };
        let s = NemesisSchedule::random(3, &opts);
        assert!(s.distinct_disturbances() >= 5, "{s:?}");
        // Every lasting disturbance is paired with a recovery; seat
        // movement is instantaneous (self-closing), so it needs none.
        let (dist, recov): (Vec<_>, Vec<_>) =
            s.events().iter().partition(|(_, e)| e.is_disturbance());
        let lasting = dist.iter().filter(|(_, e)| !e.is_instantaneous()).count();
        assert_eq!(lasting, recov.len(), "{s:?}");
    }

    #[test]
    fn random_schedule_never_targets_a_byz_seat_with_crashes() {
        let opts = NemesisOpts { byz_seats: vec![0], servers: 2, ..NemesisOpts::default() };
        let s = NemesisSchedule::random(11, &opts);
        let mut seats: BTreeSet<ProcessId> = [0].into_iter().collect();
        for (_, ev) in s.events() {
            match ev {
                NemesisEvent::Crash(p) => assert!(!seats.contains(p)),
                NemesisEvent::MoveByz { from, to } => {
                    assert!(seats.remove(from), "moved a non-seat {from}");
                    assert!(seats.insert(*to), "moved onto a seat {to}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn scripted_schedule_sorts_by_time() {
        let s =
            NemesisSchedule::scripted(vec![(50, NemesisEvent::Heal), (10, NemesisEvent::Crash(1))]);
        assert_eq!(s.events()[0].0, 10);
        assert_eq!(s.horizon(), 50);
    }
}
