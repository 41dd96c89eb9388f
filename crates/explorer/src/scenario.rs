//! Register-protocol scenarios for the explorer (experiment E16).
//!
//! Each scenario performs a *deterministic* setup phase (driven to
//! completion with the normal pump loop), then leaves one or more
//! operations in flight and hands the simulator to the explorer, which
//! forks on every delivery order of the remaining messages. Invariants
//! checked after every transition:
//!
//! * **Regularity** — [`HistoryRecorder::check`] (validity of every
//!   completed read) re-runs whenever a transition completes an operation;
//! * **label-order sanity** — the write-order half of the same checker:
//!   consecutive completed writes must carry timestamps extending their
//!   real-time order (Lemma 8);
//! * **termination** — at quiescence no operation may remain open
//!   ([`HistoryRecorder::open_ops`]): a drained network with an open op
//!   means that op can never complete.
//!
//! [`HistoryRecorder::check`]: sbft_core::spec::HistoryRecorder::check
//! [`HistoryRecorder::open_ops`]: sbft_core::spec::HistoryRecorder::open_ops
//!
//! All scenarios run with [`DelayModel::unit`]: delay sampling then
//! consumes no randomness, so the schedule alone (not the RNG stream)
//! determines the execution — exactly what key-sequence replay requires.

use rand::rngs::StdRng;
use sbft_core::adversary::ByzStrategy;
use sbft_core::client::Client;
use sbft_core::cluster::{Op, RegisterCluster, SimSubstrate};
use sbft_core::reader::{ReadDecision, ReadPhase};
use sbft_core::{ClientEvent, ClusterConfig, Msg, Sys, Ts};
use sbft_labels::{BoundedLabeling, LabelingSystem};
use sbft_net::{Automaton, Ctx, DelayModel, EventKey, ProcessId};

use crate::{Scenario, ScenarioRun, StepResult};

type B = BoundedLabeling;

/// Which register scenario to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Honest n=6/f=1 cluster, one write ∥ one read from a settled state.
    ConcurrentWriteRead,
    /// The Theorem 1 adversary (scripted Byzantine server + transiently
    /// corrupted server holding a dominating timestamp) at `n` servers,
    /// with the victim read left to the explorer — at n=5 some delivery
    /// order returns the planted garbage; at n=6 none may.
    Theorem1 { n: usize },
    /// Honest n=6/f=1 cluster, *two* writers racing each other and one
    /// reader — the MWMR label-merge path under exploration.
    MwmrTwoWriters,
    /// Durable n=6/f=1 cluster: a server crashes and reboots from a
    /// suffix-damaged disk ([`DiskFault::LostSuffix`]) while a write and a
    /// read are in flight; the explorer searches the delivery orders
    /// around the rejoining stale server.
    CrashRecover,
}

/// A named, seeded register scenario.
#[derive(Clone, Debug)]
pub struct RegisterScenario {
    kind: Kind,
    name: String,
    seed: u64,
}

impl RegisterScenario {
    /// Honest n=6/f=1 cluster: a settled first write, then one write
    /// concurrent with one read, explored over all delivery orders.
    pub fn concurrent_write_read() -> Self {
        Self { kind: Kind::ConcurrentWriteRead, name: "concurrent-wr-n6".into(), seed: 7 }
    }

    /// The Theorem 1 adversary at `n` servers (`f = 1`), victim read under
    /// exploration. `n = 5` is the paper's impossibility configuration;
    /// `n = 6` the same adversary one server above the bound.
    pub fn theorem1(n: usize) -> Self {
        Self { kind: Kind::Theorem1 { n }, name: format!("theorem1-n{n}"), seed: 7 }
    }

    /// Honest n=6/f=1 cluster with three clients: two writers racing and
    /// one concurrent reader, from a settled state.
    pub fn mwmr_two_writers() -> Self {
        Self { kind: Kind::MwmrTwoWriters, name: "mwmr2-n6".into(), seed: 7 }
    }

    /// Durable n=6/f=1 cluster with a crash-recovery from a damaged disk
    /// fired mid-operation, then handed to the explorer.
    pub fn crash_recover() -> Self {
        Self { kind: Kind::CrashRecover, name: "crash-recover-n6".into(), seed: 7 }
    }

    /// Look a scenario up by its stable name (the `scenario` line of a
    /// trace file / the harness `--scenario` flag).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "concurrent-wr-n6" => Some(Self::concurrent_write_read()),
            "theorem1-n5" => Some(Self::theorem1(5)),
            "theorem1-n6" => Some(Self::theorem1(6)),
            "mwmr2-n6" => Some(Self::mwmr_two_writers()),
            "crash-recover-n6" => Some(Self::crash_recover()),
            _ => None,
        }
    }

    /// Every scenario the E16 experiment sweeps.
    pub fn all() -> Vec<Self> {
        vec![
            Self::concurrent_write_read(),
            Self::mwmr_two_writers(),
            Self::crash_recover(),
            Self::theorem1(6),
            Self::theorem1(5),
        ]
    }
}

impl Scenario for RegisterScenario {
    type Run = RegisterRun;

    fn name(&self) -> &str {
        &self.name
    }

    fn start(&self) -> RegisterRun {
        match self.kind {
            Kind::ConcurrentWriteRead => concurrent_write_read(self.seed),
            Kind::Theorem1 { n } => theorem1(n, self.seed),
            Kind::MwmrTwoWriters => mwmr_two_writers(self.seed),
            Kind::CrashRecover => crash_recover(self.seed),
        }
    }
}

/// A reader of the paper's TM_1R protocol class (Theorem 1): a one-phase
/// read that must **return**. It hosts a plain [`Client`] and, where that
/// client aborts (no node reached `2f + 1` witnesses, locally or in the
/// union graph), returns instead from the same read's accepted replies:
/// the dominant node with `f + 1` witnesses (the majority-of-correct bar),
/// else any dominant node at all. Theorem 1 says no such reader implements
/// a regular register at `n ≤ 5f`; E1 and the `theorem1-n*` scenarios
/// seat it to show where.
pub struct Tm1rReader<B: LabelingSystem> {
    inner: Client<B>,
    sys: Sys<B>,
    cfg: ClusterConfig,
    /// A shadow of the inner client's current read: the servers it sent
    /// READ and the replies it then accepted, so the fallback sees exactly
    /// what that read saw.
    read: Option<ReadPhase<B>>,
}

impl<B: LabelingSystem> Tm1rReader<B> {
    /// A clean TM_1R reader with the given writer identity.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig, writer_id: u32) -> Self {
        Self { inner: Client::new(sys.clone(), cfg, writer_id), sys, cfg, read: None }
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.inner.is_busy()
    }
}

impl<B: LabelingSystem> Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>> for Tm1rReader<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>,
    ) {
        if let (Some(read), Msg::Reply { value, ts, label, .. }) = (&mut self.read, &msg) {
            let label = self.inner.pool.sanitize(*label);
            read.on_reply(&self.sys, &self.cfg, from, *value, ts.clone(), label);
        }
        let (sent, emitted) = (ctx.sent().len(), ctx.emitted().len());
        self.inner.on_message(from, msg, ctx);
        // The inner client has no retry policy, so it arms no timer and a
        // read starts only here, under a label other than the last read's
        // (Figure 3a line 01). A server joins the read's safe set when it
        // is sent READ.
        for (to, m) in &ctx.sent()[sent..] {
            let (Msg::Flush { label } | Msg::Read { label }) = m else { continue };
            let read = match &mut self.read {
                Some(read) if read.label == *label => read,
                slot => slot.insert(ReadPhase::new(*label)),
            };
            if matches!(m, Msg::Read { .. }) {
                read.on_flush_ack(&self.cfg, *to, *label);
            }
        }
        let Some(read) = &self.read else { return };
        for out in &mut ctx.emitted_mut()[emitted..] {
            if matches!(out, ClientEvent::ReadAborted) {
                let mut thresholds = [self.cfg.f + 1, 1].into_iter();
                let forced = thresholds.find_map(|t| read.decide_local(&self.sys, t));
                if let Some(ReadDecision::Return { value, ts, via_union }) = forced {
                    *out = ClientEvent::ReadDone { value, ts, via_union };
                }
            }
        }
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.inner.corrupt(rng);
        self.read = None;
    }
}

/// A running register scenario: a sim-backed cluster whose recorder grows
/// as the explorer completes operations.
pub struct RegisterRun {
    cluster: RegisterCluster<B, SimSubstrate<B>>,
}

impl ScenarioRun for RegisterRun {
    fn enabled(&self) -> Vec<EventKey> {
        self.cluster.sim.enabled_events()
    }

    fn step(&mut self, key: EventKey) -> StepResult {
        let Some(ev) = self.cluster.sim.step_key(key) else {
            return StepResult::Infeasible;
        };
        let mut completed = false;
        for out in &ev.outputs {
            if self.cluster.observe_event(ev.time, ev.pid, out).is_some() {
                completed = true;
            }
        }
        // The history only grows when an operation completes, so that is
        // the only moment the regularity verdict can flip.
        if completed {
            if let Err(errors) = self.cluster.check_history() {
                return StepResult::Violation(format!("{:?}", errors[0]));
            }
        }
        StepResult::Ok
    }

    fn finish(&mut self, bounded: bool) -> Option<String> {
        if bounded {
            // The step budget cut the schedule: open ops are expected.
            return None;
        }
        let open = self.cluster.history(()).open_ops();
        (open > 0)
            .then(|| format!("termination: {open} operation(s) still open at network quiescence"))
    }
}

/// Honest-cluster setup: settle `write(1)`, then leave `write(7) ∥ read`
/// in flight for the explorer.
fn concurrent_write_read(seed: u64) -> RegisterRun {
    let mut c = RegisterCluster::bounded_with_n(6, 1)
        .clients(2)
        .seed(seed)
        .delay(DelayModel::unit())
        .build();
    let w = c.client(0);
    let r = c.client(1);
    c.write(w, 1).expect("setup write terminates");
    c.settle(100_000);
    c.invoke(w, (), Op::Write(7));
    c.invoke(r, (), Op::Read);
    RegisterRun { cluster: c }
}

/// The Theorem 1 adversary at `n` servers, `f = 1`, up to the victim
/// read: a scripted Byzantine server at `n - 1`, a [`Tm1rReader`] seated
/// at client 1, server `n - 2` slow through two writes by client 0 and
/// then transiently corrupted to hold value 999 under a timestamp `ts2`
/// dominating both (adversarial foresight over the deterministic
/// execution), and the Byzantine server scripted to corroborate
/// `(999, ts2)`. E1 then hand-pauses one up-to-date server during the
/// read; the `theorem1-n*` scenarios instead search the delivery orders
/// for one where the read quorum assembles around the corrupted pair.
pub fn theorem1_adversary(
    n: usize,
    seed: u64,
    delay: DelayModel,
) -> RegisterCluster<B, SimSubstrate<B>> {
    let byz_idx = n - 1;
    let corrupt_idx = n - 2;
    let mut c = RegisterCluster::bounded_with_n(n, 1)
        .scripted(byz_idx)
        .clients(2)
        .seed(seed)
        .delay(delay)
        .build();
    let genesis = c.sys.genesis();
    c.scripted_server(byz_idx).expect("scripted").ts_reply = Some(genesis);

    let w = c.client(0);
    let r = c.client(1);
    c.sim.restart(r, Box::new(Tm1rReader::new(c.sys.clone(), c.cfg, r as u32)));

    // The to-be-corrupted server sleeps through both writes, keeping its
    // pre-write state (the proof's s4).
    c.sim.pause_process_channels(corrupt_idx);
    c.write(w, 1).expect("w0 terminates without the slow server");
    let ts1 = c.write(w, 2).expect("w1 terminates");
    // Release the held traffic and let it drain *before* planting the
    // corruption (the adversary corrupts the server at this point of the
    // execution, after whatever it happened to receive).
    c.sim.resume_process_channels(corrupt_idx);
    c.settle(100_000);

    // Plant a timestamp dominating ts1 with a garbage value (the proof's
    // `ts2 > ts1`), and script the Byzantine server to corroborate it.
    let ts2 = c.sys.next_for(u32::MAX, std::slice::from_ref(&ts1));
    {
        let srv = c.server_state(corrupt_idx).expect("honest server");
        srv.value = 999;
        srv.ts = ts2.clone();
        srv.old_vals.clear();
    }
    c.scripted_server(byz_idx).expect("scripted").read_reply = Some((999, ts2));
    c
}

/// [`theorem1_adversary`] with the victim read left in flight, every
/// channel open, for the explorer.
fn theorem1(n: usize, seed: u64) -> RegisterRun {
    let mut c = theorem1_adversary(n, seed, DelayModel::unit());
    let r = c.client(1);
    c.invoke(r, (), Op::Read);
    RegisterRun { cluster: c }
}

/// MWMR setup: settle `write(1)` from the first writer, then leave
/// `write(7) ∥ write(8) ∥ read` — two distinct writers and a reader — in
/// flight. Exploration covers every interleaving of the two write
/// quorums, exercising the label-merge (dominating-timestamp) path that
/// single-writer scenarios never reach.
fn mwmr_two_writers(seed: u64) -> RegisterRun {
    let mut c = RegisterCluster::bounded_with_n(6, 1)
        .clients(3)
        .seed(seed)
        .delay(DelayModel::unit())
        .build();
    let w1 = c.client(0);
    let w2 = c.client(1);
    let r = c.client(2);
    c.write(w1, 1).expect("setup write terminates");
    c.settle(100_000);
    c.invoke(w1, (), Op::Write(7));
    c.invoke(w2, (), Op::Write(8));
    c.invoke(r, (), Op::Read);
    RegisterRun { cluster: c }
}

/// Crash-recovery setup: a durable cluster settles two writes, invokes
/// `write(7) ∥ read`, and *then* server 0 crashes and reboots from its
/// own disk with the log suffix torn off ([`DiskFault::LostSuffix`]) —
/// rejoining with stale state while both operations' messages are still
/// in flight. The explorer searches the delivery orders around the
/// recovering server; regularity must hold in every one (recovery is a
/// cure, not a fault, per the paper's crash-recovery extension).
fn crash_recover(seed: u64) -> RegisterRun {
    use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
    use sbft_storage::DiskFault;

    let mut c = RegisterCluster::bounded_with_n(6, 1)
        .clients(2)
        .durable()
        .seed(seed)
        .delay(DelayModel::unit())
        .build();
    let w = c.client(0);
    let r = c.client(1);
    c.write(w, 1).expect("setup write terminates");
    c.write(w, 2).expect("setup write terminates");
    c.settle(100_000);

    c.invoke(w, (), Op::Write(7));
    c.invoke(r, (), Op::Read);
    let sched = NemesisSchedule::scripted(vec![
        (0, NemesisEvent::Crash(0)),
        (0, NemesisEvent::CrashRecover { pid: 0, fault: DiskFault::LostSuffix }),
    ]);
    let mut runner = c.nemesis_runner(sched, Vec::new(), ByzStrategy::Silent);
    assert!(runner.fire_next(&mut c.sim), "crash fires");
    assert!(runner.fire_next(&mut c.sim), "recovery fires");
    RegisterRun { cluster: c }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, replay, shrink, ExplorerConfig, ReplayOutcome};

    #[test]
    fn scenario_lookup_by_name() {
        for s in RegisterScenario::all() {
            let found = RegisterScenario::by_name(s.name()).expect("all scenarios resolvable");
            assert_eq!(found.name(), s.name());
        }
        assert!(RegisterScenario::by_name("nope").is_none());
    }

    #[test]
    fn runs_start_identically() {
        let s = RegisterScenario::concurrent_write_read();
        let (a, b) = (s.start(), s.start());
        assert_eq!(a.enabled(), b.enabled());
        assert!(!a.enabled().is_empty(), "setup leaves ops in flight");
    }

    #[test]
    fn default_schedule_of_concurrent_wr_is_clean() {
        let s = RegisterScenario::concurrent_write_read();
        let mut run = s.start();
        let mut steps = 0;
        while let Some(&key) = run.enabled().first() {
            match run.step(key) {
                StepResult::Ok => steps += 1,
                other => panic!("default schedule must be clean, got {other:?} at {steps}"),
            }
            assert!(steps < 10_000, "runaway schedule");
        }
        assert_eq!(run.finish(false), None, "both ops must have completed");
    }

    /// The n=5 Theorem 1 counterexample is rediscovered, shrinks to a
    /// schedule that still violates, and replays — on one worker and on two.
    #[test]
    fn theorem1_n5_has_a_violating_schedule_and_it_shrinks() {
        let s = RegisterScenario::theorem1(5);
        for jobs in [1, 2] {
            let config = ExplorerConfig {
                branch_depth: 12,
                stop_on_violation: true,
                jobs,
                ..Default::default()
            };
            let report = explore(&s, &config);
            let v =
                report.violations.first().expect("Theorem 1 counterexample must be rediscovered");
            assert!(v.description.contains("UnknownValue"), "{}", v.description);
            let min = shrink(&s, v, jobs);
            assert!(min.schedule.len() <= v.schedule.len());
            match replay(&s, &min.schedule) {
                ReplayOutcome::Violation { at, description } => {
                    assert_eq!(at, min.schedule.len() - 1);
                    assert_eq!(description, min.description);
                }
                other => panic!("shrunk schedule must still violate, got {other:?}"),
            }
        }
    }

    /// Same config + bound ⇒ identical schedule count and violation set
    /// across independent explorations and across 1, 2 and 4 workers, and
    /// each recorded violation replays to the same verdict (the `--replay`
    /// path).
    #[test]
    fn exploration_is_deterministic_across_runs_workers_and_replay() {
        let clean = RegisterScenario::concurrent_write_read();
        let config = ExplorerConfig { branch_depth: 3, max_schedules: 300, ..Default::default() };
        let base = explore(&clean, &config);
        assert!(!base.stats.hit_schedule_cap && base.violations.is_empty());
        for jobs in [1, 2, 4] {
            let rep = explore(&clean, &ExplorerConfig { jobs, ..config.clone() });
            assert_eq!(rep.stats, base.stats, "jobs={jobs}");
            assert_eq!(rep.violations, base.violations, "jobs={jobs}");
        }

        let dirty = RegisterScenario::theorem1(5);
        let config = ExplorerConfig {
            branch_depth: 10,
            max_schedules: 2_000,
            stop_on_violation: true,
            ..Default::default()
        };
        let a = explore(&dirty, &config);
        let b = explore(&dirty, &config);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.violations, b.violations);
        for v in &a.violations {
            match replay(&dirty, &v.schedule) {
                ReplayOutcome::Violation { at, description } => {
                    assert_eq!(at, v.schedule.len() - 1);
                    assert_eq!(description, v.description);
                }
                other => panic!("recorded violation must replay, got {other:?}"),
            }
        }
    }

    /// Focused throughput measurement for the sleep-set hot path (run with
    /// `cargo test --release -p sbft-explorer -- --ignored --nocapture`).
    /// Deep fork bound ⇒ large sleep sets ⇒ the candidate filter and
    /// sibling-sleep construction dominate; prints transitions/sec.
    #[test]
    #[ignore = "timing measurement, not a correctness check"]
    fn sleep_hot_path_throughput() {
        let s = RegisterScenario::concurrent_write_read();
        let config =
            ExplorerConfig { branch_depth: 9, max_schedules: 1_000_000, ..Default::default() };
        let t0 = std::time::Instant::now();
        let report = explore(&s, &config);
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "prune-on depth-9: {} schedules, {} pruned, {} transitions in {:.2}s = {:.0} transitions/sec",
            report.stats.schedules,
            report.stats.pruned,
            report.stats.transitions,
            dt,
            report.stats.transitions as f64 / dt,
        );
        assert!(report.violations.is_empty(), "concurrent-wr-n6 is clean");
    }

    #[test]
    fn theorem1_n6_default_schedule_is_clean() {
        let s = RegisterScenario::theorem1(6);
        let mut run = s.start();
        let mut steps = 0;
        while let Some(&key) = run.enabled().first() {
            match run.step(key) {
                StepResult::Ok => steps += 1,
                other => panic!("n=6 must absorb the adversary, got {other:?}"),
            }
            assert!(steps < 10_000, "runaway schedule");
        }
        assert_eq!(run.finish(false), None);
    }

    #[test]
    fn mwmr_and_crash_recover_default_schedules_are_clean() {
        for s in [RegisterScenario::mwmr_two_writers(), RegisterScenario::crash_recover()] {
            let mut run = s.start();
            assert!(!run.enabled().is_empty(), "{}: setup leaves ops in flight", s.name());
            let mut steps = 0;
            while let Some(&key) = run.enabled().first() {
                match run.step(key) {
                    StepResult::Ok => steps += 1,
                    other => panic!("{}: default schedule must be clean, got {other:?}", s.name()),
                }
                assert!(steps < 10_000, "runaway schedule");
            }
            assert_eq!(run.finish(false), None, "{}: all ops must complete", s.name());
        }
    }

    /// The crash-recovery setup must actually perturb state: server 0's
    /// first syncs happen every [`sbft_core::server::SYNC_EVERY`] applied
    /// writes, so both settled writes sit in the unflushed tail that
    /// [`sbft_storage::DiskFault::LostSuffix`] eats — the server rejoins
    /// behind its peers, not as a clone of them.
    #[test]
    fn crash_recover_server_rejoins_stale() {
        let s = RegisterScenario::crash_recover();
        let mut run = s.start();
        let (v0, applied0) = {
            let srv = run.cluster.server_state(0).expect("recovered server is honest");
            (srv.value, srv.writes_applied)
        };
        let srv1 = run.cluster.server_state(1).expect("honest peer");
        assert!(
            applied0 < srv1.writes_applied,
            "server 0 must rejoin stale: {applied0} vs {} applied writes",
            srv1.writes_applied
        );
        assert_ne!(v0, srv1.value, "stale server must hold an older value");
    }
}
