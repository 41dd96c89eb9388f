//! Substrate parity: the same sans-IO automata behave correctly on both
//! the deterministic simulator and the threaded (crossbeam) runtime, and
//! the data-link substrate provides the FIFO property the register
//! assumes.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::collection;
use proptest::prelude::*;
use sbft::datalink::DatalinkSim;
use sbft::labels::{BoundedLabeling, MwmrLabeling};
use sbft::net::corruption::FaultPlan;
use sbft::net::{
    AnySubstrate, Automaton, Backend, BatchPolicy, CorruptionSeverity, Ctx, LinkFault, NemesisOpts,
    NemesisSchedule, ProcessId, Substrate, SubstrateConfig, ThreadedCluster, ENV,
};
use sbft::register::adversary::ByzStrategy;
use sbft::register::client::Client;
use sbft::register::cluster::{Op, RegisterCluster};
use sbft::register::config::ClusterConfig;
use sbft::register::messages::{ClientEvent, Msg};
use sbft::register::reader::ReaderOptions;
use sbft::register::server::Server;
use sbft::register::{RetryPolicy, Soak, Ts};

type B = BoundedLabeling;
type M = Msg<Ts<B>>;
type E = ClientEvent<Ts<B>>;

fn spawn_threaded(f: usize, clients: usize, seed: u64) -> (ClusterConfig, ThreadedCluster<M, E>) {
    let cfg = ClusterConfig::stabilizing(f);
    let sys = MwmrLabeling::new(BoundedLabeling::new(cfg.label_k()));
    let mut procs: Vec<Box<dyn Automaton<M, E>>> = Vec::new();
    for _ in 0..cfg.n {
        procs.push(Box::new(Server::<B>::new(sys.clone(), cfg)));
    }
    for i in 0..clients {
        let pid = cfg.client_pid(i);
        procs.push(Box::new(Client::<B>::new(
            sys.clone(),
            cfg,
            pid as u32,
            ReaderOptions::default(),
        )));
    }
    (cfg, ThreadedCluster::spawn_with(procs, &SubstrateConfig::seeded(seed)))
}

/// Send `msg` to client `pid` and wait (up to 30 s of idle pumps) for its
/// next output.
fn invoke(cluster: &mut ThreadedCluster<M, E>, pid: ProcessId, msg: M) -> Option<E> {
    cluster.inject(pid, msg);
    cluster.pump_until(u64::MAX, 300, &mut |_, from, out| (from == pid).then_some(out))
}

#[test]
fn threaded_write_read_roundtrip() {
    let (cfg, mut cluster) = spawn_threaded(1, 2, 1);
    let w = cfg.client_pid(0);
    let r = cfg.client_pid(1);
    let ev = invoke(&mut cluster, w, Msg::InvokeWrite { value: 55 })
        .expect("write terminates on threads");
    assert!(matches!(ev, ClientEvent::WriteDone { value: 55, .. }));
    let ev = invoke(&mut cluster, r, Msg::InvokeRead).expect("read terminates on threads");
    match ev {
        ClientEvent::ReadDone { value, .. } => assert_eq!(value, 55),
        other => panic!("unexpected {other:?}"),
    }
    cluster.stop();
}

#[test]
fn threaded_sequential_reads_do_not_regress() {
    let (cfg, mut cluster) = spawn_threaded(1, 2, 2);
    let w = cfg.client_pid(0);
    let r = cfg.client_pid(1);
    let mut last = 0u64;
    for v in 1..=20u64 {
        invoke(&mut cluster, w, Msg::InvokeWrite { value: v }).expect("write");
        let ev = invoke(&mut cluster, r, Msg::InvokeRead).expect("read");
        if let ClientEvent::ReadDone { value, .. } = ev {
            assert!(value >= last, "reads regressed: {value} after {last}");
            last = value;
        }
    }
    cluster.stop();
}

#[test]
fn simulator_and_threads_agree_on_final_value() {
    // Same workload on both substrates: last write wins on both.
    let mut sim = RegisterCluster::bounded(1).clients(2).seed(3).build();
    let (w, r) = (sim.client(0), sim.client(1));
    for v in 1..=7 {
        sim.write(w, v).unwrap();
    }
    let sim_final = sim.read(r).unwrap().value;

    let (cfg, mut cluster) = spawn_threaded(1, 2, 3);
    for v in 1..=7u64 {
        invoke(&mut cluster, cfg.client_pid(0), Msg::InvokeWrite { value: v }).expect("write");
    }
    let ev = invoke(&mut cluster, cfg.client_pid(1), Msg::InvokeRead).expect("read");
    let thr_final = match ev {
        ClientEvent::ReadDone { value, .. } => value,
        other => panic!("unexpected {other:?}"),
    };
    cluster.stop();

    assert_eq!(sim_final, 7);
    assert_eq!(thr_final, 7);
}

/// Collects `(sender, seq)` for every delivered message.
struct Sink;

impl Automaton<u64, (ProcessId, u64)> for Sink {
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64, (ProcessId, u64)>) {
        if from != ENV {
            ctx.output((from, msg));
        }
    }
}

/// On an ENV kick carrying `n`, fires a burst of `n` sequenced messages
/// at the sink.
struct Source;

impl Automaton<u64, (ProcessId, u64)> for Source {
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64, (ProcessId, u64)>) {
        if from == ENV {
            for seq in 0..msg {
                ctx.send(0, seq);
            }
        }
    }
}

/// Run `bursts[i]` messages from source `i + 1` to the sink at pid 0 and
/// return the per-sender delivery order observed by the sink.
fn observed_order(backend: Backend, bursts: &[u64], seed: u64) -> BTreeMap<ProcessId, Vec<u64>> {
    let mut procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> = vec![Box::new(Sink)];
    for _ in bursts {
        procs.push(Box::new(Source));
    }
    let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(seed));
    for (i, &n) in bursts.iter().enumerate() {
        sub.inject(i + 1, n);
    }
    let expected: u64 = bursts.iter().sum();
    let mut seen: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    let mut got = 0u64;
    sub.pump_until(u64::MAX, 50, &mut |_time, _pid, (from, seq)| {
        seen.entry(from).or_default().push(seq);
        got += 1;
        (got >= expected).then_some(())
    });
    sub.stop();
    seen
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Per-sender FIFO: whatever the interleaving across senders, each
    /// sender's messages arrive in send order — on both substrates.
    #[test]
    fn per_sender_fifo_holds_on_both_substrates(
        bursts in collection::vec(1u64..20, 1..4),
        seed in 0u64..1000,
    ) {
        for backend in [Backend::Sim, Backend::Threaded] {
            let seen = observed_order(backend, &bursts, seed);
            for (i, &n) in bursts.iter().enumerate() {
                let order = seen.get(&(i + 1)).cloned().unwrap_or_default();
                let expected: Vec<u64> = (0..n).collect();
                prop_assert_eq!(
                    &order, &expected,
                    "{:?}: sender {} out of order", backend, i + 1
                );
            }
        }
    }

    /// Same seed, same sequential workload → identical client-visible
    /// outcomes on the simulator and on real threads.
    #[test]
    fn same_seed_same_outcomes_on_both_substrates(
        ops in collection::vec(
            (0usize..2, prop_oneof![(1u64..1000).prop_map(Op::Write), Just(Op::Read)]),
            1..10,
        ),
        seed in 0u64..1000,
    ) {
        let run = |backend: Backend| {
            let mut c = RegisterCluster::bounded(1)
                .clients(2)
                .seed(seed)
                .backend(backend)
                .build_any();
            let mut outcomes: Vec<(char, u64)> = Vec::new();
            for &(ci, op) in &ops {
                let pid = c.client(ci);
                match op {
                    Op::Write(v) => outcomes.push(('w', u64::from(c.write(pid, v).is_ok()))),
                    Op::Read => outcomes.push(('r', c.read(pid).map(|r| r.value).unwrap_or(u64::MAX))),
                }
            }
            assert!(c.check_history().is_ok(), "{backend:?} history irregular");
            c.stop();
            outcomes
        };
        prop_assert_eq!(run(Backend::Sim), run(Backend::Threaded));
    }
}

#[test]
fn threaded_crash_mid_operation_still_terminates() {
    // Crash an honest server while a write is in flight on the threaded
    // backend. With n = 6 and f = 1 the five surviving servers still form
    // the n - f quorum, so the retrying client must complete the write
    // (possibly after a deadline-triggered retry) rather than hang.
    let mut c = RegisterCluster::bounded(1)
        .clients(1)
        .seed(17)
        .retry(RetryPolicy::chaos())
        .backend(Backend::Threaded)
        .build_any();
    let w = c.client(0);
    c.write(w, 1).expect("clean write before the crash");
    c.invoke(w, (), Op::Write(2));
    c.sim.crash(0);
    let ev = c.await_client(w).expect("write terminates despite the crash");
    assert!(matches!(ev, ClientEvent::WriteDone { value: 2, .. }), "unexpected {ev:?}");
    let got = c.read(w).expect("read terminates on the 5-server quorum");
    assert_eq!(got.value, 2);
    assert!(c.check_history().is_ok(), "crash must not break regularity");
    c.stop();
}

/// One full chaos run on the simulator: the fired nemesis log, every
/// client-visible op outcome, the final read, and the final clock.
fn chaos_trace(seed: u64) -> (Vec<(u64, String)>, Vec<String>, u64, u64) {
    let mut c =
        RegisterCluster::bounded(1).clients(2).seed(seed).retry(RetryPolicy::chaos()).build();
    let opts = NemesisOpts {
        servers: c.cfg.n,
        total_procs: c.cfg.n + 2,
        horizon: 6_000,
        ..NemesisOpts::default()
    };
    let schedule = NemesisSchedule::random(seed, &opts);
    let runner = c.nemesis_runner(schedule, Vec::new(), ByzStrategy::Silent);

    let mut soak = Soak::new(&mut c, (), runner);
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    while !soak.runner.done() && rounds < 200 {
        rounds += 1;
        let (wout, rout) = soak.round();
        outcomes.push(format!("{wout:?}"));
        outcomes.push(format!("{rout:?}"));
    }
    let log = soak.runner.log.iter().map(|f| (f.at, f.kind.to_string())).collect();
    let final_read = c.read(c.client(1)).map(|ok| ok.value).unwrap_or(u64::MAX);
    let now = c.now();
    c.stop();
    (log, outcomes, final_read, now)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3 })]

    /// The nemesis is part of the deterministic closure: the same seed and
    /// the same schedule replay to the identical fired-event sequence, the
    /// identical per-op outcomes, and the identical final state.
    #[test]
    fn nemesis_same_seed_same_schedule_is_deterministic(seed in 0u64..100) {
        let a = chaos_trace(seed);
        let b = chaos_trace(seed);
        prop_assert!(!a.0.is_empty(), "schedule fired no events");
        prop_assert!(a.1.len() >= 2, "no ops ran");
        prop_assert_eq!(a.0, b.0, "nemesis event sequences diverged");
        prop_assert_eq!(a.1, b.1, "op outcome sequences diverged");
        prop_assert_eq!((a.2, a.3), (b.2, b.3), "final read / clock diverged");
    }
}

/// On an ENV kick carrying `n`, fires `n` sequenced messages at the sink
/// on pid 0 (the possibly-faulted channel), then one completion marker at
/// the sink on pid 1 (always clean) — so the marker's arrival proves the
/// sender finished routing the whole volley, drops included.
struct Volley;

impl Automaton<u64, (ProcessId, u64)> for Volley {
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64, (ProcessId, u64)>) {
        if from == ENV {
            for seq in 0..msg {
                ctx.send(0, seq);
            }
            ctx.send(1, u64::MAX);
        }
    }
}

/// Run a `volley`-message burst over the faulted channel `(2, 0)` and
/// return `(sent, frames_sent, delivered, dropped)` plus the sink-0
/// delivery count.
fn fault_cell(
    backend: Backend,
    batch: BatchPolicy,
    fault: LinkFault,
    volley: u64,
    expect_sink: u64,
) -> (u64, u64, u64, u64, u64) {
    let procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> =
        vec![Box::new(Sink), Box::new(Sink), Box::new(Volley)];
    let mut sub =
        AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(9).with_batching(batch));
    sub.set_link_fault(2, 0, Some(fault));
    sub.inject(2, volley);
    let mut sink0 = 0u64;
    let mut marker = false;
    sub.pump_until(u64::MAX, 200, &mut |_t, pid, (_from, _seq)| {
        if pid == 0 {
            sink0 += 1;
        } else {
            marker = true;
        }
        (marker && sink0 >= expect_sink).then_some(())
    });
    let m = sub.metrics_snapshot();
    sub.stop();
    (m.messages_sent, m.frames_sent, m.messages_delivered, m.messages_dropped, sink0)
}

/// Load `plan`'s garbage onto a quiet three-process cluster, wait for all
/// of it to surface at the sinks, and return `(sent, delivered)`.
fn garbage_cell(backend: Backend, plan: &FaultPlan) -> (u64, u64) {
    let procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> =
        vec![Box::new(Sink), Box::new(Sink), Box::new(Volley)];
    let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(9));
    sub.apply_fault(plan, &mut |_rng| 7);
    let mut seen = 0usize;
    sub.pump_until(u64::MAX, 200, &mut |_t, _pid, _out| {
        seen += 1;
        (seen >= plan.garbage_total()).then_some(())
    });
    let m = sub.metrics_snapshot();
    sub.stop();
    (m.messages_sent, m.messages_delivered)
}

/// Ship `n` garbage messages on `(2, 0)` while that link is cut, and return
/// `(sent, delivered, dropped)` once the substrate has stopped (on threads,
/// `stop` returns after every worker drained its inbox up to the stop).
fn garbage_over_cut_link(backend: Backend, n: usize) -> (u64, u64, u64) {
    let procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> =
        vec![Box::new(Sink), Box::new(Sink), Box::new(Volley)];
    let mut sub = AnySubstrate::spawn(backend, procs, &SubstrateConfig::seeded(9));
    sub.set_link_fault(2, 0, Some(LinkFault::cut()));
    let plan = FaultPlan {
        corrupt_processes: vec![],
        garbage_channels: vec![(2, 0)],
        garbage_per_channel: n,
    };
    sub.apply_fault(&plan, &mut |_rng| 7);
    sub.pump_until(u64::MAX, 1, &mut |_t, _pid, _out| None::<()>);
    sub.stop();
    let m = sub.metrics_snapshot();
    (m.messages_sent, m.messages_delivered, m.messages_dropped)
}

/// Arms one timer of `self.0` ticks on start and outputs when it fires.
struct Alarm(u64);

impl Automaton<u64, (ProcessId, u64)> for Alarm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, (ProcessId, u64)>) {
        ctx.set_timer(self.0, 0);
    }
    fn on_timer(&mut self, _id: u64, ctx: &mut Ctx<'_, u64, (ProcessId, u64)>) {
        ctx.output((ctx.me, self.0));
    }
    fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Ctx<'_, u64, (ProcessId, u64)>) {}
}

/// Crash process 0 before its alarm rings, wait for process 1's later
/// alarm, and return `events_processed` once the substrate has stopped.
fn timer_into_crashed_process(backend: Backend) -> u64 {
    let procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> =
        vec![Box::new(Alarm(50)), Box::new(Alarm(100))];
    let config = SubstrateConfig::seeded(9).with_tick(Duration::from_millis(1));
    let mut sub = AnySubstrate::spawn(backend, procs, &config);
    sub.crash(0);
    // The wheel fires in deadline order, so by the time 1's alarm
    // surfaces 0's firing sits in 0's inbox, ahead of `stop`'s control.
    let woke = sub.pump_until(u64::MAX, 50, &mut |_t, pid, _out| (pid == 1).then_some(()));
    assert_eq!(woke, Some(()), "{backend:?}: the live alarm must ring");
    sub.stop();
    sub.metrics_snapshot().events_processed
}

/// Link-fault accounting parity: a dropped message still counts as sent, a
/// duplicate is one send with two deliveries, and a delayed message is one
/// send with one delivery — identically on the simulator and on threads,
/// and per whole frame when the link batches (a dropped frame drops every
/// message it carries, a duplicated one delivers all of them twice).
/// Garbage preloaded by a `FaultPlan` was never sent: it is only delivered,
/// or dropped when it crosses a cut link. A timer firing into a crashed
/// process is still one event. Fault rates of 0.0/1.0 make the cells deterministic even though the two
/// backends consume different RNG streams.
#[test]
fn link_fault_accounting_agrees_across_substrates() {
    let volley = 10u64;
    // (cell, fault, expected sink-0 deliveries)
    let cells = [
        ("drop", LinkFault::flaky(1.0, 0.0, 0), 0),
        ("dup", LinkFault::flaky(0.0, 1.0, 0), 2 * volley),
        ("delay", LinkFault::flaky(0.0, 0.0, 3), volley),
    ];
    // Unbatched, every message is its own frame: the ENV kick, the volley
    // and the marker. Batched 4-wide, the volley ships as frames of 4, 4
    // and (flushed with the marker's own frame) 2.
    let columns = [(BatchPolicy::disabled(), volley + 2), (BatchPolicy::new(4, 2), 5)];
    for (batch, expect_frames) in columns {
        for (name, fault, expect_sink) in cells {
            let name = format!("{name}, max_batch {}", batch.max_batch);
            let sim = fault_cell(Backend::Sim, batch, fault, volley, expect_sink);
            let thr = fault_cell(Backend::Threaded, batch, fault, volley, expect_sink);
            assert_eq!(
                sim, thr,
                "{name}: (sent, frames, delivered, dropped, sink) diverged across backends"
            );
            // And both match the accounting contract in absolute terms: every
            // send is one of the ENV kick, the volley, or the marker.
            let (sent, frames, delivered, dropped, sink0) = sim;
            assert_eq!(sent, volley + 2, "{name}: drops and dups must not distort the send count");
            assert_eq!(frames, expect_frames, "{name}: a faulted frame is still one frame sent");
            assert_eq!(sink0, expect_sink, "{name}");
            // Delivered covers the ENV kick, the marker, and the surviving
            // volley (twice for duplicates); drops are counted separately.
            assert_eq!(delivered, expect_sink + 2, "{name}");
            assert_eq!(dropped, if fault.is_cut() { volley } else { 0 }, "{name}");
        }
    }
    let plan = FaultPlan::targeting(&[2], 3, CorruptionSeverity::Heavy);
    let sim = garbage_cell(Backend::Sim, &plan);
    let thr = garbage_cell(Backend::Threaded, &plan);
    assert_eq!(sim, thr, "garbage: (sent, delivered) diverged across backends");
    assert_eq!(sim, (0, plan.garbage_total() as u64), "garbage is delivered, never sent");

    let sim = garbage_over_cut_link(Backend::Sim, 5);
    let thr = garbage_over_cut_link(Backend::Threaded, 5);
    assert_eq!(sim, thr, "garbage over a cut link: (sent, delivered, dropped) diverged");
    assert_eq!(sim, (0, 0, 5), "garbage crosses the link's fault like any frame");

    let sim = timer_into_crashed_process(Backend::Sim);
    let thr = timer_into_crashed_process(Backend::Threaded);
    assert_eq!(sim, thr, "timer into a crashed process: events_processed diverged");
    assert_eq!(sim, 2, "both firings are events, the crashed process's included");
}

/// One durable run under a scripted Crash → CrashRecover schedule:
/// blocking ops with a full settle between steps make the per-server
/// message order — and therefore every disk's byte content — a function
/// of the seed alone, on either backend. Returns the per-server disk
/// digests, the spec verdict, and the recovery (cure) log.
fn durable_recover_trace(
    backend: Backend,
    seed: u64,
) -> (Vec<u64>, Result<(), String>, Vec<ProcessId>) {
    use sbft::net::NemesisEvent;
    use sbft::storage::DiskFault;
    let mut c =
        RegisterCluster::bounded(1).clients(2).durable().seed(seed).backend(backend).build_any();
    let (w, r) = (c.client(0), c.client(1));
    let schedule = NemesisSchedule::scripted(vec![
        (0, NemesisEvent::Crash(0)),
        (1, NemesisEvent::CrashRecover { pid: 0, fault: DiskFault::LostSuffix }),
        (2, NemesisEvent::Crash(2)),
        (3, NemesisEvent::CrashRecover { pid: 2, fault: DiskFault::StaleSnapshot }),
    ]);
    let mut runner = c.nemesis_runner(schedule, Vec::new(), ByzStrategy::Silent);
    for v in 1..=6u64 {
        c.write(w, v).unwrap();
    }
    c.settle(200_000);
    // Crash 0, write through the gap, reboot it from its damaged disk.
    runner.fire_next(&mut c.sim);
    c.settle(200_000);
    for v in 7..=9u64 {
        c.write(w, v).unwrap();
    }
    c.settle(200_000);
    runner.fire_next(&mut c.sim);
    c.settle(200_000);
    // Same dance for server 2 with a different fault kind.
    runner.fire_next(&mut c.sim);
    c.settle(200_000);
    for v in 10..=12u64 {
        c.write(w, v).unwrap();
    }
    c.settle(200_000);
    runner.fire_next(&mut c.sim);
    c.settle(200_000);
    for v in 13..=20u64 {
        c.write(w, v).unwrap();
    }
    let got = c.read(r).expect("read terminates after recoveries").value;
    assert_eq!(got, 20, "{backend:?}");
    c.settle(200_000);
    let digests = c.disks.as_ref().expect("durable cluster has disks").digests();
    let verdict = c.check_history().map_err(|e| format!("{e:?}"));
    let cures = runner.cures.iter().map(|&(_, pid)| pid).collect();
    c.stop();
    (digests, verdict, cures)
}

/// Satellite of the durability work: an identical seed and an identical
/// CrashRecover schedule leave byte-identical recovered state (per-server
/// disk digests) and the identical spec verdict on the simulator and on
/// real threads.
#[test]
fn crash_recover_parity_across_substrates() {
    for seed in [5u64, 23] {
        let (sim_digests, sim_verdict, sim_cures) = durable_recover_trace(Backend::Sim, seed);
        let (thr_digests, thr_verdict, thr_cures) = durable_recover_trace(Backend::Threaded, seed);
        assert_eq!(sim_digests, thr_digests, "seed {seed}: recovered disks diverged");
        assert_eq!(sim_verdict, thr_verdict, "seed {seed}: spec verdicts diverged");
        assert!(sim_verdict.is_ok(), "seed {seed}: {sim_verdict:?}");
        assert_eq!(sim_cures, vec![0, 2], "seed {seed}: recovery log wrong");
        assert_eq!(sim_cures, thr_cures, "seed {seed}: recovery logs diverged");
    }
}

#[test]
fn datalink_provides_fifo_for_the_register_assumption() {
    // The register assumes reliable FIFO channels; the data-link builds
    // them from lossy non-FIFO ones. End to end: a corrupted link still
    // delivers the stream's clean FIFO suffix.
    let payloads: Vec<u64> = (500..560).collect();
    let rep = DatalinkSim::converge_report(4, 11, &payloads, 50_000_000);
    assert!(rep.fifo_suffix_ok, "{rep:?}");
}
