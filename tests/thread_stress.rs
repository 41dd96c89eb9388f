//! Elevated-iteration stress for the event-driven threaded runtime.
//!
//! These tests hammer the wakeup paths the quick suites only touch:
//! sustained register traffic, FIFO under cross-sender pressure, link-fault
//! churn racing live traffic, crash/restart churn, and a timer storm
//! through the shared wheel. They are `#[ignore]`d by default because they
//! take tens of seconds; the CI thread-stress job runs them with
//! `cargo test --release --test thread_stress -- --ignored`, where races
//! in the wakeup machinery surface as hangs (every wait here is bounded)
//! or as broken invariants.

use std::collections::BTreeMap;
use std::time::Duration;

use sbft::labels::BoundedLabeling;
use sbft::net::{
    Automaton, Backend, Ctx, LinkFault, ProcessId, Substrate, SubstrateConfig, ThreadedCluster, ENV,
};
use sbft::register::cluster::{Op, RegisterCluster};
use sbft::register::messages::ClientEvent;
use sbft::register::server::Server;
use sbft::register::RetryPolicy;

type B = BoundedLabeling;

/// Sustained closed-loop register traffic: several clients, hundreds of
/// operations each, every one must terminate and the history must stay
/// regular.
#[test]
#[ignore = "elevated iterations; run via the CI thread-stress job"]
fn stress_register_sustained_ops() {
    let mut c =
        RegisterCluster::bounded(1).clients(3).seed(101).backend(Backend::Threaded).build_any();
    let clients: Vec<ProcessId> = (0..3).map(|i| c.client(i)).collect();
    for round in 0..300u64 {
        for (i, &pid) in clients.iter().enumerate() {
            let v = round * 10 + i as u64 + 1;
            if (round + i as u64).is_multiple_of(3) {
                let got = c.read(pid).expect("read terminates under sustained load");
                assert!(got.value <= 3000, "implausible value {}", got.value);
            } else {
                c.write(pid, v).expect("write terminates under sustained load");
            }
        }
    }
    assert!(c.check_history().is_ok(), "sustained load broke regularity");
    c.stop();
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

/// On an ENV kick carrying `n`, fires a burst of `n` sequenced messages at
/// the sink.
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

/// Per-sender FIFO at volume: 6 senders × 2000 messages each into one
/// sink, nothing lost, nothing reordered within a sender.
#[test]
#[ignore = "elevated iterations; run via the CI thread-stress job"]
fn stress_fifo_many_senders_large_bursts() {
    const SENDERS: usize = 6;
    const BURST: u64 = 2000;
    let mut procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> = vec![Box::new(Sink)];
    for _ in 0..SENDERS {
        procs.push(Box::new(Source));
    }
    let mut sub = ThreadedCluster::spawn_with(procs, &SubstrateConfig::seeded(7));
    for i in 0..SENDERS {
        sub.inject(i + 1, BURST);
    }
    let expected = SENDERS as u64 * BURST;
    let mut seen: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    let mut got = 0u64;
    sub.pump_until(u64::MAX, 200, &mut |_t, _pid, (from, seq)| {
        seen.entry(from).or_default().push(seq);
        got += 1;
        (got >= expected).then_some(())
    });
    assert_eq!(got, expected, "messages lost under load");
    for (sender, order) in seen {
        assert_eq!(order, (0..BURST).collect::<Vec<u64>>(), "sender {sender} reordered");
    }
    sub.stop();
}

/// Link-fault churn racing live traffic: repeatedly install and clear
/// delay/dup/drop faults while volleys are in flight. Terminates (no
/// wedged deferred state) and conserves accounting: every send is
/// eventually delivered (possibly twice) or counted dropped.
#[test]
#[ignore = "elevated iterations; run via the CI thread-stress job"]
fn stress_link_fault_churn_conserves_messages() {
    let procs: Vec<Box<dyn Automaton<u64, (ProcessId, u64)>>> =
        vec![Box::new(Sink), Box::new(Source)];
    let mut sub = ThreadedCluster::spawn_with(
        procs,
        &SubstrateConfig::seeded(23).with_tick(Duration::from_micros(50)),
    );
    let faults = [
        Some(LinkFault::flaky(0.0, 0.0, 5)),
        Some(LinkFault::flaky(0.0, 1.0, 0)),
        None,
        Some(LinkFault::flaky(0.0, 0.5, 3)),
        None,
    ];
    for round in 0..200usize {
        sub.set_link_fault(1, 0, faults[round % faults.len()]);
        sub.inject(1, 10);
    }
    sub.set_link_fault(1, 0, None);
    // Drain until deliveries stop arriving (bounded by pump timeouts).
    let mut sink = 0u64;
    sub.pump_until(u64::MAX, 10, &mut |_t, _p, _o: (ProcessId, u64)| {
        sink += 1;
        None::<()>
    });
    let m = sub.metrics_snapshot();
    // ENV kicks (200) + volleys (2000) were all sent; every volley message
    // was delivered at least once (no drop fault installed above drops
    // nothing — only delay/dup), and duplicates only add deliveries.
    assert_eq!(m.messages_sent, 2200, "{m:?}");
    assert_eq!(m.messages_dropped, 0, "{m:?}");
    assert!(m.messages_delivered >= 2200, "{m:?}");
    assert!(sink >= 2000, "sink saw {sink} of 2000 volley messages");
    sub.stop();
}

/// Crash/restart churn under retrying load: the client must keep
/// terminating operations while servers flap.
#[test]
#[ignore = "elevated iterations; run via the CI thread-stress job"]
fn stress_crash_restart_churn_keeps_terminating() {
    let mut c = RegisterCluster::bounded(1)
        .clients(1)
        .seed(31)
        .retry(RetryPolicy::chaos())
        .backend(Backend::Threaded)
        .build_any();
    let w = c.client(0);
    let n = c.cfg.n;
    let cfg = c.cfg;
    let sys = c.sys.clone();
    let mut completed = 0u64;
    for round in 0..60u64 {
        let victim = (round as usize) % n;
        c.sim.crash(victim);
        c.invoke(w, (), Op::Write(round + 1));
        if let Ok(ev) = c.await_client(w) {
            if matches!(ev, ClientEvent::WriteDone { .. }) {
                completed += 1;
            }
        }
        c.sim.restart(victim, Box::new(Server::<B>::new(sys.clone(), cfg)));
    }
    assert!(completed >= 30, "only {completed}/60 writes completed under churn");
    assert!(c.check_history().is_ok(), "crash churn broke regularity");
    c.stop();
}

/// Arms `self.0` timers of jittered delays on start, outputs each firing.
struct TimerStorm(u64);

impl Automaton<u64, u64> for TimerStorm {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
        for id in 0..self.0 {
            ctx.set_timer(1 + (id % 97), id);
        }
    }
    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, u64, u64>) {
        ctx.output(id);
    }
    fn on_message(&mut self, _: ProcessId, _: u64, _: &mut Ctx<'_, u64, u64>) {}
}

/// Timer storm through the shared wheel: thousands of timers from several
/// processes at once; every one fires exactly once.
#[test]
#[ignore = "elevated iterations; run via the CI thread-stress job"]
fn stress_timer_storm_fires_every_timer_once() {
    const PROCS: usize = 4;
    const TIMERS: u64 = 2500;
    let procs: Vec<Box<dyn Automaton<u64, u64>>> =
        (0..PROCS).map(|_| Box::new(TimerStorm(TIMERS)) as Box<dyn Automaton<u64, u64>>).collect();
    let mut sub = ThreadedCluster::spawn_with(
        procs,
        &SubstrateConfig::seeded(41).with_tick(Duration::from_micros(50)),
    );
    let mut fired: BTreeMap<ProcessId, Vec<u64>> = BTreeMap::new();
    let mut got = 0u64;
    sub.pump_until(u64::MAX, 300, &mut |_t, pid, id| {
        fired.entry(pid).or_default().push(id);
        got += 1;
        (got >= PROCS as u64 * TIMERS).then_some(())
    });
    assert_eq!(got, PROCS as u64 * TIMERS, "timer firings lost");
    for (pid, mut ids) in fired {
        ids.sort_unstable();
        assert_eq!(ids, (0..TIMERS).collect::<Vec<u64>>(), "pid {pid}: duplicate/missing firing");
    }
    sub.stop();
}
