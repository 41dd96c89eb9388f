//! Calibration: what one call into each layer costs in isolation. Each
//! micro-run repeats its call for five timed batches and reports the
//! median batch's time per call, so a traced run's call *counts* can be
//! priced and its self times reconciled.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::messages::Msg;
use sbft_core::server::Server;
use sbft_core::{ClusterConfig, Sys, Ts};
use sbft_kv::server::KvServer;
use sbft_kv::KvMsg;
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling};
use sbft_net::{
    Automaton, BatchPolicy, Ctx, LinkBatcher, ProcessId, Pumped, SimConfig, Simulation, Substrate,
    SubstrateConfig, ThreadedCluster, TimerWheel, ENV,
};
use sbft_storage::frame::crc32;
use sbft_storage::{decode_frames, write_frame, SimDisk, Stable};
use sbft_wtsg::{build_union, select_return_value, HistoryEntry, IncrementalWtsg, Witness};

use crate::stats::median;
use crate::trace::B;

const BATCHES: usize = 5;

/// One calibrated number.
pub type Calibrated = (String, f64);

/// Median over [`BATCHES`] batches of `run(n)`'s time per iteration, in
/// ns. `run(n)` performs `n` iterations and returns the time it wants
/// counted; `n` is sized so that a batch lasts about `batch`.
fn micro(batch: Duration, mut run: impl FnMut(u64) -> Duration) -> f64 {
    let mut n = 1u64;
    let per_iter = loop {
        let t = run(n);
        if t >= batch / 8 || n >= 1 << 30 {
            break t.as_nanos() as f64 / n as f64;
        }
        n *= 2;
    };
    let n = ((batch.as_nanos() as f64 / per_iter.max(0.1)) as u64).max(1);
    let per: Vec<f64> = (0..BATCHES).map(|_| run(n).as_nanos() as f64 / n as f64).collect();
    median(&per)
}

/// [`micro`] for a call that needs no untimed preparation.
fn micro_call<R>(batch: Duration, mut call: impl FnMut() -> R) -> f64 {
    micro(batch, |n| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(call());
        }
        t0.elapsed()
    })
}

fn cfg() -> ClusterConfig {
    ClusterConfig::stabilizing(1)
}

fn sys() -> Sys<B> {
    MwmrLabeling::new(BoundedLabeling::new(cfg().label_k()))
}

/// Bounded labels at `k = label_k()`.
fn labels(batch: Duration, out: &mut Vec<Calibrated>) {
    let k = cfg().label_k();
    let sys = BoundedLabeling::new(k);
    let mut rng = StdRng::seed_from_u64(1);
    let seen: Vec<_> = (0..k).map(|_| sys.sanitize(sys.arbitrary(&mut rng))).collect();
    let next = sys.next(&seen);
    let raw = sys.arbitrary(&mut rng);
    out.push(("labels.next_ns".into(), micro_call(batch, || sys.next(black_box(&seen)))));
    out.push((
        "labels.precedes_ns".into(),
        micro_call(batch, || sys.precedes(black_box(&seen[0]), black_box(&next))),
    ));
    out.push((
        "labels.sanitize_ns".into(),
        micro_call(batch, || sys.sanitize(black_box(raw.clone()))),
    ));
}

/// The reader's graph work at `n = 6`, over three versions plus garbage as
/// in `benches/labels_wtsg.rs`: four servers hold the newest version (so
/// selection has a candidate at the `2f + 1` threshold), one the version
/// before, one a garbage timestamp.
fn wtsg(batch: Duration, out: &mut Vec<Calibrated>) {
    let sys = sys();
    let mut rng = StdRng::seed_from_u64(2);
    let mut versions = vec![sys.next_for(6, &[sys.genesis()])];
    for _ in 0..2 {
        versions.push(sys.next_for(6, std::slice::from_ref(versions.last().expect("non-empty"))));
    }
    let n = cfg().n;
    let witnesses: Vec<Witness<u64, Ts<B>>> = (0..n)
        .map(|s| match n - 1 - s {
            0 => Witness::new(s, 99, sys.sanitize(sys.arbitrary(&mut rng))),
            1 => Witness::new(s, 1, versions[1].clone()),
            _ => Witness::new(s, 2, versions[2].clone()),
        })
        .collect();
    let threshold = cfg().witness_threshold();
    let filled = || {
        let mut g = IncrementalWtsg::new();
        witnesses.iter().cloned().for_each(|w| g.add_witness(w));
        g
    };
    out.push(("wtsg.add_witness_ns".into(), micro_call(batch, filled) / n as f64));
    let mut g = filled();
    let mut flip = 0usize;
    out.push((
        "wtsg.set_current_ns".into(),
        micro_call(batch, || {
            flip ^= 1;
            g.set_current(0, flip as u64, versions[flip].clone())
        }),
    ));
    let g = filled();
    out.push((
        "wtsg.select_ns".into(),
        micro_call(batch, || select_return_value(&sys, black_box(&g), threshold).is_some()),
    ));
    let history: Vec<HistoryEntry<u64, Ts<B>>> = versions
        .iter()
        .enumerate()
        .map(|(v, ts)| HistoryEntry::new(v as u64, ts.clone()))
        .collect();
    out.push((
        "wtsg.union_build_ns".into(),
        micro_call(batch, || {
            build_union(&sys, witnesses.iter().cloned(), (0..n).map(|s| (s, history.clone())))
                .node_count()
        }),
    ));
}

/// The bare register server, one message kind at a time, outside any
/// substrate and any key map: what `kv.server.*_ns` would be without the
/// KV and shard wrappers.
fn register_server(batch: Duration, out: &mut Vec<Calibrated>) {
    let sys = sys();
    let mut rng = StdRng::seed_from_u64(3);
    let a = sys.next_for(7, &[sys.genesis()]);
    let b = sys.next_for(7, std::slice::from_ref(&a));
    let writes = [Msg::Write { value: 1, ts: a }, Msg::Write { value: 2, ts: b }];
    let mut flip = 0usize;
    type Make = Box<dyn FnMut() -> Msg<Ts<B>>>;
    let mut kinds: Vec<(&str, Make)> = vec![
        ("get_ts", Box::new(|| Msg::GetTs)),
        (
            "write",
            Box::new(move || {
                flip ^= 1;
                writes[flip].clone()
            }),
        ),
        ("read", Box::new(|| Msg::Read { label: 1 })),
        ("complete_read", Box::new(|| Msg::CompleteRead { label: 1 })),
        ("flush", Box::new(|| Msg::Flush { label: 1 })),
    ];
    for (name, make) in &mut kinds {
        let mut server = Server::new(sys.clone(), cfg());
        let mut ctx = Ctx::detached(0, 0, &mut rng);
        let ns = micro_call(batch, || {
            server.on_message(6, make(), &mut ctx);
            ctx.drain().0.len()
        });
        out.push((format!("core.server.{name}_ns"), ns));
    }
}

/// Payload sizes the storage micro-runs sweep.
const PAYLOADS: [usize; 3] = [64, 4 << 10, 256 << 10];
/// The size whose per-KiB figures go into the per-layer metrics.
const PINNED_PAYLOAD: usize = 4 << 10;

/// Checksum, framing and the simulated disk, per KiB of payload.
fn storage(batch: Duration, out: &mut Vec<Calibrated>) {
    for size in PAYLOADS {
        let payload: Vec<u8> = (0..size).map(|i| (i * 31) as u8).collect();
        let kib = size as f64 / 1024.0;
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload);
        let mut scratch = Vec::with_capacity(framed.len());
        let mut disk = SimDisk::new(1);
        disk.put_snapshot(&payload);
        let runs: [(&str, f64); 5] = [
            ("storage.crc32_ns_per_kib", micro_call(batch, || crc32(black_box(&payload)))),
            (
                "storage.write_frame_ns_per_kib",
                micro_call(batch, || {
                    scratch.clear();
                    write_frame(&mut scratch, black_box(&payload));
                }),
            ),
            (
                "storage.decode_frames_ns_per_kib",
                micro_call(batch, || decode_frames(black_box(&framed)).0.len()),
            ),
            ("storage.disk_load_ns_per_kib", micro_call(batch, || disk.load().records.len())),
            (
                "storage.disk_put_snapshot_ns_per_kib",
                micro_call(batch, || disk.put_snapshot(black_box(&payload))),
            ),
        ];
        for (name, ns) in runs {
            let name =
                if size == PINNED_PAYLOAD { name.to_string() } else { format!("{name}@{size}B") };
            out.push((name, ns / kib));
        }
    }
    // The whole-key-map snapshot encoding of a node holding 1,024 keys.
    let sys = sys();
    let mut node = KvServer::new(sys.clone(), cfg());
    let mut rng = StdRng::seed_from_u64(4);
    let mut ctx = Ctx::detached(0, 0, &mut rng);
    for key in 0..1024u64 {
        let ts = sys.next_for(7, &[sys.genesis()]);
        node.on_message(6, KvMsg::new(key, Msg::Write { value: key + 1, ts }), &mut ctx);
        ctx.drain();
    }
    out.push((
        "kv.state_bytes_us_1k_keys".into(),
        micro_call(batch, || node.state_bytes().len()) / 1e3,
    ));
}

/// `LinkBatcher` over the 30 directed links of one 6-node group, eight
/// messages per link between drains.
fn batcher(batch: Duration, out: &mut Vec<Calibrated>) {
    const LINKS: usize = 30;
    const PER_LINK: usize = 8;
    let msgs = (LINKS * PER_LINK) as f64;
    let mut b: LinkBatcher<u64> = LinkBatcher::new();
    let mut round = |time_push: bool| {
        let t0 = Instant::now();
        for i in 0..LINKS * PER_LINK {
            let link = i % LINKS;
            black_box(b.push(link / 5, link % 5 + 6, i as u64, 32));
        }
        let pushed = t0.elapsed();
        let t1 = Instant::now();
        black_box(b.drain_all().len());
        if time_push {
            pushed
        } else {
            t1.elapsed()
        }
    };
    let push = micro(batch, |n| (0..n).map(|_| round(true)).sum());
    let drain = micro(batch, |n| (0..n).map(|_| round(false)).sum());
    out.push(("net.batch.push_ns".into(), push / msgs));
    out.push(("net.batch.drain_ns_per_msg".into(), drain / msgs));
}

/// Sends every message back where it came from (a command from the
/// environment goes to the next process).
struct Echo {
    n: usize,
}

impl Automaton<u64, u64> for Echo {
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64, u64>) {
        let to = if from == ENV { (ctx.me + 1) % self.n } else { from };
        ctx.send(to, msg);
    }
}

/// The simulator's own cost per delivered message: queue, channel map and
/// metrics, with automata that do nothing. Sized like `kv-sim-base` (70
/// processes, ~3,000 messages in flight).
fn null_sim(batch: Duration, out: &mut Vec<Calibrated>) {
    const PROCS: usize = 70;
    const IN_FLIGHT: u64 = 3_072;
    for (name, policy) in [
        ("net.sim.null_event_ns", BatchPolicy::disabled()),
        ("net.sim.null_event_batched_ns", BatchPolicy::new(32, 8)),
    ] {
        let mut sim: Simulation<u64, u64> =
            Simulation::new(SimConfig::seeded(5).with_batching(policy));
        for _ in 0..PROCS {
            sim.add_process(Box::new(Echo { n: PROCS }));
        }
        (0..IN_FLIGHT).for_each(|i| sim.inject(i as usize % PROCS, i));
        let ns = micro(batch, |n| {
            let before = sim.metrics().messages_delivered;
            let t0 = Instant::now();
            while sim.metrics().messages_delivered - before < n {
                sim.step().expect("echo traffic never drains");
            }
            t0.elapsed()
        });
        out.push((name.into(), ns));
    }
}

/// Timer-wheel registration and cancellation with 64 entries pending (one
/// deadline per client of a 64-client cluster), far enough in the future
/// that none fires while timed. Each chunk gets a fresh wheel: a cancelled
/// entry stays in the wheel until its tick comes, so a reused wheel would
/// grow without bound and `cancel`, which scans it, would slow down with it.
fn timer_wheel(batch: Duration, out: &mut Vec<Calibrated>) {
    const CHUNK: u64 = 64;
    let mut ids = Vec::with_capacity(CHUNK as usize);
    let mut chunk = |time_register: bool| {
        let mut thread = TimerWheel::spawn(Instant::now(), Duration::from_micros(100));
        let wheel = thread.handle();
        ids.clear();
        let t0 = Instant::now();
        ids.extend((0..CHUNK).map(|i| wheel.register(10_000_000 + i, || {})));
        let registered = t0.elapsed();
        let t1 = Instant::now();
        for &id in &ids {
            black_box(wheel.cancel(id));
        }
        let cancelled = t1.elapsed();
        thread.stop();
        if time_register {
            registered
        } else {
            cancelled
        }
    };
    let register = micro(batch, |n| (0..n).map(|_| chunk(true)).sum());
    let cancel = micro(batch, |n| (0..n).map(|_| chunk(false)).sum());
    out.push(("net.timer_wheel.register_ns".into(), register / CHUNK as f64));
    out.push(("net.timer_wheel.cancel_ns".into(), cancel / CHUNK as f64));
}

/// Counts a token down by bouncing it between processes 0 and 1; emits an
/// output at zero.
struct PingPong;

impl Automaton<u64, u64> for PingPong {
    fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64, u64>) {
        match msg {
            0 => ctx.output(0),
            m => ctx.send(1 - ctx.me, m - 1),
        }
    }
}

/// The threaded runtime with automata that do nothing: one worker-to-worker
/// hop, and the driver's inject-to-output round trip.
fn threaded(batch: Duration, out: &mut Vec<Calibrated>) {
    let procs: Vec<Box<dyn Automaton<u64, u64>>> = vec![Box::new(PingPong), Box::new(PingPong)];
    let mut sub = ThreadedCluster::spawn_with(procs, &SubstrateConfig::seeded(6));
    let mut round_trip = |hops: u64| {
        let t0 = Instant::now();
        sub.inject(0, hops);
        loop {
            match sub.pump() {
                Pumped::Event { outputs, .. } if !outputs.is_empty() => break t0.elapsed(),
                Pumped::Quiescent => panic!("threaded echo cluster stopped"),
                _ => {}
            }
        }
    };
    let inject_to_output = micro(batch, |n| (0..n).map(|_| round_trip(0)).sum());
    // One inject carries `n` hops; the round trip around them is subtracted.
    let hop = micro(batch, |n| {
        round_trip(n).saturating_sub(Duration::from_nanos(inject_to_output as u64))
    });
    out.push(("net.threaded.hop_us".into(), hop / 1e3));
    out.push(("net.threaded.inject_to_output_us".into(), inject_to_output / 1e3));
    sub.stop();
}

/// Run every micro-run with batches of about `batch` each.
pub fn run(batch: Duration) -> Vec<Calibrated> {
    let mut out = Vec::new();
    labels(batch, &mut out);
    wtsg(batch, &mut out);
    register_server(batch, &mut out);
    storage(batch, &mut out);
    batcher(batch, &mut out);
    null_sim(batch, &mut out);
    timer_wheel(batch, &mut out);
    threaded(batch, &mut out);
    out
}

/// Look one calibrated number up.
pub fn get(cal: &[Calibrated], name: &str) -> f64 {
    cal.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no calibration named {name}")).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_reports_time_per_iteration() {
        // A fake clock: each iteration "takes" exactly 50 ns.
        let ns = micro(Duration::from_micros(200), |n| Duration::from_nanos(50 * n));
        assert!((ns - 50.0).abs() < 1e-9, "{ns}");
    }

    #[test]
    fn every_micro_run_yields_a_positive_number_once() {
        let cal = run(Duration::from_micros(300));
        for (name, ns) in &cal {
            assert!(*ns > 0.0 && ns.is_finite(), "{name} = {ns}");
            assert_eq!(cal.iter().filter(|(n, _)| n == name).count(), 1, "{name} twice");
        }
        assert!(get(&cal, "storage.crc32_ns_per_kib") > 0.0);
    }
}
