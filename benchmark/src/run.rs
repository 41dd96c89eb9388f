//! One workload, one process: the untraced run that yields every
//! end-to-end metric, and the traced run (reference run + hand-assembled
//! traced run + calibration) that yields every per-layer metric and holds
//! the correctness gate and the drift guard.

use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::assemble::Cluster;
use crate::driver;
use crate::driver::{Driver, Measured, OpSpan, Probe};
use crate::layers::{self, Calibrated};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, Percentiles};
use crate::trace::{Collector, Kind, Merged, Span};
use crate::workload::{Workload, USER_BYTES_PER_WRITE};

/// What one run reports.
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations issued in the measured phase(s).
    pub attempted: u64,
    /// Of those: aborted, failed or never terminated.
    pub failed: u64,
    /// `(name, value)` in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts, percentile choices and failed checks, for people.
    pub notes: Vec<String>,
}

/// Named values under construction; [`Values::ordered`] checks them
/// against the manifest.
#[derive(Default)]
struct Values(Vec<(String, f64)>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{name} not set yet")).1
    }

    /// Every metric of `spec`, in its order. A metric the run did not
    /// produce is a bug in this program.
    fn ordered(&self, spec: &[Metric]) -> Vec<(&'static str, f64)> {
        spec.iter().map(|m| (m.name, self.get(m.name))).collect()
    }
}

fn per(x: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        x as f64 / ops as f64
    }
}

/// Build a cluster with the program's builder and write every key once.
/// Returns the driver and whether set-up succeeded.
fn set_up(w: &Workload, seed: u64) -> (Driver, bool) {
    let mut driver = Driver::new(Cluster::built(w, seed), w, seed);
    let ok = driver.setup();
    (driver, ok)
}

/// How long a threaded workload is driven, untimed, before anything is
/// timed. On the reference container thread wake-ups are about three times
/// faster for the first second or so of multi-threaded activity after the
/// machine has been quiet (or has kept only one core busy, as a simulator
/// run does); a 1,024-key set-up then reads 33 ms instead of 90 ms. Which
/// of the two a run would see depends on what ran before it, so the fast
/// spell is spent before the clock starts.
const THREADED_WARM_UP: Duration = Duration::from_millis(2500);

fn warm_up(w: &Workload, seed: u64) {
    let (mut driver, _) = set_up(w, seed);
    let start = Instant::now();
    driver.begin();
    while start.elapsed() < THREADED_WARM_UP && driver.window() {}
    driver.end();
    driver.finish();
}

/// The untraced run: `w.setups` timed set-ups, then a measured phase of
/// `windows` windows on the last cluster.
pub fn untraced(w: &Workload, seed: u64, windows: usize) -> Outcome {
    let mut notes = Vec::new();
    if w.backend == sbft_net::Backend::Threaded {
        warm_up(w, seed);
    }
    let mut setup_s = Vec::new();
    let mut last: Option<(Driver, bool)> = None;
    for _ in 0..w.setups.max(1) {
        // The previous cluster must be gone before the next is timed.
        if let Some((driver, _)) = last.take() {
            driver.finish();
        }
        let t0 = Instant::now();
        let built = set_up(w, seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    notes.push(format!("setup_s is the median of these set-ups: {setup_s:.4?}"));
    let (mut driver, setup_ok) = last.expect("at least one set-up ran");
    if !setup_ok {
        notes.push("FAILED: a set-up write did not complete".into());
    }
    let mut m = driver.measure(windows);
    driver.finish();

    let mut v = Values::default();
    v.set("setup_s", median(&setup_s));
    let rates: Vec<f64> =
        m.windows.iter().map(|x| x.ops as f64 / (x.wall_ns as f64 / 1e9)).collect();
    let cpu: Vec<f64> = m.windows.iter().map(|x| per(x.cpu_ns, x.ops) / 1e3).collect();
    v.set("ops_per_s", median(&rates));
    v.set("cpu_us_per_op", median(&cpu));
    for (kind, samples) in [("read", &mut m.read_ns), ("write", &mut m.write_ns)] {
        let p = Percentiles::steady(samples);
        v.set(&format!("{kind}_p50_us"), p.p50 as f64 / 1e3);
        v.set(&format!("{kind}_p99_us"), p.tail as f64 / 1e3);
        notes.push(format!(
            "{kind} latency: {} samples; tail is p{:.2} of the median fifth of the run",
            p.count, p.tail_pct
        ));
    }
    let c = m.counted;
    v.set("ops_per_ktick", per(c.ops * 1000, c.ticks));
    v.set("msgs_per_op", per(c.msgs, c.ops));
    v.set("frames_per_op", per(c.frames, c.ops));
    v.set("allocs_per_op", per(c.allocs, c.ops));
    v.set("peak_rss_mb", m.peak_rss_mb);
    notes.push(format!(
        "{} windows of {} ops in {:.2} s; disk syncs+snapshots/op {:.4}; failed-op share {:.6}",
        m.windows.len(),
        w.window_ops,
        m.wall_ns() as f64 / 1e9,
        per(c.disk_syncs, c.ops),
        per(m.failed, m.attempted),
    ));
    if m.implausible_reads > 0 {
        notes.push(format!(
            "FAILED: {} reads returned a value nobody wrote to that key",
            m.implausible_reads
        ));
    }
    Outcome {
        correct: setup_ok && m.implausible_reads == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics: v.ordered(&END_TO_END),
        notes,
    }
}

/// CPU µs per completed operation over a whole measured phase.
fn cpu_per_op(m: &Measured) -> f64 {
    let (cpu, ops) = m.windows.iter().fold((0, 0), |(c, o), w| (c + w.cpu_ns, o + w.ops));
    per(cpu, ops) / 1e3
}

/// What a reference run and a traced run of the same operations gave.
struct Pair {
    reference: Measured,
    traced: Measured,
    probe: Probe,
    merged: Merged,
    setup_ok: bool,
}

/// Run `windows` windows on a builder-assembled untraced cluster and on a
/// hand-assembled traced one, alternating window by window so that a slow
/// stretch of the machine hits both alike.
fn run_pair(w: &Workload, seed: u64, windows: usize) -> Pair {
    let (mut reference, ref_ok) = set_up(w, seed);
    let col = Collector::new();
    let mut traced = Driver::new(Cluster::traced(w, seed, &col), w, seed).with_probe(&col);
    let traced_ok = traced.setup();
    reference.begin();
    traced.begin();
    for _ in 0..windows {
        if !(reference.window() && traced.window()) {
            break;
        }
    }
    let (reference_m, traced_m) = (reference.end(), traced.end());
    reference.finish();
    let probe = traced.finish().expect("probe was attached");
    Pair {
        reference: reference_m,
        traced: traced_m,
        probe,
        merged: col.take(),
        setup_ok: ref_ok && traced_ok,
    }
}

/// The traced run: per-layer metrics, correctness gate, drift guard, over
/// `windows` windows. `batch` is the length of one calibration batch.
pub fn traced(w: &Workload, seed: u64, windows: usize, batch: Duration) -> Outcome {
    let mut notes = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // Calibrate first, while the heap is still small and unfragmented:
    // after a 65,536-key cluster has come and gone the same micro-runs
    // read up to twice as slow.
    let cal = layers::run(batch);
    let Pair { reference: reference_m, traced: m, mut probe, merged, setup_ok } =
        run_pair(w, seed, windows);
    if !setup_ok {
        failures.push("a set-up write did not complete".into());
    }
    if m.implausible_reads + reference_m.implausible_reads > 0 {
        failures.push("a read returned a value nobody wrote to that key".into());
    }

    // Drift guard: the simulator is deterministic, so the hand-assembled
    // cluster must do exactly what the builder's does.
    let (a, b) = (reference_m.counted, m.counted);
    if w.backend == sbft_net::Backend::Sim
        && (a.ticks, a.ops, a.failed, a.msgs, a.frames)
            != (b.ticks, b.ops, b.failed, b.msgs, b.frames)
    {
        failures.push(format!(
            "drift: benchmark/src/assemble.rs no longer assembles what KvClusterBuilder does \
             (ticks/ops/failed/msgs/frames: builder {:?} vs hand-assembled {:?})",
            (a.ticks, a.ops, a.failed, a.msgs, a.frames),
            (b.ticks, b.ops, b.failed, b.msgs, b.frames),
        ));
    }

    // Correctness gate on the recorded per-key histories.
    let verdict = probe.verdict();
    notes.push(format!(
        "histories of {} keys checked: {} violations, {} acknowledged writes lost",
        verdict.keys, verdict.violations, verdict.lost_acked_writes
    ));
    if verdict.violations + verdict.lost_acked_writes > 0 {
        failures.push("the recorded histories violate the specification".into());
    }

    let mut v = Values::default();
    for (name, value) in &cal {
        if PER_LAYER.iter().any(|m| m.name == name) {
            v.set(name, *value);
        }
    }
    let ops = b.ops;
    let is_sim = w.backend == sbft_net::Backend::Sim;
    let us = |ns: u64| per(ns, ops) / 1e3;

    // net
    v.set("net.events_per_op", per(b.events, ops));
    v.set("net.pump_calls_per_op", per(probe.pump.calls, ops));
    // Only a sample of the pumps was timed; scale it up to all of them.
    let all_pumps =
        |timed_ns: u64| (timed_ns as f64 * per(probe.pump.calls, probe.timed_pumps)) as u64;
    let pump_ns = all_pumps(probe.pump.ns);
    let net_self_ns =
        if is_sim { pump_ns.saturating_sub(all_pumps(probe.automaton_ns)) } else { 0 };
    v.set("net.self_us_per_op", us(net_self_ns));
    let net_self_allocs =
        if is_sim { probe.pump.allocs.saturating_sub(probe.automaton_allocs) } else { 0 };
    v.set("net.self_allocs_per_op", per(net_self_allocs, ops));
    v.set("net.inject_us_per_op", us(probe.inject_ns));
    v.set("net.dropped_msgs_per_op", per(b.dropped, ops));
    v.set("net.msgs_per_frame", per(b.msgs, b.frames));

    // kv.server / kv.client
    let mut server = merged.server.clone();
    let server_total = server.total();
    v.set("kv.server.calls_per_op", per(server_total.calls, ops));
    v.set("kv.server.busy_us_per_op", us(server_total.ns));
    v.set("kv.server.allocs_per_op", per(server_total.allocs, ops));
    let mut call_ns: Vec<u64> = server.call_ns.drain(..).map(u64::from).collect();
    let calls = Percentiles::of(&mut call_ns);
    v.set("kv.server.call_p50_ns", calls.p50 as f64);
    v.set("kv.server.call_p99_ns", calls.tail as f64);
    for kind in [Kind::GetTs, Kind::Write, Kind::Read, Kind::CompleteRead, Kind::Flush] {
        v.set(&format!("kv.server.{}_ns", kind.name()), server.kind(kind).mean_ns());
    }
    let client = &merged.client;
    let client_total = client.total();
    v.set("kv.client.calls_per_op", per(client_total.calls, ops));
    v.set("kv.client.busy_us_per_op", us(client_total.ns));
    v.set("kv.client.allocs_per_op", per(client_total.allocs, ops));
    for kind in [Kind::Invoke, Kind::TsReply, Kind::WriteAck, Kind::Reply, Kind::FlushAck] {
        v.set(&format!("kv.client.{}_ns", kind.name()), client.kind(kind).mean_ns());
    }
    v.set("kv.client.timer_calls_per_op", per(client.kind(Kind::Timer).calls, ops));

    // core, in substrate ticks
    for (kind, ticks) in [("read", &mut probe.read_ticks), ("write", &mut probe.write_ticks)] {
        let p = Percentiles::of(ticks);
        v.set(&format!("core.{kind}_ticks_p50"), p.p50 as f64);
        v.set(&format!("core.{kind}_ticks_p99"), p.tail as f64);
    }
    v.set("core.failed_reads_per_kop", per(probe.failed_reads * 1000, ops));
    v.set("core.failed_writes_per_kop", per(probe.failed_writes * 1000, ops));

    // labels: calls counted in the traced run, priced by calibration.
    let label_cost_ns = |calls: &[u64; 3]| {
        ["next", "precedes", "sanitize"]
            .iter()
            .zip(calls)
            .map(|(name, &n)| n as f64 * layers::get(&cal, &format!("labels.{name}_ns")))
            .sum::<f64>()
    };
    let label_calls: [u64; 3] = std::array::from_fn(|i| server.labels[i] + client.labels[i]);
    for (name, n) in ["next", "precedes", "sanitize"].iter().zip(label_calls) {
        v.set(&format!("labels.{name}_calls_per_op"), per(n, ops));
    }
    v.set("labels.est_us_per_op", label_cost_ns(&label_calls) / ops.max(1) as f64 / 1e3);

    // storage
    let d = merged.disk;
    v.set("storage.syncs_per_op", per(b.disk_syncs, ops));
    v.set("storage.append_calls_per_op", per(d.append.calls, ops));
    v.set("storage.append_ns", d.append.mean_ns());
    v.set("storage.sync_calls_per_op", per(d.sync.calls, ops));
    v.set("storage.sync_ns", d.sync.mean_ns());
    v.set("storage.snapshot_calls_per_op", per(d.snapshot.calls, ops));
    v.set("storage.snapshot_us", d.snapshot.mean_ns() / 1e3);
    v.set("storage.snapshot_bytes", per(d.snapshot_bytes, d.snapshot.calls));
    v.set("storage.bytes_per_op", per(d.append_bytes + d.snapshot_bytes, ops));
    let writes = probe.write_ticks.len() as u64;
    v.set(
        "storage.write_amp",
        per(d.append_bytes + d.snapshot_bytes, writes * USER_BYTES_PER_WRITE),
    );
    v.set("storage.busy_us_per_op", us(d.busy_ns()));
    v.set("storage.allocs_per_op", per(d.allocs(), ops));
    v.set("storage.load_us", d.load.mean_ns() / 1e3);
    v.set("kv.recover_us", probe.reboots.mean_ns() / 1e3);
    v.set("kv.recovered_keys_share", per(probe.salvaged_keys, probe.reboots.calls * w.keyspace));

    // Reconciliation.
    let outside = m.wall_ns().saturating_sub(pump_ns + probe.inject_ns);
    v.set("trace.driver_share", per(outside, m.wall_ns()));
    let ratios: Vec<f64> = m
        .windows
        .iter()
        .zip(&reference_m.windows)
        .map(|(t, r)| per(t.wall_ns, t.ops) / per(r.wall_ns, r.ops))
        .collect();
    v.set("trace.overhead_ratio", median(&ratios));
    notes.push(format!("traced/untraced wall per op, window by window: {ratios:.3?}"));
    let null_event_us = v.get(if w.batch.enabled() {
        "net.sim.null_event_batched_ns"
    } else {
        "net.sim.null_event_ns"
    }) / 1e3;
    let explained = if is_sim { per(b.msgs, ops) * null_event_us } else { 0.0 };
    v.set("net.self_unexplained_us_per_op", v.get("net.self_us_per_op") - explained);
    let server_self_us = us(server_total.ns.saturating_sub(server.disk.ns));
    let server_labels_us = label_cost_ns(&server.labels) / ops.max(1) as f64 / 1e3;
    v.set("kv.server.self_unexplained_us_per_op", server_self_us - server_labels_us);

    // The cost of durability, against a disk-less rerun of the same ops.
    let mut gap = [0.0; 6];
    if w.durable {
        let plain = Workload { durable: false, crash_every: None, ..*w };
        let Pair { reference: plain_ref, merged: plain_merged, .. } =
            run_pair(&plain, seed, windows);
        let write_self =
            |r: &crate::trace::RoleAgg| r.kind(Kind::Write).ns.saturating_sub(r.disk.ns);
        let cpu_gap = cpu_per_op(&reference_m) - cpu_per_op(&plain_ref);
        let storage = us(d.busy_ns());
        let encode = us(write_self(&server)) - us(write_self(&plain_merged.server));
        let reboot = us(probe.reboots.ns.saturating_sub(d.load.ns));
        let unexplained = cpu_gap - storage - encode - reboot;
        gap = [cpu_gap, storage, encode, reboot, unexplained, unexplained / cpu_gap];
    }
    for (name, value) in [
        "cpu_gap_us_per_op",
        "storage_us_per_op",
        "encode_us_per_op",
        "reboot_us_per_op",
        "unexplained_us_per_op",
        "unexplained_share",
    ]
    .iter()
    .zip(gap)
    {
        v.set(&format!("durability.{name}"), value);
    }
    v.set("spec.violations", verdict.violations as f64);
    v.set("spec.lost_acked_writes", verdict.lost_acked_writes as f64);

    match write_spans(w, &probe.ops, &merged.spans) {
        Ok(path) => notes.push(format!(
            "spans of the first {} ops: {}",
            driver::RECORDED_OPS,
            path.display()
        )),
        Err(e) => notes.push(format!("span file not written: {e}")),
    }
    let extra: Vec<&Calibrated> =
        cal.iter().filter(|(n, _)| !PER_LAYER.iter().any(|m| m.name == n)).collect();
    for (name, value) in extra {
        notes.push(format!("calibration {name} = {value:.3}"));
    }
    notes.extend(failures.iter().map(|why| format!("FAILED: {why}")));
    Outcome {
        correct: failures.is_empty(),
        attempted: m.attempted + reference_m.attempted,
        failed: m.failed + reference_m.failed,
        metrics: v.ordered(&PER_LAYER),
        notes,
    }
}

/// Directory for span files and `results.json`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the recorded operations and every span that belongs to one of
/// them to `out/trace-<workload>.jsonl`, one JSON object per line. A span
/// belongs to the operation its `(client, key)` had in flight when it
/// started (or, for a late reply, finished last).
fn write_spans(w: &Workload, ops: &[OpSpan], spans: &[Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace-{}.jsonl", w.name));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for o in ops {
        writeln!(
            f,
            "{{\"op\": {}, \"client\": {}, \"key\": {}, \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            o.seq,
            o.client,
            o.key,
            if o.write { "write" } else { "read" },
            o.start_ns,
            o.end_ns
        )?;
    }
    // Operations of each (client, key), in issue order.
    let mut by_target: HashMap<(usize, u64), Vec<&OpSpan>> = HashMap::new();
    for o in ops {
        by_target.entry((o.client, o.key)).or_default().push(o);
    }
    let op_of = |s: &Span| {
        let started = by_target.get(&s.op?)?;
        started.iter().rev().find(|o| o.start_ns <= s.start_ns).map(|o| o.seq)
    };
    let last_end = ops.iter().map(|o| o.end_ns).max().unwrap_or(0);
    for s in spans.iter().filter(|s| s.start_ns <= last_end) {
        let op = op_of(s).map_or("null".to_string(), |seq| seq.to_string());
        writeln!(
            f,
            "{{\"span\": {}, \"parent\": {}, \"name\": \"{}.{}\", \"pid\": {}, \"op\": {op}, \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}}}",
            s.id,
            s.parent,
            s.layer,
            s.call,
            if s.pid == sbft_net::ENV { -1 } else { s.pid as i64 },
            s.start_ns,
            s.end_ns,
            s.allocs
        )?;
    }
    f.flush()?;
    Ok(path)
}
