//! **E15 — sustained-load throughput and latency**: a multi-client
//! open/closed-loop load generator over the shared scenario drivers, on
//! both substrate backends, for both the single register and the keyed
//! store.
//!
//! Cachin–Dobre–Vukolić ("Asynchronous BFT Storage with 2t+1 Data
//! Replicas") and Dobre et al. ("PoWerStore / Proofs of Writing") treat
//! per-operation cost and steady-state throughput as the headline metrics
//! for BFT storage; E15 gives this repo the same measurement surface and
//! seeds the perf trajectory (`BENCH_e15.json`):
//!
//! * **closed loop** — `clients` concurrent clients, each re-issuing the
//!   next operation the moment its previous one terminates, until
//!   `total_ops` complete. Throughput is wall-clock ops/s; per-operation
//!   latency (invocation → terminal event, in substrate ticks) feeds a
//!   [`LatencyHistogram`] reported as p50/p95/p99.
//! * **open loop** — arrivals at a fixed tick interval round-robin over
//!   the clients, regardless of completions. An arrival hitting a busy
//!   client is *rejected* (the register interface is one op per client),
//!   so the rejected count exposes saturation. On the simulator, a
//!   drained event queue fast-forwards virtual time to the next arrival.
//!
//! The workload mixes writes and reads (`write_ratio` percent writes) with
//! per-client-unique values, exactly the traffic the regularity checker
//! elsewhere verifies; E15 trades checking for volume (no recorder on the
//! hot path) — correctness under this workload is E8/E12/E14's job.

use std::collections::BTreeMap;
use std::time::Instant;

use sbft_core::cluster::RegisterCluster;
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::Ts;
use sbft_kv::messages::{KvEvent, KvMsg};
use sbft_kv::{Key, KvCluster};
use sbft_labels::BoundedLabeling;
use sbft_net::{Backend, LatencyHistogram, Outputs, ProcessId, Pumped, Substrate};

use crate::table::{bench_json, f1, Record, Table};

type B = BoundedLabeling;

/// Keys the kv workload spreads over (small enough that keys collide
/// across clients, so the per-key register sees real MWMR contention).
const KV_KEYSPACE: u64 = 8;

/// Event budget per requested operation for a whole closed-loop run;
/// generous (an op is a few hundred events) so only a genuinely wedged
/// cluster trips it.
const PUMP_BUDGET_PER_OP: u64 = 200_000;

/// Consecutive idle pumps (threaded backend) before declaring the run done.
const IDLE_PUMPS_ENDING_RUN: u32 = 50;

/// Arrival pacing of the load generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// Each client re-issues immediately on completion.
    Closed,
    /// One arrival every `interval` substrate ticks, round-robin over
    /// clients; arrivals to busy clients are rejected and counted.
    Open {
        /// Ticks between arrivals.
        interval: u64,
    },
}

impl LoadMode {
    fn label(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }
}

/// Parameters of one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Concurrent clients.
    pub clients: usize,
    /// Operations to complete (closed) or arrivals to generate (open).
    pub total_ops: u64,
    /// Percentage of operations that are writes (0..=100).
    pub write_ratio: u32,
    /// Arrival pacing.
    pub mode: LoadMode,
    /// Substrate seed.
    pub seed: u64,
}

impl LoadSpec {
    /// Closed-loop spec with the default 50/50 read-write mix.
    pub fn closed(clients: usize, total_ops: u64, seed: u64) -> Self {
        Self { clients, total_ops, write_ratio: 50, mode: LoadMode::Closed, seed }
    }

    /// Open-loop spec with the default mix.
    pub fn open(clients: usize, total_ops: u64, interval: u64, seed: u64) -> Self {
        Self { clients, total_ops, write_ratio: 50, mode: LoadMode::Open { interval }, seed }
    }
}

/// Whether arrival `seq` is a write under a `write_ratio` percent mix
/// (deterministic hash of the sequence number, so runs replay identically).
pub(crate) fn is_write(seq: u64, write_ratio: u32) -> bool {
    (seq.wrapping_mul(2_654_435_761) >> 16) % 100 < write_ratio as u64
}

/// Measured results of one (workload, backend, mode) cell.
#[derive(Clone, Debug)]
pub struct LoadCell {
    /// `"register"` or `"kv"`.
    pub workload: &'static str,
    /// Backend the cell ran on.
    pub backend: Backend,
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Concurrent clients.
    pub clients: usize,
    /// Operations that terminated successfully.
    pub ops_ok: u64,
    /// Operations that terminated unsuccessfully (abort/timeout).
    pub ops_failed: u64,
    /// Open-loop arrivals dropped because the client was busy. Reported
    /// separately (a rejection is load shed at the door, not an operation
    /// the system performed) and **never** part of [`LoadCell::ops_per_sec`]
    /// or the latency histogram.
    pub rejected: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Completed operations (`ops_ok + ops_failed`, excluding `rejected`)
    /// per wall-clock second.
    pub ops_per_sec: f64,
    /// Substrate ticks elapsed (virtual time on sim, ticks on threads).
    pub ticks: u64,
    /// Per-operation latency in substrate ticks.
    pub latency: LatencyHistogram,
    /// Messages sent per completed operation.
    pub msgs_per_op: f64,
}

/// Whether a terminal client event is a success.
pub(crate) fn succeeded<T>(ev: &ClientEvent<T>) -> bool {
    match ev {
        ClientEvent::WriteDone { .. } | ClientEvent::ReadDone { .. } => true,
        ClientEvent::ReadAborted
        | ClientEvent::ReadFailed { .. }
        | ClientEvent::WriteFailed { .. } => false,
    }
}

/// What the load loop needs to know about the workload it drives. Each
/// client holds up to `depth` operations in flight, one per *slot key*: a
/// register client has the single slot 0; a kv client's slots are the keys
/// it has in flight ([`sbft_kv`]'s client silently drops a command for a
/// key that is already busy, so the loop probes past those).
pub(crate) struct Workload<'a, M, O> {
    /// Slots per client.
    pub depth: usize,
    /// Size of the slot-key space (1 for a register).
    pub keyspace: u64,
    /// Preferred slot key of arrival `seq` on client index `i`.
    pub key_of: &'a dyn Fn(usize, u64) -> Key,
    /// The command for arrival `seq` on client index `i` in slot `key`.
    pub mk_op: &'a dyn Fn(usize, u64, Key) -> M,
    /// The slot a terminal output frees, and whether the op succeeded.
    pub terminal: &'a dyn Fn(&O) -> (Key, bool),
}

/// Counters of one [`drive`] run.
#[derive(Default)]
pub(crate) struct Driven {
    pub ops_ok: u64,
    pub ops_failed: u64,
    pub rejected: u64,
    pub latency: LatencyHistogram,
    pub ticks: u64,
}

/// Loop state shared by the closed and open pacing modes.
struct Driver<'a, M, O, S> {
    sub: &'a mut S,
    clients: &'a [ProcessId],
    load: &'a Workload<'a, M, O>,
    idx_of: BTreeMap<ProcessId, usize>,
    /// Per client index: slot key → issue tick.
    inflight: Vec<BTreeMap<Key, u64>>,
    issued: u64,
    out: Driven,
}

impl<M, O, S: Substrate<M, O>> Driver<'_, M, O, S> {
    fn completed(&self) -> u64 {
        self.out.ops_ok + self.out.ops_failed
    }

    /// Issue the next arrival on client `i`, linear-probing past slot keys
    /// the client already has in flight.
    fn issue(&mut self, i: usize) {
        let busy = &mut self.inflight[i];
        let mut key = (self.load.key_of)(i, self.issued);
        while busy.contains_key(&key) {
            key = (key + 1) % self.load.keyspace;
        }
        busy.insert(key, self.sub.now());
        self.sub.inject(self.clients[i], (self.load.mk_op)(i, self.issued, key));
        self.issued += 1;
    }

    /// Score every output of one event (a batched frame can complete
    /// several ops), re-issuing into each freed slot while fewer than
    /// `reissue_below` arrivals have been issued.
    fn complete(&mut self, time: u64, pid: ProcessId, outputs: Outputs<O>, reissue_below: u64) {
        for out in outputs {
            let Some(&i) = self.idx_of.get(&pid) else { continue };
            let (key, ok) = (self.load.terminal)(&out);
            if let Some(since) = self.inflight[i].remove(&key) {
                self.out.latency.record(time.saturating_sub(since));
                if ok {
                    self.out.ops_ok += 1;
                } else {
                    self.out.ops_failed += 1;
                }
                if self.issued < reissue_below {
                    self.issue(i);
                }
            }
        }
    }
}

/// Drive `sub` with `total_ops` arrivals of `load` over `clients`, paced by
/// `mode` — the one load loop, generic over the message and output types
/// so the register, kv and scale workloads share it. It reads the raw
/// [`Substrate::pump`] stream: `pump_until` drops the outputs behind the
/// first hit in an event, and a batched frame can complete several ops in
/// one event.
pub(crate) fn drive<M, O, S: Substrate<M, O>>(
    sub: &mut S,
    clients: &[ProcessId],
    total_ops: u64,
    mode: LoadMode,
    load: &Workload<'_, M, O>,
) -> Driven {
    let start_ticks = sub.now();
    let idx_of = clients.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let inflight = vec![BTreeMap::new(); clients.len()];
    let mut d = Driver { sub, clients, load, idx_of, inflight, issued: 0, out: Driven::default() };

    match mode {
        LoadMode::Closed => {
            // Prime every client's slots, then re-issue into each freed one.
            'prime: for _slot in 0..load.depth {
                for i in 0..clients.len() {
                    if d.issued >= total_ops {
                        break 'prime;
                    }
                    d.issue(i);
                }
            }
            let budget = total_ops.saturating_mul(PUMP_BUDGET_PER_OP);
            let (mut events, mut idle) = (0u64, 0u32);
            while d.completed() < d.issued && events < budget {
                match d.sub.pump() {
                    Pumped::Quiescent => break, // wedged: report what completed
                    Pumped::Idle => {
                        idle += 1;
                        if idle >= IDLE_PUMPS_ENDING_RUN {
                            break;
                        }
                    }
                    Pumped::Event { time, pid, outputs } => {
                        idle = 0;
                        events += 1;
                        d.complete(time, pid, outputs, total_ops);
                    }
                }
            }
        }
        LoadMode::Open { interval } => {
            let mut next_arrival = d.sub.now() + interval;
            let mut idle = 0u32;
            // First arrival immediately.
            d.issue(0);
            loop {
                while d.issued < total_ops && d.sub.now() >= next_arrival {
                    let i = (d.issued as usize) % clients.len();
                    if d.inflight[i].len() >= load.depth {
                        // Saturated: shed at the door, but the arrival
                        // still consumes its sequence number.
                        d.out.rejected += 1;
                        d.issued += 1;
                    } else {
                        d.issue(i);
                    }
                    next_arrival += interval;
                }
                if d.issued >= total_ops && d.inflight.iter().all(BTreeMap::is_empty) {
                    break;
                }
                match d.sub.pump() {
                    Pumped::Event { time, pid, outputs } => {
                        idle = 0;
                        d.complete(time, pid, outputs, 0);
                    }
                    Pumped::Idle => {
                        // While arrivals remain, an idle window is normal
                        // pacing (threads waiting for the next arrival),
                        // not a wedge — only give up once the last arrival
                        // is in and nothing completes.
                        if d.issued >= total_ops {
                            idle += 1;
                            if idle >= IDLE_PUMPS_ENDING_RUN {
                                break;
                            }
                        }
                    }
                    Pumped::Quiescent => {
                        if d.issued < total_ops {
                            // Simulator queue drained before virtual time
                            // reached the next arrival: fast-forward by
                            // injecting it now.
                            next_arrival = d.sub.now();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
    }
    d.out.ticks = d.sub.now().saturating_sub(start_ticks);
    d.out
}

/// Arrival-paced pump window for threaded open-loop cells: one pump may
/// block at most about one arrival interval (the default 100 µs tick times
/// `interval` ticks), so arrivals are injected on schedule instead of
/// stalling behind the default 100 ms pump timeout.
fn open_loop_pump_timeout(interval: u64) -> std::time::Duration {
    std::time::Duration::from_micros(100).saturating_mul(interval.clamp(1, 10_000) as u32)
}

/// Run the register workload on `backend` under `spec`.
pub fn run_register_cell(backend: Backend, spec: &LoadSpec) -> LoadCell {
    let mut builder =
        RegisterCluster::bounded(1).clients(spec.clients).seed(spec.seed).backend(backend);
    if let (Backend::Threaded, LoadMode::Open { interval }) = (backend, spec.mode) {
        builder = builder.pump_timeout(open_loop_pump_timeout(interval));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();
    let write_ratio = spec.write_ratio;
    let load = Workload {
        depth: 1,
        keyspace: 1,
        key_of: &|_, _| 0,
        mk_op: &|i, seq, _| register_op(i, seq, write_ratio),
        terminal: &|out: &ClientEvent<Ts<B>>| (0, succeeded(out)),
    };
    let before = c.metrics();
    let start = Instant::now();
    let driven = drive(&mut c.sim, &clients, spec.total_ops, spec.mode, &load);
    let wall = start.elapsed();
    let msgs = c.metrics().delta_since(&before).messages_sent;
    c.stop();
    finish_cell("register", backend, spec, driven, wall, msgs)
}

/// Arrival `seq` on client index `i`: a write of a per-client-unique value
/// or a read.
fn register_op(i: usize, seq: u64, write_ratio: u32) -> Msg<Ts<B>> {
    if is_write(seq, write_ratio) {
        Msg::InvokeWrite { value: ((i as u64) << 32) | seq }
    } else {
        Msg::InvokeRead
    }
}

/// Run the keyed-store workload on `backend` under `spec`.
pub fn run_kv_cell(backend: Backend, spec: &LoadSpec) -> LoadCell {
    let mut builder = KvCluster::bounded(1).clients(spec.clients).seed(spec.seed).backend(backend);
    if let (Backend::Threaded, LoadMode::Open { interval }) = (backend, spec.mode) {
        builder = builder.pump_timeout(open_loop_pump_timeout(interval));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();
    let write_ratio = spec.write_ratio;
    let load = Workload {
        depth: 1,
        keyspace: KV_KEYSPACE,
        key_of: &|i, seq| (seq + i as u64) % KV_KEYSPACE,
        mk_op: &|i, seq, key| KvMsg::new(key, register_op(i, seq, write_ratio)),
        terminal: &|out: &KvEvent<Ts<B>>| (out.key, succeeded(&out.inner)),
    };
    let before = c.metrics();
    let start = Instant::now();
    let driven = drive(&mut c.sim, &clients, spec.total_ops, spec.mode, &load);
    let wall = start.elapsed();
    let msgs = c.metrics().delta_since(&before).messages_sent;
    c.stop();
    finish_cell("kv", backend, spec, driven, wall, msgs)
}

fn finish_cell(
    workload: &'static str,
    backend: Backend,
    spec: &LoadSpec,
    driven: Driven,
    wall: std::time::Duration,
    msgs: u64,
) -> LoadCell {
    let wall_ms = wall.as_secs_f64() * 1e3;
    // Throughput counts operations the system actually executed; busy-client
    // rejections are excluded here and surfaced via the `rejected` column.
    let completed = driven.ops_ok + driven.ops_failed;
    LoadCell {
        workload,
        backend,
        mode: spec.mode.label(),
        clients: spec.clients,
        ops_ok: driven.ops_ok,
        ops_failed: driven.ops_failed,
        rejected: driven.rejected,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 },
        ticks: driven.ticks,
        msgs_per_op: if completed > 0 { msgs as f64 / completed as f64 } else { 0.0 },
        latency: driven.latency,
    }
}

/// Run the full E15 grid: {register, kv} × {sim, threaded} × {closed,
/// open} at `clients` concurrency. Every cell runs the *same* `ops` count
/// on both backends, so the sim-vs-threaded columns are apples-to-apples.
pub fn run_cells(clients: usize, ops: u64, seed: u64) -> Vec<LoadCell> {
    let n = ops.max(20);
    let mut cells = Vec::new();
    for backend in [Backend::Sim, Backend::Threaded] {
        let spec = LoadSpec::closed(clients, n, seed);
        cells.push(run_register_cell(backend, &spec));
        cells.push(run_kv_cell(backend, &spec));
    }
    for backend in [Backend::Sim, Backend::Threaded] {
        let open = LoadSpec::open(clients, n, 30, seed);
        cells.push(run_register_cell(backend, &open));
        cells.push(run_kv_cell(backend, &open));
    }
    cells
}

/// Render the cells as the harness table.
pub fn table(cells: &[LoadCell]) -> Table {
    let mut t = Table::new(
        "E15 — sustained-load throughput & latency (f=1, n=6)",
        &[
            "workload", "backend", "mode", "clients", "ops_ok", "failed", "rejected", "wall_ms",
            "ops/s", "p50", "p95", "p99", "msgs/op",
        ],
    );
    for c in cells {
        t.row(vec![
            c.workload.to_string(),
            format!("{:?}", c.backend).to_lowercase(),
            c.mode.to_string(),
            c.clients.to_string(),
            c.ops_ok.to_string(),
            c.ops_failed.to_string(),
            c.rejected.to_string(),
            f1(c.wall_ms),
            f1(c.ops_per_sec),
            c.latency.percentile(50.0).to_string(),
            c.latency.percentile(95.0).to_string(),
            c.latency.percentile(99.0).to_string(),
            f1(c.msgs_per_op),
        ]);
    }
    t
}

/// Serialize the cells as the machine-readable `BENCH_e15.json` document.
pub fn to_json(cells: &[LoadCell]) -> String {
    let unit = Record::new()
        .str("latency", "substrate ticks")
        .str("throughput", "ops per wall-clock second");
    let records = cells.iter().map(|c| {
        Record::new()
            .str("workload", c.workload)
            .str("backend", format!("{:?}", c.backend).to_lowercase())
            .str("mode", c.mode)
            .num("clients", c.clients)
            .num("ops_ok", c.ops_ok)
            .num("ops_failed", c.ops_failed)
            .num("rejected", c.rejected)
            .fixed("wall_ms", c.wall_ms, 2)
            .fixed("ops_per_sec", c.ops_per_sec, 1)
            .num("ticks", c.ticks)
            .num("lat_p50", c.latency.percentile(50.0))
            .num("lat_p95", c.latency.percentile(95.0))
            .num("lat_p99", c.latency.percentile(99.0))
            .fixed("lat_mean", c.latency.mean(), 1)
            .num("lat_max", c.latency.max())
            .fixed("msgs_per_op", c.msgs_per_op, 1)
    });
    bench_json("e15", Record::new().nested("unit", unit), records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_completes_all_ops_on_sim() {
        let spec = LoadSpec::closed(2, 30, 7);
        let cell = run_register_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 30, "{cell:?}");
        assert_eq!(cell.rejected, 0);
        assert_eq!(cell.latency.count(), 30);
        assert!(cell.latency.percentile(50.0) > 0, "sim latencies are in ticks");
        assert!(cell.msgs_per_op > 10.0, "a quorum protocol sends many messages per op");
    }

    #[test]
    fn open_loop_rejects_when_saturated() {
        // Interval 1 tick with 1 client: arrivals far outpace completion,
        // so most arrivals must be rejected.
        let spec = LoadSpec { write_ratio: 50, ..LoadSpec::open(1, 60, 1, 3) };
        let cell = run_register_cell(Backend::Sim, &spec);
        assert!(cell.rejected > 0, "{cell:?}");
        assert!(cell.ops_ok > 0);
    }

    #[test]
    fn open_loop_rejections_are_excluded_from_throughput() {
        // Interval 1 tick with 1 client forces heavy saturation: most
        // arrivals find the client busy and must be rejected.
        let spec = LoadSpec { write_ratio: 50, ..LoadSpec::open(1, 80, 1, 9) };
        let cell = run_register_cell(Backend::Sim, &spec);
        assert!(cell.rejected > 0, "{cell:?}");
        // Conservation: every arrival either completed or was rejected.
        assert_eq!(cell.ops_ok + cell.ops_failed + cell.rejected, 80, "{cell:?}");
        // ops/sec is computed from completions only — recompute it.
        let completed = cell.ops_ok + cell.ops_failed;
        let expected = completed as f64 / (cell.wall_ms / 1e3);
        assert!(
            (cell.ops_per_sec - expected).abs() <= expected * 1e-9,
            "ops_per_sec {} must equal completed/wall {}",
            cell.ops_per_sec,
            expected
        );
        // Rejections never enter the latency histogram either.
        assert_eq!(cell.latency.count(), completed);
        // And the JSON report carries the rejections as their own field.
        let json = to_json(std::slice::from_ref(&cell));
        assert!(json.contains(&format!("\"rejected\": {}", cell.rejected)), "{json}");
    }

    #[test]
    fn kv_workload_runs_on_sim() {
        let spec = LoadSpec::closed(2, 20, 11);
        let cell = run_kv_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 20, "{cell:?}");
        assert_eq!(cell.workload, "kv");
    }

    /// Pin: the four sim rows of `harness load --quick` (4 clients, 60 ops,
    /// seed 42). The simulator is deterministic, so any drift here is a
    /// behaviour change.
    #[test]
    fn quick_sim_rows_are_pinned() {
        let row = |c: LoadCell| {
            let p = |q| c.latency.percentile(q);
            (c.ops_ok, c.ops_failed, c.rejected, [p(50.0), p(95.0), p(99.0)], f1(c.msgs_per_op))
        };
        let closed = LoadSpec::closed(4, 60, 42);
        let open = LoadSpec::open(4, 60, 30, 42);
        assert_eq!(
            row(run_register_cell(Backend::Sim, &closed)),
            (60, 0, 0, [63, 63, 95], "31.7".into())
        );
        assert_eq!(
            row(run_kv_cell(Backend::Sim, &closed)),
            (60, 0, 0, [63, 63, 65], "29.4".into())
        );
        assert_eq!(
            row(run_register_cell(Backend::Sim, &open)),
            (60, 0, 0, [40, 40, 40], "27.8".into())
        );
        assert_eq!(row(run_kv_cell(Backend::Sim, &open)), (60, 0, 0, [40, 40, 40], "27.8".into()));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let spec = LoadSpec::closed(2, 20, 5);
        let cells = vec![run_register_cell(Backend::Sim, &spec)];
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"ops_per_sec\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
