//! **E19 — scale benchmark: shards × batching over a large keyspace.**
//!
//! The paper's protocol spends ~28–33 logical messages per operation — the
//! structural bill of quorum broadcast at `n = 5f + 1`. E19 measures the
//! two mechanisms this repo adds to attack that bill *without touching the
//! protocol*:
//!
//! * **Sharding** ([`sbft_kv::shard`]) — hash-partitioning the keyspace
//!   over `S` independent `5f + 1` groups. Per-link FIFO is the simulator's
//!   serialization bottleneck, so spreading keys over `S` disjoint link
//!   sets should scale virtual-time throughput (ops per kilotick) with the
//!   shard count.
//! * **Batching** ([`sbft_net::batch`]) — per-link frame coalescing.
//!   Pipelined clients put several same-phase messages on the same directed
//!   link inside one flush window; one wire frame then carries all of them.
//!   The headline metric `msgs_per_op` counts **wire frames** per completed
//!   operation (the amortized transfer bill an operator pays), while
//!   `logical_msgs_per_op` keeps the protocol-level count for comparison —
//!   batching moves the former, never the latter.
//!
//! The grid sweeps shard count × batch policy over hundreds of clients and
//! a large keyspace (collisions are rare, so pipelining stays effective) on
//! both substrates, reporting throughput, latency percentiles, and both
//! message accountings. `harness scale` prints the table and writes
//! `BENCH_e19.json`; `harness scale --quick` runs a scaled-down smoke grid
//! for CI.

use std::time::Instant;

use sbft_core::messages::Msg;
use sbft_core::Ts;
use sbft_kv::messages::{KvEvent, KvMsg};
use sbft_kv::{Key, KvCluster};
use sbft_labels::BoundedLabeling;
use sbft_net::{Backend, BatchPolicy, LatencyHistogram, ProcessId};

use crate::e15_load::{drive, is_write, succeeded, LoadMode, Workload};
use crate::table::{bench_json, f1, Record, Table};

type B = BoundedLabeling;

/// Parameters of one scale cell.
#[derive(Clone, Copy, Debug)]
pub struct ScaleSpec {
    /// Concurrent clients.
    pub clients: usize,
    /// Operations to complete across all clients.
    pub total_ops: u64,
    /// Keys the workload spreads over.
    pub keyspace: u64,
    /// Independent `5f + 1` server groups.
    pub shards: usize,
    /// Per-client pipeline depth (concurrent ops on distinct keys).
    pub pipeline: usize,
    /// Link batching policy.
    pub batch: BatchPolicy,
    /// Percentage of operations that are writes (0..=100).
    pub write_ratio: u32,
    /// Substrate seed.
    pub seed: u64,
}

impl ScaleSpec {
    /// A cell with the default 50/50 mix and pipeline depth 16 (deep
    /// enough that same-phase messages stack on each directed link, which
    /// is what batching amortizes).
    pub fn new(clients: usize, total_ops: u64, keyspace: u64, shards: usize, seed: u64) -> Self {
        Self {
            clients,
            total_ops,
            keyspace,
            shards,
            pipeline: 16,
            batch: BatchPolicy::disabled(),
            write_ratio: 50,
            seed,
        }
    }

    /// Same cell with link batching under `policy`.
    pub fn batched(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Key for arrival `seq`: multiplicative spread over the keyspace.
    fn key_of(&self, seq: u64) -> Key {
        seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keyspace
    }
}

/// Measured results of one (spec, backend) cell.
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// Backend the cell ran on.
    pub backend: Backend,
    /// Shards.
    pub shards: usize,
    /// Size watermark of the batch policy (1 = batching off).
    pub max_batch: usize,
    /// Pipeline depth.
    pub pipeline: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Keyspace size.
    pub keyspace: u64,
    /// Operations that terminated successfully.
    pub ops_ok: u64,
    /// Operations that terminated unsuccessfully (abort/timeout).
    pub ops_failed: u64,
    /// Wall-clock milliseconds for the whole run.
    pub wall_ms: f64,
    /// Completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Substrate ticks elapsed (virtual time on sim).
    pub ticks: u64,
    /// Completed operations per 1000 substrate ticks — the deterministic
    /// throughput metric (virtual time, so sim cells compare exactly).
    pub ops_per_ktick: f64,
    /// Per-operation latency in substrate ticks.
    pub latency: LatencyHistogram,
    /// Protocol-level messages per completed operation.
    pub logical_msgs_per_op: f64,
    /// **Wire frames** per completed operation — the amortized transfer
    /// bill. Equals `logical_msgs_per_op` with batching off.
    pub msgs_per_op: f64,
}

/// Drive one cell: the shared closed loop (`e15_load::drive`) with every client
/// keeping `pipeline` ops in flight on distinct keys.
pub fn run_cell(backend: Backend, spec: &ScaleSpec) -> ScaleCell {
    let mut builder = KvCluster::bounded(1)
        .clients(spec.clients)
        .seed(spec.seed)
        .shards(spec.shards)
        .pipeline(spec.pipeline)
        .batch(spec.batch)
        .backend(backend);
    if backend == Backend::Threaded {
        // Completions stream in continuously under pipelining; a short pump
        // window keeps the driver responsive without busy-waiting.
        builder = builder.pump_timeout(std::time::Duration::from_millis(5));
    }
    let mut c = builder.build_any();
    let clients: Vec<ProcessId> = (0..spec.clients).map(|i| c.client(i)).collect();
    let load = Workload {
        depth: spec.pipeline,
        keyspace: spec.keyspace,
        key_of: &|_, seq| spec.key_of(seq),
        mk_op: &|i, seq, key| {
            let inner = if is_write(seq, spec.write_ratio) {
                Msg::InvokeWrite { value: (seq << 8) | (clients[i] as u64 & 0xFF) }
            } else {
                Msg::InvokeRead
            };
            KvMsg::new(key, inner)
        },
        terminal: &|out: &KvEvent<Ts<B>>| (out.key, succeeded(&out.inner)),
    };
    let before = c.metrics();
    let start = Instant::now();
    let driven = drive(&mut c.sim, &clients, spec.total_ops, LoadMode::Closed, &load);
    let wall = start.elapsed();
    let m = c.metrics().delta_since(&before);
    c.stop();

    let (ops_ok, ops_failed, ticks) = (driven.ops_ok, driven.ops_failed, driven.ticks);
    let completed = ops_ok + ops_failed;
    let wall_ms = wall.as_secs_f64() * 1e3;
    let per_op = |x: u64| if completed > 0 { x as f64 / completed as f64 } else { 0.0 };
    ScaleCell {
        backend,
        shards: spec.shards,
        max_batch: spec.batch.max_batch,
        pipeline: spec.pipeline,
        clients: spec.clients,
        keyspace: spec.keyspace,
        ops_ok,
        ops_failed,
        wall_ms,
        ops_per_sec: if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 },
        ticks,
        ops_per_ktick: if ticks > 0 { completed as f64 * 1e3 / ticks as f64 } else { 0.0 },
        latency: driven.latency,
        logical_msgs_per_op: per_op(m.messages_sent),
        msgs_per_op: per_op(m.frames_sent),
    }
}

/// The full E19 grid.
///
/// Simulator: `clients` clients over a 100k keyspace, shards ∈ {1, 2, 4, 8}
/// × batching {off, 32/8}, plus one 1M-key cell at the largest scale.
/// Threaded: a smaller grid (shards ∈ {1, 4} × batching {off, 32/8}) since
/// wall-clock cells cost real time.
pub fn run_cells(clients: usize, ops: u64, seed: u64) -> Vec<ScaleCell> {
    let ops = ops.max(100);
    let policy = BatchPolicy::new(32, 8);
    let mut cells = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let spec = ScaleSpec::new(clients, ops, 100_000, shards, seed);
        cells.push(run_cell(Backend::Sim, &spec));
        cells.push(run_cell(Backend::Sim, &spec.batched(policy)));
    }
    // One big-keyspace cell: placement and batching must not degrade when
    // the key universe dwarfs the in-flight set.
    let big = ScaleSpec::new(clients, ops, 1_000_000, 8, seed).batched(policy);
    cells.push(run_cell(Backend::Sim, &big));
    for shards in [1usize, 4] {
        let spec = ScaleSpec::new(clients / 4, ops / 4, 100_000, shards, seed)
            .batched(BatchPolicy::disabled());
        let spec = ScaleSpec { clients: spec.clients.max(8), ..spec };
        cells.push(run_cell(Backend::Threaded, &spec));
        cells.push(run_cell(Backend::Threaded, &spec.batched(policy)));
    }
    cells
}

/// The CI smoke grid: simulator only, small counts, still exercising a
/// multi-shard batched cell.
pub fn run_quick(seed: u64) -> Vec<ScaleCell> {
    let policy = BatchPolicy::new(32, 8);
    let mut cells = Vec::new();
    for shards in [1usize, 2] {
        let spec = ScaleSpec::new(16, 200, 10_000, shards, seed);
        cells.push(run_cell(Backend::Sim, &spec));
        cells.push(run_cell(Backend::Sim, &spec.batched(policy)));
    }
    cells
}

/// Render the cells as the harness table.
pub fn table(cells: &[ScaleCell]) -> Table {
    let mut t = Table::new(
        "E19 — scale: shards × link batching (f=1, n=6 per shard)",
        &[
            "backend",
            "shards",
            "batch",
            "pipe",
            "clients",
            "keys",
            "ops_ok",
            "failed",
            "ops/ktick",
            "ops/s",
            "p50",
            "p95",
            "p99",
            "logical/op",
            "frames/op",
        ],
    );
    for c in cells {
        t.row(vec![
            format!("{:?}", c.backend).to_lowercase(),
            c.shards.to_string(),
            if c.max_batch > 1 { c.max_batch.to_string() } else { "off".into() },
            c.pipeline.to_string(),
            c.clients.to_string(),
            c.keyspace.to_string(),
            c.ops_ok.to_string(),
            c.ops_failed.to_string(),
            f1(c.ops_per_ktick),
            f1(c.ops_per_sec),
            c.latency.percentile(50.0).to_string(),
            c.latency.percentile(95.0).to_string(),
            c.latency.percentile(99.0).to_string(),
            f1(c.logical_msgs_per_op),
            f1(c.msgs_per_op),
        ]);
    }
    t
}

/// Serialize the cells as the machine-readable `BENCH_e19.json` document.
/// `msgs_per_op` counts wire frames (amortized transfers per operation);
/// `logical_msgs_per_op` is the protocol-level count.
pub fn to_json(cells: &[ScaleCell]) -> String {
    let unit = Record::new()
        .str("latency", "substrate ticks")
        .str("throughput", "ops per kilotick (sim-deterministic) and ops per wall-clock second")
        .str("msgs_per_op", "wire frames per completed op");
    let records = cells.iter().map(|c| {
        Record::new()
            .str("backend", format!("{:?}", c.backend).to_lowercase())
            .num("shards", c.shards)
            .num("max_batch", c.max_batch)
            .num("pipeline", c.pipeline)
            .num("clients", c.clients)
            .num("keyspace", c.keyspace)
            .num("ops_ok", c.ops_ok)
            .num("ops_failed", c.ops_failed)
            .fixed("wall_ms", c.wall_ms, 2)
            .fixed("ops_per_sec", c.ops_per_sec, 1)
            .num("ticks", c.ticks)
            .fixed("ops_per_ktick", c.ops_per_ktick, 2)
            .num("lat_p50", c.latency.percentile(50.0))
            .num("lat_p95", c.latency.percentile(95.0))
            .num("lat_p99", c.latency.percentile(99.0))
            .fixed("logical_msgs_per_op", c.logical_msgs_per_op, 1)
            .fixed("msgs_per_op", c.msgs_per_op, 2)
    });
    bench_json("e19", Record::new().nested("unit", unit), records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_cell_completes_all_ops() {
        let spec = ScaleSpec::new(4, 60, 1_000, 2, 7);
        let cell = run_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 60, "{cell:?}");
        assert_eq!(cell.latency.count(), 60);
        assert!(cell.logical_msgs_per_op > 10.0, "quorum broadcast is expensive");
        // Batching off: wire == logical.
        assert!((cell.msgs_per_op - cell.logical_msgs_per_op).abs() < 1e-9, "{cell:?}");
        // A batched frame can complete several ops in one event; none of
        // them may be dropped on the floor.
        let spec = ScaleSpec { pipeline: 4, ..spec }.batched(BatchPolicy::new(8, 4));
        let cell = run_cell(Backend::Sim, &spec);
        assert_eq!(cell.ops_ok + cell.ops_failed, 60, "{cell:?}");
        assert_eq!(cell.latency.count(), 60);
    }

    #[test]
    fn batching_cuts_wire_frames_not_logical_messages() {
        let spec = ScaleSpec::new(8, 120, 1_000, 1, 9);
        let plain = run_cell(Backend::Sim, &spec);
        let batched = run_cell(Backend::Sim, &spec.batched(BatchPolicy::new(32, 8)));
        assert_eq!(batched.ops_ok + batched.ops_failed, 120, "{batched:?}");
        assert!(
            batched.msgs_per_op < plain.msgs_per_op,
            "batched {} vs plain {}",
            batched.msgs_per_op,
            plain.msgs_per_op
        );
        // The protocol bill itself is untouched (same order of magnitude;
        // retries may wobble the exact count between configurations).
        assert!(batched.logical_msgs_per_op > 10.0, "{batched:?}");
    }

    /// Also the pin for `harness scale --quick` (seed 42): the simulator
    /// is deterministic, so any drift in these columns is a behaviour
    /// change.
    #[test]
    fn quick_grid_is_pinned_and_serializes() {
        let cells = run_quick(42);
        let rows: Vec<_> = cells
            .iter()
            .map(|c| (c.ops_ok, c.ops_failed, f1(c.ops_per_ktick), f1(c.msgs_per_op)))
            .collect();
        let want = [("3389.8", "27.9"), ("2500.0", "6.1"), ("3571.4", "27.9"), ("2631.6", "10.5")];
        assert_eq!(rows, want.map(|(kt, fr)| (200, 0, kt.to_string(), fr.to_string())));
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e19\""));
        assert!(json.contains("\"msgs_per_op\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
