//! The four pinned workloads and the generator that turns a seed into
//! their operation sequence. The program under test sees only the
//! generated operations.

use sbft_kv::Key;
use sbft_net::{Backend, BatchPolicy};

/// Windows an untraced run measures per requested second. Windows hold a
/// fixed number of operations, sized to last about half a second on the
/// 2-core reference container, so `--seconds` pins the *work* of a run:
/// the same seed and seconds give the same operations on any machine, and
/// every count repeats exactly on the simulator.
pub const WINDOWS_PER_SECOND: f64 = 2.0;

/// Windows of a traced run.
pub const TRACED_WINDOWS: usize = 5;

/// User bytes per write: an 8-byte key and an 8-byte value.
pub const USER_BYTES_PER_WRITE: u64 = 16;

/// One pinned workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Substrate.
    pub backend: Backend,
    /// Independent `5f + 1` server groups.
    pub shards: usize,
    /// Link batching.
    pub batch: BatchPolicy,
    /// Whether servers persist to simulated disks.
    pub durable: bool,
    /// Closed-loop clients.
    pub clients: usize,
    /// Operations each client keeps in flight.
    pub pipeline: usize,
    /// Keys; every one is written once during set-up.
    pub keyspace: u64,
    /// Share of writes, in percent.
    pub write_pct: u64,
    /// Operations per window.
    pub window_ops: u64,
    /// Timed set-ups per untraced run (`setup_s` is their median): more
    /// when a set-up takes only milliseconds.
    pub setups: usize,
    /// Crash a server, damage its disk and reboot it from the damaged
    /// bytes every this many completed operations.
    pub crash_every: Option<u64>,
}

const BASE: Workload = Workload {
    name: "kv-sim-base",
    why: "sim, 1 shard, no batching, no disks, 64 clients x 8 deep, 65536 keys, 50% writes, windows of 10000 ops: protocol automata and the sim event loop do all the work; the other layers do none",
    backend: Backend::Sim,
    shards: 1,
    batch: BatchPolicy::disabled(),
    durable: false,
    clients: 64,
    pipeline: 8,
    keyspace: 65_536,
    write_pct: 50,
    window_ops: 10_000,
    setups: 5,
    crash_every: None,
};

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> [Workload; 4] {
    [
        BASE,
        Workload {
            name: "kv-sim-scaleout",
            why: "kv-sim-base plus 4 shards and 32/8 link batching, nothing else: isolates the shard wrappers' pid translation and LinkBatcher; pins the E19 inversion (more shards, less wall-clock throughput)",
            shards: 4,
            batch: BatchPolicy::new(32, 8),
            ..BASE
        },
        Workload {
            name: "kv-sim-durable",
            why: "sim, disks on, 1024 keys, 80% writes, windows of 500 ops, every 2000 ops a server reboots from its damaged disk: append/sync/whole-map snapshot dominate, recovery runs under load; write-heavy",
            durable: true,
            keyspace: 1_024,
            write_pct: 80,
            window_ops: 500,
            setups: 9,
            crash_every: Some(2_000),
            ..BASE
        },
        Workload {
            name: "kv-threaded-readheavy",
            why: "threads, 2 clients x 1 deep (one per core; more measure the scheduler), 1024 keys, 10% writes, windows of 5000 ops: thread hand-off and inboxes carry the run, latency is real; read-heavy",
            backend: Backend::Threaded,
            clients: 2,
            pipeline: 1,
            keyspace: 1_024,
            write_pct: 10,
            window_ops: 5_000,
            setups: 15,
            ..BASE
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Bits of a written value that hold the key (the rest hold the sequence
/// number), so a read's result can be checked without remembering writes.
const KEY_BITS: u32 = 24;

/// One generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Position in the run's sequence (set-up writes come first).
    pub seq: u64,
    /// Preferred key; the driver probes linearly past keys the issuing
    /// client already has in flight.
    pub key: Key,
    /// Whether the operation writes.
    pub write: bool,
}

/// Deterministic operation source: the E15/E19 hashes of the sequence
/// number, offset by the seed.
#[derive(Clone, Copy, Debug)]
pub struct OpGen {
    offset: u64,
    keyspace: u64,
    write_pct: u64,
}

impl OpGen {
    /// The generator of `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        assert!(workload.keyspace < 1 << KEY_BITS, "keys must fit the value encoding");
        // splitmix64 finaliser: nearby seeds give unrelated offsets.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self { offset: z ^ (z >> 31), keyspace: workload.keyspace, write_pct: workload.write_pct }
    }

    /// Operation `seq`. The first `keyspace` operations are the set-up:
    /// one write per key, in key order.
    pub fn op(&self, seq: u64) -> Op {
        if seq < self.keyspace {
            return Op { seq, key: seq, write: true };
        }
        let x = (seq - self.keyspace).wrapping_add(self.offset);
        Op {
            seq,
            key: x.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keyspace,
            write: (x.wrapping_mul(2_654_435_761) >> 16) % 100 < self.write_pct,
        }
    }

    /// The value operation `seq` writes to `key` (never 0, the initial
    /// value of every key).
    pub fn value(seq: u64, key: Key) -> u64 {
        ((seq + 1) << KEY_BITS) | key
    }

    /// Whether a read of `key` may return `value` once `issued` operations
    /// have been issued: the initial value, or one some issued write
    /// operation stamped for this key.
    pub fn plausible(&self, key: Key, value: u64, issued: u64) -> bool {
        if value == 0 {
            return true;
        }
        let (stamp, k) = (value >> KEY_BITS, value & ((1 << KEY_BITS) - 1));
        k == key && stamp >= 1 && stamp <= issued && self.op(stamp - 1).write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_operations_and_another_seed_does_not() {
        let w = by_name("kv-sim-base").unwrap();
        let ops =
            |seed| (0..w.keyspace + 5_000).map(|s| OpGen::new(&w, seed).op(s)).collect::<Vec<_>>();
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
    }

    #[test]
    fn setup_writes_every_key_once_and_the_mix_matches_the_ratio() {
        for w in all() {
            let gen = OpGen::new(&w, 7);
            assert!((0..w.keyspace).all(|s| gen.op(s) == Op { seq: s, key: s, write: true }));
            let n = 20_000;
            let writes = (0..n).filter(|i| gen.op(w.keyspace + i).write).count() as f64;
            let share = writes / n as f64 * 100.0;
            assert!((share - w.write_pct as f64).abs() < 2.0, "{}: {share}% writes", w.name);
            assert!((0..n).all(|i| gen.op(w.keyspace + i).key < w.keyspace));
        }
    }

    #[test]
    fn values_identify_their_key_and_writer() {
        let w = by_name("kv-sim-durable").unwrap();
        let gen = OpGen::new(&w, 3);
        let write = (w.keyspace..).map(|s| gen.op(s)).find(|o| o.write).unwrap();
        let read = (w.keyspace..).map(|s| gen.op(s)).find(|o| !o.write).unwrap();
        let v = OpGen::value(write.seq, 17);
        assert!(gen.plausible(17, v, write.seq + 1));
        assert!(gen.plausible(17, 0, 0), "initial value");
        assert!(!gen.plausible(18, v, write.seq + 1), "another key's value");
        assert!(!gen.plausible(17, v, write.seq), "not issued yet");
        assert!(
            !gen.plausible(17, OpGen::value(read.seq, 17), read.seq + 1),
            "a read wrote nothing"
        );
    }

    #[test]
    fn names_are_unique_and_found() {
        let names: Vec<_> = all().iter().map(|w| w.name).collect();
        for n in &names {
            assert_eq!(names.iter().filter(|m| m == &n).count(), 1);
            assert_eq!(by_name(n).unwrap().name, *n);
        }
        assert!(by_name("nope").is_none());
    }
}
