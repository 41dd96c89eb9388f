//! The durable write path of a storage node: what it costs per write, and
//! what a reboot gets back.
//!
//! * **Amortization** — bytes written to disk per applied write stay within
//!   a fixed multiple of the record size whatever the number of keys, and
//!   snapshots are taken O(log writes) times while the key set fills and
//!   once per state's worth of log afterwards.
//! * **Recovery equivalence** — over random write sequences, crash points
//!   and every [`DiskFault`]: a pristine disk gives back every key exactly;
//!   a damaged one gives back, per key, some state that key really passed
//!   through, never an invented key; and the snapshot cadence a rebooted
//!   node resumes from always matches the bytes on its disk.
//! * **Scale** — a node with more keys than `codec::MAX_SEQ_LEN` recovers
//!   all of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::{Msg, Value};
use sbft_core::{Sys, Ts};
use sbft_kv::messages::{Key, KvMsg};
use sbft_kv::server::KvServer;
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling};
use sbft_net::{Automaton, Ctx};
use sbft_storage::frame::FRAME_HEADER;
use sbft_storage::{Cadence, DiskFault, DiskHandle, DiskStats, Recovered, SimDisk, Stable};

type B = BoundedLabeling;

const CLIENT: usize = 7;

fn cfg() -> ClusterConfig {
    ClusterConfig::stabilizing(1)
}

fn sys() -> Sys<B> {
    MwmrLabeling::new(BoundedLabeling::new(cfg().label_k()))
}

/// Deliver a well-formed `Write` advancing `key`'s register to `value`.
fn put(node: &mut KvServer<B>, sys: &Sys<B>, key: Key, value: Value) {
    let cur = node.registers.get(&key).map_or_else(|| sys.genesis(), |r| r.ts.clone());
    let ts = sys.next_for(9, std::slice::from_ref(&cur));
    let mut rng = StdRng::seed_from_u64(0);
    let mut ctx = Ctx::detached(0, 0, &mut rng);
    node.on_message(CLIENT, KvMsg::new(key, Msg::Write { value, ts }), &mut ctx);
}

/// Every key's `(value, ts)`.
fn contents(node: &KvServer<B>) -> Vec<(Key, Value, Ts<B>)> {
    node.registers.iter().map(|(&k, r)| (k, r.value, r.ts.clone())).collect()
}

/// What a [`CountingDisk`] saw.
#[derive(Default)]
struct Written {
    /// Framed bytes handed to the disk (appends and snapshots).
    bytes: AtomicU64,
    /// Framed size of the first record appended.
    record_frame: AtomicU64,
    /// `(appends so far, framed size)` at each snapshot.
    snapshots: Mutex<Vec<(u64, u64)>>,
}

/// A simulated disk that counts the bytes written through it. It reaches
/// the store through the seven required methods of [`Stable`] only.
struct CountingDisk {
    inner: SimDisk,
    seen: Arc<Written>,
}

impl Stable for CountingDisk {
    fn put_snapshot(&mut self, payload: &[u8]) {
        let framed = (payload.len() + FRAME_HEADER) as u64;
        self.seen.bytes.fetch_add(framed, Ordering::Relaxed);
        self.seen.snapshots.lock().unwrap().push((self.inner.stats().appends, framed));
        self.inner.put_snapshot(payload);
    }
    fn append(&mut self, payload: &[u8]) {
        let framed = (payload.len() + FRAME_HEADER) as u64;
        self.seen.bytes.fetch_add(framed, Ordering::Relaxed);
        let _ = self.seen.record_frame.compare_exchange(
            0,
            framed,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        self.inner.append(payload);
    }
    fn sync(&mut self) {
        self.inner.sync();
    }
    fn crash(&mut self, fault: DiskFault) {
        self.inner.crash(fault);
    }
    fn load(&self) -> Recovered {
        self.inner.load()
    }
    fn digest(&self) -> u64 {
        self.inner.digest()
    }
    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

/// Bytes to disk per applied write may not exceed this many record frames,
/// whatever the key count. The log-doubling rule measures 2.0–2.1 here
/// (each log byte is matched by at most one snapshot byte, plus a
/// geometric series of small snapshots while the key set fills); the
/// parent's every-16-writes whole-map snapshot gives about `1 + K/3` — 22
/// at 64 keys, 2,700 at 8,192.
const MAX_RECORD_FRAMES_PER_WRITE: f64 = 3.0;

#[test]
fn bytes_to_disk_per_write_do_not_grow_with_the_key_count() {
    const WRITES: u64 = 20_000;
    let sys = sys();
    for keys in [64u64, 1_024, 8_192] {
        let seen = Arc::new(Written::default());
        let disk =
            DiskHandle::new(CountingDisk { inner: SimDisk::new(3), seen: Arc::clone(&seen) });
        let mut node = KvServer::new(sys.clone(), cfg()).with_disk(disk.clone());
        // Round-robin: the key set fills during the first `keys` writes.
        for i in 0..WRITES {
            put(&mut node, &sys, i % keys, i + 1);
        }
        let record = seen.record_frame.load(Ordering::Relaxed) as f64;
        let per_write = seen.bytes.load(Ordering::Relaxed) as f64 / WRITES as f64;
        assert!(
            per_write < MAX_RECORD_FRAMES_PER_WRITE * record,
            "{keys} keys: {per_write:.0} B/write against a {record:.0} B record"
        );

        // Snapshot counts: logarithmic while the state grows with every
        // write, then one per state's worth of log.
        let snapshots = seen.snapshots.lock().unwrap().clone();
        let state = snapshots.last().expect("20,000 writes snapshot at least once").1 as f64;
        let fill = snapshots.iter().filter(|&&(appends, _)| appends < keys).count() as f64;
        let after = snapshots.len() as f64 - fill;
        assert!(fill <= 2.0 * (keys as f64).log2(), "{keys} keys: {fill} snapshots while filling");
        let expect = (WRITES - keys) as f64 * record / state;
        assert!(
            (0.5 * expect - 1.0..=1.5 * expect + 1.0).contains(&after),
            "{keys} keys: {after} snapshots after the fill, expected about {expect:.1}"
        );

        // And nothing was lost to the cheaper cadence.
        disk.crash(DiskFault::Pristine);
        let back = KvServer::<B>::recover(sys.clone(), cfg(), disk);
        assert_eq!(back.writes_applied, WRITES);
        assert_eq!(contents(&back), contents(&node), "{keys} keys");
    }
}

#[test]
fn seventy_thousand_keys_recover_from_a_pristine_disk() {
    // More entries than `codec::MAX_SEQ_LEN` (65,536): the parent decoded
    // the key map as a `Vec`, so this snapshot — intact, on a pristine
    // disk — recovered zero keys.
    const KEYS: u64 = 70_000;
    let sys = sys();
    let disk = DiskHandle::sim(5);
    let mut node = KvServer::new(sys.clone(), cfg()).with_disk(disk.clone());
    for key in 0..KEYS {
        put(&mut node, &sys, key, key + 1);
    }
    // Whatever mix of snapshot and log the cadence left ...
    disk.crash(DiskFault::Pristine);
    let back = KvServer::<B>::recover(sys.clone(), cfg(), disk.clone());
    assert_eq!(back.key_count(), KEYS as usize);
    assert_eq!(contents(&back), contents(&node));
    // ... and a snapshot holding every key by itself.
    disk.put_snapshot(&node.state_bytes());
    let back = KvServer::<B>::recover(sys.clone(), cfg(), disk);
    assert_eq!(back.key_count(), KEYS as usize);
    assert_eq!(back.writes_applied, KEYS);
    assert_eq!(contents(&back), contents(&node));
}

#[test]
fn garbage_snapshots_decode_to_nothing_without_allocating() {
    let sys = sys();
    // A write counter, then an entry count no payload could back.
    let mut lying = 5u64.to_le_bytes().to_vec();
    lying.extend_from_slice(&u32::MAX.to_le_bytes());
    lying.extend_from_slice(&[0u8; 64]);
    // A well-formed snapshot with a byte of trailing garbage.
    let mut node = KvServer::new(sys.clone(), cfg());
    put(&mut node, &sys, 1, 10);
    let mut trailing = node.state_bytes();
    trailing.push(0);
    for bytes in [&b"not a key map"[..], &lying, &trailing, &[]] {
        let disk = DiskHandle::sim(1);
        disk.put_snapshot(bytes);
        let back = KvServer::<B>::recover(sys.clone(), cfg(), disk);
        assert_eq!((back.key_count(), back.writes_applied), (0, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn recovery_returns_only_states_each_key_passed_through(
        writes in proptest::collection::vec(0u64..6, 1..160),
        crash_at in 0usize..160,
        more in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let sys = sys();
        let crash_at = crash_at.min(writes.len());
        for fault in DiskFault::ALL {
            let disk = DiskHandle::sim(seed);
            let mut node = KvServer::new(sys.clone(), cfg()).with_disk(disk.clone());
            // Every state each key passed through, genesis included.
            let mut passed: Vec<Vec<(Value, Ts<B>)>> = vec![vec![(0, sys.genesis())]; 6];
            for (i, &key) in writes[..crash_at].iter().enumerate() {
                put(&mut node, &sys, key, i as Value + 1);
                let reg = &node.registers[&key];
                passed[key as usize].push((reg.value, reg.ts.clone()));
            }
            prop_assert_eq!(node.cadence(), Some(Cadence::of(&disk.load())));

            disk.crash(fault);
            let mut back = KvServer::<B>::recover(sys.clone(), cfg(), disk.clone());
            if fault == DiskFault::Pristine {
                prop_assert_eq!(back.writes_applied, crash_at as u64);
                prop_assert_eq!(contents(&back), contents(&node));
            }
            prop_assert!(back.writes_applied <= crash_at as u64);
            for (key, value, ts) in contents(&back) {
                prop_assert!(node.registers.contains_key(&key), "{fault:?} invented key {key}");
                prop_assert!(
                    passed[key as usize].contains(&(value, ts)),
                    "{fault:?}: key {key} recovered a state it never held"
                );
            }
            // The rebooted node's cadence is that of its disk — damaged
            // regions are rewritten on recovery, so this holds under every
            // fault — and stays so as it keeps writing.
            prop_assert_eq!(back.cadence(), Some(Cadence::of(&disk.load())), "{fault:?}");
            for (i, &key) in writes.iter().cycle().take(more).enumerate() {
                put(&mut back, &sys, key, 1_000 + i as Value);
                prop_assert_eq!(back.cadence(), Some(Cadence::of(&disk.load())), "{fault:?}");
            }
            // And nothing written after the reboot hides behind old damage.
            disk.crash(DiskFault::Pristine);
            let again = KvServer::<B>::recover(sys.clone(), cfg(), disk.clone());
            prop_assert_eq!(again.writes_applied, back.writes_applied);
            prop_assert_eq!(contents(&again), contents(&back), "{fault:?}: second reboot");
            prop_assert_eq!(again.cadence(), back.cadence());
        }
    }
}
