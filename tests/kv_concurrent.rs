//! KV store under client concurrency: different clients operating on
//! different (and the same) keys simultaneously, with key-level isolation
//! and per-key regularity.

use sbft::kv::{check_per_shard, KvCluster};
use sbft::register::cluster::Op;
use sbft::register::messages::ClientEvent;

#[test]
fn concurrent_puts_on_different_keys_are_isolated() {
    let mut store = KvCluster::bounded(1).clients(2).seed(21).build();
    let (a, b) = (store.client(0), store.client(1));
    let evs = store.run_concurrent(&[(0, 1, Op::Write(100)), (1, 2, Op::Write(200))]);
    assert!(evs.iter().all(Option::is_some), "both concurrent puts must complete");
    assert_eq!(store.get(a, 2).unwrap().value, 200);
    assert_eq!(store.get(b, 1).unwrap().value, 100);
    assert!(store.check_history().is_ok());
}

#[test]
fn concurrent_put_and_get_on_the_same_key_satisfy_regularity() {
    for seed in 0..5 {
        let mut store = KvCluster::bounded(1).clients(2).seed(seed).build();
        let a = store.client(0);
        store.put(a, 7, 1).unwrap();
        let evs = store.run_concurrent(&[(0, 7, Op::Write(2)), (1, 7, Op::Read)]);
        assert!(evs.iter().all(Option::is_some), "seed {seed}");
        // The concurrent read returned either the old or the new value.
        let Some(ClientEvent::ReadDone { value: read_val, .. }) = evs[1] else {
            panic!("seed {seed}: the get must return a value, got {:?}", evs[1]);
        };
        assert!(read_val == 1 || read_val == 2, "seed {seed}: got {read_val}");
        assert!(store.check_history().is_ok(), "seed {seed}");
    }
}

#[test]
fn concurrent_writers_across_shards_stay_regular() {
    let mut store = KvCluster::bounded(1).shards(4).clients(2).seed(44).build();
    let (a, b) = (store.client(0), store.client(1));
    // Find two keys the router places on different shards (any small scan
    // succeeds: the Fibonacci hash spreads consecutive keys widely).
    let key_a = 0u64;
    let key_b = (1..64u64)
        .find(|k| store.router.shard_of(*k) != store.router.shard_of(key_a))
        .expect("some key must land on another shard");
    // Truly concurrent puts served by two disjoint server groups.
    let evs = store.run_concurrent(&[(0, key_a, Op::Write(111)), (1, key_b, Op::Write(222))]);
    assert!(evs.iter().all(Option::is_some), "both cross-shard puts must complete");
    assert_eq!(store.get(a, key_b).unwrap().value, 222);
    assert_eq!(store.get(b, key_a).unwrap().value, 111);
    // And a same-key race on the sharded store: regularity still holds.
    let evs = store.run_concurrent(&[(0, key_a, Op::Write(7)), (1, key_a, Op::Read)]);
    assert!(evs.iter().all(Option::is_some), "same-key put/get race must complete");
    assert!(store.check_history().is_ok());
    let verdicts = check_per_shard(&store);
    assert!(verdicts.len() >= 2, "keys must span at least two shards: {verdicts:?}");
    assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
}

#[test]
fn interleaved_keys_under_churn_stay_regular() {
    let mut store = KvCluster::bounded(1).clients(2).seed(33).build();
    for round in 0..6u64 {
        let ka = round % 3;
        let kb = (round + 1) % 3;
        let second = if round % 2 == 0 { Op::Read } else { Op::Write(round * 100) };
        let evs = store.run_concurrent(&[(0, ka, Op::Write(round * 10)), (1, kb, second)]);
        assert!(evs.iter().all(Option::is_some), "round {round}");
    }
    assert!(store.check_history().is_ok());
}
