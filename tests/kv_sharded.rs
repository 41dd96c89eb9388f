//! Sharded-store nemesis smoke: a shard is the unit of fault isolation.
//! Crashing or partitioning one shard's server group below quorum wedges
//! that shard only — every other shard keeps serving operations whose
//! histories remain regular.

use sbft::kv::{check_per_shard, KvCluster, KvMsg};
use sbft::register::messages::Msg;

#[test]
fn crashing_one_shard_leaves_the_others_serving() {
    let mut store = KvCluster::bounded(1).shards(4).clients(2).seed(51).build();
    let (a, b) = (store.client(0), store.client(1));
    // Seed every key once so all shards hold state.
    for key in 0..8u64 {
        store.put(a, key, 100 + key).unwrap();
    }
    // Crash two servers of one shard: 4 of n = 6 alive is below the
    // n - f = 5 quorum, so that shard can no longer complete operations.
    let doomed_key = 3u64;
    let victim = store.router.shard_of(doomed_key);
    for pid in store.router.server_pids(victim).take(2) {
        store.sim.crash(pid);
    }
    // Fire an op at the wedged shard from client b, bypassing the blocking
    // helpers (it can never complete — b's pipeline slot is sacrificed).
    store.sim.inject(b, KvMsg::new(doomed_key, Msg::InvokeWrite { value: 999 }));
    // Every key on a surviving shard still round-trips through client a.
    let mut survivors = 0;
    for key in 0..8u64 {
        if store.router.shard_of(key) == victim {
            continue;
        }
        survivors += 1;
        store.put(a, key, 200 + key).unwrap();
        assert_eq!(store.get(a, key).unwrap().value, 200 + key);
    }
    assert!(survivors > 0, "need at least one key off the victim shard");
    assert!(store.check_history().is_ok());
    let verdicts = check_per_shard(&store);
    assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
}

#[test]
fn partitioning_one_shard_from_a_client_leaves_other_shards_reachable() {
    use sbft::net::LinkFault;
    let mut store = KvCluster::bounded(1).shards(2).seed(52).build();
    let c = store.client(0);
    for key in 0..6u64 {
        store.put(c, key, 10 + key).unwrap();
    }
    // Cut the client off from every server of one shard, both directions.
    let victim = store.router.shard_of(0);
    for pid in store.router.server_pids(victim) {
        store.sim.set_link_fault(c, pid, Some(LinkFault::cut()));
        store.sim.set_link_fault(pid, c, Some(LinkFault::cut()));
    }
    // Keys placed on the other shard are untouched by the partition.
    let mut reachable = 0;
    for key in 0..6u64 {
        if store.router.shard_of(key) == victim {
            continue;
        }
        reachable += 1;
        assert_eq!(store.get(c, key).unwrap().value, 10 + key);
        store.put(c, key, 20 + key).unwrap();
        assert_eq!(store.get(c, key).unwrap().value, 20 + key);
    }
    assert!(reachable > 0, "need at least one key off the victim shard");
    assert!(store.check_history().is_ok());
    let verdicts = check_per_shard(&store);
    assert!(verdicts.values().all(|v| v.is_regular()), "{verdicts:?}");
}
