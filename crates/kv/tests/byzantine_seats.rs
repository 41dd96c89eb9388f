//! The adversary takes seats in the store: a nemesis schedule that moves a
//! Byzantine server around each shard of a durable store runs through the
//! register's soak loop, and every shard stays regular.

use sbft_core::adversary::ByzStrategy;
use sbft_core::{RetryPolicy, Soak};
use sbft_kv::{check_per_shard, KvCluster};
use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};

#[test]
fn soak_with_a_byzantine_seat_moving_in_every_shard_stays_regular() {
    for strat in [ByzStrategy::Equivocate, ByzStrategy::Adaptive, ByzStrategy::RandomGarbage] {
        let mut store =
            KvCluster::bounded(1).shards(2).durable().seed(21).retry(RetryPolicy::chaos()).build();
        let (s0, s1) = (store.router.server_pids(0).start, store.router.server_pids(1).start);
        let key = 5;
        assert_eq!(store.router.shard_of(key), 1);
        // The store is built honest, and an honest server is a legal
        // Byzantine one: the runner starts with one nominal seat per shard
        // and the first movement in each shard seats the real adversary.
        let sched = NemesisSchedule::scripted(vec![
            (50, NemesisEvent::MoveByz { from: s0, to: s0 + 1 }),
            (150, NemesisEvent::MoveByz { from: s1, to: s1 + 1 }),
            (350, NemesisEvent::MoveByz { from: s1 + 1, to: s1 + 2 }),
            (550, NemesisEvent::MoveByz { from: s0 + 1, to: s0 + 3 }),
        ]);
        let runner = store.nemesis_runner(sched, vec![s0, s1], strat);
        let report = Soak::new(&mut store, key, runner).run();
        assert_eq!((report.fired("move-byz"), report.cures), (4, 4), "{strat:?}: {report:?}");
        assert_eq!(report.window_violations, 0, "{strat:?}: {report:?}");
        assert_eq!(report.post_heal_failures, 0, "{strat:?}: {report:?}");
        assert!(report.windows >= 2 && report.writes_ok > 0, "{strat:?}: {report:?}");
        // Both shards serve with their adversary still seated.
        let (w, r) = (store.client(0), store.client(1));
        for k in 0..8 {
            store.put(w, k, 100 + k).unwrap();
            assert_eq!(store.get(r, k).unwrap().value, 100 + k, "{strat:?}, key {k}");
        }
        let verdicts = check_per_shard(&store);
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        assert!(verdicts.values().all(|v| v.is_regular()), "{strat:?}: {verdicts:?}");
    }
}
