//! A store automaton's state does not depend on the order its keys arrived
//! in: two nodes (or clients) that touch the same keys in opposite orders
//! write the same snapshot bytes, and one corruption seed scrambles each key
//! the same way on both, because every walk over the keys is ascending.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::Msg;
use sbft_core::{Sys, Ts};
use sbft_kv::client::KvClient;
use sbft_kv::messages::{Key, KvEvent, KvMsg};
use sbft_kv::server::KvServer;
use sbft_labels::{BoundedLabeling, LabelingSystem, MwmrLabeling};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

type B = BoundedLabeling;

/// Keys far apart and out of order, inside and outside the phantom range
/// `0..8` that `KvServer::corrupt` plants into.
const KEYS: [Key; 6] = [3, 1 << 40, 17, 0, 9, 1 << 33];

fn sys_cfg() -> (Sys<B>, ClusterConfig) {
    let cfg = ClusterConfig::stabilizing(1);
    (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
}

fn deliver(
    auto: &mut impl Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    me: ProcessId,
    from: ProcessId,
    msg: KvMsg<Ts<B>>,
) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut ctx = Ctx::detached(me, 0, &mut rng);
    auto.on_message(from, msg, &mut ctx);
}

/// A node that took one write per key, in the order given.
fn node(keys: impl Iterator<Item = Key>) -> KvServer<B> {
    let (sys, cfg) = sys_cfg();
    let mut node = KvServer::new(sys.clone(), cfg);
    for key in keys {
        let ts = sys.next_for(9, &[sys.genesis()]);
        deliver(&mut node, 0, 7, KvMsg::new(key, Msg::Write { value: key + 1, ts }));
    }
    node
}

/// A client that started one read per key, in the order given.
fn client(keys: impl Iterator<Item = Key>) -> KvClient<B> {
    let (sys, cfg) = sys_cfg();
    let mut client = KvClient::new(sys, cfg, 7).with_pipeline(KEYS.len());
    for key in keys {
        deliver(&mut client, cfg.n, ENV, KvMsg::new(key, Msg::InvokeRead));
    }
    client
}

#[test]
fn a_node_snapshots_and_corrupts_in_key_order() {
    let (mut a, mut b) = (node(KEYS.into_iter()), node(KEYS.into_iter().rev()));
    assert_eq!(a.state_bytes(), b.state_bytes());
    a.corrupt(&mut StdRng::seed_from_u64(5));
    b.corrupt(&mut StdRng::seed_from_u64(5));
    assert_eq!(a.key_count(), b.key_count());
    for (key, x) in a.registers.iter() {
        let y = &b.registers[key];
        assert_eq!(
            (x.value, &x.ts, &x.old_vals, &x.running_read),
            (y.value, &y.ts, &y.old_vals, &y.running_read),
            "key {key} corrupted differently"
        );
    }
    assert_eq!(a.state_bytes(), b.state_bytes());
}

#[test]
fn a_client_corrupts_in_key_order() {
    let (mut a, mut b) = (client(KEYS.into_iter()), client(KEYS.into_iter().rev()));
    a.corrupt(&mut StdRng::seed_from_u64(5));
    b.corrupt(&mut StdRng::seed_from_u64(5));
    for key in KEYS {
        let (x, y) = (&a.per_key[&key], &b.per_key[&key]);
        assert_eq!((&x.pool, &x.recent_vals), (&y.pool, &y.recent_vals), "key {key}");
    }
}
