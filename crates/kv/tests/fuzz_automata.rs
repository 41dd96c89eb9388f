//! Store-automaton fuzzing: the `sbft-core` automaton fuzz, one layer up.
//! Arbitrary keys (hosted and not), senders (own shard, foreign shard,
//! client range, out of range, the environment), message kinds, timers and
//! interleaved corruption must never panic a store automaton, and each
//! host must leave the context it was handed the way a substrate expects
//! it: `ctx.me` the global pid it was, every send addressed globally.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::adversary::random_message;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::Msg;
use sbft_core::reader::ReaderOptions;
use sbft_core::{RetryPolicy, Sys, Ts};
use sbft_kv::client::KvClient;
use sbft_kv::messages::{Key, KvEvent, KvMsg};
use sbft_kv::server::KvServer;
use sbft_kv::{ShardRouter, ShardedClient, ShardedServer};
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

type B = BoundedLabeling;
type Sends = Vec<(ProcessId, KvMsg<Ts<B>>)>;
/// What one callback queued: sends, outputs, `(delay, id)` timers.
type Effects = (Sends, Vec<KvEvent<Ts<B>>>, Vec<(u64, u64)>);

const SHARDS: usize = 3;
/// The shard the fuzzed `ShardedServer` serves: the last, whose global pids
/// no local pid (servers `0..n`, clients from `n`) can be mistaken for.
const HOME: usize = 2;
const PIPELINE: usize = 3;

fn sys_cfg() -> (Sys<B>, ClusterConfig) {
    let cfg = ClusterConfig::stabilizing(1);
    (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
}

/// One fuzz step: (sender selector, key selector, message seed, corrupt?).
fn steps() -> impl Strategy<Value = Vec<(u8, u8, u64, bool)>> {
    let step = (any::<u8>(), any::<u8>(), any::<u64>(), proptest::bool::weighted(0.05));
    proptest::collection::vec(step, 1..120)
}

/// A sender from every class a substrate (or a liar) can name.
fn sender(sel: u8, router: &ShardRouter) -> ProcessId {
    let servers = router.total_servers();
    match sel % 6 {
        0 => ENV,
        1 => servers + sel as usize % 4,    // client range
        2 => usize::MAX - 1 - sel as usize, // out of range
        _ => sel as usize % servers,        // some shard's server
    }
}

/// Sixteen keys, spread over every shard.
fn key(sel: u8) -> Key {
    sel as Key % 16
}

fn store_client(sys: &Sys<B>, cfg: ClusterConfig) -> KvClient<B> {
    let (opts, policy) = (ReaderOptions::default(), RetryPolicy::chaos());
    KvClient::with_retry(sys.clone(), cfg, 42, opts, policy).with_pipeline(PIPELINE)
}

fn message(sys: &Sys<B>, cfg: &ClusterConfig, from: ProcessId, seed: u64) -> Msg<Ts<B>> {
    match (from == ENV, seed % 2) {
        (true, 0) => Msg::InvokeWrite { value: seed },
        (true, _) => Msg::InvokeRead,
        _ => random_message::<B>(sys, cfg, &mut StdRng::seed_from_u64(seed)),
    }
}

/// Run one callback as process `me` and return what it queued; the host
/// must hand the context back under the pid it came with.
fn react(
    me: ProcessId,
    rng: &mut StdRng,
    callback: impl FnOnce(&mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>),
) -> Effects {
    let mut ctx = Ctx::detached(me, 3, rng);
    callback(&mut ctx);
    assert_eq!(ctx.me, me, "the context came back under another pid");
    ctx.drain()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn kv_server_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let router = ShardRouter::new(cfg, 1);
        let mut node = KvServer::<B>::new(sys.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(0);
        for (sel, ksel, seed, corrupt) in script {
            if corrupt {
                node.corrupt(&mut rng);
            }
            let (from, key) = (sender(sel, &router), key(ksel));
            let msg = KvMsg::new(key, message(&sys, &cfg, from, seed));
            let keys = node.key_count();
            let (sends, outs, timers) = react(0, &mut rng, |ctx| node.on_message(from, msg, ctx));
            prop_assert!(outs.is_empty() && timers.is_empty());
            prop_assert!(sends.iter().all(|(_, m)| m.key == key), "a reply left its key");
            prop_assert!(node.key_count() <= keys + 1);
            if from == ENV {
                prop_assert!(sends.is_empty() && node.key_count() == keys);
            }
        }
    }

    #[test]
    fn kv_client_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let router = ShardRouter::new(cfg, 1);
        let me = router.client_pid(0);
        let mut client = store_client(&sys, cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let mut armed: Vec<u64> = Vec::new();
        for (sel, ksel, seed, corrupt) in script {
            if corrupt {
                client.corrupt(&mut rng);
            }
            let (from, key) = (sender(sel, &router), key(ksel));
            let (keys, known) = (client.per_key.len(), client.per_key.contains_key(&key));
            let (sends, outs, timers) = if sel % 5 == 4 && !armed.is_empty() {
                let id = armed.swap_remove(seed as usize % armed.len());
                react(me, &mut rng, |ctx| client.on_timer(id, ctx))
            } else {
                let msg = KvMsg::new(key, message(&sys, &cfg, from, seed));
                let out = react(me, &mut rng, |ctx| client.on_message(from, msg, ctx));
                if from != ENV {
                    prop_assert_eq!(client.per_key.len(), keys, "a reply materialized a client");
                }
                if !known && from != ENV {
                    prop_assert!(out.0.is_empty() && out.1.is_empty() && out.2.is_empty());
                }
                out
            };
            prop_assert!(sends.iter().all(|(to, _)| cfg.is_server(*to)), "{sends:?}");
            prop_assert!(client.per_key.len() <= keys + 1);
            prop_assert!(client.inflight() <= PIPELINE);
            for ev in outs.iter().filter(|ev| ev.inner.is_read_end() || ev.inner.is_write_end()) {
                prop_assert!(!client.active.contains(&ev.key), "a finished key stayed in flight");
            }
            // Outer timer ids never collide while armed.
            for (_, id) in timers {
                prop_assert!(!armed.contains(&id));
                armed.push(id);
            }
        }
    }

    #[test]
    fn sharded_server_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let router = ShardRouter::new(cfg, SHARDS);
        let me = router.server_pids(HOME).start + 2;
        let mut node = ShardedServer::new(KvServer::<B>::new(sys.clone(), cfg), router, HOME);
        let mut rng = StdRng::seed_from_u64(2);
        for (sel, ksel, seed, corrupt) in script {
            if corrupt {
                node.corrupt(&mut rng);
            }
            let (from, key) = (sender(sel, &router), key(ksel));
            let msg = KvMsg::new(key, message(&sys, &cfg, from, seed));
            let keys = node.inner.key_count();
            let (sends, outs, timers) = react(me, &mut rng, |ctx| node.on_message(from, msg, ctx));
            prop_assert!(outs.is_empty() && timers.is_empty());
            prop_assert!(node.inner.key_count() <= keys + 1);
            let foreign = from < router.total_servers() && router.shard_of_server(from) != HOME;
            if from == ENV || foreign || router.shard_of(key) != HOME {
                // Misplaced or spoofed: nothing is said, nothing appears.
                prop_assert!(sends.is_empty() && node.inner.key_count() == keys, "{sends:?}");
            }
            for (to, m) in &sends {
                prop_assert_eq!(router.shard_of(m.key), HOME);
                prop_assert!(
                    router.server_pids(HOME).contains(to) || *to >= router.total_servers(),
                    "send to {to} left the shard"
                );
            }
        }
    }

    #[test]
    fn sharded_client_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let router = ShardRouter::new(cfg, SHARDS);
        let me = router.client_pid(1);
        let mut client = ShardedClient::new(store_client(&sys, cfg), router);
        let mut rng = StdRng::seed_from_u64(3);
        let mut armed: Vec<u64> = Vec::new();
        for (sel, ksel, seed, corrupt) in script {
            if corrupt {
                client.corrupt(&mut rng);
            }
            let (from, key) = (sender(sel, &router), key(ksel));
            let keys = client.inner.per_key.len();
            let (sends, _, timers) = if sel % 5 == 4 && !armed.is_empty() {
                let id = armed.swap_remove(seed as usize % armed.len());
                react(me, &mut rng, |ctx| client.on_timer(id, ctx))
            } else {
                let msg = KvMsg::new(key, message(&sys, &cfg, from, seed));
                let out = react(me, &mut rng, |ctx| client.on_message(from, msg, ctx));
                let home = router.shard_of(key);
                let spoofed = from != ENV
                    && (from >= router.total_servers() || router.shard_of_server(from) != home);
                if spoofed {
                    // A reply from outside the key's shard: dropped whole.
                    prop_assert!(out.0.is_empty() && out.1.is_empty() && out.2.is_empty());
                }
                if from != ENV {
                    prop_assert_eq!(client.inner.per_key.len(), keys);
                }
                out
            };
            prop_assert!(client.inner.per_key.len() <= keys + 1);
            for (to, m) in &sends {
                prop_assert!(
                    router.server_pids(router.shard_of(m.key)).contains(to),
                    "key {} went to {to}", m.key
                );
            }
            armed.extend(timers.into_iter().map(|(_, id)| id));
        }
    }
}
