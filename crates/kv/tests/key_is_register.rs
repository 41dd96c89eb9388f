//! A key is a register: the store's automata are the register's automata,
//! once per key.
//!
//! One arbitrary script — senders in and out of range, environment
//! commands, channel garbage, interleaved corruption, timers fired in any
//! order — is fed to a bare register automaton and to the store automaton
//! under one key `k`. Every callback must queue the same sends and emit the
//! same outputs modulo the key, and leave the same register state behind.
//! For the client this is also the only unit-level cover of the timer
//! re-numbering path: no pinned workload arms a timer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::adversary::random_message;
use sbft_core::client::Client;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::reader::ReaderOptions;
use sbft_core::server::Server;
use sbft_core::{RetryPolicy, Sys, Ts};
use sbft_kv::client::KvClient;
use sbft_kv::messages::{Key, KvEvent, KvMsg};
use sbft_kv::server::KvServer;
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

type B = BoundedLabeling;
type Sends = Vec<(ProcessId, Msg<Ts<B>>)>;
type KvSends = Vec<(ProcessId, KvMsg<Ts<B>>)>;
/// Armed timers, `(delay, id)`.
type Timers = Vec<(u64, u64)>;

fn sys_cfg() -> (Sys<B>, ClusterConfig) {
    let cfg = ClusterConfig::stabilizing(1);
    (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
}

/// What one script step does.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Deliver a message under the key both automata share.
    Deliver,
    /// Deliver a message under another key, to the store automaton only.
    OtherKey,
    /// Transient fault on both.
    Corrupt,
    /// Fire one pending timer on both (clients only).
    Fire,
    /// Let an honest server answer one message on the wire (clients only).
    Serve,
}

/// One step: (what, sender selector, message seed).
fn steps() -> impl Strategy<Value = Vec<(Action, u8, u64)>> {
    let action = (0u8..32).prop_map(|roll| match roll {
        0..=7 => Action::Deliver,
        8..=9 => Action::OtherKey,
        10 => Action::Corrupt,
        11..=13 => Action::Fire,
        _ => Action::Serve,
    });
    proptest::collection::vec((action, any::<u8>(), any::<u64>()), 1..200)
}

/// Keys from 8 up, clear of the phantom keys `KvServer::corrupt` plants.
fn keys() -> impl Strategy<Value = Key> {
    8..u64::MAX
}

/// The sender a selector names: the environment, a server, a client, or a
/// pid no process holds.
fn sender(sel: u8, cfg: &ClusterConfig) -> ProcessId {
    match sel % 8 {
        0 => ENV,
        1 => 10_000 + sel as usize,
        _ => sel as usize % (cfg.n + 3),
    }
}

fn keyed(key: Key, sends: Sends) -> KvSends {
    sends.into_iter().map(|(to, m)| (to, KvMsg::new(key, m))).collect()
}

/// A register client and a store client driven in lockstep, with what a
/// substrate would hold for them: the timers armed and not yet fired and
/// the messages on their way to the servers.
struct Twins {
    key: Key,
    me: ProcessId,
    bare: Client<B>,
    store: KvClient<B>,
    rngs: (StdRng, StdRng),
    /// In arming order: `(delay, inner id)` on the register client,
    /// `(delay, outer id)` on the store client.
    armed: (Timers, Timers),
    outer_ids: u64,
    /// The register client's sends (the store client's are the same).
    wire: Sends,
}

impl Twins {
    /// Run one reaction on each twin and hold them to the same effects.
    fn react(
        &mut self,
        on_bare: impl FnOnce(&mut Client<B>, &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>),
        on_store: impl FnOnce(&mut KvClient<B>, &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>),
    ) {
        let key = self.key;
        let mut ctx_a = Ctx::detached(self.me, 7, &mut self.rngs.0);
        on_bare(&mut self.bare, &mut ctx_a);
        let (sends_a, outs_a, timers_a) = ctx_a.drain();
        let mut ctx_b = Ctx::detached(self.me, 7, &mut self.rngs.1);
        on_store(&mut self.store, &mut ctx_b);
        assert_eq!(ctx_b.me, self.me);
        let (sends_b, outs_b, timers_b) = ctx_b.drain();
        assert_eq!(keyed(key, sends_a.clone()), sends_b);
        let outs_a: Vec<_> = outs_a.into_iter().map(|inner| KvEvent { key, inner }).collect();
        assert_eq!(outs_a, outs_b);
        // Same delays in the same order, outer ids handed out in arming
        // order; which inner id an outer id stands for shows when it fires.
        assert_eq!(timers_a.len(), timers_b.len());
        for (a, b) in timers_a.iter().zip(&timers_b) {
            assert_eq!((a.0, self.outer_ids), *b);
            self.outer_ids += 1;
        }
        self.armed.0.extend(timers_a);
        self.armed.1.extend(timers_b);
        self.wire.extend(sends_a);
        // A key is in flight exactly while its client is — so a reply for
        // a key outside `active` meets an idle client, which says nothing.
        assert_eq!(self.store.active.contains(&key), self.bare.is_busy());
        if let Some(c) = self.store.per_key.get(&key) {
            assert_eq!(c.is_busy(), self.bare.is_busy());
        }
    }

    fn deliver(&mut self, from: ProcessId, msg: Msg<Ts<B>>) {
        let keyed = KvMsg::new(self.key, msg.clone());
        self.react(|c, ctx| c.on_message(from, msg, ctx), |c, ctx| c.on_message(from, keyed, ctx));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn kv_server_under_one_key_is_the_register_server(script in steps(), key in keys()) {
        let (sys, cfg) = sys_cfg();
        let mut bare = Server::<B>::new(sys.clone(), cfg);
        let mut node = KvServer::<B>::new(sys.clone(), cfg);
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for (action, sel, seed) in script {
            let from = sender(sel, &cfg);
            let msg = match seed % 6 {
                0 => Msg::InvokeRead,
                _ => random_message::<B>(&sys, &cfg, &mut StdRng::seed_from_u64(seed)),
            };
            match action {
                Action::Corrupt => {
                    // The node-wide fault scrambles every key and plants
                    // phantoms; then this key's register takes the very
                    // fault the bare server takes.
                    bare.corrupt(&mut StdRng::seed_from_u64(seed));
                    node.corrupt(&mut StdRng::seed_from_u64(!seed));
                    node.registers
                        .get_or_insert_with(key, || Server::new(sys.clone(), cfg))
                        .corrupt(&mut StdRng::seed_from_u64(seed));
                }
                Action::OtherKey => {
                    let mut ctx = Ctx::detached(0, 0, &mut rng_b);
                    node.on_message(from, KvMsg::new(key ^ 1, msg), &mut ctx);
                    let (sends, _, _) = ctx.drain();
                    prop_assert!(sends.iter().all(|(_, m)| m.key == key ^ 1));
                }
                Action::Deliver | Action::Fire | Action::Serve => {
                    let mut ctx_a = Ctx::detached(0, 7, &mut rng_a);
                    bare.on_message(from, msg.clone(), &mut ctx_a);
                    let (sends_a, outs_a, timers_a) = ctx_a.drain();
                    let mut ctx_b = Ctx::detached(0, 7, &mut rng_b);
                    node.on_message(from, KvMsg::new(key, msg), &mut ctx_b);
                    let (sends_b, outs_b, timers_b) = ctx_b.drain();
                    prop_assert_eq!(keyed(key, sends_a), sends_b);
                    prop_assert!(outs_a.is_empty() && outs_b.is_empty());
                    prop_assert!(timers_a.is_empty() && timers_b.is_empty());
                }
            }
            if let Some(reg) = node.registers.get(&key) {
                prop_assert_eq!(
                    (bare.value, &bare.ts, &bare.old_vals, &bare.running_read),
                    (reg.value, &reg.ts, &reg.old_vals, &reg.running_read)
                );
            }
        }
    }

    #[test]
    fn kv_client_under_one_key_is_the_register_client(script in steps(), key in keys()) {
        let (sys, cfg) = sys_cfg();
        let (opts, policy) = (ReaderOptions::default(), RetryPolicy::chaos());
        let mut t = Twins {
            key,
            me: cfg.client_pid(0),
            bare: Client::with_retry(sys.clone(), cfg, 42, policy),
            store: KvClient::with_retry(sys.clone(), cfg, 42, opts, policy),
            rngs: (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5)),
            armed: (Vec::new(), Vec::new()),
            outer_ids: 0,
            wire: Vec::new(),
        };
        let mut servers: Vec<Server<B>> =
            (0..cfg.n).map(|_| Server::new(sys.clone(), cfg)).collect();
        for (action, sel, seed) in script {
            let from = sender(sel, &cfg);
            let pick = seed as usize;
            match action {
                // The environment is the driver and only ever invokes;
                // garbage arrives over channels, from some pid.
                Action::Deliver if from == ENV && seed % 2 == 0 => {
                    t.deliver(ENV, Msg::InvokeWrite { value: seed });
                }
                Action::Deliver if from == ENV => t.deliver(ENV, Msg::InvokeRead),
                Action::Deliver => {
                    let rng = &mut StdRng::seed_from_u64(seed);
                    t.deliver(from, random_message::<B>(&sys, &cfg, rng));
                }
                // An honest server takes one of the messages on the wire
                // and its answers come back: operations really complete.
                Action::Serve if !t.wire.is_empty() => {
                    let (to, msg) = t.wire.swap_remove(pick % t.wire.len());
                    let mut rng = StdRng::seed_from_u64(0);
                    let mut ctx = Ctx::detached(to, 7, &mut rng);
                    servers[to].on_message(t.me, msg, &mut ctx);
                    for (_, reply) in ctx.drain().0 {
                        t.deliver(to, reply);
                    }
                }
                Action::Serve => {}
                // Per-key state exists from the key's first operation on.
                Action::Corrupt if t.store.per_key.contains_key(&key) => {
                    t.bare.corrupt(&mut StdRng::seed_from_u64(seed));
                    t.store.corrupt(&mut StdRng::seed_from_u64(seed));
                    servers[pick % cfg.n].corrupt(&mut StdRng::seed_from_u64(seed));
                }
                Action::Corrupt => {}
                Action::OtherKey => {
                    // A reply for a key never operated on: no client
                    // appears, nothing is said.
                    let from = if from == ENV { 0 } else { from };
                    let msg = random_message::<B>(&sys, &cfg, &mut StdRng::seed_from_u64(seed));
                    let mut ctx = Ctx::detached(t.me, 7, &mut t.rngs.1);
                    t.store.on_message(from, KvMsg::new(key ^ 1, msg), &mut ctx);
                    prop_assert!(ctx.sent().is_empty() && ctx.emitted().is_empty());
                    prop_assert!(!t.store.per_key.contains_key(&(key ^ 1)));
                }
                Action::Fire if t.armed.0.is_empty() => {
                    // A timer id nobody armed is ignored.
                    let id = t.outer_ids + seed % 4;
                    t.react(|_, _| {}, |c, ctx| c.on_timer(id, ctx));
                }
                Action::Fire => {
                    let at = pick % t.armed.0.len();
                    let (inner, outer) = (t.armed.0.remove(at).1, t.armed.1.remove(at).1);
                    t.react(|c, ctx| c.on_timer(inner, ctx), |c, ctx| c.on_timer(outer, ctx));
                }
            }
        }
    }
}
