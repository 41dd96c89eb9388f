//! Sharding: hash-partitioning the keyspace across independent server
//! groups.
//!
//! A **shard** is the unit of placement and fault isolation: its own
//! `n = 5f + 1` server group running the unmodified per-key register
//! protocol, sharing nothing with the other shards. Keys are assigned to
//! shards by a fixed multiplicative hash, so routing is stateless and every
//! client agrees on the placement without coordination. Because each key's
//! register lives entirely inside one shard's `5f + 1` group, Theorem 1
//! applies to it verbatim — sharding multiplies capacity without touching
//! the proof. The placement and pid arithmetic is the [`ShardRouter`] of
//! `sbft-core` (every cluster has one; a register's has a single shard).
//!
//! [`ShardedServer`] and [`ShardedClient`] host a store automaton written
//! for the **local** pid space of one group (servers `0..n`, clients `n..`)
//! in the **global** pid space of the substrate (shard `s`'s servers at
//! `[s·n, (s+1)·n)`, clients after all servers). The hosted automaton runs
//! on the host's own context (the composition rule of `sbft_net::process`)
//! as its local pid, and the host re-addresses the sends it queued from
//! local to global in place. Traffic that violates placement — a message
//! for a key the shard does not host, or a reply from a server outside the
//! key's shard — is dropped before the hosted automaton sees it, so a
//! Byzantine server can never reach across a shard boundary.

use rand::rngs::StdRng;
pub use sbft_core::config::ShardRouter;
use sbft_core::Ts;
use sbft_labels::LabelingSystem;
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::client::KvClient;
use crate::messages::{KvEvent, KvMsg};
use crate::server::KvServer;

/// Let a hosted automaton react on its host's `ctx` as the local process
/// `me`, then re-address what it queued from local to global pids — per
/// message, by the shard of the message's own key (one reaction of a
/// pipelining client may carry sends for several keys).
fn as_local<B: LabelingSystem>(
    router: &ShardRouter,
    me: ProcessId,
    ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    react: impl FnOnce(&mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>),
) {
    let (global_me, queued) = (ctx.me, ctx.sent().len());
    ctx.me = me;
    react(ctx);
    ctx.me = global_me;
    for (to, m) in &mut ctx.sent_mut()[queued..] {
        *to = router.to_global(router.shard_of(m.key), *to);
    }
}

/// A storage node of one shard: an unmodified [`KvServer`] behind pid
/// translation and placement enforcement.
pub struct ShardedServer<B: LabelingSystem> {
    /// The wrapped storage node.
    pub inner: KvServer<B>,
    router: ShardRouter,
    shard: usize,
}

impl<B: LabelingSystem> ShardedServer<B> {
    /// Wrap `inner` as a member of `shard`'s server group.
    pub fn new(inner: KvServer<B>, router: ShardRouter, shard: usize) -> Self {
        Self { inner, router, shard }
    }

    /// Which shard this node serves.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

impl<B: LabelingSystem> Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>> for ShardedServer<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        // Placement enforcement: this shard only serves its own keys, and
        // only talks to processes with a local identity here. Anything else
        // is a misroute or a cross-shard spoof — dropped.
        if from != ENV && self.router.shard_of(msg.key) != self.shard {
            return;
        }
        let local_from = if from == ENV {
            ENV
        } else {
            match self.router.to_local(self.shard, from) {
                Some(l) => l,
                None => return,
            }
        };
        let me = self.router.to_local(self.shard, ctx.me).expect("own pid is in shard");
        as_local::<B>(&self.router, me, ctx, |ctx| self.inner.on_message(local_from, msg, ctx));
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.inner.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A store client over the full sharded deployment: an unmodified
/// [`KvClient`] whose per-key broadcasts are routed to the key's shard.
pub struct ShardedClient<B: LabelingSystem> {
    /// The wrapped client.
    pub inner: KvClient<B>,
    router: ShardRouter,
}

impl<B: LabelingSystem> ShardedClient<B> {
    /// Wrap `inner` behind the router.
    pub fn new(inner: KvClient<B>, router: ShardRouter) -> Self {
        Self { inner, router }
    }

    /// Local pid of this client in every shard's local space (`n + i`).
    fn local_me(&self, ctx_me: ProcessId) -> ProcessId {
        // Clients sit after all servers globally and after n locally; the
        // translation is shard-independent, so shard 0 serves for all.
        self.router.to_local(0, ctx_me).expect("own pid is a client pid")
    }
}

impl<B: LabelingSystem> Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>> for ShardedClient<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        // Route by the message's key. Replies must come from a server of
        // the key's own shard (or the environment); a server answering for
        // a key it does not host is spoofing across the boundary — dropped.
        let shard = self.router.shard_of(msg.key);
        let local_from = if from == ENV {
            ENV
        } else if from < self.router.total_servers() {
            if self.router.shard_of_server(from) != shard {
                return;
            }
            match self.router.to_local(shard, from) {
                Some(l) => l,
                None => return,
            }
        } else {
            return; // clients never talk to each other
        };
        let me = self.local_me(ctx.me);
        as_local::<B>(&self.router, me, ctx, |ctx| self.inner.on_message(local_from, msg, ctx));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>) {
        let me = self.local_me(ctx.me);
        as_local::<B>(&self.router, me, ctx, |ctx| self.inner.on_timer(id, ctx));
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.inner.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_core::config::ClusterConfig;
    use sbft_core::messages::Msg;
    use sbft_core::reader::ReaderOptions;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;

    fn router(shards: usize) -> ShardRouter {
        ShardRouter::new(ClusterConfig::stabilizing(1), shards)
    }

    fn sharded_client(shards: usize) -> ShardedClient<B> {
        let cfg = ClusterConfig::stabilizing(1);
        let sys = MwmrLabeling::new(BoundedLabeling::new(cfg.label_k()));
        let inner = KvClient::new(sys, cfg, 7, ReaderOptions::default());
        ShardedClient::new(inner, router(shards))
    }

    fn deliver(
        c: &mut ShardedClient<B>,
        me: ProcessId,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
    ) -> Vec<(ProcessId, KvMsg<Ts<B>>)> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(me, 0, &mut rng);
        c.on_message(from, msg, &mut ctx);
        ctx.drain().0
    }

    #[test]
    fn client_broadcasts_land_in_the_keys_shard() {
        let mut c = sharded_client(4);
        let me = c.router.client_pid(0);
        let key = 5u64;
        let shard = c.router.shard_of(key);
        let out = deliver(&mut c, me, ENV, KvMsg::new(key, Msg::InvokeWrite { value: 1 }));
        assert_eq!(out.len(), 6);
        let want = c.router.server_pids(shard);
        assert!(out.iter().all(|(to, m)| want.contains(to) && m.key == key), "{out:?}");
    }

    #[test]
    fn replies_from_foreign_shards_are_dropped() {
        let mut c = sharded_client(4);
        let me = c.router.client_pid(0);
        let key = 5u64;
        let shard = c.router.shard_of(key);
        deliver(&mut c, me, ENV, KvMsg::new(key, Msg::InvokeWrite { value: 1 }));
        // A server of a *different* shard claims a reply for this key.
        let foreign = c.router.server_pids((shard + 1) % 4).start;
        let cfg = ClusterConfig::stabilizing(1);
        let sys: sbft_core::Sys<B> = MwmrLabeling::new(BoundedLabeling::new(cfg.label_k()));
        let genesis = sys.genesis();
        let out = deliver(&mut c, me, foreign, KvMsg::new(key, Msg::TsReply { ts: genesis }));
        assert!(out.is_empty());
    }

    #[test]
    fn server_drops_misplaced_keys_and_foreign_servers() {
        let cfg = ClusterConfig::stabilizing(1);
        let sys: sbft_core::Sys<B> = MwmrLabeling::new(BoundedLabeling::new(cfg.label_k()));
        let r = router(4);
        let key = 5u64;
        let home = r.shard_of(key);
        let other = (home + 1) % 4;
        let mut s = ShardedServer::new(KvServer::new(sys, cfg), r, other);
        let me = r.server_pids(other).start;
        let client = r.client_pid(0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(me, 0, &mut rng);
        // A key this shard does not host: dropped, nothing materializes.
        s.on_message(client, KvMsg::new(key, Msg::GetTs), &mut ctx);
        assert_eq!(s.inner.key_count(), 0);
        // A key it does host, but sent by a foreign shard's server: dropped.
        let hosted = (0..64).find(|&k| r.shard_of(k) == other).unwrap();
        let foreign = r.server_pids(home).start;
        s.on_message(foreign, KvMsg::new(hosted, Msg::GetTs), &mut ctx);
        assert_eq!(s.inner.key_count(), 0);
        // The same key from a client: served, reply routed back globally.
        s.on_message(client, KvMsg::new(hosted, Msg::GetTs), &mut ctx);
        assert_eq!(s.inner.key_count(), 1);
        let (sends, _, _) = ctx.drain();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, client);
    }
}
