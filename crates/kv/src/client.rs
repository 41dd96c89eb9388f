//! The store client: one register-client state per key.
//!
//! The register protocol's client bookkeeping — the bounded read-label
//! pool, the `recent_labels` matrix, the `recent_vals` caches — is all
//! per-register state, so it lives per key, one slot of a [`KeySlab`] per
//! key the client ever operated on. Operations on *different*
//! keys are therefore independent and may run concurrently up to the
//! configured pipeline depth ([`KvClient::with_pipeline`]); the default
//! depth of 1 keeps the original one-op-at-a-time discipline. At most one
//! operation per key is ever in flight — a command for a busy key is
//! dropped, like any command beyond the depth.
//!
//! A key is a register: the key's [`Client`] reacts on the store client's
//! own context and speaks under the key through the [`Keyed`] envelope (the
//! composition rule of `sbft_net::process`). What the store client adds
//! afterwards is the one thing per-key clients cannot know: it moves the
//! timers they armed into the process-wide id space.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use sbft_core::client::Client;
use sbft_core::config::ClusterConfig;
use sbft_core::reader::ReaderOptions;
use sbft_core::{RetryPolicy, Sys, Ts};
use sbft_labels::{LabelingSystem, WriterId};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::cluster::Keyed;
use crate::messages::{Key, KvEvent, KvMsg};
use crate::slab::KeySlab;

/// A key-value client multiplexing per-key register clients.
pub struct KvClient<B: LabelingSystem> {
    sys: Sys<B>,
    cfg: ClusterConfig,
    opts: ReaderOptions,
    writer_id: WriterId,
    policy: RetryPolicy,
    /// Per-key register-client state, created by the key's first operation
    /// and never removed. Corruption walks it in ascending key order.
    pub per_key: KeySlab<Client<B>>,
    /// Keys with an operation in flight (at most `max_inflight` of them,
    /// at most one per key).
    pub active: BTreeSet<Key>,
    /// Pipeline depth: how many distinct keys may have an operation in
    /// flight simultaneously.
    max_inflight: usize,
    /// Outer → `(key, inner)` timer-id indirection: per-key register
    /// clients pick timer ids independently of each other, so their
    /// timers must be disambiguated before entering the process-wide
    /// timer namespace.
    timer_routes: BTreeMap<u64, (Key, u64)>,
    timer_seq: u64,
}

impl<B: LabelingSystem> KvClient<B> {
    /// A clean client.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig, writer_id: WriterId, opts: ReaderOptions) -> Self {
        Self::with_retry(sys, cfg, writer_id, opts, RetryPolicy::none())
    }

    /// A clean client whose per-key register clients all follow `policy`.
    pub fn with_retry(
        sys: Sys<B>,
        cfg: ClusterConfig,
        writer_id: WriterId,
        opts: ReaderOptions,
        policy: RetryPolicy,
    ) -> Self {
        Self {
            sys,
            cfg,
            opts,
            writer_id,
            policy,
            per_key: KeySlab::new(),
            active: BTreeSet::new(),
            max_inflight: 1,
            timer_routes: BTreeMap::new(),
            timer_seq: 0,
        }
    }

    /// Allow up to `depth` concurrent operations on distinct keys (clamped
    /// to ≥ 1). Depth 1 is the original one-op-at-a-time client.
    pub fn with_pipeline(mut self, depth: usize) -> Self {
        self.max_inflight = depth.max(1);
        self
    }

    /// Number of operations currently in flight.
    pub fn inflight(&self) -> usize {
        self.active.len()
    }

    /// After `key`'s client reacted on `ctx`: move the timers it armed
    /// (those past `timers_from`) into the process-wide id space, and retire
    /// the key if it emitted a terminal event (past `outputs_from`).
    fn settle(
        &mut self,
        key: Key,
        (timers_from, outputs_from): (usize, usize),
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        for (_, id) in &mut ctx.armed_mut()[timers_from..] {
            self.timer_routes.insert(self.timer_seq, (key, *id));
            *id = self.timer_seq;
            self.timer_seq += 1;
        }
        let ended = |o: &KvEvent<Ts<B>>| o.inner.is_read_end() || o.inner.is_write_end();
        if ctx.emitted()[outputs_from..].iter().any(ended) {
            self.active.remove(&key);
        }
    }
}

impl<B: LabelingSystem> Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>> for KvClient<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        let key = msg.key;
        let client = if from == ENV {
            if self.active.contains(&key) || self.active.len() >= self.max_inflight {
                return; // key busy, or the pipeline is full
            }
            self.active.insert(key);
            let (cfg, wid, opts, policy) = (self.cfg, self.writer_id, self.opts, self.policy);
            let fresh = || Client::with_retry(self.sys.clone(), cfg, wid, opts, policy);
            self.per_key.get_or_insert_with(key, fresh)
        } else {
            // A reply for a key with no operation in flight still reaches
            // that key's client, so its label bookkeeping stays accurate; a
            // reply for a key never operated on creates no client. A key
            // outside `active` has an idle client — it leaves `active` on
            // its client's terminal event, or together with
            // `Client::corrupt`, which idles every client — and an idle
            // client sends, arms and emits nothing.
            let Some(client) = self.per_key.get_mut(&key) else { return };
            client
        };
        let before = (ctx.armed_mut().len(), ctx.emitted().len());
        client.handle::<Keyed<B>>(key, from, msg.inner, ctx);
        self.settle(key, before, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>) {
        let Some((key, inner_id)) = self.timer_routes.remove(&id) else { return };
        let Some(client) = self.per_key.get_mut(&key) else { return };
        let before = (ctx.armed_mut().len(), ctx.emitted().len());
        client.timer::<Keyed<B>>(key, inner_id, ctx);
        self.settle(key, before, ctx);
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        for client in self.per_key.values_mut() {
            client.corrupt(rng);
        }
        self.active.clear();
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_core::messages::Msg;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;

    fn client() -> KvClient<B> {
        let cfg = ClusterConfig::stabilizing(1);
        KvClient::new(
            MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())),
            cfg,
            7,
            ReaderOptions::default(),
        )
    }

    fn deliver(
        c: &mut KvClient<B>,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
    ) -> Vec<(ProcessId, KvMsg<Ts<B>>)> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(6, 0, &mut rng);
        c.on_message(from, msg, &mut ctx);
        ctx.drain().0
    }

    #[test]
    fn put_broadcasts_get_ts_under_the_key() {
        let mut c = client();
        let out = deliver(&mut c, ENV, KvMsg::new(5, Msg::InvokeWrite { value: 1 }));
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, m)| m.key == 5 && matches!(m.inner, Msg::GetTs)));
        assert!(c.active.contains(&5) && c.inflight() == 1);
    }

    #[test]
    fn second_op_while_busy_is_dropped() {
        let mut c = client();
        deliver(&mut c, ENV, KvMsg::new(5, Msg::InvokeWrite { value: 1 }));
        let out = deliver(&mut c, ENV, KvMsg::new(6, Msg::InvokeRead));
        assert!(out.is_empty());
        assert!(c.active.contains(&5) && c.inflight() == 1);
    }

    #[test]
    fn replies_for_foreign_keys_do_not_disturb_the_active_op() {
        let mut c = client();
        deliver(&mut c, ENV, KvMsg::new(5, Msg::InvokeWrite { value: 1 }));
        // A reply under key 9 (never touched): ignored entirely.
        let genesis = c.sys.genesis();
        let out = deliver(&mut c, 0, KvMsg::new(9, Msg::TsReply { ts: genesis }));
        assert!(out.is_empty());
        assert!(c.active.contains(&5) && c.inflight() == 1);
    }

    #[test]
    fn pipelining_admits_distinct_keys_up_to_depth() {
        let mut c = client().with_pipeline(2);
        let out = deliver(&mut c, ENV, KvMsg::new(5, Msg::InvokeWrite { value: 1 }));
        assert_eq!(out.len(), 6);
        // A second op on a distinct key rides alongside the first.
        let out = deliver(&mut c, ENV, KvMsg::new(6, Msg::InvokeRead));
        assert_eq!(out.len(), 6);
        assert!(out.iter().all(|(_, m)| m.key == 6));
        assert_eq!(c.inflight(), 2);
        // A third op (pipeline full) and a duplicate on a busy key are both
        // dropped.
        assert!(deliver(&mut c, ENV, KvMsg::new(7, Msg::InvokeRead)).is_empty());
        assert!(deliver(&mut c, ENV, KvMsg::new(5, Msg::InvokeRead)).is_empty());
        assert_eq!(c.inflight(), 2);
    }
}
