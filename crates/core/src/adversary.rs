//! Byzantine server strategies.
//!
//! A Byzantine server is just another [`Automaton`] speaking the same wire
//! protocol — the simulator does not privilege it in any way, matching the
//! model where Byzantine processes "deviate arbitrarily from the protocol".
//! The strategies provided here cover the behaviours the proofs reason
//! about (silence, NACK-flooding, stale replay, value equivocation, label
//! poisoning, uniform garbage) plus a fully *scripted* server used to
//! replay the Theorem 1 lower-bound execution verbatim.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use sbft_labels::{LabelingSystem, ReadLabel};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::cluster::{Envelope, Plain};
use crate::config::ClusterConfig;
use crate::messages::{ClientEvent, History, Msg, ValTs, Value};
use crate::{Sys, Ts};

/// Catalogue of built-in Byzantine behaviours.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ByzStrategy {
    /// Crash-like: never answers anything (termination stress, Lemma 1/6).
    Silent,
    /// Answers every request but always NACKs writes and reports the
    /// genesis timestamp (write-liveness stress).
    NackFlood,
    /// Replays one fixed stale `(value, ts)` pair forever (the "second
    /// ts2" server of the Theorem 1 execution generalized).
    StaleReplay,
    /// Maintains correct state like an honest server but lies about the
    /// *value* on read replies (WTsG value-hijack stress).
    Equivocate,
    /// Reports adversarially large / garbage labels in `TS_REPLY` to
    /// poison the writer's `next()` computation (E6: fatal for unbounded
    /// timestamps, absorbed by the bounded scheme).
    PoisonLabels,
    /// Uniformly random well-typed garbage in every reply.
    RandomGarbage,
    /// Adaptive plausible-lie adversary: maintains honest shadow state but
    /// always testifies *one write behind* (returns the previous pair to
    /// reads, the oldest known label to `GET_TS`, NACKs every write). The
    /// strongest strategy that stays within well-formed protocol shapes —
    /// it maximizes quorum splits without ever being identifiable as
    /// malformed.
    Adaptive,
}

impl ByzStrategy {
    /// All built-in strategies (used by sweep experiments).
    pub fn all() -> [ByzStrategy; 7] {
        [
            ByzStrategy::Silent,
            ByzStrategy::NackFlood,
            ByzStrategy::StaleReplay,
            ByzStrategy::Equivocate,
            ByzStrategy::PoisonLabels,
            ByzStrategy::RandomGarbage,
            ByzStrategy::Adaptive,
        ]
    }
}

/// A Byzantine server executing one of the [`ByzStrategy`] behaviours.
pub struct ByzServer<B: LabelingSystem> {
    sys: Sys<B>,
    cfg: ClusterConfig,
    strategy: ByzStrategy,
    /// Honest-looking shadow state (used by `Equivocate`).
    value: Value,
    ts: Ts<B>,
    old_vals: Vec<ValTs<Ts<B>>>,
    /// Fixed stale pair for `StaleReplay`.
    stale: ValTs<Ts<B>>,
}

impl<B: LabelingSystem> ByzServer<B> {
    /// Create a Byzantine server.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig, strategy: ByzStrategy) -> Self {
        let genesis = sys.genesis();
        // A plausible-but-stale pair: genesis value under a self-crafted ts.
        let stale_ts = sys.next_for(u32::MAX, std::slice::from_ref(&genesis));
        Self {
            sys,
            cfg,
            strategy,
            value: 0,
            ts: genesis,
            old_vals: Vec::new(),
            stale: (u64::MAX, stale_ts),
        }
    }

    /// Replace the stale pair replayed by [`ByzStrategy::StaleReplay`].
    pub fn set_stale(&mut self, value: Value, ts: Ts<B>) {
        self.stale = (value, ts);
    }

    fn shadow_apply(&mut self, value: Value, ts: Ts<B>) {
        self.old_vals.insert(0, (self.value, self.ts.clone()));
        self.old_vals.truncate(self.cfg.history_depth);
        self.value = value;
        self.ts = ts;
    }

    /// The adversary's reaction to `msg` from `from`, as the register `key`
    /// of the envelope `W`: at most one reply, to `from`, under the key it
    /// was asked about — so the seat needs no pid translation wherever it
    /// sits. [`Automaton::on_message`] is the [`Plain`] instance.
    pub fn handle<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        if from == ENV {
            return;
        }
        let reply = match self.strategy {
            ByzStrategy::Silent => None,
            ByzStrategy::NackFlood => match msg {
                Msg::GetTs => Some(Msg::TsReply { ts: self.sys.genesis() }),
                Msg::Write { ts, .. } => Some(Msg::WriteAck { ts, ack: false }),
                Msg::Read { label } => {
                    Some(Msg::Reply { value: 0, ts: self.sys.genesis(), old: [].into(), label })
                }
                Msg::Flush { label } => Some(Msg::FlushAck { label }),
                _ => None,
            },
            ByzStrategy::StaleReplay => match msg {
                Msg::GetTs => Some(Msg::TsReply { ts: self.stale.1.clone() }),
                Msg::Write { ts, .. } => Some(Msg::WriteAck { ts, ack: true }),
                Msg::Read { label } => Some(Msg::Reply {
                    value: self.stale.0,
                    ts: self.stale.1.clone(),
                    old: [self.stale.clone()].into(),
                    label,
                }),
                Msg::Flush { label } => Some(Msg::FlushAck { label }),
                _ => None,
            },
            ByzStrategy::Equivocate => match msg {
                Msg::GetTs => Some(Msg::TsReply { ts: self.ts.clone() }),
                Msg::Write { value, ts } => {
                    let ts = self.sys.sanitize(ts);
                    let ack = self.sys.precedes(&self.ts, &ts);
                    self.shadow_apply(value, ts.clone());
                    Some(Msg::WriteAck { ts, ack })
                }
                // Honest timestamp, forged value: the hijack the WTsG
                // (ts, value)-keying defeats.
                Msg::Read { label } => Some(Msg::Reply {
                    value: self.value ^ u64::MAX,
                    ts: self.ts.clone(),
                    old: self.old_vals.iter().map(|(v, t)| (v ^ u64::MAX, t.clone())).collect(),
                    label,
                }),
                Msg::Flush { label } => Some(Msg::FlushAck { label }),
                _ => None,
            },
            ByzStrategy::PoisonLabels => match msg {
                Msg::GetTs => Some(Msg::TsReply { ts: self.sys.arbitrary(ctx.rng()) }),
                Msg::Write { ts, .. } => Some(Msg::WriteAck { ts, ack: true }),
                Msg::Read { label } => {
                    let poison = self.sys.arbitrary(ctx.rng());
                    Some(Msg::Reply { value: u64::MAX, ts: poison, old: [].into(), label })
                }
                Msg::Flush { label } => Some(Msg::FlushAck { label }),
                _ => None,
            },
            ByzStrategy::RandomGarbage => Some(random_message(&self.sys, &self.cfg, ctx.rng())),
            ByzStrategy::Adaptive => match msg {
                Msg::GetTs => {
                    // Oldest label it ever saw: degrades the writer's
                    // next() inputs as much as a well-formed reply can.
                    let oldest = self
                        .old_vals
                        .last()
                        .map(|(_, t)| t.clone())
                        .unwrap_or_else(|| self.ts.clone());
                    Some(Msg::TsReply { ts: oldest })
                }
                Msg::Write { value, ts } => {
                    let ts = self.sys.sanitize(ts);
                    self.shadow_apply(value, ts.clone());
                    Some(Msg::WriteAck { ts, ack: false })
                }
                Msg::Read { label } => {
                    // Testify one write behind: the previous pair, with
                    // a history that also lags, maximizing split quorums.
                    let (value, ts) =
                        self.old_vals.first().cloned().unwrap_or((self.value, self.ts.clone()));
                    let old: History<Ts<B>> = self.old_vals.iter().skip(1).cloned().collect();
                    Some(Msg::Reply { value, ts, old, label })
                }
                Msg::Flush { label } => Some(Msg::FlushAck { label }),
                _ => None,
            },
        };
        if let Some(reply) = reply {
            ctx.send(from, W::wrap(key, reply));
        }
    }
}

impl<B: LabelingSystem> Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>> for ByzServer<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>,
    ) {
        self.handle::<Plain<B>>((), from, msg, ctx);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A fully scripted Byzantine server: replies to reads and `GET_TS` with
/// pairs from a queue the test driver controls (via `as_any_mut`), ACKs all
/// writes, and reflects flushes. This is the `s5` of the Theorem 1 proof,
/// which must answer `ts2` to one specific read and `ts1` to another.
pub struct ScriptedServer<B: LabelingSystem> {
    sys: Sys<B>,
    /// Pair returned to `READ`s until changed by the driver.
    pub read_reply: Option<ValTs<Ts<B>>>,
    /// Timestamp returned to `GET_TS` until changed by the driver.
    pub ts_reply: Option<Ts<B>>,
    /// If true, ignore `READ`/`GET_TS` (simulate slowness) instead.
    pub mute: bool,
    /// Per-reader reply override, consumed once per read.
    pub one_shot: BTreeMap<ProcessId, ValTs<Ts<B>>>,
}

impl<B: LabelingSystem> ScriptedServer<B> {
    /// New scripted server with nothing scripted (silent until told).
    pub fn new(sys: Sys<B>) -> Self {
        Self { sys, read_reply: None, ts_reply: None, mute: false, one_shot: BTreeMap::new() }
    }
}

impl<B: LabelingSystem> Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>> for ScriptedServer<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>,
    ) {
        if from == ENV || self.mute {
            return;
        }
        match msg {
            Msg::GetTs => {
                if let Some(ts) = &self.ts_reply {
                    ctx.send(from, Msg::TsReply { ts: ts.clone() });
                }
            }
            Msg::Write { ts, .. } => {
                ctx.send(from, Msg::WriteAck { ts: self.sys.sanitize(ts), ack: true });
            }
            Msg::Read { label } => {
                let pair = self.one_shot.remove(&from).or_else(|| self.read_reply.clone());
                if let Some((value, ts)) = pair {
                    ctx.send(from, Msg::Reply { value, ts, old: [].into(), label });
                }
            }
            Msg::Flush { label } => ctx.send(from, Msg::FlushAck { label }),
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A random, well-typed protocol message with arbitrary (unsanitized)
/// labels — the unit of channel garbage for transient-fault injection.
pub fn random_message<B: LabelingSystem>(
    sys: &Sys<B>,
    cfg: &ClusterConfig,
    rng: &mut StdRng,
) -> Msg<Ts<B>> {
    match rng.gen_range(0..9u8) {
        0 => Msg::GetTs,
        1 => Msg::TsReply { ts: sys.arbitrary(rng) },
        2 => Msg::Write { value: rng.gen(), ts: sys.arbitrary(rng) },
        3 => Msg::WriteAck { ts: sys.arbitrary(rng), ack: rng.gen() },
        4 => Msg::Read { label: rng.gen_range(0..cfg.read_labels as ReadLabel * 2) },
        5 => {
            let old_len = rng.gen_range(0..=cfg.history_depth.min(3));
            Msg::Reply {
                value: rng.gen(),
                ts: sys.arbitrary(rng),
                old: (0..old_len).map(|_| (rng.gen(), sys.arbitrary(rng))).collect(),
                label: rng.gen_range(0..cfg.read_labels as ReadLabel * 2),
            }
        }
        6 => Msg::CompleteRead { label: rng.gen_range(0..cfg.read_labels as ReadLabel * 2) },
        7 => Msg::Flush { label: rng.gen_range(0..cfg.read_labels as ReadLabel * 2) },
        _ => Msg::FlushAck { label: rng.gen_range(0..cfg.read_labels as ReadLabel * 2) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;
    type M = Msg<Ts<B>>;

    fn setup() -> (Sys<B>, ClusterConfig) {
        let cfg = ClusterConfig::stabilizing(1);
        (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
    }

    fn deliver<A: Automaton<M, ClientEvent<Ts<B>>>>(
        a: &mut A,
        from: ProcessId,
        msg: M,
    ) -> Vec<(ProcessId, M)> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Ctx::detached(5, 0, &mut rng);
        a.on_message(from, msg, &mut ctx);
        ctx.drain().0
    }

    #[test]
    fn silent_never_replies() {
        let (sys, cfg) = setup();
        let mut s = ByzServer::new(sys, cfg, ByzStrategy::Silent);
        assert!(deliver(&mut s, 9, Msg::GetTs).is_empty());
        assert!(deliver(&mut s, 9, Msg::Flush { label: 0 }).is_empty());
    }

    #[test]
    fn nack_flood_nacks_every_write() {
        let (sys, cfg) = setup();
        let ts = sys.genesis();
        let mut s = ByzServer::new(sys, cfg, ByzStrategy::NackFlood);
        let out = deliver(&mut s, 9, Msg::Write { value: 4, ts });
        match &out[0].1 {
            Msg::WriteAck { ack, .. } => assert!(!ack),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_replay_echoes_fixed_pair() {
        let (sys, cfg) = setup();
        let pin = sys.next_for(3, &[sys.genesis()]);
        let mut s = ByzServer::new(sys, cfg, ByzStrategy::StaleReplay);
        s.set_stale(77, pin.clone());
        let out = deliver(&mut s, 9, Msg::Read { label: 1 });
        match &out[0].1 {
            Msg::Reply { value, ts, .. } => {
                assert_eq!(*value, 77);
                assert_eq!(ts, &pin);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equivocator_lies_about_value_not_ts() {
        let (sys, cfg) = setup();
        let ts = sys.next_for(1, &[sys.genesis()]);
        let mut s = ByzServer::new(sys, cfg, ByzStrategy::Equivocate);
        deliver(&mut s, 9, Msg::Write { value: 10, ts: ts.clone() });
        let out = deliver(&mut s, 9, Msg::Read { label: 0 });
        match &out[0].1 {
            Msg::Reply { value, ts: rts, .. } => {
                assert_ne!(*value, 10, "value must be forged");
                assert_eq!(rts, &ts, "timestamp must be honest");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scripted_server_obeys_driver() {
        let (sys, _cfg) = setup();
        let ts = sys.next_for(4, &[sys.genesis()]);
        let mut s = ScriptedServer::new(sys);
        assert!(deliver(&mut s, 9, Msg::Read { label: 0 }).is_empty(), "unscripted = silent");
        s.read_reply = Some((5, ts.clone()));
        let out = deliver(&mut s, 9, Msg::Read { label: 0 });
        assert!(matches!(&out[0].1, Msg::Reply { value: 5, .. }));
        // One-shot override takes priority and is consumed.
        s.one_shot.insert(9, (6, ts));
        let out = deliver(&mut s, 9, Msg::Read { label: 0 });
        assert!(matches!(&out[0].1, Msg::Reply { value: 6, .. }));
        let out = deliver(&mut s, 9, Msg::Read { label: 0 });
        assert!(matches!(&out[0].1, Msg::Reply { value: 5, .. }));
    }

    #[test]
    fn random_message_generator_is_total() {
        let (sys, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        // Must produce every variant family without panicking.
        for _ in 0..200 {
            let _ = random_message(&sys, &cfg, &mut rng);
        }
    }
}
