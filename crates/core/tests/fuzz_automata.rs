//! Automaton fuzzing: arbitrary well-typed message sequences — from
//! arbitrary senders, interleaved with transient corruption — must never
//! panic a protocol automaton or break its structural invariants. This is
//! the self-stabilization contract at the single-process level: *any*
//! local state reached by *any* input sequence is one the automaton keeps
//! operating from.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_core::adversary::random_message;
use sbft_core::client::Client;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::server::Server;
use sbft_core::{Sys, Ts};
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{Automaton, Ctx, ENV};

type B = BoundedLabeling;

fn sys_cfg() -> (Sys<B>, ClusterConfig) {
    let cfg = ClusterConfig::stabilizing(1);
    (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
}

/// One fuzz step: (sender selector, message seed, corrupt?).
fn steps() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), proptest::bool::weighted(0.05)), 1..80)
}

fn pick_msg(sys: &Sys<B>, cfg: &ClusterConfig, seed: u64) -> Msg<Ts<B>> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Mix protocol messages with environment commands.
    match seed % 5 {
        0 => Msg::InvokeWrite { value: seed },
        1 => Msg::InvokeRead,
        _ => random_message::<B>(sys, cfg, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Servers: any input sequence keeps the history bounded and the
    /// stored timestamp well-formed (sanitize-idempotent) after writes.
    #[test]
    fn server_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let mut server = Server::<B>::new(sys.clone(), cfg);
        let mut rng = StdRng::seed_from_u64(0);
        for (sender, seed, corrupt) in script {
            if corrupt {
                server.corrupt(&mut rng);
            }
            let from = if sender == 255 { ENV } else { sender as usize % (cfg.n + 4) };
            let msg = pick_msg(&sys, &cfg, seed);
            let was_write = matches!(msg, Msg::Write { .. }) && from != ENV;
            let mut ctx: Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>> =
                Ctx::detached(0, 0, &mut rng);
            server.on_message(from, msg, &mut ctx);
            let (sends, outs, timers) = ctx.drain();
            prop_assert!(outs.is_empty(), "servers emit no client events");
            prop_assert!(timers.is_empty(), "the protocol is timer-free");
            // A server answers its interlocutor directly; the only other
            // traffic it originates is write-forwarding to running readers
            // (which corruption may have pointed anywhere).
            let addressed_ok = sends
                .iter()
                .all(|(to, m)| *to == from || matches!(m, Msg::Reply { .. }));
            prop_assert!(addressed_ok, "unexpected send targets");
            prop_assert!(server.old_vals.len() <= cfg.history_depth
                || !was_write, "history must stay bounded after writes");
            if was_write {
                // A write's adopted ts was sanitized on receipt.
                let clean = {
                    use sbft_labels::LabelingSystem;
                    sys.sanitize(server.ts.clone())
                };
                prop_assert_eq!(&clean, &server.ts);
            }
        }
    }

    /// Clients: any input sequence keeps the label pool in-domain, never
    /// emits more than one terminal event per invocation, and never
    /// panics — even when corruption lands mid-operation.
    #[test]
    fn client_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let mut client = Client::<B>::new(sys.clone(), cfg, 42);
        let mut rng = StdRng::seed_from_u64(1);
        let mut invocations = 0u64;
        let mut terminals = 0u64;
        for (sender, seed, corrupt) in script {
            if corrupt {
                client.corrupt(&mut rng);
            }
            let from = if sender % 7 == 0 { ENV } else { sender as usize % (cfg.n + 2) };
            let msg = pick_msg(&sys, &cfg, seed);
            if from == ENV
                && matches!(msg, Msg::InvokeWrite { .. } | Msg::InvokeRead)
                && !client.is_busy()
            {
                invocations += 1;
            }
            let mut ctx: Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>> =
                Ctx::detached(cfg.client_pid(0), 0, &mut rng);
            client.on_message(from, msg, &mut ctx);
            let (sends, outs, _) = ctx.drain();
            terminals += outs.len() as u64;
            prop_assert!(sends.iter().all(|(to, _)| cfg.is_server(*to)),
                "clients only talk to servers");
            for l in 0..cfg.read_labels as u32 {
                prop_assert!(client.pool.pending_count(l) <= cfg.n);
            }
        }
        prop_assert!(terminals <= invocations,
            "at most one terminal event per accepted invocation");
    }
}
