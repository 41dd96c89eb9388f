//! Automaton fuzzing of the two reader variants the experiments seat: the
//! write-back reader of E12 and the TM_1R reader of E1 / the `theorem1-n*`
//! scenarios. Arbitrary well-typed message sequences — from arbitrary
//! senders, interleaved with transient corruption — must never panic
//! them, and each must emit at most one terminal event per invocation it
//! accepted (the script of `sbft-core`'s client fuzz).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_bench::e12_atomicity::WriteBackReader;
use sbft_core::adversary::random_message;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::{Sys, Ts};
use sbft_explorer::scenario::Tm1rReader;
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{Automaton, Ctx, ENV};

type B = BoundedLabeling;
type M = Msg<Ts<B>>;
type E = ClientEvent<Ts<B>>;

fn sys_cfg() -> (Sys<B>, ClusterConfig) {
    let cfg = ClusterConfig::stabilizing(1);
    (MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
}

/// One fuzz step: (sender selector, message seed, corrupt?).
fn steps() -> impl Strategy<Value = Vec<(u8, u64, bool)>> {
    proptest::collection::vec((any::<u8>(), any::<u64>(), proptest::bool::weighted(0.05)), 1..80)
}

fn pick_msg(sys: &Sys<B>, cfg: &ClusterConfig, seed: u64) -> M {
    let mut rng = StdRng::seed_from_u64(seed);
    // Mix protocol messages with environment commands.
    match seed % 5 {
        0 => Msg::InvokeWrite { value: seed },
        1 => Msg::InvokeRead,
        _ => random_message::<B>(sys, cfg, &mut rng),
    }
}

/// Run `script` against `reader`, where `busy` says whether an operation
/// is in flight; returns `(accepted invocations, terminal events)`.
fn fuzz<A: Automaton<M, E>>(
    reader: &mut A,
    busy: impl Fn(&A) -> bool,
    script: Vec<(u8, u64, bool)>,
) -> (u64, u64) {
    let (sys, cfg) = sys_cfg();
    let mut rng = StdRng::seed_from_u64(2);
    let (mut invocations, mut terminals) = (0, 0);
    for (sender, seed, corrupt) in script {
        if corrupt {
            reader.corrupt(&mut rng);
        }
        let from = if sender % 7 == 0 { ENV } else { sender as usize % (cfg.n + 2) };
        let msg = pick_msg(&sys, &cfg, seed);
        if from == ENV && matches!(msg, Msg::InvokeWrite { .. } | Msg::InvokeRead) && !busy(reader)
        {
            invocations += 1;
        }
        let mut ctx: Ctx<'_, M, E> = Ctx::detached(cfg.client_pid(0), 0, &mut rng);
        reader.on_message(from, msg, &mut ctx);
        let (sends, outs, _) = ctx.drain();
        assert!(sends.iter().all(|(to, _)| cfg.is_server(*to)), "readers only talk to servers");
        terminals += outs.len() as u64;
    }
    (invocations, terminals)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn write_back_reader_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let mut reader = WriteBackReader::<B>::new(sys, cfg, 42);
        let (invocations, terminals) = fuzz(&mut reader, WriteBackReader::is_busy, script);
        prop_assert!(terminals <= invocations,
            "at most one terminal event per accepted invocation");
    }

    #[test]
    fn tm1r_reader_survives_arbitrary_input(script in steps()) {
        let (sys, cfg) = sys_cfg();
        let mut reader = Tm1rReader::<B>::new(sys, cfg, 42);
        let (invocations, terminals) = fuzz(&mut reader, Tm1rReader::is_busy, script);
        prop_assert!(terminals <= invocations,
            "at most one terminal event per accepted invocation");
    }
}
