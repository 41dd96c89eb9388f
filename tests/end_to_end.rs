//! Cross-crate integration tests: the assembled register against the
//! specification checker, across seeds, fault patterns, and cluster sizes.

use sbft::net::CorruptionSeverity;
use sbft::register::adversary::ByzStrategy;
use sbft::register::cluster::{Op, OpError, RegisterCluster};

/// Fault-free operation across many seeds: every op terminates, every
/// read returns the latest value, history always regular.
#[test]
fn fault_free_many_seeds() {
    for seed in 0..20 {
        let mut c = RegisterCluster::bounded(1).clients(2).seed(seed).build();
        let (w, r) = (c.client(0), c.client(1));
        for v in 1..=5 {
            c.write(w, v).unwrap_or_else(|e| panic!("seed {seed} write {v}: {e:?}"));
            let got = c.read(r).unwrap_or_else(|e| panic!("seed {seed} read {v}: {e:?}"));
            assert_eq!(got.value, v, "seed {seed}");
        }
        c.settle(100_000);
        assert!(c.check_history().is_ok(), "seed {seed}");
    }
}

/// Every Byzantine strategy × several seeds: termination + regularity.
#[test]
fn byzantine_sweep_many_seeds() {
    for strategy in ByzStrategy::all() {
        for seed in 0..5 {
            let mut c =
                RegisterCluster::bounded(1).byzantine_tail(strategy).clients(2).seed(seed).build();
            let (w, r) = (c.client(0), c.client(1));
            for v in 1..=3 {
                c.write(w, v).unwrap_or_else(|e| panic!("{strategy:?}/{seed}: {e:?}"));
                let got = c.read(r).unwrap_or_else(|e| panic!("{strategy:?}/{seed}: {e:?}"));
                assert_eq!(got.value, v, "{strategy:?}/{seed}");
            }
            c.settle(100_000);
            assert!(c.check_history().is_ok(), "{strategy:?}/{seed}");
        }
    }
}

/// f = 2 (n = 11) with mixed hostile servers.
#[test]
fn larger_cluster_f2() {
    let mut c = RegisterCluster::bounded(2)
        .byzantine(9, ByzStrategy::Silent)
        .byzantine(10, ByzStrategy::PoisonLabels)
        .clients(2)
        .seed(3)
        .build();
    let (w, r) = (c.client(0), c.client(1));
    for v in 1..=4 {
        c.write(w, v).unwrap();
        assert_eq!(c.read(r).unwrap().value, v);
    }
    c.settle(200_000);
    assert!(c.check_history().is_ok());
}

/// Total corruption at every severity: the suffix after the first
/// complete write is always regular (Theorem 2).
#[test]
fn stabilization_from_every_severity() {
    for severity in
        [CorruptionSeverity::Light, CorruptionSeverity::Heavy, CorruptionSeverity::Adversarial]
    {
        for seed in 0..5 {
            let mut c = RegisterCluster::bounded(1).clients(2).seed(seed).build();
            let (w, r) = (c.client(0), c.client(1));
            c.write(w, 1).unwrap();
            c.corrupt_everything(severity);
            // Transitory reads terminate (maybe aborting).
            for _ in 0..2 {
                match c.read(r) {
                    Ok(_) | Err(OpError::Aborted) => {}
                    Err(OpError::Stuck) => panic!("{severity:?}/{seed}: read stuck"),
                }
            }
            c.write(w, 2).unwrap_or_else(|e| panic!("{severity:?}/{seed}: {e:?}"));
            let stable = c.now();
            for _ in 0..3 {
                let got = c.read(r).unwrap_or_else(|e| panic!("{severity:?}/{seed}: {e:?}"));
                assert_eq!(got.value, 2, "{severity:?}/{seed}");
            }
            c.settle(200_000);
            assert!(c.check_history_from(stable).is_ok(), "{severity:?}/{seed}");
        }
    }
}

/// Corruption combined with Byzantine servers: the full multi-fault model.
#[test]
fn corruption_plus_byzantine() {
    for seed in 0..5 {
        let mut c = RegisterCluster::bounded(1)
            .byzantine_tail(ByzStrategy::StaleReplay)
            .clients(2)
            .seed(seed)
            .build();
        let (w, r) = (c.client(0), c.client(1));
        c.write(w, 1).unwrap();
        c.corrupt_everything(CorruptionSeverity::Heavy);
        c.write(w, 2).unwrap();
        let stable = c.now();
        assert_eq!(c.read(r).unwrap().value, 2, "seed {seed}");
        c.settle(200_000);
        assert!(c.check_history_from(stable).is_ok(), "seed {seed}");
    }
}

/// Reader crash mid-operation: other clients are unaffected (clients may
/// crash freely in the model — no bound on faulty clients).
#[test]
fn reader_crash_does_not_block_others() {
    let mut c = RegisterCluster::bounded(1).clients(3).seed(4).build();
    let (w, r1, r2) = (c.client(0), c.client(1), c.client(2));
    c.write(w, 1).unwrap();
    // r1 starts a read and crashes mid-flight.
    c.invoke(r1, (), Op::Read);
    for _ in 0..3 {
        c.sim.step();
    }
    c.sim.crash(r1);
    // The system keeps serving everyone else.
    c.write(w, 2).unwrap();
    assert_eq!(c.read(r2).unwrap().value, 2);
    c.settle(100_000);
    // The crashed client's op stays incomplete; the checker ignores it.
    assert!(c.check_history().is_ok());
}

/// Concurrent mixed workload via run_concurrent: all ops terminate and
/// regularity holds.
#[test]
fn concurrent_mixed_workload() {
    for seed in 0..10 {
        let mut c = RegisterCluster::bounded(1).clients(4).seed(seed).build();
        c.write(c.client(0), 1).unwrap();
        let evs = c.run_concurrent(&[
            (0, (), Op::Write(10)),
            (1, (), Op::Write(20)),
            (2, (), Op::Read),
            (3, (), Op::Read),
        ]);
        assert!(evs.iter().all(|e| e.is_some()), "seed {seed}: {evs:?}");
        c.settle(200_000);
        assert!(c.check_history().is_ok(), "seed {seed}");
    }
}

/// The unbounded-label instantiation of the same protocol works in the
/// clean-state world (it only loses stabilization, per E6).
#[test]
fn unbounded_instantiation_clean_state() {
    let mut c = RegisterCluster::unbounded(1).clients(2).seed(5).build();
    let (w, r) = (c.client(0), c.client(1));
    for v in 1..=5 {
        c.write(w, v).unwrap();
        assert_eq!(c.read(r).unwrap().value, v);
    }
    assert!(c.check_history().is_ok());
}
