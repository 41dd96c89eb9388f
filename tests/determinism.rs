//! Determinism goldens: a `(topology, workload, seed)` triple reproduces
//! the exact same execution — message counts, event counts, timestamps,
//! histories. This property is what makes the adversarial schedules of
//! E1/E12 and every regression in this suite replayable.

use sbft::net::CorruptionSeverity;
use sbft::register::adversary::ByzStrategy;
use sbft::register::cluster::RegisterCluster;

fn fingerprint(seed: u64) -> (u64, u64, u64, String) {
    let mut c = RegisterCluster::bounded(1)
        .clients(3)
        .byzantine_tail(ByzStrategy::Adaptive)
        .seed(seed)
        .build();
    let (w, r) = (c.client(0), c.client(1));
    c.write(w, 1).unwrap();
    c.corrupt_everything(CorruptionSeverity::Heavy);
    c.write(w, 2).unwrap();
    let _ = c.read(r);
    let _ = c.read(c.client(2));
    c.settle(100_000);
    let hist: String = c
        .history(())
        .ops()
        .iter()
        .map(|o| format!("{:?}@{}..{:?}:{:?};", o.kind, o.invoked_at, o.returned_at, o.outcome))
        .collect();
    (c.now(), c.metrics().messages_sent, c.metrics().events_processed, hist)
}

#[test]
fn identical_seeds_produce_identical_executions() {
    for seed in [1u64, 7, 42] {
        let a = fingerprint(seed);
        let b = fingerprint(seed);
        assert_eq!(a, b, "seed {seed} must reproduce exactly");
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = fingerprint(1);
    let b = fingerprint(2);
    assert_ne!((a.0, a.1), (b.0, b.1), "different seeds should explore different schedules");
}

/// A pinned golden: if this changes, the simulator's event ordering or the
/// protocol's message pattern changed — bump deliberately, never silently.
#[test]
fn golden_fault_free_roundtrip_message_count() {
    let mut c = RegisterCluster::bounded(1).seed(42).build();
    let w = c.client(0);
    c.write(w, 7).unwrap();
    c.read(c.client(1)).unwrap();
    // quickstart's documented figure: 2 injects + write (GET_TS 6 + TS 6 +
    // WRITE 6 + ACK 6) + read (FLUSH 6 + FACK 6 + READ 6 + REPLY 6 +
    // COMPLETE 6) = 56.
    assert_eq!(c.metrics().messages_sent, 56);
}
