//! Partition tolerance and repeated-transient-fault behaviour.
//!
//! The paper's channels are reliable-but-asynchronous: a network partition
//! is just a long delay, so operations issued *during* a partition that
//! hides a quorum must stall — and complete untouched once the partition
//! heals. Separately, Definition 1 speaks of one transient burst; these
//! tests check the practically relevant iteration: fault → stabilize →
//! fault → stabilize, indefinitely.

use sbft::net::CorruptionSeverity;
use sbft::register::cluster::{Op, OpError, RegisterCluster};
use sbft::register::messages::ClientEvent;

/// Writes cannot complete while a majority of servers is unreachable, and
/// complete as soon as the partition heals.
#[test]
fn operations_stall_during_partition_and_finish_after_heal() {
    let mut c = RegisterCluster::bounded(1).clients(2).seed(11).build();
    let (w, r) = (c.client(0), c.client(1));
    c.write(w, 1).unwrap();

    // Cut servers {2,3,4,5} away from both clients: only 2 servers
    // reachable < quorum 5.
    let far: Vec<usize> = vec![2, 3, 4, 5];
    let clients: Vec<usize> = vec![w, r];
    c.sim.partition(&clients, &far);

    c.invoke(w, (), Op::Write(2));
    // Drain everything deliverable: the write must NOT complete.
    let ev = c.await_client(w);
    assert_eq!(ev, Err(OpError::Stuck), "write must stall behind the partition");

    // Heal: the buffered traffic flows and the same write completes.
    c.sim.heal(&clients, &far);
    let ev = c.await_client(w).expect("write completes after heal");
    assert!(matches!(ev, ClientEvent::WriteDone { value: 2, .. }));

    assert_eq!(c.read(r).unwrap().value, 2);
    c.settle(100_000);
    assert!(c.check_history().is_ok());
}

/// A partition that still leaves a quorum reachable is harmless.
#[test]
fn minority_partition_is_transparent() {
    let mut c = RegisterCluster::bounded(1).clients(2).seed(12).build();
    let (w, r) = (c.client(0), c.client(1));
    // Hide one server only: quorum 5 of the remaining 5 still works.
    c.sim.partition(&[w, r], &[0]);
    c.write(w, 5).unwrap();
    assert_eq!(c.read(r).unwrap().value, 5);
    c.sim.heal(&[w, r], &[0]);
    c.settle(100_000);
    assert!(c.check_history().is_ok());
}

/// Fault → stabilize → fault → stabilize, five rounds: every round's
/// suffix is regular (Definition 1 applied repeatedly — "transient faults
/// happen not too often to prevent convergence").
#[test]
fn repeated_transient_faults_each_restabilize() {
    let mut c = RegisterCluster::bounded(1).clients(2).seed(13).build();
    let (w, r) = (c.client(0), c.client(1));
    for round in 1..=5u64 {
        c.corrupt_everything(CorruptionSeverity::Heavy);
        // Assumption 1 per burst: the next write runs to completion.
        c.write(w, round * 100).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        let stable = c.now();
        for _ in 0..2 {
            let got = c.read(r).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
            assert_eq!(got.value, round * 100, "round {round}");
        }
        c.settle(150_000);
        assert!(c.check_history_from(stable).is_ok(), "round {round} suffix must be regular");
    }
}

/// Corruption *during* a partition, healing later: the combination of the
/// two fault classes still stabilizes.
#[test]
fn corruption_inside_a_partition_heals_after_reconnection() {
    let mut c = RegisterCluster::bounded(1).clients(2).seed(14).build();
    let (w, r) = (c.client(0), c.client(1));
    c.write(w, 1).unwrap();

    let far = vec![3usize, 4, 5];
    c.sim.partition(&[w, r, 0, 1, 2], &far);
    // The far side's states rot while unreachable.
    c.corrupt_servers(&far, CorruptionSeverity::Adversarial);
    c.sim.heal(&[w, r, 0, 1, 2], &far);

    c.write(w, 2).unwrap();
    let stable = c.now();
    assert_eq!(c.read(r).unwrap().value, 2);
    c.settle(150_000);
    assert!(c.check_history_from(stable).is_ok());
}
