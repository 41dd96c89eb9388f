//! Cloud-outage scenario: the motivating story of the paper's
//! introduction. A storage cluster suffers a *transient* event — bit
//! flips during an internal migration, stale messages replayed by a
//! recovering switch — that arbitrarily corrupts every server's memory,
//! every client's bookkeeping, and the content of every channel. No
//! human intervenes and nothing is restarted: the register heals itself
//! by the end of the first post-fault write.
//!
//! ```text
//! cargo run --example cloud_outage
//! ```

use sbft::net::CorruptionSeverity;
use sbft::register::cluster::{OpError, RegisterCluster};

fn main() {
    let mut cluster = RegisterCluster::bounded(1).clients(3).seed(2026).build();
    let writer = cluster.client(0);
    let alice = cluster.client(1);
    let bob = cluster.client(2);

    // Normal operation before the outage.
    cluster.write(writer, 100).unwrap();
    println!("[t={:>6}] wrote 100 — steady state", cluster.now());
    println!("[t={:>6}] alice reads {}", cluster.now(), cluster.read(alice).unwrap().value);

    // The outage: every process state and every channel scrambled.
    cluster.corrupt_everything(CorruptionSeverity::Adversarial);
    println!("[t={:>6}] *** transient fault: all state + channels corrupted ***", cluster.now());

    // During the transitory phase reads may abort (the protocol detects
    // that no value has enough honest witnesses) — that is the correct
    // behaviour, not a failure.
    for (name, client) in [("alice", alice), ("bob", bob)] {
        match cluster.read(client) {
            Ok(ok) => println!(
                "[t={:>6}] {name} reads {} during the transitory phase",
                cluster.now(),
                ok.value
            ),
            Err(OpError::Aborted) => println!(
                "[t={:>6}] {name}'s read ABORTS — servers still transitory (expected)",
                cluster.now()
            ),
            Err(OpError::Stuck) => unreachable!("reads terminate (Lemma 6)"),
        }
    }

    // Assumption 1: the first post-fault write runs to completion. Its
    // completion is the stabilization point (Theorem 2).
    cluster.write(writer, 200).expect("first post-fault write completes");
    let stable_from = cluster.now();
    println!("[t={:>6}] wrote 200 — stabilization point reached", cluster.now());

    // Every subsequent read is regular again.
    for (name, client) in [("alice", alice), ("bob", bob), ("alice", alice)] {
        let got = cluster.read(client).expect("post-stabilization reads return");
        println!("[t={:>6}] {name} reads {} (union: {})", cluster.now(), got.value, got.via_union);
        assert_eq!(got.value, 200);
    }

    cluster
        .check_history_from(stable_from)
        .expect("the suffix after the first complete write is regular");
    println!(
        "suffix regularity verified — {} aborts recorded during the transitory phase",
        cluster.history(()).aborted_reads()
    );
}
