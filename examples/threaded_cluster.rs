//! The same sans-IO automata on real OS threads, driven through the same
//! cluster driver the simulator experiments use — the only difference is
//! `.backend(Backend::Threaded).build_any()` instead of `build()`.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

use std::time::Instant;

use sbft::net::Backend;
use sbft::register::cluster::{Op, RegisterCluster};

fn main() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 200;

    let mut cluster =
        RegisterCluster::bounded(1).clients(CLIENTS).seed(9).backend(Backend::Threaded).build_any();
    println!(
        "spawned {} servers + {CLIENTS} clients on one worker thread per core (backend: {:?})",
        cluster.cfg.n,
        cluster.backend()
    );

    let start = Instant::now();
    let mut total = 0usize;
    for round in 0..ROUNDS {
        // One concurrent operation per client, alternating write/read.
        let ops: Vec<(usize, (), Op)> = (0..CLIENTS)
            .map(|i| {
                let op = if (round + i as u64).is_multiple_of(2) {
                    Op::Write(((i as u64) << 32) | round)
                } else {
                    Op::Read
                };
                (i, (), op)
            })
            .collect();
        total += cluster.run_concurrent(&ops).iter().flatten().count();
    }
    let elapsed = start.elapsed();

    let metrics = cluster.metrics();
    println!(
        "{total} operations in {elapsed:?} — {:.0} ops/sec across {CLIENTS} concurrent clients",
        total as f64 / elapsed.as_secs_f64()
    );
    println!(
        "network: {} sent, {} delivered, {} events",
        metrics.messages_sent, metrics.messages_delivered, metrics.events_processed
    );
    if let Err(e) = cluster.check_history() {
        panic!("recorded history must be regular: {e:?}");
    }
    cluster.stop();
    assert_eq!(total as u64, CLIENTS as u64 * ROUNDS);
}
