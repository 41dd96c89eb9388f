//! Quickstart: a 6-server stabilizing BFT register, one write, one read.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sbft::register::cluster::RegisterCluster;

fn main() {
    // n = 5f + 1 = 6 servers tolerate one Byzantine server; the cluster
    // builder wires servers, clients, and the simulated network.
    let mut cluster = RegisterCluster::bounded(1).seed(42).build();
    let writer = cluster.client(0);
    let reader = cluster.client(1);

    let ts = cluster.write(writer, 1234).expect("writes terminate (Lemma 1)");
    println!("wrote 1234 with bounded timestamp {ts:?}");

    let got = cluster.read(reader).expect("reads terminate (Lemma 6)");
    println!("read {} (witnessed at {:?}, union fallback: {})", got.value, got.ts, got.via_union);
    assert_eq!(got.value, 1234);

    cluster.check_history().expect("the recorded history satisfies MWMR regularity");
    println!(
        "history of {} operations verified regular; {} messages exchanged",
        cluster.history(()).ops().len(),
        cluster.metrics().messages_sent
    );
}
