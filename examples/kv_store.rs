//! A miniature self-healing cloud object store: every key is an
//! independent MWMR regular register of the paper's protocol, all keys
//! multiplexed over one `n = 5f + 1` server pool.
//!
//! ```text
//! cargo run --example kv_store
//! ```

use sbft::kv::KvCluster;
use sbft::net::CorruptionSeverity;

fn main() {
    let mut store = KvCluster::bounded(1).clients(2).seed(2026).build();
    let alice = store.client(0);
    let bob = store.client(1);

    // A handful of objects.
    let objects = [(1u64, 0xA11CE), (2, 0xB0B), (3, 0xCAFE), (4, 0xD00D)];
    for &(key, value) in &objects {
        store.put(alice, key, value).expect("put terminates");
        println!("[t={:>6}] alice put {key} -> {value:#x}", store.now());
    }
    for &(key, value) in &objects {
        let got = store.get(bob, key).expect("get terminates").value;
        assert_eq!(got, value);
        println!("[t={:>6}] bob   got {key} -> {got:#x}", store.now());
    }

    // The outage: all nodes, clients and channels scrambled at once.
    store.corrupt_everything(CorruptionSeverity::Heavy);
    println!("[t={:>6}] *** transient fault across the whole store ***", store.now());

    // One write per key re-stabilizes that key (Assumption 1, pointwise).
    for &(key, value) in &objects {
        store.put(alice, key, value + 1).expect("post-fault put completes");
    }
    let stable = store.now();
    for &(key, value) in &objects {
        let got = store.get(bob, key).expect("post-fault get returns").value;
        assert_eq!(got, value + 1);
        println!("[t={:>6}] bob   got {key} -> {got:#x} (healed)", store.now());
    }
    store.check_history_from(stable).expect("every key's post-stabilization suffix is regular");
    println!("all {} keys verified regular after self-healing", objects.len());
}
