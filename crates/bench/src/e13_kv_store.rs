//! **E13 — application layer (extension)**: the key–value store
//! multiplexes independent registers over one `5f + 1` server pool. The
//! experiment verifies the multiplexing is free of cross-key interference:
//! per-operation message cost is flat in the number of live keys, every
//! key's history is independently regular, and a total transient fault is
//! healed per key by that key's first post-fault write.

use sbft_kv::KvCluster;
use sbft_net::CorruptionSeverity;

use crate::table::{f1, Table};

/// One key-count measurement.
#[derive(Clone, Debug)]
pub struct E13Cell {
    /// Live keys.
    pub keys: u64,
    /// Operations executed (puts + gets).
    pub ops: u64,
    /// Messages per operation.
    pub msgs_per_op: f64,
    /// Keys whose history checked regular.
    pub regular_keys: u64,
    /// Keys recovered after total corruption.
    pub recovered_keys: u64,
}

/// Run the store across `keys` keys.
pub fn run_cell(keys: u64, seed: u64) -> E13Cell {
    let mut store = KvCluster::bounded(1).clients(2).seed(seed).build();
    let (a, b) = (store.client(0), store.client(1));
    let mut ops = 0u64;
    for key in 0..keys {
        store.put(a, key, 100 + key).expect("put");
        assert_eq!(store.get(b, key).expect("get").value, 100 + key);
        ops += 2;
    }
    let msgs_clean = store.sim.metrics().messages_sent;

    // Total transient fault, then heal every key.
    store.corrupt_everything(CorruptionSeverity::Heavy);
    let mut recovered = 0u64;
    for key in 0..keys {
        if store.put(a, key, 200 + key).is_ok() {
            ops += 1;
        }
    }
    let stable = store.now();
    for key in 0..keys {
        if store.get(b, key).is_ok_and(|got| got.value == 200 + key) {
            recovered += 1;
            ops += 1;
        }
    }
    let regular_keys = (0..keys)
        .filter(|&k| {
            store
                .recorders
                .get(&k)
                .map(|r| r.check_from(&store.sys, stable).is_ok())
                .unwrap_or(false)
        })
        .count() as u64;

    E13Cell {
        keys,
        ops,
        msgs_per_op: msgs_clean as f64 / (2.0 * keys as f64),
        regular_keys,
        recovered_keys: recovered,
    }
}

/// The E13 table.
pub fn run(seed: u64) -> Table {
    let mut t = Table::new(
        "E13 (extension): KV store — per-key isolation over one server pool (f = 1)",
        &["keys", "ops", "msgs/op (clean)", "regular keys", "recovered keys"],
    );
    for keys in [1u64, 4, 16] {
        let c = run_cell(keys, seed);
        t.row(vec![
            c.keys.to_string(),
            c.ops.to_string(),
            f1(c.msgs_per_op),
            format!("{}/{}", c.regular_keys, c.keys),
            format!("{}/{}", c.recovered_keys, c.keys),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_recovers_and_stays_regular() {
        let c = run_cell(4, 3);
        assert_eq!(c.recovered_keys, 4, "{c:?}");
        assert_eq!(c.regular_keys, 4, "{c:?}");
    }

    #[test]
    fn per_op_cost_is_flat_in_key_count() {
        let one = run_cell(1, 5);
        let many = run_cell(8, 5);
        // Multiplexing adds no per-key message overhead.
        assert!(
            (one.msgs_per_op - many.msgs_per_op).abs() / one.msgs_per_op < 0.1,
            "{one:?} vs {many:?}"
        );
    }
}
