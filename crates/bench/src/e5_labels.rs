//! **E5 — Definition 2 / Section IV-A (bounded labels)**: the protocol's
//! entire timestamp traffic lives in a *finite* label space, and labels
//! are recycled safely.
//!
//! For each `f` the experiment runs a long operation stream and reports:
//! the label parameter `k`, the value-domain size `K = k² + k + 1`, the
//! bits per label, the number of *distinct* write timestamps observed vs
//! writes performed (wrap-around means distinct < writes), and the
//! read-label pool reuse counts from the client bookkeeping.

use std::collections::BTreeSet;

use sbft_core::cluster::RegisterCluster;
use sbft_core::spec::OpOutcome;
use sbft_labels::BoundedLabeling;

use crate::table::Table;

/// Measurements for one `f`.
#[derive(Clone, Debug)]
pub struct E5Cell {
    /// Byzantine budget.
    pub f: usize,
    /// Label parameter `k` used by the cluster.
    pub k: usize,
    /// Sting/antisting value domain `K`.
    pub domain: u32,
    /// Bits per label on the wire.
    pub label_bits: usize,
    /// Writes performed.
    pub writes: usize,
    /// Distinct write timestamps observed.
    pub distinct_ts: usize,
    /// Reads performed.
    pub reads: usize,
    /// Read-label pool size (`k_r`).
    pub pool_size: usize,
    /// Read-label reuses (reads beyond the first per label).
    pub label_reuses: u64,
}

/// Run the label-economy measurement.
pub fn run_cell(f: usize, ops: u64, seed: u64) -> E5Cell {
    let mut c = RegisterCluster::bounded(f).clients(2).seed(seed).build();
    let (w, r) = (c.client(0), c.client(1));
    let mut reads = 0usize;
    for i in 0..ops {
        c.write(w, i + 1).expect("write");
        if c.read(r).is_ok() {
            reads += 1;
        }
    }
    let mut distinct: BTreeSet<String> = BTreeSet::new();
    let mut writes = 0usize;
    for op in c.history(()).ops() {
        if let Some(OpOutcome::Wrote { ts, .. }) = &op.outcome {
            distinct.insert(format!("{ts:?}"));
            writes += 1;
        }
    }
    let (pool_size, label_reuses) = {
        let cl = c.client_state(1).expect("client");
        (cl.pool.pool_size(), cl.pool.reuse_count())
    };
    let labeling = BoundedLabeling::new(c.cfg.label_k());
    E5Cell {
        f,
        k: c.cfg.label_k(),
        domain: labeling.domain(),
        label_bits: labeling.label_bits(),
        writes,
        distinct_ts: distinct.len(),
        reads,
        pool_size,
        label_reuses,
    }
}

/// The E5 table.
pub fn run(ops: u64) -> Table {
    let mut t = Table::new(
        "E5 (Definition 2): bounded label economy over long runs",
        &[
            "f",
            "k",
            "domain K",
            "bits/label",
            "writes",
            "distinct ts",
            "wrapped",
            "reads",
            "read pool",
            "pool reuses",
        ],
    );
    for f in [1usize, 2] {
        let c = run_cell(f, ops, 42);
        t.row(vec![
            c.f.to_string(),
            c.k.to_string(),
            c.domain.to_string(),
            c.label_bits.to_string(),
            c.writes.to_string(),
            c.distinct_ts.to_string(),
            if c.distinct_ts < c.writes { "yes" } else { "no" }.to_string(),
            c.reads.to_string(),
            c.pool_size.to_string(),
            c.label_reuses.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_wrap_on_long_runs() {
        let c = run_cell(1, 60, 1);
        assert_eq!(c.writes, 60);
        assert!(c.distinct_ts < c.writes, "a bounded label space must recycle timestamps: {c:?}");
    }

    #[test]
    fn read_labels_are_recycled() {
        let c = run_cell(1, 20, 2);
        assert!(c.label_reuses > 0, "{c:?}");
        assert_eq!(c.reads, 20);
    }

    #[test]
    fn domain_matches_formula() {
        let c = run_cell(1, 5, 3);
        let k = c.k as u32;
        assert_eq!(c.domain, k * k + k + 1);
    }
}
