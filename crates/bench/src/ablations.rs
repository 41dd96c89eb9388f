//! The FLUSH workload, measured on whatever tree it is built from.
//!
//! The design choices DESIGN.md §7 calls out are not runtime switches: each
//! removed mechanism is a source patch under `mutants/`, and
//! `scripts/mutants.sh` builds the tree with it applied. The selection-rule
//! and union-fallback ablations need no workload of their own — under the
//! `max-weight` and `no-union` patches they *are* E8's three-writer cell.
//! The FLUSH round of `find_read_label` is priced here instead, because E8
//! never pressures the read-label pool.
//!
//! Lemma 5's guarantee is that a recycled read label can never match a
//! stale `REPLY` still in flight from an earlier read. To pressure it, the
//! pool is shrunk to its minimum (2 labels, so every second read reuses a
//! label) and delays are wide, while writers churn the register. Under the
//! `no-flush` patch these randomized schedules still produce no violation,
//! so the measurable quantity is the certificate's message cost: compare
//! `msgs/read` on the clean tree and under the patch.

use sbft_core::cluster::{ClusterBuilder, Op, OpError, RegisterCluster};
use sbft_core::config::ClusterConfig;
use sbft_labels::BoundedLabeling;
use sbft_net::DelayModel;

use crate::table::Table;

/// The FLUSH workload over `seeds` seeds: one row, this build's reads,
/// stale-read violations, aborts and messages per read.
pub fn flush_workload(seeds: u64) -> Table {
    let mut t = Table::new(
        "flush workload: find_read_label under label-pool pressure (2-label pool, wide delays)",
        &["reads", "stale-read violations", "aborts", "msgs/read"],
    );
    let mut reads = 0usize;
    let mut aborts = 0usize;
    let mut violations = 0usize;
    let mut read_msgs = 0u64;
    for seed in 0..seeds {
        let cfg = ClusterConfig::stabilizing(1).labels(2);
        let mut c: RegisterCluster<BoundedLabeling> =
            ClusterBuilder::new(cfg, BoundedLabeling::new(cfg.label_k()))
                .clients(3)
                .seed(seed)
                .delay(DelayModel::uniform(1, 60))
                .build();
        let (w1, w2, r) = (c.client(0), c.client(1), c.client(2));
        c.write(w1, 1).expect("seed write");
        // Interleave: writer churn + reader back-to-back reads. The wide
        // delay spread leaves late replies in flight across read
        // boundaries.
        for i in 0..10u64 {
            let writer = if i % 2 == 0 { w1 } else { w2 };
            c.invoke(writer, (), Op::Write(10 + i));
            let before = c.metrics().messages_sent;
            match c.read(r) {
                Ok(_) => reads += 1,
                Err(OpError::Aborted) => aborts += 1,
                Err(OpError::Stuck) => {}
            }
            read_msgs += c.metrics().messages_sent - before;
            let _ = c.await_client(writer);
        }
        c.settle(300_000);
        if let Err(errs) = c.check_history() {
            violations += errs.len();
        }
    }
    t.row(vec![
        reads.to_string(),
        violations.to_string(),
        aborts.to_string(),
        format!("{:.1}", read_msgs as f64 / (reads + aborts).max(1) as f64),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_keeps_history_clean() {
        let t = flush_workload(3);
        // The paper-faithful read must keep a clean history even with a
        // minimal label pool and wide delays.
        assert_eq!(t.cell(0, t.col("stale-read violations")), "0", "{}", t.render());
    }

    /// Pin: the `harness ablations --quick` row. The simulator is
    /// deterministic, so any drift here is a behaviour change.
    #[test]
    fn quick_flush_row_is_pinned() {
        let t = flush_workload(3);
        let row: Vec<&str> = (0..4).map(|c| t.cell(0, c)).collect();
        assert_eq!(row, ["30", "0", "0", "56.8"], "{}", t.render());
    }
}
