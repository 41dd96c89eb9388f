//! Ablation experiments for the design choices DESIGN.md §7 calls out.
//!
//! * `ablate_selection` — dominant-sink vs max-weight WTsG node selection
//!   under write bursts: max-weight prefers the heavier (often *older*)
//!   value, so sequential reads regress more often.
//! * `ablate_union` — union-graph fallback on/off: without it, reads
//!   concurrent with bursts abort instead of returning.
//! * `ablate_flush` — FLUSH-based label recycling on/off under label-pool
//!   pressure. Finding: at laptop scales the per-channel FIFO order plus
//!   the `2f + 1` witness threshold *mask* the stale replies the FLUSH
//!   certificate exists to exclude — randomized schedules produced no
//!   violations without it — so the table reports the measurable quantity
//!   instead: the message cost of the certificate (one extra round per
//!   read). Lemma 5's role is worst-case soundness, not average-case
//!   behaviour.
//! * `ablate_history` — covered inside E8 (depth sweep); referenced here
//!   for the experiment index.

use sbft_core::cluster::{Op, OpError, RegisterCluster};
use sbft_core::reader::ReaderOptions;
use sbft_wtsg::SelectionPolicy;

use crate::e8_concurrency;
use crate::table::{pct, Table};

/// Selection-policy ablation: burst workload, count regularity violations.
pub fn ablate_selection(seeds: u64) -> Table {
    let mut t = Table::new(
        "ablate_selection: WTsG return-value rule under write bursts",
        &["policy", "reads", "union rate", "aborts", "violations"],
    );
    for (name, policy) in [
        ("dominant-sink (paper)", SelectionPolicy::DominantSink),
        ("max-weight (ablation)", SelectionPolicy::MaxWeight),
    ] {
        let opts = ReaderOptions { policy, ..Default::default() };
        let c = e8_concurrency::run_cell(3, 10, 6, seeds, opts);
        t.row(vec![
            name.into(),
            c.reads.to_string(),
            pct(c.via_union, c.reads.max(1)),
            c.aborts.to_string(),
            c.violations.to_string(),
        ]);
    }
    t
}

/// Union-fallback ablation: burst workload, union off moves reads to abort.
pub fn ablate_union(seeds: u64) -> Table {
    let mut t = Table::new(
        "ablate_union: union-graph fallback on/off under write bursts",
        &["union", "reads", "union rate", "aborts", "violations"],
    );
    for (name, use_union) in [("on (paper)", true), ("off (ablation)", false)] {
        let opts = ReaderOptions { use_union, ..Default::default() };
        let c = e8_concurrency::run_cell(3, 10, 6, seeds, opts);
        t.row(vec![
            name.into(),
            c.reads.to_string(),
            pct(c.via_union, c.reads.max(1)),
            c.aborts.to_string(),
            c.violations.to_string(),
        ]);
    }
    t
}

/// FLUSH ablation: Lemma 5's guarantee is that a recycled read label can
/// never match a stale `REPLY` still in flight from an earlier read. To
/// pressure it, the pool is shrunk to its minimum (2 labels, so every
/// second read reuses a label) and delays are wide, while writers churn
/// the register — a stale reply then carries an *outdated* value into the
/// current read's quorum whenever the certificate is skipped.
pub fn ablate_flush(seeds: u64) -> Table {
    let mut t = Table::new(
        "ablate_flush: find_read_label FLUSH on/off (2-label pool, wide delays)",
        &["flush", "reads", "stale-read violations", "aborts", "msgs/read"],
    );
    for (name, skip_flush) in [("on (paper)", false), ("off (ablation)", true)] {
        let opts = ReaderOptions { skip_flush, ..Default::default() };
        let mut reads = 0usize;
        let mut aborts = 0usize;
        let mut violations = 0usize;
        let mut read_msgs = 0u64;
        for seed in 0..seeds {
            let cfg = sbft_core::config::ClusterConfig::stabilizing(1).labels(2);
            let mut c: RegisterCluster<sbft_labels::BoundedLabeling> =
                sbft_core::cluster::ClusterBuilder::new(
                    cfg,
                    sbft_labels::BoundedLabeling::new(cfg.label_k()),
                )
                .clients(3)
                .seed(seed)
                .delay(sbft_net::DelayModel::uniform(1, 60))
                .reader_options(opts)
                .build();
            let (w1, w2, r) = (c.client(0), c.client(1), c.client(2));
            c.write(w1, 1).expect("seed write");
            // Interleave: writer churn + reader back-to-back reads. The
            // wide delay spread leaves late replies in flight across read
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
            name.into(),
            reads.to_string(),
            violations.to_string(),
            aborts.to_string(),
            format!("{:.1}", read_msgs as f64 / (reads + aborts).max(1) as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_tables_render() {
        let t = ablate_selection(2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn union_off_aborts_at_least_as_much() {
        let t = ablate_union(3);
        let aborts_on: usize = t.cell(0, t.col("aborts")).parse().unwrap();
        let aborts_off: usize = t.cell(1, t.col("aborts")).parse().unwrap();
        assert!(aborts_off >= aborts_on, "{}", t.render());
    }

    #[test]
    fn flush_keeps_history_clean() {
        let t = ablate_flush(3);
        // The paper-faithful configuration must keep a clean history even
        // with a minimal label pool and wide delays.
        assert_eq!(t.cell(0, t.col("stale-read violations")), "0", "{}", t.render());
    }
}
