//! **E8 — Assumption 2 / Lemma 7 scenario 2 (reads under write bursts)**:
//! a read concurrent with interleaved writes may find no single value at
//! quorum strength in its *local* graph and must fall back to the *union*
//! graph over server histories. With a single sequential writer the
//! phase-2 quorum keeps at least `n − 2f` servers within one version, so
//! the local graph almost always decides; the union path is exercised by
//! **concurrent writers** (the MW in MWMR), whose interleaved adoptions
//! genuinely split the server population.
//!
//! The experiment sweeps the number of concurrent writers and the server
//! history depth (`old_vals` length) and reports the union-fallback rate,
//! abort rate, and regularity violations. With the paper's settings
//! (history ≥ churn, union on) violations must be zero.

use sbft_core::cluster::{ClusterBuilder, Op, RegisterCluster};
use sbft_core::config::ClusterConfig;
use sbft_core::messages::ClientEvent;
use sbft_labels::BoundedLabeling;
use sbft_net::DelayModel;

use crate::table::{pct, Table};

/// One writers × depth measurement.
#[derive(Clone, Debug)]
pub struct E8Cell {
    /// Concurrent writers.
    pub writers: usize,
    /// Writes per writer.
    pub burst: usize,
    /// Server history depth (`old_vals` length).
    pub history_depth: usize,
    /// Reads completed with a value.
    pub reads: usize,
    /// Reads decided by the union graph.
    pub via_union: usize,
    /// Reads aborted.
    pub aborts: usize,
    /// Regularity violations across the run.
    pub violations: usize,
}

/// Run `writers` closed-loop writers (each issuing `burst` writes) against
/// one closed-loop reader, under wide delay variance so adoptions split.
pub fn run_cell(writers: usize, burst: usize, history_depth: usize, seeds: u64) -> E8Cell {
    let mut cell =
        E8Cell { writers, burst, history_depth, reads: 0, via_union: 0, aborts: 0, violations: 0 };
    for seed in 0..seeds {
        let cfg = ClusterConfig::stabilizing(1).history(history_depth);
        let mut c: RegisterCluster<BoundedLabeling> =
            ClusterBuilder::new(cfg, BoundedLabeling::new(cfg.label_k()))
                .clients(writers + 1)
                .seed(seed)
                .delay(DelayModel::uniform(1, 40))
                .build();
        let reader = c.client(writers);

        // Seed value, then all writers burst concurrently.
        c.write(c.client(0), 1).expect("seed write");
        let mut left = vec![burst; writers];
        let mut next_val = 100u64;
        for (wi, slot) in left.iter_mut().enumerate() {
            if *slot > 0 {
                next_val += 1;
                c.invoke(c.client(wi), (), Op::Write(next_val));
                *slot -= 1;
            }
        }
        let mut reader_done = false;
        c.invoke(reader, (), Op::Read);

        let mut budget = 5_000_000u64;
        while (left.iter().any(|&l| l > 0) || !reader_done) && budget > 0 {
            let Some(ev) = c.sim.step() else { break };
            budget -= 1;
            let (time, pid) = (ev.time, ev.pid);
            for out in ev.outputs {
                c.observe_event(time, pid, &out);
                #[allow(clippy::needless_range_loop)]
                // wi is matched against pid, not just an index
                for wi in 0..writers {
                    if pid == c.client(wi) && out.is_write_end() && left[wi] > 0 {
                        next_val += 1;
                        c.invoke(c.client(wi), (), Op::Write(next_val));
                        left[wi] -= 1;
                        break;
                    }
                }
                if pid == reader {
                    match out {
                        ClientEvent::ReadDone { via_union, .. } => {
                            cell.reads += 1;
                            if via_union {
                                cell.via_union += 1;
                            }
                        }
                        ClientEvent::ReadAborted => cell.aborts += 1,
                        _ => {}
                    }
                    if left.iter().all(|&l| l == 0) {
                        reader_done = true;
                    } else {
                        c.invoke(reader, (), Op::Read);
                    }
                }
            }
        }
        c.settle(300_000);
        if let Err(errs) = c.check_history() {
            cell.violations += errs.len();
        }
    }
    cell
}

/// The E8 table: writer sweep at the paper's depth, plus the ablated depth.
pub fn run(seeds: u64) -> Table {
    let mut t = Table::new(
        "E8 (Assumption 2): reads under concurrent write bursts (f = 1, n = 6)",
        &["writers", "burst", "history", "reads", "union rate", "aborts", "violations"],
    );
    for writers in [1usize, 2, 3] {
        for depth in [6usize, 2] {
            let c = run_cell(writers, 10, depth, seeds);
            t.row(vec![
                c.writers.to_string(),
                c.burst.to_string(),
                c.history_depth.to_string(),
                c.reads.to_string(),
                pct(c.via_union, c.reads.max(1)),
                c.aborts.to_string(),
                c.violations.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_writer_never_needs_union() {
        let c = run_cell(1, 10, 6, 3);
        assert_eq!(c.violations, 0, "{c:?}");
        assert_eq!(c.aborts, 0, "{c:?}");
        assert!(c.reads > 0);
    }

    #[test]
    fn concurrent_writers_exercise_union_without_violations() {
        let c = run_cell(2, 10, 6, 5);
        assert_eq!(c.violations, 0, "{c:?}");
        assert_eq!(c.aborts, 0, "{c:?}");
        assert!(c.via_union > 0, "union fallback should fire: {c:?}");
    }

    /// Pin: the `harness e8 --quick` rows. The simulator is
    /// deterministic, so any drift here is a behaviour change. The
    /// three-writer rows are the cell the `max-weight` and `no-union`
    /// mutants are measured on.
    #[test]
    fn quick_table_is_pinned() {
        let t = run(3);
        let rows: Vec<Vec<&str>> =
            (0..t.len()).map(|r| (0..7).map(|c| t.cell(r, c)).collect()).collect();
        let expect = [
            ["1", "10", "6", "29", "0%", "0", "0"],
            ["1", "10", "2", "29", "0%", "0", "0"],
            ["2", "10", "6", "33", "3%", "0", "0"],
            ["2", "10", "2", "33", "3%", "0", "0"],
            ["3", "10", "6", "45", "22%", "0", "0"],
            ["3", "10", "2", "45", "22%", "0", "0"],
        ];
        assert_eq!(rows, expect, "{}", t.render());
    }
}
