//! **E2 — Lemma 1 + Lemma 6 (termination)**: every `write()` and `read()`
//! terminates for `n ≥ 5f + 1`, whatever the `f` Byzantine servers do.
//!
//! Sweeps the cluster size and the Byzantine strategy, measuring the
//! completion rate (must be 100%), mean operation latency in virtual time,
//! and message complexity per operation.

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::spec::{OpKind, OpRecord};
use sbft_labels::BoundedLabeling;
use sbft_net::Backend;

use crate::table::{f1, pct, Table};

/// Aggregated measurements for one (f, strategy) cell.
#[derive(Clone, Debug)]
pub struct E2Cell {
    /// Byzantine budget.
    pub f: usize,
    /// Cluster size `5f + 1`.
    pub n: usize,
    /// Strategy label.
    pub strategy: String,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations completed.
    pub completed: usize,
    /// Mean write latency (virtual ticks).
    pub write_latency: f64,
    /// Mean read latency (virtual ticks).
    pub read_latency: f64,
    /// Messages per operation.
    pub msgs_per_op: f64,
}

fn mean_latency(ops: &[OpRecord<BoundedLabeling>], kind: OpKind) -> f64 {
    let lat: Vec<u64> = ops
        .iter()
        .filter(|o| o.kind == kind && o.is_complete())
        .map(|o| o.returned_at.unwrap() - o.invoked_at)
        .collect();
    if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<u64>() as f64 / lat.len() as f64
    }
}

/// Run one cell: `ops_per_seed` write+read pairs across `seeds` seeds,
/// on the simulator.
pub fn run_cell(f: usize, strategy: Option<ByzStrategy>, seeds: u64, ops_per_seed: u64) -> E2Cell {
    run_cell_on(Backend::Sim, f, strategy, seeds, ops_per_seed)
}

/// Run one cell on the chosen substrate backend. On [`Backend::Threaded`]
/// latencies are in timer ticks rather than virtual time, but the
/// termination property under test is identical.
pub fn run_cell_on(
    backend: Backend,
    f: usize,
    strategy: Option<ByzStrategy>,
    seeds: u64,
    ops_per_seed: u64,
) -> E2Cell {
    let mut attempted = 0;
    let mut completed = 0;
    let mut wlat = 0.0;
    let mut rlat = 0.0;
    let mut msgs = 0.0;
    let mut cells = 0.0;
    for seed in 0..seeds {
        let mut b = RegisterCluster::bounded(f).clients(2).seed(seed).backend(backend);
        if let Some(s) = strategy {
            b = b.byzantine_tail(s);
        }
        let mut c = b.build_any();
        let (w, r) = (c.client(0), c.client(1));
        for i in 0..ops_per_seed {
            attempted += 2;
            if c.write(w, 100 + i).is_ok() {
                completed += 1;
            }
            if c.read(r).is_ok() {
                completed += 1;
            }
        }
        c.settle(100_000);
        wlat += mean_latency(c.history(()).ops(), OpKind::Write);
        rlat += mean_latency(c.history(()).ops(), OpKind::Read);
        msgs += c.metrics().messages_sent as f64 / (2.0 * ops_per_seed as f64);
        cells += 1.0;
    }
    E2Cell {
        f,
        n: 5 * f + 1,
        strategy: strategy.map(|s| format!("{s:?}")).unwrap_or_else(|| "none".into()),
        attempted,
        completed,
        write_latency: wlat / cells,
        read_latency: rlat / cells,
        msgs_per_op: msgs / cells,
    }
}

/// The E2 table.
pub fn run(seeds: u64, ops_per_seed: u64) -> Table {
    let mut t = Table::new(
        "E2 (Lemmas 1 & 6): operation termination under Byzantine strategies",
        &["f", "n", "strategy", "completion", "write lat", "read lat", "msgs/op"],
    );
    for f in [1usize, 2, 3] {
        let strategies: Vec<Option<ByzStrategy>> = if f == 1 {
            std::iter::once(None).chain(ByzStrategy::all().into_iter().map(Some)).collect()
        } else {
            vec![None, Some(ByzStrategy::Silent), Some(ByzStrategy::NackFlood)]
        };
        for s in strategies {
            let cell = run_cell(f, s, seeds, ops_per_seed);
            t.row(vec![
                cell.f.to_string(),
                cell.n.to_string(),
                cell.strategy.clone(),
                pct(cell.completed, cell.attempted),
                f1(cell.write_latency),
                f1(cell.read_latency),
                f1(cell.msgs_per_op),
            ]);
        }
    }
    // Substrate cross-check: the same scenario on real threads (latencies
    // are timer ticks there, so only completion/msgs compare directly).
    let cell = run_cell_on(Backend::Threaded, 1, None, seeds.min(3), ops_per_seed.min(10));
    t.row(vec![
        cell.f.to_string(),
        cell.n.to_string(),
        "none [threads]".into(),
        pct(cell.completed, cell.attempted),
        f1(cell.write_latency),
        f1(cell.read_latency),
        f1(cell.msgs_per_op),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ops_terminate_under_every_strategy() {
        for s in ByzStrategy::all() {
            let cell = run_cell(1, Some(s), 2, 3);
            assert_eq!(cell.completed, cell.attempted, "strategy {s:?} blocked ops");
        }
    }

    #[test]
    fn latency_and_messages_positive() {
        let cell = run_cell(1, None, 2, 3);
        assert!(cell.write_latency > 0.0);
        assert!(cell.read_latency > 0.0);
        assert!(cell.msgs_per_op > 0.0);
    }

    #[test]
    fn f2_terminates() {
        let cell = run_cell(2, Some(ByzStrategy::Silent), 1, 2);
        assert_eq!(cell.completed, cell.attempted);
        assert_eq!(cell.n, 11);
    }

    #[test]
    fn threaded_backend_terminates_with_metrics() {
        let cell = run_cell_on(Backend::Threaded, 1, Some(ByzStrategy::Silent), 1, 3);
        assert_eq!(cell.completed, cell.attempted, "{cell:?}");
        assert!(cell.msgs_per_op > 0.0, "threaded NetMetrics must report traffic");
    }
}
