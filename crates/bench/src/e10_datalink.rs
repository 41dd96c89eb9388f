//! **E10 — Section II footnote (FIFO channels from lossy non-FIFO ones)**:
//! the stabilizing data-link substrate converges from arbitrary channel
//! content to exact FIFO delivery, with a dirty prefix bounded by the
//! channel capacity. Sweeps the capacity bound `c`.

use sbft_datalink::DatalinkSim;

use crate::table::{f1, pct, Table};

/// Aggregate over seeds for one capacity.
#[derive(Clone, Debug)]
pub struct E10Cell {
    /// Channel capacity bound.
    pub capacity: usize,
    /// Seeds run.
    pub seeds: usize,
    /// Runs achieving a clean FIFO suffix.
    pub converged: usize,
    /// Mean spurious deliveries (dirty prefix).
    pub mean_spurious: f64,
    /// Mean lost payloads (dirty prefix).
    pub mean_lost: f64,
    /// Mean scheduler steps to drain the stream.
    pub mean_steps: f64,
}

/// Run the capacity sweep cell.
pub fn run_cell(capacity: usize, seeds: u64, payloads: usize) -> E10Cell {
    let stream: Vec<u64> = (1..=payloads as u64).map(|i| 10_000 + i).collect();
    let mut converged = 0;
    let mut spurious = 0usize;
    let mut lost = 0usize;
    let mut steps = 0u64;
    for seed in 0..seeds {
        let rep = DatalinkSim::converge_report(capacity, seed, &stream, 50_000_000);
        if rep.fifo_suffix_ok {
            converged += 1;
        }
        spurious += rep.spurious;
        lost += rep.lost;
        steps += rep.steps;
    }
    E10Cell {
        capacity,
        seeds: seeds as usize,
        converged,
        mean_spurious: spurious as f64 / seeds as f64,
        mean_lost: lost as f64 / seeds as f64,
        mean_steps: steps as f64 / seeds as f64,
    }
}

/// The E10 table.
pub fn run(seeds: u64, payloads: usize) -> Table {
    let mut t = Table::new(
        "E10 (ref [8]): stabilizing data-link convergence vs channel capacity",
        &["capacity", "seeds", "converged", "mean spurious", "mean lost", "mean steps"],
    );
    for c in [1usize, 2, 4, 8] {
        let cell = run_cell(c, seeds, payloads);
        t.row(vec![
            cell.capacity.to_string(),
            cell.seeds.to_string(),
            pct(cell.converged, cell.seeds),
            f1(cell.mean_spurious),
            f1(cell.mean_lost),
            f1(cell.mean_steps),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_capacities_converge() {
        for c in [1usize, 2, 4] {
            let cell = run_cell(c, 4, 30);
            assert_eq!(cell.converged, cell.seeds, "capacity {c}: {cell:?}");
        }
    }

    #[test]
    fn dirty_prefix_bounded_by_capacity_cycle() {
        let cell = run_cell(3, 5, 40);
        assert!(cell.mean_spurious <= (2 * 3 + 2) as f64, "{cell:?}");
        assert!(cell.mean_lost <= (2 * 3 + 2) as f64, "{cell:?}");
    }

    /// Pin: the `harness e10 --quick` and `harness e10` tables. The
    /// simulator is deterministic, so any drift here is a behaviour change
    /// of the data-link protocol or of the lossy channel.
    #[test]
    fn tables_are_pinned() {
        let head = "capacity,seeds,converged,mean spurious,mean lost,mean steps\n";
        let quick = format!(
            "{head}\
             1,3,100%,0.0,0.0,146.0\n\
             2,3,100%,0.3,0.3,207.3\n\
             4,3,100%,0.3,0.3,359.3\n\
             8,3,100%,0.3,0.3,663.0\n"
        );
        assert_eq!(run(3, 20).to_csv(), quick, "run(3, 20)");
        let full = format!(
            "{head}\
             1,10,100%,0.0,0.0,395.6\n\
             2,10,100%,0.4,0.1,556.1\n\
             4,10,100%,0.2,0.5,923.5\n\
             8,10,100%,0.3,0.2,1666.7\n"
        );
        assert_eq!(run(10, 50).to_csv(), full, "run(10, 50)");
    }
}
