//! **E6 — the paper's motivating claim (Section I)**: classical BFT
//! registers with unbounded timestamps are *not* stabilizing — a single
//! transiently corrupted (near-)maximal timestamp breaks them forever —
//! while the bounded-label protocol recovers by the first complete write.
//!
//! Three systems face the same worst-case transient fault (one correct
//! server's timestamp poisoned to the top of its domain):
//!
//! * **bounded (this paper)** — `n = 5f+1`, k-SBLS labels: `next()`
//!   dominates *any* label, so the poison is absorbed; recovered.
//! * **unbounded (ablation)** — the *same* protocol over `u64` labels:
//!   `max + 1` saturates at `u64::MAX`; once the saturated timestamp is
//!   everywhere, no later write can dominate it — write liveness is lost.
//! * **KLMW (classical 3f+1)** — writes keep "completing" (servers ACK
//!   unconditionally) but are adopted nowhere; reads return a frozen
//!   stale value forever.
//!
//! "Recovered" = all post-fault writes complete **and** the final read
//! returns the last written value.

use sbft_baseline::klmw;
use sbft_core::cluster::RegisterCluster;
use sbft_labels::{LabelingSystem, MwmrTimestamp};
use sbft_net::CorruptionSeverity;

use crate::table::{pct, Table};

/// Per-protocol aggregate.
#[derive(Clone, Debug)]
pub struct E6Cell {
    /// Protocol label.
    pub protocol: String,
    /// Seeds run.
    pub seeds: usize,
    /// Post-fault writes attempted.
    pub writes_attempted: usize,
    /// Post-fault writes completed.
    pub writes_completed: usize,
    /// Runs that fully recovered.
    pub recovered: usize,
}

/// One protocol's row: per seed, `build` a cluster, complete a pre-fault
/// write, `poison` it, then attempt `writes` writes and a final read.
fn run_protocol<B: LabelingSystem>(
    protocol: &str,
    seeds: u64,
    writes: u64,
    build: impl Fn(u64) -> RegisterCluster<B>,
    poison: impl Fn(&mut RegisterCluster<B>),
) -> E6Cell {
    let mut cell = E6Cell {
        protocol: protocol.into(),
        seeds: seeds as usize,
        writes_attempted: 0,
        writes_completed: 0,
        recovered: 0,
    };
    for seed in 0..seeds {
        let mut c = build(seed);
        let (w, r) = (c.client(0), c.client(1));
        c.write(w, 1).expect("pre-fault write");
        poison(&mut c);
        let mut all_ok = true;
        let mut last = 1;
        for i in 0..writes {
            cell.writes_attempted += 1;
            if c.write(w, 2 + i).is_ok() {
                cell.writes_completed += 1;
                last = 2 + i;
            } else {
                all_ok = false;
            }
        }
        if all_ok && c.read(r).is_ok_and(|got| got.value == last) {
            cell.recovered += 1;
        }
    }
    cell
}

/// Bounded (the paper's protocol): adversarial corruption of one server.
pub fn run_bounded(seeds: u64, writes: u64) -> E6Cell {
    run_protocol(
        "bounded 5f+1 (this paper)",
        seeds,
        writes,
        |seed| RegisterCluster::bounded(1).clients(2).seed(seed).build(),
        |c| c.corrupt_servers(&[0], CorruptionSeverity::Adversarial),
    )
}

/// The same protocol over unbounded `u64` labels, with the worst-case
/// poison (`u64::MAX`) planted on one correct server.
pub fn run_unbounded(seeds: u64, writes: u64) -> E6Cell {
    run_protocol(
        "unbounded labels (ablation)",
        seeds,
        writes,
        |seed| {
            let mut c = RegisterCluster::unbounded(1).clients(2).seed(seed).build();
            // Fail fast when the saturated timestamp wedges a write.
            c.op_budget = 50_000;
            c
        },
        |c| {
            let srv = c.server_state(0).expect("honest server");
            srv.value = 999;
            srv.ts = MwmrTimestamp::new(u64::MAX, u32::MAX);
        },
    )
}

/// KLMW 3f+1 with the near-maximal poison and a colluding echo.
pub fn run_klmw(seeds: u64, writes: u64) -> E6Cell {
    run_protocol(
        "KLMW 3f+1 unbounded",
        seeds,
        writes,
        |seed| {
            let mut c = klmw::cluster(1, 2, 1, seed);
            c.op_budget = 50_000;
            c
        },
        |c| klmw::poison(c, 0, 999, true),
    )
}

/// The E6 table.
pub fn run(seeds: u64, writes: u64) -> Table {
    let mut t = Table::new(
        "E6 (Section I): recovery from a poisoned timestamp (f = 1)",
        &["protocol", "seeds", "writes done", "recovered runs", "recovery rate"],
    );
    for cell in [run_bounded(seeds, writes), run_unbounded(seeds, writes), run_klmw(seeds, writes)]
    {
        t.row(vec![
            cell.protocol.clone(),
            cell.seeds.to_string(),
            format!("{}/{}", cell.writes_completed, cell.writes_attempted),
            cell.recovered.to_string(),
            pct(cell.recovered, cell.seeds),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_always_recovers() {
        let c = run_bounded(4, 3);
        assert_eq!(c.recovered, 4, "{c:?}");
        assert_eq!(c.writes_completed, c.writes_attempted);
    }

    #[test]
    fn unbounded_gets_wedged() {
        let c = run_unbounded(4, 3);
        assert!(c.recovered < 4, "saturated timestamps must hurt: {c:?}");
    }

    #[test]
    fn klmw_never_recovers() {
        let c = run_klmw(4, 3);
        assert_eq!(c.recovered, 0, "{c:?}");
    }

    /// Pin: the `harness e6 --quick` table. The simulator is
    /// deterministic, so any drift here is a behaviour change.
    #[test]
    fn quick_table_is_pinned() {
        let want = "protocol,seeds,writes done,recovered runs,recovery rate\n\
                    bounded 5f+1 (this paper),3,9/9,3,100%\n\
                    unbounded labels (ablation),3,3/9,0,0%\n\
                    KLMW 3f+1 unbounded,3,9/9,0,0%\n";
        assert_eq!(run(3, 3).to_csv(), want);
    }
}
