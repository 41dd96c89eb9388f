//! **E7 — Section VI (the price of stabilization)**: the paper's protocol
//! needs `5f + 1` servers where classical BFT registers need `3f + 1` and
//! crash-only registers `2f + 1`. This experiment quantifies the price in
//! fault-free runs: messages per operation and mean latency across the
//! three systems as `f` grows.
//!
//! Expected shape: message cost scales with the server count, i.e. ours
//! costs roughly `(5f+1)/(3f+1)` × KLMW and `(5f+1)/(2f+1)` × ABD, plus
//! the FLUSH round on reads.

use sbft_baseline::{abd, klmw, mr_safe};
use sbft_core::cluster::RegisterCluster;
use sbft_core::spec::OpKind;
use sbft_labels::LabelingSystem;

use crate::table::{f1, Table};

/// One protocol × f measurement.
#[derive(Clone, Debug)]
pub struct E7Cell {
    /// Protocol label.
    pub protocol: String,
    /// Byzantine (or crash) budget.
    pub f: usize,
    /// Server count.
    pub n: usize,
    /// Messages per operation.
    pub msgs_per_op: f64,
    /// Mean write latency (virtual ticks).
    pub write_latency: f64,
    /// Mean read latency (virtual ticks).
    pub read_latency: f64,
}

fn latencies<B: LabelingSystem>(rec: &sbft_core::spec::HistoryRecorder<B>) -> (f64, f64) {
    let mut w = (0u64, 0u64);
    let mut r = (0u64, 0u64);
    for op in rec.ops() {
        if let Some(end) = op.returned_at {
            let lat = end - op.invoked_at;
            match op.kind {
                OpKind::Write => w = (w.0 + lat, w.1 + 1),
                OpKind::Read => r = (r.0 + lat, r.1 + 1),
            }
        }
    }
    (
        if w.1 == 0 { 0.0 } else { w.0 as f64 / w.1 as f64 },
        if r.1 == 0 { 0.0 } else { r.0 as f64 / r.1 as f64 },
    )
}

/// `ops` fault-free write+read pairs on `c`, whatever protocol it hosts.
fn measure<B: LabelingSystem>(
    protocol: &str,
    f: usize,
    ops: u64,
    mut c: RegisterCluster<B>,
) -> E7Cell {
    let (w, r) = (c.client(0), c.client(1));
    for i in 0..ops {
        c.write(w, i + 1).expect("write");
        c.read(r).expect("read");
    }
    let (wl, rl) = latencies(c.history(()));
    E7Cell {
        protocol: protocol.into(),
        f,
        n: c.cfg.n,
        msgs_per_op: c.metrics().messages_sent as f64 / (2.0 * ops as f64),
        write_latency: wl,
        read_latency: rl,
    }
}

/// Ours, fault-free, `ops` write+read pairs.
pub fn run_ours(f: usize, ops: u64, seed: u64) -> E7Cell {
    let c = RegisterCluster::bounded(f).clients(2).seed(seed).build();
    measure("bounded 5f+1 (this paper)", f, ops, c)
}

/// KLMW, fault-free.
pub fn run_klmw(f: usize, ops: u64, seed: u64) -> E7Cell {
    measure("KLMW 3f+1", f, ops, klmw::cluster(f, 2, 0, seed))
}

/// Malkhi–Reiter safe register, fault-free (single-phase each way).
pub fn run_mr(f: usize, ops: u64, seed: u64) -> E7Cell {
    measure("Malkhi-Reiter safe 5f", f, ops, mr_safe::cluster(f, 2, seed))
}

/// ABD, fault-free (crash budget `f`).
pub fn run_abd(f: usize, ops: u64, seed: u64) -> E7Cell {
    measure("ABD 2f+1 (crash-only)", f, ops, abd::cluster(f, 2, seed))
}

/// The E7 table.
pub fn run(ops: u64) -> Table {
    let mut t = Table::new(
        "E7 (Section VI): fault-free cost across resilience classes",
        &["protocol", "f", "n", "msgs/op", "write lat", "read lat"],
    );
    for f in [1usize, 2, 3] {
        for cell in
            [run_ours(f, ops, 7), run_klmw(f, ops, 7), run_mr(f, ops, 7), run_abd(f, ops, 7)]
        {
            t.row(vec![
                cell.protocol.clone(),
                cell.f.to_string(),
                cell.n.to_string(),
                f1(cell.msgs_per_op),
                f1(cell.write_latency),
                f1(cell.read_latency),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_costs_more_than_klmw_costs_more_than_abd() {
        let ours = run_ours(1, 5, 1);
        let klmw = run_klmw(1, 5, 1);
        let abd = run_abd(1, 5, 1);
        assert!(ours.msgs_per_op > klmw.msgs_per_op, "{ours:?} vs {klmw:?}");
        assert!(klmw.msgs_per_op > abd.msgs_per_op, "{klmw:?} vs {abd:?}");
    }

    #[test]
    fn cost_ratio_tracks_server_ratio() {
        let ours = run_ours(2, 5, 2);
        let klmw = run_klmw(2, 5, 2);
        let ratio = ours.msgs_per_op / klmw.msgs_per_op;
        let server_ratio = ours.n as f64 / klmw.n as f64;
        // Ours adds the FLUSH round on reads, so the ratio exceeds the
        // plain server ratio but stays within a small constant of it.
        assert!(ratio > server_ratio * 0.8, "ratio {ratio}, servers {server_ratio}");
        assert!(ratio < server_ratio * 3.0, "ratio {ratio}, servers {server_ratio}");
    }

    #[test]
    fn latencies_positive() {
        let c = run_ours(1, 3, 3);
        assert!(c.write_latency > 0.0 && c.read_latency > 0.0);
    }

    #[test]
    fn safe_register_single_phase_writes_are_cheapest_byzantine() {
        // MR writes skip the GET_TS phase, so its write latency is below
        // the two-phase protocols'.
        let mr = run_mr(1, 5, 4);
        let klmw = run_klmw(1, 5, 4);
        assert!(mr.write_latency < klmw.write_latency, "{mr:?} vs {klmw:?}");
    }

    /// Pin: the `harness e7 --quick` table. The simulator is
    /// deterministic, so any drift here is a behaviour change.
    #[test]
    fn quick_table_is_pinned() {
        let want = "protocol,f,n,msgs/op,write lat,read lat\n\
                    bounded 5f+1 (this paper),1,6,28.0,30.6,31.0\n\
                    KLMW 3f+1,1,4,15.0,28.6,17.8\n\
                    Malkhi-Reiter safe 5f,1,5,11.0,16.2,19.2\n\
                    ABD 2f+1 (crash-only),1,3,10.0,26.2,15.8\n\
                    bounded 5f+1 (this paper),2,11,50.5,32.8,31.4\n\
                    KLMW 3f+1,2,7,25.5,27.2,16.2\n\
                    Malkhi-Reiter safe 5f,2,10,21.0,16.4,17.4\n\
                    ABD 2f+1 (crash-only),2,5,16.0,27.8,13.6\n\
                    bounded 5f+1 (this paper),3,16,73.0,31.6,31.2\n\
                    KLMW 3f+1,3,10,36.0,26.6,18.6\n\
                    Malkhi-Reiter safe 5f,3,15,31.0,18.2,17.4\n\
                    ABD 2f+1 (crash-only),3,7,21.9,27.6,14.6\n";
        assert_eq!(run(5).to_csv(), want);
    }
}
