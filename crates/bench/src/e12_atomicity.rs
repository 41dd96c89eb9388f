//! **E12 — regular vs atomic (extension beyond the paper)**: the paper
//! deliberately targets *regular* semantics; regular registers permit the
//! classic **new/old inversion** — two sequential reads, both concurrent
//! with one write, returning first the new then the old value. This
//! experiment (a) constructs the inversion mechanically on the paper's
//! protocol, (b) shows the write-back read extension
//! ([`ReaderOptions::write_back`]) eliminates it, and (c) prices the
//! upgrade in messages per read.
//!
//! ## The scripted inversion
//!
//! A writer *crashes* mid-write after its `WRITE(v2, ts2)` reached only
//! 3 of 6 servers (modelled by applying the pair to 3 server states after
//! crashing the writer — writer crashes are free in the model). Reader
//! `r1`'s quorum is steered (one slow *old* server) to contain all 3 new
//! adopters: `v2` has `2f + 1` witnesses, `r1` returns **new**. Reader
//! `r2`'s quorum is steered (one slow *new* adopter) to contain only 2:
//! only `v1` reaches the bar, `r2` returns **old** — inversion. Regular
//! semantics allow it (the write is still "concurrent": it never
//! completed); atomic semantics forbid it. With write-back, `r1` itself
//! propagates `(v2, ts2)` to `n − f` servers before returning, so `r2`
//! finds `v2` at quorum strength everywhere.

use sbft_core::cluster::{Op, RegisterCluster};
use sbft_core::reader::ReaderOptions;

use crate::table::{f1, Table};

/// Outcome of one scripted inversion run.
#[derive(Clone, Debug)]
pub struct E12Run {
    /// What r1 returned.
    pub r1: u64,
    /// What r2 returned.
    pub r2: u64,
    /// New/old inversions detected in the history.
    pub inversions: usize,
    /// Whether the (regular!) history still satisfies regularity.
    pub regular_ok: bool,
}

/// Replay the scripted inversion schedule with or without write-back.
pub fn scripted_run(write_back: bool, seed: u64) -> E12Run {
    let opts = if write_back { ReaderOptions::atomic() } else { ReaderOptions::default() };
    let mut c = RegisterCluster::bounded(1)
        .clients(4) // writer + crashed writer + r1 + r2
        .seed(seed)
        .reader_options(opts)
        .build();
    let w = c.client(0);
    let w2 = c.client(1);
    let r1 = c.client(2);
    let r2 = c.client(3);

    // v1 installed everywhere.
    c.write(w, 1).expect("seed write");
    let ts1 = c.write(w, 1).expect("re-install for a stable ts");

    // w2 begins writing v2 = 2 and crashes immediately; its WRITE reached
    // servers 0,1,2 only (applied manually — the crash model).
    c.invoke(w2, (), Op::Write(2));
    c.sim.crash(w2);
    c.settle(50_000); // drain whatever the crashed client had sent
    let ts2 = c.sys.next_for(w2 as u32, std::slice::from_ref(&ts1));
    for s in 0..3 {
        if let Some(srv) = c.server_state(s) {
            let prev = (srv.value, srv.ts.clone());
            srv.old_vals.push_front(prev);
            srv.value = 2;
            srv.ts = ts2.clone();
        }
    }

    // r1: steer its quorum to include all three new adopters (one *old*
    // server slow).
    c.sim.pause_process_channels(3);
    let got1 = c.read(r1).expect("r1 returns");
    c.sim.resume_process_channels(3);
    c.settle(50_000);

    // r2: steer its quorum to exclude one *new* adopter.
    c.sim.pause_process_channels(0);
    let got2 = c.read(r2).expect("r2 returns");
    c.sim.resume_process_channels(0);
    c.settle(50_000);

    E12Run {
        r1: got1.value,
        r2: got2.value,
        inversions: c.history(()).new_old_inversions().len(),
        regular_ok: c.check_history().is_ok(),
    }
}

/// Message overhead of write-back reads (fault-free stream).
pub fn read_cost(write_back: bool, ops: u64, seed: u64) -> f64 {
    let opts = if write_back { ReaderOptions::atomic() } else { ReaderOptions::default() };
    let mut c = RegisterCluster::bounded(1).clients(2).seed(seed).reader_options(opts).build();
    let (w, r) = (c.client(0), c.client(1));
    c.write(w, 1).expect("seed");
    let before = c.metrics().messages_sent;
    for _ in 0..ops {
        c.read(r).expect("read");
    }
    (c.metrics().messages_sent - before) as f64 / ops as f64
}

/// The E12 table.
pub fn run(seed: u64) -> Table {
    let mut t = Table::new(
        "E12 (extension): new/old inversion — regular vs write-back reads (f = 1)",
        &["reads", "r1", "r2", "inversions", "regular spec", "msgs/read"],
    );
    for (name, wb) in [("regular (paper)", false), ("write-back (atomic ext.)", true)] {
        let run = scripted_run(wb, seed);
        let cost = read_cost(wb, 10, seed);
        t.row(vec![
            name.into(),
            run.r1.to_string(),
            run.r2.to_string(),
            run.inversions.to_string(),
            if run.regular_ok { "holds" } else { "VIOLATED" }.to_string(),
            f1(cost),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_reads_invert_on_the_scripted_schedule() {
        let run = scripted_run(false, 7);
        assert_eq!(run.r1, 2, "r1 must see the new value: {run:?}");
        assert_eq!(run.r2, 1, "r2 must regress to the old value: {run:?}");
        assert!(run.inversions > 0, "{run:?}");
        // ...and yet the *regular* spec is satisfied: the write never
        // completed, so both values are legal returns.
        assert!(run.regular_ok, "{run:?}");
    }

    #[test]
    fn write_back_prevents_the_inversion() {
        let run = scripted_run(true, 7);
        assert_eq!(run.r1, 2, "{run:?}");
        assert_eq!(run.r2, 2, "write-back must have propagated v2: {run:?}");
        assert_eq!(run.inversions, 0, "{run:?}");
    }

    #[test]
    fn write_back_costs_one_extra_round() {
        let regular = read_cost(false, 10, 1);
        let atomic = read_cost(true, 10, 1);
        assert!(atomic > regular, "write-back must cost messages: {regular} vs {atomic}");
        // One extra n-broadcast + n acks on top of FLUSH + READ rounds.
        assert!(atomic < regular * 2.0, "but bounded: {regular} vs {atomic}");
    }
}
