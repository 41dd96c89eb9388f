//! **E14 — chaos soak under the nemesis**: long seeded fault schedules
//! (crash+damaged-disk recovery, partition, flaky links, transient
//! corruption, mobile Byzantine seat movement) against a live read/write
//! workload with the client retry policy engaged, on both substrate
//! backends. Clusters are **durable**: every crash window reboots its
//! server from the server's own stable disk with a rotating
//! [`sbft_storage::DiskFault`] applied at crash time, so the soak mixes
//! real damaged-disk recovery ([`sbft_net::nemesis::NemesisEvent::CrashRecover`]) into the
//! chaos pool — a rebooted server counts as a cure (it may carry stale
//! state) until the next all-clear write converges it.
//!
//! The claim under test is the composition of the paper's guarantees with
//! crash-recovery and link faults: **regularity holds in every stable
//! window** — every interval that starts at the first completed write
//! after all disturbances healed and ends when the next disturbance
//! fires. Operations overlapping a disturbance may abort, time out, or
//! exhaust their retries (tallied distinctly, not failed), but once the
//! *last* fault heals, a write and a read must complete and the recorded
//! history restricted to the stable windows must show zero violations.
//!
//! Seat movement is the mobile-Byzantine regime: the `move-byz` windows
//! relocate the adversary to an honest server and the vacated seat
//! rejoins **cured-but-amnesiac** ([`CureMode::Amnesiac`]) — state
//! re-corrupted to an arbitrary configuration, so it must re-run
//! stabilization. The [`sbft_core::WindowTracker`] therefore treats every cure as
//! window-closing until the next completed all-clear write converges the
//! rejoiner (Assumption A1), even though the movement itself recovers
//! instantly.
//!
//! Disturbance windows are serialized by the schedule generator (at most
//! one honest server is disturbed at any time), so the `f = 1` resilience
//! bound stays respected throughout: one Byzantine seat plus at most one
//! crashed/partitioned/corrupted honest server still leaves every
//! completed write on `≥ 3f + 1` honest servers of which at least
//! `2f + 1` answer any read quorum.

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::{RetryPolicy, Soak, SoakReport};
use sbft_net::nemesis::{CureMode, NemesisOpts, NemesisSchedule};
use sbft_net::{Backend, CorruptionSeverity};

use crate::table::Table;

/// Aggregated chaos-soak measurements for one backend.
#[derive(Clone, Debug)]
pub struct E14Cell {
    /// Backend the soak ran on.
    pub backend: Backend,
    /// Seeds run.
    pub seeds: usize,
    /// Minimum distinct disturbance kinds fired by any one schedule.
    pub min_distinct_kinds: usize,
    /// Everything else, summed over the seeds. `post_heal_failures` and
    /// `window_violations` must be 0.
    pub soak: SoakReport,
}

/// Run the chaos soak on one backend across `seeds` seeds.
pub fn run_backend(backend: Backend, seeds: u64) -> E14Cell {
    let strategies = ByzStrategy::all();
    let reports: Vec<SoakReport> = (0..seeds)
        .map(|seed| run_seed(backend, seed, strategies[seed as usize % strategies.len()]))
        .collect();
    let min_distinct_kinds = reports.iter().map(|r| r.disturbances.len()).min().unwrap_or(0);
    let mut soak = SoakReport::default();
    for report in &reports {
        soak.absorb(report);
    }
    E14Cell { backend, seeds: seeds as usize, min_distinct_kinds, soak }
}

fn run_seed(backend: Backend, seed: u64, strat: ByzStrategy) -> SoakReport {
    let byz_seat = 5usize; // last server of the n = 6, f = 1 cluster
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, strat)
        .durable()
        .seed(seed)
        .backend(backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = c.cfg.n + 2;
    let opts = NemesisOpts {
        servers: c.cfg.n,
        total_procs,
        byz_seats: vec![byz_seat],
        ..NemesisOpts::default()
    };
    let schedule = NemesisSchedule::random(seed, &opts);
    let runner = c
        .nemesis_runner(schedule, vec![byz_seat], strat)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Light });
    let report = Soak::new(&mut c, (), runner).run();
    c.stop();
    report
}

/// The E14 table: one row per backend.
pub fn run(sim_seeds: u64, threaded_seeds: u64) -> Table {
    let mut t = Table::new(
        "E14: chaos soak — seeded nemesis schedules vs. retrying clients (f = 1, amnesiac mobile byz seat)",
        &[
            "backend",
            "seeds",
            "nemesis events",
            "distinct kinds (min)",
            "writes ok",
            "reads ok",
            "aborted",
            "timed out",
            "exhausted",
            "cures",
            "heals",
            "mean reconverge",
            "post-heal failures",
            "stable-window violations",
        ],
    );
    for (backend, seeds) in [(Backend::Sim, sim_seeds), (Backend::Threaded, threaded_seeds)] {
        let c = run_backend(backend, seeds);
        t.row(vec![
            format!("{backend:?}"),
            c.seeds.to_string(),
            c.soak.events_fired.to_string(),
            c.min_distinct_kinds.to_string(),
            c.soak.writes_ok.to_string(),
            c.soak.reads_ok.to_string(),
            c.soak.aborted.to_string(),
            c.soak.timed_out.to_string(),
            c.soak.exhausted.to_string(),
            c.soak.cures.to_string(),
            c.soak.heals.to_string(),
            c.soak.mean_heal_ticks().to_string(),
            c.soak.post_heal_failures.to_string(),
            c.soak.window_violations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_soak_has_zero_stable_window_violations() {
        let cell = run_backend(Backend::Sim, 3);
        let soak = &cell.soak;
        assert_eq!(soak.window_violations, 0, "{cell:?}");
        assert_eq!(soak.post_heal_failures, 0, "{cell:?}");
        assert!(cell.min_distinct_kinds >= 5, "{cell:?}");
        assert!(soak.writes_ok > 0 && soak.reads_ok > 0, "{cell:?}");
        assert!(soak.heals > 0, "{cell:?}");
        assert!(soak.cures > 0, "amnesiac seat movement never fired: {cell:?}");
        // Pin: the `harness e14 --quick` sim row. The simulator is
        // deterministic, so any drift here is a behaviour change.
        assert_eq!((soak.events_fired, cell.min_distinct_kinds), (27, 5), "{cell:?}");
        assert_eq!((soak.writes_ok, soak.reads_ok), (446, 443), "{cell:?}");
        assert_eq!((soak.aborted, soak.timed_out, soak.exhausted), (0, 0, 2), "{cell:?}");
        assert_eq!((soak.cures, soak.heals, soak.mean_heal_ticks()), (6, 15, 68), "{cell:?}");
    }

    #[test]
    fn threaded_soak_survives_the_schedule() {
        let cell = run_backend(Backend::Threaded, 1);
        assert_eq!(cell.soak.window_violations, 0, "{cell:?}");
        assert_eq!(cell.soak.post_heal_failures, 0, "{cell:?}");
        assert!(cell.soak.events_fired > 0, "{cell:?}");
    }
}
