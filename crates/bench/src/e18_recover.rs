//! **E18 — crash-recovery with faulty disks**: servers persist their
//! register state to simulated stable storage ([`sbft_storage`]) and the
//! nemesis reboots them from their own **crash-damaged** disks
//! ([`NemesisEvent::CrashRecover`]), swept over disk-fault kind × crash
//! rate × `n ∈ {5f, 5f+1}` on both substrate backends.
//!
//! Each cell is scored three ways:
//!
//! * **stable-window regularity** — [`sbft_core::WindowTracker`] windows, with every
//!   recovery treated like a cure (the rejoiner may have rebooted into
//!   stale or ill-formed state, so it counts as unconverged until the
//!   next completed all-clear write — Assumption A1). At `n = 5f+1` this
//!   must be violation-free for *every* disk-fault kind.
//! * **recovery-to-convergence latency** — from each damaged-disk reboot
//!   to the all-clear write that re-converges it, in substrate ticks and
//!   in client operations.
//! * **client-visible data loss** — completed reads returning a value
//!   older than the last *acknowledged* write. Durable recovery at
//!   `n = 5f+1` must never surface one: the crashed server's disk may
//!   lose its unflushed tail, but every acknowledged write lives on
//!   `≥ 3f+1` other servers.
//!
//! The `n = 5f` column is the below-bound control; the `pristine` fault
//! row is the best-case control (recovery without damage).

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::{RetryPolicy, Soak, SoakReport};
use sbft_net::nemesis::{NemesisEvent, NemesisSchedule};
use sbft_net::Backend;
use sbft_storage::DiskFault;

use crate::table::{bench_json, Record, Table};

/// First crash fires after this much quiet time.
const START_AFTER: u64 = 500;

/// How long each crash window lasts before the damaged-disk reboot.
const FAULT_LEN: u64 = 1_200;

/// No crash opens after `HORIZON - FAULT_LEN`.
const HORIZON: u64 = 18_000;

/// One cell of the recovery sweep.
#[derive(Clone, Debug)]
pub struct E18Cell {
    /// The sweep point.
    pub spec: E18Spec,
    /// The soak, summed over the seeds: `fired("crash")` crashes, `cures`
    /// damaged-disk reboots (one per crash), `converged` of them followed
    /// by an all-clear write, `lost_reads`, the regularity scores.
    pub soak: SoakReport,
}

impl E18Cell {
    /// Verdict ladder: window violations dominate, then a recovery that
    /// never re-converged, then acknowledged data loss, then durable.
    pub fn verdict(&self) -> &'static str {
        if self.soak.window_violations > 0 {
            "violated"
        } else if self.soak.converged < self.soak.cures {
            "unconverged"
        } else if self.soak.lost_reads > 0 {
            "lossy"
        } else {
            "durable"
        }
    }
}

/// Parameters of one sweep point.
#[derive(Clone, Copy, Debug)]
pub struct E18Spec {
    /// Backend.
    pub backend: Backend,
    /// Cluster size (`5f+1` on-bound, `5f` for the control row).
    pub n: usize,
    /// Byzantine servers (seated at the tail).
    pub f: usize,
    /// Disk damage applied at every crash.
    pub fault: DiskFault,
    /// Quiet gap between a recovery and the next crash (smaller = faster
    /// crash rate).
    pub gap: u64,
    /// Seeds to aggregate.
    pub seeds: u64,
}

/// Crash-only schedule: serialized `Crash` → `CrashRecover` windows of
/// [`FAULT_LEN`], separated by `spec.gap`, every crash damaging the disk
/// with `spec.fault`. Targets rotate over the honest servers (the
/// Byzantine tail seats are never crashed, keeping the disturbed-honest
/// count at one).
fn crash_schedule(spec: &E18Spec, seed: u64) -> NemesisSchedule {
    let honest = spec.n - spec.f;
    let mut events = Vec::new();
    let mut t = START_AFTER;
    let mut window = 0usize;
    while t + FAULT_LEN <= HORIZON {
        let target = (window + seed as usize) % honest;
        events.push((t, NemesisEvent::Crash(target)));
        events.push((t + FAULT_LEN, NemesisEvent::CrashRecover { pid: target, fault: spec.fault }));
        window += 1;
        t += FAULT_LEN + spec.gap;
    }
    NemesisSchedule::scripted(events)
}

/// Run one sweep cell.
pub fn run_cell(spec: &E18Spec) -> E18Cell {
    let strategies = ByzStrategy::all();
    let mut soak = SoakReport::default();
    for seed in 0..spec.seeds {
        soak.absorb(&run_seed(spec, seed, strategies[seed as usize % strategies.len()]));
    }
    E18Cell { spec: *spec, soak }
}

fn run_seed(spec: &E18Spec, seed: u64, strat: ByzStrategy) -> SoakReport {
    let mut c = RegisterCluster::bounded_with_n(spec.n, spec.f)
        .clients(2)
        .byzantine_tail(strat)
        .durable()
        .seed(seed)
        .backend(spec.backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let byz_seats: Vec<usize> = (spec.n - spec.f..spec.n).collect();
    let runner = c.nemesis_runner(crash_schedule(spec, seed), byz_seats, strat);
    let report = Soak::new(&mut c, (), runner).run();
    c.stop();
    report
}

/// The sweep grid. `quick` is the CI smoke (one fault per class, 1 seed);
/// the full grid crosses every fault kind with two crash rates, the
/// `n = 5f` control, and threaded spot-checks.
pub fn specs(quick: bool) -> Vec<E18Spec> {
    use Backend::{Sim, Threaded};
    let mut specs = Vec::new();
    if quick {
        for fault in [DiskFault::Pristine, DiskFault::LostSuffix, DiskFault::StaleSnapshot] {
            specs.push(E18Spec { backend: Sim, n: 6, f: 1, fault, gap: 2_200, seeds: 1 });
        }
        specs.push(E18Spec {
            backend: Threaded,
            n: 6,
            f: 1,
            fault: DiskFault::TornFrame,
            gap: 2_200,
            seeds: 1,
        });
        return specs;
    }
    // On-bound n = 5f+1: every disk-fault kind at two crash rates.
    for fault in DiskFault::ALL {
        for gap in [2_200, 800] {
            specs.push(E18Spec { backend: Sim, n: 6, f: 1, fault, gap, seeds: 3 });
        }
    }
    // Below-bound control: n = 5f loses the spare the proof needs.
    for fault in [DiskFault::Pristine, DiskFault::LostSuffix, DiskFault::StaleSnapshot] {
        specs.push(E18Spec { backend: Sim, n: 5, f: 1, fault, gap: 2_200, seeds: 3 });
    }
    // Threaded spot-checks at the damage extremes.
    for fault in [DiskFault::Pristine, DiskFault::StaleSnapshot] {
        specs.push(E18Spec { backend: Threaded, n: 6, f: 1, fault, gap: 2_200, seeds: 1 });
    }
    specs
}

/// Run the whole grid.
pub fn run_cells(quick: bool) -> Vec<E18Cell> {
    specs(quick).iter().map(run_cell).collect()
}

/// Render the recovery table.
pub fn table(cells: &[E18Cell]) -> Table {
    let mut t = Table::new(
        "E18: damaged-disk crash recovery — servers reboot from faulty stable storage",
        &[
            "backend",
            "n",
            "f",
            "disk fault",
            "gap",
            "crashes",
            "recoveries",
            "converged",
            "mean ticks",
            "mean ops",
            "max ticks",
            "writes ok",
            "reads ok",
            "aborted",
            "timed out",
            "exhausted",
            "lost reads",
            "windows",
            "window viol",
            "full viol",
            "verdict",
        ],
    );
    for c in cells {
        let (spec, soak) = (&c.spec, &c.soak);
        t.row(vec![
            format!("{:?}", spec.backend),
            spec.n.to_string(),
            spec.f.to_string(),
            spec.fault.name().to_string(),
            spec.gap.to_string(),
            soak.fired("crash").to_string(),
            soak.cures.to_string(),
            soak.converged.to_string(),
            soak.mean_converge_ticks().to_string(),
            soak.mean_converge_ops().to_string(),
            soak.max_converge_ticks.to_string(),
            soak.writes_ok.to_string(),
            soak.reads_ok.to_string(),
            soak.aborted.to_string(),
            soak.timed_out.to_string(),
            soak.exhausted.to_string(),
            soak.lost_reads.to_string(),
            soak.windows.to_string(),
            soak.window_violations.to_string(),
            soak.full_violations.to_string(),
            c.verdict().to_string(),
        ]);
    }
    t
}

/// Serialize the sweep as BENCH_e18.json.
pub fn to_json(cells: &[E18Cell]) -> String {
    let unit = Record::new()
        .str("gap", "quiet ticks between a recovery and the next crash")
        .str("reconverge", "damaged-disk reboot to the next all-clear completed write");
    let records = cells.iter().map(|c| {
        let (spec, soak) = (&c.spec, &c.soak);
        Record::new()
            .str("backend", format!("{:?}", spec.backend).to_lowercase())
            .num("n", spec.n)
            .num("f", spec.f)
            .str("disk_fault", spec.fault.name())
            .num("gap", spec.gap)
            .num("seeds", spec.seeds)
            .num("crashes", soak.fired("crash"))
            .num("recoveries", soak.cures)
            .num("converged", soak.converged)
            .num("mean_reconverge_ticks", soak.mean_converge_ticks())
            .num("mean_reconverge_ops", soak.mean_converge_ops())
            .num("max_reconverge_ticks", soak.max_converge_ticks)
            .num("writes_ok", soak.writes_ok)
            .num("reads_ok", soak.reads_ok)
            .num("aborted", soak.aborted)
            .num("timed_out", soak.timed_out)
            .num("exhausted", soak.exhausted)
            .num("lost_reads", soak.lost_reads)
            .num("windows", soak.windows)
            .num("window_violations", soak.window_violations)
            .num("full_violations", soak.full_violations)
            .str("verdict", c.verdict())
    });
    bench_json("e18", Record::new().nested("unit", unit), records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_suffix_recovery_stays_durable_at_the_bound() {
        let spec = E18Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::LostSuffix,
            gap: 2_200,
            seeds: 1,
        };
        let cell = run_cell(&spec);
        let soak = &cell.soak;
        assert!(soak.fired("crash") > 0, "{cell:?}");
        assert_eq!(soak.cures, soak.fired("crash"), "{cell:?}");
        assert_eq!(soak.converged, soak.cures, "a reboot never converged: {cell:?}");
        assert_eq!(soak.window_violations, 0, "{cell:?}");
        assert_eq!(soak.lost_reads, 0, "{cell:?}");
        assert!(soak.windows > 0, "{cell:?}");
        assert_eq!(cell.verdict(), "durable", "{cell:?}");
    }

    /// Pin: the three sim rows of `harness recover --quick`. The simulator
    /// is deterministic, so any drift here is a behaviour change.
    #[test]
    fn quick_sim_rows_are_pinned() {
        let cells: Vec<_> =
            specs(true).iter().filter(|s| s.backend == Backend::Sim).map(run_cell).collect();
        let full: Vec<_> = cells.iter().map(|c| c.soak.full_violations).collect();
        assert_eq!(full, [0, 0, 1]);
        for c in &cells {
            let s = &c.soak;
            assert_eq!((s.fired("crash"), s.cures, s.converged), (5, 5, 5), "{c:?}");
            let converge = (s.mean_converge_ticks(), s.mean_converge_ops(), s.max_converge_ticks);
            assert_eq!(converge, (31, 1, 31), "{c:?}");
            assert_eq!((s.writes_ok, s.reads_ok), (10, 9), "{c:?}");
            assert_eq!((s.aborted, s.timed_out, s.exhausted, s.lost_reads), (0, 0, 2, 0), "{c:?}");
            assert_eq!((s.windows, s.window_violations, c.verdict()), (2, 0, "durable"), "{c:?}");
        }
    }

    /// Serialization shape only — the grid runs via `harness recover`.
    #[test]
    fn json_has_one_line_per_cell_and_a_verdict() {
        let spec = E18Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::BitRot,
            gap: 2_200,
            seeds: 1,
        };
        let soak = SoakReport {
            disturbances: [("crash", 5)].into(),
            cures: 5,
            converged: 5,
            converge_ticks: 5_000,
            converge_ops: 50,
            max_converge_ticks: 2_000,
            writes_ok: 40,
            reads_ok: 40,
            timed_out: 1,
            exhausted: 1,
            windows: 6,
            ..SoakReport::default()
        };
        let mut a = E18Cell { spec, soak };
        let mut b = a.clone();
        b.spec.backend = Backend::Threaded;
        b.spec.fault = DiskFault::StaleSnapshot;
        let cells = vec![a.clone(), b];
        let json = to_json(&cells);
        assert_eq!(json.matches("\"verdict\"").count(), cells.len());
        assert!(json.contains("\"experiment\": \"e18\""));
        assert!(json.contains("\"disk_fault\": \"bit-rot\""));
        assert!(json.contains("\"disk_fault\": \"stale-snapshot\""));
        assert!(json.contains("\"crashes\": 5, \"recoveries\": 5"));
        assert!(json.contains("\"mean_reconverge_ticks\": 1000"));
        assert!(json.contains("\"mean_reconverge_ops\": 10"));
        // Verdict ladder: violations dominate, then convergence, then
        // acknowledged loss, then durable.
        assert_eq!(a.verdict(), "durable");
        a.soak.lost_reads = 1;
        assert_eq!(a.verdict(), "lossy");
        a.soak.converged = 4;
        assert_eq!(a.verdict(), "unconverged");
        a.soak.window_violations = 1;
        assert_eq!(a.verdict(), "violated");
    }

    #[test]
    fn crash_schedules_pair_every_crash_and_respect_the_byz_tail() {
        let spec = E18Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            fault: DiskFault::TornFrame,
            gap: 800,
            seeds: 1,
        };
        for seed in 0..5 {
            let sched = crash_schedule(&spec, seed);
            let mut down: Option<usize> = None;
            for (t, ev) in sched.events() {
                match ev {
                    NemesisEvent::Crash(p) => {
                        assert!(*p < spec.n - spec.f, "crashed the byz seat");
                        assert!(down.is_none());
                        down = Some(*p);
                    }
                    NemesisEvent::CrashRecover { pid, fault } => {
                        assert_eq!(down.take(), Some(*pid));
                        assert_eq!(*fault, spec.fault);
                        assert!(*t <= HORIZON);
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert!(down.is_none(), "a crash was never recovered");
        }
    }
}
