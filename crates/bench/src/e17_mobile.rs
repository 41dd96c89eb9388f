//! **E17 — mobile-Byzantine frontier**: the paper's `n ≥ 5f+1`
//! stabilizing register against the full mobile-Byzantine adversary —
//! `f` seats roaming between servers at round boundaries
//! ([`sbft_net::mobile`]), every vacated server rejoining
//! cured-but-amnesiac ([`CureMode::Amnesiac`]) — swept over
//! n/f/movement-rate/movement-mode on both substrates.
//!
//! Each cell is scored three ways:
//!
//! * **full-history regularity** — every completed op scrutinized, no
//!   exemptions. Expected to *fail* once movement outpaces convergence:
//!   a read overlapping a cure may legitimately see pre-cure garbage.
//! * **cure-aware stable-window regularity** — [`sbft_core::WindowTracker`]
//!   windows: open at a completed all-clear write, closed by any cure
//!   until the next converging write (Assumption A1). The paper's
//!   actual claim under this adversary.
//! * **new/old inversions** — the E12 atomicity score inside the run.
//!
//! The interesting output is the *frontier*: at slow movement every
//! verdict is `regular`; as rounds shrink the full history breaks while
//! stable windows stay clean (`stable-window-only` — exactly the gap
//! the self-stabilization claim predicts); when movement outpaces
//! stabilization entirely, windows never form (`collapsed`) or even the
//! windows break (`violated`). A below-bound `n = 5f` column is
//! included as a control.

use sbft_core::adversary::ByzStrategy;
use sbft_core::cluster::RegisterCluster;
use sbft_core::{RetryPolicy, Soak, SoakReport};
use sbft_net::mobile::{mobile_schedule, MobileOpts, MovementMode};
use sbft_net::nemesis::CureMode;
use sbft_net::{Backend, CorruptionSeverity};

use crate::table::{bench_json, Record, Table};

/// One cell of the mobility frontier.
#[derive(Clone, Debug)]
pub struct E17Cell {
    /// The sweep point.
    pub spec: E17Spec,
    /// The soak, summed over the seeds: `fired("move-byz")` seat
    /// movements, `cures` amnesiac rejoins, the three regularity scores.
    pub soak: SoakReport,
}

impl E17Cell {
    /// Frontier verdict for the cell.
    pub fn verdict(&self) -> &'static str {
        if self.soak.window_violations > 0 {
            "violated"
        } else if self.soak.windows == 0 {
            "collapsed"
        } else if self.soak.full_violations > 0 {
            "stable-window-only"
        } else {
            "regular"
        }
    }
}

/// Parameters of one sweep point.
#[derive(Clone, Copy, Debug)]
pub struct E17Spec {
    /// Backend.
    pub backend: Backend,
    /// Cluster size (`5f+1` on-bound, `5f` for the control row).
    pub n: usize,
    /// Roaming seats.
    pub f: usize,
    /// Movement discipline.
    pub mode: MovementMode,
    /// Movement round length (smaller = faster adversary).
    pub round_len: u64,
    /// Per-round movement probability.
    pub move_prob: f64,
    /// Seeds to aggregate.
    pub seeds: u64,
}

/// Run one frontier cell.
pub fn run_cell(spec: &E17Spec) -> E17Cell {
    let strategies = ByzStrategy::all();
    let mut soak = SoakReport::default();
    for seed in 0..spec.seeds {
        soak.absorb(&run_seed(spec, seed, strategies[seed as usize % strategies.len()]));
    }
    E17Cell { spec: *spec, soak }
}

fn run_seed(spec: &E17Spec, seed: u64, strat: ByzStrategy) -> SoakReport {
    let mut c = RegisterCluster::bounded_with_n(spec.n, spec.f)
        .clients(2)
        .byzantine_tail(strat)
        .seed(seed)
        .backend(spec.backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = spec.n + 2;
    let mopts = MobileOpts::new(spec.n, spec.f)
        .round_len(spec.round_len)
        .move_prob(spec.move_prob)
        .mode(spec.mode);
    let seats = mopts.seats.clone();
    let schedule = mobile_schedule(seed, &mopts);
    let runner = c
        .nemesis_runner(schedule, seats, strat)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Heavy });
    let report = Soak::new(&mut c, (), runner).run();
    c.stop();
    report
}

/// The sweep grid. `quick` is the CI smoke (3 cells, 1 seed each); the
/// full grid is the nightly frontier.
pub fn specs(quick: bool) -> Vec<E17Spec> {
    use Backend::{Sim, Threaded};
    use MovementMode::{Coordinated, Uncoordinated};
    let mut specs = Vec::new();
    if quick {
        for (backend, round_len) in [(Sim, 5_000), (Sim, 400), (Threaded, 1_500)] {
            specs.push(E17Spec {
                backend,
                n: 6,
                f: 1,
                mode: Coordinated,
                round_len,
                move_prob: 1.0,
                seeds: 1,
            });
        }
        return specs;
    }
    // On-bound n = 5f+1, both modes, three movement rates, f ∈ {1, 2}.
    for (n, f) in [(6, 1), (11, 2)] {
        for mode in [Coordinated, Uncoordinated] {
            for round_len in [5_000, 1_500, 400] {
                specs.push(E17Spec {
                    backend: Sim,
                    n,
                    f,
                    mode,
                    round_len,
                    move_prob: 1.0,
                    seeds: 3,
                });
            }
        }
    }
    // Below-bound control: n = 5f loses the spare server the proof needs.
    for round_len in [5_000, 1_500, 400] {
        specs.push(E17Spec {
            backend: Sim,
            n: 5,
            f: 1,
            mode: Coordinated,
            round_len,
            move_prob: 1.0,
            seeds: 3,
        });
    }
    // Threaded spot-checks at the two rate extremes.
    for round_len in [5_000, 400] {
        specs.push(E17Spec {
            backend: Threaded,
            n: 6,
            f: 1,
            mode: Coordinated,
            round_len,
            move_prob: 1.0,
            seeds: 1,
        });
    }
    specs
}

/// Run the whole grid.
pub fn run_cells(quick: bool) -> Vec<E17Cell> {
    specs(quick).iter().map(run_cell).collect()
}

/// Render the frontier table.
pub fn table(cells: &[E17Cell]) -> Table {
    let mut t = Table::new(
        "E17: mobile-Byzantine frontier — f roaming amnesiac seats vs. n ≥ 5f+1 stabilization",
        &[
            "backend",
            "n",
            "f",
            "mode",
            "round len",
            "moves",
            "cures",
            "writes ok",
            "reads ok",
            "aborted",
            "timed out",
            "exhausted",
            "windows",
            "full viol",
            "window viol",
            "inversions",
            "verdict",
        ],
    );
    for c in cells {
        let (spec, soak) = (&c.spec, &c.soak);
        t.row(vec![
            format!("{:?}", spec.backend),
            spec.n.to_string(),
            spec.f.to_string(),
            spec.mode.label().to_string(),
            spec.round_len.to_string(),
            soak.fired("move-byz").to_string(),
            soak.cures.to_string(),
            soak.writes_ok.to_string(),
            soak.reads_ok.to_string(),
            soak.aborted.to_string(),
            soak.timed_out.to_string(),
            soak.exhausted.to_string(),
            soak.windows.to_string(),
            soak.full_violations.to_string(),
            soak.window_violations.to_string(),
            soak.inversions.to_string(),
            c.verdict().to_string(),
        ]);
    }
    t
}

/// Serialize the frontier as BENCH_e17.json.
pub fn to_json(cells: &[E17Cell]) -> String {
    let unit = Record::new().str("round_len", "substrate ticks between movement rounds");
    let records = cells.iter().map(|c| {
        let (spec, soak) = (&c.spec, &c.soak);
        Record::new()
            .str("backend", format!("{:?}", spec.backend).to_lowercase())
            .num("n", spec.n)
            .num("f", spec.f)
            .str("mode", spec.mode.label())
            .num("round_len", spec.round_len)
            .num("move_prob", spec.move_prob)
            .num("seeds", spec.seeds)
            .num("moves", soak.fired("move-byz"))
            .num("cures", soak.cures)
            .num("writes_ok", soak.writes_ok)
            .num("reads_ok", soak.reads_ok)
            .num("aborted", soak.aborted)
            .num("timed_out", soak.timed_out)
            .num("exhausted", soak.exhausted)
            .num("windows", soak.windows)
            .num("full_violations", soak.full_violations)
            .num("window_violations", soak.window_violations)
            .num("new_old_inversions", soak.inversions)
            .str("verdict", c.verdict())
    });
    bench_json("e17", Record::new().nested("unit", unit), records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_coordinated_movement_keeps_stable_windows_regular() {
        let spec = E17Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            mode: MovementMode::Coordinated,
            round_len: 5_000,
            move_prob: 1.0,
            seeds: 2,
        };
        let cell = run_cell(&spec);
        let soak = &cell.soak;
        assert!(soak.fired("move-byz") > 0, "{cell:?}");
        assert!(soak.cures > 0, "{cell:?}");
        assert!(soak.windows > 0, "{cell:?}");
        assert_eq!(soak.window_violations, 0, "{cell:?}");
        assert!(soak.writes_ok > 0 && soak.reads_ok > 0, "{cell:?}");
    }

    /// Pin: the two sim rows of `harness mobile --quick`. The simulator is
    /// deterministic, so any drift here is a behaviour change.
    #[test]
    fn quick_sim_rows_are_pinned() {
        let rows: Vec<_> = specs(true)
            .iter()
            .filter(|s| s.backend == Backend::Sim)
            .map(run_cell)
            .map(|c| {
                let s = &c.soak;
                let ops = (s.writes_ok, s.reads_ok, s.aborted, s.timed_out, s.exhausted);
                let viol = (s.full_violations, s.window_violations, s.inversions);
                (s.fired("move-byz"), s.cures, ops, s.windows, viol, c.verdict())
            })
            .collect();
        assert_eq!(
            rows,
            [
                (4, 4, (229, 228, 0, 0, 0), 5, (0, 0, 0), "regular"),
                (48, 48, (282, 281, 0, 0, 0), 49, (1, 0, 0), "stable-window-only"),
            ]
        );
    }

    /// Serialization shape only — the grid itself runs via the harness
    /// (`harness mobile --quick` in CI), not in tier-1 tests.
    #[test]
    fn json_has_one_line_per_cell_and_a_verdict() {
        let spec = E17Spec {
            backend: Backend::Sim,
            n: 6,
            f: 1,
            mode: MovementMode::Coordinated,
            round_len: 5_000,
            move_prob: 1.0,
            seeds: 1,
        };
        let soak = SoakReport {
            disturbances: [("move-byz", 3)].into(),
            cures: 3,
            writes_ok: 40,
            reads_ok: 40,
            exhausted: 1,
            windows: 4,
            ..SoakReport::default()
        };
        let mut a = E17Cell { spec, soak };
        let mut b = a.clone();
        b.spec.backend = Backend::Threaded;
        b.spec.mode = MovementMode::Uncoordinated;
        b.spec.round_len = 400;
        b.soak.full_violations = 2;
        let cells = vec![a.clone(), b.clone()];
        let json = to_json(&cells);
        assert_eq!(json.matches("\"verdict\"").count(), cells.len());
        assert!(json.contains("\"experiment\": \"e17\""));
        assert!(json.contains("\"backend\": \"sim\""));
        assert!(json.contains("\"backend\": \"threaded\""));
        assert!(json.contains("\"moves\": 3"));
        assert!(json.contains("\"new_old_inversions\""));
        // Verdict ladder: window violations dominate, then collapse, then
        // the full-history/stable-window gap, then regular.
        assert_eq!(a.verdict(), "regular");
        assert_eq!(b.verdict(), "stable-window-only");
        b.soak.windows = 0;
        assert_eq!(b.verdict(), "collapsed");
        b.soak.window_violations = 1;
        assert_eq!(b.verdict(), "violated");
        a.soak.windows = 0;
        assert_eq!(a.verdict(), "collapsed");
    }
}
