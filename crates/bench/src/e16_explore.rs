//! E16 / E20 — bounded-exhaustive schedule exploration (Theorem 1, Lemma 5)
//! and its worker-count sweep.
//!
//! Both tables run [`sbft_explorer::explore`] over the register scenarios
//! through one [`cell`] runner, and every cell gets the same verdict:
//! clean, or found → shrunk → replay-verified.
//!
//! **E16** ([`run`], `harness explore`):
//!
//! * `concurrent-wr-n6`, **prune off** — the raw schedule tree of one
//!   write ∥ one read on an honest n=6/f=1 cluster. Every interleaving
//!   must satisfy regularity and terminate (Lemma 5 / Theorem 2 territory,
//!   checked exhaustively rather than sampled).
//! * `concurrent-wr-n6`, **prune on** — the same tree under sleep-set
//!   pruning; the schedule ratio is the prune ratio reported in
//!   EXPERIMENTS.md.
//! * `theorem1-n6`, prune on — the Theorem 1 adversary one server above
//!   the impossibility bound: still zero violations.
//! * `theorem1-n5`, prune on, stop-on-violation — the explorer must
//!   *rediscover* the paper's Theorem 1 counterexample as a found,
//!   shrunk, replay-verified trace (written to `E16_counterexample.trace`
//!   by `harness explore`).
//!
//! `--scenario NAME` narrows the table to one pruned cell of that scenario.
//!
//! **E20** ([`sweep`], `harness e20`): `jobs ∈ {1, 2, 4}` workers over the
//! clean scenarios (`concurrent-wr-n6`, `mwmr2-n6`, `crash-recover-n6`) and
//! the `theorem1-n5` rediscovery, reporting schedules/sec. Every cell of a
//! clean scenario must report *identical* schedule/transition counts
//! regardless of worker count (the determinism guarantee — checked here,
//! not just in unit tests). Wall-clock rates depend on the host: the
//! `cores` field of `BENCH_e20.json` records what the sweep ran on.

use sbft_explorer::scenario::RegisterScenario;
use sbft_explorer::{
    explore, format_trace, parse_trace, replay, shrink, ExplorerConfig, ReplayOutcome, Scenario,
    Violation,
};

use crate::table::{bench_json, pct, Record};
use crate::Table;

/// One explored configuration, plus its verdict.
pub struct ExploreCell {
    /// Scenario name.
    pub scenario: String,
    /// Whether sleep-set pruning was on.
    pub prune: bool,
    /// Fork depth.
    pub branch_depth: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Schedules executed.
    pub schedules: u64,
    /// Subtrees pruned as sleep-equivalent.
    pub pruned: u64,
    /// Total transitions (including prefix replays).
    pub transitions: u64,
    /// Longest schedule.
    pub max_depth: usize,
    /// Violations found.
    pub violations: usize,
    /// Wall-clock milliseconds of the exploration (shrinking excluded).
    pub wall_ms: f64,
    /// Human verdict for the table.
    pub verdict: String,
    /// The first violation, shrunk, when its replay reproduced it.
    pub counterexample: Option<Violation>,
}

impl ExploreCell {
    /// Schedules per wall-clock second.
    pub fn schedules_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.schedules as f64 * 1e3 / self.wall_ms
        } else {
            0.0
        }
    }
}

/// The result of the E16 run: the table plus, when a cell found a
/// violation, its shrunk replayable trace.
pub struct E16Outcome {
    /// The EXPERIMENTS.md table.
    pub table: Table,
    /// Shrunk counterexample trace (format of [`sbft_explorer::format_trace`]).
    pub counterexample: Option<String>,
}

/// Fork depth for the exhaustive cells. Depth 4 at quick scale keeps the
/// sweep under CI budgets; depth 6 at full scale pushes the unpruned
/// `concurrent-wr-n6` tree past 10,000 schedules.
pub fn sweep_depth(quick: bool) -> usize {
    if quick {
        4
    } else {
        6
    }
}

/// The one scenario whose sweep must *find* a violation.
const VIOLATING: &str = "theorem1-n5";

/// The bounds every table explores `scenario` under. `theorem1-n5` needs
/// the deeper fork bound to reach its counterexample, and stops at it.
fn config_for(scenario: &RegisterScenario, quick: bool, jobs: usize) -> ExplorerConfig {
    let violating = scenario.name() == VIOLATING;
    ExplorerConfig {
        branch_depth: if violating { 12 } else { sweep_depth(quick) },
        stop_on_violation: violating,
        max_schedules: 200_000,
        jobs,
        ..Default::default()
    }
}

/// Clean (a miss, where a violation was due), or the first violation
/// found → shrunk → replayed.
fn verdict(
    scenario: &RegisterScenario,
    violations: &[Violation],
    jobs: usize,
) -> (String, Option<Violation>) {
    let Some(v) = violations.first() else {
        let missed = scenario.name() == VIOLATING;
        let clean = if missed { "MISSED Theorem 1 counterexample" } else { "clean" };
        return (clean.into(), None);
    };
    let min = shrink(scenario, v, jobs);
    match replay(scenario, &min.schedule) {
        ReplayOutcome::Violation { .. } => (
            format!(
                "counterexample found (depth {}), shrunk to {} events, replay verified",
                v.schedule.len(),
                min.schedule.len()
            ),
            Some(min),
        ),
        other => (format!("SHRUNK TRACE DID NOT REPLAY: {other:?}"), None),
    }
}

/// Explore one configuration, time it, and give it its verdict.
pub fn cell(scenario: &RegisterScenario, config: &ExplorerConfig) -> ExploreCell {
    let t0 = std::time::Instant::now();
    let report = explore(scenario, config);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (verdict, counterexample) = verdict(scenario, &report.violations, config.jobs);
    ExploreCell {
        scenario: scenario.name().to_string(),
        prune: config.prune,
        branch_depth: config.branch_depth,
        jobs: config.jobs,
        schedules: report.stats.schedules,
        pruned: report.stats.pruned,
        transitions: report.stats.transitions,
        max_depth: report.stats.max_depth,
        violations: report.violations.len(),
        wall_ms,
        verdict,
        counterexample,
    }
}

/// Run E16 on `jobs` workers: the four rows above, or one pruned row of
/// the named scenario. `quick` shrinks the fork depth for CI. Unknown
/// names report the valid list.
pub fn run(quick: bool, jobs: usize, scenario: Option<&str>) -> Result<E16Outcome, String> {
    let rows: Vec<(RegisterScenario, bool)> = match scenario {
        None => vec![
            (RegisterScenario::concurrent_write_read(), false),
            (RegisterScenario::concurrent_write_read(), true),
            (RegisterScenario::theorem1(6), true),
            (RegisterScenario::theorem1(5), true),
        ],
        Some(name) => {
            let s = RegisterScenario::by_name(name).ok_or_else(|| {
                let valid: Vec<String> =
                    RegisterScenario::all().iter().map(|s| s.name().to_string()).collect();
                format!("unknown scenario {name:?}; valid scenarios: {}", valid.join(", "))
            })?;
            vec![(s, true)]
        }
    };

    let mut cells: Vec<ExploreCell> = Vec::new();
    for (s, prune) in &rows {
        let mut c = cell(s, &ExplorerConfig { prune: *prune, ..config_for(s, quick, jobs) });
        if c.verdict == "clean" {
            // What a clean sweep means depends on the row.
            let raw = cells.last().filter(|r| !r.prune && r.scenario == c.scenario);
            if let Some(raw) = raw {
                c.verdict = format!(
                    "clean, pruned to {} of raw tree",
                    pct(c.schedules as usize, raw.schedules as usize)
                );
            } else if c.scenario == "theorem1-n6" {
                c.verdict = "clean (n > 5f)".into();
            }
        }
        cells.push(c);
    }

    let mut table = Table::new(
        "E16: bounded-exhaustive schedule exploration (Theorem 1 / Lemma 5)",
        &[
            "scenario",
            "prune",
            "fork_depth",
            "schedules",
            "pruned_subtrees",
            "transitions",
            "max_depth",
            "violations",
            "verdict",
        ],
    );
    for c in &cells {
        table.row(vec![
            c.scenario.clone(),
            if c.prune { "on" } else { "off" }.into(),
            c.branch_depth.to_string(),
            c.schedules.to_string(),
            c.pruned.to_string(),
            c.transitions.to_string(),
            c.max_depth.to_string(),
            c.violations.to_string(),
            c.verdict.clone(),
        ]);
    }
    let counterexample = cells
        .iter()
        .find_map(|c| c.counterexample.as_ref().map(|min| format_trace(&c.scenario, min)));
    Ok(E16Outcome { table, counterexample })
}

/// Run the E20 worker-count sweep (`--quick` drops the 4-worker column).
pub fn sweep(quick: bool) -> Vec<ExploreCell> {
    let scenarios = [
        RegisterScenario::concurrent_write_read(),
        RegisterScenario::mwmr_two_writers(),
        RegisterScenario::crash_recover(),
        RegisterScenario::theorem1(5),
    ];
    let jobs_swept: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut cells: Vec<ExploreCell> = Vec::new();
    for s in &scenarios {
        let mut base: Option<(u64, u64)> = None; // (schedules, transitions) at 1 worker
        for &jobs in jobs_swept {
            let config = config_for(s, quick, jobs);
            let mut c = cell(s, &config);
            let counts = (c.schedules, c.transitions);
            let (sched1, trans1) = *base.get_or_insert(counts);
            // A sweep that stops at its first violation is cut short at a
            // point that depends on which worker gets there first.
            if !config.stop_on_violation && counts != (sched1, trans1) {
                c.verdict = format!(
                    "NONDETERMINISTIC: {}/{} vs {sched1}/{trans1} at 1 worker",
                    c.schedules, c.transitions
                );
            }
            cells.push(c);
        }
    }
    cells
}

/// Render the E20 table.
pub fn sweep_table(cells: &[ExploreCell]) -> Table {
    let mut t = Table::new(
        "E20: work-stealing exploration (jobs × scenario)",
        &["scenario", "jobs", "schedules", "transitions", "sched_per_sec", "verdict"],
    );
    for c in cells {
        t.row(vec![
            c.scenario.clone(),
            c.jobs.to_string(),
            c.schedules.to_string(),
            c.transitions.to_string(),
            format!("{:.0}", c.schedules_per_sec()),
            c.verdict.clone(),
        ]);
    }
    t
}

/// Serialize the sweep (plus the core count it ran on) as BENCH_e20.json.
pub fn sweep_json(cells: &[ExploreCell]) -> String {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let unit =
        Record::new().str("sched_per_sec", "complete schedules per wall-clock second, one run");
    let records = cells.iter().map(|c| {
        Record::new()
            .str("scenario", &c.scenario)
            .num("jobs", c.jobs)
            .num("schedules", c.schedules)
            .num("transitions", c.transitions)
            .num("violations", c.violations)
            .fixed("wall_ms", c.wall_ms, 2)
            .fixed("sched_per_sec", c.schedules_per_sec(), 1)
            .str("verdict", &c.verdict)
    });
    bench_json("e20", Record::new().num("cores", cores).nested("unit", unit), records)
}

/// Replay a trace file (as written by `harness explore`) verbatim and
/// describe the outcome. `Ok` means the trace reproduced its recorded
/// violation; `Err` reports any divergence.
pub fn replay_trace(text: &str) -> Result<String, String> {
    let trace = parse_trace(text)?;
    let scenario = RegisterScenario::by_name(&trace.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", trace.scenario))?;
    match replay(&scenario, &trace.schedule) {
        ReplayOutcome::Violation { at, description } => {
            Ok(format!("reproduced at event {}/{}: {description}", at + 1, trace.schedule.len()))
        }
        ReplayOutcome::Clean { steps } => {
            Err(format!("trace ran clean for {steps} events — violation did not reproduce"))
        }
        ReplayOutcome::Infeasible { at, key } => {
            Err(format!("event {} ({key:?}) was not enabled — trace does not fit scenario", at + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin: the four rows of `harness explore --quick`, recorded on the
    /// sequential engine this one replaced. The explorer is deterministic,
    /// so any drift here is a behaviour change.
    #[test]
    fn quick_rows_are_pinned_and_the_trace_replays() {
        for jobs in [1, 2] {
            let out = run(true, jobs, None).expect("default rows");
            let t = &out.table;
            let rows: Vec<Vec<&str>> = (0..t.len())
                .map(|r| {
                    ["prune", "schedules", "pruned_subtrees", "transitions", "max_depth"]
                        .iter()
                        .map(|h| t.cell(r, t.col(h)))
                        .collect()
                })
                .collect();
            assert_eq!(rows[0], ["off", "930", "0", "49800", "56"], "jobs={jobs}");
            assert_eq!(rows[1], ["on", "81", "109", "6616", "57"], "jobs={jobs}");
            assert_eq!(rows[2], ["on", "3", "53", "854", "28"], "jobs={jobs}");
            let verdicts: Vec<&str> = (0..4).map(|r| t.cell(r, t.col("verdict"))).collect();
            assert_eq!(
                verdicts[..3],
                ["clean", "clean, pruned to 9% of raw tree", "clean (n > 5f)"],
                "jobs={jobs}"
            );
            assert!(verdicts[3].contains("replay verified"), "jobs={jobs}: {}", verdicts[3]);
            if jobs == 1 {
                // With more workers, where stop-on-violation cuts the
                // sweep depends on which worker gets there first.
                assert_eq!(rows[3], ["on", "2", "0", "42", "23"]);
                assert_eq!(t.cell(3, t.col("violations")), "1");
                assert_eq!(
                    verdicts[3],
                    "counterexample found (depth 19), shrunk to 17 events, replay verified"
                );
            }
            // And the counterexample trace round-trips through the replayer.
            let trace = out.counterexample.expect("trace emitted");
            let msg = replay_trace(&trace).expect("trace must reproduce");
            assert!(msg.contains("reproduced"), "{msg}");
        }
    }

    #[test]
    fn one_named_scenario_or_the_valid_names() {
        let out = run(true, 2, Some("mwmr2-n6")).expect("known scenario");
        assert_eq!(out.table.len(), 1);
        assert_eq!(out.table.cell(0, out.table.col("schedules")), "147");
        assert_eq!(out.table.cell(0, out.table.col("verdict")), "clean");
        assert!(out.counterexample.is_none());
        let err = run(true, 1, Some("nope")).err().expect("unknown scenario");
        assert!(err.contains("valid scenarios: concurrent-wr-n6, mwmr2-n6"), "{err}");
    }

    #[test]
    fn quick_sweep_is_clean_deterministic_and_rediscovers_theorem1() {
        let cells = sweep(true);
        // (3 clean scenarios + the rediscovery) × 2 worker counts.
        assert_eq!(cells.len(), 8);
        for c in &cells {
            if c.scenario == "theorem1-n5" {
                assert!(c.verdict.contains("replay verified"), "{}", c.verdict);
            } else {
                assert_eq!(c.verdict, "clean", "{} jobs={}", c.scenario, c.jobs);
            }
        }
        let json = sweep_json(&cells);
        assert!(json.contains("\"experiment\": \"e20\""));
        assert!(json.contains("\"cores\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn replay_trace_rejects_garbage() {
        assert!(replay_trace("scenario nope\n").is_err());
        assert!(replay_trace("event channel 0 1\n").is_err(), "missing scenario line");
        // A clean schedule of a real scenario is a replay *failure* — the
        // trace claims a violation that does not reproduce.
        let err = replay_trace("scenario concurrent-wr-n6\n").unwrap_err();
        assert!(err.contains("clean"), "{err}");
    }
}
