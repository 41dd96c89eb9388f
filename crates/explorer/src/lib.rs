//! # sbft-explorer — bounded-exhaustive schedule exploration
//!
//! The paper's guarantees are quantified over *every* asynchronous
//! schedule, but the harness otherwise only samples schedules (seeded
//! delays, nemesis scripts). This crate checks small configurations
//! *exhaustively*: a depth-bounded search forks on every enabled event of the
//! deterministic simulator — the FIFO head of each in-flight channel, each
//! pending timer — and asserts the register specification after every
//! transition.
//!
//! ## Design: step-replay, not state-forking
//!
//! Protocol processes are `Box<dyn Automaton>` state machines and are
//! deliberately **not** cloneable (real implementations hold whatever they
//! hold), so the explorer cannot snapshot a simulator mid-run and fork it.
//! Instead it relies on the substrate's end-to-end determinism: a
//! [`Scenario`] rebuilds the *identical* initial state on every
//! [`Scenario::start`], and a schedule is re-entered by replaying its
//! [`EventKey`] choice sequence through [`Simulation::step_key`]. Replay
//! costs `O(depth)` per schedule, but keys — `(src, dst)` channel
//! identities and `(pid, id)` timer identities — stay meaningful across
//! interleavings, which is also what makes shrunk counterexample traces
//! replayable verbatim.
//!
//! [`Simulation::step_key`]: sbft_net::Simulation::step_key
//!
//! ## Pruning: sleep sets over an independence relation
//!
//! Two enabled events *commute* when they touch different destination
//! processes: per-channel FIFO plus deterministic automata mean delivering
//! to `p` then `q` or `q` then `p` reaches the same state. The classic
//! sleep-set construction (Godefroid) exploits this: after exploring
//! candidate `c₀` from a node, the sibling branch taken instead inherits
//! `c₀` in its *sleep set* and never re-executes it first while it stays
//! independent of everything chosen since — cutting the factorial blowup
//! of equivalent orderings without missing any inequivalent one.
//!
//! On violation the offending schedule is shrunk to a 1-minimal event
//! sequence ([`shrink`]) and serialized as a replayable trace file
//! ([`format_trace`] / [`parse_trace`]) that `harness explore --replay`
//! re-executes verbatim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod scenario;

pub use engine::{explore, shrink};

use sbft_net::{EventKey, ProcessId, ENV};

/// Result of executing one explorer-chosen event against a scenario run.
#[derive(Clone, Debug)]
pub enum StepResult {
    /// The event executed and every invariant still holds.
    Ok,
    /// The event executed and broke an invariant (description attached).
    Violation(String),
    /// The key is not enabled in this run — replaying a schedule against
    /// the wrong scenario state, or a shrink candidate that removed an
    /// event some later event depended on.
    Infeasible,
}

/// A deterministic, restartable system-under-test.
///
/// `start` must rebuild the *identical* initial state every time it is
/// called — the explorer re-enters schedules by replaying key sequences
/// from scratch, so any nondeterminism in setup breaks both exploration
/// and counterexample replay.
pub trait Scenario {
    /// Per-run state.
    type Run: ScenarioRun;
    /// Stable name, used in trace files and reports.
    fn name(&self) -> &str;
    /// Build a fresh run at the schedule's fork point.
    fn start(&self) -> Self::Run;
}

/// One run of a scenario, stepped event-by-event by the explorer.
pub trait ScenarioRun {
    /// The currently enabled event keys (sorted, duplicate-free).
    fn enabled(&self) -> Vec<EventKey>;
    /// Execute one enabled event and re-check the invariants.
    fn step(&mut self, key: EventKey) -> StepResult;
    /// A schedule ended: `bounded` is true when it was cut by the step
    /// budget rather than reaching quiescence. Returns a violation
    /// description for end-of-schedule invariants (e.g. termination —
    /// a quiescent network with operations still open means some op can
    /// never complete; only checkable when `!bounded`).
    fn finish(&mut self, bounded: bool) -> Option<String>;
}

/// Exploration bounds and toggles.
#[derive(Clone, Debug)]
pub struct ExplorerConfig {
    /// Fork on every enabled event for the first `branch_depth` events of
    /// a schedule; beyond that, follow the first candidate only. Bounds
    /// the tree width without cutting schedules short.
    pub branch_depth: usize,
    /// Hard cap on events per schedule (guards non-terminating runs).
    pub max_steps: usize,
    /// Stop exploring after this many complete schedules.
    pub max_schedules: u64,
    /// Enable sleep-set pruning. Sound for deterministic automata over
    /// FIFO channels; disable to count the raw schedule tree.
    pub prune: bool,
    /// Abandon the remaining tree at the first violation.
    pub stop_on_violation: bool,
    /// Worker threads exploring the tree. `0` is treated as `1`.
    pub jobs: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            branch_depth: 5,
            max_steps: 5_000,
            max_schedules: 20_000,
            prune: true,
            stop_on_violation: false,
            jobs: 1,
        }
    }
}

/// Counters accumulated over one [`explore`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules executed (to quiescence, the step cap, or a
    /// violation).
    pub schedules: u64,
    /// Branches abandoned because every enabled event was sleeping — each
    /// stands for a subtree equivalent to one already explored.
    pub pruned: u64,
    /// Total `step` calls, including prefix replays.
    pub transitions: u64,
    /// Longest schedule seen.
    pub max_depth: usize,
    /// Whether the `max_schedules` cap cut the exploration short.
    pub hit_schedule_cap: bool,
}

/// A schedule that broke an invariant: the exact `EventKey` sequence from
/// the scenario's fork point up to and including the violating event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violating schedule (replay with [`replay`]).
    pub schedule: Vec<EventKey>,
    /// Human-readable description of the broken invariant.
    pub description: String,
}

/// Everything [`explore`] found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// Violations sorted by `(schedule, description)` (empty on a clean
    /// sweep).
    pub violations: Vec<Violation>,
}

/// Destination process of an event — the process whose state it mutates.
fn dest(key: EventKey) -> ProcessId {
    match key {
        EventKey::Channel { to, .. } => to,
        EventKey::Timer { pid, .. } => pid,
    }
}

/// Whether two *distinct* enabled events commute: they mutate different
/// destination processes, so (with per-channel FIFO and deterministic
/// automata) executing them in either order reaches the same state. Events
/// with the same destination never commute — the handler order is visible
/// in that process's state.
pub fn independent(a: EventKey, b: EventKey) -> bool {
    a != b && dest(a) != dest(b)
}

/// One pending branch: a schedule prefix to replay plus the sleep set
/// it inherited at its fork point. Because replay by [`EventKey`] is exact,
/// a `Branch` is fully self-contained — any worker can pick it up, replay
/// the prefix on a fresh [`Scenario::start`], and own the subtree.
///
/// Invariant: `sleep` is sorted ascending and duplicate-free. The root
/// starts empty, sibling sets are built by sorted merge
/// ([`sibling_sleep`]), and the in-place `retain` filter preserves order,
/// so the invariant holds everywhere without re-sorting.
pub(crate) struct Branch {
    pub(crate) prefix: Vec<EventKey>,
    pub(crate) sleep: Vec<EventKey>,
}

/// `enabled \ sleep` in a single merge walk — both inputs are sorted
/// ascending and duplicate-free (`enabled` by `Simulation::enabled_events`,
/// `sleep` by the [`Branch`] invariant), so this replaces the former
/// per-candidate `sleep.contains` linear scan on the innermost loop.
pub(crate) fn awake_candidates(enabled: &[EventKey], sleep: &[EventKey]) -> Vec<EventKey> {
    let mut out = Vec::with_capacity(enabled.len());
    let mut s = 0;
    for &e in enabled {
        while s < sleep.len() && sleep[s] < e {
            s += 1;
        }
        if sleep.get(s) != Some(&e) {
            out.push(e);
        }
    }
    out
}

/// The sleep set a sibling branch inherits: everything the node already
/// slept on plus the siblings explored before it, filtered to what stays
/// independent of the sibling's first move `of`. `sleep` and `explored`
/// are sorted and disjoint (explored candidates are awake by definition),
/// so a sorted merge replaces the former `O(|sleep|·|candidates|)`
/// chain-and-filter and keeps the output sorted for free.
pub(crate) fn sibling_sleep(
    sleep: &[EventKey],
    explored: &[EventKey],
    of: EventKey,
) -> Vec<EventKey> {
    let mut out = Vec::with_capacity(sleep.len() + explored.len());
    let (mut a, mut b) = (0, 0);
    loop {
        let next = match (sleep.get(a), explored.get(b)) {
            (Some(&x), Some(&y)) if x <= y => {
                a += 1;
                x
            }
            (_, Some(&y)) => {
                b += 1;
                y
            }
            (Some(&x), None) => {
                a += 1;
                x
            }
            (None, None) => break,
        };
        if independent(next, of) {
            out.push(next);
        }
    }
    out
}

/// Outcome of replaying a schedule against a fresh run of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Event `at` (0-based) broke an invariant.
    Violation {
        /// Index of the violating event in the schedule.
        at: usize,
        /// Description of the broken invariant.
        description: String,
    },
    /// Every event executed without violation.
    Clean {
        /// Number of events executed.
        steps: usize,
    },
    /// Event `at` was not enabled — the schedule does not fit this
    /// scenario state.
    Infeasible {
        /// Index of the infeasible event.
        at: usize,
        /// The key that failed to step.
        key: EventKey,
    },
}

/// Replay `schedule` verbatim against a fresh run of `scenario`.
pub fn replay<S: Scenario>(scenario: &S, schedule: &[EventKey]) -> ReplayOutcome {
    let mut run = scenario.start();
    for (at, &key) in schedule.iter().enumerate() {
        match run.step(key) {
            StepResult::Ok => {}
            StepResult::Violation(description) => {
                return ReplayOutcome::Violation { at, description }
            }
            StepResult::Infeasible => return ReplayOutcome::Infeasible { at, key },
        }
    }
    ReplayOutcome::Clean { steps: schedule.len() }
}

/// A parsed counterexample trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// Name of the scenario the schedule belongs to.
    pub scenario: String,
    /// Description of the violation the schedule triggers.
    pub violation: String,
    /// The event schedule.
    pub schedule: Vec<EventKey>,
}

/// Pid serialization: the environment pseudo-process is spelled `env`.
fn pid_str(pid: ProcessId) -> String {
    if pid == ENV {
        "env".into()
    } else {
        pid.to_string()
    }
}

fn parse_pid(s: &str) -> Result<ProcessId, String> {
    if s == "env" {
        Ok(ENV)
    } else {
        s.parse().map_err(|_| format!("bad process id {s:?}"))
    }
}

/// Serialize a found-and-shrunk counterexample as a replayable trace file.
/// The format is line-oriented plain text (one `event` line per schedule
/// entry) so a trace diff reads as a schedule diff.
pub fn format_trace(scenario: &str, violation: &Violation) -> String {
    let mut out = String::new();
    out.push_str("# sbft explorer counterexample trace\n");
    out.push_str(&format!("scenario {scenario}\n"));
    out.push_str(&format!("violation {}\n", violation.description.replace('\n', " ")));
    for &key in &violation.schedule {
        match key {
            EventKey::Channel { from, to } => {
                out.push_str(&format!("event channel {} {}\n", pid_str(from), pid_str(to)));
            }
            EventKey::Timer { pid, id } => {
                out.push_str(&format!("event timer {} {}\n", pid_str(pid), id));
            }
        }
    }
    out
}

/// Parse a trace file produced by [`format_trace`].
pub fn parse_trace(text: &str) -> Result<TraceFile, String> {
    let mut scenario = None;
    let mut violation = String::new();
    let mut schedule = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
        if let Some(rest) = line.strip_prefix("scenario ") {
            scenario = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("violation ") {
            violation = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("event ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let key = match parts.as_slice() {
                ["channel", from, to] => EventKey::Channel {
                    from: parse_pid(from).map_err(|e| err(&e))?,
                    to: parse_pid(to).map_err(|e| err(&e))?,
                },
                ["timer", pid, id] => EventKey::Timer {
                    pid: parse_pid(pid).map_err(|e| err(&e))?,
                    id: id.parse().map_err(|_| err("bad timer id"))?,
                },
                _ => return Err(err("unknown event form")),
            };
            schedule.push(key);
        } else {
            return Err(err("unknown directive"));
        }
    }
    let scenario = scenario.ok_or("missing `scenario` line".to_string())?;
    Ok(TraceFile { scenario, violation, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A deterministic toy system: three messages in flight to three
    /// distinct processes, plus one follow-up unlocked by the first. A
    /// violation triggers iff process 2's message is delivered before
    /// process 1's.
    struct Toy;

    struct ToyRun {
        delivered: Vec<EventKey>,
        pending: Vec<EventKey>,
    }

    fn chan(from: ProcessId, to: ProcessId) -> EventKey {
        EventKey::Channel { from, to }
    }

    impl Scenario for Toy {
        type Run = ToyRun;
        fn name(&self) -> &str {
            "toy"
        }
        fn start(&self) -> ToyRun {
            ToyRun { delivered: Vec::new(), pending: vec![chan(0, 1), chan(0, 2), chan(0, 3)] }
        }
    }

    impl ScenarioRun for ToyRun {
        fn enabled(&self) -> Vec<EventKey> {
            let mut v = self.pending.clone();
            v.sort_unstable();
            v
        }
        fn step(&mut self, key: EventKey) -> StepResult {
            let Some(i) = self.pending.iter().position(|&k| k == key) else {
                return StepResult::Infeasible;
            };
            self.pending.remove(i);
            if key == chan(0, 1) {
                self.pending.push(chan(1, 3)); // follow-up hop
            }
            self.delivered.push(key);
            let d2 = self.delivered.iter().position(|&k| k == chan(0, 2));
            let d1 = self.delivered.iter().position(|&k| k == chan(0, 1));
            match (d1, d2) {
                (None, Some(_)) => StepResult::Violation("2 before 1".into()),
                _ => StepResult::Ok,
            }
        }
        fn finish(&mut self, _bounded: bool) -> Option<String> {
            (!self.pending.is_empty()).then(|| "pending left".into())
        }
    }

    fn cfg(prune: bool) -> ExplorerConfig {
        ExplorerConfig { branch_depth: 16, prune, stop_on_violation: false, ..Default::default() }
    }

    /// What the brute-force oracle saw: the schedule count and every
    /// violation as `(schedule, description)`.
    #[derive(Default)]
    struct Brute {
        schedules: u64,
        violations: BTreeSet<(Vec<EventKey>, String)>,
    }

    /// The engine's independent reference: enumerate the raw schedule tree
    /// below `path` by plain recursion — replay the path, fork on every
    /// enabled event while the schedule is shorter than `depth`, then
    /// follow the first enabled event to the end. No sleep sets, no stack,
    /// no caps, and none of the engine's helpers.
    fn brute<S: Scenario>(s: &S, depth: usize, path: &[EventKey], out: &mut Brute) {
        let mut run = s.start();
        let mut schedule = path.to_vec();
        let mut verdict = None;
        for &key in path {
            match run.step(key) {
                StepResult::Ok => {}
                StepResult::Violation(d) => verdict = Some(d),
                StepResult::Infeasible => panic!("{key:?} was enabled, then refused to step"),
            }
        }
        while verdict.is_none() {
            let enabled = run.enabled();
            let Some(&first) = enabled.first() else {
                verdict = run.finish(false);
                break;
            };
            if schedule.len() < depth {
                for key in enabled {
                    brute(s, depth, &[schedule.as_slice(), &[key]].concat(), out);
                }
                return;
            }
            schedule.push(first);
            if let StepResult::Violation(d) = run.step(first) {
                verdict = Some(d);
            }
        }
        out.schedules += 1;
        out.violations.extend(verdict.map(|d| (schedule, d)));
    }

    fn descriptions<'a>(violations: impl IntoIterator<Item = &'a String>) -> BTreeSet<&'a str> {
        violations.into_iter().map(String::as_str).collect()
    }

    /// Oracle checks on one scenario: the unpruned engine visits exactly
    /// the brute-force tree, and pruning loses no violation description,
    /// for every worker count.
    fn check_against_brute<S: Scenario + Sync>(
        s: &S,
        branch_depth: usize,
    ) -> (Brute, ExploreReport) {
        let mut oracle = Brute::default();
        brute(s, branch_depth, &[], &mut oracle);
        let mut pruned = None;
        for jobs in [1, 2, 4] {
            let config = ExplorerConfig { branch_depth, jobs, ..cfg(false) };
            let raw = explore(s, &config);
            assert_eq!(raw.stats.schedules, oracle.schedules, "{} jobs={jobs}", s.name());
            assert_eq!(raw.stats.pruned, 0);
            let found: BTreeSet<_> = raw
                .violations
                .iter()
                .map(|v| (v.schedule.clone(), v.description.clone()))
                .collect();
            assert_eq!(found.len(), raw.violations.len(), "a schedule was explored twice");
            assert_eq!(found, oracle.violations, "{} jobs={jobs}", s.name());

            let rep = explore(s, &ExplorerConfig { prune: true, ..config });
            assert!(rep.stats.schedules <= oracle.schedules);
            assert_eq!(
                descriptions(rep.violations.iter().map(|v| &v.description)),
                descriptions(oracle.violations.iter().map(|(_, d)| d)),
                "{} jobs={jobs}: pruning changed the violation-description set",
                s.name()
            );
            pruned = Some(rep);
        }
        (oracle, pruned.expect("three runs"))
    }

    #[test]
    fn toy_tree_matches_the_brute_force_oracle() {
        let (oracle, pruned) = check_against_brute(&Toy, 16);
        // Orders of {1,2,3,then 1→3}: schedules that deliver 2 first stop
        // immediately (violation), so the tree is smaller than 4!.
        assert!(oracle.schedules > 4 && !oracle.violations.is_empty());
        assert!(oracle.violations.iter().all(|(_, d)| d == "2 before 1"));
        assert!(pruned.stats.schedules < oracle.schedules, "sleep sets must prune");
        assert!(pruned.stats.pruned > 0);
    }

    #[test]
    fn concurrent_wr_n6_tree_matches_the_brute_force_oracle() {
        let s = scenario::RegisterScenario::concurrent_write_read();
        let (oracle, pruned) = check_against_brute(&s, 3);
        assert!(oracle.violations.is_empty(), "concurrent-wr-n6 is clean");
        assert!(pruned.stats.schedules < oracle.schedules, "sleep sets must prune");
    }

    #[test]
    fn shrink_reaches_the_minimal_counterexample_for_every_worker_count() {
        let report = explore(&Toy, &cfg(true));
        let v = report.violations.first().expect("toy violates");
        for jobs in [1, 2, 4] {
            let min = shrink(&Toy, v, jobs);
            // Minimal: deliver (0,2) alone.
            assert_eq!(min.schedule, vec![chan(0, 2)], "jobs={jobs}");
            assert_eq!(min.description, "2 before 1");
            assert_eq!(
                replay(&Toy, &min.schedule),
                ReplayOutcome::Violation { at: 0, description: "2 before 1".into() }
            );
        }
    }

    #[test]
    fn trace_round_trips() {
        let v = Violation {
            schedule: vec![chan(ENV, 0), chan(0, 2), EventKey::Timer { pid: 3, id: 42 }],
            description: "something\nbroke".into(),
        };
        let text = format_trace("toy", &v);
        let parsed = parse_trace(&text).expect("round trip");
        assert_eq!(parsed.scenario, "toy");
        assert_eq!(parsed.violation, "something broke");
        assert_eq!(parsed.schedule, v.schedule);
        assert!(parse_trace("event warp 1 2\n").is_err());
        assert!(parse_trace("").is_err(), "missing scenario line");
    }

    #[test]
    fn awake_candidates_is_sorted_set_difference() {
        let enabled = vec![chan(0, 1), chan(0, 2), chan(1, 3), chan(2, 3)];
        let sleep = vec![chan(0, 2), chan(2, 3)];
        assert_eq!(awake_candidates(&enabled, &sleep), vec![chan(0, 1), chan(1, 3)]);
        assert_eq!(awake_candidates(&enabled, &[]), enabled);
        assert_eq!(awake_candidates(&[], &sleep), Vec::<EventKey>::new());
        // Sleepers not currently enabled are simply skipped over.
        let sleep = vec![chan(0, 0), chan(9, 9)];
        assert_eq!(awake_candidates(&enabled, &sleep), enabled);
    }

    #[test]
    fn sibling_sleep_merges_sorted_and_filters_dependents() {
        let sleep = vec![chan(0, 1), chan(1, 3)];
        let explored = vec![chan(0, 2), chan(0, 4)];
        // Sibling's first move targets process 4: chan(0,4) is dependent
        // (same destination) and must not survive into its sleep set.
        let got = sibling_sleep(&sleep, &explored, chan(1, 4));
        assert_eq!(got, vec![chan(0, 1), chan(0, 2), chan(1, 3)]);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "merge output must stay sorted");
        // Matches the original chain-and-filter construction.
        let reference: Vec<EventKey> = sleep
            .iter()
            .chain(explored.iter())
            .copied()
            .filter(|&z| independent(z, chan(1, 4)))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn report_is_identical_for_every_worker_count_and_split_depth() {
        for prune in [false, true] {
            let base = explore(&Toy, &cfg(prune));
            for jobs in [1, 2, 4] {
                for split_depth in [0, 2, 16] {
                    let config = ExplorerConfig { jobs, ..cfg(prune) };
                    let rep = engine::explore_split(&Toy, &config, split_depth);
                    let at = format!("jobs={jobs} split={split_depth} prune={prune}");
                    assert_eq!(rep.stats, base.stats, "{at}");
                    assert_eq!(rep.violations, base.violations, "{at}");
                }
            }
        }
    }

    #[test]
    fn step_cap_cuts_schedules_and_flags_bounded_finish() {
        let config = ExplorerConfig { max_steps: 1, branch_depth: 0, ..Default::default() };
        let report = explore(&Toy, &config);
        assert_eq!(report.stats.schedules, 1, "branch_depth 0 follows one schedule");
        assert_eq!(report.stats.max_depth, 1);
        // finish(bounded=true) in the toy still reports pending events.
        assert_eq!(report.violations.len(), 1);
    }
}
