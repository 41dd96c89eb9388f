//! The exploration engine: a work-stealing pool over self-contained
//! branches.
//!
//! The unit of work — a `Branch` — is self-contained: replay by
//! [`EventKey`] is exact, so any worker can pick a branch up, replay its
//! prefix on a fresh [`Scenario::start`], and own the subtree.
//! [`ExplorerConfig::jobs`] OS threads share a global injector queue
//! (`crossbeam::deque`); each keeps a private LIFO stack for depth-first
//! locality and exports shallow siblings — forked at schedule depth below
//! [`SPLIT_DEPTH`] — to the injector, where idle workers steal them.
//! Shallow forks root the largest subtrees, so exporting only those keeps
//! stealing coarse-grained (a steal costs a prefix replay) while still
//! spreading work. One worker is the plain depth-first search.
//!
//! ## Determinism
//!
//! The schedule tree is a *fixed object*: every node's candidate list and
//! sleep set depend only on its path, never on traversal order. Any work
//! partition therefore covers exactly the same schedules, so — when
//! neither the schedule cap nor `stop_on_violation` cuts the sweep short —
//! [`explore`] returns bit-identical [`ExploreStats`] and violations for
//! every worker count, with violations sorted by `(schedule, description)`
//! to erase completion order (DESIGN.md §14).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crossbeam::deque::{Injector, Steal};
use sbft_net::EventKey;

use crate::{
    awake_candidates, independent, replay, sibling_sleep, Branch, ExploreReport, ExploreStats,
    ExplorerConfig, ReplayOutcome, Scenario, ScenarioRun, StepResult, Violation,
};

/// Siblings forked at schedule depth `< SPLIT_DEPTH` go to the shared
/// injector (stealable); deeper forks stay on the forking worker's local
/// stack. Shallow forks root big subtrees, so a small value keeps steals
/// coarse. The report does not depend on it (tests sweep it).
const SPLIT_DEPTH: usize = 3;

/// State shared by all workers of one [`explore`] call.
struct Shared<'a> {
    injector: Injector<Branch>,
    /// Branches handed to the injector whose subtrees are not yet fully
    /// explored. A worker that steals one owns it — including every
    /// descendant it keeps on its local stack — and decrements only when
    /// its local stack drains. Termination: injector empty and
    /// `outstanding == 0`.
    outstanding: AtomicUsize,
    /// Global completed-schedule count, checked against `max_schedules`
    /// at each branch start (under races the cap may be overshot by at
    /// most `jobs - 1` schedules).
    schedules: AtomicU64,
    /// Set when the schedule cap was hit.
    capped: AtomicBool,
    /// Set to abandon the remaining tree (cap hit or stop-on-violation).
    stop: AtomicBool,
    config: &'a ExplorerConfig,
    split_depth: usize,
}

/// Depth-bounded exhaustive search of the scenario's schedule tree on
/// [`ExplorerConfig::jobs`] workers.
///
/// For the first [`ExplorerConfig::branch_depth`] events of a schedule the
/// explorer forks on every enabled (non-sleeping) event; beyond the bound
/// it follows the first candidate in sorted key order. Every transition is
/// invariant-checked by the scenario; end-of-schedule invariants run via
/// [`ScenarioRun::finish`]. Merged stats are sums (`max_depth`: max) over
/// workers and violations are sorted by `(schedule, description)`, so the
/// report is independent of completion order.
pub fn explore<S: Scenario + Sync>(scenario: &S, config: &ExplorerConfig) -> ExploreReport {
    explore_split(scenario, config, SPLIT_DEPTH)
}

/// [`explore`] with the export depth as a parameter, so tests can show the
/// report does not depend on it.
pub(crate) fn explore_split<S: Scenario + Sync>(
    scenario: &S,
    config: &ExplorerConfig,
    split_depth: usize,
) -> ExploreReport {
    let jobs = config.jobs.max(1);
    let shared = Shared {
        injector: Injector::new(),
        outstanding: AtomicUsize::new(1),
        schedules: AtomicU64::new(0),
        capped: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        config,
        split_depth,
    };
    shared.injector.push(Branch { prefix: Vec::new(), sleep: Vec::new() });

    let results: Vec<(ExploreStats, Vec<Violation>)> = std::thread::scope(|s| {
        // The calling thread is the first worker: one job spawns nothing.
        let handles: Vec<_> = (1..jobs).map(|_| s.spawn(|| worker(scenario, &shared))).collect();
        let mut results = vec![worker(scenario, &shared)];
        results.extend(handles.into_iter().map(|h| h.join().expect("explorer worker panicked")));
        results
    });

    let mut stats = ExploreStats::default();
    let mut violations: Vec<Violation> = Vec::new();
    for (ws, wv) in results {
        stats.schedules += ws.schedules;
        stats.pruned += ws.pruned;
        stats.transitions += ws.transitions;
        stats.max_depth = stats.max_depth.max(ws.max_depth);
        violations.extend(wv);
    }
    stats.hit_schedule_cap = shared.capped.load(Ordering::Relaxed);
    violations.sort_by(|a, b| {
        a.schedule.cmp(&b.schedule).then_with(|| a.description.cmp(&b.description))
    });
    ExploreReport { stats, violations }
}

/// One worker: drain the local stack depth-first, steal from the injector
/// when it runs dry, exit when the whole pool is out of work.
fn worker<S: Scenario>(scenario: &S, sh: &Shared<'_>) -> (ExploreStats, Vec<Violation>) {
    let mut stats = ExploreStats::default();
    let mut violations: Vec<Violation> = Vec::new();
    let mut local: Vec<Branch> = Vec::new();
    // Whether this worker currently owns an injector unit: a stolen branch
    // whose descendants (the local stack) are still being explored.
    let mut owns_unit = false;
    loop {
        if sh.stop.load(Ordering::Relaxed) {
            break;
        }
        let branch = match local.pop() {
            Some(b) => b,
            None => {
                if owns_unit {
                    owns_unit = false;
                    sh.outstanding.fetch_sub(1, Ordering::AcqRel);
                }
                match sh.injector.steal() {
                    Steal::Success(b) => {
                        owns_unit = true;
                        b
                    }
                    Steal::Retry => continue,
                    Steal::Empty => {
                        if sh.outstanding.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                }
            }
        };
        if sh.schedules.load(Ordering::Relaxed) >= sh.config.max_schedules {
            stats.hit_schedule_cap = true;
            sh.capped.store(true, Ordering::Relaxed);
            sh.stop.store(true, Ordering::Relaxed);
            break;
        }
        explore_branch(scenario, sh, branch, &mut local, &mut stats, &mut violations);
    }
    if owns_unit {
        sh.outstanding.fetch_sub(1, Ordering::AcqRel);
    }
    (stats, violations)
}

/// Replay one branch's prefix and extend it to a complete schedule,
/// forking siblings to the local stack or the injector. A completed
/// schedule also bumps the global counter so the `max_schedules` cap is
/// pool-wide.
fn explore_branch<S: Scenario>(
    scenario: &S,
    sh: &Shared<'_>,
    branch: Branch,
    local: &mut Vec<Branch>,
    stats: &mut ExploreStats,
    violations: &mut Vec<Violation>,
) {
    let config = sh.config;
    let mut run = scenario.start();
    let mut schedule: Vec<EventKey> = Vec::with_capacity(branch.prefix.len() + 16);

    let complete = |stats: &mut ExploreStats, len: usize| {
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(len);
        sh.schedules.fetch_add(1, Ordering::Relaxed);
    };

    for &key in &branch.prefix {
        stats.transitions += 1;
        match run.step(key) {
            StepResult::Ok => schedule.push(key),
            StepResult::Violation(description) => {
                schedule.push(key);
                complete(stats, schedule.len());
                violations.push(Violation { schedule, description });
                if config.stop_on_violation {
                    sh.stop.store(true, Ordering::Relaxed);
                }
                return;
            }
            StepResult::Infeasible => {
                panic!(
                    "explorer replay diverged at step {} of {:?} — scenario::start is not deterministic",
                    schedule.len(),
                    branch.prefix
                );
            }
        }
    }

    let mut sleep = branch.sleep;
    loop {
        let enabled = run.enabled();
        if enabled.is_empty() {
            complete(stats, schedule.len());
            if let Some(description) = run.finish(false) {
                violations.push(Violation { schedule, description });
                if config.stop_on_violation {
                    sh.stop.store(true, Ordering::Relaxed);
                }
            }
            return;
        }
        if schedule.len() >= config.max_steps {
            complete(stats, schedule.len());
            if let Some(description) = run.finish(true) {
                violations.push(Violation { schedule, description });
                if config.stop_on_violation {
                    sh.stop.store(true, Ordering::Relaxed);
                }
            }
            return;
        }
        let candidates: Vec<EventKey> =
            if config.prune { awake_candidates(&enabled, &sleep) } else { enabled };
        let Some(&first) = candidates.first() else {
            stats.pruned += 1;
            return;
        };
        if schedule.len() < config.branch_depth {
            for i in (1..candidates.len()).rev() {
                let ci = candidates[i];
                let alt_sleep: Vec<EventKey> = if config.prune {
                    sibling_sleep(&sleep, &candidates[..i], ci)
                } else {
                    Vec::new()
                };
                let mut prefix = schedule.clone();
                prefix.push(ci);
                let sibling = Branch { prefix, sleep: alt_sleep };
                if schedule.len() < sh.split_depth {
                    // Export for stealing: count it outstanding *before*
                    // it becomes visible, so no worker can observe an
                    // empty injector with a zero count while it is alive.
                    sh.outstanding.fetch_add(1, Ordering::AcqRel);
                    sh.injector.push(sibling);
                } else {
                    local.push(sibling);
                }
            }
        }
        if config.prune {
            sleep.retain(|&z| independent(z, first));
        }
        stats.transitions += 1;
        match run.step(first) {
            StepResult::Ok => schedule.push(first),
            StepResult::Violation(description) => {
                schedule.push(first);
                complete(stats, schedule.len());
                violations.push(Violation { schedule, description });
                if config.stop_on_violation {
                    sh.stop.store(true, Ordering::Relaxed);
                }
                return;
            }
            StepResult::Infeasible => {
                panic!("enabled key {first:?} refused to step — substrate and scenario disagree");
            }
        }
    }
}

/// Shrink a violating schedule to a 1-minimal one: each round tests every
/// single-event removal on `jobs` threads and applies the one at the
/// **lowest** index that still violates (anywhere — the violation may move
/// earlier), truncated at its violating event, so the result is identical
/// for every `jobs` value; workers skip indexes above the best hit found so
/// far. Terminates because length strictly decreases; the result violates
/// on replay and no single further removal keeps it violating. `O(n²)`
/// replays in the worst case, on schedules that are typically tens of
/// events. `jobs` 0 is treated as 1.
pub fn shrink<S: Scenario + Sync>(scenario: &S, violation: &Violation, jobs: usize) -> Violation {
    let jobs = jobs.max(1);
    let mut current = violation.schedule.clone();
    let mut description = violation.description.clone();
    loop {
        let n = current.len();
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Vec<(usize, Vec<EventKey>, String)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for w in 0..jobs {
                let (current, best, found) = (&current, &best, &found);
                s.spawn(move || {
                    let mut i = w;
                    while i < n {
                        if i > best.load(Ordering::Relaxed) {
                            break; // a lower index already violates
                        }
                        let mut candidate = current.clone();
                        candidate.remove(i);
                        if let ReplayOutcome::Violation { at, description } =
                            replay(scenario, &candidate)
                        {
                            candidate.truncate(at + 1);
                            best.fetch_min(i, Ordering::Relaxed);
                            found.lock().unwrap().push((i, candidate, description));
                        }
                        i += jobs;
                    }
                });
            }
        });
        let round = found.into_inner().unwrap();
        match round.into_iter().min_by_key(|(i, _, _)| *i) {
            Some((_, cand, desc)) => {
                current = cand;
                description = desc;
            }
            None => break,
        }
    }
    Violation { schedule: current, description }
}
