//! The one nemesis soak loop: a write/read workload under a fault
//! schedule, scored by **stable windows**.
//!
//! The paper's guarantee is conditional — regularity holds from the first
//! completed post-fault write on (Assumption A1) — and a cured or rebooted
//! server is unconverged until that write. Every verdict the soak
//! experiments print is therefore a statement about stable windows, and
//! this module is the single place the rule is written down:
//!
//! 1. fire every due nemesis event;
//! 2. feed the whole fired log and every cure to the [`WindowTracker`] — a
//!    disturbance ([`sbft_net::NemesisEvent::is_disturbance`]) or a cure
//!    closes the open window;
//! 3. one write, then one read; a completed write under an all-clear
//!    nemesis converges every cured server and opens a window;
//! 4. if the substrate clock did not move, fast-forward the next event so
//!    the soak always terminates;
//! 5. at the end: feed what step 4 fired last, run one more write + read
//!    (liveness must be back), let traffic settle, and check regularity
//!    over the recorded windows and over the full history.
//!
//! [`Soak::run`] is the whole loop; tests that assert between steps drive
//! [`Soak::round`] themselves and read the public fields.

use std::collections::BTreeMap;

use sbft_net::nemesis::NemesisRunner;
use sbft_net::{ProcessId, Substrate};

use crate::cluster::{Cluster, Envelope, OpOutcome, ReadOk};
use crate::spec::WindowTracker;
use crate::Ts;

/// Safety cap on workload rounds in [`Soak::run`].
const MAX_ROUNDS: u64 = 4_000;

/// Event budget for draining in-flight traffic before scoring.
const SETTLE_EVENTS: u64 = 200_000;

/// What one soak measured. Every field is a count or a sum, so reports
/// from several seeds fold into one with [`SoakReport::absorb`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Completed writes.
    pub writes_ok: u64,
    /// Completed reads.
    pub reads_ok: u64,
    /// Reads that aborted (split replies, no `2f+1` witness, union off).
    pub aborted: u64,
    /// Operations that died on a lone deadline (or a stuck driver).
    pub timed_out: u64,
    /// Operations that burned through every retry.
    pub exhausted: u64,
    /// Nemesis events fired, recoveries included.
    pub events_fired: u64,
    /// Disturbances fired, by [`sbft_net::NemesisEvent::kind`].
    pub disturbances: BTreeMap<&'static str, u64>,
    /// Cures observed: seats vacated by the adversary plus damaged-disk
    /// reboots. Each closes the open window until the next converging write.
    pub cures: u64,
    /// Times the nemesis went all-clear and a full write + read round
    /// then succeeded.
    pub heals: u64,
    /// Summed time from each such all-clear to the end of that round.
    pub heal_ticks: u64,
    /// Cures followed by a completed all-clear write.
    pub converged: u64,
    /// Summed cure-to-converging-write time in substrate ticks.
    pub converge_ticks: u64,
    /// Summed cure-to-converging-write cost in client operations.
    pub converge_ops: u64,
    /// Worst single cure-to-converging-write time in ticks.
    pub max_converge_ticks: u64,
    /// Completed reads older than the last acknowledged write.
    pub lost_reads: u64,
    /// Soaks whose final write or read, after the last fault healed, did
    /// not complete (must be 0).
    pub post_heal_failures: u64,
    /// Stable windows that formed.
    pub windows: u64,
    /// Regularity violations inside stable windows.
    pub window_violations: usize,
    /// Regularity violations over the full history (no windowing).
    pub full_violations: usize,
    /// New/old inversions (atomicity score) over the full history.
    pub inversions: usize,
}

impl SoakReport {
    /// Disturbances of `kind` fired.
    pub fn fired(&self, kind: &str) -> u64 {
        self.disturbances.get(kind).copied().unwrap_or(0)
    }

    /// Mean all-clear-to-successful-round time in substrate ticks.
    pub fn mean_heal_ticks(&self) -> u64 {
        self.heal_ticks.checked_div(self.heals).unwrap_or(0)
    }

    /// Mean cure-to-converging-write time in substrate ticks.
    pub fn mean_converge_ticks(&self) -> u64 {
        self.converge_ticks.checked_div(self.converged).unwrap_or(0)
    }

    /// Mean cure-to-converging-write cost in client operations.
    pub fn mean_converge_ops(&self) -> u64 {
        self.converge_ops.checked_div(self.converged).unwrap_or(0)
    }

    /// Fold another soak's report into this one.
    pub fn absorb(&mut self, other: &SoakReport) {
        self.writes_ok += other.writes_ok;
        self.reads_ok += other.reads_ok;
        self.aborted += other.aborted;
        self.timed_out += other.timed_out;
        self.exhausted += other.exhausted;
        self.events_fired += other.events_fired;
        for (kind, n) in &other.disturbances {
            *self.disturbances.entry(kind).or_insert(0) += n;
        }
        self.cures += other.cures;
        self.heals += other.heals;
        self.heal_ticks += other.heal_ticks;
        self.converged += other.converged;
        self.converge_ticks += other.converge_ticks;
        self.converge_ops += other.converge_ops;
        self.max_converge_ticks = self.max_converge_ticks.max(other.max_converge_ticks);
        self.lost_reads += other.lost_reads;
        self.post_heal_failures += other.post_heal_failures;
        self.windows += other.windows;
        self.window_violations += other.window_violations;
        self.full_violations += other.full_violations;
        self.inversions += other.inversions;
    }

    fn tally<T>(&mut self, out: &OpOutcome<T>, is_write: bool) {
        match out {
            OpOutcome::Ok(_) if is_write => self.writes_ok += 1,
            OpOutcome::Ok(_) => self.reads_ok += 1,
            OpOutcome::Aborted => self.aborted += 1,
            OpOutcome::TimedOut { .. } => self.timed_out += 1,
            OpOutcome::Exhausted { .. } => self.exhausted += 1,
        }
    }
}

/// The outcomes of one round's write and read.
pub type RoundOutcome<B> = (OpOutcome<Ts<B>>, OpOutcome<ReadOk<B>>);

/// A running soak on one register of the cluster: client 0 writes
/// increasing values to `key`, client 1 reads it, `runner` injects faults,
/// `tracker` keeps the stable windows.
pub struct Soak<'a, W: Envelope, S> {
    /// The cluster under test.
    pub cluster: &'a mut Cluster<W, S>,
    /// The fault schedule being fired.
    pub runner: NemesisRunner<W::Msg, W::Out>,
    /// Stable-window bookkeeping, current as of the last [`Soak::fire`].
    pub tracker: WindowTracker,
    report: SoakReport,
    key: W::Key,
    writer: ProcessId,
    reader: ProcessId,
    value: u64,
    last_acked: u64,
    ops: u64,
    /// Prefixes of `runner.log` / `cures` / `clear_times` already scored.
    log_seen: usize,
    cures_seen: usize,
    clears_seen: usize,
    /// Cures awaiting their converging write: (cure time, ops so far).
    unconverged: Vec<(u64, u64)>,
}

impl<'a, W, S> Soak<'a, W, S>
where
    W: Envelope,
    S: Substrate<W::Msg, W::Out>,
{
    /// Start a soak on the register `key`: seeds it (and the first stable
    /// window) with one write before any fault fires. The cluster needs two
    /// clients.
    pub fn new(
        cluster: &'a mut Cluster<W, S>,
        key: W::Key,
        runner: NemesisRunner<W::Msg, W::Out>,
    ) -> Self {
        let (writer, reader) = (cluster.client(0), cluster.client(1));
        let mut soak = Self {
            cluster,
            runner,
            tracker: WindowTracker::new(),
            report: SoakReport::default(),
            key,
            writer,
            reader,
            value: 0,
            last_acked: 0,
            ops: 0,
            log_seen: 0,
            cures_seen: 0,
            clears_seen: 0,
            unconverged: Vec::new(),
        };
        soak.write();
        soak
    }

    /// Run rounds until the schedule is exhausted, then [`Soak::finish`].
    pub fn run(mut self) -> SoakReport {
        let mut rounds = 0;
        while !self.runner.done() && rounds < MAX_ROUNDS {
            rounds += 1;
            self.round();
        }
        self.finish()
    }

    /// Fire every due nemesis event and bring the tracker up to date.
    /// [`Soak::round`] starts with this; calling it first as well lets a
    /// test assert on the tracker before the round's write.
    pub fn fire(&mut self) {
        self.runner.fire_due(&mut self.cluster.sim);
        self.observe();
    }

    /// One round: fire, write, read, and the fast-forward valve.
    pub fn round(&mut self) -> RoundOutcome<W::Base> {
        let before = self.mark();
        self.fire();
        let out = self.write_read();
        self.valve(before);
        out
    }

    /// Drain what the last valve fired, run the epilogue write + read,
    /// settle, and score the history.
    pub fn finish(mut self) -> SoakReport {
        self.observe();
        let (wout, rout) = self.write_read();
        if !wout.is_ok() || !rout.is_ok() {
            self.report.post_heal_failures += 1;
        }
        self.cluster.settle(SETTLE_EVENTS);

        let mut report = self.report;
        report.events_fired = self.runner.log.len() as u64;
        for fired in self.runner.log.iter().filter(|f| f.disturbance) {
            *report.disturbances.entry(fired.kind).or_insert(0) += 1;
        }
        if let Err(errs) = self.cluster.check_key(self.key) {
            report.full_violations = errs.len();
        }
        // The seed write of `new` created this register's history.
        let (sys, history) = (&self.cluster.sys, &self.cluster.recorders[&self.key]);
        for (start, end) in self.tracker.finish(u64::MAX) {
            report.windows += 1;
            if let Err(errs) = history.check_window(sys, start, end) {
                report.window_violations += errs.len();
            }
        }
        report.inversions = history.new_old_inversions().len();
        report
    }

    /// Feed everything fired since the last call to the tracker — by
    /// `fire_due` or by the valve, so every disturbance closes the window
    /// it interrupts.
    fn observe(&mut self) {
        for fired in &self.runner.log[self.log_seen..] {
            if fired.disturbance {
                self.tracker.disturbance(fired.at);
            }
        }
        self.log_seen = self.runner.log.len();
        let now = self.cluster.now();
        for &(at, pid) in &self.runner.cures[self.cures_seen..] {
            let at = at.max(now);
            self.tracker.cured(pid, at);
            self.unconverged.push((at, self.ops));
            self.report.cures += 1;
        }
        self.cures_seen = self.runner.cures.len();
    }

    fn write(&mut self) -> OpOutcome<Ts<W::Base>> {
        self.value += 1;
        let out = self.cluster.put_outcome(self.writer, self.key, self.value);
        self.report.tally(&out, true);
        self.ops += 1;
        if out.is_ok() {
            self.last_acked = self.value;
            let (now, clear) = (self.cluster.now(), self.runner.all_clear());
            self.tracker.write_completed(now, clear);
            if clear {
                for (at, ops_at) in self.unconverged.drain(..) {
                    let ticks = now.saturating_sub(at);
                    self.report.converged += 1;
                    self.report.converge_ticks += ticks;
                    self.report.converge_ops += self.ops - ops_at;
                    self.report.max_converge_ticks = self.report.max_converge_ticks.max(ticks);
                }
            }
        }
        out
    }

    fn read(&mut self) -> OpOutcome<ReadOk<W::Base>> {
        let out = self.cluster.get_outcome(self.reader, self.key);
        self.report.tally(&out, false);
        self.ops += 1;
        if let OpOutcome::Ok(ok) = &out {
            // The read began after the last acknowledged write finished,
            // so regularity forbids anything older than it.
            if ok.value < self.last_acked {
                self.report.lost_reads += 1;
            }
        }
        out
    }

    /// One write, then one read. An all-clear counts as healed at the end
    /// of the first such pair that completes in full.
    fn write_read(&mut self) -> RoundOutcome<W::Base> {
        let out = (self.write(), self.read());
        if out.0.is_ok() && out.1.is_ok() && self.runner.all_clear() {
            let now = self.cluster.now();
            for &healed_at in &self.runner.clear_times[self.clears_seen..] {
                self.report.heal_ticks += now.saturating_sub(healed_at);
                self.report.heals += 1;
            }
            self.clears_seen = self.runner.clear_times.len();
        }
        out
    }

    /// The substrate's clock and its count of processed events.
    fn mark(&self) -> (u64, u64) {
        (self.cluster.now(), self.cluster.metrics().events_processed)
    }

    /// If the substrate neither moved its clock nor processed an event
    /// since `before`, fast-forward the next nemesis event so the soak
    /// always terminates. The clock alone is not enough: on threads it
    /// counts wheel ticks, and a whole round can fit in one.
    fn valve(&mut self, before: (u64, u64)) {
        if self.mark() == before && !self.runner.done() {
            self.runner.fire_next(&mut self.cluster.sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use sbft_net::nemesis::{CureMode, NemesisEvent, NemesisSchedule};
    use sbft_net::CorruptionSeverity;

    use super::*;
    use crate::adversary::ByzStrategy;
    use crate::cluster::RegisterCluster;
    use crate::retry::RetryPolicy;

    /// The drift that motivated this module: an event the *valve* fires
    /// after the last round must still close the window it interrupts, and
    /// its cure must be drained before the epilogue's converging write —
    /// otherwise the final window would span the cure.
    #[test]
    fn valve_fired_last_event_closes_the_window_and_is_cured_before_the_epilogue() {
        let mut c = RegisterCluster::bounded(1)
            .clients(2)
            .byzantine(5, ByzStrategy::Equivocate)
            .seed(9)
            .retry(RetryPolicy::chaos())
            .build();
        // Scheduled far beyond what two rounds of virtual time reach, so
        // only the valve can fire it.
        let schedule =
            NemesisSchedule::scripted(vec![(1_000_000, NemesisEvent::MoveByz { from: 5, to: 2 })]);
        let runner = c
            .nemesis_runner(schedule, vec![5], ByzStrategy::Equivocate)
            .cure_mode(CureMode::Amnesiac(CorruptionSeverity::Heavy));
        let mut soak = Soak::new(&mut c, (), runner);
        let (wout, rout) = soak.round();
        assert!(wout.is_ok() && rout.is_ok());
        assert!(!soak.runner.done(), "the clock must not have reached the movement");
        // A stalled round: `before` is the current mark.
        soak.valve(soak.mark());
        assert!(soak.runner.done(), "the valve fires the movement");
        assert!(soak.tracker.is_open(), "nothing has fed the tracker yet");

        let report = soak.finish();
        assert_eq!((report.fired("move-byz"), report.cures, report.converged), (1, 1, 1));
        assert_eq!(report.post_heal_failures, 0);
        // One window from the seed write to the movement, one from the
        // epilogue's converging write on — not a single window across both.
        assert_eq!((report.windows, report.window_violations), (2, 0), "{report:?}");
        c.stop();
    }

    // --- OpOutcome accounting regressions -------------------------------
    //
    // Each test manufactures exactly one failure mode and pins the tally
    // column it lands in, so the soak summary can never silently fold one
    // outcome into another again.

    fn tallied<T>(out: &OpOutcome<T>, is_write: bool) -> SoakReport {
        let mut report = SoakReport::default();
        report.tally(out, is_write);
        report
    }

    #[test]
    fn timed_out_is_tallied_distinctly() {
        // Single attempt + deadline, quorum broken by two crashed servers:
        // the lone attempt dies on its deadline -> TimedOut, not Exhausted.
        let mut c = RegisterCluster::bounded(1)
            .seed(7)
            .retry(RetryPolicy { max_attempts: 1, deadline: 300, backoff_base: 0, backoff_max: 0 })
            .build();
        let w = c.client(0);
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.put_outcome(w, (), 1);
        assert!(matches!(out, OpOutcome::TimedOut { .. }), "{out:?}");
        assert_eq!(tallied(&out, true), SoakReport { timed_out: 1, ..SoakReport::default() });
    }

    #[test]
    fn exhausted_is_tallied_distinctly() {
        // Two attempts, quorum still broken: both die on deadlines and the
        // retry budget burns out -> Exhausted, not TimedOut.
        let mut c = RegisterCluster::bounded(1)
            .seed(7)
            .retry(RetryPolicy {
                max_attempts: 2,
                deadline: 300,
                backoff_base: 10,
                backoff_max: 20,
            })
            .build();
        let w = c.client(0);
        c.sim.crash(0);
        c.sim.crash(1);
        let out = c.put_outcome(w, (), 1);
        assert!(matches!(out, OpOutcome::Exhausted { .. }), "{out:?}");
        assert_eq!(tallied(&out, true), SoakReport { exhausted: 1, ..SoakReport::default() });
    }

    #[test]
    fn aborted_is_tallied_distinctly() {
        // Adversarial corruption of half the servers: replies and their
        // histories split below the 2f+1 witness threshold in the local and
        // the union graph alike, and the single-attempt read aborts ->
        // Aborted, not a timeout.
        let mut c = RegisterCluster::bounded(1).seed(11).retry(RetryPolicy::none()).build();
        let (w, r) = (c.client(0), c.client(1));
        assert!(c.put_outcome(w, (), 1).is_ok());
        let mut aborted = None;
        for round in 0..40 {
            c.corrupt_servers(&[0, 1, 2], CorruptionSeverity::Adversarial);
            let out = c.get_outcome(r, ());
            if matches!(out, OpOutcome::Aborted) {
                aborted = Some(out);
                break;
            }
            // Re-seed a coherent value before the next corruption round.
            let _ = c.put_outcome(w, (), 2 + round);
        }
        let out = aborted.expect("no corrupted read aborted in 40 rounds");
        assert_eq!(tallied(&out, false), SoakReport { aborted: 1, ..SoakReport::default() });
    }
}
