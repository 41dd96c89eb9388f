//! Execution histories and the MWMR regular-register specification checker.
//!
//! The recorder captures, per operation, its invocation and return times on
//! the simulator's fictional global clock — exactly the device Section II-A
//! uses to define precedence (`op ≺ op'` iff `t_E(op) < t_B(op')`) and
//! concurrency. The checker then verifies:
//!
//! * **Validity** — every completed read returns either the value of the
//!   last write preceding it or of a write concurrent with it. A read `r`
//!   returning write `w` is a violation if some other write `w'` satisfies
//!   `w ≺ w' ≺ r` (a *stale read*), if `r ≺ w` (a *future read*), or if no
//!   write (nor the genesis value) matches what was returned (an *unknown
//!   value* — possible only while servers are corrupted).
//! * **Write order** (the MWMR consistency requirement, Lemma 8) — the
//!   timestamp order of writes must extend their real-time order for
//!   **consecutive** writes: if `w1 ≺ w2` in real time with no third write
//!   strictly between them, then `ts(w1) ≺ ts(w2)`. (Lemma 8 claims exactly
//!   consecutive-or-concurrent pairs; distant pairs are *expected* to be
//!   incomparable under the non-transitive bounded label order — that is
//!   what lets the label space stay finite.)
//!
//! Pseudo-stabilization (Definition 1) is checked by running the verifier
//! on the execution **suffix** following the first complete write after the
//! transient fault ([`HistoryRecorder::check_from`]); violations before the
//! suffix are permitted and counted separately (experiment E4).

use sbft_labels::LabelingSystem;
use sbft_net::ProcessId;

use crate::messages::{ClientEvent, Value};
use crate::{Sys, Ts};

/// The kind of operation a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A `write(value)`.
    Write,
    /// A `read()`.
    Read,
}

/// How a completed operation ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome<B: LabelingSystem> {
    /// Write installed `value` at `ts`.
    Wrote {
        /// The written value.
        value: Value,
        /// The installed timestamp.
        ts: Ts<B>,
    },
    /// Read returned `value` witnessed at `ts`.
    ReadValue {
        /// The returned value.
        value: Value,
        /// The witnessing timestamp.
        ts: Ts<B>,
        /// Whether the union-graph fallback decided.
        via_union: bool,
    },
    /// Read aborted (transitory phase).
    ReadAbort,
}

/// One operation of the history.
#[derive(Clone, Debug)]
pub struct OpRecord<B: LabelingSystem> {
    /// The invoking client.
    pub client: ProcessId,
    /// Read or write.
    pub kind: OpKind,
    /// `t_B` — invocation time.
    pub invoked_at: u64,
    /// `t_E` — return time (`None` while pending / failed).
    pub returned_at: Option<u64>,
    /// The outcome, once returned.
    pub outcome: Option<OpOutcome<B>>,
    /// For writes: the value the invocation intends to install, known
    /// from the start (used to bind reads to *incomplete* writes — a
    /// crashed writer's value may legally be returned by readers).
    pub intent: Option<Value>,
}

impl<B: LabelingSystem> OpRecord<B> {
    /// Whether this operation completed.
    pub fn is_complete(&self) -> bool {
        self.returned_at.is_some()
    }

    /// `self ≺ other` in the real-time precedence of Section II-A.
    pub fn precedes(&self, other: &OpRecord<B>) -> bool {
        match self.returned_at {
            Some(end) => end < other.invoked_at,
            None => false,
        }
    }

    /// Whether this is a completed write, returning its value/timestamp.
    pub fn as_write(&self) -> Option<(Value, &Ts<B>)> {
        match &self.outcome {
            Some(OpOutcome::Wrote { value, ts }) => Some((*value, ts)),
            _ => None,
        }
    }
}

/// A regularity violation found by the checker. Indices refer to
/// [`HistoryRecorder::ops`]; `usize::MAX` denotes the genesis pseudo-write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegularityError {
    /// Read `read` returned write `write`, but `superseding` completely
    /// falls between them.
    StaleRead {
        /// Index of the read in the history.
        read: usize,
        /// Index of the returned write (`usize::MAX` = genesis).
        write: usize,
        /// Index of the superseding write.
        superseding: usize,
    },
    /// Read `read` returned a write invoked only after the read returned.
    FutureRead {
        /// Index of the read.
        read: usize,
        /// Index of the future write.
        write: usize,
    },
    /// Read `read` returned a value no write produced (nor genesis).
    UnknownValue {
        /// Index of the read.
        read: usize,
        /// The mystery value.
        value: Value,
    },
    /// Writes `first ≺ second` in real time but not in timestamp order.
    WriteOrderInversion {
        /// Index of the earlier write.
        first: usize,
        /// Index of the later write.
        second: usize,
    },
}

/// Records operations as the driver injects commands and observes events.
#[derive(Clone, Debug)]
pub struct HistoryRecorder<B: LabelingSystem> {
    ops: Vec<OpRecord<B>>,
    open: std::collections::BTreeMap<ProcessId, usize>,
}

impl<B: LabelingSystem> Default for HistoryRecorder<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: LabelingSystem> HistoryRecorder<B> {
    /// Fresh empty history.
    pub fn new() -> Self {
        Self { ops: Vec::new(), open: Default::default() }
    }

    /// All records.
    pub fn ops(&self) -> &[OpRecord<B>] {
        &self.ops
    }

    /// Number of operations still open (invoked, no terminal event yet).
    /// The schedule explorer uses this as its termination invariant: a
    /// quiescent network with open operations means some op can never
    /// finish.
    pub fn open_ops(&self) -> usize {
        self.open.len()
    }

    /// Number of reads that completed with an abort.
    pub fn aborted_reads(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o.outcome, Some(OpOutcome::ReadAbort))).count()
    }

    /// Number of completed writes.
    pub fn completed_writes(&self) -> usize {
        self.ops.iter().filter(|o| o.as_write().is_some()).count()
    }

    /// An operation began on `client` at `now`. Returns its index.
    pub fn begin(&mut self, client: ProcessId, kind: OpKind, now: u64) -> usize {
        self.begin_with_intent(client, kind, now, None)
    }

    /// Like [`HistoryRecorder::begin`], also recording a write's intended
    /// value (so reads can be bound to in-flight/failed writes).
    pub fn begin_with_intent(
        &mut self,
        client: ProcessId,
        kind: OpKind,
        now: u64,
        intent: Option<Value>,
    ) -> usize {
        let idx = self.ops.len();
        self.ops.push(OpRecord {
            client,
            kind,
            invoked_at: now,
            returned_at: None,
            outcome: None,
            intent,
        });
        self.open.insert(client, idx);
        idx
    }

    /// A terminal [`ClientEvent`] was observed from `client` at `now`;
    /// closes that client's open operation. Returns the op index.
    pub fn complete(
        &mut self,
        client: ProcessId,
        now: u64,
        ev: &ClientEvent<Ts<B>>,
    ) -> Option<usize> {
        let idx = self.open.remove(&client)?;
        let outcome = match ev {
            ClientEvent::WriteDone { value, ts } => {
                OpOutcome::Wrote { value: *value, ts: ts.clone() }
            }
            ClientEvent::ReadDone { value, ts, via_union } => {
                OpOutcome::ReadValue { value: *value, ts: ts.clone(), via_union: *via_union }
            }
            ClientEvent::ReadAborted => OpOutcome::ReadAbort,
            ClientEvent::ReadFailed { .. } | ClientEvent::WriteFailed { .. } => {
                // A failed operation never "returns" in the spec's sense:
                // its record stays permanently incomplete, exactly like a
                // crashed writer's, so a failed write's value remains a
                // legal (forever-concurrent) read result should it land
                // at the servers later.
                return Some(idx);
            }
        };
        let op = &mut self.ops[idx];
        // On the threaded substrate an operation can complete within the
        // same wall-clock tick it was invoked in; clamp so records stay
        // well-formed (returned_at >= invoked_at).
        op.returned_at = Some(now.max(op.invoked_at));
        op.outcome = Some(outcome);
        Some(idx)
    }

    /// Drop all records (e.g. to restart accounting after a fault).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.open.clear();
    }

    /// Check the full history against MWMR regularity.
    pub fn check(&self, sys: &Sys<B>) -> Result<(), Vec<RegularityError>> {
        self.check_from(sys, 0)
    }

    /// Check the suffix: equivalent to [`HistoryRecorder::check_window`]
    /// with `to_time = u64::MAX`, so only operations running **entirely**
    /// at/after `from_time` are scrutinized. (Writes from before the suffix
    /// still participate as candidate return values.)
    pub fn check_from(&self, sys: &Sys<B>, from_time: u64) -> Result<(), Vec<RegularityError>> {
        self.check_window(sys, from_time, u64::MAX)
    }

    /// Check one stable window of a longer, nemesis-disturbed execution.
    ///
    /// **Window membership rule:** the window is the *closed* interval
    /// `[from_time, to_time]`, and an operation is scrutinized iff it runs
    /// entirely inside it — `invoked_at >= from_time` **and**
    /// `returned_at <= to_time`. The rule is the same for reads (validity)
    /// and writes (timestamp order). An operation that *straddles* either
    /// edge — started before `from_time`, or finished after `to_time`, or
    /// still pending — overlaps a disturbance and is exempt (it gets the
    /// next window's scrutiny if it retries). Consequently adjacent windows
    /// `[a, b]` and `[b+1, c]` scrutinize each op at most once, and the only
    /// ops neither window checks are the true straddlers of the shared
    /// boundary. Writes from *anywhere* still participate as candidate
    /// sources for the reads under check (and as consecutiveness breakers
    /// for the write-order check).
    pub fn check_window(
        &self,
        sys: &Sys<B>,
        from_time: u64,
        to_time: u64,
    ) -> Result<(), Vec<RegularityError>> {
        let mut errors = Vec::new();
        self.check_reads(from_time, to_time, &mut errors);
        self.check_write_order(sys, from_time, to_time, &mut errors);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    fn check_reads(&self, from_time: u64, to_time: u64, errors: &mut Vec<RegularityError>) {
        for (ri, read) in self.ops.iter().enumerate() {
            if read.invoked_at < from_time || read.returned_at.unwrap_or(u64::MAX) > to_time {
                continue;
            }
            let Some(OpOutcome::ReadValue { value, .. }) = &read.outcome else {
                continue;
            };
            // An *incomplete* write (crashed writer) of this value is a
            // permanently concurrent operation: its value is a legal
            // return for any read it does not strictly follow.
            let pending_source = self.ops.iter().any(|w| {
                w.kind == OpKind::Write
                    && w.outcome.is_none()
                    && w.intent == Some(*value)
                    && !read.precedes(w)
            });
            if pending_source {
                continue;
            }
            // Candidate source writes: completed writes of the same value.
            let candidates: Vec<usize> = self
                .ops
                .iter()
                .enumerate()
                .filter(|(_, w)| w.as_write().map(|(v, _)| v == *value).unwrap_or(false))
                .map(|(i, _)| i)
                .collect();

            if candidates.is_empty() {
                if *value == 0 {
                    // Genesis read: valid only if no write completed before
                    // the read began.
                    if let Some((wi, _)) = self
                        .ops
                        .iter()
                        .enumerate()
                        .find(|(_, w)| w.as_write().is_some() && w.precedes(read))
                    {
                        errors.push(RegularityError::StaleRead {
                            read: ri,
                            write: usize::MAX,
                            superseding: wi,
                        });
                    }
                } else {
                    errors.push(RegularityError::UnknownValue { read: ri, value: *value });
                }
                continue;
            }

            // Valid if at least one candidate satisfies regularity.
            let mut first_violation: Option<RegularityError> = None;
            let valid = candidates.iter().any(|&wi| {
                let w = &self.ops[wi];
                if read.precedes(w) {
                    first_violation
                        .get_or_insert(RegularityError::FutureRead { read: ri, write: wi });
                    return false;
                }
                let superseding = self
                    .ops
                    .iter()
                    .enumerate()
                    .find(|(wj, wp)| {
                        *wj != wi && wp.as_write().is_some() && w.precedes(wp) && wp.precedes(read)
                    })
                    .map(|(wj, _)| wj);
                match superseding {
                    Some(wj) => {
                        first_violation.get_or_insert(RegularityError::StaleRead {
                            read: ri,
                            write: wi,
                            superseding: wj,
                        });
                        false
                    }
                    None => true,
                }
            });
            if !valid {
                if let Some(v) = first_violation {
                    errors.push(v);
                }
            }
        }
    }

    /// Count **new/old inversions** — the behaviour a *regular* register
    /// permits but an *atomic* one forbids: two reads `r1 ≺ r2` (real
    /// time) where `r2` returns a write strictly older than the write
    /// `r1` returned. Reads are bound to writes by value (completed
    /// outcome or recorded intent; `None` binding = the genesis value,
    /// which precedes every write). This is a *necessary* condition for
    /// atomicity, not a full linearizability check (which is the
    /// Gibbons–Korach construction and out of scope); experiment E12 uses
    /// it to separate the paper's regular reads from the write-back
    /// extension.
    pub fn new_old_inversions(&self) -> Vec<(usize, usize)> {
        // Bind each completed value-returning read to a source write.
        let bind = |value: Value| -> Option<usize> {
            self.ops
                .iter()
                .enumerate()
                .filter(|(_, o)| {
                    o.kind == OpKind::Write
                        && (o.as_write().map(|(v, _)| v == value).unwrap_or(false)
                            || (o.outcome.is_none() && o.intent == Some(value)))
                })
                .map(|(i, _)| i)
                .next_back() // most recent matching write
        };
        let reads: Vec<(usize, Option<usize>)> = self
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match &o.outcome {
                Some(OpOutcome::ReadValue { value, .. }) => Some((i, bind(*value))),
                _ => None,
            })
            .collect();
        let mut inversions = Vec::new();
        for &(r1, wa) in &reads {
            for &(r2, wb) in &reads {
                if r1 == r2 || !self.ops[r1].precedes(&self.ops[r2]) {
                    continue;
                }
                let older = match (wa, wb) {
                    // r2 bound strictly earlier than r1's binding?
                    (Some(wa), Some(wb)) => {
                        wb != wa
                            && self.ops[wb]
                                .returned_at
                                .map(|e| e < self.ops[wa].invoked_at)
                                .unwrap_or(false)
                    }
                    // r2 returned genesis while r1 returned a real write.
                    (Some(_), None) => true,
                    _ => false,
                };
                if older {
                    inversions.push((r1, r2));
                }
            }
        }
        inversions
    }

    fn check_write_order(
        &self,
        sys: &Sys<B>,
        from_time: u64,
        to_time: u64,
        errors: &mut Vec<RegularityError>,
    ) {
        // Same membership rule as check_reads: a write is scrutinized only
        // when it ran entirely inside the closed window. (Filtering on
        // returned_at alone used to pull in writes that *started* before
        // from_time — ops straddling the leading edge overlap a disturbance
        // and may legitimately carry a pre-fault timestamp.)
        let suffix: Vec<usize> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.as_write().is_some()
                    && o.invoked_at >= from_time
                    && o.returned_at.unwrap_or(u64::MAX) <= to_time
            })
            .map(|(i, _)| i)
            .collect();
        for &i in &suffix {
            for &j in &suffix {
                if i == j {
                    continue;
                }
                let (a, b) = (&self.ops[i], &self.ops[j]);
                if !a.precedes(b) {
                    continue;
                }
                // Lemma 8 covers *consecutive* pairs only ("no other write
                // operation is executed between w1 and w2"): skip if any
                // third write's execution intersects the window — i.e. it
                // neither completely precedes `a` nor completely follows
                // `b`. A write merely *concurrent* with either endpoint
                // already breaks consecutiveness, because the endpoint's
                // quorum may have absorbed its (incomparable) timestamp.
                // Any completed write counts here — including window
                // straddlers that are themselves exempt from scrutiny.
                let intervening = self.ops.iter().enumerate().any(|(k, w)| {
                    k != i && k != j && w.as_write().is_some() && !w.precedes(a) && !b.precedes(w)
                });
                if intervening {
                    continue;
                }
                let (Some((_, ta)), Some((_, tb))) = (a.as_write(), b.as_write()) else {
                    continue;
                };
                if !sys.precedes(ta, tb) {
                    errors.push(RegularityError::WriteOrderInversion { first: i, second: j });
                }
            }
        }
    }
}

/// Cure-aware stable-window bookkeeping for nemesis-disturbed runs.
///
/// Chaos drivers hand the resulting `(start, end)` windows to
/// [`HistoryRecorder::check_window`]. The rules:
///
/// * A window **opens** at a completed write while the nemesis is
///   all-clear (the paper's Assumption 1 anchor: that write's value is
///   propagated to every correct server).
/// * A **disturbance** closes any open window.
/// * A **cure** — a server vacated by a mobile-Byzantine seat rejoining
///   amnesiac — *also* closes any open window, even though the nemesis
///   reports all-clear the moment the seat lands: the cured server is
///   unconverged, so there are transiently `f + 1` servers (the new seat
///   plus the amnesiac rejoiner) whose state cannot be trusted, which is
///   outside the proof's fault budget. The cured server counts as
///   *unstable* until the next completed all-clear write converges it
///   (Assumption A1: a completed stabilizing write propagates its value
///   to all correct servers, wiping the arbitrary state). Only then may
///   a window reopen.
///
/// Without the cure rule, ops concurrent with an amnesiac rejoin would
/// be scrutinized as if the cluster were stable — exactly the reads the
/// mobile-Byzantine model says may legitimately return garbage.
#[derive(Debug, Default)]
pub struct WindowTracker {
    open: Option<u64>,
    windows: Vec<(u64, u64)>,
    unconverged: std::collections::BTreeSet<ProcessId>,
}

impl WindowTracker {
    /// A tracker with no open window and no unconverged servers.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disturbance fired at `now`: close any open window.
    pub fn disturbance(&mut self, now: u64) {
        if let Some(start) = self.open.take() {
            if now > start {
                self.windows.push((start, now));
            }
        }
    }

    /// Server `pid` rejoined cured-but-amnesiac at `now`: close any open
    /// window and mark `pid` unconverged until the next completed
    /// all-clear write.
    pub fn cured(&mut self, pid: ProcessId, now: u64) {
        self.disturbance(now);
        self.unconverged.insert(pid);
    }

    /// A write completed at `now`; `all_clear` is the nemesis runner's
    /// current disturbance-window state. If all-clear, the write
    /// converges every cured server (A1) and opens a window if none is
    /// open.
    pub fn write_completed(&mut self, now: u64, all_clear: bool) {
        if all_clear {
            self.unconverged.clear();
            if self.open.is_none() {
                self.open = Some(now);
            }
        }
    }

    /// Servers cured since the last converging write.
    pub fn unconverged(&self) -> &std::collections::BTreeSet<ProcessId> {
        &self.unconverged
    }

    /// Whether a stable window is currently open.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Close any open window at `end` and return all recorded windows.
    pub fn finish(mut self, end: u64) -> Vec<(u64, u64)> {
        self.disturbance(end);
        self.windows
    }
}

/// Aggregate verdict for one group of per-register histories (e.g. all the
/// keys a shard hosts): how many registers the group contains and how many
/// regularity violations its histories carry in total. A group with
/// `violations == 0` is regular as a whole, because the per-key histories
/// are independent (Theorem 1 applies register by register).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupVerdict {
    /// Registers whose histories fell into this group.
    pub registers: usize,
    /// Total regularity violations across the group's histories.
    pub violations: usize,
}

impl GroupVerdict {
    /// Whether every history in the group checked out regular.
    pub fn is_regular(&self) -> bool {
        self.violations == 0
    }
}

/// Fold per-register check results into per-group verdicts.
///
/// The iterator yields `(group, result)` pairs — a group id (shard index,
/// placement domain, …) with that register's [`HistoryRecorder::check`]
/// outcome. Groups with no registers simply do not appear; callers wanting
/// a row per group can seed the map themselves.
pub fn group_verdicts<I>(results: I) -> std::collections::BTreeMap<usize, GroupVerdict>
where
    I: IntoIterator<Item = (usize, Result<(), Vec<RegularityError>>)>,
{
    let mut groups = std::collections::BTreeMap::<usize, GroupVerdict>::new();
    for (group, result) in results {
        let v = groups.entry(group).or_default();
        v.registers += 1;
        if let Err(errs) = result {
            v.violations += errs.len();
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;

    fn sys() -> Sys<B> {
        MwmrLabeling::new(BoundedLabeling::new(7))
    }

    fn write_done(s: &Sys<B>, v: Value, prev: &Ts<B>) -> (ClientEvent<Ts<B>>, Ts<B>) {
        let ts = s.next_for(1, std::slice::from_ref(prev));
        (ClientEvent::WriteDone { value: v, ts: ts.clone() }, ts)
    }

    #[test]
    fn sequential_write_then_read_is_regular() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        h.begin(10, OpKind::Write, 0);
        let (ev, ts) = write_done(&s, 5, &g);
        h.complete(10, 10, &ev);
        h.begin(11, OpKind::Read, 20);
        h.complete(11, 30, &ClientEvent::ReadDone { value: 5, ts, via_union: false });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn stale_read_detected() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // w1 [0,10] then w2 [20,30], then read [40,50] returning w1's value.
        h.begin(10, OpKind::Write, 0);
        let (ev1, ts1) = write_done(&s, 5, &g);
        h.complete(10, 10, &ev1);
        h.begin(10, OpKind::Write, 20);
        let (ev2, _ts2) = write_done(&s, 6, &ts1);
        h.complete(10, 30, &ev2);
        h.begin(11, OpKind::Read, 40);
        h.complete(11, 50, &ClientEvent::ReadDone { value: 5, ts: ts1, via_union: false });
        let errs = h.check(&s).unwrap_err();
        assert!(matches!(errs[0], RegularityError::StaleRead { .. }));
    }

    #[test]
    fn concurrent_write_value_is_allowed() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // Write [0,100] concurrent with read [10,20] that returns it.
        h.begin(10, OpKind::Write, 0);
        h.begin(11, OpKind::Read, 10);
        let ts = s.next_for(1, std::slice::from_ref(&g));
        h.complete(11, 20, &ClientEvent::ReadDone { value: 7, ts: ts.clone(), via_union: false });
        h.complete(10, 100, &ClientEvent::WriteDone { value: 7, ts });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn genesis_read_before_any_write_is_valid() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        h.begin(11, OpKind::Read, 0);
        h.complete(11, 5, &ClientEvent::ReadDone { value: 0, ts: s.genesis(), via_union: false });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn genesis_read_after_a_write_is_stale() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        h.begin(10, OpKind::Write, 0);
        let (ev, _) = write_done(&s, 5, &g);
        h.complete(10, 10, &ev);
        h.begin(11, OpKind::Read, 20);
        h.complete(11, 30, &ClientEvent::ReadDone { value: 0, ts: s.genesis(), via_union: false });
        let errs = h.check(&s).unwrap_err();
        assert!(matches!(errs[0], RegularityError::StaleRead { write: usize::MAX, .. }));
    }

    #[test]
    fn unknown_value_detected() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        h.begin(11, OpKind::Read, 0);
        h.complete(11, 5, &ClientEvent::ReadDone { value: 999, ts: s.genesis(), via_union: false });
        let errs = h.check(&s).unwrap_err();
        assert_eq!(errs[0], RegularityError::UnknownValue { read: 0, value: 999 });
    }

    #[test]
    fn write_order_inversion_detected() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        let ts1 = s.next_for(1, std::slice::from_ref(&g));
        let ts2 = s.next_for(2, std::slice::from_ref(&ts1));
        // Real time: w(ts2) [0,10] ≺ w(ts1) [20,30] — but ts1 ≺ ts2: inverted.
        h.begin(10, OpKind::Write, 0);
        h.complete(10, 10, &ClientEvent::WriteDone { value: 1, ts: ts2 });
        h.begin(10, OpKind::Write, 20);
        h.complete(10, 30, &ClientEvent::WriteDone { value: 2, ts: ts1 });
        let errs = h.check(&s).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, RegularityError::WriteOrderInversion { .. })));
    }

    #[test]
    fn suffix_check_forgives_pre_fault_reads() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        // Garbage read at t=5 (pre-suffix), clean behaviour after t=100.
        h.begin(11, OpKind::Read, 0);
        h.complete(11, 5, &ClientEvent::ReadDone { value: 999, ts: s.genesis(), via_union: false });
        assert!(h.check(&s).is_err());
        assert!(h.check_from(&s, 100).is_ok());
    }

    #[test]
    fn aborts_are_counted_not_violations() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        h.begin(11, OpKind::Read, 0);
        h.complete(11, 5, &ClientEvent::ReadAborted);
        assert!(h.check(&s).is_ok());
        assert_eq!(h.aborted_reads(), 1);
    }

    #[test]
    fn inversion_detector_finds_new_then_old() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // w1 [0,10] completes; w2 [20,∞) crashes (intent 6).
        h.begin_with_intent(10, OpKind::Write, 0, Some(5));
        let (ev1, ts1) = write_done(&s, 5, &g);
        h.complete(10, 10, &ev1);
        h.begin_with_intent(12, OpKind::Write, 20, Some(6));
        // r1 [30,40] returns the in-flight 6; r2 [50,60] regresses to 5.
        let ts2 = s.next_for(2, std::slice::from_ref(&ts1));
        h.begin(11, OpKind::Read, 30);
        h.complete(11, 40, &ClientEvent::ReadDone { value: 6, ts: ts2, via_union: false });
        h.begin(11, OpKind::Read, 50);
        h.complete(11, 60, &ClientEvent::ReadDone { value: 5, ts: ts1, via_union: false });
        let inv = h.new_old_inversions();
        assert_eq!(inv.len(), 1, "{inv:?}");
        // Regularity itself is NOT violated (w2 is forever concurrent).
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn inversion_detector_accepts_monotone_reads() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        h.begin_with_intent(10, OpKind::Write, 0, Some(5));
        let (ev1, ts1) = write_done(&s, 5, &g);
        h.complete(10, 10, &ev1);
        h.begin_with_intent(10, OpKind::Write, 20, Some(6));
        let (ev2, ts2) = write_done(&s, 6, &ts1);
        h.complete(10, 30, &ev2);
        h.begin(11, OpKind::Read, 40);
        h.complete(11, 45, &ClientEvent::ReadDone { value: 6, ts: ts2.clone(), via_union: false });
        h.begin(11, OpKind::Read, 50);
        h.complete(11, 55, &ClientEvent::ReadDone { value: 6, ts: ts2, via_union: false });
        assert!(h.new_old_inversions().is_empty());
    }

    #[test]
    fn genesis_regression_counts_as_inversion() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // An incomplete write of 5 (concurrent forever), r1 returns it,
        // r2 later returns genesis 0: inversion.
        h.begin_with_intent(10, OpKind::Write, 0, Some(5));
        let ts1 = s.next_for(1, std::slice::from_ref(&g));
        h.begin(11, OpKind::Read, 10);
        h.complete(11, 20, &ClientEvent::ReadDone { value: 5, ts: ts1, via_union: false });
        h.begin(11, OpKind::Read, 30);
        h.complete(11, 40, &ClientEvent::ReadDone { value: 0, ts: g, via_union: false });
        assert_eq!(h.new_old_inversions().len(), 1);
    }

    #[test]
    fn pending_intent_makes_read_valid() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // A crashed write of 9; a read returning 9 is valid (concurrent).
        h.begin_with_intent(10, OpKind::Write, 0, Some(9));
        h.begin(11, OpKind::Read, 10);
        let ts = s.next_for(1, std::slice::from_ref(&g));
        h.complete(11, 20, &ClientEvent::ReadDone { value: 9, ts, via_union: false });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn failed_write_stays_incomplete_and_its_value_stays_legal() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        // A write of 9 exhausts its retries... but the value may still land.
        h.begin_with_intent(10, OpKind::Write, 0, Some(9));
        h.complete(10, 50, &ClientEvent::WriteFailed { value: 9, timed_out: true, attempts: 3 });
        assert_eq!(h.completed_writes(), 0);
        // A much later read returning 9 is valid: the failed write is
        // forever concurrent, never a stale source.
        h.begin(11, OpKind::Read, 1000);
        let ts = s.next_for(1, std::slice::from_ref(&g));
        h.complete(11, 1010, &ClientEvent::ReadDone { value: 9, ts, via_union: false });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn failed_read_is_not_a_violation() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        h.begin(11, OpKind::Read, 0);
        h.complete(11, 80, &ClientEvent::ReadFailed { timed_out: false, attempts: 4 });
        assert!(h.check(&s).is_ok());
    }

    #[test]
    fn window_check_exempts_ops_straddling_the_edges() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        // Garbage read [5,15] straddles into the window [10,100]; a clean
        // genesis read [20,30] sits fully inside.
        h.begin(11, OpKind::Read, 5);
        h.complete(
            11,
            15,
            &ClientEvent::ReadDone { value: 999, ts: s.genesis(), via_union: false },
        );
        h.begin(11, OpKind::Read, 20);
        h.complete(11, 30, &ClientEvent::ReadDone { value: 0, ts: s.genesis(), via_union: false });
        assert!(h.check(&s).is_err(), "full check still sees the garbage");
        assert!(h.check_window(&s, 10, 100).is_ok(), "window check exempts the straddler");
        // A read that *returns* after the window closes is likewise exempt.
        h.begin(11, OpKind::Read, 90);
        h.complete(
            11,
            150,
            &ClientEvent::ReadDone { value: 998, ts: s.genesis(), via_union: false },
        );
        assert!(h.check_window(&s, 10, 100).is_ok());
        assert!(h.check_window(&s, 10, 200).is_err());
    }

    #[test]
    fn window_check_exempts_writes_straddling_the_leading_edge() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        let ts1 = s.next_for(1, std::slice::from_ref(&g));
        let ts2 = s.next_for(2, std::slice::from_ref(&ts1));
        // w(ts2) straddles the edge at t=15: invoked 10, returned 20.
        // w(ts1) runs entirely inside: [30, 40]. Their timestamp order is
        // inverted relative to real time — but the straddler overlaps the
        // disturbance, so the window starting at 15 must exempt the pair.
        h.begin(10, OpKind::Write, 10);
        h.complete(10, 20, &ClientEvent::WriteDone { value: 1, ts: ts2 });
        h.begin(10, OpKind::Write, 30);
        h.complete(10, 40, &ClientEvent::WriteDone { value: 2, ts: ts1 });
        assert!(h.check(&s).is_err(), "full check still sees the inversion");
        assert!(
            h.check_from(&s, 15).is_ok(),
            "a write invoked before the window start is exempt even though it returned inside"
        );
    }

    #[test]
    fn straddling_write_still_breaks_consecutiveness() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        let g = s.genesis();
        let ts1 = s.next_for(1, std::slice::from_ref(&g));
        let ts2 = s.next_for(2, std::slice::from_ref(&ts1));
        // In-window pair w(ts2) [20,30] ≺ w(ts1) [60,70] is ts-inverted,
        // but a third write [5,45] straddles the window start and overlaps
        // the first endpoint — the pair is not consecutive, so Lemma 8
        // does not apply and no flag may be raised.
        h.begin(12, OpKind::Write, 5);
        let ts3 = s.next_for(3, std::slice::from_ref(&ts2));
        h.complete(12, 45, &ClientEvent::WriteDone { value: 3, ts: ts3 });
        h.begin(10, OpKind::Write, 20);
        h.complete(10, 30, &ClientEvent::WriteDone { value: 1, ts: ts2 });
        h.begin(10, OpKind::Write, 60);
        h.complete(10, 70, &ClientEvent::WriteDone { value: 2, ts: ts1 });
        assert!(
            h.check_from(&s, 10).is_ok(),
            "an exempt straddler must still break consecutiveness for in-window pairs"
        );
    }

    #[test]
    fn incomplete_ops_ignored() {
        let s = sys();
        let mut h = HistoryRecorder::<B>::new();
        h.begin(10, OpKind::Write, 0); // never completes (client crash)
        h.begin(11, OpKind::Read, 10);
        assert!(h.check(&s).is_ok());
        assert_eq!(h.completed_writes(), 0);
    }

    #[test]
    fn window_tracker_opens_on_all_clear_write_and_closes_on_disturbance() {
        let mut t = WindowTracker::new();
        t.write_completed(10, true);
        assert!(t.is_open());
        t.disturbance(50);
        assert!(!t.is_open());
        // A write under disturbance does not reopen.
        t.write_completed(60, false);
        assert!(!t.is_open());
        t.write_completed(80, true);
        assert_eq!(t.finish(100), vec![(10, 50), (80, 100)]);
    }

    #[test]
    fn window_tracker_cure_closes_window_until_converging_write() {
        let mut t = WindowTracker::new();
        t.write_completed(10, true);
        // Seat moves off server 3 at t=40: nemesis is all-clear again
        // immediately (movement is instantaneous), but the cured server
        // is unconverged — the window must close anyway.
        t.cured(3, 40);
        assert!(!t.is_open());
        assert!(t.unconverged().contains(&3));
        // The next completed all-clear write converges it and reopens.
        t.write_completed(70, true);
        assert!(t.is_open());
        assert!(t.unconverged().is_empty());
        assert_eq!(t.finish(90), vec![(10, 40), (70, 90)]);
    }

    #[test]
    fn window_tracker_drops_empty_windows() {
        let mut t = WindowTracker::new();
        t.write_completed(10, true);
        t.disturbance(10); // zero-length: not recorded
        t.write_completed(20, true);
        assert_eq!(t.finish(30), vec![(20, 30)]);
    }

    #[test]
    fn group_verdicts_fold_per_register_results() {
        let bad = vec![RegularityError::UnknownValue { read: 0, value: 9 }];
        let groups = group_verdicts([
            (0, Ok(())),
            (0, Ok(())),
            (1, Err(bad.clone())),
            (1, Ok(())),
            (1, Err(bad)),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&0], GroupVerdict { registers: 2, violations: 0 });
        assert!(groups[&0].is_regular());
        assert_eq!(groups[&1], GroupVerdict { registers: 3, violations: 2 });
        assert!(!groups[&1].is_regular());
    }
}
