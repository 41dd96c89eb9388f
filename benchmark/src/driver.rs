//! The load generator: one thread, closed loop. Every client keeps
//! `pipeline` operations in flight on distinct keys; a completed operation
//! is replaced at once. The driver touches the cluster only through
//! `Substrate::{inject, pump, now, metrics_snapshot}` (plus `crash` /
//! `restart_with` for the durable workload's reboots).

use std::sync::Arc;
use std::time::Instant;

use sbft_core::messages::{ClientEvent, Msg};
use sbft_core::spec::OpKind;
use sbft_core::{HistoryRecorder, Sys, WindowTracker};
use sbft_kv::{Key, KvMsg};
use sbft_labels::{BoundedLabeling, MwmrLabeling};
use sbft_net::{ProcessId, Pumped, Substrate};
use sbft_storage::DiskFault;

use crate::assemble::Cluster;
use crate::trace::{automaton_totals, Collector, Span, B, E};
use crate::workload::{OpGen, Workload};
use crate::{alloc, procfs};

/// Consecutive idle pumps (threaded substrate) before the run is stuck.
const MAX_IDLE_PUMPS: u32 = 400;

/// One pump in this many is timed for the aggregates: a clock read costs
/// ~30 ns against ~1.5 us for a whole simulator event. (Recorded spans
/// carry their own timestamps.)
const PUMP_CLOCK_EVERY: u64 = 8;

/// Operations whose individual spans a traced run keeps.
pub const RECORDED_OPS: u64 = 1_000;

/// One operation in flight.
struct Slot {
    key: Key,
    seq: u64,
    write: bool,
    at: Instant,
    tick: u64,
}

/// Wall and CPU time of one window of completed operations.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// Wall nanoseconds.
    pub wall_ns: u64,
    /// CPU nanoseconds of all threads.
    pub cpu_ns: u64,
}

/// Monotone counters read at window boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Operations completed (ok or not).
    pub ops: u64,
    /// Operations that ended in an abort or a failure.
    pub failed: u64,
    /// Substrate ticks.
    pub ticks: u64,
    /// Logical messages sent.
    pub msgs: u64,
    /// Wire frames sent.
    pub frames: u64,
    /// Messages dropped.
    pub dropped: u64,
    /// Events processed.
    pub events: u64,
    /// Heap allocations of the whole process.
    pub allocs: u64,
    /// Disk `syncs + snapshots` over all servers.
    pub disk_syncs: u64,
}

impl Counters {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            ops: self.ops - earlier.ops,
            failed: self.failed - earlier.failed,
            ticks: self.ticks - earlier.ticks,
            msgs: self.msgs - earlier.msgs,
            frames: self.frames - earlier.frames,
            dropped: self.dropped - earlier.dropped,
            events: self.events - earlier.events,
            allocs: self.allocs - earlier.allocs,
            disk_syncs: self.disk_syncs - earlier.disk_syncs,
        }
    }
}

/// A measured phase under way.
struct Phase {
    at_start: Counters,
    issued_at_start: u64,
    windows: Vec<Window>,
    alive: bool,
}

/// What a measured phase produced.
pub struct Measured {
    /// Every window run.
    pub windows: Vec<Window>,
    /// Counters over all windows.
    pub counted: Counters,
    /// Wall ns from `inject` to the terminal event, per completed read.
    pub read_ns: Vec<u64>,
    /// The same per completed write.
    pub write_ns: Vec<u64>,
    /// Operations issued in the phase.
    pub attempted: u64,
    /// Of those: aborted, failed or never terminated.
    pub failed: u64,
    /// Reads that returned a value nobody wrote to that key.
    pub implausible_reads: u64,
    /// Peak resident memory of the process when the last window ended.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// Wall ns of all windows together.
    pub fn wall_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.wall_ns).sum()
    }
}

/// What only a traced run collects at the driver.
pub struct Probe {
    col: Arc<Collector>,
    sys: Sys<B>,
    recorders: Vec<HistoryRecorder<B>>,
    /// Per-key stable windows; empty unless the workload reboots servers.
    trackers: Vec<WindowTracker>,
    spans: Vec<Span>,
    /// The first operations of the measured phase, for the span file.
    pub ops: Vec<OpSpan>,
    /// `pump` calls and their allocations while measuring; `ns` sums the
    /// `timed_pumps` of them that were timed.
    pub pump: crate::trace::Agg,
    /// How many pumps were timed.
    pub timed_pumps: u64,
    /// Of the timed pumps' ns, inside automaton spans (simulator: same
    /// thread).
    pub automaton_ns: u64,
    /// Allocations inside those automaton spans.
    pub automaton_allocs: u64,
    /// Wall ns inside `inject`.
    pub inject_ns: u64,
    /// Substrate ticks from invocation to return, per completed read.
    pub read_ticks: Vec<u64>,
    /// The same per completed write.
    pub write_ticks: Vec<u64>,
    /// Reads that aborted or failed.
    pub failed_reads: u64,
    /// Writes that failed.
    pub failed_writes: u64,
    /// Reboots, and their wall ns (disk load + state rebuild + restart).
    pub reboots: crate::trace::Agg,
    /// Keys the rebooted nodes salvaged, summed.
    pub salvaged_keys: u64,
}

/// One operation as the driver saw it.
#[derive(Clone, Debug)]
pub struct OpSpan {
    /// Sequence number.
    pub seq: u64,
    /// Issuing client.
    pub client: ProcessId,
    /// Key.
    pub key: Key,
    /// Whether it wrote.
    pub write: bool,
    /// Inject time, ns since the collector's epoch.
    pub start_ns: u64,
    /// Terminal-event time (0 while in flight).
    pub end_ns: u64,
}

/// Verdict of the recorded histories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Keys with a history.
    pub keys: usize,
    /// Regularity violations (inside per-key stable windows when the
    /// workload reboots servers, over the whole history otherwise).
    pub violations: usize,
    /// Reads that returned a write a later acknowledged write superseded.
    pub lost_acked_writes: usize,
}

impl Probe {
    fn new(col: &Arc<Collector>, w: &Workload) -> Self {
        let keys = w.keyspace as usize;
        Self {
            col: Arc::clone(col),
            sys: MwmrLabeling::new(BoundedLabeling::new(
                sbft_core::ClusterConfig::stabilizing(1).label_k(),
            )),
            recorders: (0..keys).map(|_| HistoryRecorder::new()).collect(),
            trackers: (0..if w.crash_every.is_some() { keys } else { 0 })
                .map(|_| WindowTracker::new())
                .collect(),
            spans: Vec::new(),
            ops: Vec::new(),
            pump: Default::default(),
            timed_pumps: 0,
            automaton_ns: 0,
            automaton_allocs: 0,
            inject_ns: 0,
            read_ticks: Vec::new(),
            write_ticks: Vec::new(),
            failed_reads: 0,
            failed_writes: 0,
            reboots: Default::default(),
            salvaged_keys: 0,
        }
    }

    /// Check every key's history: MWMR regularity over the whole history,
    /// or — when servers were rebooted from damaged disks — inside each
    /// key's stable windows as E18 scores them, plus no acknowledged write
    /// lost anywhere.
    pub fn verdict(&mut self) -> Verdict {
        let mut v = Verdict::default();
        for (key, rec) in self.recorders.iter().enumerate() {
            if rec.ops().is_empty() {
                continue;
            }
            v.keys += 1;
            let full = rec.check(&self.sys).err().unwrap_or_default();
            match self.trackers.get_mut(key).map(std::mem::take) {
                None => v.violations += full.len(),
                Some(tracker) => {
                    v.lost_acked_writes += full
                        .iter()
                        .filter(|e| matches!(e, sbft_core::RegularityError::StaleRead { .. }))
                        .count();
                    for (from, to) in tracker.finish(u64::MAX) {
                        v.violations +=
                            rec.check_window(&self.sys, from, to).err().map_or(0, |e| e.len());
                    }
                }
            }
        }
        v
    }
}

/// The closed-loop driver of one cluster.
pub struct Driver {
    /// The cluster under load.
    pub cluster: Cluster,
    w: Workload,
    gen: OpGen,
    slots: Vec<Vec<Slot>>,
    next_seq: u64,
    completed: u64,
    failed: u64,
    implausible: u64,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    reboots: u64,
    phase: Option<Phase>,
    /// Present in a traced run.
    pub probe: Option<Probe>,
}

impl Driver {
    /// A driver for `cluster` running `w` under `seed`.
    pub fn new(cluster: Cluster, w: &Workload, seed: u64) -> Self {
        Self {
            slots: (0..w.clients).map(|_| Vec::with_capacity(w.pipeline)).collect(),
            cluster,
            w: *w,
            gen: OpGen::new(w, seed),
            next_seq: 0,
            completed: 0,
            failed: 0,
            implausible: 0,
            read_ns: Vec::new(),
            write_ns: Vec::new(),
            reboots: 0,
            phase: None,
            probe: None,
        }
    }

    /// Also record histories, spans and the driver-side layer numbers.
    pub fn with_probe(mut self, col: &Arc<Collector>) -> Self {
        self.probe = Some(Probe::new(col, &self.w));
        self
    }

    /// Set-up: write every key once. Returns whether every write ended.
    pub fn setup(&mut self) -> bool {
        let keys = self.w.keyspace;
        self.prime(keys);
        let done = self.advance(keys, keys);
        done && self.failed == 0
    }

    /// The measured phase in one call: `windows` whole windows.
    pub fn measure(&mut self, windows: usize) -> Measured {
        self.begin();
        for _ in 0..windows {
            if !self.window() {
                break;
            }
        }
        self.end()
    }

    /// Open the measured phase: switch tracing on and fill the pipelines.
    pub fn begin(&mut self) {
        self.read_ns.clear();
        self.write_ns.clear();
        if let Some(p) = &self.probe {
            p.col.set_measuring(true);
            p.col.set_recording(true);
        }
        self.phase = Some(Phase {
            at_start: self.counters(),
            issued_at_start: self.next_seq,
            windows: Vec::new(),
            alive: true,
        });
        self.prime(u64::MAX);
    }

    /// Run one window of `window_ops` completions, keeping every pipeline
    /// full. Returns false when the cluster went quiet instead (operations
    /// never terminated); no further window can run then.
    pub fn window(&mut self) -> bool {
        let (t0, cpu0, before) = (Instant::now(), procfs::cpu_ns(), self.completed);
        let alive = self.advance(before + self.w.window_ops, u64::MAX);
        let window = Window {
            ops: self.completed - before,
            wall_ns: t0.elapsed().as_nanos() as u64,
            cpu_ns: procfs::cpu_ns().saturating_sub(cpu0),
        };
        let phase = self.phase.as_mut().expect("window() between begin() and end()");
        phase.windows.push(window);
        phase.alive = alive;
        alive
    }

    /// Close the measured phase: tracing off, no new operations, wait for
    /// the ones in flight.
    pub fn end(&mut self) -> Measured {
        let phase = self.phase.take().expect("end() after begin()");
        let counted = self.counters().since(&phase.at_start);
        let peak_rss_mb = procfs::peak_rss_mb();
        if let Some(p) = &self.probe {
            p.col.set_measuring(false);
            p.col.set_recording(false);
        }
        let attempted = self.next_seq - phase.issued_at_start;
        if phase.alive {
            self.advance(phase.at_start.ops + attempted, self.next_seq);
        }
        let ended = self.counters().since(&phase.at_start);
        Measured {
            windows: phase.windows,
            counted,
            read_ns: std::mem::take(&mut self.read_ns),
            write_ns: std::mem::take(&mut self.write_ns),
            attempted,
            failed: ended.failed + (attempted - ended.ops),
            implausible_reads: self.implausible,
            peak_rss_mb,
        }
    }

    /// Stop the cluster and hand back the probe. Dropping the cluster is
    /// what makes the tracing shims merge into the collector.
    pub fn finish(mut self) -> Option<Probe> {
        self.cluster.sub.stop();
        if let Some(p) = &mut self.probe {
            p.col.add_spans(std::mem::take(&mut p.spans));
        }
        self.probe
    }

    fn counters(&self) -> Counters {
        let m = self.cluster.sub.metrics_snapshot();
        Counters {
            ops: self.completed,
            failed: self.failed,
            ticks: self.cluster.sub.now(),
            msgs: m.messages_sent,
            frames: m.frames_sent,
            dropped: m.messages_dropped,
            events: m.events_processed,
            allocs: alloc::total(),
            disk_syncs: self.cluster.disk_syncs(),
        }
    }

    /// Fill every client's pipeline, round-robin, without issuing
    /// operation `issue_until` or later.
    fn prime(&mut self, issue_until: u64) {
        for _depth in 0..self.w.pipeline {
            for ci in 0..self.w.clients {
                if self.slots[ci].len() < self.w.pipeline && self.next_seq < issue_until {
                    self.issue(ci);
                }
            }
        }
    }

    fn issue(&mut self, ci: usize) {
        let op = self.gen.op(self.next_seq);
        self.next_seq += 1;
        // Probe past keys this client already has in flight: its automaton
        // would silently drop the duplicate.
        let mut key = op.key;
        while self.slots[ci].iter().any(|s| s.key == key) {
            key = (key + 1) % self.w.keyspace;
        }
        let pid = self.cluster.clients[ci];
        let value = OpGen::value(op.seq, key);
        let inner = if op.write { Msg::InvokeWrite { value } } else { Msg::InvokeRead };
        let tick = self.cluster.sub.now();
        if let Some(p) = &mut self.probe {
            // Commands arrive after one tick of channel delay on the
            // simulator; on wall-clock ticks `+1` would invent precedence.
            let invoked = if self.cluster.is_sim() { tick + 1 } else { tick };
            let kind = if op.write { OpKind::Write } else { OpKind::Read };
            p.recorders[key as usize].begin_with_intent(
                pid,
                kind,
                invoked,
                op.write.then_some(value),
            );
            if p.col.measuring() && (p.ops.len() as u64) < RECORDED_OPS {
                p.ops.push(OpSpan {
                    seq: op.seq,
                    client: pid,
                    key,
                    write: op.write,
                    start_ns: p.col.now_ns(),
                    end_ns: 0,
                });
            }
        }
        let at = Instant::now();
        self.cluster.sub.inject(pid, KvMsg::new(key, inner));
        if let Some(p) = self.probe.as_mut().filter(|p| p.col.measuring()) {
            p.inject_ns += at.elapsed().as_nanos() as u64;
        }
        self.slots[ci].push(Slot { key, seq: op.seq, write: op.write, at, tick });
    }

    fn pump(&mut self) -> Pumped<E> {
        let Some(p) = self.probe.as_mut().filter(|p| p.col.measuring()) else {
            return self.cluster.sub.pump();
        };
        let opened = p.col.open();
        let start_ns = if opened.is_some() { p.col.now_ns() } else { 0 };
        // The counters are thread-local reads and cost next to nothing; the
        // clock does not, so only a sample of the pumps is timed.
        let timed = p.pump.calls % PUMP_CLOCK_EVERY == 0;
        let ((auto_ns0, auto_allocs0), allocs0) = (automaton_totals(), alloc::on_this_thread());
        let t0 = timed.then(Instant::now);
        let pumped = self.cluster.sub.pump();
        let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let allocs = alloc::on_this_thread() - allocs0;
        let (auto_ns, auto_allocs) = automaton_totals();
        p.pump.calls += 1;
        p.pump.allocs += allocs;
        p.automaton_allocs += auto_allocs - auto_allocs0;
        if timed {
            p.timed_pumps += 1;
            p.pump.ns += ns;
            p.automaton_ns += auto_ns - auto_ns0;
        }
        if let Some((id, parent)) = opened {
            p.col.close(parent);
            let pid = match &pumped {
                Pumped::Event { pid, .. } => *pid,
                _ => sbft_net::ENV,
            };
            p.spans.push(Span {
                id,
                parent,
                layer: "net",
                call: "pump",
                pid,
                op: None,
                start_ns,
                end_ns: p.col.now_ns(),
                allocs,
            });
        }
        pumped
    }

    /// Pump until `until` operations have completed, refilling freed slots
    /// with operations before `issue_until`. Returns false when the
    /// substrate went quiet first (operations never terminated).
    fn advance(&mut self, until: u64, issue_until: u64) -> bool {
        let mut idle = 0;
        while self.completed < until {
            match self.pump() {
                Pumped::Quiescent => return false,
                Pumped::Idle => {
                    idle += 1;
                    if idle >= MAX_IDLE_PUMPS {
                        return false;
                    }
                }
                Pumped::Event { time, pid, outputs } => {
                    idle = 0;
                    for out in &outputs {
                        self.on_event(time, pid, out, issue_until);
                    }
                }
            }
        }
        true
    }

    fn on_event(&mut self, time: u64, pid: ProcessId, out: &E, issue_until: u64) {
        let Some(ci) = pid.checked_sub(self.cluster.clients[0]).filter(|&ci| ci < self.slots.len())
        else {
            return;
        };
        let Some(at) = self.slots[ci].iter().position(|s| s.key == out.key) else {
            return;
        };
        let slot = self.slots[ci].swap_remove(at);
        let wall_ns = slot.at.elapsed().as_nanos() as u64;
        let ok = match &out.inner {
            ClientEvent::WriteDone { .. } => true,
            ClientEvent::ReadDone { value, .. } => {
                if !self.gen.plausible(out.key, *value, self.next_seq) {
                    self.implausible += 1;
                }
                true
            }
            ClientEvent::ReadAborted
            | ClientEvent::ReadFailed { .. }
            | ClientEvent::WriteFailed { .. } => false,
        };
        self.completed += 1;
        if ok {
            if slot.write { &mut self.write_ns } else { &mut self.read_ns }.push(wall_ns);
        } else {
            self.failed += 1;
        }
        if let Some(p) = &mut self.probe {
            p.recorders[out.key as usize].complete(pid, time, &out.inner);
            if slot.write && ok {
                if let Some(t) = p.trackers.get_mut(out.key as usize) {
                    t.write_completed(time, true);
                }
            }
            if p.col.measuring() {
                let ticks = time.saturating_sub(slot.tick);
                match (slot.write, ok) {
                    (true, true) => p.write_ticks.push(ticks),
                    (false, true) => p.read_ticks.push(ticks),
                    (true, false) => p.failed_writes += 1,
                    (false, false) => p.failed_reads += 1,
                }
                // `ops` holds consecutive sequence numbers.
                let first = p.ops.first().map_or(u64::MAX, |o| o.seq);
                if let Some(op) =
                    slot.seq.checked_sub(first).and_then(|i| p.ops.get_mut(i as usize))
                {
                    op.end_ns = p.col.now_ns();
                    if slot.seq + 1 == first + RECORDED_OPS {
                        p.col.set_recording(false);
                    }
                }
            }
        }
        if self.next_seq < issue_until {
            self.issue(ci);
        }
        let measured = self.completed.saturating_sub(self.w.keyspace);
        if let Some(every) = self.w.crash_every {
            if measured > 0 && measured.is_multiple_of(every) {
                self.reboot_next(time);
            }
        }
    }

    /// Reboot `i`: server `i mod n` loses its process state and gets
    /// `DiskFault::ALL[i mod 5]` applied to its disk.
    fn reboot_next(&mut self, now: u64) {
        let i = self.reboots as usize;
        self.reboots += 1;
        let pid = i % self.cluster.disks.len();
        let fault = DiskFault::ALL[i % DiskFault::ALL.len()];
        let t0 = Instant::now();
        let keys = self.cluster.crash_and_reboot(pid, fault);
        if let Some(p) = &mut self.probe {
            // The rejoiner may hold stale state for any key until that
            // key's next completed write converges it (Assumption A1).
            p.trackers.iter_mut().for_each(|t| t.cured(pid, now));
            if p.col.measuring() {
                p.reboots.calls += 1;
                p.reboots.ns += t0.elapsed().as_nanos() as u64;
                p.salvaged_keys += keys as u64;
            }
        }
    }
}
