//! A classical BFT MWMR regular register: `n = 3f + 1` servers, unbounded
//! timestamps (after Kanjani, Lee, Maguffee, Welch 2010 — reference \[14\]
//! of the paper).
//!
//! Shape of the protocol:
//!
//! * **write(v)** — phase 1: collect current timestamps from `n − f`
//!   servers and take `max + 1` (stamped with the writer id); phase 2:
//!   send `WRITE(v, ts)` to all, wait for `n − f` ACKs. Servers adopt
//!   **only** a strictly greater timestamp (unlike the stabilizing
//!   protocol's unconditional adoption) and ACK unconditionally.
//! * **read()** — query all servers, accumulate replies, and return the
//!   pair with the highest timestamp among those vouched for by at least
//!   `f + 1` distinct servers (so at least one correct server). Servers
//!   forward fresh writes to registered readers, which gives liveness
//!   under write concurrency.
//!
//! With a clean initial state this register is correct and uses minimal
//! resilience (`3f + 1`). Its two failure modes under transient faults —
//! measured by experiment E6 — are:
//!
//! 1. **Write lock-out**: a corrupted correct server holding `u64::MAX`
//!    poisons phase 1 (`max + 1` saturates); no server ever adopts again,
//!    so no fresh write can gather witnesses.
//! 2. **Permanent garbage reads**: the poisoned pair plus one Byzantine
//!    echo reaches the `f + 1` witness bar with the *highest* timestamp,
//!    so every read prefers it — forever.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use sbft_core::messages::{ClientEvent, Msg, ValTs, Value};
use sbft_core::spec::{HistoryRecorder, OpKind, RegularityError};
use sbft_labels::{LabelingSystem, MwmrLabeling, UnboundedLabeling, WriterId};
use sbft_net::{Automaton, Ctx, DelayModel, ProcessId, SimConfig, Simulation, ENV};

use crate::{USys, UTs};

/// Message/event aliases for the baseline (shared with `sbft-core`).
pub type BMsg = Msg<UTs>;
/// Client events with unbounded timestamps.
pub type BEvent = ClientEvent<UTs>;

/// A KLMW server: adopt-if-greater, ACK always.
pub struct KlmwServer {
    sys: USys,
    /// Current value.
    pub value: Value,
    /// Current (unbounded) timestamp.
    pub ts: UTs,
    /// Readers with an open read (label echoes their request).
    pub running_read: BTreeMap<ProcessId, u32>,
}

impl KlmwServer {
    /// Clean server.
    pub fn new() -> Self {
        let sys = MwmrLabeling::new(UnboundedLabeling);
        let genesis = sys.genesis();
        Self { sys, value: 0, ts: genesis, running_read: BTreeMap::new() }
    }
}

impl Default for KlmwServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Automaton<BMsg, BEvent> for KlmwServer {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        if from == ENV {
            return;
        }
        match msg {
            Msg::GetTs => ctx.send(from, Msg::TsReply { ts: self.ts.clone() }),
            Msg::Write { value, ts } => {
                if self.sys.precedes(&self.ts, &ts) {
                    self.value = value;
                    self.ts = ts.clone();
                    for (&reader, &label) in &self.running_read {
                        ctx.send(
                            reader,
                            Msg::Reply { value, ts: ts.clone(), old: [].into(), label },
                        );
                    }
                }
                ctx.send(from, Msg::WriteAck { ts, ack: true });
            }
            Msg::Read { label } => {
                self.running_read.insert(from, label);
                ctx.send(
                    from,
                    Msg::Reply { value: self.value, ts: self.ts.clone(), old: [].into(), label },
                );
            }
            Msg::CompleteRead { label } if self.running_read.get(&from) == Some(&label) => {
                self.running_read.remove(&from);
            }
            _ => {}
        }
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        // The transient fault of experiment E6: arbitrary value, arbitrary
        // unbounded timestamp — which is astronomically large w.h.p.
        self.value = rng.gen();
        self.ts = self.sys.arbitrary(rng);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A Byzantine KLMW server that echoes a scripted pair (colluding with
/// corrupted state to keep garbage alive — the E6 adversary).
pub struct KlmwEcho {
    /// The pair echoed to every read (settable via `as_any_mut`).
    pub pair: Option<ValTs<UTs>>,
}

impl Automaton<BMsg, BEvent> for KlmwEcho {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        if from == ENV {
            return;
        }
        match msg {
            Msg::GetTs => {
                if let Some((_, ts)) = &self.pair {
                    ctx.send(from, Msg::TsReply { ts: ts.clone() });
                }
            }
            Msg::Read { label } => {
                if let Some((v, ts)) = &self.pair {
                    ctx.send(from, Msg::Reply { value: *v, ts: ts.clone(), old: [].into(), label });
                }
            }
            Msg::Write { ts, .. } => ctx.send(from, Msg::WriteAck { ts, ack: true }),
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

enum Phase {
    Idle,
    Collect { value: Value, wts: BTreeMap<ProcessId, UTs> },
    WaitAcks { value: Value, ts: UTs, acks: usize, acked: BTreeMap<ProcessId, ()> },
    Reading { label: u32, replies: BTreeMap<ProcessId, ValTs<UTs>> },
}

/// A KLMW client.
pub struct KlmwClient {
    sys: USys,
    n: usize,
    f: usize,
    writer_id: WriterId,
    read_seq: u32,
    phase: Phase,
}

impl KlmwClient {
    /// Client for an `n = 3f + 1` cluster.
    pub fn new(n: usize, f: usize, writer_id: WriterId) -> Self {
        Self {
            sys: MwmrLabeling::new(UnboundedLabeling),
            n,
            f,
            writer_id,
            read_seq: 0,
            phase: Phase::Idle,
        }
    }

    fn quorum(&self) -> usize {
        self.n - self.f
    }
}

/// Decision rule: highest-timestamp pair with ≥ `witness` distinct vouchers.
fn decide_klmw(replies: &BTreeMap<ProcessId, ValTs<UTs>>, witness: usize) -> Option<ValTs<UTs>> {
    let mut counts: BTreeMap<&ValTs<UTs>, usize> = BTreeMap::new();
    for pair in replies.values() {
        *counts.entry(pair).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c >= witness)
        .map(|(p, _)| p.clone())
        .max_by(|a, b| a.1.cmp(&b.1))
}

impl Automaton<BMsg, BEvent> for KlmwClient {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        match msg {
            Msg::InvokeWrite { value } if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.phase = Phase::Collect { value, wts: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::GetTs);
                }
            }
            Msg::InvokeRead if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.read_seq = self.read_seq.wrapping_add(1);
                    let label = self.read_seq;
                    self.phase = Phase::Reading { label, replies: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::Read { label });
                }
            }
            Msg::TsReply { ts } => {
                let quorum = self.quorum();
                if let Phase::Collect { value, wts } = &mut self.phase {
                    if from < self.n {
                        wts.insert(from, ts);
                        if wts.len() >= quorum {
                            let seen: Vec<UTs> = wts.values().cloned().collect();
                            let new_ts = self.sys.next_for(self.writer_id, &seen);
                            let value = *value;
                            self.phase = Phase::WaitAcks {
                                value,
                                ts: new_ts.clone(),
                                acks: 0,
                                acked: BTreeMap::new(),
                            };
                            ctx.broadcast(0..self.n, Msg::Write { value, ts: new_ts });
                        }
                    }
                }
            }
            Msg::WriteAck { ts, .. } => {
                if let Phase::WaitAcks { value, ts: cur, acks, acked } = &mut self.phase {
                    if from < self.n && &ts == cur && acked.insert(from, ()).is_none() {
                        *acks += 1;
                        if *acks >= self.n - self.f {
                            let ev = ClientEvent::WriteDone { value: *value, ts: cur.clone() };
                            self.phase = Phase::Idle;
                            ctx.output(ev);
                        }
                    }
                }
            }
            Msg::Reply { value, ts, label, .. } => {
                let quorum = self.quorum();
                let witness = self.f + 1;
                let mut done = None;
                if let Phase::Reading { label: cur, replies } = &mut self.phase {
                    if from < self.n && label == *cur {
                        replies.insert(from, (value, ts));
                        if replies.len() >= quorum {
                            if let Some((v, t)) = decide_klmw(replies, witness) {
                                done = Some((v, t, *cur));
                            }
                            // else: keep accumulating replies beyond the
                            // quorum until some pair reaches f + 1.
                        }
                    }
                }
                if let Some((v, t, label)) = done {
                    ctx.broadcast(0..self.n, Msg::CompleteRead { label });
                    ctx.output(ClientEvent::ReadDone { value: v, ts: t, via_union: false });
                    self.phase = Phase::Idle;
                }
            }
            _ => {}
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Why a baseline blocking operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The simulation drained or the budget ran out with the op pending —
    /// for KLMW under timestamp poisoning, the expected terminal state.
    Stuck,
}

/// An assembled KLMW cluster on the simulator.
pub struct KlmwCluster {
    /// Underlying simulation.
    pub sim: Simulation<BMsg, BEvent>,
    /// Server count (`3f + 1`).
    pub n: usize,
    /// Byzantine budget.
    pub f: usize,
    n_clients: usize,
    /// History for the shared regularity checker.
    pub recorder: HistoryRecorder<UnboundedLabeling>,
    sys: USys,
    /// Max events per blocking op.
    pub op_budget: u64,
}

impl KlmwCluster {
    /// Build `n = 3f + 1` servers (last `byz` of them echo-Byzantine) and
    /// `clients` clients.
    pub fn new(f: usize, clients: usize, byz: usize, seed: u64) -> Self {
        let n = 3 * f + 1;
        assert!(byz <= f);
        let mut sim: Simulation<BMsg, BEvent> = Simulation::new(SimConfig {
            seed,
            delay: DelayModel::uniform(1, 10),
            ..SimConfig::default()
        });
        for s in 0..n {
            if s >= n - byz {
                sim.add_process(Box::new(KlmwEcho { pair: None }));
            } else {
                sim.add_process(Box::new(KlmwServer::new()));
            }
        }
        for c in 0..clients {
            sim.add_process(Box::new(KlmwClient::new(n, f, (n + c) as u32)));
        }
        Self {
            sim,
            n,
            f,
            n_clients: clients,
            recorder: HistoryRecorder::new(),
            sys: MwmrLabeling::new(UnboundedLabeling),
            op_budget: 200_000,
        }
    }

    /// Pid of client `i`.
    pub fn client(&self, i: usize) -> ProcessId {
        assert!(i < self.n_clients);
        self.n + i
    }

    fn await_client(&mut self, client: ProcessId) -> Result<BEvent, BaselineError> {
        let mut budget = self.op_budget;
        while budget > 0 {
            let Some(ev) = self.sim.step() else { return Err(BaselineError::Stuck) };
            budget -= 1;
            let (time, pid) = (ev.time, ev.pid);
            for out in ev.outputs {
                self.recorder.complete(pid, time, &out);
                if pid == client {
                    return Ok(out);
                }
            }
        }
        Err(BaselineError::Stuck)
    }

    /// Blocking write.
    pub fn write(&mut self, client: ProcessId, value: Value) -> Result<UTs, BaselineError> {
        self.recorder.begin(client, OpKind::Write, self.sim.now() + 1);
        self.sim.inject(client, Msg::InvokeWrite { value });
        match self.await_client(client)? {
            ClientEvent::WriteDone { ts, .. } => Ok(ts),
            _ => Err(BaselineError::Stuck),
        }
    }

    /// Blocking read.
    pub fn read(&mut self, client: ProcessId) -> Result<(Value, UTs), BaselineError> {
        self.recorder.begin(client, OpKind::Read, self.sim.now() + 1);
        self.sim.inject(client, Msg::InvokeRead);
        match self.await_client(client)? {
            ClientEvent::ReadDone { value, ts, .. } => Ok((value, ts)),
            _ => Err(BaselineError::Stuck),
        }
    }

    /// Poison server `idx`'s timestamp to the near-maximal pair `(value,
    /// u64::MAX − 1)` — the transient fault of E6 — and optionally make the
    /// Byzantine echo servers collude on the same pair.
    pub fn poison(&mut self, idx: usize, value: Value, collude: bool) {
        let pair = (value, UTs::new(u64::MAX - 1, u32::MAX));
        if let Some(any) = self.sim.process_mut(idx).as_any_mut() {
            if let Some(srv) = any.downcast_mut::<KlmwServer>() {
                srv.value = pair.0;
                srv.ts = pair.1.clone();
            }
        }
        if collude {
            for s in 0..self.n {
                if let Some(any) = self.sim.process_mut(s).as_any_mut() {
                    if let Some(echo) = any.downcast_mut::<KlmwEcho>() {
                        echo.pair = Some(pair.clone());
                    }
                }
            }
        }
    }

    /// Check the recorded history against MWMR regularity.
    pub fn check_history(&self) -> Result<(), Vec<RegularityError>> {
        self.recorder.check(&self.sys)
    }

    /// Messages sent so far (for E7 cost accounting).
    pub fn messages_sent(&self) -> u64 {
        self.sim.metrics().messages_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip_works() {
        let mut c = KlmwCluster::new(1, 2, 0, 1);
        let w = c.client(0);
        c.write(w, 5).unwrap();
        let (v, _) = c.read(c.client(1)).unwrap();
        assert_eq!(v, 5);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn tolerates_silent_byzantine_fault_free_state() {
        // One echo server with no script = effectively silent Byzantine.
        let mut c = KlmwCluster::new(1, 2, 1, 2);
        let w = c.client(0);
        c.write(w, 5).unwrap();
        let (v, _) = c.read(c.client(1)).unwrap();
        assert_eq!(v, 5);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn sequential_writes_read_latest() {
        let mut c = KlmwCluster::new(1, 2, 0, 3);
        let w = c.client(0);
        for v in 1..=8 {
            c.write(w, v).unwrap();
        }
        let (v, _) = c.read(c.client(1)).unwrap();
        assert_eq!(v, 8);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn poisoned_timestamp_locks_out_writes() {
        let mut c = KlmwCluster::new(1, 2, 0, 4);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.poison(0, 666, false);
        // Phase 1 may or may not include the poisoned server; with
        // saturating max+1 the write cannot be adopted by it, and when its
        // ts wins phase 1, no server adopts => some write eventually
        // sticks. Run several writes; at least liveness of reads must
        // degrade or the poisoned pair must persist on server 0.
        for v in 2..=4 {
            let _ = c.write(w, v); // may or may not complete
        }
        let any = c.sim.process_mut(0).as_any_mut().unwrap();
        let srv = any.downcast_mut::<KlmwServer>().unwrap();
        // Schedule-independent invariant: either the poisoned pair was never
        // in a phase-1 quorum and persists untouched, or one write saturated
        // to u64::MAX and the register is frozen there — the label never
        // returns to the healthy range either way.
        assert!(srv.ts.label >= u64::MAX - 1, "poison must lock the label near the top");
        if srv.ts.label == u64::MAX - 1 {
            assert_eq!(srv.value, 666, "undominated poison keeps its value");
        }
    }

    #[test]
    fn poison_saturates_timestamps_and_freezes_the_register() {
        let mut c = KlmwCluster::new(1, 2, 1, 5);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        // Transient fault on one correct server + Byzantine collusion.
        c.poison(0, 666, true);
        // The next write's phase 1 sees the near-maximal timestamp and
        // saturates `max + 1`; the one after that computes the *same*
        // saturated timestamp, so no server adopts it — yet every server
        // still ACKs, so the write "completes" while storing nothing.
        c.write(w, 2).unwrap();
        c.write(w, 3).unwrap();
        // Reads return the frozen value 2 forever: value 3 is lost and
        // the history shows permanent stale-read violations.
        for _ in 0..5 {
            let (v, _) = c.read(c.client(1)).unwrap();
            assert_ne!(v, 3, "the post-saturation write must be lost");
        }
        assert!(c.check_history().is_err(), "history must show violations");
    }
}
