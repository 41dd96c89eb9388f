//! A Malkhi–Reiter-style **safe** register over masking quorums — the
//! first related-work system of the paper's Section V: "a simple
//! wait-freedom implementation of a safe register using 5f servers".
//!
//! * `n = 5f` servers; quorums of `q = ⌈(n + 2f + 1) / 2⌉` — any two
//!   quorums intersect in ≥ `2f + 1` servers (a *masking* quorum system),
//!   and `q ≤ n − f` keeps quorums available despite `f` silent servers
//!   (wait-freedom).
//! * **write(v)**: single phase — send `WRITE(v, ts)` with the writer's
//!   monotone (unbounded) timestamp to all, wait for `q` ACKs.
//! * **read()**: query all, wait for `q` replies, return the
//!   highest-timestamp pair vouched for by ≥ `f + 1` servers; if no pair
//!   reaches that bar (only possible under concurrency or corruption) any
//!   return is allowed — *safe* semantics promise nothing to reads
//!   concurrent with writes — so the reader returns the highest-timestamp
//!   pair outright.
//!
//! SWMR only (one writer owns the timestamp counter), one phase each way:
//! the cheapest Byzantine-tolerant point in the E7 cost comparison, paying
//! for it with the weakest semantics ([`check_safety`] only constrains
//! reads that overlap no write).

use std::collections::BTreeMap;

use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg, ValTs, Value};
use sbft_core::spec::{HistoryRecorder, OpKind, OpOutcome};
use sbft_labels::{LabelingSystem, MwmrLabeling, UnboundedLabeling};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::{BEvent, BMsg, BaselineCluster, USys, UTs};

/// A safe-register server: adopt-if-greater, ACK always, reply to reads.
pub struct MrServer {
    sys: USys,
    value: Value,
    ts: UTs,
}

impl MrServer {
    /// Clean server.
    pub fn new() -> Self {
        let sys = MwmrLabeling::new(UnboundedLabeling);
        let ts = sys.genesis();
        Self { sys, value: 0, ts }
    }
}

impl Default for MrServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Automaton<BMsg, BEvent> for MrServer {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        if from == ENV {
            return;
        }
        match msg {
            Msg::Write { value, ts } => {
                if self.sys.precedes(&self.ts, &ts) {
                    self.value = value;
                    self.ts = ts.clone();
                }
                ctx.send(from, Msg::WriteAck { ts, ack: true });
            }
            Msg::Read { label } => ctx.send(
                from,
                Msg::Reply { value: self.value, ts: self.ts.clone(), old: [].into(), label },
            ),
            _ => {}
        }
    }
}

enum Phase {
    Idle,
    Writing { value: Value, ts: UTs, acked: BTreeMap<ProcessId, ()> },
    Reading { label: u32, replies: BTreeMap<ProcessId, ValTs<UTs>> },
}

/// The single writer / any reader client.
pub struct MrClient {
    n: usize,
    f: usize,
    writer_id: u32,
    next_ts: u64,
    seq: u32,
    phase: Phase,
}

impl MrClient {
    /// Client for an `n = 5f` masking-quorum system.
    pub fn new(n: usize, f: usize, writer_id: u32) -> Self {
        Self { n, f, writer_id, next_ts: 1, seq: 0, phase: Phase::Idle }
    }

    /// Masking quorum size `⌈(n + 2f + 1) / 2⌉`.
    pub fn quorum(&self) -> usize {
        (self.n + 2 * self.f + 1).div_ceil(2)
    }
}

impl Automaton<BMsg, BEvent> for MrClient {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        match msg {
            Msg::InvokeWrite { value } if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    let ts = UTs::new(self.next_ts, self.writer_id);
                    self.next_ts += 1;
                    self.phase = Phase::Writing { value, ts: ts.clone(), acked: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::Write { value, ts });
                }
            }
            Msg::InvokeRead if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.seq = self.seq.wrapping_add(1);
                    self.phase = Phase::Reading { label: self.seq, replies: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::Read { label: self.seq });
                }
            }
            Msg::WriteAck { ts, .. } => {
                let q = self.quorum();
                if let Phase::Writing { value, ts: cur, acked } = &mut self.phase {
                    if from < self.n && &ts == cur {
                        acked.insert(from, ());
                        if acked.len() >= q {
                            let ev = ClientEvent::WriteDone { value: *value, ts: cur.clone() };
                            self.phase = Phase::Idle;
                            ctx.output(ev);
                        }
                    }
                }
            }
            Msg::Reply { value, ts, label, .. } => {
                let q = self.quorum();
                let witness = self.f + 1;
                let mut decided = None;
                if let Phase::Reading { label: cur, replies } = &mut self.phase {
                    if from < self.n && label == *cur {
                        replies.insert(from, (value, ts));
                        if replies.len() >= q {
                            // Highest ts with >= f+1 vouchers; else (safe
                            // semantics: anything goes under concurrency)
                            // the highest ts outright.
                            let mut counts: BTreeMap<&ValTs<UTs>, usize> = BTreeMap::new();
                            for p in replies.values() {
                                *counts.entry(p).or_insert(0) += 1;
                            }
                            let vouched = counts
                                .iter()
                                .filter(|&(_, &c)| c >= witness)
                                .map(|(p, _)| (*p).clone())
                                .max_by(|a, b| a.1.cmp(&b.1));
                            let fallback = replies
                                .values()
                                .max_by(|a, b| a.1.cmp(&b.1))
                                .cloned()
                                .expect("quorum non-empty");
                            decided = Some(vouched.unwrap_or(fallback));
                        }
                    }
                }
                if let Some((v, t)) = decided {
                    self.phase = Phase::Idle;
                    ctx.output(ClientEvent::ReadDone { value: v, ts: t, via_union: false });
                }
            }
            _ => {}
        }
    }
}

/// `n = 5f` servers (the paper's Section V figure), `clients` clients
/// (client 0 is the distinguished writer). Check its history with
/// [`check_safety`].
pub fn cluster(f: usize, clients: usize, seed: u64) -> BaselineCluster {
    let cfg = ClusterConfig::with_n(5 * f, f);
    let server = |_| Box::new(MrServer::new()) as _;
    crate::assemble(cfg, clients, seed, server, |id| Box::new(MrClient::new(cfg.n, f, id)))
}

/// The **safe**-register condition: every read that overlaps *no* write
/// must return the value of the last completed write before it (or
/// genesis). Reads concurrent with any write are unconstrained.
pub fn check_safety(rec: &HistoryRecorder<UnboundedLabeling>) -> Result<(), Vec<usize>> {
    let ops = rec.ops();
    let mut bad = Vec::new();
    for (ri, r) in ops.iter().enumerate() {
        let Some(OpOutcome::ReadValue { value, .. }) = &r.outcome else { continue };
        let overlaps_write =
            ops.iter().any(|w| w.kind == OpKind::Write && !w.precedes(r) && !r.precedes(w));
        if overlaps_write {
            continue; // safe semantics: unconstrained
        }
        // Last completed write before this read.
        let last = ops
            .iter()
            .filter(|w| w.as_write().is_some() && w.precedes(r))
            .max_by_key(|w| w.returned_at);
        let expected = last.and_then(|w| w.as_write().map(|(v, _)| v)).unwrap_or(0);
        if *value != expected {
            bad.push(ri);
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_arithmetic() {
        let c = MrClient::new(5, 1, 0);
        assert_eq!(c.quorum(), 4); // ⌈(5 + 3)/2⌉ = 4 ≤ n − f = 4
        let c = MrClient::new(10, 2, 0);
        assert_eq!(c.quorum(), 8); // ⌈(10 + 5)/2⌉ = 8 ≤ 8
    }

    #[test]
    fn clean_roundtrip_is_safe() {
        let mut c = cluster(1, 2, 1);
        let w = c.client(0);
        for v in 1..=6 {
            c.write(w, v).unwrap();
            assert_eq!(c.read(c.client(1)).unwrap().value, v);
        }
        assert!(check_safety(c.history(())).is_ok());
    }

    #[test]
    fn survives_f_silent_servers() {
        let mut c = cluster(1, 2, 2);
        c.sim.crash(0); // one unresponsive server
        let w = c.client(0);
        c.write(w, 9).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 9);
        assert!(check_safety(c.history(())).is_ok());
    }

    #[test]
    fn safety_checker_flags_quiet_interval_mismatch() {
        let mut rec: HistoryRecorder<UnboundedLabeling> = HistoryRecorder::default();
        let sys: USys = MwmrLabeling::new(UnboundedLabeling);
        rec.begin_with_intent(10, OpKind::Write, 0, Some(5));
        rec.complete(10, 10, &ClientEvent::WriteDone { value: 5, ts: sys.genesis() });
        rec.begin(11, OpKind::Read, 20);
        rec.complete(
            11,
            30,
            &ClientEvent::ReadDone { value: 99, ts: sys.genesis(), via_union: false },
        );
        assert!(check_safety(&rec).is_err());
    }

    #[test]
    fn safety_checker_permits_anything_under_concurrency() {
        let mut rec: HistoryRecorder<UnboundedLabeling> = HistoryRecorder::default();
        let sys: USys = MwmrLabeling::new(UnboundedLabeling);
        rec.begin_with_intent(10, OpKind::Write, 0, Some(5)); // never completes
        rec.begin(11, OpKind::Read, 20);
        rec.complete(
            11,
            30,
            &ClientEvent::ReadDone { value: 12345, ts: sys.genesis(), via_union: false },
        );
        assert!(check_safety(&rec).is_ok());
    }
}
