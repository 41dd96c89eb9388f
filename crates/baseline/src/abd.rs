//! A crash-only majority register in the style of Attiya–Bar-Noy–Dolev:
//! `n = 2f + 1` servers tolerate `f` *crash* faults, no Byzantine defence.
//!
//! The cheapest comparator in the quorum-cost experiment (E7): writes are
//! two phases against majorities, reads one phase returning the maximal
//! timestamp (trusting every reply — a single lying server breaks it,
//! which is the point of the comparison). Regular semantics (no write-back
//! phase).

use std::collections::BTreeMap;

use sbft_core::config::ClusterConfig;
use sbft_core::messages::{ClientEvent, Msg, ValTs, Value};
use sbft_labels::{LabelingSystem, MwmrLabeling, UnboundedLabeling, WriterId};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};

use crate::{BEvent, BMsg, BaselineCluster, USys, UTs};

/// An ABD server: adopt-if-greater, reply to reads.
pub struct AbdServer {
    sys: USys,
    value: Value,
    ts: UTs,
}

impl AbdServer {
    /// Clean server.
    pub fn new() -> Self {
        let sys = MwmrLabeling::new(UnboundedLabeling);
        let ts = sys.genesis();
        Self { sys, value: 0, ts }
    }
}

impl Default for AbdServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Automaton<BMsg, BEvent> for AbdServer {
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

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

enum Phase {
    Idle,
    Collect { value: Value, got: BTreeMap<ProcessId, UTs> },
    WaitAcks { value: Value, ts: UTs, acked: BTreeMap<ProcessId, ()> },
    Reading { label: u32, replies: BTreeMap<ProcessId, ValTs<UTs>> },
}

/// An ABD client.
pub struct AbdClient {
    sys: USys,
    n: usize,
    majority: usize,
    writer_id: WriterId,
    seq: u32,
    phase: Phase,
}

impl AbdClient {
    /// Client for an `n`-server majority system.
    pub fn new(n: usize, writer_id: WriterId) -> Self {
        Self {
            sys: MwmrLabeling::new(UnboundedLabeling),
            n,
            majority: n / 2 + 1,
            writer_id,
            seq: 0,
            phase: Phase::Idle,
        }
    }
}

impl Automaton<BMsg, BEvent> for AbdClient {
    fn on_message(&mut self, from: ProcessId, msg: BMsg, ctx: &mut Ctx<'_, BMsg, BEvent>) {
        match msg {
            Msg::InvokeWrite { value } if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.phase = Phase::Collect { value, got: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::GetTs);
                }
            }
            Msg::InvokeRead if from == ENV => {
                if matches!(self.phase, Phase::Idle) {
                    self.seq = self.seq.wrapping_add(1);
                    self.phase = Phase::Reading { label: self.seq, replies: BTreeMap::new() };
                    ctx.broadcast(0..self.n, Msg::Read { label: self.seq });
                }
            }
            Msg::TsReply { ts } => {
                if let Phase::Collect { value, got } = &mut self.phase {
                    if from < self.n {
                        got.insert(from, ts);
                        if got.len() >= self.majority {
                            let seen: Vec<UTs> = got.values().cloned().collect();
                            let new_ts = self.sys.next_for(self.writer_id, &seen);
                            let value = *value;
                            self.phase = Phase::WaitAcks {
                                value,
                                ts: new_ts.clone(),
                                acked: BTreeMap::new(),
                            };
                            ctx.broadcast(0..self.n, Msg::Write { value, ts: new_ts });
                        }
                    }
                }
            }
            Msg::WriteAck { ts, .. } => {
                if let Phase::WaitAcks { value, ts: cur, acked } = &mut self.phase {
                    if from < self.n && &ts == cur {
                        acked.insert(from, ());
                        if acked.len() >= self.majority {
                            let ev = ClientEvent::WriteDone { value: *value, ts: cur.clone() };
                            self.phase = Phase::Idle;
                            ctx.output(ev);
                        }
                    }
                }
            }
            Msg::Reply { value, ts, label, .. } => {
                let mut decided = None;
                if let Phase::Reading { label: cur, replies } = &mut self.phase {
                    if from < self.n && label == *cur {
                        replies.insert(from, (value, ts));
                        if replies.len() >= self.majority {
                            // Trust every reply: maximal timestamp wins.
                            let best = replies
                                .values()
                                .max_by(|a, b| a.1.cmp(&b.1))
                                .cloned()
                                .expect("majority is non-empty");
                            decided = Some(best);
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

/// `n = 2f + 1` servers, `clients` clients. Zero Byzantine seats is what
/// crash-only means, so the config's `f` is 0 and `crash_budget` only
/// sizes the group.
pub fn cluster(crash_budget: usize, clients: usize, seed: u64) -> BaselineCluster {
    let cfg = ClusterConfig::with_n(2 * crash_budget + 1, 0);
    let server = |_| Box::new(AbdServer::new()) as _;
    crate::assemble(cfg, clients, seed, server, |id| Box::new(AbdClient::new(cfg.n, id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_roundtrip() {
        let mut c = cluster(1, 2, 1);
        let w = c.client(0);
        c.write(w, 9).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 9);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn survives_f_crashes() {
        let mut c = cluster(1, 2, 2);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        c.sim.crash(0);
        c.write(w, 2).unwrap();
        assert_eq!(c.read(c.client(1)).unwrap().value, 2);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn sequential_writes_read_latest() {
        let mut c = cluster(2, 2, 3);
        let w = c.client(0);
        for v in 1..=6 {
            c.write(w, v).unwrap();
        }
        assert_eq!(c.read(c.client(1)).unwrap().value, 6);
        assert!(c.check_history().is_ok());
    }

    #[test]
    fn no_byzantine_defence_by_design() {
        // Poison one server's state: ABD reads trust the max timestamp, so
        // a single bad server breaks the register — the contrast E7 draws.
        let mut c = cluster(1, 2, 4);
        let w = c.client(0);
        c.write(w, 1).unwrap();
        let any = c.sim.process_mut(0).as_any_mut().expect("AbdServer exposes its state");
        let srv = any.downcast_mut::<AbdServer>().unwrap();
        (srv.value, srv.ts) = (666, UTs::new(u64::MAX, u32::MAX));
        // One crash (within budget) puts the poisoned server in every
        // majority.
        c.sim.crash(1);
        assert_eq!(c.read(c.client(1)).unwrap().value, 666, "the lone liar wins the read");
        assert!(c.check_history().is_err(), "a never-written value is a violation");
    }
}
