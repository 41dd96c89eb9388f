//! The server automaton (server sides of Figures 1, 2b and 3b).
//!
//! A server keeps the register copy `(value, ts)`, the `old_vals` sliding
//! history of recently applied writes, and the `running_read` table of
//! readers with an open labelled read. Its reactions are one-shot and
//! stateless across messages, which is what makes the protocol's server
//! side wait-free:
//!
//! * `GET_TS` → `TS_REPLY(ts)`;
//! * `WRITE(v, ts)` → `ACK` iff `local_ts ≺ ts`, else `NACK`; **in either
//!   case** adopt `(v, ts)`, shift the old pair into `old_vals`, and
//!   forward the new pair to every running reader (so a reader blocked on
//!   a concurrent write still converges);
//! * `READ(ℓ)` → register the reader in `running_read`, `REPLY` with the
//!   current pair and history;
//! * `COMPLETE_READ(ℓ)` → deregister;
//! * `FLUSH(ℓ)` → reflect `FLUSH_ACK(ℓ)` (the FIFO-order certificate used
//!   by `find_read_label`).
//!
//! Transient faults (the [`Automaton::corrupt`] hook) scramble **all** of
//! this state: value, timestamp, history (with ill-formed labels), and the
//! `running_read` table — the arbitrary initial configuration of the model.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::Rng;
use sbft_labels::{LabelingSystem, ReadLabel};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};
use sbft_storage::{ByteReader, Cadence, Codec, DiskHandle, Journal};

use crate::cluster::{Envelope, Plain};
use crate::config::ClusterConfig;
use crate::messages::{ClientEvent, History, Msg, ValTs, Value};
use crate::{Sys, Ts};

/// A correct register server.
pub struct Server<B: LabelingSystem> {
    sys: Sys<B>,
    cfg: ClusterConfig,
    /// `v_i` — current register value.
    pub value: Value,
    /// `ts_i` — current timestamp.
    pub ts: Ts<B>,
    /// `old_vals_i` — most-recent-first sliding window of applied writes.
    pub old_vals: VecDeque<ValTs<Ts<B>>>,
    /// `running_read_i` — reader pid → label of its open read.
    pub running_read: BTreeMap<ProcessId, ReadLabel>,
    /// Count of writes applied (diagnostics only).
    pub writes_applied: u64,
    /// Optional stable storage; when present, applied writes persist
    /// through it and [`Server::recover`] can rebuild state after a crash.
    /// Boxed: a KV node holds one `Server` per key and journals for all of
    /// them itself, so this slot is empty in all but stand-alone registers
    /// and should cost a pointer, not a journal's worth of bytes per key.
    journal: Option<Box<Journal>>,
}

pub use sbft_storage::{SNAPSHOT_EVERY, SYNC_EVERY};

impl<B: LabelingSystem> Server<B> {
    /// A server booted in the canonical clean state.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig) -> Self {
        let genesis = sys.genesis();
        Self {
            sys,
            cfg,
            value: 0,
            ts: genesis,
            old_vals: VecDeque::new(),
            running_read: BTreeMap::new(),
            writes_applied: 0,
            journal: None,
        }
    }

    /// Attach stable storage (a fresh disk): every subsequently applied
    /// write is persisted through a [`Journal`] — one record appended per
    /// write, synced every [`SYNC_EVERY`] records, with the snapshot
    /// rewritten once the log has outgrown it.
    pub fn with_disk(mut self, disk: DiskHandle) -> Self {
        self.journal = Some(Box::new(Journal::new(disk)));
        self
    }

    /// Where the attached journal stands in its snapshot cadence (`None`
    /// without stable storage).
    pub fn cadence(&self) -> Option<Cadence> {
        self.journal.as_ref().map(|j| j.cadence())
    }

    /// Encode the durable state — `(value, ts, old_vals, writes_applied)`
    /// — as a snapshot payload. `running_read` is deliberately volatile:
    /// a rebooted server has no open read sessions.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_state(&mut out);
        out
    }

    /// Append [`Server::state_bytes`] to `out` without an intermediate
    /// buffer (the KV node embeds one of these per key in its snapshot).
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.ts.encode(out);
        // Same bytes as `Vec<ValTs>`: a u32 count, then the pairs.
        (self.old_vals.len() as u32).encode(out);
        for (value, ts) in &self.old_vals {
            value.encode(out);
            ts.encode(out);
        }
        self.writes_applied.encode(out);
    }

    /// Append this register's log record — the `(value, ts)` pair
    /// [`Server::replay_record`] applies — to `out`.
    pub fn encode_record(&self, out: &mut Vec<u8>) {
        self.value.encode(out);
        self.ts.encode(out);
    }

    /// Rebuild a server from a snapshot payload. Returns `None` only on
    /// *structurally* unreadable bytes; ill-formed labels inside are kept
    /// as-is (legal arbitrary state, sanitized on use). The decoded
    /// history is truncated to `cfg.history_depth` even if the persisted
    /// one was longer.
    pub fn from_state_bytes(sys: Sys<B>, cfg: ClusterConfig, bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let value = Value::decode(&mut r)?;
        let ts = Ts::<B>::decode(&mut r)?;
        let hist = Vec::<ValTs<Ts<B>>>::decode(&mut r)?;
        let writes_applied = u64::decode(&mut r)?;
        if !r.is_empty() {
            return None;
        }
        let mut old_vals: VecDeque<ValTs<Ts<B>>> = hist.into();
        old_vals.truncate(cfg.history_depth);
        Some(Self {
            sys,
            cfg,
            value,
            ts,
            old_vals,
            running_read: BTreeMap::new(),
            writes_applied,
            journal: None,
        })
    }

    /// Apply one persisted write record (as produced by the durability
    /// path of `apply_write`). Returns `false` on undecodable bytes.
    pub fn replay_record(&mut self, bytes: &[u8]) -> bool {
        match <(Value, Ts<B>)>::from_bytes(bytes) {
            Some((value, ts)) => {
                self.apply_write(value, ts);
                true
            }
            None => false,
        }
    }

    /// Reboot a server from its (possibly crash-damaged) disk.
    ///
    /// Never fails: an unreadable snapshot falls back to the clean boot
    /// state, undecodable records are skipped, and whatever intact prefix
    /// survives is replayed. The result may be *stale* or carry ill-formed
    /// labels — both are inside the arbitrary-state fault class the
    /// protocol stabilizes from, so recovery is treated by the spec like a
    /// cure: the rejoiner counts as unconverged until the next all-clear
    /// write. The disk stays attached, so the recovered server resumes
    /// persisting.
    pub fn recover(sys: Sys<B>, cfg: ClusterConfig, disk: DiskHandle) -> Self {
        let salvaged = disk.load();
        let mut s = salvaged
            .snapshot
            .as_deref()
            .and_then(|b| Self::from_state_bytes(sys.clone(), cfg, b))
            .unwrap_or_else(|| Self::new(sys, cfg));
        for rec in &salvaged.records {
            s.replay_record(rec);
        }
        s.old_vals.truncate(cfg.history_depth);
        let journal = Journal::resume(disk, &salvaged, |out| s.encode_state(out));
        s.journal = Some(Box::new(journal));
        s
    }

    /// Shared snapshot of the history window, most recent first. Built
    /// once per message; cloning the returned `Arc` is a reference bump,
    /// so fanning one snapshot out to many readers deep-copies nothing.
    fn history(&self) -> History<Ts<B>> {
        self.old_vals.iter().cloned().collect()
    }

    fn apply_write(&mut self, value: Value, ts: Ts<B>) {
        let prev = (self.value, self.ts.clone());
        self.old_vals.push_front(prev);
        self.old_vals.truncate(self.cfg.history_depth);
        self.value = value;
        self.ts = ts;
        self.writes_applied += 1;
        // Taken out for the call so the encoders can borrow `self`.
        if let Some(mut journal) = self.journal.take() {
            if journal.snapshot_due() {
                journal.put_snapshot(|out| self.encode_state(out));
            } else {
                journal.append(|out| self.encode_record(out));
            }
            self.journal = Some(journal);
        }
    }

    /// The server's reaction to `msg` from `from`, as the register `key` of
    /// the envelope `W`: every reply goes into `ctx` already addressed
    /// under `key`, so a store node hosting one `Server` per key hands each
    /// its own context. [`Automaton::on_message`] is the [`Plain`] instance.
    pub fn handle<W: Envelope<Base = B>>(
        &mut self,
        key: W::Key,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, W::Msg, W::Out>,
    ) {
        if from == ENV {
            return; // servers take no environment commands
        }
        match msg {
            Msg::GetTs => {
                ctx.send(from, W::wrap(key, Msg::TsReply { ts: self.ts.clone() }));
            }
            Msg::Write { value, ts } => {
                // Sanitize before any algebraic use: the writer (or the
                // channel) may have been corrupted.
                let ts = self.sys.sanitize(ts);
                let ack = self.sys.precedes(&self.ts, &ts);
                // Adopt unconditionally (Figure 1 server side: "in any
                // case, the server updates its local copy").
                self.apply_write(value, ts.clone());
                ctx.send(from, W::wrap(key, Msg::WriteAck { ts, ack }));
                // Forward the fresh pair to all running readers.
                let old = self.history();
                for (&reader, &label) in &self.running_read {
                    let (value, ts, old) = (self.value, self.ts.clone(), old.clone());
                    ctx.send(reader, W::wrap(key, Msg::Reply { value, ts, old, label }));
                }
            }
            Msg::Read { label } => {
                self.running_read.insert(from, label);
                let (value, ts, old) = (self.value, self.ts.clone(), self.history());
                ctx.send(from, W::wrap(key, Msg::Reply { value, ts, old, label }));
            }
            Msg::CompleteRead { label } => {
                if self.running_read.get(&from) == Some(&label) {
                    self.running_read.remove(&from);
                }
            }
            Msg::Flush { label } => {
                ctx.send(from, W::wrap(key, Msg::FlushAck { label }));
            }
            // Messages a correct server never consumes (stale client-bound
            // traffic, channel garbage) are dropped silently.
            Msg::TsReply { .. }
            | Msg::WriteAck { .. }
            | Msg::Reply { .. }
            | Msg::FlushAck { .. }
            | Msg::InvokeWrite { .. }
            | Msg::InvokeRead => {}
        }
    }
}

impl<B: LabelingSystem> Automaton<Msg<Ts<B>>, ClientEvent<Ts<B>>> for Server<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Msg<Ts<B>>,
        ctx: &mut Ctx<'_, Msg<Ts<B>>, ClientEvent<Ts<B>>>,
    ) {
        self.handle::<Plain<B>>((), from, msg, ctx);
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.value = rng.gen();
        self.ts = self.sys.arbitrary(rng);
        // Up to twice the configured depth: persisted state can legally be
        // longer than the current config (e.g. the depth was lowered
        // between boots), so arbitrary state must cover over-length
        // histories too — recovery and the next applied write re-bound it.
        let hist_len = rng.gen_range(0..=2 * self.cfg.history_depth);
        self.old_vals =
            (0..hist_len).map(|_| (rng.gen::<Value>(), self.sys.arbitrary(rng))).collect();
        // Phantom running reads pointing at arbitrary clients/labels.
        self.running_read.clear();
        for _ in 0..rng.gen_range(0..4usize) {
            let reader = self.cfg.n + rng.gen_range(0..4usize);
            self.running_read.insert(reader, rng.gen_range(0..self.cfg.read_labels as u32));
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;

    fn server() -> Server<B> {
        let cfg = ClusterConfig::stabilizing(1);
        Server::new(MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
    }

    fn ctx_run(
        s: &mut Server<B>,
        from: ProcessId,
        msg: Msg<Ts<B>>,
    ) -> Vec<(ProcessId, Msg<Ts<B>>)> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(0, 0, &mut rng);
        s.on_message(from, msg, &mut ctx);
        ctx.drain().0
    }

    fn fresh_ts(s: &Server<B>) -> Ts<B> {
        s.sys.next_for(9, std::slice::from_ref(&s.ts))
    }

    #[test]
    fn get_ts_replies_current() {
        let mut s = server();
        let out = ctx_run(&mut s, 7, Msg::GetTs);
        assert_eq!(out, vec![(7, Msg::TsReply { ts: s.ts.clone() })]);
    }

    #[test]
    fn dominating_write_acks_and_adopts() {
        let mut s = server();
        let ts = fresh_ts(&s);
        let out = ctx_run(&mut s, 7, Msg::Write { value: 42, ts: ts.clone() });
        assert_eq!(out, vec![(7, Msg::WriteAck { ts: ts.clone(), ack: true })]);
        assert_eq!(s.value, 42);
        assert_eq!(s.ts, ts);
        assert_eq!(s.old_vals.len(), 1);
        assert_eq!(s.old_vals[0].0, 0); // genesis pair shifted into history
    }

    #[test]
    fn stale_write_nacks_but_still_adopts() {
        let mut s = server();
        let newer = fresh_ts(&s);
        ctx_run(&mut s, 7, Msg::Write { value: 1, ts: newer.clone() });
        // Re-deliver a write whose ts does NOT dominate the current one.
        let stale = s.sys.genesis();
        let out = ctx_run(&mut s, 7, Msg::Write { value: 2, ts: stale.clone() });
        match &out[0].1 {
            Msg::WriteAck { ack, .. } => assert!(!ack, "stale write must NACK"),
            other => panic!("unexpected {other:?}"),
        }
        // Paper: the server adopts in any case.
        assert_eq!(s.value, 2);
    }

    #[test]
    fn read_registers_and_replies_with_history() {
        let mut s = server();
        let ts = fresh_ts(&s);
        ctx_run(&mut s, 9, Msg::Write { value: 5, ts });
        let out = ctx_run(&mut s, 8, Msg::Read { label: 2 });
        assert_eq!(s.running_read.get(&8), Some(&2));
        match &out[0].1 {
            Msg::Reply { value, old, label, .. } => {
                assert_eq!(*value, 5);
                assert_eq!(*label, 2);
                assert_eq!(old.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn writes_forward_to_running_readers() {
        let mut s = server();
        ctx_run(&mut s, 8, Msg::Read { label: 1 });
        let ts = fresh_ts(&s);
        let out = ctx_run(&mut s, 9, Msg::Write { value: 77, ts });
        // One WriteAck to the writer + one forwarded Reply to reader 8.
        assert_eq!(out.len(), 2);
        let fwd = out.iter().find(|(to, _)| *to == 8).expect("forwarded reply");
        match &fwd.1 {
            Msg::Reply { value, label, .. } => {
                assert_eq!(*value, 77);
                assert_eq!(*label, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn complete_read_deregisters_matching_label_only() {
        let mut s = server();
        ctx_run(&mut s, 8, Msg::Read { label: 1 });
        ctx_run(&mut s, 8, Msg::CompleteRead { label: 0 });
        assert!(s.running_read.contains_key(&8), "wrong label must not deregister");
        ctx_run(&mut s, 8, Msg::CompleteRead { label: 1 });
        assert!(!s.running_read.contains_key(&8));
    }

    #[test]
    fn flush_reflects() {
        let mut s = server();
        let out = ctx_run(&mut s, 8, Msg::Flush { label: 3 });
        assert_eq!(out, vec![(8, Msg::FlushAck { label: 3 })]);
    }

    #[test]
    fn history_is_bounded() {
        let mut s = server();
        for i in 0..50 {
            let ts = fresh_ts(&s);
            ctx_run(&mut s, 9, Msg::Write { value: i, ts });
        }
        assert!(s.old_vals.len() <= s.cfg.history_depth);
        assert_eq!(s.writes_applied, 50);
    }

    #[test]
    fn corrupt_scrambles_then_write_recovers() {
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(5);
        s.corrupt(&mut rng);
        // A write with a sanitized dominating ts is adopted and acked or
        // nacked — but adopted either way, cleaning the state.
        let clean = s.sys.next_for(1, &[s.sys.sanitize(s.ts.clone())]);
        ctx_run(&mut s, 9, Msg::Write { value: 11, ts: clean.clone() });
        assert_eq!(s.value, 11);
        assert_eq!(s.ts, clean);
    }

    #[test]
    fn garbage_messages_ignored() {
        let mut s = server();
        let before_val = s.value;
        let genesis = s.sys.genesis();
        let out = ctx_run(&mut s, 8, Msg::TsReply { ts: genesis });
        assert!(out.is_empty());
        let out = ctx_run(&mut s, 8, Msg::InvokeWrite { value: 9 });
        assert!(out.is_empty());
        assert_eq!(s.value, before_val);
    }

    #[test]
    fn env_messages_ignored() {
        let mut s = server();
        let out = ctx_run(&mut s, ENV, Msg::GetTs);
        assert!(out.is_empty());
    }

    use sbft_storage::{DiskFault, DiskHandle};

    fn durable_server(disk: &DiskHandle) -> Server<B> {
        server().with_disk(disk.clone())
    }

    fn write_n(s: &mut Server<B>, n: u64) {
        for i in 0..n {
            let ts = fresh_ts(s);
            ctx_run(s, 9, Msg::Write { value: 100 + i, ts });
        }
    }

    #[test]
    fn recover_restores_state_after_clean_crash() {
        let disk = DiskHandle::sim(3);
        let mut s = durable_server(&disk);
        write_n(&mut s, 7);
        let r = Server::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r.value, s.value);
        assert_eq!(r.ts, s.ts);
        assert_eq!(r.old_vals, s.old_vals);
        assert_eq!(r.writes_applied, s.writes_applied);
        assert!(r.running_read.is_empty());
    }

    #[test]
    fn recover_spans_snapshot_boundary() {
        let disk = DiskHandle::sim(3);
        let mut s = durable_server(&disk);
        write_n(&mut s, 40); // crosses SNAPSHOT_EVERY twice
        assert!(disk.stats().snapshots >= 2);
        let r = Server::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!((r.value, r.ts.clone()), (s.value, s.ts.clone()));
    }

    #[test]
    fn register_cadence_is_a_snapshot_every_sixteenth_write() {
        // A register's snapshot is worth about seven of its records, so the
        // shared journal's byte rule never delays it past the record-count
        // floor: 15 appends (synced at 4, 8, 12), then a snapshot.
        let disk = DiskHandle::sim(3);
        let mut s = durable_server(&disk);
        write_n(&mut s, 40);
        let st = disk.stats();
        assert_eq!((st.snapshots, st.appends, st.syncs), (2, 38, 8));
        let cadence = s.cadence().expect("durable server has a journal");
        assert_eq!(cadence.records, 8);
        // A reboot resumes the count where the disk left it.
        let r = Server::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r.cadence(), Some(cadence));
    }

    #[test]
    fn lost_suffix_recovers_stale_but_well_formed_state() {
        let disk = DiskHandle::sim(3);
        let mut s = durable_server(&disk);
        write_n(&mut s, 6); // 4 synced + 2 unflushed records
        disk.crash(DiskFault::LostSuffix);
        let r = Server::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r.value, 103, "last synced write (4th) survives");
        assert!(r.writes_applied < s.writes_applied);
    }

    #[test]
    fn recover_from_empty_or_damaged_disk_boots_clean() {
        let empty = DiskHandle::sim(3);
        let fresh = server();
        let r = Server::<B>::recover(fresh.sys.clone(), fresh.cfg, empty);
        assert_eq!((r.value, r.ts.clone()), (fresh.value, fresh.ts.clone()));

        // A snapshot reduced to garbage bytes falls back the same way.
        let garbage = DiskHandle::sim(3);
        garbage.put_snapshot(b"not a server state");
        let r = Server::<B>::recover(fresh.sys.clone(), fresh.cfg, garbage);
        assert_eq!(r.value, fresh.value);
    }

    #[test]
    fn recover_truncates_over_length_persisted_history() {
        // Persist a server with an over-length history (as `corrupt` can
        // now produce), then prove recovery re-bounds it.
        let mut s = server();
        let mut rng = StdRng::seed_from_u64(0);
        let depth = s.cfg.history_depth;
        s.old_vals = (0..2 * depth).map(|i| (i as Value, s.sys.arbitrary(&mut rng))).collect();
        assert!(s.old_vals.len() > depth);
        let disk = DiskHandle::sim(3);
        disk.put_snapshot(&s.state_bytes());
        let r = Server::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r.old_vals.len(), depth);
        // The most recent entries are the ones kept.
        assert_eq!(r.old_vals[0].0, s.old_vals[0].0);
    }

    #[test]
    fn corrupt_can_produce_over_length_histories() {
        let mut s = server();
        let depth = s.cfg.history_depth;
        let mut seen_over = false;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            s.corrupt(&mut rng);
            if s.old_vals.len() > depth {
                seen_over = true;
                break;
            }
        }
        assert!(seen_over, "corrupt never exceeded history_depth in 200 seeds");
    }

    #[test]
    fn recovered_server_resumes_persisting() {
        let disk = DiskHandle::sim(3);
        let mut s = durable_server(&disk);
        write_n(&mut s, 3);
        let mut r = Server::<B>::recover(s.sys.clone(), s.cfg, disk.clone());
        let appends_before = disk.stats().appends;
        write_n(&mut r, 2);
        assert!(disk.stats().appends > appends_before);
    }
}
