//! The storage node: one register-server state per key, one process.
//!
//! A key is a register: the node looks the key's [`Server`] up — one hash
//! probe into its [`KeySlab`] — and hands it the node's own context, and the
//! register answers under the key through the [`Keyed`] envelope (the
//! composition rule of `sbft_net::process`).
//!
//! With a disk attached the node persists every applied write as one
//! `(key, value, ts)` record through a shared [`Journal`], which decides
//! when the log has grown large enough to be worth replacing by a snapshot
//! of the whole key map — so the durable cost of a write is O(1) amortized,
//! as the paper's per-register server state is, not O(keys).

use rand::rngs::StdRng;
use rand::Rng;
use sbft_core::config::ClusterConfig;
use sbft_core::messages::Msg;
use sbft_core::server::Server;
use sbft_core::{Sys, Ts};
use sbft_labels::LabelingSystem;
use sbft_net::{Automaton, Ctx, ProcessId, ENV};
use sbft_storage::{ByteReader, Cadence, Codec, DiskHandle, Journal};

use crate::cluster::Keyed;
use crate::messages::{Key, KvEvent, KvMsg};
use crate::slab::KeySlab;

/// A server hosting the registers of every key it has ever been asked
/// about. Unknown keys materialize in the genesis state on first contact —
/// exactly like a fresh register.
pub struct KvServer<B: LabelingSystem> {
    sys: Sys<B>,
    cfg: ClusterConfig,
    /// Per-key register state, one slot per key ever named in a message,
    /// a recovered disk or a corruption — never removed. Snapshots and
    /// corruption walk it in ascending key order.
    pub registers: KeySlab<Server<B>>,
    /// Stable storage for the whole node (all keys share one disk).
    journal: Option<Journal>,
    /// Writes applied across all keys (persisted; diagnostics only).
    pub writes_applied: u64,
}

/// Smallest possible snapshot entry: a key and an (empty) state's length.
const MIN_ENTRY_BYTES: usize = 8 + 4;

impl<B: LabelingSystem> KvServer<B> {
    /// A storage node with no keys yet.
    pub fn new(sys: Sys<B>, cfg: ClusterConfig) -> Self {
        Self { sys, cfg, registers: KeySlab::new(), journal: None, writes_applied: 0 }
    }

    /// Attach stable storage (a fresh disk): every subsequently applied
    /// write appends one `(key, value, ts)` record through a [`Journal`],
    /// on the same sync and snapshot cadence as the plain register server —
    /// the whole key map is re-encoded only once the log has grown as
    /// large as the last snapshot, so the cost per write does not depend
    /// on how many keys the node holds.
    pub fn with_disk(mut self, disk: DiskHandle) -> Self {
        self.journal = Some(Journal::new(disk));
        self
    }

    /// Number of keys materialized on this node.
    pub fn key_count(&self) -> usize {
        self.registers.len()
    }

    /// Where the attached journal stands in its snapshot cadence (`None`
    /// without stable storage).
    pub fn cadence(&self) -> Option<Cadence> {
        self.journal.as_ref().map(Journal::cadence)
    }

    /// Encode the node's durable state: the node-wide write counter plus
    /// every key's register snapshot (each key reuses the register
    /// server's own snapshot payload).
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_state(self.writes_applied, &self.registers, &mut out);
        out
    }

    /// The bytes of `(writes, Vec<(Key, Vec<u8>)>)` — a u32 entry count,
    /// then per key, in ascending key order, a u32-length-prefixed register
    /// state — written in one pass: each register encodes in place and its
    /// length is patched in afterwards.
    fn encode_state(writes: u64, registers: &KeySlab<Server<B>>, out: &mut Vec<u8>) {
        writes.encode(out);
        let count = u32::try_from(registers.len()).expect("a node holds under 2^32 keys");
        count.encode(out);
        for (key, reg) in registers.iter() {
            key.encode(out);
            let len_at = out.len();
            0u32.encode(out);
            reg.encode_state(out);
            let len = (out.len() - len_at - 4) as u32;
            out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Inverse of [`KvServer::encode_state`]; `None` on structurally
    /// unreadable bytes. The entry count is bounded by the bytes actually
    /// present rather than by `codec::MAX_SEQ_LEN` (a node may well hold
    /// more than 2^16 keys), and nothing is allocated from it. A key whose
    /// embedded register state is unreadable boots that key clean.
    fn decode_state(
        sys: &Sys<B>,
        cfg: ClusterConfig,
        bytes: &[u8],
    ) -> Option<(u64, KeySlab<Server<B>>)> {
        let mut r = ByteReader::new(bytes);
        let writes = r.u64()?;
        let count = r.u32()? as usize;
        if count > r.remaining() / MIN_ENTRY_BYTES {
            return None;
        }
        let mut registers = KeySlab::new();
        for _ in 0..count {
            let key = Key::decode(&mut r)?;
            let len = r.u32()? as usize;
            let reg = Server::from_state_bytes(sys.clone(), cfg, r.take(len)?)
                .unwrap_or_else(|| Server::new(sys.clone(), cfg));
            registers.insert(key, reg);
        }
        r.is_empty().then_some((writes, registers))
    }

    /// Reboot a storage node from its (possibly crash-damaged) disk.
    ///
    /// Never fails: a structurally unreadable snapshot falls back to an
    /// empty store, a key whose embedded register state is unreadable
    /// boots that key clean, and log records replay only up to the first
    /// undecodable one per key. The surviving state may be stale or carry
    /// ill-formed labels — exactly the arbitrary-state class the per-key
    /// protocol stabilizes from. The disk stays attached.
    pub fn recover(sys: Sys<B>, cfg: ClusterConfig, disk: DiskHandle) -> Self {
        let salvaged = disk.load();
        let mut node = Self::new(sys.clone(), cfg);
        let snapshot = salvaged.snapshot.as_deref();
        if let Some((writes, registers)) = snapshot.and_then(|b| Self::decode_state(&sys, cfg, b)) {
            node.writes_applied = writes;
            node.registers = registers;
        }
        for rec in &salvaged.records {
            let mut r = ByteReader::new(rec);
            let Some(key) = Key::decode(&mut r) else { continue };
            let Some(rest) = r.take(r.remaining()) else { continue };
            let reg = node.registers.get_or_insert_with(key, || Server::new(sys.clone(), cfg));
            if reg.replay_record(rest) {
                node.writes_applied += 1;
            }
        }
        node.journal = Some(Journal::resume(disk, &salvaged, |out| {
            Self::encode_state(node.writes_applied, &node.registers, out)
        }));
        node
    }
}

impl<B: LabelingSystem> Automaton<KvMsg<Ts<B>>, KvEvent<Ts<B>>> for KvServer<B> {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
        ctx: &mut Ctx<'_, KvMsg<Ts<B>>, KvEvent<Ts<B>>>,
    ) {
        if from == ENV {
            return;
        }
        let key = msg.key;
        let is_write = matches!(msg.inner, Msg::Write { .. });
        let register =
            self.registers.get_or_insert_with(key, || Server::new(self.sys.clone(), self.cfg));
        register.handle::<Keyed<B>>(key, from, msg.inner, ctx);
        if is_write {
            // The register adopts every sanitized write unconditionally
            // (Figure 1), so a Write message always advanced (value, ts):
            // persist it, as one appended `(key, (value, ts))` record or —
            // when the journal says the log has outgrown the snapshot — as
            // a rewrite of the whole map.
            self.writes_applied += 1;
            if let Some(journal) = &mut self.journal {
                if journal.snapshot_due() {
                    journal.put_snapshot(|out| {
                        Self::encode_state(self.writes_applied, &self.registers, out)
                    });
                } else {
                    journal.append(|out| {
                        key.encode(out);
                        register.encode_record(out);
                    });
                }
            }
        }
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        // Scramble every materialized key's register state, in ascending
        // key order...
        for register in self.registers.values_mut() {
            register.corrupt(rng);
        }
        // ...and materialize a few phantom keys with corrupted state (the
        // arbitrary-memory model does not respect key boundaries).
        for _ in 0..rng.gen_range(0..3usize) {
            let key = rng.gen::<Key>() % 8;
            let mut phantom = Server::new(self.sys.clone(), self.cfg);
            phantom.corrupt(rng);
            self.registers.insert(key, phantom);
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
    use sbft_core::messages::Msg;
    use sbft_labels::{BoundedLabeling, MwmrLabeling};

    type B = BoundedLabeling;

    fn node() -> KvServer<B> {
        let cfg = ClusterConfig::stabilizing(1);
        KvServer::new(MwmrLabeling::new(BoundedLabeling::new(cfg.label_k())), cfg)
    }

    fn deliver(
        s: &mut KvServer<B>,
        from: ProcessId,
        msg: KvMsg<Ts<B>>,
    ) -> Vec<(ProcessId, KvMsg<Ts<B>>)> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Ctx::detached(0, 0, &mut rng);
        s.on_message(from, msg, &mut ctx);
        ctx.drain().0
    }

    #[test]
    fn keys_materialize_lazily_and_stay_isolated() {
        let mut s = node();
        assert_eq!(s.key_count(), 0);
        let out = deliver(&mut s, 7, KvMsg::new(1, Msg::GetTs));
        assert_eq!(s.key_count(), 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.key, 1, "replies carry the key");
        deliver(&mut s, 7, KvMsg::new(2, Msg::GetTs));
        assert_eq!(s.key_count(), 2);
    }

    #[test]
    fn writes_to_one_key_do_not_touch_another() {
        let mut s = node();
        deliver(&mut s, 7, KvMsg::new(1, Msg::GetTs));
        deliver(&mut s, 7, KvMsg::new(2, Msg::GetTs));
        let ts = {
            let reg = s.registers.get(&1).unwrap();
            s.sys.next_for(9, std::slice::from_ref(&reg.ts))
        };
        deliver(&mut s, 7, KvMsg::new(1, Msg::Write { value: 42, ts }));
        assert_eq!(s.registers.get(&1).unwrap().value, 42);
        assert_eq!(s.registers.get(&2).unwrap().value, 0, "key 2 untouched");
    }

    #[test]
    fn corruption_scrambles_all_keys() {
        let mut s = node();
        deliver(&mut s, 7, KvMsg::new(1, Msg::GetTs));
        let mut rng = StdRng::seed_from_u64(9);
        s.corrupt(&mut rng);
        assert!(s.key_count() >= 1);
    }

    /// Deliver a well-formed `Write` advancing `key`'s register.
    fn put(s: &mut KvServer<B>, key: Key, value: u64) {
        let cur = s.registers.get(&key).map_or_else(|| s.sys.genesis(), |r| r.ts.clone());
        let ts = s.sys.next_for(9, std::slice::from_ref(&cur));
        deliver(s, 7, KvMsg::new(key, Msg::Write { value, ts }));
    }

    #[test]
    fn node_recovers_every_key_after_clean_crash() {
        use sbft_storage::{DiskFault, DiskHandle};
        let disk = DiskHandle::sim(11);
        let mut s = node().with_disk(disk.clone());
        for i in 0..20u64 {
            put(&mut s, i % 3, 100 + i);
        }
        assert_eq!(s.writes_applied, 20);
        disk.crash(DiskFault::Pristine);
        let r = KvServer::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r.key_count(), 3);
        assert_eq!(r.writes_applied, 20);
        for key in 0..3u64 {
            assert_eq!(
                r.registers.get(&key).unwrap().value,
                s.registers.get(&key).unwrap().value,
                "key {key} diverged through recovery"
            );
        }
    }

    #[test]
    fn node_recovery_is_total_under_every_fault() {
        use sbft_storage::{DiskFault, DiskHandle};
        for fault in DiskFault::ALL {
            let disk = DiskHandle::sim(5);
            let mut s = node().with_disk(disk.clone());
            for i in 0..40u64 {
                put(&mut s, i % 4, i);
            }
            disk.crash(fault);
            // Recovery must never panic and never invent keys; stale or
            // missing keys are fine (the protocol re-stabilizes them).
            let r = KvServer::<B>::recover(s.sys.clone(), s.cfg, disk);
            assert!(r.key_count() <= 4, "{fault:?} invented keys");
            for (key, reg) in r.registers.iter() {
                assert!(
                    reg.value <= s.registers.get(key).map_or(u64::MAX, |o| o.value)
                        || reg.writes_applied <= s.registers[key].writes_applied,
                    "{fault:?} produced impossible state for key {key}"
                );
            }
        }
    }

    #[test]
    fn recovered_node_resumes_persisting() {
        use sbft_storage::{DiskFault, DiskHandle};
        let disk = DiskHandle::sim(3);
        let mut s = node().with_disk(disk.clone());
        for i in 0..6u64 {
            put(&mut s, 1, i);
        }
        disk.crash(DiskFault::LostSuffix);
        let appends_before = disk.stats().appends;
        let mut r = KvServer::<B>::recover(s.sys.clone(), s.cfg, disk.clone());
        put(&mut r, 1, 99);
        assert!(disk.stats().appends > appends_before, "recovered node stopped persisting");
        disk.crash(DiskFault::Pristine);
        let r2 = KvServer::<B>::recover(s.sys.clone(), s.cfg, disk);
        assert_eq!(r2.registers.get(&1).unwrap().value, 99);
    }
}
