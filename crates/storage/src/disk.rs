//! The [`Stable`] store trait and the simulated faulty disk.
//!
//! A server owns one stable store holding two regions:
//!
//! * a **snapshot** — one frame with the full encoded server state,
//!   rewritten (atomically, like a rename) once the log has grown as large
//!   as it (see [`crate::journal`]), which compacts the log away;
//! * a **log** — appended record frames, split into a durable prefix
//!   (synced) and an **unflushed tail** (appended but not yet `sync`ed —
//!   the bytes a real kernel still holds in its page cache).
//!
//! Crashes damage the store through an injectable [`DiskFault`], applied at
//! crash time by the nemesis. Recovery ([`Stable::load`]) never fails: it
//! returns whatever intact prefix survives, plus a damage report, and the
//! server rebuilds the best state it can — the stabilization machinery
//! cleans up whatever the disk got wrong, which is the whole point of
//! running this protocol over faulty storage.

use std::sync::{Arc, Mutex};

use crate::frame::{for_each_frame, last_frame_len, write_frame, FrameDamage, FRAME_HEADER};

/// Crash-time failure model applied to a [`SimDisk`].
///
/// `Pristine` is the best case (even the unflushed tail survives, as when
/// the page cache happened to be clean); the others each model one
/// real-world storage betrayal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiskFault {
    /// No damage: every byte written survives, synced or not.
    Pristine,
    /// The final frame on disk is torn mid-write: its trailing bytes are
    /// cut off, so recovery detects a partial frame and drops it.
    TornFrame,
    /// The unflushed tail vanishes: everything appended since the last
    /// `sync` was never durable (fsync-not-yet-called at crash).
    LostSuffix,
    /// One random bit somewhere on the disk flips silently; the CRC check
    /// catches it at load time and the stream is truncated there.
    BitRot,
    /// The current snapshot is rolled back to its predecessor and the log
    /// is gone — a misdirected or reordered snapshot write surfacing an
    /// old generation.
    StaleSnapshot,
}

impl DiskFault {
    /// Every fault kind, in severity-ish order — benches sweep this.
    pub const ALL: [DiskFault; 5] = [
        DiskFault::Pristine,
        DiskFault::LostSuffix,
        DiskFault::TornFrame,
        DiskFault::BitRot,
        DiskFault::StaleSnapshot,
    ];

    /// Stable kebab-case name (CLI flags, JSON columns).
    pub fn name(&self) -> &'static str {
        match self {
            DiskFault::Pristine => "pristine",
            DiskFault::TornFrame => "torn-frame",
            DiskFault::LostSuffix => "lost-suffix",
            DiskFault::BitRot => "bit-rot",
            DiskFault::StaleSnapshot => "stale-snapshot",
        }
    }

    /// Parse a [`DiskFault::name`] back.
    pub fn parse(s: &str) -> Option<DiskFault> {
        DiskFault::ALL.into_iter().find(|f| f.name() == s)
    }
}

/// What [`Stable::load`] salvaged.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// Payload of the newest intact snapshot frame, if any survived.
    pub snapshot: Option<Vec<u8>>,
    /// Intact record payloads appended after that snapshot, in order.
    pub records: Vec<Vec<u8>>,
    /// The snapshot region existed but failed its frame check.
    pub snapshot_damaged: bool,
    /// Damage found in the record log (the tail past it was dropped).
    pub log_damage: FrameDamage,
}

impl Recovered {
    /// Whether any region was detectably damaged.
    pub fn is_damaged(&self) -> bool {
        self.snapshot_damaged || self.log_damage.is_damaged()
    }
}

/// Cumulative operation counters for one store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Snapshot rewrites.
    pub snapshots: u64,
    /// Record appends.
    pub appends: u64,
    /// Explicit syncs.
    pub syncs: u64,
    /// Crashes survived (faults injected).
    pub crashes: u64,
}

/// Stable storage: snapshot + appended record frames, checksummed, with a
/// crash-time fault hook. All writes frame their payloads; all reads
/// verify checksums and degrade gracefully.
pub trait Stable: Send {
    /// Atomically replace the snapshot with `payload` (one frame) and
    /// compact the log away. Durable on return.
    fn put_snapshot(&mut self, payload: &[u8]);

    /// Append one record frame to the unflushed tail.
    fn append(&mut self, payload: &[u8]);

    /// Make every appended record durable.
    fn sync(&mut self);

    /// Crash with `fault` applied to the on-disk bytes.
    fn crash(&mut self, fault: DiskFault);

    /// Read back whatever intact state survives.
    fn load(&self) -> Recovered;

    /// Order-sensitive digest of the full disk contents — equal digests
    /// mean byte-identical disks (used by cross-substrate parity checks).
    fn digest(&self) -> u64;

    /// Operation counters.
    fn stats(&self) -> DiskStats;
}

/// In-memory simulated disk. Deterministic: the only randomness (bit-rot
/// placement) comes from a seeded xorshift stream, so identical operation
/// sequences on identically-seeded disks produce identical bytes on any
/// substrate.
#[derive(Clone, Debug)]
pub struct SimDisk {
    snapshot: Vec<u8>,
    prev_snapshot: Vec<u8>,
    log: Vec<u8>,
    unflushed: Vec<u8>,
    rng: u64,
    stats: DiskStats,
}

impl SimDisk {
    /// A fresh empty disk; `seed` drives bit-rot placement.
    pub fn new(seed: u64) -> Self {
        Self {
            snapshot: Vec::new(),
            prev_snapshot: Vec::new(),
            log: Vec::new(),
            unflushed: Vec::new(),
            rng: seed | 1, // xorshift must not start at 0
            stats: DiskStats::default(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: tiny, seedable, good enough to pick a bit to flip.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Truncate the last frame of the last non-empty region so it reads
    /// back as torn.
    fn tear_final_frame(&mut self) {
        for region in [&mut self.unflushed, &mut self.log, &mut self.snapshot] {
            if region.is_empty() {
                continue;
            }
            // A header walk, not a decode: the log is as large as the
            // snapshot now, and only the last frame's length is wanted.
            let last_len = last_frame_len(region).unwrap_or(region.len());
            let cut = (last_len / 2).max(1).min(region.len());
            region.truncate(region.len() - cut);
            return;
        }
    }

    fn flip_random_bit(&mut self) {
        let total = self.snapshot.len() + self.log.len() + self.unflushed.len();
        if total == 0 {
            return;
        }
        let byte = (self.next_rand() as usize) % total;
        let bit = (self.next_rand() as u8) % 8;
        let target = if byte < self.snapshot.len() {
            &mut self.snapshot[byte]
        } else if byte - self.snapshot.len() < self.log.len() {
            &mut self.log[byte - self.snapshot.len()]
        } else {
            &mut self.unflushed[byte - self.snapshot.len() - self.log.len()]
        };
        *target ^= 1 << bit;
    }
}

impl Stable for SimDisk {
    fn put_snapshot(&mut self, payload: &[u8]) {
        self.prev_snapshot =
            std::mem::replace(&mut self.snapshot, Vec::with_capacity(FRAME_HEADER + payload.len()));
        write_frame(&mut self.snapshot, payload);
        // Freed, not cleared: a log regrown to snapshot size by doubling
        // would otherwise pin up to twice that per disk between snapshots.
        self.log = Vec::new();
        self.unflushed.clear();
        self.stats.snapshots += 1;
    }

    fn append(&mut self, payload: &[u8]) {
        write_frame(&mut self.unflushed, payload);
        self.stats.appends += 1;
    }

    fn sync(&mut self) {
        self.log.append(&mut self.unflushed);
        self.stats.syncs += 1;
    }

    fn crash(&mut self, fault: DiskFault) {
        self.stats.crashes += 1;
        match fault {
            DiskFault::Pristine => {}
            DiskFault::TornFrame => self.tear_final_frame(),
            DiskFault::LostSuffix => self.unflushed.clear(),
            DiskFault::BitRot => self.flip_random_bit(),
            DiskFault::StaleSnapshot => {
                self.snapshot = std::mem::take(&mut self.prev_snapshot);
                self.log.clear();
                self.unflushed.clear();
            }
        }
    }

    fn load(&self) -> Recovered {
        let mut snapshot = None;
        let snapshot_damaged =
            for_each_frame(&self.snapshot, 0, |p| snapshot = Some(p.to_vec())).is_damaged();
        // The log and its unflushed tail are one byte stream on disk:
        // damage in the durable prefix also severs everything behind it,
        // and a torn frame ending the prefix runs on into the tail. Only
        // that remnant and the (few-record) tail are joined by copying.
        let mut records = Vec::new();
        let mut log_damage = for_each_frame(&self.log, 0, |p| records.push(p.to_vec()));
        let tail_at = match log_damage {
            FrameDamage::None => Some(self.log.len()),
            FrameDamage::Torn { dropped_bytes } => Some(self.log.len() - dropped_bytes),
            FrameDamage::Corrupt { .. } => None,
        };
        if let Some(at) = tail_at.filter(|_| !self.unflushed.is_empty()) {
            let tail = [&self.log[at..], &self.unflushed[..]].concat();
            log_damage = for_each_frame(&tail, at, |p| records.push(p.to_vec()));
        }
        Recovered { snapshot, records, snapshot_damaged, log_damage }
    }

    fn digest(&self) -> u64 {
        // FNV-1a with region separators so (snapshot, log) splits don't
        // collide.
        let mut h = crate::fnv::Fnv64::new();
        h.bytes(&self.snapshot).sep();
        h.bytes(&self.log).sep();
        h.bytes(&self.unflushed).sep();
        h.finish()
    }

    fn stats(&self) -> DiskStats {
        self.stats
    }
}

/// A cloneable, thread-safe handle to one stable store. Both the server
/// automaton (which persists through it) and the nemesis driver (which
/// crashes it and rebuilds a recovered automaton from it) hold clones, on
/// either substrate.
#[derive(Clone)]
pub struct DiskHandle(Arc<Mutex<dyn Stable>>);

impl std::fmt::Debug for DiskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskHandle").field("stats", &self.stats()).finish()
    }
}

impl DiskHandle {
    /// Wrap any stable store.
    pub fn new(store: impl Stable + 'static) -> Self {
        Self(Arc::new(Mutex::new(store)))
    }

    /// A fresh simulated disk.
    pub fn sim(seed: u64) -> Self {
        Self::new(SimDisk::new(seed))
    }

    /// See [`Stable::put_snapshot`].
    pub fn put_snapshot(&self, payload: &[u8]) {
        self.0.lock().unwrap().put_snapshot(payload);
    }

    /// See [`Stable::append`].
    pub fn append(&self, payload: &[u8]) {
        self.0.lock().unwrap().append(payload);
    }

    /// See [`Stable::sync`].
    pub fn sync(&self) {
        self.0.lock().unwrap().sync();
    }

    /// See [`Stable::crash`].
    pub fn crash(&self, fault: DiskFault) {
        self.0.lock().unwrap().crash(fault);
    }

    /// See [`Stable::load`].
    pub fn load(&self) -> Recovered {
        self.0.lock().unwrap().load()
    }

    /// See [`Stable::digest`].
    pub fn digest(&self) -> u64 {
        self.0.lock().unwrap().digest()
    }

    /// See [`Stable::stats`].
    pub fn stats(&self) -> DiskStats {
        self.0.lock().unwrap().stats()
    }
}

/// One disk per server process, indexed by process id.
#[derive(Clone, Debug)]
pub struct DiskSet {
    disks: Vec<DiskHandle>,
}

impl DiskSet {
    /// `n` simulated disks; each gets a seed derived from `seed` and its
    /// pid so bit-rot streams differ across servers but replay across
    /// substrates.
    pub fn sim(n: usize, seed: u64) -> Self {
        let disks = (0..n)
            .map(|pid| DiskHandle::sim(seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        Self { disks }
    }

    /// The disk for server `pid` (panics if out of range).
    pub fn get(&self, pid: usize) -> DiskHandle {
        self.disks[pid].clone()
    }

    /// Number of disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Content digest of every disk, in pid order.
    pub fn digests(&self) -> Vec<u64> {
        self.disks.iter().map(DiskHandle::digest).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(disk: &SimDisk) -> (Option<Vec<u8>>, Vec<Vec<u8>>, bool) {
        let r = disk.load();
        let damaged = r.is_damaged();
        (r.snapshot, r.records, damaged)
    }

    #[test]
    fn snapshot_and_records_round_trip() {
        let mut d = SimDisk::new(7);
        d.put_snapshot(b"snap");
        d.append(b"r1");
        d.sync();
        d.append(b"r2");
        let (snap, recs, damaged) = loaded(&d);
        assert_eq!(snap.as_deref(), Some(&b"snap"[..]));
        assert_eq!(recs, vec![b"r1".to_vec(), b"r2".to_vec()]);
        assert!(!damaged);
    }

    #[test]
    fn snapshot_compacts_log() {
        let mut d = SimDisk::new(7);
        d.append(b"old");
        d.sync();
        d.put_snapshot(b"snap");
        let (snap, recs, _) = loaded(&d);
        assert_eq!(snap.as_deref(), Some(&b"snap"[..]));
        assert!(recs.is_empty());
    }

    #[test]
    fn pristine_crash_keeps_unflushed_tail() {
        let mut d = SimDisk::new(7);
        d.append(b"tail");
        d.crash(DiskFault::Pristine);
        let (_, recs, damaged) = loaded(&d);
        assert_eq!(recs, vec![b"tail".to_vec()]);
        assert!(!damaged);
    }

    #[test]
    fn lost_suffix_drops_only_unsynced_records() {
        let mut d = SimDisk::new(7);
        d.append(b"durable");
        d.sync();
        d.append(b"gone");
        d.crash(DiskFault::LostSuffix);
        let (_, recs, damaged) = loaded(&d);
        assert_eq!(recs, vec![b"durable".to_vec()]);
        assert!(!damaged); // clean truncation at a frame boundary
    }

    #[test]
    fn torn_frame_loses_final_record_detectably() {
        let mut d = SimDisk::new(7);
        d.append(b"keep-me");
        d.append(b"torn-me");
        d.crash(DiskFault::TornFrame);
        let r = d.load();
        assert_eq!(r.records, vec![b"keep-me".to_vec()]);
        assert!(r.log_damage.is_damaged());
    }

    #[test]
    fn torn_frame_on_snapshot_only_disk_damages_snapshot() {
        let mut d = SimDisk::new(7);
        d.put_snapshot(b"snap");
        d.crash(DiskFault::TornFrame);
        let r = d.load();
        assert_eq!(r.snapshot, None);
        assert!(r.snapshot_damaged);
    }

    #[test]
    fn torn_frame_on_a_long_log_drops_exactly_the_last_record() {
        let mut d = SimDisk::new(7);
        d.put_snapshot(b"snap");
        for i in 0..5_000u32 {
            d.append(&i.to_le_bytes());
            if i % 4 == 3 {
                d.sync();
            }
        }
        // The unflushed tail is empty, so the tear lands in the durable log.
        d.crash(DiskFault::TornFrame);
        let r = d.load();
        assert_eq!(r.records.len(), 4_999);
        assert_eq!(r.records.last().unwrap(), &4_998u32.to_le_bytes().to_vec());
        // Half of the 16-byte final frame was cut; the other half is torn.
        assert_eq!(r.log_damage, FrameDamage::Torn { dropped_bytes: (FRAME_HEADER + 4) / 2 });
    }

    /// What `load` must return for the record log: the decode of the
    /// durable log and its unflushed tail joined into one byte stream.
    fn joined_decode(d: &SimDisk) -> (Vec<Vec<u8>>, FrameDamage) {
        crate::frame::decode_frames(&[&d.log[..], &d.unflushed[..]].concat())
    }

    #[test]
    fn load_equals_decoding_log_and_tail_as_one_stream() {
        for fault in DiskFault::ALL {
            for seed in 0..40u64 {
                let mut d = SimDisk::new(seed);
                let payload = |i: u64| vec![i as u8; 1 + (i * 7 % 23) as usize];
                let synced = 1 + seed % 9;
                for i in 0..synced {
                    d.append(&payload(i));
                }
                d.sync();
                for i in 0..seed % 4 {
                    d.append(&payload(100 + i));
                }
                d.crash(fault);
                let r = d.load();
                assert_eq!((r.records, r.log_damage), joined_decode(&d), "{fault:?} seed {seed}");
                // Keep writing behind whatever the fault left (a torn log
                // tail now runs on into the new bytes).
                d.append(b"behind-the-damage");
                d.append(b"and-more");
                let r = d.load();
                assert_eq!((r.records, r.log_damage), joined_decode(&d), "{fault:?} seed {seed}+");
            }
        }
    }

    #[test]
    fn bit_rot_is_detected_not_believed() {
        let mut d = SimDisk::new(42);
        d.put_snapshot(b"a-reasonably-long-snapshot-payload");
        d.append(b"record-one");
        d.sync();
        d.crash(DiskFault::BitRot);
        let r = d.load();
        // The flipped bit lands in exactly one region; whatever it hit is
        // reported damaged rather than returned corrupted.
        assert!(r.is_damaged());
        if let Some(s) = &r.snapshot {
            assert_eq!(s.as_slice(), &b"a-reasonably-long-snapshot-payload"[..]);
        }
        for rec in &r.records {
            assert_eq!(rec.as_slice(), &b"record-one"[..]);
        }
    }

    #[test]
    fn stale_snapshot_rolls_back_a_generation() {
        let mut d = SimDisk::new(7);
        d.put_snapshot(b"gen1");
        d.put_snapshot(b"gen2");
        d.append(b"after-gen2");
        d.crash(DiskFault::StaleSnapshot);
        let (snap, recs, _) = loaded(&d);
        assert_eq!(snap.as_deref(), Some(&b"gen1"[..]));
        assert!(recs.is_empty());
    }

    #[test]
    fn stale_snapshot_with_no_predecessor_wipes_clean() {
        let mut d = SimDisk::new(7);
        d.put_snapshot(b"only");
        d.crash(DiskFault::StaleSnapshot);
        let (snap, _, _) = loaded(&d);
        assert_eq!(snap, None);
    }

    #[test]
    fn digests_track_content() {
        let mut a = SimDisk::new(7);
        let mut b = SimDisk::new(7);
        a.put_snapshot(b"x");
        b.put_snapshot(b"x");
        assert_eq!(a.digest(), b.digest());
        b.append(b"y");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn identically_seeded_disks_rot_identically() {
        let mk = || {
            let mut d = SimDisk::new(99);
            d.put_snapshot(b"same-bytes-on-both");
            d.append(b"same-record");
            d.crash(DiskFault::BitRot);
            d.digest()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn disk_set_digests_are_per_pid_stable() {
        let s1 = DiskSet::sim(3, 5);
        let s2 = DiskSet::sim(3, 5);
        s1.get(1).append(b"r");
        s2.get(1).append(b"r");
        assert_eq!(s1.digests(), s2.digests());
        assert_eq!(s1.len(), 3);
        s1.get(2).put_snapshot(b"s");
        assert_ne!(s1.digests(), s2.digests());
    }

    #[test]
    fn stats_count_operations() {
        let d = DiskHandle::sim(1);
        d.put_snapshot(b"s");
        d.append(b"r");
        d.append(b"r");
        d.sync();
        d.crash(DiskFault::Pristine);
        let st = d.stats();
        assert_eq!(st, DiskStats { snapshots: 1, appends: 2, syncs: 1, crashes: 1 });
    }

    #[test]
    fn fault_names_round_trip() {
        for f in DiskFault::ALL {
            assert_eq!(DiskFault::parse(f.name()), Some(f));
        }
        assert_eq!(DiskFault::parse("nope"), None);
    }
}
