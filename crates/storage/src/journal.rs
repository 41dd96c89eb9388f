//! The write path of a durable node, and the one place its cadence lives.
//!
//! Every applied write becomes one appended record; every
//! [`SYNC_EVERY`]-th record syncs the log; and the snapshot is rewritten —
//! compacting the log away — only once the log has grown as large as the
//! snapshot it would replace (the log-doubling rule). A snapshot costs
//! O(state), so spending one per O(state) bytes of log keeps the bytes
//! written per applied write within a small constant of the record size,
//! however many keys the node holds, and keeps the log a recovery must
//! replay no larger than the state it rebuilds.
//!
//! Both the plain register server and the KV storage node persist through
//! a [`Journal`]; neither knows the rule.

use crate::disk::{DiskHandle, Recovered};
use crate::frame::FRAME_HEADER;

/// Every `SYNC_EVERY`-th appended record syncs the log — between syncs
/// there is an unflushed tail for `DiskFault::LostSuffix` to eat.
pub const SYNC_EVERY: u64 = 4;
/// A snapshot is never rewritten before this many records have accumulated
/// since the last one, however small the state (it also gives
/// `DiskFault::StaleSnapshot` a previous generation that is not *too* old
/// to roll back to).
pub const SNAPSHOT_EVERY: u64 = 16;

/// What is on disk, as far as the cadence cares: how much log has
/// accumulated behind how large a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cadence {
    /// Record frames appended since the last snapshot.
    pub records: u64,
    /// Bytes of those frames, headers included.
    pub log_bytes: u64,
    /// Payload bytes of the last snapshot (0 when there is none).
    pub snapshot_bytes: u64,
}

impl Cadence {
    /// The cadence position of a disk that yields `salvaged` — what a
    /// reboot resumes from, so a crash never resets the compaction clock.
    pub fn of(salvaged: &Recovered) -> Self {
        Self {
            records: salvaged.records.len() as u64,
            log_bytes: salvaged.records.iter().map(|r| (r.len() + FRAME_HEADER) as u64).sum(),
            snapshot_bytes: salvaged.snapshot.as_ref().map_or(0, |s| s.len() as u64),
        }
    }

    /// Whether the write about to be persisted should rewrite the snapshot
    /// instead of appending a record: at least [`SNAPSHOT_EVERY`] records
    /// (this one included) *and* at least a snapshot's worth of log bytes
    /// since the last one. A plain register's snapshot is worth about
    /// seven of its records, so for it the count alone decides.
    pub fn snapshot_due(&self) -> bool {
        self.records + 1 >= SNAPSHOT_EVERY && self.log_bytes >= self.snapshot_bytes
    }

    /// Account one appended record; returns whether the log should sync.
    fn appended(&mut self, payload_len: usize) -> bool {
        self.records += 1;
        self.log_bytes += (payload_len + FRAME_HEADER) as u64;
        self.records.is_multiple_of(SYNC_EVERY)
    }

    /// Account a snapshot rewrite (which compacted the log away).
    fn snapshotted(&mut self, payload_len: usize) {
        *self = Self { records: 0, log_bytes: 0, snapshot_bytes: payload_len as u64 };
    }
}

/// A node's stable store plus its position in the cadence. The caller
/// encodes payloads straight into the journal's buffers: one reused across
/// records, and a transient one per snapshot sized from what is on disk
/// (a node does not hold on to a state-sized buffer between snapshots).
#[derive(Debug)]
pub struct Journal {
    disk: DiskHandle,
    cadence: Cadence,
    record_buf: Vec<u8>,
}

impl Journal {
    /// Start journaling to a fresh (empty) disk.
    pub fn new(disk: DiskHandle) -> Self {
        Self { disk, cadence: Cadence::default(), record_buf: Vec::new() }
    }

    /// Resume journaling to the disk that yielded `salvaged`. If any region
    /// was detectably damaged the snapshot is rewritten at once from
    /// `encode_state` (the state just rebuilt from `salvaged`): the damaged
    /// bytes are still on disk, and records appended behind them would be
    /// unreachable to the next recovery until the next snapshot — which
    /// under the log-doubling rule may be a whole state's worth of writes
    /// away.
    pub fn resume(
        disk: DiskHandle,
        salvaged: &Recovered,
        encode_state: impl FnOnce(&mut Vec<u8>),
    ) -> Self {
        let mut journal = Self { disk, cadence: Cadence::of(salvaged), record_buf: Vec::new() };
        if salvaged.is_damaged() {
            journal.put_snapshot(encode_state);
        }
        journal
    }

    /// Where this journal stands in the cadence.
    pub fn cadence(&self) -> Cadence {
        self.cadence
    }

    /// See [`Cadence::snapshot_due`]. The caller asks, then calls exactly
    /// one of [`Journal::put_snapshot`] and [`Journal::append`].
    pub fn snapshot_due(&self) -> bool {
        self.cadence.snapshot_due()
    }

    /// Append the record `encode` writes, syncing on the cadence.
    pub fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.record_buf.clear();
        encode(&mut self.record_buf);
        self.disk.append(&self.record_buf);
        if self.cadence.appended(self.record_buf.len()) {
            self.disk.sync();
        }
    }

    /// Replace the snapshot with the state `encode` writes.
    pub fn put_snapshot(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        // The state is about the last snapshot plus what the log added.
        let hint = self.cadence.snapshot_bytes + self.cadence.log_bytes;
        let mut state = Vec::with_capacity(hint as usize);
        encode(&mut state);
        self.disk.put_snapshot(&state);
        self.cadence.snapshotted(state.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskFault;

    /// Drive `writes` records of `record` bytes against a state of `state`
    /// bytes; returns (snapshots, bytes written to disk).
    fn drive(journal: &mut Journal, writes: u64, record: usize, state: usize) -> (u64, u64) {
        let (mut snapshots, mut bytes) = (0, 0);
        for _ in 0..writes {
            if journal.snapshot_due() {
                journal.put_snapshot(|out| out.resize(state, 7));
                snapshots += 1;
                bytes += (state + FRAME_HEADER) as u64;
            } else {
                journal.append(|out| out.resize(record, 3));
                bytes += (record + FRAME_HEADER) as u64;
            }
        }
        (snapshots, bytes)
    }

    #[test]
    fn small_state_snapshots_every_sixteenth_write() {
        // A register: the snapshot is worth ~7 records, so the count rules
        // and the cadence is exactly "every 16th write" with syncs at 4,
        // 8 and 12 in between.
        let disk = DiskHandle::sim(1);
        let mut j = Journal::new(disk.clone());
        drive(&mut j, 64, 24, 170);
        let st = disk.stats();
        assert_eq!((st.snapshots, st.appends, st.syncs), (4, 60, 12));
        assert_eq!(j.cadence(), Cadence { records: 0, log_bytes: 0, snapshot_bytes: 170 });
    }

    #[test]
    fn large_state_snapshots_by_bytes_and_write_amp_stays_constant() {
        for state in [10_000usize, 400_000] {
            let mut j = Journal::new(DiskHandle::sim(1));
            let record = 50;
            let writes = 50_000;
            let (snapshots, bytes) = drive(&mut j, writes, record, state);
            let per_write = bytes as f64 / writes as f64;
            let frame = (record + FRAME_HEADER) as f64;
            assert!(per_write < 2.1 * frame, "state {state}: {per_write} B/write");
            // One snapshot per state's worth of log (rounded up to whole
            // records, plus the write the snapshot itself stands for).
            let cycle = (state as f64 / frame).ceil() + 1.0;
            let expect = writes as f64 / cycle;
            assert!((snapshots as f64 - expect).abs() <= 2.0, "state {state}: {snapshots}");
        }
    }

    #[test]
    fn reboot_resumes_the_cadence_from_the_bytes_on_disk() {
        let disk = DiskHandle::sim(1);
        let mut j = Journal::new(disk.clone());
        drive(&mut j, 1_000, 40, 5_000);
        let before = j.cadence();
        assert!(before.records > 0 && before.snapshot_bytes == 5_000);
        disk.crash(DiskFault::Pristine);
        let salvaged = disk.load();
        let resumed = Journal::resume(disk.clone(), &salvaged, |_| panic!("nothing to repair"));
        assert_eq!(resumed.cadence(), before);
        assert_eq!(Cadence::of(&disk.load()), before);
    }

    #[test]
    fn damaged_disk_is_repaired_with_a_snapshot_on_resume() {
        let disk = DiskHandle::sim(1);
        let mut j = Journal::new(disk.clone());
        drive(&mut j, 10, 40, 5_000);
        disk.crash(DiskFault::TornFrame);
        let salvaged = disk.load();
        assert!(salvaged.is_damaged());
        let mut j = Journal::resume(disk.clone(), &salvaged, |out| out.extend_from_slice(b"state"));
        assert_eq!(j.cadence(), Cadence { records: 0, log_bytes: 0, snapshot_bytes: 5 });
        // Records appended after the repair are reachable again.
        j.append(|out| out.extend_from_slice(b"later"));
        let again = disk.load();
        assert!(!again.is_damaged());
        assert_eq!(again.snapshot.as_deref(), Some(&b"state"[..]));
        assert_eq!(again.records, vec![b"later".to_vec()]);
    }
}
