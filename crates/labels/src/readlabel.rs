//! Bounded read-label pool — the bookkeeping behind `find_read_label()`
//! (Figure 3 of the paper).
//!
//! Each client owns a *finite* pool of `k_r` read labels used to match
//! `REPLY` messages to the `read()` operation that solicited them. Because
//! labels are recycled, the client tracks, per server and per label, whether
//! that server may still have an in-flight message carrying the label (the
//! `recent_labels` `n × k_r` boolean matrix of the paper). A label is safe to
//! reuse with respect to a server once that server has answered — with a
//! `REPLY` or a `FLUSH_ACK` reflected over the same FIFO channel — every
//! message the client ever tagged with it.
//!
//! The pool itself is pure bookkeeping; the FLUSH round-trip state machine
//! lives in `sbft-core::findlabel`.

use serde::{Deserialize, Serialize};

/// A read-operation label: an index into the client's bounded pool.
pub type ReadLabel = u32;

/// The `recent_labels` matrix plus label-selection policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadLabelPool {
    n: usize,
    k: usize,
    last: Option<ReadLabel>,
    /// The `n × k` matrix, row-major: `pending[server * k + label]` is true
    /// while `server` may still be processing a message tagged with
    /// `label` (matrix entry = 1).
    pending: Vec<bool>,
    /// Cumulative count of label reuses (label chosen more than once),
    /// reported by experiment E5.
    reuses: u64,
    uses: Vec<u64>,
}

impl ReadLabelPool {
    /// A pool of `k` labels tracked against `n` servers. Requires `k ≥ 2`
    /// so a fresh label distinct from the last used one always exists.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 2, "read-label pool needs k >= 2, got {k}");
        assert!(n >= 1, "read-label pool needs at least one server");
        Self { n, k, last: None, pending: vec![false; n * k], reuses: 0, uses: vec![0; k] }
    }

    /// Number of servers tracked.
    pub fn servers(&self) -> usize {
        self.n
    }

    /// Pool size `k_r`.
    pub fn pool_size(&self) -> usize {
        self.k
    }

    /// The label used by the previous `read()`, if any.
    pub fn last(&self) -> Option<ReadLabel> {
        self.last
    }

    /// Sanitize a label received from the network or read from possibly
    /// corrupted state into the pool's domain.
    #[inline]
    pub fn sanitize(&self, raw: ReadLabel) -> ReadLabel {
        raw % self.k as u32
    }

    /// Pick the candidate label for the next `read()`: a label different
    /// from the last one used (Figure 3a line 01), preferring the label
    /// with the fewest pending entries so the FLUSH wait is shortest.
    /// Deterministic: ties break toward the smallest label index.
    pub fn candidate(&self) -> ReadLabel {
        (0..self.k as u32)
            .filter(|&l| Some(l) != self.last)
            .min_by_key(|&l| (self.pending_count(l), l))
            .expect("k >= 2 guarantees a candidate distinct from last")
    }

    /// Record that the current operation adopted `label` (updates `last`
    /// and the reuse statistics).
    pub fn adopt(&mut self, label: ReadLabel) {
        let label = self.sanitize(label);
        self.last = Some(label);
        self.uses[label as usize] += 1;
        if self.uses[label as usize] > 1 {
            self.reuses += 1;
        }
    }

    /// Matrix entry set to 1: `server` was sent a message tagged `label`.
    pub fn mark_pending(&mut self, server: usize, label: ReadLabel) {
        let label = self.sanitize(label);
        if server < self.n {
            self.pending[server * self.k + label as usize] = true;
        }
    }

    /// Matrix entry cleared: `server` answered a message tagged `label`
    /// (REPLY, Figure 2a line 27, or FLUSH_ACK, Figure 3a line 12).
    pub fn clear_pending(&mut self, server: usize, label: ReadLabel) {
        let label = self.sanitize(label);
        if server < self.n {
            self.pending[server * self.k + label as usize] = false;
        }
    }

    /// Whether `server` may still hold an in-flight message tagged `label`.
    pub fn is_pending(&self, server: usize, label: ReadLabel) -> bool {
        let label = self.sanitize(label);
        server < self.n && self.pending[server * self.k + label as usize]
    }

    /// Number of servers with a pending entry for `label` (the column sum
    /// the Figure 3a line 06 wait condition inspects).
    pub fn pending_count(&self, label: ReadLabel) -> usize {
        let label = self.sanitize(label) as usize;
        self.pending.iter().skip(label).step_by(self.k).filter(|&&p| p).count()
    }

    /// Servers whose column entry for `label` is clear — the candidates for
    /// the `safe` set of the current read.
    pub fn clear_servers(&self, label: ReadLabel) -> Vec<usize> {
        let label = self.sanitize(label) as usize;
        (0..self.n).filter(|&s| !self.pending[s * self.k + label]).collect()
    }

    /// Total label reuses so far (experiment E5 statistic).
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }

    /// Per-label use counts (experiment E5 statistic).
    pub fn use_histogram(&self) -> &[u64] {
        &self.uses
    }

    /// Overwrite the matrix with arbitrary values — models a transient
    /// fault hitting the client's local state. `bits` is consumed
    /// row-major; missing bits default to `false`.
    pub fn corrupt_with(&mut self, mut bits: impl Iterator<Item = bool>) {
        for cell in &mut self.pending {
            *cell = bits.next().unwrap_or(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_avoids_last() {
        let mut p = ReadLabelPool::new(4, 3);
        let c1 = p.candidate();
        p.adopt(c1);
        let c2 = p.candidate();
        assert_ne!(c1, c2);
        p.adopt(c2);
        assert_ne!(p.candidate(), c2);
    }

    #[test]
    fn candidate_prefers_least_pending() {
        let mut p = ReadLabelPool::new(4, 3);
        p.adopt(2); // last = 2, so candidates are {0, 1}
        p.mark_pending(0, 0);
        p.mark_pending(1, 0);
        assert_eq!(p.candidate(), 1);
    }

    #[test]
    fn pending_column_sum() {
        let mut p = ReadLabelPool::new(5, 2);
        p.mark_pending(0, 1);
        p.mark_pending(3, 1);
        p.mark_pending(3, 0);
        assert_eq!(p.pending_count(1), 2);
        assert_eq!(p.pending_count(0), 1);
        p.clear_pending(3, 1);
        assert_eq!(p.pending_count(1), 1);
        assert_eq!(p.clear_servers(1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn sanitize_wraps_labels() {
        let p = ReadLabelPool::new(3, 4);
        assert_eq!(p.sanitize(7), 3);
        let mut p2 = p.clone();
        p2.mark_pending(0, 9); // 9 % 4 == 1
        assert!(p2.is_pending(0, 1));
    }

    #[test]
    fn out_of_range_server_is_ignored() {
        let mut p = ReadLabelPool::new(2, 2);
        p.mark_pending(99, 0);
        assert_eq!(p.pending_count(0), 0);
        assert!(!p.is_pending(99, 0));
    }

    #[test]
    fn reuse_counting() {
        let mut p = ReadLabelPool::new(2, 2);
        p.adopt(0);
        p.adopt(1);
        p.adopt(0);
        assert_eq!(p.reuse_count(), 1);
        assert_eq!(p.use_histogram(), &[2, 1]);
    }

    #[test]
    fn corruption_then_recovery_via_clears() {
        let mut p = ReadLabelPool::new(3, 2);
        p.corrupt_with(std::iter::repeat(true));
        assert_eq!(p.pending_count(0), 3);
        assert_eq!(p.pending_count(1), 3);
        // FLUSH_ACKs from every server clear the columns again.
        for s in 0..3 {
            p.clear_pending(s, 0);
            p.clear_pending(s, 1);
        }
        assert_eq!(p.pending_count(0), 0);
        assert_eq!(p.clear_servers(1).len(), 3);
    }

    #[test]
    #[should_panic]
    fn pool_of_one_label_rejected() {
        ReadLabelPool::new(3, 1);
    }
}
