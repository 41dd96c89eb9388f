//! Delta-maintained WTsG (the E15 read hot-path optimization).
//!
//! [`crate::WtsGraph::build`] reconstructs the whole graph — node dedup,
//! witness sets, sort — on every call, and the reader calls it on every
//! `decide()`. Under sustained load a client decides once per read but the
//! evidence arrives one `REPLY` at a time, so the reader instead keeps an
//! [`IncrementalWtsg`] and applies each reply as a *delta*: replace that
//! server's previous testimony, touching only the (at most two) affected
//! nodes. Selection runs over the maintained node set through the
//! [`Wtsg`] trait, identical to a from-scratch graph — a property test in
//! this module drives both representations with the same random testimony
//! stream and asserts the node sets coincide exactly.
//!
//! Edges are not materialized: per Definition 3 they are the pure function
//! `ts_i ≺ ts_j` of the node set, and selection queries `precedes`
//! directly (see [`Wtsg`]).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;

use crate::graph::{Witness, WtsNode, Wtsg};

/// A Weighted Timestamp Graph maintained by testimony deltas.
///
/// Semantically the graph always equals `WtsGraph::build(sys, M)` (up to
/// node order) where `M` is the current testimony multiset: every
/// [`IncrementalWtsg::add_witness`] adds to `M`, and
/// [`IncrementalWtsg::set_current`] replaces the server's previous
/// *current* (recency-0) testimony in `M`. Nodes are kept sorted by
/// `(ts, value)` — the same deterministic order `WtsGraph` uses — so
/// tie-breaking in selection is representation-independent.
#[derive(Clone, Debug, Default)]
pub struct IncrementalWtsg<V, T> {
    /// Sorted by `(ts, value)`, deduplicated.
    nodes: Vec<WtsNode<V, T>>,
    /// Per node (parallel to `nodes`): server → recency → live testimony
    /// count. Needed to undo one testimony without forgetting the
    /// server's other testimonies (e.g. a historical one for the same
    /// pair) or their recencies.
    testimony: Vec<BTreeMap<usize, BTreeMap<usize, usize>>>,
    /// Each server's current (recency-0) pair, as last set by
    /// `set_current` — the testimony the next `set_current` replaces.
    current: BTreeMap<usize, (V, T)>,
}

impl<V, T> IncrementalWtsg<V, T>
where
    V: Clone + Eq + Ord + Hash + Debug,
    T: Clone + Eq + Ord + Hash + Debug,
{
    /// An empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), testimony: Vec::new(), current: BTreeMap::new() }
    }

    /// Record one testimony (multiset add), like one element of the
    /// iterator fed to [`crate::WtsGraph::build`].
    pub fn add_witness(&mut self, w: Witness<V, T>) {
        let idx = match self.nodes.binary_search_by(|n| (&n.ts, &n.value).cmp(&(&w.ts, &w.value))) {
            Ok(i) => i,
            Err(i) => {
                self.nodes.insert(
                    i,
                    WtsNode {
                        ts: w.ts,
                        value: w.value,
                        witnesses: Default::default(),
                        best_recency: w.recency,
                    },
                );
                self.testimony.insert(i, BTreeMap::new());
                i
            }
        };
        let node = &mut self.nodes[idx];
        node.witnesses.insert(w.server);
        node.best_recency = node.best_recency.min(w.recency);
        *self.testimony[idx].entry(w.server).or_default().entry(w.recency).or_insert(0) += 1;
    }

    /// Replace `server`'s current (recency-0) testimony with `(value, ts)`
    /// — the delta a fresh `REPLY` applies. The server's previous current
    /// pair (if any) is withdrawn first; its node loses the witness and is
    /// dropped when no testimony for it remains. Returns the superseded
    /// pair, mirroring what the reply bookkeeping needs.
    pub fn set_current(&mut self, server: usize, value: V, ts: T) -> Option<(V, T)> {
        if let Some(pair) = self.current.get(&server) {
            if pair.0 == value && pair.1 == ts {
                // Same-pair re-reply: the multiset is unchanged.
                return Some(pair.clone());
            }
        }
        let prev = self.current.insert(server, (value.clone(), ts.clone()));
        if let Some((pv, pt)) = &prev {
            self.remove_testimony(server, pv, pt, 0);
        }
        self.add_witness(Witness::new(server, value, ts));
        prev
    }

    /// Withdraw one testimony `(server, value, ts)` at `recency`.
    fn remove_testimony(&mut self, server: usize, value: &V, ts: &T, recency: usize) {
        let Ok(idx) = self.nodes.binary_search_by(|n| (&n.ts, &n.value).cmp(&(ts, value))) else {
            return;
        };
        let per_server = &mut self.testimony[idx];
        let Some(recencies) = per_server.get_mut(&server) else { return };
        match recencies.get_mut(&recency) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                recencies.remove(&recency);
            }
            None => return,
        }
        if recencies.is_empty() {
            per_server.remove(&server);
            self.nodes[idx].witnesses.remove(&server);
        }
        if per_server.is_empty() {
            self.nodes.remove(idx);
            self.testimony.remove(idx);
        } else {
            // best_recency may have belonged to the removed testimony;
            // recompute from the surviving recencies.
            self.nodes[idx].best_recency =
                per_server.values().filter_map(|r| r.keys().next().copied()).min().unwrap_or(0);
        }
    }

    /// Drop every stored testimony (a read starting over).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.testimony.clear();
        self.current.clear();
    }
}

impl<V, T> Wtsg<V, T> for IncrementalWtsg<V, T> {
    fn nodes(&self) -> &[WtsNode<V, T>] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WtsGraph;
    use crate::select::select_return_value;
    use proptest::prelude::*;
    use sbft_labels::UnboundedLabeling;

    fn canon(nodes: &[WtsNode<u64, u64>]) -> Vec<(u64, u64, Vec<usize>, usize)> {
        let mut v: Vec<_> = nodes
            .iter()
            .map(|n| {
                (n.ts, n.value, n.witnesses.iter().copied().collect::<Vec<_>>(), n.best_recency)
            })
            .collect();
        v.sort();
        v
    }

    /// Replay a testimony stream through both representations: the
    /// from-scratch graph sees the *final* multiset, the incremental one
    /// sees it as deltas.
    fn replay(
        stream: &[(usize, u64, u64)],
        extra: &[(usize, u64, u64, usize)],
    ) -> (WtsGraph<u64, u64>, IncrementalWtsg<u64, u64>) {
        let mut inc = IncrementalWtsg::new();
        for &(server, value, ts, recency) in extra {
            inc.add_witness(Witness::with_recency(server, value, ts, recency));
        }
        let mut current: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for &(server, value, ts) in stream {
            inc.set_current(server, value, ts);
            current.insert(server, (value, ts));
        }
        let final_witnesses = extra
            .iter()
            .map(|&(s, v, t, r)| Witness::with_recency(s, v, t, r))
            .chain(current.iter().map(|(&s, &(v, t))| Witness::new(s, v, t)));
        let scratch = WtsGraph::build(&UnboundedLabeling, final_witnesses);
        (scratch, inc)
    }

    #[test]
    fn single_delta_matches_build() {
        let (scratch, inc) = replay(&[(0, 7, 1)], &[]);
        assert_eq!(canon(scratch.nodes()), canon(Wtsg::nodes(&inc)));
    }

    #[test]
    fn superseded_reply_removes_old_node() {
        let mut inc = IncrementalWtsg::new();
        inc.set_current(0, 1, 10);
        inc.set_current(1, 1, 10);
        let prev = inc.set_current(0, 2, 20);
        assert_eq!(prev, Some((1, 10)));
        let nodes = Wtsg::nodes(&inc);
        assert_eq!(nodes.len(), 2);
        let old = nodes.iter().find(|n| n.ts == 10).unwrap();
        assert_eq!(old.weight(), 1, "server 0's witness withdrawn");
    }

    #[test]
    fn last_witness_withdrawal_drops_node() {
        let mut inc = IncrementalWtsg::new();
        inc.set_current(0, 1, 10);
        inc.set_current(0, 2, 20);
        let nodes = Wtsg::nodes(&inc);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].ts, 20);
    }

    #[test]
    fn same_pair_re_reply_is_idempotent() {
        let mut inc = IncrementalWtsg::new();
        inc.set_current(3, 9, 5);
        inc.set_current(3, 9, 5);
        inc.set_current(3, 9, 5);
        let nodes = Wtsg::nodes(&inc);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].weight(), 1);
    }

    #[test]
    fn historical_testimony_keeps_node_alive_past_supersede() {
        // Server 0 has BOTH a historical and a current testimony for
        // (10, 1); superseding the current one must not drop the node.
        let mut inc = IncrementalWtsg::new();
        inc.add_witness(Witness::with_recency(0, 1, 10, 2));
        inc.set_current(0, 1, 10);
        inc.set_current(0, 5, 30);
        let nodes = Wtsg::nodes(&inc);
        let old = nodes.iter().find(|n| n.ts == 10).expect("historical survives");
        assert_eq!(old.weight(), 1);
        assert_eq!(old.best_recency, 2, "recency falls back to the historical rank");
    }

    #[test]
    fn clear_empties() {
        let mut inc = IncrementalWtsg::new();
        inc.set_current(0, 1, 10);
        inc.clear();
        assert_eq!(Wtsg::node_count(&inc), 0);
    }

    proptest! {
        /// The equivalence property the ISSUE requires: an arbitrary
        /// interleaving of current-testimony deltas (plus a sprinkle of
        /// fixed historical testimonies) yields exactly the node set a
        /// from-scratch `WtsGraph::build` computes over the final
        /// testimony multiset — same `(ts, value)` pairs, same witness
        /// sets, same best recencies — and the two representations make
        /// identical selection decisions at every threshold.
        #[test]
        fn delta_built_graph_equals_from_scratch(
            stream in proptest::collection::vec(
                (0usize..6, 0u64..5, 0u64..8), 0..40),
            extra in proptest::collection::vec(
                (0usize..6, 0u64..5, 0u64..8, 1usize..4), 0..6),
        ) {
            let (scratch, inc) = replay(&stream, &extra);
            prop_assert_eq!(canon(scratch.nodes()), canon(Wtsg::nodes(&inc)));
            for threshold in 1..=4usize {
                let a = select_return_value(&UnboundedLabeling, &scratch, threshold);
                let b = select_return_value(&UnboundedLabeling, &inc, threshold);
                prop_assert_eq!(a.map(|n| (n.ts, n.value)), b.map(|n| (n.ts, n.value)));
            }
        }
    }
}
