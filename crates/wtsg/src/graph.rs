//! WTsG construction (Definition 3).

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

use sbft_labels::LabelingSystem;

/// One server's testimony: "server `server` holds `(value, ts)`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness<V, T> {
    /// Reporting server's index.
    pub server: usize,
    /// The register value the server vouches for.
    pub value: V,
    /// The timestamp the server associates with the value.
    pub ts: T,
    /// How stale this testimony is: `0` = the server's *current* pair,
    /// `i + 1` = position `i` in its `old_vals` history. Selection prefers
    /// candidates with fresher testimony, which keeps the union graph from
    /// returning a long-superseded (but heavily witnessed) value whose
    /// timestamp happens to be incomparable to newer candidates.
    pub recency: usize,
}

impl<V, T> Witness<V, T> {
    /// A current-value testimony (recency 0).
    pub fn new(server: usize, value: V, ts: T) -> Self {
        Self { server, value, ts, recency: 0 }
    }

    /// A testimony with an explicit recency rank.
    pub fn with_recency(server: usize, value: V, ts: T, recency: usize) -> Self {
        Self { server, value, ts, recency }
    }
}

/// A vertex of the WTsG: a distinct `(timestamp, value)` pair together with
/// the set of servers witnessing it. The weight function `w` of Definition 3
/// is [`WtsNode::weight`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WtsNode<V, T> {
    /// The timestamp labelling this vertex.
    pub ts: T,
    /// The value carried with the timestamp.
    pub value: V,
    /// Distinct servers that vouched for this exact `(ts, value)` pair.
    pub witnesses: BTreeSet<usize>,
    /// Best (smallest) recency rank across the testimonies.
    pub best_recency: usize,
}

impl<V, T> WtsNode<V, T> {
    /// `w(v)` — the number of distinct servers witnessing this node.
    pub fn weight(&self) -> usize {
        self.witnesses.len()
    }
}

/// The node-level view of a Weighted Timestamp Graph that return-value
/// selection needs.
///
/// Both the from-scratch [`WtsGraph`] and the delta-maintained
/// [`crate::IncrementalWtsg`] implement it, so the selection rules in
/// [`crate::select`] run unchanged over either representation. Edges are
/// deliberately *not* part of this trait: per Definition 3 they are a pure
/// function of the node timestamps (`ts_i ≺ ts_j`), so selection queries
/// the labeling system's `precedes` directly instead of materializing
/// them.
pub trait Wtsg<V, T> {
    /// All vertices, in an implementation-defined but stable order.
    fn nodes(&self) -> &[WtsNode<V, T>];

    /// Number of vertices.
    fn node_count(&self) -> usize {
        self.nodes().len()
    }

    /// Indices (into [`Wtsg::nodes`]) of nodes whose weight is at least
    /// `threshold` — the `w(v) ≥ 2f+1` test of Figure 2a lines 10/16.
    /// Returns a lazy iterator; no intermediate `Vec` is allocated.
    fn candidates<'a>(&'a self, threshold: usize) -> impl Iterator<Item = usize> + 'a
    where
        V: 'a,
        T: 'a,
    {
        self.nodes()
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.weight() >= threshold)
            .map(|(i, _)| i)
    }

    /// Total weight across nodes (equals the number of distinct
    /// `(server, ts, value)` testimonies).
    fn total_weight(&self) -> usize {
        self.nodes().iter().map(|n| n.weight()).sum()
    }
}

/// A Weighted Timestamp Graph.
///
/// Nodes are stored in deterministic order (sorted by `(ts, value)`), edges
/// as index pairs `(i, j)` meaning `nodes[i].ts ≺ nodes[j].ts`.
#[derive(Clone, Debug)]
pub struct WtsGraph<V, T> {
    nodes: Vec<WtsNode<V, T>>,
    edges: Vec<(usize, usize)>,
}

impl<V, T> WtsGraph<V, T>
where
    V: Clone + Eq + Ord + Hash + Debug,
    T: Clone + Eq + Ord + Hash + Debug,
{
    /// Build the graph from a set of witnesses under the precedence
    /// relation of `sys`. Duplicate testimonies from the same server for
    /// the same `(ts, value)` pair collapse (weights count *distinct*
    /// servers, so a Byzantine server cannot inflate a weight by repeating
    /// itself).
    pub fn build<S>(sys: &S, witnesses: impl IntoIterator<Item = Witness<V, T>>) -> Self
    where
        S: LabelingSystem<Label = T>,
    {
        let mut nodes: Vec<WtsNode<V, T>> = Vec::new();
        for w in witnesses {
            match nodes.iter_mut().find(|n| n.ts == w.ts && n.value == w.value) {
                Some(n) => {
                    n.witnesses.insert(w.server);
                    n.best_recency = n.best_recency.min(w.recency);
                }
                None => {
                    let mut set = BTreeSet::new();
                    set.insert(w.server);
                    nodes.push(WtsNode {
                        ts: w.ts,
                        value: w.value,
                        witnesses: set,
                        best_recency: w.recency,
                    });
                }
            }
        }
        nodes.sort_by(|a, b| (&a.ts, &a.value).cmp(&(&b.ts, &b.value)));

        let mut edges = Vec::new();
        for i in 0..nodes.len() {
            for j in 0..nodes.len() {
                if i != j && sys.precedes(&nodes[i].ts, &nodes[j].ts) {
                    edges.push((i, j));
                }
            }
        }
        Self { nodes, edges }
    }

    /// All vertices, in deterministic `(ts, value)` order.
    pub fn nodes(&self) -> &[WtsNode<V, T>] {
        &self.nodes
    }

    /// All precedence edges as `(from, to)` node indices.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Indices of nodes whose weight is at least `threshold` (the
    /// `node.weight ≥ 2f+1` test of Figure 2a lines 10/16), lazily.
    pub fn candidates(&self, threshold: usize) -> impl Iterator<Item = usize> + '_ {
        Wtsg::candidates(self, threshold)
    }

    /// Total weight across nodes (equals the number of distinct
    /// `(server, ts, value)` testimonies).
    pub fn total_weight(&self) -> usize {
        self.nodes.iter().map(|n| n.weight()).sum()
    }
}

impl<V, T> Wtsg<V, T> for WtsGraph<V, T> {
    fn nodes(&self) -> &[WtsNode<V, T>] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_labels::{LabelingSystem, UnboundedLabeling};

    fn w(server: usize, value: &str, ts: u64) -> Witness<String, u64> {
        Witness::new(server, value.to_string(), ts)
    }

    #[test]
    fn distinct_pairs_make_distinct_nodes() {
        let g = WtsGraph::build(
            &UnboundedLabeling,
            vec![w(0, "a", 1), w(1, "a", 1), w(2, "b", 1), w(3, "a", 2)],
        );
        assert_eq!(g.node_count(), 3);
        // (1,"a") has two witnesses, others one.
        let n = g.nodes().iter().find(|n| n.ts == 1 && n.value == "a").unwrap();
        assert_eq!(n.weight(), 2);
    }

    #[test]
    fn duplicate_server_testimony_collapses() {
        let g = WtsGraph::build(&UnboundedLabeling, vec![w(0, "a", 1), w(0, "a", 1), w(0, "a", 1)]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.nodes()[0].weight(), 1);
    }

    #[test]
    fn edges_follow_precedence() {
        let g = WtsGraph::build(&UnboundedLabeling, vec![w(0, "a", 1), w(1, "b", 2)]);
        assert_eq!(g.edge_count(), 1);
        let (i, j) = g.edges()[0];
        assert!(UnboundedLabeling.precedes(&g.nodes()[i].ts, &g.nodes()[j].ts));
    }

    #[test]
    fn same_ts_different_value_no_edge() {
        let g = WtsGraph::build(&UnboundedLabeling, vec![w(0, "a", 5), w(1, "b", 5)]);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn candidates_respect_threshold() {
        let g = WtsGraph::build(
            &UnboundedLabeling,
            vec![w(0, "a", 1), w(1, "a", 1), w(2, "a", 1), w(3, "b", 2)],
        );
        assert_eq!(g.candidates(3).count(), 1);
        assert_eq!(g.candidates(1).count(), 2);
        assert_eq!(g.candidates(4).count(), 0);
    }

    #[test]
    fn empty_graph() {
        let g: WtsGraph<String, u64> = WtsGraph::build(&UnboundedLabeling, vec![]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.candidates(1).count(), 0);
        assert_eq!(g.total_weight(), 0);
    }

    #[test]
    fn byzantine_hijack_creates_separate_node() {
        // 3 honest servers hold ("good", 7); a Byzantine echoes ts 7 with a
        // forged value. The forged node stays at weight 1.
        let g = WtsGraph::build(
            &UnboundedLabeling,
            vec![w(0, "good", 7), w(1, "good", 7), w(2, "good", 7), w(3, "evil", 7)],
        );
        let good = g.nodes().iter().find(|n| n.value == "good").unwrap();
        let evil = g.nodes().iter().find(|n| n.value == "evil").unwrap();
        assert_eq!(good.weight(), 3);
        assert_eq!(evil.weight(), 1);
    }
}
