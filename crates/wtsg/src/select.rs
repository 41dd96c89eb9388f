//! Return-value selection over a WTsG.
//!
//! Figure 2a asks for "a node with weight ≥ 2f+1" and returns its value.
//! When several nodes qualify (a read concurrent with writes can see both
//! the previous and the in-flight value at quorum strength) the protocol
//! must pick deterministically; regularity permits either the last written
//! or a concurrently written value, so any qualifying node is *safe*, but
//! we prefer the dominant one so that sequential reads do not regress.
//!
//! [`select_return_value`] picks a **sink** among the qualifying
//! candidates: a node that does not precede any other qualifying node
//! (i.e. is not provably older than another returnable value). Ties —
//! possible because `≺` is partial and non-transitive — break by weight,
//! then by the deterministic `(ts, value)` order. Picking by weight alone
//! is the `max-weight` mutant (`mutants/max-weight.patch`): it returns the
//! heavier, older of two qualifying values, and a regularity check kills it.

use std::fmt::Debug;
use std::hash::Hash;

use sbft_labels::LabelingSystem;

use crate::graph::{WtsNode, Wtsg};

/// The faithful selection rule: among nodes with weight ≥ `threshold`,
/// return a sink of the candidate sub-graph (a candidate that precedes no
/// other candidate), breaking ties by `(weight, ts, value)` descending
/// weight then ascending structural order.
///
/// Returns `None` when no node reaches the threshold — the caller then
/// falls back to the union graph or aborts (Figure 2a lines 14–19).
///
/// Generic over any [`Wtsg`] node view — the from-scratch
/// [`crate::WtsGraph`] and the delta-maintained [`crate::IncrementalWtsg`]
/// both qualify.
pub fn select_return_value<'g, V, T, S, G>(
    sys: &S,
    graph: &'g G,
    threshold: usize,
) -> Option<&'g WtsNode<V, T>>
where
    V: Clone + Eq + Ord + Hash + Debug,
    T: Clone + Eq + Ord + Hash + Debug,
    S: LabelingSystem<Label = T>,
    G: Wtsg<V, T>,
{
    let cands: Vec<usize> = Wtsg::candidates(graph, threshold).collect();
    if cands.is_empty() {
        return None;
    }
    // Sinks: candidates not preceding any other candidate.
    let mut sinks: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            !cands
                .iter()
                .any(|&j| j != i && sys.precedes(&graph.nodes()[i].ts, &graph.nodes()[j].ts))
        })
        .collect();
    if sinks.is_empty() {
        // Precedence cycle among candidates (possible only while the label
        // space is corrupted): fall back to all candidates.
        sinks = cands;
    }
    sinks.into_iter().map(|i| &graph.nodes()[i]).min_by(|a, b| {
        // Freshest testimony first (keeps union decisions from
        // resurrecting long-superseded values), then heaviest, then a
        // deterministic structural residue.
        a.best_recency
            .cmp(&b.best_recency)
            .then_with(|| b.weight().cmp(&a.weight()))
            .then_with(|| a.ts.cmp(&b.ts).then_with(|| a.value.cmp(&b.value)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Witness, WtsGraph};
    use sbft_labels::UnboundedLabeling;

    fn w(server: usize, value: &str, ts: u64) -> Witness<String, u64> {
        Witness::new(server, value.to_string(), ts)
    }

    fn graph(ws: Vec<Witness<String, u64>>) -> WtsGraph<String, u64> {
        WtsGraph::build(&UnboundedLabeling, ws)
    }

    #[test]
    fn no_candidate_returns_none() {
        let g = graph(vec![w(0, "a", 1), w(1, "b", 2)]);
        assert!(select_return_value(&UnboundedLabeling, &g, 2).is_none());
    }

    #[test]
    fn single_candidate_selected() {
        let g = graph(vec![w(0, "a", 1), w(1, "a", 1), w(2, "a", 1)]);
        let n = select_return_value(&UnboundedLabeling, &g, 3).unwrap();
        assert_eq!(n.value, "a");
        assert_eq!(n.weight(), 3);
    }

    #[test]
    fn dominant_sink_prefers_latest() {
        // Both old (ts=1) and new (ts=2) reach the threshold; the sink is
        // the one no candidate dominates — ts=2.
        let g = graph(vec![
            w(0, "old", 1),
            w(1, "old", 1),
            w(2, "old", 1),
            w(3, "new", 2),
            w(4, "new", 2),
            w(5, "new", 2),
        ]);
        let n = select_return_value(&UnboundedLabeling, &g, 3).unwrap();
        assert_eq!(n.value, "new");
    }

    #[test]
    fn deterministic_tiebreak_on_equal_ts() {
        // Two incomparable candidates (same ts, different values — only
        // possible under corruption): the structural order decides, stably.
        let g = graph(vec![w(0, "a", 5), w(1, "a", 5), w(2, "b", 5), w(3, "b", 5)]);
        let n1 = select_return_value(&UnboundedLabeling, &g, 2).unwrap().value.clone();
        let n2 = select_return_value(&UnboundedLabeling, &g, 2).unwrap().value.clone();
        assert_eq!(n1, n2);
    }

    #[test]
    fn recency_breaks_incomparable_ties_toward_fresh() {
        // Two qualifying nodes with *incomparable* timestamps (same ts
        // value cannot happen here, so use equal ts = incomparable under
        // `<`): one witnessed only in histories (recency 2), one current
        // (recency 0). The fresh one wins.
        let ws = vec![
            Witness::with_recency(0, "stale".to_string(), 5u64, 2),
            Witness::with_recency(1, "stale".to_string(), 5u64, 3),
            Witness::new(2, "fresh".to_string(), 5u64),
            Witness::new(3, "fresh".to_string(), 5u64),
        ];
        let g = WtsGraph::build(&UnboundedLabeling, ws);
        let n = select_return_value(&UnboundedLabeling, &g, 2).unwrap();
        assert_eq!(n.value, "fresh");
        assert_eq!(n.best_recency, 0);
    }

    #[test]
    fn best_recency_is_min_across_witnesses() {
        let ws = vec![
            Witness::with_recency(0, "v".to_string(), 1u64, 4),
            Witness::with_recency(1, "v".to_string(), 1u64, 1),
            Witness::with_recency(2, "v".to_string(), 1u64, 9),
        ];
        let g = WtsGraph::build(&UnboundedLabeling, ws);
        assert_eq!(g.nodes()[0].best_recency, 1);
    }

    #[test]
    fn dominance_still_beats_recency() {
        // A dominated-but-fresh node loses to the dominating sink even if
        // the sink's testimony is historical: sinks are computed first.
        let ws = vec![
            Witness::new(0, "old".to_string(), 1u64),
            Witness::new(1, "old".to_string(), 1u64),
            Witness::with_recency(2, "new".to_string(), 2u64, 3),
            Witness::with_recency(3, "new".to_string(), 2u64, 3),
        ];
        let g = WtsGraph::build(&UnboundedLabeling, ws);
        let n = select_return_value(&UnboundedLabeling, &g, 2).unwrap();
        assert_eq!(n.value, "new", "ts dominance decides before recency");
    }
}
