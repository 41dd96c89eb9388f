//! # sbft-wtsg — Weighted Timestamp Graphs (Definition 3 of the paper)
//!
//! A *Weighted Timestamp Graph* (WTsG) is a node-weighted directed graph
//! over the timestamps a reader gathered from servers: vertices are the
//! distinct timestamps, a vertex's weight is the number of (distinct)
//! servers witnessing it, and there is an edge `ts_i → ts_j` whenever
//! `ts_i ≺ ts_j` in the (bounded, non-transitive) label order.
//!
//! The reader protocol builds two graphs:
//!
//! * the **local** graph over the `(value, ts)` pairs carried by the current
//!   `REPLY` quorum ([`WtsGraph::build`]), and
//! * the **union** graph that additionally folds in each server's recent
//!   write history (`old_vals`), used as a fallback when writes are
//!   concurrent with the read ([`union::build_union`]).
//!
//! A read returns the value of a node witnessed by at least `2f + 1`
//! servers — which pins at least `f + 1` *correct* witnesses — choosing the
//! dominant ("latest") such node ([`select::select_return_value`]). If no
//! node qualifies in either graph the read aborts: the servers are still in
//! a transitory (corrupted) phase.
//!
//! ## Byzantine value hijacking
//!
//! Nodes are keyed by the *pair* `(timestamp, value)`, not by the timestamp
//! alone. A Byzantine server echoing an honest timestamp with a forged value
//! creates a *separate* node whose weight can only be inflated by the `f`
//! faulty servers — never enough to reach `2f + 1` on its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod incremental;
pub mod select;
pub mod union;

pub use graph::{Witness, WtsGraph, WtsNode, Wtsg};
pub use incremental::IncrementalWtsg;
pub use select::select_return_value;
pub use union::{build_union, HistoryEntry};
