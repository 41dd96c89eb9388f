//! # sbft-bench — the experiment suite
//!
//! The paper is purely theoretical: it has no measurement tables or data
//! figures. Deliverable (d) of this reproduction therefore turns **every
//! numbered claim** — Theorem 1, Lemmas 1–8, Definition 2, the failure
//! modes motivating the work, and the assumptions — into a regenerable
//! experiment. Each `eN_*` module computes one table; the `harness` binary
//! prints them (`harness all`, `harness e1`, …). Wall-clock cost per layer
//! is the pinned `benchmark/` package's job, not this crate's.
//!
//! See `DESIGN.md` §5 for the experiment ↔ paper-artifact index and
//! `EXPERIMENTS.md` for recorded outputs and their interpretation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod e10_datalink;
pub mod e11_byzantine_readers;
pub mod e12_atomicity;
pub mod e13_kv_store;
pub mod e14_chaos;
pub mod e15_load;
pub mod e16_explore;
pub mod e17_mobile;
pub mod e18_recover;
pub mod e19_scale;
pub mod e1_lower_bound;
pub mod e2_termination;
pub mod e3_propagation;
pub mod e4_stabilization;
pub mod e5_labels;
pub mod e6_vs_baseline;
pub mod e7_quorum_cost;
pub mod e8_concurrency;
pub mod table;

pub use table::Table;
