//! # sbft-baseline — classical (non-stabilizing) register baselines
//!
//! The paper's related-work section (Section V) positions its contribution
//! against classical BFT register constructions that assume a *clean*
//! initial state. This crate implements two of them on the same simulator
//! substrate, so that experiments can compare like with like:
//!
//! * [`klmw`] — a Kanjani–Lee–Maguffee–Welch-style **BFT MWMR regular
//!   register** with `n = 3f + 1` servers and *unbounded* integer
//!   timestamps. Optimal resilience in the classical model — and the
//!   protocol experiment E6 shows failing permanently under transient
//!   timestamp corruption (a poisoned `u64::MAX` timestamp can never be
//!   dominated, and with a colluding Byzantine echo it reaches the `f + 1`
//!   witness threshold forever).
//! * [`abd`] — an Attiya–Bar-Noy–Dolev-style **crash-only** majority
//!   register (`n = 2f + 1`), the cheapest comparator in the quorum-cost
//!   experiment E7. It has no Byzantine defence at all.
//! * [`mr_safe`] — a Malkhi–Reiter-style **safe** register over masking
//!   quorums (`n = 5f`, single-phase operations): Byzantine-tolerant but
//!   with the weakest semantics in Lamport's hierarchy, completing the
//!   related-work line-up (safe → regular → atomic).
//!
//! All three reuse the wire message enum of `sbft-core` (with
//! `MwmrTimestamp<u64>` timestamps), so they run under the same cluster
//! driver — [`BaselineCluster`] is `sbft-core`'s `Cluster` over the plain
//! envelope — and the same regularity checker applies unchanged. Each
//! module's `cluster(..)` lists its automata and hands them to that driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abd;
pub mod klmw;
pub mod mr_safe;

use sbft_core::cluster::{BuilderCore, Cluster, Plain};
use sbft_core::config::{ClusterConfig, ShardRouter};
use sbft_core::messages::{ClientEvent, Msg};
use sbft_labels::{MwmrTimestamp, UnboundedLabeling, WriterId};
use sbft_net::{Automaton, BatchPolicy, ProcessId, Simulation};

/// Timestamps used by both baselines: unbounded integers + writer id.
pub type UTs = MwmrTimestamp<u64>;

/// The MWMR labeling system over unbounded timestamps.
pub type USys = sbft_labels::MwmrLabeling<UnboundedLabeling>;

/// The register's wire messages over unbounded timestamps.
pub type BMsg = Msg<UTs>;
/// Client events over unbounded timestamps.
pub type BEvent = ClientEvent<UTs>;

/// A baseline cluster on the simulator: the one cluster driver, hosting
/// this crate's automata. Crash a server with `sim.crash(idx)`; the
/// driver's nemesis factories rebuild *stabilizing* servers, so
/// `nemesis_runner` has no meaning here.
pub type BaselineCluster = Cluster<Plain<UnboundedLabeling>>;

type BProc = Box<dyn Automaton<BMsg, BEvent>>;

/// Hand `cfg.n` servers (by pid), then `clients` clients (by writer id), to
/// the driver.
fn assemble(
    cfg: ClusterConfig,
    clients: usize,
    seed: u64,
    server: impl Fn(ProcessId) -> BProc,
    client: impl Fn(WriterId) -> BProc,
) -> BaselineCluster {
    let mut core = BuilderCore::new(cfg, UnboundedLabeling);
    core.clients = clients;
    core.seed = seed;
    let procs = (0..cfg.n)
        .map(server)
        .chain((0..clients).map(|c| client(cfg.client_pid(c) as WriterId)))
        .collect();
    let layout = ShardRouter::new(cfg, 1);
    core.assemble(layout, BatchPolicy::disabled(), None, procs, Simulation::from_procs)
}
