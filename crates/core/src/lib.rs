//! # sbft-core — the stabilizing Byzantine-fault-tolerant regular register
//!
//! Implementation of the register emulation of Bonomi, Potop-Butucaru and
//! Tixeuil, *Stabilizing Byzantine-Fault Tolerant Storage* (IPPS 2015):
//! a multi-writer multi-reader **regular** register on top of asynchronous
//! message passing with `n ≥ 5f + 1` servers, of which up to `f` may be
//! Byzantine, where **every** process (and every channel) may additionally
//! start in an arbitrarily corrupted state, using **bounded** timestamps.
//!
//! ## Layout
//!
//! * [`config`] — cluster arithmetic: `n`, `f`, the `n−f` quorum, the
//!   `2f+1` witness threshold, the `3f+1` propagation bound; and the
//!   process layout every cluster has.
//! * [`messages`] — the wire protocol (Figures 1–3): `GET_TS`, `WRITE`,
//!   `ACK`/`NACK`, `READ`, `REPLY`, `COMPLETE_READ`, `FLUSH`, `FLUSH_ACK`.
//! * [`server`] — the server automaton: register copy, bounded `old_vals`
//!   history, `running_read` forwarding.
//! * [`client`] — the client automaton, composed of the two-phase writer
//!   ([`writer`]) and the one-phase reader with WTsG decision plus the
//!   FLUSH-based bounded read-label recycling ([`reader`]).
//! * [`adversary`] — Byzantine server strategies, including the scripted
//!   components of the Theorem 1 lower-bound execution.
//! * [`byzclient`] — Byzantine *reader* strategies (the paper's §VI claim
//!   that one-phase reads make hostile readers harmless).
//! * [`swmr`] — the typed single-writer facade of the §IV-B protocol
//!   (unique writer capability enforced at the type level).
//! * [`spec`] — execution recording and the MWMR-regularity checker.
//! * [`cluster`] — the one cluster driver: one-call assembly on either
//!   substrate plus blocking-style operation helpers, generic over how an
//!   operation is addressed on the wire (register, keyed store, baselines).
//! * [`soak`] — the one nemesis soak loop and its stable-window scoring.
//!
//! ## Quick start
//!
//! ```
//! use sbft_core::cluster::RegisterCluster;
//!
//! // n = 6 servers tolerate f = 1 Byzantine server (n ≥ 5f + 1).
//! let mut cluster = RegisterCluster::bounded(1).seed(42).build();
//! let w = cluster.client(0);
//! cluster.write(w, 7).expect("write terminates");
//! let read = cluster.read(w).expect("read terminates");
//! assert_eq!(read.value, 7);
//! assert!(cluster.check_history().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod byzclient;
pub mod client;
pub mod cluster;
pub mod config;
pub mod messages;
pub mod reader;
pub mod retry;
pub mod server;
pub mod soak;
pub mod spec;
pub mod swmr;
pub mod writer;

pub use cluster::{OpOutcome, RegisterCluster};
pub use config::ClusterConfig;
pub use messages::{ClientEvent, Msg, Value};
pub use retry::RetryPolicy;
pub use soak::{Soak, SoakReport};
pub use spec::{HistoryRecorder, RegularityError, WindowTracker};

use sbft_labels::{LabelingSystem, MwmrTimestamp};

/// The timestamp type the protocol runs on: an MWMR `(label, writer)` pair
/// over the base labeling system `B`.
pub type Ts<B> = MwmrTimestamp<<B as LabelingSystem>::Label>;

/// The MWMR-wrapped labeling system over base `B`.
pub type Sys<B> = sbft_labels::MwmrLabeling<B>;
