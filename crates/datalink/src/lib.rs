//! # sbft-datalink — stabilizing data-link over lossy non-FIFO channels
//!
//! The register paper *assumes* reliable FIFO point-to-point channels and
//! notes (Section II) that they "can be ensured by using a stabilization
//! preserving data-link protocol built on top of bounded, non-reliable but
//! fair, non-FIFO communication channels" — citing Dolev, Dubois,
//! Potop-Butucaru and Tixeuil (IPL 2011). This crate makes that assumption
//! constructive with a **simplified ack-counting variant** of that
//! protocol, and measures its convergence (experiment E10).
//!
//! ## Model ([`lossy`])
//!
//! A channel holds at most `c` messages (`c` is known). Sends to a full
//! channel displace a random resident (loss); deliveries pick a random
//! resident (non-FIFO); the initial content is arbitrary (transient
//! corruption). Fairness: every resident is eventually delivered or
//! displaced.
//!
//! ## Protocol ([`protocol`])
//!
//! * The **sender** transmits the head payload tagged with the current
//!   label, retransmitting on every tick, until it has collected `c + 1`
//!   acknowledgements carrying that label. Since at most `c` stale acks
//!   with any given label can pre-exist in the return channel, `c + 1`
//!   acks prove the receiver really received this packet. It then advances
//!   to the next payload with the next label (labels cycle through a
//!   domain of `2c + 2`, so a label is reused only long after every stale
//!   copy of its previous incarnation has left the bounded channel).
//! * The **receiver** acknowledges every data message with its label and
//!   delivers a payload only on the `(c + 1)`-th reception of its label —
//!   at most `c` copies can be stale channel residents, so the extra copy
//!   proves the sender is actively transmitting it. Trailing
//!   retransmissions of the last delivered label are suppressed outright.
//!
//! ## Guarantee (pseudo-stabilization)
//!
//! From an arbitrary initial configuration, the execution has a bounded
//! *dirty prefix* — at most one label cycle's worth of payloads may be
//! lost or delivered spuriously (stale residents and corrupted counters,
//! each consumed at most once) — after which the delivered stream is
//! exactly the sent stream in FIFO order, the property the register
//! protocol builds on. Experiment E10 measures the dirty prefix and the
//! convergence steps as functions of the capacity bound `c`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lossy;
pub mod protocol;
pub mod sim;

pub use lossy::LossyChannel;
pub use protocol::{DlReceiver, DlSender, Label};
pub use sim::{ConvergenceReport, DatalinkSim};
