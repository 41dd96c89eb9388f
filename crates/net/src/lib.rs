//! # sbft-net — asynchronous message-passing substrates
//!
//! The paper's system model (Section II) is an asynchronous message-passing
//! system with reliable FIFO point-to-point channels, where processes may be
//! Byzantine and both local states and channel contents may start arbitrarily
//! corrupted. This crate provides two executable substrates for that model:
//!
//! * [`sim`] — a **deterministic discrete-event simulator**: seeded random
//!   message delays, strict per-channel FIFO, virtual time, single-stepping,
//!   and complete control over scheduling. All correctness experiments run
//!   here, because adversarial schedules (e.g. the exact execution of the
//!   paper's Theorem 1 proof) must be replayable.
//! * [`threaded`] — a **real-thread runtime** where every process is an OS
//!   thread and channels are crossbeam FIFO queues. Used for wall-clock
//!   throughput measurements (experiment E15); per-producer channel order
//!   gives the required FIFO property for free.
//!
//! Protocols are written *sans-IO* as [`process::Automaton`] state machines
//! and run unchanged on either substrate. The [`substrate::Substrate`]
//! trait is the common driver surface — spawn, inject, pump outputs,
//! metrics, fault injection, crash, stop — so scenario drivers are
//! generic over the runtime and select it via [`substrate::Backend`].
//!
//! Fault injection lives in [`corruption`] (transient state/channel
//! corruption — the "stabilizing" part of the model) while Byzantine
//! behaviours are ordinary `Automaton` implementations provided by the
//! protocol crates. The [`nemesis`] module composes all of it — crashes
//! with recovery, partitions, per-link loss/duplication/delay, transient
//! corruption, and Byzantine-seat relocation — into seeded, replayable
//! fault schedules fired through the [`substrate::Substrate`] trait. What
//! a link does to the frames it carries is written once, in [`link`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod channel;
pub mod corruption;
pub mod link;
pub mod metrics;
pub mod mobile;
pub mod nemesis;
pub mod process;
pub mod sim;
pub mod substrate;
pub mod threaded;
pub mod timer_wheel;

pub use batch::{BatchPolicy, Frame, LinkBatcher};
pub use channel::{DelayModel, Scheduled};
pub use corruption::CorruptionSeverity;
pub use metrics::{LatencyHistogram, NetMetrics};
pub use mobile::{mobile_schedule, MobileOpts, MovementMode};
pub use nemesis::{
    AutomatonFactory, CureMode, LinkFault, NemesisEvent, NemesisOpts, NemesisRunner,
    NemesisSchedule, RecoveryFactory,
};
pub use process::{Automaton, Ctx, ProcessId, ENV};
pub use sim::{EventKey, SimConfig, SimEvent, Simulation};
pub use substrate::{AnySubstrate, Backend, Outputs, Pumped, Substrate, SubstrateConfig};
pub use threaded::ThreadedCluster;
pub use timer_wheel::{TimerWheel, TimerWheelThread, WheelId};
