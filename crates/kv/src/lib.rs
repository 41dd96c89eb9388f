//! # sbft-kv — a keyed object store over stabilizing BFT registers
//!
//! The paper's introduction motivates the register abstraction with cloud
//! *storage services*. This crate closes the loop: a **key–value store**
//! where every key is an independent MWMR regular register of the paper's
//! protocol, and all keys multiplex the **same** `n = 5f + 1` server pool
//! (and the same channels), so one deployment serves the whole keyspace.
//!
//! ## Design
//!
//! * Wire format: [`KvMsg`] wraps the register protocol's messages with a
//!   key; key spaces are fully independent (a Byzantine server lying
//!   about key A cannot touch key B's witness counts).
//! * [`server::KvServer`] holds one register-server state *per key it has
//!   heard of* (lazily materialized, persistent thereafter — like a
//!   storage node's on-disk objects).
//! * [`client::KvClient`] holds one register-client state per key
//!   (read-label pools and `recent_vals` caches are per key, as the
//!   protocol's bookkeeping requires).
//! * Both keep those states in a [`slab::KeySlab`]: one hash probe per
//!   message, walks in ascending key order.
//! * [`cluster::KvCluster`] is the driver — `sbft-core`'s one cluster
//!   driver over the [`cluster::Keyed`] envelope: blocking `put`/`get`,
//!   one history recorder per key, the per-key regularity verdicts, and
//!   the register's nemesis and soak wiring unchanged.
//! * [`shard::ShardRouter`] optionally hash-partitions the keyspace over
//!   several independent `5f + 1` server groups ("shards" — each its own
//!   unit of placement and fault isolation), behind the same facade:
//!   [`KvClusterBuilder::shards`](cluster::KvClusterBuilder::shards) is
//!   the only knob, and clients, retries, nemesis schedules, and spec
//!   checking are untouched.
//!
//! All of the paper's guarantees lift pointwise: each key is exactly the
//! register of `sbft-core`, so termination, regularity, and
//! pseudo-stabilization hold per key (tests exercise cross-key isolation
//! and recovery of the whole store from total corruption).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod messages;
pub mod server;
pub mod shard;
pub mod slab;

pub use cluster::{check_per_shard, KvCluster};
pub use messages::{Key, KvEvent, KvMsg};
pub use shard::{ShardRouter, ShardedClient, ShardedServer};
pub use slab::KeySlab;
