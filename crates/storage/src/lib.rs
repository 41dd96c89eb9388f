//! # sbft-storage — durable server state with an injectable-fault disk
//!
//! The paper's algorithm stabilizes from *arbitrary* local state. The most
//! realistic source of arbitrary state in a deployed system is not a cosmic
//! ray in RAM but a **crash followed by recovery from damaged persistent
//! storage**: a torn final write, an fsync that never reached the platter,
//! silent bit rot, a snapshot rolled back by a misbehaving controller. This
//! crate supplies the storage half of that scenario class:
//!
//! * [`codec`] — a tiny hand-rolled byte [`codec::Codec`] (the workspace's
//!   `serde` is an offline no-op shim, so persistence must own its bytes).
//!   Decoding is *total*: any byte string produces either a value or
//!   `None`, never a panic, because recovery feeds it damaged input on
//!   purpose.
//! * [`frame`] — CRC-32 checksummed length-prefixed frames. A frame either
//!   decodes intact or is detected as damaged; damage truncates the tail of
//!   the stream (framing is lost past the first bad frame, exactly like a
//!   real write-ahead log).
//! * [`disk`] — the [`disk::Stable`] store trait (snapshot + appended
//!   records + explicit sync) and [`disk::SimDisk`], an in-memory simulated
//!   disk whose crash-time failure model is injectable via
//!   [`disk::DiskFault`]: torn final frame, lost unflushed suffix, silent
//!   bit rot, stale-snapshot rollback.
//! * [`journal`] — the [`journal::Journal`] a durable node writes through:
//!   one record per applied write, a sync every few records, and a
//!   snapshot only once the log has grown as large as the state (so the
//!   bytes written per write do not depend on how much is stored).
//!
//! The crate is a leaf (no dependencies): `sbft-labels` implements
//! [`codec::Codec`] for its timestamp types, `sbft-core` persists server
//! state through [`disk::DiskHandle`]s, and `sbft-net`'s nemesis carries
//! [`disk::DiskFault`]s inside `CrashRecover` events.

#![warn(missing_docs)]

pub mod codec;
pub mod disk;
pub mod fnv;
pub mod frame;
pub mod journal;

pub use codec::{ByteReader, Codec};
pub use disk::{DiskFault, DiskHandle, DiskSet, DiskStats, Recovered, SimDisk, Stable};
pub use fnv::Fnv64;
pub use frame::{decode_frames, write_frame, FrameDamage};
pub use journal::{Cadence, Journal, SNAPSHOT_EVERY, SYNC_EVERY};
