//! Benchmark-owned shims that record a span at each layer boundary without
//! touching the program: [`Traced`] around an automaton, [`TracedDisk`]
//! around a simulated disk, [`CountingLabeling`] around a labeling system.
//!
//! Aggregates are kept inside each shim (no lock on the hot path) and
//! merged into the shared [`Collector`] when the shim is dropped, which
//! happens when its cluster is torn down. Nesting — driver `pump` →
//! automaton → disk — is resolved through thread-local running totals:
//! a parent reads them before and after its own span and the difference is
//! what its children used.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use sbft_core::messages::Msg;
use sbft_core::Ts;
use sbft_kv::{Key, KvEvent, KvMsg};
use sbft_labels::{BoundedLabeling, LabelingSystem};
use sbft_net::{Automaton, Ctx, ProcessId, ENV};
use sbft_storage::{DiskFault, DiskStats, Recovered, SimDisk, Stable};

use crate::alloc;

/// The base labeling system of every workload.
pub type B = BoundedLabeling;
/// Wire message of the store.
pub type M = KvMsg<Ts<B>>;
/// Observable event of the store.
pub type E = KvEvent<Ts<B>>;

/// Bytes `write_frame` adds around a payload (magic, length, checksum).
pub const FRAME_OVERHEAD: u64 = 12;

thread_local! {
    static LABEL_CALLS: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
    static AUTOMATON_NS: Cell<u64> = const { Cell::new(0) };
    static AUTOMATON_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DISK_NS: Cell<u64> = const { Cell::new(0) };
    static DISK_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    cell.with(|c| c.set(c.get() + by));
}

/// `(ns, allocations)` spent inside automaton spans on this thread so far.
pub fn automaton_totals() -> (u64, u64) {
    (AUTOMATON_NS.with(Cell::get), AUTOMATON_ALLOCS.with(Cell::get))
}

fn label_calls() -> [u64; 3] {
    LABEL_CALLS.with(|c| [c[0].get(), c[1].get(), c[2].get()])
}

/// Which callback, and for messages which kind, a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `on_start`.
    Start,
    /// `on_timer`.
    Timer,
    /// A command from the environment (`InvokeRead` / `InvokeWrite`).
    Invoke,
    /// `GET_TS`.
    GetTs,
    /// `TS_REPLY`.
    TsReply,
    /// `WRITE`.
    Write,
    /// `ACK` / `NACK`.
    WriteAck,
    /// `READ`.
    Read,
    /// `REPLY`.
    Reply,
    /// `COMPLETE_READ`.
    CompleteRead,
    /// `FLUSH`.
    Flush,
    /// `FLUSH_ACK`.
    FlushAck,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

impl Kind {
    /// Span-name suffix.
    pub fn name(self) -> &'static str {
        [
            "start",
            "timer",
            "invoke",
            "get_ts",
            "ts_reply",
            "write",
            "write_ack",
            "read",
            "reply",
            "complete_read",
            "flush",
            "flush_ack",
        ][self as usize]
    }

    fn of<T>(msg: &Msg<T>) -> Self {
        match msg {
            Msg::GetTs => Kind::GetTs,
            Msg::TsReply { .. } => Kind::TsReply,
            Msg::Write { .. } => Kind::Write,
            Msg::WriteAck { .. } => Kind::WriteAck,
            Msg::Read { .. } => Kind::Read,
            Msg::Reply { .. } => Kind::Reply,
            Msg::CompleteRead { .. } => Kind::CompleteRead,
            Msg::Flush { .. } => Kind::Flush,
            Msg::FlushAck { .. } => Kind::FlushAck,
            Msg::InvokeWrite { .. } | Msg::InvokeRead => Kind::Invoke,
        }
    }
}

/// Whether a traced automaton is a storage node or a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// A storage node (`KvServer`, possibly inside `ShardedServer`).
    Server,
    /// A client (`KvClient`, possibly inside `ShardedClient`).
    Client,
}

/// Calls, time and allocations of one kind of span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans.
    pub calls: u64,
    /// Their summed duration.
    pub ns: u64,
    /// Allocations made inside them (children included).
    pub allocs: u64,
}

impl Agg {
    fn add(&mut self, ns: u64, allocs: u64) {
        self.calls += 1;
        self.ns += ns;
        self.allocs += allocs;
    }

    fn merge(&mut self, other: &Agg) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
    }

    /// Mean span duration in ns (0 without spans).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Everything the automata of one role did while measuring was on.
#[derive(Clone, Debug, Default)]
pub struct RoleAgg {
    /// Per [`Kind`].
    pub kinds: [Agg; KINDS],
    /// Time and allocations of disk spans nested in these spans.
    pub disk: Agg,
    /// `next` / `precedes` / `sanitize` calls made inside these spans.
    pub labels: [u64; 3],
    /// Duration of every span, for percentiles (storage nodes only).
    pub call_ns: Vec<u32>,
}

impl RoleAgg {
    /// All kinds summed.
    pub fn total(&self) -> Agg {
        let mut t = Agg::default();
        self.kinds.iter().for_each(|k| t.merge(k));
        t
    }

    /// One kind.
    pub fn kind(&self, kind: Kind) -> Agg {
        self.kinds[kind as usize]
    }

    fn merge(&mut self, other: &RoleAgg) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.merge(b);
        }
        self.disk.merge(&other.disk);
        for (a, b) in self.labels.iter_mut().zip(other.labels) {
            *a += b;
        }
        self.call_ns.extend_from_slice(&other.call_ns);
    }
}

/// Everything the disks did while measuring was on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskAgg {
    /// `append` spans.
    pub append: Agg,
    /// `sync` spans.
    pub sync: Agg,
    /// `put_snapshot` spans.
    pub snapshot: Agg,
    /// `load` spans.
    pub load: Agg,
    /// Bytes appended, framing included.
    pub append_bytes: u64,
    /// Bytes written as snapshots, framing included.
    pub snapshot_bytes: u64,
}

impl DiskAgg {
    fn merge(&mut self, o: &DiskAgg) {
        self.append.merge(&o.append);
        self.sync.merge(&o.sync);
        self.snapshot.merge(&o.snapshot);
        self.load.merge(&o.load);
        self.append_bytes += o.append_bytes;
        self.snapshot_bytes += o.snapshot_bytes;
    }

    /// Time inside any disk call.
    pub fn busy_ns(&self) -> u64 {
        self.append.ns + self.sync.ns + self.snapshot.ns + self.load.ns
    }

    /// Allocations inside any disk call.
    pub fn allocs(&self) -> u64 {
        self.append.allocs + self.sync.allocs + self.snapshot.allocs + self.load.allocs
    }
}

/// One recorded span (kept only while the first operations run).
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Id of the span this one ran inside (0 = none).
    pub parent: u64,
    /// `net`, `server`, `client` or `disk`.
    pub layer: &'static str,
    /// `pump`, the message kind, or the disk call.
    pub call: &'static str,
    /// The acting process.
    pub pid: ProcessId,
    /// Client and key of the operation that caused the span, when known.
    pub op: Option<(ProcessId, Key)>,
    /// Start, ns since the collector's epoch.
    pub start_ns: u64,
    /// End, ns since the collector's epoch.
    pub end_ns: u64,
    /// Allocations inside.
    pub allocs: u64,
}

/// What the shims merge into when they are dropped.
#[derive(Debug, Default)]
pub struct Merged {
    /// All storage nodes.
    pub server: RoleAgg,
    /// All clients.
    pub client: RoleAgg,
    /// All disks.
    pub disk: DiskAgg,
    /// Individually recorded spans.
    pub spans: Vec<Span>,
}

/// Shared switchboard of one traced run.
#[derive(Debug)]
pub struct Collector {
    measuring: AtomicBool,
    recording: AtomicBool,
    next_span: AtomicU64,
    epoch: Instant,
    merged: Mutex<Merged>,
}

impl Collector {
    /// A collector with measuring and recording off.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            measuring: AtomicBool::new(false),
            recording: AtomicBool::new(false),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
            merged: Mutex::new(Merged::default()),
        })
    }

    /// Turn aggregation on or off (off during set-up). `SeqCst`: worker
    /// threads must see the switch promptly; it guards no other data.
    pub fn set_measuring(&self, on: bool) {
        self.measuring.store(on, Ordering::SeqCst);
    }

    /// Turn per-span recording on or off (on for the first operations).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// Whether aggregation is on.
    pub fn measuring(&self) -> bool {
        self.measuring.load(Ordering::SeqCst)
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::SeqCst)
    }

    /// Nanoseconds since this collector was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a recorded span if recording is on: returns `(id, parent)` and
    /// makes `id` the current span of this thread.
    pub fn open(&self) -> Option<(u64, u64)> {
        self.recording().then(|| {
            let id = self.next_span.fetch_add(1, Ordering::Relaxed);
            (id, CURRENT_SPAN.with(|c| c.replace(id)))
        })
    }

    /// Close a span opened with [`Collector::open`].
    pub fn close(&self, parent: u64) {
        CURRENT_SPAN.with(|c| c.set(parent));
    }

    /// Add spans recorded by the driver itself.
    pub fn add_spans(&self, spans: Vec<Span>) {
        self.lock().spans.extend(spans);
    }

    /// Take everything merged so far. Call after the cluster is dropped.
    pub fn take(&self) -> Merged {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Merged> {
        // Every update leaves `Merged` valid (plain sums and pushes), so a
        // poisoned lock is still usable — and `Drop` must not panic.
        self.merged.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// An automaton with a span around each callback.
pub struct Traced<A> {
    inner: A,
    role: Role,
    local: RoleAgg,
    spans: Vec<Span>,
    col: Arc<Collector>,
}

impl<A> Traced<A> {
    /// Wrap `inner` as a process of `role`.
    pub fn new(inner: A, role: Role, col: &Arc<Collector>) -> Self {
        Self { inner, role, local: RoleAgg::default(), spans: Vec::new(), col: Arc::clone(col) }
    }

    fn span(
        &mut self,
        kind: Kind,
        pid: ProcessId,
        op: Option<(ProcessId, Key)>,
        f: impl FnOnce(&mut A),
    ) {
        if !self.col.measuring() {
            return f(&mut self.inner);
        }
        let opened = self.col.open();
        let start_ns = if opened.is_some() { self.col.now_ns() } else { 0 };
        let (allocs0, labels0) = (alloc::on_this_thread(), label_calls());
        let (disk_ns0, disk_allocs0) = (DISK_NS.with(Cell::get), DISK_ALLOCS.with(Cell::get));
        let t0 = Instant::now();
        f(&mut self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::on_this_thread() - allocs0;
        self.local.kinds[kind as usize].add(ns, allocs);
        if self.role == Role::Server {
            self.local.call_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        let disk_ns = DISK_NS.with(Cell::get) - disk_ns0;
        if disk_ns > 0 {
            self.local.disk.ns += disk_ns;
            self.local.disk.allocs += DISK_ALLOCS.with(Cell::get) - disk_allocs0;
            self.local.disk.calls += 1;
        }
        for (sum, (now, before)) in
            self.local.labels.iter_mut().zip(label_calls().iter().zip(labels0))
        {
            *sum += now - before;
        }
        bump(&AUTOMATON_NS, ns);
        bump(&AUTOMATON_ALLOCS, allocs);
        if let Some((id, parent)) = opened {
            self.col.close(parent);
            self.spans.push(Span {
                id,
                parent,
                layer: if self.role == Role::Server { "server" } else { "client" },
                call: kind.name(),
                pid,
                op,
                start_ns,
                end_ns: start_ns + ns,
                allocs,
            });
        }
    }
}

impl<A> Drop for Traced<A> {
    fn drop(&mut self) {
        let mut merged = self.col.lock();
        match self.role {
            Role::Server => merged.server.merge(&self.local),
            Role::Client => merged.client.merge(&self.local),
        }
        merged.spans.append(&mut self.spans);
    }
}

impl<A: Automaton<M, E>> Automaton<M, E> for Traced<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, E>) {
        self.span(Kind::Start, ctx.me, None, |a| a.on_start(ctx));
    }

    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M, E>) {
        // The operation's client is whoever is not the storage node.
        let client = match self.role {
            Role::Client => Some(ctx.me),
            Role::Server => (from != ENV).then_some(from),
        };
        let op = client.map(|c| (c, msg.key));
        self.span(Kind::of(&msg.inner), ctx.me, op, |a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, id: u64, ctx: &mut Ctx<'_, M, E>) {
        self.span(Kind::Timer, ctx.me, None, |a| a.on_timer(id, ctx));
    }

    fn corrupt(&mut self, rng: &mut StdRng) {
        self.inner.corrupt(rng);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }
}

/// A simulated disk with a span, and a byte count, around each call.
pub struct TracedDisk {
    inner: SimDisk,
    rec: DiskRecorder,
}

/// The recording half of a [`TracedDisk`], apart from the disk itself so
/// that `load`, which only gets `&self`, can record too.
struct DiskRecorder {
    pid: ProcessId,
    local: RefCell<(DiskAgg, Vec<Span>)>,
    col: Arc<Collector>,
}

impl DiskRecorder {
    fn span<R>(
        &self,
        name: &'static str,
        pick: fn(&mut DiskAgg) -> &mut Agg,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.col.measuring() {
            return f();
        }
        let opened = self.col.open();
        let start_ns = if opened.is_some() { self.col.now_ns() } else { 0 };
        let allocs0 = alloc::on_this_thread();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::on_this_thread() - allocs0;
        let mut local = self.local.borrow_mut();
        pick(&mut local.0).add(ns, allocs);
        bump(&DISK_NS, ns);
        bump(&DISK_ALLOCS, allocs);
        if let Some((id, parent)) = opened {
            self.col.close(parent);
            local.1.push(Span {
                id,
                parent,
                layer: "disk",
                call: name,
                pid: self.pid,
                op: None,
                start_ns,
                end_ns: start_ns + ns,
                allocs,
            });
        }
        out
    }

    /// Count `payload` plus its framing, if measuring.
    fn wrote(&self, payload: &[u8], pick: fn(&mut DiskAgg) -> &mut u64) {
        if self.col.measuring() {
            *pick(&mut self.local.borrow_mut().0) += payload.len() as u64 + FRAME_OVERHEAD;
        }
    }
}

impl Drop for DiskRecorder {
    fn drop(&mut self) {
        let (agg, spans) = self.local.get_mut();
        let mut merged = self.col.lock();
        merged.disk.merge(agg);
        merged.spans.append(spans);
    }
}

impl TracedDisk {
    /// Wrap server `pid`'s disk.
    pub fn new(inner: SimDisk, pid: ProcessId, col: &Arc<Collector>) -> Self {
        let rec = DiskRecorder { pid, local: RefCell::default(), col: Arc::clone(col) };
        Self { inner, rec }
    }

    /// What this disk has aggregated so far.
    #[cfg(test)]
    fn aggregate(&self) -> DiskAgg {
        self.rec.local.borrow().0
    }
}

impl Stable for TracedDisk {
    fn put_snapshot(&mut self, payload: &[u8]) {
        self.rec.span("put_snapshot", |d| &mut d.snapshot, || self.inner.put_snapshot(payload));
        self.rec.wrote(payload, |d| &mut d.snapshot_bytes);
    }

    fn append(&mut self, payload: &[u8]) {
        self.rec.span("append", |d| &mut d.append, || self.inner.append(payload));
        self.rec.wrote(payload, |d| &mut d.append_bytes);
    }

    fn sync(&mut self) {
        self.rec.span("sync", |d| &mut d.sync, || self.inner.sync());
    }

    fn crash(&mut self, fault: DiskFault) {
        self.inner.crash(fault);
    }

    fn load(&self) -> Recovered {
        self.rec.span("load", |d| &mut d.load, || self.inner.load())
    }

    fn digest(&self) -> u64 {
        self.inner.digest()
    }

    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
}

/// A labeling system that counts `next`, `precedes` and `sanitize` calls
/// (the calls are too short to time in place; calibration times them).
#[derive(Clone, Debug)]
pub struct CountingLabeling<L>(pub L);

impl<L: LabelingSystem> LabelingSystem for CountingLabeling<L> {
    type Label = L::Label;

    fn k(&self) -> usize {
        self.0.k()
    }

    fn precedes(&self, a: &Self::Label, b: &Self::Label) -> bool {
        LABEL_CALLS.with(|c| c[1].set(c[1].get() + 1));
        self.0.precedes(a, b)
    }

    fn next(&self, seen: &[Self::Label]) -> Self::Label {
        LABEL_CALLS.with(|c| c[0].set(c[0].get() + 1));
        self.0.next(seen)
    }

    fn sanitize(&self, raw: Self::Label) -> Self::Label {
        LABEL_CALLS.with(|c| c[2].set(c[2].get() + 1));
        self.0.sanitize(raw)
    }

    fn genesis(&self) -> Self::Label {
        self.0.genesis()
    }

    fn arbitrary(&self, rng: &mut StdRng) -> Self::Label {
        self.0.arbitrary(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sbft_storage::{write_frame, DiskHandle};

    #[test]
    fn traced_disk_counts_exactly_the_bytes_write_frame_produces() {
        let col = Collector::new();
        col.set_measuring(true);
        let mut disk = TracedDisk::new(SimDisk::new(1), 0, &col);
        let payloads: [&[u8]; 3] = [b"", b"abc", &[7u8; 4096]];
        let mut framed = Vec::new();
        for p in payloads {
            disk.append(p);
            write_frame(&mut framed, p);
        }
        disk.sync();
        let agg = disk.aggregate();
        assert_eq!(agg.append_bytes, framed.len() as u64);
        assert_eq!((agg.append.calls, agg.sync.calls, agg.snapshot.calls), (3, 1, 0));

        let mut snap = Vec::new();
        write_frame(&mut snap, &[1u8; 100]);
        disk.put_snapshot(&[1u8; 100]);
        assert_eq!(disk.aggregate().snapshot_bytes, snap.len() as u64);
        // The wrapped disk holds exactly what an unwrapped one would.
        let mut plain = SimDisk::new(1);
        for p in payloads {
            plain.append(p);
        }
        plain.sync();
        plain.put_snapshot(&[1u8; 100]);
        assert_eq!(disk.digest(), plain.digest());
        assert_eq!(disk.stats(), plain.stats());
    }

    #[test]
    fn traced_disk_is_silent_while_measuring_is_off_and_merges_on_drop() {
        let col = Collector::new();
        let handle = DiskHandle::new(TracedDisk::new(SimDisk::new(2), 3, &col));
        handle.append(b"setup");
        col.set_measuring(true);
        handle.append(b"measured");
        drop(handle);
        let merged = col.take();
        assert_eq!(merged.disk.append.calls, 1);
        assert_eq!(merged.disk.append_bytes, 8 + FRAME_OVERHEAD);
    }

    #[test]
    fn counting_labeling_counts_and_agrees_with_the_wrapped_system() {
        let (plain, counting) =
            (BoundedLabeling::new(7), CountingLabeling(BoundedLabeling::new(7)));
        let mut rng = StdRng::seed_from_u64(4);
        let seen: Vec<_> = (0..5).map(|_| plain.sanitize(plain.arbitrary(&mut rng))).collect();
        let before = label_calls();
        let next = counting.next(&seen);
        assert_eq!(next, plain.next(&seen));
        assert!(seen.iter().all(|l| counting.precedes(l, &next)));
        assert_eq!(counting.sanitize(next.clone()), next);
        // `maximal` is a provided method: it must count through `precedes`.
        let _ = counting.maximal(&seen);
        let after = label_calls();
        assert_eq!(after[0] - before[0], 1);
        assert_eq!(after[2] - before[2], 1);
        assert!(after[1] - before[1] >= 5 + 5 * 4, "maximal compares every ordered pair");
    }

    struct Echo;
    impl Automaton<M, E> for Echo {
        fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M, E>) {
            ctx.send(from, msg);
        }
    }

    #[test]
    fn traced_automaton_aggregates_by_kind_and_forwards_effects() {
        let col = Collector::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = Traced::new(Echo, Role::Server, &col);
        let mut ctx = Ctx::detached(0, 0, &mut rng);
        a.on_message(9, KvMsg::new(1, Msg::GetTs), &mut ctx); // measuring off
        col.set_measuring(true);
        col.set_recording(true);
        let (ns0, _) = automaton_totals();
        a.on_message(9, KvMsg::new(1, Msg::GetTs), &mut ctx);
        a.on_message(9, KvMsg::new(2, Msg::Flush { label: 3 }), &mut ctx);
        assert_eq!(ctx.sent().len(), 3, "the wrapper must not swallow sends");
        assert!(automaton_totals().0 >= ns0);
        drop(a);
        let merged = col.take();
        assert_eq!(merged.server.kind(Kind::GetTs).calls, 1);
        assert_eq!(merged.server.kind(Kind::Flush).calls, 1);
        assert_eq!(merged.server.total().calls, 2);
        assert_eq!(merged.server.call_ns.len(), 2);
        assert_eq!(merged.spans.len(), 2);
        assert_eq!((merged.spans[0].layer, merged.spans[0].call), ("server", "get_ts"));
        assert_eq!(merged.spans[1].op, Some((9, 2)));
    }
}
