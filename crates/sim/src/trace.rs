//! Deterministic structured event tracing.
//!
//! A [`Tracer`] is a cheap clonable handle that every instrumented component
//! holds. Disabled (the default), it is a `None` and each emission costs one
//! branch; enabled, each emission encodes the event into a shared
//! [`TraceLog`] and folds it into the log's hash, and [`Tracer::finish`]
//! moves the log and its hash out at harvest.
//!
//! The design invariants that make traces usable as regression oracles:
//!
//! - **Inert**: tracing never schedules events, never draws from an RNG
//!   stream, and never feeds back into component state, so a traced run is
//!   bit-identical (in simulated behaviour) to an untraced one.
//! - **Deterministic**: events are emitted from simulation callbacks, which
//!   the [`Sim`](crate::Sim) kernel orders deterministically; the trace of a
//!   `(seed, config)` pair is therefore byte-stable across runs and builds.
//! - **Hashable**: [`hash_events`] folds every event's canonical binary
//!   encoding into one FNV-1a-64, so "same behaviour" can be asserted with
//!   a single integer while [`encode`]/[`decode`] keep the full stream
//!   inspectable when a hash test fails. One writer lays out those
//!   canonical bytes for both.
//!
//! A trace is only ever held as a [`TraceLog`]: it takes about a quarter
//! of a `Vec<TraceEvent>`'s size, its `load` events are a stream of their
//! own, the serving index, and the encoder that builds it computes the
//! [`hash_events`] value as it goes, one event at a time.
//!
//! Two exporters: [`chrome_json`] renders the Chrome `trace_event` format for
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), and [`encode`]
//! produces the binary log the hash is defined over.
//!
//! Timestamps come from the shared simulation clock
//! ([`Sim::now_handle`](crate::Sim::now_handle)), so components can emit
//! without a `&Sim` in scope.
//!
//! An enabled tracer records the base stream plus the optional
//! [`TraceClass`]es fixed when it is built; each class's emit sites ask
//! [`Tracer::wants`] first.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

use crate::time::Time;
use crate::{fnv1a, FNV_OFFSET, FNV_PRIME};

/// Subsystem that emitted an event. The discriminant is part of the stable
/// binary encoding — append new categories, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Category {
    /// Simulation kernel / platform lifecycle.
    Sim = 0,
    /// Cache hierarchy and line-fill buffers (`kus-mem`).
    Mem = 1,
    /// PCIe link TLPs (`kus-pcie`).
    Pcie = 2,
    /// Device datapath and request fetcher (`kus-device`).
    Device = 3,
    /// Software-queue descriptor lifecycle (`kus-swq` call sites).
    Swq = 4,
    /// Fiber scheduling and watchdog (`kus-fiber`).
    Fiber = 5,
    /// Executor-level recovery: deadlines, retries, failover (`kus-core`).
    Exec = 6,
    /// Request serving: arrivals, dispatch, sheds, completions (`kus-load`).
    Load = 7,
    /// Per-core cycle accounting: compute/stall/switch/poll spans emitted
    /// only when profiling is enabled (`kus-cpu`, `kus-core`).
    Cpu = 8,
}

impl Category {
    fn from_u8(v: u8) -> Option<Category> {
        use Category::*;
        Some(match v {
            0 => Sim,
            1 => Mem,
            2 => Pcie,
            3 => Device,
            4 => Swq,
            5 => Fiber,
            6 => Exec,
            7 => Load,
            8 => Cpu,
            _ => return None,
        })
    }

    /// Short lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Category::Sim => "sim",
            Category::Mem => "mem",
            Category::Pcie => "pcie",
            Category::Device => "device",
            Category::Swq => "swq",
            Category::Fiber => "fiber",
            Category::Exec => "exec",
            Category::Load => "load",
            Category::Cpu => "cpu",
        }
    }
}

/// Event shape, mirroring the Chrome `trace_event` phases we use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// A point event (`ph: "i"`). `a0`/`a1` are free-form arguments.
    Instant = 0,
    /// A sampled counter (`ph: "C"`). `a0` is the counter value.
    Counter = 1,
    /// A span (`ph: "X"`). `a0` is a free-form argument, `a1` is the
    /// duration in picoseconds; `at` is the span start.
    Complete = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Option<Phase> {
        Some(match v {
            0 => Phase::Instant,
            1 => Phase::Counter,
            2 => Phase::Complete,
            _ => return None,
        })
    }
}

/// Declares [`EventName`] from one table: each variant with its dotted
/// name, grouped under the one [`Category`] it is emitted under.
macro_rules! event_names {
    ($($cat:ident { $($(#[$doc:meta])* $variant:ident = $name:literal,)* })*) => {
        /// Every event name the simulator emits: the one registry of the
        /// trace taxonomy (DESIGN.md §8b). An event stores its name as one
        /// byte; the dotted string ([`as_str`](EventName::as_str)) is what
        /// the hash, the binary log, the Chrome export and the golden
        /// rendering write. Each doc line gives the `a0`, `a1` arguments.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum EventName {
            $($($(#[$doc])* $variant,)*)*
        }

        impl EventName {
            /// Every name, grouped by category in [`Category`] order.
            pub const ALL: &'static [EventName] = &[$($(EventName::$variant,)*)*];

            /// The dotted name, e.g. `"swq.enqueue"`.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $($(EventName::$variant => $name,)*)*
                }
            }

            /// The category every event of this name is emitted under.
            pub const fn category(self) -> Category {
                match self {
                    $($(EventName::$variant => Category::$cat,)*)*
                }
            }
        }
    };
}

event_names! {
    Mem {
        /// A line-fill buffer taken: line, buffers in use after.
        LfbAlloc = "lfb.alloc",
        /// A miss merged into a pending fill: line, buffers in use.
        LfbMerge = "lfb.merge",
        /// A fill arrived and freed its buffer: line, buffers in use after.
        LfbFill = "lfb.fill",
        /// A miss found every buffer busy: line, capacity.
        LfbFull = "lfb.full",
        /// A request queued for a free buffer (profile class): 0, waiters.
        LfbWait = "lfb.wait",
        /// An L1 eviction: victim line, newcomer line.
        L1Evict = "l1.evict",
        /// Credit-queue occupancy sample (profile class): credits in use.
        CreditOcc = "credit.occ",
        /// Memory-station occupancy sample (profile class): requests in
        /// service.
        StationOcc = "station.occ",
    }
    Pcie {
        /// A TLP on the wire: wire bytes, payload bytes.
        TlpSend = "tlp.send",
        /// A TLP replayed by an injected fault: wire bytes, replays.
        TlpReplay = "tlp.replay",
        /// Wait behind earlier traffic on the direction (profile class):
        /// delay in ps, 0.
        TlpQueue = "tlp.queue",
    }
    Device {
        /// A fetcher doorbell: doorbells so far, fetcher running.
        FetchDoorbell = "fetch.doorbell",
        /// A descriptor burst read: burst reads so far, bursts in flight.
        FetchBurst = "fetch.burst",
        /// The fetcher parks: rerun pending, 0.
        FetchPark = "fetch.park",
        /// A device request: line, replayed.
        DevReq = "dev.req",
        /// A device response span, arrival to release: line.
        DevResp = "dev.resp",
        /// A response past its deadline: line, lateness in ps.
        DevDeadlineMiss = "dev.deadline_miss",
    }
    Swq {
        /// A descriptor issued: tag, fiber.
        SwqIssue = "swq.issue",
        /// A descriptor on the ring: tag, ring depth.
        SwqEnqueue = "swq.enqueue",
        /// A doorbell rung: tag, 0.
        SwqDoorbell = "swq.doorbell",
        /// A descriptor fetched by the device: tag, pending.
        SwqFetch = "swq.fetch",
        /// The device served the read: tag, 0.
        SwqServe = "swq.serve",
        /// A completion entry written: tag, 0.
        SwqComplete = "swq.complete",
        /// A completion dropped on a full ring: tag, 0.
        SwqCplOverflow = "swq.cpl_overflow",
        /// The value delivered to its fiber: tag, fiber.
        SwqDeliver = "swq.deliver",
        /// A duplicate completion deduplicated: tag, 0.
        SwqStale = "swq.stale",
    }
    Fiber {
        /// A fiber switch: next fiber, switches so far.
        FiberSwitch = "fiber.switch",
        /// An injected fiber crash: fiber, recovery cost in ps.
        FiberCrash = "fiber.crash",
        /// The watchdog degraded doorbell mode: degradations so far, 0.
        WatchdogDegrade = "watchdog.degrade",
        /// The watchdog restored doorbell mode: restorations so far, 0.
        WatchdogRestore = "watchdog.restore",
    }
    Exec {
        /// A device read timed out: tag, retries.
        ReqTimeout = "req.timeout",
        /// A timed-out read re-enqueued: tag, retries.
        ReqRetry = "req.retry",
        /// A read failed over after its last retry: tag, retries.
        ReqFailover = "req.failover",
        /// A forced doorbell for retried reads: retried reads, 0.
        ReqForceDoorbell = "req.force_doorbell",
        /// A batched device read (deep class): first line, reads.
        DevReadBatch = "dev_read.batch",
        /// A load issued (deep class): line, fiber.
        LoadIssue = "load.issue",
        /// An L1 read (deep class): line, fiber.
        L1Read = "l1.read",
    }
    Load {
        /// A request dispatched to a core: id, arrival in ps.
        LoadDispatch = "load.dispatch",
        /// A request completed: id, arrival in ps.
        LoadComplete = "load.complete",
        /// An arrival shed on a full queue: id, arrival in ps.
        LoadShed = "load.shed",
        /// A request shed past its deadline: id, arrival in ps.
        LoadShedDeadline = "load.shed.deadline",
        /// An arrival rejected by admission control: id, arrival in ps.
        LoadShedAdmission = "load.shed.admission",
        /// A client retry: id, attempt.
        LoadRetry = "load.retry",
        /// A client timeout: id, attempt.
        LoadTimeout = "load.timeout",
        /// A hedged request: id, attempt.
        LoadHedge = "load.hedge",
        /// A request lost to a crashed worker: id, arrival in ps.
        LoadCrash = "load.crash",
        /// A dispatcher stall: id, stall in ps.
        LoadStall = "load.stall",
        /// A freeze window opens: window index, time in ps.
        LoadWindowStart = "load.window.start",
        /// A freeze window closes: window index, time in ps.
        LoadWindowEnd = "load.window.end",
        /// A packet at the wire: id, wire arrival in ps.
        NetArrival = "net.arrival",
        /// Link serialization: id, ps.
        NetWire = "net.wire",
        /// Wait in the RX queue: id, ps.
        NetRxWait = "net.rxwait",
        /// NIC processing: id, ps.
        NetNic = "net.nic",
        /// Steering to a core: id, ps.
        NetSteer = "net.steer",
        /// The steering decision: id, RX queue << 32 | core.
        NetRoute = "net.route",
        /// Response serialization: id, ps.
        NetTx = "net.tx",
        /// Front-tier span: request.
        RpcFront = "rpc.front",
        /// Fan-out stage span: request.
        RpcFanout = "rpc.fanout",
        /// One fan-out child's span (causal class): request × fan-out +
        /// shard.
        RpcHop = "rpc.hop",
        /// Service-tier span: request.
        RpcService = "rpc.service",
        /// Reply-tier span: request.
        RpcReply = "rpc.reply",
        /// Egress span (causal class): request.
        RpcTx = "rpc.tx",
    }
    Cpu {
        /// Work instructions retired (span): instructions.
        CpuWork = "cpu.work",
        /// Generic host software (span): 0.
        CpuSoft = "cpu.soft",
        /// SWQ completion polling (span): 0.
        CpuPoll = "cpu.poll",
        /// A context switch (span): next fiber.
        CpuCtx = "cpu.ctx",
        /// A core with every fiber blocked (span): fiber.
        CpuPark = "cpu.park",
        /// A load waiting for a free line-fill buffer (span): line.
        CpuLfbWait = "cpu.lfbwait",
    }
}

/// One trace event: 32 bytes. `name` is a registry [`EventName`];
/// `track` selects the timeline row (host core, fetcher, link direction…);
/// `a0`/`a1` carry event-specific arguments (tags, occupancy levels,
/// durations) per the conventions documented in DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp of the event (span start for [`Phase::Complete`]).
    pub at: Time,
    /// Emitting subsystem: `name.category()` for every emitted event.
    pub cat: Category,
    /// Event name, dot-namespaced within the category.
    pub name: EventName,
    /// Event shape.
    pub phase: Phase,
    /// Timeline row (see DESIGN.md §9 for the track-id scheme).
    pub track: u32,
    /// First argument (tag, line index, counter value…).
    pub a0: u64,
    /// Second argument (occupancy after, duration in ps for `Complete`…).
    pub a1: u64,
}

// A held stream costs this much per event.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 32);

impl TraceEvent {
    /// Canonical single-line rendering, shared by the golden-trace snapshots
    /// and failure diffs. Stable: changing this format invalidates goldens.
    pub fn render(&self) -> String {
        render_line(self.at, self.cat, self.name.as_str(), self.phase, self.track, self.a0, self.a1)
    }
}

/// The golden line format of [`TraceEvent::render`] and
/// [`DecodedEvent::render`].
fn render_line(
    at: Time,
    cat: Category,
    name: &str,
    phase: Phase,
    track: u32,
    a0: u64,
    a1: u64,
) -> String {
    format!("{:>12}ps {}/{} {phase:?} t={track} a0={a0} a1={a1}", at.as_ps(), cat.label(), name)
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// An event decoded from the binary log: identical to [`TraceEvent`] except
/// the name is owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedEvent {
    /// Simulated timestamp.
    pub at: Time,
    /// Emitting subsystem.
    pub cat: Category,
    /// Event name.
    pub name: String,
    /// Event shape.
    pub phase: Phase,
    /// Timeline row.
    pub track: u32,
    /// First argument.
    pub a0: u64,
    /// Second argument.
    pub a1: u64,
}

impl DecodedEvent {
    /// Same rendering as [`TraceEvent::render`], so decoded streams compare
    /// textually equal to live ones.
    pub fn render(&self) -> String {
        render_line(self.at, self.cat, &self.name, self.phase, self.track, self.a0, self.a1)
    }
}

/// Writes one event's canonical bytes, field by field, into `put`: the
/// form the content hash is defined over and the per-event record of the
/// binary log. The one writer of that layout.
fn canonical_bytes(e: &TraceEvent, mut put: impl FnMut(&[u8])) {
    put(&e.at.as_ps().to_le_bytes());
    put(&[e.cat as u8, e.phase as u8]);
    put(&e.track.to_le_bytes());
    let name = e.name.as_str();
    put(&(name.len() as u16).to_le_bytes());
    put(name.as_bytes());
    put(&e.a0.to_le_bytes());
    put(&e.a1.to_le_bytes());
}

/// An optional event class, recorded on top of the base stream only when
/// the tracer was built with it. Each class extends the stream (and so its
/// hash) deterministically and never changes simulated behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceClass {
    /// Deep per-access events: `load.issue`, `l1.read`, `dev_read.batch`.
    Deep = 1,
    /// Cycle accounting, the raw material of `kus-profile`: the
    /// [`Category::Cpu`] spans and the `lfb.wait`, `credit.occ`,
    /// `station.occ` and `tlp.queue` pressure samples.
    Profile = 2,
    /// The causal anchors a request's span DAG is rebuilt from at harvest:
    /// per-child fan-out spans (`rpc.hop`) and egress spans (`rpc.tx`).
    Causal = 4,
}

struct TracerInner {
    clock: Rc<Cell<Time>>,
    /// The log of the events emitted so far.
    log: RefCell<LogWriter>,
    /// The enabled [`TraceClass`]es, one bit each.
    classes: u8,
}

impl TracerInner {
    /// Records one event at the current simulated time.
    fn record(&self, name: EventName, phase: Phase, track: u32, a0: u64, a1: u64) {
        let at = self.clock.get();
        self.log.borrow_mut().push(&TraceEvent { at, cat: name.category(), name, phase, track, a0, a1 });
    }

    /// Records a [`Phase::Complete`] span over `[start, end]`, `end` not
    /// before `start`; the duration lands in `a1`.
    fn span(&self, name: EventName, track: u32, start: Time, end: Time, a0: u64) {
        let dur = (end - start).as_ps();
        let e = TraceEvent { at: start, cat: name.category(), name, phase: Phase::Complete, track, a0, a1: dur };
        self.log.borrow_mut().push(&e);
    }
}

/// Handle to the (possibly disabled) trace sink. Clone freely: all clones
/// share one log. `Tracer::default()` is the disabled tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(off)"),
            Some(i) => write!(f, "Tracer(on, {} events)", i.log.borrow().log.len()),
        }
    }
}

impl Tracer {
    /// The disabled tracer: every emission is a single branch, nothing is
    /// recorded.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer timestamping from `clock` (obtain one via
    /// [`Sim::now_handle`](crate::Sim::now_handle)) that records the base
    /// stream plus `classes`.
    pub fn new(clock: Rc<Cell<Time>>, classes: &[TraceClass]) -> Tracer {
        let classes = classes.iter().fold(0, |mask, &c| mask | c as u8);
        let inner = TracerInner { clock, log: RefCell::new(LogWriter::new()), classes };
        Tracer { inner: Some(Rc::new(inner)) }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `class` is recorded: the one question every gated emit site
    /// asks. Always false for a disabled tracer.
    #[inline]
    pub fn wants(&self, class: TraceClass) -> bool {
        self.inner.as_ref().is_some_and(|i| i.classes & class as u8 != 0)
    }

    /// Records one event at the current simulated time, under
    /// `name.category()`. No-op when disabled. The emitters inline to the
    /// one branch on a disabled tracer; the recording itself stays out of
    /// line.
    #[inline]
    pub fn emit(&self, name: EventName, phase: Phase, track: u32, a0: u64, a1: u64) {
        if let Some(inner) = &self.inner {
            inner.record(name, phase, track, a0, a1);
        }
    }

    /// Emits an [`Phase::Instant`] event.
    #[inline]
    pub fn instant(&self, name: EventName, track: u32, a0: u64, a1: u64) {
        self.emit(name, Phase::Instant, track, a0, a1);
    }

    /// Emits a [`Phase::Counter`] sample of `value`.
    #[inline]
    pub fn counter(&self, name: EventName, track: u32, value: u64) {
        self.emit(name, Phase::Counter, track, value, 0);
    }

    /// Emits a [`Phase::Complete`] span that started at `start` and ends now.
    /// The duration lands in `a1` (picoseconds).
    #[inline]
    pub fn complete_since(&self, name: EventName, track: u32, start: Time, a0: u64) {
        if let Some(inner) = &self.inner {
            inner.span(name, track, start, inner.clock.get(), a0);
        }
    }

    /// Emits a [`Phase::Complete`] span over an explicit `[start, end]`
    /// interval, independent of the current clock. Needed by spans whose end
    /// is not "now" at emission time: a child completion recorded from a
    /// device callback, or an egress span that extends past the emitting
    /// instant. `end` earlier than `start` records a zero-length span.
    #[inline]
    pub fn complete_span(&self, name: EventName, track: u32, start: Time, end: Time, a0: u64) {
        if let Some(inner) = &self.inner {
            inner.span(name, track, start, end.max(start), a0);
        }
    }

    /// Moves the log of the events recorded so far out, with their content
    /// hash (the value of [`hash_events`]), and starts an empty one. A
    /// disabled tracer returns the empty log. The harvest calls it once.
    pub fn finish(&self) -> (TraceLog, u64) {
        let writer = self.inner.as_ref().map_or_else(LogWriter::new, |i| i.log.replace(LogWriter::new()));
        writer.finish()
    }
}

/// The content hash of an event stream: FNV-1a-64 over every event's
/// canonical bytes (the records [`encode`] writes), folded in place.
pub fn hash_events(events: &[TraceEvent]) -> u64 {
    let mut hash = FNV_OFFSET;
    for e in events {
        canonical_bytes(e, |bytes| hash = fnv1a(hash, bytes));
    }
    hash
}

/// `FNV_PRIME` to the powers 0 through 8: folding that many zero bytes,
/// since folding a zero byte only multiplies.
const PRIME_POWERS: [u64; 9] = {
    let mut p = [1u64; 9];
    let mut i = 1;
    while i < p.len() {
        p[i] = p[i - 1].wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
};

/// FNV-1a over the `width` low bytes of `v`, little-endian: the
/// significant bytes one by one, the zero bytes above them as one
/// multiplication.
#[inline]
fn fold_le(mut hash: u64, mut v: u64, width: u32) -> u64 {
    let significant = (u64::BITS - v.leading_zeros()).div_ceil(8);
    for _ in 0..significant {
        hash = (hash ^ (v & 0xff)).wrapping_mul(FNV_PRIME);
        v >>= 8;
    }
    hash.wrapping_mul(PRIME_POWERS[(width - significant) as usize])
}

/// FNV-1a over one registry name's canonical name block, its 2-byte
/// length then its bytes, as `h * pow + add[h & 0xff]`. Folding a byte
/// xors into the hash's low byte only and then multiplies the whole, and
/// the low byte's course depends on the low byte alone; so a fixed block
/// multiplies the hash by the prime to its length and adds a term that
/// only the starting low byte selects.
struct NameFold {
    pow: u64,
    add: [u64; 256],
}

/// One [`NameFold`] per registry name, by discriminant, built once.
fn name_folds() -> &'static [NameFold] {
    static FOLDS: OnceLock<Vec<NameFold>> = OnceLock::new();
    FOLDS.get_or_init(|| {
        let fold = |name: &EventName| {
            let name = name.as_str();
            let mut block = (name.len() as u16).to_le_bytes().to_vec();
            block.extend_from_slice(name.as_bytes());
            let pow = FNV_PRIME.wrapping_pow(block.len() as u32);
            let add = std::array::from_fn(|low| {
                let low = low as u64;
                fnv1a(low, &block).wrapping_sub(low.wrapping_mul(pow))
            });
            NameFold { pow, add }
        };
        EventName::ALL.iter().map(fold).collect()
    })
}

/// Folds `e`'s canonical bytes into the FNV-1a `hash`, the same value
/// as [`hash_events`]'s per-event fold, with one multiplication for each
/// run of zero bytes and one for the name block.
#[inline]
fn fold_event(hash: u64, e: &TraceEvent, name: &NameFold) -> u64 {
    let mut h = fold_le(hash, e.at.as_ps(), 8);
    h = fnv1a(h, &[e.cat as u8, e.phase as u8]);
    h = fold_le(h, u64::from(e.track), 4);
    h = h.wrapping_mul(name.pow).wrapping_add(name.add[(h & 0xff) as usize]);
    h = fold_le(h, e.a0, 8);
    fold_le(h, e.a1, 8)
}

/// Header byte of a record that stands for the next event of
/// [`TraceLog::load`]; every other header is `name × PHASES + phase`.
const LOAD_RECORD: u8 = u8::MAX;

/// Phases a header byte tells apart.
const PHASES: u8 = 3;

// Every name has a header in every phase below the load marker, which
// leaves room for 85 names, and decoding looks a name up in
// `EventName::ALL` by its discriminant.
const _: () = {
    assert!(EventName::ALL.len() * PHASES as usize <= LOAD_RECORD as usize);
    let mut i = 0;
    while i < EventName::ALL.len() {
        assert!(EventName::ALL[i] as usize == i);
        i += 1;
    }
};

/// Appends `v` as LEB128: seven bits a byte, lowest group first, the high
/// bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the LEB128 value at `bytes[*pos..]` and moves `pos` past it.
#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        if b < 0x80 {
            return v | u64::from(b) << shift;
        }
        v |= u64::from(b & 0x7f) << shift;
        shift += 7;
    }
}

/// Appends a record's `at` field, the 65-bit `zigzag << 1 | same`, as
/// LEB128: the first byte holds the flag and the zigzag's low six bits,
/// the rest is the LEB128 of the zigzag's upper 58.
fn put_at(out: &mut Vec<u8>, zigzag: u64, same: bool) {
    let first = (zigzag << 1 & 0x7f) as u8 | u8::from(same);
    if zigzag < 0x40 {
        out.push(first);
    } else {
        out.push(first | 0x80);
        put_varint(out, zigzag >> 6);
    }
}

/// Reads the `at` field at `bytes[*pos..]` into a `u128`, whole, and moves
/// `pos` past it: the zigzag and the same-track flag.
#[inline]
fn read_at(bytes: &[u8], pos: &mut usize) -> (u64, bool) {
    let first = bytes[*pos];
    *pos += 1;
    let mut field = u128::from(first & 0x7f);
    if first >= 0x80 {
        field |= u128::from(read_varint(bytes, pos)) << 7;
    }
    ((field >> 1) as u64, field & 1 != 0)
}

/// A wrapped signed delta as an unsigned one that is small whenever the
/// delta's magnitude is: 0, -1, 1, -2… become 0, 1, 2, 3….
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The previous record's time and track in one stream of a [`TraceLog`],
/// which the next record's `at` field refers to.
#[derive(Clone, Copy, Default)]
struct Chain {
    at: u64,
    track: u32,
}

impl Chain {
    /// Appends `e`'s record to `out` and moves the chain to `e`.
    fn put(&mut self, out: &mut Vec<u8>, e: &TraceEvent) {
        let same = e.track == self.track;
        out.push(e.name as u8 * PHASES + e.phase as u8);
        put_at(out, zigzag(e.at.as_ps().wrapping_sub(self.at)), same);
        if !same {
            put_varint(out, e.track.into());
        }
        put_varint(out, e.a0);
        put_varint(out, e.a1);
        self.step(e);
    }

    /// Decodes the record at `bytes[*pos..]`, moves `pos` past it and the
    /// chain to its event. Inlined, with the iterators' `next`, into the
    /// harvest crates' loops: with a call per event, decoding the whole
    /// `fanout-long` log took 22 ms instead of 14 on a 2-vCPU host.
    #[inline]
    fn get(&mut self, bytes: &[u8], pos: &mut usize) -> TraceEvent {
        let head = bytes[*pos];
        *pos += 1;
        let name = EventName::ALL[usize::from(head / PHASES)];
        let phase = Phase::from_u8(head % PHASES).expect("a header holds a phase");
        let (delta, same) = read_at(bytes, pos);
        let at = self.at.wrapping_add(unzigzag(delta));
        let track = if same { self.track } else { read_varint(bytes, pos) as u32 };
        let a0 = read_varint(bytes, pos);
        let a1 = read_varint(bytes, pos);
        let e = TraceEvent { at: Time::from_ps(at), cat: name.category(), name, phase, track, a0, a1 };
        self.step(&e);
        e
    }

    #[inline]
    fn step(&mut self, e: &TraceEvent) {
        (self.at, self.track) = (e.at.as_ps(), e.track);
    }
}

/// A run's event stream, held compactly: 7–9 bytes an event on average on
/// the shipped worlds, where a `Vec<TraceEvent>` takes 32.
///
/// The log holds one record per event, in emission order:
///
/// - a header byte, `name × 3 + phase` by discriminant, so the registry
///   holds at most 85 names and every name is encodable in every phase;
/// - the `at` field, the LEB128 of `zigzag(Δat) << 1 | same`: the delta
///   from the previous record's time (the stream is not time-ordered: a
///   [`Phase::Complete`] span carries its start), and a low bit set when
///   the event is on the previous record's track, which the record then
///   leaves out. A 64-bit zigzag makes it a 65-bit value;
/// - `track` as LEB128, only when it changed;
/// - `a0` and `a1` as LEB128.
///
/// No category is stored: every emitted event's is `name.category()`,
/// which [`TraceLog::hashed`] asserts. Each [`Category::Load`] event
/// leaves the one-byte marker `0xff` among the records, whose chain it
/// moves all the same, and is itself recorded in a second stream of the
/// same layout with a chain of its own: the serving index the harvest
/// reports decode through [`load`](TraceLog::load).
///
/// One encoder builds every log: a [`Tracer`] runs it as each event is
/// emitted, [`TraceLog::hashed`] over a slice, and both compute the
/// [`hash_events`] fingerprint as they encode.
#[derive(Clone, PartialEq, Eq)]
pub struct TraceLog {
    /// One record per event.
    records: Vec<u8>,
    /// One record per [`Category::Load`] event.
    load: Vec<u8>,
    /// Events in `load`.
    load_events: usize,
    /// Per phase, by discriminant: events and the sum of their name
    /// lengths, all the Chrome export's size bound reads.
    phases: [(usize, usize); 3],
}

/// A [`TraceLog`] being built, one event at a time: the one encoder.
struct LogWriter {
    log: TraceLog,
    /// FNV-1a over the canonical bytes of the events so far.
    hash: u64,
    folds: &'static [NameFold],
    /// The chain of the records, which every event moves, and that of the
    /// serving stream, which only `load` events move.
    records: Chain,
    load: Chain,
}

impl LogWriter {
    fn new() -> LogWriter {
        let log = TraceLog { records: Vec::new(), load: Vec::new(), load_events: 0, phases: [(0, 0); 3] };
        LogWriter { log, hash: FNV_OFFSET, folds: name_folds(), records: Chain::default(), load: Chain::default() }
    }

    /// Encodes `e` and folds it into the hash.
    fn push(&mut self, e: &TraceEvent) {
        self.hash = fold_event(self.hash, e, &self.folds[e.name as usize]);
        let log = &mut self.log;
        let tally = &mut log.phases[e.phase as usize];
        tally.0 += 1;
        tally.1 += e.name.as_str().len();
        if e.cat == Category::Load {
            log.records.push(LOAD_RECORD);
            self.records.step(e);
            self.load.put(&mut log.load, e);
            log.load_events += 1;
        } else {
            self.records.put(&mut log.records, e);
        }
    }

    /// The log, its buffers trimmed to their length, and its hash.
    fn finish(mut self) -> (TraceLog, u64) {
        self.log.records.shrink_to_fit();
        self.log.load.shrink_to_fit();
        (self.log, self.hash)
    }
}

impl TraceLog {
    /// Encodes `events` into a log and computes their content hash, the
    /// value of [`hash_events`], in the same pass: what a [`Tracer`] that
    /// emitted them finishes with.
    ///
    /// # Panics
    ///
    /// Panics if an event's `cat` is not its `name.category()`.
    pub fn hashed(events: &[TraceEvent]) -> (TraceLog, u64) {
        let mut w = LogWriter::new();
        for e in events {
            assert!(e.cat == e.name.category(), "{:?} recorded under {:?}", e.name, e.cat);
            w.push(e);
        }
        w.finish()
    }

    /// The events, decoded in emission order.
    pub fn iter(&self) -> TraceLogIter<'_> {
        TraceLogIter { records: &self.records, pos: 0, chain: Chain::default(), load: self.load(), left: self.len() }
    }

    /// The [`Category::Load`] events, decoded in emission order: the
    /// serving index the harvest reports read instead of the whole stream.
    pub fn load(&self) -> LoadIter<'_> {
        LoadIter { bytes: &self.load, pos: 0, chain: Chain::default(), left: self.load_events }
    }

    /// Events held.
    pub fn len(&self) -> usize {
        self.phases.iter().map(|&(events, _)| events).sum()
    }

    /// Whether the log holds no event.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl From<Vec<TraceEvent>> for TraceLog {
    fn from(events: Vec<TraceEvent>) -> TraceLog {
        TraceLog::hashed(&events).0
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = TraceEvent;
    type IntoIter = TraceLogIter<'a>;

    fn into_iter(self) -> TraceLogIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("events", &self.len())
            .field("record_bytes", &self.records.len())
            .field("load_events", &self.load_events)
            .field("load_bytes", &self.load.len())
            .finish()
    }
}

/// The events of a [`TraceLog`], decoded in emission order.
pub struct TraceLogIter<'a> {
    records: &'a [u8],
    pos: usize,
    chain: Chain,
    /// The serving stream, which a load marker's event is read from.
    load: LoadIter<'a>,
    /// Events not yet decoded.
    left: usize,
}

impl Iterator for TraceLogIter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        let &head = self.records.get(self.pos)?;
        let e = if head == LOAD_RECORD {
            self.pos += 1;
            let e = self.load.next().expect("a load marker has its event");
            self.chain.step(&e);
            e
        } else {
            self.chain.get(self.records, &mut self.pos)
        };
        self.left -= 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for TraceLogIter<'_> {}

/// The [`Category::Load`] events of a [`TraceLog`], decoded in emission
/// order from the serving stream.
#[derive(Clone)]
pub struct LoadIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    chain: Chain,
    /// Events not yet decoded.
    left: usize,
}

impl Iterator for LoadIter<'_> {
    type Item = TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent> {
        self.left = self.left.checked_sub(1)?;
        Some(self.chain.get(self.bytes, &mut self.pos))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for LoadIter<'_> {}

/// Magic header of the binary trace log (7 bytes magic + 1 byte version).
pub const TRACE_MAGIC: &[u8; 8] = b"KUSTRC\x00\x01";

/// Encodes events into the compact binary log: [`TRACE_MAGIC`], a `u64`
/// event count, then each event's canonical record (the bytes the content
/// hash is computed over).
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + events.len() * 40);
    out.extend_from_slice(TRACE_MAGIC);
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        canonical_bytes(e, |bytes| out.extend_from_slice(bytes));
    }
    out
}

/// Decoding failure: offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace decode error at byte {}: {}", self.offset, self.what)
    }
}

/// Decodes a binary log produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<DecodedEvent>, DecodeError> {
    let err = |offset, what| DecodeError { offset, what };
    if bytes.len() < 16 {
        return Err(err(0, "truncated header"));
    }
    if &bytes[0..8] != TRACE_MAGIC {
        return Err(err(0, "bad magic"));
    }
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    // Every record takes at least 32 bytes; a count the rest of the log
    // cannot hold is corrupt, and must not size an allocation.
    if count > (bytes.len() as u64 - 16) / 32 {
        return Err(err(8, "event count exceeds the log"));
    }
    let mut pos = 16;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
        let s = bytes.get(*pos..*pos + n).ok_or(DecodeError { offset: *pos, what: "truncated record" })?;
        *pos += n;
        Ok(s)
    };
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let at = Time::from_ps(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        let cat_at = pos;
        let cat = Category::from_u8(take(&mut pos, 1)?[0]).ok_or(err(cat_at, "unknown category"))?;
        let phase_at = pos;
        let phase = Phase::from_u8(take(&mut pos, 1)?[0]).ok_or(err(phase_at, "unknown phase"))?;
        let track = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name_at = pos;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| err(name_at, "event name is not UTF-8"))?
            .to_string();
        let a0 = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let a1 = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        out.push(DecodedEvent { at, cat, name, phase, track, a0, a1 });
    }
    if pos != bytes.len() {
        return Err(err(pos, "trailing bytes after last record"));
    }
    Ok(out)
}

/// A causal arrow between two points on the timeline, rendered as a Chrome
/// `trace_event` flow (`ph:"s"` → `ph:"f"`) so Perfetto draws the DAG edges
/// over the spans. `id` must be unique per arrow within one export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrow {
    /// Flow id binding the start and finish halves together.
    pub id: u64,
    /// Edge label (e.g. `"fanout"`, `"join"`).
    pub name: &'static str,
    /// Where the arrow leaves.
    pub from: Time,
    /// Track the arrow leaves from.
    pub from_track: u32,
    /// Where the arrow lands.
    pub to: Time,
    /// Track the arrow lands on.
    pub to_track: u32,
}

/// Renders a log's events as Chrome `trace_event` JSON (the "JSON array
/// format"), loadable in `chrome://tracing` and Perfetto. Deterministic:
/// the same event stream yields byte-identical output.
pub fn chrome_json(log: &TraceLog) -> String {
    chrome_json_with_flows(log, &[])
}

/// [`chrome_json`] plus causal [`FlowArrow`]s appended as flow-event pairs.
/// With an empty `flows` slice the output is byte-identical to
/// [`chrome_json`]. The log is decoded once, as the document is written.
pub fn chrome_json_with_flows(log: &TraceLog, flows: &[FlowArrow]) -> String {
    // A large zeroed allocation is mapped lazily, so the part of the
    // worst-case buffer that the writer never reaches costs address space
    // only.
    let mut doc = vec![0; chrome_len_bound(log, flows)];
    let mut w = ChromeWriter { buf: &mut doc, len: 0 };
    w.put(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in log.iter().enumerate() {
        if i > 0 {
            w.put(b",\n");
        }
        w.event(&e);
    }
    for (i, f) in flows.iter().enumerate() {
        if !log.is_empty() || i > 0 {
            w.put(b",\n");
        }
        w.flow(f);
    }
    w.put(b"\n]}\n");
    let len = w.len;
    doc.truncate(len);
    String::from_utf8(doc).expect("the Chrome writer emits only UTF-8")
}

/// The longest line of each shape, names excluded: a `u64` prints in at
/// most 20 digits, a timestamp in 21 (14 µs digits, point, 6 fraction
/// digits), a track in 10, a category label in 6; each count includes the
/// separator before the line.
const MAX_INSTANT_LINE: usize = 158;
const MAX_COUNTER_LINE: usize = 122;
const MAX_COMPLETE_LINE: usize = 152;
const MAX_FLOW_PAIR: usize = 239;

/// An upper bound on the document's length: the longest line of each
/// shape, with every event name at its length (a registry name needs no
/// escape; a counter writes its name twice) and every flow-name byte
/// escaped to six. The log's per-phase tallies give it without a pass.
fn chrome_len_bound(log: &TraceLog, flows: &[FlowArrow]) -> usize {
    let [instant, counter, complete] = log.phases;
    let events = MAX_INSTANT_LINE * instant.0
        + instant.1
        + MAX_COUNTER_LINE * counter.0
        + 2 * counter.1
        + MAX_COMPLETE_LINE * complete.0
        + complete.1;
    let flows: usize = flows.iter().map(|f| MAX_FLOW_PAIR + 12 * f.name.len()).sum();
    64 + events + flows
}

/// Two ASCII digits for each value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the document byte by byte into a buffer that
/// [`chrome_len_bound`] sized: no formatting machinery, no per-line
/// allocation and no copy of a line once composed.
struct ChromeWriter<'a> {
    buf: &'a mut [u8],
    len: usize,
}

impl ChromeWriter<'_> {
    fn put(&mut self, s: &[u8]) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    /// A flow name as the body of a JSON string, escaped byte by byte: `"`
    /// and `\` get a backslash, other control bytes a `\u00XX` escape.
    /// Every byte that needs escaping is ASCII, so the bytes of a
    /// multi-byte character pass through unchanged. Event names are
    /// registry names, which need no escape.
    fn escaped(&mut self, name: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for &b in name.as_bytes() {
            match b {
                b'"' | b'\\' => self.put(&[b'\\', b]),
                0..=0x1f => {
                    let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]);
                    self.put(&[b'\\', b'u', b'0', b'0', hi, lo]);
                }
                _ => {
                    self.buf[self.len] = b;
                    self.len += 1;
                }
            }
        }
    }

    /// `v` in decimal, written from its last digit pair back.
    fn uint(&mut self, mut v: u64) {
        let digits = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let out = &mut self.buf[self.len..self.len + digits];
        let mut end = digits;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            end -= 2;
            out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            out[0] = b'0' + v as u8;
        }
        self.len += digits;
    }

    /// Picoseconds as fractional microseconds with exactly six fraction
    /// digits, without going through floating point, so the output is
    /// byte-deterministic.
    fn micros(&mut self, ps: u64) {
        self.uint(ps / 1_000_000);
        let frac = (ps % 1_000_000) as usize;
        let [hi, mid, lo] = [frac / 10_000, frac / 100 % 100, frac % 100].map(|p| 2 * p);
        let out = &mut self.buf[self.len..self.len + 7];
        out[0] = b'.';
        out[1..3].copy_from_slice(&DIGIT_PAIRS[hi..hi + 2]);
        out[3..5].copy_from_slice(&DIGIT_PAIRS[mid..mid + 2]);
        out[5..].copy_from_slice(&DIGIT_PAIRS[lo..lo + 2]);
        self.len += 7;
    }

    fn event(&mut self, e: &TraceEvent) {
        self.put(b"{\"name\":\"");
        self.put(e.name.as_str().as_bytes());
        self.put(b"\",\"cat\":\"");
        self.put(e.cat.label().as_bytes());
        self.put(match e.phase {
            Phase::Instant => b"\",\"ph\":\"i\",\"ts\":",
            Phase::Counter => b"\",\"ph\":\"C\",\"ts\":",
            Phase::Complete => b"\",\"ph\":\"X\",\"ts\":",
        });
        self.micros(e.at.as_ps());
        self.put(b",\"pid\":0,\"tid\":");
        self.uint(u64::from(e.track));
        match e.phase {
            Phase::Instant => {
                self.put(b",\"s\":\"t\",\"args\":{\"a0\":");
                self.uint(e.a0);
                self.put(b",\"a1\":");
                self.uint(e.a1);
            }
            Phase::Counter => {
                self.put(b",\"args\":{\"");
                self.put(e.name.as_str().as_bytes());
                self.put(b"\":");
                self.uint(e.a0);
            }
            Phase::Complete => {
                self.put(b",\"dur\":");
                self.micros(e.a1);
                self.put(b",\"args\":{\"a0\":");
                self.uint(e.a0);
            }
        }
        self.put(b"}}");
    }

    /// One arrow as its start (`ph:"s"`) and finish (`ph:"f"`) halves.
    fn flow(&mut self, f: &FlowArrow) {
        self.put(b"{\"name\":\"");
        self.escaped(f.name);
        self.put(b"\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":");
        self.uint(f.id);
        self.put(b",\"ts\":");
        self.micros(f.from.as_ps());
        self.put(b",\"pid\":0,\"tid\":");
        self.uint(u64::from(f.from_track));
        self.put(b"},\n{\"name\":\"");
        self.escaped(f.name);
        self.put(b"\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":");
        self.uint(f.id);
        self.put(b",\"ts\":");
        self.micros(f.to.as_ps());
        self.put(b",\"pid\":0,\"tid\":");
        self.uint(u64::from(f.to_track));
        self.put(b"}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimRng, Span};

    fn ev(at_ns: u64, name: EventName, a0: u64) -> TraceEvent {
        TraceEvent {
            at: Time::ZERO + Span::from_ns(at_ns),
            cat: name.category(),
            name,
            phase: Phase::Instant,
            track: 0,
            a0,
            a1: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        t.instant(EventName::FiberSwitch, 0, 1, 2);
        assert!(!t.is_on());
        let (log, hash) = t.finish();
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
        assert_eq!(hash, FNV_OFFSET);
        assert_eq!(hash_events(&[]), FNV_OFFSET);
    }

    #[test]
    fn tracer_timestamps_from_sim_clock() {
        let mut sim = Sim::new();
        let t = Tracer::new(sim.now_handle(), &[]);
        let t2 = t.clone();
        sim.schedule_in(Span::from_ns(42), move |_| t2.instant(EventName::L1Evict, 3, 7, 9));
        sim.run();
        let evs: Vec<TraceEvent> = t.finish().0.iter().collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at.as_ns(), 42);
        assert_eq!((evs[0].cat, evs[0].track, evs[0].a0, evs[0].a1), (Category::Mem, 3, 7, 9));
    }

    #[test]
    fn hash_matches_recomputation_and_is_order_sensitive() {
        let (a, b) = (EventName::SwqIssue, EventName::SwqEnqueue);
        let fwd = vec![ev(1, a, 1), ev(2, b, 2)];
        let rev = vec![ev(2, b, 2), ev(1, a, 1)];
        assert_ne!(hash_events(&fwd), hash_events(&rev));
        // The hash is defined over exactly the records the binary log holds.
        assert_eq!(hash_events(&fwd), fnv1a(FNV_OFFSET, &encode(&fwd)[16..]));

        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle(), &[]);
        t.instant(a, 0, 1, 0);
        t.instant(b, 0, 2, 0);
        let (log, hash) = t.finish();
        let evs: Vec<TraceEvent> = log.iter().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(hash_events(&evs), hash_events(&[ev(0, a, 1), ev(0, b, 2)]));
        assert_eq!(hash, hash_events(&evs), "the tracer hashes as it encodes");
        let (rest, rest_hash) = t.finish();
        assert!(rest.is_empty(), "finishing moves the log out");
        assert_eq!(rest_hash, FNV_OFFSET);
    }

    #[test]
    fn binary_roundtrip_preserves_events() {
        let evs = vec![ev(5, EventName::SwqEnqueue, 17), ev(9, EventName::SwqDeliver, 17)];
        let bytes = encode(&evs);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        for (d, e) in decoded.iter().zip(&evs) {
            assert_eq!(d.render(), e.render());
            assert_eq!((d.at, d.cat, d.phase, d.track, d.a0, d.a1), (e.at, e.cat, e.phase, e.track, e.a0, e.a1));
            assert_eq!(d.name, e.name.as_str());
        }
    }

    /// The registry is the whole taxonomy: names are unique, need no JSON
    /// escape, and survive the binary log with their category.
    #[test]
    fn every_registry_name_is_unique_plain_and_round_trips() {
        let mut seen = std::collections::BTreeSet::new();
        for &name in EventName::ALL {
            let s = name.as_str();
            assert!(seen.insert(s), "{s} registered twice");
            assert!(
                !s.is_empty() && s.bytes().all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.')),
                "{s} is not [a-z0-9_.]+"
            );
            let e = TraceEvent { phase: Phase::Complete, track: 7, a1: 9, ..ev(3, name, 5) };
            let d = decode(&encode(&[e])).expect("a registry event decodes");
            assert_eq!((d[0].name.as_str(), d[0].cat), (s, name.category()));
            assert_eq!(d[0].render(), e.render());
        }
        assert!(EventName::ALL.windows(2).all(|w| w[0].category() <= w[1].category()), "ALL is grouped");
    }

    #[test]
    fn decode_rejects_corruption() {
        let evs = vec![ev(5, EventName::SwqStale, 1)];
        let mut bytes = encode(&evs);
        assert!(decode(&bytes[..10]).is_err(), "truncated header");
        bytes[0] = b'Z';
        assert!(decode(&bytes).is_err(), "bad magic");
        let mut ok = encode(&evs);
        ok.push(0);
        assert!(decode(&ok).is_err(), "trailing bytes");
        let mut huge = TRACE_MAGIC.to_vec();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&huge).is_err(), "event count the log cannot hold");
    }

    #[test]
    fn chrome_json_is_parseable_shape() {
        let evs = vec![
            ev(1, EventName::SwqEnqueue, 3),
            TraceEvent {
                at: Time::from_ps(1_500_000),
                cat: Category::Device,
                name: EventName::DevResp,
                phase: Phase::Complete,
                track: 200,
                a0: 4,
                a1: 2_000_000,
            },
            TraceEvent {
                at: Time::from_ps(2_000_000),
                cat: Category::Mem,
                name: EventName::CreditOcc,
                phase: Phase::Counter,
                track: 0,
                a0: 6,
                a1: 0,
            },
        ];
        let json = chrome_json(&TraceLog::from(evs.clone()));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":2.000000"));
        assert!(json.contains(r#"{"name":"credit.occ","cat":"mem","ph":"C","ts":2.000000,"pid":0,"tid":0,"args":{"credit.occ":6}}"#));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check, no JSON dep).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        // Flow names are escaped in place: quote, backslash, control
        // character.
        let flows = [FlowArrow {
            id: 1,
            name: "q\"b\\c\u{1}",
            from: Time::ZERO,
            from_track: 0,
            to: Time::from_ps(1),
            to_track: 1,
        }];
        let json = chrome_json_with_flows(&TraceLog::from(evs[..1].to_vec()), &flows);
        assert!(json.contains(r#"{"name":"swq.enqueue","cat":"swq","ph":"i""#), "{json}");
        assert!(json.contains(r#"{"name":"q\"b\\c\u0001","cat":"causal","ph":"s""#), "{json}");
        assert!(json.contains(r#"{"name":"q\"b\\c\u0001","cat":"causal","ph":"f""#), "{json}");
    }

    /// The `write!`-based exporter that the byte writer replaced, kept as
    /// the reference the differential test compares against.
    mod reference {
        use super::super::{FlowArrow, Phase, Time, TraceEvent};
        use std::fmt::{self, Write as _};

        /// Timestamp in fractional microseconds, rendered without going
        /// through floating point.
        struct ChromeTs(Time);

        impl fmt::Display for ChromeTs {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let ps = self.0.as_ps();
                write!(f, "{}.{:06}", ps / 1_000_000, ps % 1_000_000)
            }
        }

        /// A name rendered as the body of a JSON string, escaped as it is
        /// written.
        struct JsonStr<'a>(&'a str);

        impl fmt::Display for JsonStr<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut rest = self.0;
                while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
                    f.write_str(&rest[..i])?;
                    match rest.as_bytes()[i] {
                        b @ (b'"' | b'\\') => write!(f, "\\{}", b as char)?,
                        b => write!(f, "\\u{b:04x}")?,
                    }
                    rest = &rest[i + 1..];
                }
                f.write_str(rest)
            }
        }

        fn ph(phase: Phase) -> char {
            match phase {
                Phase::Instant => 'i',
                Phase::Counter => 'C',
                Phase::Complete => 'X',
            }
        }

        pub fn chrome_json_with_flows(events: &[TraceEvent], flows: &[FlowArrow]) -> String {
            let mut out = String::new();
            write_chrome(&mut out, events, flows).expect("writing to a String cannot fail");
            out
        }

        fn write_chrome(out: &mut String, events: &[TraceEvent], flows: &[FlowArrow]) -> fmt::Result {
            out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                let name = JsonStr(e.name.as_str());
                write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":0,\"tid\":{}",
                    e.cat.label(),
                    ph(e.phase),
                    ChromeTs(e.at),
                    e.track,
                )?;
                match e.phase {
                    Phase::Instant => write!(out, ",\"s\":\"t\",\"args\":{{\"a0\":{},\"a1\":{}}}}}", e.a0, e.a1)?,
                    Phase::Counter => write!(out, ",\"args\":{{\"{name}\":{}}}}}", e.a0)?,
                    Phase::Complete => write!(
                        out,
                        ",\"dur\":{},\"args\":{{\"a0\":{}}}}}",
                        ChromeTs(Time::from_ps(e.a1)),
                        e.a0
                    )?,
                }
            }
            for (i, f) in flows.iter().enumerate() {
                if !events.is_empty() || i > 0 {
                    out.push_str(",\n");
                }
                let name = JsonStr(f.name);
                writeln!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}},",
                    f.id,
                    ChromeTs(f.from),
                    f.from_track,
                )?;
                write!(
                    out,
                    "{{\"name\":\"{name}\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                    f.id,
                    ChromeTs(f.to),
                    f.to_track,
                )?;
            }
            out.push_str("\n]}\n");
            Ok(())
        }
    }

    /// A seeded random stream: every registry name in every phase, then
    /// random ones, half of them `load` names so that `load` events come in
    /// runs; spans that start before the previous record; track switches
    /// and runs on one track; `at`, `track`, `a0` and `a1` at the varint
    /// and zigzag edges (0, 127, 128, `u32::MAX`, 2^62, 2^63, `u64::MAX`)
    /// and at random values.
    fn random_stream(rng: &mut SimRng) -> Vec<TraceEvent> {
        const EDGES: [u64; 9] = [0, 1, 127, 128, u32::MAX as u64, 1 << 62, 1 << 63, u64::MAX - 1, u64::MAX];
        fn value(rng: &mut SimRng) -> u64 {
            match rng.below(4) {
                0 => EDGES[rng.below(EDGES.len() as u64) as usize],
                1 => rng.below(300),
                2 => rng.below(1 << 40),
                _ => rng.next_u64(),
            }
        }
        let names = EventName::ALL;
        let load: Vec<EventName> = names.iter().copied().filter(|n| n.category() == Category::Load).collect();
        let mut events = Vec::new();
        let (mut at, mut track) = (0u64, 0u32);
        for i in 0..3 * names.len() + rng.below(60) as usize {
            let (name, phase) = match i.checked_sub(3 * names.len()) {
                None => (names[i / 3], i as u8 % 3),
                Some(_) if rng.below(2) == 0 => (load[rng.below(load.len() as u64) as usize], rng.below(3) as u8),
                Some(_) => (names[rng.below(names.len() as u64) as usize], rng.below(3) as u8),
            };
            let phase = Phase::from_u8(phase).expect("a phase");
            at = match rng.below(4) {
                0 => value(rng),
                1 => at.saturating_sub(rng.below(2_000)),
                _ => at.saturating_add(rng.below(2_000)),
            };
            if rng.below(3) == 0 {
                track = value(rng) as u32;
            }
            let (a0, a1) = (value(rng), value(rng));
            events.push(TraceEvent { at: Time::from_ps(at), cat: name.category(), name, phase, track, a0, a1 });
        }
        events
    }

    /// What a set of streams exercises of the layout: each header (name ×
    /// phase), same-track on and off and a zigzag delta with its top bit
    /// set on each chain (records, serving stream), and the longest run of
    /// consecutive `load` events.
    #[derive(Default)]
    struct Coverage {
        headers: std::collections::BTreeSet<(u8, u8)>,
        /// Per chain: same track, another track, a 64-bit zigzag.
        chains: [[bool; 3]; 2],
        load_run: usize,
    }

    impl Coverage {
        fn add(&mut self, stream: &[TraceEvent]) {
            let mut prev = [(0u64, 0u32); 2];
            let mut run = 0;
            for e in stream {
                self.headers.insert((e.name as u8, e.phase as u8));
                let load = e.cat == Category::Load;
                run = if load { run + 1 } else { 0 };
                self.load_run = self.load_run.max(run);
                for chain in if load { 0..2 } else { 0..1 } {
                    let (at, track) = prev[chain];
                    let seen = &mut self.chains[chain];
                    seen[0] |= e.track == track;
                    seen[1] |= e.track != track;
                    seen[2] |= zigzag(e.at.as_ps().wrapping_sub(at)) >> 63 == 1;
                    prev[chain] = (e.at.as_ps(), e.track);
                }
            }
        }
    }

    /// Emits `stream` through a tracer whose clock is set to each event's
    /// time: spans through `complete_since` and `complete_span` where
    /// their end fits in a `u64`, everything else through `emit`.
    fn emit_all(stream: &[TraceEvent]) -> Tracer {
        let clock = Rc::new(Cell::new(Time::ZERO));
        let t = Tracer::new(clock.clone(), &[]);
        for (i, e) in stream.iter().enumerate() {
            clock.set(e.at);
            match e.at.as_ps().checked_add(e.a1) {
                Some(end) if e.phase == Phase::Complete && i % 2 == 0 => {
                    clock.set(Time::from_ps(end));
                    t.complete_since(e.name, e.track, e.at, e.a0);
                }
                Some(end) if e.phase == Phase::Complete => {
                    t.complete_span(e.name, e.track, e.at, Time::from_ps(end), e.a0)
                }
                _ => t.emit(e.name, e.phase, e.track, e.a0, e.a1),
            }
        }
        t
    }

    /// The log gives back the stream it encoded, its fused hash is the
    /// reference hash, its serving stream decodes to the stream's `load`
    /// events, its Chrome export is the reference exporter's, and a tracer
    /// that emits the stream finishes with the same log and hash, on
    /// seeded random streams and the empty one. The streams cover every
    /// header, both track cases and 64-bit zigzag deltas on both chains,
    /// and runs of `load` events.
    #[test]
    fn the_log_round_trips_hashes_and_indexes_every_stream() {
        let mut rng = SimRng::from_seed(0x106);
        let streams: Vec<Vec<TraceEvent>> =
            std::iter::once(Vec::new()).chain((0..64).map(|_| random_stream(&mut rng))).collect();
        let mut coverage = Coverage::default();
        for (round, s) in streams.iter().enumerate() {
            coverage.add(s);
            let (log, hash) = TraceLog::hashed(s);
            assert_eq!(log.len(), s.len(), "round {round}");
            assert_eq!(log.iter().len(), s.len(), "round {round}");
            assert!(log.iter().eq(s.iter().copied()), "round {round}: decode(encode(s)) != s");
            assert_eq!(hash, hash_events(s), "round {round}: fused hash");
            let load: Vec<TraceEvent> = s.iter().filter(|e| e.cat == Category::Load).copied().collect();
            let serving = log.load();
            assert_eq!(serving.len(), load.len(), "round {round}: serving stream length");
            assert!(serving.clone().eq(load.iter().copied()), "round {round}: serving stream");
            assert_eq!(serving.skip(load.len() / 2).len(), load.len() - load.len() / 2, "round {round}");
            assert_eq!(
                chrome_json_with_flows(&log, &[]),
                reference::chrome_json_with_flows(s, &[]),
                "round {round}: Chrome export"
            );
            assert!(log == TraceLog::from(s.clone()), "round {round}: encoding is a function of the stream");
            let (emitted, emitted_hash) = emit_all(s).finish();
            assert!(emitted == log, "round {round}: the tracer's log is the slice encoder's");
            assert_eq!(emitted_hash, hash, "round {round}: the tracer's hash");
        }
        assert_eq!(coverage.headers.len(), 3 * EventName::ALL.len(), "every name in every phase");
        assert_eq!(coverage.chains, [[true; 3]; 2], "both track cases and 64-bit deltas on both chains");
        assert!(coverage.load_run >= 3, "runs of load events");
        assert!(TraceLog::from(Vec::new()).is_empty());
        assert_eq!(TraceLog::from(Vec::new()).load().len(), 0);
    }

    /// Every name block fold equals FNV-1a over the block, whatever the
    /// hash's low byte: a wrong table entry cannot hide behind the states
    /// a random stream happens to reach.
    #[test]
    fn every_name_fold_matches_fnv1a_at_every_low_byte() {
        let mut rng = SimRng::from_seed(0xf01d);
        for (&name, fold) in EventName::ALL.iter().zip(name_folds()) {
            let mut block = (name.as_str().len() as u16).to_le_bytes().to_vec();
            block.extend_from_slice(name.as_str().as_bytes());
            for low in 0..256 {
                let h = rng.next_u64() & !0xff | low;
                let folded = h.wrapping_mul(fold.pow).wrapping_add(fold.add[low as usize]);
                assert_eq!(folded, fnv1a(h, &block), "{name:?} at low byte {low}");
            }
        }
    }

    /// The record layout, byte for byte, in both streams: the header byte
    /// `name × 3 + phase`, the `at` field's same-track low bit, a span
    /// starting before the previous record as a one-byte field, `load`
    /// events as one-byte markers that move the records' chain, the serving
    /// stream on a chain of its own, and a delta of 2^63 whose zigzag fills
    /// all 64 bits as a 10-byte field.
    #[test]
    fn the_record_layout_is_pinned() {
        let span = TraceEvent { phase: Phase::Complete, track: 2, a1: 128, ..ev(0, EventName::DevResp, 1) };
        let dispatch = TraceEvent { at: Time::from_ps(400), track: 2, ..ev(0, EventName::LoadDispatch, 9) };
        let stream = vec![
            TraceEvent { at: Time::from_ps(300), ..ev(0, EventName::SwqIssue, 5) },
            TraceEvent { at: Time::from_ps(299), ..span },
            dispatch,
            TraceEvent { at: Time::from_ps(398), ..span },
            TraceEvent { at: Time::from_ps(400 + (1 << 63)), name: EventName::LoadComplete, ..dispatch },
        ];
        let log = TraceLog::from(stream.clone());
        let head = |name: EventName, phase: Phase| name as u8 * 3 + phase as u8;
        #[rustfmt::skip]
        let records = [
            // 300 ps on track 0: (600 << 1 | 1) = 0x4b1.
            head(EventName::SwqIssue, Phase::Instant), 0xb1, 0x09, 5, 0,
            // -1 ps, to track 2: (1 << 1 | 0).
            head(EventName::DevResp, Phase::Complete), 2, 2, 1, 0x80, 0x01,
            LOAD_RECORD,
            // -2 ps from the load event's 400 ps, on its track 2.
            head(EventName::DevResp, Phase::Complete), 7, 1, 0x80, 0x01,
            LOAD_RECORD,
        ];
        #[rustfmt::skip]
        let load = [
            // 400 ps from the serving chain's 0, to track 2: (800 << 1 | 0).
            head(EventName::LoadDispatch, Phase::Instant), 0xc0, 0x0c, 2, 9, 0,
            // 2^63 ps on track 2: (u64::MAX << 1 | 1), 65 bits.
            head(EventName::LoadComplete, Phase::Instant),
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03, 9, 0,
        ];
        assert_eq!(log.records, records);
        assert_eq!(log.load, load);
        assert!(log.load().eq([stream[2], stream[4]]));
        assert!(log.iter().eq(stream));
    }

    /// The byte writer reproduces the reference exporter on seeded random
    /// streams: every category and phase, every registry event name, flow
    /// names that need every kind of escape (and one longer than a
    /// stack-buffer chunk), boundary and random values, flows with and
    /// without events, and empty inputs.
    #[test]
    fn chrome_writer_matches_the_reference_exporter() {
        let long: &'static str = Box::leak("x\"\\\u{1}é".repeat(40).into_boxed_str());
        let names = ["swq.enqueue", "q\"b", "back\\slash", "\u{1}", "\u{1f}", "héllo→世界", "", long];
        let pick = |rng: &mut SimRng| match rng.below(6) {
            0 => 0,
            1 => 999_999,
            2 => 1_000_000,
            3 => u64::MAX,
            4 => rng.below(1 << 40),
            _ => rng.next_u64(),
        };
        let track = |rng: &mut SimRng| match rng.below(3) {
            0 => 0,
            1 => u32::MAX,
            _ => rng.next_u64() as u32,
        };
        let mut rng = SimRng::from_seed(0x5eed);
        let none = TraceLog::from(Vec::new());
        for round in 0..64 {
            let events = random_stream(&mut rng);
            let log = TraceLog::from(events.clone());
            let flows: Vec<FlowArrow> = (0..rng.below(6))
                .map(|_| FlowArrow {
                    id: pick(&mut rng),
                    name: names[rng.below(names.len() as u64) as usize],
                    from: Time::from_ps(pick(&mut rng)),
                    from_track: track(&mut rng),
                    to: Time::from_ps(pick(&mut rng)),
                    to_track: track(&mut rng),
                })
                .collect();
            let cases = [(&log, &events[..], &flows[..]), (&none, &[][..], &flows[..]), (&log, &events[..], &[][..])];
            for (log, evs, fls) in cases {
                let ours = chrome_json_with_flows(log, fls);
                assert_eq!(ours, reference::chrome_json_with_flows(evs, fls), "round {round}");
            }
        }
        assert_eq!(chrome_json(&none), reference::chrome_json_with_flows(&[], &[]));
    }

    /// The capacity bound, read from the log's tallies, is exact for a
    /// line of each shape at its longest values, with every registry event
    /// name, and for a flow name that escapes to six bytes per byte.
    #[test]
    fn chrome_len_bound_is_tight_at_extreme_values() {
        // The bound allows 64 bytes for the 44-byte document head and tail,
        // and a separator before the first line, which has none.
        const SLACK: usize = 64 - 44 + 2;
        for phase in [Phase::Instant, Phase::Counter, Phase::Complete] {
            for &name in EventName::ALL {
                let e = TraceEvent {
                    at: Time::from_ps(u64::MAX),
                    cat: name.category(),
                    name,
                    phase,
                    track: u32::MAX,
                    a0: u64::MAX,
                    a1: u64::MAX,
                };
                let log = TraceLog::from(vec![e, e]);
                let json = chrome_json(&log);
                // The bound counts the longest category label, `device`.
                let short_label = 2 * ("device".len() - name.category().label().len());
                assert_eq!(chrome_len_bound(&log, &[]) - json.len(), SLACK + short_label, "{phase:?} {name:?}");
            }
        }
        let f = FlowArrow {
            id: u64::MAX,
            name: "\u{1}",
            from: Time::from_ps(u64::MAX),
            from_track: u32::MAX,
            to: Time::from_ps(u64::MAX),
            to_track: u32::MAX,
        };
        let json = chrome_json_with_flows(&TraceLog::from(Vec::new()), &[f, f]);
        assert_eq!(chrome_len_bound(&TraceLog::from(Vec::new()), &[f, f]) - json.len(), SLACK);
    }

    /// `class` is wanted exactly by the enabled tracers built with it: not by
    /// a plain tracer, a tracer of the other classes or a disabled tracer.
    fn assert_class_fixed_at_construction(class: TraceClass) {
        let sim = Sim::new();
        let all = [TraceClass::Deep, TraceClass::Profile, TraceClass::Causal];
        let plain = Tracer::new(sim.now_handle(), &[]);
        assert!(plain.is_on());
        assert!(!plain.wants(class), "a plain tracer records the base stream only");
        let t = Tracer::new(sim.now_handle(), &[class]);
        for other in all {
            assert_eq!(t.wants(other), other == class, "{class:?} tracer asked for {other:?}");
        }
        assert!(t.clone().wants(class), "clones share the class set");
        let others: Vec<TraceClass> = all.into_iter().filter(|&c| c != class).collect();
        assert!(!Tracer::new(sim.now_handle(), &others).wants(class));
        let pair = [others[0], class];
        let mixed = Tracer::new(sim.now_handle(), &pair);
        assert_eq!(all.map(|c| mixed.wants(c)), all.map(|c| pair.contains(&c)));
        assert!(!Tracer::off().wants(class), "a disabled tracer records nothing");
    }

    #[test]
    fn profile_flag_is_runtime_gated() {
        assert_class_fixed_at_construction(TraceClass::Profile);
    }

    #[test]
    fn causal_flag_is_runtime_gated() {
        assert_class_fixed_at_construction(TraceClass::Causal);
    }

    /// The deep class is a runtime class like the other two; no cargo
    /// feature switches it.
    #[test]
    fn verbose_is_gated_by_feature() {
        assert_class_fixed_at_construction(TraceClass::Deep);
    }

    #[test]
    fn complete_span_uses_explicit_interval() {
        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle(), &[]);
        let start = Time::from_ps(1_000);
        let end = Time::from_ps(4_500);
        t.complete_span(EventName::RpcHop, 3, start, end, 42);
        // Inverted interval: zero-length span, never a panic or underflow.
        t.complete_span(EventName::RpcHop, 3, end, start, 43);
        let evs: Vec<TraceEvent> = t.finish().0.iter().collect();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].at, evs[0].a0, evs[0].a1), (start, 42, 3_500));
        assert_eq!((evs[0].phase, evs[0].cat), (Phase::Complete, Category::Load));
        assert_eq!((evs[1].at, evs[1].a1), (end, 0));
    }

    #[test]
    fn flow_export_extends_chrome_json_without_perturbing_it() {
        let evs = TraceLog::from(vec![ev(1, EventName::SwqEnqueue, 3)]);
        assert_eq!(chrome_json(&evs), chrome_json_with_flows(&evs, &[]));
        let flows = vec![FlowArrow {
            id: 7,
            name: "fanout",
            from: Time::from_ps(1_000_000),
            from_track: 1,
            to: Time::from_ps(3_000_000),
            to_track: 2,
        }];
        let json = chrome_json_with_flows(&evs, &flows);
        assert!(json.contains("\"ph\":\"s\",\"id\":7,\"ts\":1.000000"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":7,\"ts\":3.000000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Flows with no base events still form a valid array.
        let lone = chrome_json_with_flows(&TraceLog::from(Vec::new()), &flows);
        assert_eq!(lone.matches('{').count(), lone.matches('}').count());
        assert!(lone.contains("\"ph\":\"s\""));
    }
}
