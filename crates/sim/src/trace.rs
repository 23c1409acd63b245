//! Deterministic structured event tracing.
//!
//! A [`Tracer`] is a cheap clonable handle that every instrumented component
//! holds. Disabled (the default), it is a `None` and each emission costs one
//! branch; enabled, each emission only appends the event to a shared
//! in-memory buffer, which [`Tracer::take_events`] moves out at harvest.
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
//!   encoding into one FNV-1a-64, computed once at harvest, so "same
//!   behaviour" can be asserted with a single integer while
//!   [`encode`]/[`decode`] keep the full stream inspectable when a hash test
//!   fails. One writer lays out those canonical bytes for both.
//!
//! Two exporters: [`chrome_json`] renders the Chrome `trace_event` format for
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev), and [`encode`]
//! produces the compact binary log the hash is defined over.
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

use crate::time::Time;

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

/// One trace event. `name` is a static string (e.g. `"swq.enqueue"`);
/// `track` selects the timeline row (host core, fetcher, link direction…);
/// `a0`/`a1` carry event-specific arguments (tags, occupancy levels,
/// durations) per the conventions documented in DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp of the event (span start for [`Phase::Complete`]).
    pub at: Time,
    /// Emitting subsystem.
    pub cat: Category,
    /// Event name, dot-namespaced within the category.
    pub name: &'static str,
    /// Event shape.
    pub phase: Phase,
    /// Timeline row (see DESIGN.md §9 for the track-id scheme).
    pub track: u32,
    /// First argument (tag, line index, counter value…).
    pub a0: u64,
    /// Second argument (occupancy after, duration in ps for `Complete`…).
    pub a1: u64,
}

impl TraceEvent {
    /// Canonical single-line rendering, shared by the golden-trace snapshots
    /// and failure diffs. Stable: changing this format invalidates goldens.
    pub fn render(&self) -> String {
        render_line(self.at, self.cat, self.name, self.phase, self.track, self.a0, self.a1)
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Writes one event's canonical bytes, field by field, into `put`: the
/// form the content hash is defined over and the per-event record of the
/// binary log. The one writer of that layout.
fn canonical_bytes(e: &TraceEvent, mut put: impl FnMut(&[u8])) {
    put(&e.at.as_ps().to_le_bytes());
    put(&[e.cat as u8, e.phase as u8]);
    put(&e.track.to_le_bytes());
    put(&(e.name.len() as u16).to_le_bytes());
    put(e.name.as_bytes());
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
    events: RefCell<Vec<TraceEvent>>,
    /// The enabled [`TraceClass`]es, one bit each.
    classes: u8,
}

/// Handle to the (possibly disabled) trace sink. Clone freely: all clones
/// share one buffer. `Tracer::default()` is the disabled tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(off)"),
            Some(i) => write!(f, "Tracer(on, {} events)", i.events.borrow().len()),
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
        let inner = TracerInner { clock, events: RefCell::new(Vec::new()), classes };
        Tracer { inner: Some(Rc::new(inner)) }
    }

    /// Whether events are being recorded.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `class` is recorded: the one question every gated emit site
    /// asks. Always false for a disabled tracer.
    pub fn wants(&self, class: TraceClass) -> bool {
        self.inner.as_ref().is_some_and(|i| i.classes & class as u8 != 0)
    }

    /// Records one event at the current simulated time. No-op when disabled.
    pub fn emit(&self, cat: Category, name: &'static str, phase: Phase, track: u32, a0: u64, a1: u64) {
        let Some(inner) = &self.inner else { return };
        let at = inner.clock.get();
        inner.events.borrow_mut().push(TraceEvent { at, cat, name, phase, track, a0, a1 });
    }

    /// Emits an [`Phase::Instant`] event.
    pub fn instant(&self, cat: Category, name: &'static str, track: u32, a0: u64, a1: u64) {
        self.emit(cat, name, Phase::Instant, track, a0, a1);
    }

    /// Emits a [`Phase::Counter`] sample of `value`.
    pub fn counter(&self, cat: Category, name: &'static str, track: u32, value: u64) {
        self.emit(cat, name, Phase::Counter, track, value, 0);
    }

    /// Emits a [`Phase::Complete`] span that started at `start` and ends now.
    /// The duration lands in `a1` (picoseconds).
    pub fn complete_since(&self, cat: Category, name: &'static str, track: u32, start: Time, a0: u64) {
        let Some(inner) = &self.inner else { return };
        let dur = (inner.clock.get() - start).as_ps();
        let e = TraceEvent { at: start, cat, name, phase: Phase::Complete, track, a0, a1: dur };
        inner.events.borrow_mut().push(e);
    }

    /// Emits a [`Phase::Complete`] span over an explicit `[start, end]`
    /// interval, independent of the current clock. Needed by spans whose end
    /// is not "now" at emission time: a child completion recorded from a
    /// device callback, or an egress span that extends past the emitting
    /// instant. `end` earlier than `start` records a zero-length span.
    pub fn complete_span(&self, cat: Category, name: &'static str, track: u32, start: Time, end: Time, a0: u64) {
        let Some(inner) = &self.inner else { return };
        let dur = if end > start { (end - start).as_ps() } else { 0 };
        let e = TraceEvent { at: start, cat, name, phase: Phase::Complete, track, a0, a1: dur };
        inner.events.borrow_mut().push(e);
    }

    /// Moves the recorded events out, in emission order, leaving the buffer
    /// empty (always empty for a disabled tracer). The harvest calls it
    /// once, so the stream is never copied.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.events.take())
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

/// Renders events as Chrome `trace_event` JSON (the "JSON array format"),
/// loadable in `chrome://tracing` and Perfetto. Deterministic: the same
/// event stream yields byte-identical output.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    chrome_json_with_flows(events, &[])
}

/// [`chrome_json`] plus causal [`FlowArrow`]s appended as flow-event pairs.
/// With an empty `flows` slice the output is byte-identical to
/// [`chrome_json`].
pub fn chrome_json_with_flows(events: &[TraceEvent], flows: &[FlowArrow]) -> String {
    // A large zeroed allocation is mapped lazily, so the part of the
    // worst-case buffer that the writer never reaches costs address space
    // only.
    let mut doc = vec![0; chrome_len_bound(events, flows)];
    let mut w = ChromeWriter { buf: &mut doc, len: 0 };
    w.put(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            w.put(b",\n");
        }
        w.event(e);
    }
    for (i, f) in flows.iter().enumerate() {
        if !events.is_empty() || i > 0 {
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
/// shape, with every name byte escaped to six.
fn chrome_len_bound(events: &[TraceEvent], flows: &[FlowArrow]) -> usize {
    let events: usize = events
        .iter()
        .map(|e| match e.phase {
            Phase::Instant => MAX_INSTANT_LINE + 6 * e.name.len(),
            Phase::Counter => MAX_COUNTER_LINE + 12 * e.name.len(),
            Phase::Complete => MAX_COMPLETE_LINE + 6 * e.name.len(),
        })
        .sum();
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

    /// A name as the body of a JSON string, escaped byte by byte: `"` and
    /// `\` get a backslash, other control bytes a `\u00XX` escape. Every
    /// byte that needs escaping is ASCII, so the bytes of a multi-byte
    /// character pass through unchanged.
    fn name(&mut self, name: &str) {
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
        self.name(e.name);
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
                self.name(e.name);
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
        self.name(f.name);
        self.put(b"\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":");
        self.uint(f.id);
        self.put(b",\"ts\":");
        self.micros(f.from.as_ps());
        self.put(b",\"pid\":0,\"tid\":");
        self.uint(u64::from(f.from_track));
        self.put(b"},\n{\"name\":\"");
        self.name(f.name);
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

    fn ev(at_ns: u64, name: &'static str, a0: u64) -> TraceEvent {
        TraceEvent {
            at: Time::ZERO + Span::from_ns(at_ns),
            cat: Category::Swq,
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
        t.instant(Category::Sim, "x", 0, 1, 2);
        assert!(!t.is_on());
        assert!(t.take_events().is_empty());
        assert_eq!(hash_events(&[]), FNV_OFFSET);
    }

    #[test]
    fn tracer_timestamps_from_sim_clock() {
        let mut sim = Sim::new();
        let t = Tracer::new(sim.now_handle(), &[]);
        let t2 = t.clone();
        sim.schedule_in(Span::from_ns(42), move |_| t2.instant(Category::Mem, "probe", 3, 7, 9));
        sim.run();
        let evs = t.take_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at.as_ns(), 42);
        assert_eq!((evs[0].track, evs[0].a0, evs[0].a1), (3, 7, 9));
    }

    #[test]
    fn hash_matches_recomputation_and_is_order_sensitive() {
        let a = vec![ev(1, "a", 1), ev(2, "b", 2)];
        let b = vec![ev(2, "b", 2), ev(1, "a", 1)];
        assert_ne!(hash_events(&a), hash_events(&b));
        // The hash is defined over exactly the records the binary log holds.
        assert_eq!(hash_events(&a), fnv1a(FNV_OFFSET, &encode(&a)[16..]));

        let sim = Sim::new();
        let t = Tracer::new(sim.now_handle(), &[]);
        t.instant(Category::Swq, "a", 0, 1, 0);
        t.instant(Category::Swq, "b", 0, 2, 0);
        let evs = t.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(hash_events(&evs), hash_events(&[ev(0, "a", 1), ev(0, "b", 2)]));
        assert!(t.take_events().is_empty(), "taking the events moves them out");
    }

    #[test]
    fn binary_roundtrip_preserves_events() {
        let evs = vec![ev(5, "swq.enqueue", 17), ev(9, "swq.deliver", 17)];
        let bytes = encode(&evs);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.len(), 2);
        for (d, e) in decoded.iter().zip(&evs) {
            assert_eq!(d.render(), e.render());
            assert_eq!((d.at, d.cat, d.phase, d.track, d.a0, d.a1), (e.at, e.cat, e.phase, e.track, e.a0, e.a1));
            assert_eq!(d.name, e.name);
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let evs = vec![ev(5, "x", 1)];
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
            ev(1, "swq.enqueue", 3),
            TraceEvent {
                at: Time::from_ps(1_500_000),
                cat: Category::Device,
                name: "dev.resp",
                phase: Phase::Complete,
                track: 200,
                a0: 4,
                a1: 2_000_000,
            },
            TraceEvent {
                at: Time::from_ps(2_000_000),
                cat: Category::Mem,
                name: "lfb.occ",
                phase: Phase::Counter,
                track: 0,
                a0: 6,
                a1: 0,
            },
        ];
        let json = chrome_json(&evs);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":2.000000"));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check, no JSON dep).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);

        // Names are escaped in place: quote, backslash, control character.
        let odd = [ev(3, "q\"b\\c\u{1}", 5)];
        let flows = [FlowArrow {
            id: 1,
            name: "f\"\\\u{1}",
            from: Time::ZERO,
            from_track: 0,
            to: Time::from_ps(1),
            to_track: 1,
        }];
        let json = chrome_json_with_flows(&odd, &flows);
        assert!(json.contains(r#"{"name":"q\"b\\c\u0001","cat":"swq","ph":"i""#), "{json}");
        assert!(json.contains(r#"{"name":"f\"\\\u0001","cat":"causal","ph":"s""#), "{json}");
        assert!(json.contains(r#"{"name":"f\"\\\u0001","cat":"causal","ph":"f""#), "{json}");
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
                let name = JsonStr(e.name);
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

    /// The byte writer reproduces the reference exporter on seeded random
    /// streams: every category and phase, names that need every kind of
    /// escape (and one longer than a stack-buffer chunk), boundary and
    /// random values, flows with and without events, and empty inputs.
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
        for round in 0..64 {
            let mut events = Vec::new();
            // Every category and phase once per round, then random ones.
            for i in 0..9 * 3 + rng.below(40) as usize {
                let (cat, phase) = if i < 27 {
                    (i as u8 / 3, i as u8 % 3)
                } else {
                    (rng.below(9) as u8, rng.below(3) as u8)
                };
                events.push(TraceEvent {
                    at: Time::from_ps(pick(&mut rng)),
                    cat: Category::from_u8(cat).expect("a category"),
                    name: names[rng.below(names.len() as u64) as usize],
                    phase: Phase::from_u8(phase).expect("a phase"),
                    track: track(&mut rng),
                    a0: pick(&mut rng),
                    a1: pick(&mut rng),
                });
            }
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
            let cases = [(&events[..], &flows[..]), (&[][..], &flows[..]), (&events[..], &[][..])];
            for (evs, fls) in cases {
                let ours = chrome_json_with_flows(evs, fls);
                assert_eq!(ours, reference::chrome_json_with_flows(evs, fls), "round {round}");
            }
        }
        assert_eq!(chrome_json(&[]), reference::chrome_json_with_flows(&[], &[]));
    }

    /// The capacity bound is exact for a line of each shape at its longest
    /// values and a name that escapes to six bytes per byte.
    #[test]
    fn chrome_len_bound_is_tight_at_extreme_values() {
        // The bound allows 64 bytes for the 44-byte document head and tail,
        // and a separator before the first line, which has none.
        const SLACK: usize = 64 - 44 + 2;
        for phase in [Phase::Instant, Phase::Counter, Phase::Complete] {
            let e = TraceEvent {
                at: Time::from_ps(u64::MAX),
                cat: Category::Device,
                name: "\u{1}",
                phase,
                track: u32::MAX,
                a0: u64::MAX,
                a1: u64::MAX,
            };
            let json = chrome_json(&[e, e]);
            assert_eq!(chrome_len_bound(&[e, e], &[]) - json.len(), SLACK, "{phase:?}");
        }
        let f = FlowArrow {
            id: u64::MAX,
            name: "\u{1}",
            from: Time::from_ps(u64::MAX),
            from_track: u32::MAX,
            to: Time::from_ps(u64::MAX),
            to_track: u32::MAX,
        };
        let json = chrome_json_with_flows(&[], &[f, f]);
        assert_eq!(chrome_len_bound(&[], &[f, f]) - json.len(), SLACK);
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
        t.complete_span(Category::Load, "rpc.hop", 3, start, end, 42);
        // Inverted interval: zero-length span, never a panic or underflow.
        t.complete_span(Category::Load, "rpc.hop", 3, end, start, 43);
        let evs = t.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].at, evs[0].a0, evs[0].a1), (start, 42, 3_500));
        assert_eq!(evs[0].phase, Phase::Complete);
        assert_eq!((evs[1].at, evs[1].a1), (end, 0));
    }

    #[test]
    fn flow_export_extends_chrome_json_without_perturbing_it() {
        let evs = vec![ev(1, "swq.enqueue", 3)];
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
        let lone = chrome_json_with_flows(&[], &flows);
        assert_eq!(lone.matches('{').count(), lone.matches('}').count());
        assert!(lone.contains("\"ph\":\"s\""));
    }
}
