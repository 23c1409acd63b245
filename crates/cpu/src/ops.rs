//! The micro-op vocabulary fibers emit into a core.
//!
//! Application and runtime code is lowered to a small set of ops whose
//! timing the core model understands:
//!
//! - [`OpKind::Work`] — a chunk of the dependent arithmetic "work" loop,
//!   executing at the configured work IPC (≈1.4 on the reproduced 4-wide
//!   host) once its dependencies resolve.
//! - [`OpKind::Load`] — a demand load of one dataset cache line (L1 → LFB
//!   merge → fill from the backing store).
//! - [`OpKind::Prefetch`] — a non-binding `prefetcht0`: allocates an LFB and
//!   retires immediately; the fill completes in the background.
//! - [`OpKind::Store`] — a posted store: drains via the write buffer,
//!   never blocks retirement.
//! - [`OpKind::SoftWork`] — a fixed-duration stretch of runtime software
//!   (context switches, queue management), serial with its dependencies.
//! - [`OpKind::Mmio`] — an uncached MMIO write (doorbells) with its long
//!   completion cost.

use kus_mem::LineAddr;
use kus_sim::event::EventFn;
use kus_sim::trace::EventName;
use kus_sim::Span;

/// Identifies an op within one core (monotone per core).
pub type OpId = u64;

/// What an op does; see the module docs for timing semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `insts` instructions of the dependent arithmetic work loop.
    Work {
        /// Instruction count (also the ROB occupancy).
        insts: u32,
    },
    /// A demand load of the line `line`.
    Load {
        /// The dataset line to read.
        line: LineAddr,
    },
    /// A non-binding software prefetch of `line`.
    Prefetch {
        /// The dataset line to fetch.
        line: LineAddr,
    },
    /// A posted store to `line`. Stores drain through the write buffer and
    /// never block retirement (the paper's §VII argument for why writes are
    /// the easy direction).
    Store {
        /// The dataset line written.
        line: LineAddr,
    },
    /// Runtime software occupying the core for a fixed span.
    SoftWork {
        /// Busy time.
        span: Span,
    },
    /// An uncached MMIO write completing after `cost`.
    Mmio {
        /// Completion cost.
        cost: Span,
    },
}

impl OpKind {
    /// Reorder-buffer slots this op occupies.
    pub fn slots(&self) -> u32 {
        match self {
            OpKind::Work { insts } => (*insts).max(1),
            OpKind::Load { .. }
            | OpKind::Prefetch { .. }
            | OpKind::Store { .. }
            | OpKind::Mmio { .. } => 1,
            // Runtime software is modelled by time, not instruction count;
            // charge a nominal footprint.
            OpKind::SoftWork { .. } => 4,
        }
    }
}

/// An op plus its completion hook. Its dependence edges are passed
/// alongside it, as a slice, to `Core::emit_after`.
pub struct Op {
    /// What to execute.
    pub kind: OpKind,
    /// Fired when the op completes (out of order); used to deliver load
    /// values, ring doorbells, and wake fibers.
    pub on_complete: Option<EventFn>,
    /// Cycle-accounting label for the profiler's busy span (e.g.
    /// [`EventName::CpuPoll`] for SWQ completion scans). `None` means the
    /// generic `cpu.soft` class; `Work` ops always account as `cpu.work`.
    pub profile: Option<EventName>,
}

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Op")
            .field("kind", &self.kind)
            .field("hooked", &self.on_complete.is_some())
            .finish()
    }
}

impl Op {
    /// An op with no hook.
    pub fn new(kind: OpKind) -> Op {
        Op { kind, on_complete: None, profile: None }
    }

    /// Attaches a completion hook.
    pub fn on_complete(mut self, f: impl FnOnce(&mut kus_sim::Sim) + 'static) -> Op {
        self.on_complete = Some(Box::new(f));
        self
    }

    /// Labels the op's busy span for the cycle-accounting profiler.
    pub fn profiled(mut self, name: EventName) -> Op {
        self.profile = Some(name);
        self
    }
}

/// Splits `insts` work instructions into chunk sizes of at most `chunk`.
///
/// Chunking lets the ROB fill gradually (a 5 000-instruction work body must
/// not be a single monolithic slot). Emitters chain the chunks (each chunk
/// depending on the previous) so the work loop keeps its serial IPC; see
/// `Core::emit_work`.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn work_chunks(insts: u32, chunk: u32) -> impl Iterator<Item = u32> {
    assert!(chunk > 0, "chunk must be non-zero");
    let full = insts / chunk;
    let rem = insts % chunk;
    std::iter::repeat_n(chunk, full as usize).chain((rem > 0).then_some(rem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots() {
        assert_eq!(OpKind::Work { insts: 17 }.slots(), 17);
        assert_eq!(OpKind::Work { insts: 0 }.slots(), 1);
        assert_eq!(OpKind::Load { line: LineAddr::from_index(0) }.slots(), 1);
        assert_eq!(OpKind::SoftWork { span: Span::from_ns(30) }.slots(), 4);
    }

    #[test]
    fn work_chunks_split_and_cover() {
        let chunks: Vec<u32> = work_chunks(70, 32).collect();
        assert_eq!(chunks, vec![32, 32, 6]);
        assert_eq!(work_chunks(64, 32).collect::<Vec<_>>(), vec![32, 32]);
        assert_eq!(work_chunks(5, 32).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn work_chunks_zero_is_empty() {
        assert_eq!(work_chunks(0, 32).count(), 0);
    }

    #[test]
    fn op_builder() {
        let op = Op::new(OpKind::Work { insts: 1 }).on_complete(|_| {});
        assert!(op.on_complete.is_some());
        assert_eq!(op.profile, None);
        let op = Op::new(OpKind::SoftWork { span: Span::from_ns(10) }).profiled(EventName::CpuPoll);
        assert_eq!(op.profile, Some(EventName::CpuPoll));
    }
}
