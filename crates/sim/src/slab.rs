//! Slab-allocated event payload storage with freelist recycling.
//!
//! Every scheduled event's payload lives in one [`EventSlab`] slot; its
//! routing key (deadline + tie-breaking sequence number) travels separately
//! through the timing wheel's buckets as a compact [`Ready`] entry, so the
//! wheel never touches payload memory until the moment of dispatch. Slots
//! are recycled through a freelist, so steady-state scheduling performs
//! **no allocation at all** for the fixed payload variants and exactly one
//! `Box` for the general closure escape hatch — never a queue-node
//! allocation.
//!
//! Safety of recycling is enforced structurally rather than with `unsafe`:
//! a slot is `Option`al, [`EventSlab::take`] moves the payload out and
//! returns the slot to the freelist in the same call, and a freshly handed
//! out slot is asserted vacant. The property tests in `event.rs`
//! additionally drive random schedule/fire/recycle interleavings against
//! these invariants.

use crate::callback::Callback;
use crate::event::{EventFn, Sim};

/// Index of an event slot inside an [`EventSlab`]. `u32` keeps wheel
/// entries and the freelist at half the size of a pointer; four billion
/// *pending* events is far beyond any simulated scenario (total events are
/// unbounded — slots recycle).
pub(crate) type EventId = u32;

/// What runs when an event fires.
///
/// A [`Callback`] or a bare `fn` pointer is the fast path: scheduling one
/// allocates nothing. [`Payload::Boxed`] is the escape hatch for arbitrary
/// capturing closures (note that boxing a zero-capture closure also does not
/// allocate — `Box` of a zero-sized value is free).
pub(crate) enum Payload {
    /// A `fn` handler with its component and one word.
    Callback(Callback),
    /// General boxed closure.
    Boxed(EventFn),
    /// Function pointer plus one word of threaded state.
    FnArg(fn(&mut Sim, u64), u64),
}

/// A pending event as the wheel routes it: the exact `(at, seq)` dispatch
/// key next to the slab slot holding the payload. Wheel buckets and the
/// driver's ready run are flat arrays of these, so bucket cascades and
/// batch sorting stream 24-byte records without touching payloads.
#[derive(Clone, Copy)]
pub(crate) struct Ready {
    /// Exact deadline, in raw picoseconds.
    pub at: u64,
    /// Same-instant tie-breaker.
    pub seq: u64,
    /// Slab slot holding the payload.
    pub id: EventId,
}

/// Arena of event payload slots with a freelist.
pub(crate) struct EventSlab {
    /// `Some` while the event is live (scheduled, or staged in the current
    /// ready run); `None` while the slot is free.
    slots: Vec<Option<Payload>>,
    /// Free slot ids, popped in LIFO order to keep the hot set small.
    free: Vec<EventId>,
    live: usize,
}

impl EventSlab {
    pub(crate) fn with_capacity(cap: usize) -> EventSlab {
        EventSlab { slots: Vec::with_capacity(cap), free: Vec::new(), live: 0 }
    }

    /// Number of live (scheduled or staged-for-dispatch) events.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + recycled). Capacity telemetry for
    /// the benchmarks; results never depend on it.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a slot for a new event, recycling a free one if available.
    #[inline]
    pub(crate) fn insert(&mut self, payload: Payload) -> EventId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            let slot = &mut self.slots[id as usize];
            debug_assert!(slot.is_none(), "freelist handed out a live slot");
            *slot = Some(payload);
            return id;
        }
        let id = self.slots.len();
        assert!(id < u32::MAX as usize, "event slab exhausted u32 ids");
        self.slots.push(Some(payload));
        id as EventId
    }

    /// Moves the payload out and returns the slot to the freelist. The event
    /// is gone after this; the id may be handed out again by `insert`.
    #[inline]
    pub(crate) fn take(&mut self, id: EventId) -> Payload {
        let payload = self.slots[id as usize].take().expect("fired an event twice (slab aliasing)");
        self.free.push(id);
        self.live -= 1;
        payload
    }
}
