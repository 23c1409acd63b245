//! Allocation-free event callbacks.
//!
//! A [`Callback`] is what the model's hot events and the continuations its
//! layers hand one another are made of: a plain `fn` handler, a shared
//! handle to the component it acts on, and one `u64` word. [`Sim`] keeps it
//! in its event slab as it is, beside the boxed closures of
//! [`schedule_at`](Sim::schedule_at) and the bare `fn` events of
//! [`schedule_fn_at`](Sim::schedule_fn_at), so scheduling one allocates
//! nothing. A component that carries more state across the events of one
//! operation than the word holds parks it in a [`Parked`] table and passes
//! the key.

use std::any::{type_name, Any};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::{EventFn, Sim};

/// The plain function a [`Callback`] runs: given the simulation, the
/// callback's component and its word of state.
pub type Handler = fn(&mut Sim, Rc<dyn Any>, u64);

/// An event callback that needs no allocation: a plain `fn` handler, a
/// shared handle to the component it acts on, and one `u64` word (an op
/// id, a line index, a slot key).
///
/// The model's hot events and the continuations its layers hand one
/// another are callbacks rather than boxed closures: building one only
/// clones an `Rc`, and [`Sim`] keeps it in its event slab as it is. The
/// handler gets the handle back by value and recovers its type with
/// [`component`]; the handle drops when the handler returns, so a fired
/// callback keeps nothing alive.
///
/// # Examples
///
/// ```
/// use kus_sim::callback::{component, Callback};
/// use kus_sim::{Sim, Span};
/// use std::any::Any;
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// fn bump(_: &mut Sim, this: Rc<dyn Any>, by: u64) {
///     let hits = component::<Cell<u64>>(this);
///     hits.set(hits.get() + by);
/// }
///
/// let mut sim = Sim::new();
/// let hits = Rc::new(Cell::new(0u64));
/// sim.schedule_callback_in(Span::from_ns(5), Callback::new(bump, hits.clone(), 2));
/// sim.run();
/// assert_eq!(hits.get(), 2);
/// assert_eq!(Rc::strong_count(&hits), 1, "the fired callback dropped its handle");
/// ```
pub struct Callback {
    handler: Handler,
    /// `None` for [`Callback::noop`].
    this: Option<Rc<dyn Any>>,
    arg: u64,
}

impl fmt::Debug for Callback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Callback").field("arg", &self.arg).field("noop", &self.this.is_none()).finish()
    }
}

impl Callback {
    /// A callback running `handler` on `this` with `arg`.
    #[inline]
    pub fn new<T: Any>(handler: Handler, this: Rc<T>, arg: u64) -> Callback {
        Callback { handler, this: Some(this), arg }
    }

    /// A callback that does nothing (a posted write's completion, say).
    /// It holds no handle, so it allocates nothing either.
    #[inline]
    pub fn noop() -> Callback {
        fn nothing(_: &mut Sim, _: Rc<dyn Any>, _: u64) {}
        Callback { handler: nothing, this: None, arg: 0 }
    }

    /// A callback running a closure, for tests and cold paths. Unlike
    /// [`Callback::new`] it allocates: the closure is boxed behind a handle
    /// of its own.
    pub fn boxed(f: impl FnOnce(&mut Sim) + 'static) -> Callback {
        fn run_boxed(sim: &mut Sim, this: Rc<dyn Any>, _: u64) {
            let f = component::<RefCell<Option<EventFn>>>(this).borrow_mut().take();
            if let Some(f) = f {
                f(sim);
            }
        }
        let f: EventFn = Box::new(f);
        Callback::new(run_boxed, Rc::new(RefCell::new(Some(f))), 0)
    }

    /// Runs the callback now, inside the current event.
    #[inline]
    pub fn call(self, sim: &mut Sim) {
        if let Some(this) = self.this {
            (self.handler)(sim, this, self.arg);
        }
    }
}

/// A [`Callback`]'s component as the type it was registered with.
///
/// # Panics
///
/// Panics if the component is not a `T`: the handler was paired with a
/// component of another type.
#[inline]
pub fn component<T: Any>(this: Rc<dyn Any>) -> Rc<T> {
    match this.downcast::<T>() {
        Ok(this) => this,
        Err(_) => panic!("callback component is not a {}", type_name::<T>()),
    }
}

/// State a component parks across the events of one operation, keyed by
/// the word of the callbacks in between (a device read's continuation from
/// its request to its response, say). Slots recycle through a freelist, so
/// parking allocates nothing once the table has grown to the operations in
/// flight.
///
/// # Examples
///
/// ```
/// use kus_sim::callback::Parked;
///
/// let mut inflight = Parked::new();
/// let a = inflight.park("a");
/// let b = inflight.park("b");
/// assert_eq!(inflight.take(a), "a");
/// assert_eq!(inflight.park("c"), a, "the freed slot is reused");
/// assert_eq!((*inflight.get(b), inflight.len()), ("b", 2));
/// ```
#[derive(Debug)]
pub struct Parked<T> {
    slots: Vec<Option<T>>,
    free: Vec<u64>,
}

impl<T> Default for Parked<T> {
    fn default() -> Parked<T> {
        Parked::new()
    }
}

impl<T> Parked<T> {
    /// An empty table.
    pub fn new() -> Parked<T> {
        Parked { slots: Vec::new(), free: Vec::new() }
    }

    /// Parks `value` and returns its key.
    #[inline]
    pub fn park(&mut self, value: T) -> u64 {
        match self.free.pop() {
            Some(key) => {
                self.slots[key as usize] = Some(value);
                key
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() as u64 - 1
            }
        }
    }

    /// The value parked under `key`.
    ///
    /// # Panics
    ///
    /// Panics if nothing is parked under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> &T {
        self.slots[key as usize].as_ref().expect("nothing parked under this key")
    }

    /// The value parked under `key`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if nothing is parked under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        self.slots[key as usize].as_mut().expect("nothing parked under this key")
    }

    /// Takes the value parked under `key` out, freeing the key.
    ///
    /// # Panics
    ///
    /// Panics if nothing is parked under `key`.
    #[inline]
    pub fn take(&mut self, key: u64) -> T {
        let value = self.slots[key as usize].take().expect("nothing parked under this key");
        self.free.push(key);
        value
    }

    /// Number of values parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
