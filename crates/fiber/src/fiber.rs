//! Fibers: ultra-light user-level threads as polled futures.
//!
//! The paper's support software replaces kernel threads with cooperative
//! user-level threads whose context switch costs 20–50 ns. In this
//! reproduction a fiber's *logic* is a Rust `async` state machine (so
//! pointer-chasing application code reads naturally), while its *timing* is
//! charged by the execution layer that polls it.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Identifies a fiber within one executor (dense, starting at zero).
pub type FiberId = usize;

/// Why a fiber returned from a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// The fiber finished.
    Done,
    /// The fiber cooperatively yielded (still runnable).
    Yielded,
    /// The fiber is blocked waiting for a value or event.
    Blocked,
}

/// A fiber: an id, its future, and its cooperative-yield flag.
pub struct Fiber {
    id: FiberId,
    future: Pin<Box<dyn Future<Output = ()>>>,
    yield_flag: YieldFlag,
    done: bool,
}

impl std::fmt::Debug for Fiber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fiber").field("id", &self.id).field("done", &self.done).finish()
    }
}

impl Fiber {
    /// Wraps `future` as fiber `id`. The `yield_flag` must be the same cell
    /// the future's [`yield_now`](crate::primitives::yield_now) uses.
    pub fn new(id: FiberId, yield_flag: YieldFlag, future: impl Future<Output = ()> + 'static) -> Fiber {
        Fiber { id, future: Box::pin(future), yield_flag, done: false }
    }

    /// This fiber's id.
    pub fn id(&self) -> FiberId {
        self.id
    }

    /// Whether the fiber has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Polls the fiber once.
    ///
    /// # Panics
    ///
    /// Panics if the fiber already finished.
    pub fn poll(&mut self) -> PollOutcome {
        assert!(!self.done, "polling a finished fiber");
        self.yield_flag.clear();
        // The executor decides readiness from simulation events, never
        // from `Waker::wake`.
        let mut cx = Context::from_waker(Waker::noop());
        match self.future.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                self.done = true;
                PollOutcome::Done
            }
            Poll::Pending => {
                if self.yield_flag.take() {
                    PollOutcome::Yielded
                } else {
                    PollOutcome::Blocked
                }
            }
        }
    }
}

/// The cooperative-yield flag shared between a fiber and its futures.
#[derive(Debug, Clone, Default)]
pub struct YieldFlag(std::rc::Rc<std::cell::Cell<bool>>);

impl YieldFlag {
    /// Creates a cleared flag.
    pub fn new() -> YieldFlag {
        YieldFlag::default()
    }

    /// Marks that the pending return is a cooperative yield.
    pub fn set(&self) {
        self.0.set(true);
    }

    fn clear(&self) {
        self.0.set(false);
    }

    fn take(&self) -> bool {
        self.0.replace(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{yield_now, OneShot};

    #[test]
    fn fiber_runs_to_completion() {
        let mut f = Fiber::new(0, YieldFlag::new(), async {});
        assert_eq!(f.poll(), PollOutcome::Done);
        assert!(f.is_done());
    }

    #[test]
    fn yield_reports_yielded_then_done() {
        let flag = YieldFlag::new();
        let mut f = Fiber::new(1, flag.clone(), {
            let flag = flag.clone();
            async move {
                yield_now(&flag).await;
                yield_now(&flag).await;
            }
        });
        assert_eq!(f.poll(), PollOutcome::Yielded);
        assert_eq!(f.poll(), PollOutcome::Yielded);
        assert_eq!(f.poll(), PollOutcome::Done);
    }

    #[test]
    fn blocked_until_value_set() {
        let (slot, fut) = OneShot::<u32>::new();
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let g = got.clone();
        let mut f = Fiber::new(2, YieldFlag::new(), async move {
            g.set(fut.await);
        });
        assert_eq!(f.poll(), PollOutcome::Blocked);
        assert_eq!(f.poll(), PollOutcome::Blocked);
        slot.set(42);
        assert_eq!(f.poll(), PollOutcome::Done);
        assert_eq!(got.get(), 42);
    }

    #[test]
    #[should_panic(expected = "polling a finished fiber")]
    fn polling_done_fiber_panics() {
        let mut f = Fiber::new(0, YieldFlag::new(), async {});
        let _ = f.poll();
        let _ = f.poll();
    }
}
