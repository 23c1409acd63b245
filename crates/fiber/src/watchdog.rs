//! Stall watchdog: graceful degradation of the doorbell protocol.
//!
//! The software-managed-queue fast path relies on the device's
//! doorbell-request flag to skip MMIO doorbells. If the fetcher's parking
//! flag write is lost, the host believes no doorbell is needed and the
//! queue wedges. The [`Watchdog`] tracks request-level progress: when
//! timeouts fire it degrades to *doorbell-always* mode (every enqueue
//! rings, so a wedged fetcher always restarts), and once completions have
//! flowed cleanly for a quiet period it restores the optimized mode.
//!
//! The watchdog is pure state — the executor feeds it stall/progress
//! events in simulated time and applies its mode to the queue pair — so it
//! is deterministic and trivially testable.

use kus_sim::stats::Counter;
use kus_sim::trace::EventName;
use kus_sim::{Span, Time, Tracer};

/// Doorbell operating mode chosen by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorbellMode {
    /// Fast path: ring only when the device requests it.
    Optimized,
    /// Degraded: ring on every enqueue until the queue proves healthy.
    Degraded,
}

/// Tracks SWQ health and decides the doorbell mode.
///
/// # Examples
///
/// ```
/// use kus_fiber::watchdog::{DoorbellMode, Watchdog};
/// use kus_sim::{Span, Time};
///
/// let mut w = Watchdog::new(Span::from_us(100));
/// let t = |us| Time::ZERO + Span::from_us(us);
/// assert!(w.on_stall(t(10)), "first stall degrades");
/// assert!(!w.on_stall(t(11)), "already degraded");
/// assert!(!w.on_progress(t(50)), "quiet period not over");
/// assert!(w.on_progress(t(200)), "healthy again: restore");
/// assert_eq!(w.mode(), DoorbellMode::Optimized);
/// ```
#[derive(Debug)]
pub struct Watchdog {
    mode: DoorbellMode,
    quiet_period: Span,
    /// Last time a stall was observed (start of the health probation).
    last_stall: Time,
    /// Times the watchdog fell back to doorbell-always mode.
    pub degradations: Counter,
    /// Times the optimized mode was restored after a quiet period.
    pub restorations: Counter,
    tracer: Tracer,
    track: u32,
}

impl Watchdog {
    /// Creates a watchdog that restores the optimized mode after
    /// `quiet_period` of stall-free progress.
    pub fn new(quiet_period: Span) -> Watchdog {
        Watchdog {
            mode: DoorbellMode::Optimized,
            quiet_period,
            last_stall: Time::ZERO,
            degradations: Counter::default(),
            restorations: Counter::default(),
            tracer: Tracer::off(),
            track: 0,
        }
    }

    /// Attaches a tracer; `track` is the timeline row (the owning core id).
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Current mode.
    pub fn mode(&self) -> DoorbellMode {
        self.mode
    }

    /// True while degraded to doorbell-always.
    pub fn is_degraded(&self) -> bool {
        self.mode == DoorbellMode::Degraded
    }

    /// Reports a detected stall (a request timed out). Returns `true` only
    /// on the transition into degraded mode, so the caller applies the
    /// queue-pair change exactly once.
    pub fn on_stall(&mut self, now: Time) -> bool {
        self.last_stall = now;
        if self.mode == DoorbellMode::Degraded {
            return false;
        }
        self.mode = DoorbellMode::Degraded;
        self.degradations.incr();
        self.tracer.instant(EventName::WatchdogDegrade, self.track, self.degradations.get(), 0);
        true
    }

    /// Reports healthy progress (a completion arrived in time). Returns
    /// `true` only on the transition back to optimized mode, after a full
    /// quiet period without stalls.
    pub fn on_progress(&mut self, now: Time) -> bool {
        if self.mode == DoorbellMode::Optimized {
            return false;
        }
        if now.saturating_since(self.last_stall) < self.quiet_period {
            return false;
        }
        self.mode = DoorbellMode::Optimized;
        self.restorations.incr();
        self.tracer.instant(EventName::WatchdogRestore, self.track, self.restorations.get(), 0);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::ZERO + Span::from_us(us)
    }

    #[test]
    fn starts_optimized() {
        let w = Watchdog::new(Span::from_us(10));
        assert_eq!(w.mode(), DoorbellMode::Optimized);
        assert!(!w.is_degraded());
    }

    #[test]
    fn degrades_once_per_episode() {
        let mut w = Watchdog::new(Span::from_us(10));
        assert!(w.on_stall(t(1)));
        assert!(!w.on_stall(t(2)));
        assert!(!w.on_stall(t(3)));
        assert_eq!(w.degradations.get(), 1);
        assert!(w.is_degraded());
    }

    #[test]
    fn repeated_stalls_extend_probation() {
        let mut w = Watchdog::new(Span::from_us(10));
        w.on_stall(t(0));
        w.on_stall(t(8));
        // 10us after the *latest* stall, not the first.
        assert!(!w.on_progress(t(12)));
        assert!(w.on_progress(t(18)));
        assert_eq!(w.restorations.get(), 1);
    }

    #[test]
    fn progress_without_stall_is_a_no_op() {
        let mut w = Watchdog::new(Span::from_us(10));
        assert!(!w.on_progress(t(100)));
        assert_eq!(w.restorations.get(), 0);
    }

    #[test]
    fn full_cycle_counts_both_transitions() {
        let mut w = Watchdog::new(Span::from_us(10));
        for episode in 0..3u64 {
            let base = episode * 100;
            assert!(w.on_stall(t(base + 1)));
            assert!(w.on_progress(t(base + 50)));
        }
        assert_eq!(w.degradations.get(), 3);
        assert_eq!(w.restorations.get(), 3);
    }
}
