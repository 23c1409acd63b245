//! Virtual time for the simulation.
//!
//! All simulation time is kept as an integer number of **picoseconds** so that
//! arithmetic is exact and runs are bit-reproducible. Two newtypes are
//! provided: [`Time`] is an *instant* on the simulation clock, and [`Span`] is
//! a *duration*. Mixing them up is a compile error, which catches a class of
//! off-by-an-epoch bugs that plague simulators using bare integers.
//!
//! A [`Clock`] converts between core cycles and physical time for a given
//! frequency (the reproduced host is a 2.3 GHz Xeon E5-2670v3).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;

/// An instant on the virtual clock, in integer picoseconds since time zero.
///
/// # Examples
///
/// ```
/// use kus_sim::time::{Time, Span};
///
/// let t = Time::ZERO + Span::from_ns(800);
/// assert_eq!(t - Time::ZERO, Span::from_ns(800));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A duration of virtual time, in integer picoseconds.
///
/// # Examples
///
/// ```
/// use kus_sim::time::Span;
///
/// assert_eq!(Span::from_us(1), Span::from_ns(1000));
/// assert_eq!(Span::from_ns(3) * 4, Span::from_ns(12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span(u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from raw picoseconds since time zero.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Raw picoseconds since time zero.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// This instant expressed in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Span {
        Span(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Span {
    /// The empty span.
    pub const ZERO: Span = Span(0);

    /// Creates a span from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Span {
        Span(ps)
    }

    /// Creates a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Span {
        Span(ns * PS_PER_NS)
    }

    /// Creates a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Span {
        Span(us * PS_PER_US)
    }

    /// Creates a span from a floating-point nanosecond quantity, rounding to
    /// the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Span {
        assert!(ns.is_finite() && ns >= 0.0, "span must be finite and non-negative");
        Span((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This span in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// This span in fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This span in fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// True if this is the empty span.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Span) -> Span {
        Span(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Span) -> Span {
        Span(self.0.min(other.0))
    }

    /// Subtraction that stops at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: Span) -> Span {
        Span(self.0.saturating_sub(other.0))
    }
}

impl Add<Span> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Span) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Span> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub<Span> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Span) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Time) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl Add for Span {
    type Output = Span;
    #[inline]
    fn add(self, rhs: Span) -> Span {
        Span(self.0 + rhs.0)
    }
}

impl AddAssign for Span {
    #[inline]
    fn add_assign(&mut self, rhs: Span) {
        self.0 += rhs.0;
    }
}

impl Sub for Span {
    type Output = Span;
    #[inline]
    fn sub(self, rhs: Span) -> Span {
        Span(self.0 - rhs.0)
    }
}

impl SubAssign for Span {
    #[inline]
    fn sub_assign(&mut self, rhs: Span) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Span {
    type Output = Span;
    #[inline]
    fn mul(self, rhs: u64) -> Span {
        Span(self.0 * rhs)
    }
}

impl Div<u64> for Span {
    type Output = Span;
    #[inline]
    fn div(self, rhs: u64) -> Span {
        Span(self.0 / rhs)
    }
}

impl Div<Span> for Span {
    /// How many times `rhs` fits in `self` (truncated).
    type Output = u64;
    #[inline]
    fn div(self, rhs: Span) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Span {
    fn sum<I: Iterator<Item = Span>>(iter: I) -> Span {
        iter.fold(Span::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", Span(self.0))
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_US {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// Converts between processor cycles and physical time for a fixed frequency.
///
/// The reproduced host is an Intel Xeon E5-2670v3 nominally at 2.3 GHz.
///
/// # Examples
///
/// ```
/// use kus_sim::time::{Clock, Span};
///
/// let clk = Clock::from_ghz(2.0);
/// assert_eq!(clk.cycles(4), Span::from_ns(2));
/// assert_eq!(clk.cycles_in(Span::from_ns(10)), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    ps_per_cycle: u64,
}

impl Clock {
    /// The default clock of the reproduced platform: 2.3 GHz.
    pub const XEON_E5_2670V3: Clock = Clock { ps_per_cycle: 435 }; // ~2.3 GHz

    /// Creates a clock from a frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Clock {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        let ps = (1000.0 / ghz).round() as u64;
        assert!(ps > 0, "frequency too high to represent");
        Clock { ps_per_cycle: ps }
    }

    /// The period of one cycle.
    pub const fn period(self) -> Span {
        Span(self.ps_per_cycle)
    }

    /// The span of `n` cycles.
    pub const fn cycles(self, n: u64) -> Span {
        Span(self.ps_per_cycle * n)
    }

    /// How many whole cycles fit in `span`.
    pub const fn cycles_in(self, span: Span) -> u64 {
        span.0 / self.ps_per_cycle
    }

    /// Fractional cycles in `span`.
    pub fn cycles_in_f64(self, span: Span) -> f64 {
        span.0 as f64 / self.ps_per_cycle as f64
    }

    /// The span of `n` instructions executing at sustained `ipc`.
    ///
    /// Used to model the paper's dependent-arithmetic "work" loop, which is
    /// constructed to run at IPC ≈ 1.4 on the 4-wide host core.
    ///
    /// # Panics
    ///
    /// Panics if `ipc` is not strictly positive and finite.
    pub fn work(self, instructions: u64, ipc: f64) -> Span {
        assert!(ipc.is_finite() && ipc > 0.0, "ipc must be positive");
        let cycles = instructions as f64 / ipc;
        Span((cycles * self.ps_per_cycle as f64).round() as u64)
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::XEON_E5_2670V3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_constructors_agree() {
        assert_eq!(Span::from_us(3), Span::from_ns(3000));
        assert_eq!(Span::from_ns(5), Span::from_ps(5000));
        assert_eq!(Span::from_ns_f64(1.5), Span::from_ps(1500));
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ps(100);
        let b = a + Span::from_ps(50);
        assert_eq!(b.as_ps(), 150);
        assert_eq!(b - a, Span::from_ps(50));
        assert_eq!(a.saturating_since(b), Span::ZERO);
        assert_eq!(b.saturating_since(a), Span::from_ps(50));
    }

    #[test]
    fn span_arithmetic() {
        let s = Span::from_ns(10);
        assert_eq!(s * 3, Span::from_ns(30));
        assert_eq!(s / 2, Span::from_ns(5));
        assert_eq!(Span::from_ns(25) / Span::from_ns(10), 2);
        assert_eq!(s.saturating_sub(Span::from_ns(20)), Span::ZERO);
    }

    #[test]
    fn clock_cycles() {
        let clk = Clock::from_ghz(2.0); // 500 ps
        assert_eq!(clk.period(), Span::from_ps(500));
        assert_eq!(clk.cycles(3), Span::from_ps(1500));
        assert_eq!(clk.cycles_in(Span::from_ns(1)), 2);
    }

    #[test]
    fn clock_work_ipc() {
        let clk = Clock::from_ghz(1.0); // 1000 ps/cycle
        // 14 instructions at IPC 1.4 => 10 cycles => 10 ns.
        assert_eq!(clk.work(14, 1.4), Span::from_ns(10));
    }

    #[test]
    fn xeon_clock_close_to_2_3_ghz() {
        let p = Clock::XEON_E5_2670V3.period().as_ps() as f64;
        let ghz = 1000.0 / p;
        assert!((ghz - 2.3).abs() < 0.01, "got {ghz}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Span::from_ps(12).to_string(), "12ps");
        assert_eq!(Span::from_ns(12).to_string(), "12.000ns");
        assert_eq!(Span::from_us(2).to_string(), "2.000us");
        assert_eq!(Time::from_ps(1500).to_string(), "t=1.500ns");
    }

    #[test]
    fn span_sum() {
        let total: Span = [Span::from_ns(1), Span::from_ns(2)].into_iter().sum();
        assert_eq!(total, Span::from_ns(3));
    }
}
