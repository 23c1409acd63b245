//! Per-core cycle accounting: classify every picosecond of simulated core
//! time into one of six classes.
//!
//! The raw material is the `Category::Cpu` span events the instrumented
//! layers emit when profiling is on (`TraceClass::Profile`): `cpu.ctx`
//! (context-switch overhead), `cpu.poll` (SWQ completion polling),
//! `cpu.work`/`cpu.soft` (retired compute), `cpu.lfbwait` (a memory op
//! stalled because all line-fill buffers were in use) and `cpu.park` (the
//! executor idled the core waiting for an outstanding access). Those spans
//! overlap freely — a parked core can still have a `Work` op draining in
//! the ROB — so the classifier sweeps the elementary intervals between all
//! span boundaries and assigns each interval to the highest-priority class
//! covering it ("exposed time" semantics, see DESIGN.md §8e). Time covered
//! by no span is `idle`. Because every elementary interval lands in exactly
//! one class, the per-core totals sum to the measured window *exactly* — an
//! invariant `ProfileReport::build` asserts.

use kus_sim::time::{Span, Time};
use kus_sim::trace::{Category, EventName, Phase, TraceEvent};

/// The six accounting classes, in **priority order**: when span classes
/// overlap, the earlier class claims the interval.
pub const CLASS_NAMES: [&str; 6] =
    ["ctx_switch", "swq_poll", "compute", "stall_lfb_full", "blocked_load", "idle"];

pub(crate) const CLASS_CTX: usize = 0;
pub(crate) const CLASS_POLL: usize = 1;
pub(crate) const CLASS_COMPUTE: usize = 2;
pub(crate) const CLASS_LFB: usize = 3;
pub(crate) const CLASS_BLOCKED: usize = 4;
pub(crate) const CLASS_IDLE: usize = 5;

/// Where one core's window went, one field per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreAccount {
    /// Paying the fiber switch cost (`cpu.ctx`).
    pub ctx_switch: Span,
    /// Scanning the SWQ completion ring (`cpu.poll`).
    pub swq_poll: Span,
    /// Retiring instructions, host-side software work, MMIO (`cpu.work`, `cpu.soft`).
    pub compute: Span,
    /// A memory op held back because every line-fill buffer was busy (`cpu.lfbwait`).
    pub stall_lfb_full: Span,
    /// The executor parked the core on an outstanding access (`cpu.park`).
    pub blocked_load: Span,
    /// Covered by no span at all: no runnable fiber, nothing in flight.
    pub idle: Span,
}

impl CoreAccount {
    /// The classes in priority order, paired with their names.
    pub fn classes(&self) -> [(&'static str, Span); 6] {
        [
            (CLASS_NAMES[0], self.ctx_switch),
            (CLASS_NAMES[1], self.swq_poll),
            (CLASS_NAMES[2], self.compute),
            (CLASS_NAMES[3], self.stall_lfb_full),
            (CLASS_NAMES[4], self.blocked_load),
            (CLASS_NAMES[5], self.idle),
        ]
    }

    /// Total classified time; must equal the measured window exactly.
    pub fn classified(&self) -> Span {
        self.classes().iter().fold(Span::ZERO, |a, &(_, s)| a + s)
    }

    fn add(&mut self, class: usize, dur: Span) {
        match class {
            CLASS_CTX => self.ctx_switch += dur,
            CLASS_POLL => self.swq_poll += dur,
            CLASS_COMPUTE => self.compute += dur,
            CLASS_LFB => self.stall_lfb_full += dur,
            CLASS_BLOCKED => self.blocked_load += dur,
            _ => self.idle += dur,
        }
    }

    pub(crate) fn accumulate(&mut self, other: &CoreAccount) {
        self.ctx_switch += other.ctx_switch;
        self.swq_poll += other.swq_poll;
        self.compute += other.compute;
        self.stall_lfb_full += other.stall_lfb_full;
        self.blocked_load += other.blocked_load;
        self.idle += other.idle;
    }
}

/// One core's classified timeline: the account plus the non-overlapping,
/// window-covering class segments the flamegraph exporter renders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreTimeline {
    /// Core id (== trace track).
    pub track: u32,
    pub account: CoreAccount,
    /// `(start_ps, end_ps, class index into CLASS_NAMES)`; adjacent
    /// same-class segments are pre-merged.
    pub segments: Vec<(u64, u64, usize)>,
}

/// Classifies `events` into one timeline per core over `[window.0, window.1)`.
/// Spans are clamped to the window; events on tracks `>= cores` are ignored.
pub(crate) fn classify(events: &[TraceEvent], cores: usize, window: (Time, Time)) -> Vec<CoreTimeline> {
    let w0 = window.0.as_ps();
    let w1 = window.1.as_ps().max(w0);
    let mut spans: Vec<[Vec<(u64, u64)>; 5]> = (0..cores).map(|_| Default::default()).collect();
    for e in events {
        if e.cat != Category::Cpu || !matches!(e.phase, Phase::Complete) {
            continue;
        }
        let class = match e.name {
            EventName::CpuCtx => CLASS_CTX,
            EventName::CpuPoll => CLASS_POLL,
            EventName::CpuWork | EventName::CpuSoft => CLASS_COMPUTE,
            EventName::CpuLfbWait => CLASS_LFB,
            EventName::CpuPark => CLASS_BLOCKED,
            _ => continue,
        };
        let Some(by_class) = spans.get_mut(e.track as usize) else { continue };
        let s = e.at.as_ps().clamp(w0, w1);
        let n = (e.at.as_ps() + e.a1).clamp(w0, w1);
        if n > s {
            by_class[class].push((s, n));
        }
    }
    spans
        .into_iter()
        .enumerate()
        .map(|(track, mut by_class)| {
            for c in by_class.iter_mut() {
                *c = union(std::mem::take(c));
            }
            // Elementary-interval sweep: between consecutive boundaries no
            // span starts or ends, so coverage is constant and the interval
            // belongs wholly to its highest-priority covering class.
            let mut bounds: Vec<u64> = vec![w0, w1];
            for c in &by_class {
                for &(s, n) in c {
                    bounds.push(s);
                    bounds.push(n);
                }
            }
            bounds.sort_unstable();
            bounds.dedup();
            let mut account = CoreAccount::default();
            let mut segments: Vec<(u64, u64, usize)> = Vec::new();
            for w in bounds.windows(2) {
                let (a, b) = (w[0], w[1]);
                let class = (0..5).find(|&c| covers(&by_class[c], a)).unwrap_or(CLASS_IDLE);
                account.add(class, Span::from_ps(b - a));
                match segments.last_mut() {
                    Some(last) if last.2 == class && last.1 == a => last.1 = b,
                    _ => segments.push((a, b, class)),
                }
            }
            CoreTimeline { track: track as u32, account, segments }
        })
        .collect()
}

/// Sorts and merges overlapping/adjacent intervals into a disjoint set.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, n) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(n),
            _ => merged.push((s, n)),
        }
    }
    merged
}

/// Whether the disjoint sorted set covers the point `at`.
fn covers(merged: &[(u64, u64)], at: u64) -> bool {
    match merged.partition_point(|&(s, _)| s <= at) {
        0 => false,
        i => merged[i - 1].1 > at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_ev(name: EventName, track: u32, start_ps: u64, dur_ps: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(start_ps),
            cat: Category::Cpu,
            name,
            phase: Phase::Complete,
            track,
            a0: 0,
            a1: dur_ps,
        }
    }

    fn window(end_ps: u64) -> (Time, Time) {
        (Time::ZERO, Time::from_ps(end_ps))
    }

    #[test]
    fn empty_stream_is_all_idle() {
        let tl = classify(&[], 2, window(1000));
        assert_eq!(tl.len(), 2);
        for t in &tl {
            assert_eq!(t.account.idle, Span::from_ps(1000));
            assert_eq!(t.account.classified(), Span::from_ps(1000));
            assert_eq!(t.segments, vec![(0, 1000, CLASS_IDLE)]);
        }
    }

    #[test]
    fn priority_resolves_overlap() {
        // A park [0,1000) overlapped by a work span [200,500): compute wins
        // the overlap, the park keeps the exposed remainder.
        let evs = vec![span_ev(EventName::CpuPark, 0, 0, 1000), span_ev(EventName::CpuWork, 0, 200, 300)];
        let tl = classify(&evs, 1, window(1000));
        let a = tl[0].account;
        assert_eq!(a.compute, Span::from_ps(300));
        assert_eq!(a.blocked_load, Span::from_ps(700));
        assert_eq!(a.idle, Span::ZERO);
        assert_eq!(a.classified(), Span::from_ps(1000));
        assert_eq!(
            tl[0].segments,
            vec![
                (0, 200, CLASS_BLOCKED),
                (200, 500, CLASS_COMPUTE),
                (500, 1000, CLASS_BLOCKED)
            ]
        );
    }

    #[test]
    fn spans_clamp_to_window_and_sum_exactly() {
        // Span starts before the window and ends after it; overlapping work
        // spans within one class union rather than double-count.
        let evs = vec![
            span_ev(EventName::CpuWork, 0, 0, 400),
            span_ev(EventName::CpuWork, 0, 300, 500),
            span_ev(EventName::CpuCtx, 0, 700, 600),
        ];
        let w = (Time::from_ps(100), Time::from_ps(900));
        let tl = classify(&evs, 1, w);
        let a = tl[0].account;
        // Work union is [100,800) clamped, but the clamped ctx span [700,900)
        // outranks it, so compute keeps only the exposed [100,700).
        assert_eq!(a.compute, Span::from_ps(600));
        assert_eq!(a.ctx_switch, Span::from_ps(200));
        assert_eq!(a.idle, Span::ZERO);
        assert_eq!(a.classified(), Span::from_ps(800));
    }

    #[test]
    fn tracks_outside_core_range_are_ignored() {
        let evs = vec![span_ev(EventName::CpuWork, 7, 0, 100)];
        let tl = classify(&evs, 1, window(100));
        assert_eq!(tl[0].account.compute, Span::ZERO);
        assert_eq!(tl[0].account.idle, Span::from_ps(100));
    }

    #[test]
    fn segments_tile_the_window() {
        let evs = vec![
            span_ev(EventName::CpuPoll, 1, 100, 50),
            span_ev(EventName::CpuSoft, 1, 150, 100),
            span_ev(EventName::CpuLfbWait, 1, 400, 100),
        ];
        let tl = classify(&evs, 2, window(600));
        let segs = &tl[1].segments;
        assert_eq!(segs.first().unwrap().0, 0);
        assert_eq!(segs.last().unwrap().1, 600);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "segments must tile without gaps");
            assert_ne!(pair[0].2, pair[1].2, "adjacent same-class segments must merge");
        }
        let total: u64 = segs.iter().map(|&(s, n, _)| n - s).sum();
        assert_eq!(total, 600);
    }
}
