//! Per-tag critical-path extraction: walk each SWQ request's
//! issue→enqueue→doorbell→fetch→serve→complete→deliver span chain and
//! attribute its whole sojourn to the single longest segment.
//!
//! The six segments telescope exactly back to the sojourn (`deliver -
//! issue`), so blame is a partition of end-to-end latency, not a sample.
//! Two tables come out: one over all completed requests, and one
//! restricted to the p99 tail, so tail causes are separated from mean
//! causes (a ring that is fine on average can still own the tail).

use std::collections::BTreeMap;

use kus_sim::stats::p99_index;
use kus_sim::time::Span;
use kus_sim::trace::{Category, EventName, TraceEvent};

/// The blameable segments, in chain order. Ties go to the earlier segment.
pub const SEGMENTS: [&str; 6] =
    ["host_enqueue", "doorbell_wait", "ring_wait", "device_service", "completion_dma", "delivery"];

/// Aggregate blame for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameRow {
    pub segment: &'static str,
    /// Requests whose longest segment this was.
    pub count: u64,
    /// Summed duration of the blamed segment across those requests.
    pub blamed: Span,
    /// Summed end-to-end sojourn of those requests.
    pub sojourn: Span,
}

/// Blame aggregated over a request population. Always carries all six
/// rows in [`SEGMENTS`] order; `requests == 0` outside SWQ runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameTable {
    pub rows: Vec<BlameRow>,
    pub requests: u64,
}

impl Default for BlameTable {
    fn default() -> BlameTable {
        BlameTable {
            rows: SEGMENTS
                .iter()
                .map(|&segment| BlameRow { segment, count: 0, blamed: Span::ZERO, sojourn: Span::ZERO })
                .collect(),
            requests: 0,
        }
    }
}

impl BlameTable {
    /// The most-blamed segment (by blamed time), if any request completed.
    pub fn top(&self) -> Option<&BlameRow> {
        self.rows.iter().filter(|r| r.count > 0).max_by_key(|r| r.blamed)
    }

    pub fn total_blamed(&self) -> Span {
        self.rows.iter().fold(Span::ZERO, |a, r| a + r.blamed)
    }

    /// Fraction of total blamed time charged to `segment`.
    pub fn share(&self, segment: &str) -> f64 {
        let total = self.total_blamed().as_ps();
        if total == 0 {
            return 0.0;
        }
        let row = self.rows.iter().find(|r| r.segment == segment);
        row.map_or(0.0, |r| r.blamed.as_ps() as f64 / total as f64)
    }

    fn charge(&mut self, idx: usize, blamed_ps: u64, sojourn_ps: u64) {
        let row = &mut self.rows[idx];
        row.count += 1;
        row.blamed += Span::from_ps(blamed_ps);
        row.sojourn += Span::from_ps(sojourn_ps);
        self.requests += 1;
    }
}

/// First-seen timestamps of each chain stage, per tag. Retried tags keep
/// their first stamps: the sojourn then covers the retry, and the blame
/// lands on whichever gap absorbed it.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    issue: Option<u64>,
    enqueue: Option<u64>,
    doorbell: Option<u64>,
    fetch: Option<u64>,
    serve: Option<u64>,
    complete: Option<u64>,
    deliver: Option<u64>,
}

fn first(slot: &mut Option<u64>, at: u64) {
    if slot.is_none() {
        *slot = Some(at);
    }
}

/// Extracts `(all-requests table, p99-tail table)` from an event stream.
pub(crate) fn extract(events: &[TraceEvent]) -> (BlameTable, BlameTable) {
    let mut tags: BTreeMap<u64, Stamps> = BTreeMap::new();
    for e in events {
        if e.cat != Category::Swq {
            continue;
        }
        let at = e.at.as_ps();
        let st = tags.entry(e.a0).or_default();
        match e.name {
            EventName::SwqIssue => first(&mut st.issue, at),
            EventName::SwqEnqueue => first(&mut st.enqueue, at),
            EventName::SwqDoorbell => first(&mut st.doorbell, at),
            EventName::SwqFetch => first(&mut st.fetch, at),
            EventName::SwqServe => first(&mut st.serve, at),
            EventName::SwqComplete => first(&mut st.complete, at),
            EventName::SwqDeliver => first(&mut st.deliver, at),
            _ => {}
        }
    }

    // (sojourn_ps, blamed segment index, blamed_ps) per completed request.
    let mut blamed: Vec<(u64, usize, u64)> = Vec::new();
    for st in tags.values() {
        let (Some(i), Some(en), Some(f), Some(sv), Some(cp), Some(dl)) =
            (st.issue, st.enqueue, st.fetch, st.serve, st.complete, st.deliver)
        else {
            continue;
        };
        if !(i <= en && en <= f && f <= sv && sv <= cp && cp <= dl) {
            continue; // retries or fault injection scrambled the chain
        }
        let mut segs = [0u64; 6];
        segs[0] = en - i;
        match st.doorbell {
            // A doorbell stamp between enqueue and fetch splits the ring
            // wait; batched tags (no doorbell of their own) charge the whole
            // gap to ring_wait.
            Some(db) if (en..=f).contains(&db) => {
                segs[1] = db - en;
                segs[2] = f - db;
            }
            _ => segs[2] = f - en,
        }
        segs[3] = sv - f;
        segs[4] = cp - sv;
        segs[5] = dl - cp;
        let (idx, &max) = segs.iter().enumerate().max_by_key(|&(i, &v)| (v, usize::MAX - i)).unwrap();
        blamed.push((dl - i, idx, max));
    }

    let mut all = BlameTable::default();
    let mut tail = BlameTable::default();
    if blamed.is_empty() {
        return (all, tail);
    }
    let mut sojourns: Vec<u64> = blamed.iter().map(|&(s, _, _)| s).collect();
    sojourns.sort_unstable();
    let p99 = sojourns[p99_index(sojourns.len())];
    for &(sojourn, idx, max) in &blamed {
        all.charge(idx, max, sojourn);
        if sojourn >= p99 {
            tail.charge(idx, max, sojourn);
        }
    }
    (all, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::time::Time;
    use kus_sim::trace::Phase;

    fn ev(name: EventName, at_ps: u64, tag: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(at_ps),
            cat: Category::Swq,
            name,
            phase: Phase::Instant,
            track: 0,
            a0: tag,
            a1: 0,
        }
    }

    fn chain(tag: u64, stamps: [u64; 7]) -> Vec<TraceEvent> {
        let names = [
            EventName::SwqIssue,
            EventName::SwqEnqueue,
            EventName::SwqDoorbell,
            EventName::SwqFetch,
            EventName::SwqServe,
            EventName::SwqComplete,
            EventName::SwqDeliver,
        ];
        names.iter().zip(stamps).map(|(&n, at)| ev(n, at, tag)).collect()
    }

    #[test]
    fn blame_lands_on_longest_segment() {
        // device_service (fetch→serve) is 1000 ps, everything else shorter.
        let evs = chain(1, [0, 10, 20, 100, 1100, 1150, 1200]);
        let (all, tail) = extract(&evs);
        assert_eq!(all.requests, 1);
        let top = all.top().unwrap();
        assert_eq!(top.segment, "device_service");
        assert_eq!(top.blamed, Span::from_ps(1000));
        assert_eq!(top.sojourn, Span::from_ps(1200));
        // Single request: it IS the tail.
        assert_eq!(tail.requests, 1);
        assert_eq!(tail.top().unwrap().segment, "device_service");
    }

    #[test]
    fn segments_telescope_to_sojourn() {
        let stamps = [5u64, 25, 40, 300, 900, 1000, 1300];
        let evs = chain(9, stamps);
        let (all, _) = extract(&evs);
        let total: Span = all.rows.iter().fold(Span::ZERO, |a, r| a + r.sojourn);
        assert_eq!(total, Span::from_ps(stamps[6] - stamps[0]));
        assert!(all.total_blamed() <= total);
    }

    #[test]
    fn incomplete_chains_are_skipped() {
        let mut evs = chain(1, [0, 10, 20, 100, 1100, 1150, 1200]);
        evs.extend(vec![ev(EventName::SwqIssue, 0, 2), ev(EventName::SwqEnqueue, 10, 2)]); // never delivered
        let (all, _) = extract(&evs);
        assert_eq!(all.requests, 1);
    }

    #[test]
    fn missing_doorbell_charges_ring_wait() {
        // Batched tag: no doorbell event; enqueue→fetch gap all ring_wait.
        let names = [
            EventName::SwqIssue,
            EventName::SwqEnqueue,
            EventName::SwqFetch,
            EventName::SwqServe,
            EventName::SwqComplete,
            EventName::SwqDeliver,
        ];
        let stamps = [0u64, 10, 2000, 2100, 2150, 2200];
        let evs: Vec<_> = names.iter().zip(stamps).map(|(&n, at)| ev(n, at, 3)).collect();
        let (all, _) = extract(&evs);
        assert_eq!(all.top().unwrap().segment, "ring_wait");
        assert_eq!(all.top().unwrap().blamed, Span::from_ps(1990));
    }

    #[test]
    fn p99_table_keeps_only_the_tail() {
        let mut evs = Vec::new();
        // 99 fast requests (distinct sojourns 1000..1098 ps) blamed on
        // device_service, one huge ring_wait straggler. The p99 threshold is
        // the 99th order statistic (1098), so the tail holds that request
        // plus the straggler.
        for tag in 0..99 {
            let base = tag * 100_000;
            evs.extend(chain(
                tag,
                [base, base + 10, base + 20, base + 50, base + 2000, base + 2020, base + 2050 + tag],
            ));
        }
        evs.extend(chain(99, [0, 10, 20, 90_000, 91_000, 91_100, 91_200]));
        let (all, tail) = extract(&evs);
        assert_eq!(all.requests, 100);
        assert_eq!(tail.requests, 2, "p99 table must hold only the tail");
        assert_eq!(tail.top().unwrap().segment, "ring_wait");
        // Mean cause and tail cause disagree — the point of the second table.
        assert_eq!(all.top().unwrap().segment, "device_service");
    }

    #[test]
    fn empty_stream_yields_empty_tables() {
        let (all, tail) = extract(&[]);
        assert_eq!(all.requests, 0);
        assert_eq!(tail.requests, 0);
        assert!(all.top().is_none());
        assert_eq!(all.rows.len(), SEGMENTS.len());
    }
}
