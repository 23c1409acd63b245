//! Resource-pressure counters: occupancy histograms and batching factors
//! for the shared resources the paper names as throughput limiters — the
//! 10 line-fill buffers per core, the chip-level PCIe credit queue, the
//! SWQ descriptor ring — plus doorbell batching and fetcher burst
//! efficiency.
//!
//! Every histogram is built as one [`HdrHistogram`] shard per trace track
//! and then merged in ascending track order, the same discipline
//! `kus-load` uses: bucket-wise merge is exact and order-independent, so a
//! profile assembled from a parallel sweep is byte-identical to a serial
//! one at any `--jobs`.

use std::collections::BTreeMap;

use kus_sim::stats::HdrHistogram;
use kus_sim::time::Span;
use kus_sim::trace::{Category, EventName, TraceEvent};

/// Trace track the platform assigns the chip-level device-path credit queue.
pub const TRACK_DEVICE_CREDITS: u32 = 400;
/// Trace track for the chip-level DRAM-path credit queue.
pub const TRACK_DRAM_CREDITS: u32 = 401;
/// Trace track for the on-device memory station.
pub const TRACK_DEVICE_STATION: u32 = 420;

/// Occupancy histograms record dimensionless levels (entries in use), not
/// durations; they ride in [`HdrHistogram`]s — exact for levels below 64 —
/// so the level `n` is encoded as `n` picoseconds.
#[derive(Debug, Clone, Default)]
pub struct PressureReport {
    /// LFB entries in use after each alloc/merge/fill, across all cores.
    pub lfb_occupancy: HdrHistogram,
    /// Allocation attempts rejected because every LFB was busy.
    pub lfb_full_events: u64,
    /// Ops that registered a waiter for a free LFB slot.
    pub lfb_waits: u64,
    /// Chip-level device-path credits in use at each successful acquire.
    pub chip_queue_at_acquire: HdrHistogram,
    /// SWQ ring descriptors pending after each enqueue.
    pub ring_at_enqueue: HdrHistogram,
    /// On-device memory station occupancy at each request start.
    pub station_occupancy: HdrHistogram,
    /// PCIe link serialization queueing delay per TLP (picoseconds).
    pub link_queue_delay: HdrHistogram,
    /// SWQ descriptors enqueued by the host.
    pub enqueues: u64,
    /// MMIO doorbells actually rung.
    pub doorbells: u64,
    /// Descriptors the device fetcher pulled off the ring.
    pub fetched: u64,
    /// Burst DMA reads the fetcher issued to pull them.
    pub fetch_bursts: u64,
}

impl PressureReport {
    /// Descriptors per doorbell: how well MMIO writes amortize (1.0 = one
    /// doorbell per request, higher is better).
    pub fn doorbell_batching(&self) -> f64 {
        if self.doorbells == 0 {
            0.0
        } else {
            self.enqueues as f64 / self.doorbells as f64
        }
    }

    /// Descriptors per fetch burst (up to the configured burst size).
    pub fn burst_efficiency(&self) -> f64 {
        if self.fetch_bursts == 0 {
            0.0
        } else {
            self.fetched as f64 / self.fetch_bursts as f64
        }
    }
}

fn record_level(shards: &mut BTreeMap<u32, HdrHistogram>, track: u32, level: u64) {
    shards.entry(track).or_default().record(Span::from_ps(level));
}

fn merge_shards(shards: BTreeMap<u32, HdrHistogram>) -> HdrHistogram {
    let mut out = HdrHistogram::new();
    for shard in shards.values() {
        out.merge(shard);
    }
    out
}

pub(crate) fn build(events: &[TraceEvent]) -> PressureReport {
    let mut lfb: BTreeMap<u32, HdrHistogram> = BTreeMap::new();
    let mut chip: BTreeMap<u32, HdrHistogram> = BTreeMap::new();
    let mut ring: BTreeMap<u32, HdrHistogram> = BTreeMap::new();
    let mut station: BTreeMap<u32, HdrHistogram> = BTreeMap::new();
    let mut link: BTreeMap<u32, HdrHistogram> = BTreeMap::new();
    let mut p = PressureReport::default();
    for e in events {
        match (e.cat, e.name) {
            (Category::Mem, EventName::LfbAlloc | EventName::LfbMerge | EventName::LfbFill) => {
                record_level(&mut lfb, e.track, e.a1)
            }
            (Category::Mem, EventName::LfbFull) => p.lfb_full_events += 1,
            (Category::Mem, EventName::LfbWait) => p.lfb_waits += 1,
            (Category::Mem, EventName::CreditOcc) if e.track == TRACK_DEVICE_CREDITS => {
                record_level(&mut chip, e.track, e.a0)
            }
            (Category::Mem, EventName::StationOcc) => record_level(&mut station, e.track, e.a0),
            (Category::Pcie, EventName::TlpQueue) => record_level(&mut link, e.track, e.a0),
            (Category::Swq, EventName::SwqEnqueue) => {
                p.enqueues += 1;
                record_level(&mut ring, e.track, e.a1);
            }
            (Category::Swq, EventName::SwqDoorbell) => p.doorbells += 1,
            (Category::Swq, EventName::SwqFetch) => p.fetched += 1,
            (Category::Device, EventName::FetchBurst) => p.fetch_bursts += 1,
            _ => {}
        }
    }
    p.lfb_occupancy = merge_shards(lfb);
    p.chip_queue_at_acquire = merge_shards(chip);
    p.ring_at_enqueue = merge_shards(ring);
    p.station_occupancy = merge_shards(station);
    p.link_queue_delay = merge_shards(link);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_sim::time::Time;
    use kus_sim::trace::Phase;

    fn ev(cat: Category, name: EventName, track: u32, a0: u64, a1: u64) -> TraceEvent {
        TraceEvent { at: Time::ZERO, cat, name, phase: Phase::Instant, track, a0, a1 }
    }

    #[test]
    fn histograms_and_factors() {
        let evs = vec![
            ev(Category::Mem, EventName::LfbAlloc, 0, 5, 1),
            ev(Category::Mem, EventName::LfbAlloc, 1, 6, 3),
            ev(Category::Mem, EventName::LfbFull, 0, 7, 10),
            ev(Category::Mem, EventName::LfbWait, 0, 7, 1),
            ev(Category::Mem, EventName::CreditOcc, TRACK_DEVICE_CREDITS, 14, 0),
            ev(Category::Mem, EventName::CreditOcc, TRACK_DRAM_CREDITS, 40, 0), // not the chip queue
            ev(Category::Swq, EventName::SwqEnqueue, 0, 1, 4),
            ev(Category::Swq, EventName::SwqEnqueue, 0, 2, 5),
            ev(Category::Swq, EventName::SwqDoorbell, 0, 1, 0),
            ev(Category::Swq, EventName::SwqFetch, 100, 1, 1),
            ev(Category::Swq, EventName::SwqFetch, 100, 2, 0),
            ev(Category::Device, EventName::FetchBurst, 100, 1, 1),
        ];
        let p = build(&evs);
        assert_eq!(p.lfb_occupancy.count(), 2);
        assert_eq!(p.lfb_occupancy.max(), Span::from_ps(3));
        assert_eq!(p.lfb_full_events, 1);
        assert_eq!(p.lfb_waits, 1);
        assert_eq!(p.chip_queue_at_acquire.count(), 1);
        assert_eq!(p.chip_queue_at_acquire.max(), Span::from_ps(14));
        assert_eq!(p.ring_at_enqueue.quantile(1.0), Span::from_ps(5));
        assert_eq!((p.enqueues, p.doorbells), (2, 1));
        assert!((p.doorbell_batching() - 2.0).abs() < 1e-12);
        assert!((p.burst_efficiency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let p = build(&[]);
        assert_eq!(p.lfb_occupancy.count(), 0);
        assert_eq!(p.doorbell_batching(), 0.0);
        assert_eq!(p.burst_efficiency(), 0.0);
    }

    #[test]
    fn shard_merge_is_order_independent() {
        // The same samples attributed to different tracks merge to the same
        // histogram — the property that makes profiles `--jobs`-stable.
        let a = build(&[
            ev(Category::Mem, EventName::LfbAlloc, 0, 0, 7),
            ev(Category::Mem, EventName::LfbAlloc, 3, 0, 2),
        ]);
        let b = build(&[
            ev(Category::Mem, EventName::LfbAlloc, 3, 0, 2),
            ev(Category::Mem, EventName::LfbAlloc, 0, 0, 7),
        ]);
        assert_eq!(a.lfb_occupancy.count(), b.lfb_occupancy.count());
        assert_eq!(a.lfb_occupancy.quantile(0.5), b.lfb_occupancy.quantile(0.5));
        assert_eq!(a.lfb_occupancy.max(), b.lfb_occupancy.max());
    }
}
