//! The replay streamer: bulk-reads the recorded sequence from the device's
//! on-board DRAM ahead of host requests.
//!
//! The FPGA's DDR3 is too slow to serve random on-demand reads at
//! microsecond rates, so the paper streams the pre-recorded sequence into a
//! prefetch buffer "well in advance of the request from the host". We model
//! the same structure: a bounded buffer refilled in bursts through the
//! on-board DRAM [`Station`], and a `when_available` rendezvous that delays a
//! response if (and only if) streaming ever falls behind.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::station::Station;
use kus_sim::callback::{component, Callback};
use kus_sim::stats::Counter;
use kus_sim::Sim;

/// Configuration for a [`ReplayStreamer`].
#[derive(Debug, Clone, Copy)]
pub struct StreamerConfig {
    /// Trace entries fetched per burst read of on-board DRAM.
    pub burst: usize,
    /// Prefetch-buffer capacity in trace entries.
    pub buffer: usize,
}

impl Default for StreamerConfig {
    fn default() -> StreamerConfig {
        StreamerConfig { burst: 64, buffer: 1024 }
    }
}

/// Streams one core's recorded sequence from on-board DRAM into a prefetch
/// buffer.
pub struct ReplayStreamer {
    config: StreamerConfig,
    dram: Rc<RefCell<Station>>,
    trace_len: usize,
    /// Entries `[0, streamed)` are in (or have passed through) the buffer.
    streamed: usize,
    /// Entries `[0, consumed)` have been matched and freed from the buffer.
    consumed: usize,
    burst_in_flight: bool,
    waiters: Vec<(usize, Callback)>,
    /// Burst reads issued to on-board DRAM.
    pub bursts: Counter,
    /// Rendezvous that had to wait for streaming (deadline pressure).
    pub stalls: Counter,
}

impl std::fmt::Debug for ReplayStreamer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayStreamer")
            .field("streamed", &self.streamed)
            .field("consumed", &self.consumed)
            .field("waiters", &self.waiters.len())
            .finish()
    }
}

impl ReplayStreamer {
    /// Creates a streamer over a trace of `trace_len` entries, reading
    /// through `dram`, wrapped for shared use.
    ///
    /// # Panics
    ///
    /// Panics if the burst size or buffer capacity is zero, or the burst
    /// exceeds the buffer.
    pub fn new(
        trace_len: usize,
        dram: Rc<RefCell<Station>>,
        config: StreamerConfig,
    ) -> Rc<RefCell<ReplayStreamer>> {
        assert!(config.burst > 0 && config.buffer > 0, "burst and buffer must be non-zero");
        assert!(config.burst <= config.buffer, "burst cannot exceed buffer");
        Rc::new(RefCell::new(ReplayStreamer {
            config,
            dram,
            trace_len,
            streamed: 0,
            consumed: 0,
            burst_in_flight: false,
            waiters: Vec::new(),
            bursts: Counter::default(),
            stalls: Counter::default(),
        }))
    }

    /// Entries streamed so far.
    pub fn streamed(&self) -> usize {
        self.streamed
    }

    /// Starts (or continues) streaming. Idempotent; call once after
    /// construction and the streamer keeps itself ahead.
    pub fn pump(this: &Rc<RefCell<ReplayStreamer>>, sim: &mut Sim) {
        let (dram, burst_entries) = {
            let mut s = this.borrow_mut();
            if s.burst_in_flight
                || s.streamed >= s.trace_len
                || s.streamed.saturating_sub(s.consumed) + s.config.burst > s.config.buffer
            {
                return;
            }
            s.burst_in_flight = true;
            s.bursts.incr();
            let burst_entries = s.config.burst.min(s.trace_len - s.streamed);
            (s.dram.clone(), burst_entries)
        };
        // A burst is `burst_entries` back-to-back line reads: the station's
        // serializer charges full bandwidth for each line, while the access
        // latency overlaps across the burst (bulk sequential DRAM reads).
        // The whole burst becomes visible when its last line completes.
        for _ in 1..burst_entries {
            Station::submit(&dram, sim, Callback::noop());
        }
        let on_last = Callback::new(ReplayStreamer::burst_landed, this.clone(), burst_entries as u64);
        Station::submit(&dram, sim, on_last);
    }

    /// The last line of a burst of `burst_entries` arrived: the entries
    /// become visible, and the waiters they satisfy run.
    fn burst_landed(sim: &mut Sim, this: Rc<dyn Any>, burst_entries: u64) {
        let this = component::<RefCell<ReplayStreamer>>(this);
        {
            let mut s = this.borrow_mut();
            s.burst_in_flight = false;
            s.streamed += burst_entries as usize;
            let streamed = s.streamed;
            let mut i = 0;
            while i < s.waiters.len() {
                if s.waiters[i].0 < streamed {
                    sim.schedule_callback_at(sim.now(), s.waiters.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        ReplayStreamer::pump(&this, sim);
    }

    /// Runs `f` once trace entry `index` has been streamed, and marks it
    /// consumed (freeing buffer space).
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the trace.
    pub fn when_available(this: &Rc<RefCell<ReplayStreamer>>, sim: &mut Sim, index: usize, f: Callback) {
        let ready = {
            let mut s = this.borrow_mut();
            assert!(index < s.trace_len, "trace index {index} out of range");
            s.consumed = s.consumed.max(index + 1);
            if index < s.streamed {
                Some(f)
            } else {
                s.stalls.incr();
                s.waiters.push((index, f));
                None
            }
        };
        if let Some(f) = ready {
            sim.schedule_callback_at(sim.now(), f);
        }
        // Consumption may have opened buffer space; keep the pump primed.
        ReplayStreamer::pump(this, sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_mem::station::StationConfig;
    use kus_sim::Span;
    use std::cell::Cell;

    fn onboard() -> Rc<RefCell<Station>> {
        Station::new("onboard", StationConfig::onboard_ddr3())
    }

    fn streamer(len: usize, cfg: StreamerConfig) -> (Sim, Rc<RefCell<ReplayStreamer>>) {
        let mut sim = Sim::new();
        let s = ReplayStreamer::new(len, onboard(), cfg);
        ReplayStreamer::pump(&s, &mut sim);
        sim.run();
        (sim, s)
    }

    #[test]
    fn streams_ahead_up_to_buffer() {
        let (_, s) = streamer(10_000, StreamerConfig { burst: 64, buffer: 256 });
        // Without consumption, the streamer fills the buffer and stops.
        assert_eq!(s.borrow().streamed(), 256);
    }

    #[test]
    fn short_trace_streams_fully() {
        let (_, s) = streamer(100, StreamerConfig { burst: 64, buffer: 256 });
        assert_eq!(s.borrow().streamed(), 100);
    }

    #[test]
    fn available_entry_fires_immediately() {
        let (mut sim, s) = streamer(100, StreamerConfig::default());
        let at = Rc::new(Cell::new(u64::MAX));
        let a = at.clone();
        let before = sim.now();
        ReplayStreamer::when_available(&s, &mut sim, 5, Callback::boxed(move |sim| a.set(sim.now().as_ns())));
        sim.run();
        assert_eq!(at.get(), before.as_ns(), "no extra delay for streamed entries");
        assert_eq!(s.borrow().stalls.get(), 0);
    }

    #[test]
    fn consumption_unblocks_further_streaming() {
        let (mut sim, s) = streamer(1000, StreamerConfig { burst: 16, buffer: 32 });
        assert_eq!(s.borrow().streamed(), 32);
        // Consume the first 500 entries; the streamer catches up.
        for i in 0..500 {
            ReplayStreamer::when_available(&s, &mut sim, i, Callback::noop());
            sim.run();
        }
        assert!(s.borrow().streamed() >= 500);
    }

    #[test]
    fn waiting_beyond_buffer_eventually_fires() {
        let (mut sim, s) = streamer(1000, StreamerConfig { burst: 16, buffer: 32 });
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        ReplayStreamer::when_available(&s, &mut sim, 700, Callback::boxed(move |_| f.set(true)));
        sim.run();
        assert!(fired.get());
        assert_eq!(s.borrow().stalls.get(), 1);
    }

    #[test]
    fn streaming_pays_dram_bandwidth() {
        // 256 lines at 10ns serialization each ≈ 2560ns to fill the buffer.
        let (sim, s) = streamer(10_000, StreamerConfig { burst: 64, buffer: 256 });
        assert_eq!(s.borrow().streamed(), 256);
        assert!(sim.now() >= kus_sim::Time::ZERO + Span::from_ns(2560));
    }
}
