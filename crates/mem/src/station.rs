//! A generic queueing station: bounded concurrency, per-request serialization,
//! and a fixed post-serialization latency.
//!
//! [`Station`] is the reusable building block for "a resource that serves
//! requests": the host DRAM channel, the device's on-board DRAM, and similar.
//! A request (1) waits for one of `concurrency` service slots, (2) occupies a
//! shared serializer for `service` time (head-of-line bandwidth), and
//! (3) completes `latency` after its serialization slot begins.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use kus_sim::callback::{component, Callback};
use kus_sim::trace::{EventName, TraceClass};
use kus_sim::{Sim, Span, Time, Tracer};

/// Configuration for a [`Station`].
#[derive(Debug, Clone, Copy)]
pub struct StationConfig {
    /// Maximum requests in service at once.
    pub concurrency: usize,
    /// Serializer occupancy per request (models bandwidth).
    pub service: Span,
    /// Additional delay from service start to completion (models latency).
    pub latency: Span,
}

impl StationConfig {
    /// The host DRAM channel of the reproduced platform: ~100 ns loaded
    /// latency (measured random-access latency on dual-socket Haswell
    /// parts, including uncore queueing), 64 B per ~2.5 ns (≈25.6 GB/s),
    /// ample bank-level parallelism.
    pub fn host_dram() -> StationConfig {
        StationConfig {
            concurrency: 16,
            service: Span::from_ps(2_500),
            latency: Span::from_ns(100),
        }
    }

    /// The FPGA board's on-board DDR3-800: ~6.4 GB/s (64 B per 10 ns) and
    /// high access latency — the reason the paper needed the replay design.
    pub fn onboard_ddr3() -> StationConfig {
        StationConfig {
            concurrency: 8,
            service: Span::from_ns(10),
            latency: Span::from_ns(150),
        }
    }
}

/// A shared, event-driven queueing station.
///
/// # Examples
///
/// ```
/// use kus_mem::station::{Station, StationConfig};
/// use kus_sim::callback::Callback;
/// use kus_sim::{Sim, Span};
/// use std::{cell::Cell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let dram = Station::new("dram", StationConfig::host_dram());
/// let done = Rc::new(Cell::new(false));
/// let d = done.clone();
/// Station::submit(&dram, &mut sim, Callback::boxed(move |_| d.set(true)));
/// sim.run();
/// assert!(done.get());
/// assert!(sim.now().as_ns() >= 100);
/// ```
pub struct Station {
    name: &'static str,
    config: StationConfig,
    busy_until: Time,
    /// The requests in service, in start order, each with its completion
    /// time and continuation. Every request completes `service + latency`
    /// after a start no earlier than the previous one, so completions
    /// leave from the front.
    serving: VecDeque<(Time, Callback)>,
    waiting: VecDeque<Callback>,
    tracer: Tracer,
    track: u32,
}

impl std::fmt::Debug for Station {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Station")
            .field("name", &self.name)
            .field("in_service", &self.serving.len())
            .field("queued", &self.waiting.len())
            .finish()
    }
}

impl Station {
    /// Creates a station wrapped for shared use.
    ///
    /// # Panics
    ///
    /// Panics if `config.concurrency` is zero.
    pub fn new(name: &'static str, config: StationConfig) -> Rc<RefCell<Station>> {
        assert!(config.concurrency > 0, "station concurrency must be non-zero");
        Rc::new(RefCell::new(Station {
            name,
            config,
            busy_until: Time::ZERO,
            serving: VecDeque::new(),
            waiting: VecDeque::new(),
            tracer: Tracer::off(),
            track: 0,
        }))
    }

    /// Requests currently in service.
    pub fn in_service(&self) -> usize {
        self.serving.len()
    }

    /// Requests waiting for a service slot.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Attaches a tracer; `track` is the timeline row (by convention 420 for
    /// the device's on-board DRAM — see `kus-profile`). The station emits
    /// `station.occ` occupancy counters at each service start, only when
    /// profiling is enabled.
    pub fn set_tracer(&mut self, tracer: Tracer, track: u32) {
        self.tracer = tracer;
        self.track = track;
    }

    /// Submits a request; `on_done` runs at completion time, inside the
    /// station's completion event.
    pub fn submit(this: &Rc<RefCell<Station>>, sim: &mut Sim, on_done: Callback) {
        {
            let mut s = this.borrow_mut();
            if s.serving.len() == s.config.concurrency {
                s.waiting.push_back(on_done);
                return;
            }
        }
        Station::start(this, sim, on_done);
    }

    fn start(this: &Rc<RefCell<Station>>, sim: &mut Sim, on_done: Callback) {
        let done_at = {
            let mut s = this.borrow_mut();
            let start_at = sim.now().max(s.busy_until);
            s.busy_until = start_at + s.config.service;
            let done_at = start_at + s.config.service + s.config.latency;
            s.serving.push_back((done_at, on_done));
            if s.tracer.wants(TraceClass::Profile) {
                s.tracer.counter(EventName::StationOcc, s.track, s.serving.len() as u64);
            }
            done_at
        };
        sim.schedule_callback_at(done_at, Callback::new(Station::finish, this.clone(), 0));
    }

    /// The completion event of the oldest request in service: starts the
    /// next waiting one, then runs the finished one's continuation.
    fn finish(sim: &mut Sim, this: Rc<dyn Any>, _: u64) {
        let this = component::<RefCell<Station>>(this);
        let (on_done, next) = {
            let mut s = this.borrow_mut();
            let (done_at, on_done) = s.serving.pop_front().expect("a request in service");
            debug_assert_eq!(done_at, sim.now(), "{}: completions left out of start order", s.name);
            (on_done, s.waiting.pop_front())
        };
        if let Some(next) = next {
            Station::start(&this, sim, next);
        }
        on_done.call(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn cfg(concurrency: usize, service_ns: u64, latency_ns: u64) -> StationConfig {
        StationConfig {
            concurrency,
            service: Span::from_ns(service_ns),
            latency: Span::from_ns(latency_ns),
        }
    }

    fn run_n(station: &Rc<RefCell<Station>>, n: usize) -> (Vec<u64>, Sim) {
        let mut sim = Sim::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..n {
            let t = times.clone();
            Station::submit(station, &mut sim, Callback::boxed(move |sim| t.borrow_mut().push(sim.now().as_ns())));
        }
        sim.run();
        let times = times.borrow().clone();
        (times, sim)
    }

    #[test]
    fn single_request_latency() {
        let s = Station::new("t", cfg(1, 2, 100));
        let (times, _) = run_n(&s, 1);
        assert_eq!(times, vec![102]);
    }

    #[test]
    fn serializer_spaces_requests() {
        // concurrency high, service 10ns: completions 110, 120, 130.
        let s = Station::new("t", cfg(8, 10, 100));
        let (times, _) = run_n(&s, 3);
        assert_eq!(times, vec![110, 120, 130]);
    }

    #[test]
    fn concurrency_limit_queues() {
        // one slot, no serialization: strictly serial 100, 200, 300.
        let s = Station::new("t", cfg(1, 0, 100));
        let (times, _) = run_n(&s, 3);
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn occupancy_tracks_concurrency() {
        // four slots, no serialization: completions in waves of four.
        let s = Station::new("t", cfg(4, 0, 50));
        let (times, _) = run_n(&s, 10);
        assert_eq!(times, vec![50, 50, 50, 50, 100, 100, 100, 100, 150, 150]);
        assert_eq!(s.borrow().in_service(), 0);
        assert_eq!(s.borrow().queued(), 0);
    }

    #[test]
    fn throughput_matches_bandwidth() {
        // 64B per 10ns = 6.4 GB/s; 100 requests take ~1000ns to serialize.
        let s = Station::new("t", cfg(64, 10, 0));
        let (times, sim) = run_n(&s, 100);
        assert_eq!(times.len(), 100);
        assert_eq!(sim.now().as_ns(), 1000);
    }

    #[test]
    fn later_submission_after_idle_does_not_wait() {
        let mut sim = Sim::new();
        let s = Station::new("t", cfg(1, 10, 0));
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        Station::submit(&s, &mut sim, Callback::boxed(move |sim| d.set(sim.now().as_ns())));
        sim.run();
        assert_eq!(done.get(), 10);
        // Advance idle time, then submit again: serializer should not carry over.
        let d2 = done.clone();
        sim.schedule_in(Span::from_ns(90), |_| {});
        sim.run();
        Station::submit(&s, &mut sim, Callback::boxed(move |sim| d2.set(sim.now().as_ns())));
        sim.run();
        assert_eq!(done.get(), 110);
    }
}
