//! The emulator's internal datapath, shared by both interface modes.
//!
//! [`DeviceCore`] glues together the per-core replay modules, the shared
//! replay streamer channel, the on-demand module, and the delay logic: every
//! request is matched (replay or on-demand), its data fetched from the
//! on-board dataset copy, and its response released exactly `hold` after
//! arrival — the mechanism that gives the emulated device its configurable
//! microsecond latency regardless of internal timing, unless the internals
//! genuinely fall behind (counted as deadline misses).

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::station::{Station, StationConfig};
use kus_mem::{ByteStore, LineAddr, LINE_BYTES};
use kus_sim::callback::{component, Callback, Parked};
use kus_sim::stats::Counter;
use kus_sim::trace::EventName;
use kus_sim::{splitmix64, FaultInjector, Sim, Span, Time, Tracer};

use crate::ondemand::OnDemandModule;
use crate::replay::{MatchOutcome, ReplayConfig, ReplayModule};
use crate::streamer::{ReplayStreamer, StreamerConfig};
use crate::trace::{AccessTrace, CoreTrace};

/// One cache line of response data.
pub type LineData = [u8; LINE_BYTES as usize];

/// A request inside the datapath, from arrival to response release.
struct Request {
    core: usize,
    line: LineAddr,
    arrival: Time,
    deadline: Time,
    respond: Callback,
}

/// The shape of the device's hold-time jitter distribution.
///
/// All models are mean-preserving around the configured hold (up to the
/// heavy tail's contribution for [`JitterModel::Bimodal`]) and sampled as
/// a pure function of (core, sequence), so record and replay phases see
/// identical timing. [`JitterModel::Uniform`] is the historical model and
/// is bit-identical to the pre-model behaviour; `Bimodal` with
/// `tail_prob = 0` or a zero `tail` degenerates to `Uniform` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum JitterModel {
    /// Uniform spread `[hold - spread/2, hold + spread/2)` — the
    /// historical flash-class profile.
    #[default]
    Uniform,
    /// Uniform near-mode plus a rare heavy tail: with probability
    /// `tail_prob` a request additionally waits `uniform[0, tail)`,
    /// modelling the long-tail service excursions (GC pauses, retries)
    /// measured on real µs-scale devices.
    Bimodal {
        /// Probability a request lands in the tail mode, in `[0, 1]`.
        tail_prob: f64,
        /// Maximum extra hold for tail-mode requests.
        tail: Span,
    },
}

impl JitterModel {
    /// Checks the model parameters, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            JitterModel::Uniform => Ok(()),
            JitterModel::Bimodal { tail_prob, .. } => {
                if !(0.0..=1.0).contains(&tail_prob) {
                    return Err(format!("tail_prob = {tail_prob} is outside [0, 1]"));
                }
                Ok(())
            }
        }
    }
}

/// Configuration of the emulator internals.
#[derive(Debug, Clone, Copy)]
pub struct DeviceConfig {
    /// Response hold time: request arrival → response send. The platform
    /// computes this from the *configured device latency* minus the
    /// interconnect round trip, reproducing the paper's "configured response
    /// delays account for the PCIe round-trip latency".
    pub hold: Span,
    /// Mean-preserving uniform jitter on the hold time: request `i` is held
    /// for `hold - spread/2 + uniform[0, spread)`. Zero reproduces the
    /// paper's fixed-delay emulator; real flash-class devices are closer to
    /// a jittered profile. Samples are a pure function of (core, sequence),
    /// so the record and replay phases see identical timing.
    pub jitter_spread: Span,
    /// Shape of the jitter distribution applied on top of `jitter_spread`.
    pub jitter_model: JitterModel,
    /// Replay window behaviour.
    pub replay: ReplayConfig,
    /// Streamer burst/buffer sizing.
    pub streamer: StreamerConfig,
    /// The on-board DRAM channels (one for streaming, one for on-demand).
    pub onboard: StationConfig,
}

impl DeviceConfig {
    /// A device whose internals can comfortably hide behind `hold`.
    pub fn with_hold(hold: Span) -> DeviceConfig {
        DeviceConfig {
            hold,
            jitter_spread: Span::ZERO,
            jitter_model: JitterModel::Uniform,
            replay: ReplayConfig::default(),
            streamer: StreamerConfig::default(),
            onboard: StationConfig::onboard_ddr3(),
        }
    }
}

/// The shared emulator datapath.
pub struct DeviceCore {
    config: DeviceConfig,
    dataset: Rc<RefCell<ByteStore>>,
    /// Requests served per core (drives deterministic jitter sampling).
    serve_seq: Vec<u64>,
    replay: Vec<ReplayModule>,
    streamers: Vec<Rc<RefCell<ReplayStreamer>>>,
    stream_channel: Rc<RefCell<Station>>,
    ondemand: OnDemandModule,
    recorder: Option<Rc<RefCell<AccessTrace>>>,
    faults: Option<Rc<RefCell<FaultInjector>>>,
    tracer: Tracer,
    requests: Parked<Request>,
    /// Responses released.
    pub responses: Counter,
    /// Requests matched by a replay module.
    pub replayed: Counter,
    /// Requests served by the on-demand module.
    pub ondemand_served: Counter,
    /// Responses whose internals (streaming / on-demand DRAM) pushed them
    /// past their deadline — should be ≈0 in a healthy configuration.
    pub deadline_misses: Counter,
}

impl std::fmt::Debug for DeviceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceCore")
            .field("cores", &self.replay.len())
            .field("hold", &self.config.hold)
            .field("responses", &self.responses.get())
            .finish()
    }
}

impl DeviceCore {
    /// Builds the datapath for `traces` (one per host core), with on-board
    /// dataset copy `dataset`, wrapped for shared use. Streaming starts on
    /// the first request.
    pub fn new(
        dataset: Rc<RefCell<ByteStore>>,
        traces: Vec<CoreTrace>,
        config: DeviceConfig,
    ) -> Rc<RefCell<DeviceCore>> {
        assert!(!traces.is_empty(), "device needs at least one core trace");
        let stream_channel = Station::new("onboard-stream", config.onboard);
        let streamers = traces
            .iter()
            .map(|t| ReplayStreamer::new(t.len().max(1), stream_channel.clone(), config.streamer))
            .collect();
        let serve_seq = vec![0; traces.len()];
        let replay = traces.into_iter().map(|t| ReplayModule::new(t, config.replay)).collect();
        Rc::new(RefCell::new(DeviceCore {
            config,
            dataset,
            serve_seq,
            replay,
            streamers,
            stream_channel,
            ondemand: OnDemandModule::new(config.onboard),
            recorder: None,
            faults: None,
            tracer: Tracer::off(),
            requests: Parked::new(),
            responses: Counter::default(),
            replayed: Counter::default(),
            ondemand_served: Counter::default(),
            deadline_misses: Counter::default(),
        }))
    }

    /// The configured (mean) hold time.
    pub fn hold(&self) -> Span {
        self.config.hold
    }

    /// Attaches a fault injector; service times may then spike according to
    /// its plan.
    pub fn set_fault_injector(&mut self, injector: Rc<RefCell<FaultInjector>>) {
        self.faults = Some(injector);
    }

    /// Attaches a tracer. Datapath events land on track `200 + core`; the
    /// on-board DRAM stations emit occupancy counters on track 420 when
    /// profiling is enabled.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.stream_channel.borrow_mut().set_tracer(tracer.clone(), 420);
        self.ondemand.channel().borrow_mut().set_tracer(tracer.clone(), 420);
        self.tracer = tracer;
    }

    /// The hold time of request `seq` from `core`: the configured hold with
    /// mean-preserving jitter shaped by the configured [`JitterModel`],
    /// deterministic in (core, seq).
    fn jittered_hold(&self, core: usize, seq: u64) -> Span {
        let near = self.uniform_hold(core, seq);
        match self.config.jitter_model {
            JitterModel::Uniform => near,
            JitterModel::Bimodal { tail_prob, tail } => {
                let tail_ps = tail.as_ps();
                if tail_prob == 0.0 || tail_ps == 0 {
                    // Degenerate Bimodal is bit-identical to Uniform.
                    return near;
                }
                // An independently-salted draw decides tail membership and
                // sizes the excursion; re-salting keeps it decorrelated
                // from the near-mode offset.
                let z = splitmix64(
                    (core as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(seq)
                        .wrapping_add(0xb1b0_da1d_ea71_0001),
                );
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                if u < tail_prob {
                    let stretch = splitmix64(z.wrapping_add(0xb1b0_da1d_ea71_0002)) % tail_ps;
                    Span::from_ps(near.as_ps() + stretch)
                } else {
                    near
                }
            }
        }
    }

    /// The historical mean-preserving uniform jitter sample — the near mode
    /// shared by every [`JitterModel`]. Bit-identical to the pre-model
    /// behaviour.
    fn uniform_hold(&self, core: usize, seq: u64) -> Span {
        // Mean preservation needs hold - spread/2 >= 0; clamp the spread to
        // the device's internal service time (the interconnect round trip
        // cannot jitter away).
        let spread = self.config.jitter_spread.as_ps().min(2 * self.config.hold.as_ps());
        if spread == 0 {
            return self.config.hold;
        }
        // splitmix64 over (core, seq): stable, phase-independent sampling.
        let z = splitmix64((core as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seq));
        let offset = z % spread;
        let base = self.config.hold.as_ps().saturating_sub(spread / 2);
        Span::from_ps(base + offset)
    }

    /// Number of host cores the device is provisioned for.
    pub fn core_count(&self) -> usize {
        self.replay.len()
    }

    /// Builds a device for a *recording* run: no pre-recorded traces (every
    /// request is served on-demand, still honouring the configured hold),
    /// while the arrival order of requests is captured into `trace` — the
    /// paper's first-of-two-runs methodology.
    pub fn new_recording(
        dataset: Rc<RefCell<ByteStore>>,
        cores: usize,
        config: DeviceConfig,
        trace: Rc<RefCell<AccessTrace>>,
    ) -> Rc<RefCell<DeviceCore>> {
        let this = DeviceCore::new(dataset, vec![CoreTrace::new(); cores], config);
        this.borrow_mut().recorder = Some(trace);
        this
    }

    /// Kicks off the replay streamers (idempotent; also pumped lazily).
    pub fn start_streaming(this: &Rc<RefCell<DeviceCore>>, sim: &mut Sim) {
        let streamers = this.borrow().streamers.clone();
        for s in streamers {
            ReplayStreamer::pump(&s, sim);
        }
    }

    /// Per-core replay statistics `(matched, out_of_order, aged_out, misses)`.
    pub fn replay_stats(&self, core: usize) -> (u64, u64, u64, u64) {
        let r = &self.replay[core];
        (r.matched.get(), r.out_of_order_matches.get(), r.aged_out.get(), r.misses.get())
    }

    /// The line's contents in the on-board dataset copy: the data a
    /// response to a request for `line` carries.
    pub fn line_data(&self, line: LineAddr) -> LineData {
        self.dataset.borrow().read_line(line.base())
    }

    /// Serves one request from host core `core` for `line`, arriving now.
    /// `respond` fires when the response should start its journey back;
    /// [`line_data`](DeviceCore::line_data) reads what it carries.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn serve(this: &Rc<RefCell<DeviceCore>>, sim: &mut Sim, core: usize, line: LineAddr, respond: Callback) {
        let arrival = sim.now();
        let (outcome, streamer, finish) = {
            let mut d = this.borrow_mut();
            assert!(core < d.replay.len(), "core {core} out of range");
            if let Some(rec) = &d.recorder {
                rec.borrow_mut().record(core, line);
            }
            let seq = d.serve_seq[core];
            d.serve_seq[core] += 1;
            let outcome = d.replay[core].lookup(line);
            let mut hold = d.jittered_hold(core, seq);
            // Injected latency spike: the device internals fell behind for
            // this request, inflating its service time past the hold.
            if let Some(faults) = &d.faults {
                if let Some(spike) = faults.borrow_mut().latency_spike() {
                    hold += spike;
                }
            }
            d.tracer.instant(
                EventName::DevReq,
                200 + core as u32,
                line.index(),
                matches!(outcome, MatchOutcome::Replayed { .. }) as u64,
            );
            let key = d.requests.park(Request { core, line, arrival, deadline: arrival + hold, respond });
            (outcome, d.streamers[core].clone(), Callback::new(DeviceCore::fetched, this.clone(), key))
        };
        match outcome {
            MatchOutcome::Replayed { index } => {
                this.borrow_mut().replayed.incr();
                ReplayStreamer::when_available(&streamer, sim, index, finish);
            }
            MatchOutcome::OnDemand => {
                let mut d = this.borrow_mut();
                d.ondemand_served.incr();
                d.ondemand.read(sim, finish);
            }
        }
    }

    /// Request `key`'s data is on hand: count the response (and whether
    /// the internals made it late), then hold it until its deadline.
    fn fetched(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let this = component::<RefCell<DeviceCore>>(this);
        let release = {
            let mut d = this.borrow_mut();
            d.responses.incr();
            let (core, line, deadline) = {
                let r = d.requests.get(key);
                (r.core, r.line, r.deadline)
            };
            if sim.now() > deadline {
                d.deadline_misses.incr();
                d.tracer.instant(
                    EventName::DevDeadlineMiss,
                    200 + core as u32,
                    line.index(),
                    (sim.now() - deadline).as_ps(),
                );
            }
            deadline.max(sim.now())
        };
        sim.schedule_callback_at(release, Callback::new(DeviceCore::release, this, key));
    }

    /// Request `key`'s response leaves the device.
    fn release(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let this = component::<RefCell<DeviceCore>>(this);
        let respond = {
            let mut d = this.borrow_mut();
            let r = d.requests.take(key);
            d.tracer.complete_since(EventName::DevResp, 200 + r.core as u32, r.arrival, r.line.index());
            r.respond
        };
        respond.call(sim);
    }

    /// The shared streaming channel (for occupancy statistics).
    pub fn stream_channel(&self) -> &Rc<RefCell<Station>> {
        &self.stream_channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_mem::Addr;
    use std::cell::Cell;

    fn l(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn setup(trace: Vec<u64>, hold_ns: u64) -> (Sim, Rc<RefCell<DeviceCore>>) {
        let mut sim = Sim::new();
        let mut store = ByteStore::new(64 * 1024);
        for i in 0..1000u64 {
            store.write_u64(Addr::new(i * 64), i + 1000);
        }
        let dataset = Rc::new(RefCell::new(store));
        let traces = vec![CoreTrace::from_lines(trace.into_iter().map(l).collect())];
        let dev = DeviceCore::new(dataset, traces, DeviceConfig::with_hold(Span::from_ns(hold_ns)));
        DeviceCore::start_streaming(&dev, &mut sim);
        sim.run();
        (sim, dev)
    }

    fn one_request(sim: &mut Sim, dev: &Rc<RefCell<DeviceCore>>, line: u64) -> (u64, u64) {
        let out = Rc::new(Cell::new((0u64, 0u64)));
        let o = out.clone();
        let t0 = sim.now();
        let d = dev.clone();
        DeviceCore::serve(
            dev,
            sim,
            0,
            l(line),
            Callback::boxed(move |sim| {
                let data = d.borrow().line_data(l(line));
                let v = u64::from_le_bytes(data[0..8].try_into().unwrap());
                o.set(((sim.now() - t0).as_ns(), v));
            }),
        );
        sim.run();
        out.get()
    }

    #[test]
    fn replayed_request_released_after_hold_with_correct_data() {
        let (mut sim, dev) = setup(vec![3, 4, 5], 500);
        let (elapsed, value) = one_request(&mut sim, &dev, 3);
        assert_eq!(elapsed, 500);
        assert_eq!(value, 1003);
        assert_eq!(dev.borrow().replayed.get(), 1);
        assert_eq!(dev.borrow().deadline_misses.get(), 0);
    }

    #[test]
    fn spurious_request_served_on_demand_with_correct_data() {
        let (mut sim, dev) = setup(vec![3, 4, 5], 500);
        let (elapsed, value) = one_request(&mut sim, &dev, 777);
        // On-demand DRAM (160 ns) still fits inside the 500 ns hold.
        assert_eq!(elapsed, 500);
        assert_eq!(value, 1777);
        assert_eq!(dev.borrow().ondemand_served.get(), 1);
        assert_eq!(dev.borrow().deadline_misses.get(), 0);
    }

    #[test]
    fn tiny_hold_exposes_internal_latency() {
        let (mut sim, dev) = setup(vec![3], 1);
        // Entry 3 is pre-streamed, so the replay path is instant even with a
        // 1 ns hold...
        let (elapsed, _) = one_request(&mut sim, &dev, 3);
        assert_eq!(elapsed, 1);
        // ...but an on-demand request cannot beat its DRAM channel.
        let (elapsed2, _) = one_request(&mut sim, &dev, 500);
        assert_eq!(elapsed2, 160);
        assert_eq!(dev.borrow().deadline_misses.get(), 1);
    }

    #[test]
    fn per_core_isolation() {
        let mut sim = Sim::new();
        let dataset = Rc::new(RefCell::new(ByteStore::new(64 * 1024)));
        let traces = vec![
            CoreTrace::from_lines(vec![l(1)]),
            CoreTrace::from_lines(vec![l(2)]),
        ];
        let dev = DeviceCore::new(dataset, traces, DeviceConfig::with_hold(Span::from_ns(100)));
        DeviceCore::start_streaming(&dev, &mut sim);
        sim.run();
        // Core 1's trace does not satisfy core 0's request.
        let done = Rc::new(Cell::new(false));
        let d2 = done.clone();
        DeviceCore::serve(&dev, &mut sim, 0, l(2), Callback::boxed(move |_| d2.set(true)));
        sim.run();
        assert!(done.get());
        assert_eq!(dev.borrow().ondemand_served.get(), 1, "line 2 is core 1's");
        assert_eq!(dev.borrow().replay_stats(0).3, 1, "core 0 replay missed");
    }
}
