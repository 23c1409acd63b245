//! Platform assembly: wires cores, executors, the interconnect, and the
//! device emulator into one experiment, following the paper's two-run
//! record/replay methodology.
//!
//! A device-backed run proceeds in two phases (unless disabled):
//!
//! 1. **Record** — the same workload runs against a device with no
//!    pre-loaded traces; every request is served by the on-demand module
//!    (still honouring the configured response delay) while its arrival
//!    order is recorded per core.
//! 2. **Replay** — the recorded sequences are "loaded into on-board DRAM"
//!    (become the replay modules' traces) and the measured run executes
//!    against the full replay datapath.
//!
//! Because the simulator is deterministic and the response-delay discipline
//! makes both phases time-identical, the recorded trace lines up with the
//! measured run — deviations (reordering, spurious requests) are absorbed
//! by the replay window exactly as on the real FPGA.

use std::cell::RefCell;
use std::rc::Rc;

use kus_cpu::{Core, FillPath};
use kus_device::{AccessTrace, DeviceConfig, DeviceCore, MmioDevice, RequestFetcher};
use kus_fiber::{Fifo, RoundRobin, SchedPolicy};
use kus_mem::station::Station;
use kus_mem::uncore::CreditQueue;
use kus_mem::{Backing, LINE_BYTES};
use kus_pcie::dma::DmaEngine;
use kus_pcie::link::{LinkDir, PcieLink};
use kus_pcie::tlp::Tlp;
use kus_sim::{FaultInjector, Sim, SimRng, TraceClass, Tracer};
use kus_swq::ring::QueuePair;

use crate::config::{ConfigError, PlatformConfig};
use crate::dataset::Dataset;
use crate::exec::{Executor, SwqState};
use crate::mechanism::Mechanism;
use crate::metrics::{DeviceReport, FaultReport, LinkReport, RunReport, TraceReport};
use crate::workload::Workload;

/// The assembled experiment platform.
#[derive(Debug, Clone)]
pub struct Platform {
    cfg: PlatformConfig,
}

enum Phase {
    Dram,
    DeviceRecord(Rc<RefCell<AccessTrace>>),
    DeviceReplay(Vec<kus_device::CoreTrace>),
}

impl Platform {
    /// Creates a platform from `cfg`, surfacing validation errors
    /// (a zero count, a software-queue run with a DRAM-backed dataset, an
    /// invalid fault plan — anything [`PlatformConfig::validate`]
    /// rejects). There is no panicking constructor: callers either handle
    /// the [`ConfigError`] or route runs through
    /// [`Experiment`](crate::Experiment), which carries it to its own
    /// fallible entry points.
    pub fn try_new(cfg: PlatformConfig) -> Result<Platform, ConfigError> {
        cfg.validate()?;
        Ok(Platform { cfg })
    }

    /// The configuration this platform runs.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// Builds the dataset and runs the workload (two phases for
    /// device-backed runs with the replay device enabled).
    pub fn run(&self, w: &mut dyn Workload) -> RunReport {
        let mut dataset = Dataset::new(self.cfg.dataset_bytes, self.cfg.seed);
        w.prepare(self.cfg.cores * self.cfg.smt, self.cfg.fibers_per_core);
        w.build(&mut dataset);
        // Only the measured (final) phase is traced: the record phase of a
        // two-phase run is methodology scaffolding, not a measurement. Every
        // optional class extends the base stream, so asking for one traces.
        let classes: Vec<TraceClass> = [
            (self.cfg.trace_deep, TraceClass::Deep),
            (self.cfg.profile, TraceClass::Profile),
            (self.cfg.causal, TraceClass::Causal),
        ]
        .into_iter()
        .filter_map(|(on, class)| on.then_some(class))
        .collect();
        let traced = (self.cfg.trace || !classes.is_empty()).then_some(&classes[..]);
        match self.cfg.backing {
            Backing::Dram => self.run_phase(w, &dataset, Phase::Dram, traced),
            Backing::Device => {
                let trace =
                    Rc::new(RefCell::new(AccessTrace::new(self.cfg.cores * self.cfg.smt)));
                if self.cfg.use_replay_device {
                    let _recording =
                        self.run_phase(w, &dataset, Phase::DeviceRecord(trace.clone()), None);
                    let traces = trace.borrow().clone().into_cores();
                    self.run_phase(w, &dataset, Phase::DeviceReplay(traces), traced)
                } else {
                    self.run_phase(w, &dataset, Phase::DeviceRecord(trace), traced)
                }
            }
        }
    }

    /// Runs the workload on this configuration's DRAM baseline twin
    /// (single-threaded, on-demand, data in DRAM).
    pub fn run_baseline(&self, w: &mut dyn Workload) -> RunReport {
        Platform::try_new(self.cfg.baseline_twin())
            .expect("baseline twin of a validated config is valid")
            .run(w)
    }

    fn run_phase(
        &self,
        w: &mut dyn Workload,
        dataset: &Dataset,
        phase: Phase,
        traced: Option<&[TraceClass]>,
    ) -> RunReport {
        let cfg = &self.cfg;
        // Pre-size the event slab for the platform's steady state: every
        // hardware context keeps a handful of events in flight (fiber step,
        // fill completion, timer). A pure performance hint — results are
        // bit-identical for any value.
        let contexts = cfg.cores * cfg.smt * cfg.fibers_per_core;
        let mut sim = Sim::with_event_capacity(contexts.saturating_mul(4).max(64));
        let store = dataset.store();

        // The tracer observes through a shared clock handle; it never
        // schedules events or draws randomness, so a traced run's report is
        // identical to an untraced one (locked down by tests/properties.rs).
        let tracer = traced.map_or_else(Tracer::off, |classes| Tracer::new(sim.now_handle(), classes));

        // One injector per phase, derived from the run seed: record and
        // replay phases see the same fault schedule, and an inert plan
        // never draws from the RNG, so fault-free runs are bit-identical
        // to a build without this subsystem.
        let injector = cfg.faults.is_active().then(|| {
            Rc::new(RefCell::new(FaultInjector::new(
                cfg.faults,
                &SimRng::from_seed(cfg.seed).split("faults"),
            )))
        });

        let host_dram = Station::new("host-dram", cfg.host_dram);
        let dram_credits = Rc::new(RefCell::new(CreditQueue::new("dram-path", cfg.dram_path_credits)));
        dram_credits
            .borrow_mut()
            .set_tracer(tracer.clone(), kus_profile::TRACK_DRAM_CREDITS);
        let dram_fill: FillPath = {
            let hd = host_dram.clone();
            Rc::new(move |sim: &mut Sim, _core, _line, done| Station::submit(&hd, sim, done))
        };

        // Device-side assembly (device-backed phases only).
        let mut link = None;
        let mut dev_core = None;
        let device_credits =
            Rc::new(RefCell::new(CreditQueue::new("device-path", cfg.device_path_credits)));
        device_credits
            .borrow_mut()
            .set_tracer(tracer.clone(), kus_profile::TRACK_DEVICE_CREDITS);
        let mut device_fill: Option<FillPath> = None;
        let fill_latency = Rc::new(RefCell::new(kus_sim::stats::SpanHistogram::new()));
        if !matches!(phase, Phase::Dram) {
            let l = PcieLink::new(cfg.link);
            if let Some(inj) = &injector {
                l.borrow_mut().set_fault_injector(inj.clone());
            }
            l.borrow_mut().set_tracer(tracer.clone());
            let hold = cfg.device_latency.saturating_sub(l.borrow().unloaded_read_rtt(LINE_BYTES));
            let dev_cfg = DeviceConfig {
                hold,
                jitter_spread: cfg.device_jitter,
                jitter_model: cfg.device_jitter_model,
                replay: cfg.replay,
                streamer: cfg.streamer,
                onboard: cfg.onboard,
            };
            let dc = match &phase {
                Phase::DeviceRecord(trace) => {
                    DeviceCore::new_recording(
                        store.clone(),
                        cfg.cores * cfg.smt,
                        dev_cfg,
                        trace.clone(),
                    )
                }
                Phase::DeviceReplay(traces) => {
                    DeviceCore::new(store.clone(), traces.clone(), dev_cfg)
                }
                Phase::Dram => unreachable!(),
            };
            if let Some(inj) = &injector {
                dc.borrow_mut().set_fault_injector(inj.clone());
            }
            dc.borrow_mut().set_tracer(tracer.clone());
            // Pre-load the streaming window before the measured run starts —
            // the paper DMA-loads the recorded sequence before the second run.
            DeviceCore::start_streaming(&dc, &mut sim);
            sim.run();

            if cfg.mechanism != Mechanism::SoftwareQueue {
                let mmio = MmioDevice::new(dc.clone(), l.clone());
                let hist = fill_latency.clone();
                device_fill = Some(Rc::new(move |sim: &mut Sim, core, line, done| {
                    let t_issue = sim.now();
                    let hist = hist.clone();
                    MmioDevice::read_line(
                        &mmio,
                        sim,
                        core,
                        line,
                        Box::new(move |sim, _data| {
                            hist.borrow_mut().record(sim.now() - t_issue);
                            done(sim)
                        }),
                    );
                }));
            }
            link = Some(l);
            dev_core = Some(dc);
        }

        let t0 = sim.now();

        // Per-core cores, executors, fibers (and SWQ plumbing). With SMT,
        // each hardware context is modelled as a sibling core with a
        // partitioned ROB and frontend sharing one LFB pool; the device
        // sees each context as its own requester (its own address stripe
        // and replay module), so `cores` here counts contexts.
        let mut cores = Vec::new();
        let mut execs = Vec::new();
        let mut qps = Vec::new();
        let mut shared_lfb: Option<std::rc::Rc<RefCell<kus_mem::LfbPool>>> = None;
        let mut sibling_cfg = cfg.core;
        if cfg.smt > 1 {
            sibling_cfg.rob_slots = (cfg.core.rob_slots / cfg.smt as u32).max(32);
            sibling_cfg.dispatch_width = (cfg.core.dispatch_width / cfg.smt as u32).max(1);
            sibling_cfg.emit_low_water_slots = sibling_cfg.rob_slots;
        }
        for c in 0..cfg.cores * cfg.smt {
            let (fill, credits) = match (cfg.backing, cfg.mechanism) {
                // The software-queue path never issues loads to the device;
                // its (unused) fill path is DRAM for safety.
                (Backing::Device, Mechanism::SoftwareQueue) | (Backing::Dram, _) => {
                    (dram_fill.clone(), dram_credits.clone())
                }
                (Backing::Device, _) => (
                    device_fill.clone().expect("device fill path assembled"),
                    device_credits.clone(),
                ),
            };
            let core = if cfg.smt > 1 {
                if c % cfg.smt == 0 {
                    shared_lfb =
                        Some(Rc::new(RefCell::new(kus_mem::LfbPool::new(cfg.core.lfb_count))));
                }
                Core::with_lfb(
                    c,
                    sibling_cfg,
                    credits,
                    fill,
                    shared_lfb.clone().expect("sibling pool created"),
                )
            } else {
                Core::new(c, cfg.core, credits, fill)
            };
            if cfg.backing == Backing::Device && cfg.mechanism != Mechanism::SoftwareQueue {
                // Posted stores travel to the device as MMIO write TLPs
                // (one line of payload); the device's dataset copy is
                // already updated in program order.
                let l = link.as_ref().expect("device run has a link").clone();
                core.borrow_mut().set_store_path(Rc::new(move |sim: &mut Sim, _core, _line| {
                    l.borrow_mut().send(
                        sim,
                        LinkDir::HostToDev,
                        Tlp::mem_write(LINE_BYTES),
                        Box::new(|_| {}),
                    );
                }));
            }
            core.borrow_mut().set_tracer(tracer.clone());
            let policy: Box<dyn SchedPolicy> = match cfg.mechanism {
                Mechanism::SoftwareQueue => Box::new(Fifo::new()),
                _ => Box::new(RoundRobin::new()),
            };
            let exec = Executor::new(
                core.clone(),
                cfg.mechanism,
                store.clone(),
                policy,
                cfg.ctx_switch,
            );
            exec.set_tracer(tracer.clone());

            if cfg.mechanism == Mechanism::SoftwareQueue {
                let qp = Rc::new(RefCell::new(QueuePair::new(cfg.swq_ring_capacity)));
                qp.borrow_mut().set_doorbell_always(cfg.swq_doorbell_every_enqueue);
                qp.borrow_mut().set_burst(cfg.swq_fetch_burst);
                let l = link.as_ref().expect("swq needs the link").clone();
                let dma = DmaEngine::new(l.clone(), host_dram.clone());
                let exec_hook = exec.swq_completion_hook();
                let hook: kus_device::CompletionHook =
                    Rc::new(move |sim: &mut Sim, cpl, _data| exec_hook(sim, cpl.tag));
                let fetcher = RequestFetcher::new(
                    c,
                    qp.clone(),
                    dev_core.as_ref().expect("swq needs the device").clone(),
                    dma,
                    hook,
                );
                if let Some(inj) = &injector {
                    fetcher.borrow_mut().set_fault_injector(inj.clone());
                }
                fetcher.borrow_mut().set_tracer(tracer.clone());
                // The doorbell: an MMIO write TLP to the device's per-core
                // doorbell register.
                let ring: Rc<dyn Fn(&mut Sim)> = {
                    let l = l.clone();
                    let inj = injector.clone();
                    Rc::new(move |sim: &mut Sim| {
                        let f = fetcher.clone();
                        // A lost doorbell still crosses the wire (the TLP is
                        // sent and paid for) but the register write never
                        // takes effect at the device.
                        let lost = inj.as_ref().is_some_and(|i| i.borrow_mut().drop_doorbell());
                        l.borrow_mut().send(
                            sim,
                            LinkDir::HostToDev,
                            Tlp::mem_write(8),
                            Box::new(move |sim| {
                                if !lost {
                                    RequestFetcher::on_doorbell(&f, sim);
                                }
                            }),
                        );
                    })
                };
                exec.set_swq(SwqState::new(qp.clone(), cfg.swq, ring));
                if cfg.swq_recovery.enabled {
                    exec.enable_swq_recovery(cfg.swq_recovery, cfg.swq_doorbell_every_enqueue);
                }
                qps.push(qp);
            }

            for f in 0..cfg.fibers_per_core {
                exec.spawn(|ctx| w.spawn(c, f, cfg.fibers_per_core, ctx));
            }
            exec.start(&mut sim);
            cores.push(core);
            execs.push(exec);
        }

        sim.set_event_budget(4_000_000_000);
        let outcome = sim.run();
        let alive: usize = execs.iter().map(|e| e.live()).sum();
        if alive != 0 {
            let mut dump = String::new();
            for core in &cores {
                dump.push_str(&core.borrow().debug_dump());
            }
            panic!(
                "run stalled ({outcome:?}): {alive} fibers alive at {} (workload {})\n{dump}",
                sim.now(),
                w.name()
            );
        }

        // Harvest statistics.
        let elapsed = sim.now() - t0;
        let mut work_insts = 0;
        let mut lfb_max = 0;
        for core in &cores {
            let c = core.borrow();
            work_insts += c.retired_work_insts.get();
            let m = c.lfb().borrow().occupancy().max();
            lfb_max = lfb_max.max(m);
        }
        let accesses: u64 = execs.iter().map(|e| e.accesses()).sum();
        let writes: u64 = execs.iter().map(|e| e.writes()).sum();
        let switches: u64 = execs.iter().map(|e| e.switches()).sum();
        let doorbells: u64 = qps.iter().map(|q| q.borrow().doorbells_rung.get()).sum();
        let device = dev_core.as_ref().map(|d| {
            let d = d.borrow();
            let mut replayed = 0;
            let mut ooo = 0;
            let mut misses = 0;
            for c in 0..d.core_count() {
                let (m, o, _aged, mi) = d.replay_stats(c);
                replayed += m;
                ooo += o;
                misses += mi;
            }
            let _ = misses;
            DeviceReport {
                responses: d.responses.get(),
                replayed,
                ondemand: d.ondemand_served.get(),
                deadline_misses: d.deadline_misses.get(),
                out_of_order: ooo,
            }
        });
        let link_report = link.as_ref().map(|l| {
            let l = l.borrow();
            let up = l.stats(LinkDir::DevToHost);
            let down = l.stats(LinkDir::HostToDev);
            LinkReport {
                up_wire_bytes: up.wire_bytes.get(),
                up_payload_bytes: up.payload_bytes.get(),
                down_wire_bytes: down.wire_bytes.get(),
                down_payload_bytes: down.payload_bytes.get(),
            }
        });
        let faults = (injector.is_some() || cfg.swq_recovery.enabled).then(|| {
            let mut fr = FaultReport::default();
            if let Some(inj) = &injector {
                let s = inj.borrow().stats;
                fr.latency_spikes = s.latency_spikes.get();
                fr.stalls = s.stalls.get();
                fr.dropped_completions = s.dropped_completions.get();
                fr.dup_completions = s.dup_completions.get();
                fr.dropped_doorbells = s.dropped_doorbells.get();
                fr.tlp_replays = s.tlp_replays.get();
            }
            fr.completion_overflows = qps.iter().map(|q| q.borrow().completion_overflows.get()).sum();
            fr.fiber_crashes = execs.iter().map(|e| e.fiber_crashes()).sum();
            for e in &execs {
                if let Some(r) = e.swq_recovery_stats() {
                    fr.timeouts += r.timeouts;
                    fr.retries += r.retries;
                    fr.failed += r.failed;
                    fr.stale_completions += r.stale_completions;
                    fr.degradations += r.degradations;
                    fr.restorations += r.restorations;
                }
            }
            fr
        });

        let (trace, profile) = if tracer.is_on() {
            // Move the buffer into the report: the stream is never copied.
            let events = tracer.take_events();
            // Profiled runs classify the measured window [t0, now] per
            // hardware context (sum-to-wall is asserted inside build).
            let profile = tracer.wants(TraceClass::Profile).then(|| {
                let ctx = kus_profile::ProfileContext {
                    cores: cfg.cores * cfg.smt,
                    fibers_per_core: cfg.fibers_per_core,
                    mechanism: cfg.mechanism.to_string(),
                    lfb_capacity: cfg.core.lfb_count as u64,
                    ring_capacity: cfg.swq_ring_capacity as u64,
                    device_path_credits: cfg.device_path_credits as u64,
                    ctx_switch: cfg.ctx_switch,
                    window_start: t0,
                    window_end: sim.now(),
                    sched_stall_handoffs: execs.iter().map(|e| e.stall_handoffs()).sum(),
                };
                kus_profile::ProfileReport::build(&events, ctx)
            });
            (Some(TraceReport::build(events)), profile)
        } else {
            (None, None)
        };

        let report = RunReport {
            workload: w.name(),
            mechanism: cfg.mechanism,
            backing: cfg.backing,
            device_latency: cfg.device_latency,
            cores: cfg.cores,
            fibers_per_core: cfg.fibers_per_core,
            clock: cfg.core.clock,
            elapsed,
            sim_events: sim.executed(),
            work_insts,
            accesses,
            writes,
            switches,
            doorbells,
            lfb_max,
            device_path_max: device_credits.borrow().occupancy().max(),
            fill_latency: (fill_latency.borrow().count() > 0)
                .then(|| fill_latency.borrow().clone()),
            device,
            link: link_report,
            faults,
            trace,
            profile,
        };
        report
    }
}

#[cfg(test)]
mod tests {
    use std::future::Future;

    use super::*;
    use crate::exec::MemCtx;
    use crate::workload::FiberFuture;
    use kus_mem::Addr;

    /// Every fiber reads a few lines and holds a clone of `sentinel` for as
    /// long as the fiber itself exists, finished or not.
    struct Sentinel {
        base: Addr,
        sentinel: Rc<()>,
    }

    impl Workload for Sentinel {
        fn name(&self) -> &'static str {
            "sentinel"
        }

        fn build(&mut self, data: &mut Dataset) {
            self.base = data.alloc_lines(64).expect("room for 64 lines");
        }

        fn spawn(&self, core: usize, fiber: usize, fibers: usize, ctx: MemCtx) -> FiberFuture {
            let (base, held) = (self.base, self.sentinel.clone());
            let mut body = Box::pin(async move {
                for i in 0..4 {
                    let slot = ((core * fibers + fiber) * 4 + i) as u64;
                    let _ = ctx.dev_read_u64(base + slot * LINE_BYTES).await;
                }
            });
            // An async block drops what it captured when it finishes; the
            // poll closure keeps `held` until the fiber is dropped.
            Box::pin(std::future::poll_fn(move |cx| {
                assert!(Rc::strong_count(&held) > 1, "the workload still holds the sentinel");
                body.as_mut().poll(cx)
            }))
        }
    }

    /// A finished run frees its platform: once `run` returns, nothing of
    /// the run (cores, executors, fibers, device) still holds what the
    /// fibers captured. The software-queue path once leaked all of it
    /// through an `Rc` cycle between an executor and its request fetcher.
    #[test]
    fn finished_runs_free_their_platform() {
        for mech in [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue] {
            let cfg = PlatformConfig::paper_default()
                .without_replay_device()
                .mechanism(mech)
                .cores(2)
                .fibers_per_core(2)
                .dataset_bytes(1 << 20);
            let mut w = Sentinel { base: Addr::ZERO, sentinel: Rc::new(()) };
            let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
            assert_eq!(r.accesses, 16, "{mech}");
            assert_eq!(Rc::strong_count(&w.sentinel), 1, "{mech}: the run leaked its fibers");
        }
    }
}
