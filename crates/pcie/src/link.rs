//! The PCIe link model: two independently-serialized directions with
//! bandwidth, propagation delay, and byte accounting.
//!
//! The reproduced platform connects the device emulator over **PCIe Gen2 x8**:
//! ≈4 GB/s per direction of usable transaction-layer bandwidth and an
//! unloaded round-trip of ≈800 ns. Both directions carry mixed traffic —
//! host→device holds the host's reads/writes *and* completions for the
//! device's DMA; device→host holds DMA requests/writes *and* completions for
//! the host's reads — so saturating either direction degrades everything on
//! it, which is precisely the Fig. 8 effect.

use std::cell::RefCell;
use std::rc::Rc;

use kus_sim::event::EventFn;
use kus_sim::stats::Counter;
use kus_sim::trace::{Category, TraceClass};
use kus_sim::{FaultInjector, Sim, Span, Time, Tracer};

use crate::tlp::Tlp;

/// Configuration of one link direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Serialization cost per byte on the wire.
    pub ps_per_byte: u64,
    /// Propagation (flight) delay, paid once per packet.
    pub propagation: Span,
}

impl LinkConfig {
    /// PCIe Gen2 x8: 4 GB/s per direction (250 ps/B), with a propagation
    /// delay chosen so the unloaded 64-byte-read round trip is ≈800 ns as the
    /// paper measured.
    pub fn gen2_x8() -> LinkConfig {
        LinkConfig { ps_per_byte: 250, propagation: Span::from_ns(375) }
    }

    /// The direction's raw bandwidth in bytes/second.
    pub fn bytes_per_sec(&self) -> f64 {
        1e12 / self.ps_per_byte as f64
    }

    /// Serialization time of `bytes` on the wire.
    pub fn serialize(&self, bytes: u64) -> Span {
        Span::from_ps(self.ps_per_byte * bytes)
    }
}

/// Byte/packet accounting for one direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectionStats {
    /// Packets sent.
    pub tlps: Counter,
    /// Total bytes on the wire (headers + payload).
    pub wire_bytes: Counter,
    /// Payload bytes only ("useful data").
    pub payload_bytes: Counter,
}

#[derive(Debug)]
struct Direction {
    config: LinkConfig,
    busy_until: Time,
    stats: DirectionStats,
}

impl Direction {
    fn new(config: LinkConfig) -> Direction {
        Direction { config, busy_until: Time::ZERO, stats: DirectionStats::default() }
    }

    /// Returns the arrival time of `tlp` if sent now. A replayed TLP is
    /// serialized `1 + replays` times (as after an LCRC error and ack
    /// timeout): it holds the wire longer and arrives after its final copy.
    fn send(&mut self, now: Time, tlp: Tlp, replays: u64) -> Time {
        let start = now.max(self.busy_until);
        let ser = self.config.serialize(tlp.wire_bytes());
        let copies = 1 + replays;
        self.busy_until = start + ser * copies;
        // Every copy burns wire bytes; the payload is only delivered once.
        self.stats.tlps.add(copies);
        self.stats.wire_bytes.add(tlp.wire_bytes() * copies);
        self.stats.payload_bytes.add(tlp.payload_bytes());
        start + ser * copies + self.config.propagation
    }
}

/// Which way a packet travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDir {
    /// Root complex → device (host requests; completions for device DMA).
    HostToDev,
    /// Device → root complex (DMA requests/writes; completions for host reads).
    DevToHost,
}

/// A full-duplex PCIe link.
///
/// # Examples
///
/// ```
/// use kus_pcie::link::{LinkConfig, LinkDir, PcieLink};
/// use kus_pcie::tlp::Tlp;
/// use kus_sim::Sim;
/// use std::{cell::Cell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let link = PcieLink::new(LinkConfig::gen2_x8());
/// let arrived = Rc::new(Cell::new(0u64));
/// let a = arrived.clone();
/// link.borrow_mut().send(&mut sim, LinkDir::HostToDev, Tlp::mem_read(),
///     Box::new(move |sim| a.set(sim.now().as_ns())));
/// sim.run();
/// assert_eq!(arrived.get(), 381); // 24 B * 0.25 ns + 375 ns propagation
/// ```
#[derive(Debug)]
pub struct PcieLink {
    host_to_dev: Direction,
    dev_to_host: Direction,
    faults: Option<Rc<RefCell<FaultInjector>>>,
    tracer: Tracer,
}

impl PcieLink {
    /// Creates a link with identical per-direction configuration, wrapped for
    /// shared use.
    pub fn new(config: LinkConfig) -> Rc<RefCell<PcieLink>> {
        Rc::new(RefCell::new(PcieLink {
            host_to_dev: Direction::new(config),
            dev_to_host: Direction::new(config),
            faults: None,
            tracer: Tracer::off(),
        }))
    }

    /// Attaches a fault injector; TLPs may then be replayed on the wire
    /// according to its plan.
    pub fn set_fault_injector(&mut self, injector: Rc<RefCell<FaultInjector>>) {
        self.faults = Some(injector);
    }

    /// Attaches a tracer. TLPs are traced on tracks 300 (host→dev) and
    /// 301 (dev→host).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn dir(&mut self, dir: LinkDir) -> &mut Direction {
        match dir {
            LinkDir::HostToDev => &mut self.host_to_dev,
            LinkDir::DevToHost => &mut self.dev_to_host,
        }
    }

    /// Sends `tlp` in direction `dir`; `on_arrive` fires at the far end.
    pub fn send(&mut self, sim: &mut Sim, dir: LinkDir, tlp: Tlp, on_arrive: EventFn) {
        let replays = match &self.faults {
            Some(f) if f.borrow_mut().tlp_replay() => 1,
            _ => 0,
        };
        if self.tracer.is_on() {
            let track = match dir {
                LinkDir::HostToDev => 300,
                LinkDir::DevToHost => 301,
            };
            self.tracer.instant(Category::Pcie, "tlp.send", track, tlp.wire_bytes(), tlp.payload_bytes());
            if replays > 0 {
                self.tracer.instant(Category::Pcie, "tlp.replay", track, tlp.wire_bytes(), replays);
            }
            if self.tracer.wants(TraceClass::Profile) {
                // Time this packet will sit behind earlier traffic on the
                // same direction before its first wire byte.
                let queued = self.dir(dir).busy_until;
                let now = sim.now();
                if queued > now {
                    self.tracer.instant(Category::Pcie, "tlp.queue", track, (queued - now).as_ps(), 0);
                }
            }
        }
        let at = self.dir(dir).send(sim.now(), tlp, replays);
        sim.schedule_at(at, on_arrive);
    }

    /// Per-direction accounting.
    pub fn stats(&self, dir: LinkDir) -> DirectionStats {
        match dir {
            LinkDir::HostToDev => self.host_to_dev.stats,
            LinkDir::DevToHost => self.dev_to_host.stats,
        }
    }

    /// The configuration of direction `dir`.
    pub fn config(&self, dir: LinkDir) -> LinkConfig {
        match dir {
            LinkDir::HostToDev => self.host_to_dev.config,
            LinkDir::DevToHost => self.dev_to_host.config,
        }
    }

    /// The unloaded round trip of a read of `payload` bytes: request
    /// serialization + propagation, plus completion serialization +
    /// propagation. Device-side processing is not included.
    pub fn unloaded_read_rtt(&self, payload: u64) -> Span {
        let req = self.host_to_dev.config.serialize(Tlp::mem_read().wire_bytes())
            + self.host_to_dev.config.propagation;
        let cpl = self.dev_to_host.config.serialize(Tlp::completion(payload).wire_bytes())
            + self.dev_to_host.config.propagation;
        req + cpl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn send_collect(
        link: &Rc<RefCell<PcieLink>>,
        sim: &mut Sim,
        dir: LinkDir,
        tlp: Tlp,
    ) -> Rc<Cell<u64>> {
        let t = Rc::new(Cell::new(u64::MAX));
        let t2 = t.clone();
        link.borrow_mut().send(sim, dir, tlp, Box::new(move |sim| t2.set(sim.now().as_ns())));
        t
    }

    #[test]
    fn unloaded_rtt_near_800ns() {
        let link = PcieLink::new(LinkConfig::gen2_x8());
        let rtt = link.borrow().unloaded_read_rtt(64);
        let ns = rtt.as_ns();
        assert!((750..=850).contains(&ns), "rtt {ns}ns");
    }

    #[test]
    fn directions_are_independent() {
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig::gen2_x8());
        let a = send_collect(&link, &mut sim, LinkDir::HostToDev, Tlp::mem_read());
        let b = send_collect(&link, &mut sim, LinkDir::DevToHost, Tlp::mem_read());
        sim.run();
        // Both serialize from t=0: no cross-direction contention.
        assert_eq!(a.get(), b.get());
    }

    #[test]
    fn same_direction_serializes() {
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig { ps_per_byte: 1000, propagation: Span::ZERO });
        // Two 24-byte packets at 1 ns/B: arrivals at 24 ns and 48 ns.
        let a = send_collect(&link, &mut sim, LinkDir::HostToDev, Tlp::mem_read());
        let b = send_collect(&link, &mut sim, LinkDir::HostToDev, Tlp::mem_read());
        sim.run();
        assert_eq!(a.get(), 24);
        assert_eq!(b.get(), 48);
    }

    #[test]
    fn bandwidth_accounting() {
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig::gen2_x8());
        for _ in 0..10 {
            let _ = send_collect(&link, &mut sim, LinkDir::DevToHost, Tlp::completion(64));
        }
        sim.run();
        let stats = link.borrow().stats(LinkDir::DevToHost);
        assert_eq!(stats.tlps.get(), 10);
        assert_eq!(stats.wire_bytes.get(), 880);
        assert_eq!(stats.payload_bytes.get(), 640);
        let up = link.borrow().stats(LinkDir::HostToDev);
        assert_eq!(up.tlps.get(), 0);
    }

    #[test]
    fn config_bandwidth() {
        let c = LinkConfig::gen2_x8();
        assert!((c.bytes_per_sec() - 4e9).abs() < 1.0);
        assert_eq!(c.serialize(64), Span::from_ns(16));
    }

    #[test]
    fn tlp_replay_serializes_twice() {
        use kus_sim::{FaultPlan, SimRng};
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig { ps_per_byte: 1000, propagation: Span::ZERO });
        let inj = FaultInjector::new(
            FaultPlan::none().with_tlp_replays(1.0),
            &SimRng::from_seed(1),
        );
        link.borrow_mut().set_fault_injector(Rc::new(RefCell::new(inj)));
        // 24-byte read at 1 ns/B, replayed once: arrival at 48 ns, both
        // copies accounted on the wire, payload counted once.
        let a = send_collect(&link, &mut sim, LinkDir::HostToDev, Tlp::mem_read());
        sim.run();
        assert_eq!(a.get(), 48);
        let stats = link.borrow().stats(LinkDir::HostToDev);
        assert_eq!(stats.tlps.get(), 2);
        assert_eq!(stats.wire_bytes.get(), 48);
        assert_eq!(stats.payload_bytes.get(), 0);
    }

    #[test]
    fn saturated_direction_backs_up() {
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig { ps_per_byte: 250, propagation: Span::ZERO });
        // 100 completions of 88B wire bytes = 22ns each => last arrives at 2200ns.
        let mut last = Rc::new(Cell::new(0));
        for _ in 0..100 {
            last = send_collect(&link, &mut sim, LinkDir::DevToHost, Tlp::completion(64));
        }
        sim.run();
        assert_eq!(last.get(), 2200);
    }
}
