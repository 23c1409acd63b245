//! The device-side DMA engine.
//!
//! In the software-managed-queue interface the device does all the moving:
//! it DMA-reads descriptors out of host memory, DMA-writes response data to
//! the response buffers, and DMA-writes completion entries. Every one of
//! those is a TLP on the shared link plus (for reads) a host DRAM access —
//! the per-access transaction count the paper blames for wasting half the
//! PCIe bandwidth.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::station::Station;
use kus_sim::callback::{component, Callback, Handler, Parked};
use kus_sim::stats::Counter;
use kus_sim::Sim;

use crate::link::{LinkDir, PcieLink};
use crate::tlp::Tlp;

/// A device-side DMA engine bound to a link and the host's DRAM.
///
/// # Examples
///
/// ```
/// use kus_pcie::dma::DmaEngine;
/// use kus_pcie::link::{LinkConfig, PcieLink};
/// use kus_mem::station::{Station, StationConfig};
/// use kus_sim::{Callback, Sim};
/// use std::{cell::Cell, rc::Rc};
///
/// let mut sim = Sim::new();
/// let link = PcieLink::new(LinkConfig::gen2_x8());
/// let dram = Station::new("host-dram", StationConfig::host_dram());
/// let dma = DmaEngine::new(link, dram);
/// let done = Rc::new(Cell::new(false));
/// let d = done.clone();
/// DmaEngine::read(&dma, &mut sim, 128, Callback::boxed(move |_| d.set(true)));
/// sim.run();
/// assert!(done.get());
/// ```
#[derive(Debug)]
pub struct DmaEngine {
    link: Rc<RefCell<PcieLink>>,
    host_dram: Rc<RefCell<Station>>,
    /// The transfers in flight: a read's size and continuation, or a
    /// write's continuation.
    inflight: Parked<(u64, Callback)>,
    /// DMA reads issued.
    pub reads: Counter,
    /// DMA writes issued.
    pub writes: Counter,
}

impl DmaEngine {
    /// Creates an engine bound to `link` and `host_dram`, wrapped for shared
    /// use.
    pub fn new(link: Rc<RefCell<PcieLink>>, host_dram: Rc<RefCell<Station>>) -> Rc<RefCell<DmaEngine>> {
        Rc::new(RefCell::new(DmaEngine {
            link,
            host_dram,
            inflight: Parked::new(),
            reads: Counter::default(),
            writes: Counter::default(),
        }))
    }

    /// DMA-reads `bytes` from host memory: read request up, host DRAM access,
    /// completion-with-data back down. `on_data` fires when the data reaches
    /// the device.
    pub fn read(this: &Rc<RefCell<DmaEngine>>, sim: &mut Sim, bytes: u64, on_data: Callback) {
        DmaEngine::send_up(this, sim, Tlp::mem_read(), (bytes, on_data), DmaEngine::read_arrived);
    }

    /// DMA-writes `bytes` to host memory (posted). `on_delivered` fires when
    /// the write reaches the root complex; host DRAM write occupancy is
    /// charged but not waited on (posted-write semantics).
    pub fn write(this: &Rc<RefCell<DmaEngine>>, sim: &mut Sim, bytes: u64, on_delivered: Callback) {
        DmaEngine::send_up(this, sim, Tlp::mem_write(bytes), (0, on_delivered), DmaEngine::write_arrived);
    }

    /// Sends `tlp` towards the host with `transfer` parked until
    /// `arrived` runs at the root complex.
    fn send_up(
        this: &Rc<RefCell<DmaEngine>>,
        sim: &mut Sim,
        tlp: Tlp,
        transfer: (u64, Callback),
        arrived: Handler,
    ) {
        let (link, key) = {
            let mut d = this.borrow_mut();
            (d.link.clone(), d.inflight.park(transfer))
        };
        link.borrow_mut().send(sim, LinkDir::DevToHost, tlp, Callback::new(arrived, this.clone(), key));
    }

    /// A read request arrived at the root complex: read host DRAM, then
    /// return a completion with the data.
    fn read_arrived(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let dma = component::<RefCell<DmaEngine>>(this);
        let dram = dma.borrow().host_dram.clone();
        Station::submit(&dram, sim, Callback::new(DmaEngine::read_served, dma, key));
    }

    fn read_served(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let dma = component::<RefCell<DmaEngine>>(this);
        let (link, (bytes, on_data)) = {
            let mut d = dma.borrow_mut();
            (d.link.clone(), d.inflight.take(key))
        };
        link.borrow_mut().send(sim, LinkDir::HostToDev, Tlp::completion(bytes), on_data);
    }

    /// A posted write arrived: occupy the DRAM channel for it, but complete
    /// it at once.
    fn write_arrived(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let dma = component::<RefCell<DmaEngine>>(this);
        let (dram, (_, on_delivered)) = {
            let mut d = dma.borrow_mut();
            (d.host_dram.clone(), d.inflight.take(key))
        };
        Station::submit(&dram, sim, Callback::noop());
        on_delivered.call(sim);
    }

    /// Record a DMA read in the engine's counters (callers that want
    /// aggregate statistics call this alongside [`read`](Self::read)).
    pub fn count_read(&mut self) {
        self.reads.incr();
    }

    /// Record a DMA write in the engine's counters.
    pub fn count_write(&mut self) {
        self.writes.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kus_mem::station::StationConfig;
    use kus_sim::Span;
    use std::cell::Cell;

    fn setup() -> (Sim, Rc<RefCell<PcieLink>>, Rc<RefCell<DmaEngine>>) {
        let sim = Sim::new();
        let link = PcieLink::new(crate::link::LinkConfig::gen2_x8());
        let dram = Station::new("host-dram", StationConfig::host_dram());
        let dma = DmaEngine::new(link.clone(), dram);
        (sim, link, dma)
    }

    #[test]
    fn read_includes_link_and_dram() {
        let (mut sim, link, dma) = setup();
        let at = Rc::new(Cell::new(0u64));
        let a = at.clone();
        DmaEngine::read(&dma, &mut sim, 64, Callback::boxed(move |sim| a.set(sim.now().as_ns())));
        sim.run();
        // Lower bound: unloaded RTT + DRAM latency.
        let min = link.borrow().unloaded_read_rtt(64).as_ns() + 100;
        assert!(at.get() >= min, "{} < {min}", at.get());
        assert!(at.get() < min + 50);
    }

    #[test]
    fn write_is_posted() {
        let (mut sim, _link, dma) = setup();
        let at = Rc::new(Cell::new(0u64));
        let a = at.clone();
        DmaEngine::write(&dma, &mut sim, 64, Callback::boxed(move |sim| a.set(sim.now().as_ns())));
        sim.run_until({
            let at = at.clone();
            move || at.get() != 0
        });
        // One-way: serialization (88B * 0.25ns = 22ns) + propagation 375ns.
        assert_eq!(at.get(), 397);
    }

    #[test]
    fn reads_share_upstream_bandwidth_with_writes() {
        let (mut sim, link, dma) = setup();
        for _ in 0..10 {
            DmaEngine::write(&dma, &mut sim, 64, Callback::noop());
        }
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        DmaEngine::read(&dma, &mut sim, 64, Callback::boxed(move |sim| d.set(sim.now().as_ns())));
        sim.run();
        // The read request queued behind 10 writes (10 * 22ns of serialization).
        let stats = link.borrow().stats(LinkDir::DevToHost);
        assert_eq!(stats.tlps.get(), 11);
        assert!(done.get() > Span::from_ns(220 + 375).as_ns());
    }
}
