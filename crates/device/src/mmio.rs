//! The memory-mapped interface: the device as cacheable BAR memory.
//!
//! For the on-demand and prefetch mechanisms the emulator "is exposed to the
//! host as a cache-line addressable memory, accessible using standard memory
//! instructions" — the host maps the BAR cacheable (via MTRRs) and every
//! load/prefetch miss becomes a PCIe read of one 64-byte line. This module
//! carries such a request across the link, through the device datapath, and
//! back.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::{LineAddr, LINE_BYTES};
use kus_pcie::link::{LinkDir, PcieLink};
use kus_pcie::tlp::Tlp;
use kus_sim::callback::{component, Callback, Parked};
use kus_sim::stats::Counter;
use kus_sim::Sim;

use crate::core::DeviceCore;

/// The device behind its memory-mapped (BAR) interface.
#[derive(Debug)]
pub struct MmioDevice {
    core: Rc<RefCell<DeviceCore>>,
    link: Rc<RefCell<PcieLink>>,
    /// The reads in flight: the requesting host core, the line, and the
    /// continuation to run when the data is back.
    inflight: Parked<(usize, LineAddr, Callback)>,
    /// Line reads served.
    pub reads: Counter,
}

impl MmioDevice {
    /// Exposes `core` over `link`, wrapped for shared use.
    pub fn new(core: Rc<RefCell<DeviceCore>>, link: Rc<RefCell<PcieLink>>) -> Rc<RefCell<MmioDevice>> {
        Rc::new(RefCell::new(MmioDevice { core, link, inflight: Parked::new(), reads: Counter::default() }))
    }

    /// The device datapath (for statistics).
    pub fn device_core(&self) -> &Rc<RefCell<DeviceCore>> {
        &self.core
    }

    /// Performs one cache-line read on behalf of host core `host_core`:
    /// MRd TLP down, datapath service + hold, CplD back up. `on_data` fires
    /// when the completion reaches the host's root complex; the line's
    /// contents are [`DeviceCore::line_data`].
    pub fn read_line(
        this: &Rc<RefCell<MmioDevice>>,
        sim: &mut Sim,
        host_core: usize,
        line: LineAddr,
        on_data: Callback,
    ) {
        let (link, key) = {
            let mut d = this.borrow_mut();
            d.reads.incr();
            (d.link.clone(), d.inflight.park((host_core, line, on_data)))
        };
        let arrived = Callback::new(MmioDevice::request_arrived, this.clone(), key);
        link.borrow_mut().send(sim, LinkDir::HostToDev, Tlp::mem_read(), arrived);
    }

    /// Read `key`'s request reached the device: serve it.
    fn request_arrived(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let this = component::<RefCell<MmioDevice>>(this);
        let (core, host_core, line) = {
            let d = this.borrow();
            let &(host_core, line, _) = d.inflight.get(key);
            (d.core.clone(), host_core, line)
        };
        DeviceCore::serve(&core, sim, host_core, line, Callback::new(MmioDevice::respond, this, key));
    }

    /// Read `key`'s response leaves the device: the completion goes up.
    fn respond(sim: &mut Sim, this: Rc<dyn Any>, key: u64) {
        let this = component::<RefCell<MmioDevice>>(this);
        let (link, (_, _, on_data)) = {
            let mut d = this.borrow_mut();
            (d.link.clone(), d.inflight.take(key))
        };
        link.borrow_mut().send(sim, LinkDir::DevToHost, Tlp::completion(LINE_BYTES), on_data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::DeviceConfig;
    use crate::trace::CoreTrace;
    use kus_mem::{Addr, ByteStore};
    use kus_pcie::link::LinkConfig;
    use kus_sim::Span;
    use std::cell::Cell;

    fn l(i: u64) -> LineAddr {
        LineAddr::from_index(i)
    }

    fn setup(latency_ns: u64) -> (Sim, Rc<RefCell<MmioDevice>>, Rc<RefCell<PcieLink>>) {
        let mut sim = Sim::new();
        let link = PcieLink::new(LinkConfig::gen2_x8());
        let mut store = ByteStore::new(64 * 1024);
        for i in 0..1000u64 {
            store.write_u64(Addr::new(i * 64), i);
        }
        let rtt = link.borrow().unloaded_read_rtt(LINE_BYTES);
        let hold = Span::from_ns(latency_ns).saturating_sub(rtt);
        let core = DeviceCore::new(
            Rc::new(RefCell::new(store)),
            vec![CoreTrace::from_lines((0..1000).map(l).collect())],
            DeviceConfig::with_hold(hold),
        );
        DeviceCore::start_streaming(&core, &mut sim);
        sim.run();
        let dev = MmioDevice::new(core, link.clone());
        (sim, dev, link)
    }

    /// The first word of `line` as the device's responses carry it.
    fn word(dev: &Rc<RefCell<MmioDevice>>, line: LineAddr) -> u64 {
        let data = dev.borrow().device_core().borrow().line_data(line);
        u64::from_le_bytes(data[0..8].try_into().unwrap())
    }

    #[test]
    fn host_observed_latency_matches_configuration() {
        let (mut sim, dev, _) = setup(1000);
        let done = Rc::new(Cell::new((0u64, 0u64)));
        let d = done.clone();
        let t0 = sim.now();
        let dev2 = dev.clone();
        MmioDevice::read_line(
            &dev,
            &mut sim,
            0,
            l(0),
            Callback::boxed(move |sim| d.set(((sim.now() - t0).as_ns(), word(&dev2, l(0))))),
        );
        sim.run();
        let (elapsed, value) = done.get();
        assert_eq!(elapsed, 1000, "1 us configured => 1 us observed");
        assert_eq!(value, 0);
    }

    #[test]
    fn sequential_reads_return_trace_data_in_order() {
        let (mut sim, dev, _) = setup(1000);
        let values = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10u64 {
            let (v, dev2) = (values.clone(), dev.clone());
            MmioDevice::read_line(
                &dev,
                &mut sim,
                0,
                l(i),
                Callback::boxed(move |_| v.borrow_mut().push(word(&dev2, l(i)))),
            );
        }
        sim.run();
        assert_eq!(*values.borrow(), (0..10).collect::<Vec<u64>>());
        assert_eq!(dev.borrow().reads.get(), 10);
        assert!(dev.borrow().inflight.is_empty(), "every read's state is freed");
        assert_eq!(dev.borrow().device_core().borrow().deadline_misses.get(), 0);
    }

    #[test]
    fn parallel_reads_overlap() {
        // 10 overlapped 1 us reads should take barely more than 1 us total.
        let (mut sim, dev, _) = setup(1000);
        let t0 = sim.now();
        let count = Rc::new(Cell::new(0u32));
        for i in 0..10u64 {
            let c = count.clone();
            MmioDevice::read_line(&dev, &mut sim, 0, l(i), Callback::boxed(move |_| c.set(c.get() + 1)));
        }
        sim.run();
        assert_eq!(count.get(), 10);
        let elapsed = (sim.now() - t0).as_ns();
        assert!(elapsed < 1200, "took {elapsed}");
    }
}
