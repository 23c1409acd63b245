//! The on-demand module: serves requests the replay window could not match.
//!
//! Wrong-path speculative loads must still receive *correct* data (their
//! fills land in the host's caches), so the emulator keeps a full copy of
//! the dataset on a separate on-board DRAM channel. Because spurious
//! requests are rare, that channel stays lightly loaded and "we can still
//! meet the response delay deadlines for nearly all accesses".

use std::cell::RefCell;
use std::rc::Rc;

use kus_mem::station::{Station, StationConfig};
use kus_sim::callback::Callback;
use kus_sim::stats::Counter;
use kus_sim::Sim;

/// The on-demand read path: a dedicated on-board DRAM channel.
#[derive(Debug)]
pub struct OnDemandModule {
    channel: Rc<RefCell<Station>>,
    /// Requests served through this module.
    pub served: Counter,
}

impl OnDemandModule {
    /// Creates the module with its own DRAM channel of configuration `cfg`.
    pub fn new(cfg: StationConfig) -> OnDemandModule {
        OnDemandModule {
            channel: Station::new("onboard-ondemand", cfg),
            served: Counter::default(),
        }
    }

    /// Reads one line's worth of data; `on_done` fires when the DRAM access
    /// completes.
    pub fn read(&mut self, sim: &mut Sim, on_done: Callback) {
        self.served.incr();
        Station::submit(&self.channel, sim, on_done);
    }

    /// The underlying channel (for occupancy statistics).
    pub fn channel(&self) -> &Rc<RefCell<Station>> {
        &self.channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn read_pays_channel_latency() {
        let mut sim = Sim::new();
        let mut m = OnDemandModule::new(StationConfig::onboard_ddr3());
        let at = Rc::new(Cell::new(0u64));
        let a = at.clone();
        m.read(&mut sim, Callback::boxed(move |sim| a.set(sim.now().as_ns())));
        sim.run();
        assert_eq!(at.get(), 160); // 10 ns service + 150 ns latency
        assert_eq!(m.served.get(), 1);
    }
}
