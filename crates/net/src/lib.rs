//! # kus-net — modelled NIC and RPC front end
//!
//! Until this crate, every request in the workspace materialized directly at
//! the kus-load dispatcher: the repo answered the killer-microsecond question
//! for one server under synthetic load, with the wire abstracted away. kus-net
//! models the request path *from the wire*: per-packet serialization time on
//! the link, a NIC with parallel RX queues that process packets FIFO, RSS
//! steering of flows to cores by key hash, and protocol-processing cost —
//! all deterministic and all precomputed, so the serving layer replays the
//! delivery schedule without perturbing any existing random stream.
//!
//! Two contrasting hardware design points from the paper's lineage are the
//! two variants of [`NicModelKind`]:
//!
//! - [`DmaNic`] — the conventional descriptor-ring path: the NIC fetches a
//!   DMA descriptor, moves the payload over the peripheral interconnect, and
//!   rings a doorbell. The Dagger-style *coupling* knob scales the
//!   interconnect-crossing costs (descriptor fetch + doorbell) from a
//!   discrete PCIe NIC (`coupling = 1.0`) down to a NIC integrated into the
//!   memory subsystem (`coupling = 0.0`).
//! - [`NanoNic`] — a nanoPU-style low-latency fast path: a fixed pipeline
//!   latency plus a tiny per-word cost for register-file delivery, with no
//!   descriptor or doorbell machinery at all.
//!
//! The output of the model is a [`NetTimeline`]: for each request, when it
//! hit the wire, which RX queue and core RSS steered it to, and the
//! wire/NIC-queue/NIC-processing/steering decomposition of its path to the
//! dispatcher. kus-load substitutes the delivered times for raw arrival
//! offsets and emits the decomposition as trace events, so the existing
//! report/profile machinery sees the NIC as just another µs-scale stage.
//!
//! Everything here is off by default: [`NetConfig::default`] has
//! `enabled = false`, and a disabled config is never consulted — existing
//! golden traces are bitwise unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use kus_sim::{fnv1a, SimRng, Span, FNV_OFFSET};

/// The per-packet receive-side cost decomposition a NIC model produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCosts {
    /// Serialization time on the link (bytes over line rate).
    pub wire: Span,
    /// NIC processing occupancy: the RX queue is busy for this long.
    pub nic: Span,
    /// RSS hash + core-notification cost after NIC processing.
    pub steer: Span,
}

/// Conventional DMA-descriptor-ring NIC with a Dagger-style coupling knob.
///
/// Receive cost is `coupling × (desc_fetch + doorbell) + dma_per_kb ×
/// bytes/1024`: the descriptor fetch and doorbell are interconnect
/// crossings that an integrated (coupled) NIC avoids, while the payload
/// move scales with packet size regardless of attachment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaNic {
    /// Cost of fetching one RX descriptor across the interconnect.
    pub desc_fetch: Span,
    /// Payload DMA cost per KiB moved.
    pub dma_per_kb: Span,
    /// Completion-doorbell cost across the interconnect.
    pub doorbell: Span,
    /// Interconnect-coupling factor: `1.0` is a discrete PCIe NIC, `0.0`
    /// a NIC fused into the memory subsystem (Dagger's design point).
    pub coupling: f64,
}

impl Default for DmaNic {
    fn default() -> DmaNic {
        DmaNic {
            desc_fetch: Span::from_ns(180),
            dma_per_kb: Span::from_ns(60),
            doorbell: Span::from_ns(80),
            coupling: 1.0,
        }
    }
}

/// nanoPU-style fast path: fixed pipeline latency plus per-word
/// register-file delivery, no descriptors and no doorbells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NanoNic {
    /// Fixed RX pipeline latency per packet.
    pub pipeline: Span,
    /// Delivery cost per 8-byte word.
    pub per_word: Span,
}

impl Default for NanoNic {
    fn default() -> NanoNic {
        NanoNic { pipeline: Span::from_ns(35), per_word: Span::from_ps(600) }
    }
}

/// The sweepable choice of NIC design point, carrying its cost knobs: given
/// a packet size, how long does the NIC itself take to deliver it?
///
/// These are *models*, not device drivers: [`NicModelKind::rx_cost`] is the
/// FIFO occupancy of the RX queue that handles the packet. Wire and
/// steering costs are shared across models and live in [`NetConfig`].
/// `Copy` so it can ride inside `LoadSpec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NicModelKind {
    /// Descriptor-ring baseline ([`DmaNic`]).
    Dma(DmaNic),
    /// Low-latency fast path ([`NanoNic`]).
    Nano(NanoNic),
}

impl NicModelKind {
    /// The DMA baseline with default knobs.
    pub fn dma() -> NicModelKind {
        NicModelKind::Dma(DmaNic::default())
    }

    /// The nanoPU-style fast path with default knobs.
    pub fn nanopu() -> NicModelKind {
        NicModelKind::Nano(NanoNic::default())
    }

    /// The model's short stable name, used in labels and artifacts (`dma` /
    /// `nanopu`).
    pub fn name(&self) -> &'static str {
        match self {
            NicModelKind::Dma(_) => "dma",
            NicModelKind::Nano(_) => "nanopu",
        }
    }

    /// NIC processing time for one `bytes`-sized packet.
    pub fn rx_cost(&self, bytes: u64) -> Span {
        match self {
            NicModelKind::Dma(m) => {
                let crossings = (m.desc_fetch.as_ps() + m.doorbell.as_ps()) as f64 * m.coupling;
                let dma = m.dma_per_kb.as_ps() as f64 * (bytes as f64 / 1024.0);
                Span::from_ps((crossings + dma).round() as u64)
            }
            NicModelKind::Nano(m) => {
                Span::from_ps(m.pipeline.as_ps() + m.per_word.as_ps() * bytes.div_ceil(8))
            }
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            NicModelKind::Dma(m) => {
                if !m.coupling.is_finite() || !(0.0..=8.0).contains(&m.coupling) {
                    return Err(format!(
                        "dma coupling must be a finite factor in [0, 8], got {}",
                        m.coupling
                    ));
                }
            }
            NicModelKind::Nano(_) => {}
        }
        Ok(())
    }
}

impl Default for NicModelKind {
    fn default() -> NicModelKind {
        NicModelKind::dma()
    }
}

/// Full front-end configuration: the NIC design point plus the shared
/// wire/steering/protocol knobs.
///
/// Defaults are **off**: `enabled = false` means the serving layer never
/// consults this struct, draws no random numbers for it, and emits no
/// events — existing traces are bitwise unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Which NIC design point handles RX processing.
    pub nic: NicModelKind,
    /// Number of parallel RX queues (each FIFO).
    pub rx_queues: u32,
    /// Number of distinct flows; request `i` belongs to flow `i % flows`.
    pub flows: u32,
    /// Request packet size in bytes (drives wire + NIC costs).
    pub request_bytes: u64,
    /// Response packet size in bytes (drives the TX wire cost report).
    pub response_bytes: u64,
    /// Link line rate in Gbit/s.
    pub link_gbps: f64,
    /// Protocol processing (framing, header parse) added to NIC occupancy.
    pub proto: Span,
    /// RSS hash + core-notification cost after NIC processing.
    pub steer: Span,
    /// Uniform NIC jitter bound: each packet's NIC stage gains
    /// `uniform[0, jitter]`, drawn from a dedicated labelled stream.
    pub jitter: Span,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            enabled: false,
            nic: NicModelKind::default(),
            rx_queues: 4,
            flows: 64,
            request_bytes: 256,
            response_bytes: 256,
            link_gbps: 100.0,
            proto: Span::from_ns(150),
            steer: Span::from_ns(40),
            jitter: Span::ZERO,
        }
    }
}

impl NetConfig {
    /// An enabled config with every other knob at its default.
    pub fn on() -> NetConfig {
        NetConfig { enabled: true, ..NetConfig::default() }
    }

    /// Replaces the NIC design point.
    pub fn nic(mut self, nic: NicModelKind) -> NetConfig {
        self.nic = nic;
        self
    }

    /// Sets the RX queue count.
    pub fn rx_queues(mut self, n: u32) -> NetConfig {
        self.rx_queues = n;
        self
    }

    /// Sets the flow count for RSS steering.
    pub fn flows(mut self, n: u32) -> NetConfig {
        self.flows = n;
        self
    }

    /// Sets request/response packet sizes.
    pub fn packet_bytes(mut self, request: u64, response: u64) -> NetConfig {
        self.request_bytes = request;
        self.response_bytes = response;
        self
    }

    /// Sets the link line rate.
    pub fn link_gbps(mut self, gbps: f64) -> NetConfig {
        self.link_gbps = gbps;
        self
    }

    /// Sets the protocol-processing cost.
    pub fn proto(mut self, s: Span) -> NetConfig {
        self.proto = s;
        self
    }

    /// Sets the steering cost.
    pub fn steer(mut self, s: Span) -> NetConfig {
        self.steer = s;
        self
    }

    /// Sets the uniform NIC jitter bound.
    pub fn jitter(mut self, s: Span) -> NetConfig {
        self.jitter = s;
        self
    }

    /// Checks internal consistency. A disabled config is always valid.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.rx_queues == 0 {
            return Err("net rx_queues must be at least 1".into());
        }
        if self.flows == 0 {
            return Err("net flows must be at least 1".into());
        }
        if self.request_bytes == 0 {
            return Err("net request_bytes must be at least 1".into());
        }
        if !self.link_gbps.is_finite() || self.link_gbps <= 0.0 {
            return Err(format!("net link_gbps must be positive, got {}", self.link_gbps));
        }
        self.nic.validate()
    }

    /// Serialization time of a `bytes` packet on this link.
    pub fn wire_cost(&self, bytes: u64) -> Span {
        Span::from_ns_f64(bytes as f64 * 8.0 / self.link_gbps)
    }

    /// Computes the full delivery schedule for a batch of wire arrivals.
    ///
    /// `arrivals` are offsets from the load window origin (need not be
    /// sorted); `cores` is the serving core count RSS steers onto. The
    /// returned timeline is sorted by delivered time, so the serving layer
    /// can admit packets in delivery order. `rng` feeds NIC jitter only and
    /// is drawn exactly `arrivals.len()` times when `jitter` is non-zero,
    /// never otherwise.
    pub fn timeline(&self, arrivals: &[Span], cores: u32, rng: &mut SimRng) -> NetTimeline {
        let wire = self.wire_cost(self.request_bytes);
        let base_rx = self.nic.rx_cost(self.request_bytes) + self.proto;
        let mut busy = vec![Span::ZERO; self.rx_queues as usize];
        let mut packets: Vec<PacketTiming> = Vec::with_capacity(arrivals.len());
        for (id, &arrival) in arrivals.iter().enumerate() {
            let flow = id as u64 % u64::from(self.flows);
            let queue = rss_queue(flow, self.rx_queues);
            let core = queue % cores.max(1);
            let jitter = if self.jitter.is_zero() {
                Span::ZERO
            } else {
                Span::from_ps(rng.below(self.jitter.as_ps() + 1))
            };
            let at_nic = arrival + wire;
            let start = at_nic.max(busy[queue as usize]);
            let rx_wait = start.saturating_sub(at_nic);
            let nic = base_rx + jitter;
            busy[queue as usize] = start + nic;
            let delivered = start + nic + self.steer;
            packets.push(PacketTiming {
                arrival,
                delivered,
                queue,
                core,
                wire,
                rx_wait,
                nic,
                steer: self.steer,
            });
        }
        packets.sort_by_key(|p| (p.delivered, p.arrival, p.queue));
        NetTimeline { packets }
    }
}

/// FNV-1a over the flow key, folded onto the RX queue count — the RSS
/// indirection function. Deterministic and stable across runs.
pub fn rss_queue(flow: u64, queues: u32) -> u32 {
    let h = fnv1a(FNV_OFFSET, &flow.to_le_bytes());
    (h % u64::from(queues.max(1))) as u32
}

/// One packet's trip through the front end, in offsets from the window
/// origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTiming {
    /// When the packet hit the wire.
    pub arrival: Span,
    /// When the dispatcher saw it (`arrival + wire + rx_wait + nic + steer`).
    pub delivered: Span,
    /// RX queue RSS steered the flow to.
    pub queue: u32,
    /// Core the RX queue notifies.
    pub core: u32,
    /// Link serialization time.
    pub wire: Span,
    /// Time spent waiting behind earlier packets in the same RX queue.
    pub rx_wait: Span,
    /// NIC processing occupancy (model cost + protocol + jitter).
    pub nic: Span,
    /// Steering cost.
    pub steer: Span,
}

/// The precomputed delivery schedule for a load window, sorted by
/// delivered time.
#[derive(Debug, Clone, Default)]
pub struct NetTimeline {
    /// Per-packet timings in delivery order.
    pub packets: Vec<PacketTiming>,
}

impl NetTimeline {
    /// The delivered offsets, in order — what the serving layer admits on.
    pub fn delivered_offsets(&self) -> Vec<Span> {
        self.packets.iter().map(|p| p.delivered).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(n: u64, gap_ns: u64) -> Vec<Span> {
        (0..n).map(|i| Span::from_ns(i * gap_ns)).collect()
    }

    #[test]
    fn wire_cost_matches_line_rate_arithmetic() {
        let net = NetConfig::on();
        // 256 bytes at 100 Gbit/s = 2048 bits / 100 Gb/s = 20.48 ns.
        assert_eq!(net.wire_cost(256).as_ps(), 20_480);
    }

    #[test]
    fn rss_is_deterministic_and_spreads_flows() {
        let mut seen = [false; 4];
        for flow in 0..64 {
            let q = rss_queue(flow, 4);
            assert_eq!(q, rss_queue(flow, 4));
            seen[q as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 flows must touch all 4 queues");
    }

    #[test]
    fn coupling_knob_removes_interconnect_crossings() {
        let discrete = DmaNic::default();
        let fused = DmaNic { coupling: 0.0, ..DmaNic::default() };
        let rx = |m: DmaNic| NicModelKind::Dma(m).rx_cost(256).as_ps();
        let saved = rx(discrete) - rx(fused);
        let crossings = discrete.desc_fetch.as_ps() + discrete.doorbell.as_ps();
        assert_eq!(saved, crossings);
    }

    #[test]
    fn nanopu_beats_dma_at_default_knobs() {
        let dma = NicModelKind::dma().rx_cost(256);
        let nano = NicModelKind::nanopu().rx_cost(256);
        assert!(nano < dma, "nanoPU fast path must undercut the DMA ring ({nano:?} vs {dma:?})");
    }

    #[test]
    fn timeline_is_fifo_per_queue_and_sorted_by_delivery() {
        let net = NetConfig::on().rx_queues(2).flows(8);
        let mut rng = SimRng::from_seed(7);
        let tl = net.timeline(&arrivals(64, 10), 2, &mut rng);
        assert_eq!(tl.packets.len(), 64);
        let mut last_delivered = Span::ZERO;
        let mut last_start = [Span::ZERO; 2];
        for p in &tl.packets {
            assert!(p.delivered >= last_delivered, "timeline must be sorted by delivery");
            last_delivered = p.delivered;
            let start = p.arrival + p.wire + p.rx_wait;
            assert!(start >= last_start[p.queue as usize], "RX queues must be FIFO");
            last_start[p.queue as usize] = start;
            assert_eq!(p.delivered, start + p.nic + p.steer);
            assert_eq!(p.core, p.queue % 2);
        }
    }

    #[test]
    fn timeline_is_reproducible_and_jitter_free_without_jitter() {
        let net = NetConfig::on();
        let a = net.timeline(&arrivals(32, 100), 4, &mut SimRng::from_seed(1));
        let b = net.timeline(&arrivals(32, 100), 4, &mut SimRng::from_seed(999));
        assert_eq!(a.packets, b.packets, "no jitter means the seed must not matter");
        let jittery = net.jitter(Span::from_ns(200));
        let c = jittery.timeline(&arrivals(32, 100), 4, &mut SimRng::from_seed(1));
        let d = jittery.timeline(&arrivals(32, 100), 4, &mut SimRng::from_seed(1));
        assert_eq!(c.packets, d.packets, "same seed, same jitter draw");
        assert_ne!(a.packets, c.packets, "jitter must actually perturb the schedule");
    }

    #[test]
    fn fewer_queues_mean_more_rx_wait() {
        let burst: Vec<Span> = (0..32).map(|_| Span::ZERO).collect();
        let mut rng = SimRng::from_seed(3);
        let wide = NetConfig::on().rx_queues(8).timeline(&burst, 4, &mut rng);
        let narrow = NetConfig::on().rx_queues(1).timeline(&burst, 4, &mut rng);
        let wait = |tl: &NetTimeline| tl.packets.iter().map(|p| p.rx_wait.as_ps()).sum::<u64>();
        assert!(wait(&narrow) > wait(&wide));
    }

    #[test]
    fn validation_rejects_nonsense_only_when_enabled() {
        let off = NetConfig { rx_queues: 0, link_gbps: -1.0, ..NetConfig::default() };
        assert!(off.validate().is_ok(), "disabled configs are inert, never invalid");
        assert!(NetConfig::on().rx_queues(0).validate().is_err());
        assert!(NetConfig::on().flows(0).validate().is_err());
        assert!(NetConfig::on().packet_bytes(0, 64).validate().is_err());
        assert!(NetConfig::on().link_gbps(0.0).validate().is_err());
        let bad = NicModelKind::Dma(DmaNic { coupling: f64::NAN, ..DmaNic::default() });
        assert!(NetConfig::on().nic(bad).validate().is_err());
        assert!(NetConfig::on().validate().is_ok());
    }
}
