//! Multi-tier service chains: an RPC front tier over any [`Service`],
//! with optional fan-out/fan-in to µs-scale backend hops.
//!
//! The paper's question — does a µs-scale access mechanism survive contact
//! with real software? — sharpens once a request is not one access but a
//! *chain* of them: an RPC tier deserializes and dispatches, a fan-out
//! stage queries `width` backend shards in parallel (each hop its own
//! µs-scale device access, issued through [`MemCtx::dev_read_batch`] so
//! per-mechanism queueing applies), the inner service answers, and a
//! fan-in/reply stage serializes the response. Every hop leaves a
//! completion span on the trace (`rpc.front`, `rpc.fanout`, `rpc.service`,
//! `rpc.reply`), so [`NetReport`](crate::net_report::NetReport) can
//! decompose end-to-end latency per hop.
//!
//! The default topology is [`TierTopology::Direct`]: no wrapper, no extra
//! events, bit-identical to the pre-tier serving path.

use kus_core::prelude::{Addr, Dataset, MemCtx};
use kus_sim::{EventName, Span};

use crate::service::{generate_tagged_lines, ServeFuture, Service};

/// Upper bound on fan-out width (keeps a single request's batch bounded).
pub const MAX_FANOUT: u32 = 64;

/// Lines per backend shard. Each hop reads line `req % SHARD_LINES` of its
/// shard, so consecutive requests touch distinct lines and the hop stays a
/// genuine device access instead of an L1 hit.
pub const SHARD_LINES: u64 = 256;

/// How requests flow through service tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierTopology {
    /// Requests hit the service directly — the historical single-tier path.
    #[default]
    Direct,
    /// An RPC tier fronts the service: per-request deserialize/dispatch
    /// work before the serve, fan-in/serialize work after.
    Rpc,
    /// RPC tier plus a parallel fan-out to `width` backend hops, each one
    /// a µs-scale device access, before the inner service runs.
    FanOut {
        /// Backend hops queried in parallel per request.
        width: u32,
    },
}

impl TierTopology {
    /// Short stable name for labels and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            TierTopology::Direct => "direct",
            TierTopology::Rpc => "rpc",
            TierTopology::FanOut { .. } => "fanout",
        }
    }

    /// True for the unwrapped single-tier path.
    pub fn is_direct(&self) -> bool {
        matches!(self, TierTopology::Direct)
    }
}

/// Tier-chain shape and per-hop software costs.
///
/// Defaults are **off** ([`TierTopology::Direct`]): the service is never
/// wrapped and existing traces are bitwise unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// The chain shape.
    pub topology: TierTopology,
    /// RPC-tier deserialize/dispatch work per request (`rpc.front`).
    pub front_overhead: Span,
    /// Fan-in/serialize work per request (`rpc.reply`).
    pub reply_overhead: Span,
}

impl Default for TierSpec {
    fn default() -> TierSpec {
        TierSpec {
            topology: TierTopology::Direct,
            front_overhead: Span::from_ns(120),
            reply_overhead: Span::from_ns(80),
        }
    }
}

impl TierSpec {
    /// A single-tier (direct) spec — the default.
    pub fn direct() -> TierSpec {
        TierSpec::default()
    }

    /// An RPC tier with default hop costs.
    pub fn rpc() -> TierSpec {
        TierSpec { topology: TierTopology::Rpc, ..TierSpec::default() }
    }

    /// An RPC tier fanning out to `width` backend hops.
    pub fn fanout(width: u32) -> TierSpec {
        TierSpec { topology: TierTopology::FanOut { width }, ..TierSpec::default() }
    }

    /// Sets the RPC-tier front (deserialize/dispatch) cost.
    pub fn front_overhead(mut self, s: Span) -> TierSpec {
        self.front_overhead = s;
        self
    }

    /// Sets the fan-in/serialize (reply) cost.
    pub fn reply_overhead(mut self, s: Span) -> TierSpec {
        self.reply_overhead = s;
        self
    }

    /// Fan-out width (0 for non-fan-out topologies).
    pub fn fanout_width(&self) -> u32 {
        match self.topology {
            TierTopology::FanOut { width } => width,
            _ => 0,
        }
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if let TierTopology::FanOut { width } = self.topology {
            if width == 0 {
                return Err("fan-out width must be at least 1".into());
            }
            if width > MAX_FANOUT {
                return Err(format!("fan-out width must be at most {MAX_FANOUT}, got {width}"));
            }
        }
        Ok(())
    }
}

/// Wraps an inner service in the RPC tier chain described by a
/// [`TierSpec`]. Constructed by `ServingWorkload::new` whenever the spec's
/// topology is not [`TierTopology::Direct`].
pub(crate) struct TieredService {
    inner: Box<dyn Service>,
    spec: TierSpec,
    /// Base of the backend-hop shard lines (fan-out topologies only).
    hops: Option<Addr>,
}

impl TieredService {
    pub(crate) fn new(inner: Box<dyn Service>, spec: TierSpec) -> TieredService {
        TieredService { inner, spec, hops: None }
    }
}

impl Service for TieredService {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(&mut self, data: &mut Dataset) {
        self.inner.build(data);
        let width = u64::from(self.spec.fanout_width());
        if width > 0 {
            let base =
                data.alloc_lines(width * SHARD_LINES).expect("fan-out shard lines fit");
            generate_tagged_lines(data, base, width * SHARD_LINES, 0xfa0f_a0fa);
            self.hops = Some(base);
        }
    }

    fn serve<'a>(&'a self, req: u64, ctx: &'a MemCtx) -> ServeFuture<'a> {
        let spec = self.spec;
        let hops = self.hops;
        Box::pin(async move {
            let t = ctx.now();
            ctx.host_work(spec.front_overhead);
            ctx.trace_complete_since(EventName::RpcFront, t, req);
            if let Some(base) = hops {
                // Each backend hop is its own µs-scale access; the batch
                // overlaps them, so the stage costs ~one hop plus whatever
                // queueing the mechanism under test imposes.
                let t = ctx.now();
                let line = req % SHARD_LINES;
                let addrs: Vec<Addr> = (0..u64::from(spec.fanout_width()))
                    .map(|hop| Addr::new(base.raw() + (hop * SHARD_LINES + line) * 64))
                    .collect();
                // Causal child spans: hop `i` leaves an `rpc.hop` Complete
                // span with a0 = req * MAX_FANOUT + i, closed at the instant
                // its value became available — the raw material for exact
                // fan-in join resolution (critical child = max end).
                let _ = ctx.dev_read_batch_spans(&addrs, EventName::RpcHop, req * u64::from(MAX_FANOUT)).await;
                ctx.trace_complete_since(EventName::RpcFanout, t, req);
            }
            let t = ctx.now();
            let v = self.inner.serve(req, ctx).await;
            ctx.trace_complete_since(EventName::RpcService, t, req);
            let t = ctx.now();
            ctx.host_work(spec.reply_overhead);
            ctx.trace_complete_since(EventName::RpcReply, t, req);
            v
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_direct_and_valid() {
        let spec = TierSpec::default();
        assert!(spec.topology.is_direct());
        assert_eq!(spec.fanout_width(), 0);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_bounds_fanout_width() {
        assert!(TierSpec::fanout(0).validate().is_err());
        assert!(TierSpec::fanout(MAX_FANOUT + 1).validate().is_err());
        assert!(TierSpec::fanout(4).validate().is_ok());
        assert_eq!(TierSpec::fanout(4).fanout_width(), 4);
    }

    #[test]
    fn generated_shard_lines_match_the_written_ones() {
        use crate::service::tests::{allocated_bytes, write_tagged_lines};
        use crate::EchoService;
        let mut generated = Dataset::new(1 << 16, 1);
        TieredService::new(Box::new(EchoService::new(37)), TierSpec::fanout(3))
            .build(&mut generated);
        let mut reference = Dataset::new(1 << 16, 1);
        write_tagged_lines(&mut reference, 37, 0x5ca1ab1e);
        write_tagged_lines(&mut reference, 3 * SHARD_LINES, 0xfa0f_a0fa);
        assert!(allocated_bytes(&mut generated) == allocated_bytes(&mut reference));
    }

    #[test]
    fn topology_names_are_stable() {
        assert_eq!(TierTopology::Direct.name(), "direct");
        assert_eq!(TierTopology::Rpc.name(), "rpc");
        assert_eq!(TierTopology::FanOut { width: 4 }.name(), "fanout");
    }
}
