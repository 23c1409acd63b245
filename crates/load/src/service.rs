//! The [`Service`] trait: one request's worth of work against a fiber's
//! `MemCtx`.
//!
//! A service is the per-request refactoring of a batch workload kernel:
//! where a [`Workload`](kus_core::prelude::Workload) fiber loops over a
//! fixed iteration space, a service handles exactly one request and
//! returns, letting the dispatcher in [`serving`](crate::serving) decide
//! *when* work happens. Adapters for the existing Memcached and
//! Bloom-filter kernels live in `kus-workloads::service`.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;

use kus_core::prelude::{Addr, Dataset, MemCtx};

use crate::keys::KeyPopularity;

/// A boxed single-request future; resolves to a service-defined result
/// word (checksum, hit flag, …) so callers can sanity-check responses.
pub type ServeFuture<'a> = Pin<Box<dyn Future<Output = u64> + 'a>>;

/// One request's worth of work.
///
/// `serve` must be deterministic in `req`: the platform may run a record
/// phase and a replay phase, and the same request id must touch the same
/// addresses in both.
pub trait Service {
    /// Short name for reports and labels.
    fn name(&self) -> &'static str;

    /// Lays out the service's data structures (called once, before any
    /// request is served).
    fn build(&mut self, data: &mut Dataset);

    /// Serves request `req` on the calling fiber.
    fn serve<'a>(&'a self, req: u64, ctx: &'a MemCtx) -> ServeFuture<'a>;
}

/// A thread-safe factory producing a fresh boxed service per run — the
/// service analogue of `kus_core`'s `WorkloadFactory`, used to carry a
/// service choice across the sweep pool's worker threads.
pub type ServiceFactory = Arc<dyn Fn() -> Box<dyn Service> + Send + Sync>;

/// The simplest possible service: one device read from a small ring of
/// lines, keyed by the request id. Used by `kus-load`'s own tests and as a
/// minimal latency probe (its service time is almost pure `dev_access`).
#[derive(Debug, Default)]
pub struct EchoService {
    lines: u64,
    popularity: KeyPopularity,
    base: Option<Addr>,
}

impl EchoService {
    /// An echo service over `lines` cache lines.
    pub fn new(lines: u64) -> EchoService {
        assert!(lines > 0, "echo service needs at least one line");
        EchoService { lines, popularity: KeyPopularity::Sequential, base: None }
    }

    /// Sets how request ids map onto the line ring
    /// ([`KeyPopularity::Sequential`] = the historical `req % lines`).
    pub fn popularity(mut self, p: KeyPopularity) -> EchoService {
        self.popularity = p;
        self
    }
}

impl Service for EchoService {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn build(&mut self, data: &mut Dataset) {
        let base = data.alloc_lines(self.lines).expect("echo dataset fits");
        generate_tagged_lines(data, base, self.lines, 0x5ca1ab1e);
        self.base = Some(base);
    }

    fn serve<'a>(&'a self, req: u64, ctx: &'a MemCtx) -> ServeFuture<'a> {
        let base = self.base.expect("serve before build");
        let lines = self.lines;
        let popularity = self.popularity;
        Box::pin(async move {
            let addr = Addr::new(base.raw() + popularity.index(req, lines) * 64);
            let v = ctx.dev_read_u64(addr).await;
            ctx.work(20);
            v
        })
    }
}

/// Makes the `lines` lines at `base` a generated ring: word 0 of line `i`
/// reads as `i ^ tag`, every other word as zero. Nothing is written.
pub(crate) fn generate_tagged_lines(data: &Dataset, base: Addr, lines: u64, tag: u64) {
    data.generate(base, lines * 64, move |w| if w.is_multiple_of(8) { (w / 8) ^ tag } else { 0 });
}

/// Convenience: wraps a `Send + Sync` closure as a [`ServiceFactory`].
pub fn service_factory<S, F>(f: F) -> ServiceFactory
where
    S: Service + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    Arc::new(move || Box::new(f()) as Box<dyn Service>)
}

/// Shares one built service between fiber bodies (single-threaded inside a
/// run, so an `Rc` suffices).
pub(crate) type SharedService = Rc<dyn Service>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every byte up to the allocation cursor.
    pub(crate) fn allocated_bytes(data: &mut Dataset) -> Vec<u8> {
        let mut out = vec![0; data.alloc().cursor().raw() as usize];
        data.store().borrow().read_bytes(Addr::ZERO, &mut out);
        out
    }

    /// A tagged ring as builds wrote it before it was generated: the
    /// reference [`generate_tagged_lines`] must match.
    pub(crate) fn write_tagged_lines(data: &mut Dataset, lines: u64, tag: u64) {
        let base = data.alloc_lines(lines).expect("reference fits");
        for i in 0..lines {
            data.write_u64(Addr::new(base.raw() + i * 64), i ^ tag);
        }
    }

    #[test]
    fn the_generated_echo_ring_matches_the_written_one() {
        let mut generated = Dataset::new(1 << 16, 1);
        EchoService::new(37).build(&mut generated);
        let mut reference = Dataset::new(1 << 16, 1);
        write_tagged_lines(&mut reference, 37, 0x5ca1ab1e);
        assert!(allocated_bytes(&mut generated) == allocated_bytes(&mut reference));
    }
}
