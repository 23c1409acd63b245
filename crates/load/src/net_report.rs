//! Front-end analytics: [`NetReport`] reconstruction from the event trace.
//!
//! Where [`LoadReport`](crate::report::LoadReport) judges the dispatcher
//! (delivered arrival → completion), the net report judges the *whole
//! path from the wire*: per-packet wire serialization, NIC-queue wait,
//! NIC processing, RSS steering, dispatcher queueing, service time, and
//! response serialization, plus per-hop spans through the RPC tier chain
//! (`rpc.front` / `rpc.fanout` / `rpc.service` / `rpc.reply`). Everything
//! is rebuilt from the deterministic trace, so every number is
//! byte-reproducible across runs and `--jobs` values.
//!
//! When the NIC layer was disabled for a run, no `net.*` events exist and
//! [`NetReport::from_events`] returns `None`.

use std::collections::BTreeMap;
use std::fmt;

use kus_core::prelude::RunReport;
use kus_sim::stats::HdrHistogram;
use kus_sim::{Category, Span, Time, TraceEvent};

use crate::by_id::{last_per_id, lookup};
use crate::report::Percentiles;

/// RPC hop names, in chain order, as emitted by the tier wrapper.
pub const HOP_NAMES: [&str; 4] = ["rpc.front", "rpc.fanout", "rpc.service", "rpc.reply"];

/// The end-to-end decomposition of a run's path from the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Packets observed at the NIC (admitted or shed downstream).
    pub packets: u64,
    /// Requests that completed service (e2e samples).
    pub completed: u64,
    /// Link serialization time per packet.
    pub wire: Percentiles,
    /// Wait behind earlier packets in the same RX queue.
    pub rx_wait: Percentiles,
    /// NIC processing occupancy (model cost + protocol + jitter).
    pub nic: Percentiles,
    /// RSS steering cost.
    pub steer: Percentiles,
    /// Dispatcher-queue wait: NIC delivery → dispatch.
    pub queue_wait: Percentiles,
    /// Service time: dispatch → completion.
    pub service: Percentiles,
    /// Response serialization on the link.
    pub tx: Percentiles,
    /// Client-observed end to end: wire arrival → completion + response
    /// serialization.
    pub e2e: Percentiles,
    /// Packets per RX queue, ascending queue id.
    pub queue_load: Vec<(u32, u64)>,
    /// Packets per steered core, ascending core id.
    pub core_load: Vec<(u32, u64)>,
    /// Per-hop span percentiles through the RPC tier chain, in
    /// [`HOP_NAMES`] order; absent hops are omitted.
    pub hops: Vec<(&'static str, Percentiles)>,
}

impl NetReport {
    /// Rebuilds the report from a traced run; `None` when the run carried
    /// no trace or the NIC layer was disabled.
    pub fn from_run(run: &RunReport) -> Option<NetReport> {
        NetReport::from_events(&run.trace.as_ref()?.events)
    }

    /// Rebuilds the report from raw trace events; `None` when no `net.*`
    /// events are present.
    pub fn from_events(events: &[TraceEvent]) -> Option<NetReport> {
        let mut wire = HdrHistogram::new();
        let mut rx_wait = HdrHistogram::new();
        let mut nic = HdrHistogram::new();
        let mut steer = HdrHistogram::new();
        let mut tx = HdrHistogram::new();
        // Per-event (request id, value) records, reduced to the last
        // record of each id below.
        let mut arrivals: Vec<(u64, u64)> = Vec::new();
        let mut tx_ps: Vec<(u64, u64)> = Vec::new();
        let mut dispatches: Vec<(u64, (Time, Time))> = Vec::new();
        let mut completions: Vec<(u64, Time)> = Vec::new();
        let mut queue_load: BTreeMap<u32, u64> = BTreeMap::new();
        let mut core_load: BTreeMap<u32, u64> = BTreeMap::new();
        let mut hop_hists: [HdrHistogram; HOP_NAMES.len()] = Default::default();
        for ev in events.iter().filter(|e| e.cat == Category::Load) {
            let hop = match ev.name {
                "net.arrival" => {
                    arrivals.push((ev.a0, ev.a1));
                    continue;
                }
                "net.wire" => &mut wire,
                "net.rxwait" => &mut rx_wait,
                "net.nic" => &mut nic,
                "net.steer" => &mut steer,
                "net.route" => {
                    *queue_load.entry((ev.a1 >> 32) as u32).or_default() += 1;
                    *core_load.entry(ev.a1 as u32).or_default() += 1;
                    continue;
                }
                "net.tx" => {
                    tx_ps.push((ev.a0, ev.a1));
                    &mut tx
                }
                "load.dispatch" => {
                    dispatches.push((ev.a0, (ev.at, Time::from_ps(ev.a1))));
                    continue;
                }
                "load.complete" => {
                    completions.push((ev.a0, ev.at));
                    continue;
                }
                name => match HOP_NAMES.iter().position(|&n| n == name) {
                    Some(i) => &mut hop_hists[i],
                    None => continue,
                },
            };
            hop.record(Span::from_ps(ev.a1));
        }
        let arrivals = last_per_id(arrivals);
        if arrivals.is_empty() {
            return None;
        }
        let tx_ps = last_per_id(tx_ps);
        let dispatches = last_per_id(dispatches);
        let completions = last_per_id(completions);

        let mut queue_wait = HdrHistogram::new();
        let mut service = HdrHistogram::new();
        let mut e2e = HdrHistogram::new();
        for &(id, done) in &completions {
            if let Some(&(dispatched, delivered)) = lookup(&dispatches, id) {
                queue_wait.record(dispatched.saturating_since(delivered));
                service.record(done.saturating_since(dispatched));
            }
            if let Some(&at_wire) = lookup(&arrivals, id) {
                let tx_cost = lookup(&tx_ps, id).copied().unwrap_or(0);
                e2e.record(Span::from_ps(
                    done.as_ps().saturating_sub(at_wire).saturating_add(tx_cost),
                ));
            }
        }

        Some(NetReport {
            packets: arrivals.len() as u64,
            completed: completions.len() as u64,
            wire: Percentiles::from_histogram(&wire),
            rx_wait: Percentiles::from_histogram(&rx_wait),
            nic: Percentiles::from_histogram(&nic),
            steer: Percentiles::from_histogram(&steer),
            queue_wait: Percentiles::from_histogram(&queue_wait),
            service: Percentiles::from_histogram(&service),
            tx: Percentiles::from_histogram(&tx),
            e2e: Percentiles::from_histogram(&e2e),
            queue_load: queue_load.into_iter().collect(),
            core_load: core_load.into_iter().collect(),
            hops: HOP_NAMES
                .into_iter()
                .zip(&hop_hists)
                .filter(|(_, h)| h.count() > 0)
                .map(|(n, h)| (n, Percentiles::from_histogram(h)))
                .collect(),
        })
    }

    /// Canonical JSON rendering — key order and float formatting are
    /// stable, so byte equality means value equality.
    pub fn to_json(&self) -> String {
        use fmt::Write;
        let mut out = String::with_capacity(1024);
        let _ = write!(out, "{{\"packets\":{},\"completed\":{},", self.packets, self.completed);
        for (key, p) in [
            ("wire", &self.wire),
            ("rx_wait", &self.rx_wait),
            ("nic", &self.nic),
            ("steer", &self.steer),
            ("queue_wait", &self.queue_wait),
            ("service", &self.service),
            ("tx", &self.tx),
            ("e2e", &self.e2e),
        ] {
            let _ = write!(out, "\"{key}\":");
            p.json_into(&mut out);
            out.push(',');
        }
        let loads = |out: &mut String, key: &str, load: &[(u32, u64)]| {
            use fmt::Write;
            let _ = write!(out, "\"{key}\":[");
            for (i, (id, n)) in load.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"id\":{id},\"packets\":{n}}}");
            }
            out.push_str("],");
        };
        loads(&mut out, "queue_load", &self.queue_load);
        loads(&mut out, "core_load", &self.core_load);
        out.push_str("\"hops\":[");
        for (i, (name, p)) in self.hops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"hop\":\"{name}\",\"span\":");
            p.json_into(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// A fixed-width human-readable decomposition table.
    pub fn to_table(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "from the wire: {} packets, {} completed", self.packets, self.completed);
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            "stage", "mean", "p50", "p99", "p999"
        );
        let row = |out: &mut String, name: &str, p: &Percentiles| {
            let _ = writeln!(
                out,
                "{:<12} {:>9.2}us {:>9.2}us {:>9.2}us {:>9.2}us",
                name,
                p.mean.as_us_f64(),
                p.p50.as_us_f64(),
                p.p99.as_us_f64(),
                p.p999.as_us_f64(),
            );
        };
        row(&mut out, "wire", &self.wire);
        row(&mut out, "rx-wait", &self.rx_wait);
        row(&mut out, "nic", &self.nic);
        row(&mut out, "steer", &self.steer);
        row(&mut out, "queue", &self.queue_wait);
        row(&mut out, "service", &self.service);
        row(&mut out, "tx", &self.tx);
        row(&mut out, "e2e", &self.e2e);
        for (name, p) in &self.hops {
            row(&mut out, name, p);
        }
        let fmt_load = |load: &[(u32, u64)]| {
            load.iter().map(|(id, n)| format!("{id}:{n}")).collect::<Vec<_>>().join(" ")
        };
        let _ = writeln!(out, "rx-queue load: {}", fmt_load(&self.queue_load));
        let _ = writeln!(out, "core load:     {}", fmt_load(&self.core_load));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(name: &'static str, at_us: u64, a0: u64, a1: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(at_us * 1_000_000),
            cat: Category::Load,
            name,
            phase: kus_sim::Phase::Instant,
            track: 0,
            a0,
            a1,
        }
    }

    #[test]
    fn absent_net_events_mean_no_report() {
        let events = vec![instant("load.dispatch", 10, 0, 5_000)];
        assert!(NetReport::from_events(&events).is_none());
    }

    #[test]
    fn decomposition_reconstructs_per_stage_times() {
        // One request: wire arrival at 0, delivered at 1µs, dispatched at
        // 3µs, completed at 5µs, 500ns of response serialization.
        let events = vec![
            instant("net.arrival", 0, 7, 0),
            instant("net.wire", 0, 7, 20_000),
            instant("net.rxwait", 0, 7, 0),
            instant("net.nic", 0, 7, 400_000),
            instant("net.steer", 0, 7, 40_000),
            instant("net.route", 0, 7, (3 << 32) | 1),
            instant("load.dispatch", 3, 7, 1_000_000),
            instant("load.complete", 5, 7, 1_000_000),
            instant("net.tx", 5, 7, 500_000),
        ];
        let r = NetReport::from_events(&events).expect("net events present");
        assert_eq!(r.packets, 1);
        assert_eq!(r.completed, 1);
        assert_eq!(r.queue_wait.max, Span::from_ps(2_000_000));
        assert_eq!(r.service.max, Span::from_ps(2_000_000));
        assert_eq!(r.e2e.max, Span::from_ps(5_500_000));
        assert_eq!(r.queue_load, vec![(3, 1)]);
        assert_eq!(r.core_load, vec![(1, 1)]);
        assert!(r.hops.is_empty());
        let json = r.to_json();
        assert!(json.starts_with("{\"packets\":1,"));
        assert!(json.contains("\"hops\":[]"));
    }
}
