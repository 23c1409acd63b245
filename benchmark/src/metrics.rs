//! The metric catalogue (it must match `BENCHMARK.json`, which a test
//! checks) and the per-layer accumulator the traced pass fills.

use std::collections::BTreeMap;

use kus_core::prelude::{Backing, Mechanism, RunReport};
use kus_load::LoadReport;
use kus_sim::{Category, TraceEvent};

use crate::stats::{percentile, ratio};

/// One reported metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the simulator sees, in host terms, measured with the
/// benchmark's spans off.
pub const END_TO_END: [Metric; 4] = [
    m("wall_s", "s", "lower"),
    m("events_per_s", "events/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics from the traced pass. Counts come from the reports
/// the simulator already returns; times are the benchmark's own spans
/// around each layer's entry point. Metrics of a layer a workload does not
/// exercise read 0.
pub const PER_LAYER: [Metric; 52] = [
    m("sim.dispatch_ns", "ns", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.trace_events", "count", "lower"),
    m("sim.trace_events.sim", "count", "lower"),
    m("sim.trace_events.mem", "count", "lower"),
    m("sim.trace_events.pcie", "count", "lower"),
    m("sim.trace_events.device", "count", "lower"),
    m("sim.trace_events.swq", "count", "lower"),
    m("sim.trace_events.fiber", "count", "lower"),
    m("sim.trace_events.exec", "count", "lower"),
    m("sim.trace_events.load", "count", "lower"),
    m("sim.trace_events.cpu", "count", "lower"),
    m("sim.trace_mib", "MiB", "lower"),
    m("sim.chrome_export_ms", "ms", "lower"),
    m("core.run_ms.p50", "ms", "lower"),
    m("core.run_ms.p95", "ms", "lower"),
    m("core.ns_per_event", "ns", "lower"),
    m("core.run_s.dram", "s", "lower"),
    m("core.run_s.ondemand", "s", "lower"),
    m("core.run_s.prefetch", "s", "lower"),
    m("core.run_s.swq", "s", "lower"),
    m("core.dataset_ms", "ms", "lower"),
    m("cpu.work_insts", "count", "higher"),
    m("mem.accesses", "count", "higher"),
    m("mem.writes", "count", "higher"),
    m("mem.lfb_max", "count", "higher"),
    m("mem.device_path_max", "count", "higher"),
    m("pcie.up_wire_bytes", "bytes", "lower"),
    m("pcie.down_wire_bytes", "bytes", "lower"),
    m("pcie.payload_ratio", "ratio", "higher"),
    m("device.responses", "count", "higher"),
    m("device.ondemand", "count", "lower"),
    m("device.deadline_misses", "count", "lower"),
    m("device.replay_ratio", "ratio", "higher"),
    m("swq.doorbells", "count", "lower"),
    m("swq.accesses_per_doorbell", "ratio", "higher"),
    m("fiber.switches", "count", "lower"),
    m("load.offered", "count", "higher"),
    m("load.completed", "count", "higher"),
    m("load.shed", "count", "lower"),
    m("load.retries", "count", "lower"),
    m("load.timeouts", "count", "lower"),
    m("load.goodput_ratio", "ratio", "higher"),
    m("load.report_ms", "ms", "lower"),
    m("load.host_us_per_req", "us", "lower"),
    m("load.blame_ms", "ms", "lower"),
    m("net.report_ms", "ms", "lower"),
    m("scenario.compile_ms", "ms", "lower"),
    m("workloads.collect_ms", "ms", "lower"),
    m("workloads.assemble_ms", "ms", "lower"),
    m("bench.emit_ms", "ms", "lower"),
    m("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Span names whose summed self time is reported as `<name>_ms`.
pub const SELF_TIMED: [&str; 9] = [
    "workloads.collect",
    "workloads.assemble",
    "bench.emit",
    "scenario.compile",
    "load.report",
    "net.report",
    "load.blame",
    "sim.chrome_export",
    "core.dataset",
];

/// Per-layer sums for one traced pass. Keys starting with `_` are
/// intermediate sums for derived ratios and are never printed.
#[derive(Debug, Default, Clone)]
pub struct Layer(BTreeMap<&'static str, f64>);

impl Layer {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    /// Raises `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    /// Sets `key` to `v`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.0.insert(key, v);
    }

    /// The value of `key`, 0 when never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one simulation run, which took `run_s` host seconds, into the
    /// sums.
    pub fn absorb_run(&mut self, r: &RunReport, run_s: f64) {
        self.add("sim.events", r.sim_events as f64);
        self.add("cpu.work_insts", r.work_insts as f64);
        self.add("mem.accesses", r.accesses as f64);
        self.add("mem.writes", r.writes as f64);
        self.max("mem.lfb_max", r.lfb_max as f64);
        self.max("mem.device_path_max", r.device_path_max as f64);
        if let Some(l) = &r.link {
            self.add("pcie.up_wire_bytes", l.up_wire_bytes as f64);
            self.add("pcie.down_wire_bytes", l.down_wire_bytes as f64);
            self.add(
                "_pcie.payload_bytes",
                (l.up_payload_bytes + l.down_payload_bytes) as f64,
            );
        }
        if let Some(d) = &r.device {
            self.add("device.responses", d.responses as f64);
            self.add("device.ondemand", d.ondemand as f64);
            self.add("device.deadline_misses", d.deadline_misses as f64);
            self.add("_device.replayed", d.replayed as f64);
        }
        self.add("swq.doorbells", r.doorbells as f64);
        if r.mechanism == Mechanism::SoftwareQueue {
            self.add("_swq.accesses", r.accesses as f64);
        }
        self.add("fiber.switches", r.switches as f64);
        if let Some(t) = &r.trace {
            self.add("sim.trace_events", t.count as f64);
            for e in &t.events {
                self.add(category_metric(e.cat), 1.0);
            }
        }
        let path = match (r.backing, r.mechanism) {
            (Backing::Dram, _) => "core.run_s.dram",
            (_, Mechanism::OnDemand) => "core.run_s.ondemand",
            (_, Mechanism::Prefetch) => "core.run_s.prefetch",
            (_, Mechanism::SoftwareQueue) => "core.run_s.swq",
        };
        self.add(path, run_s);
        self.add("_core.run_s", run_s);
    }

    /// Folds one serving run's load analytics; `run_s` is the host time
    /// of the simulation run that produced it.
    pub fn absorb_load(&mut self, lr: &LoadReport, run_s: f64) {
        self.add("load.offered", lr.offered as f64);
        self.add("load.completed", lr.completed as f64);
        self.add("load.shed", lr.shed as f64);
        self.add("load.retries", lr.retries as f64);
        self.add("load.timeouts", lr.client_timeouts as f64);
        self.add("_load.run_s", run_s);
    }

    /// Fills the derived ratios and the span-based times, then returns
    /// every [`PER_LAYER`] metric in catalogue order.
    pub fn finish(
        mut self,
        run_seconds: &[f64],
        self_seconds: &BTreeMap<&'static str, f64>,
    ) -> Vec<(&'static str, f64)> {
        let g = |k| self.get(k);
        let derived = [
            (
                "pcie.payload_ratio",
                ratio(
                    g("_pcie.payload_bytes"),
                    g("pcie.up_wire_bytes") + g("pcie.down_wire_bytes"),
                ),
            ),
            (
                "device.replay_ratio",
                ratio(g("_device.replayed"), g("device.responses")),
            ),
            (
                "swq.accesses_per_doorbell",
                ratio(g("_swq.accesses"), g("swq.doorbells")),
            ),
            (
                "load.goodput_ratio",
                ratio(g("load.completed"), g("load.offered")),
            ),
            (
                "load.host_us_per_req",
                ratio(g("_load.run_s") * 1e6, g("load.offered")),
            ),
            (
                "core.ns_per_event",
                ratio(g("_core.run_s") * 1e9, g("sim.events")),
            ),
            (
                "sim.trace_mib",
                g("sim.trace_events") * std::mem::size_of::<TraceEvent>() as f64
                    / f64::from(1 << 20),
            ),
            ("core.run_ms.p50", percentile(run_seconds, 50.0) * 1e3),
            ("core.run_ms.p95", percentile(run_seconds, 95.0) * 1e3),
        ];
        for (k, v) in derived {
            self.set(k, v);
        }
        for name in SELF_TIMED {
            let key = PER_LAYER
                .iter()
                .find(|m| m.name.strip_suffix("_ms") == Some(name))
                .expect("every self-timed span has a catalogue entry")
                .name;
            self.set(key, self_seconds.get(name).copied().unwrap_or(0.0) * 1e3);
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

fn category_metric(c: Category) -> &'static str {
    match c {
        Category::Sim => "sim.trace_events.sim",
        Category::Mem => "sim.trace_events.mem",
        Category::Pcie => "sim.trace_events.pcie",
        Category::Device => "sim.trace_events.device",
        Category::Swq => "sim.trace_events.swq",
        Category::Fiber => "sim.trace_events.fiber",
        Category::Exec => "sim.trace_events.exec",
        Category::Load => "sim.trace_events.load",
        Category::Cpu => "sim.trace_events.cpu",
    }
}

/// The unit of the metric `name` in either catalogue.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}
