//! Canonical traced scenarios: the fixed (workload, platform, seed)
//! combinations whose event streams are locked down by the golden-trace
//! and determinism test suites, and exported by `figures --trace`.
//!
//! The scenarios are deliberately tiny — a few dozen accesses each — so
//! their traces are cheap to regenerate and small enough to eyeball in a
//! trace viewer, while still crossing every instrumented layer: cache and
//! LFB traffic, PCIe TLPs, descriptor lifecycle, fiber switches, and (in
//! the chaos scenario) the full timeout/retry/watchdog recovery path.
//!
//! All scenarios run single-phase ([`PlatformConfig::without_replay_device`]):
//! tracing covers only the measured phase, and a golden trace should not
//! depend on the record/replay scaffolding.

use kus_core::prelude::*;

use crate::chaos::{chaos_platform, chaos_workload, scenarios, ChaosConfig};
use crate::microbench::{Microbench, MicrobenchConfig};

/// A named canonical scenario.
#[derive(Debug, Clone, Copy)]
pub struct TraceScenario {
    /// Stable name, used by golden files and the `figures` CLI.
    pub name: &'static str,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
}

/// The canonical scenario set, in golden-file order.
pub fn trace_scenarios() -> Vec<TraceScenario> {
    vec![
        TraceScenario {
            name: "ondemand-baseline",
            summary: "pointer-chase microbenchmark, on-demand loads to the device",
        },
        TraceScenario {
            name: "swq-optimized",
            summary: "same microbenchmark over the software-managed queue fast path",
        },
        TraceScenario {
            name: "chaos-stalls",
            summary: "SWQ path under injected fetcher stalls, exercising recovery",
        },
    ]
}

/// Runs a canonical scenario with tracing enabled and returns its report
/// (`report.trace` is always `Some`). Returns `None` for an unknown name.
pub fn run_trace_scenario(name: &str, seed: u64) -> Option<RunReport> {
    run_trace_scenario_opts(name, seed, false)
}

/// [`run_trace_scenario`], recording the deep per-access event class too
/// when `deep` is set.
pub fn run_trace_scenario_opts(name: &str, seed: u64, deep: bool) -> Option<RunReport> {
    trace_scenario_experiment(name, seed, deep).map(|e| e.run())
}

/// A canonical scenario as an [`Experiment`] cell (tracing enabled, plus
/// the deep class when `deep` is set), or `None` for an unknown name. The
/// sweep engine and the `figures --trace` CLI both drive scenarios through
/// this.
pub fn trace_scenario_experiment(name: &str, seed: u64, deep: bool) -> Option<Experiment> {
    let trace = |cfg: PlatformConfig| if deep { cfg.trace_deep() } else { cfg.traced() };
    let exp = match name {
        "ondemand-baseline" => {
            let mc = MicrobenchConfig {
                work_count: 100,
                mlp: 2,
                iters_per_fiber: 12,
                writes_per_iter: 0,
            };
            let cfg = PlatformConfig::paper_default()
                .without_replay_device()
                .mechanism(Mechanism::OnDemand)
                .fibers_per_core(4)
                .seed(seed);
            Experiment::new(format!("trace:{name} seed={seed} deep={deep}"), trace(cfg), move || {
                Microbench::new(mc)
            })
        }
        "swq-optimized" => {
            let shape = ChaosConfig { seed, ..ChaosConfig::default() };
            Experiment::new(
                format!("trace:{name} seed={seed} deep={deep}"),
                trace(chaos_platform(shape)),
                move || chaos_workload(shape),
            )
        }
        "chaos-stalls" => {
            let s = scenarios()
                .into_iter()
                .find(|s| s.name == "fetcher-stalls")
                .expect("premade chaos scenario exists");
            let shape = ChaosConfig { seed, ..s.config };
            Experiment::new(
                format!("trace:{name} seed={seed} deep={deep}"),
                trace(chaos_platform(shape)).faults(s.plan),
                move || chaos_workload(shape),
            )
        }
        _ => return None,
    };
    Some(exp.expect("canonical scenario configuration is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_produces_a_trace() {
        for s in trace_scenarios() {
            let r = run_trace_scenario(s.name, 3).expect("known scenario");
            let t = r.trace.expect("traced run carries a TraceReport");
            assert!(t.count > 0, "{}: empty trace", s.name);
            assert_eq!(t.count as usize, t.events.len());
        }
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_trace_scenario("nope", 1).is_none());
    }
}
