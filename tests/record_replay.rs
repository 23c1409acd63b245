//! Integration tests of the record/replay measurement discipline (§IV-A):
//! the emulator's internals must never perturb measured timing, replay
//! must serve (essentially) every request, and runs must be deterministic.

use kus_core::prelude::*;
use kus_workloads::{
    BloomConfig, BloomWorkload, MemcachedConfig, MemcachedWorkload, Microbench, MicrobenchConfig,
};

fn ubench(iters: u64, mlp: usize) -> Microbench {
    Microbench::new(MicrobenchConfig { work_count: 100, mlp, iters_per_fiber: iters, writes_per_iter: 0 })
}

/// The replay device must be time-identical to the idealized device: its
/// whole design exists so internal latencies hide behind the configured
/// response delay.
#[test]
fn replay_phase_timing_equals_ideal_phase() {
    for (mech, fibers) in [(Mechanism::Prefetch, 8usize), (Mechanism::SoftwareQueue, 12)] {
        let ideal_cfg = PlatformConfig::paper_default()
            .without_replay_device()
            .mechanism(mech)
            .fibers_per_core(fibers);
        let mut w = ubench(300, 1);
        let ideal = Platform::try_new(ideal_cfg.clone()).expect("valid config").run(&mut w);
        let mut replay_cfg = ideal_cfg;
        replay_cfg.use_replay_device = true;
        let replay = Platform::try_new(replay_cfg).expect("valid config").run(&mut w);
        assert_eq!(
            ideal.elapsed, replay.elapsed,
            "replay changed timing under {mech}: {} vs {}",
            ideal.elapsed, replay.elapsed
        );
    }
}

/// In the measured (replay) run, essentially every request matches the
/// recorded trace, nothing misses its deadline, and the on-demand module
/// sits idle — the paper's health conditions for the methodology.
#[test]
fn replay_serves_everything_within_deadline() {
    let cfg = PlatformConfig::paper_default().fibers_per_core(10);
    let mut w = ubench(400, 1);
    let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
    let d = r.device.expect("device-backed run");
    assert_eq!(d.responses, r.accesses);
    assert_eq!(d.ondemand, 0, "no request should fall back to on-demand");
    assert_eq!(d.deadline_misses, 0, "device internals must hide behind the delay");
    assert_eq!(d.replayed, r.accesses);
}

/// Replay must also hold up for the applications, whose access sequences
/// interleave many fibers and varying line counts; small reorderings are
/// absorbed by the window, not punted to the on-demand module.
#[test]
fn replay_handles_application_sequences() {
    let cfg = PlatformConfig::paper_default().fibers_per_core(4);
    let mut w = BloomWorkload::new(BloomConfig {
        n_keys: 5_000,
        bits_per_key: 10,
        k: 4,
        lookups_per_fiber: 150,
        work_count: 80,
        ..BloomConfig::default()
    });
    let r = Platform::try_new(cfg.clone()).expect("valid config").run(&mut w);
    let d = r.device.unwrap();
    assert_eq!(d.deadline_misses, 0);
    let ondemand_frac = d.ondemand as f64 / d.responses as f64;
    assert!(ondemand_frac < 0.01, "on-demand fraction {ondemand_frac}");

    let mut w = MemcachedWorkload::new(MemcachedConfig {
        n_items: 2_000,
        value_lines: 4,
        lookups_per_fiber: 80,
        work_count: 80,
        ..MemcachedConfig::default()
    });
    let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
    let d = r.device.unwrap();
    assert_eq!(d.deadline_misses, 0);
    let ondemand_frac = d.ondemand as f64 / d.responses as f64;
    assert!(ondemand_frac < 0.01, "on-demand fraction {ondemand_frac}");
}

/// Identical seeds give bit-identical runs.
#[test]
fn runs_are_deterministic_in_the_seed() {
    let run = |seed: u64| {
        let cfg = PlatformConfig::paper_default().fibers_per_core(6).seed(seed);
        let mut w = ubench(200, 2);
        let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
        (r.elapsed, r.work_insts, r.accesses, r.switches)
    };
    assert_eq!(run(1), run(1));
    // Note: the microbenchmark's *timing* is structurally seed-invariant
    // (every chain access misses regardless of which lines it visits), so
    // equality across seeds is expected there. Seed sensitivity is checked
    // below on a workload whose access structure depends on the data.
    let run_kv = |seed: u64| {
        let cfg = PlatformConfig::paper_default().fibers_per_core(4).seed(seed);
        let mut w = MemcachedWorkload::new(MemcachedConfig {
            n_items: 2_000,
            value_lines: 4,
            lookups_per_fiber: 120,
            work_count: 80,
            ..MemcachedConfig::default()
        });
        let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
        (r.elapsed, r.accesses)
    };
    assert_eq!(run_kv(3), run_kv(3));
    let a = run_kv(3);
    let b = run_kv(4);
    assert_ne!(a, b, "different keys give different probe structure");
}

/// The two-phase discipline records exactly the measured run's accesses:
/// access counts agree between the report and the device's served count
/// across mechanisms and MLP.
#[test]
fn request_conservation_across_mechanisms() {
    for mech in [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue] {
        for mlp in [1usize, 2] {
            let fibers = if mech == Mechanism::OnDemand { 1 } else { 6 };
            let cfg = PlatformConfig::paper_default().mechanism(mech).fibers_per_core(fibers);
            let mut w = ubench(120, mlp);
            let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
            let d = r.device.expect("device run");
            assert_eq!(
                d.responses, r.accesses,
                "served == issued under {mech} mlp={mlp}"
            );
        }
    }
}


/// Jittered response times must not break the record/replay discipline:
/// samples are a pure function of (core, sequence), so both phases see the
/// same timing and the replay still serves everything.
#[test]
fn replay_holds_under_latency_jitter() {
    // 2 us leaves >1 us of internal service time, so the 800 ns spread is
    // not clamped (the interconnect round trip cannot jitter away).
    let cfg = PlatformConfig::paper_default()
        .device_latency(Span::from_us(2))
        .device_jitter(Span::from_ns(800))
        .fibers_per_core(8);
    let mut w = ubench(250, 1);
    let r = Platform::try_new(cfg).expect("valid config").run(&mut w);
    let d = r.device.expect("device run");
    assert_eq!(d.ondemand, 0, "jitter reordering stays within the replay window");
    assert_eq!(d.deadline_misses, 0);
    // The host-observed latency distribution reflects the spread.
    let h = r.fill_latency.expect("fill-latency summary");
    assert!(h.max > h.min + Span::from_ns(500), "spread visible: {:?}..{:?}", h.min, h.max);
}
