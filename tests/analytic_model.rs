//! Validates the closed-form analytic model (§V-B's back-of-the-envelope
//! arithmetic) against the full simulation: in the regimes where the
//! formulas apply they must predict the simulator within tolerance, which
//! guards both against simulator regressions and against the model drifting
//! from the implementation it summarizes.

use kus_core::analytic::{chip_queue_rule, per_core_queue_rule, UbenchModel};
use kus_core::prelude::*;
use kus_workloads::{Microbench, MicrobenchConfig};

fn ubench(iters: u64, mlp: usize) -> Microbench {
    Microbench::new(MicrobenchConfig {
        work_count: 100,
        mlp,
        iters_per_fiber: iters,
        writes_per_iter: 0,
    })
}

fn within(measured: f64, predicted: f64, tol: f64) -> bool {
    (measured - predicted).abs() <= predicted * tol
}

#[test]
fn baseline_rate_matches_prediction() {
    let cfg = PlatformConfig::paper_default().without_replay_device();
    let model = UbenchModel::from_config(&cfg, 100, 1);
    let r = Platform::try_new(cfg).expect("valid config").run_baseline(&mut ubench(800, 1));
    let predicted = model.baseline_access_rate();
    assert!(
        within(r.access_rate(), predicted, 0.15),
        "baseline rate {:.2e} vs predicted {predicted:.2e}",
        r.access_rate()
    );
}

#[test]
fn prefetch_normalized_tracks_model_below_the_wall() {
    // In the thread-limited regime (no LFB pressure, no stall convoys) the
    // occupancy formula is accurate.
    for fibers in [2usize, 4, 8] {
        let cfg = PlatformConfig::paper_default()
            .without_replay_device()
            .fibers_per_core(fibers);
        let model = UbenchModel::from_config(&cfg, 100, 1);
        let base = Platform::try_new(cfg.clone()).expect("valid config").run_baseline(&mut ubench(800, 1));
        let dev = Platform::try_new(cfg).expect("valid config").run(&mut ubench(300, 1));
        let measured = dev.normalized_to(&base);
        let predicted = model.prefetch_normalized();
        assert!(
            within(measured, predicted, 0.20),
            "fibers={fibers}: measured {measured:.3} vs predicted {predicted:.3}"
        );
    }
}

#[test]
fn prefetch_plateau_is_the_lfb_bound() {
    // At 4 us and ample threads, throughput should sit at
    // lfbs / latency accesses per second (within stall-convoy noise).
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .device_latency(Span::from_us(4))
        .fibers_per_core(16);
    let model = UbenchModel::from_config(&cfg, 100, 1);
    assert_eq!(model.prefetch_in_flight(), 10);
    let dev = Platform::try_new(cfg).expect("valid config").run(&mut ubench(200, 1));
    let predicted_rate = 10.0 / 4e-6;
    assert!(
        within(dev.access_rate(), predicted_rate, 0.30),
        "rate {:.2e} vs {predicted_rate:.2e}",
        dev.access_rate()
    );
}

#[test]
fn swq_peak_tracks_cost_model() {
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(Mechanism::SoftwareQueue)
        .fibers_per_core(24);
    let model = UbenchModel::from_config(&cfg, 100, 1);
    let base = Platform::try_new(cfg.clone()).expect("valid config").run_baseline(&mut ubench(800, 1));
    let dev = Platform::try_new(cfg).expect("valid config").run(&mut ubench(250, 1));
    let measured = dev.normalized_to(&base);
    let predicted = model.swq_peak_normalized();
    assert!(
        within(measured, predicted, 0.25),
        "measured {measured:.3} vs predicted {predicted:.3}"
    );
}

#[test]
fn provisioning_rule_matches_figure_scale() {
    // The rule says a 4 us device needs ~80 per-core entries; giving it
    // exactly the rule (and the chip-level companion) must raise the
    // plateau to >3x the stock value.
    let lat = Span::from_us(4);
    let per_core = per_core_queue_rule(lat) as usize;
    let chip = chip_queue_rule(lat, 1) as usize;
    assert_eq!(per_core, 80);
    let stock_cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .device_latency(lat)
        .fibers_per_core(16);
    let ruled_cfg = stock_cfg
        .clone()
        .lfbs(per_core)
        .device_path_credits(chip.max(per_core))
        .fibers_per_core(per_core + per_core / 5);
    let base = Platform::try_new(stock_cfg.clone()).expect("valid config").run_baseline(&mut ubench(800, 1));
    let stock = Platform::try_new(stock_cfg).expect("valid config").run(&mut ubench(150, 1)).normalized_to(&base);
    let ruled = Platform::try_new(ruled_cfg).expect("valid config").run(&mut ubench(150, 1)).normalized_to(&base);
    assert!(ruled > stock * 3.0, "rule-sized queues: {stock:.3} -> {ruled:.3}");
    assert!(ruled > 0.75, "4us device near DRAM with rule-sized queues: {ruled:.3}");
}

#[test]
fn fill_latency_histogram_reflects_configuration() {
    // Uncongested: the measured fill-latency distribution sits tight on the
    // configured device latency.
    let cfg = PlatformConfig::paper_default().without_replay_device().fibers_per_core(8);
    let r = Platform::try_new(cfg).expect("valid config").run(&mut ubench(300, 1));
    let h = r.fill_latency.expect("device run records fill latencies");
    assert_eq!(h.count, r.accesses);
    let mean = h.mean.as_ns_f64();
    assert!((990.0..1100.0).contains(&mean), "mean fill latency {mean}ns");
    assert!(h.max.as_ns() < 1500, "uncongested tail {:?}", h.max);
}

#[test]
fn fill_latency_tail_grows_under_congestion() {
    // With the structural queues lifted, enough parallelism saturates the
    // PCIe link itself and queueing delay appears in the measured tail.
    // (The fill-latency histogram measures from issue onto the interconnect,
    // so back-pressure *behind* the uncore credits does not count — only
    // real wire congestion does.)
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .lfbs(64)
        .device_path_credits(512)
        .cores(8)
        .fibers_per_core(64);
    let r = Platform::try_new(cfg).expect("valid config").run(&mut ubench(100, 1));
    let h = r.fill_latency.expect("fill-latency summary");
    assert!(h.p99 > kus_sim::Span::from_ns(1500), "congested p99 {:?} (mean {:?})", h.p99, h.mean);
}
