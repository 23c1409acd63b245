//! Integration tests asserting the paper's headline quantitative claims —
//! each test pins the *shape* of one finding (who wins, where the walls
//! are, roughly by what factor), not absolute testbed numbers.

use kus_core::prelude::*;
use kus_workloads::figures::{fig10, fig2, fig3, fig6, fig8, Quality};
use kus_workloads::{Microbench, MicrobenchConfig};

fn q() -> Quality {
    Quality { iters: 200, ..Quality::fast() }
}

fn ubench(iters: u64) -> Microbench {
    Microbench::new(MicrobenchConfig { work_count: 100, mlp: 1, iters_per_fiber: iters, writes_per_iter: 0 })
}

/// §V-A / Fig. 2: on-demand accesses are abysmal at reasonable work counts
/// and only partially abated at ~5000 instructions per access.
#[test]
fn on_demand_is_abysmal_then_partially_abates() {
    let f = fig2(&Runner::immediate(), q());
    let one_us = f.series("1us");
    assert!(one_us.at(100.0) < 0.2, "W=100 should be abysmal: {}", one_us.at(100.0));
    let at5000 = one_us.at(5000.0);
    assert!(
        (0.4..0.9).contains(&at5000),
        "W=5000 should be partially abated: {at5000}"
    );
    // Slower devices are uniformly worse.
    let four_us = f.series("4us");
    for w in [100.0, 1000.0, 5000.0] {
        assert!(four_us.at(w) < one_us.at(w));
    }
}

/// §V-B / Fig. 3: prefetch+switch scales near-linearly with threads and
/// hits the 10-LFB wall; at 10 threads and 1 µs it approaches the DRAM
/// baseline; longer latencies have proportionally shallower slopes.
#[test]
fn prefetch_scales_to_the_lfb_wall() {
    let f = fig3(&Runner::immediate(), q());
    let one_us = f.series("1us");
    // Near-linear rise 1 -> 10.
    let r1 = one_us.at(1.0);
    let r10 = one_us.at(10.0);
    assert!(r10 / r1 > 6.0, "should scale ~8x from 1 to 10 threads: {r1} -> {r10}");
    assert!(r10 > 0.8, "10 threads at 1us should approach DRAM: {r10}");
    // No improvement beyond 10 threads (the LFB wall).
    for t in [12.0, 14.0, 16.0] {
        assert!(one_us.at(t) <= r10 * 1.1, "beyond the wall at t={t}");
    }
    // Latency scaling: the plateau is ~inverse in latency.
    let r10_2us = f.series("2us").at(10.0);
    let r10_4us = f.series("4us").at(10.0);
    assert!((0.35..0.75).contains(&(r10_2us / r10)), "2us/1us ratio {}", r10_2us / r10);
    assert!((0.15..0.45).contains(&(r10_4us / r10)), "4us/1us ratio {}", r10_4us / r10);
}

/// §V-B / Fig. 6: MLP consumes LFBs — the 2-read and 4-read variants stop
/// scaling at roughly 5 and 3 threads and plateau well below the 1-read
/// curve.
#[test]
fn mlp_consumes_lfbs() {
    let f = fig6(&Runner::immediate(), q());
    let r1 = f.series("1-read");
    let r2 = f.series("2-read");
    let r4 = f.series("4-read");
    // Peaks are ordered 1-read > 2-read > 4-read.
    assert!(r1.peak() > r2.peak() && r2.peak() > r4.peak(), "{} {} {}", r1.peak(), r2.peak(), r4.peak());
    // 4-read stops gaining by ~3-4 threads: everything past 4 threads is
    // within noise of the value at 4.
    let at4 = r4.at(4.0);
    for t in [6.0, 8.0, 10.0, 16.0] {
        assert!(r4.at(t) < at4 * 1.5, "4-read should not keep scaling at t={t}");
    }
    // 2-read gains clearly from 2 -> 4 threads but not from 4 -> 16.
    assert!(r2.at(4.0) > r2.at(2.0) * 1.5);
    assert!(r2.at(16.0) < r2.at(4.0) * 1.4);
}

/// §V-C / Fig. 7: software queues keep scaling past the LFB wall but peak
/// at ≈50 % of the DRAM baseline on one core.
#[test]
fn swq_peaks_at_half_of_dram() {
    let base_cfg = PlatformConfig::paper_default().without_replay_device();
    let base = Platform::try_new(base_cfg.clone()).expect("valid config").run_baseline(&mut ubench(800));
    let mut peak: f64 = 0.0;
    for t in [8usize, 16, 24, 32] {
        let cfg = base_cfg.clone().mechanism(Mechanism::SoftwareQueue).fibers_per_core(t);
        let r = Platform::try_new(cfg).expect("valid config").run(&mut ubench(200));
        peak = peak.max(r.normalized_to(&base));
    }
    assert!((0.40..0.62).contains(&peak), "swq single-core peak {peak}");
}

/// §V-B / Fig. 5: multicore prefetch is capped by the 14-entry chip-level
/// queue: going from 2 to 8 cores barely helps.
#[test]
fn multicore_prefetch_hits_the_14_entry_wall() {
    let base_cfg = PlatformConfig::paper_default().without_replay_device();
    let base = Platform::try_new(base_cfg.clone()).expect("valid config").run_baseline(&mut ubench(800));
    let run = |cores: usize| {
        let cfg = base_cfg.clone().cores(cores).fibers_per_core(8);
        let r = Platform::try_new(cfg).expect("valid config").run(&mut ubench(200));
        (r.normalized_to(&base), r.device_path_max)
    };
    let (n2, _) = run(2);
    let (n8, occ8) = run(8);
    assert_eq!(occ8, 14, "the shared queue must saturate");
    assert!(n8 < n2 * 1.8, "8 cores should gain little over 2: {n2} -> {n8}");
    // And the wall is the queue, not the workload: lifting it scales.
    let cfg = base_cfg.clone().cores(8).fibers_per_core(8).device_path_credits(256);
    let lifted = Platform::try_new(cfg).expect("valid config").run(&mut ubench(200)).normalized_to(&base);
    assert!(lifted > n8 * 2.5, "lifting the queue should scale: {n8} -> {lifted}");
}

/// §V-C / Fig. 8: multicore software queues scale roughly linearly until
/// the PCIe request-rate bottleneck, where only ≈half the wire bandwidth
/// moves useful data.
#[test]
fn swq_multicore_saturates_pcie_at_half_useful() {
    let f = fig8(&Runner::immediate(), q());
    let one_us = f.series("1us");
    let n1 = one_us.at(1.0);
    let n4 = one_us.at(4.0);
    assert!(n4 > n1 * 3.0, "near-linear to 4 cores: {n1} -> {n4}");
    let n8 = one_us.at(8.0);
    let n12 = one_us.at(12.0);
    assert!(n12 < n8 * 1.15, "capped after ~8 cores: {n8} -> {n12}");

    // Useful-vs-wire accounting at the saturation point.
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(Mechanism::SoftwareQueue)
        .cores(8)
        .fibers_per_core(24);
    let r = Platform::try_new(cfg).expect("valid config").run(&mut ubench(150));
    let link = r.link.expect("device run has a link");
    let useful = link.up_payload_bw(r.elapsed);
    let wire = link.up_wire_bw(r.elapsed);
    assert!(wire > 3.5e9, "device->host direction should be near 4 GB/s: {wire}");
    let frac = useful / wire;
    assert!((0.45..0.70).contains(&frac), "useful fraction {frac}");
}

/// §V-D / Fig. 10: single-core application bands — prefetch reaches
/// 35–65 % of the DRAM baseline, software queues 20–50 %.
#[test]
fn application_single_core_bands() {
    let figs = fig10(&Runner::immediate(), Quality { iters: 120, ..Quality::fast() });
    let panel_a = figs.iter().find(|f| f.id == "fig10a").unwrap();
    let panel_b = figs.iter().find(|f| f.id == "fig10b").unwrap();
    for app in ["bfs", "bloom", "memcached"] {
        let pf = panel_a.series(app).peak();
        assert!(
            (0.25..0.85).contains(&pf),
            "prefetch 1-core peak for {app} out of band: {pf}"
        );
        let swq = panel_b.series(app).peak();
        assert!(
            (0.15..0.62).contains(&swq),
            "swq 1-core peak for {app} out of band: {swq}"
        );
        assert!(pf > swq * 0.9, "prefetch should generally beat swq on one core ({app})");
    }
}

/// §V-D / Fig. 10(c,d): on eight cores the software queues reach 1.2–2.0×
/// the single-core DRAM baseline, while prefetch stays pinned by the
/// 14-entry queue.
#[test]
fn application_multicore_bands() {
    let figs = fig10(&Runner::immediate(), Quality { iters: 100, ..Quality::fast() });
    let panel_c = figs.iter().find(|f| f.id == "fig10c").unwrap();
    let panel_d = figs.iter().find(|f| f.id == "fig10d").unwrap();
    for app in ["bloom", "memcached"] {
        let swq = panel_d.series(app).peak();
        assert!(
            (1.0..3.2).contains(&swq),
            "swq 8-core peak for {app} should exceed the 1-core baseline: {swq}"
        );
        let pf = panel_c.series(app).peak();
        assert!(
            pf < swq,
            "8-core prefetch ({pf}) should trail 8-core swq ({swq}) for {app}"
        );
    }
}

/// §V-B implications: the paper's queue-provisioning rule — with LFBs and
/// the chip queue sized at ~20 × latency-in-µs, even a 4 µs device
/// approaches the DRAM baseline.
#[test]
fn queue_sizing_rule_fixes_the_4us_device() {
    let base_cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .device_latency(Span::from_us(4));
    let base = Platform::try_new(base_cfg.clone()).expect("valid config").run_baseline(&mut ubench(800));
    // Stock hardware: stuck far below DRAM.
    let stock = Platform::try_new(base_cfg.clone().fibers_per_core(10)).expect("valid config")
        .run(&mut ubench(150))
        .normalized_to(&base);
    assert!(stock < 0.45, "stock 4us should be far from DRAM: {stock}");
    // Provisioned per the rule: 20 * 4 = 80 entries/core.
    let fixed = Platform::try_new(
        base_cfg.clone().lfbs(80).device_path_credits(512).fibers_per_core(96),
    ).expect("valid config")
    .run(&mut ubench(150))
    .normalized_to(&base);
    assert!(fixed > 0.75, "provisioned 4us should approach DRAM: {fixed}");
}
