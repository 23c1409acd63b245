//! Trace determinism: the event stream is a pure function of
//! (configuration, seed).
//!
//! The tracer's binary-encoding hash is the fingerprint: two runs with the
//! same seed and configuration must produce bit-identical event streams
//! (same hash, same count), and different seeds must not collide. This is
//! the contract CI enforces by diffing `figures trace --hash` across two
//! invocations, and the foundation the golden-trace suite builds on.

use kus_core::prelude::*;
use kus_load::{load_experiment, ArrivalProcess, LoadReport, LoadSpec, ServingWorkload};
use kus_scenario::Scenario;
use kus_sim::trace::{hash_events, EventName};
use kus_workloads::bloom::{BloomConfig, BloomWorkload};
use kus_workloads::microbench::{Microbench, MicrobenchConfig};
use kus_workloads::trace_scenarios::{run_trace_scenario, run_trace_scenario_opts, trace_scenarios};
use kus_workloads::{MemcachedConfig, MemcachedService, MemcachedWorkload};

/// A small traced run of `mechanism` driving `workload`, single-phase.
fn run_traced(mechanism: Mechanism, workload: &str, seed: u64) -> RunReport {
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(mechanism)
        .fibers_per_core(4)
        .seed(seed)
        .traced();
    match workload {
        "microbench" => {
            let mut w = Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 2,
                iters_per_fiber: 10,
                writes_per_iter: 0,
            });
            Platform::try_new(cfg).expect("valid config").run(&mut w)
        }
        "bloom" => {
            let mut w = BloomWorkload::new(BloomConfig {
                n_keys: 500,
                lookups_per_fiber: 10,
                ..BloomConfig::default()
            });
            Platform::try_new(cfg).expect("valid config").run(&mut w)
        }
        _ => unreachable!("unknown workload {workload}"),
    }
}

fn fingerprint(r: &RunReport) -> (u64, u64) {
    let t = r.trace.as_ref().expect("traced run carries a TraceReport");
    (t.hash, t.count)
}

/// The platform matrix's fingerprints, pinned in source: reproducibility
/// within one build (the test above) is not enough — the stream must also
/// survive *rewrites of the machinery underneath* — the timing-wheel core
/// reproduces the exact streams the original heap core produced (the
/// committed goldens predate the rewrite and still pass), and these
/// constants hold future cores to it. Changing them requires editing this test — do
/// so only for an intentional instrumentation change, never for a
/// scheduler/allocator change (those must be invisible).
#[test]
fn platform_matrix_fingerprints_pinned_in_source() {
    const PINNED: &[(Mechanism, &str, u64, u64)] = &[
        (Mechanism::OnDemand, "microbench", 802992426659715233, 564),
        (Mechanism::Prefetch, "microbench", 17982647613069471200, 684),
        (Mechanism::SoftwareQueue, "microbench", 15950434745468732729, 1080),
        (Mechanism::OnDemand, "bloom", 14957599567877767745, 160),
        (Mechanism::Prefetch, "bloom", 1290797045534035190, 164),
        (Mechanism::SoftwareQueue, "bloom", 14037018213632149953, 2011),
    ];
    let mut diverged = Vec::new();
    for &(mechanism, workload, hash, count) in PINNED {
        let r = run_traced(mechanism, workload, 1);
        if fingerprint(&r) != (hash, count) {
            diverged.push(format!("{mechanism:?}/{workload}: {:?}", fingerprint(&r)));
        }
    }
    assert!(diverged.is_empty(), "fingerprints diverged from source-pinned values:\n{}", diverged.join("\n"));
}

/// A profiled microbench run for one of the core-model paths the matrix
/// above does not reach. The profile class carries the `cpu.work`,
/// `cpu.soft` and `cpu.lfbwait` spans, so their times are pinned too.
fn run_cpu_path(name: &str) -> RunReport {
    let base = PlatformConfig::paper_default().without_replay_device().seed(1).profiled();
    let (cfg, mlp, writes_per_iter) = match name {
        // SMT siblings: one LFB pool, a partitioned ROB.
        "smt2-prefetch" => (base.mechanism(Mechanism::Prefetch).smt(2).fibers_per_core(8), 4, 0),
        "ondemand-stores" => (base.mechanism(Mechanism::OnDemand).fibers_per_core(4), 2, 1),
        "dram-ondemand" => (base.backing(Backing::Dram).mechanism(Mechanism::OnDemand).fibers_per_core(4), 2, 0),
        // Enough prefetches to exhaust the 10 LFBs: `wait_for_slot`
        // retries and dropped prefetches.
        "prefetch-lfb-pressure" => (base.mechanism(Mechanism::Prefetch).fibers_per_core(16), 4, 0),
        _ => unreachable!("unknown cpu path {name}"),
    };
    let mut w = Microbench::new(MicrobenchConfig { work_count: 100, mlp, iters_per_fiber: 10, writes_per_iter });
    Platform::try_new(cfg).expect("valid config").run(&mut w)
}

/// The core model's SMT, posted-store, DRAM and LFB back-pressure paths,
/// pinned in source like the matrix above: a rewrite of the pipeline's
/// bookkeeping must leave every one of these streams bit-identical.
#[test]
fn cpu_path_fingerprints_pinned_in_source() {
    const PINNED: &[(&str, u64, u64)] = &[
        ("smt2-prefetch", 0xea9ecb3839e2766f, 11311),
        ("ondemand-stores", 0xacce96fe7fc3ef1e, 1168),
        ("dram-ondemand", 0x3f74b254ff9bf4b8, 550),
        ("prefetch-lfb-pressure", 0x4bbdb89205318615, 10204),
    ];
    let mut diverged = Vec::new();
    for &(name, hash, count) in PINNED {
        let r = run_cpu_path(name);
        let t = r.trace.as_ref().expect("profiled run carries a TraceReport");
        let has = |event: EventName| t.events.iter().any(|e| e.name == event);
        match name {
            "ondemand-stores" => assert!(r.writes > 0, "{name}: no posted store ran"),
            "smt2-prefetch" | "prefetch-lfb-pressure" => {
                assert!(has(EventName::LfbFull), "{name}: the LFB pool never filled");
                assert!(has(EventName::CpuLfbWait), "{name}: no load waited for an LFB");
            }
            _ => {}
        }
        if fingerprint(&r) != (hash, count) {
            diverged.push(format!("{name}: {:#x} {}", fingerprint(&r).0, fingerprint(&r).1));
        }
    }
    assert!(diverged.is_empty(), "fingerprints diverged from source-pinned values:\n{}", diverged.join("\n"));
}

const MECHANISMS: [Mechanism; 3] =
    [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue];

/// A small Memcached batch run through the two-phase record/replay
/// device, whose replay serves every bucket and value line from the
/// dataset contents by whole-line reads.
fn run_memcached(mechanism: Mechanism, value_lines: u64) -> RunReport {
    let cfg = PlatformConfig::paper_default()
        .mechanism(mechanism)
        .fibers_per_core(4)
        .seed(1)
        .traced();
    let mut w = MemcachedWorkload::new(MemcachedConfig {
        n_items: 301,
        value_lines,
        lookups_per_fiber: 12,
        work_count: 100,
        ..MemcachedConfig::default()
    });
    Platform::try_new(cfg).expect("valid config").run(&mut w)
}

/// Memcached batch runs, pinned in source under every mechanism at one
/// and four value lines: the lookups verify each value word and follow
/// the bucket table's value addresses, so a change to how the dataset
/// contents are laid out or served moves a pin or fails a run.
#[test]
fn memcached_replay_fingerprints_pinned_in_source() {
    const PINNED: &[(Mechanism, u64, u64, u64)] = &[
        (Mechanism::OnDemand, 4, 0xe53e8f04db38e672, 1817),
        (Mechanism::OnDemand, 1, 0x0336d0b887dee5db, 629),
        (Mechanism::Prefetch, 4, 0x51bf7eabe468b498, 1788),
        (Mechanism::Prefetch, 1, 0x5367ecc661fda8ae, 804),
        (Mechanism::SoftwareQueue, 4, 0x42653a90dc397565, 3356),
        (Mechanism::SoftwareQueue, 1, 0xd93e7b5a26c04945, 1724),
    ];
    let mut got = Vec::new();
    for mechanism in MECHANISMS {
        for value_lines in [4, 1] {
            let r = run_memcached(mechanism, value_lines);
            let device = r.device.as_ref().expect("device-backed run");
            assert!(device.replayed > 0, "{mechanism:?}: the replay device served nothing");
            let (hash, count) = fingerprint(&r);
            got.push((mechanism, value_lines, hash, count));
        }
    }
    assert_eq!(got, PINNED, "fingerprints diverged from source-pinned values");
}

/// The `skewed-zipfian` world (Zipfian keys over the Memcached service)
/// at seed 1 under every mechanism, pinned in source like the batch runs
/// above.
#[test]
fn skewed_zipfian_fingerprints_pinned_in_source() {
    const PINNED: &[(Mechanism, u64, u64)] = &[
        (Mechanism::OnDemand, 0x42d170126c0a48c3, 1441),
        (Mechanism::Prefetch, 0x714c8c163ee5d390, 1591),
        (Mechanism::SoftwareQueue, 0x9bb2ffc7bdea4da6, 9776),
    ];
    let spec = Scenario::from_toml(include_str!("../scenarios/skewed-zipfian.toml"))
        .expect("shipped world parses")
        .spec()
        .clone();
    let sc = spec.seed(1).compile().expect("shipped world compiles");
    let got: Vec<_> = MECHANISMS
        .into_iter()
        .map(|mechanism| {
            let cfg = sc.cfg().clone().mechanism(mechanism);
            let r = load_experiment(sc.name(), sc.load(), cfg, sc.service())
                .expect("valid experiment")
                .run();
            let (hash, count) = fingerprint(&r);
            (mechanism, hash, count)
        })
        .collect();
    assert_eq!(got, PINNED, "fingerprints diverged from source-pinned values");
}

/// Same seed + same configuration ⇒ identical trace hash and event count,
/// across the full mechanism × workload matrix.
#[test]
fn same_seed_same_trace_across_matrix() {
    for mechanism in [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue] {
        for workload in ["microbench", "bloom"] {
            let a = run_traced(mechanism, workload, 11);
            let b = run_traced(mechanism, workload, 11);
            let (ha, ca) = fingerprint(&a);
            let (hb, cb) = fingerprint(&b);
            assert!(ca > 0, "{mechanism:?}/{workload}: empty trace");
            assert_eq!((ha, ca), (hb, cb), "{mechanism:?}/{workload}: nondeterministic trace");
        }
    }
}

/// Distinct seeds reshuffle the workload layout, so the event streams (and
/// their hashes) must differ.
#[test]
fn distinct_seeds_distinct_traces() {
    for mechanism in [Mechanism::OnDemand, Mechanism::SoftwareQueue] {
        let a = run_traced(mechanism, "microbench", 1);
        let b = run_traced(mechanism, "microbench", 2);
        assert_ne!(fingerprint(&a).0, fingerprint(&b).0, "{mechanism:?}: seed did not matter");
    }
}

/// The canonical scenarios (the ones golden-locked and exported by
/// `figures --trace`) are deterministic too, including the chaos plan.
#[test]
fn canonical_scenarios_are_deterministic() {
    for s in trace_scenarios() {
        let a = run_trace_scenario(s.name, 0xC0FFEE).expect("known scenario");
        let b = run_trace_scenario(s.name, 0xC0FFEE).expect("known scenario");
        assert_eq!(fingerprint(&a), fingerprint(&b), "{}: nondeterministic", s.name);
        let c = run_trace_scenario(s.name, 0xC0FFEE + 1).expect("known scenario");
        assert_ne!(fingerprint(&a).0, fingerprint(&c).0, "{}: seed did not matter", s.name);
    }
}

/// A serving scenario — open-loop Poisson traffic into the Memcached
/// service — for the load-determinism row of the matrix.
fn run_load_scenario(mechanism: Mechanism, seed: u64, profiled: bool) -> RunReport {
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(mechanism)
        .cores(2)
        .fibers_per_core(4)
        .seed(seed);
    let cfg = if profiled { cfg.profiled() } else { cfg.traced() };
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1_500_000.0 }).requests(150);
    let mut w = ServingWorkload::new(
        spec,
        Box::new(MemcachedService::new(kus_workloads::MemcachedConfig::default())),
    );
    Platform::try_new(cfg).expect("valid config").run(&mut w)
}

/// Serving runs are as deterministic as batch runs: same seed ⇒ identical
/// trace fingerprint AND byte-identical `LoadReport` JSON (the artifact the
/// load sweep emits); a different seed reshuffles the arrival offsets, so
/// the fingerprint must move.
#[test]
fn load_scenario_same_seed_identical_report() {
    for mechanism in [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue] {
        let a = run_load_scenario(mechanism, 77, false);
        let b = run_load_scenario(mechanism, 77, false);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{mechanism:?}: nondeterministic serving");
        let ra = LoadReport::from_run(&a).expect("load events present");
        let rb = LoadReport::from_run(&b).expect("load events present");
        assert_eq!(ra.to_json(), rb.to_json(), "{mechanism:?}: LoadReport JSON diverged");
        assert_eq!(ra.offered, 150);

        let c = run_load_scenario(mechanism, 78, false);
        assert_ne!(fingerprint(&a).0, fingerprint(&c).0, "{mechanism:?}: seed did not matter");
    }
}

/// A profiled twin of [`run_traced`]: same scenarios, profiler on.
fn run_profiled(mechanism: Mechanism, workload: &str, seed: u64) -> RunReport {
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(mechanism)
        .fibers_per_core(4)
        .seed(seed)
        .profiled();
    match workload {
        "microbench" => {
            let mut w = Microbench::new(MicrobenchConfig {
                work_count: 100,
                mlp: 2,
                iters_per_fiber: 10,
                writes_per_iter: 0,
            });
            Platform::try_new(cfg).expect("valid config").run(&mut w)
        }
        "bloom" => {
            let mut w = BloomWorkload::new(BloomConfig {
                n_keys: 500,
                lookups_per_fiber: 10,
                ..BloomConfig::default()
            });
            Platform::try_new(cfg).expect("valid config").run(&mut w)
        }
        _ => unreachable!("unknown workload {workload}"),
    }
}

/// Same seed + same configuration ⇒ byte-identical profile JSON (the
/// artifact `figures --profile` diffs in CI), across the mechanism ×
/// workload matrix. Profiling implies tracing, so the trace fingerprint is
/// covered too.
#[test]
fn same_seed_same_profile_json_across_matrix() {
    for mechanism in [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue] {
        for workload in ["microbench", "bloom"] {
            let a = run_profiled(mechanism, workload, 11);
            let b = run_profiled(mechanism, workload, 11);
            let pa = a.profile.as_ref().expect("profiled run carries a ProfileReport");
            let pb = b.profile.as_ref().expect("profiled run carries a ProfileReport");
            assert_eq!(
                pa.to_json(),
                pb.to_json(),
                "{mechanism:?}/{workload}: nondeterministic profile"
            );
            assert!(
                !pa.verdicts.is_empty(),
                "{mechanism:?}/{workload}: profiler reached no verdict"
            );
        }
    }
}

/// Distinct seeds reshuffle the Poisson arrival offsets, so the SWQ blame
/// tables — which aggregate per-request critical-path timings — must
/// differ. (The closed-loop microbench is *timing*-invariant under reseeding
/// — only addresses move — so the serving scenario is the sensitive probe.)
#[test]
fn distinct_seeds_distinct_blame_tables() {
    let a = run_load_scenario(Mechanism::SoftwareQueue, 1, true);
    let b = run_load_scenario(Mechanism::SoftwareQueue, 2, true);
    let pa = a.profile.expect("profiled");
    let pb = b.profile.expect("profiled");
    assert!(pa.blame.requests > 0, "SWQ run produced no blamed requests");
    assert_ne!(
        format!("{:?}", pa.blame.rows),
        format!("{:?}", pb.blame.rows),
        "seed did not move the blame table"
    );
}

/// The fingerprint computed at harvest recomputes from the events the
/// report keeps, and the binary log round-trips through encode/decode.
#[test]
fn hash_recomputes_and_log_round_trips() {
    let r = run_trace_scenario("swq-optimized", 5).expect("known scenario");
    let t = r.trace.expect("traced");
    let events: Vec<_> = t.events.iter().collect();
    assert_eq!(t.hash, hash_events(&events), "harvest hash != recomputation");

    let encoded = kus_sim::trace::encode(&events);
    let decoded = kus_sim::trace::decode(&encoded).expect("well-formed log");
    assert_eq!(decoded.len(), t.events.len());
    for (d, e) in decoded.iter().zip(&t.events) {
        assert_eq!(d.at, e.at);
        assert_eq!(d.name, e.name.as_str());
        assert_eq!((d.track, d.a0, d.a1), (e.track, e.a0, e.a1));
    }
}

/// The deep per-access event class is deterministic as well, and strictly
/// grows the stream relative to the default class.
#[test]
fn deep_trace_is_deterministic_and_additive() {
    let shallow = run_trace_scenario_opts("ondemand-baseline", 3, false).expect("known");
    let a = run_trace_scenario_opts("ondemand-baseline", 3, true).expect("known");
    let b = run_trace_scenario_opts("ondemand-baseline", 3, true).expect("known");
    assert_eq!(fingerprint(&a), fingerprint(&b), "deep trace nondeterministic");
    assert!(fingerprint(&a).1 > fingerprint(&shallow).1, "the deep class added no events");
}
