//! Overload-control guarantees that hold the whole subsystem together:
//!
//! 1. **Chaos determinism** — an AdaptiveConcurrency sweep under a
//!    serving-layer chaos plan (freeze windows + fiber crashes +
//!    dispatcher stalls) emits byte-identical JSON/CSV artifacts at
//!    `--jobs 1` and `--jobs 4`, and the same seed reproduces the same
//!    trace fingerprint run-to-run.
//! 2. **Inertness** — a spec that explicitly selects the overload-control
//!    defaults (`Static` admission, inert retry policy, empty fault plan)
//!    is bitwise-indistinguishable from a spec that never mentions them:
//!    same trace fingerprint, same event count, same report JSON. The
//!    overload machinery costs nothing unless it is asked for.
//! 3. **The overload preset** — cells run policy-major, every matrix cell
//!    carries a recovery verdict, and the committed `artifacts/overload/`
//!    files come back byte-for-byte from the flagless `figures overload`
//!    preset; in the retry pair the budget bounds the amplification the
//!    unbudgeted client shows.

use kus_bench::serving::{Preset, ServingFlags, ServingMatrix};
use kus_bench::sweep::SweepOptions;
use kus_core::prelude::*;
use kus_load::{
    load_experiment, service_factory, AdmissionControl, ArrivalProcess, EchoService, LoadReport,
    LoadSpec, RetryPolicy, SloSpec,
};
use kus_scenario::MatrixSpec;
use kus_sim::fault::FaultPlan;
use kus_sim::Span;

fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_freeze_windows(Span::from_us(60), Span::from_us(25), Span::from_us(20))
        .with_fiber_crashes(0.02, Span::from_us(3))
        .with_dispatcher_stalls(0.05, Span::from_us(5))
}

fn chaos_sweep() -> Preset {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(150)
        .queue_capacity(32)
        .slo(SloSpec::none().p99(Span::from_us(40)));
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .cores(2)
        .fibers_per_core(4)
        .seed(11);
    let m = MatrixSpec {
        policies: vec![AdmissionControl::AdaptiveConcurrency { initial: 4, max: 16, window: 16 }],
        plans: vec![("chaos".into(), chaos_plan())],
        rates: vec![2_000_000],
        retry_pair: true,
    };
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(256)), spec, cfg);
    Preset::overload(base, &m)
}

/// Static vs deadline-aware admission under a calm and a freeze plan, plus
/// the retry pair, on a single four-fiber core.
fn tiny_sweep() -> Preset {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(150)
        .queue_capacity(32)
        .slo(SloSpec::none().p99(Span::from_us(40)));
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .fibers_per_core(4)
        .dataset_bytes(1 << 20);
    let freeze = FaultPlan::none().with_freeze_windows(
        Span::from_us(60),
        Span::from_us(25),
        Span::from_us(20),
    );
    let deadline =
        AdmissionControl::DeadlineAware { target: Span::from_us(2), interval: Span::from_us(5) };
    let m = MatrixSpec {
        policies: vec![AdmissionControl::Static, deadline],
        plans: vec![("calm".into(), FaultPlan::none()), ("freeze".into(), freeze)],
        rates: vec![2_000_000],
        retry_pair: true,
    };
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    Preset::overload(base, &m)
}

#[test]
fn sweep_is_policy_major_and_deterministic_across_jobs() {
    let spec = tiny_sweep();
    assert_eq!(spec.cell_count(), 4 + 2);
    let serial = spec.run(&SweepOptions::jobs(1));
    let pooled = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    assert_eq!(serial.errors().count(), 0, "{:?}", serial.errors().collect::<Vec<_>>());
    let at = |i: usize| (serial.main.cells[i].facet("policy"), serial.main.cells[i].facet("plan"));
    assert_eq!(at(0), ("static".into(), "calm".into()));
    assert_eq!(at(3), ("deadline".into(), "freeze".into()));
    let pair = serial.retry_cells();
    assert_eq!(pair[0].facet("budgeted"), "true");
    assert_eq!(pair[1].facet("budgeted"), "false");
    let csv = serial.to_csv();
    let verdicts: Vec<&str> = csv.lines().skip(1).map(|l| l.split(',').nth(6).unwrap()).collect();
    let judged: Vec<bool> = verdicts.iter().map(|v| !v.is_empty()).collect();
    assert_eq!(judged, [true, true, true, true, false, false], "{verdicts:?}");
    assert!(serial.main.sim_events > 0, "throughput record needs event counts");
    assert!(serial.bench_json().starts_with("{\"suite\":\"overload\",\"cells\":6,"));
}

#[test]
fn budget_bounds_amplification_where_unbudgeted_amplifies() {
    let results = tiny_sweep().run(&SweepOptions::jobs(2));
    let amp = |i: usize| {
        results.retry_cells()[i].outcome.as_ref().expect("ran").load.retry_amplification
    };
    let (budgeted, unbudgeted) = (amp(0), amp(1));
    assert!(budgeted < 1.2, "budgeted amplification {budgeted}");
    assert!(
        unbudgeted > budgeted,
        "unbudgeted {unbudgeted} must amplify beyond budgeted {budgeted}"
    );
}

/// Same seed, same chaos, any `--jobs`: the artifacts are byte-identical.
#[test]
fn adaptive_chaos_sweep_is_byte_identical_across_jobs() {
    let serial = chaos_sweep().run(&SweepOptions::jobs(1));
    let parallel = chaos_sweep().run(&SweepOptions::jobs(4));
    assert_eq!(serial.errors().count(), 0, "{:?}", serial.errors().collect::<Vec<_>>());
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // The chaos really bit: crashes and stalls are in the artifact.
    let report = &serial.main.cells[0].outcome.as_ref().unwrap().load;
    assert!(report.crashes + report.dispatcher_stalls > 0, "chaos plan was a no-op");
    assert!(!report.fault_windows.is_empty(), "freeze windows missing from the trace");
}

/// The committed `artifacts/overload/` files are regenerated byte-for-byte
/// by the default degradation sweep — the preset `figures overload` builds
/// with no flags. This pins the *entire* deterministic output of the
/// serving + overload + event-core stack to the repository: any scheduler
/// or allocator change that perturbs even one event's order shows up as an
/// artifact diff here. (The wall-clock `BENCH_overload.json` is the one
/// non-deterministic sibling and is deliberately not pinned.)
#[test]
fn committed_overload_artifacts_reproduce() {
    let preset = ServingFlags::default().preset("overload").expect("defaults are valid");
    let results = preset.run(&SweepOptions::jobs(2));
    assert_eq!(results.errors().count(), 0, "{:?}", results.errors().collect::<Vec<_>>());

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/overload");
    let committed = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("missing committed artifact {name}: {e}"))
    };
    assert_eq!(
        results.to_json(),
        committed("overload.json"),
        "artifacts/overload/overload.json diverged — regenerate with \
         `figures overload --json ... --csv ... > overload.txt` and review the diff"
    );
    assert_eq!(results.to_csv(), committed("overload.csv"), "overload.csv diverged");
    assert_eq!(results.render_table(), committed("overload.txt"), "overload.txt diverged");
}

/// Same seed, two fresh runs: identical trace fingerprint under chaos.
#[test]
fn chaos_run_fingerprint_is_reproducible() {
    let run = || {
        let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 2_000_000.0 })
            .requests(150)
            .queue_capacity(32)
            .admission(AdmissionControl::AdaptiveConcurrency { initial: 4, max: 16, window: 16 })
            .faults(chaos_plan());
        let cfg = PlatformConfig::paper_default()
            .without_replay_device()
            .fibers_per_core(4)
            .seed(11)
            .traced();
        load_experiment("chaos", spec, cfg, service_factory(|| EchoService::new(256)))
            .expect("valid spec")
            .run()
    };
    let (a, b) = (run(), run());
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.hash, tb.hash);
    assert_eq!(ta.count, tb.count);
}

/// Explicit defaults are bitwise-inert: selecting `Static` + no retries +
/// an empty fault plan reproduces the untouched spec exactly — trace
/// fingerprint, event count, and report JSON.
#[test]
fn explicit_overload_defaults_are_bitwise_inert() {
    let run = |configured: bool| {
        let mut spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 2_000_000.0 })
            .requests(200)
            .queue_capacity(32);
        if configured {
            spec = spec
                .admission(AdmissionControl::Static)
                .retry(RetryPolicy::none())
                .faults(FaultPlan::none());
        }
        let cfg = PlatformConfig::paper_default()
            .without_replay_device()
            .fibers_per_core(4)
            .seed(7)
            .traced();
        load_experiment("inert", spec, cfg, service_factory(|| EchoService::new(256)))
            .expect("valid spec")
            .run()
    };
    let (plain, explicit) = (run(false), run(true));
    let (tp, te) = (plain.trace.as_ref().unwrap(), explicit.trace.as_ref().unwrap());
    assert_eq!(tp.hash, te.hash, "explicit overload defaults perturbed the trace");
    assert_eq!(tp.count, te.count);
    let (rp, re) =
        (LoadReport::from_run(&plain).unwrap(), LoadReport::from_run(&explicit).unwrap());
    assert_eq!(rp.to_json(), re.to_json());
    assert_eq!(rp.shed, rp.shed_queue_full + rp.shed_deadline + rp.shed_admission);
    assert_eq!((rp.retries, rp.crashes, rp.dispatcher_stalls), (0, 0, 0));
}
