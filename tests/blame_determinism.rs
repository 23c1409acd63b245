//! The guarantees the causal blame layer must keep:
//!
//! 1. **Sweep equivalence** — `figures blame` artifacts (JSON and CSV)
//!    are byte-identical between `--jobs 1` and `--jobs 4`, with the
//!    `direct` baseline first and shard blame on every fan-out cell.
//! 2. **Seed sensitivity** — distinct seeds walk distinct critical
//!    paths; one seed reproduces its `BlameReport` byte-for-byte.
//! 3. **Bitwise inertness** — with the causal event class off (the
//!    default), the trace stream is byte-identical under every
//!    mechanism to a run that never heard of causality; turning it on
//!    only *extends* the stream with the causal event names.
//! 4. **The telescoping invariant** — on live runs of every mechanism ×
//!    topology, per-hop critical time sums to the population's total
//!    critical time exactly (the per-request equivalent is asserted
//!    inside `BlameReport` construction).

use kus_bench::serving::{Preset, ServingMatrix};
use kus_bench::sweep::SweepOptions;
use kus_core::prelude::*;
use kus_load::{
    load_experiment, service_factory, ArrivalProcess, BlameReport, EchoService, LoadSpec,
    TierSpec,
};

const MECHANISMS: [Mechanism; 3] =
    [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue];

fn base_cfg(mech: Mechanism) -> PlatformConfig {
    PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(mech)
        .cores(2)
        .fibers_per_core(4)
        .dataset_bytes(1 << 20)
}

fn base_spec() -> LoadSpec {
    LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 400_000.0 })
        .requests(120)
        .queue_capacity(16)
        .tiers(TierSpec::fanout(4))
}

fn run(spec: LoadSpec, cfg: PlatformConfig) -> RunReport {
    load_experiment("blame-determinism", spec, cfg, service_factory(|| EchoService::new(64)))
        .expect("valid spec")
        .run()
}

fn tiny_sweep() -> Preset {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(80)
        .queue_capacity(16);
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .cores(2)
        .fibers_per_core(4)
        .dataset_bytes(1 << 20);
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    Preset::blame(
        base,
        &[Mechanism::OnDemand, Mechanism::SoftwareQueue],
        &[TierSpec::fanout(4)],
        &[200_000, 1_500_000],
    )
}

/// `figures blame` artifacts are byte-identical across `--jobs` values.
#[test]
fn blame_sweep_artifacts_are_jobs_invariant() {
    let spec = tiny_sweep();
    let serial = spec.run(&SweepOptions::jobs(1));
    let pooled = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    assert_eq!(serial.errors().count(), 0);
}

/// The `direct` baseline comes first per mechanism, and that layout
/// survives any `--jobs`.
#[test]
fn sweep_is_baseline_first_and_deterministic_across_jobs() {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(80)
        .queue_capacity(16);
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .fibers_per_core(4)
        .dataset_bytes(1 << 20);
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    let spec =
        Preset::blame(base, &[Mechanism::OnDemand], &[TierSpec::fanout(4)], &[200_000, 2_000_000]);
    assert_eq!(spec.cell_count(), 4);
    let serial = spec.run(&SweepOptions::jobs(1));
    let pooled = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    assert_eq!(serial.main.cells[0].facet("topology"), "direct");
    assert_eq!(serial.main.cells[2].facet("topology"), "fanout");
    assert_eq!(serial.errors().count(), 0);
}

#[test]
fn fanout_cells_resolve_shard_blame_and_flip_vs_baseline() {
    let results = tiny_sweep().run(&SweepOptions::jobs(2));
    let blame = |i: usize| {
        let cell = results.main.cells[i].outcome.as_ref().expect("cell ran");
        cell.blame.clone().expect("causal cells carry blame")
    };
    // The causal event class must resolve the join: some shard hop
    // appears in the fan-out cell's blame table.
    let fan = blame(2);
    assert!(
        fan.overall.hops.iter().any(|h| h.hop.starts_with("rpc.shard")),
        "fan-out blame must name shard hops, got {:?}",
        fan.overall.hops.iter().map(|h| h.hop.as_str()).collect::<Vec<_>>(),
    );
    assert!(blame(0).overall.hops.iter().all(|h| !h.hop.starts_with("rpc.")));
    // Every request decomposes exactly; the report exists for all cells.
    for i in 0..results.main.cells.len() {
        let b = blame(i);
        assert_eq!(b.requests, b.completed + b.truncated);
    }
    for f in results.main.flips() {
        assert_eq!(results.main.cells[f.cell].facet("topology"), "fanout");
    }
    assert!(results.to_json().contains("\"flips\""));
}

/// One seed reproduces the report byte-for-byte; a different seed walks
/// a different critical path (the arrival draw moves, so queue waits,
/// join resolution, and the tail population all move).
#[test]
fn distinct_seeds_walk_distinct_critical_paths() {
    let report = |seed: u64| {
        let r = run(base_spec(), base_cfg(Mechanism::SoftwareQueue).causal().seed(seed));
        BlameReport::from_run(&r).expect("blameable run").to_json()
    };
    let a = report(33);
    let b = report(33);
    let c = report(34);
    assert_eq!(a, b, "one seed must reproduce its blame byte-for-byte");
    assert_ne!(a, c, "a different seed must walk a different critical path");
}

/// With causality off, every mechanism's event stream is bitwise
/// identical to one that never mentions the flag; with it on, the
/// stream is a strict extension: removing the causal-only event names
/// recovers the original stream exactly, event for event.
#[test]
fn disabled_causality_is_bitwise_inert_under_every_mechanism() {
    for mech in MECHANISMS {
        let plain = run(base_spec(), base_cfg(mech).seed(9));
        let plain2 = run(base_spec(), base_cfg(mech).seed(9));
        let causal = run(base_spec(), base_cfg(mech).causal().seed(9));
        let pt = plain.trace.as_ref().expect("traced");
        let pt2 = plain2.trace.as_ref().expect("traced");
        let ct = causal.trace.as_ref().expect("traced");
        assert_eq!(pt.hash, pt2.hash, "{mech}: causal-off must reproduce");
        assert_eq!(pt.events, pt2.events);
        assert_ne!(pt.hash, ct.hash, "{mech}: causal must extend the stream");
        let stripped: Vec<_> = ct
            .events
            .iter()
            .filter(|e| e.name != "rpc.hop" && e.name != "rpc.tx")
            .copied()
            .collect();
        assert_eq!(
            stripped, pt.events,
            "{mech}: causal events must be additive — never reordering or \
             perturbing the base stream"
        );
    }
}

/// On live runs of every mechanism, the per-hop attribution sums to the
/// population total exactly — blame is a decomposition, not an estimate.
/// (The per-request bit-exact critical-path-equals-sojourn invariant is
/// asserted inside the DAG walk itself.)
#[test]
fn hop_attribution_telescopes_exactly_on_live_runs() {
    for mech in MECHANISMS {
        for tiers in [TierSpec::direct(), TierSpec::rpc(), TierSpec::fanout(4)] {
            let spec = base_spec().tiers(tiers);
            let r = run(spec, base_cfg(mech).causal().seed(21));
            let blame = BlameReport::from_run(&r).expect("blameable run");
            for table in [&blame.overall, &blame.tail] {
                let sum: u64 = table.hops.iter().map(|h| h.critical.as_ps()).sum();
                assert_eq!(
                    sum,
                    table.critical.as_ps(),
                    "{mech}/{}: hop blame must sum to the total exactly",
                    tiers.topology.name(),
                );
            }
            assert_eq!(blame.requests, blame.completed + blame.truncated);
            if tiers.fanout_width() > 0 {
                assert!(
                    blame.overall.hops.iter().any(|h| h.hop.starts_with("rpc.shard")),
                    "{mech}: causal fan-out runs must resolve shard blame",
                );
            }
        }
    }
}
