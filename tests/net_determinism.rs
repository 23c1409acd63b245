//! The guarantees the kus-net front end must keep:
//!
//! 1. **Fingerprint matrix** — every access mechanism × NIC model pair
//!    reproduces the same trace fingerprint for the same seed, and each
//!    pair's fingerprint is distinct from the wire-less run (the front
//!    end really changed the event stream, deterministically).
//! 2. **Sweep equivalence** — `figures net` artifacts (JSON and CSV) are
//!    byte-identical between `--jobs 1` and `--jobs 4`, the baseline
//!    front end comes first, only NIC cells carry a `NetReport`, and
//!    knee shifts are measured against the baseline.
//! 3. **Bitwise inertness** — under every mechanism, a spec that spells
//!    out the default (disabled) NIC and the direct tier chain is
//!    bit-indistinguishable from one that never mentions them.

use kus_bench::serving::{Preset, ServingMatrix};
use kus_bench::sweep::SweepOptions;
use kus_core::prelude::*;
use kus_load::{
    load_experiment, service_factory, ArrivalProcess, EchoService, LoadSpec, NetConfig,
    NicModelKind, TierSpec,
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
    LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 600_000.0 })
        .requests(120)
        .queue_capacity(16)
}

fn fingerprint(spec: LoadSpec, cfg: PlatformConfig) -> u64 {
    let exp = load_experiment("net-determinism", spec, cfg, service_factory(|| EchoService::new(64)))
        .expect("valid spec");
    let run = exp.run();
    run.trace.as_ref().expect("traced run").hash
}

/// Mechanism × NIC model: same seed → same fingerprint, and each NIC
/// model perturbs the wire-less baseline stream.
#[test]
fn mechanism_by_nic_model_fingerprints_are_reproducible_and_distinct() {
    for mech in MECHANISMS {
        let bare = fingerprint(base_spec(), base_cfg(mech).seed(33));
        for nic in [NicModelKind::dma(), NicModelKind::nanopu()] {
            let spec = || base_spec().net(NetConfig::on().nic(nic)).tiers(TierSpec::rpc());
            let a = fingerprint(spec(), base_cfg(mech).seed(33));
            let b = fingerprint(spec(), base_cfg(mech).seed(33));
            assert_eq!(a, b, "{mech} × {} must reproduce for one seed", nic.name());
            assert_ne!(
                a, bare,
                "{mech} × {} must actually change the event stream",
                nic.name()
            );
        }
    }
}

/// Delivery jitter is drawn from a labeled stream: same seed reproduces
/// it, a different seed moves it.
#[test]
fn nic_jitter_reproduces_per_seed() {
    let spec = || base_spec().net(NetConfig::on().jitter(kus_sim::Span::from_ns(500)));
    let a = fingerprint(spec(), base_cfg(Mechanism::Prefetch).seed(5));
    let b = fingerprint(spec(), base_cfg(Mechanism::Prefetch).seed(5));
    let c = fingerprint(spec(), base_cfg(Mechanism::Prefetch).seed(6));
    assert_eq!(a, b);
    assert_ne!(a, c, "a different seed must draw different jitter");
}

fn tiny_net_sweep() -> Preset {
    let base = ServingMatrix::new(
        "echo",
        service_factory(|| EchoService::new(64)),
        base_spec().net(NetConfig::on()),
        base_cfg(Mechanism::Prefetch).seed(17),
    );
    Preset::net(
        base,
        &[NicModelKind::dma(), NicModelKind::nanopu()],
        &[TierSpec::rpc(), TierSpec::fanout(4)],
        &[300_000, 3_000_000],
    )
}

/// The `figures net` artifacts are byte-identical at any `--jobs`.
#[test]
fn net_sweep_artifacts_are_byte_identical_across_jobs() {
    let serial = tiny_net_sweep().run(&SweepOptions::jobs(1));
    let pooled = tiny_net_sweep().run(&SweepOptions::jobs(4));
    assert_eq!(serial.errors().count(), 0, "{:?}", serial.errors().collect::<Vec<_>>());
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    // Both NIC models over both topologies, plus the baseline front end.
    assert_eq!(serial.main.knees().len(), 5);
}

/// The baseline front end comes first, then each NIC model's cells, and
/// that layout survives any `--jobs`.
#[test]
fn sweep_is_baseline_first_and_deterministic_across_jobs() {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(60)
        .queue_capacity(16)
        .net(NetConfig::on());
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .fibers_per_core(4)
        .dataset_bytes(1 << 20);
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    let spec = Preset::net(
        base,
        &[NicModelKind::dma(), NicModelKind::nanopu()],
        &[TierSpec::rpc()],
        &[200_000, 5_000_000],
    );
    assert_eq!(spec.cell_count(), 6);
    let serial = spec.run(&SweepOptions::jobs(1));
    let pooled = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    let front = |i: usize| {
        let c = &serial.main.cells[i];
        format!("{}/{}", c.facet("nic"), c.facet("topology"))
    };
    assert_eq!(
        (front(0), front(2), front(4)),
        ("off/direct".into(), "dma/rpc".into(), "nanopu/rpc".into())
    );
    assert_eq!(serial.errors().count(), 0);
}

#[test]
fn baseline_cells_carry_no_net_report_and_nic_cells_do() {
    let results = tiny_net_sweep().run(&SweepOptions::jobs(2));
    let base = results.main.cells[0].outcome.as_ref().expect("baseline ran");
    assert!(base.net.is_none(), "baseline must not see net events");
    let nic = results.main.cells[2].outcome.as_ref().expect("dma cell ran");
    let net = nic.net.as_ref().expect("NIC cell decomposes");
    assert!(net.packets > 0);
    assert!(net.e2e.p99 >= nic.load.latency.p99, "e2e includes the wire");
}

#[test]
fn knees_and_shifts_reference_the_baseline() {
    let results = tiny_net_sweep().run(&SweepOptions::jobs(2));
    let knees = results.main.knees();
    let baseline: Vec<_> = knees[0].group.iter().map(|f| f.1.to_string()).collect();
    assert_eq!(baseline, ["off", "direct"]);
    assert!(results.main.baseline_knee().is_some(), "300k rps must keep up");
    let shifts = results.main.knee_shifts();
    for (k, shift) in &shifts {
        assert_ne!(k, &knees[0], "the baseline has no shift against itself");
        // The shift is bounded by the swept range.
        assert!(shift.abs() <= 3_000_000);
    }
    let json = results.to_json();
    assert!(json.contains("\"knee_shifts\""));
    assert!(json.contains("\"baseline_knee_rps\""));
}

/// Spelling out the defaults is invisible under every mechanism: the
/// disabled front end may not shift a single event or draw its RNG.
#[test]
fn disabled_front_end_is_bitwise_inert_under_every_mechanism() {
    for mech in MECHANISMS {
        let plain = fingerprint(base_spec(), base_cfg(mech).seed(44));
        let explicit = fingerprint(
            base_spec().net(NetConfig::default()).tiers(TierSpec::direct()),
            base_cfg(mech).seed(44),
        );
        assert_eq!(plain, explicit, "default net/tiers must be bit-invisible under {mech}");
    }
}
