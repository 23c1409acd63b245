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
//! 5. **A pinned Perfetto document** — the `figures blame --trace`
//!    export at the CI smoke flags hashes to a digest fixed in source.
//! 6. **A pinned harvest** — four corpus worlds, frozen inline, under
//!    every mechanism: the `LoadReport`, `NetReport` and `BlameReport`
//!    JSON and the Chrome document with flow arrows each hash to a
//!    digest fixed in source.

use kus_bench::serving::{Preset, ServingFlags, ServingMatrix};
use kus_bench::sweep::SweepOptions;
use kus_core::prelude::*;
use kus_load::{
    flow_arrows, load_experiment, service_factory, ArrivalProcess, BlameReport, EchoService,
    LoadReport, LoadSpec, NetReport, TierSpec,
};
use kus_scenario::Scenario;
use kus_sim::trace::{chrome_json_with_flows, EventName};
use kus_sim::{fnv1a, FNV_OFFSET};

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
            .filter(|e| !matches!(e.name, EventName::RpcHop | EventName::RpcTx))
            .collect();
        assert_eq!(
            stripped,
            pt.events.iter().collect::<Vec<_>>(),
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


/// The `figures blame --trace` document at the CI smoke flags (`--service
/// echo --topos fanout4 --rates 250k,1m,2m --requests 200`), built the way
/// the CLI builds it: the preset's traced run, its flow arrows, and one
/// Chrome export. CI only diffs two runs of one binary; this digest pins
/// the bytes across commits, so an exporter or trace change that moves
/// one byte of the Perfetto document fails here.
#[test]
fn blame_trace_document_is_pinned() {
    const DIGEST: u64 = 0xd64df58eb4911022;
    const LEN: usize = 1_442_777;
    let flags = ServingFlags {
        service: Some("echo".into()),
        rates: vec![250_000, 1_000_000, 2_000_000],
        topologies: vec![TierSpec::fanout(4)],
        requests: Some(200),
        ..ServingFlags::default()
    };
    let preset = flags.preset("blame").expect("smoke flags are valid");
    let run = preset.trace_run().expect("blame has a traced run").expect("valid config").run();
    let t = run.trace.as_ref().expect("traced run");
    let arrows = flow_arrows(&t.events);
    assert!(!arrows.is_empty(), "the fan-out trace draws flow arrows");
    let json = chrome_json_with_flows(&t.events, &arrows);
    assert_eq!(
        (fnv1a(FNV_OFFSET, json.as_bytes()), json.len()),
        (DIGEST, LEN),
        "figures blame --trace document diverged from the source-pinned digest"
    );
}

/// Frozen copies of six serving worlds, so that later corpus edits cannot
/// move the harvest pins: four `scenarios/` worlds (NIC stages with a
/// memcached fan-out, jittered delivery, a closed loop, a flash crowd),
/// `hostile-crash-stall` for sheds and truncated DAGs, and a closed loop
/// whose 2 µs client timeout is shorter than a software-queue serve, for
/// timeouts and retries. None of the first four sheds or retries at seed 1.
const HARVEST_WORLDS: [&str; 6] = [
    r#"
name = "rpc-fanout-4"
[traffic]
arrival = "poisson"
rate_rps = 1.5e5
requests = 160
[service]
kind = "memcached"
[net]
model = "dma"
[tiers]
topology = "fanout"
fanout = 4
[slo]
p99_ns = 60000.0
"#,
    r#"
name = "rpc-hostile-nic-jitter"
[traffic]
arrival = "poisson"
rate_rps = 8.0e5
requests = 160
[net]
model = "dma"
coupling = 2.0
jitter_ns = 2000.0
[tiers]
topology = "rpc"
[slo]
p99_ns = 40000.0
"#,
    r#"
name = "hostile-retry-storm"
[traffic]
arrival = "closedloop"
users = 12
think_ns = 1000.0
requests = 160
[retry]
timeout_ns = 50000.0
max_attempts = 3
budget = 0.5
backoff_ns = 10000.0
[faults]
latency_spike_prob = 0.05
latency_spike_ns = 20000.0
"#,
    r#"
name = "flash-crowd"
[traffic]
arrival = "flashcrowd"
base_rps = 6.0e5
spike_rps = 3.0e6
at_ns = 20000.0
rise_ns = 2000.0
hold_ns = 15000.0
fall_ns = 10000.0
requests = 180
[slo]
p99_ns = 60000.0
max_shed_fraction = 0.2
"#,
    r#"
name = "hostile-crash-stall"
[traffic]
arrival = "poisson"
rate_rps = 1.5e6
requests = 180
[queue]
capacity = 32
[admission]
policy = "adaptive"
initial = 4
max = 16
window = 16
[faults]
fiber_crash_prob = 0.02
fiber_respawn_ns = 3000.0
dispatcher_stall_prob = 0.1
dispatcher_stall_ns = 5000.0
"#,
    r#"
name = "retry-timeout-2us"
[traffic]
arrival = "closedloop"
users = 12
think_ns = 1000.0
requests = 160
[retry]
timeout_ns = 2000.0
max_attempts = 3
budget = 0.5
backoff_ns = 10000.0
"#,
];

/// One line per world and mechanism: `(FNV-1a, length)` of each harvest
/// output at seed 1, `net=-` where the world has no NIC.
const HARVEST_PINS: &str = "\
rpc-fanout-4 on-demand load=68f20759a85bec10/3757 net=80c81b41b93daf3f/1619 blame=30df7456571a2979/3834 chrome=409fe062a331bb50/1736624
rpc-fanout-4 prefetch load=e3f17cac67b5a1b0/3757 net=62302285e398af64/1619 blame=69a6a266c11befbc/3828 chrome=8015818add45bdca/1914807
rpc-fanout-4 swq load=ae105ee5dd8bcab5/3780 net=73cdf2411fdf48b9/1629 blame=702f06d3006f8bb9/3870 chrome=e1fb089c4bbc4189/3247490
rpc-hostile-nic-jitter on-demand load=3ebe044cc9dee191/3750 net=322b2c0e5656d271/1506 blame=0321a96810aeaf53/2278 chrome=eb86fcad96aad895/354932
rpc-hostile-nic-jitter prefetch load=3ebe044cc9dee191/3750 net=322b2c0e5656d271/1506 blame=0321a96810aeaf53/2278 chrome=e7f478c3c242b9ef/390036
rpc-hostile-nic-jitter swq load=2344140fc2ef0933/3768 net=3be412910c56d43b/1511 blame=324d3caf79085725/2279 chrome=d49122c95f9197b3/687308
hostile-retry-storm on-demand load=f505061e00e661b3/3720 net=- blame=c0169ca551a3653a/533 chrome=afa52cb38b735de2/160761
hostile-retry-storm prefetch load=f505061e00e661b3/3720 net=- blame=c0169ca551a3653a/533 chrome=8490b413c6004452/195911
hostile-retry-storm swq load=53a43ddf59709691/3720 net=- blame=1dbafa9220d19b68/533 chrome=9b2feb9e32c6fb70/637309
flash-crowd on-demand load=76e931c259e40e94/3781 net=- blame=ad6e58323f29a4a3/847 chrome=207b9a2dc504432c/180561
flash-crowd prefetch load=76e931c259e40e94/3781 net=- blame=ad6e58323f29a4a3/847 chrome=78f6d7aab96a973a/220061
flash-crowd swq load=f267b646884ff893/3782 net=- blame=30b8f4ecde5f3bee/847 chrome=9551dcb6e122755e/514657
hostile-crash-stall on-demand load=e705fa9b74b880ef/3789 net=- blame=f562d6a9ec9c2735/1003 chrome=a3e4f349c9bce2a8/151298
hostile-crash-stall prefetch load=e705fa9b74b880ef/3789 net=- blame=f562d6a9ec9c2735/1003 chrome=81b6fbc0e79553bf/183049
hostile-crash-stall swq load=39bfea9099a14570/3777 net=- blame=01561bd33670eeed/1005 chrome=4f1a9b3c73aa6d20/357312
retry-timeout-2us on-demand load=f505061e00e661b3/3720 net=- blame=c0169ca551a3653a/533 chrome=afa52cb38b735de2/160761
retry-timeout-2us prefetch load=f505061e00e661b3/3720 net=- blame=c0169ca551a3653a/533 chrome=8490b413c6004452/195911
retry-timeout-2us swq load=42dc23061d6a1f3a/3670 net=- blame=1417faf1eb86bc68/535 chrome=2af12d97a6064841/696724
";

/// The causal harvest of every frozen world, at seed 1 under each
/// mechanism, is pinned byte for byte: the report JSON the three scans
/// build and the Chrome document with its flow arrows. The runs must
/// reach the paths the pins are meant to cover.
#[test]
fn causal_harvest_of_the_frozen_worlds_is_pinned() {
    let pin = |s: &str| format!("{:016x}/{}", fnv1a(FNV_OFFSET, s.as_bytes()), s.len());
    let mut got = String::new();
    let (mut arrows, mut truncated, mut retries, mut timeouts, mut crashes) = (0, 0, 0, 0, 0);
    for text in HARVEST_WORLDS {
        let spec = Scenario::from_toml(text).expect("frozen world parses").spec().clone();
        let sc = spec.seed(1).compile().expect("frozen world compiles");
        for mech in MECHANISMS {
            let cfg = sc.cfg().clone().causal().mechanism(mech);
            let run = load_experiment(sc.name(), sc.load(), cfg, sc.service())
                .expect("valid experiment")
                .run();
            let t = run.trace.as_ref().expect("serving runs are traced");
            let load = LoadReport::from_run(&run).expect("serving events");
            let net = NetReport::from_run(&run).map_or("-".into(), |n| pin(&n.to_json()));
            let blame = BlameReport::from_run(&run).expect("blameable run");
            let flows = flow_arrows(&t.events);
            let chrome = chrome_json_with_flows(&t.events, &flows);
            got += &format!(
                "{} {mech} load={} net={net} blame={} chrome={}\n",
                sc.name(),
                pin(&load.to_json()),
                pin(&blame.to_json()),
                pin(&chrome),
            );
            arrows += flows.len();
            truncated += blame.truncated;
            retries += load.retries;
            timeouts += load.client_timeouts;
            crashes += load.crashes;
        }
    }
    assert_eq!(got, HARVEST_PINS, "a harvest output diverged from its source pin");
    assert!(arrows > 0 && truncated > 0, "fan-out arrows {arrows}, truncated DAGs {truncated}");
    assert!(retries > 0 && timeouts > 0 && crashes > 0, "{retries} {timeouts} {crashes}");
}
