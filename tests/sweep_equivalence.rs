//! The sweep engine's central guarantee: parallel execution is
//! *observationally invisible*. The same cell set run with `--jobs 1` and
//! `--jobs N` must produce byte-identical JSON/CSV artifacts and identical
//! per-cell trace fingerprints, and the figure pipeline must reproduce the
//! serial `Runner::immediate` output exactly. A panicking cell must poison
//! only its own row.

use std::path::Path;

use kus_bench::serving::{Preset, PresetResults, ServingFlags, ServingMatrix};
use kus_bench::sweep::{run_cells, run_figures, run_sweep, SweepCell, SweepOptions, SweepSpec};
use kus_core::prelude::*;
use kus_load::{service_factory, ArrivalProcess, EchoService, LoadSpec, SloSpec, TierSpec};
use kus_sim::Span;
use kus_workloads::figures::{self, Quality};
use kus_workloads::{Microbench, MicrobenchConfig};

fn tiny_exp(traced: bool) -> Experiment {
    let mc = MicrobenchConfig { work_count: 80, mlp: 1, iters_per_fiber: 10, writes_per_iter: 0 };
    let mut cfg = PlatformConfig::paper_default().without_replay_device();
    if traced {
        cfg = cfg.traced();
    }
    Experiment::new("tiny", cfg, move || Microbench::new(mc)).unwrap()
}

fn spec(traced: bool) -> SweepSpec {
    SweepSpec::new(tiny_exp(traced))
        .mechanisms(&[Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue])
        .fibers_per_core(&[1, 4])
        .seeds(&[1, 2])
}

/// Golden: `--jobs 1` and `--jobs 4` emit byte-identical artifacts, and
/// every cell's deterministic trace fingerprint matches between the runs.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = run_sweep(&spec(true), &SweepOptions::jobs(1));
    let parallel = run_sweep(&spec(true), &SweepOptions::jobs(4));
    assert_eq!(serial.cells.len(), 12);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.index, p.index);
        assert_eq!(s.label, p.label);
        let (sr, pr) = (s.outcome.as_ref().unwrap(), p.outcome.as_ref().unwrap());
        let (st, pt) = (sr.trace.as_ref().unwrap(), pr.trace.as_ref().unwrap());
        assert_eq!(st.hash, pt.hash, "trace fingerprint diverged for {}", s.label);
        assert_eq!(st.count, pt.count);
    }
    // The artifacts really carry the fingerprints (not just nulls).
    assert!(serial.to_json().contains("\"trace_hash\":\""));
}

/// The figure pipeline (collect → pool → cached re-assembly) reproduces the
/// serial `Runner::immediate` figures exactly, at any job count.
#[test]
fn figure_pipeline_matches_serial_runner() {
    let q = Quality { iters: 40, ..Quality::fast() };
    let entries = figures::registry(false);
    let entries: Vec<_> =
        entries.into_iter().filter(|e| e.id == "fig3" || e.id == "fig8").collect();
    let (parallel, results) = run_figures(&entries, q, &SweepOptions::jobs(4));
    assert_eq!(results.errors().count(), 0);
    let serial = [("fig3", vec![figures::fig3(q)]), ("fig8", vec![figures::fig8(q)])];
    for ((pid, pfigs), (sid, sfigs)) in parallel.iter().zip(&serial) {
        assert_eq!(pid, sid);
        assert_eq!(pfigs.len(), sfigs.len());
        for (p, s) in pfigs.iter().zip(sfigs) {
            assert_eq!(p.id, s.id);
            for (ps, ss) in p.series.iter().zip(&s.series) {
                assert_eq!(ps.label, ss.label);
                // Bitwise float equality: same cells, same math, same order.
                for (pp, sp) in ps.points.iter().zip(&ss.points) {
                    assert_eq!(pp.x.to_bits(), sp.x.to_bits(), "{}/{}", p.id, ps.label);
                    assert_eq!(pp.y.to_bits(), sp.y.to_bits(), "{}/{}", p.id, ps.label);
                }
            }
        }
    }
}

/// The load sweep inherits the engine's guarantee wholesale: `--jobs 1`
/// and `--jobs 4` over the mechanism × rate matrix emit byte-identical
/// JSON and CSV, knees included.
#[test]
fn load_sweep_is_byte_identical_across_jobs() {
    let base = ServingMatrix::new(
        "echo",
        service_factory(|| EchoService::new(256)),
        LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 }).requests(80),
        PlatformConfig::paper_default().without_replay_device().cores(2).fibers_per_core(4),
    );
    let spec =
        Preset::load(base, &[Mechanism::OnDemand, Mechanism::SoftwareQueue], &[500_000, 4_000_000]);
    let serial = spec.run(&SweepOptions::jobs(1));
    let parallel = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.main.cells.len(), 4);
    assert_eq!(serial.errors().count(), 0);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.render_table(), parallel.render_table());
}

/// On-demand and prefetch at a rate both keep up with and one that
/// saturates a single four-fiber core.
fn tiny_load_preset(slo: SloSpec) -> Preset {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
        .requests(80)
        .queue_capacity(16)
        .slo(slo);
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .fibers_per_core(4)
        .dataset_bytes(1 << 20);
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    Preset::load(base, &[Mechanism::OnDemand, Mechanism::Prefetch], &[200_000, 5_000_000])
}

fn tiny_load_sweep(slo: SloSpec) -> PresetResults {
    tiny_load_preset(slo).run(&SweepOptions::jobs(2))
}

/// The load preset lays its cells out mechanism-major, rates inner, and
/// that layout survives any `--jobs`.
#[test]
fn sweep_is_mechanism_major_and_deterministic_across_jobs() {
    let spec = tiny_load_preset(SloSpec::none());
    assert_eq!(spec.cell_count(), 4);
    let serial = spec.run(&SweepOptions::jobs(1));
    let pooled = spec.run(&SweepOptions::jobs(4));
    assert_eq!(serial.to_json(), pooled.to_json());
    assert_eq!(serial.to_csv(), pooled.to_csv());
    assert_eq!(serial.render_table(), pooled.render_table());
    let at = |i: usize| {
        (serial.main.cells[i].facet("mechanism"), serial.main.cells[i].facet("rate_rps"))
    };
    assert_eq!(at(0), ("on-demand".into(), "200000".into()));
    assert_eq!(at(3), ("prefetch".into(), "5000000".into()));
    assert_eq!(serial.errors().count(), 0);
}

#[test]
fn prefetch_knee_is_at_or_above_on_demand() {
    let knees = tiny_load_sweep(SloSpec::none()).main.knees();
    assert_eq!(knees.len(), 2);
    let od = knees[0].knee_rps.unwrap_or(0);
    let pf = knees[1].knee_rps.unwrap_or(0);
    assert!(pf >= od, "prefetch knee {pf} below on-demand {od}");
    // At 200k rps both mechanisms keep up with four fibers.
    assert!(od >= 200_000, "on-demand should keep up at 200k rps");
}

#[test]
fn overloaded_cells_report_sheds_and_slo_failures() {
    let results = tiny_load_sweep(SloSpec::none().p99(Span::from_us(3)));
    // The 5M rps on-demand cell must be saturated.
    let hot = results.main.cells[1].outcome.as_ref().expect("cell ran");
    assert!(hot.load.shed > 0, "5M rps on-demand must shed");
    let json = results.to_json();
    assert!(json.contains("\"knees\""));
    assert!(json.contains("\"slo_pass\":false"), "saturated cell should bust a 3us p99");
}

/// An invalid serving spec poisons only its own cell, and the error row
/// surfaces in every emitter.
#[test]
fn invalid_serving_cells_become_error_rows_in_every_emitter() {
    let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 }).requests(20);
    let cfg = PlatformConfig::paper_default().without_replay_device().fibers_per_core(4);
    let base = ServingMatrix::new("echo", service_factory(|| EchoService::new(64)), spec, cfg);
    let r = Preset::blame(base, &[Mechanism::Prefetch], &[TierSpec::fanout(0)], &[200_000])
        .run(&SweepOptions::jobs(1));
    let errors: Vec<_> = r.errors().map(|(c, e)| (c.index, e.to_string())).collect();
    let msg = "invalid configuration: invalid serving spec: fan-out width must be at least 1";
    assert_eq!(errors, vec![(1, msg.to_string())]);
    assert!(r.to_json().contains(&format!("\"ok\":false,\"error\":\"{msg}\"}}")));
    assert!(r.to_csv().lines().nth(2).unwrap().ends_with(&format!(",false,,,,,,,{msg}")));
    let row = format!("{:<24} {:>10} ERROR {msg}", "prefetch/fanout", 200_000);
    assert!(r.render_table().contains(&row), "{}", r.render_table());
}

#[test]
fn unknown_services_and_presets_are_errors() {
    let flags = ServingFlags { service: Some("redis".into()), ..ServingFlags::default() };
    assert!(flags.preset("load").err().unwrap().contains("unknown `redis`"));
    assert!(ServingFlags::default().preset("bogus").is_err());
    let p = ServingFlags::default().preset("net").unwrap();
    assert_eq!(p.cell_count(), 25, "baseline + 2 NICs x 2 topologies, 5 rates");
}

/// The committed `artifacts/serving/` files are regenerated byte-for-byte
/// by the presets `figures load|net|blame` build from the CI smoke flags
/// (`figures <preset> <flags> --json --csv > <preset>.txt`). Any change to
/// the serving engine, its emitters, or the stack under it that moves one
/// byte shows up here.
#[test]
fn committed_serving_artifacts_reproduce() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/serving");
    let smoke = |service: &str, rates: &[u64], topologies: &[TierSpec]| ServingFlags {
        service: Some(service.into()),
        rates: rates.to_vec(),
        topologies: topologies.to_vec(),
        requests: Some(200),
        ..ServingFlags::default()
    };
    let presets = [
        ("load", smoke("memcached", &[500_000, 2_000_000, 4_000_000], &[])),
        (
            "net",
            smoke(
                "echo",
                &[250_000, 1_000_000, 3_000_000],
                &[TierSpec::rpc(), TierSpec::fanout(4)],
            ),
        ),
        ("blame", smoke("echo", &[250_000, 1_000_000, 2_000_000], &[TierSpec::fanout(4)])),
    ];
    for (name, flags) in presets {
        let results = flags.preset(name).expect("valid flags").run(&SweepOptions::jobs(2));
        assert_eq!(results.errors().count(), 0, "{name}");
        for (ext, got) in [
            ("json", results.to_json()),
            ("csv", results.to_csv()),
            ("txt", results.render_table()),
        ] {
            let path = dir.join(format!("{name}.{ext}"));
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                got == want,
                "artifacts/serving/{name}.{ext} diverged — regenerate it with the CI smoke flags and review the diff"
            );
        }
    }
}

/// A workload that panics mid-build.
struct Poisoned;

impl Workload for Poisoned {
    fn name(&self) -> &'static str {
        "poisoned"
    }

    fn build(&mut self, _data: &mut Dataset) {
        panic!("injected test panic");
    }

    fn spawn(&self, _core: usize, _fiber: usize, _total: usize, _ctx: MemCtx) -> FiberFuture {
        unreachable!("build panics first")
    }
}

/// A panicking cell becomes an error row; its neighbours still complete,
/// in order, on every job count.
#[test]
fn panicking_cell_is_isolated() {
    for jobs in [1, 3] {
        let poisoned = Experiment::new(
            "poisoned",
            PlatformConfig::paper_default().without_replay_device(),
            || Poisoned,
        )
        .unwrap();
        let cells = vec![
            SweepCell::from_experiment(tiny_exp(false)),
            SweepCell::from_experiment(poisoned),
            SweepCell::from_experiment(tiny_exp(false)),
        ];
        let results = run_cells(cells, &SweepOptions::jobs(jobs));
        assert_eq!(results.cells.len(), 3);
        assert!(results.cells[0].outcome.is_ok());
        assert!(results.cells[2].outcome.is_ok());
        let err = results.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("injected test panic"), "jobs={jobs}: {err}");
        assert_eq!(results.reports().count(), 2);
        // The error row surfaces in both artifacts.
        assert!(results.to_json().contains("\"ok\":false"));
        assert!(results.to_csv().contains("injected test panic"));
    }
}

/// Identical runs of the two equal cells in the matrix produce identical
/// reports — the engine never lets one cell's state leak into another.
#[test]
fn repeated_cells_are_independent() {
    let cells = vec![
        SweepCell::from_experiment(tiny_exp(false)),
        SweepCell::from_experiment(tiny_exp(false)),
    ];
    let results = run_cells(cells, &SweepOptions::jobs(2));
    let reports: Vec<_> = results.reports().map(|(_, r)| r).collect();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].elapsed, reports[1].elapsed);
    assert_eq!(reports[0].work_insts, reports[1].work_insts);
    assert_eq!(reports[0].accesses, reports[1].accesses);
}
