//! The committed `scenarios/` corpus is a tested artifact, not sample
//! code. Three guarantees:
//!
//! 1. **The corpus compiles** — every `*.toml` parses, validates, and
//!    round-trips through the canonical serializer with its fingerprint
//!    intact. A schema change that orphans a committed scenario fails
//!    here, with the filename attached.
//! 2. **The matrix is byte-deterministic** — `figures scenario-matrix`
//!    emits identical JSON/CSV at `--jobs 1` and `--jobs 4`.
//! 3. **Scenarios are not a parallel config system** — the
//!    `overload-defaults` scenario, which encodes every default
//!    `figures overload` uses with no flags, reproduces the committed
//!    `artifacts/overload/` emitters byte-for-byte through the scenario
//!    compile path. A world written in TOML is *exactly* the world the
//!    builders construct.

use std::path::Path;

use kus_bench::scenario::{load_scenario_dir, run_scenario_matrix, ScenarioMatrixSpec};
use kus_bench::serving::{Preset, ServingMatrix};
use kus_bench::sweep::SweepOptions;
use kus_scenario::{Scenario, ScenarioSpec};

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Every committed scenario parses, compiles, and survives a
/// serialize → reparse → recompile trip with an unchanged fingerprint.
#[test]
fn committed_corpus_compiles_and_round_trips() {
    let scenarios = load_scenario_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        scenarios.len() >= 12,
        "scenario corpus shrank to {} files (floor: 12)",
        scenarios.len()
    );
    for sc in &scenarios {
        let text = sc.spec().to_toml();
        let back = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: canonical TOML does not reparse: {e}", sc.name()));
        assert_eq!(&back, sc.spec(), "{}: round trip changed the spec", sc.name());
        let recompiled = Scenario::compile(back)
            .unwrap_or_else(|e| panic!("{}: canonical TOML does not recompile: {e}", sc.name()));
        assert_eq!(
            recompiled.fingerprint(),
            sc.fingerprint(),
            "{}: round trip changed the fingerprint",
            sc.name()
        );
    }
}

/// The full corpus × mechanism matrix emits byte-identical artifacts at
/// any parallelism.
#[test]
fn scenario_matrix_is_byte_identical_across_jobs() {
    let scenarios = load_scenario_dir(&corpus_dir()).expect("corpus loads");
    let spec = ScenarioMatrixSpec::new(scenarios);
    let serial = run_scenario_matrix(&spec, &SweepOptions::jobs(1));
    let parallel = run_scenario_matrix(&spec, &SweepOptions::jobs(4));
    assert!(
        serial.errors().next().is_none(),
        "corpus has failing cells: {:?}",
        serial.errors().map(|(c, e)| format!("{}: {e}", c.label)).collect::<Vec<_>>()
    );
    assert_eq!(serial.to_json(), parallel.to_json(), "matrix JSON differs across --jobs");
    assert_eq!(serial.to_csv(), parallel.to_csv(), "matrix CSV differs across --jobs");
    assert_eq!(serial.render_table(), parallel.render_table());
}

/// `scenarios/overload-defaults.toml` → compile → the overload sweep
/// reproduces `artifacts/overload/{overload.json,overload.csv}`
/// byte-for-byte. This is the "one compiled type" guarantee end to end:
/// the TOML front-end and the builder front-end meet at identical bytes.
#[test]
fn overload_defaults_scenario_reproduces_committed_artifacts() {
    let text = std::fs::read_to_string(corpus_dir().join("overload-defaults.toml"))
        .expect("overload-defaults.toml is committed");
    let sc = Scenario::from_toml(&text).expect("overload-defaults compiles");
    let m = sc.matrix().expect("overload-defaults carries a [matrix]");
    // The same constructor `figures scenario` runs for a `[matrix]` world.
    let results = Preset::overload(ServingMatrix::of(&sc), m).run(&SweepOptions::jobs(2));
    assert_eq!(results.errors().count(), 0, "{:?}", results.errors().collect::<Vec<_>>());

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/overload");
    let committed = |name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("missing committed artifact {name}: {e}"))
    };
    assert_eq!(
        results.to_json(),
        committed("overload.json"),
        "the overload-defaults scenario drifted from `figures overload`'s flagless defaults"
    );
    assert_eq!(results.to_csv(), committed("overload.csv"));
}
