//! # kus-bench — the `figures` binary and the parallel sweep engine
//!
//! The `figures` binary is subcommand-only; shared
//! `--jobs/--seed/--json/--csv` flags parse uniformly across modes:
//!
//! - `cargo run --release -p kus-bench --bin figures [-- figures]
//!   [--fig figN] [--full] [--jobs N] [--json out.json]` (the default
//!   mode) regenerates the data series of every figure in the paper's
//!   evaluation (and the ablations) through the [`sweep`] engine and
//!   prints them as text tables.
//! - `figures sweep` runs a declarative configuration matrix from the
//!   command line (see `--help` in the binary's doc comment).
//! - `figures load`, `net`, `blame` and `overload` are presets of one
//!   [`serving`] matrix — a base world plus axes of knobs, expanded by
//!   Cartesian product and run through the sweep engine — and share one
//!   base-flag parser and one JSON/CSV/table emitter. `load` sweeps
//!   mechanism × offered rate for the saturation knee per mechanism; `net`
//!   sweeps NIC model × tier topology × rate against the wire-less
//!   baseline for the knee shift; `blame` sweeps mechanism × topology ×
//!   rate with the causal event class on for critical-tier flips; and
//!   `overload` sweeps admission policy × fault plan × rate for a
//!   graceful/brownout/collapse verdict per cell, plus the budgeted-vs-
//!   unbudgeted retry pair.
//! - `figures scenario FILE` compiles one `kus-scenario` TOML world and
//!   runs it (a `[matrix]` scenario runs the `overload` preset over the
//!   scenario's base, byte-identical to `figures overload`'s artifacts).
//! - `figures scenario-matrix` compiles the whole `scenarios/` corpus and
//!   scores it across every access mechanism on the sweep engine (the
//!   [`scenario`] module) with byte-deterministic emitters.
//! - `figures simbench` runs the [`simbench`] suite — event-core
//!   throughput scenarios on the timing-wheel simulator core vs the
//!   retained heap reference — writing the events/sec trajectory record
//!   and a byte-deterministic equivalence check artifact.
//! - `figures profile --out out.json` runs the [`profile`] acceptance
//!   suite — the paper's §4 diagnoses as profiled scenarios — printing
//!   each text dashboard and writing the byte-deterministic profile JSON.
//!
//! The host cost of the workloads users run is measured by the separate
//! `kusbench` package under `benchmark/`; `figures simbench` times only
//! the event core.

#![forbid(unsafe_code)]

mod axes;
pub mod profile;
pub mod scenario;
pub mod serving;
pub mod simbench;
pub mod sweep;

pub use kus_workloads::figures;
pub use scenario::{
    load_scenario_dir, run_scenario_matrix, ScenarioCell, ScenarioMatrixResults,
    ScenarioMatrixSpec,
};
pub use profile::{profile_scenarios, run_profile_suite, ProfileOutcome, ProfileScenario, ProfileSuite};
pub use serving::{
    run_serving, Harvest, Preset, PresetResults, ServingCell, ServingFlags, ServingMatrix,
    ServingResults,
};
pub use simbench::{run_simbench, ScenarioResult, SimbenchResults};
pub use sweep::{
    run_cells, run_figures, run_sweep, CellResult, SweepCell, SweepOptions, SweepResults,
    SweepSpec,
};
