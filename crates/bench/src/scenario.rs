//! The scenario matrix: every compiled [`Scenario`] in a corpus × every
//! access mechanism, scored on the sweep engine.
//!
//! This is the bench-side consumer of `kus-scenario`: a corpus directory
//! (`scenarios/`) is compiled up front — any file that no longer parses
//! fails the whole run, which is exactly what CI wants — and each
//! scenario becomes one serving run per mechanism, so a single table
//! answers "which mechanism survives which world". Cells execute on
//! [`run_cells`] and every emitter is
//! byte-identical across `--jobs` values (locked down by
//! `tests/scenario_matrix.rs`).

use std::fmt::Write as _;

use kus_core::prelude::Mechanism;
use kus_load::{load_experiment, LoadReport};
use kus_scenario::Scenario;

use crate::sweep::{csv_field, json_escape, run_cells, SweepCell, SweepOptions};

/// A declarative scenario matrix: the compiled corpus and the mechanism
/// axis to score it across.
#[derive(Clone)]
pub struct ScenarioMatrixSpec {
    scenarios: Vec<Scenario>,
    mechanisms: Vec<Mechanism>,
}

impl ScenarioMatrixSpec {
    /// A matrix over `scenarios`, scoring all three mechanisms.
    pub fn new(scenarios: Vec<Scenario>) -> ScenarioMatrixSpec {
        ScenarioMatrixSpec {
            scenarios,
            mechanisms: vec![Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue],
        }
    }

    /// Replaces the mechanism axis.
    pub fn mechanisms(mut self, v: &[Mechanism]) -> Self {
        if !v.is_empty() {
            self.mechanisms = v.to_vec();
        }
        self
    }

    /// Cells in the matrix.
    pub fn cell_count(&self) -> usize {
        self.scenarios.len() * self.mechanisms.len()
    }

    /// Expands the matrix in order (scenario outermost, mechanism
    /// innermost — corpus order is the committed filename order).
    fn expand(&self) -> (Vec<(usize, Mechanism)>, Vec<SweepCell>) {
        let mut keys = Vec::with_capacity(self.cell_count());
        let mut cells = Vec::with_capacity(self.cell_count());
        for (si, sc) in self.scenarios.iter().enumerate() {
            for &mech in &self.mechanisms {
                let label = format!("{} mech={mech}", sc.name());
                let exp = load_experiment(
                    &label,
                    sc.load(),
                    sc.cfg().clone().mechanism(mech),
                    sc.service(),
                )
                .map_err(|e| e.to_string());
                keys.push((si, mech));
                cells.push(SweepCell { label, exp });
            }
        }
        (keys, cells)
    }
}

/// One executed scenario cell, in matrix order.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Cell index in matrix order.
    pub index: usize,
    /// Cell label (`<scenario> mech=<mechanism>`).
    pub label: String,
    /// The scenario's name.
    pub scenario: String,
    /// The scenario's compiled identity fingerprint.
    pub fingerprint: u64,
    /// The mechanism this cell ran.
    pub mechanism: Mechanism,
    /// Whether the cell met the scenario's SLOs (`None` on error or when
    /// the scenario declares none).
    pub slo_pass: Option<bool>,
    /// The load analytics, or the validation/panic message.
    pub outcome: Result<LoadReport, String>,
}

/// All results of one scenario matrix, in matrix order.
#[derive(Debug, Clone)]
pub struct ScenarioMatrixResults {
    /// Per-cell results, scenario-major (corpus order).
    pub cells: Vec<ScenarioCell>,
    /// Wall-clock seconds (never part of the deterministic emitters).
    pub wall_seconds: f64,
}

/// Expands and executes a scenario matrix on the shared pool.
pub fn run_scenario_matrix(
    spec: &ScenarioMatrixSpec,
    opts: &SweepOptions,
) -> ScenarioMatrixResults {
    let (keys, cells) = spec.expand();
    let results = run_cells(cells, opts);
    let cells = results
        .cells
        .into_iter()
        .zip(keys)
        .map(|(c, (si, mech))| {
            let sc = &spec.scenarios[si];
            let outcome = c.outcome.and_then(|r| {
                LoadReport::from_run(&r)
                    .ok_or_else(|| "run produced no serving trace events".to_string())
            });
            let slo = sc.load().slo;
            let slo_declared = slo.p99.is_some() || slo.p999.is_some() || slo.max_shed_fraction.is_some();
            let slo_pass = match &outcome {
                Ok(r) if slo_declared => Some(slo.verdict(r).pass),
                _ => None,
            };
            ScenarioCell {
                index: c.index,
                label: c.label,
                scenario: sc.name().to_string(),
                fingerprint: sc.fingerprint(),
                mechanism: mech,
                slo_pass,
                outcome,
            }
        })
        .collect();
    ScenarioMatrixResults { cells, wall_seconds: results.wall_seconds }
}

impl ScenarioMatrixResults {
    /// Error rows, in matrix order.
    pub fn errors(&self) -> impl Iterator<Item = (&ScenarioCell, &str)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
    }

    /// Machine-readable JSON: one object per cell, matrix order, with the
    /// scenario fingerprint and the embedded [`LoadReport`].
    /// Byte-identical for a given corpus regardless of `--jobs`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"index\":{},\"label\":\"{}\",\"scenario\":\"{}\",\"fingerprint\":\"{:016x}\",\"mechanism\":\"{}\"",
                c.index,
                json_escape(&c.label),
                json_escape(&c.scenario),
                c.fingerprint,
                c.mechanism,
            );
            match &c.outcome {
                Ok(r) => {
                    match c.slo_pass {
                        Some(pass) => {
                            let _ = write!(out, ",\"ok\":true,\"slo_pass\":{pass}");
                        }
                        None => {
                            let _ = write!(out, ",\"ok\":true,\"slo_pass\":null");
                        }
                    }
                    let _ = write!(out, ",\"report\":{}", r.to_json());
                }
                Err(e) => {
                    let _ = write!(out, ",\"ok\":false,\"error\":\"{}\"", json_escape(e));
                }
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Machine-readable CSV (header + one row per cell, matrix order).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,scenario,fingerprint,mechanism,ok,offered,completed,shed,goodput_rps,p50_ns,p99_ns,p999_ns,slo_pass,error\n",
        );
        for c in &self.cells {
            match &c.outcome {
                Ok(r) => {
                    let slo = match c.slo_pass {
                        Some(b) => b.to_string(),
                        None => String::new(),
                    };
                    let _ = writeln!(
                        out,
                        "{},{},{:016x},{},true,{},{},{},{:.6},{},{},{},{},",
                        c.index,
                        csv_field(&c.scenario),
                        c.fingerprint,
                        c.mechanism,
                        r.offered,
                        r.completed,
                        r.shed,
                        r.goodput_rps,
                        r.latency.p50.as_ns(),
                        r.latency.p99.as_ns(),
                        r.latency.p999.as_ns(),
                        slo,
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "{},{},{:016x},{},false,,,,,,,,,{}",
                        c.index,
                        csv_field(&c.scenario),
                        c.fingerprint,
                        c.mechanism,
                        csv_field(e),
                    );
                }
            }
        }
        out
    }

    /// The corpus scoreboard as a text table: one row per cell, grouped
    /// by scenario.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# scenario matrix: {} cells ({} scenarios x mechanisms)",
            self.cells.len(),
            self.cells.iter().map(|c| c.scenario.as_str()).collect::<std::collections::BTreeSet<_>>().len(),
        );
        let _ = writeln!(
            out,
            "{:<24} {:<10} {:>9} {:>9} {:>7} {:>10} {:>10}  slo",
            "scenario", "mechanism", "completed", "shed", "shed%", "goodput", "p99",
        );
        let mut last = "";
        for c in &self.cells {
            if c.scenario != last {
                if !last.is_empty() {
                    out.push('\n');
                }
                last = &c.scenario;
            }
            match &c.outcome {
                Ok(r) => {
                    let shed_pct = if r.offered > 0 {
                        100.0 * r.shed as f64 / r.offered as f64
                    } else {
                        0.0
                    };
                    let slo = match c.slo_pass {
                        Some(true) => "pass",
                        Some(false) => "FAIL",
                        None => "-",
                    };
                    let _ = writeln!(
                        out,
                        "{:<24} {:<10} {:>9} {:>9} {:>6.1}% {:>10.0} {:>10}  {}",
                        c.scenario,
                        c.mechanism.to_string(),
                        r.completed,
                        r.shed,
                        shed_pct,
                        r.goodput_rps,
                        format!("{}ns", r.latency.p99.as_ns()),
                        slo,
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "{:<24} {:<10} ERROR {e}",
                        c.scenario,
                        c.mechanism.to_string(),
                    );
                }
            }
        }
        out
    }
}

/// Reads and compiles every `*.toml` in `dir`, sorted by filename, so the
/// corpus order (and therefore every emitter) is deterministic. Any file
/// that fails to parse or compile fails the whole load with the filename
/// attached — a corpus member that drifts from the schema is an error,
/// not a skip.
pub fn load_scenario_dir(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .toml scenarios in {}", dir.display()));
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let sc = Scenario::from_toml(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(sc);
    }
    Ok(out)
}
