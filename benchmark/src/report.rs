//! From workload processes to the end-to-end metrics, the printed lines,
//! the results file, the one-line result the command ends with, and
//! `compare`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{num, nums, quote, Json};
use crate::measure::Measurement;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{ratio, Reduce};
use crate::workload::Workload;

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json")
}

/// One end-to-end metric of a workload.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Metric name.
    pub name: &'static str,
    /// Its samples.
    pub samples: Samples,
}

/// A metric's samples and how they reduce to its reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    /// How the samples reduce to the reported value.
    pub reduce: Reduce,
    /// One sample per timed pass or per process.
    pub values: Vec<f64>,
}

impl Samples {
    /// The reported value.
    pub fn value(&self) -> f64 {
        self.reduce.apply(&self.values)
    }

    /// The reported value's quartiles (see [`Reduce::quartiles`]).
    pub fn quartiles(&self) -> (f64, f64, f64) {
        self.reduce.quartiles(&self.values)
    }

    /// Reads metric `name` of workload entry `w` of a results file.
    fn read(w: &Json, name: &str) -> Result<Samples, String> {
        let m = w
            .get("end_to_end")
            .and_then(|e| e.get(name))
            .ok_or_else(|| format!("no end-to-end metric `{name}`"))?;
        let reduce = m.str("reduce")?;
        Ok(Samples {
            reduce: Reduce::from_name(reduce)
                .ok_or_else(|| format!("`{name}`: unknown reduction `{reduce}`"))?,
            values: m.nums("samples")?,
        })
    }

    fn show(&self) -> String {
        let (q1, med, q3) = self.quartiles();
        format!(
            "{} {:.6} ({:.6} [{:.6}, {:.6}] n={})",
            self.reduce.name(),
            self.value(),
            med,
            q1,
            q3,
            self.values.len()
        )
    }
}

/// One workload's processes, combined.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Every process's measurement merged: timed passes concatenated,
    /// counts summed, per-layer metrics from the traced process.
    pub merged: Measurement,
    /// `setup_s` of each process.
    pub setup_s: Vec<f64>,
    /// `peak_rss_mb` of each process.
    pub peak_rss_mb: Vec<f64>,
}

impl WorkloadResult {
    /// Combines a workload's processes.
    pub fn new(workload: Workload, processes: &[Measurement]) -> WorkloadResult {
        let mut merged = Measurement::default();
        for p in processes {
            merged.pass_s.extend(&p.pass_s);
            merged.pass_events.extend(&p.pass_events);
            merged.attempted += p.attempted;
            merged.failed += p.failed;
            merged.failures.extend(p.failures.iter().cloned());
            merged.digests_checked += p.digests_checked;
            merged.digests_unpinned += p.digests_unpinned;
            merged.digests_skipped = merged.digests_skipped.or_else(|| p.digests_skipped.clone());
            if !p.per_layer.is_empty() {
                merged.per_layer = p.per_layer.clone();
                merged.self_ms = p.self_ms.clone();
            }
        }
        WorkloadResult {
            workload,
            merged,
            setup_s: processes.iter().map(|p| p.setup_s).collect(),
            peak_rss_mb: processes.iter().map(|p| p.peak_rss_mb).collect(),
        }
    }

    /// Whether every run succeeded and matched its digest.
    pub fn correct(&self) -> bool {
        self.merged.failed == 0 && self.merged.attempted > 0
    }

    /// The end-to-end metrics, in catalogue order.
    ///
    /// `wall_s` is the fastest timed pass and `events_per_s` the best
    /// pass's rate. Other tenants of a shared host only ever add time, for
    /// stretches of up to tens of seconds; on the 2-vCPU baseline host the
    /// median pass moved 4-17% from run to run, the fastest pass 3-8%.
    /// Set-up time and peak RSS are medians over the processes.
    pub fn end_to_end(&self) -> Vec<Reading> {
        let m = &self.merged;
        let rates: Vec<f64> = m
            .pass_events
            .iter()
            .zip(&m.pass_s)
            .map(|(&e, &s)| ratio(e, s))
            .collect();
        let readings = [
            (Reduce::Min, m.pass_s.clone()),
            (Reduce::Max, rates),
            (Reduce::Median, self.peak_rss_mb.clone()),
            (Reduce::Median, self.setup_s.clone()),
        ];
        END_TO_END
            .iter()
            .zip(readings)
            .map(|(metric, (reduce, values))| Reading {
                name: metric.name,
                samples: Samples { reduce, values },
            })
            .collect()
    }

    /// One line saying how the outputs were checked.
    pub fn digest_summary(&self) -> String {
        let m = &self.merged;
        match &m.digests_skipped {
            Some(why) => format!("digests not checked: {why}"),
            None => format!(
                "digests: {} passes checked against benchmark/expected/{}.digests ({} passes beyond the pinned ones checked by invariants only)",
                m.digests_checked,
                self.workload.name(),
                m.digests_unpinned
            ),
        }
    }

    /// The printed report: every metric by name with its unit.
    pub fn lines(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for r in self.end_to_end() {
            let s = &r.samples;
            let _ = writeln!(
                out,
                "{w} {} = {} {} ({} of n={}; median {}, min {}, max {})",
                r.name,
                num(s.value()),
                unit_of(r.name),
                s.reduce.name(),
                s.values.len(),
                num(Reduce::Median.apply(&s.values)),
                num(Reduce::Min.apply(&s.values)),
                num(Reduce::Max.apply(&s.values))
            );
        }
        let m = &self.merged;
        let _ = writeln!(
            out,
            "{w} runs: attempted {}, failed {} (failed_frac {})",
            m.attempted,
            m.failed,
            num(ratio(m.failed as f64, m.attempted as f64))
        );
        let _ = writeln!(out, "{w} {}", self.digest_summary());
        for f in &m.failures {
            let _ = writeln!(out, "{w} FAILED {f}");
        }
        for (name, value) in &m.per_layer {
            let _ = writeln!(out, "{w} {name} = {} {}", num(*value), unit_of(name));
        }
        out
    }

    /// This workload's entry in a results file.
    pub fn to_json(&self) -> String {
        let e2e: Vec<String> = self
            .end_to_end()
            .into_iter()
            .map(|r| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"reduce\":{},\"samples\":{}}}",
                    quote(r.name),
                    num(r.samples.value()),
                    quote(unit_of(r.name)),
                    quote(r.samples.reduce.name()),
                    nums(&r.samples.values)
                )
            })
            .collect();
        let m = &self.merged;
        let layer: Vec<String> = m.per_layer.iter().map(|(n, v)| metric(n, *v)).collect();
        let own: Vec<String> = m
            .self_ms
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
            .collect();
        format!(
            "    {{\"name\":{},\"attempted\":{},\"failed\":{},\"digests\":{},\n     \"end_to_end\":{{{}}},\n     \"per_layer\":{{{}}},\n     \"self_ms\":{{{}}}}}",
            quote(self.workload.name()),
            m.attempted,
            m.failed,
            quote(&self.digest_summary()),
            e2e.join(","),
            layer.join(","),
            own.join(","),
        )
    }

    /// The line the command ends with: `correct`, `attempted`, `failed`,
    /// and the end-to-end metrics (`trace` false) or the per-layer ones.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = if trace {
            self.merged
                .per_layer
                .iter()
                .map(|(n, v)| metric(n, *v))
                .collect()
        } else {
            self.end_to_end()
                .into_iter()
                .map(|r| metric(r.name, r.samples.value()))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.merged.attempted,
            self.merged.failed,
            metrics.join(", ")
        )
    }
}

/// A results file: the run's settings and one entry per workload.
pub fn results_json(seed: u64, seconds: f64, nproc: usize, results: &[WorkloadResult]) -> String {
    let entries: Vec<String> = results.iter().map(WorkloadResult::to_json).collect();
    format!(
        "{{\"schema\":\"kusbench-results/1\",\"seed\":{seed},\"seconds\":{},\"nproc\":{nproc},\n  \"workloads\":[\n{}\n  ]\n}}\n",
        num(seconds),
        entries.join(",\n")
    )
}

/// `"name":{"value":v,"unit":"…"}`, as results files and the result line
/// carry a metric.
fn metric(name: &str, v: f64) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(name),
        num(v),
        quote(unit_of(name))
    )
}

/// A comparison verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Better,
    /// Worse than A by more than the bound.
    Worse,
    /// Within the bound either way.
    WithinBound,
    /// The spread is wider than the bound and the two sides overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side `b` against side `a`. Returns how much worse `b`'s value
/// is, as a share of `a`'s (negative when better), and the verdict.
pub fn judge(a: &Samples, b: &Samples, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (va, vb) = (a.value(), b.value());
    let worse = if lower_is_better {
        ratio(vb - va, va)
    } else {
        ratio(va - vb, va)
    };
    let ((aq1, am, aq3), (bq1, bm, bq3)) = (a.quartiles(), b.quartiles());
    let spread = ratio(aq3 - aq1, am).max(ratio(bq3 - bq1, bm));
    let overlap = aq1 <= bq3 && bq1 <= aq3;
    let verdict = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if -worse > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worse, verdict)
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a kusbench results file".into())
}

/// Compares results file `b` against `a` under the bounds in `spec`
/// (`BENCHMARK.json`). Returns the report and whether any row is worse.
pub fn compare(a: &Json, b: &Json, spec: &Json) -> Result<(String, bool), String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<13} {:>56} {:>56} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A: value (its median [q1, q3] n)",
        "B: value (its median [q1, q3] n)",
        "worse",
        "bound"
    );
    for wb in workloads(b)? {
        let name = wb.str("name")?;
        let Some(wa) = workloads(a)?.iter().find(|w| w.str("name") == Ok(name)) else {
            let _ = writeln!(out, "{name:<16} only in B");
            continue;
        };
        for m in metrics {
            let metric = m.str("name")?;
            let bound = m.num("bound")?;
            let lower = m.str("better")? == "lower";
            let (sa, sb) = (Samples::read(wa, metric)?, Samples::read(wb, metric)?);
            let (worse, verdict) = judge(&sa, &sb, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<16} {metric:<13} {:>56} {:>56} {:>+7.2}% {:>5.1}%  {}",
                sa.show(),
                sb.show(),
                worse * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        let frac =
            |w: &Json| -> Result<f64, String> { Ok(ratio(w.num("failed")?, w.num("attempted")?)) };
        let (fa, fb) = (frac(wa)?, frac(wb)?);
        let failed_worse = fb > fa;
        any_worse |= failed_worse;
        let _ = writeln!(
            out,
            "{name:<16} {:<13} {:>56} {:>56} {:>8} {:>6}  {}",
            "failed_frac",
            num(fa),
            num(fb),
            "",
            "0%",
            if failed_worse {
                "WORSE"
            } else {
                "within bound"
            }
        );
        let layer = |w: &Json, n: &str| {
            w.get("per_layer")
                .and_then(|l| l.get(n))
                .and_then(|v| v.get("value"))
                .cloned()
        };
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.unit == "count" && layer(wa, m.name) != layer(wb, m.name))
            .map(|m| m.name)
            .collect();
        let _ = writeln!(
            out,
            "{name:<16} per-layer counts: {}",
            if differing.is_empty() {
                "identical".to_string()
            } else {
                format!("differ in {}", differing.join(", "))
            }
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let side = |s: &[f64]| Samples {
            reduce: Reduce::Min,
            values: s.to_vec(),
        };
        let a = side(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        let slower = side(&[1.20, 1.21, 1.19, 1.20, 1.22]);
        assert_eq!(judge(&a, &slower, true, 0.10).1, Verdict::Worse);
        assert_eq!(judge(&a, &slower, false, 0.10).1, Verdict::Better);
        let same = side(&[1.01, 1.00, 0.99, 1.02, 1.00]);
        assert_eq!(judge(&a, &same, true, 0.10).1, Verdict::WithinBound);
        // The fastest pass is alone: the second fastest is 26% slower.
        let noisy = side(&[0.95, 1.3, 1.2, 1.25, 1.4]);
        assert_eq!(judge(&a, &noisy, true, 0.10).1, Verdict::Unresolved);
        let (worse, _) = judge(&side(&[2.0]), &side(&[2.2]), true, 0.05);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_a_slower_workload() {
        let file = |wall: &str, failed: u32| {
            Json::parse(&format!(
                "{{\"workloads\":[{{\"name\":\"w\",\"attempted\":10,\"failed\":{failed},\
                 \"end_to_end\":{{\"wall_s\":{{\"reduce\":\"min\",\"samples\":{wall}}}}},\
                 \"per_layer\":{{\"sim.events\":{{\"value\":5,\"unit\":\"count\"}}}}}}]}}"
            ))
            .expect("valid")
        };
        let spec = Json::parse(
            "{\"end_to_end\":[{\"name\":\"wall_s\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":0.1}]}",
        )
        .expect("valid");
        let a = file("[1.0,1.01,0.99]", 0);
        let (report, worse) = compare(&a, &file("[1.0,1.0,1.02]", 0), &spec).expect("compares");
        assert!(!worse, "{report}");
        assert!(report.contains("per-layer counts: identical"));
        assert!(
            compare(&a, &file("[1.5,1.5,1.52]", 0), &spec)
                .expect("compares")
                .1
        );
        assert!(
            compare(&a, &file("[1.0,1.0,1.02]", 1), &spec)
                .expect("compares")
                .1
        );
    }
}
