//! One workload process, in order: build the inputs, run one untimed
//! warm-up pass (the end of set-up), read peak RSS, run timed passes for
//! its share of `--seconds`, then (when traced) run the traced passes and
//! the standalone probes. Every pass is checked against the pinned
//! digests and the invariants.
//!
//! Peak RSS is read right after the warm-up pass, at a fixed amount of
//! work, because simulation runs on the software-queue path never free
//! their platform (about 0.5 MiB resident per run on the baseline host):
//! a high-water mark read after a time-bounded number of passes would
//! vary with host speed. The same retention is why a workload's timed
//! passes are split over several short processes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kus_sim::{Sim, Span};

use crate::json::{num, nums, quote, Json};
use crate::metrics::Layer;
use crate::spans::Spans;
use crate::stats::{median, pass_seed, peak_rss_mib};
use crate::workload::{dataset_probe, inputs, PassOutcome, Size, Workload};

/// The seed the committed digests are blessed for.
pub const DEFAULT_SEED: u64 = 1;

/// Traced passes per traced process. The first gives the per-layer
/// metrics. Each is followed by a timed pass, so each traced pass sits
/// between two timed ones, and the tracing overhead is the median over
/// the traced passes of their time over the mean of their two neighbours:
/// host speed drifts by tens of percent over seconds on a shared host,
/// which swamps any comparison of passes run far apart.
pub const TRACED_PASSES: u64 = 5;

/// Pass indices, unique across one workload's processes so no two passes
/// of a run share a seed. With `n` processes and `t` traced passes,
/// process `k` warms up with pass `k`, passes `n..n + t` are the traced
/// ones, and process `k`'s `j`-th timed pass is `n + t + k + j·n`. The
/// warm-up and traced passes keep their seeds (and the per-layer counts
/// their values) however many timed passes a host fits into `--seconds`.
pub fn warmup_index(process: u64) -> u64 {
    process
}

/// See [`warmup_index`].
pub fn traced_index(processes: u64, i: u64) -> u64 {
    processes + i
}

/// See [`warmup_index`].
pub fn timed_index(process: u64, processes: u64, j: u64) -> u64 {
    processes + TRACED_PASSES + process + j * processes
}

/// Passes `bless` pins (indices `0..BLESSED_PASSES`): about twice the
/// highest index a traced `--seconds 15` run reaches on the baseline host
/// (about 55, in the traced process).
pub const BLESSED_PASSES: u64 = 128;

/// What one workload process is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// `--seed`; pass seeds derive from it.
    pub seed: u64,
    /// How long this process's timed passes run, at least (one pass at
    /// minimum).
    pub seconds: f64,
    /// Whether to run the traced passes after the timed ones.
    pub trace: bool,
    /// Pass size.
    pub size: Size,
    /// This process's number, `0..processes`.
    pub process: u64,
    /// How many processes measure this workload.
    pub processes: u64,
    /// Where the traced pass writes its spans (Chrome format).
    pub trace_out: Option<PathBuf>,
}

/// Everything one workload process measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measurement {
    /// Process start to the end of the warm-up pass, seconds.
    pub setup_s: f64,
    /// Seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Simulated events of each timed pass.
    pub pass_events: Vec<f64>,
    /// `VmHWM` right after the warm-up pass, MiB.
    pub peak_rss_mb: f64,
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Simulation runs failed: panics, error rows, broken invariants, and
    /// every run of a pass whose digest does not match.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Passes whose digest was compared with a pinned one.
    pub digests_checked: u64,
    /// Passes beyond the pinned ones, checked by invariants only.
    pub digests_unpinned: u64,
    /// Why digests were not checked at all (`None` when they were).
    pub digests_skipped: Option<String>,
    /// Per-layer metrics in catalogue order (traced processes only).
    pub per_layer: Vec<(String, f64)>,
    /// Self time per span name, milliseconds (traced processes only).
    pub self_ms: Vec<(String, f64)>,
}

/// Failure messages kept per process; the counts stay exact.
const MAX_MESSAGES: usize = 20;

/// The pinned digests of one workload: pass index → (seed, digest).
pub type Pinned = BTreeMap<u64, (u64, u64)>;

enum Expected {
    Pinned(Pinned),
    Skipped(String),
    Broken(String),
}

/// `benchmark/expected/<workload>.digests`.
pub fn digest_path(w: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.digests", w.name()))
}

/// Parses a digests file: `#` comments, then one `index seed digest` line
/// per pass, seed and digest in hex.
pub fn parse_digests(text: &str) -> Result<Pinned, String> {
    let mut out = Pinned::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f[..] {
            [i, s, d] => i
                .parse()
                .ok()
                .zip(u64::from_str_radix(s, 16).ok())
                .zip(u64::from_str_radix(d, 16).ok()),
            _ => None,
        };
        let ((index, seed), digest) =
            parsed.ok_or_else(|| format!("line {}: expected `index seed digest`", n + 1))?;
        out.insert(index, (seed, digest));
    }
    Ok(out)
}

/// Renders a digests file for `w` from `(index, seed, digest)` rows.
pub fn format_digests(w: Workload, rows: &[(u64, u64, u64)]) -> String {
    let mut out = format!(
        "# kusbench digests for {} at --seed {DEFAULT_SEED}; regenerate with `kusbench bless`.\n\
         # pass-index pass-seed digest (FNV-1a-64 of the pass's deterministic outputs)\n",
        w.name()
    );
    for (i, s, d) in rows {
        let _ = writeln!(out, "{i} {s:016x} {d:016x}");
    }
    out
}

fn expected(plan: &Plan) -> Expected {
    if plan.size == Size::Smoke {
        return Expected::Skipped("smoke size has no pinned digests: invariants only".into());
    }
    if plan.seed != DEFAULT_SEED {
        return Expected::Skipped(format!(
            "digests are pinned for --seed {DEFAULT_SEED} only; --seed {} is checked by invariants only",
            plan.seed
        ));
    }
    let path = digest_path(plan.workload);
    match std::fs::read_to_string(&path) {
        Err(e) => Expected::Broken(format!("cannot read {}: {e}", path.display())),
        Ok(text) => match parse_digests(&text) {
            Ok(p) => Expected::Pinned(p),
            Err(e) => Expected::Broken(format!("{}: {e}", path.display())),
        },
    }
}

impl Measurement {
    fn note(&mut self, msg: String) {
        if self.failures.len() < MAX_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Counts pass `index` (seed `seed`) and checks it against `expected`.
    fn record(&mut self, index: u64, seed: u64, out: &PassOutcome, expected: &Expected) {
        self.attempted += out.runs;
        for f in &out.failures {
            self.note(format!("pass {index}: {f}"));
        }
        let digest_ok = match expected {
            Expected::Pinned(p) => match p.get(&index) {
                Some(&(s, d)) => {
                    self.digests_checked += 1;
                    let ok = s == seed && d == out.digest;
                    if !ok {
                        self.note(format!(
                            "pass {index}: digest {:016x} (seed {seed:016x}) does not match the pinned {d:016x} (seed {s:016x})",
                            out.digest
                        ));
                    }
                    ok
                }
                None => {
                    self.digests_unpinned += 1;
                    true
                }
            },
            Expected::Skipped(_) => true,
            Expected::Broken(e) => {
                self.note(e.clone());
                false
            }
        };
        self.failed += if digest_ok {
            out.failures.len() as u64
        } else {
            out.runs
        };
    }

    /// Serializes the measurement as one JSON line (the child-to-parent
    /// protocol).
    pub fn to_json(&self) -> String {
        let pairs = |v: &[(String, f64)]| {
            let items: Vec<String> = v
                .iter()
                .map(|(k, x)| format!("{}:{}", quote(k), num(*x)))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"setup_s\":{},\"pass_s\":{},\"pass_events\":{},\"peak_rss_mb\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"digests_checked\":{},\"digests_unpinned\":{},\"digests_skipped\":{},\"per_layer\":{},\"self_ms\":{}}}",
            num(self.setup_s),
            nums(&self.pass_s),
            nums(&self.pass_events),
            num(self.peak_rss_mb),
            self.attempted,
            self.failed,
            failures.join(","),
            self.digests_checked,
            self.digests_unpinned,
            self.digests_skipped.as_deref().map_or("null".into(), quote),
            pairs(&self.per_layer),
            pairs(&self.self_ms),
        )
    }

    /// Parses [`Measurement::to_json`] output.
    pub fn from_json(text: &str) -> Result<Measurement, String> {
        let v = Json::parse(text)?;
        let pairs = |key: &str| -> Result<Vec<(String, f64)>, String> {
            v.get(key)
                .and_then(Json::as_obj)
                .and_then(|m| {
                    m.iter()
                        .map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                        .collect()
                })
                .ok_or_else(|| format!("missing number map `{key}`"))
        };
        Ok(Measurement {
            setup_s: v.num("setup_s")?,
            pass_s: v.nums("pass_s")?,
            pass_events: v.nums("pass_events")?,
            peak_rss_mb: v.num("peak_rss_mb")?,
            attempted: v.num("attempted")? as u64,
            failed: v.num("failed")? as u64,
            failures: v
                .get("failures")
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(|f| f.as_str().map(String::from)).collect())
                .ok_or("missing string array `failures`")?,
            digests_checked: v.num("digests_checked")? as u64,
            digests_unpinned: v.num("digests_unpinned")? as u64,
            digests_skipped: v
                .get("digests_skipped")
                .and_then(Json::as_str)
                .map(String::from),
            per_layer: pairs("per_layer")?,
            self_ms: pairs("self_ms")?,
        })
    }
}

/// Runs `plan` in this process; `started` is the process's start.
pub fn measure(plan: &Plan, started: Instant) -> Result<Measurement, String> {
    let expected = expected(plan);
    let inputs = inputs(plan.workload, plan.size);
    let mut m = Measurement::default();
    if let Expected::Skipped(why) = &expected {
        m.digests_skipped = Some(why.clone());
    }

    let index = warmup_index(plan.process);
    let seed = pass_seed(plan.seed, index);
    let warm = inputs.pass(seed);
    m.record(index, seed, &warm, &expected);
    m.setup_s = started.elapsed().as_secs_f64();
    m.peak_rss_mb = peak_rss_mib()?;

    let mut j = 0;
    let mut timed_pass = |m: &mut Measurement| {
        let index = timed_index(plan.process, plan.processes, j);
        j += 1;
        let seed = pass_seed(plan.seed, index);
        let t = Instant::now();
        let out = inputs.pass(seed);
        let s = t.elapsed().as_secs_f64();
        m.pass_s.push(s);
        m.pass_events.push(out.events as f64);
        m.record(index, seed, &out, &expected);
        s
    };
    let timed_start = Instant::now();
    let mut before = loop {
        let s = timed_pass(&mut m);
        if timed_start.elapsed().as_secs_f64() >= plan.seconds {
            break s;
        }
    };

    if plan.trace {
        let (mut spans, mut layer, mut exps) = (Spans::default(), Layer::default(), Vec::new());
        let mut ratios = Vec::new();
        for i in 0..TRACED_PASSES {
            let index = traced_index(plan.processes, i);
            let seed = pass_seed(plan.seed, index);
            let (mut s, mut l) = (Spans::default(), Layer::default());
            let (out, ran) = inputs.traced_pass(seed, &mut s, &mut l);
            m.record(index, seed, &out, &expected);
            let traced_s: f64 = s.durations("pass").iter().sum();
            let after = timed_pass(&mut m);
            ratios.push(2.0 * traced_s / (before + after));
            before = after;
            if i == 0 {
                (spans, layer, exps) = (s, l, ran);
            }
        }
        // The probes run after the passes, outside their spans, so the
        // overhead compares like with like.
        dataset_probe(&exps, &mut spans);
        let (dispatch_ns, _) = spans.time("sim.dispatch", None, dispatch_probe_ns);
        layer.set("sim.dispatch_ns", dispatch_ns);
        layer.set("bench.trace_overhead_frac", median(&ratios) - 1.0);
        let own = spans.self_seconds();
        m.per_layer = layer
            .finish(&spans.durations("core.run"), &own)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        m.self_ms = own
            .into_iter()
            .map(|(k, s)| (k.to_string(), s * 1e3))
            .collect();
        if let Some(path) = &plan.trace_out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(path, spans.chrome_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(m)
}

/// Event-core dispatch cost in nanoseconds per event: 64 self-rearming
/// timers through `Sim::schedule_fn_in` and `Sim::run`, 2M events.
pub fn dispatch_probe_ns() -> f64 {
    const TIMERS: u64 = 64;
    const EVENTS: u64 = 2_000_000;
    fn rearm(sim: &mut Sim, arg: u64) {
        sim.schedule_fn_in(Span::from_ns(1 + arg % 7), rearm, arg);
    }
    let mut sim = Sim::with_event_capacity(TIMERS as usize);
    for t in 0..TIMERS {
        sim.schedule_fn_in(Span::from_ns(1 + t % 7), rearm, t);
    }
    sim.set_event_budget(EVENTS);
    let t = Instant::now();
    sim.run();
    t.elapsed().as_nanos() as f64 / sim.executed().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_round_trip_and_reject_corruption() {
        let rows = [(0, 0xabc, 0x1234_5678_9abc_def0), (1, 7, 42)];
        let text = format_digests(Workload::FanoutLong, &rows);
        let p = parse_digests(&text).expect("parses");
        assert_eq!(p[&0], (0xabc, 0x1234_5678_9abc_def0));
        assert_eq!(p[&1], (7, 42));
        assert!(parse_digests("0 zz 12").is_err());
        assert!(parse_digests("0 12").is_err());
    }

    #[test]
    fn a_mismatched_digest_fails_every_run_of_its_pass() {
        let mut pinned = Pinned::new();
        pinned.insert(3, (9, 100));
        let expected = Expected::Pinned(pinned);
        let good = PassOutcome {
            runs: 5,
            failures: vec![],
            events: 1,
            digest: 100,
        };
        let bad = PassOutcome {
            digest: 101,
            ..good.clone()
        };
        let mut m = Measurement::default();
        m.record(3, 9, &good, &expected);
        m.record(4, 9, &good, &expected);
        assert_eq!(
            (m.attempted, m.failed, m.digests_checked, m.digests_unpinned),
            (10, 0, 1, 1)
        );
        m.record(3, 9, &bad, &expected);
        assert_eq!((m.attempted, m.failed), (15, 5));
    }

    #[test]
    fn measurement_json_round_trips() {
        let m = Measurement {
            setup_s: 1.25,
            pass_s: vec![0.5, 0.75],
            pass_events: vec![10.0, 12.0],
            peak_rss_mb: 31.5,
            attempted: 9,
            failed: 1,
            failures: vec!["pass 2: \"x\" panicked".into()],
            digests_checked: 3,
            digests_unpinned: 0,
            digests_skipped: None,
            per_layer: vec![("sim.events".into(), 22.0)],
            self_ms: vec![("pass".into(), 3.5)],
        };
        assert_eq!(Measurement::from_json(&m.to_json()), Ok(m));
    }

    #[test]
    fn dispatch_probe_measures_a_positive_cost() {
        assert!(dispatch_probe_ns() > 0.0);
    }

    #[test]
    fn pass_indices_never_collide() {
        let n = 3;
        let mut seen: Vec<u64> = (0..n).map(warmup_index).collect();
        seen.extend((0..TRACED_PASSES).map(|i| traced_index(n, i)));
        for k in 0..n {
            seen.extend((0..50).map(|j| timed_index(k, n, j)));
        }
        let total = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), total);
    }
}
