//! The serving matrix: one engine and one emitter for every serving sweep.
//!
//! `figures load`, `net`, `blame` and `overload` are four [`Preset`]s over
//! the same machinery:
//!
//! - a [`ServingMatrix`]: a base — service, [`LoadSpec`] and
//!   [`PlatformConfig`], exactly what a compiled [`Scenario`] exposes — plus
//!   an ordered list of axes whose points each set one knob (mechanism,
//!   offered rate, NIC plus tiers, tiers, admission policy, fault plan or
//!   retry policy);
//! - expansion by Cartesian product, last axis innermost, executed by
//!   [`run_serving`] through one [`run_cells`] call;
//! - one harvest per cell: a [`LoadReport`] always, a [`NetReport`] for
//!   NIC cells and a [`BlameReport`] for causal cells;
//! - post-passes over the result columns: saturation knees, knee shifts,
//!   critical-tier flips and the retry pair (a second, two-point matrix
//!   that shares the first one's `run_cells` call);
//! - one JSON/CSV/table emitter driven by the preset's view: its facets,
//!   column lists and post-passes are data, so the engine never asks which
//!   preset it is running.
//!
//! A baseline is just the first point on an axis (net's `off/direct`,
//! blame's `direct`). Every emitter is byte-identical between `--jobs 1`
//! and `--jobs N`.

use std::fmt::{self, Write as _};

use kus_core::prelude::{ConfigError, Experiment, Mechanism, PlatformConfig, RunReport};
use kus_load::{
    load_experiment, service_factory, AdmissionControl, ArrivalProcess, BlameReport, BlameTable,
    EchoService, LoadReport, LoadSpec, NetConfig, NetReport, NicModelKind, RecoveryReport,
    RetryPolicy, ServiceFactory, SloSpec, TierSpec,
};
use kus_scenario::{MatrixSpec, Scenario};
use kus_sim::fault::FaultPlan;
use kus_sim::Span;
use kus_workloads::{BloomConfig, BloomService, MemcachedConfig, MemcachedService};

use crate::sweep::{csv_field, json_escape, run_cells, SweepCell, SweepOptions};

/// Goodput must stay within this fraction of the offered rate for a cell
/// to count as "keeping up" (see [`keeps_up`]).
const KNEE_GOODPUT_FRACTION: f64 = 0.95;

/// The knee predicate, shared by the sweep knees and the scenario
/// `[expect] knee_at_least` claim: measured goodput reached
/// `KNEE_GOODPUT_FRACTION` (95%) of the *nominal* offered rate. The nominal
/// rate is the yardstick because a finite open-loop run eventually drains
/// its queue — completions match admissions even deep into saturation.
pub fn keeps_up(report: &LoadReport, rate_rps: f64) -> bool {
    report.goodput_rps >= KNEE_GOODPUT_FRACTION * rate_rps
}

/// The facet key the offered-rate axis writes; knees group by every
/// other facet.
const RATE: &str = "rate_rps";

/// One knob an axis point sets on the base spec or platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Knob {
    /// The access mechanism.
    Mechanism(Mechanism),
    /// An open-loop Poisson arrival at this rate (requests/second).
    Rate(u64),
    /// A NIC model (`None`: the front end off) plus the tier chain.
    Front(Option<NicModelKind>, TierSpec),
    /// The tier chain alone.
    Tiers(TierSpec),
    /// The admission policy.
    Admission(AdmissionControl),
    /// The serving-layer fault plan.
    Faults(FaultPlan),
    /// The closed-loop client retry policy.
    Retry(RetryPolicy),
}

impl Knob {
    fn apply(self, spec: &mut LoadSpec, cfg: &mut PlatformConfig) {
        match self {
            Knob::Mechanism(m) => cfg.mechanism = m,
            Knob::Rate(r) => spec.arrival = ArrivalProcess::Poisson { rate_rps: r as f64 },
            Knob::Front(nic, tiers) => {
                spec.net = match nic {
                    Some(nic) => NetConfig { enabled: true, nic, ..spec.net },
                    None => NetConfig::default(),
                };
                spec.tiers = tiers;
            }
            Knob::Tiers(t) => spec.tiers = t,
            Knob::Admission(a) => spec.admission = a,
            Knob::Faults(p) => spec.faults = p,
            Knob::Retry(r) => spec.retry = r,
        }
    }
}

/// One emitted value: a cell facet or a result column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    Int(u64),
    /// A float, written with six decimals.
    Float(f64),
    /// A string (escaped for JSON, quoted for CSV when needed).
    Str(String),
    /// Embedded JSON, written as is.
    Json(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::Json(j) => j.clone(),
            other => other.to_string(),
        }
    }

    fn csv(&self) -> String {
        match self {
            Value::Str(s) => csv_field(s),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x:.6}"),
            Value::Str(s) | Value::Json(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A named cell coordinate (`"mechanism"`, `"rate_rps"`, ...).
pub type Facet = (&'static str, Value);

/// One point on an axis: the knob it sets, its cell-label fragment, and
/// the facets it contributes to every emitter.
#[derive(Debug, Clone)]
pub(crate) struct Point {
    knob: Knob,
    label: String,
    facets: Vec<Facet>,
}

impl Point {
    /// A point with explicit label fragment and facets.
    fn new(knob: Knob, label: impl Into<String>, facets: Vec<Facet>) -> Point {
        Point { knob, label: label.into(), facets }
    }

    /// A point labelled `<tag>=<name>` with the one facet `<facet>: name`.
    fn tagged(knob: Knob, tag: &str, facet: &'static str, name: &str) -> Point {
        Point::new(knob, format!("{tag}={name}"), vec![(facet, Value::Str(name.into()))])
    }

    /// `mech=<m>`.
    fn mechanism(m: Mechanism) -> Point {
        Point::tagged(Knob::Mechanism(m), "mech", "mechanism", &m.to_string())
    }

    /// `rate=<r>rps`.
    fn rate(r: u64) -> Point {
        Point::new(Knob::Rate(r), format!("rate={r}rps"), vec![(RATE, Value::Int(r))])
    }

    /// `nic=<n> topo=<t>`; `None` is the front end off (`nic=off`).
    fn front(nic: Option<NicModelKind>, tiers: TierSpec) -> Point {
        let n = nic.map_or("off", |n| n.name());
        let t = tiers.topology.name();
        Point::new(
            Knob::Front(nic, tiers),
            format!("nic={n} topo={t}"),
            vec![("nic", Value::Str(n.into())), ("topology", Value::Str(t.into()))],
        )
    }

    /// `topo=<t>`.
    fn tiers(t: TierSpec) -> Point {
        Point::tagged(Knob::Tiers(t), "topo", "topology", t.topology.name())
    }

    /// `policy=<label>`.
    fn admission(a: AdmissionControl) -> Point {
        Point::tagged(Knob::Admission(a), "policy", "policy", a.label())
    }

    /// `plan=<name>`.
    fn plan(name: &str, plan: FaultPlan) -> Point {
        Point::tagged(Knob::Faults(plan), "plan", "plan", name)
    }
}

/// A declarative serving matrix: a base world and the axes to sweep over
/// it.
#[derive(Clone)]
pub struct ServingMatrix {
    service_name: String,
    service: ServiceFactory,
    spec: LoadSpec,
    cfg: PlatformConfig,
    axes: Vec<Vec<Point>>,
    baseline_axis: Option<usize>,
}

impl ServingMatrix {
    /// A matrix with no axes (one cell) over `service` under `spec` on the
    /// `cfg` platform.
    pub fn new(
        service_name: impl Into<String>,
        service: ServiceFactory,
        spec: LoadSpec,
        cfg: PlatformConfig,
    ) -> ServingMatrix {
        ServingMatrix {
            service_name: service_name.into(),
            service,
            spec,
            cfg,
            axes: Vec::new(),
            baseline_axis: None,
        }
    }

    /// The base a compiled scenario describes.
    pub fn of(sc: &Scenario) -> ServingMatrix {
        ServingMatrix::new(sc.service_name(), sc.service(), sc.load(), sc.cfg().clone())
    }

    /// Appends an axis (inside every earlier one).
    pub(crate) fn axis(mut self, points: Vec<Point>) -> ServingMatrix {
        self.axes.push(points);
        self
    }

    /// Appends an axis whose first point is the baseline that tier flips
    /// compare against.
    pub(crate) fn baseline_axis(mut self, points: Vec<Point>) -> ServingMatrix {
        self.baseline_axis = Some(self.axes.len());
        self.axis(points)
    }

    /// The number of cells this matrix expands into.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(Vec::len).product()
    }

    fn knobbed(&self, knobs: impl IntoIterator<Item = Knob>) -> (LoadSpec, PlatformConfig) {
        let (mut spec, mut cfg) = (self.spec, self.cfg.clone());
        for k in knobs {
            k.apply(&mut spec, &mut cfg);
        }
        (spec, cfg)
    }

    /// Expands the Cartesian product, last axis innermost.
    fn expand(&self) -> (Vec<Key>, Vec<SweepCell>) {
        let (mut keys, mut cells) = (Vec::new(), Vec::new());
        for n in 0..self.cell_count() {
            // Cell `n` in mixed radix, one digit per axis.
            let mut point = vec![0; self.axes.len()];
            let mut rest = n;
            for (p, axis) in point.iter_mut().zip(&self.axes).rev() {
                (*p, rest) = (rest % axis.len(), rest / axis.len());
            }
            let pts: Vec<&Point> = self.axes.iter().zip(&point).map(|(a, &i)| &a[i]).collect();
            let mut label = self.service_name.clone();
            for p in &pts {
                let _ = write!(label, " {}", p.label);
            }
            let (spec, cfg) = self.knobbed(pts.iter().map(|p| p.knob));
            keys.push(Key {
                point,
                facets: pts.iter().flat_map(|p| p.facets.iter().cloned()).collect(),
                nic: spec.net.enabled,
                causal: cfg.causal,
            });
            let exp =
                load_experiment(&label, spec, cfg, self.service.clone()).map_err(|e| e.to_string());
            cells.push(SweepCell { label, exp });
        }
        (keys, cells)
    }

    fn facet_keys(&self) -> Vec<&'static str> {
        self.axes
            .iter()
            .filter_map(|a| a.first())
            .flat_map(|p| p.facets.iter().map(|f| f.0))
            .collect()
    }
}

/// What expansion knows about a cell before it runs.
struct Key {
    point: Vec<usize>,
    facets: Vec<Facet>,
    nic: bool,
    causal: bool,
}

/// The analytics one cell yields.
#[derive(Debug, Clone)]
pub struct Harvest {
    /// Admission-to-completion serving analytics.
    pub load: LoadReport,
    /// The wire-to-reply decomposition (NIC cells only).
    pub net: Option<NetReport>,
    /// The causal critical-path decomposition (causal cells only).
    pub blame: Option<BlameReport>,
}

fn harvest(r: &RunReport, nic: bool, causal: bool) -> Result<Harvest, String> {
    let load = LoadReport::from_run(r).ok_or("run produced no serving trace events")?;
    let net = nic
        .then(|| NetReport::from_run(r).ok_or("NIC-enabled run produced no net trace events"))
        .transpose()?;
    let blame = causal
        .then(|| BlameReport::from_run(r).ok_or("run produced no blameable requests"))
        .transpose()?;
    Ok(Harvest { load, net, blame })
}

/// One executed cell, in matrix order.
#[derive(Debug, Clone)]
pub struct ServingCell {
    /// Cell index in matrix order.
    pub index: usize,
    /// Cell label.
    pub label: String,
    /// The point index on each axis.
    pub(crate) point: Vec<usize>,
    /// The facets of every axis point, in axis order.
    pub facets: Vec<Facet>,
    /// The analytics, or the validation/panic message.
    pub outcome: Result<Harvest, String>,
}

impl ServingCell {
    /// A facet's text (`""` when this cell has no such facet).
    pub fn facet(&self, key: &str) -> String {
        self.facets.iter().find(|f| f.0 == key).map(|f| f.1.to_string()).unwrap_or_default()
    }

    /// The offered Poisson rate, when the matrix has a rate axis.
    pub fn rate_rps(&self) -> Option<u64> {
        self.facets.iter().find_map(|f| match f {
            (RATE, Value::Int(r)) => Some(*r),
            _ => None,
        })
    }

    /// Every facet but the rate: the curve this cell belongs to.
    fn group(&self) -> Vec<Facet> {
        self.facets.iter().filter(|f| f.0 != RATE).cloned().collect()
    }

    fn group_name(&self) -> String {
        group_name(&self.group())
    }
}

fn group_name(group: &[Facet]) -> String {
    group.iter().map(|f| f.1.to_string()).collect::<Vec<_>>().join("/")
}

/// The saturation knee of one curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Knee {
    /// The curve's non-rate facets.
    pub group: Vec<Facet>,
    /// Highest swept rate that kept up, if any did.
    pub knee_rps: Option<u64>,
}

/// A critical-tier flip: a cell whose blame landed on a different tier
/// than the baseline point at the same coordinates on every other axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierFlip {
    /// Index of the flipped cell.
    pub cell: usize,
    /// The baseline's critical tier.
    pub baseline_tier: String,
    /// The flipped cell's critical tier.
    pub tier: String,
}

/// All results of one serving matrix, in matrix order.
#[derive(Debug, Clone)]
pub struct ServingResults {
    /// Service name the matrix ran.
    pub service: String,
    /// The base serving spec (before the knobs).
    pub spec: LoadSpec,
    /// Per-cell results.
    pub cells: Vec<ServingCell>,
    /// Simulator events executed across all cells.
    pub sim_events: u64,
    facet_keys: Vec<&'static str>,
    baseline_axis: Option<usize>,
}

/// Expands serving matrices and executes all their cells through one
/// [`run_cells`] call, so a later matrix's cells fill the workers an earlier
/// one leaves idle. Returns each matrix's results, in input order, and the
/// call's wall-clock seconds (never part of the deterministic emitters).
pub fn run_serving(ms: &[&ServingMatrix], opts: &SweepOptions) -> (Vec<ServingResults>, f64) {
    let (mut keys, mut cells) = (Vec::new(), Vec::new());
    for m in ms {
        let (k, c) = m.expand();
        keys.extend(k);
        cells.extend(c);
    }
    let results = run_cells(cells, opts);
    let mut done = results.cells.into_iter().zip(keys);
    let runs = ms.iter().map(|m| {
        let mut sim_events = 0;
        let cells = (&mut done)
            .take(m.cell_count())
            .enumerate()
            .map(|(index, (c, k))| ServingCell {
                index,
                label: c.label,
                point: k.point,
                facets: k.facets,
                outcome: c.outcome.and_then(|r| {
                    sim_events += r.sim_events;
                    harvest(&r, k.nic, k.causal)
                }),
            })
            .collect();
        ServingResults {
            service: m.service_name.clone(),
            spec: m.spec,
            cells,
            sim_events,
            facet_keys: m.facet_keys(),
            baseline_axis: m.baseline_axis,
        }
    });
    (runs.collect(), results.wall_seconds)
}

impl ServingResults {
    /// Error rows, in matrix order.
    pub fn errors(&self) -> impl Iterator<Item = (&ServingCell, &str)> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref().err().map(|e| (c, e.as_str())))
    }

    /// The saturation knee per curve (consecutive cells sharing every
    /// non-rate facet), in matrix order: the highest swept rate that
    /// [`keeps_up`]. `None` means no swept rate kept up.
    pub fn knees(&self) -> Vec<Knee> {
        let mut out: Vec<Knee> = Vec::new();
        for c in &self.cells {
            let Some(rate) = c.rate_rps() else { continue };
            let group = c.group();
            if out.last().map(|k| &k.group) != Some(&group) {
                out.push(Knee { group, knee_rps: None });
            }
            if matches!(&c.outcome, Ok(h) if keeps_up(&h.load, rate as f64)) {
                out.last_mut().expect("pushed above").knee_rps = Some(rate);
            }
        }
        out
    }

    /// The knee of the first curve, which presets put on the baseline
    /// point.
    pub fn baseline_knee(&self) -> Option<u64> {
        self.knees().first().and_then(|k| k.knee_rps)
    }

    /// Knee shift of every later curve vs the baseline knee, requests/s
    /// (negative: the knee moved down). Curves where either knee is
    /// unmeasured are omitted.
    pub fn knee_shifts(&self) -> Vec<(Knee, i64)> {
        let Some(base) = self.baseline_knee() else { return Vec::new() };
        let knees = self.knees().into_iter().skip(1);
        knees
            .filter_map(|k| {
                let r = k.knee_rps?;
                Some((k, r as i64 - base as i64))
            })
            .collect()
    }

    /// Critical-tier flips vs the baseline axis's first point, in matrix
    /// order.
    pub fn flips(&self) -> Vec<TierFlip> {
        let Some(b) = self.baseline_axis else { return Vec::new() };
        let tier = |c: &ServingCell| {
            let blame = c.outcome.as_ref().ok()?.blame.as_ref()?;
            Some(blame.overall.critical_tier.clone())
        };
        let mut out = Vec::new();
        for (i, c) in self.cells.iter().enumerate().filter(|(_, c)| c.point[b] != 0) {
            let Some(t) = tier(c) else { continue };
            let same_elsewhere = |o: &&ServingCell| {
                o.point.iter().zip(&c.point).enumerate().all(|(a, (x, y))| a == b || x == y)
            };
            let base = self.cells.iter().filter(|o| o.point[b] == 0).find(same_elsewhere);
            let Some(bt) = base.and_then(tier) else { continue };
            if t != bt {
                out.push(TierFlip { cell: i, baseline_tier: bt, tier: t });
            }
        }
        out
    }
}

/// A post-pass over the result columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Post {
    /// The saturation knee per curve.
    Knees,
    /// Knee shifts vs the baseline curve.
    KneeShifts,
    /// Critical-tier flips vs the baseline axis point.
    Flips,
    /// The budgeted/unbudgeted retry pair (the preset's second matrix).
    RetryPair,
}

/// What a result column reads: the cell's harvest and the SLO it is judged
/// against (`None` for the retry pair, which is not judged).
struct Cx<'a> {
    out: &'a Harvest,
    slo: Option<&'a SloSpec>,
}

/// A JSON/CSV result column: its name and how to read it (`None` renders
/// as `null` / an empty field).
type Col = (&'static str, fn(&Cx) -> Option<Value>);
/// A text-table column: header, width (0: free text after two spaces),
/// left-aligned?, and its text. Key columns read the cell and also head
/// error rows; value columns read the harvest.
type KeyCol = (&'static str, usize, bool, fn(&ServingCell) -> String);
type ValCol = (&'static str, usize, bool, fn(&Cx) -> String);

/// How a preset presents its results. Everything preset-specific is here.
struct View {
    /// Preset name (`load`, `net`, `blame`, `overload`).
    name: &'static str,
    title: fn(&ServingResults) -> String,
    json: &'static [Col],
    csv: &'static [Col],
    keys: &'static [KeyCol],
    values: &'static [ValCol],
    post: &'static [Post],
}

fn int(n: u64) -> Option<Value> {
    Some(Value::Int(n))
}

fn text(s: impl Into<String>) -> Option<Value> {
    Some(Value::Str(s.into()))
}

/// The share of a blame table's critical tier (0 when no hop carries it).
pub fn critical_share(t: &BlameTable) -> f64 {
    t.hops.iter().find(|h| h.hop == t.critical_tier).map(|h| h.share).unwrap_or(0.0)
}

const GOODPUT: ValCol = ("goodput", 12, false, |cx| format!("{:.0}", cx.out.load.goodput_rps));
const SHED: ValCol =
    ("shed%", 7, false, |cx| format!("{:.2}%", 100.0 * cx.out.load.shed_fraction()));
const REPORT: Col = ("report", |cx| Some(Value::Json(cx.out.load.to_json())));
const SLO_PASS: Col = ("slo_pass", |cx| cx.slo.map(|s| Value::Bool(s.verdict(&cx.out.load).pass)));
const VERDICT: Col = ("verdict", |cx| recovery(cx).map(|r| Value::Str(r.verdict.to_string())));

/// The cell's degradation verdict against its SLO, if it is judged.
fn recovery(cx: &Cx) -> Option<RecoveryReport> {
    cx.slo.map(|s| cx.out.load.recovery(s))
}

static LOAD: View = View {
    name: "load",
    title: |r| {
        format!(
            "# load sweep: service={} arrival=poisson requests={} queue={} (knee = goodput >= {:.0}% of nominal rate)",
            r.service,
            r.spec.requests,
            r.spec.queue_capacity,
            100.0 * KNEE_GOODPUT_FRACTION,
        )
    },
    json: &[SLO_PASS, REPORT],
    csv: &[
        ("offered", |cx| int(cx.out.load.offered)),
        ("completed", |cx| int(cx.out.load.completed)),
        ("shed", |cx| int(cx.out.load.shed)),
        ("offered_rps", |cx| Some(Value::Float(cx.out.load.offered_rps))),
        ("goodput_rps", |cx| Some(Value::Float(cx.out.load.goodput_rps))),
        ("p50_ns", |cx| int(cx.out.load.latency.p50.as_ns())),
        ("p90_ns", |cx| int(cx.out.load.latency.p90.as_ns())),
        ("p99_ns", |cx| int(cx.out.load.latency.p99.as_ns())),
        ("p999_ns", |cx| int(cx.out.load.latency.p999.as_ns())),
        ("max_ns", |cx| int(cx.out.load.latency.max.as_ns())),
        ("queue_wait_p99_ns", |cx| int(cx.out.load.queue_wait.p99.as_ns())),
        ("queue_depth_max", |cx| int(cx.out.load.queue_depth_max)),
        SLO_PASS,
    ],
    keys: &[
        ("mechanism", 14, true, ServingCell::group_name),
        ("rate_rps", 12, false, |c| c.facet(RATE)),
    ],
    values: &[
        GOODPUT,
        SHED,
        ("p50", 10, false, |cx| cx.out.load.latency.p50.to_string()),
        ("p99", 10, false, |cx| cx.out.load.latency.p99.to_string()),
        ("p999", 10, false, |cx| cx.out.load.latency.p999.to_string()),
        ("max", 10, false, |cx| cx.out.load.latency.max.to_string()),
        ("slo", 0, false, |cx| {
            if cx.slo.is_some_and(|s| s.verdict(&cx.out.load).pass) { "pass" } else { "FAIL" }
                .into()
        }),
    ],
    post: &[Post::Knees],
};

/// A net-stage p99, in ns.
fn stage(cx: &Cx, pick: fn(&NetReport) -> u64) -> Option<Value> {
    cx.out.net.as_ref().map(|n| Value::Int(pick(n)))
}

static NET: View = View {
    name: "net",
    title: |r| {
        format!(
            "# net sweep: service={} requests={} queue={} (knee = goodput >= {:.0}% of nominal rate)",
            r.service,
            r.spec.requests,
            r.spec.queue_capacity,
            100.0 * KNEE_GOODPUT_FRACTION,
        )
    },
    json: &[REPORT, ("net", |cx| cx.out.net.as_ref().map(|n| Value::Json(n.to_json())))],
    csv: &[
        ("offered", |cx| int(cx.out.load.offered)),
        ("completed", |cx| int(cx.out.load.completed)),
        ("shed", |cx| int(cx.out.load.shed)),
        ("goodput_rps", |cx| Some(Value::Float(cx.out.load.goodput_rps))),
        ("p50_ns", |cx| int(cx.out.load.latency.p50.as_ns())),
        ("p99_ns", |cx| int(cx.out.load.latency.p99.as_ns())),
        ("p999_ns", |cx| int(cx.out.load.latency.p999.as_ns())),
        ("wire_p99_ns", |cx| stage(cx, |n| n.wire.p99.as_ns())),
        ("rx_wait_p99_ns", |cx| stage(cx, |n| n.rx_wait.p99.as_ns())),
        ("nic_p99_ns", |cx| stage(cx, |n| n.nic.p99.as_ns())),
        ("steer_p99_ns", |cx| stage(cx, |n| n.steer.p99.as_ns())),
        ("net_queue_p99_ns", |cx| stage(cx, |n| n.queue_wait.p99.as_ns())),
        ("service_p99_ns", |cx| stage(cx, |n| n.service.p99.as_ns())),
        ("tx_p99_ns", |cx| stage(cx, |n| n.tx.p99.as_ns())),
        ("e2e_p50_ns", |cx| stage(cx, |n| n.e2e.p50.as_ns())),
        ("e2e_p99_ns", |cx| stage(cx, |n| n.e2e.p99.as_ns())),
        ("e2e_p999_ns", |cx| stage(cx, |n| n.e2e.p999.as_ns())),
    ],
    keys: &[
        ("front end", 22, true, ServingCell::group_name),
        ("rate_rps", 12, false, |c| c.facet(RATE)),
    ],
    values: &[
        GOODPUT,
        SHED,
        ("p50", 10, false, |cx| cx.out.load.latency.p50.to_string()),
        ("p99", 10, false, |cx| cx.out.load.latency.p99.to_string()),
        ("e2e_p99", 10, false, |cx| {
            cx.out.net.as_ref().map_or("-".into(), |n| n.e2e.p99.to_string())
        }),
        ("wire_p99", 10, false, |cx| {
            cx.out.net.as_ref().map_or("-".into(), |n| n.wire.p99.to_string())
        }),
    ],
    post: &[Post::Knees, Post::KneeShifts],
};

fn blame<'a>(cx: &Cx<'a>) -> &'a BlameReport {
    cx.out.blame.as_ref().expect("blame cells are causal")
}

static BLAME: View = View {
    name: "blame",
    title: |r| {
        format!(
            "# blame sweep: service={} requests={} (critical tier = largest critical-path share)",
            r.service, r.spec.requests,
        )
    },
    json: &[REPORT, ("blame", |cx| Some(Value::Json(blame(cx).to_json())))],
    csv: &[
        ("requests", |cx| int(blame(cx).requests)),
        ("truncated", |cx| int(blame(cx).truncated)),
        ("critical_tier", |cx| text(&blame(cx).overall.critical_tier)),
        ("critical_share", |cx| Some(Value::Float(critical_share(&blame(cx).overall)))),
        ("tail_tier", |cx| text(&blame(cx).tail.critical_tier)),
        ("tail_share", |cx| Some(Value::Float(critical_share(&blame(cx).tail)))),
    ],
    keys: &[
        ("mech/topo", 24, true, ServingCell::group_name),
        ("rate_rps", 10, false, |c| c.facet(RATE)),
    ],
    values: &[
        ("tier", 14, false, |cx| blame(cx).overall.critical_tier.clone()),
        ("share", 7, false, |cx| format!("{:.1}%", 100.0 * critical_share(&blame(cx).overall))),
        ("tail tier", 14, false, |cx| blame(cx).tail.critical_tier.clone()),
        ("share", 7, false, |cx| format!("{:.1}%", 100.0 * critical_share(&blame(cx).tail))),
        ("trunc", 6, false, |cx| blame(cx).truncated.to_string()),
    ],
    post: &[Post::Flips],
};

static OVERLOAD: View = View {
    name: "overload",
    title: |r| {
        format!(
            "# overload sweep: service={} requests={} queue={} (verdict = recovery analysis against the spec SLO)",
            r.service, r.spec.requests, r.spec.queue_capacity,
        )
    },
    json: &[VERDICT, ("recovery", |cx| recovery(cx).map(|r| Value::Json(r.to_json()))), REPORT],
    csv: &[
        VERDICT,
        ("completed", |cx| int(cx.out.load.completed)),
        ("shed", |cx| int(cx.out.load.shed)),
        ("shed_queue_full", |cx| int(cx.out.load.shed_queue_full)),
        ("shed_deadline", |cx| int(cx.out.load.shed_deadline)),
        ("shed_admission", |cx| int(cx.out.load.shed_admission)),
        ("goodput_rps", |cx| Some(Value::Float(cx.out.load.goodput_rps))),
        ("p99_ns", |cx| int(cx.out.load.latency.p99.as_ns())),
        ("retries", |cx| int(cx.out.load.retries)),
        ("retry_amplification", |cx| Some(Value::Float(cx.out.load.retry_amplification))),
        ("crashes", |cx| int(cx.out.load.crashes)),
        ("dispatcher_stalls", |cx| int(cx.out.load.dispatcher_stalls)),
    ],
    keys: &[
        ("policy", 10, true, |c| c.facet("policy")),
        ("plan", 8, true, |c| c.facet("plan")),
        ("rate_rps", 12, false, |c| c.facet(RATE)),
    ],
    values: &[
        GOODPUT,
        SHED,
        ("p99", 10, false, |cx| cx.out.load.latency.p99.to_string()),
        ("crashes", 8, false, |cx| cx.out.load.crashes.to_string()),
        ("stalls", 7, false, |cx| cx.out.load.dispatcher_stalls.to_string()),
        ("verdict", 0, false, |cx| recovery(cx).map(|r| r.verdict.to_string()).unwrap_or_default()),
    ],
    post: &[Post::RetryPair],
};

/// The retry pair's JSON columns (its cells carry no index).
const RETRY_JSON: &[Col] = &[
    ("retry_amplification", |cx| Some(Value::Float(cx.out.load.retry_amplification))),
    ("retries", |cx| int(cx.out.load.retries)),
    ("timeouts", |cx| int(cx.out.load.client_timeouts)),
    REPORT,
];

/// The retry pair: identical closed-loop clients against a latency-spiking
/// device, with and without the 10% retry budget.
fn retry_points() -> Vec<Point> {
    let pair = [
        ("budgeted", RetryPolicy::budgeted(Span::from_us(8), 4, 0.1, Span::from_us(2))),
        ("unbudgeted", RetryPolicy::unbudgeted(Span::from_us(8), 4, Span::from_us(2))),
    ];
    pair.into_iter()
        .map(|(name, p)| {
            Point::new(
                Knob::Retry(p),
                format!("retry={name}"),
                vec![("budgeted", Value::Bool(name == "budgeted"))],
            )
        })
        .collect()
}

/// A serving subcommand: its matrix (plus the retry pair's, for
/// `overload`) and its view.
#[derive(Clone)]
pub struct Preset {
    view: &'static View,
    /// The swept matrix.
    pub matrix: ServingMatrix,
    /// The retry pair's matrix, for `overload`.
    retry: Option<ServingMatrix>,
    /// The knobs of the one traced run outside the matrix, for `blame`.
    trace: Option<[Knob; 2]>,
}

impl Preset {
    fn new(view: &'static View, matrix: ServingMatrix) -> Preset {
        Preset { view, matrix, retry: None, trace: None }
    }

    /// `figures load`: mechanism × offered rate, with the knee per
    /// mechanism.
    pub fn load(base: ServingMatrix, mechanisms: &[Mechanism], rates: &[u64]) -> Preset {
        let matrix = base
            .axis(mechanisms.iter().map(|&m| Point::mechanism(m)).collect())
            .axis(rate_points(rates));
        Preset::new(&LOAD, matrix)
    }

    /// `figures net`: front end (the `off/direct` baseline, then NIC ×
    /// topology) × offered rate, with knees and knee shifts. `base.spec.net`
    /// carries the shared wire and steering knobs.
    pub fn net(
        base: ServingMatrix,
        nics: &[NicModelKind],
        topologies: &[TierSpec],
        rates: &[u64],
    ) -> Preset {
        let mut fronts = vec![Point::front(None, TierSpec::direct())];
        for &nic in nics {
            fronts.extend(topologies.iter().map(|&t| Point::front(Some(nic), t)));
        }
        Preset::new(&NET, base.baseline_axis(fronts).axis(rate_points(rates)))
    }

    /// `figures blame`: mechanism × tiers (the `direct` baseline first) ×
    /// offered rate with the causal event class on, and the critical-tier
    /// flips vs the baseline. Its traced run (see [`Preset::trace_run`])
    /// keeps the base platform's mechanism and takes the first swept
    /// topology and rate.
    pub fn blame(
        mut base: ServingMatrix,
        mechanisms: &[Mechanism],
        topologies: &[TierSpec],
        rates: &[u64],
    ) -> Preset {
        base.cfg = base.cfg.causal();
        let tiers =
            std::iter::once(TierSpec::direct()).chain(topologies.iter().copied()).map(Point::tiers);
        let matrix = base
            .axis(mechanisms.iter().map(|&m| Point::mechanism(m)).collect())
            .baseline_axis(tiers.collect())
            .axis(rate_points(rates));
        let trace = topologies.first().zip(rates.first());
        Preset {
            trace: trace.map(|(&t, &r)| [Knob::Tiers(t), Knob::Rate(r)]),
            ..Preset::new(&BLAME, matrix)
        }
    }

    /// `figures overload` and every `[matrix]` scenario: admission policy ×
    /// fault plan × offered rate judged into recovery verdicts, plus the
    /// retry pair when `m.retry_pair` is set.
    pub fn overload(base: ServingMatrix, m: &MatrixSpec) -> Preset {
        let retry = m.retry_pair.then(|| {
            let mut r = base.clone();
            r.spec.arrival = ArrivalProcess::ClosedLoop { users: 4, think: Span::from_us(2) };
            r.spec.requests = 40;
            // The device, not the dispatcher, misbehaves here: latency
            // spikes blow the client timeout and invite retries.
            r.cfg = r.cfg.faults(FaultPlan::none().with_latency_spikes(0.3, Span::from_us(40)));
            r.axis(retry_points())
        });
        let matrix = base
            .axis(m.policies.iter().map(|&p| Point::admission(p)).collect())
            .axis(m.plans.iter().map(|(name, plan)| Point::plan(name, *plan)).collect())
            .axis(rate_points(&m.rates));
        Preset { retry, ..Preset::new(&OVERLOAD, matrix) }
    }

    /// The preset name.
    pub fn name(&self) -> &'static str {
        self.view.name
    }

    /// Cells across both matrices.
    pub fn cell_count(&self) -> usize {
        self.matrix.cell_count() + self.retry.as_ref().map_or(0, ServingMatrix::cell_count)
    }

    /// Runs the matrix and the retry pair on one pool.
    pub fn run(&self, opts: &SweepOptions) -> PresetResults {
        let ms: Vec<&ServingMatrix> = std::iter::once(&self.matrix).chain(&self.retry).collect();
        let (runs, wall_seconds) = run_serving(&ms, opts);
        let mut runs = runs.into_iter();
        let main = runs.next().expect("one result per matrix");
        PresetResults { view: self.view, main, retry: runs.next(), wall_seconds }
    }

    /// The one causal run `figures blame --trace` draws, outside the matrix
    /// (`None` for the other presets).
    pub fn trace_run(&self) -> Option<Result<Experiment, ConfigError>> {
        let (spec, cfg) = self.matrix.knobbed(self.trace?);
        let label = format!("{} trace", self.view.name);
        Some(load_experiment(label, spec, cfg, self.matrix.service.clone()))
    }
}

/// A retry-pair cell's client: `budgeted` or `unbudgeted`.
fn budget(c: &ServingCell) -> &'static str {
    if c.facet("budgeted") == "true" {
        "budgeted"
    } else {
        "unbudgeted"
    }
}

fn rate_points(rates: &[u64]) -> Vec<Point> {
    rates.iter().map(|&r| Point::rate(r)).collect()
}

/// A preset's results with its one set of emitters.
#[derive(Clone)]
pub struct PresetResults {
    view: &'static View,
    /// The swept matrix's results.
    pub main: ServingResults,
    /// The retry pair's results, when the preset has one.
    retry: Option<ServingResults>,
    /// Wall-clock seconds of the whole run (never part of the
    /// deterministic emitters).
    pub wall_seconds: f64,
}

impl PresetResults {
    /// The retry pair's cells (budgeted first; empty without a pair).
    pub fn retry_cells(&self) -> &[ServingCell] {
        self.retry.as_ref().map_or(&[], |r| &r.cells)
    }

    /// Error rows, in matrix order (retry pair last).
    pub fn errors(&self) -> impl Iterator<Item = (&ServingCell, &str)> {
        self.main.errors().chain(self.retry.iter().flat_map(ServingResults::errors))
    }

    /// Machine-readable JSON: one object per cell with its facets and
    /// result columns, then each post-pass's fields.
    pub fn to_json(&self) -> String {
        let (v, m) = (self.view, &self.main);
        let mut out = format!("{{\n  \"service\": \"{}\"", json_escape(&m.service));
        let cells = m.cells.iter().map(|c| json_cell(c, true, v.json, Some(&m.spec.slo)));
        json_list(&mut out, "cells", cells);
        for &post in v.post {
            out.push_str(&self.post_pass(post).0);
        }
        out.push_str("\n}\n");
        out
    }

    /// Machine-readable CSV: a header, then one row per cell (the retry
    /// pair's rows last, with `policy=retry` and an empty index and rate).
    pub fn to_csv(&self) -> String {
        let (v, m) = (self.view, &self.main);
        let mut out = String::from("index,label,");
        for k in m.facet_keys.iter().chain(&["ok"]).chain(v.csv.iter().map(|c| &c.0)) {
            let _ = write!(out, "{k},");
        }
        out.push_str("error\n");
        for c in &m.cells {
            let mut head = format!("{},{}", c.index, csv_field(&c.label));
            for f in &c.facets {
                let _ = write!(head, ",{}", f.1.csv());
            }
            csv_row(&mut out, &head, c, v.csv, Some(&m.spec.slo));
        }
        for c in self.retry_cells() {
            let head = format!(",{},retry,{},", csv_field(&c.label), budget(c));
            csv_row(&mut out, &head, c, v.csv, None);
        }
        out
    }

    /// The results as a text table (a blank line whenever the first column
    /// changes), then the post-pass lines.
    pub fn render_table(&self) -> String {
        let (v, m) = (self.view, &self.main);
        let mut out = (v.title)(m);
        out.push('\n');
        let heads = v.keys.iter().map(|k| (k.0.to_string(), k.1, k.2));
        out.push_str(&table_line(
            heads.chain(v.values.iter().map(|k| (k.0.to_string(), k.1, k.2))),
        ));
        out.push('\n');
        let mut last: Option<String> = None;
        for c in &m.cells {
            let keys: Vec<_> = v.keys.iter().map(|&(_, w, left, get)| (get(c), w, left)).collect();
            if last.as_ref() != Some(&keys[0].0) {
                if last.is_some() {
                    out.push('\n');
                }
                last = Some(keys[0].0.clone());
            }
            match &c.outcome {
                Ok(h) => {
                    let cx = Cx { out: h, slo: Some(&m.spec.slo) };
                    let values = v.values.iter().map(|&(_, w, left, get)| (get(&cx), w, left));
                    out.push_str(&table_line(keys.into_iter().chain(values)));
                }
                Err(e) => {
                    let _ = write!(out, "{} ERROR {e}", table_line(keys.into_iter()));
                }
            }
            out.push('\n');
        }
        let tail: Vec<String> = v.post.iter().flat_map(|&p| self.post_pass(p).1).collect();
        if !tail.is_empty() {
            out.push('\n');
            for line in tail {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// One post-pass, rendered: its JSON fields and its table lines.
    fn post_pass(&self, post: Post) -> (String, Vec<String>) {
        let m = &self.main;
        let (mut json, mut lines) = (String::new(), Vec::new());
        match post {
            Post::Knees => {
                let knees = m.knees();
                let items = knees.iter().map(|k| {
                    format!("{{{},\"knee_rps\":{}}}", json_fields(&k.group), opt(k.knee_rps))
                });
                json_list(&mut json, "knees", items);
                lines.extend(knees.iter().map(|k| match k.knee_rps {
                    Some(r) => format!("knee {}: {r} rps", group_name(&k.group)),
                    None => format!("knee {}: below the swept range", group_name(&k.group)),
                }));
            }
            Post::KneeShifts => {
                let shifts = m.knee_shifts();
                let _ = write!(json, ",\n  \"baseline_knee_rps\": {}", opt(m.baseline_knee()));
                let items = shifts
                    .iter()
                    .map(|(k, s)| format!("{{{},\"shift_rps\":{s}}}", json_fields(&k.group)));
                json_list(&mut json, "knee_shifts", items);
                lines.extend(shifts.iter().map(|(k, s)| {
                    format!("knee shift {} vs baseline: {s:+} rps", group_name(&k.group))
                }));
            }
            Post::Flips => {
                let flips = m.flips();
                let items = flips.iter().map(|f| {
                    format!(
                        "{{{},\"baseline_tier\":\"{}\",\"tier\":\"{}\"}}",
                        json_fields(&m.cells[f.cell].facets),
                        json_escape(&f.baseline_tier),
                        json_escape(&f.tier),
                    )
                });
                json_list(&mut json, "flips", items);
                if flips.is_empty() {
                    lines.push("no critical-tier flips vs the direct baseline".into());
                }
                lines.extend(flips.iter().map(|f| {
                    let c = &m.cells[f.cell];
                    let (group, rate) = (c.group_name(), c.facet(RATE));
                    format!("flip {group} @ {rate} rps: {} -> {}", f.baseline_tier, f.tier)
                }));
            }
            Post::RetryPair => {
                let pair = self.retry_cells();
                let items = pair.iter().map(|c| json_cell(c, false, RETRY_JSON, None));
                json_list(&mut json, "retry_pair", items);
                lines.extend(pair.iter().map(|c| match &c.outcome {
                    Ok(h) => format!(
                        "retry {:<10} amplification {:.3}x  retries {}  timeouts {}  p99 {}",
                        budget(c),
                        h.load.retry_amplification,
                        h.load.retries,
                        h.load.client_timeouts,
                        h.load.latency.p99,
                    ),
                    Err(e) => format!("retry {} ERROR {e}", c.label),
                }));
            }
        }
        (json, lines)
    }

    /// The `BENCH_<preset>.json` performance record: cell count, total
    /// simulator events, wall-clock, and events/second. Unlike the other
    /// emitters this is *not* byte-deterministic (it carries wall-clock).
    pub fn bench_json(&self) -> String {
        let all = std::iter::once(&self.main).chain(&self.retry);
        let (cells, events) = all.fold((0, 0), |(c, e), r| (c + r.cells.len(), e + r.sim_events));
        let wall = self.wall_seconds;
        let eps = if wall > 0.0 { events as f64 / wall } else { 0.0 };
        format!(
            "{{\"suite\":\"{}\",\"cells\":{cells},\"sim_events\":{events},\"wall_seconds\":{wall:.3},\"events_per_sec\":{eps:.0}}}\n",
            self.view.name,
        )
    }
}

fn opt(v: Option<u64>) -> String {
    v.map_or("null".into(), |r| r.to_string())
}

fn json_fields(facets: &[Facet]) -> String {
    facets.iter().map(|(k, v)| format!("\"{k}\":{}", v.json())).collect::<Vec<_>>().join(",")
}

/// Writes the field `key` as a list: one indented item per line.
fn json_list(out: &mut String, key: &str, items: impl Iterator<Item = String>) {
    let _ = write!(out, ",\n  \"{key}\": [\n");
    let items: Vec<String> = items.collect();
    for (i, item) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        let _ = writeln!(out, "    {item}{comma}");
    }
    out.push_str("  ]");
}

fn json_cell(c: &ServingCell, index: bool, cols: &[Col], slo: Option<&SloSpec>) -> String {
    let mut s = String::from("{");
    if index {
        let _ = write!(s, "\"index\":{},", c.index);
    }
    let _ = write!(s, "\"label\":\"{}\"", json_escape(&c.label));
    for (k, v) in &c.facets {
        let _ = write!(s, ",\"{k}\":{}", v.json());
    }
    match &c.outcome {
        Ok(h) => {
            s.push_str(",\"ok\":true");
            let cx = Cx { out: h, slo };
            for (name, get) in cols {
                let _ = write!(s, ",\"{name}\":{}", get(&cx).map_or("null".into(), |v| v.json()));
            }
        }
        Err(e) => {
            let _ = write!(s, ",\"ok\":false,\"error\":\"{}\"", json_escape(e));
        }
    }
    s.push('}');
    s
}

fn csv_row(out: &mut String, head: &str, c: &ServingCell, cols: &[Col], slo: Option<&SloSpec>) {
    out.push_str(head);
    match &c.outcome {
        Ok(h) => {
            out.push_str(",true,");
            let cx = Cx { out: h, slo };
            for (_, get) in cols {
                let _ = write!(out, "{},", get(&cx).map(|v| v.csv()).unwrap_or_default());
            }
        }
        Err(e) => {
            out.push_str(",false,");
            out.push_str(&",".repeat(cols.len()));
            out.push_str(&csv_field(e));
        }
    }
    out.push('\n');
}

/// Joins `(text, width, left)` cells with single spaces; a width-0 cell
/// is free text after two spaces.
fn table_line(cells: impl Iterator<Item = (String, usize, bool)>) -> String {
    let mut s = String::new();
    for (i, (t, w, left)) in cells.enumerate() {
        if w == 0 {
            let _ = write!(s, "  {t}");
            continue;
        }
        if i > 0 {
            s.push(' ');
        }
        let _ = if left { write!(s, "{t:<w$}") } else { write!(s, "{t:>w$}") };
    }
    s
}

/// Resolves a `--service` name to its factory.
fn service_by_name(name: &str) -> Option<ServiceFactory> {
    match name {
        "echo" => Some(service_factory(|| EchoService::new(4096))),
        "memcached" => Some(MemcachedService::factory(MemcachedConfig::default())),
        "bloom" => Some(BloomService::factory(BloomConfig::default())),
        _ => None,
    }
}

/// The base flags every serving preset shares, already parsed; each field
/// is the flag of the same name (`queue_capacity` is `--queue-cap`,
/// `replay_device` is `--full`, `mechanisms`/`topologies` are
/// `--mech`/`--topos`, and `net` carries the NIC knobs `--rx-queues
/// --flows --link-gbps --net-jitter`). `None` and empty fields keep the
/// preset's defaults (see [`ServingFlags::preset`]). A preset ignores the
/// fields it has no use for: only `load` takes `slo_p999`, `blame` takes
/// no SLO, and `overload` runs without `faults` (its plans are an axis).
#[derive(Debug, Clone, Default)]
pub struct ServingFlags {
    pub service: Option<String>,
    pub requests: Option<usize>,
    pub queue_capacity: Option<usize>,
    pub cores: Option<usize>,
    pub fibers: Option<usize>,
    pub seed: Option<u64>,
    pub replay_device: bool,
    pub faults: FaultPlan,
    pub slo_p99: Option<Span>,
    pub slo_p999: Option<Span>,
    pub net: NetConfig,
    pub mechanisms: Vec<Mechanism>,
    pub rates: Vec<u64>,
    pub nics: Vec<NicModelKind>,
    pub topologies: Vec<TierSpec>,
    pub policies: Vec<AdmissionControl>,
}

const MECHANISMS: [Mechanism; 3] =
    [Mechanism::OnDemand, Mechanism::Prefetch, Mechanism::SoftwareQueue];

/// The flag's list, or the preset's default when the flag was not given.
fn given_or<T: Clone>(flag: &[T], default: &[T]) -> Vec<T> {
    if flag.is_empty() { default } else { flag }.to_vec()
}

impl ServingFlags {
    /// The named preset (`load` | `net` | `blame` | `overload`) under these
    /// flags — the constructor `figures <preset>` runs.
    pub fn preset(&self, name: &str) -> Result<Preset, String> {
        Ok(match name {
            "load" => Preset::load(
                self.base("memcached", 8, 64, None)?,
                &given_or(&self.mechanisms, &MECHANISMS),
                &given_or(
                    &self.rates,
                    &[250_000, 500_000, 1_000_000, 2_000_000, 2_500_000, 3_000_000, 4_000_000],
                ),
            ),
            "net" => {
                let mut base =
                    ServingFlags { slo_p999: None, ..self.clone() }.base("echo", 8, 64, None)?;
                base.spec.net = self.net;
                Preset::net(
                    base,
                    &given_or(&self.nics, &[NicModelKind::dma(), NicModelKind::nanopu()]),
                    &given_or(&self.topologies, &[TierSpec::rpc(), TierSpec::fanout(4)]),
                    &given_or(&self.rates, &[250_000, 500_000, 1_000_000, 2_000_000, 3_000_000]),
                )
            }
            "blame" => Preset::blame(
                ServingFlags { slo_p99: None, slo_p999: None, ..self.clone() }
                    .base("echo", 8, 64, None)?,
                &given_or(&self.mechanisms, &MECHANISMS),
                &given_or(&self.topologies, &[TierSpec::fanout(4)]),
                &given_or(&self.rates, &[250_000, 1_000_000, 2_000_000]),
            ),
            // Few fibers so queue waits (the admission signal) build under
            // overload; the SLO bound sits between deadline-aware's worst
            // drain bucket and static's, which is what the matrix contrasts.
            "overload" => {
                let d = MatrixSpec::default();
                let m = MatrixSpec {
                    policies: given_or(&self.policies, &d.policies),
                    rates: given_or(&self.rates, &d.rates),
                    ..d
                };
                let flags =
                    ServingFlags { faults: FaultPlan::none(), slo_p999: None, ..self.clone() };
                Preset::overload(flags.base("echo", 4, 24, Some(Span::from_us(46)))?, &m)
            }
            other => return Err(format!("unknown serving preset `{other}`")),
        })
    }

    fn base(
        &self,
        service: &str,
        fibers: usize,
        queue: usize,
        slo_p99: Option<Span>,
    ) -> Result<ServingMatrix, String> {
        let name = self.service.as_deref().unwrap_or(service);
        let factory = service_by_name(name)
            .ok_or_else(|| format!("--service: unknown `{name}` (echo | memcached | bloom)"))?;
        let mut cfg = PlatformConfig::paper_default()
            .cores(self.cores.unwrap_or(2))
            .fibers_per_core(self.fibers.unwrap_or(fibers));
        if !self.replay_device {
            cfg = cfg.without_replay_device();
        }
        if self.faults.is_active() {
            cfg = cfg.faults(self.faults);
        }
        if let Some(seed) = self.seed {
            cfg = cfg.seed(seed);
        }
        let mut slo = SloSpec::none();
        if let Some(p) = self.slo_p99.or(slo_p99) {
            slo = slo.p99(p);
        }
        if let Some(p) = self.slo_p999 {
            slo = slo.p999(p);
        }
        // Placeholder arrival; a rate axis replaces it per cell.
        let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 })
            .requests(self.requests.unwrap_or(400))
            .queue_capacity(self.queue_capacity.unwrap_or(queue))
            .slo(slo);
        Ok(ServingMatrix::new(name, factory, spec, cfg))
    }
}

/// The `figures scenario --json` document for one plain scenario run.
pub fn scenario_json(
    name: &str,
    fingerprint: u64,
    report: &LoadReport,
    net: Option<&NetReport>,
) -> String {
    let net_field = net.map(|n| format!(",\n  \"net\": {}", n.to_json())).unwrap_or_default();
    format!(
        "{{\n  \"scenario\": \"{}\",\n  \"fingerprint\": \"{fingerprint:016x}\",\n  \"report\": {}{net_field}\n}}\n",
        json_escape(name),
        report.to_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_a_cartesian_product_last_axis_innermost() {
        let spec = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 });
        let base = ServingMatrix::new(
            "echo",
            service_factory(|| EchoService::new(64)),
            spec,
            PlatformConfig::paper_default(),
        );
        let m = base
            .clone()
            .axis(vec![
                Point::mechanism(Mechanism::OnDemand),
                Point::mechanism(Mechanism::Prefetch),
            ])
            .axis(vec![Point::tiers(TierSpec::rpc())])
            .axis(rate_points(&[1, 2, 3]));
        let (keys, cells) = m.expand();
        assert_eq!((m.cell_count(), keys.len(), cells.len()), (6, 6, 6));
        assert_eq!(keys[4].point, vec![1, 0, 1]);
        assert_eq!(cells[4].label, "echo mech=prefetch topo=rpc rate=2rps");
        assert_eq!(m.facet_keys(), vec!["mechanism", "topology", RATE]);
        assert_eq!(base.axis(Vec::new()).expand().1.len(), 0, "an empty axis empties the matrix");
    }
}
