//! Axes of knobs and their Cartesian product: the one matrix expander.
//!
//! Every matrix the bench runs — `figures sweep` ([`SweepSpec`]), the
//! serving presets ([`ServingMatrix`]) and the scenario matrix
//! ([`ScenarioMatrixSpec`]) — is a base world plus an ordered list of axes.
//! An axis is a list of [`Point`]s; a point sets one [`Knob`] and brings
//! its cell-label fragment and the facets the serving emitters print.
//! [`product`] expands the axes, last axis innermost, into one [`Draft`]
//! per cell: the base with every knob of the cell applied. What a family
//! builds from a draft (a relabelled experiment, a serving run) is the
//! family's own.
//!
//! [`SweepSpec`]: crate::sweep::SweepSpec
//! [`ServingMatrix`]: crate::serving::ServingMatrix
//! [`ScenarioMatrixSpec`]: crate::scenario::ScenarioMatrixSpec

use std::fmt::{self, Write as _};

use kus_core::prelude::{Mechanism, PlatformConfig};
use kus_load::{
    AdmissionControl, ArrivalProcess, LoadSpec, NetConfig, NicModelKind, RetryPolicy, TierSpec,
};
use kus_sim::fault::FaultPlan;
use kus_sim::{json_escape, Span};

use crate::sweep::csv_field;

/// The facet key the offered-rate axis writes; knees group by every
/// other facet.
pub(crate) const RATE: &str = "rate_rps";

/// One knob an axis point sets on a cell's platform or serving spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Knob {
    /// The access mechanism.
    Mechanism(Mechanism),
    /// The host-observed device latency.
    Latency(Span),
    /// The core count.
    Cores(usize),
    /// The fibers-per-core count.
    Fibers(usize),
    /// The SMT context count.
    Smt(usize),
    /// The per-core LFB count.
    Lfbs(usize),
    /// The chip-level device-path queue capacity.
    Credits(usize),
    /// The SWQ request-ring capacity.
    Ring(usize),
    /// The SWQ descriptor fetch-burst size.
    Burst(usize),
    /// The user-mode context-switch cost.
    CtxSwitch(Span),
    /// The platform RNG seed.
    Seed(u64),
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
    /// Sets the knob: a platform knob sets the field its `PlatformConfig`
    /// builder sets, a serving knob a field of the spec.
    fn apply(self, spec: &mut LoadSpec, cfg: &mut PlatformConfig) {
        match self {
            Knob::Mechanism(m) => cfg.mechanism = m,
            Knob::Latency(l) => cfg.device_latency = l,
            Knob::Cores(n) => cfg.cores = n,
            Knob::Fibers(n) => cfg.fibers_per_core = n,
            Knob::Smt(n) => cfg.smt = n,
            Knob::Lfbs(n) => cfg.core.lfb_count = n,
            Knob::Credits(n) => cfg.device_path_credits = n,
            Knob::Ring(n) => cfg.swq_ring_capacity = n,
            Knob::Burst(n) => cfg.swq_fetch_burst = n,
            Knob::CtxSwitch(s) => cfg.ctx_switch = s,
            Knob::Seed(s) => cfg.seed = s,
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
    pub(crate) fn json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::Json(j) => j.clone(),
            other => other.to_string(),
        }
    }

    pub(crate) fn csv(&self) -> String {
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
    pub(crate) facets: Vec<Facet>,
}

impl Point {
    /// A point with explicit label fragment and facets.
    pub(crate) fn new(knob: Knob, label: impl Into<String>, facets: Vec<Facet>) -> Point {
        Point { knob, label: label.into(), facets }
    }

    /// A point labelled `<tag>=<name>` with the one facet `<facet>: name`.
    fn tagged(knob: Knob, tag: &str, facet: &'static str, name: &str) -> Point {
        Point::new(knob, format!("{tag}={name}"), vec![(facet, Value::Str(name.into()))])
    }

    /// `mech=<m>`.
    pub(crate) fn mechanism(m: Mechanism) -> Point {
        Point::tagged(Knob::Mechanism(m), "mech", "mechanism", &m.to_string())
    }

    /// `rate=<r>rps`.
    pub(crate) fn rate(r: u64) -> Point {
        Point::new(Knob::Rate(r), format!("rate={r}rps"), vec![(RATE, Value::Int(r))])
    }

    /// `nic=<n> topo=<t>`; `None` is the front end off (`nic=off`).
    pub(crate) fn front(nic: Option<NicModelKind>, tiers: TierSpec) -> Point {
        let n = nic.map_or("off", |n| n.name());
        let t = tiers.topology.name();
        Point::new(
            Knob::Front(nic, tiers),
            format!("nic={n} topo={t}"),
            vec![("nic", Value::Str(n.into())), ("topology", Value::Str(t.into()))],
        )
    }

    /// `topo=<t>`.
    pub(crate) fn tiers(t: TierSpec) -> Point {
        Point::tagged(Knob::Tiers(t), "topo", "topology", t.topology.name())
    }

    /// `policy=<label>`.
    pub(crate) fn admission(a: AdmissionControl) -> Point {
        Point::tagged(Knob::Admission(a), "policy", "policy", a.label())
    }

    /// `plan=<name>`.
    pub(crate) fn plan(name: &str, plan: FaultPlan) -> Point {
        Point::tagged(Knob::Faults(plan), "plan", "plan", name)
    }
}

/// One cell of a product, before anything runs: its point index on each
/// axis, its label and facets, and the base with the cell's knobs applied.
pub(crate) struct Draft {
    pub(crate) point: Vec<usize>,
    pub(crate) label: String,
    pub(crate) facets: Vec<Facet>,
    pub(crate) spec: LoadSpec,
    pub(crate) cfg: PlatformConfig,
}

/// The number of cells `axes` expand into (an empty axis empties the
/// product).
pub(crate) fn cell_count<A: AsRef<[Point]>>(axes: &[A]) -> usize {
    axes.iter().map(|a| a.as_ref().len()).product()
}

/// The Cartesian product of `axes` over the base `spec` and `cfg`, last
/// axis innermost. Each cell is labelled `name` followed by its points'
/// fragments, in axis order.
pub(crate) fn product<'a, A: AsRef<[Point]>>(
    name: &'a str,
    spec: LoadSpec,
    cfg: &'a PlatformConfig,
    axes: &'a [A],
) -> impl Iterator<Item = Draft> + 'a {
    (0..cell_count(axes)).map(move |n| {
        // Cell `n` in mixed radix, one digit per axis.
        let mut point = vec![0; axes.len()];
        let mut rest = n;
        for (p, axis) in point.iter_mut().zip(axes).rev() {
            let len = axis.as_ref().len();
            (*p, rest) = (rest % len, rest / len);
        }
        let (mut label, mut facets) = (name.to_string(), Vec::new());
        let (mut spec, mut cfg) = (spec, cfg.clone());
        for (axis, &i) in axes.iter().zip(&point) {
            let p = &axis.as_ref()[i];
            let _ = write!(label, " {}", p.label);
            facets.extend(p.facets.iter().cloned());
            p.knob.apply(&mut spec, &mut cfg);
        }
        Draft { point, label, facets, spec, cfg }
    })
}
