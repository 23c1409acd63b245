//! [`ScenarioSpec`]: the parse-phase mirror of the scenario schema.
//!
//! A spec is an unvalidated description — exactly what the TOML says, or
//! what the programmatic builders were handed. [`ScenarioSpec::parse`]
//! maps TOML onto the spec with per-field line diagnostics;
//! [`ScenarioSpec::to_toml`] writes the canonical serialization (every
//! field, explicit); `Scenario::compile` (in
//! [`scenario`](crate::scenario)) validates and freezes it. The
//! spec ↔ TOML mapping is exhaustive in both directions: `to_toml`
//! destructures every struct field, and unknown TOML keys are errors, so
//! schema drift fails loudly instead of silently.

use kus_core::prelude::{JitterModel, Mechanism, Span};
use kus_load::{
    AdmissionControl, ArrivalProcess, DmaNic, KeyPopularity, NanoNic, NetConfig, NicModelKind,
    RetryPolicy, SloSpec, TierSpec, TierTopology,
};
use kus_sim::fault::FaultPlan;

use crate::error::{Reader, ScenarioError};
use crate::toml::{self, Table};

/// Which service handles requests, with its sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceSpec {
    /// One device read from a ring of `lines` cache lines.
    Echo {
        /// Ring size in cache lines.
        lines: u64,
    },
    /// The Memcached-style KV lookup path.
    Memcached {
        /// Items inserted during the build.
        n_items: u64,
        /// Value size in cache lines.
        value_lines: u64,
        /// Work instructions after each lookup.
        work_count: u32,
    },
    /// The Bloom-filter probe path.
    Bloom {
        /// Keys inserted during the build.
        n_keys: u64,
        /// Hash probes per lookup.
        k: u64,
        /// Work instructions after each lookup.
        work_count: u32,
    },
}

impl ServiceSpec {
    /// The service's short name (matches `Service::name`).
    pub fn name(&self) -> &'static str {
        match self {
            ServiceSpec::Echo { .. } => "echo",
            ServiceSpec::Memcached { .. } => "memcached",
            ServiceSpec::Bloom { .. } => "bloom",
        }
    }
}

impl Default for ServiceSpec {
    fn default() -> ServiceSpec {
        ServiceSpec::Echo { lines: 4096 }
    }
}

/// Optional platform overrides over [`PlatformConfig::paper_default`]
/// (`None` = keep the paper default, so a scenario that sets nothing
/// compiles to exactly today's platform).
///
/// [`PlatformConfig::paper_default`]: kus_core::prelude::PlatformConfig::paper_default
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformSpec {
    /// Access mechanism under test.
    pub mechanism: Option<Mechanism>,
    /// Host core count.
    pub cores: Option<usize>,
    /// Fibers per core.
    pub fibers_per_core: Option<usize>,
    /// SMT contexts per core.
    pub smt: Option<usize>,
    /// Host-observed device latency.
    pub device_latency: Option<Span>,
    /// Device jitter spread.
    pub device_jitter: Option<Span>,
    /// Device jitter shape (`None` = uniform).
    pub jitter_model: Option<JitterModel>,
    /// User-mode context-switch cost.
    pub ctx_switch: Option<Span>,
    /// Whether the record/replay device is used (false = single-phase).
    pub use_replay_device: Option<bool>,
    /// Dataset size in bytes (at most `PlatformConfig::MAX_DATASET_BYTES`,
    /// 4 GiB; `None` = the 256 MiB default).
    pub dataset_bytes: Option<u64>,
    /// SWQ ring capacity.
    pub swq_ring_capacity: Option<usize>,
}

/// The overload matrix a scenario can carry: admission policy × fault
/// plan × offered rate, plus the closed-loop retry pair. These defaults are
/// the axes of the `figures overload` preset in `kus-bench`, so `[matrix]`
/// with no keys is today's overload sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Admission-policy axis.
    pub policies: Vec<AdmissionControl>,
    /// Fault-plan axis (`(name, plan)`; the name keys cell labels).
    pub plans: Vec<(String, FaultPlan)>,
    /// Offered-rate axis (requests/second).
    pub rates: Vec<u64>,
    /// Whether the budgeted/unbudgeted retry pair is appended.
    pub retry_pair: bool,
}

impl Default for MatrixSpec {
    fn default() -> MatrixSpec {
        MatrixSpec {
            policies: vec![
                AdmissionControl::Static,
                AdmissionControl::DeadlineAware {
                    target: Span::from_us(2),
                    interval: Span::from_us(5),
                },
                AdmissionControl::AdaptiveConcurrency { initial: 4, max: 16, window: 16 },
            ],
            plans: vec![
                ("calm".into(), FaultPlan::none()),
                (
                    "freeze".into(),
                    FaultPlan::none().with_freeze_windows(
                        Span::from_us(150),
                        Span::from_us(40),
                        Span::from_us(5),
                    ),
                ),
                ("stall".into(), FaultPlan::none().with_dispatcher_stalls(0.3, Span::from_us(8))),
            ],
            rates: vec![1_000_000, 3_000_000],
            retry_pair: true,
        }
    }
}

/// One declarative world: arrivals × key skew × service × platform ×
/// queueing × SLOs × admission × retry × faults, with an optional
/// overload matrix. Field defaults exactly reproduce `LoadSpec::new` and
/// `PlatformConfig::paper_default`, so the empty scenario is today's
/// default experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (labels, artifacts, fingerprint).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Platform RNG seed override (`None` = the paper default seed).
    pub seed: Option<u64>,
    /// The arrival process.
    pub arrival: ArrivalProcess,
    /// Open-loop request count (closed-loop: total request budget).
    pub requests: usize,
    /// Key-popularity skew applied by the service.
    pub keys: KeyPopularity,
    /// The service under load.
    pub service: ServiceSpec,
    /// Platform overrides.
    pub platform: PlatformSpec,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Fixed per-dispatch overhead.
    pub dispatch_overhead: Span,
    /// Service-level objectives.
    pub slo: SloSpec,
    /// Admission-control policy.
    pub admission: AdmissionControl,
    /// Client retry policy (closed-loop arrivals only).
    pub retry: RetryPolicy,
    /// Fault plan for single-scenario runs (matrix cells override it).
    pub faults: FaultPlan,
    /// Modelled NIC front end (default off: dispatcher-only world).
    pub net: NetConfig,
    /// Tier-chain topology over the service (default direct).
    pub tiers: TierSpec,
    /// Outcome expectations checked by `figures scenario` (`None` = none).
    pub expect: Option<ExpectSpec>,
    /// Optional overload matrix.
    pub matrix: Option<MatrixSpec>,
}

/// Declarative outcome expectations: the executable-claim layer. A world
/// carrying an `[expect]` section *fails* the `figures scenario` run when
/// its observed outcome regresses below the claim.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpectSpec {
    /// Expected degradation verdict label
    /// (`graceful` / `brownout` / `collapse` / `unstable`).
    pub verdict: Option<String>,
    /// Expected SLO outcome: `true` = pass, `false` = fail.
    pub slo_pass: Option<bool>,
    /// Minimum demonstrated goodput in requests/second: the run's goodput
    /// must reach the knee fraction (95%) of this rate.
    pub knee_at_least: Option<f64>,
    /// Expected critical tier: the hop owning the largest critical-path
    /// share in the run's `BlameReport` (e.g. `"service"`, `"queue"`, or
    /// a shard hop like `"rpc.shard1"`). Stating it enables the causal
    /// event class for the run.
    pub critical_tier: Option<String>,
    /// Minimum critical-path share in `(0, 1]` the observed critical tier
    /// must own. Stating it enables the causal event class for the run.
    pub critical_share_at_least: Option<f64>,
}

impl ExpectSpec {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(v) = &self.verdict {
            if !matches!(v.as_str(), "graceful" | "brownout" | "collapse" | "unstable") {
                return Err(format!(
                    "unknown verdict '{v}' (graceful | brownout | collapse | unstable)"
                ));
            }
        }
        if let Some(k) = self.knee_at_least {
            if !k.is_finite() || k <= 0.0 {
                return Err(format!("knee_at_least must be a positive rate, got {k}"));
            }
        }
        if let Some(t) = &self.critical_tier {
            if t.is_empty() {
                return Err("critical_tier must name a hop (e.g. \"service\")".into());
            }
        }
        if let Some(s) = self.critical_share_at_least {
            if !s.is_finite() || s <= 0.0 || s > 1.0 {
                return Err(format!(
                    "critical_share_at_least must be a share in (0, 1], got {s}"
                ));
            }
        }
        if self.verdict.is_none()
            && self.slo_pass.is_none()
            && self.knee_at_least.is_none()
            && self.critical_tier.is_none()
            && self.critical_share_at_least.is_none()
        {
            return Err("an [expect] section must state at least one expectation".into());
        }
        Ok(())
    }

    /// True when any stated claim needs the causal critical-path blame
    /// decomposition (and therefore the causal event class) to check.
    pub fn wants_blame(&self) -> bool {
        self.critical_tier.is_some() || self.critical_share_at_least.is_some()
    }
}

impl ScenarioSpec {
    /// A scenario with `LoadSpec::new`-equivalent defaults: 1000 requests,
    /// a 64-deep static queue, 50 ns dispatch overhead, no SLOs, no
    /// retries, no faults, sequential keys, the echo service, and the
    /// untouched paper platform.
    pub fn new(name: impl Into<String>, arrival: ArrivalProcess) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            seed: None,
            arrival,
            requests: 1000,
            keys: KeyPopularity::Sequential,
            service: ServiceSpec::default(),
            platform: PlatformSpec::default(),
            queue_capacity: 64,
            dispatch_overhead: Span::from_ns(50),
            slo: SloSpec::none(),
            admission: AdmissionControl::Static,
            retry: RetryPolicy::none(),
            faults: FaultPlan::none(),
            net: NetConfig::default(),
            tiers: TierSpec::default(),
            expect: None,
            matrix: None,
        }
    }

    /// Sets the description.
    pub fn description(mut self, d: impl Into<String>) -> ScenarioSpec {
        self.description = d.into();
        self
    }

    /// Overrides the platform seed.
    pub fn seed(mut self, seed: u64) -> ScenarioSpec {
        self.seed = Some(seed);
        self
    }

    /// Sets the request count.
    pub fn requests(mut self, n: usize) -> ScenarioSpec {
        self.requests = n;
        self
    }

    /// Sets the key-popularity skew.
    pub fn keys(mut self, k: KeyPopularity) -> ScenarioSpec {
        self.keys = k;
        self
    }

    /// Sets the service.
    pub fn service(mut self, s: ServiceSpec) -> ScenarioSpec {
        self.service = s;
        self
    }

    /// Sets the platform overrides.
    pub fn platform(mut self, p: PlatformSpec) -> ScenarioSpec {
        self.platform = p;
        self
    }

    /// Sets the admission queue capacity.
    pub fn queue_capacity(mut self, n: usize) -> ScenarioSpec {
        self.queue_capacity = n;
        self
    }

    /// Sets the per-dispatch overhead.
    pub fn dispatch_overhead(mut self, s: Span) -> ScenarioSpec {
        self.dispatch_overhead = s;
        self
    }

    /// Sets the SLOs.
    pub fn slo(mut self, slo: SloSpec) -> ScenarioSpec {
        self.slo = slo;
        self
    }

    /// Sets the admission policy.
    pub fn admission(mut self, a: AdmissionControl) -> ScenarioSpec {
        self.admission = a;
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, r: RetryPolicy) -> ScenarioSpec {
        self.retry = r;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, f: FaultPlan) -> ScenarioSpec {
        self.faults = f;
        self
    }

    /// Sets the modelled NIC front end.
    pub fn net(mut self, n: NetConfig) -> ScenarioSpec {
        self.net = n;
        self
    }

    /// Sets the tier-chain topology.
    pub fn tiers(mut self, t: TierSpec) -> ScenarioSpec {
        self.tiers = t;
        self
    }

    /// Attaches outcome expectations.
    pub fn expect(mut self, e: ExpectSpec) -> ScenarioSpec {
        self.expect = Some(e);
        self
    }

    /// Attaches an overload matrix.
    pub fn matrix(mut self, m: MatrixSpec) -> ScenarioSpec {
        self.matrix = Some(m);
        self
    }

    /// Parses a scenario from TOML text.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let root = toml::parse(text)?;
        let mut r = Reader::new(&root, "");
        let Some(name) = r.str_opt("name")? else {
            return Err(ScenarioError::msg("scenario needs a top-level `name`"));
        };
        let mut spec = ScenarioSpec::new(name, ArrivalProcess::Poisson { rate_rps: 1.0 });
        if let Some(d) = r.str_opt("description")? {
            spec.description = d;
        }
        spec.seed = r.u64_opt("seed")?;
        if let Some(t) = r.table_opt("traffic")? {
            let (arrival, requests) = parse_traffic(t)?;
            spec.arrival = arrival;
            if let Some(n) = requests {
                spec.requests = n;
            }
        }
        if let Some(t) = r.table_opt("keys")? {
            spec.keys = parse_keys(t)?;
        }
        if let Some(t) = r.table_opt("service")? {
            spec.service = parse_service(t)?;
        }
        if let Some(t) = r.table_opt("platform")? {
            spec.platform = parse_platform(t)?;
        }
        if let Some(t) = r.table_opt("queue")? {
            let mut q = Reader::new(t, "queue");
            if let Some(n) = q.u64_opt("capacity")? {
                spec.queue_capacity = n as usize;
            }
            if let Some(ns) = q.f64_opt("dispatch_overhead_ns")? {
                spec.dispatch_overhead = span_ns(&q, "dispatch_overhead_ns", ns)?;
            }
            q.finish()?;
        }
        if let Some(t) = r.table_opt("slo")? {
            spec.slo = parse_slo(t)?;
        }
        if let Some(t) = r.table_opt("admission")? {
            spec.admission = parse_admission(t, "admission")?;
        }
        if let Some(t) = r.table_opt("retry")? {
            spec.retry = parse_retry(t)?;
        }
        if let Some(t) = r.table_opt("faults")? {
            spec.faults = parse_faults(t, "faults")?;
        }
        if let Some(t) = r.table_opt("net")? {
            spec.net = parse_net(t)?;
        }
        if let Some(t) = r.table_opt("tiers")? {
            spec.tiers = parse_tiers(t)?;
        }
        if let Some(t) = r.table_opt("expect")? {
            spec.expect = Some(parse_expect(t)?);
        }
        if let Some(t) = r.table_opt("matrix")? {
            spec.matrix = Some(parse_matrix(t)?);
        }
        r.finish()?;
        Ok(spec)
    }

    /// Writes the canonical TOML serialization: every section, every
    /// field, explicit. `parse(to_toml(spec))` reproduces `spec` (and
    /// therefore its compiled fingerprint) exactly.
    pub fn to_toml(&self) -> String {
        // Exhaustive destructuring: adding a ScenarioSpec field without
        // serializing it fails to compile here.
        let ScenarioSpec {
            name,
            description,
            seed,
            arrival,
            requests,
            keys,
            service,
            platform,
            queue_capacity,
            dispatch_overhead,
            slo,
            admission,
            retry,
            faults,
            net,
            tiers,
            expect,
            matrix,
        } = self;
        let mut out = String::new();
        out.push_str(&format!("name = {}\n", toml_str(name)));
        out.push_str(&format!("description = {}\n", toml_str(description)));
        if let Some(seed) = seed {
            out.push_str(&format!("seed = {seed}\n"));
        }

        out.push_str("\n[traffic]\n");
        out.push_str(&format!("requests = {requests}\n"));
        match *arrival {
            ArrivalProcess::Poisson { rate_rps } => {
                out.push_str("arrival = \"poisson\"\n");
                out.push_str(&format!("rate_rps = {}\n", fmt_f64(rate_rps)));
            }
            ArrivalProcess::OnOff { rate_rps, on, off } => {
                out.push_str("arrival = \"onoff\"\n");
                out.push_str(&format!("rate_rps = {}\n", fmt_f64(rate_rps)));
                out.push_str(&format!("on_ns = {}\n", fmt_span(on)));
                out.push_str(&format!("off_ns = {}\n", fmt_span(off)));
            }
            ArrivalProcess::Ramp { start_rps, end_rps, over } => {
                out.push_str("arrival = \"ramp\"\n");
                out.push_str(&format!("start_rps = {}\n", fmt_f64(start_rps)));
                out.push_str(&format!("end_rps = {}\n", fmt_f64(end_rps)));
                out.push_str(&format!("over_ns = {}\n", fmt_span(over)));
            }
            ArrivalProcess::Diurnal { base_rps, amplitude, period } => {
                out.push_str("arrival = \"diurnal\"\n");
                out.push_str(&format!("base_rps = {}\n", fmt_f64(base_rps)));
                out.push_str(&format!("amplitude = {}\n", fmt_f64(amplitude)));
                out.push_str(&format!("period_ns = {}\n", fmt_span(period)));
            }
            ArrivalProcess::FlashCrowd { base_rps, spike_rps, at, rise, hold, fall } => {
                out.push_str("arrival = \"flashcrowd\"\n");
                out.push_str(&format!("base_rps = {}\n", fmt_f64(base_rps)));
                out.push_str(&format!("spike_rps = {}\n", fmt_f64(spike_rps)));
                out.push_str(&format!("at_ns = {}\n", fmt_span(at)));
                out.push_str(&format!("rise_ns = {}\n", fmt_span(rise)));
                out.push_str(&format!("hold_ns = {}\n", fmt_span(hold)));
                out.push_str(&format!("fall_ns = {}\n", fmt_span(fall)));
            }
            ArrivalProcess::Bursts { base_rps, burst_rps, period, burst_len } => {
                out.push_str("arrival = \"bursts\"\n");
                out.push_str(&format!("base_rps = {}\n", fmt_f64(base_rps)));
                out.push_str(&format!("burst_rps = {}\n", fmt_f64(burst_rps)));
                out.push_str(&format!("period_ns = {}\n", fmt_span(period)));
                out.push_str(&format!("burst_len_ns = {}\n", fmt_span(burst_len)));
            }
            ArrivalProcess::ClosedLoop { users, think } => {
                out.push_str("arrival = \"closedloop\"\n");
                out.push_str(&format!("users = {users}\n"));
                out.push_str(&format!("think_ns = {}\n", fmt_span(think)));
            }
        }

        out.push_str("\n[keys]\n");
        match *keys {
            KeyPopularity::Sequential => out.push_str("popularity = \"sequential\"\n"),
            KeyPopularity::Zipfian { theta } => {
                out.push_str("popularity = \"zipfian\"\n");
                out.push_str(&format!("theta = {}\n", fmt_f64(theta)));
            }
            KeyPopularity::HotSet { hot_fraction, hot_weight } => {
                out.push_str("popularity = \"hotset\"\n");
                out.push_str(&format!("hot_fraction = {}\n", fmt_f64(hot_fraction)));
                out.push_str(&format!("hot_weight = {}\n", fmt_f64(hot_weight)));
            }
        }

        out.push_str("\n[service]\n");
        match *service {
            ServiceSpec::Echo { lines } => {
                out.push_str("kind = \"echo\"\n");
                out.push_str(&format!("lines = {lines}\n"));
            }
            ServiceSpec::Memcached { n_items, value_lines, work_count } => {
                out.push_str("kind = \"memcached\"\n");
                out.push_str(&format!("n_items = {n_items}\n"));
                out.push_str(&format!("value_lines = {value_lines}\n"));
                out.push_str(&format!("work_count = {work_count}\n"));
            }
            ServiceSpec::Bloom { n_keys, k, work_count } => {
                out.push_str("kind = \"bloom\"\n");
                out.push_str(&format!("n_keys = {n_keys}\n"));
                out.push_str(&format!("k = {k}\n"));
                out.push_str(&format!("work_count = {work_count}\n"));
            }
        }

        out.push_str("\n[platform]\n");
        let PlatformSpec {
            mechanism,
            cores,
            fibers_per_core,
            smt,
            device_latency,
            device_jitter,
            jitter_model,
            ctx_switch,
            use_replay_device,
            dataset_bytes,
            swq_ring_capacity,
        } = platform;
        if let Some(m) = mechanism {
            let s = match m {
                Mechanism::OnDemand => "ondemand",
                Mechanism::Prefetch => "prefetch",
                Mechanism::SoftwareQueue => "swq",
            };
            out.push_str(&format!("mechanism = \"{s}\"\n"));
        }
        if let Some(n) = cores {
            out.push_str(&format!("cores = {n}\n"));
        }
        if let Some(n) = fibers_per_core {
            out.push_str(&format!("fibers_per_core = {n}\n"));
        }
        if let Some(n) = smt {
            out.push_str(&format!("smt = {n}\n"));
        }
        if let Some(s) = device_latency {
            out.push_str(&format!("device_latency_ns = {}\n", fmt_span(*s)));
        }
        if let Some(s) = device_jitter {
            out.push_str(&format!("device_jitter_ns = {}\n", fmt_span(*s)));
        }
        match jitter_model {
            None => {}
            Some(JitterModel::Uniform) => out.push_str("jitter_model = \"uniform\"\n"),
            Some(JitterModel::Bimodal { tail_prob, tail }) => {
                out.push_str("jitter_model = \"bimodal\"\n");
                out.push_str(&format!("jitter_tail_prob = {}\n", fmt_f64(*tail_prob)));
                out.push_str(&format!("jitter_tail_ns = {}\n", fmt_span(*tail)));
            }
        }
        if let Some(s) = ctx_switch {
            out.push_str(&format!("ctx_switch_ns = {}\n", fmt_span(*s)));
        }
        if let Some(b) = use_replay_device {
            out.push_str(&format!("use_replay_device = {b}\n"));
        }
        if let Some(n) = dataset_bytes {
            out.push_str(&format!("dataset_bytes = {n}\n"));
        }
        if let Some(n) = swq_ring_capacity {
            out.push_str(&format!("swq_ring_capacity = {n}\n"));
        }

        out.push_str("\n[queue]\n");
        out.push_str(&format!("capacity = {queue_capacity}\n"));
        out.push_str(&format!("dispatch_overhead_ns = {}\n", fmt_span(*dispatch_overhead)));

        out.push_str("\n[slo]\n");
        let SloSpec { p99, p999, max_shed_fraction } = slo;
        if let Some(s) = p99 {
            out.push_str(&format!("p99_ns = {}\n", fmt_span(*s)));
        }
        if let Some(s) = p999 {
            out.push_str(&format!("p999_ns = {}\n", fmt_span(*s)));
        }
        if let Some(x) = max_shed_fraction {
            out.push_str(&format!("max_shed_fraction = {}\n", fmt_f64(*x)));
        }

        out.push_str("\n[admission]\n");
        write_admission(&mut out, admission);

        out.push_str("\n[retry]\n");
        let RetryPolicy { timeout, max_attempts, budget, backoff, hedge_quantile } = retry;
        if let Some(s) = timeout {
            out.push_str(&format!("timeout_ns = {}\n", fmt_span(*s)));
        }
        out.push_str(&format!("max_attempts = {max_attempts}\n"));
        if let Some(b) = budget {
            out.push_str(&format!("budget = {}\n", fmt_f64(*b)));
        }
        out.push_str(&format!("backoff_ns = {}\n", fmt_span(*backoff)));
        if let Some(q) = hedge_quantile {
            out.push_str(&format!("hedge_quantile = {}\n", fmt_f64(*q)));
        }

        out.push_str("\n[faults]\n");
        write_faults(&mut out, faults);

        if *net != NetConfig::default() {
            out.push_str("\n[net]\n");
            let NetConfig {
                enabled,
                nic,
                rx_queues,
                flows,
                request_bytes,
                response_bytes,
                link_gbps,
                proto,
                steer,
                jitter,
            } = net;
            let model = if *enabled { nic.name() } else { "off" };
            out.push_str(&format!("model = \"{model}\"\n"));
            out.push_str(&format!("rx_queues = {rx_queues}\n"));
            out.push_str(&format!("flows = {flows}\n"));
            out.push_str(&format!("request_bytes = {request_bytes}\n"));
            out.push_str(&format!("response_bytes = {response_bytes}\n"));
            out.push_str(&format!("link_gbps = {}\n", fmt_f64(*link_gbps)));
            out.push_str(&format!("proto_ns = {}\n", fmt_span(*proto)));
            out.push_str(&format!("steer_ns = {}\n", fmt_span(*steer)));
            out.push_str(&format!("jitter_ns = {}\n", fmt_span(*jitter)));
            // The design-point knobs carry their own key names, so a
            // disabled (`model = "off"`) section still round-trips the
            // chosen kind: `pipeline_ns`/`per_word_ns` imply nanoPU.
            match nic {
                NicModelKind::Dma(DmaNic { desc_fetch, dma_per_kb, doorbell, coupling }) => {
                    out.push_str(&format!("desc_fetch_ns = {}\n", fmt_span(*desc_fetch)));
                    out.push_str(&format!("dma_per_kb_ns = {}\n", fmt_span(*dma_per_kb)));
                    out.push_str(&format!("doorbell_ns = {}\n", fmt_span(*doorbell)));
                    out.push_str(&format!("coupling = {}\n", fmt_f64(*coupling)));
                }
                NicModelKind::Nano(NanoNic { pipeline, per_word }) => {
                    out.push_str(&format!("pipeline_ns = {}\n", fmt_span(*pipeline)));
                    out.push_str(&format!("per_word_ns = {}\n", fmt_span(*per_word)));
                }
            }
        }

        if *tiers != TierSpec::default() {
            out.push_str("\n[tiers]\n");
            let TierSpec { topology, front_overhead, reply_overhead } = tiers;
            out.push_str(&format!("topology = \"{}\"\n", topology.name()));
            if let TierTopology::FanOut { width } = topology {
                out.push_str(&format!("fanout = {width}\n"));
            }
            out.push_str(&format!("front_overhead_ns = {}\n", fmt_span(*front_overhead)));
            out.push_str(&format!("reply_overhead_ns = {}\n", fmt_span(*reply_overhead)));
        }

        if let Some(ExpectSpec {
            verdict,
            slo_pass,
            knee_at_least,
            critical_tier,
            critical_share_at_least,
        }) = expect
        {
            out.push_str("\n[expect]\n");
            if let Some(v) = verdict {
                out.push_str(&format!("verdict = {}\n", toml_str(v)));
            }
            if let Some(pass) = slo_pass {
                out.push_str(&format!("slo = \"{}\"\n", if *pass { "pass" } else { "fail" }));
            }
            if let Some(k) = knee_at_least {
                out.push_str(&format!("knee_at_least = {}\n", fmt_f64(*k)));
            }
            if let Some(t) = critical_tier {
                out.push_str(&format!("critical_tier = {}\n", toml_str(t)));
            }
            if let Some(s) = critical_share_at_least {
                out.push_str(&format!("critical_share_at_least = {}\n", fmt_f64(*s)));
            }
        }

        if let Some(MatrixSpec { policies, plans, rates, retry_pair }) = matrix {
            out.push_str("\n[matrix]\n");
            let names: Vec<String> = policies
                .iter()
                .map(|p| format!("\"{}\"", policy_string(p)))
                .collect();
            out.push_str(&format!("policies = [{}]\n", names.join(", ")));
            let rates: Vec<String> = rates.iter().map(|r| r.to_string()).collect();
            out.push_str(&format!("rates = [{}]\n", rates.join(", ")));
            out.push_str(&format!("retry_pair = {retry_pair}\n"));
            for (name, plan) in plans {
                out.push_str("\n[[matrix.plans]]\n");
                out.push_str(&format!("name = {}\n", toml_str(name)));
                write_faults(&mut out, plan);
            }
        }
        out
    }
}

/// Formats a float so it re-parses as a float (never as an integer) and
/// round-trips exactly.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() && x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// Serializes a span as fractional nanoseconds (exact for any ps value the
/// simulator can represent).
fn fmt_span(s: Span) -> String {
    fmt_f64(s.as_ns_f64())
}

fn toml_str(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "'"))
}

/// Converts a `_ns` number into a span, rejecting negatives.
fn span_ns(r: &Reader<'_>, field: &str, ns: f64) -> Result<Span, ScenarioError> {
    if !ns.is_finite() || ns < 0.0 {
        return Err(r.field_err(field, format!("{ns} must be a non-negative duration")));
    }
    Ok(Span::from_ns_f64(ns))
}

fn parse_traffic(t: &Table) -> Result<(ArrivalProcess, Option<usize>), ScenarioError> {
    let mut r = Reader::new(t, "traffic");
    let requests = r.u64_opt("requests")?.map(|n| n as usize);
    let kind = r.str_opt("arrival")?.unwrap_or_else(|| "poisson".into());
    let arrival = match kind.as_str() {
        "poisson" => ArrivalProcess::Poisson { rate_rps: r.f64_opt("rate_rps")?.unwrap_or(1.0) },
        "onoff" => {
            let rate_rps = r.f64_opt("rate_rps")?.unwrap_or(1.0);
            let on_ns = r.f64_opt("on_ns")?.unwrap_or(0.0);
            let off_ns = r.f64_opt("off_ns")?.unwrap_or(0.0);
            ArrivalProcess::OnOff {
                rate_rps,
                on: span_ns(&r, "on_ns", on_ns)?,
                off: span_ns(&r, "off_ns", off_ns)?,
            }
        }
        "ramp" => {
            let start_rps = r.f64_opt("start_rps")?.unwrap_or(1.0);
            let end_rps = r.f64_opt("end_rps")?.unwrap_or(start_rps);
            let over_ns = r.f64_opt("over_ns")?.unwrap_or(0.0);
            ArrivalProcess::Ramp { start_rps, end_rps, over: span_ns(&r, "over_ns", over_ns)? }
        }
        "diurnal" => {
            let base_rps = r.f64_opt("base_rps")?.unwrap_or(1.0);
            let amplitude = r.f64_opt("amplitude")?.unwrap_or(0.0);
            let period_ns = r.f64_opt("period_ns")?.unwrap_or(0.0);
            ArrivalProcess::Diurnal {
                base_rps,
                amplitude,
                period: span_ns(&r, "period_ns", period_ns)?,
            }
        }
        "flashcrowd" => {
            let base_rps = r.f64_opt("base_rps")?.unwrap_or(1.0);
            let spike_rps = r.f64_opt("spike_rps")?.unwrap_or(base_rps);
            let at_ns = r.f64_opt("at_ns")?.unwrap_or(0.0);
            let rise_ns = r.f64_opt("rise_ns")?.unwrap_or(0.0);
            let hold_ns = r.f64_opt("hold_ns")?.unwrap_or(0.0);
            let fall_ns = r.f64_opt("fall_ns")?.unwrap_or(0.0);
            ArrivalProcess::FlashCrowd {
                base_rps,
                spike_rps,
                at: span_ns(&r, "at_ns", at_ns)?,
                rise: span_ns(&r, "rise_ns", rise_ns)?,
                hold: span_ns(&r, "hold_ns", hold_ns)?,
                fall: span_ns(&r, "fall_ns", fall_ns)?,
            }
        }
        "bursts" => {
            let base_rps = r.f64_opt("base_rps")?.unwrap_or(1.0);
            let burst_rps = r.f64_opt("burst_rps")?.unwrap_or(base_rps);
            let period_ns = r.f64_opt("period_ns")?.unwrap_or(0.0);
            let burst_len_ns = r.f64_opt("burst_len_ns")?.unwrap_or(0.0);
            ArrivalProcess::Bursts {
                base_rps,
                burst_rps,
                period: span_ns(&r, "period_ns", period_ns)?,
                burst_len: span_ns(&r, "burst_len_ns", burst_len_ns)?,
            }
        }
        "closedloop" => {
            let users = r.u64_opt("users")?.unwrap_or(1) as usize;
            let think_ns = r.f64_opt("think_ns")?.unwrap_or(0.0);
            ArrivalProcess::ClosedLoop { users, think: span_ns(&r, "think_ns", think_ns)? }
        }
        other => {
            return Err(r.field_err(
                "arrival",
                format!(
                    "unknown arrival `{other}` (poisson | onoff | ramp | diurnal | flashcrowd \
                     | bursts | closedloop)"
                ),
            ));
        }
    };
    r.finish()?;
    Ok((arrival, requests))
}

fn parse_keys(t: &Table) -> Result<KeyPopularity, ScenarioError> {
    let mut r = Reader::new(t, "keys");
    let kind = r.str_opt("popularity")?.unwrap_or_else(|| "sequential".into());
    let keys = match kind.as_str() {
        "sequential" => KeyPopularity::Sequential,
        "zipfian" => KeyPopularity::Zipfian { theta: r.f64_opt("theta")?.unwrap_or(0.9) },
        "hotset" => KeyPopularity::HotSet {
            hot_fraction: r.f64_opt("hot_fraction")?.unwrap_or(0.1),
            hot_weight: r.f64_opt("hot_weight")?.unwrap_or(0.9),
        },
        other => {
            return Err(r.field_err(
                "popularity",
                format!("unknown popularity `{other}` (sequential | zipfian | hotset)"),
            ));
        }
    };
    r.finish()?;
    Ok(keys)
}

fn parse_service(t: &Table) -> Result<ServiceSpec, ScenarioError> {
    let mut r = Reader::new(t, "service");
    let kind = r.str_opt("kind")?.unwrap_or_else(|| "echo".into());
    let service = match kind.as_str() {
        "echo" => ServiceSpec::Echo { lines: r.u64_opt("lines")?.unwrap_or(4096) },
        "memcached" => ServiceSpec::Memcached {
            n_items: r.u64_opt("n_items")?.unwrap_or(50_000),
            value_lines: r.u64_opt("value_lines")?.unwrap_or(4),
            work_count: r.u64_opt("work_count")?.unwrap_or(100) as u32,
        },
        "bloom" => ServiceSpec::Bloom {
            n_keys: r.u64_opt("n_keys")?.unwrap_or(100_000),
            k: r.u64_opt("k")?.unwrap_or(4),
            work_count: r.u64_opt("work_count")?.unwrap_or(100) as u32,
        },
        other => {
            return Err(
                r.field_err("kind", format!("unknown service `{other}` (echo | memcached | bloom)"))
            );
        }
    };
    r.finish()?;
    Ok(service)
}

fn parse_platform(t: &Table) -> Result<PlatformSpec, ScenarioError> {
    let mut r = Reader::new(t, "platform");
    let mut p = PlatformSpec::default();
    if let Some(m) = r.str_opt("mechanism")? {
        p.mechanism = Some(match m.as_str() {
            "ondemand" => Mechanism::OnDemand,
            "prefetch" => Mechanism::Prefetch,
            "swq" => Mechanism::SoftwareQueue,
            other => {
                return Err(r.field_err(
                    "mechanism",
                    format!("unknown mechanism `{other}` (ondemand | prefetch | swq)"),
                ));
            }
        });
    }
    p.cores = r.u64_opt("cores")?.map(|n| n as usize);
    p.fibers_per_core = r.u64_opt("fibers_per_core")?.map(|n| n as usize);
    p.smt = r.u64_opt("smt")?.map(|n| n as usize);
    if let Some(ns) = r.f64_opt("device_latency_ns")? {
        p.device_latency = Some(span_ns(&r, "device_latency_ns", ns)?);
    }
    if let Some(ns) = r.f64_opt("device_jitter_ns")? {
        p.device_jitter = Some(span_ns(&r, "device_jitter_ns", ns)?);
    }
    if let Some(m) = r.str_opt("jitter_model")? {
        p.jitter_model = Some(match m.as_str() {
            "uniform" => JitterModel::Uniform,
            "bimodal" => {
                let tail_prob = r.f64_opt("jitter_tail_prob")?.unwrap_or(0.0);
                let tail_ns = r.f64_opt("jitter_tail_ns")?.unwrap_or(0.0);
                JitterModel::Bimodal { tail_prob, tail: span_ns(&r, "jitter_tail_ns", tail_ns)? }
            }
            other => {
                return Err(r.field_err(
                    "jitter_model",
                    format!("unknown jitter model `{other}` (uniform | bimodal)"),
                ));
            }
        });
    }
    if let Some(ns) = r.f64_opt("ctx_switch_ns")? {
        p.ctx_switch = Some(span_ns(&r, "ctx_switch_ns", ns)?);
    }
    p.use_replay_device = r.bool_opt("use_replay_device")?;
    p.dataset_bytes = r.u64_opt("dataset_bytes")?;
    p.swq_ring_capacity = r.u64_opt("swq_ring_capacity")?.map(|n| n as usize);
    r.finish()?;
    Ok(p)
}

fn parse_slo(t: &Table) -> Result<SloSpec, ScenarioError> {
    let mut r = Reader::new(t, "slo");
    let mut slo = SloSpec::none();
    if let Some(ns) = r.f64_opt("p99_ns")? {
        slo = slo.p99(span_ns(&r, "p99_ns", ns)?);
    }
    if let Some(ns) = r.f64_opt("p999_ns")? {
        slo = slo.p999(span_ns(&r, "p999_ns", ns)?);
    }
    if let Some(x) = r.f64_opt("max_shed_fraction")? {
        slo = slo.max_shed_fraction(x);
    }
    r.finish()?;
    Ok(slo)
}

/// Parses an admission policy from a table carrying `policy` plus optional
/// parameters. Parameter defaults match `figures`' historical `--policy`
/// shorthands (deadline: 2 µs target / 5 µs interval; adaptive: 4/16/16).
fn parse_admission(t: &Table, section: &str) -> Result<AdmissionControl, ScenarioError> {
    let mut r = Reader::new(t, section);
    let kind = r.str_opt("policy")?.unwrap_or_else(|| "static".into());
    let policy = match kind.as_str() {
        "static" => AdmissionControl::Static,
        "deadline" => {
            let target_ns = r.f64_opt("target_ns")?.unwrap_or(2_000.0);
            let interval_ns = r.f64_opt("interval_ns")?.unwrap_or(5_000.0);
            AdmissionControl::DeadlineAware {
                target: span_ns(&r, "target_ns", target_ns)?,
                interval: span_ns(&r, "interval_ns", interval_ns)?,
            }
        }
        "adaptive" => AdmissionControl::AdaptiveConcurrency {
            initial: r.u64_opt("initial")?.unwrap_or(4) as usize,
            max: r.u64_opt("max")?.unwrap_or(16) as usize,
            window: r.u64_opt("window")?.unwrap_or(16) as usize,
        },
        other => {
            return Err(r.field_err(
                "policy",
                format!("unknown policy `{other}` (static | deadline | adaptive)"),
            ));
        }
    };
    r.finish()?;
    Ok(policy)
}

/// The string a default-parameter policy serializes to (the shorthand
/// spelling `parse_admission` reads back).
fn policy_string(p: &AdmissionControl) -> String {
    match p {
        AdmissionControl::Static => "static".into(),
        AdmissionControl::DeadlineAware { .. } => "deadline".into(),
        AdmissionControl::AdaptiveConcurrency { .. } => "adaptive".into(),
    }
}

fn write_admission(out: &mut String, p: &AdmissionControl) {
    match *p {
        AdmissionControl::Static => out.push_str("policy = \"static\"\n"),
        AdmissionControl::DeadlineAware { target, interval } => {
            out.push_str("policy = \"deadline\"\n");
            out.push_str(&format!("target_ns = {}\n", fmt_span(target)));
            out.push_str(&format!("interval_ns = {}\n", fmt_span(interval)));
        }
        AdmissionControl::AdaptiveConcurrency { initial, max, window } => {
            out.push_str("policy = \"adaptive\"\n");
            out.push_str(&format!("initial = {initial}\n"));
            out.push_str(&format!("max = {max}\n"));
            out.push_str(&format!("window = {window}\n"));
        }
    }
}

fn parse_retry(t: &Table) -> Result<RetryPolicy, ScenarioError> {
    let mut r = Reader::new(t, "retry");
    let mut policy = RetryPolicy::none();
    if let Some(ns) = r.f64_opt("timeout_ns")? {
        policy.timeout = Some(span_ns(&r, "timeout_ns", ns)?);
    }
    if let Some(n) = r.u64_opt("max_attempts")? {
        policy.max_attempts = n as u32;
    }
    policy.budget = r.f64_opt("budget")?;
    if let Some(ns) = r.f64_opt("backoff_ns")? {
        policy.backoff = span_ns(&r, "backoff_ns", ns)?;
    }
    policy.hedge_quantile = r.f64_opt("hedge_quantile")?;
    r.finish()?;
    Ok(policy)
}

/// Parses a [`FaultPlan`] from a table: the `[faults]` section, and the
/// top level of a plan file ([`parse_plan`](crate::fault::parse_plan)).
/// Also used for `[[matrix.plans]]` entries, where the keys sit next to
/// the plan `name`.
pub(crate) fn parse_faults(t: &Table, section: &str) -> Result<FaultPlan, ScenarioError> {
    let mut r = Reader::new(t, section);
    let plan = parse_faults_fields(&mut r)?;
    r.finish()?;
    Ok(plan)
}

/// Reads the fault-plan keys off an existing reader without finishing it.
fn parse_faults_fields(r: &mut Reader<'_>) -> Result<FaultPlan, ScenarioError> {
    let mut p = FaultPlan::none();
    if let Some(x) = r.f64_opt("latency_spike_prob")? {
        p.latency_spike_prob = x;
    }
    if let Some(ns) = r.f64_opt("latency_spike_ns")? {
        p.latency_spike = span_ns(r, "latency_spike_ns", ns)?;
    }
    if let Some(x) = r.f64_opt("stall_prob")? {
        p.stall_prob = x;
    }
    if let Some(x) = r.f64_opt("drop_completion_prob")? {
        p.drop_completion_prob = x;
    }
    if let Some(x) = r.f64_opt("dup_completion_prob")? {
        p.dup_completion_prob = x;
    }
    if let Some(x) = r.f64_opt("drop_doorbell_prob")? {
        p.drop_doorbell_prob = x;
    }
    if let Some(x) = r.f64_opt("tlp_replay_prob")? {
        p.tlp_replay_prob = x;
    }
    if let Some(x) = r.f64_opt("fiber_crash_prob")? {
        p.fiber_crash_prob = x;
    }
    if let Some(ns) = r.f64_opt("fiber_respawn_ns")? {
        p.fiber_respawn = span_ns(r, "fiber_respawn_ns", ns)?;
    }
    if let Some(x) = r.f64_opt("dispatcher_stall_prob")? {
        p.dispatcher_stall_prob = x;
    }
    if let Some(ns) = r.f64_opt("dispatcher_stall_ns")? {
        p.dispatcher_stall = span_ns(r, "dispatcher_stall_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("freeze_period_ns")? {
        p.freeze_period = span_ns(r, "freeze_period_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("freeze_len_ns")? {
        p.freeze_len = span_ns(r, "freeze_len_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("freeze_stall_ns")? {
        p.freeze_stall = span_ns(r, "freeze_stall_ns", ns)?;
    }
    Ok(p)
}

/// Writes a fault plan's non-default fields with the schema's key names.
/// Exhaustive destructuring keeps this in sync with [`FaultPlan`].
fn write_faults(out: &mut String, p: &FaultPlan) {
    let FaultPlan {
        latency_spike_prob,
        latency_spike,
        stall_prob,
        drop_completion_prob,
        dup_completion_prob,
        drop_doorbell_prob,
        tlp_replay_prob,
        fiber_crash_prob,
        fiber_respawn,
        dispatcher_stall_prob,
        dispatcher_stall,
        freeze_period,
        freeze_len,
        freeze_stall,
    } = *p;
    let probs = [
        ("latency_spike_prob", latency_spike_prob),
        ("stall_prob", stall_prob),
        ("drop_completion_prob", drop_completion_prob),
        ("dup_completion_prob", dup_completion_prob),
        ("drop_doorbell_prob", drop_doorbell_prob),
        ("tlp_replay_prob", tlp_replay_prob),
        ("fiber_crash_prob", fiber_crash_prob),
        ("dispatcher_stall_prob", dispatcher_stall_prob),
    ];
    for (key, x) in probs {
        if x != 0.0 {
            out.push_str(&format!("{key} = {}\n", fmt_f64(x)));
        }
    }
    let spans = [
        ("latency_spike_ns", latency_spike),
        ("fiber_respawn_ns", fiber_respawn),
        ("dispatcher_stall_ns", dispatcher_stall),
        ("freeze_period_ns", freeze_period),
        ("freeze_len_ns", freeze_len),
        ("freeze_stall_ns", freeze_stall),
    ];
    for (key, s) in spans {
        if !s.is_zero() {
            out.push_str(&format!("{key} = {}\n", fmt_span(s)));
        }
    }
}

fn parse_net(t: &Table) -> Result<NetConfig, ScenarioError> {
    let mut r = Reader::new(t, "net");
    let mut net = NetConfig::default();
    let model = r.str_opt("model")?.unwrap_or_else(|| "off".into());
    if let Some(n) = r.u64_opt("rx_queues")? {
        net.rx_queues = n as u32;
    }
    if let Some(n) = r.u64_opt("flows")? {
        net.flows = n as u32;
    }
    if let Some(n) = r.u64_opt("request_bytes")? {
        net.request_bytes = n;
    }
    if let Some(n) = r.u64_opt("response_bytes")? {
        net.response_bytes = n;
    }
    if let Some(x) = r.f64_opt("link_gbps")? {
        net.link_gbps = x;
    }
    if let Some(ns) = r.f64_opt("proto_ns")? {
        net.proto = span_ns(&r, "proto_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("steer_ns")? {
        net.steer = span_ns(&r, "steer_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("jitter_ns")? {
        net.jitter = span_ns(&r, "jitter_ns", ns)?;
    }
    // Design-point knobs; which set appears also infers the kind for a
    // `model = "off"` section, so disabled worlds still round-trip.
    let mut dma = DmaNic::default();
    if let Some(ns) = r.f64_opt("desc_fetch_ns")? {
        dma.desc_fetch = span_ns(&r, "desc_fetch_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("dma_per_kb_ns")? {
        dma.dma_per_kb = span_ns(&r, "dma_per_kb_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("doorbell_ns")? {
        dma.doorbell = span_ns(&r, "doorbell_ns", ns)?;
    }
    if let Some(x) = r.f64_opt("coupling")? {
        dma.coupling = x;
    }
    let mut nano = NanoNic::default();
    let mut nano_knobs = false;
    if let Some(ns) = r.f64_opt("pipeline_ns")? {
        nano.pipeline = span_ns(&r, "pipeline_ns", ns)?;
        nano_knobs = true;
    }
    if let Some(ns) = r.f64_opt("per_word_ns")? {
        nano.per_word = span_ns(&r, "per_word_ns", ns)?;
        nano_knobs = true;
    }
    match model.as_str() {
        "off" => {
            net.enabled = false;
            net.nic = if nano_knobs { NicModelKind::Nano(nano) } else { NicModelKind::Dma(dma) };
        }
        "dma" => {
            net.enabled = true;
            net.nic = NicModelKind::Dma(dma);
        }
        "nanopu" => {
            net.enabled = true;
            net.nic = NicModelKind::Nano(nano);
        }
        other => {
            return Err(r.field_err("model", format!("unknown model '{other}' (off | dma | nanopu)")))
        }
    }
    r.finish()?;
    Ok(net)
}

fn parse_tiers(t: &Table) -> Result<TierSpec, ScenarioError> {
    let mut r = Reader::new(t, "tiers");
    let mut tiers = TierSpec::default();
    let topology = r.str_opt("topology")?.unwrap_or_else(|| "direct".into());
    let fanout = r.u64_opt("fanout")?;
    tiers.topology = match topology.as_str() {
        "direct" => TierTopology::Direct,
        "rpc" => TierTopology::Rpc,
        "fanout" => TierTopology::FanOut { width: fanout.unwrap_or(4) as u32 },
        other => {
            return Err(
                r.field_err("topology", format!("unknown topology '{other}' (direct | rpc | fanout)"))
            )
        }
    };
    if fanout.is_some() && !matches!(tiers.topology, TierTopology::FanOut { .. }) {
        return Err(r.field_err("fanout", "fanout width only applies to topology = \"fanout\""));
    }
    if let Some(ns) = r.f64_opt("front_overhead_ns")? {
        tiers.front_overhead = span_ns(&r, "front_overhead_ns", ns)?;
    }
    if let Some(ns) = r.f64_opt("reply_overhead_ns")? {
        tiers.reply_overhead = span_ns(&r, "reply_overhead_ns", ns)?;
    }
    r.finish()?;
    Ok(tiers)
}

fn parse_expect(t: &Table) -> Result<ExpectSpec, ScenarioError> {
    let mut r = Reader::new(t, "expect");
    let mut expect = ExpectSpec { verdict: r.str_opt("verdict")?, ..ExpectSpec::default() };
    if let Some(s) = r.str_opt("slo")? {
        expect.slo_pass = match s.as_str() {
            "pass" => Some(true),
            "fail" => Some(false),
            other => {
                return Err(r.field_err("slo", format!("unknown slo outcome '{other}' (pass | fail)")))
            }
        };
    }
    expect.knee_at_least = r.rate_opt("knee_at_least")?;
    expect.critical_tier = r.str_opt("critical_tier")?;
    expect.critical_share_at_least = r.f64_opt("critical_share_at_least")?;
    r.finish()?;
    Ok(expect)
}

fn parse_matrix(t: &Table) -> Result<MatrixSpec, ScenarioError> {
    let mut r = Reader::new(t, "matrix");
    let mut m = MatrixSpec::default();
    if let Some(names) = r.str_array_opt("policies")? {
        let mut policies = Vec::with_capacity(names.len());
        for name in &names {
            policies.push(match name.as_str() {
                "static" => AdmissionControl::Static,
                "deadline" => AdmissionControl::DeadlineAware {
                    target: Span::from_us(2),
                    interval: Span::from_us(5),
                },
                "adaptive" => {
                    AdmissionControl::AdaptiveConcurrency { initial: 4, max: 16, window: 16 }
                }
                other => {
                    return Err(r.field_err(
                        "policies",
                        format!("unknown policy `{other}` (static | deadline | adaptive)"),
                    ));
                }
            });
        }
        m.policies = policies;
    }
    if let Some(rates) = r.u64_array_opt("rates")? {
        m.rates = rates;
    }
    if let Some(b) = r.bool_opt("retry_pair")? {
        m.retry_pair = b;
    }
    if let Some(tables) = r.tables_opt("plans")? {
        let mut plans = Vec::with_capacity(tables.len());
        for (i, pt) in tables.iter().enumerate() {
            let section = format!("matrix.plans[{i}]");
            let mut pr = Reader::new(pt, section.clone());
            let Some(name) = pr.str_opt("name")? else {
                return Err(ScenarioError::msg(format!("`{section}` needs a `name`")));
            };
            let plan = parse_faults_fields(&mut pr)?;
            pr.finish()?;
            plans.push((name, plan));
        }
        m.plans = plans;
    }
    r.finish()?;
    Ok(m)
}
