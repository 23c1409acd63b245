//! [`Scenario`]: the compiled, immutable form of a [`ScenarioSpec`].
//!
//! Compilation is where every facet is validated — arrivals, key skew,
//! service sizing, queueing, admission, retry, faults, the platform — with
//! section-attributed diagnostics, and where the spec is frozen into the
//! exact [`LoadSpec`] + [`PlatformConfig`] pair the runners consume. A
//! compiled scenario carries a deterministic fingerprint (FNV-1a, the same
//! construction as [`Experiment::fingerprint`]) so equal worlds are
//! recognizably equal regardless of whether they came from TOML or the
//! builder API.

use kus_core::prelude::{ConfigError, Experiment, PlatformConfig};
use kus_load::{load_experiment, service_factory, EchoService, LoadSpec, ServiceFactory};
use kus_sim::{fnv1a, FNV_OFFSET};
use kus_workloads::{BloomConfig, BloomService, MemcachedConfig, MemcachedService};

use crate::error::ScenarioError;
use crate::spec::{MatrixSpec, ScenarioSpec, ServiceSpec};

/// A validated, frozen scenario: the spec it came from plus the compiled
/// load spec, platform config, and identity fingerprint.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
    load: LoadSpec,
    cfg: PlatformConfig,
    fingerprint: u64,
}

/// Attributes a facet's `Result<(), String>` validation to a section.
fn facet(section: &'static str, r: Result<(), String>) -> Result<(), ScenarioError> {
    r.map_err(|message| ScenarioError { section: section.into(), field: None, line: None, message })
}

impl Scenario {
    /// Validates and freezes `spec`. Every error names the schema section
    /// it belongs to; nothing panics on bad input.
    pub fn compile(spec: ScenarioSpec) -> Result<Scenario, ScenarioError> {
        if spec.name.is_empty() {
            return Err(ScenarioError::msg("scenario name must not be empty"));
        }
        facet("traffic", spec.arrival.validate())?;
        if spec.requests == 0 {
            return Err(ScenarioError {
                section: "traffic".into(),
                field: Some("requests".into()),
                line: None,
                message: "at least one request is required".into(),
            });
        }
        facet("keys", spec.keys.validate())?;
        let (sized_field, size) = match spec.service {
            ServiceSpec::Echo { lines } => ("lines", lines),
            ServiceSpec::Memcached { n_items, .. } => ("n_items", n_items),
            ServiceSpec::Bloom { n_keys, .. } => ("n_keys", n_keys),
        };
        if size == 0 {
            return Err(ScenarioError {
                section: "service".into(),
                field: Some(sized_field.into()),
                line: None,
                message: "the service needs at least one key".into(),
            });
        }
        if spec.queue_capacity == 0 {
            return Err(ScenarioError {
                section: "queue".into(),
                field: Some("capacity".into()),
                line: None,
                message: "queue capacity must be at least 1".into(),
            });
        }
        facet("admission", spec.admission.validate())?;
        facet("retry", spec.retry.validate())?;
        facet("faults", spec.faults.validate())?;
        facet("net", spec.net.validate())?;
        facet("tiers", spec.tiers.validate())?;
        if spec.net.enabled && !spec.arrival.is_open_loop() {
            return Err(ScenarioError {
                section: "net".into(),
                field: Some("model".into()),
                line: None,
                message: "the NIC front end needs open-loop wire arrivals".into(),
            });
        }
        if let Some(e) = &spec.expect {
            facet("expect", e.validate())?;
            if spec.matrix.is_some() {
                return Err(ScenarioError {
                    section: "expect".into(),
                    field: None,
                    line: None,
                    message: "[expect] judges the single-cell run; it cannot be combined \
                         with a [matrix] section"
                        .into(),
                });
            }
        }
        if let Some(m) = &spec.matrix {
            for (i, p) in m.policies.iter().enumerate() {
                facet("matrix", p.validate()).map_err(|mut e| {
                    e.field = Some(format!("policies[{i}]"));
                    e
                })?;
            }
            for (i, (name, plan)) in m.plans.iter().enumerate() {
                if name.is_empty() {
                    return Err(ScenarioError {
                        section: format!("matrix.plans[{i}]"),
                        field: Some("name".into()),
                        line: None,
                        message: "plan name must not be empty".into(),
                    });
                }
                facet("matrix", plan.validate()).map_err(|mut e| {
                    e.section = format!("matrix.plans[{i}]");
                    e
                })?;
            }
            if m.policies.is_empty() || m.plans.is_empty() || m.rates.is_empty() {
                return Err(ScenarioError {
                    section: "matrix".into(),
                    field: None,
                    line: None,
                    message: "matrix axes must all be non-empty".into(),
                });
            }
        }

        let mut cfg = PlatformConfig::paper_default();
        let p = &spec.platform;
        if let Some(m) = p.mechanism {
            cfg = cfg.mechanism(m);
        }
        if let Some(n) = p.cores {
            cfg = cfg.cores(n);
        }
        if let Some(n) = p.fibers_per_core {
            cfg = cfg.fibers_per_core(n);
        }
        if let Some(n) = p.smt {
            cfg = cfg.smt(n);
        }
        if let Some(s) = p.device_latency {
            cfg = cfg.device_latency(s);
        }
        if let Some(s) = p.device_jitter {
            cfg = cfg.device_jitter(s);
        }
        if let Some(m) = p.jitter_model {
            cfg = cfg.device_jitter_model(m);
        }
        if let Some(s) = p.ctx_switch {
            cfg = cfg.ctx_switch(s);
        }
        if let Some(b) = p.use_replay_device {
            cfg = cfg.use_replay_device(b);
        }
        if let Some(n) = p.dataset_bytes {
            cfg = cfg.dataset_bytes(n);
        }
        if let Some(n) = p.swq_ring_capacity {
            cfg = cfg.swq_ring_capacity(n);
        }
        if let Some(seed) = spec.seed {
            cfg = cfg.seed(seed);
        }
        // Blame-bearing claims need the causal event class: the fan-out
        // join can only resolve to a critical child when the per-child
        // `rpc.hop` spans exist in the trace.
        if spec.expect.as_ref().is_some_and(|e| e.wants_blame()) {
            cfg = cfg.causal();
        }
        cfg.validate().map_err(|e: ConfigError| ScenarioError {
            section: "platform".into(),
            field: None,
            line: None,
            message: e.to_string(),
        })?;

        let load = LoadSpec {
            arrival: spec.arrival,
            requests: spec.requests,
            queue_capacity: spec.queue_capacity,
            dispatch_overhead: spec.dispatch_overhead,
            slo: spec.slo,
            admission: spec.admission,
            retry: spec.retry,
            faults: spec.faults,
            net: spec.net,
            tiers: spec.tiers,
        };

        let fingerprint = fingerprint_of(&spec, &cfg, &load);
        Ok(Scenario { spec, load, cfg, fingerprint })
    }

    /// Parses and compiles TOML text in one step.
    pub fn from_toml(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::compile(ScenarioSpec::parse(text)?)
    }

    /// The scenario's name (labels cells and artifacts).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The spec this scenario was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The compiled load spec (`run_cells`/`figures` consume this).
    pub fn load(&self) -> LoadSpec {
        self.load
    }

    /// The compiled platform configuration.
    pub fn cfg(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The overload matrix, when the scenario carries one.
    pub fn matrix(&self) -> Option<&MatrixSpec> {
        self.spec.matrix.as_ref()
    }

    /// The outcome expectations, when the scenario carries any.
    pub fn expect(&self) -> Option<&crate::spec::ExpectSpec> {
        self.spec.expect.as_ref()
    }

    /// The deterministic identity fingerprint: FNV-1a over the name and
    /// the canonical (`Debug`) renderings of the spec, platform, and load
    /// spec. Equal fingerprints mean byte-identical worlds.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The service's short name (`echo` / `memcached` / `bloom`).
    pub fn service_name(&self) -> &'static str {
        self.spec.service.name()
    }

    /// A factory for the compiled service, with the scenario's key
    /// popularity injected.
    pub fn service(&self) -> ServiceFactory {
        let keys = self.spec.keys;
        match self.spec.service {
            ServiceSpec::Echo { lines } => {
                service_factory(move || EchoService::new(lines).popularity(keys))
            }
            ServiceSpec::Memcached { n_items, value_lines, work_count } => {
                MemcachedService::factory(MemcachedConfig {
                    n_items,
                    value_lines,
                    work_count,
                    popularity: keys,
                    ..MemcachedConfig::default()
                })
            }
            ServiceSpec::Bloom { n_keys, k, work_count } => BloomService::factory(BloomConfig {
                n_keys,
                k,
                work_count,
                popularity: keys,
                ..BloomConfig::default()
            }),
        }
    }

    /// A single-cell serving experiment for this scenario (matrix
    /// scenarios also run standalone with their base fault plan).
    pub fn experiment(&self) -> Result<Experiment, ScenarioError> {
        load_experiment(self.spec.name.clone(), self.load, self.cfg.clone(), self.service())
            .map_err(|e| ScenarioError {
                section: String::new(),
                field: None,
                line: None,
                message: e.to_string(),
            })
    }
}

impl ScenarioSpec {
    /// Compiles this spec — shorthand for [`Scenario::compile`].
    pub fn compile(self) -> Result<Scenario, ScenarioError> {
        Scenario::compile(self)
    }
}

fn fingerprint_of(spec: &ScenarioSpec, cfg: &PlatformConfig, load: &LoadSpec) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, spec.name.as_bytes());
    for part in [format!("{spec:?}"), format!("{cfg:?}"), format!("{load:?}")] {
        h = fnv1a(fnv1a(h, &[0xff]), part.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use kus_core::prelude::Mechanism;
    use kus_load::{ArrivalProcess, KeyPopularity};

    use super::*;
    use crate::spec::PlatformSpec;

    fn calm() -> ScenarioSpec {
        ScenarioSpec::new("calm", ArrivalProcess::Poisson { rate_rps: 1.0 })
    }

    #[test]
    fn empty_scenario_compiles_to_todays_defaults() {
        let sc = calm().compile().expect("compiles");
        let reference = LoadSpec::new(ArrivalProcess::Poisson { rate_rps: 1.0 });
        assert_eq!(format!("{:?}", sc.load()), format!("{reference:?}"));
        assert_eq!(
            format!("{:?}", sc.cfg()),
            format!("{:?}", PlatformConfig::paper_default()),
            "an empty platform section must not drift from the paper default"
        );
    }

    #[test]
    fn errors_name_their_section() {
        let e = calm().requests(0).compile().unwrap_err();
        assert_eq!(e.section, "traffic");
        let e = calm().keys(KeyPopularity::Zipfian { theta: 1.5 }).compile().unwrap_err();
        assert_eq!(e.section, "keys");
        let e = calm().queue_capacity(0).compile().unwrap_err();
        assert_eq!(e.section, "queue");
        let mut bad = calm();
        bad.platform = PlatformSpec { cores: Some(0), ..PlatformSpec::default() };
        let e = bad.compile().unwrap_err();
        assert_eq!(e.section, "platform");
    }

    #[test]
    fn fingerprints_separate_distinct_worlds_and_agree_across_sources() {
        let a = calm().compile().expect("compiles");
        let b = calm().compile().expect("compiles");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut swq = calm();
        swq.platform.mechanism = Some(Mechanism::SoftwareQueue);
        let c = swq.compile().expect("compiles");
        assert_ne!(a.fingerprint(), c.fingerprint());
        let via_toml = Scenario::from_toml(&a.spec().to_toml()).expect("round-trips");
        assert_eq!(a.fingerprint(), via_toml.fingerprint());
    }

    #[test]
    fn matrix_validation_catches_bad_plans() {
        let mut spec = calm();
        let mut m = crate::spec::MatrixSpec::default();
        m.rates.clear();
        spec = spec.matrix(m);
        let e = spec.compile().unwrap_err();
        assert_eq!(e.section, "matrix");
    }

    #[test]
    fn experiments_build_for_every_service() {
        for service in [
            ServiceSpec::Echo { lines: 64 },
            ServiceSpec::Memcached { n_items: 128, value_lines: 2, work_count: 10 },
            ServiceSpec::Bloom { n_keys: 128, k: 2, work_count: 10 },
        ] {
            let sc = calm().service(service).requests(8).compile().expect("compiles");
            sc.experiment().expect("experiment builds");
        }
    }
}
