//! Platform configuration: every knob the paper's evaluation turns.

use kus_cpu::CoreConfig;
use kus_device::{JitterModel, ReplayConfig, StreamerConfig};
use kus_mem::station::StationConfig;
use kus_mem::uncore::CreditQueue;
use kus_mem::Backing;
use kus_pcie::link::LinkConfig;
use kus_sim::{FaultPlan, Span};
use kus_swq::SwqCosts;

use crate::mechanism::Mechanism;

/// Why a [`PlatformConfig`] is not runnable.
///
/// Produced by [`PlatformConfig::validate`]; the builder setters never
/// panic — they record whatever they are given and the error surfaces when
/// the configuration is assembled into a [`Platform`](crate::Platform) or
/// [`Experiment`](crate::Experiment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A count field that must be non-zero was zero (the field is named).
    Zero(&'static str),
    /// A core field is outside what the core model takes: a ROB above
    /// [`CoreConfig::MAX_ROB_SLOTS`], or a work IPC that is not positive
    /// and finite (the field is named).
    OutOfRange(&'static str),
    /// A software-queue run with a DRAM-backed dataset: software-managed
    /// queues address the device, not DRAM.
    SwqNeedsDevice,
    /// The fault plan failed [`FaultPlan::validate`].
    Fault(String),
    /// SWQ recovery is enabled with a zero timeout or scan interval, which
    /// would busy-loop the expiry scan (the offending field is named).
    Recovery(&'static str),
    /// The device jitter model failed [`kus_device::JitterModel::validate`].
    Jitter(String),
    /// A serving spec (arrivals, queue, admission, retry, net front end or
    /// tier chain) failed validation.
    Serving(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(field) => write!(f, "`{field}` must be non-zero"),
            ConfigError::OutOfRange(field) => write!(f, "`{field}` is out of range"),
            ConfigError::SwqNeedsDevice => {
                write!(f, "software-managed queues address the device, not DRAM")
            }
            ConfigError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::Recovery(field) => {
                write!(f, "swq_recovery is enabled but `{field}` is zero")
            }
            ConfigError::Jitter(e) => write!(f, "invalid device jitter model: {e}"),
            ConfigError::Serving(e) => write!(f, "invalid serving spec: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of one experiment run.
///
/// Defaults reproduce the paper's testbed: a Xeon E5-2670v3 host, PCIe Gen2
/// x8, 10 LFBs/core, a 14-entry chip-level device-path queue, ≥48-entry DRAM
/// path, 35 ns context switches, and a 1 µs device.
///
/// # Examples
///
/// ```
/// use kus_core::config::PlatformConfig;
/// use kus_core::mechanism::Mechanism;
/// use kus_sim::Span;
///
/// let cfg = PlatformConfig::paper_default()
///     .mechanism(Mechanism::Prefetch)
///     .device_latency(Span::from_us(2))
///     .cores(4)
///     .fibers_per_core(8);
/// assert_eq!(cfg.cores, 4);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The access mechanism under test.
    pub mechanism: Mechanism,
    /// Where the dataset lives ([`Backing::Dram`] is the baseline).
    pub backing: Backing,
    /// Host-observed device latency (inclusive of interconnect round trip,
    /// as configured on the paper's emulator).
    pub device_latency: Span,
    /// Number of host cores running workload fibers.
    pub cores: usize,
    /// User-level threads per core.
    pub fibers_per_core: usize,
    /// Hardware (SMT) contexts per core. Siblings halve the ROB and
    /// frontend width and share the LFB pool — the §III observation that
    /// SMT lets a core progress in one context while another blocks on a
    /// long access. The paper's measurements disable SMT (default 1).
    pub smt: usize,
    /// Core micro-architecture.
    pub core: CoreConfig,
    /// User-mode context-switch cost (the paper's optimized library:
    /// 20–50 ns; the unmodified Pth library: ~2 µs).
    pub ctx_switch: Span,
    /// Chip-level shared queue capacity on the device path.
    pub device_path_credits: usize,
    /// Chip-level shared queue capacity on the DRAM path.
    pub dram_path_credits: usize,
    /// The PCIe link.
    pub link: LinkConfig,
    /// Host DRAM channel.
    pub host_dram: StationConfig,
    /// Software-queue host costs.
    pub swq: SwqCosts,
    /// Software-queue request-ring capacity per core.
    pub swq_ring_capacity: usize,
    /// Ablation: ring the doorbell on every enqueue (no doorbell-request
    /// flag). The paper found such designs strictly inferior.
    pub swq_doorbell_every_enqueue: bool,
    /// Descriptor fetch-burst size (8 in the optimized design; 1 disables
    /// burst amortization for the ablation).
    pub swq_fetch_burst: usize,
    /// Mean-preserving uniform jitter on the device's response time (zero =
    /// the paper's fixed-delay emulator).
    pub device_jitter: Span,
    /// Shape of the device jitter distribution
    /// ([`JitterModel::Uniform`] reproduces the historical behaviour
    /// bit-for-bit; `Bimodal` adds a rare heavy tail).
    pub device_jitter_model: JitterModel,
    /// Device replay-window behaviour.
    pub replay: ReplayConfig,
    /// Device streamer behaviour.
    pub streamer: StreamerConfig,
    /// Device on-board DRAM channels.
    pub onboard: StationConfig,
    /// Run the full two-phase record/replay discipline (true, the paper's
    /// methodology) or a single phase against an idealized device (false;
    /// faster, for smoke tests).
    pub use_replay_device: bool,
    /// Dataset address-space capacity in bytes.
    pub dataset_bytes: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Deterministic fault injection. The default ([`FaultPlan::none`]) is
    /// inert: no fault stream is ever consulted, so paper-figure runs are
    /// bit-for-bit identical to a build without the fault layer.
    pub faults: FaultPlan,
    /// Host-side timeout/retry/degradation behaviour for the SWQ access
    /// path. Disabled by default; [`PlatformConfig::faults`] auto-enables a
    /// sensible configuration when an active plan is set.
    pub swq_recovery: SwqRecovery,
    /// Record a structured event trace of the measured phase. Off by
    /// default: a disabled tracer is a single branch per emit site and the
    /// run report is bit-identical either way (the tracer observes, never
    /// schedules).
    pub trace: bool,
    /// Also emit the deep per-access event class (`load.issue`, `l1.read`,
    /// `dev_read.batch`): implies tracing. Like the other optional classes,
    /// it extends the stream and its hash but never changes the outcome.
    pub trace_deep: bool,
    /// Run the cycle-accounting profiler over the measured phase: implies
    /// tracing, additionally emits the accounting event class (`cpu.*`,
    /// `lfb.wait`, `credit.occ`, …), and attaches a
    /// [`ProfileReport`](kus_profile::ProfileReport) to the run report.
    /// Like the tracer, the profiler observes and never schedules: the run
    /// outcome is bit-identical with it on or off.
    pub profile: bool,
    /// Run the causal tracing layer over the measured phase: implies
    /// tracing, additionally emits the causal event class (per-child
    /// fan-out completion spans, `rpc.tx` egress spans) from which each
    /// request's span DAG and exact critical path are reconstructed at
    /// harvest. Like the tracer, the causal layer observes and never
    /// schedules: the run outcome is bit-identical with it on or off.
    pub causal: bool,
}

/// Timeout, retry, and degradation knobs for the SWQ access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwqRecovery {
    /// Master switch. When off, requests wait forever (the seed behaviour).
    pub enabled: bool,
    /// Base per-request deadline; retry `k` waits `timeout << k` before the
    /// next attempt (exponential backoff).
    pub timeout: Span,
    /// How often the executor scans outstanding requests for expiry. The
    /// scan only runs while requests are outstanding, so an idle queue
    /// schedules nothing.
    pub check_interval: Span,
    /// Re-enqueue attempts before a request is reported failed.
    pub max_retries: u32,
    /// Stall-free time before the watchdog restores doorbell-request mode.
    pub quiet_period: Span,
}

impl SwqRecovery {
    /// Recovery off: the seed's wait-forever behaviour.
    pub fn disabled() -> SwqRecovery {
        SwqRecovery {
            enabled: false,
            timeout: Span::ZERO,
            check_interval: Span::ZERO,
            max_retries: 0,
            quiet_period: Span::ZERO,
        }
    }

    /// A recovery configuration scaled to the device latency: deadlines far
    /// beyond any legitimate queueing delay (16×), frequent-enough expiry
    /// scans (4×), a handful of retries, and a long quiet period (64×)
    /// before trusting the doorbell-request flag again.
    pub fn for_device_latency(latency: Span) -> SwqRecovery {
        SwqRecovery {
            enabled: true,
            timeout: latency * 16,
            check_interval: latency * 4,
            max_retries: 4,
            quiet_period: latency * 64,
        }
    }
}

impl Default for SwqRecovery {
    fn default() -> SwqRecovery {
        SwqRecovery::disabled()
    }
}

impl PlatformConfig {
    /// The paper's testbed defaults (1 µs device, prefetch mechanism,
    /// single core, one fiber).
    pub fn paper_default() -> PlatformConfig {
        PlatformConfig {
            mechanism: Mechanism::Prefetch,
            backing: Backing::Device,
            device_latency: Span::from_us(1),
            cores: 1,
            fibers_per_core: 1,
            smt: 1,
            core: CoreConfig::xeon_e5_2670v3(),
            ctx_switch: Span::from_ns(35),
            device_path_credits: CreditQueue::XEON_DEVICE_PATH,
            dram_path_credits: CreditQueue::XEON_DRAM_PATH,
            link: LinkConfig::gen2_x8(),
            host_dram: StationConfig::host_dram(),
            swq: SwqCosts::optimized(),
            swq_ring_capacity: 256,
            swq_doorbell_every_enqueue: false,
            swq_fetch_burst: kus_swq::FETCH_BURST,
            device_jitter: Span::ZERO,
            device_jitter_model: JitterModel::Uniform,
            replay: ReplayConfig::default(),
            streamer: StreamerConfig::default(),
            onboard: StationConfig::onboard_ddr3(),
            use_replay_device: true,
            dataset_bytes: 256 << 20,
            seed: 0xC0FFEE,
            faults: FaultPlan::none(),
            swq_recovery: SwqRecovery::disabled(),
            trace: false,
            trace_deep: false,
            profile: false,
            causal: false,
        }
    }

    /// Checks that this configuration is runnable.
    ///
    /// The builder setters never reject their input; every structural error
    /// is collected here instead, so a sweep can construct arbitrary
    /// configuration matrices and report the broken cells rather than
    /// panicking mid-expansion.
    /// [`Platform::try_new`](crate::Platform::try_new) and
    /// [`Experiment`](crate::Experiment) surface the error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::Zero("cores"));
        }
        if self.fibers_per_core == 0 {
            return Err(ConfigError::Zero("fibers_per_core"));
        }
        if self.smt == 0 {
            return Err(ConfigError::Zero("smt"));
        }
        if self.core.lfb_count == 0 {
            return Err(ConfigError::Zero("core.lfb_count"));
        }
        if self.core.rob_slots == 0 {
            return Err(ConfigError::Zero("core.rob_slots"));
        }
        if self.core.rob_slots > CoreConfig::MAX_ROB_SLOTS {
            return Err(ConfigError::OutOfRange("core.rob_slots"));
        }
        if self.core.dispatch_width == 0 {
            return Err(ConfigError::Zero("core.dispatch_width"));
        }
        if !(self.core.work_ipc.is_finite() && self.core.work_ipc > 0.0) {
            return Err(ConfigError::OutOfRange("core.work_ipc"));
        }
        if self.device_path_credits == 0 {
            return Err(ConfigError::Zero("device_path_credits"));
        }
        if self.dram_path_credits == 0 {
            return Err(ConfigError::Zero("dram_path_credits"));
        }
        if self.dataset_bytes == 0 {
            return Err(ConfigError::Zero("dataset_bytes"));
        }
        if self.mechanism == Mechanism::SoftwareQueue {
            if self.backing == Backing::Dram {
                return Err(ConfigError::SwqNeedsDevice);
            }
            if self.swq_ring_capacity == 0 {
                return Err(ConfigError::Zero("swq_ring_capacity"));
            }
            if self.swq_fetch_burst == 0 {
                return Err(ConfigError::Zero("swq_fetch_burst"));
            }
        }
        self.device_jitter_model.validate().map_err(ConfigError::Jitter)?;
        self.faults.validate().map_err(ConfigError::Fault)?;
        if self.swq_recovery.enabled {
            if self.swq_recovery.timeout.is_zero() {
                return Err(ConfigError::Recovery("timeout"));
            }
            if self.swq_recovery.check_interval.is_zero() {
                return Err(ConfigError::Recovery("check_interval"));
            }
        }
        Ok(())
    }

    /// Sets the access mechanism.
    pub fn mechanism(mut self, m: Mechanism) -> Self {
        self.mechanism = m;
        self
    }

    /// Sets the dataset backing.
    pub fn backing(mut self, b: Backing) -> Self {
        self.backing = b;
        self
    }

    /// Sets the host-observed device latency.
    pub fn device_latency(mut self, l: Span) -> Self {
        self.device_latency = l;
        self
    }

    /// Sets the core count (zero is rejected by [`PlatformConfig::validate`]).
    pub fn cores(mut self, n: usize) -> Self {
        self.cores = n;
        self
    }

    /// Sets the user-level thread count per core (zero is rejected by
    /// [`PlatformConfig::validate`]).
    pub fn fibers_per_core(mut self, n: usize) -> Self {
        self.fibers_per_core = n;
        self
    }

    /// Sets the SMT context count per core (1 or 2 on the reproduced host;
    /// zero is rejected by [`PlatformConfig::validate`]).
    pub fn smt(mut self, n: usize) -> Self {
        self.smt = n;
        self
    }

    /// Sets the full core micro-architecture configuration.
    pub fn core(mut self, c: CoreConfig) -> Self {
        self.core = c;
        self
    }

    /// Sets the per-core LFB count (the paper's 10-LFB wall; raise it for
    /// the "fix the hardware" ablation).
    pub fn lfbs(mut self, n: usize) -> Self {
        self.core.lfb_count = n;
        self
    }

    /// Sets the chip-level device-path queue capacity (the paper's 14-entry
    /// wall; raise it for the multicore ablation).
    pub fn device_path_credits(mut self, n: usize) -> Self {
        self.device_path_credits = n;
        self
    }

    /// Sets the chip-level DRAM-path queue capacity.
    pub fn dram_path_credits(mut self, n: usize) -> Self {
        self.dram_path_credits = n;
        self
    }

    /// Sets the context-switch cost.
    pub fn ctx_switch(mut self, s: Span) -> Self {
        self.ctx_switch = s;
        self
    }

    /// Sets the PCIe link configuration.
    pub fn link(mut self, l: LinkConfig) -> Self {
        self.link = l;
        self
    }

    /// Sets the host DRAM channel configuration.
    pub fn host_dram(mut self, s: StationConfig) -> Self {
        self.host_dram = s;
        self
    }

    /// Sets the software-queue host-cost model.
    pub fn swq_costs(mut self, c: SwqCosts) -> Self {
        self.swq = c;
        self
    }

    /// Sets the software-queue request-ring capacity per core.
    pub fn swq_ring_capacity(mut self, n: usize) -> Self {
        self.swq_ring_capacity = n;
        self
    }

    /// Sets the descriptor fetch-burst size (1 disables burst amortization).
    pub fn swq_fetch_burst(mut self, n: usize) -> Self {
        self.swq_fetch_burst = n;
        self
    }

    /// Ablation: ring the doorbell on every enqueue (no doorbell-request
    /// flag).
    pub fn swq_doorbell_every_enqueue(mut self, always: bool) -> Self {
        self.swq_doorbell_every_enqueue = always;
        self
    }

    /// Sets the device's response-time jitter spread.
    pub fn device_jitter(mut self, j: Span) -> Self {
        self.device_jitter = j;
        self
    }

    /// Sets the shape of the device jitter distribution.
    pub fn device_jitter_model(mut self, m: JitterModel) -> Self {
        self.device_jitter_model = m;
        self
    }

    /// Sets the device replay-window behaviour.
    pub fn replay(mut self, r: ReplayConfig) -> Self {
        self.replay = r;
        self
    }

    /// Sets the device streamer behaviour.
    pub fn streamer(mut self, s: StreamerConfig) -> Self {
        self.streamer = s;
        self
    }

    /// Sets the device on-board DRAM channel configuration.
    pub fn onboard(mut self, s: StationConfig) -> Self {
        self.onboard = s;
        self
    }

    /// Sets the dataset address-space capacity in bytes.
    pub fn dataset_bytes(mut self, n: u64) -> Self {
        self.dataset_bytes = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Selects between the full two-phase record/replay discipline and the
    /// single-phase idealized device.
    pub fn use_replay_device(mut self, yes: bool) -> Self {
        self.use_replay_device = yes;
        self
    }

    /// Single-phase idealized-device mode (skips record/replay).
    pub fn without_replay_device(mut self) -> Self {
        self.use_replay_device = false;
        self
    }

    /// Sets the fault-injection plan. An *active* plan auto-enables SWQ
    /// recovery scaled to the current device latency (set the latency
    /// first, or override with [`PlatformConfig::swq_recovery`] after);
    /// faults without timeouts would simply wedge the run. An invalid plan
    /// is accepted here and rejected by [`PlatformConfig::validate`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        if plan.is_active() && !self.swq_recovery.enabled {
            self.swq_recovery = SwqRecovery::for_device_latency(self.device_latency);
        }
        self
    }

    /// Overrides the SWQ recovery configuration.
    pub fn swq_recovery(mut self, r: SwqRecovery) -> Self {
        self.swq_recovery = r;
        self
    }

    /// Enables event tracing of the measured phase.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables tracing including the deep per-access event class.
    pub fn trace_deep(mut self) -> Self {
        self.trace = true;
        self.trace_deep = true;
        self
    }

    /// Enables the cycle-accounting profiler for the measured phase.
    pub fn profiled(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Enables the causal tracing layer for the measured phase (span DAG +
    /// critical-path blame raw material).
    pub fn causal(mut self) -> Self {
        self.causal = true;
        self
    }

    /// The DRAM-baseline twin of this configuration: same workload shape,
    /// dataset in DRAM, on-demand accesses, single fiber per core (the
    /// paper's baselines are single-threaded per core).
    pub fn baseline_twin(&self) -> PlatformConfig {
        let mut b = self.clone();
        b.backing = Backing::Dram;
        b.mechanism = Mechanism::OnDemand;
        b.fibers_per_core = 1;
        b.smt = 1;
        b
    }
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = PlatformConfig::paper_default();
        assert_eq!(c.core.lfb_count, 10);
        assert_eq!(c.device_path_credits, 14);
        assert_eq!(c.dram_path_credits, 48);
        assert_eq!(c.device_latency, Span::from_us(1));
        assert_eq!(c.ctx_switch, Span::from_ns(35));
    }

    #[test]
    fn builder_chains() {
        let c = PlatformConfig::paper_default()
            .mechanism(Mechanism::SoftwareQueue)
            .cores(8)
            .fibers_per_core(24)
            .lfbs(64)
            .device_path_credits(256)
            .seed(1);
        assert_eq!(c.mechanism, Mechanism::SoftwareQueue);
        assert_eq!(c.cores, 8);
        assert_eq!(c.fibers_per_core, 24);
        assert_eq!(c.core.lfb_count, 64);
        assert_eq!(c.device_path_credits, 256);
    }

    #[test]
    fn active_fault_plan_auto_enables_recovery() {
        let c = PlatformConfig::paper_default()
            .device_latency(Span::from_us(2))
            .faults(FaultPlan::none().with_stalls(0.01));
        assert!(c.swq_recovery.enabled);
        assert_eq!(c.swq_recovery.timeout, Span::from_us(32));
        assert_eq!(c.swq_recovery.quiet_period, Span::from_us(128));
        // An explicit recovery config is never overridden.
        let manual = SwqRecovery { max_retries: 9, ..SwqRecovery::for_device_latency(Span::from_us(1)) };
        let c2 = PlatformConfig::paper_default()
            .swq_recovery(manual)
            .faults(FaultPlan::none().with_stalls(0.01));
        assert_eq!(c2.swq_recovery.max_retries, 9);
    }

    #[test]
    fn inert_fault_plan_leaves_recovery_off() {
        let c = PlatformConfig::paper_default().faults(FaultPlan::none());
        assert!(!c.swq_recovery.enabled);
        assert!(!c.faults.is_active());
    }

    #[test]
    fn validate_accepts_paper_default() {
        assert_eq!(PlatformConfig::paper_default().validate(), Ok(()));
        assert_eq!(
            PlatformConfig::paper_default().mechanism(Mechanism::SoftwareQueue).validate(),
            Ok(())
        );
    }

    #[test]
    fn setters_accept_bad_values_and_validate_rejects_them() {
        // The builder records whatever it is given; the error surfaces at
        // validate time, named after the offending field.
        let core = CoreConfig::xeon_e5_2670v3();
        let cases: [(PlatformConfig, ConfigError); 11] = [
            (PlatformConfig::paper_default().cores(0), ConfigError::Zero("cores")),
            (
                PlatformConfig::paper_default().fibers_per_core(0),
                ConfigError::Zero("fibers_per_core"),
            ),
            (PlatformConfig::paper_default().smt(0), ConfigError::Zero("smt")),
            (PlatformConfig::paper_default().dataset_bytes(0), ConfigError::Zero("dataset_bytes")),
            (
                PlatformConfig::paper_default()
                    .mechanism(Mechanism::SoftwareQueue)
                    .swq_ring_capacity(0),
                ConfigError::Zero("swq_ring_capacity"),
            ),
            (
                PlatformConfig::paper_default()
                    .mechanism(Mechanism::SoftwareQueue)
                    .backing(Backing::Dram),
                ConfigError::SwqNeedsDevice,
            ),
            (
                PlatformConfig::paper_default().core(CoreConfig { rob_slots: 0, ..core }),
                ConfigError::Zero("core.rob_slots"),
            ),
            (
                PlatformConfig::paper_default()
                    .core(CoreConfig { rob_slots: CoreConfig::MAX_ROB_SLOTS + 1, ..core }),
                ConfigError::OutOfRange("core.rob_slots"),
            ),
            (
                PlatformConfig::paper_default().core(CoreConfig { dispatch_width: 0, ..core }),
                ConfigError::Zero("core.dispatch_width"),
            ),
            (
                PlatformConfig::paper_default().core(CoreConfig { work_ipc: 0.0, ..core }),
                ConfigError::OutOfRange("core.work_ipc"),
            ),
            (
                PlatformConfig::paper_default().core(CoreConfig { work_ipc: f64::NAN, ..core }),
                ConfigError::OutOfRange("core.work_ipc"),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let largest_rob = CoreConfig { rob_slots: CoreConfig::MAX_ROB_SLOTS, ..core };
        assert_eq!(PlatformConfig::paper_default().core(largest_rob).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_invalid_fault_plan() {
        let c = PlatformConfig::paper_default().faults(FaultPlan::none().with_stalls(2.0));
        assert!(matches!(c.validate(), Err(ConfigError::Fault(_))));
        // The error message names the field, for sweep error rows.
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("stall_prob"), "{msg}");
    }

    #[test]
    fn validate_rejects_busy_loop_recovery() {
        let mut r = SwqRecovery::for_device_latency(Span::from_us(1));
        r.check_interval = Span::ZERO;
        let c = PlatformConfig::paper_default().swq_recovery(r);
        assert_eq!(c.validate(), Err(ConfigError::Recovery("check_interval")));
    }

    /// Every public field is reachable through a builder setter, so sweeps
    /// can address every knob without field pokes. The exhaustive struct
    /// literal below fails to compile when a field is added — extend the
    /// setter chain (and a setter) alongside it.
    #[test]
    fn every_public_field_has_a_setter() {
        let core = CoreConfig { lfb_count: 21, ..CoreConfig::xeon_e5_2670v3() };
        let link = LinkConfig { ps_per_byte: 125, ..LinkConfig::gen2_x8() };
        let host_dram = StationConfig { concurrency: 7, ..StationConfig::host_dram() };
        let onboard = StationConfig { concurrency: 9, ..StationConfig::onboard_ddr3() };
        let swq = SwqCosts { doorbell: Span::from_ns(299), ..SwqCosts::optimized() };
        let replay = ReplayConfig { window_depth: 65, ..ReplayConfig::default() };
        let streamer = StreamerConfig { burst: 65, ..StreamerConfig::default() };
        let faults = FaultPlan::none().with_stalls(0.25);
        let recovery = SwqRecovery::for_device_latency(Span::from_us(3));
        let want = PlatformConfig {
            mechanism: Mechanism::SoftwareQueue,
            backing: Backing::Device,
            device_latency: Span::from_us(2),
            cores: 3,
            fibers_per_core: 5,
            smt: 2,
            core,
            ctx_switch: Span::from_ns(40),
            device_path_credits: 28,
            dram_path_credits: 96,
            link,
            host_dram,
            swq,
            swq_ring_capacity: 128,
            swq_doorbell_every_enqueue: true,
            swq_fetch_burst: 4,
            device_jitter: Span::from_ns(100),
            device_jitter_model: JitterModel::Bimodal {
                tail_prob: 0.01,
                tail: Span::from_us(5),
            },
            replay,
            streamer,
            onboard,
            use_replay_device: false,
            dataset_bytes: 1 << 20,
            seed: 99,
            faults,
            swq_recovery: recovery,
            trace: true,
            trace_deep: true,
            profile: true,
            causal: true,
        };
        let got = PlatformConfig::paper_default()
            .mechanism(Mechanism::SoftwareQueue)
            .backing(Backing::Device)
            .device_latency(Span::from_us(2))
            .cores(3)
            .fibers_per_core(5)
            .smt(2)
            .core(core)
            .ctx_switch(Span::from_ns(40))
            .device_path_credits(28)
            .dram_path_credits(96)
            .link(link)
            .host_dram(host_dram)
            .swq_costs(swq)
            .swq_ring_capacity(128)
            .swq_doorbell_every_enqueue(true)
            .swq_fetch_burst(4)
            .device_jitter(Span::from_ns(100))
            .device_jitter_model(JitterModel::Bimodal {
                tail_prob: 0.01,
                tail: Span::from_us(5),
            })
            .replay(replay)
            .streamer(streamer)
            .onboard(onboard)
            .use_replay_device(false)
            .dataset_bytes(1 << 20)
            .seed(99)
            .faults(faults)
            .swq_recovery(recovery)
            .trace_deep()
            .profiled()
            .causal();
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    #[test]
    fn baseline_twin_is_dram_on_demand_single_fiber() {
        let c = PlatformConfig::paper_default().cores(4).fibers_per_core(16);
        let b = c.baseline_twin();
        assert_eq!(b.backing, Backing::Dram);
        assert_eq!(b.mechanism, Mechanism::OnDemand);
        assert_eq!(b.fibers_per_core, 1);
        assert_eq!(b.cores, 4, "baseline keeps the core count");
    }
}
