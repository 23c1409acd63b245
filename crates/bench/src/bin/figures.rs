//! Regenerates the figures of the paper's evaluation as text tables, and
//! runs ad-hoc configuration sweeps, through the parallel sweep engine.
//!
//! Usage is subcommand-first; the shared flags `--jobs N` (worker
//! threads, 0 = one per hardware thread; output is byte-identical for any
//! N), `--seed S`, `--json PATH`, and `--csv PATH` are parsed in one
//! place and accepted by every mode that runs cells. The pre-subcommand
//! flag spellings (`--sweep`, `--load`, `--trace PATH`, ...) are gone —
//! invoke the subcommand by name. Every mode rejects a flag it does not
//! read, and a word that is no flag's value (exit 2); `--help` or `-h`
//! prints this text and runs nothing.
//!
//! Figure mode (the default, or explicitly `figures figures`):
//!   figures                 # all figures, fast quality (idealized device)
//!   figures --full          # record/replay device, longer loops
//!   figures --fig fig3      # one figure (or a prefix, e.g. --fig fig10)
//!   figures --ablations     # the ablation studies as well
//!   figures --faults plan.toml  # inject the given fault plan into every run
//!
//! `figures sweep` (a declarative matrix over the microbenchmark):
//!   figures sweep --mech swq,prefetch --lat 1us,4us --fibers 1,8,24 \
//!           --cores 1,4 --seeds 1,2 --jobs 4 --json out.json
//!   Axis flags: --mech --lat --cores --fibers --smt --lfbs --credits
//!   --ring --burst --ctx --seeds (comma-separated lists; omitted axes keep
//!   the paper-default value). Latency/ctx values take ns/us suffixes.
//!   Cells print as `index label work_ipc` lines; --json/--csv emit the full
//!   machine-readable results (byte-identical across --jobs values).
//!
//! `figures trace` (Chrome traces and determinism hashes):
//!   figures trace --out out.json [--canonical NAME]  # write a Chrome
//!                               # trace of a canonical run (default
//!                               # swq-optimized) and exit
//!   figures trace --hash        # print each canonical run's trace hash
//!                               # (the determinism fingerprint) and exit
//!   Honours --seed; the hash lines are stable for a given seed, which is
//!   what CI diffs across two invocations.
//!
//! `figures profile` (the §4 acceptance suite: one profiled run per
//! mechanism, each expected to reproduce the paper's diagnosis):
//!   figures profile --out out.json [--speedscope STEM] [--seed S] [--jobs N]
//!   Prints each run's text dashboard, writes the suite's profile JSON
//!   to out.json (byte-identical across --jobs values and repeated
//!   same-seed runs — CI diffs it), and with --speedscope writes one
//!   speedscope flamegraph per run to STEM-NAME.speedscope.json.
//!   Exits non-zero when any run misses its expected verdict.
//!
//! The serving presets `figures load|net|blame|overload` share one
//! base-flag parser: `--service echo|memcached|bloom`, `--requests N`,
//! `--queue-cap N`, `--cores N`, `--fibers N`, `--slo-p99`/`--slo-p999`
//! (ns/us suffixes), `--full`, `--faults plan.toml` and the NIC knobs
//! `--rx-queues --flows --link-gbps --net-jitter`. Rates accept k/m
//! suffixes. Each preset reads its own axis flags and ignores base flags
//! it has no use for (`--slo-p999` outside `load`, SLOs in `blame`,
//! `--faults` in `overload`); --json/--csv emit the full per-cell reports,
//! byte-identical across --jobs values.
//!
//! `figures load` (mechanism × offered Poisson rate):
//!   figures load --service memcached --mech ondemand,prefetch,swq \
//!           --rates 250k,500k,1m,2m,4m --jobs 4 --json load.json --csv load.csv
//!   Prints the throughput–latency curve (p50/p99/p999 columns, an SLO
//!   verdict column) and the saturation knee per mechanism.
//!
//! `figures net` (NIC model × tier topology × offered rate, with the
//! dispatcher-only baseline alongside):
//!   figures net --service echo --nics dma,nanopu --topos rpc,fanout4 \
//!           --rates 250k,500k,1m,2m,3m --jobs 4 --json net.json --csv net.csv
//!   --nics is any of dma | nanopu; --topos is rpc | fanoutN (e.g.
//!   fanout4). Every run also sweeps `nic=off topo=direct` baseline cells
//!   at the same rates. Prints per-front-end throughput curves with the
//!   wire/NIC/steer/queue/service decomposition, the knee per front end,
//!   and the knee shift vs the baseline.
//!
//! `figures blame` (the causal critical-path sweep: mechanism × tier
//! topology × offered rate, with the zero-fanout baseline alongside):
//!   figures blame --service echo --mech ondemand,prefetch,swq --topos fanout4 \
//!           --rates 250k,1m,2m --jobs 4 --json blame.json --trace blame.trace.json
//!   Every cell runs with the causal event class on and walks each
//!   request's span DAG for its exact critical path. Prints the critical
//!   tier and its share per cell (overall and exact-p99 tail) and the
//!   critical-tier flips vs the `direct` baseline; --trace draws one
//!   fan-out run at the first swept rate (open it in Perfetto).
//!
//! `figures overload` (admission policy × fault plan × offered rate, plus
//! the budgeted/unbudgeted retry pair):
//!   figures overload --policies static,deadline,adaptive --rates 1m,3m \
//!           --jobs 4 --json overload.json --bench BENCH_overload.json
//!   --policies is any of static | deadline | adaptive. Prints the
//!   degradation matrix (goodput/shed/p99 and a graceful/brownout/collapse
//!   verdict per cell).
//!
//! `figures simbench` (the simulator-substrate throughput suite: the
//! timing-wheel event core vs the retained heap reference, measured live):
//!   figures simbench [--samples N] [--label wheel-slab] \
//!           [--bench artifacts/simbench/BENCH_simbench.json] \
//!           [--check artifacts/simbench/simbench_check.json]
//!   Prints the per-scenario events/sec table. --bench writes the
//!   wall-clock record with the trajectory history (an existing file's
//!   history is extended, not overwritten); --check writes the
//!   byte-deterministic equivalence artifact that CI diffs across two
//!   invocations. Exits non-zero if the cores diverge (that assertion
//!   panics first).
//!
//! `figures scenario` (one declarative TOML world, compiled and run):
//!   figures scenario scenarios/calm-poisson.toml [--jobs N] \
//!           [--json out.json] [--csv out.csv] [--bench BENCH.json]
//!   Compiles the file through kus-scenario and runs it. A scenario
//!   carrying a `[matrix]` section runs the `overload` preset over the
//!   scenario's base and emits exactly the `figures overload` artifacts; a
//!   plain scenario runs once and prints its LoadReport (--json emits it).
//!   A scenario carrying an `[expect]` section is an executable claim:
//!   the run exits non-zero when the observed degradation verdict, SLO
//!   outcome, or demonstrated goodput regresses below the expectation.
//!
//! `figures scenario-matrix` (score every mechanism across the corpus):
//!   figures scenario-matrix [--dir scenarios] [--mech ondemand,swq] \
//!           [--jobs N] [--json out.json] [--csv out.csv]
//!   Compiles every *.toml in the corpus directory (sorted by filename; a
//!   file that no longer parses fails the run), runs every scenario under
//!   every mechanism, and prints the scoreboard. Artifacts are
//!   byte-identical across --jobs values.

use kus_bench::profile::run_profile_suite;
use kus_bench::scenario::{load_scenario_dir, run_scenario_matrix, ScenarioMatrixSpec};
use kus_bench::serving::{
    critical_share, keeps_up, run_serving, scenario_json, Preset, ServingFlags, ServingMatrix,
};
use kus_bench::sweep::{run_figures, run_sweep, SweepOptions, SweepSpec};
use kus_core::prelude::*;
use kus_load::{AdmissionControl, NetConfig, NicModelKind, TierSpec};
use kus_scenario::{MatrixSpec, Scenario};
use kus_workloads::figures::{self, Quality};
use kus_workloads::trace_scenarios::{run_trace_scenario, trace_scenarios};
use kus_workloads::{Microbench, MicrobenchConfig};

/// The value after `flag`, if the flag is given. A flag with nothing after
/// it — the last argument, or followed by another `--flag` — is an error,
/// never a silent default.
fn try_flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{flag}: expected a value")),
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    try_flag_value(args, flag).unwrap_or_else(|e| fail(e))
}

/// Parses `--flag V` with `FromStr`, exiting on bad input.
fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| fail(format!("{flag}: bad value `{v}`"))))
}

fn fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The flags `mode` reads; `None` for an unknown mode. The serving
/// presets share one list: a base flag that a preset has no use for is
/// tolerated (see the module docs).
fn mode_flags(mode: &str) -> Option<&'static [&'static str]> {
    Some(match mode {
        "sweep" => &[
            "--jobs", "--seed", "--json", "--csv", "--full", "--faults", "--work", "--mech",
            "--lat", "--cores", "--fibers", "--smt", "--lfbs", "--credits", "--ring", "--burst",
            "--ctx", "--seeds",
        ],
        "load" | "net" | "blame" | "overload" => &[
            "--jobs", "--seed", "--json", "--csv", "--full", "--faults", "--service",
            "--requests", "--queue-cap", "--cores", "--fibers", "--slo-p99", "--slo-p999",
            "--rx-queues", "--flows", "--link-gbps", "--net-jitter", "--mech", "--rates",
            "--nics", "--topos", "--policies", "--bench", "--trace",
        ],
        "trace" => &["--out", "--hash", "--canonical", "--seed"],
        "profile" => &["--out", "--speedscope", "--seed", "--jobs"],
        "simbench" => &["--samples", "--label", "--bench", "--check"],
        "scenario" => &["--file", "--jobs", "--seed", "--json", "--csv", "--bench"],
        "scenario-matrix" => &["--dir", "--mech", "--jobs", "--json", "--csv"],
        "figures" => {
            &["--jobs", "--seed", "--json", "--csv", "--full", "--faults", "--fig", "--ablations"]
        }
        _ => return None,
    })
}

/// The flags that take no value; every other flag a mode reads takes one.
const SWITCHES: [&str; 3] = ["--hash", "--full", "--ablations"];

/// Exits 2 on an unknown mode, or on the first argument that `mode` does
/// not read: a flag it does not know, or a positional argument that is
/// neither the value of the flag before it nor `figures scenario`'s FILE
/// in first place. So a typo or a stray word never runs the defaults.
fn reject_unread_args(mode: &str, args: &[String]) {
    let Some(known) = mode_flags(mode) else {
        fail(format!(
            "unknown subcommand `{mode}` (sweep | load | net | blame | overload | \
             trace | profile | simbench | scenario | scenario-matrix | figures)"
        ))
    };
    for (i, arg) in args.iter().enumerate() {
        if arg.starts_with("--") {
            if !known.contains(&arg.as_str()) {
                fail(format!("{arg}: unknown flag for `figures {mode}` (it reads {})", known.join(" ")));
            }
            continue;
        }
        let flag = i.checked_sub(1).map(|p| args[p].as_str());
        let value = flag.is_some_and(|f| f.starts_with("--") && !SWITCHES.contains(&f));
        let scenario_file = mode == "scenario" && i == 0;
        if !(value || scenario_file) {
            fail(format!("`{arg}`: unexpected argument for `figures {mode}` (no flag before it takes a value)"));
        }
    }
}

/// The module documentation above: what `--help` prints.
fn usage() -> String {
    include_str!("figures.rs")
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .map(|l| l.strip_prefix(' ').unwrap_or(l))
        .fold(String::new(), |text, l| text + l + "\n")
}

/// The flags shared by every mode, parsed in exactly one place: `--jobs`
/// (worker threads), `--seed` (platform RNG override), and the `--json` /
/// `--csv` artifact paths.
struct Common {
    jobs: usize,
    seed: Option<u64>,
    json: Option<String>,
    csv: Option<String>,
}

fn common(args: &[String]) -> Common {
    Common {
        jobs: parsed(args, "--jobs").unwrap_or(0),
        seed: parsed(args, "--seed"),
        json: flag_value(args, "--json"),
        csv: flag_value(args, "--csv"),
    }
}

impl Common {
    fn opts(&self) -> SweepOptions {
        SweepOptions { jobs: self.jobs, progress: true }
    }
}

/// Writes an artifact, logging the path and a cell count.
fn write_artifact(flag: &str, path: &str, content: &str, cells: usize) {
    if let Err(e) = std::fs::write(path, content) {
        fail(format!("{flag}: cannot write {path}: {e}"));
    }
    eprintln!("# wrote {path} ({cells} cells)");
}

/// Parses `--flag a,b,c` into a vector via `parse`, exiting on bad input.
fn list<T>(args: &[String], flag: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    match flag_value(args, flag) {
        None => Vec::new(),
        Some(s) => s
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| {
                parse(p.trim()).unwrap_or_else(|| fail(format!("{flag}: cannot parse `{p}`")))
            })
            .collect(),
    }
}

fn parse_span(s: &str) -> Option<Span> {
    if let Some(v) = s.strip_suffix("us") {
        v.parse().ok().map(Span::from_us)
    } else if let Some(v) = s.strip_suffix("ns") {
        v.parse().ok().map(Span::from_ns)
    } else {
        s.parse().ok().map(Span::from_ns)
    }
}

fn parse_mech(s: &str) -> Option<Mechanism> {
    match s {
        "on-demand" | "ondemand" => Some(Mechanism::OnDemand),
        "prefetch" => Some(Mechanism::Prefetch),
        "swq" | "software-queue" => Some(Mechanism::SoftwareQueue),
        _ => None,
    }
}

const TRACE_SEED: u64 = 0xC0FFEE;

/// `figures trace`: `--out PATH` writes a Chrome trace, `--hash` prints
/// the canonical determinism hashes.
fn trace_sub(args: &[String]) -> i32 {
    let out = flag_value(args, "--out");
    let hash_only = args.iter().any(|a| a == "--hash");
    if out.is_none() && !hash_only {
        fail("trace: expected --out PATH or --hash".into());
    }
    let seed = common(args).seed.unwrap_or(TRACE_SEED);
    if hash_only {
        // One line per canonical run: `name hash event-count`.
        for s in trace_scenarios() {
            let r = run_trace_scenario(s.name, seed).expect("canonical scenario");
            let t = r.trace.expect("traced run");
            println!("{} {:016x} {}", s.name, t.hash, t.count);
        }
        return 0;
    }
    let path = out.expect("checked above");
    let canonical =
        flag_value(args, "--canonical").unwrap_or_else(|| "swq-optimized".into());
    let Some(r) = run_trace_scenario(&canonical, seed) else {
        eprintln!(
            "--canonical: unknown `{canonical}`; available: {}",
            trace_scenarios().iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
        );
        return 2;
    };
    let t = r.trace.as_ref().expect("traced run");
    let json = kus_sim::trace::chrome_json(&t.events);
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("--out: cannot write {path}: {e}");
        return 2;
    }
    eprintln!(
        "# {canonical}: {} events, hash {:016x}, {} -> {path}",
        t.count,
        t.hash,
        r.summary()
    );
    0
}

/// Builds the quality (and thus base config) from the shared CLI flags.
fn quality(args: &[String], com: &Common) -> Quality {
    let mut q = if args.iter().any(|a| a == "--full") { Quality::full() } else { Quality::fast() };
    if let Some(path) = flag_value(args, "--faults") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(format!("--faults: cannot read {path}: {e}")));
        q.faults = FaultPlan::parse_toml(&text)
            .unwrap_or_else(|e| fail(format!("--faults: invalid plan in {path}: {e}")));
    }
    q.seed = com.seed.or(q.seed);
    q
}

fn write_artifacts(com: &Common, results: &kus_bench::SweepResults) {
    if let Some(path) = &com.json {
        write_artifact("--json", path, &results.to_json(), results.cells.len());
    }
    if let Some(path) = &com.csv {
        write_artifact("--csv", path, &results.to_csv(), results.cells.len());
    }
}

/// `figures sweep`: a declarative matrix over the microbenchmark.
fn sweep_mode(args: &[String]) -> i32 {
    let com = common(args);
    let q = quality(args, &com);
    let mut cfg = PlatformConfig::paper_default();
    if !q.replay_device {
        cfg = cfg.without_replay_device();
    }
    if q.faults.is_active() {
        cfg = cfg.faults(q.faults);
    }
    let work: u32 = parsed(args, "--work").unwrap_or(100);
    let mc = MicrobenchConfig {
        work_count: work,
        mlp: 1,
        iters_per_fiber: q.iters,
        writes_per_iter: 0,
    };
    let base = Experiment::new(
        format!("ubench w={work} mlp=1 iters={} writes=0", mc.iters_per_fiber),
        cfg,
        move || Microbench::new(mc),
    )
    .unwrap_or_else(|e| fail(format!("base configuration invalid: {e}")));

    let spec = SweepSpec::new(base)
        .mechanisms(&list(args, "--mech", parse_mech))
        .device_latencies(&list(args, "--lat", parse_span))
        .cores(&list(args, "--cores", |s| s.parse().ok()))
        .fibers_per_core(&list(args, "--fibers", |s| s.parse().ok()))
        .smt(&list(args, "--smt", |s| s.parse().ok()))
        .lfb_counts(&list(args, "--lfbs", |s| s.parse().ok()))
        .device_path_credits(&list(args, "--credits", |s| s.parse().ok()))
        .swq_ring_capacities(&list(args, "--ring", |s| s.parse().ok()))
        .swq_fetch_bursts(&list(args, "--burst", |s| s.parse().ok()))
        .ctx_switches(&list(args, "--ctx", parse_span))
        .seeds(&list(args, "--seeds", |s| s.parse().ok()));

    let opts = com.opts();
    eprintln!("# sweep: {} cells, jobs={}", spec.cell_count(), opts.jobs);
    let results = run_sweep(&spec, &opts);
    eprintln!("# sweep: done in {:.2}s", results.wall_seconds);
    for c in &results.cells {
        match &c.outcome {
            Ok(r) => println!("{} {} work_ipc={:.6}", c.index, c.label, r.work_ipc()),
            Err(e) => println!("{} {} ERROR {e}", c.index, c.label),
        }
    }
    write_artifacts(&com, &results);
    i32::from(results.errors().count() > 0)
}

/// `figures profile`: the §4 acceptance suite (see the module docs).
fn profile_mode(args: &[String]) -> i32 {
    let path = flag_value(args, "--out")
        .unwrap_or_else(|| fail("--out: expected an output path".into()));
    let com = common(args);
    let seed: u64 = com.seed.unwrap_or(7);
    let opts = com.opts();
    eprintln!("# profile suite: 3 scenarios, seed={seed}, jobs={}", opts.jobs);
    let suite = run_profile_suite(seed, &opts);
    eprintln!("# profile suite: done in {:.2}s", suite.wall_seconds);
    print!("{}", suite.render_dashboards());
    if let Err(e) = std::fs::write(&path, suite.to_json()) {
        fail(format!("--out: cannot write {path}: {e}"));
    }
    eprintln!("# wrote {path} ({} scenarios)", suite.outcomes.len());
    if let Some(stem) = flag_value(args, "--speedscope") {
        for o in &suite.outcomes {
            if let Ok(p) = &o.outcome {
                let out = format!("{stem}-{}.speedscope.json", o.name);
                if let Err(e) = std::fs::write(&out, p.to_speedscope(o.name)) {
                    fail(format!("--speedscope: cannot write {out}: {e}"));
                }
                eprintln!("# wrote {out}");
            }
        }
    }
    i32::from(!suite.satisfied())
}

/// Parses an offered rate like `250000`, `250k`, or `1.5m` (requests/s).
fn parse_rate(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(v) = s.strip_suffix(['m', 'M']) {
        v.parse::<f64>().ok().map(|x| (x * 1e6) as u64)
    } else if let Some(v) = s.strip_suffix(['k', 'K']) {
        v.parse::<f64>().ok().map(|x| (x * 1e3) as u64)
    } else {
        s.parse().ok()
    }
}

/// Parses a NIC model name: `dma` | `nanopu`.
fn parse_nic(s: &str) -> Option<NicModelKind> {
    match s {
        "dma" => Some(NicModelKind::dma()),
        "nanopu" | "nano" => Some(NicModelKind::nanopu()),
        _ => None,
    }
}

/// Parses a tier topology: `rpc` or `fanoutN` (e.g. `fanout4`).
fn parse_topo(s: &str) -> Option<TierSpec> {
    match s {
        "rpc" => Some(TierSpec::rpc()),
        _ => s.strip_prefix("fanout").and_then(|w| w.parse().ok()).map(TierSpec::fanout),
    }
}

/// Parses an admission policy by label: one of the overload matrix's
/// default policies (`static` | `deadline` | `adaptive`).
fn parse_policy(s: &str) -> Option<AdmissionControl> {
    MatrixSpec::default().policies.into_iter().find(|p| p.label() == s)
}

/// The base flags every serving preset shares, parsed in one place.
fn serving_flags(args: &[String], com: &Common) -> ServingFlags {
    let q = quality(args, com);
    let span = |flag: &str| {
        flag_value(args, flag)
            .map(|s| parse_span(&s).unwrap_or_else(|| fail(format!("{flag}: bad value `{s}`"))))
    };
    // The shared wire/steering knobs; each NIC point sets its own model.
    let mut net = NetConfig::default();
    if let Some(v) = parsed(args, "--rx-queues") {
        net = net.rx_queues(v);
    }
    if let Some(v) = parsed(args, "--flows") {
        net = net.flows(v);
    }
    if let Some(v) = parsed(args, "--link-gbps") {
        net = net.link_gbps(v);
    }
    if let Some(v) = span("--net-jitter") {
        net = net.jitter(v);
    }
    ServingFlags {
        service: flag_value(args, "--service"),
        requests: parsed(args, "--requests"),
        queue_capacity: parsed(args, "--queue-cap"),
        cores: parsed(args, "--cores"),
        fibers: parsed(args, "--fibers"),
        seed: q.seed,
        replay_device: q.replay_device,
        faults: q.faults,
        slo_p99: span("--slo-p99"),
        slo_p999: span("--slo-p999"),
        net,
        mechanisms: list(args, "--mech", parse_mech),
        rates: list(args, "--rates", parse_rate),
        nics: list(args, "--nics", parse_nic),
        topologies: list(args, "--topos", parse_topo),
        policies: list(args, "--policies", parse_policy),
    }
}

/// `figures load|net|blame|overload`: a serving preset over the shared
/// base flags.
fn serving_mode(name: &str, args: &[String]) -> i32 {
    let com = common(args);
    let preset = serving_flags(args, &com).preset(name).unwrap_or_else(|e| fail(e));
    // `--bench` belongs to overload and `--trace` to blame; the other
    // presets never read them.
    let only = |owner: &str, flag: &str| (name == owner).then(|| flag_value(args, flag)).flatten();
    run_preset(&preset, &com, only("overload", "--bench"), only("blame", "--trace"))
}

/// Runs a serving preset, prints its table, and writes `--json`, `--csv`,
/// the wall-clock `bench` record, and a Chrome `trace` (with causal flow
/// arrows) of the preset's traced run.
fn run_preset(
    preset: &Preset,
    com: &Common,
    bench: Option<String>,
    trace: Option<String>,
) -> i32 {
    let opts = com.opts();
    eprintln!("# {} sweep: {} cells, jobs={}", preset.name(), preset.cell_count(), opts.jobs);
    let results = preset.run(&opts);
    eprintln!("# {} sweep: done in {:.2}s", preset.name(), results.wall_seconds);
    print!("{}", results.render_table());
    let cells = results.main.cells.len();
    if let Some(path) = &com.json {
        write_artifact("--json", path, &results.to_json(), cells);
    }
    if let Some(path) = &com.csv {
        write_artifact("--csv", path, &results.to_csv(), cells);
    }
    if let Some(path) = bench {
        if let Err(e) = std::fs::write(&path, results.bench_json()) {
            fail(format!("--bench: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    if let Some((path, exp)) = trace.zip(preset.trace_run()) {
        let run = exp.unwrap_or_else(|e| fail(format!("--trace: {e}"))).run();
        let t = run.trace.as_ref().expect("traced run");
        let arrows = kus_load::flow_arrows(&t.events);
        let json = kus_sim::trace::chrome_json_with_flows(&t.events, &arrows);
        write_artifact("--trace", &path, &json, arrows.len());
    }
    let failed = results.errors().next().is_some();
    i32::from(failed)
}

/// `figures scenario FILE`: compile one declarative world and run it.
fn scenario_mode(args: &[String]) -> i32 {
    let file = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .or_else(|| flag_value(args, "--file"))
        .unwrap_or_else(|| fail("scenario: expected a scenario .toml path".into()));
    let com = common(args);
    let text = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| fail(format!("scenario: cannot read {file}: {e}")));
    let mut sc = Scenario::from_toml(&text)
        .unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    if let Some(seed) = com.seed {
        // --seed overrides even an explicit scenario seed, matching every
        // other mode.
        let spec = sc.spec().clone().seed(seed);
        sc = spec.compile().unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    }
    eprintln!(
        "# scenario {}: service={} fingerprint={:016x}",
        sc.name(),
        sc.service_name(),
        sc.fingerprint()
    );

    if let Some(m) = sc.matrix() {
        // A matrix scenario IS the overload preset over the scenario's
        // base: same engine, same artifacts, byte-for-byte.
        let preset = Preset::overload(ServingMatrix::of(&sc), m);
        return run_preset(&preset, &com, flag_value(args, "--bench"), None);
    }

    // A plain scenario is a matrix with no axes: one cell, the same harvest.
    let (mut runs, _) = run_serving(&[&ServingMatrix::of(&sc)], &SweepOptions::jobs(com.jobs));
    let harvest = runs.remove(0).cells.remove(0).outcome;
    let h = harvest.unwrap_or_else(|e| fail(format!("scenario: {file}: {e}")));
    let report = &h.load;
    println!("{}", report.to_table());
    if let Some(n) = &h.net {
        println!("{}", n.to_table());
    }
    let slo = sc.load().slo;
    if slo.p99.is_some() || slo.p999.is_some() || slo.max_shed_fraction.is_some() {
        let v = slo.verdict(report);
        println!("slo: {}", if v.pass { "pass" } else { "FAIL" });
    }
    // Executable claims: each stated `[expect]` entry is checked against
    // the observed run; any miss fails the invocation.
    let mut code = 0;
    if let Some(want) = sc.expect() {
        let status = |ok: bool| if ok { "ok" } else { "FAIL" };
        if let Some(v) = &want.verdict {
            let got = report.recovery(&slo).verdict.label();
            let ok = got == v;
            println!("expect verdict={v}: observed {got} [{}]", status(ok));
            code |= i32::from(!ok);
        }
        if let Some(pass) = want.slo_pass {
            let got = slo.verdict(report).pass;
            let ok = got == pass;
            println!(
                "expect slo={}: observed {} [{}]",
                if pass { "pass" } else { "fail" },
                if got { "pass" } else { "fail" },
                status(ok),
            );
            code |= i32::from(!ok);
        }
        if let Some(rate) = want.knee_at_least {
            let ok = keeps_up(report, rate);
            println!(
                "expect knee_at_least={rate:.0} rps: goodput {:.0} rps [{}]",
                report.goodput_rps,
                status(ok),
            );
            code |= i32::from(!ok);
        }
        if want.wants_blame() {
            // Blame claims check the causal critical-path decomposition;
            // compile enabled the causal event class for this run.
            let blame = h.blame.as_ref().expect("blame claims enable the causal class");
            println!();
            print!("{}", blame.to_table());
            let got = &blame.overall.critical_tier;
            let share = critical_share(&blame.overall);
            if let Some(tier) = &want.critical_tier {
                let ok = got == tier;
                println!("expect critical_tier={tier}: observed {got} [{}]", status(ok));
                code |= i32::from(!ok);
            }
            if let Some(min) = want.critical_share_at_least {
                let ok = share >= min;
                println!(
                    "expect critical_share_at_least={min:.2}: observed {share:.2} (tier {got}) [{}]",
                    status(ok),
                );
                code |= i32::from(!ok);
            }
        }
    }
    if let Some(path) = &com.json {
        let json = scenario_json(sc.name(), sc.fingerprint(), report, h.net.as_ref());
        write_artifact("--json", path, &json, 1);
    }
    code
}

/// `figures scenario-matrix`: compile the corpus, score every mechanism.
fn scenario_matrix_mode(args: &[String]) -> i32 {
    let dir = flag_value(args, "--dir").unwrap_or_else(|| "scenarios".into());
    let com = common(args);
    let scenarios = load_scenario_dir(std::path::Path::new(&dir))
        .unwrap_or_else(|e| fail(format!("scenario-matrix: {e}")));
    eprintln!("# scenario-matrix: {} scenarios from {dir}", scenarios.len());
    let spec = ScenarioMatrixSpec::new(scenarios).mechanisms(&list(args, "--mech", parse_mech));
    let opts = com.opts();
    eprintln!("# scenario-matrix: {} cells, jobs={}", spec.cell_count(), opts.jobs);
    let results = run_scenario_matrix(&spec, &opts);
    eprintln!("# scenario-matrix: done in {:.2}s", results.wall_seconds);
    print!("{}", results.render_table());
    if let Some(path) = &com.json {
        write_artifact("--json", path, &results.to_json(), results.cells.len());
    }
    if let Some(path) = &com.csv {
        write_artifact("--csv", path, &results.to_csv(), results.cells.len());
    }
    i32::from(results.errors().count() > 0)
}

/// `figures simbench`: the simulator-substrate throughput suite.
fn simbench_mode(args: &[String]) -> i32 {
    let samples: u32 = parsed(args, "--samples").unwrap_or(3);
    let label = flag_value(args, "--label").unwrap_or_else(|| "wheel-slab".into());
    eprintln!("# simbench: {samples} samples per scenario per core");
    let results = kus_bench::simbench::run_simbench(samples);
    eprintln!("# simbench: done in {:.2}s", results.wall_seconds);
    print!("{}", results.render_table());
    if let Some(path) = flag_value(args, "--bench") {
        // Extend a previously committed trajectory instead of restarting it.
        let history = std::fs::read_to_string(&path).unwrap_or_default();
        let history = kus_bench::simbench::extract_history(&history).to_string();
        if let Err(e) = std::fs::write(&path, results.bench_json(&label, &history)) {
            fail(format!("--bench: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    if let Some(path) = flag_value(args, "--check") {
        if let Err(e) = std::fs::write(&path, results.check_json()) {
            fail(format!("--check: cannot write {path}: {e}"));
        }
        eprintln!("# wrote {path}");
    }
    0
}

/// Figure mode: regenerate the paper's evaluation tables (the default).
fn figures_mode(args: &[String]) -> i32 {
    let com = common(args);
    let ablations = args.iter().any(|a| a == "--ablations");
    let only: Option<String> = flag_value(args, "--fig");
    let q = quality(args, &com);
    eprintln!(
        "# quality: iters={} replay_device={} faults={} (use --full for the paper methodology)",
        q.iters,
        q.replay_device,
        if q.faults.is_active() { "active" } else { "off" },
    );

    let include_ablations = ablations
        || only
            .as_deref()
            .map(|o| o.starts_with("ablation") || o.starts_with("ext"))
            .unwrap_or(false);
    let mut entries = figures::registry(include_ablations);
    if let Some(only) = &only {
        entries.retain(|e| e.id.starts_with(only.as_str()));
        if entries.is_empty() {
            fail(format!("--fig: no figure matches prefix `{only}`"));
        }
    }

    let (figsets, results) = run_figures(&entries, q, &com.opts());
    eprintln!(
        "# {} unique cells in {:.2}s ({} errors)",
        results.cells.len(),
        results.wall_seconds,
        results.errors().count(),
    );
    for (id, figs) in figsets {
        eprintln!("# {id}");
        for fig in figs {
            println!("{}", fig.render_table());
        }
    }
    write_artifacts(&com, &results);
    i32::from(results.errors().count() > 0)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        std::process::exit(0);
    }
    // Subcommand-first dispatch: the first non-flag argument names the
    // mode; a bare flag list runs figure mode.
    let sub = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .cloned();
    if sub.is_some() {
        args.remove(0);
    }
    let mode = sub.as_deref().unwrap_or("figures");
    reject_unread_args(mode, &args);
    let code = match mode {
        "sweep" => sweep_mode(&args),
        "load" | "net" | "blame" | "overload" => serving_mode(mode, &args),
        "trace" => trace_sub(&args),
        "profile" => profile_mode(&args),
        "simbench" => simbench_mode(&args),
        "scenario" => scenario_mode(&args),
        "scenario-matrix" => scenario_matrix_mode(&args),
        _ => figures_mode(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_values_must_be_present() {
        let v = |a: &[&str]| try_flag_value(&args(a), "--rates");
        assert_eq!(v(&["--rates", "1m", "--jobs", "2"]), Ok(Some("1m".into())));
        assert_eq!(v(&["--jobs", "2"]), Ok(None));
        assert_eq!(v(&["--jobs", "2", "--rates"]), Err("--rates: expected a value".into()));
        assert_eq!(v(&["--rates", "--jobs", "2"]), Err("--rates: expected a value".into()));
    }

    #[test]
    fn serving_flags_reach_every_knob() {
        let a = args(&[
            "--service", "bloom", "--requests", "7", "--queue-cap", "9", "--cores", "3",
            "--fibers", "5", "--slo-p99", "4us", "--rx-queues", "2", "--net-jitter", "300ns",
            "--mech", "swq", "--rates", "1.5m,250k", "--nics", "nano", "--topos", "fanout2",
            "--policies", "adaptive",
        ]);
        let f = serving_flags(&a, &common(&a));
        assert_eq!(f.service.as_deref(), Some("bloom"));
        assert_eq!((f.requests, f.queue_capacity), (Some(7), Some(9)));
        assert_eq!((f.cores, f.fibers, f.slo_p99), (Some(3), Some(5), Some(Span::from_us(4))));
        assert_eq!((f.net.rx_queues, f.net.jitter), (2, Span::from_ns(300)));
        assert_eq!(f.mechanisms, vec![Mechanism::SoftwareQueue]);
        assert_eq!(f.rates, vec![1_500_000, 250_000]);
        assert_eq!(f.nics, vec![NicModelKind::nanopu()]);
        assert_eq!(f.topologies, vec![TierSpec::fanout(2)]);
        assert_eq!(f.policies.len(), 1);
        let none = serving_flags(&[], &common(&[]));
        assert!(none.rates.is_empty(), "an absent axis flag keeps the preset default");
    }
}
