//! `kusbench`: run the host-cost benchmark, compare two result sets, or
//! re-bless the output digests.
//!
//! ```text
//! kusbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!              [--out FILE] [--smoke]
//! kusbench compare A.json B.json
//! kusbench bless [--workload NAME]
//! ```

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use kusbench::json::Json;
use kusbench::measure::{
    digest_path, format_digests, measure, parse_digests, Measurement, Plan, BLESSED_PASSES,
    DEFAULT_SEED,
};
use kusbench::report::{benchmark_json_path, compare, results_json, WorkloadResult};
use kusbench::stats::pass_seed;
use kusbench::workload::{inputs, Size, Workload, WORKLOADS};

const USAGE: &str = "usage:
  kusbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--out FILE] [--smoke]
  kusbench compare A.json B.json
  kusbench bless [--workload NAME]
workloads: figures-fast, figures-replay, scenario-corpus, fanout-long";

/// Processes per workload. Each sets up (one `setup_s` and `peak_rss_mb`
/// sample) and runs its share of the timed passes; the last one also runs
/// the traced passes. Short processes bound the memory that
/// software-queue runs retain, and spread the timed passes over the run.
/// Five set-ups make a median that one slow set-up does not move.
const PROCESSES: u64 = 5;

/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Passes `bless` digests per child process, which bounds the memory that
/// software-queue runs retain (tens of MiB per `scenario-corpus` pass).
const BLESS_CHUNK: u64 = 8;

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli(&args, started) {
        Ok(Ok(code)) => code,
        Ok(Err(e)) => {
            eprintln!("kusbench: {e}");
            1
        }
        Err(usage) => {
            eprintln!("kusbench: {usage}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    process: u64,
    processes: u64,
    trace_out: Option<PathBuf>,
    first: u64,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: true,
        out: None,
        smoke: false,
        process: 0,
        processes: 1,
        trace_out: None,
        first: 0,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        let whole = |v: &str| v.parse().map_err(|_| format!("{a} takes a whole number"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seed = whole(value()?)?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            // Internal: how `run` hands a workload process its share.
            "--process" => o.process = whole(value()?)?,
            "--processes" => o.processes = whole(value()?)?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            // Internal: the first pass a `digests` process digests.
            "--first" => o.first = whole(value()?)?,
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s => o.positional.push(s.to_string()),
        }
    }
    Ok(o)
}

/// Runs the command line. The outer error is a usage error (exit 2); the
/// inner one a failure while running (exit 1).
fn cli(args: &[String], started: Instant) -> Result<Result<i32, String>, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let o = parse(rest)?;
    let size = if o.smoke { Size::Smoke } else { Size::Full };
    match cmd.as_str() {
        "run" => Ok(run(&o, size)),
        "child" => {
            let plan = Plan {
                workload: o.workload.ok_or("child needs --workload")?,
                seed: o.seed,
                seconds: o.seconds,
                trace: o.trace,
                size,
                process: o.process,
                processes: o.processes,
                trace_out: o.trace_out,
            };
            if plan.process >= plan.processes {
                return Err("--process must be below --processes".into());
            }
            Ok(measure(&plan, started).map(|m| {
                println!("{}", m.to_json());
                0
            }))
        }
        "compare" => {
            let [a, b] = &o.positional[..] else {
                return Err("compare takes two results files".into());
            };
            Ok(compare_files(Path::new(a), Path::new(b)))
        }
        "bless" => Ok(o
            .workload
            .map_or(WORKLOADS.to_vec(), |w| vec![w])
            .into_iter()
            .try_for_each(bless)
            .map(|()| 0)),
        "digests" => {
            let w = o.workload.ok_or("digests needs --workload")?;
            Ok(digests(w, o.first).map(|rows| {
                print!("{rows}");
                0
            }))
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(Ok(0))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Runs one workload (`--workload`) or all four, each in fresh child
/// processes, one after another. Exits 1 when any run failed.
fn run(o: &Opts, size: Size) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Span traces go to results/<label>/, the label being the results
    // file's name.
    let label = o
        .out
        .as_ref()
        .and_then(|p| p.file_stem())
        .map_or("latest".into(), |s| s.to_string_lossy().into_owned());
    println!(
        "# kusbench run: seed {}, {} s of timed passes per workload, trace {}, one thread, nproc {nproc}",
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    let mut results = Vec::new();
    for w in o.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]) {
        let processes = (0..PROCESSES)
            .map(|process| {
                let traced = o.trace && process + 1 == PROCESSES;
                spawn(&Plan {
                    workload: w,
                    seed: o.seed,
                    seconds: o.seconds / PROCESSES as f64,
                    trace: traced,
                    size,
                    process,
                    processes: PROCESSES,
                    trace_out: traced.then(|| {
                        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                            .join("results")
                            .join(&label)
                            .join(format!("{}.trace.json", w.name()))
                    }),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let result = WorkloadResult::new(w, &processes);
        print!("{}", result.lines());
        results.push(result);
    }
    if let Some(out) = &o.out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(out, results_json(o.seed, o.seconds, nproc, &results))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("# wrote {}", out.display());
    }
    if let [only] = &results[..] {
        println!("{}", only.result_line(o.trace));
    }
    Ok(i32::from(!results.iter().all(WorkloadResult::correct)))
}

/// Runs `plan` in a child process of this binary and waits for it.
fn spawn(plan: &Plan) -> Result<Measurement, String> {
    let mut args: Vec<OsString> = [
        "child",
        "--workload",
        plan.workload.name(),
        "--seed",
        &plan.seed.to_string(),
        "--seconds",
        &plan.seconds.to_string(),
        "--trace",
        if plan.trace { "1" } else { "0" },
        "--process",
        &plan.process.to_string(),
        "--processes",
        &plan.processes.to_string(),
    ]
    .map(OsString::from)
    .into();
    if plan.size == Size::Smoke {
        args.push("--smoke".into());
    }
    if let Some(p) = &plan.trace_out {
        args.extend(["--trace-out".into(), p.into()]);
    }
    let stdout = child(plan.workload, &args)?;
    let line = stdout
        .lines()
        .last()
        .ok_or("a workload process printed nothing")?;
    Measurement::from_json(line)
}

/// Runs this binary with `args` for workload `w`, waits for it, and
/// returns what it printed.
fn child(w: Workload, args: &[OsString]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate kusbench: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} process: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} process failed ({})", w.name(), out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| "a workload process printed non-UTF-8".into())
}

/// Prints the comparison of results file `b` against `a`; exits 1 when a
/// row is worse.
fn compare_files(a: &Path, b: &Path) -> Result<i32, String> {
    let load = |p: &Path| {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (report, worse) = compare(&load(a)?, &load(b)?, &load(&benchmark_json_path())?)?;
    print!("{report}");
    Ok(i32::from(worse))
}

/// Regenerates `expected/<workload>.digests` for `--seed 1`, running the
/// passes in child processes of [`BLESS_CHUNK`] passes each.
fn bless(w: Workload) -> Result<(), String> {
    let mut rows = Vec::new();
    for first in (0..BLESSED_PASSES).step_by(BLESS_CHUNK as usize) {
        let args = [
            "digests",
            "--workload",
            w.name(),
            "--first",
            &first.to_string(),
        ];
        let text = child(w, &args.map(OsString::from))?;
        rows.extend(
            parse_digests(&text)?
                .into_iter()
                .map(|(index, (seed, digest))| (index, seed, digest)),
        );
    }
    let path = digest_path(w);
    std::fs::write(&path, format_digests(w, &rows))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(())
}

/// Digests passes `first..first + BLESS_CHUNK` of `w` at `--seed 1`, in
/// the digests file's format.
fn digests(w: Workload, first: u64) -> Result<String, String> {
    let inp = inputs(w, Size::Full);
    let mut rows = Vec::new();
    for index in first..(first + BLESS_CHUNK).min(BLESSED_PASSES) {
        let seed = pass_seed(DEFAULT_SEED, index);
        let out = inp.pass(seed);
        if let Some(f) = out.failures.first() {
            return Err(format!(
                "{} pass {index} failed, not blessing: {f}",
                w.name()
            ));
        }
        eprintln!(
            "# bless {}: pass {index} seed {seed:016x} digest {:016x}",
            w.name(),
            out.digest
        );
        rows.push((index, seed, out.digest));
    }
    Ok(format_digests(w, &rows))
}
