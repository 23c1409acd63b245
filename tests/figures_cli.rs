//! The `figures` binary's input handling, end to end:
//!
//! 1. **No silent defaults** — a flag with no value, a flag the mode does
//!    not read (each serving preset has its own list), a stray positional
//!    argument, a fault plan the scenario grammar rejects or a dataset the
//!    host cannot reserve exits 2 with a diagnostic instead of running the
//!    defaults; `--help` prints the usage and runs nothing; every
//!    `figures` command in the docs parses against the real CLI.
//! 2. **Accurate diagnostics** — an invalid serving spec (a zero-width
//!    fan-out, a zero-capacity queue) is reported as a serving-spec error
//!    in the cell's error row, not as a fault-plan error.
//! 3. **Valid JSON for any scenario name** — `figures scenario --json`
//!    escapes names the TOML parser accepts.

use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn a_flag_without_a_value_exits_2() {
    for args in
        [&["load", "--rates"][..], &["net", "--json", "--csv", "out.csv"], &["sweep", "--mech"]]
    {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let flag = args[1];
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            format!("{flag}: expected a value")
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn an_unknown_flag_exits_2() {
    let cases = [
        (&["trace", "--hash", "--bogus"][..], "--bogus"),
        (&["sweep", "--job", "4"], "--job"),
        (&["overload", "--bench", "x"], "--bench"),
        (&["scenario", "a.toml", "--bench", "x"], "--bench"),
    ];
    for (args, flag) in cases {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        let diagnostic = format!("{flag}: unknown flag for `figures {}`", args[0]);
        assert!(err.starts_with(&diagnostic), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn a_stray_positional_argument_exits_2() {
    let cases = [
        (&["trace", "--hash", "extra"][..], "extra", "trace"),
        (&["--full", "fig3"], "fig3", "figures"),
        (&["sweep", "--jobs", "4", "5"], "5", "sweep"),
        (&["scenario", "a.toml", "b.toml"], "b.toml", "scenario"),
    ];
    for (args, arg, mode) in cases {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        let diagnostic = format!("`{arg}`: unexpected argument for `figures {mode}`");
        assert!(err.starts_with(&diagnostic), "{err}");
        assert!(out.stdout.is_empty(), "{args:?} must not run anything");
    }
}

#[test]
fn a_dataset_the_host_cannot_reserve_exits_2() {
    let toml = scratch("huge-dataset.toml");
    std::fs::write(
        &toml,
        "name = \"huge\"\n[traffic]\narrival = \"poisson\"\nrate_rps = 2.0e5\nrequests = 20\n\
         [platform]\ndataset_bytes = 1099511627776\n",
    )
    .expect("write scenario");
    let out = figures(&["scenario", "--file", toml.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("platform") && err.contains("dataset_bytes"), "{err}");
    assert!(out.stdout.is_empty());
}

/// Every `figures` command in `doc`, as the arguments after the binary
/// name: from fenced code blocks, the commands that run `--bin figures --`
/// with `\` continuations joined; from the prose, every inline code span
/// that starts with `figures `, also when the span breaks across lines.
fn doc_commands(doc: &str) -> Vec<Vec<String>> {
    let mut commands = Vec::new();
    let (mut fenced, mut line, mut prose) = (false, String::new(), String::new());
    for l in doc.lines() {
        if l.trim_start().starts_with("```") {
            fenced = !fenced;
            line.clear();
            prose.push('\n');
            continue;
        }
        if !fenced {
            // A blank line ends a paragraph, and with it any code span.
            prose.push_str(if l.trim().is_empty() { "\n\n" } else { l });
            prose.push(' ');
            continue;
        }
        line = line + " " + l.trim();
        if let Some(head) = line.strip_suffix('\\') {
            line = head.to_string();
            continue;
        }
        let command = std::mem::take(&mut line);
        let command = command.split(" #").next().unwrap_or_default();
        if let Some((_, args)) = command.split_once("--bin figures") {
            let args = args.trim_start().strip_prefix("--").unwrap_or(args);
            commands.push(args.split_whitespace().map(String::from).collect());
        }
    }
    for paragraph in prose.split("\n\n") {
        for span in paragraph.split('`').skip(1).step_by(2) {
            if let Some(args) = span.trim_start().strip_prefix("figures ") {
                commands.push(args.split_whitespace().map(String::from).collect());
            }
        }
    }
    commands
}

/// The documented error examples (the verify skill's CLI error paths),
/// each with the start of the one-line diagnostic naming its bad argument.
const DOCUMENTED_ERRORS: [(&str, &str); 6] = [
    ("trace --hash --bogus", "--bogus: unknown flag"),
    ("sweep --job 4", "--job: unknown flag"),
    ("overload --bench x", "--bench: unknown flag"),
    ("load --nics dma", "--nics: unknown flag"),
    ("net --trace t.json", "--trace: unknown flag"),
    ("trace --hash extra", "`extra`: unexpected argument"),
];

/// The docs' `figures` commands pass the real CLI: each is run with an
/// unknown sentinel flag appended, so nothing runs, and the diagnostic
/// must name the sentinel, which the parser reaches only when every
/// argument before it is one the mode reads. A documented error example
/// must instead exit 2 naming its own bad argument, and `figures --help`
/// exit 0; each of those must be found in the docs.
#[test]
fn every_documented_figures_command_parses() {
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("SKILL.md", include_str!("../.claude/skills/verify/SKILL.md")),
    ];
    let sentinel = "--no-such-flag-sentinel";
    let (mut checked, mut errors_seen, mut help_seen) = (0, Vec::new(), false);
    let mut broken = Vec::new();
    for (name, text) in docs {
        for mut args in doc_commands(text) {
            let command = args.join(" ");
            let expected_error = DOCUMENTED_ERRORS.iter().find(|e| e.0 == command);
            args.push(sentinel.into());
            let out = figures(&args.iter().map(String::as_str).collect::<Vec<_>>());
            let err = String::from_utf8_lossy(&out.stderr);
            let ok = if command == "--help" {
                help_seen = true;
                out.status.code() == Some(0) && out.stdout.starts_with(b"Regenerates")
            } else if let Some(&(_, diagnostic)) = expected_error {
                errors_seen.push(command.clone());
                out.status.code() == Some(2) && err.starts_with(diagnostic)
            } else {
                out.status.code() == Some(2) && err.starts_with(sentinel)
            };
            if !ok {
                broken.push(format!("{name}: figures {command}: {}", err.trim()));
            }
            checked += 1;
        }
    }
    assert!(checked >= 60, "found only {checked} documented commands");
    assert!(broken.is_empty(), "documented commands the CLI rejects:\n{}", broken.join("\n"));
    assert!(help_seen, "`figures --help` is documented");
    for (command, _) in DOCUMENTED_ERRORS {
        assert!(errors_seen.iter().any(|c| c == command), "`figures {command}` is documented");
    }
}

/// `--rates` reads a scenario's rate grammar: `1e3` runs exactly as
/// `1000`, and a value that is not a positive whole rate exits 2 naming
/// what was typed.
#[test]
fn rates_read_with_the_scenario_rate_grammar() {
    let run =
        |rate: &str| figures(&["load", "--mech", "prefetch", "--requests", "20", "--rates", rate]);
    for bad in ["-5k", "0", "nan"] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().count(), 1, "{err}");
        let diagnostic = format!("--rates: `{bad}` is not a positive whole rate");
        assert!(err.starts_with(&diagnostic), "{err}");
        assert!(out.stdout.is_empty(), "{bad} must not run anything");
    }
    let (exp, plain) = (run("1e3"), run("1000"));
    assert_eq!(exp.status.code(), Some(0), "{}", String::from_utf8_lossy(&exp.stderr));
    assert!(!plain.stdout.is_empty());
    assert_eq!(String::from_utf8_lossy(&exp.stdout), String::from_utf8_lossy(&plain.stdout));
}

#[test]
fn help_prints_the_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = figures(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("Regenerates the figures of the paper's evaluation"), "{text}");
        assert!(text.contains("`figures sweep`"), "{text}");
        assert!(!text.contains("fig2 — "), "{flag} printed a figure table");
        assert!(out.stderr.is_empty(), "{flag} ran the figure suite");
    }
}

#[test]
fn invalid_serving_specs_are_reported_as_such() {
    let out = figures(&[
        "net",
        "--topos",
        "fanout0",
        "--nics",
        "dma",
        "--rates",
        "250k",
        "--requests",
        "20",
    ]);
    assert_eq!(out.status.code(), Some(1), "an error row fails the run");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("invalid serving spec: fan-out width must be at least 1"), "{table}");
    assert!(!table.contains("fault plan"), "{table}");

    let out = figures(&["load", "--queue-cap", "0", "--mech", "prefetch", "--rates", "250k"]);
    assert_eq!(out.status.code(), Some(1));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("invalid serving spec: queue capacity must be at least 1"), "{table}");
}

/// The flags each serving preset reads besides the ones all four read:
/// what its `ServingFlags::preset` constructor uses, nothing more.
const PRESET_FLAGS: [(&str, &[&str]); 4] = [
    ("load", &["--faults", "--slo-p99", "--slo-p999", "--mech"]),
    (
        "net",
        &[
            "--faults", "--slo-p99", "--rx-queues", "--flows", "--link-gbps", "--net-jitter",
            "--nics", "--topos",
        ],
    ),
    ("blame", &["--faults", "--mech", "--topos", "--trace"]),
    ("overload", &["--slo-p99", "--policies"]),
];

/// Each serving preset reads the shared flags and its own, and exits 2
/// naming any flag of the other presets that it does not read (`--trace`
/// outside `blame` among them); `blame --trace` writes its trace.
#[test]
fn each_serving_preset_rejects_the_flags_it_does_not_read() {
    let shared = [
        "--jobs", "--seed", "--json", "--csv", "--service", "--requests", "--queue-cap", "--cores",
        "--fibers", "--rates",
    ];
    let sentinel = "--no-such-flag-sentinel";
    for (preset, own) in PRESET_FLAGS {
        let mut args = vec![preset, "--full"];
        args.extend(shared.iter().chain(own).flat_map(|f| [*f, "1"]));
        args.push(sentinel);
        let err = String::from_utf8_lossy(&figures(&args).stderr).into_owned();
        assert!(err.starts_with(sentinel), "{preset} must read all of {args:?}: {err}");

        let mut unread: Vec<&str> =
            PRESET_FLAGS.iter().flat_map(|(_, f)| *f).copied().filter(|f| !own.contains(f)).collect();
        unread.sort_unstable();
        unread.dedup();
        for flag in unread {
            let out = figures(&[preset, flag, "x"]);
            assert_eq!(out.status.code(), Some(2), "{preset} {flag}");
            let err = String::from_utf8_lossy(&out.stderr);
            let diagnostic = format!("{flag}: unknown flag for `figures {preset}`");
            assert!(err.starts_with(&diagnostic), "{err}");
            assert!(out.stdout.is_empty(), "{preset} {flag} must not run anything");
        }
    }
    let trace = scratch("blame.trace");
    let _ = std::fs::remove_file(&trace);
    let small = ["--mech", "swq", "--rates", "250k", "--requests", "20", "--topos", "rpc"];
    let mut args = vec!["blame", "--trace", trace.to_str().unwrap()];
    args.extend(small);
    let out = figures(&args);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace.exists(), "blame --trace");
}

/// `figures --faults` reads a plan in the grammar of a scenario's
/// `[faults]` section: a fractional `_ns` value runs, exactly as the
/// integer it equals, and a key given twice exits 2 naming its line.
#[test]
fn fault_plans_read_with_the_scenario_grammar() {
    let run = |name: &str, plan: &str| {
        let path = scratch(name);
        std::fs::write(&path, plan).expect("write plan");
        let small = ["--service", "echo", "--mech", "swq", "--rates", "250k", "--requests", "20"];
        let mut args = vec!["load", "--faults", path.to_str().unwrap()];
        args.extend(small);
        figures(&args)
    };
    let float = run("float-ns.toml", "latency_spike_prob = 0.05\nlatency_spike_ns = 2.5e4\n");
    assert_eq!(float.status.code(), Some(0), "{}", String::from_utf8_lossy(&float.stderr));
    let int = run("int-ns.toml", "latency_spike_prob = 0.05\nlatency_spike_ns = 25000\n");
    assert_eq!(int.status.code(), Some(0), "{}", String::from_utf8_lossy(&int.stderr));
    assert_eq!(String::from_utf8_lossy(&float.stdout), String::from_utf8_lossy(&int.stdout));

    let out = run("duplicate-key.toml", "stall_prob = 0.1\nstall_prob = 0.2\n");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("line 2: duplicate key `stall_prob`"), "{err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn scenario_json_escapes_the_name() {
    let toml = scratch("escaped-name.toml");
    let json = scratch("escaped-name.json");
    std::fs::write(
        &toml,
        "name = \"calm\\q\"\n[traffic]\narrival = \"poisson\"\nrate_rps = 2.0e5\nrequests = 20\n",
    )
    .expect("write scenario");
    let out = figures(&["scenario", toml.to_str().unwrap(), "--json", json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&json).expect("json written");
    assert!(text.starts_with("{\n  \"scenario\": \"calm\\\\q\",\n"), "{text}");
}
