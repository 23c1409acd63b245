//! The `figures` binary's input handling, end to end:
//!
//! 1. **No silent defaults** — a flag with no value, or a flag the mode
//!    does not read, exits 2 with a diagnostic instead of running the
//!    defaults; `--help` prints the usage and runs nothing.
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
    let cases = [(&["trace", "--hash", "--bogus"][..], "--bogus"), (&["sweep", "--job", "4"], "--job")];
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

#[test]
fn only_blame_traces_and_only_overload_benches() {
    let small = ["--mech", "swq", "--rates", "250k", "--requests", "20", "--topos", "rpc"];
    for preset in ["load", "blame"] {
        let (trace, bench) =
            (scratch(&format!("{preset}.trace")), scratch(&format!("{preset}.bench")));
        let _ = (std::fs::remove_file(&trace), std::fs::remove_file(&bench));
        let mut args = vec![preset, "--trace", trace.to_str().unwrap()];
        args.extend(["--bench", bench.to_str().unwrap()]);
        args.extend(small);
        let out = figures(&args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(trace.exists(), preset == "blame", "{preset} --trace");
        assert!(!bench.exists(), "{preset} --bench");
    }
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
