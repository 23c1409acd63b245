//! Golden-trace snapshots: the canonical scenarios' event streams are
//! pinned — hash, event count, and the first events rendered line-by-line.
//!
//! A bare hash mismatch is useless for debugging, so each golden also
//! stores a prefix of the decoded stream; on failure the test reports the
//! first diverging event with context instead of just "hash changed".
//!
//! Regenerate after an intentional instrumentation change with:
//!
//! ```sh
//! KUS_BLESS=1 cargo test -q --test golden_trace
//! ```
//!
//! and review the golden diff like any other code change.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use kus_sim::trace::{chrome_json, EventName};
use kus_workloads::trace_scenarios::{
    run_trace_scenario, run_trace_scenario_opts, trace_scenario_experiment, trace_scenarios,
};

/// Events snapshotted per scenario (the full stream is pinned by the hash).
const PREFIX: usize = 40;

/// Seed the goldens are recorded at (the `figures --trace` default).
const SEED: u64 = 0xC0FFEE;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/goldens/trace_{name}.txt"))
}

fn snapshot(name: &str) -> String {
    let r = run_trace_scenario(name, SEED).expect("canonical scenario");
    let t = r.trace.expect("traced run");
    let mut s = String::new();
    writeln!(s, "hash {:016x}", t.hash).unwrap();
    writeln!(s, "count {}", t.count).unwrap();
    for e in t.events.iter().take(PREFIX) {
        writeln!(s, "{}", e.render()).unwrap();
    }
    s
}

/// Lines up to the first divergence, the divergence itself, and a little
/// context — a readable event diff rather than a bare hash mismatch.
fn first_divergence(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let common = exp.iter().zip(&act).take_while(|(a, b)| a == b).count();
    let mut out = String::new();
    writeln!(out, "first divergence at line {} (1-based):", common + 1).unwrap();
    let from = common.saturating_sub(3);
    for line in &exp[from..common.min(exp.len())] {
        writeln!(out, "    {line}").unwrap();
    }
    match (exp.get(common), act.get(common)) {
        (Some(e), Some(a)) => {
            writeln!(out, "  - {e}").unwrap();
            writeln!(out, "  + {a}").unwrap();
        }
        (Some(e), None) => writeln!(out, "  - {e}\n  + <stream ended>").unwrap(),
        (None, Some(a)) => writeln!(out, "  - <golden ended>\n  + {a}").unwrap(),
        (None, None) => writeln!(out, "  (streams equal; length differs earlier?)").unwrap(),
    }
    for line in act.iter().skip(common + 1).take(3) {
        writeln!(out, "    {line}").unwrap();
    }
    out
}

fn check_scenario(name: &str) {
    let path = golden_path(name);
    let actual = snapshot(name);
    if std::env::var("KUS_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run `KUS_BLESS=1 cargo test -q --test golden_trace`",
            path.display()
        )
    });
    if expected != actual {
        panic!(
            "{name}: trace diverged from golden {}\n{}\nIf the change is intentional, re-bless \
             with KUS_BLESS=1 and review the diff.",
            path.display(),
            first_divergence(&expected, &actual),
        );
    }
}

#[test]
fn golden_ondemand_baseline() {
    check_scenario("ondemand-baseline");
}

#[test]
fn golden_swq_optimized() {
    check_scenario("swq-optimized");
}

#[test]
fn golden_chaos_stalls() {
    check_scenario("chaos-stalls");
}

/// FNV-1a-64 over `bytes`: the digest the Chrome export pins below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The committed fingerprints, pinned in *source* as well as in the golden
/// files. The golden files can be re-blessed with one environment variable;
/// these constants cannot — changing them requires editing this test, so an
/// unintentional event-stream change (e.g. from a scheduler rewrite) fails
/// even if the goldens were blindly regenerated. Update both together, on
/// purpose. The last column digests the scenario's `chrome_json` export, so
/// an exporter change that moves one byte of the Perfetto document fails
/// here too. The second table pins each scenario's stream again with the
/// profile class on and with the deep class on, so a gated event that moves
/// fails here even though the base stream stays put.
#[test]
fn golden_fingerprints_pinned_in_source() {
    const PINNED: &[(&str, u64, u64, u64)] = &[
        ("ondemand-baseline", 0x440dedf29d4e87c9, 676, 0x3bb9fb963e6820e7),
        ("swq-optimized", 0x1e0aea9385dfef96, 4407, 0x83cf6d5f5b019d72),
        ("chaos-stalls", 0x9f24373df863c08a, 2787, 0xb9d17ca5bb240260),
    ];
    // (name, profile hash, profile count, deep hash, deep count)
    const CLASSES: &[(&str, u64, u64, u64, u64)] = &[
        ("ondemand-baseline", 0x738f9ff852b331e9, 1319, 0x6e63468dc784ee13, 724),
        ("swq-optimized", 0x76b353c2a67a41a4, 7338, 0xd067d6a81143ed52, 4727),
        ("chaos-stalls", 0x3408fc1fe3f2ab5c, 53361, 0x79903e69566933a4, 2867),
    ];
    for &(name, hash, count, deep_hash, deep_count) in CLASSES {
        let exp = trace_scenario_experiment(name, SEED, false).expect("canonical scenario");
        let profiled = exp.with_config(exp.config().clone().profiled()).expect("valid config");
        let t = profiled.run().trace.expect("traced run");
        assert_eq!((t.hash, t.count), (hash, count), "{name}: profile-class fingerprint diverged");
        let r = run_trace_scenario_opts(name, SEED, true).expect("canonical scenario");
        let t = r.trace.expect("traced run");
        assert_eq!((t.hash, t.count), (deep_hash, deep_count), "{name}: deep-class fingerprint diverged");
    }
    for &(name, hash, count, chrome) in PINNED {
        let r = run_trace_scenario(name, SEED).expect("canonical scenario");
        let t = r.trace.expect("traced run");
        assert_eq!(
            (t.hash, t.count),
            (hash, count),
            "{name}: trace fingerprint diverged from the source-pinned golden"
        );
        let json = chrome_json(&t.events);
        assert_eq!(
            fnv1a(json.as_bytes()),
            chrome,
            "{name}: Chrome export diverged from the source-pinned digest (got {:#018x})",
            fnv1a(json.as_bytes())
        );
    }
}

/// Every canonical scenario has a golden test above — fail loudly if a new
/// scenario is added without pinning it.
#[test]
fn all_scenarios_are_pinned() {
    let pinned = ["ondemand-baseline", "swq-optimized", "chaos-stalls"];
    for s in trace_scenarios() {
        assert!(
            pinned.contains(&s.name),
            "scenario {} has no golden test — add one and bless it",
            s.name
        );
    }
}

/// DESIGN.md §8b's taxonomy table lists exactly the registry: per
/// category row, the backticked names equal `EventName::ALL` grouped by
/// `category()`, so a name added, renamed or moved to another category
/// must be documented where it lands.
#[test]
fn design_taxonomy_lists_every_event_name() {
    let design = include_str!("../DESIGN.md");
    let table = design
        .split_once("**Event taxonomy**")
        .and_then(|(_, rest)| rest.split_once("| Category | Events |"))
        .expect("DESIGN.md has the event taxonomy table")
        .1;
    let mut documented: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let (cat, events) = row[1..].split_once('|').expect("a two-column row");
        let names = documented.entry(cat.trim().trim_matches('`').to_string()).or_default();
        for name in events.split('`').skip(1).step_by(2) {
            assert!(names.insert(name.to_string()), "{name} listed twice in its row");
        }
    }
    let mut registry: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for &name in EventName::ALL {
        let cat = name.category().label().to_string();
        registry.entry(cat).or_default().insert(name.as_str().to_string());
    }
    assert_eq!(documented, registry, "DESIGN.md §8b taxonomy and EventName::ALL differ");
}
