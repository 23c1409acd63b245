//! The benchmark's contract with `BENCHMARK.json`: a run emits exactly the
//! metrics it declares, with the declared units and directions, and a
//! smoke-size run repeats bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use kusbench::json::Json;
use kusbench::measure::{measure, Measurement, Plan};
use kusbench::metrics::{END_TO_END, PER_LAYER};
use kusbench::report::{benchmark_json_path, WorkloadResult};
use kusbench::workload::{inputs, Size, Workload, WORKLOADS};

fn spec() -> Json {
    let text = std::fs::read_to_string(benchmark_json_path()).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn declared(spec: &Json, list: &str) -> BTreeMap<String, (String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.str(k).expect("metric field").to_string();
            (field("name"), (field("unit"), field("better")))
        })
        .collect()
}

fn smoke(w: Workload) -> Measurement {
    let plan = Plan {
        workload: w,
        seed: 3,
        seconds: 0.0,
        trace: true,
        size: Size::Smoke,
        process: 0,
        processes: 1,
        trace_out: None,
    };
    measure(&plan, Instant::now()).expect("a smoke run completes")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn a_run_emits_exactly_the_declared_metrics() {
    let spec = spec();
    let (e2e, layer) = (declared(&spec, "end_to_end"), declared(&spec, "per_layer"));
    let catalogue = |list: &[kusbench::metrics::Metric]| -> BTreeMap<String, (String, String)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    (m.unit.to_string(), m.better.to_string()),
                )
            })
            .collect()
    };
    assert_eq!(catalogue(&END_TO_END), e2e);
    assert_eq!(catalogue(&PER_LAYER), layer);
    for name in e2e.keys().chain(layer.keys()) {
        assert!(valid_name(name), "metric name {name:?}");
    }

    let m = smoke(Workload::FanoutLong);
    let result = WorkloadResult::new(Workload::FanoutLong, &[m]);
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let emitted_e2e = sorted(
        result
            .end_to_end()
            .iter()
            .map(|r| r.name.to_string())
            .collect(),
    );
    assert_eq!(emitted_e2e, e2e.keys().cloned().collect::<Vec<_>>());
    let emitted_layer = sorted(
        result
            .merged
            .per_layer
            .iter()
            .map(|(n, _)| n.clone())
            .collect(),
    );
    assert_eq!(emitted_layer, layer.keys().cloned().collect::<Vec<_>>());

    for (trace, names) in [(false, &e2e), (true, &layer)] {
        let line = Json::parse(&result.result_line(trace)).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.num("attempted").expect("attempted") >= 1.0);
        let metrics = line
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.str("unit").expect("unit").to_string()))
            .collect();
        let want: BTreeMap<String, String> = names
            .iter()
            .map(|(k, (u, _))| (k.clone(), u.clone()))
            .collect();
        assert_eq!(got, want);
    }
}

#[test]
fn smoke_runs_repeat_bit_for_bit() {
    for w in WORKLOADS {
        let inp = inputs(w, Size::Smoke);
        let (a, b) = (inp.pass(21), inputs(w, Size::Smoke).pass(21));
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_ne!(
            a.digest,
            inp.pass(22).digest,
            "{}: the seed must reach the outputs",
            w.name()
        );

        let (x, y) = (smoke(w), smoke(w));
        assert_eq!(
            (x.attempted, x.failed),
            (y.attempted, y.failed),
            "{}",
            w.name()
        );
        assert_eq!(x.failed, 0, "{}: {:?}", w.name(), x.failures);
        let counts = |m: &Measurement| -> Vec<(String, f64)> {
            let is_count = |n: &str| PER_LAYER.iter().any(|p| p.name == n && p.unit == "count");
            m.per_layer
                .iter()
                .filter(|(n, _)| is_count(n))
                .cloned()
                .collect()
        };
        assert_eq!(counts(&x), counts(&y), "{}", w.name());
    }
}
