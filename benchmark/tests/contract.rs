//! The benchmark against its own declaration: `BENCHMARK.json` says what
//! the tables in `src/metrics.rs` say, and a run prints exactly the
//! names it declares.

use std::collections::BTreeSet;

use accelerated_heartbeat::chaos::json::Value;
use hb_benchmark::harness::{self, Options, DEFAULT_SECONDS, DEFAULT_SEED};
use hb_benchmark::metrics::{self, END_TO_END, PER_LAYER, UNIVERSAL, WORKLOADS};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Value::parse(&text).expect("BENCHMARK.json is JSON")
}

fn text(v: &Value, key: &str) -> String {
    v.field(key).unwrap().as_str().unwrap().to_string()
}

fn names(v: &Value, key: &str) -> Vec<String> {
    let entries = v.field(key).unwrap().as_arr().unwrap();
    entries.iter().map(|e| text(e, "name")).collect()
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj().unwrap().keys().map(String::as_str).collect()
}

#[test]
fn benchmark_json_says_what_the_tables_say() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        let arr = m.field(key).unwrap().as_arr().unwrap();
        arr.iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings("paths"), ["benchmark"]);
    assert_eq!(
        m.field("run_seconds").unwrap().as_f64().unwrap(),
        DEFAULT_SECONDS
    );

    let workloads = m.field("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (declared, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(declared), ["name", "why"]);
        assert_eq!(text(declared, "name"), w.name);
        assert_eq!(text(declared, "why"), w.why);
    }

    let end_to_end = m.field("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(names(&m, "end_to_end"), UNIVERSAL);
    for declared in end_to_end {
        assert_eq!(keys(declared), ["better", "bound", "name", "unit"]);
        let table = metrics::end_to_end(&text(declared, "name")).unwrap();
        assert_eq!(text(declared, "unit"), table.unit);
        assert_eq!(text(declared, "better"), table.better.as_str());
        assert_eq!(
            declared.field("bound").unwrap().as_f64().unwrap(),
            table.bound
        );
    }
    assert!(names(&m, "end_to_end").contains(&"setup_s".to_string()));

    let per_layer = m.field("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (declared, layer) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(declared), ["better", "name", "unit"]);
        assert_eq!(text(declared, "name"), layer.name);
        assert_eq!(text(declared, "unit"), layer.unit);
        assert_eq!(text(declared, "better"), layer.better.as_str());
    }
}

/// The metric names of a driver line, after checking its shape.
fn printed(line: &str) -> BTreeSet<String> {
    let v = Value::parse(line).expect("the driver line is JSON");
    assert_eq!(keys(&v), ["attempted", "correct", "failed", "metrics"]);
    assert!(v.field("correct").unwrap().as_bool().unwrap(), "{line}");
    assert!(v.field("attempted").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(v.field("failed").unwrap().as_u64().unwrap(), 0);
    let metrics = v.field("metrics").unwrap().as_obj().unwrap();
    for m in metrics.values() {
        assert_eq!(keys(m), ["unit", "value"]);
        assert!(m.field("value").unwrap().as_f64().unwrap().is_finite());
    }
    metrics.keys().cloned().collect()
}

#[test]
fn a_smoke_run_prints_exactly_the_declared_names() {
    let m = manifest();
    let declared = |key: &str| -> BTreeSet<String> { names(&m, key).into_iter().collect() };
    let options = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        smoke: true,
    };
    for w in &WORKLOADS {
        let untraced = harness::run(w.name, options);
        assert!(untraced.correct(), "{}: {:?}", w.name, untraced.failures);
        assert_eq!(
            printed(&untraced.driver_line()),
            declared("end_to_end"),
            "{}",
            w.name
        );
        // Every end-to-end metric of the full table that applies shows up
        // in the result file, and none that does not.
        let reported: Vec<&str> = untraced.end_to_end.iter().map(|(m, _)| m.name).collect();
        let applies: Vec<&str> = END_TO_END
            .iter()
            .filter(|e| e.applies_to(w.name))
            .map(|e| e.name)
            .collect();
        assert_eq!(reported, applies, "{}", w.name);

        let traced = harness::run_traced(w.name, options);
        assert!(traced.correct(), "{}: {:?}", w.name, traced.failures);
        assert_eq!(
            printed(&traced.driver_line()),
            declared("per_layer"),
            "{}",
            w.name
        );
        assert!(traced
            .trace
            .is_some_and(|t| t.roll(hb_benchmark::trace::Name::Round).count == 1));
    }
}
