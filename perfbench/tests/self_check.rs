//! Tiny-size self-check of the benchmark: every workload, traced and
//! untraced, emits exactly the metrics `BENCHMARK.json` declares, each
//! with its declared unit, and fails no operation.

use rpdbscan_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Value::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("missing key {key:?} in {v}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        other => panic!("expected a number, got {other}"),
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    field(bench, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
        .collect()
}

fn workloads(bench: &Value) -> Vec<String> {
    field(bench, "workloads")
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| text(field(w, "name")).to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_and_fails_nothing() {
    let root = repo_root();
    let bench = load(&root.join("BENCHMARK.json"));
    let out_dir = root.join(".bench_out").join("self-check");
    for workload in workloads(&bench) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&root)
                .args(["--workload", &workload, "--seed", "3", "--seconds", "2"])
                .args(["--trace", trace, "--smoke", "--out-dir"])
                .arg(&out_dir)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Value::parse(last).expect("the last line is JSON");
            let keys: Vec<&String> = result.as_object().expect("object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{workload}: {stdout}"
            );
            assert_eq!(
                number(field(&result, "failed")),
                0.0,
                "{workload}: failed_frac must be 0"
            );
            assert!(number(field(&result, "attempted")) >= 1.0);
            let metrics = field(&result, "metrics")
                .as_object()
                .expect("metrics object");
            let want = declared(&bench, list);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload} trace {trace}: metric count"
            );
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} missing"));
                assert_eq!(text(field(m, "unit")), unit, "{workload}: unit of {name}");
                assert!(number(field(m, "value")).is_finite());
            }
            if trace == "1" {
                let trace_file = out_dir.join(format!("{workload}-seed3-trace1.trace.json"));
                assert!(load(&trace_file).as_array().is_some_and(|a| !a.is_empty()));
                // The untraced run above is the base of the tracing overhead.
                let result_file = load(&out_dir.join(format!("{workload}-seed3-trace1.json")));
                let base = field(field(&result_file, "trace_overhead_base"), "untraced");
                assert!(number(base) > 0.0, "{workload}: no untraced base");
            }
        }
    }
}

#[test]
fn benchmark_json_matches_the_design() {
    let root = repo_root();
    let bench = load(&root.join("BENCHMARK.json"));
    let design = load(&root.join("perfbench").join("design.json"));
    let designed = field(&design, "workloads").as_object().expect("workloads");
    let names = workloads(&bench);
    assert_eq!(
        names.iter().collect::<Vec<_>>(),
        designed.keys().collect::<Vec<_>>()
    );
    for w in field(&bench, "workloads").as_array().expect("workloads") {
        let name = text(field(w, "name"));
        assert_eq!(
            field(w, "why"),
            field(&designed[name], "why"),
            "why of {name}"
        );
    }
    for m in field(&bench, "end_to_end").as_array().expect("end_to_end") {
        let bound = number(field(m, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m}");
    }
    let setup = declared(&bench, "end_to_end");
    assert!(setup.contains(&("setup_s".into(), "s".into())));
}
