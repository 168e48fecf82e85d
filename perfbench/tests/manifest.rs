//! `BENCHMARK.json` at the repository root lists exactly the metrics this
//! package prints, with the same units, in the same order.

use lcl_serve::json::{self, Json};
use perfbench::report::RunResult;

fn manifest() -> Json {
    let path = perfbench::report::bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(manifest: &Json, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    let printed: Vec<(String, String)> = perfbench::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&manifest(), "per_layer"), printed);
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    let mut r = RunResult::default();
    r.end_to_end(1.0, 1.0, 1.0, 1.0);
    let printed: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(listed(&manifest(), "end_to_end"), printed);
}

#[test]
fn workloads_match_the_manifest() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = perfbench::Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(names, ours);
}
