//! `BENCHMARK.json` at the repository root describes exactly what the
//! benchmark reports.

use ch_common::json::Json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_catalogue() {
    let s = spec();
    assert_eq!(names_units(s.get("end_to_end").unwrap()), owned(END_TO_END));
    assert_eq!(names_units(s.get("per_layer").unwrap()), owned(PER_LAYER));
}

#[test]
fn workloads_match_and_bounds_are_within_limits() {
    let s = spec();
    let names: Vec<&str> = s
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let bounds: Vec<(String, f64)> = s
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
            (name, m.get("bound").and_then(Json::as_f64).unwrap())
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
    for (name, b) in &bounds {
        assert!(*b > 0.0 && *b <= 0.25, "{name} bound {b}");
        assert!(
            *b <= setup,
            "setup_s must have the largest bound, not {name}"
        );
    }
}
