//! `BENCHMARK.json` at the repository root must describe exactly what the
//! benchmark emits: the same workloads, and the same metric names, units
//! and directions, one to one.
//!
//! The file keeps each workload and metric object on a line of its own, so
//! the check reads it line by line instead of parsing JSON in general.

use perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::Workload;

/// The one-line objects of the list `list` in BENCHMARK.json.
fn objects(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('"') && line.ends_with('[') {
            current = line.split('"').nth(1).unwrap_or_default();
        } else if line.starts_with('{') && current == list {
            out.push(line.trim_end_matches(',').to_string());
        }
    }
    assert!(!out.is_empty(), "no {list} entries found");
    out
}

/// The keys of a one-line object, in order.
fn keys(object: &str) -> Vec<&str> {
    let parts: Vec<&str> = object.split("\": ").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|p| p.rsplit('"').next().unwrap_or_default())
        .collect()
}

/// The value of `key` in a one-line object: a string's contents or a
/// number's text.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let rest = object
        .split_once(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("{object}: no {key}"))
        .1;
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next().unwrap_or_default(),
        None => rest.split([',', '}']).next().unwrap_or_default().trim(),
    }
}

fn bound(object: &str) -> f64 {
    field(object, "bound")
        .parse()
        .unwrap_or_else(|_| panic!("{object}: bound is not a number"))
}

fn check_metrics(list: &str, declared: &[MetricDef], bounded: bool) {
    let listed = objects(list);
    assert_eq!(
        listed.len(),
        declared.len(),
        "{list}: count differs from the emitted set"
    );
    let expected: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    for (object, def) in listed.iter().zip(declared) {
        assert_eq!(keys(object), expected, "{list}: keys of {object}");
        assert_eq!(field(object, "name"), def.name, "{list}: order or name");
        assert_eq!(field(object, "unit"), def.unit, "{}: unit", def.name);
        assert_eq!(
            field(object, "better"),
            def.better.as_str(),
            "{}: better",
            def.name
        );
        assert!(valid_name(def.name), "{}", def.name);
        if bounded {
            let b = bound(object);
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", def.name);
        }
    }
}

#[test]
fn metrics_match_the_emitted_names_one_to_one() {
    check_metrics("end_to_end", END_TO_END, true);
    check_metrics("per_layer", PER_LAYER, false);
}

#[test]
fn workloads_match_the_benchmark() {
    let listed = objects("workloads");
    let names: Vec<&str> = listed
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(!field(w, "why").is_empty());
            field(w, "name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);
    assert!(names.iter().all(|n| valid_name(n)));
}

#[test]
fn setup_s_has_the_largest_bound() {
    let listed = objects("end_to_end");
    let setup = listed
        .iter()
        .find(|o| field(o, "name") == "setup_s")
        .map(|o| bound(o))
        .expect("setup_s");
    assert!(listed.iter().all(|o| bound(o) <= setup));
}
