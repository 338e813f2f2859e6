//! The metric tables, the printed result line, and `BENCHMARK.json` agree.

use epa_perfbench::metrics::{result_line, valid_name, Values, END_TO_END, PER_LAYER};
use epa_perfbench::workload::{repo_root, Workload};
use serde::Deserialize;

#[derive(Deserialize)]
struct Bench {
    workloads: Vec<NamedWorkload>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct NamedWorkload {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn bench() -> Bench {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pairs(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let bench = bench();
    let table = |defs: &[epa_perfbench::metrics::MetricDef]| -> Vec<(&str, &str)> {
        defs.iter().map(|d| (d.name, d.unit)).collect()
    };
    assert_eq!(pairs(&bench.end_to_end), table(END_TO_END));
    assert_eq!(pairs(&bench.per_layer), table(PER_LAYER));
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, known);
}

#[test]
fn every_table_name_is_legal_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "{}", def.name);
        assert!(seen.insert(def.name), "{} listed twice", def.name);
    }
}

#[test]
fn names_outside_the_alphabet_are_rejected() {
    for bad in [
        "",
        "-lead",
        ".lead",
        "has space",
        "semi;colon",
        "slash/",
        "quote\"",
        "ünïcode",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    for good in [
        "a",
        "jobs_per_s",
        "store.load_us",
        "trace.overhead_pct",
        "9lives",
        "a-b",
    ] {
        assert!(valid_name(good), "{good:?} rejected");
    }
}

#[test]
#[should_panic(expected = "illegal metric name")]
fn recording_an_illegal_name_panics() {
    Values::default().set("bad name", 1.0);
}

#[test]
fn the_result_line_prints_exactly_the_table() {
    let mut values = Values::default();
    for (i, def) in END_TO_END.iter().enumerate() {
        values.set(def.name, i as f64 + 0.5);
    }
    let line = result_line(true, 3, 0, END_TO_END, &values).expect("complete table");
    let parsed: serde::Value = parse(&line);
    let top = parsed.as_map().expect("an object");
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = top[3].1.as_map().expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(printed, expected);

    // A missing metric, an extra one, or a non-finite value is refused.
    let mut partial = Values::default();
    partial.set(END_TO_END[0].name, 1.0);
    assert!(result_line(true, 1, 0, END_TO_END, &partial).is_err());
    let mut extra = Values::default();
    for def in END_TO_END {
        extra.set(def.name, 1.0);
    }
    extra.set("not_in_the_table", 1.0);
    assert!(result_line(true, 1, 0, END_TO_END, &extra).is_err());
    let mut nan = Values::default();
    for def in END_TO_END {
        nan.set(def.name, f64::NAN);
    }
    assert!(result_line(true, 1, 0, END_TO_END, &nan).is_err());
}

/// Parses JSON text into the serde stand-in's value tree.
fn parse(text: &str) -> serde::Value {
    struct Raw(serde::Value);
    impl serde::Deserialize for Raw {
        fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
            Ok(Raw(v.clone()))
        }
    }
    serde_json::from_str::<Raw>(text).expect("valid JSON").0
}
