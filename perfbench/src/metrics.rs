//! The benchmark's metric tables and its one-line JSON result.
//!
//! The tables here are the single source of the names the command prints;
//! `BENCHMARK.json` at the repository root must list the same names and
//! units in the same order (pinned by `tests/contract.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced run (`--trace 0`): what a user of the engine
/// waits for and pays.
pub const END_TO_END: &[MetricDef] = &[
    m("jobs_per_s", "1/s"),
    m("batch_p50_ms", "ms"),
    m("batch_p90_ms", "ms"),
    m("verdict_match_rate", "ratio"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of the traced run (`--trace 1`), one group per engine layer.
/// Counts are per cycle: one batch on the suite workloads, one pass over
/// the three corpus slices on `corpus-cold`.
pub const PER_LAYER: &[MetricDef] = &[
    m("spec.materialize_us", "us"),
    m("corpus.synthesize_ms", "ms"),
    m("session.snapshot_ns", "ns"),
    m("campaign.clean_run_us", "us"),
    m("campaign.plan_us", "us"),
    m("catalog.faults", "count"),
    m("analysis.build_us", "us"),
    m("analysis.classify_us", "us"),
    m("analysis.classify_ms_total", "ms"),
    m("analysis.pruned", "count"),
    m("analysis.prune_ratio", "ratio"),
    m("analysis.net_saving_ms", "ms"),
    m("planner.fault_key_us", "us"),
    m("planner.aliased", "count"),
    m("planner.dedup_ratio", "ratio"),
    m("planner.cache_hits", "count"),
    m("planner.cache_misses", "count"),
    m("run.inject_us", "us"),
    m("run.app_us", "us"),
    m("run.harness_us", "us"),
    m("run.executed", "count"),
    m("run.events_per_run", "count"),
    m("oracle.ns_per_event", "ns"),
    m("oracle.verdicts", "count"),
    m("executor.overhead_us_per_job", "us"),
    m("executor.peak_workers", "count"),
    m("executor.cpu_util", "ratio"),
    m("suite.app_span_ms", "ms"),
    m("suite.critical_path_ms", "ms"),
    m("suite.first_finding_p50_ms", "ms"),
    m("suite.residual_ms", "ms"),
    m("suite.injected", "count"),
    m("suite.executed", "count"),
    m("suite.replayed", "count"),
    m("suite.pruned", "count"),
    m("store.load_us", "us"),
    m("store.loads", "count"),
    m("store.hits", "count"),
    m("store.hit_ratio", "ratio"),
    m("store.save_us", "us"),
    m("store.saves", "count"),
    m("store.saves_per_run", "ratio"),
    m("intern.hits", "count"),
    m("intern.misses", "count"),
    m("trace.overhead_pct", "%"),
];

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// When `name` is not a legal metric name or is recorded twice: both
    /// are bugs in the benchmark itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(self.0.insert(name, value).is_none(), "metric {name} recorded twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: exactly the metrics of `defs`, each with its unit, in
/// table order.
///
/// # Errors
///
/// A message naming every metric of `defs` that was not recorded, every
/// recorded name outside `defs`, and every value that is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut problems = Vec::new();
    for name in values.0.keys() {
        if !defs.iter().any(|d| d.name == *name) {
            problems.push(format!("{name} is not in the metric table"));
        }
    }
    let mut body = String::new();
    for (i, def) in defs.iter().enumerate() {
        match values.get(def.name) {
            None => problems.push(format!("{} was not measured", def.name)),
            Some(v) if !v.is_finite() => problems.push(format!("{} is not finite ({v})", def.name)),
            Some(v) => {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    body,
                    "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                );
            }
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}
