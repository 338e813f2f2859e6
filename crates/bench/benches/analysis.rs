//! The static-analysis bench and soundness gate.
//!
//! Runs the eight-application standard suite cold under three option sets:
//! *exhaustive* — the paper-faithful baseline that perturbs every traced
//! occurrence of every interaction point (dedup off, occurrence cap off,
//! static pruning off, so every planned job occupies a worker slot);
//! *planned* — the Planner's canonical plan with pruning off; and
//! *pruned* — the default (canonical-fault dedup plus the static analyzer
//! dropping `ProvablyInert` jobs). Asserts the planned and pruned verdict
//! streams are byte-identical and that every pruned-suite verdict appears
//! verbatim in the exhaustive stream, then sweeps a 120-scenario corpus
//! with pruning off/on under otherwise identical options and asserts
//! byte-identical streams there too. Writes `BENCH_analysis.json`: plan
//! sizes, executed-run counts, the reduction percentages, and the
//! cold-suite wall-clocks of each configuration (median and minimum of
//! [`SAMPLES`] cold passes, run in interleaved rounds so host drift hits
//! every configuration alike).
//!
//! Gates: verdict equality on every app and every scenario, a >= 20%
//! reduction in executed runs on the standard suite's cold pass relative
//! to the occurrence-exhaustive baseline, and a pruner that pays for
//! itself: the pruned suite's median wall-clock is at most 1.5x the
//! planned (dedup-only) suite's.

use std::time::Instant;

use epa_apps::ScriptedApp;
use epa_core::campaign::CampaignOptions;
use epa_core::corpus::{synthesize, CorpusConfig, DEFAULT_CORPUS_SEED};
use epa_core::engine::Session;
use epa_core::report::{CampaignReport, FaultRecord};

/// Canonical digest of one record, excluding the `cache_hit`/`pruned`
/// provenance flags — the same observable surface the corpus differential
/// harness compares.
fn record_line(r: &FaultRecord) -> String {
    let violations = serde_json::to_string(&r.violations).expect("verdicts serialize");
    format!(
        "{}|{}|{}|{}|{:?}|{:?}|{}|{}",
        r.site, r.occurrence, r.fault_id, r.applied, r.exit, r.crashed, r.audit_events, violations
    )
}

fn lines(report: &CampaignReport) -> Vec<String> {
    report.records.iter().map(record_line).collect()
}

/// One cold pass over the whole standard suite under `options`: per-app
/// reports in registration order, plus the wall-clock.
fn cold_suite(options: &CampaignOptions) -> (Vec<CampaignReport>, u128) {
    let suite = epa_apps::standard_suite_with_options(options.clone()).expect("the case-study specs are valid");
    let start = Instant::now();
    let report = suite.execute();
    (report.reports, start.elapsed().as_nanos())
}

/// Cold passes timed per configuration.
const SAMPLES: usize = 21;

/// The wall-clock of one configuration over its cold passes.
struct Timing {
    median_ns: u128,
    min_ns: u128,
}

impl Timing {
    fn of(mut samples: Vec<u128>) -> Timing {
        samples.sort_unstable();
        Timing {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
        }
    }
}

/// Runs [`SAMPLES`] rounds of one cold pass per configuration: the first
/// round's reports and each configuration's timing, in `configs` order.
fn timed_suites<const N: usize>(configs: [&CampaignOptions; N]) -> [(Vec<CampaignReport>, Timing); N] {
    let mut first: [Vec<CampaignReport>; N] = std::array::from_fn(|_| Vec::new());
    let mut times: [Vec<u128>; N] = std::array::from_fn(|_| Vec::with_capacity(SAMPLES));
    for round in 0..SAMPLES {
        for (i, options) in configs.iter().enumerate() {
            let (reports, ns) = cold_suite(options);
            times[i].push(ns);
            if round == 0 {
                first[i] = reports;
            }
        }
    }
    let mut times = times.into_iter();
    first.map(|reports| (reports, Timing::of(times.next().expect("one timing per configuration"))))
}

fn main() {
    let exhaustive_options = CampaignOptions {
        dedup: false,
        static_prune: false,
        max_occurrences_per_site: usize::MAX,
        ..CampaignOptions::default()
    };
    let planned_options = CampaignOptions {
        static_prune: false,
        ..CampaignOptions::default()
    };
    let pruned_options = CampaignOptions::default();
    assert!(pruned_options.static_prune, "static pruning is the default");

    // The standard suite, cold: occurrence-exhaustive vs planned vs pruned.
    let [(exhaustive, exhaustive_t), (planned, planned_t), (pruned, pruned_t)] =
        timed_suites([&exhaustive_options, &planned_options, &pruned_options]);
    let (exhaustive_ns, planned_ns, pruned_ns) = (exhaustive_t.median_ns, planned_t.median_ns, pruned_t.median_ns);
    let prune_overhead = pruned_ns as f64 / planned_ns.max(1) as f64;
    assert_eq!(exhaustive.len(), pruned.len());
    assert_eq!(planned.len(), pruned.len());
    for ((e, n), p) in exhaustive.iter().zip(&planned).zip(&pruned) {
        // Pruning must be invisible: identical streams on the common plan.
        assert_eq!(
            lines(n),
            lines(p),
            "pruned suite verdicts diverged from the planned baseline on `{}`",
            n.app
        );
        // And the canonical plan's verdicts must all appear verbatim in the
        // occurrence-exhaustive stream (which additionally carries the
        // occurrence>0 strikes the canonical plan folds away).
        let superset: std::collections::BTreeSet<String> = lines(e).into_iter().collect();
        for line in lines(p) {
            assert!(
                superset.contains(&line),
                "pruned verdict missing from the exhaustive stream on `{}`: {line}",
                p.app
            );
        }
    }

    let injected: usize = exhaustive.iter().map(CampaignReport::injected).sum();
    let exhaustive_runs: usize = exhaustive.iter().map(CampaignReport::runs_executed).sum();
    let planned_runs: usize = planned.iter().map(CampaignReport::runs_executed).sum();
    let pruned_runs: usize = pruned.iter().map(CampaignReport::runs_executed).sum();
    let pruned_records: usize = pruned.iter().map(CampaignReport::pruned).sum();
    let reduction_pct = 100.0 * (exhaustive_runs - pruned_runs) as f64 / exhaustive_runs.max(1) as f64;
    let prune_only_pct = 100.0 * (planned_runs - pruned_runs) as f64 / planned_runs.max(1) as f64;

    // The corpus sweep: identical options modulo `static_prune`, so the
    // measured delta is the analyzer's alone.
    let config = CorpusConfig {
        seed: DEFAULT_CORPUS_SEED,
        count: 120,
    };
    assert!(config.count >= 100, "the soundness gate runs at 100+-scenario scale");
    let corpus = synthesize(&config);
    let mut corpus_injected = 0usize;
    let mut corpus_pruned = 0usize;
    for scenario in &corpus {
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        let app = ScriptedApp::for_scenario(scenario);
        let off = Session::from_setup(setup.clone())
            .with_options(planned_options.clone())
            .execute(&app);
        let on = Session::from_setup(setup)
            .with_options(pruned_options.clone())
            .execute(&app);
        assert_eq!(
            lines(&off),
            lines(&on),
            "pruned corpus verdicts diverged from exhaustive on {} (seed {:#x})",
            scenario.id,
            scenario.seed
        );
        corpus_injected += on.injected();
        corpus_pruned += on.pruned();
    }
    let corpus_pruned_pct = 100.0 * corpus_pruned as f64 / corpus_injected.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"analysis\",\n  \"suite\": {{\n    \"apps\": {},\n    \"injected\": {injected},\n    \
         \"exhaustive_runs\": {exhaustive_runs},\n    \"planned_runs\": {planned_runs},\n    \
         \"pruned_runs\": {pruned_runs},\n    \"pruned_records\": {pruned_records},\n    \
         \"reduction_pct\": {reduction_pct:.2},\n    \"prune_only_pct\": {prune_only_pct:.2},\n    \
         \"samples\": {SAMPLES},\n    \"exhaustive_ns\": {exhaustive_ns},\n    \"planned_ns\": {planned_ns},\n    \
         \"pruned_ns\": {pruned_ns},\n    \"exhaustive_min_ns\": {},\n    \"planned_min_ns\": {},\n    \
         \"pruned_min_ns\": {}\n  }},\n  \"corpus\": {{\n    \
         \"seed\": {},\n    \"scenarios\": {},\n    \"injected\": {corpus_injected},\n    \
         \"pruned_records\": {corpus_pruned},\n    \"pruned_pct\": {corpus_pruned_pct:.2},\n    \
         \"divergences\": 0\n  }}\n}}\n",
        exhaustive.len(),
        exhaustive_t.min_ns,
        planned_t.min_ns,
        pruned_t.min_ns,
        config.seed,
        config.count
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_analysis.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (suite: {exhaustive_runs} -> {pruned_runs} runs, -{reduction_pct:.1}%, \
             pruned/planned wall-clock {prune_overhead:.2}x; corpus: {corpus_pruned}/{corpus_injected} pruned)",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_analysis.json not written: {e}"),
    }

    assert!(
        reduction_pct >= 20.0,
        "the pre-pruned plan must cut executed runs by >= 20% on the cold suite (got {reduction_pct:.2}%)"
    );
    assert!(
        pruned_records > 0,
        "the analyzer must prove at least one suite job inert"
    );
    assert!(
        corpus_pruned > 0,
        "the analyzer must prove at least one corpus job inert"
    );
    assert!(
        prune_overhead <= 1.5,
        "the pruned suite must cost at most 1.5x the planned (dedup-only) suite's wall-clock \
         (medians of {SAMPLES}: {pruned_ns} ns vs {planned_ns} ns, {prune_overhead:.2}x)"
    );
}
