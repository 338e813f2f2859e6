//! Integration: the engine facade — batch `Suite` execution over all eight
//! case-study applications, streaming events, and the cross-application
//! rollups.

use std::collections::BTreeMap;

use epa::apps::*;
use epa::core::campaign::CampaignOptions;
use epa::core::engine::{ResultCache, Session, Suite, SuiteEvent, SuiteReport};

#[test]
fn the_standard_suite_runs_all_eight_apps_in_one_batch() {
    let report = standard_suite().expect("valid specs").execute();
    assert_eq!(report.reports.len(), 8);
    let apps: Vec<&str> = report.reports.iter().map(|r| r.app.as_str()).collect();
    assert_eq!(
        apps,
        vec![
            "lpr",
            "turnin",
            "fontpurge",
            "ntlogon",
            "fingerd",
            "authd",
            "mailnotify",
            "backupd"
        ],
        "reports come back in registration order"
    );
    // Every seeded flaw is found in the batch, and the paper's headline
    // campaigns keep their numbers inside the suite.
    assert_eq!(report.vulnerable_apps().len(), 8);
    let turnin = report.get("turnin").expect("turnin present");
    assert_eq!(turnin.injected(), 41);
    assert_eq!(turnin.violated(), 9);
    assert!(report.total_injected() > 100);
    assert!(report.fault_coverage().value_or(1.0) > 0.0 && report.fault_coverage().value_or(1.0) < 1.0);
}

#[test]
fn suite_streams_records_and_reports_consistently() {
    let suite = standard_suite().expect("valid specs");
    let mut started: Vec<String> = Vec::new();
    let mut per_app_records: BTreeMap<String, usize> = BTreeMap::new();
    let mut finished: Vec<String> = Vec::new();
    let report = suite.execute_with(&mut |event| match event {
        SuiteEvent::AppStarted { app } => {
            assert!(
                !per_app_records.contains_key(&app),
                "{app}: AppStarted must precede every record"
            );
            started.push(app);
        }
        SuiteEvent::Record { app, .. } => *per_app_records.entry(app).or_insert(0) += 1,
        SuiteEvent::AppFinished { app, .. } => finished.push(app),
        // SuiteEvent is #[non_exhaustive]; future variants are ignorable.
        _ => {}
    });
    assert_eq!(started.len(), 8, "one AppStarted per registration");
    assert_eq!(finished.len(), 8, "one AppFinished per registration");
    for r in &report.reports {
        assert_eq!(
            per_app_records.get(&r.app).copied().unwrap_or(0),
            r.injected(),
            "{}: every record must be streamed exactly once",
            r.app
        );
    }
}

#[test]
fn both_paths_emit_app_started_for_every_app_in_registration_order() {
    let expected = standard_suite().expect("valid specs").apps().join(",");
    for sequential in [false, true] {
        let mut suite = standard_suite().expect("valid specs");
        if sequential {
            suite = suite.sequential();
        }
        let mut started: Vec<String> = Vec::new();
        let _ = suite.execute_with(&mut |event| {
            if let SuiteEvent::AppStarted { app } = event {
                started.push(app);
            }
        });
        assert_eq!(started.join(","), expected, "sequential={sequential}");
    }
}

#[test]
fn sequential_and_fanned_out_suites_agree() {
    let fanned = standard_suite().expect("valid specs").execute();
    let sequential = standard_suite().expect("valid specs").sequential().execute();
    assert_eq!(fanned, sequential);
}

#[test]
fn suite_runs_are_deterministic() {
    let a = standard_suite().expect("valid specs").execute();
    let b = standard_suite().expect("valid specs").execute();
    assert_eq!(a, b);
}

#[test]
fn engine_options_propagate_to_sessions() {
    let session = Session::new(&lpr::spec())
        .expect("valid spec")
        .with_options(CampaignOptions {
            max_sites: Some(1),
            ..Default::default()
        });
    let report = session.execute(&Lpr);
    assert_eq!(report.perturbed_sites, 1, "session options reached the campaign");
    assert!(report.interaction_coverage().value_or(1.0) < 1.0);
}

#[test]
fn engine_builds_suites_from_heterogeneous_pairs() {
    let mut suite = Suite::new();
    suite.register(Lpr, &lpr::spec()).expect("valid spec");
    suite.register(Turnin, &turnin::spec()).expect("valid spec");
    assert_eq!(suite.apps(), vec!["lpr", "turnin"]);
    let report = suite.execute();
    assert_eq!(report.reports.len(), 2);
    assert!(report.get("lpr").unwrap().violated() > 0);
    assert_eq!(report.get("turnin").unwrap().violated(), 9);
}

#[test]
fn execute_until_returns_a_site_prefix_of_execute() {
    for (app, spec) in standard_apps() {
        let name = app.name();
        let session = Session::new(&spec).expect("valid spec");
        let full = session.execute(app.as_ref());
        let included: Vec<String> = session
            .plan(app.as_ref())
            .sites
            .iter()
            .filter(|s| s.included && !s.faults.is_empty())
            .map(|s| s.summary.site.to_string())
            .collect();
        let total = full.total_sites as f64;
        for criterion in [0.0, 0.3, 0.5, 1.0, 2.0] {
            let until = session.execute_until(app.as_ref(), criterion);
            assert_eq!(until.total_sites, full.total_sites, "{name} @ {criterion}: total sites");
            // The smallest k >= 1 with k/total >= criterion, or every
            // included site when no such k exists.
            let k = until.perturbed_sites;
            if included.is_empty() {
                assert_eq!(k, 0, "{name} @ {criterion}: nothing to perturb");
            } else {
                assert!((1..=included.len()).contains(&k), "{name} @ {criterion}: k = {k}");
                assert!(
                    k as f64 / total >= criterion || k == included.len(),
                    "{name} @ {criterion}: {k} sites fall short of the criterion"
                );
                assert!(
                    k == 1 || ((k - 1) as f64 / total) < criterion,
                    "{name} @ {criterion}: {k} sites is not the smallest prefix"
                );
            }
            let prefix = &included[..k];
            let expected: Vec<_> = full
                .records
                .iter()
                .filter(|r| prefix.contains(&r.site))
                .cloned()
                .collect();
            assert_eq!(
                until.records, expected,
                "{name} @ {criterion}: records of the first {k} sites"
            );
        }
    }
}

#[test]
fn a_sessions_own_cache_wins_inside_a_suite() {
    let own = ResultCache::new();
    let shared = ResultCache::new();
    let mut suite = Suite::new().with_result_cache(shared.clone());
    let session = Session::new(&lpr::spec()).expect("valid spec");
    suite.register_session(Lpr, session.with_result_cache(own.clone()));
    suite.register(Turnin, &turnin::spec()).expect("valid spec");
    let report = suite.execute();
    let lpr = report.get("lpr").expect("lpr ran").runs_executed();
    let turnin = report.get("turnin").expect("turnin ran").runs_executed();
    assert!(lpr > 0 && turnin > 0);
    // Every executed run is one distinct key: each lands in exactly one
    // cache, the session's own for lpr and the suite's for turnin.
    assert_eq!(own.stats().entries, lpr, "the session cache holds lpr's runs");
    assert_eq!(shared.stats().entries, turnin, "the suite cache holds turnin's only");
}

#[test]
fn suite_reports_serialize_for_downstream_tooling() {
    let mut suite = epa::engine::Suite::new();
    suite.register(Lpr, &lpr::spec()).expect("valid spec");
    let report = suite.execute();
    let json = serde_json::to_string(&report).expect("serialize");
    let back: SuiteReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
    // The pretty form is what `reproduce -- suite --json` writes to
    // SUITE_report.json; it must round-trip identically too.
    let pretty = serde_json::to_string_pretty(&report).expect("serialize pretty");
    let back_pretty: SuiteReport = serde_json::from_str(&pretty).expect("deserialize pretty");
    assert_eq!(back_pretty, report);
    let text = report.render_text();
    assert!(text.contains("suite: 1 applications"));
    assert!(text.contains("lpr"));
}
