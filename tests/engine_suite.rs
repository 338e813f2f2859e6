//! Integration: the engine facade — batch `Suite` execution over all eight
//! case-study applications, streaming events, and the cross-application
//! rollups.

use std::collections::BTreeMap;

use epa::apps::*;
use epa::core::campaign::CampaignOptions;
use epa::core::engine::{Session, Suite, SuiteEvent, SuiteReport};

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
fn budgeted_suites_charge_only_executed_runs() {
    // `plan_budget` caps executed runs; replays are free. Registering the
    // same campaign twice makes the second replay whatever the first
    // already executed (shared scope, shared suite cache) — claim replays
    // included, whichever worker count interleaves the two.
    let budgeted = CampaignOptions {
        plan_budget: Some(2),
        ..Default::default()
    };
    for workers in [1usize, 2, 4] {
        for _ in 0..20 {
            let mut suite = Suite::new().with_workers(workers);
            for _ in 0..2 {
                let session = Session::new(&lpr::spec()).expect("valid spec");
                suite.register_session(Lpr, session.with_options(budgeted.clone()));
            }
            let report = suite.execute();
            for r in &report.reports {
                assert_eq!(
                    r.runs_executed(),
                    2,
                    "workers={workers}: {}:{}/{}/{} (injected:executed/replayed/pruned)",
                    r.injected(),
                    r.runs_executed(),
                    r.cache_hits(),
                    r.pruned()
                );
            }
        }
    }
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
