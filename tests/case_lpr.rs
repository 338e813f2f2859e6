//! Integration: the §3.4 lpr walkthrough, driven through `engine::Session`
//! (4 injected / 4 violated at the create site) and pinned again through a
//! pooled `engine::Suite`.

use epa::apps::{worlds, Lpr, LprFixed};
use epa::core::campaign::CampaignOptions;
use epa::core::engine::{Session, Suite};
use epa::sandbox::trace::SiteId;
use std::collections::BTreeSet;

fn create_site_only() -> CampaignOptions {
    let mut filter = BTreeSet::new();
    filter.insert(SiteId::new("lpr:create_spool"));
    CampaignOptions {
        site_filter: Some(filter),
        ..Default::default()
    }
}

fn session(options: CampaignOptions) -> Session {
    Session::from_setup(worlds::lpr_world()).with_options(options)
}

#[test]
fn four_applicable_attributes_all_violate() {
    let report = session(create_site_only()).execute(&Lpr);
    assert_eq!(report.clean_violations, 0);
    assert_eq!(report.injected(), 4, "existence, ownership, permission, symbolic link");
    assert_eq!(report.violated(), 4, "paper: violations detected for attributes 1-4");
    // Attributes 5-7 (content/name invariance, working directory) are not
    // applicable at a first-encounter create with an absolute path.
    let ids: BTreeSet<&str> = report.records.iter().map(|r| r.fault_id.as_str()).collect();
    assert!(!ids
        .iter()
        .any(|i| i.contains(":content@") || i.contains(":name@") || i.contains(":workdir@")));
}

#[test]
fn the_symlink_attack_clobbers_the_passwd_file() {
    let report = session(create_site_only()).execute(&Lpr);
    let symlink = report
        .records
        .iter()
        .find(|r| r.fault_id.starts_with("direct:fs:symlink"))
        .expect("symlink fault injected");
    assert!(!symlink.tolerated());
    assert!(symlink.violations.iter().any(|v| v.description.contains("/etc/passwd")));
}

#[test]
fn fixed_lpr_tolerates_all_four() {
    let report = session(create_site_only()).execute(&LprFixed);
    assert_eq!(report.injected(), 4);
    assert_eq!(report.violated(), 0, "{:#?}", report.violations().collect::<Vec<_>>());
}

#[test]
fn full_lpr_campaign_also_covers_input_sites() {
    let report = session(CampaignOptions::default()).execute(&Lpr);
    assert_eq!(report.total_sites, 3, "argv, read-input, create");
    assert!(report.injected() > 4);
    assert_eq!(report.clean_violations, 0);
}

#[test]
fn the_executor_paths_keep_the_paper_numbers() {
    // Inline on the calling thread...
    let session = session(create_site_only());
    let inline = session.execute(&Lpr);
    assert_eq!(inline.injected(), 4, "existence, ownership, permission, symbolic link");
    assert_eq!(inline.violated(), 4, "paper: violations detected for attributes 1-4");
    // ...and through the suite-wide shared queue, the numbers hold.
    let mut suite = Suite::new().with_workers(4);
    suite.register_session(Lpr, session);
    let batch = suite.execute();
    assert_eq!(batch.get("lpr").expect("lpr report"), &inline);
}
