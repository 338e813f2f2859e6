//! Suites: many `(application, world)` pairs executed as one batch.
//!
//! A [`Suite`] registers applications with their [`WorldSpec`]s (or
//! pre-built [`Session`]s) and executes every campaign in one call. All
//! planning and injected runs across every registered application flow
//! through **one suite-wide [`Executor`] queue** (worker count bounded by
//! the hardware — no per-application thread fan-out, no oversubscription).
//! Results stream out as [`SuiteEvent`]s the moment they are produced —
//! `AppStarted` markers first, per-fault records as they complete, one
//! finished report per application after — and aggregate into a
//! [`SuiteReport`] with cross-application coverage rollups, following the
//! suite-level adequacy view of Dass & Siami Namin ("Vulnerability Coverage
//! as an Adequacy Testing Criterion"): the unit of adequacy is the whole
//! scenario suite, not a single program.

use shim_sync::sync::Arc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use epa_sandbox::app::Application;

use crate::campaign::Campaign;
use crate::coverage::{AdequacyPoint, Ratio};
use crate::engine::driver::{drive, Bound, Progress};
use crate::engine::executor::Executor;
use crate::engine::planner::ResultCache;
use crate::engine::session::Session;
use crate::engine::spec::{SpecError, WorldSpec};
use crate::report::{CampaignReport, FaultRecord};

/// An application paired with its frozen session.
struct SuiteEntry {
    app: Arc<dyn Application + Send + Sync>,
    session: Session,
}

/// One streamed suite result.
///
/// `#[non_exhaustive]`: the event stream grows with the engine (as
/// `AppStarted` did); downstream matches need a wildcard arm so new
/// variants are non-breaking.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SuiteEvent {
    /// One application's campaign entered the suite-wide queue (emitted
    /// for every application before any record, so streaming consumers can
    /// render per-app progress).
    AppStarted {
        /// The application under test.
        app: String,
    },
    /// One injected run finished (streamed in completion order).
    Record {
        /// The application under test.
        app: String,
        /// The fault's outcome.
        record: FaultRecord,
    },
    /// One application's whole campaign finished.
    AppFinished {
        /// The application under test.
        app: String,
        /// Its full report.
        report: CampaignReport,
    },
}

/// A batch of `(application, world)` campaigns executed together.
#[derive(Default)]
pub struct Suite {
    entries: Vec<SuiteEntry>,
    cache: ResultCache,
    workers: Option<usize>,
}

impl Suite {
    /// An empty suite with a fresh suite-scoped [`ResultCache`].
    pub fn new() -> Suite {
        Suite::default()
    }

    /// Replaces the suite-scoped result cache — hand the same cache to
    /// several suites (or keep it across repeated [`Suite::execute`] calls;
    /// the default cache already persists for the suite's lifetime) for
    /// cross-run memoization: any run whose `(setup fingerprint, FaultKey)`
    /// was executed before is replayed instead of re-executed.
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Suite {
        self.cache = cache;
        self
    }

    /// The suite-scoped result cache (e.g. for
    /// [`crate::engine::planner::ResultCache::stats`]).
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Layers the suite's result cache over a persistent
    /// [`crate::store::ResultStore`] backend: shorthand for
    /// [`Suite::with_result_cache`] with
    /// [`ResultCache::with_store`]. A warm backend turns the whole suite
    /// run into replays — zero executed jobs.
    #[must_use]
    pub fn with_store(self, store: Arc<dyn crate::store::ResultStore>) -> Suite {
        self.with_result_cache(ResultCache::with_store(store))
    }

    /// The lockfile-style manifest of this suite: per application, the
    /// memoization scope, the plan size, and every canonical executable
    /// store key — the exact entries a complete warm run needs (see
    /// [`crate::store::SuiteManifest::verify`]). Statically pruned jobs
    /// are excluded: they replay from synthesized digests and never touch
    /// the store. Planning is deterministic, so the manifest of a suite
    /// equals the manifest of its execution.
    ///
    /// Taking the manifest never touches a result cache or its store: the
    /// campaigns are scheduled with no cache, since keys, canonical and
    /// pruned indices do not depend on what a cache holds.
    pub fn manifest(&self) -> crate::store::SuiteManifest {
        use crate::store::{AppManifest, ManifestKey, SuiteManifest, MANIFEST_VERSION};
        let apps = self
            .entries
            .iter()
            .map(|e| {
                let campaign = Campaign::new(e.app.as_ref(), e.session.setup(), e.session.options().clone());
                let schedule = campaign.prepare(None).schedule;
                let pruned: std::collections::BTreeSet<usize> = schedule.pruned.iter().map(|(i, _)| *i).collect();
                let keys = (0..schedule.len())
                    .filter(|&i| schedule.canonical_of(i) == i && !pruned.contains(&i))
                    .map(|i| ManifestKey {
                        digest: format!("{}", schedule.key(i)),
                        key: schedule.key(i).repr().to_string(),
                    })
                    .collect();
                AppManifest {
                    app: e.app.name().to_string(),
                    scope: format!("{:016x}", campaign.scope()),
                    jobs: schedule.len(),
                    keys,
                }
            })
            .collect();
        SuiteManifest {
            version: MANIFEST_VERSION,
            apps,
        }
    }

    /// Registers an application with a declarative world.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from materializing the spec.
    pub fn register(
        &mut self,
        app: impl Application + Send + 'static,
        spec: &WorldSpec,
    ) -> Result<&mut Suite, SpecError> {
        let session = Session::new(spec)?;
        Ok(self.register_session(app, session))
    }

    /// Registers an application with a pre-built session.
    pub fn register_session(&mut self, app: impl Application + Send + 'static, session: Session) -> &mut Suite {
        self.entries.push(SuiteEntry {
            app: Arc::new(app),
            session,
        });
        self
    }

    /// Number of registered campaigns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered application names, in registration order.
    pub fn apps(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.app.name()).collect()
    }

    /// Runs everything inline on the calling thread: shorthand for
    /// `with_workers(1)` (deterministic event order; useful for debugging).
    #[must_use]
    pub fn sequential(self) -> Suite {
        self.with_workers(1)
    }

    /// Pins the suite to an explicit worker count instead of the
    /// hardware/`EPA_WORKERS` default — how benches and the determinism
    /// tests measure 1/4/8-worker throughput on arbitrary machines.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Suite {
        self.workers = Some(workers);
        self
    }

    /// Executes every registered campaign, discarding the event stream.
    pub fn execute(&self) -> SuiteReport {
        self.execute_with(&mut |_| {})
    }

    /// Executes every registered campaign, streaming each [`SuiteEvent`] to
    /// `on_event` as it is produced. Every campaign's planning and injected
    /// runs share **one suite-wide [`Executor`] queue** bounded by
    /// `available_parallelism` workers (or [`Suite::with_workers`]; one
    /// worker runs everything inline on the calling thread); the returned
    /// report is always in registration order and byte-identical for every
    /// worker count.
    pub fn execute_with(&self, on_event: &mut dyn FnMut(SuiteEvent)) -> SuiteReport {
        // Every campaign plans and executes through the suite-scoped result
        // cache (unless its session already carries an explicit one).
        let campaigns: Vec<Campaign<'_>> = self
            .entries
            .iter()
            .map(|e| {
                let mut campaign = e.session.campaign(e.app.as_ref() as &dyn Application);
                campaign.ensure_cache(self.cache.clone());
                campaign
            })
            .collect();
        for entry in &self.entries {
            on_event(SuiteEvent::AppStarted {
                app: entry.app.name().to_string(),
            });
        }
        let executor = match self.workers {
            Some(w) => Executor::with_workers(w),
            None => Executor::new(),
        };
        let bound = campaigns.iter().map(Bound::new).collect();
        let reports = drive(&executor, bound, &mut |i, progress| {
            let app = self.entries[i].app.name().to_string();
            on_event(match progress {
                Progress::Record(record) => SuiteEvent::Record {
                    app,
                    record: record.clone(),
                },
                Progress::Finished(report) => SuiteEvent::AppFinished {
                    app,
                    report: report.clone(),
                },
            });
        });
        SuiteReport { reports }
    }
}

/// The aggregated outcome of a suite run: per-application reports in
/// registration order plus cross-application rollups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// One campaign report per registered application.
    pub reports: Vec<CampaignReport>,
}

impl SuiteReport {
    /// Looks up one application's report by name.
    pub fn get(&self, app: &str) -> Option<&CampaignReport> {
        self.reports.iter().find(|r| r.app == app)
    }

    /// Total faults injected across the suite.
    pub fn total_injected(&self) -> usize {
        self.reports.iter().map(CampaignReport::injected).sum()
    }

    /// Total violating runs across the suite.
    pub fn total_violated(&self) -> usize {
        self.reports.iter().map(CampaignReport::violated).sum()
    }

    /// Total records replayed from the planner's result cache (or from an
    /// equivalent earlier job of the same plan) across the suite.
    pub fn total_cache_hits(&self) -> usize {
        self.reports.iter().map(CampaignReport::cache_hits).sum()
    }

    /// Total runs that actually executed across the suite — the planner's
    /// headline number: `total_injected - total_cache_hits`, never more
    /// than the exhaustive plan size.
    pub fn total_runs_executed(&self) -> usize {
        self.reports.iter().map(CampaignReport::runs_executed).sum()
    }

    /// Applications whose campaign surfaced at least one violation.
    pub fn vulnerable_apps(&self) -> Vec<&str> {
        self.reports
            .iter()
            .filter(|r| r.violated() > 0)
            .map(|r| r.app.as_str())
            .collect()
    }

    /// Suite-level fault coverage: tolerated / injected over every campaign.
    pub fn fault_coverage(&self) -> Ratio {
        let injected = self.total_injected();
        Ratio::new(injected - self.total_violated(), injected)
    }

    /// Suite-level interaction coverage: perturbed / perturbable sites over
    /// every campaign.
    pub fn interaction_coverage(&self) -> Ratio {
        Ratio::new(
            self.reports.iter().map(|r| r.perturbed_sites).sum(),
            self.reports.iter().map(|r| r.total_sites).sum(),
        )
    }

    /// The suite's aggregate adequacy point (cross-application rollup of
    /// the paper's Figure 2 metric). As with a single campaign, fault
    /// coverage is vacuously true over zero injections but a suite whose
    /// worlds exposed zero perturbable interaction points is
    /// [`crate::coverage::AdequacyRegion::Inadequate`], never Safe.
    pub fn adequacy(&self) -> AdequacyPoint {
        let fault = self.fault_coverage().value_or(1.0);
        match self.interaction_coverage().fraction() {
            Some(interaction) => AdequacyPoint::new(interaction, fault),
            None => AdequacyPoint::vacuous(fault),
        }
    }

    /// Per-category `(injected, violated)` counts rolled up across every
    /// campaign.
    pub fn by_category(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for report in &self.reports {
            for (category, (injected, violated)) in report.by_category() {
                let e = out.entry(category).or_insert((0, 0));
                e.0 += injected;
                e.1 += violated;
            }
        }
        out
    }

    /// A human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "suite: {} applications   injected: {}   violations: {}",
            self.reports.len(),
            self.total_injected(),
            self.total_violated()
        );
        if self.total_cache_hits() > 0 {
            let _ = writeln!(
                s,
                "  runs executed: {}   replayed from cache: {}",
                self.total_runs_executed(),
                self.total_cache_hits()
            );
        }
        let _ = writeln!(
            s,
            "  interaction coverage: {}   fault coverage: {}",
            self.interaction_coverage(),
            self.fault_coverage()
        );
        let _ = writeln!(
            s,
            "  {:<16} {:>8} {:>10} {:>7}   coverage (interaction, fault)",
            "app", "injected", "violations", "score"
        );
        for r in &self.reports {
            let _ = writeln!(
                s,
                "  {:<16} {:>8} {:>10} {:>7.3}   ({}, {})",
                r.app,
                r.injected(),
                r.violated(),
                r.vulnerability_score(),
                r.interaction_coverage(),
                r.fault_coverage()
            );
        }
        let _ = writeln!(s, "  per-category rollup:");
        for (category, (injected, violated)) in self.by_category() {
            let _ = writeln!(s, "    {category:<28} {injected:>4} injected  {violated:>3} violations");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EaiCategory, IndirectKind};

    fn record(violated: bool) -> FaultRecord {
        FaultRecord {
            site: "s".into(),
            occurrence: 0,
            fault_id: "f".into(),
            category: EaiCategory::Indirect(IndirectKind::UserInput),
            description: String::new(),
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            cache_hit: false,
            pruned: false,
            violations: if violated {
                vec![epa_sandbox::policy::Verdict::from_violation(
                    epa_sandbox::policy::Violation::new(
                        epa_sandbox::policy::ViolationKind::Disclosure,
                        "R2",
                        "leak",
                        0,
                    ),
                )]
            } else {
                Vec::new()
            },
        }
    }

    fn report(app: &str, records: Vec<FaultRecord>) -> CampaignReport {
        CampaignReport {
            app: app.into(),
            total_sites: 4,
            perturbed_sites: 2,
            clean_violations: 0,
            records,
        }
    }

    #[test]
    fn rollups_aggregate_across_reports() {
        let suite = SuiteReport {
            reports: vec![
                report("a", vec![record(true), record(false)]),
                report("b", vec![record(false), record(false)]),
            ],
        };
        assert_eq!(suite.total_injected(), 4);
        assert_eq!(suite.total_violated(), 1);
        assert_eq!(suite.vulnerable_apps(), vec!["a"]);
        assert_eq!(suite.fault_coverage().fraction(), Some(0.75));
        assert_eq!(suite.interaction_coverage().fraction(), Some(0.5));
        let by_cat = suite.by_category();
        assert_eq!(by_cat.len(), 1);
        assert_eq!(by_cat.values().next(), Some(&(4usize, 1usize)));
        assert!(suite.get("b").is_some());
        assert!(suite.get("zzz").is_none());
        let text = suite.render_text();
        assert!(text.contains("suite: 2 applications"));
        assert!(text.contains("per-category rollup"));
    }

    #[test]
    fn cache_rollups_count_replays() {
        let mut a = report("a", vec![record(true), record(false)]);
        a.records[1].cache_hit = true;
        let suite = SuiteReport {
            reports: vec![a, report("b", vec![record(false)])],
        };
        assert_eq!(suite.total_injected(), 3);
        assert_eq!(suite.total_cache_hits(), 1);
        assert_eq!(suite.total_runs_executed(), 2);
        let text = suite.render_text();
        assert!(text.contains("runs executed: 2   replayed from cache: 1"), "{text}");
    }

    #[test]
    fn empty_suite_rolls_up_vacuous_not_safe() {
        use crate::coverage::{AdequacyRegion, AdequacyThresholds};
        let suite = SuiteReport { reports: vec![] };
        assert_eq!(suite.interaction_coverage().fraction(), None);
        let point = suite.adequacy();
        assert!(point.vacuous);
        assert_eq!(point.region(AdequacyThresholds::default()), AdequacyRegion::Inadequate);
        let text = suite.render_text();
        assert!(text.contains("0/0 (n/a)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }
}
