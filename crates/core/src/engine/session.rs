//! Sessions: one frozen pristine world, many cheap campaign runs.
//!
//! A [`Session`] materializes a [`WorldSpec`] once (or adopts an existing
//! [`TestSetup`]) and freezes the result. Every run — the clean trace, each
//! injected fault, every repeated campaign — starts from a copy-on-write
//! snapshot of the frozen world ([`Session::snapshot`]), so per-fault setup
//! costs O(touched state) instead of a deep world copy. Each run judges
//! itself through the setup's `OracleSet` (the standard detector families
//! plus any spec-declared invariants), subscribed to the run's audit log so
//! verdicts — with their evidence chains — are ready the moment the run
//! ends.

use epa_sandbox::app::Application;
use epa_sandbox::os::Os;

use crate::campaign::{run_once, Campaign, CampaignOptions, CampaignPlan, RunOutcome, TestSetup};
use crate::engine::driver::{drive_one, Bound};
use crate::engine::planner::ResultCache;
use crate::engine::spec::{SpecError, WorldSpec};
use crate::report::CampaignReport;

/// A frozen pristine world plus campaign options and an optional result
/// cache.
///
/// The world inside a session is immutable: runs snapshot it, they never
/// mutate it. That is what makes one session reusable across the clean run,
/// a full campaign, an incremental campaign, and any number of repetitions
/// — all observing byte-identical initial state.
#[derive(Debug, Clone)]
pub struct Session {
    setup: TestSetup,
    options: CampaignOptions,
    cache: Option<ResultCache>,
}

impl Session {
    /// Validates and materializes a spec into a frozen session.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from [`WorldSpec::materialize`].
    pub fn new(spec: &WorldSpec) -> Result<Session, SpecError> {
        Ok(Session::from_setup(spec.materialize()?))
    }

    /// Freezes an already-built setup (the migration path from hand-built
    /// worlds; see the README's `Campaign` → `Session` notes).
    pub fn from_setup(setup: TestSetup) -> Session {
        Session {
            setup,
            options: CampaignOptions::default(),
            cache: None,
        }
    }

    /// Replaces the campaign options.
    #[must_use]
    pub fn with_options(mut self, options: CampaignOptions) -> Session {
        self.options = options;
        self
    }

    /// Installs a shared [`ResultCache`]: campaigns run from this session
    /// memoize every executed run and replay identical ones (here and in
    /// any other session sharing the cache) instead of re-executing them.
    /// Layer it over a persistent [`crate::store::ResultStore`] with
    /// [`ResultCache::with_store`]. Inside a [`crate::engine::Suite`], this
    /// cache wins over the suite's.
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Session {
        self.cache = Some(cache);
        self
    }

    /// The frozen setup.
    pub fn setup(&self) -> &TestSetup {
        &self.setup
    }

    /// The frozen pristine world.
    pub fn world(&self) -> &Os {
        &self.setup.world
    }

    /// A copy-on-write snapshot of the pristine world: O(1), sharing all
    /// substrate storage until the copy mutates.
    pub fn snapshot(&self) -> Os {
        self.setup.world.clone()
    }

    /// Runs the application once, unperturbed, from a fresh snapshot.
    pub fn run(&self, app: &dyn Application) -> RunOutcome {
        run_once(&self.setup, app, None)
    }

    /// Steps 1–5 of the paper's procedure: trace the application and build
    /// the per-site fault plan.
    pub fn plan(&self, app: &dyn Application) -> CampaignPlan {
        self.campaign(app).plan()
    }

    /// Steps 1–10: the full campaign.
    pub fn execute(&self, app: &dyn Application) -> CampaignReport {
        let campaign = self.campaign(app);
        drive_one(Bound::new(&campaign))
    }

    /// Executes a pre-built plan (lets callers inspect or prune it first).
    /// The plan must come from [`Session::plan`] for the same application:
    /// its clean run also seeds the static analysis, so no second clean run
    /// is performed.
    pub fn execute_plan(&self, app: &dyn Application, plan: &CampaignPlan) -> CampaignReport {
        let campaign = self.campaign(app);
        drive_one(Bound {
            campaign: &campaign,
            plan: Some((plan, plan.jobs())),
        })
    }

    /// The paper's incremental step 9: perturb sites in plan order until
    /// the interaction-coverage criterion is met.
    ///
    /// Returns the report of the incremental campaign; its interaction
    /// coverage is the smallest prefix coverage `>= criterion` (or the full
    /// campaign when the criterion is unreachable).
    pub fn execute_until(&self, app: &dyn Application, min_interaction_coverage: f64) -> CampaignReport {
        let campaign = self.campaign(app);
        let full = campaign.plan();
        let total = full.sites.iter().filter(|s| !s.faults.is_empty()).count();
        let included: Vec<_> = full
            .sites
            .iter()
            .filter(|s| s.included && !s.faults.is_empty())
            .collect();
        // Coverage depends only on which sites ran, so the covered prefix is
        // known before anything runs: the fewest sites (at least one) that
        // meet the criterion, or every included site when none do.
        let covered = (1..=included.len())
            .find(|&k| k as f64 / total as f64 >= min_interaction_coverage)
            .unwrap_or(included.len());
        let jobs = included[..covered].iter().flat_map(|s| s.jobs()).collect();
        let report = drive_one(Bound {
            campaign: &campaign,
            plan: Some((&full, jobs)),
        });
        CampaignReport {
            perturbed_sites: covered,
            ..report
        }
    }

    pub(crate) fn campaign<'a>(&'a self, app: &'a dyn Application) -> Campaign<'a> {
        let mut campaign = Campaign::new(app, &self.setup, self.options.clone());
        if let Some(cache) = &self.cache {
            campaign.ensure_cache(cache.clone());
        }
        campaign
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::ScenarioMeta;
    use epa_sandbox::process::Pid;
    use epa_sandbox::trace::InputSemantic;

    /// The same mini-lpr the campaign tests use: one input site, one
    /// naive-create site.
    struct MiniLpr;
    impl Application for MiniLpr {
        fn name(&self) -> &'static str {
            "mini-lpr"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(job) = os.sys_arg(pid, "lpr:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            if os
                .sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", job, 0o660)
                .is_err()
            {
                return 1;
            }
            0
        }
    }

    fn session() -> Session {
        let scenario = ScenarioMeta::default();
        let spec = WorldSpec::builder()
            .user("root", Uid::ROOT, Gid::ROOT, "/root")
            .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
            .user("evil", scenario.attacker, scenario.attacker_gid, "/home/evil")
            .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
            .root_file("/etc/passwd", "root:0:0:", 0o644)
            .root_file("/etc/shadow", "root:HASH", 0o600)
            .suid_root_program("/usr/bin/lpr")
            .args(["report.txt"])
            .build();
        Session::new(&spec).unwrap()
    }

    #[test]
    fn session_reproduces_the_campaign_numbers() {
        let s = session();
        let report = s.execute(&MiniLpr);
        assert_eq!(report.injected(), 9);
        assert_eq!(report.violated(), 4);
        assert_eq!(report.clean_violations, 0);
    }

    #[test]
    fn snapshots_share_storage_and_leave_the_pristine_world_untouched() {
        let s = session();
        let snap = s.snapshot();
        assert_eq!(snap.fs.shared_inodes_with(&s.world().fs), s.world().fs.inode_count());
        // A full campaign later, the frozen world is still pristine.
        let _ = s.execute(&MiniLpr);
        assert!(s.world().trace.sites().is_empty());
        assert_eq!(s.world().audit.len(), 0);
        assert!(!s.world().fs.exists("/var/spool/lpd/job"));
    }
}
