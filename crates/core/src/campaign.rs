//! The testing procedure of paper §3.3: setups, single runs, fault plans.
//!
//! A campaign takes an application, a pristine world ([`TestSetup`]), and
//! [`CampaignOptions`], then:
//!
//! 1. runs the application unperturbed and records the execution trace
//!    (steps 1–3: enumerate interaction points and whether they take input);
//! 2. builds the applicable fault list per interaction point from the
//!    catalog (steps 4–5) — the [`CampaignPlan`];
//! 3. re-runs the application once per fault from a fresh clone of the
//!    world, injecting the fault before/after the targeted point (steps
//!    6–7) and asking the policy oracle for violations (step 8);
//! 4. reports interaction coverage, fault coverage, and the vulnerability
//!    assessment score (steps 9–10).
//!
//! Campaigns are run through [`crate::engine::Session`] (one application)
//! or [`crate::engine::Suite`] (a batch); both hand every plan to the same
//! driver.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;

use epa_sandbox::app::Application;
use epa_sandbox::audit::AuditEvent;
use epa_sandbox::cred::Uid;
use epa_sandbox::os::Os;
use epa_sandbox::policy::{InvariantSpec, OracleSet, Verdict};
use epa_sandbox::process::Pid;
use epa_sandbox::syscall::Interceptor;
use epa_sandbox::trace::{SiteId, SiteSummary};

use crate::catalog::{faults_for_site, DirectContext};
use crate::engine::planner::{Claim, FaultKey, ResultCache, RunDigest, Schedule};
use crate::inject::{InjectionHook, InjectionPlan};
use crate::perturb::ConcreteFault;
use crate::report::{CampaignReport, FaultRecord};

/// Everything needed to (re)start the application under test: the pristine
/// world plus the spawn parameters.
#[derive(Debug, Clone)]
pub struct TestSetup {
    /// The pristine world; cloned for every run.
    pub world: Os,
    /// Path of the program file to spawn from (SUID semantics apply); `None`
    /// spawns with the invoker's plain credentials.
    pub program: Option<String>,
    /// Who invokes the program.
    pub invoker: Uid,
    /// Argument vector.
    pub args: Vec<String>,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Initial working directory.
    pub cwd: String,
    /// Declarative custom invariants; each compiles into a detector
    /// registered on every run's [`OracleSet`] alongside the standard set.
    pub invariants: Vec<InvariantSpec>,
}

impl TestSetup {
    /// Builds a setup with the world's scenario invoker, no program file,
    /// empty args/env, no custom invariants, and `/` as the working
    /// directory.
    pub fn new(world: Os) -> Self {
        let invoker = world.scenario.invoker;
        TestSetup {
            world,
            program: None,
            invoker,
            args: Vec::new(),
            env: BTreeMap::new(),
            cwd: "/".to_string(),
            invariants: Vec::new(),
        }
    }

    /// The oracle set a run of this setup evaluates against: the standard
    /// eight detector families plus one detector per declared invariant.
    pub fn oracle(&self) -> OracleSet {
        let mut oracle = OracleSet::standard();
        for spec in &self.invariants {
            oracle.register(spec.detector());
        }
        oracle
    }

    /// A content fingerprint of the frozen setup: the pristine world's
    /// substrates (file system, users, registry, network, scenario) plus
    /// every spawn parameter and declared invariant.
    ///
    /// This is the memoization scope half of the planner's
    /// `(fingerprint, FaultKey)` cache key: two runs can only replay each
    /// other when they start from byte-identical worlds with identical
    /// spawn parameters. The hash is cheap in the engine's terms because a
    /// [`crate::engine::Session`] freezes one pristine world and snapshots
    /// it copy-on-write per run — the frozen state is hashed once per
    /// campaign, never per injected run.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        let mut part = |label: &str, json: String| {
            text.push_str(label);
            text.push('=');
            text.push_str(&json);
            text.push('\n');
        };
        let world = &self.world;
        part("fs", serde_json::to_string(&world.fs).expect("vfs serializes"));
        part("users", serde_json::to_string(&world.users).expect("users serialize"));
        part(
            "registry",
            serde_json::to_string(&world.registry).expect("registry serializes"),
        );
        part("net", serde_json::to_string(&world.net).expect("network serializes"));
        part(
            "scenario",
            serde_json::to_string(&world.scenario).expect("scenario serializes"),
        );
        part("procs", world.procs.len().to_string());
        part("created", format!("{:?}", world.created_paths().collect::<Vec<_>>()));
        part("audit", world.audit.len().to_string());
        part("trace", world.trace.len().to_string());
        part("program", format!("{:?}", self.program));
        part("invoker", format!("{:?}", self.invoker));
        part("args", format!("{:?}", self.args));
        part("env", format!("{:?}", self.env));
        part("cwd", self.cwd.clone());
        part(
            "invariants",
            serde_json::to_string(&self.invariants).expect("invariants serialize"),
        );
        crate::engine::planner::fnv1a(text.as_bytes())
    }
}

/// The observable outcome of one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The world after the run (trace + audit included).
    pub os: Os,
    /// The spawned process, if the spawn succeeded.
    pub pid: Option<Pid>,
    /// Exit status (`None` when the application panicked or never spawned).
    pub exit: Option<i32>,
    /// `Some(panic message)` when the application panicked.
    pub crashed: Option<String>,
    /// Verdicts the oracle pipeline detected, each carrying its evidence
    /// chain (a `Verdict` dereferences to its `Violation`).
    pub violations: Vec<Verdict>,
}

impl RunOutcome {
    /// Whether the application panicked during the run.
    pub fn has_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// The executed record of injection `job`, whose fault fired iff
    /// `applied`.
    pub(crate) fn into_record(self, job: &InjectionPlan, applied: bool) -> FaultRecord {
        FaultRecord {
            site: job.site.to_string(),
            occurrence: job.occurrence,
            fault_id: job.fault.id.clone(),
            category: job.fault.category,
            description: job.fault.description.clone(),
            applied,
            exit: self.exit,
            crashed: self.crashed,
            audit_events: self.os.audit.len(),
            cache_hit: false,
            pruned: false,
            violations: self.violations,
        }
    }
}

/// Extracts the payload text from a caught panic (`&str` and `String`
/// payloads; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs the application once against a clone of the setup's world, with an
/// optional injection hook installed.
///
/// The oracle evaluates **incrementally**: the setup's [`OracleSet`] is
/// subscribed to the run's audit log before the application starts, every
/// recorded event streams straight to the detectors, and the verdicts are
/// collected the moment the run ends — no post-hoc re-scan of the log
/// ([`OracleSet::evaluate_log`] is the reference implementation the tests
/// and the corpus harness compare against).
pub fn run_once(setup: &TestSetup, app: &dyn Application, hook: Option<Box<dyn Interceptor>>) -> RunOutcome {
    let mut os = setup.world.clone();
    os.audit.attach_oracle(setup.oracle());
    // An application that swapped the subscription out is judged by a
    // post-hoc scan of its log instead.
    let verdicts = |os: &mut Os| match os.audit.detach_oracle() {
        Some(mut oracle) => oracle.finish(),
        None => setup.oracle().evaluate_log(&os.audit),
    };
    if let Some(h) = hook {
        os.set_interceptor(h);
    }
    let Ok(pid) = os.spawn(
        setup.invoker,
        setup.program.as_deref(),
        setup.args.clone(),
        setup.env.clone(),
        &setup.cwd,
    ) else {
        let violations = verdicts(&mut os);
        return RunOutcome {
            os,
            pid: None,
            exit: None,
            crashed: None,
            violations,
        };
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| app.run(&mut os, pid)));
    let (exit, crashed) = match result {
        Ok(code) => (Some(code), None),
        Err(payload) => (None, Some(panic_text(payload.as_ref()))),
    };
    if let Some(c) = exit {
        os.set_exit(pid, c);
    }
    let violations = verdicts(&mut os);
    RunOutcome {
        os,
        pid: Some(pid),
        exit,
        crashed,
        violations,
    }
}

/// Campaign tuning knobs: plain planning data. A session's result cache is
/// set with [`crate::engine::Session::with_result_cache`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Perturb only these sites (by id); `None` perturbs all.
    pub site_filter: Option<BTreeSet<SiteId>>,
    /// Perturb at most this many sites (in first-execution order).
    pub max_sites: Option<usize>,
    /// Inject at most this many faults per site.
    pub max_faults_per_site: Option<usize>,
    /// Strike at most this many occurrences of each site (paper §3.3
    /// perturbs *each occurrence* of each interaction point; re-accessed
    /// objects — the lpr TOCTTOU class — only misbehave at later hits).
    /// Occurrences past the first replan only the occurrence-sensitive
    /// faults ([`ConcreteFault::occurrence_sensitive`]). The default of 1
    /// preserves the historical first-hit-only plans; use
    /// `usize::MAX` to cover every traced occurrence.
    pub max_occurrences_per_site: usize,
    /// Collapse jobs whose canonical [`crate::engine::planner::FaultKey`]s
    /// are equal: only the first executes, the rest replay its outcome with
    /// `cache_hit: true`. On by default — replays are byte-identical by
    /// construction, so every verdict (and every paper number) is
    /// preserved. Turn off to force the exhaustive pre-planner behaviour
    /// (the equivalence baseline the property tests compare against).
    pub dedup: bool,
    /// Pre-prune the plan with the static analysis layer: jobs the
    /// [`crate::analysis::AppAnalysis`] classifies as
    /// [`crate::analysis::Relevance::ProvablyInert`] are never executed —
    /// their records are synthesized from the clean run and flagged
    /// [`FaultRecord::pruned`], mirroring `cache_hit`. On by default:
    /// pruned records are byte-identical to what the run would have
    /// produced (the corpus differential harness and
    /// `tests/props_analysis.rs` pin this), so every verdict and every
    /// paper number is preserved. Turn off to force the exhaustive
    /// behaviour (the soundness baseline).
    pub static_prune: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            site_filter: None,
            max_sites: None,
            max_faults_per_site: None,
            max_occurrences_per_site: 1,
            dedup: true,
            static_prune: true,
        }
    }
}

/// One interaction point with its planned fault list.
#[derive(Debug, Clone)]
pub struct PlannedSite {
    /// The traced site.
    pub summary: SiteSummary,
    /// Whether the options include it in the perturbation set.
    pub included: bool,
    /// How many occurrences of the site the plan strikes (the traced hit
    /// count capped by [`CampaignOptions::max_occurrences_per_site`]).
    pub occurrences: usize,
    /// The applicable faults (already truncated to any per-site limit).
    pub faults: Vec<ConcreteFault>,
}

impl PlannedSite {
    /// The `(site, occurrence, fault)` jobs this site contributes, in
    /// deterministic order: occurrence 0 gets the full fault list, later
    /// occurrences only the occurrence-sensitive faults (re-striking a
    /// semantics-addressed indirect fault would duplicate the first run).
    pub fn jobs(&self) -> Vec<InjectionPlan> {
        let mut out = Vec::new();
        if !self.included {
            return out;
        }
        for occurrence in 0..self.occurrences.max(1) {
            for fault in &self.faults {
                if occurrence > 0 && !fault.occurrence_sensitive() {
                    continue;
                }
                out.push(InjectionPlan {
                    site: self.summary.site.clone(),
                    occurrence,
                    fault: fault.clone(),
                });
            }
        }
        out
    }
}

/// The campaign plan: the clean run plus the per-site fault lists.
#[derive(Debug)]
pub struct CampaignPlan {
    /// The unperturbed run.
    pub clean: RunOutcome,
    /// Every traced site, included or not.
    pub sites: Vec<PlannedSite>,
}

impl CampaignPlan {
    /// Total injection jobs across included sites (occurrence-aware:
    /// occurrences past the first contribute their occurrence-sensitive
    /// faults).
    pub fn total_faults(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.included)
            .map(|s| {
                let sensitive = s.faults.iter().filter(|f| f.occurrence_sensitive()).count();
                s.faults.len() + (s.occurrences.max(1) - 1) * sensitive
            })
            .sum()
    }

    /// The flat list of injections to perform, in plan order.
    pub fn jobs(&self) -> Vec<InjectionPlan> {
        self.sites.iter().flat_map(PlannedSite::jobs).collect()
    }
}

/// One application bound to one frozen setup and its options: the §3.3
/// steps a campaign performs itself (trace, plan, schedule, one perturbed
/// run) plus the report bookkeeping.
///
/// Turning a plan into records is not a campaign's job: the crate-private
/// campaign driver (`engine::driver`) does it for every front-end, so a
/// [`crate::engine::Session`] and a [`crate::engine::Suite`] share one
/// execution loop.
pub(crate) struct Campaign<'a> {
    app: &'a dyn Application,
    setup: &'a TestSetup,
    options: CampaignOptions,
    /// The shared result cache runs memoize into and replay from; `None`
    /// keeps memoization plan-local.
    cache: Option<ResultCache>,
    /// The memoization scope (app identity + setup fingerprint), computed
    /// at most once per campaign — the world hash is cheap, but not free.
    scope: shim_sync::sync::OnceLock<u64>,
    /// The static analysis of this campaign's clean run, built at most once
    /// (by [`Campaign::seed_analysis`]) and only when
    /// [`CampaignOptions::static_prune`] is on.
    analysis: shim_sync::sync::OnceLock<crate::analysis::AppAnalysis>,
}

impl<'a> Campaign<'a> {
    pub(crate) fn new(app: &'a dyn Application, setup: &'a TestSetup, options: CampaignOptions) -> Self {
        Campaign {
            app,
            setup,
            options,
            cache: None,
            scope: shim_sync::sync::OnceLock::new(),
            analysis: shim_sync::sync::OnceLock::new(),
        }
    }

    /// Installs `cache` as the campaign's result cache unless it already
    /// has one (the suite-scoped default; an explicit per-session cache
    /// wins).
    pub(crate) fn ensure_cache(&mut self, cache: ResultCache) {
        self.cache.get_or_insert(cache);
    }

    /// The `(setup fingerprint, application)` memoization scope of this
    /// campaign's runs — see [`TestSetup::fingerprint`].
    pub(crate) fn scope(&self) -> u64 {
        *self.scope.get_or_init(|| {
            let text = format!("{}\n{:016x}", self.app.name(), self.setup.fingerprint());
            crate::engine::planner::fnv1a(text.as_bytes())
        })
    }

    /// Builds the static analysis that [`Campaign::schedule`] prunes with
    /// from `clean`, this campaign's clean run (a no-op when pre-pruning is
    /// off or the analysis exists). [`Campaign::plan`] seeds it with its
    /// own clean run and the driver with the clean run of a plan the
    /// campaign arrives with, so the analysis never costs a clean run.
    pub(crate) fn seed_analysis(&self, clean: &RunOutcome) {
        if self.options.static_prune {
            self.analysis
                .get_or_init(|| crate::analysis::AppAnalysis::from_clean_run(self.setup, clean));
        }
    }

    /// Steps 1–5: trace the application and build the fault plan.
    pub(crate) fn plan(&self) -> CampaignPlan {
        let clean = run_once(self.setup, self.app, None);
        self.seed_analysis(&clean);
        let summaries = clean.os.trace.sites();
        let reaccessed = clean.os.trace.reaccessed_files();
        let mut exec_resolutions: BTreeMap<String, String> = BTreeMap::new();
        for ev in clean.os.audit.events() {
            if let AuditEvent::Exec {
                requested, resolved, ..
            } = ev
            {
                exec_resolutions
                    .entry(requested.clone())
                    .or_insert_with(|| resolved.to_string());
            }
        }
        let ctx = DirectContext {
            scenario: &self.setup.world.scenario,
            reaccessed: &reaccessed,
            exec_resolutions: &exec_resolutions,
            cwd: &self.setup.cwd,
        };
        let mut sites = Vec::new();
        let mut taken = 0usize;
        for summary in summaries {
            let mut included = match &self.options.site_filter {
                Some(filter) => filter.contains(&summary.site),
                None => true,
            };
            if included {
                if let Some(max) = self.options.max_sites {
                    if taken >= max {
                        included = false;
                    }
                }
            }
            let mut faults = faults_for_site(&summary, &ctx);
            if let Some(limit) = self.options.max_faults_per_site {
                faults.truncate(limit);
            }
            if included && !faults.is_empty() {
                taken += 1;
            }
            let occurrences = summary.hits.min(self.options.max_occurrences_per_site).max(1);
            sites.push(PlannedSite {
                summary,
                included,
                occurrences,
                faults,
            });
        }
        CampaignPlan { clean, sites }
    }

    /// Runs one injection job: the perturbed run, plus whether its fault
    /// fired.
    pub(crate) fn run_injected(&self, job: &InjectionPlan) -> (RunOutcome, bool) {
        let (hook, fired) = InjectionHook::new(job.clone());
        let outcome = run_once(self.setup, self.app, Some(Box::new(hook)));
        (outcome, fired.get())
    }

    /// Runs one injection job into its executed record.
    pub(crate) fn run_job(&self, job: &InjectionPlan) -> FaultRecord {
        let (outcome, applied) = self.run_injected(job);
        outcome.into_record(job, applied)
    }

    /// As [`Campaign::run_job`], but claim-aware: with a result cache
    /// installed, at most one thread — across the workers of a suite's
    /// pool, and even simultaneous suites sharing the cache — executes each
    /// `(scope, FaultKey)`; concurrent callers block on the in-flight claim
    /// ([`ResultCache::begin`]) and replay the winner's digest. Without a
    /// cache this is exactly [`Campaign::run_job`].
    pub(crate) fn run_job_cached(&self, job: &InjectionPlan) -> FaultRecord {
        let Some(cache) = self.cache.clone() else {
            return self.run_job(job);
        };
        let key = FaultKey::of(job);
        match cache.begin(self.scope(), &key) {
            Claim::Replay(digest) => digest.replay(job),
            Claim::Execute(token) => {
                let record = self.run_job(job);
                token.fulfill(RunDigest::of(&record));
                record
            }
        }
    }

    /// Canonicalizes a flat job list against this campaign's scope, cache,
    /// and dedup setting (the planner's entry point; the driver runs the
    /// schedule so cache replays never occupy a worker slot). With
    /// pre-pruning on, the analysis must be seeded first.
    pub(crate) fn schedule(&self, jobs: &[InjectionPlan]) -> Schedule {
        let scope = if self.cache.is_some() { self.scope() } else { 0 };
        let analysis = self.analysis.get();
        assert_eq!(
            analysis.is_some(),
            self.options.static_prune,
            "a pruning campaign's analysis is seeded before it schedules"
        );
        let prune = analysis.map(|a| move |job: &InjectionPlan| a.pruned_digest(job));
        let prune_ref: Option<crate::engine::planner::PruneFn<'_>> = prune
            .as_ref()
            .map(|f| f as &dyn Fn(&InjectionPlan) -> Option<RunDigest>);
        Schedule::build(jobs, scope, self.cache.as_ref(), self.options.dedup, prune_ref)
    }

    /// Folds a finished campaign's records (in plan order) into its report.
    pub(crate) fn report_from(&self, plan: &CampaignPlan, records: Vec<FaultRecord>) -> CampaignReport {
        // Interaction points, in the paper's sense, are the places where the
        // catalog has something to perturb — pure-output sites (prints) have
        // no applicable faults and do not count against coverage.
        let perturbable = plan.sites.iter().filter(|s| !s.faults.is_empty()).count();
        let perturbed_sites = plan.sites.iter().filter(|s| s.included && !s.faults.is_empty()).count();
        CampaignReport {
            app: self.app.name().to_string(),
            total_sites: perturbable,
            perturbed_sites,
            clean_violations: plan.clean.violations.len(),
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Session, Suite};
    use epa_sandbox::cred::Gid;
    use epa_sandbox::mode::Mode;
    use epa_sandbox::trace::InputSemantic;

    /// A tiny lpr-like program: create a spool file, write the job to it.
    struct MiniLpr;
    impl Application for MiniLpr {
        fn name(&self) -> &'static str {
            "mini-lpr"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(job) = os.sys_arg(pid, "lpr:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            // Vulnerable: creat without O_EXCL, like the BSD lpr of §3.4.
            if os
                .sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", job, 0o660)
                .is_err()
            {
                let _ = os.sys_print(pid, "lpr:err", "lpr: cannot create spool file\n");
                return 1;
            }
            0
        }
    }

    fn setup() -> TestSetup {
        let mut os = Os::new();
        os.users.add("root", Uid::ROOT, Gid::ROOT, "/root");
        os.users
            .add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
        os.users
            .add("evil", os.scenario.attacker, os.scenario.attacker_gid, "/home/evil");
        os.fs
            .mkdir_p("/var/spool/lpd", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        os.fs
            .put_file("/etc/passwd", "root:0:0:", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        os.fs
            .put_file("/etc/shadow", "root:HASH", Uid::ROOT, Gid::ROOT, Mode::new(0o600))
            .unwrap();
        os.fs
            .put_file("/usr/bin/lpr", "", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))
            .unwrap();
        crate::perturb::tag_standard_targets(&mut os);
        TestSetup {
            program: Some("/usr/bin/lpr".into()),
            args: vec!["report.txt".into()],
            ..TestSetup::new(os)
        }
    }

    fn session(options: CampaignOptions) -> Session {
        Session::from_setup(setup()).with_options(options)
    }

    #[test]
    fn clean_run_is_violation_free() {
        let s = setup();
        let out = run_once(&s, &MiniLpr, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.os.trace.sites().len(), 2);
    }

    #[test]
    fn plan_enumerates_sites_and_faults() {
        let plan = session(CampaignOptions::default()).plan(&MiniLpr);
        assert_eq!(plan.sites.len(), 2);
        // Site 1 (arg): 5 user-file-name indirect faults.
        assert_eq!(plan.sites[0].faults.len(), 5);
        // Site 2 (create): 4 direct file faults, as in §3.4.
        assert_eq!(plan.sites[1].faults.len(), 4);
        assert_eq!(plan.total_faults(), 9);
    }

    #[test]
    fn execute_detects_the_lpr_vulnerabilities() {
        let report = session(CampaignOptions::default()).execute(&MiniLpr);
        assert_eq!(report.clean_violations, 0);
        assert_eq!(report.injected(), 9);
        // The four create-site perturbations all defeat the naive creat.
        let create_violations: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.site == "lpr:create" && !r.tolerated())
            .map(|r| r.fault_id.clone())
            .collect();
        assert_eq!(create_violations.len(), 4, "{create_violations:?}");
        assert_eq!(report.perturbed_sites, 2);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let seq = session(CampaignOptions::default()).execute(&MiniLpr);
        let mut suite = Suite::new().with_workers(4);
        suite.register_session(MiniLpr, session(CampaignOptions::default()));
        let par = suite.execute().reports.remove(0);
        assert_eq!(seq.injected(), par.injected());
        assert_eq!(seq.violated(), par.violated());
        let seq_ids: Vec<_> = seq.records.iter().map(|r| &r.fault_id).collect();
        let par_ids: Vec<_> = par.records.iter().map(|r| &r.fault_id).collect();
        assert_eq!(seq_ids, par_ids, "records must come back in plan order");
    }

    #[test]
    fn options_limit_sites_and_faults() {
        let report = session(CampaignOptions {
            max_sites: Some(1),
            max_faults_per_site: Some(2),
            ..Default::default()
        })
        .execute(&MiniLpr);
        assert_eq!(report.perturbed_sites, 1);
        assert_eq!(report.injected(), 2);
        assert!(report.interaction_coverage().value_or(1.0) < 1.0);
    }

    #[test]
    fn site_filter_selects_specific_points() {
        let mut filter = BTreeSet::new();
        filter.insert(SiteId::new("lpr:create"));
        let report = session(CampaignOptions {
            site_filter: Some(filter),
            ..Default::default()
        })
        .execute(&MiniLpr);
        assert!(report.records.iter().all(|r| r.site == "lpr:create"));
        assert_eq!(report.injected(), 4);
    }

    #[test]
    fn occurrence_cap_expands_plans_with_occurrence_sensitive_faults() {
        let base = session(CampaignOptions::default()).plan(&MiniLpr);
        let expanded = session(CampaignOptions {
            max_occurrences_per_site: usize::MAX,
            ..Default::default()
        })
        .plan(&MiniLpr);
        // MiniLpr hits each site once, so even an uncapped plan matches the
        // default first-hit plan: occurrence awareness adds jobs only when
        // the trace shows re-execution.
        assert_eq!(base.total_faults(), expanded.total_faults());
        assert!(expanded.sites.iter().all(|site| site.occurrences == 1));
        assert_eq!(base.jobs(), expanded.jobs());
    }

    #[test]
    fn execute_until_stops_at_the_criterion() {
        // MiniLpr has two perturbable sites; 0.5 coverage stops after one.
        let half = session(CampaignOptions::default()).execute_until(&MiniLpr, 0.5);
        assert_eq!(half.perturbed_sites, 1);
        assert_eq!(half.interaction_coverage().fraction(), Some(0.5));
        assert!(half.injected() < 9);
        // 1.0 coverage runs everything.
        let full = session(CampaignOptions::default()).execute_until(&MiniLpr, 1.0);
        assert_eq!(full.perturbed_sites, 2);
        assert_eq!(full.injected(), 9);
        // An unreachable criterion also runs everything (and reports < 1.0
        // only if sites were excluded, which they are not here).
        let over = session(CampaignOptions::default()).execute_until(&MiniLpr, 2.0);
        assert_eq!(over.perturbed_sites, 2);
    }

    struct Panicker;
    impl Application for Panicker {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn run(&self, _os: &mut Os, _pid: Pid) -> i32 {
            panic!("deliberate crash for harness robustness");
        }
    }

    #[test]
    fn harness_survives_a_panicking_application_and_keeps_the_payload() {
        let s = setup();
        let out = run_once(&s, &Panicker, None);
        assert!(out.has_crashed());
        assert_eq!(out.crashed.as_deref(), Some("deliberate crash for harness robustness"));
        assert_eq!(out.exit, None);
    }

    /// Strips the planner's replay flag so replayed reports compare equal
    /// to executed ones field-for-field.
    fn without_cache_flags(mut report: CampaignReport) -> CampaignReport {
        for r in &mut report.records {
            r.cache_hit = false;
        }
        report
    }

    #[test]
    fn memoized_rerun_replays_every_record_byte_identically() {
        let cache = ResultCache::new();
        let cached = || session(CampaignOptions::default()).with_result_cache(cache.clone());
        let first = cached().execute(&MiniLpr);
        assert_eq!(first.cache_hits(), 0, "a cold cache replays nothing");
        let second = cached().execute(&MiniLpr);
        assert_eq!(
            second.cache_hits(),
            second.injected() - second.pruned(),
            "a warm cache replays every executed run"
        );
        assert_eq!(second.runs_executed(), 0);
        assert_eq!(without_cache_flags(second), without_cache_flags(first.clone()));
        // And the memoized report still matches the exhaustive baseline.
        let exhaustive = session(CampaignOptions {
            dedup: false,
            ..Default::default()
        })
        .execute(&MiniLpr);
        assert_eq!(without_cache_flags(first), exhaustive);
    }

    #[test]
    fn cache_does_not_leak_across_applications() {
        let s = setup();
        let cache = ResultCache::new();
        let _ = session(CampaignOptions::default())
            .with_result_cache(cache.clone())
            .execute(&MiniLpr);
        // A different application over the same world must not replay the
        // MiniLpr outcomes: its scope differs.
        struct OtherLpr;
        impl Application for OtherLpr {
            fn name(&self) -> &'static str {
                "other-lpr"
            }
            fn run(&self, os: &mut Os, pid: Pid) -> i32 {
                MiniLpr.run(os, pid)
            }
        }
        let other = Session::from_setup(s).with_result_cache(cache).execute(&OtherLpr);
        assert_eq!(other.cache_hits(), 0);
        assert_eq!(other.runs_executed(), other.injected() - other.pruned());
    }

    #[test]
    fn scope_is_stable_and_world_sensitive() {
        let s = setup();
        let a = Campaign::new(&MiniLpr, &s, CampaignOptions::default()).scope();
        let b = Campaign::new(&MiniLpr, &s, CampaignOptions::default()).scope();
        assert_eq!(a, b, "same app, same frozen world, same scope");
        let mut s2 = setup();
        s2.world
            .fs
            .put_file("/etc/extra", "x", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        assert_ne!(
            Campaign::new(&MiniLpr, &s2, CampaignOptions::default()).scope(),
            a,
            "a changed world changes the scope"
        );
    }
}
