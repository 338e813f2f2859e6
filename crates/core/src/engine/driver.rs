//! The campaign driver: the one loop that turns fault plans into records.
//!
//! Steps 6–8 of the paper's §3.3 procedure — re-run the application once
//! per planned fault and ask the oracle — are one operation, and this
//! module is its only implementation. A [`crate::engine::Session`] drives
//! one campaign inline on the calling thread; a [`crate::engine::Suite`]
//! drives all of its campaigns over one shared [`Executor`] queue.
//!
//! Every campaign contributes a planning job (unless it arrives with a
//! pre-built plan). Completing it runs the planner over the campaign's
//! `(site, occurrence, fault)` jobs — statically pruned jobs, cache hits
//! and dedup aliases resolve inline on the calling thread, never occupying
//! a worker slot — and fans only the remaining canonical misses back onto
//! the same queue, so idle workers steal across campaign boundaries.
//! Records are reassembled into plan order by job index, so every worker
//! count yields byte-identical reports.

use crate::campaign::{Campaign, CampaignPlan};
use crate::engine::executor::Executor;
use crate::engine::planner::{RunDigest, Schedule};
use crate::inject::InjectionPlan;
use crate::report::{CampaignReport, FaultRecord};

/// One campaign bound for [`drive`].
pub(crate) struct Bound<'c, 'a> {
    pub(crate) campaign: &'c Campaign<'a>,
    /// A pre-built plan and the jobs to run from it; `None` traces and
    /// plans the campaign on the pool, then runs every planned job.
    pub(crate) plan: Option<(&'c CampaignPlan, Vec<InjectionPlan>)>,
}

impl<'c, 'a> Bound<'c, 'a> {
    /// Plans `campaign` on the pool and runs its whole plan.
    pub(crate) fn new(campaign: &'c Campaign<'a>) -> Bound<'c, 'a> {
        Bound { campaign, plan: None }
    }
}

/// What [`drive`] reports about campaign `i` while it runs.
pub(crate) enum Progress<'r> {
    /// One record resolved (executed, replayed or pruned), in completion
    /// order.
    Record(&'r FaultRecord),
    /// The campaign finished; its report is in plan order.
    Finished(&'r CampaignReport),
}

/// One unit of work on the shared queue.
enum Job {
    /// Trace campaign `app` and build its fault plan.
    Plan(usize),
    /// Run injection job `idx` of campaign `app`'s plan.
    Inject {
        app: usize,
        idx: usize,
        plan: InjectionPlan,
    },
}

/// A completed unit of work, back on the calling thread.
enum Done {
    Planned {
        app: usize,
        plan: Box<CampaignPlan>,
    },
    Ran {
        app: usize,
        idx: usize,
        record: FaultRecord,
    },
}

/// Drives every bound campaign to its report over `executor`, reporting
/// [`Progress`] by campaign index. Reports come back in binding order.
pub(crate) fn drive(
    executor: &Executor,
    bound: Vec<Bound<'_, '_>>,
    on_progress: &mut dyn FnMut(usize, Progress<'_>),
) -> Vec<CampaignReport> {
    let campaigns: Vec<&Campaign<'_>> = bound.iter().map(|b| b.campaign).collect();
    let mut slots = Vec::with_capacity(bound.len());
    let mut seed = Vec::new();
    for (app, b) in bound.into_iter().enumerate() {
        let mut slot = Slot::default();
        match b.plan {
            None => seed.push(Job::Plan(app)),
            Some((plan, jobs)) => {
                // The plan already holds the clean run the analysis needs.
                campaigns[app].seed_analysis(&plan.clean);
                slot.given = Some(plan);
                seed.extend(slot.start(app, campaigns[app], jobs, on_progress));
            }
        }
        slots.push(slot);
    }
    executor.run_expanding(
        seed,
        |job| match job {
            Job::Plan(app) => Done::Planned {
                app,
                plan: Box::new(campaigns[app].plan()),
            },
            Job::Inject { app, idx, plan } => Done::Ran {
                app,
                idx,
                // Claim-aware: when several suites share one cache, a run
                // another suite is executing right now is waited out and
                // replayed instead of duplicated.
                record: campaigns[app].run_job_cached(&plan),
            },
        },
        &mut |done| match done {
            Done::Planned { app, plan } => {
                let jobs = plan.jobs();
                let slot = &mut slots[app];
                slot.planned = Some(plan);
                slot.start(app, campaigns[app], jobs, on_progress)
            }
            Done::Ran { app, idx, record } => {
                slots[app].complete(app, campaigns[app], idx, record, on_progress);
                Vec::new()
            }
        },
    );
    slots
        .into_iter()
        .map(|s| s.report.expect("every campaign completes"))
        .collect()
}

/// Runs one bound campaign inline on the calling thread.
pub(crate) fn drive_one(bound: Bound<'_, '_>) -> CampaignReport {
    let mut reports = drive(&Executor::with_workers(1), vec![bound], &mut |_, _| {});
    reports.pop().expect("one campaign, one report")
}

/// Per-campaign assembly state while the driver runs.
#[derive(Default)]
struct Slot<'c> {
    /// The plan the campaign arrived with, or the one planned on the pool.
    given: Option<&'c CampaignPlan>,
    planned: Option<Box<CampaignPlan>>,
    jobs: Vec<InjectionPlan>,
    schedule: Option<Schedule>,
    records: Vec<Option<FaultRecord>>,
    /// Jobs on the queue (or running) whose results are still due.
    outstanding: usize,
    report: Option<CampaignReport>,
}

impl<'c> Slot<'c> {
    /// Schedules the campaign's jobs: resolves statically pruned jobs and
    /// cache replays (with their aliases) inline, then returns every
    /// pending execution, in plan order, for the queue.
    fn start(
        &mut self,
        app: usize,
        campaign: &Campaign<'_>,
        jobs: Vec<InjectionPlan>,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) -> Vec<Job> {
        let schedule = campaign.schedule(&jobs);
        self.records = (0..jobs.len()).map(|_| None).collect();
        let replays = schedule
            .pruned
            .iter()
            .map(|(idx, digest)| (idx, digest, true))
            .chain(schedule.resolved.iter().map(|(idx, digest)| (idx, digest, false)));
        for (idx, digest, pruned) in replays {
            for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                let record = if pruned {
                    digest.replay_pruned(&jobs[i])
                } else {
                    digest.replay(&jobs[i])
                };
                on_progress(app, Progress::Record(&record));
                self.records[i] = Some(record);
            }
        }
        let next: Vec<Job> = schedule
            .pending
            .iter()
            .map(|&idx| Job::Inject {
                app,
                idx,
                plan: jobs[idx].clone(),
            })
            .collect();
        self.outstanding = next.len();
        self.jobs = jobs;
        self.schedule = Some(schedule);
        if self.outstanding == 0 {
            self.finish(app, campaign, on_progress);
        }
        next
    }

    /// Books one executed canonical record and replays its aliases. The
    /// record's digest is already in the cache: the worker's claim
    /// published it.
    fn complete(
        &mut self,
        app: usize,
        campaign: &Campaign<'_>,
        idx: usize,
        record: FaultRecord,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) {
        on_progress(app, Progress::Record(&record));
        self.outstanding -= 1;
        let schedule = self.schedule.as_ref().expect("schedule arrives before its records");
        let aliases = schedule.aliases_of(idx);
        if !aliases.is_empty() {
            let digest = RunDigest::of(&record);
            for &alias in aliases {
                let replay = digest.replay(&self.jobs[alias]);
                on_progress(app, Progress::Record(&replay));
                self.records[alias] = Some(replay);
            }
        }
        self.records[idx] = Some(record);
        if self.outstanding == 0 {
            self.finish(app, campaign, on_progress);
        }
    }

    /// Folds the finished campaign's records (already in plan order by
    /// index) into its report.
    fn finish(&mut self, app: usize, campaign: &Campaign<'_>, on_progress: &mut dyn FnMut(usize, Progress<'_>)) {
        // The plan is dropped with this call: a suite holds no finished
        // campaign's clean run.
        let planned = self.planned.take();
        let plan = planned
            .as_deref()
            .or(self.given)
            .expect("plan arrives before its records");
        // A missing record is an accounting bug and must fail loudly, not
        // silently truncate the report.
        let records: Vec<FaultRecord> = self
            .records
            .drain(..)
            .map(|r| r.expect("all records complete before the campaign finishes"))
            .collect();
        let report = campaign.report_from(plan, records);
        on_progress(app, Progress::Finished(&report));
        self.report = Some(report);
    }
}
