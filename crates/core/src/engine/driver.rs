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
//! the same queue, so idle workers steal across campaign boundaries. A
//! budgeted campaign enqueues one job at a time (each pick feeds on the
//! previous outcome) while other campaigns keep the workers busy. Records
//! are reassembled into plan order by job index, so every worker count
//! yields byte-identical reports.

use crate::campaign::{Campaign, CampaignPlan};
use crate::engine::executor::Executor;
use crate::engine::planner::{RunDigest, Schedule, YieldStats};
use crate::inject::InjectionPlan;
use crate::report::{CampaignReport, FaultRecord};

/// One campaign bound for [`drive`].
pub(crate) struct Bound<'c, 'a> {
    pub(crate) campaign: &'c Campaign<'a>,
    /// A pre-built plan and the jobs to run from it; `None` traces and
    /// plans the campaign on the pool, then runs every planned job.
    pub(crate) plan: Option<(&'c CampaignPlan, Vec<InjectionPlan>)>,
    /// Runs the campaign may execute (`None` = the exhaustive plan).
    /// Replays are free: only executed runs spend it.
    pub(crate) budget: Option<usize>,
}

impl<'c, 'a> Bound<'c, 'a> {
    /// Plans `campaign` on the pool and runs its whole plan under its
    /// configured budget.
    pub(crate) fn new(campaign: &'c Campaign<'a>) -> Bound<'c, 'a> {
        Bound {
            campaign,
            plan: None,
            budget: campaign.plan_budget(),
        }
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
        let mut slot = Slot::new(b.budget);
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
            Done::Ran { app, idx, record } => slots[app].complete(app, campaigns[app], idx, record, on_progress),
        },
    );
    slots
        .into_iter()
        .map(|s| s.report.expect("every campaign completes"))
        .collect()
}

/// Runs one bound campaign inline on the calling thread, streaming every
/// record to `on_record`.
pub(crate) fn drive_one(bound: Bound<'_, '_>, on_record: &mut dyn FnMut(&FaultRecord)) -> CampaignReport {
    let mut reports = drive(&Executor::with_workers(1), vec![bound], &mut |_, progress| {
        if let Progress::Record(record) = progress {
            on_record(record);
        }
    });
    reports.pop().expect("one campaign, one report")
}

/// Per-campaign assembly state while the driver runs.
struct Slot<'c> {
    /// The plan the campaign arrived with, or the one planned on the pool.
    given: Option<&'c CampaignPlan>,
    planned: Option<Box<CampaignPlan>>,
    jobs: Vec<InjectionPlan>,
    schedule: Option<Schedule>,
    records: Vec<Option<FaultRecord>>,
    /// Pending canonical job indices not yet handed to the queue.
    remaining: Vec<usize>,
    /// Jobs on the queue (or running) whose results are still due.
    outstanding: usize,
    /// Runs this campaign may still execute (`None` = unbudgeted).
    budget_left: Option<usize>,
    stats: YieldStats,
    report: Option<CampaignReport>,
}

impl<'c> Slot<'c> {
    fn new(budget: Option<usize>) -> Slot<'c> {
        Slot {
            given: None,
            planned: None,
            jobs: Vec::new(),
            schedule: None,
            records: Vec::new(),
            remaining: Vec::new(),
            outstanding: 0,
            budget_left: budget,
            stats: YieldStats::new(),
            report: None,
        }
    }

    /// Schedules the campaign's jobs: resolves statically pruned jobs and
    /// cache replays (with their aliases) inline, then returns the first
    /// executions for the queue.
    fn start(
        &mut self,
        app: usize,
        campaign: &Campaign<'_>,
        jobs: Vec<InjectionPlan>,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) -> Vec<Job> {
        let schedule = campaign.schedule(&jobs);
        self.records = (0..jobs.len()).map(|_| None).collect();
        self.remaining.clone_from(&schedule.pending);
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
                self.stats.observe(record.category, !record.tolerated());
                on_progress(app, Progress::Record(&record));
                self.records[i] = Some(record);
            }
        }
        self.jobs = jobs;
        self.schedule = Some(schedule);
        self.advance(app, campaign, on_progress)
    }

    /// Books one executed canonical record: charges the budget unless it
    /// was a claim replay, and replays its aliases. The record's digest is
    /// already in the cache: the worker's claim published it.
    fn complete(
        &mut self,
        app: usize,
        campaign: &Campaign<'_>,
        idx: usize,
        record: FaultRecord,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) -> Vec<Job> {
        on_progress(app, Progress::Record(&record));
        self.outstanding -= 1;
        if let Some(left) = &mut self.budget_left {
            if !record.cache_hit {
                *left = left.saturating_sub(1);
            }
        }
        self.stats.observe(record.category, !record.tolerated());
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
        self.advance(app, campaign, on_progress)
    }

    /// Returns the next executions for the queue — every remaining one in
    /// plan order (exhaustive), or exactly one chosen by observed verdict
    /// yield (budgeted: at most one of this campaign's jobs is in flight)
    /// — and folds the campaign into its report once nothing is left.
    fn advance(
        &mut self,
        app: usize,
        campaign: &Campaign<'_>,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) -> Vec<Job> {
        let next = match self.budget_left {
            None => std::mem::take(&mut self.remaining),
            Some(0) => {
                self.remaining.clear();
                Vec::new()
            }
            Some(_) if self.remaining.is_empty() || self.outstanding > 0 => Vec::new(),
            Some(_) => {
                let pos = self.stats.pick(&self.remaining, &self.jobs);
                vec![self.remaining.remove(pos)]
            }
        };
        self.outstanding += next.len();
        if self.outstanding == 0 && self.remaining.is_empty() {
            self.finish(app, campaign, on_progress);
        }
        next.into_iter()
            .map(|idx| Job::Inject {
                app,
                idx,
                plan: self.jobs[idx].clone(),
            })
            .collect()
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
        // Only a budget may legitimately drop jobs; an unbudgeted campaign
        // missing a record is an accounting bug and must fail loudly, not
        // silently truncate the report.
        let records: Vec<FaultRecord> = if self.budget_left.is_some() {
            self.records.drain(..).flatten().collect()
        } else {
            self.records
                .drain(..)
                .map(|r| r.expect("all records complete before the campaign finishes"))
                .collect()
        };
        let report = campaign.report_from(plan, records);
        on_progress(app, Progress::Finished(&report));
        self.report = Some(report);
    }
}
