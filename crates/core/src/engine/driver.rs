//! The campaign driver: the one loop that turns fault plans into records.
//!
//! Steps 6–8 of the paper's §3.3 procedure — re-run the application once
//! per planned fault and ask the oracle — are one operation, and this
//! module is its only implementation. A [`crate::engine::Session`] drives
//! one campaign inline on the calling thread; a [`crate::engine::Suite`]
//! drives all of its campaigns over one shared [`Executor`] queue.
//!
//! Every campaign contributes a planning job (unless it arrives with a
//! pre-built plan, which is prepared up front on the calling thread). A
//! worker runs it whole ([`Campaign::prepare`]): the clean trace, the fault
//! plan, the static analysis, the canonical keys and the non-blocking cache
//! and store lookups of the campaign's schedule, and the report header. So
//! campaigns plan in parallel, and alongside other campaigns' injections.
//! The calling thread only books results: it replays the statically pruned
//! and cache-resolved jobs (with their dedup aliases) from the schedule's
//! digests, never occupying a worker slot, and fans the remaining
//! canonical misses back onto the same queue, so idle workers steal across
//! campaign boundaries. Records are reassembled into plan order by job
//! index, so every worker count yields byte-identical reports.

use crate::campaign::{Campaign, CampaignPlan, Prepared};
use crate::engine::executor::Executor;
use crate::engine::planner::RunDigest;
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

/// Pending runs one injection job carries. Each job's records travel back
/// to the calling thread as one message, and with nothing else to do the
/// calling thread parks between messages: one run per job wakes it once
/// per run, which costs a context switch per run on a host with as many
/// workers as CPUs. A few runs per job keep the end of a batch
/// fine-grained enough for idle workers to steal.
const RUNS_PER_JOB: usize = 4;

/// One unit of work on the shared queue.
enum Job {
    /// Trace, plan and schedule campaign `app` ([`Campaign::prepare`]).
    Plan(usize),
    /// Run `(index, job)` pending injections of campaign `app`'s plan, in
    /// order.
    Inject {
        app: usize,
        runs: Vec<(usize, InjectionPlan)>,
    },
}

/// A completed unit of work, back on the calling thread.
enum Done {
    Planned {
        app: usize,
        prepared: Box<Prepared>,
    },
    Ran {
        app: usize,
        records: Vec<(usize, FaultRecord)>,
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
    let mut slots: Vec<Slot> = (0..bound.len()).map(|_| Slot::default()).collect();
    let mut seed = Vec::new();
    for (app, b) in bound.into_iter().enumerate() {
        match b.plan {
            None => seed.push(Job::Plan(app)),
            Some(given) => seed.extend(slots[app].start(app, campaigns[app].prepare(Some(given)), on_progress)),
        }
    }
    executor.run_expanding(
        seed,
        |job| match job {
            Job::Plan(app) => Done::Planned {
                app,
                prepared: Box::new(campaigns[app].prepare(None)),
            },
            Job::Inject { app, runs } => Done::Ran {
                app,
                // Claim-aware: when several suites share one cache, a run
                // another suite is executing right now is waited out and
                // replayed instead of duplicated.
                records: runs
                    .iter()
                    .map(|(idx, plan)| (*idx, campaigns[app].run_job_cached(plan)))
                    .collect(),
            },
        },
        &mut |done| match done {
            Done::Planned { app, prepared } => slots[app].start(app, *prepared, on_progress),
            Done::Ran { app, records } => {
                for (idx, record) in records {
                    slots[app].complete(app, idx, record, on_progress);
                }
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
struct Slot {
    /// The prepared campaign: its report header, jobs and schedule.
    prepared: Option<Prepared>,
    records: Vec<Option<FaultRecord>>,
    /// Pending runs (queued or running) whose records are still due.
    outstanding: usize,
    report: Option<CampaignReport>,
}

impl Slot {
    /// Takes the campaign's finished schedule: replays its statically
    /// pruned and cache-resolved jobs (with their aliases), then returns
    /// every pending execution, in plan order and [`RUNS_PER_JOB`] to a
    /// job, for the queue.
    fn start(&mut self, app: usize, prepared: Prepared, on_progress: &mut dyn FnMut(usize, Progress<'_>)) -> Vec<Job> {
        let Prepared { jobs, schedule, .. } = &prepared;
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
            .chunks(RUNS_PER_JOB)
            .map(|chunk| Job::Inject {
                app,
                runs: chunk.iter().map(|&idx| (idx, jobs[idx].clone())).collect(),
            })
            .collect();
        self.outstanding = schedule.pending.len();
        self.prepared = Some(prepared);
        if self.outstanding == 0 {
            self.finish(app, on_progress);
        }
        next
    }

    /// Books one executed canonical record and replays its aliases. The
    /// record's digest is already in the cache: the worker's claim
    /// published it.
    fn complete(
        &mut self,
        app: usize,
        idx: usize,
        record: FaultRecord,
        on_progress: &mut dyn FnMut(usize, Progress<'_>),
    ) {
        on_progress(app, Progress::Record(&record));
        self.outstanding -= 1;
        let prepared = self.prepared.as_ref().expect("schedule arrives before its records");
        let aliases = prepared.schedule.aliases_of(idx);
        if !aliases.is_empty() {
            let digest = RunDigest::of(&record);
            for &alias in aliases {
                let replay = digest.replay(&prepared.jobs[alias]);
                on_progress(app, Progress::Record(&replay));
                self.records[alias] = Some(replay);
            }
        }
        self.records[idx] = Some(record);
        if self.outstanding == 0 {
            self.finish(app, on_progress);
        }
    }

    /// Folds the finished campaign's records (already in plan order by
    /// index) into its report.
    fn finish(&mut self, app: usize, on_progress: &mut dyn FnMut(usize, Progress<'_>)) {
        // The jobs and schedule are dropped with this call: a suite holds
        // nothing of a finished campaign but its report.
        let header = self
            .prepared
            .take()
            .expect("schedule arrives before its records")
            .header;
        // A missing record is an accounting bug and must fail loudly, not
        // silently truncate the report.
        let records: Vec<FaultRecord> = self
            .records
            .drain(..)
            .map(|r| r.expect("all records complete before the campaign finishes"))
            .collect();
        let report = CampaignReport { records, ..header };
        on_progress(app, Progress::Finished(&report));
        self.report = Some(report);
    }
}
