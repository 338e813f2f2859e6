//! The four workloads: their inputs, their reference verdicts, and one
//! batch — a `Suite::execute_with` call on a freshly built suite.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use epa_apps::{BoxedApp, ScriptedApp};
use epa_core::campaign::CampaignOptions;
use epa_core::corpus::{synthesize, CorpusConfig, Scenario};
use epa_core::engine::{Session, Suite, SuiteEvent, SuiteReport, WorldSpec};
use epa_core::store::{DiskStore, ResultStore};

use crate::probe::{AppCounters, StoreCounts, TimedApp, TimedStore, Tracer};

/// Scenarios synthesized for `corpus-cold`.
pub const CORPUS_SCENARIOS: usize = 120;
/// Scenarios per `corpus-cold` batch (three slices cycle).
pub const CORPUS_SLICE: usize = 40;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight-app standard suite, in-memory cache.
    SuiteCold,
    /// Synthesized corpus scenarios, 40 per batch.
    CorpusCold,
    /// The standard suite replayed from a filled disk store.
    SuiteWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SuiteCold, Workload::CorpusCold, Workload::SuiteWarm];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::CorpusCold => "corpus-cold",
            Workload::SuiteWarm => "suite-warm",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The benchmark package's own directory (scratch space lives under it).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// A scratch directory under the benchmark's directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<bench dir>/tmp/<tag>-<pid>`, empty.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let dir = bench_dir().join("tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the shared parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The comparable verdict set of a report: one line per record with the
/// campaign's position, app, site, occurrence, fault id and serialized
/// violations. Provenance (`cache_hit`, `pruned`) is deliberately left out.
pub fn verdict_lines(report: &SuiteReport, first_campaign: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for (i, r) in report.reports.iter().enumerate() {
        for rec in &r.records {
            let violations = serde_json::to_string(&rec.violations).expect("verdicts serialize");
            lines.push(format!(
                "{}|{}|{}|{}|{}|{violations}",
                first_campaign + i,
                r.app,
                rec.site,
                rec.occurrence,
                rec.fault_id
            ));
        }
    }
    lines
}

/// The exhaustive sequential path every reference is computed with: no
/// dedup, no static pruning, one campaign at a time.
fn exhaustive() -> CampaignOptions {
    CampaignOptions {
        dedup: false,
        static_prune: false,
        ..CampaignOptions::default()
    }
}

/// A workload, set up: its inputs, worker count, reference verdicts per
/// batch kind, and (for the store workloads) the store directory.
pub struct Prepared {
    /// The workload.
    workload: Workload,
    /// Worker count of every pooled suite.
    pub workers: usize,
    /// The synthesized corpus (`corpus-cold` only).
    corpus: Vec<Scenario>,
    /// Reference verdict lines per batch kind.
    reference: Vec<Vec<String>>,
    /// The filled disk store batches replay from (`suite-warm` only).
    pub store_dir: Option<PathBuf>,
    /// Time spent synthesizing the corpus during this set-up.
    pub synthesize: Duration,
}

impl Prepared {
    /// Sets the workload up: synthesizes inputs, computes the reference
    /// verdicts on the exhaustive sequential path, checks the standard
    /// suite's reference against the committed `SUITE_report.json`, and
    /// (`suite-warm`) fills the store under `scratch`.
    ///
    /// # Errors
    ///
    /// A message when an input fails to build, the committed report is
    /// missing or disagrees, or the store cannot be prepared.
    pub fn new(workload: Workload, seed: u64, workers: usize, scratch: &Path) -> Result<Prepared, String> {
        let mut prepared = Prepared {
            workload,
            workers,
            corpus: Vec::new(),
            reference: Vec::new(),
            store_dir: None,
            synthesize: Duration::ZERO,
        };
        if workload == Workload::CorpusCold {
            let start = Instant::now();
            prepared.corpus = synthesize(&CorpusConfig {
                seed,
                count: CORPUS_SCENARIOS,
            });
            prepared.synthesize = start.elapsed();
        }
        // The exhaustive reference of every batch kind.
        for kind in 0..prepared.kinds() {
            let mut suite = Suite::new();
            for (app, spec) in prepared.inputs(kind) {
                let session = Session::new(&spec).map_err(|e| format!("spec fails to materialize: {e}"))?;
                suite.register_session(app, session.with_options(exhaustive()));
            }
            let report = suite.sequential().execute();
            prepared
                .reference
                .push(verdict_lines(&report, prepared.first_campaign(kind)));
        }
        if workload != Workload::CorpusCold {
            check_committed_report(&prepared.reference[0])?;
        }
        if workload == Workload::SuiteWarm {
            let dir = scratch.join("store");
            prepared.fill(&dir, None)?;
            prepared.store_dir = Some(dir);
        }
        Ok(prepared)
    }

    /// Number of distinct batch kinds (corpus slices; 1 for the suite).
    pub fn kinds(&self) -> usize {
        match self.workload {
            Workload::CorpusCold => CORPUS_SCENARIOS / CORPUS_SLICE,
            _ => 1,
        }
    }

    /// Corpus index of the first campaign of batch kind `kind` (0 on the
    /// suite workloads).
    pub fn first_campaign(&self, kind: usize) -> usize {
        match self.workload {
            Workload::CorpusCold => kind * CORPUS_SLICE,
            _ => 0,
        }
    }

    /// `(application, world)` pairs of batch kind `kind`, freshly built.
    pub fn inputs(&self, kind: usize) -> Vec<(BoxedApp, WorldSpec)> {
        match self.workload {
            Workload::CorpusCold => {
                let first = self.first_campaign(kind);
                self.corpus[first..first + CORPUS_SLICE].iter().map(scripted).collect()
            }
            _ => epa_apps::standard_apps(),
        }
    }

    /// A freshly built suite for batch kind `kind`, pinned to the worker
    /// count, over `store` when given. With `counters`, every application
    /// is wrapped in a [`TimedApp`] whose counters are pushed there.
    pub fn build_suite(
        &self,
        kind: usize,
        mut counters: Option<&mut Vec<Arc<AppCounters>>>,
        store: Option<Arc<dyn ResultStore>>,
    ) -> Suite {
        let mut suite = Suite::new();
        for (app, spec) in self.inputs(kind) {
            let session = Session::new(&spec).expect("inputs materialized during set-up");
            match counters.as_deref_mut() {
                Some(list) => {
                    let (timed, c) = TimedApp::new(app);
                    list.push(c);
                    suite.register_session(timed, session);
                }
                None => {
                    suite.register_session(app, session);
                }
            }
        }
        let suite = suite.with_workers(self.workers);
        match store {
            Some(store) => suite.with_store(store),
            None => suite,
        }
    }

    /// Fills an empty store at `dir` with the standard suite's digests:
    /// one pooled suite writing through to it, as the first
    /// `reproduce -- suite --store DIR` run does. With `tracer`, the store
    /// is wrapped in a [`TimedStore`] whose counts are returned.
    ///
    /// # Errors
    ///
    /// A message when the store cannot be opened, or the fill's verdicts
    /// differ from the reference or it executed nothing.
    pub fn fill(&self, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<FillOutcome, String> {
        let _ = std::fs::remove_dir_all(dir);
        let disk = DiskStore::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
        let (store, timed): (Arc<dyn ResultStore>, _) = match tracer {
            Some(t) => {
                let timed = Arc::new(TimedStore::new(disk, Arc::clone(t)));
                (Arc::clone(&timed) as Arc<dyn ResultStore>, Some(timed))
            }
            None => (Arc::new(disk), None),
        };
        let report = self.build_suite(0, None, Some(store)).execute();
        if verdict_lines(&report, 0) != self.reference[0] || report.total_runs_executed() == 0 {
            return Err("filling the store produced wrong verdicts or ran nothing".to_string());
        }
        Ok(FillOutcome {
            executed: report.total_runs_executed() as u64,
            counts: timed.map(|t| t.counts()),
        })
    }

    /// Opens a fresh handle over the filled store (`suite-warm` only).
    ///
    /// # Panics
    ///
    /// When the directory cannot be opened as a store.
    pub fn open_store(&self) -> Option<DiskStore> {
        let dir = self.store_dir.as_ref()?;
        Some(DiskStore::open(dir).unwrap_or_else(|e| panic!("store {}: {e}", dir.display())))
    }

    /// Checks a batch's report against the reference of its kind, and that
    /// a warm replay executed nothing. `Err` names the first difference.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(&self, kind: usize, report: &SuiteReport) -> Result<(), String> {
        let lines = verdict_lines(report, self.first_campaign(kind));
        let reference = &self.reference[kind];
        if lines != *reference {
            let at = lines.iter().zip(reference).position(|(a, b)| a != b);
            return Err(match at {
                Some(i) => format!("verdict differs from the reference: {} vs {}", lines[i], reference[i]),
                None => format!("{} records vs {} in the reference", lines.len(), reference.len()),
            });
        }
        if self.workload == Workload::SuiteWarm && report.total_runs_executed() != 0 {
            return Err(format!("a warm replay executed {} runs", report.total_runs_executed()));
        }
        Ok(())
    }
}

/// The outcome of [`Prepared::fill`].
pub struct FillOutcome {
    /// Runs the filling suite executed.
    pub executed: u64,
    /// The timing store's counts, when traced.
    pub counts: Option<StoreCounts>,
}

fn scripted(s: &Scenario) -> (BoxedApp, WorldSpec) {
    (Box::new(ScriptedApp::for_scenario(s)), s.spec.clone())
}

/// Checks the standard suite's exhaustive reference against the verdicts
/// of the committed `SUITE_report.json`.
fn check_committed_report(reference: &[String]) -> Result<(), String> {
    let path = repo_root().join("SUITE_report.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let committed: SuiteReport = serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    if verdict_lines(&committed, 0) != reference {
        return Err(format!(
            "the exhaustive reference disagrees with the verdicts in {}",
            path.display()
        ));
    }
    Ok(())
}

/// Probes installed on a traced batch: the span log, every wrapped
/// application's counters, and the timing store wrapper.
pub struct Probe {
    /// Span log of the pooled batches.
    pub tracer: Arc<Tracer>,
    /// Counters of each campaign's [`TimedApp`], in registration order.
    pub apps: Vec<Arc<AppCounters>>,
    /// The batch's timing store (`suite-warm` only).
    pub store: Option<Arc<TimedStore<DiskStore>>>,
}

impl Probe {
    /// Probes recording into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> Probe {
        Probe {
            tracer,
            apps: Vec::new(),
            store: None,
        }
    }
}

/// One finished batch.
pub struct Batch {
    /// Batch kind (corpus slice).
    pub kind: usize,
    /// The batch's root span id (0 when untraced).
    pub batch_id: u64,
    /// Wall-clock of opening the store, building the suite and executing it.
    pub wall: Duration,
    /// Time from the batch's start to its first record carrying a violation.
    pub first_finding: Option<Duration>,
    /// Per campaign, its `AppStarted` and `AppFinished` instants.
    pub app_spans: Vec<(Instant, Instant)>,
    /// The suite's report.
    pub report: SuiteReport,
    /// The suite's result-cache hit and miss counts.
    pub cache: (u64, u64),
}

/// Runs one batch of kind `kind`: opens a fresh store handle
/// (`suite-warm`), builds a fresh suite and executes it, streaming events.
/// With `probe`, applications and the store are wrapped in their timing
/// probes and the batch and its campaigns are recorded as spans.
pub fn run_batch(prep: &Prepared, kind: usize, mut probe: Option<&mut Probe>) -> Batch {
    let batch_id = probe.as_deref().map_or(0, |p| {
        let id = p.tracer.id();
        p.tracer.set_batch(id);
        p.tracer.set_current(id);
        id
    });
    let start = Instant::now();
    let store: Option<Arc<dyn ResultStore>> = prep.open_store().map(|disk| match probe.as_deref_mut() {
        Some(p) => {
            let timed = Arc::new(TimedStore::new(disk, Arc::clone(&p.tracer)));
            p.store = Some(Arc::clone(&timed));
            timed as Arc<dyn ResultStore>
        }
        None => Arc::new(disk) as Arc<dyn ResultStore>,
    });
    let suite = prep.build_suite(kind, probe.as_deref_mut().map(|p| &mut p.apps), store);
    let mut first_finding = None;
    let mut started: BTreeMap<String, VecDeque<Instant>> = BTreeMap::new();
    let mut app_spans = Vec::new();
    let report = suite.execute_with(&mut |event| match event {
        SuiteEvent::AppStarted { app } => started.entry(app).or_default().push_back(Instant::now()),
        SuiteEvent::Record { record, .. } if first_finding.is_none() && !record.violations.is_empty() => {
            first_finding = Some(start.elapsed());
        }
        SuiteEvent::AppFinished { app, .. } => {
            if let Some(t) = started.get_mut(&app).and_then(VecDeque::pop_front) {
                app_spans.push((t, Instant::now()));
            }
        }
        _ => {}
    });
    let end = Instant::now();
    if let Some(p) = probe {
        for &(a, b) in &app_spans {
            p.tracer.close(p.tracer.id(), "suite.app", a, b, batch_id, 1);
        }
        p.tracer.close(batch_id, "suite.batch", start, end, 0, 1);
    }
    let stats = suite.result_cache().stats();
    Batch {
        kind,
        batch_id,
        wall: end - start,
        first_finding,
        app_spans,
        report,
        cache: (stats.hits, stats.misses),
    }
}
