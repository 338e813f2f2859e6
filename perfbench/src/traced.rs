//! The traced run: per-layer metrics from spans recorded around the
//! engine's public calls.
//!
//! A traced run has three phases over the same workload, each run in
//! whole cycles (one batch per batch kind):
//!
//! 1. untraced pooled batches — the reference for tracing overhead;
//! 2. traced pooled batches — the real `Suite::execute_with` path with
//!    timing wrappers around every application and the store, and spans
//!    per batch and per campaign;
//! 3. decomposed batches — the same campaigns driven call by call through
//!    the layers' public functions on the calling thread (materialize,
//!    snapshot, clean run, plan, analysis, fault keys, schedule, injected
//!    runs, oracle, memoization), each call a span. Their verdicts must
//!    equal the reference, and their per-campaign counts must equal the
//!    pooled path's.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epa_core::analysis::AppAnalysis;
use epa_core::campaign::run_once;
use epa_core::engine::planner::{fnv1a, Schedule};
use epa_core::engine::{executor, Executor, FaultKey, ResultCache, RunDigest, Session, SuiteReport};
use epa_core::inject::{InjectionHook, InjectionPlan};
use epa_core::report::FaultRecord;
use epa_core::store::ResultStore;
use epa_sandbox::app::Application;
use epa_sandbox::intern;

use crate::metrics::Values;
use crate::probe::{self, Span, TimedApp, TimedStore, Tracer};
use crate::stats::median;
use crate::workload::{run_batch, Batch, Prepared, Probe};

/// Snapshots taken per timed snapshot loop (one loop per campaign).
const SNAPSHOT_LOOP: u64 = 64;
/// Spans a traced phase records at most (it stops after the cycle that
/// crosses this), bounding the traced run's memory.
const SPAN_CAP: usize = 300_000;
/// Cycles per phase whose spans are written to the span log.
const WRITTEN_CYCLES: usize = 1;
/// Store fills timed on `suite-warm` for the write-path metrics.
const FILLS: usize = 5;

/// Per-campaign outcome counts, compared between the two paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    /// Records (jobs planned).
    injected: u64,
    /// Runs executed.
    executed: u64,
    /// Records replayed from the cache or from an alias.
    replayed: u64,
    /// Records synthesized by static pruning.
    pruned: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.injected += o.injected;
        self.executed += o.executed;
        self.replayed += o.replayed;
        self.pruned += o.pruned;
    }
}

/// Counts one decomposed batch produces, per cycle-comparable unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DecomposedCounts {
    per_app: Vec<Counts>,
    faults: u64,
    aliased: u64,
    verdicts: u64,
    intern_hits: u64,
    intern_misses: u64,
}

/// Counts one pooled batch produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PooledCounts {
    per_app: Vec<Counts>,
    cache_hits: u64,
    cache_misses: u64,
    loads: u64,
    store_hits: u64,
}

/// The outcome of a traced run.
pub struct TracedRun {
    /// Batches attempted across all three phases.
    pub attempted: u64,
    /// Each failed check, described.
    pub failures: Vec<String>,
    /// The per-layer metrics.
    pub values: Values,
    /// Self time per span name, per cycle of decomposed batches, in ms.
    pub self_times: Vec<(&'static str, f64)>,
    /// Span log of the pooled and decomposed phases, as JSON lines.
    pub spans_jsonl: String,
}

fn per_app_counts(report: &SuiteReport) -> Vec<Counts> {
    report
        .reports
        .iter()
        .map(|r| Counts {
            injected: r.injected() as u64,
            executed: r.runs_executed() as u64,
            replayed: r.cache_hits() as u64,
            pruned: r.pruned() as u64,
        })
        .collect()
}

/// Runs whole cycles of `batch` until `budget` has elapsed or `tracer`
/// holds [`SPAN_CAP`] spans, and at least two cycles.
fn cycles(kinds: usize, budget: Duration, tracer: Option<&Tracer>, mut batch: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    while done < 2 || (start.elapsed() < budget && tracer.map_or(0, Tracer::len) < SPAN_CAP) {
        for kind in 0..kinds {
            batch(kind);
        }
        done += 1;
    }
    done
}

/// Runs the traced phases for `seconds` in total and derives every
/// per-layer metric. `synthesize_ms` is the set-up's corpus synthesis
/// time (0 when the workload synthesizes nothing).
pub fn run(prep: &Prepared, seconds: f64, synthesize_ms: f64) -> TracedRun {
    let kinds = prep.kinds();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut check = |kind: usize, report: &SuiteReport, failures: &mut Vec<String>| {
        attempted += 1;
        if let Err(e) = prep.check(kind, report) {
            failures.push(format!("batch of kind {kind}: {e}"));
        }
    };

    // Warm-up, then phase 1: untraced pooled batches.
    let phase = |share: f64| Duration::from_secs_f64(seconds * share);
    for kind in 0..kinds {
        let b = run_batch(prep, kind, None);
        check(kind, &b.report, &mut failures);
    }
    let mut untraced = Vec::new();
    cycles(kinds, phase(0.25), None, |kind| {
        let b = run_batch(prep, kind, None);
        check(kind, &b.report, &mut failures);
        untraced.push(b.wall.as_secs_f64() * 1e3);
    });

    // Phase 2: traced pooled batches.
    let pooled_tracer = Arc::new(Tracer::default());
    let mut pooled: Vec<(Batch, PooledCounts)> = Vec::new();
    let mut peak_workers = 0usize;
    let cpu_before = probe::process_cpu_s();
    let pooled_start = Instant::now();
    cycles(kinds, phase(0.35), Some(&pooled_tracer), |kind| {
        let mut p = Probe::new(Arc::clone(&pooled_tracer));
        executor::reset_peak_live_workers();
        let b = run_batch(prep, kind, Some(&mut p));
        peak_workers = peak_workers.max(executor::peak_live_workers());
        check(kind, &b.report, &mut failures);
        let mut counts = PooledCounts {
            per_app: per_app_counts(&b.report),
            cache_hits: b.cache.0,
            cache_misses: b.cache.1,
            ..PooledCounts::default()
        };
        if let Some(store) = &p.store {
            let c = store.counts();
            (counts.loads, counts.store_hits) = (c.loads, c.hits);
        }
        // Accounting from the application wrappers: every campaign runs
        // its application once for the clean trace, then once per
        // executed job.
        for (i, (app, c)) in p.apps.iter().zip(&counts.per_app).enumerate() {
            let calls = app.calls.load(std::sync::atomic::Ordering::Relaxed);
            if calls != c.executed + 1 {
                failures.push(format!(
                    "pooled campaign {i}: {calls} application runs for {} executed jobs plus one clean run",
                    c.executed
                ));
            }
        }
        pooled.push((b, counts));
    });
    let pooled_wall = pooled_start.elapsed().as_secs_f64();
    let cpu_util = match (cpu_before, probe::process_cpu_s()) {
        (Some(a), Some(b)) => (b - a) / (pooled_wall * prep.workers as f64),
        _ => 0.0,
    };

    // Phase 3: decomposed batches.
    let tracer = Arc::new(Tracer::default());
    let mut decomposed: Vec<(usize, u64, DecomposedCounts)> = Vec::new();
    let n_cycles = cycles(kinds, phase(0.4), Some(&tracer), |kind| {
        let (report, counts, batch_id) = decomposed_batch(prep, kind, &tracer, &mut failures);
        check(kind, &report, &mut failures);
        decomposed.push((kind, batch_id, counts));
    });

    // Counts must repeat exactly across batches of one kind, and the
    // decomposed path must account for the same jobs as the pooled one.
    let first_of_kind = |kind: usize| {
        let d = &decomposed.iter().find(|(k, ..)| *k == kind).expect("every kind ran").2;
        let p = &pooled.iter().find(|(b, _)| b.kind == kind).expect("every kind ran").1;
        (d, p)
    };
    for (kind, _, d) in &decomposed {
        if *d != *first_of_kind(*kind).0 {
            failures.push(format!("decomposed counts of kind {kind} differ between batches"));
        }
    }
    for (b, p) in &pooled {
        if *p != *first_of_kind(b.kind).1 {
            failures.push(format!("pooled counts of kind {} differ between batches", b.kind));
        }
    }
    for kind in 0..kinds {
        let (d, p) = first_of_kind(kind);
        if d.per_app != p.per_app {
            failures.push(format!("kind {kind}: decomposed and pooled per-campaign counts differ"));
        }
        for (i, c) in d.per_app.iter().enumerate() {
            if c.executed + c.replayed + c.pruned != c.injected {
                failures.push(format!(
                    "kind {kind} campaign {i}: executed + replayed + pruned != injected"
                ));
            }
        }
    }

    // Per-cycle counts: one batch of each kind.
    let mut cycle = DecomposedCounts::default();
    let mut pooled_cycle = PooledCounts::default();
    let mut totals = Counts::default();
    for kind in 0..kinds {
        let (d, p) = first_of_kind(kind);
        cycle.faults += d.faults;
        cycle.aliased += d.aliased;
        cycle.verdicts += d.verdicts;
        cycle.intern_hits += d.intern_hits;
        cycle.intern_misses += d.intern_misses;
        pooled_cycle.cache_hits += p.cache_hits;
        pooled_cycle.cache_misses += p.cache_misses;
        pooled_cycle.loads += p.loads;
        pooled_cycle.store_hits += p.store_hits;
        for c in &p.per_app {
            totals.add(*c);
        }
    }

    // Store writes: `suite-warm`'s set-up fill of an empty store (the
    // first `reproduce -- suite --store DIR` run), repeated through a
    // timing store. Batches of the other workloads write nothing.
    let fill_tracer = Arc::new(Tracer::default());
    let mut fills: Vec<(u64, u64)> = Vec::new();
    if let Some(dir) = &prep.store_dir {
        let fill_dir = dir.with_file_name("fill");
        for _ in 0..FILLS {
            match prep.fill(&fill_dir, Some(&fill_tracer)) {
                Ok(o) => fills.push((o.counts.map_or(0, |c| c.saves), o.executed)),
                Err(e) => failures.push(e),
            }
        }
        let _ = std::fs::remove_dir_all(&fill_dir);
        if fills.windows(2).any(|w| w[0] != w[1]) {
            failures.push("store fills differ in saves or executed runs".to_string());
        }
    }
    let (fill_saves, fill_executed) = fills.first().copied().unwrap_or_default();

    let spans = tracer.spans();
    let pooled_spans = pooled_tracer.spans();
    let mut values = Values::default();
    layer_values(&mut values, &spans);

    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let inject_us = span_median_us(&spans, "run.inject");
    let classify_ms_total = spans
        .iter()
        .filter(|s| s.name == "analysis.classify")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum::<f64>()
        / n_cycles as f64;
    values.set("corpus.synthesize_ms", synthesize_ms);
    values.set("catalog.faults", cycle.faults as f64);
    values.set("analysis.classify_ms_total", classify_ms_total);
    values.set("analysis.pruned", totals.pruned as f64);
    values.set(
        "analysis.prune_ratio",
        ratio(totals.pruned as f64, totals.injected as f64),
    );
    values.set(
        "analysis.net_saving_ms",
        totals.pruned as f64 * inject_us / 1e3 - classify_ms_total,
    );
    values.set("planner.aliased", cycle.aliased as f64);
    values.set(
        "planner.dedup_ratio",
        ratio(cycle.aliased as f64, totals.injected as f64),
    );
    values.set("planner.cache_hits", pooled_cycle.cache_hits as f64);
    values.set("planner.cache_misses", pooled_cycle.cache_misses as f64);
    values.set("run.executed", totals.executed as f64);
    values.set("oracle.verdicts", cycle.verdicts as f64);
    values.set(
        "executor.overhead_us_per_job",
        executor_overhead_us(prep.workers, (totals.injected as usize / kinds).max(1)),
    );
    values.set("executor.peak_workers", peak_workers as f64);
    values.set("executor.cpu_util", cpu_util);

    let app_spans_ms: Vec<f64> = pooled
        .iter()
        .flat_map(|(b, _)| b.app_spans.iter().map(|(a, e)| (*e - *a).as_secs_f64() * 1e3))
        .collect();
    let critical_ms: Vec<f64> = pooled
        .iter()
        .map(|(b, _)| {
            b.app_spans
                .iter()
                .map(|(a, e)| (*e - *a).as_secs_f64() * 1e3)
                .fold(0.0, f64::max)
        })
        .collect();
    let self_ns = probe::self_times_ns(&spans);
    // Residual: the decomposed batch minus every layer span's self time,
    // i.e. the self time of the batch and campaign containers.
    let mut residual: BTreeMap<u64, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&self_ns) {
        if matches!(s.name, "decomposed.batch" | "decomposed.app") {
            *residual.entry(s.batch).or_default() += *ns as f64 / 1e6;
        }
    }
    let residual_ms: Vec<f64> = residual.into_values().collect();
    values.set("suite.app_span_ms", median(&app_spans_ms).unwrap_or(0.0));
    values.set("suite.critical_path_ms", median(&critical_ms).unwrap_or(0.0));
    values.set("suite.residual_ms", median(&residual_ms).unwrap_or(0.0));
    let findings: Vec<f64> = pooled
        .iter()
        .filter_map(|(b, _)| b.first_finding)
        .map(|t| t.as_secs_f64() * 1e3)
        .collect();
    values.set("suite.first_finding_p50_ms", median(&findings).unwrap_or(0.0));
    values.set("suite.injected", totals.injected as f64);
    values.set("suite.executed", totals.executed as f64);
    values.set("suite.replayed", totals.replayed as f64);
    values.set("suite.pruned", totals.pruned as f64);

    values.set("store.load_us", span_median_us(&pooled_spans, "store.load"));
    values.set("store.loads", pooled_cycle.loads as f64);
    values.set("store.hits", pooled_cycle.store_hits as f64);
    values.set(
        "store.hit_ratio",
        ratio(pooled_cycle.store_hits as f64, pooled_cycle.loads as f64),
    );
    values.set("store.save_us", span_median_us(&fill_tracer.spans(), "store.save"));
    values.set("store.saves", fill_saves as f64);
    values.set("store.saves_per_run", ratio(fill_saves as f64, fill_executed as f64));
    values.set("intern.hits", cycle.intern_hits as f64);
    values.set("intern.misses", cycle.intern_misses as f64);

    let traced_ms: Vec<f64> = pooled.iter().map(|(b, _)| b.wall.as_secs_f64() * 1e3).collect();
    let overhead = match (median(&traced_ms), median(&untraced)) {
        (Some(t), Some(u)) if u > 0.0 => (t / u - 1.0) * 100.0,
        _ => 0.0,
    };
    values.set("trace.overhead_pct", overhead);

    // Self time per layer, per cycle.
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&self_ns) {
        *by_name.entry(s.name).or_default() += *ns as f64 / 1e6 / n_cycles as f64;
    }
    let mut self_times: Vec<(&'static str, f64)> = by_name.into_iter().collect();
    self_times.sort_by(|a, b| b.1.total_cmp(&a.1));

    // The span log keeps the last cycles of each traced phase.
    let from = |ids: &[u64]| ids[ids.len().saturating_sub(WRITTEN_CYCLES * kinds)];
    let pooled_ids: Vec<u64> = pooled.iter().map(|(b, _)| b.batch_id).collect();
    let decomposed_ids: Vec<u64> = decomposed.iter().map(|(_, id, _)| *id).collect();
    let mut spans_jsonl = pooled_tracer.to_json_lines("pooled", from(&pooled_ids));
    spans_jsonl.push_str(&tracer.to_json_lines("decomposed", from(&decomposed_ids)));
    spans_jsonl.push_str(&fill_tracer.to_json_lines("fill", 0));
    TracedRun {
        attempted,
        failures,
        values,
        self_times,
        spans_jsonl,
    }
}

/// Median duration of the spans called `name`, in µs (0 when none).
fn span_median_us(spans: &[Span], name: &str) -> f64 {
    let us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    median(&us).unwrap_or(0.0)
}

/// The timing metrics read straight off the decomposed spans.
fn layer_values(values: &mut Values, spans: &[Span]) {
    values.set("spec.materialize_us", span_median_us(spans, "spec.materialize"));
    let snapshot_ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "session.snapshot")
        .map(|s| s.duration_ns() as f64 / s.ops as f64)
        .collect();
    values.set("session.snapshot_ns", median(&snapshot_ns).unwrap_or(0.0));
    values.set("campaign.clean_run_us", span_median_us(spans, "campaign.clean_run"));
    // Session::plan minus its clean run and analysis build, per campaign.
    let mut per_app: BTreeMap<u64, [f64; 3]> = BTreeMap::new();
    for s in spans {
        let slot = match s.name {
            "campaign.plan" => 0,
            "campaign.clean_run" => 1,
            "analysis.build" => 2,
            _ => continue,
        };
        per_app.entry(s.parent).or_default()[slot] = s.duration_ns() as f64 / 1e3;
    }
    let plan_us: Vec<f64> = per_app.values().map(|[p, c, b]| p - c - b).collect();
    values.set("campaign.plan_us", median(&plan_us).unwrap_or(0.0));
    values.set("analysis.build_us", span_median_us(spans, "analysis.build"));
    values.set("analysis.classify_us", span_median_us(spans, "analysis.classify"));
    values.set("planner.fault_key_us", span_median_us(spans, "planner.fault_key"));
    let inject_us = span_median_us(spans, "run.inject");
    let app_us = span_median_us(spans, "run.app");
    values.set("run.inject_us", inject_us);
    values.set("run.app_us", app_us);
    values.set("run.harness_us", inject_us - app_us);
    let (runs, events) = spans
        .iter()
        .filter(|s| s.name == "run.inject")
        .fold((0u64, 0u64), |(n, e), s| (n + 1, e + s.ops));
    values.set(
        "run.events_per_run",
        if runs == 0 { 0.0 } else { events as f64 / runs as f64 },
    );
    let (oracle_ns, oracle_events) = spans
        .iter()
        .filter(|s| s.name == "oracle.evaluate")
        .fold((0u64, 0u64), |(t, e), s| (t + s.duration_ns(), e + s.ops));
    values.set(
        "oracle.ns_per_event",
        if oracle_events == 0 {
            0.0
        } else {
            oracle_ns as f64 / oracle_events as f64
        },
    );
}

/// Median per-job cost of the executor's static path over no-op jobs, in
/// µs, at `workers` workers and `jobs` jobs per call.
fn executor_overhead_us(workers: usize, jobs: usize) -> f64 {
    let exec = Executor::with_workers(workers);
    let items = vec![0u64; jobs];
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 20 || (start.elapsed() < Duration::from_millis(300) && samples.len() < 2000) {
        let t = Instant::now();
        let out = exec.run_indexed(&items, |i, x| std::hint::black_box(i as u64 + x), &mut |_, _| {});
        std::hint::black_box(out);
        samples.push(t.elapsed().as_secs_f64() * 1e6 / jobs as f64);
    }
    median(&samples).unwrap_or(0.0)
}

/// One batch driven call by call through the layers' public functions
/// on the calling thread. Returns a report in registration order (records
/// in plan order), the batch's counts, and its root span id.
fn decomposed_batch(
    prep: &Prepared,
    kind: usize,
    tracer: &Arc<Tracer>,
    failures: &mut Vec<String>,
) -> (SuiteReport, DecomposedCounts, u64) {
    let intern_before = intern::stats();
    let batch_id = tracer.id();
    tracer.set_batch(batch_id);
    let start = Instant::now();
    let cache = match prep.open_store() {
        Some(disk) => {
            ResultCache::with_store(Arc::new(TimedStore::new(disk, Arc::clone(tracer))) as Arc<dyn ResultStore>)
        }
        None => ResultCache::new(),
    };
    let mut counts = DecomposedCounts::default();
    let mut reports = Vec::new();
    for (app, spec) in prep.inputs(kind) {
        let app_id = tracer.id();
        let app_start = Instant::now();
        let (timed, calls) = TimedApp::new(app);
        let setup = tracer.time("spec.materialize", app_id, || spec.materialize());
        let session = Session::from_setup(setup.expect("inputs materialized during set-up"));

        let id = tracer.id();
        let t = Instant::now();
        for _ in 0..SNAPSHOT_LOOP {
            std::hint::black_box(session.snapshot());
        }
        tracer.close(id, "session.snapshot", t, Instant::now(), app_id, SNAPSHOT_LOOP);

        drop(tracer.time("campaign.clean_run", app_id, || session.run(&timed)));
        let plan = tracer.time("campaign.plan", app_id, || session.plan(&timed));
        let analysis = tracer.time("analysis.build", app_id, || {
            AppAnalysis::from_clean_run(session.setup(), &plan.clean)
        });
        let jobs = plan.jobs();
        counts.faults += plan.total_faults() as u64;
        for job in &jobs {
            std::hint::black_box(tracer.time("analysis.classify", app_id, || analysis.classify(job)));
        }
        for job in &jobs {
            std::hint::black_box(tracer.time("planner.fault_key", app_id, || FaultKey::of(job)));
        }
        let scope = tracer.time("planner.scope", app_id, || {
            fnv1a(format!("{}\n{:016x}", timed.name(), session.setup().fingerprint()).as_bytes())
        });
        let prune = |job: &InjectionPlan| analysis.pruned_digest(job);
        let id = tracer.id();
        tracer.set_current(id);
        let t = Instant::now();
        let schedule = Schedule::build(&jobs, scope, Some(&cache), true, Some(&prune));
        tracer.close(id, "planner.schedule", t, Instant::now(), app_id, jobs.len() as u64);
        let aliased = (0..jobs.len()).filter(|&i| schedule.canonical_of(i) != i).count() as u64;
        counts.aliased += aliased;

        let mut c = Counts {
            injected: jobs.len() as u64,
            ..Counts::default()
        };
        let mut slots: Vec<Option<FaultRecord>> = jobs.iter().map(|_| None).collect();
        tracer.time("planner.replay", app_id, || {
            for (idx, digest) in &schedule.pruned {
                for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                    slots[i] = Some(digest.replay_pruned(&jobs[i]));
                    c.pruned += 1;
                }
            }
            for (idx, digest) in &schedule.resolved {
                for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                    slots[i] = Some(digest.replay(&jobs[i]));
                    c.replayed += 1;
                }
            }
        });
        for &idx in &schedule.pending {
            let job = &jobs[idx];
            let id = tracer.id();
            let t = Instant::now();
            let (hook, fired) = InjectionHook::new(job.clone());
            let outcome = run_once(session.setup(), &timed, Some(Box::new(hook)));
            let end = Instant::now();
            if let Some((a, b)) = calls.last_call() {
                tracer.close(tracer.id(), "run.app", a, b, id, 1);
            }
            let events = outcome.os.audit.len() as u64;
            tracer.close(id, "run.inject", t, end, app_id, events);

            let oracle = tracer.time("oracle.build", app_id, || session.setup().oracle());
            let id = tracer.id();
            let t = Instant::now();
            let verdicts = oracle.evaluate_log(&outcome.os.audit);
            tracer.close(id, "oracle.evaluate", t, Instant::now(), app_id, events);
            if verdicts != outcome.violations {
                failures.push(format!(
                    "{}: the batch oracle disagrees with the run's verdicts",
                    job.site
                ));
            }
            counts.verdicts += verdicts.len() as u64;

            let record = FaultRecord {
                site: job.site.to_string(),
                occurrence: job.occurrence,
                fault_id: job.fault.id.clone(),
                category: job.fault.category,
                description: job.fault.description.clone(),
                applied: fired.get(),
                exit: outcome.exit,
                crashed: outcome.crashed,
                audit_events: outcome.os.audit.len(),
                cache_hit: false,
                pruned: false,
                violations: outcome.violations,
            };
            let id = tracer.id();
            tracer.set_current(id);
            let t = Instant::now();
            let digest = RunDigest::of(&record);
            cache.insert(scope, schedule.key(idx), digest.clone());
            for &alias in schedule.aliases_of(idx) {
                slots[alias] = Some(digest.replay(&jobs[alias]));
                c.replayed += 1;
            }
            tracer.close(id, "planner.memoize", t, Instant::now(), app_id, 1);
            slots[idx] = Some(record);
            c.executed += 1;
        }
        let runs = calls.calls.load(std::sync::atomic::Ordering::Relaxed);
        if runs != c.executed + 2 {
            failures.push(format!(
                "decomposed {}: {runs} application runs for {} executed jobs plus two clean runs",
                timed.name(),
                c.executed
            ));
        }
        if aliased > c.replayed {
            failures.push(format!(
                "decomposed {}: {aliased} aliased jobs but only {} replayed records",
                timed.name(),
                c.replayed
            ));
        }
        counts.per_app.push(c);
        reports.push(epa_core::report::CampaignReport {
            app: timed.name().to_string(),
            total_sites: 0,
            perturbed_sites: 0,
            clean_violations: plan.clean.violations.len(),
            records: slots.into_iter().map(|r| r.expect("every job resolves")).collect(),
        });
        tracer.close(app_id, "decomposed.app", app_start, Instant::now(), batch_id, 1);
    }
    tracer.close(batch_id, "decomposed.batch", start, Instant::now(), 0, 1);
    let intern_after = intern::stats();
    counts.intern_hits = intern_after.hits - intern_before.hits;
    counts.intern_misses = intern_after.misses - intern_before.misses;
    let report = SuiteReport { reports };
    (report, counts, batch_id)
}
