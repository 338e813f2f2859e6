//! The per-run hot-path bench and gate, written to `BENCH_hotpath.json`.
//!
//! Four measurements, one per flattening in the hot-loop perf pass:
//!
//! 1. **Interner steady state** — the allocations-per-run proxy (the
//!    workspace forbids `unsafe_code`, so a counting global allocator is
//!    off the table): after one warm-up suite run, a full standard-suite
//!    run must intern **zero** new symbols — every path lookup in the
//!    walk/audit/fault-key loop is a table hit, not an allocation.
//! 2. **Oracle throughput** — events/sec through the standard detector
//!    set, streamed as one batched `observe_slice` dispatch (the
//!    production shape after batched audit appends) against the
//!    per-event dispatch it replaced, on the suite's combined event
//!    stream replicated past 50k events.
//! 3. **Suite wall-clock at pinned worker counts** — the eight-app
//!    standard suite, sequential against `with_workers(1/4/8)` through
//!    the sharded executor queue; every pooled verdict set must be
//!    byte-identical to the sequential baseline's.
//! 4. **Corpus wall-clock at pinned worker counts** — the 120-scenario
//!    corpus registered as one 120-campaign suite, sequential against
//!    pooled, plus the full differential sweep executed under
//!    `EPA_WORKERS=4` (zero divergences required).
//!
//! The parallel-speedup gate (pooled ≥ 1.5× sequential on the corpus
//! suite) is enforced only when the host reports ≥ 2 CPUs; on a
//! single-CPU host the bench records the measured ratio and the skip
//! reason instead of failing on physics.

use std::time::{Duration, Instant};

use epa_apps::{worlds, ScriptedApp};
use epa_core::campaign::run_once;
use epa_core::corpus::{run_corpus, synthesize, CorpusConfig, Scenario, DEFAULT_CORPUS_SEED};
use epa_core::engine::suite::SuiteReport;
use epa_core::engine::{executor, Session, Suite};
use epa_core::inject::InjectionHook;
use epa_sandbox::app::Application;
use epa_sandbox::audit::AuditLog;
use epa_sandbox::intern;
use epa_sandbox::policy::OracleSet;

/// The pinned worker counts every pooled measurement runs at.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Median wall-clock nanoseconds of each closure in `fs` over `samples`
/// rounds. The samples are interleaved: every round times each closure
/// once, in order, so a drift in the host's speed during the measurement
/// hits every side alike instead of whichever side was timed during it.
fn interleaved_medians_ns(samples: usize, mut fs: Vec<Box<dyn FnMut() -> usize + '_>>) -> Vec<u128> {
    for f in &mut fs {
        let _ = std::hint::black_box(f());
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); fs.len()];
    for _ in 0..samples {
        for (f, t) in fs.iter_mut().zip(&mut times) {
            let start = Instant::now();
            let _ = std::hint::black_box(f());
            t.push(start.elapsed());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort();
            t[t.len() / 2].as_nanos()
        })
        .collect()
}

/// One comparable line per record: identity plus the serialized verdicts.
/// Two suite reports with equal digests found exactly the same violations
/// on exactly the same jobs in exactly the same order — the sharded
/// queue's byte-identical-reassembly criterion.
fn verdict_set(report: &SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in &report.reports {
        for rec in &r.records {
            let verdicts = serde_json::to_string(&rec.violations).expect("verdicts serialize");
            let _ = writeln!(
                out,
                "{}|{}|{}|{}|{verdicts}",
                r.app, rec.site, rec.occurrence, rec.fault_id
            );
        }
    }
    out
}

/// A fresh eight-application standard suite (fresh suite-scoped cache, so
/// repeated samples re-execute instead of replaying from memo).
fn fresh_suite() -> Suite {
    epa_apps::standard_suite().expect("valid specs")
}

/// The 120-scenario corpus as one 120-campaign suite (fresh cache per
/// call, same reasoning as [`fresh_suite`]).
fn corpus_suite(scenarios: &[Scenario]) -> Suite {
    let mut suite = Suite::new();
    for scenario in scenarios {
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(scenario), Session::from_setup(setup));
    }
    suite
}

/// Runs the suite pooled at `workers` workers once, returning the verdict
/// digest and the executor's high-water worker count for the run.
fn pooled_once(suite: Suite, workers: usize) -> (String, usize) {
    executor::reset_peak_live_workers();
    let report = suite.with_workers(workers).execute();
    (verdict_set(&report), executor::peak_live_workers())
}

/// `[{"workers": …, "ns": …, "peak_live_workers": …}, …]` for the report.
fn worker_rows_json(rows: &[(usize, u128, usize)]) -> String {
    let body = rows
        .iter()
        .map(|(w, ns, peak)| format!("    {{\"workers\": {w}, \"ns\": {ns}, \"peak_live_workers\": {peak}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n  ]")
}

fn main() {
    let available = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);

    // ── 1. Interner steady state: the allocations-per-run proxy. ──────
    // One warm-up suite run populates the symbol table; a second full run
    // over the same worlds, faults and scripts must then intern nothing —
    // every path the hot loop touches resolves to an existing symbol.
    let _ = fresh_suite().execute();
    let before = intern::stats();
    let _ = fresh_suite().execute();
    let after = intern::stats();
    let steady_misses = after.misses - before.misses;
    let steady_hits = after.hits - before.hits;
    let steady_join_hits = after.join_hits - before.join_hits;
    assert_eq!(
        steady_misses, 0,
        "a warm standard-suite run must intern zero new symbols \
         (every miss is a per-run allocation the interner exists to remove)"
    );
    assert!(
        steady_hits > 0,
        "a suite run must exercise the interner (zero hits means the hot path stopped using it)"
    );

    // ── 2. Oracle throughput: batched dispatch vs per-event dispatch. ──
    // The suite's combined event stream (clean run + one injected run per
    // app), replicated past 50k events so oracle evaluation dominates.
    let cases: Vec<(&dyn Application, Session)> = vec![
        (&epa_apps::Lpr, Session::from_setup(worlds::lpr_world())),
        (&epa_apps::Turnin, Session::from_setup(worlds::turnin_world())),
        (&epa_apps::FontPurge, Session::from_setup(worlds::fontpurge_world())),
        (&epa_apps::NtLogon, Session::from_setup(worlds::ntlogon_world())),
        (&epa_apps::Fingerd, Session::from_setup(worlds::fingerd_world())),
        (&epa_apps::Authd, Session::from_setup(worlds::authd_world())),
        (&epa_apps::MailNotify, Session::from_setup(worlds::mailnotify_world())),
        (&epa_apps::Backupd, Session::from_setup(worlds::backupd_world())),
    ];
    let mut big = AuditLog::new();
    while big.len() < 50_000 {
        for (app, session) in &cases {
            let clean = run_once(session.setup(), *app, None);
            for (_, ev) in clean.os.audit.iter() {
                big.push(ev.clone());
            }
            if let Some(job) = session.plan(*app).jobs().first() {
                let (hook, _) = InjectionHook::new(job.clone());
                let injected = run_once(session.setup(), *app, Some(Box::new(hook)));
                for (_, ev) in injected.os.audit.iter() {
                    big.push(ev.clone());
                }
            }
        }
    }
    let oracle_samples = 15;
    let mut per_event_verdicts = 0usize;
    let mut batched_verdicts = 0usize;
    let oracle_ns = interleaved_medians_ns(
        oracle_samples,
        vec![
            Box::new(|| {
                let mut set = OracleSet::standard();
                for (idx, event) in big.iter() {
                    set.observe(idx, event);
                }
                per_event_verdicts = set.finish().len();
                per_event_verdicts
            }),
            Box::new(|| {
                let mut set = OracleSet::standard();
                set.observe_slice(0, big.events());
                batched_verdicts = set.finish().len();
                batched_verdicts
            }),
        ],
    );
    let (per_event_ns, batched_ns) = (oracle_ns[0], oracle_ns[1]);
    assert_eq!(
        batched_verdicts, per_event_verdicts,
        "batched and per-event dispatch must produce identical verdict counts"
    );
    let events_per_sec = big.len() as f64 / (batched_ns as f64 / 1e9).max(1e-9);
    let oracle_ratio = per_event_ns as f64 / batched_ns.max(1) as f64;
    assert!(
        batched_ns as f64 <= per_event_ns as f64 * 1.05,
        "batched observe_slice must not be slower than per-event dispatch \
         (batched {batched_ns}ns > per-event {per_event_ns}ns + 5% margin)"
    );

    // ── 3. Standard suite at pinned worker counts. ─────────────────────
    let suite_samples = 9;
    let suite_seq_verdicts = verdict_set(&fresh_suite().sequential().execute());
    assert!(
        !suite_seq_verdicts.is_empty(),
        "the sequential standard suite must produce verdicts"
    );
    let mut suite_peaks = Vec::new();
    for &w in &WORKER_COUNTS {
        let (digest, peak) = pooled_once(fresh_suite(), w);
        assert_eq!(
            digest, suite_seq_verdicts,
            "suite verdicts at {w} workers must be byte-identical to sequential"
        );
        assert!(
            peak <= w,
            "suite at {w} pinned workers must never exceed that ceiling, saw {peak}"
        );
        suite_peaks.push(peak);
    }
    let suite_ns = interleaved_medians_ns(
        suite_samples,
        std::iter::once(None)
            .chain(WORKER_COUNTS.map(Some))
            .map(|workers| -> Box<dyn FnMut() -> usize> {
                Box::new(move || match workers {
                    None => fresh_suite().sequential().execute().reports.len(),
                    Some(w) => fresh_suite().with_workers(w).execute().reports.len(),
                })
            })
            .collect(),
    );
    let suite_seq_ns = suite_ns[0];
    let suite_rows: Vec<(usize, u128, usize)> = (0..WORKER_COUNTS.len())
        .map(|k| (WORKER_COUNTS[k], suite_ns[k + 1], suite_peaks[k]))
        .collect();

    // ── 4. The 120-scenario corpus as a pooled suite. ──────────────────
    let config = CorpusConfig {
        seed: DEFAULT_CORPUS_SEED,
        count: 120,
    };
    let scenarios = synthesize(&config);
    let corpus_samples = 5;
    let corpus_seq_verdicts = verdict_set(&corpus_suite(&scenarios).sequential().execute());
    let mut corpus_peaks = Vec::new();
    for &w in &WORKER_COUNTS {
        let (digest, peak) = pooled_once(corpus_suite(&scenarios), w);
        assert_eq!(
            digest, corpus_seq_verdicts,
            "corpus-suite verdicts at {w} workers must be byte-identical to sequential"
        );
        corpus_peaks.push(peak);
    }
    let corpus_ns = interleaved_medians_ns(
        corpus_samples,
        std::iter::once(None)
            .chain(WORKER_COUNTS.map(Some))
            .map(|workers| -> Box<dyn FnMut() -> usize + '_> {
                let scenarios = &scenarios;
                Box::new(move || match workers {
                    None => corpus_suite(scenarios).sequential().execute().reports.len(),
                    Some(w) => corpus_suite(scenarios).with_workers(w).execute().reports.len(),
                })
            })
            .collect(),
    );
    let corpus_seq_ns = corpus_ns[0];
    let corpus_rows: Vec<(usize, u128, usize)> = (0..WORKER_COUNTS.len())
        .map(|k| (WORKER_COUNTS[k], corpus_ns[k + 1], corpus_peaks[k]))
        .collect();

    // The full differential sweep — every scenario through every execution
    // path of the harness — under the sharded queue at a pinned multi-worker
    // count: the pooled paths must stay byte-identical to the baseline.
    let prev_workers = std::env::var("EPA_WORKERS").ok();
    std::env::set_var("EPA_WORKERS", "4");
    let factory = ScriptedApp::factory();
    let sweep_start = Instant::now();
    let sweep = run_corpus(&config, &factory);
    let sweep_ns = sweep_start.elapsed().as_nanos();
    match prev_workers {
        Some(v) => std::env::set_var("EPA_WORKERS", v),
        None => std::env::remove_var("EPA_WORKERS"),
    }
    assert_eq!(sweep.scenarios, config.count);
    assert_eq!(
        sweep.divergences, 0,
        "execution paths diverged under EPA_WORKERS=4; per-scenario seeds are in CORPUS_report.json"
    );

    // ── The hardware-gated parallel-speedup gate. ──────────────────────
    let pooled_best = |rows: &[(usize, u128, usize)]| {
        rows.iter()
            .filter(|(w, _, _)| *w >= 4)
            .map(|&(_, ns, _)| ns)
            .min()
            .expect("multi-worker rows present")
    };
    let corpus_speedup = corpus_seq_ns as f64 / pooled_best(&corpus_rows).max(1) as f64;
    let suite_speedup = suite_seq_ns as f64 / pooled_best(&suite_rows).max(1) as f64;
    let enforced = available >= 2;
    let reason = if enforced {
        format!("available_parallelism = {available}: pooled >= 1.5x sequential enforced on the corpus suite")
    } else {
        format!(
            "available_parallelism = {available}: multi-worker speedup is not observable on this host; \
             ratio recorded, gate not enforced"
        )
    };

    let suite_rows_json = worker_rows_json(&suite_rows);
    let corpus_rows_json = worker_rows_json(&corpus_rows);
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"available_parallelism\": {available},\n  \
         \"interner\": {{\"warm_suite_misses\": {steady_misses}, \"warm_suite_hits\": {steady_hits}, \
         \"warm_suite_join_hits\": {steady_join_hits}, \"symbols\": {}}},\n  \
         \"oracle\": {{\"events\": {}, \"samples\": {oracle_samples}, \"per_event_ns\": {per_event_ns}, \
         \"batched_ns\": {batched_ns}, \"events_per_sec\": {events_per_sec:.0}, \
         \"per_event_over_batched\": {oracle_ratio:.2}, \"verdicts\": {batched_verdicts}}},\n  \
         \"suite\": {{\"apps\": {}, \"samples\": {suite_samples}, \"sequential_ns\": {suite_seq_ns}, \
         \"verdicts_identical\": true, \"workers\": {suite_rows_json}}},\n  \
         \"corpus\": {{\"scenarios\": {}, \"samples\": {corpus_samples}, \"sequential_ns\": {corpus_seq_ns}, \
         \"verdicts_identical\": true, \"workers\": {corpus_rows_json}}},\n  \
         \"differential\": {{\"workers\": 4, \"scenarios\": {}, \"divergences\": {}, \"sweep_ns\": {sweep_ns}}},\n  \
         \"parallel_gate\": {{\"threshold\": 1.5, \"corpus_speedup\": {corpus_speedup:.2}, \
         \"suite_speedup\": {suite_speedup:.2}, \"enforced\": {enforced}, \"reason\": \"{reason}\"}}\n}}\n",
        after.symbols,
        big.len(),
        cases.len(),
        config.count,
        sweep.scenarios,
        sweep.divergences,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_hotpath.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (interner steady misses {steady_misses}; oracle {events_per_sec:.0} events/s; \
             corpus pooled/sequential {corpus_speedup:.2}x at best multi-worker count; gate enforced: {enforced})",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_hotpath.json not written: {e}"),
    }
    if enforced {
        assert!(
            corpus_speedup >= 1.5,
            "pooled corpus suite must reach >= 1.5x sequential on a multi-core host \
             (got {corpus_speedup:.2}x at available_parallelism={available})"
        );
    }
}
