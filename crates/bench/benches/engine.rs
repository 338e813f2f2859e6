//! Criterion performance benches: engine overhead and substrate hot paths.
//!
//! Absolute numbers are machine-local; the benches exist so regressions in
//! the injection engine or the VFS resolver are visible. Beyond the
//! criterion groups, `main` measures copy-on-write snapshot setup against
//! the old deep-clone per-fault setup on the lpr-scale world and writes the
//! result to `BENCH_engine.json` (the engine redesign requires snapshot ≥
//! 2× faster than deep clone there), then measures the dedup+memo planner
//! against exhaustive re-execution over a two-pass suite workload and
//! writes `BENCH_planner.json` (the planner must execute strictly fewer
//! runs with a byte-identical verdict set).

use std::time::{Duration, Instant};

use criterion::{criterion_group, BatchSize, Criterion};

use epa_apps::{worlds, Lpr, Turnin};
use epa_core::campaign::{run_once, CampaignOptions};
use epa_core::engine::Session;
use epa_sandbox::cred::{Credentials, Gid, Uid};
use epa_sandbox::mode::Mode;

fn bench_campaigns(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(20);
    let lpr = Session::from_setup(worlds::lpr_world());
    g.bench_function("lpr_full_campaign", |b| b.iter(|| lpr.execute(&Lpr)));
    let turnin = Session::from_setup(worlds::turnin_world());
    g.bench_function("turnin_full_campaign", |b| b.iter(|| turnin.execute(&Turnin)));
    let suite = epa_apps::standard_suite().expect("valid specs");
    g.bench_function("standard_suite_all_eight_apps", |b| b.iter(|| suite.execute()));
    g.finish();
}

fn bench_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("setup");
    let setup = worlds::lpr_world();
    g.bench_function("lpr_world_snapshot_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.clone(), BatchSize::SmallInput);
    });
    g.bench_function("lpr_world_deep_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.deep_clone(), BatchSize::SmallInput);
    });
    g.finish();
}

fn bench_single_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("run");
    let setup = worlds::turnin_world();
    g.bench_function("turnin_clean_run", |b| b.iter(|| run_once(&setup, &Turnin, None)));
    g.bench_function("world_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.clone(), BatchSize::SmallInput);
    });
    g.finish();
}

fn bench_vfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("vfs");
    let mut fs = epa_sandbox::fs::Vfs::new();
    for d in 0..50 {
        for f in 0..10 {
            fs.put_file(
                &format!("/srv/data/dir{d}/file{f}"),
                "content",
                Uid::ROOT,
                Gid::ROOT,
                Mode::new(0o644),
            )
            .unwrap();
        }
    }
    fs.god_symlink("/srv/link", "/srv/data/dir25").unwrap();
    let cred = Credentials::user(Uid(1001), Gid(100));
    g.bench_function("resolve_deep_path", |b| {
        b.iter(|| fs.walk("/srv/data/dir25/file5", true, Some(&cred)).unwrap());
    });
    g.bench_function("resolve_through_symlink", |b| {
        b.iter(|| fs.walk("/srv/link/file5", true, Some(&cred)).unwrap());
    });
    g.bench_function("stat", |b| b.iter(|| fs.stat("/srv/data/dir10/file1", None).unwrap()));
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("vulndb");
    let db = epa_vulndb::entries();
    g.bench_function("classify_195_entries", |b| b.iter(|| epa_vulndb::compute(&db)));
    g.finish();
}

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> u128 {
    let _ = std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2].as_nanos()
}

/// Measures snapshot-vs-deep-clone per-fault world setup on the lpr-scale
/// world and writes `BENCH_engine.json` next to the workspace root.
fn emit_bench_json() {
    let setup = worlds::lpr_world();
    let samples = 200;
    let snapshot_ns = median_ns(samples, || setup.world.clone());
    let deep_ns = median_ns(samples, || setup.world.deep_clone());
    let session = Session::from_setup(worlds::lpr_world());
    let campaign_ns = median_ns(20, || session.execute(&Lpr));
    let speedup = deep_ns as f64 / snapshot_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"world\": \"lpr\",\n  \"samples\": {samples},\n  \
         \"snapshot_clone_ns\": {snapshot_ns},\n  \"deep_clone_ns\": {deep_ns},\n  \
         \"snapshot_speedup\": {speedup:.2},\n  \"lpr_full_campaign_ns\": {campaign_ns}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "\nwrote {} (snapshot speedup over deep clone: {speedup:.1}x)",
            path.display()
        ),
        Err(e) => eprintln!("\nBENCH_engine.json not written: {e}"),
    }
    assert!(
        speedup >= 2.0,
        "copy-on-write snapshot setup must beat deep clone by >= 2x on the lpr world, got {speedup:.2}x"
    );
}

/// One comparable line per record: identity plus the serialized verdicts.
/// Two suite reports with equal digests found exactly the same violations
/// on exactly the same jobs — the planner's no-lost-detections criterion.
fn verdict_set(report: &epa_core::engine::suite::SuiteReport) -> String {
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

/// Measures the dedup+memo planner against exhaustive re-execution over a
/// cross-run workload — the eight-application standard suite executed
/// twice, a regression re-run's shape. The exhaustive baseline (dedup off,
/// a cold cache per pass) re-executes every `(site, occurrence, fault)`
/// job both times; the planner suite keeps its suite-scoped `ResultCache`
/// across the passes, so the second pass replays entirely from memo.
/// Asserts strictly fewer runs executed, byte-identical verdict sets, and
/// unchanged suite totals, then writes `BENCH_planner.json`.
fn emit_planner_bench_json() {
    let exhaustive_options = CampaignOptions {
        dedup: false,
        ..Default::default()
    };
    let fresh_exhaustive = || epa_apps::standard_suite_with_options(exhaustive_options.clone()).expect("valid specs");

    // Deterministic counts, outside the timed region.
    let planner_suite = epa_apps::standard_suite().expect("valid specs");
    let p1 = planner_suite.execute();
    let p2 = planner_suite.execute();
    let e1 = fresh_exhaustive().execute();
    let e2 = fresh_exhaustive().execute();

    // The planner must not change a single number the paper reports…
    assert_eq!(p1.total_injected(), e1.total_injected());
    assert_eq!(p1.total_violated(), e1.total_violated());
    assert_eq!(p2.total_injected(), e2.total_injected());
    assert_eq!(p2.total_violated(), e2.total_violated());
    // …and must find the exact verdict set of exhaustive execution.
    assert_eq!(
        verdict_set(&p1),
        verdict_set(&e1),
        "pass 1 verdicts must be byte-identical"
    );
    assert_eq!(
        verdict_set(&p2),
        verdict_set(&e2),
        "pass 2 verdicts must be byte-identical"
    );

    let exhaustive_runs = e1.total_runs_executed() + e2.total_runs_executed();
    let planner_runs = p1.total_runs_executed() + p2.total_runs_executed();
    let planner_hits = p1.total_cache_hits() + p2.total_cache_hits();
    assert_eq!(
        p2.total_runs_executed(),
        0,
        "the second memoized pass must replay entirely from cache"
    );
    assert!(
        planner_runs < exhaustive_runs,
        "dedup+memo must execute strictly fewer runs ({planner_runs} vs {exhaustive_runs})"
    );

    let samples = 9;
    let planner_ns = median_ns(samples, || {
        let suite = epa_apps::standard_suite().expect("valid specs");
        let _ = suite.execute();
        suite.execute().total_runs_executed()
    });
    let exhaustive_ns = median_ns(samples, || {
        let _ = fresh_exhaustive().execute();
        fresh_exhaustive().execute().total_runs_executed()
    });
    let speedup = exhaustive_ns as f64 / planner_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"planner\",\n  \"suite_apps\": {},\n  \"passes\": 2,\n  \"samples\": {samples},\n  \
         \"exhaustive_runs_executed\": {exhaustive_runs},\n  \"planner_runs_executed\": {planner_runs},\n  \
         \"planner_cache_hits\": {planner_hits},\n  \"verdicts\": {},\n  \
         \"verdict_sets_identical\": true,\n  \"exhaustive_ns\": {exhaustive_ns},\n  \
         \"planner_ns\": {planner_ns},\n  \"exhaustive_over_planner\": {speedup:.2}\n}}\n",
        p1.reports.len(),
        p1.total_violated() + p2.total_violated()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_planner.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (planner {planner_runs} runs vs exhaustive {exhaustive_runs}; \
             {planner_hits} replays; {speedup:.2}x wall-clock)",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_planner.json not written: {e}"),
    }
    // The two-pass wall-clock gate: replaying a pass must not be slower
    // than re-executing it (5% margin for scheduler noise, as elsewhere).
    assert!(
        planner_ns as f64 <= exhaustive_ns as f64 * 1.05,
        "memoized two-pass suite must not be slower than exhaustive \
         (planner {planner_ns}ns > exhaustive {exhaustive_ns}ns + 5% margin)"
    );
}

criterion_group!(
    benches,
    bench_campaigns,
    bench_setup,
    bench_single_run,
    bench_vfs,
    bench_classifier
);

// A hand-rolled `main` instead of `criterion_main!`: the criterion groups
// run first, then the snapshot-vs-deep-clone measurement is written to
// BENCH_engine.json and the dedup+memo planner measurement to
// BENCH_planner.json.
fn main() {
    benches();
    emit_bench_json();
    emit_planner_bench_json();
}
