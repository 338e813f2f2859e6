//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed loop (the next batch starts when the
//! previous one returns) for `--seconds` seconds, checks every batch's
//! verdicts against the exhaustive reference, prints a human-readable
//! summary and, as the last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when any check fails.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use epa_core::corpus::DEFAULT_CORPUS_SEED;
use epa_perfbench::metrics::{result_line, MetricDef, Values, END_TO_END, PER_LAYER};
use epa_perfbench::stats::{median, quartiles, tail_percentile};
use epa_perfbench::workload::{bench_dir, run_batch, Prepared, ScratchDir, Workload};
use epa_perfbench::{probe, traced};

/// Set-ups per run: at least `SETUP_MIN`, then more until `SETUP_BUDGET`
/// has passed or `SETUP_MAX` ran; `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Batches every untraced run holds at least, so that ten samples lie
/// beyond its 90th percentile.
const MIN_BATCHES: usize = 100;
/// The untraced loop measures in windows of at least this long (whole
/// cycles of batches).
const WINDOW: Duration = Duration::from_secs(1);
/// A window counts as undisturbed when the hypervisor stole at most this
/// share of the machine's CPU time during it. On shared virtual machines
/// steal comes in bursts that slow every batch by up to 1.6x for a minute
/// or more; batches of disturbed windows are checked but not timed.
const STEAL_LIMIT: f64 = 0.03;
/// How long a run waits for undisturbed windows, as a multiple of
/// `--seconds`, before it times the least-disturbed ones it has.
const WAIT_FACTOR: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SuiteCold,
        seed: DEFAULT_CORPUS_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a check failed after a result was
/// printed.
fn run(args: &Args) -> Result<bool, String> {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "workload {}  seed {}  seconds {}  trace {}  workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let scratch = ScratchDir::new(args.workload.name()).map_err(|e| format!("scratch directory: {e}"))?;

    // Set up several times; keep the last set-up and report the median.
    let mut setup_s = Vec::new();
    let mut synthesize_ms = Vec::new();
    let mut prep = None;
    let setups = Instant::now();
    while setup_s.len() < SETUP_MIN || (setups.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_MAX) {
        drop(prep.take());
        let start = Instant::now();
        let p = Prepared::new(args.workload, args.seed, workers, scratch.path())?;
        setup_s.push(start.elapsed().as_secs_f64());
        synthesize_ms.push(p.synthesize.as_secs_f64() * 1e3);
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");
    let setup = median(&setup_s).expect("set-up ran");
    let (lo, hi) = setup_s
        .iter()
        .fold((f64::MAX, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
    println!(
        "setup  median {setup:.4} s over {} set-ups (min {lo:.4}, max {hi:.4})",
        setup_s.len()
    );

    if args.trace {
        let run = traced::run(&prep, args.seconds, median(&synthesize_ms).expect("set-up ran"));
        println!("self time per cycle of decomposed batches:");
        for (name, ms) in &run.self_times {
            println!("  {name:<22} {ms:>10.3} ms");
        }
        let out = bench_dir().join("out");
        let path = out.join(format!("trace-{}.jsonl", args.workload.name()));
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, &run.spans_jsonl)) {
            Ok(()) => println!("spans  {}", path.display()),
            Err(e) => eprintln!("perfbench: spans not written to {}: {e}", path.display()),
        }
        return finish(run.attempted, &run.failures, PER_LAYER, &run.values);
    }

    let measured = measure(&prep, Duration::from_secs_f64(args.seconds), workers);
    let mut values = measured.values;
    values.set("setup_s", setup);
    values.set("peak_rss_mb", probe::peak_rss_mb().ok_or("VmHWM unreadable")?);
    finish(measured.attempted, &measured.failures, END_TO_END, &values)
}

fn finish(attempted: u64, failures: &[String], defs: &[MetricDef], values: &Values) -> Result<bool, String> {
    for def in defs {
        if let Some(v) = values.get(def.name) {
            println!("  {:<30} {v:>14.4} {}", def.name, def.unit);
        }
    }
    for f in failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_line(correct, attempted, failures.len() as u64, defs, values)?
    );
    Ok(correct)
}

struct Measured {
    attempted: u64,
    failures: Vec<String>,
    values: Values,
}

/// The untraced closed loop, in windows of whole cycles of batches. It
/// runs until the undisturbed windows hold `budget` of batch wall-clock and
/// [`MIN_BATCHES`] batches, or until `WAIT_FACTOR` × `budget` has passed
/// and [`MIN_BATCHES`] batches ran. It then times the least-disturbed
/// windows that together hold `budget` and [`MIN_BATCHES`] batches. Every
/// batch is checked.
fn measure(prep: &Prepared, budget: Duration, cpus: usize) -> Measured {
    let kinds = prep.kinds();
    let mut failures = Vec::new();
    let mut mismatched = 0u64;
    let mut checked = 0u64;
    let mut run = |kind: usize, failures: &mut Vec<String>| {
        let b = run_batch(prep, kind, None);
        checked += 1;
        if let Err(e) = prep.check(kind, &b.report) {
            mismatched += 1;
            failures.push(format!("batch of kind {kind}: {e}"));
        }
        (b.wall.as_secs_f64(), b.report.total_injected())
    };
    // Warm-up: one untimed cycle lets lazily built tables fill.
    for kind in 0..kinds {
        run(kind, &mut failures);
    }
    let enough = |batches: &[(f64, usize)]| {
        batches.len() >= MIN_BATCHES && batches.iter().map(|b| b.0).sum::<f64>() >= budget.as_secs_f64()
    };
    // (steal share, batches) per window.
    let mut windows: Vec<(f64, Vec<(f64, usize)>)> = Vec::new();
    let mut clean: Vec<(f64, usize)> = Vec::new();
    let mut ran = 0usize;
    let start = Instant::now();
    loop {
        let waited = start.elapsed() >= budget * WAIT_FACTOR && ran >= MIN_BATCHES;
        if enough(&clean) || waited {
            break;
        }
        let (window_start, steal_before) = (Instant::now(), probe::steal_ticks());
        let mut window = Vec::new();
        while window_start.elapsed() < WINDOW {
            for kind in 0..kinds {
                window.push(run(kind, &mut failures));
            }
        }
        let stolen = match (steal_before, probe::steal_ticks()) {
            (Some(a), Some(b)) => (b - a) as f64 / (window_start.elapsed().as_secs_f64() * 100.0 * cpus as f64),
            _ => 0.0,
        };
        ran += window.len();
        if stolen <= STEAL_LIMIT {
            clean.extend_from_slice(&window);
        }
        windows.push((stolen, window));
    }
    let disturbed = windows.iter().filter(|w| w.0 > STEAL_LIMIT).count();
    println!("windows {}  disturbed by steal {disturbed}", windows.len());
    // The least-disturbed windows first (a stable sort keeps time order).
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut used: Vec<(f64, usize)> = Vec::new();
    for (_, window) in &windows {
        if enough(&used) {
            break;
        }
        used.extend_from_slice(window);
    }
    let walls: Vec<f64> = used.iter().map(|b| b.0).collect();
    let records: usize = used.iter().map(|b| b.1).sum();
    let attempted = checked;
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let mut values = Values::default();
    values.set("jobs_per_s", records as f64 / walls.iter().sum::<f64>());
    values.set("batch_p50_ms", median(&ms).expect("batches ran"));
    match tail_percentile(&ms, 0.9, 10) {
        Ok(p90) => values.set("batch_p90_ms", p90),
        Err(e) => failures.push(e),
    }
    values.set("verdict_match_rate", (attempted - mismatched) as f64 / attempted as f64);
    println!(
        "batches {attempted}  timed {}  records {records}  verdict mismatches {mismatched}  (verdict_mismatch_rate {})",
        walls.len(),
        mismatched as f64 / attempted as f64
    );
    if let Some([q1, q2, q3]) = quartiles(&ms) {
        let (lo, hi) = ms.iter().fold((f64::MAX, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
        println!("batch ms  min {lo:.3}  q1 {q1:.3}  median {q2:.3}  q3 {q3:.3}  max {hi:.3}");
    }
    Measured {
        attempted,
        failures,
        values,
    }
}
