//! The path interner under real threads: every thread answers from its
//! own front cache, yet symbols stay unique across threads and the
//! counters stay exact. This binary holds a single test so that no
//! concurrently running test moves the process-wide counters.

use std::sync::Barrier;
use std::thread;

use epa::sandbox::intern::{self, intern, PathSym};
use epa::sandbox::path;

const THREADS: u64 = 8;
const DIRS: u64 = 4;
const NAMES: u64 = 5;

/// One thread's symbols, in a fixed order: the directories, then every
/// `(dir, name)` join, then the joined paths interned directly.
fn intern_all(prefix: &str, tag: &str) -> Vec<PathSym> {
    let mut syms = Vec::new();
    let mut dirs = Vec::new();
    for d in 0..DIRS {
        let raw = format!("{prefix}//d{d}/./");
        let clean = format!("{prefix}/d{d}");
        assert_eq!(path::clean(&raw), clean);
        let dir = intern(&raw);
        assert_eq!(intern(&clean), dir);
        dirs.push(dir);
    }
    syms.extend(&dirs);
    // Two rounds: the second is always served by the thread's own cache.
    for _ in 0..2 {
        for dir in &dirs {
            for n in 0..NAMES {
                syms.push(dir.join(&format!("{tag}{n}")));
            }
        }
    }
    for dir in &dirs {
        for n in 0..NAMES {
            let clean = format!("{dir}/{tag}{n}");
            let sym = intern(&format!("{dir}/./{tag}{n}"));
            assert_eq!(intern(&clean), sym);
            syms.push(sym);
        }
    }
    syms
}

#[test]
fn threads_share_symbols_and_counters_stay_exact() {
    let tag = format!("it{}n", std::process::id());
    let prefix = format!("/intern-threads-{tag}");
    let before = intern::stats();

    let barrier = Barrier::new(THREADS as usize);
    let per_thread: Vec<Vec<PathSym>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    intern_all(&prefix, &tag)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interning thread"))
            .collect()
    });
    let after = intern::stats();

    // Equal cleaned text is the same allocation on every thread.
    for syms in &per_thread[1..] {
        assert_eq!(syms.len(), per_thread[0].len());
        for (a, b) in syms.iter().zip(&per_thread[0]) {
            assert!(std::ptr::eq(a.as_str(), b.as_str()), "{a} minted twice");
        }
    }

    let pairs = DIRS * NAMES;
    // Distinct cleaned paths: the directories, the names, the joins.
    let distinct = DIRS + NAMES + pairs;
    // Per thread: two spellings per directory and per joined path, and
    // one name lookup per join. Each pair's first join also interns its
    // result, once across all threads.
    let calls = THREADS * (2 * DIRS + 2 * pairs + 2 * pairs) + pairs;
    // Every join but each pair's first is served from a cache.
    let join_hits = THREADS * 2 * pairs - pairs;

    assert_eq!(
        after.misses - before.misses,
        distinct,
        "misses = distinct cleaned paths"
    );
    assert_eq!(after.symbols - before.symbols, distinct, "one symbol per distinct path");
    assert_eq!(
        (after.hits + after.misses) - (before.hits + before.misses),
        calls,
        "every intern call is counted exactly once"
    );
    assert_eq!(after.join_hits - before.join_hits, join_hits);
    // Worker threads fold their counts in as they exit; the totals must
    // not move whether or not that has happened yet.
    assert_eq!(
        intern::stats(),
        after,
        "folding an exited thread's counts changes nothing"
    );
}
