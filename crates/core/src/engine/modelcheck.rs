//! Model-check fixtures for the engine's concurrency protocols
//! (`model-check` feature only).
//!
//! Each fixture wraps one protocol in a small closed scenario — 2–3
//! workers, 3–6 jobs — and hands it to the shim's cooperative scheduler
//! ([`shim_sync::model::check`]), which explores every interleaving
//! within the preemption bound. The *production* types are checked, not
//! copies: under the `model-check` feature [`ShardedQueue`],
//! [`ResultCache`], and [`Executor`] compile against the shim's model
//! personality, so the code paths explored here are byte-for-byte the
//! ones tier-1 builds run under `std`.
//!
//! Two **seeded mutants** accompany the real protocols as a mutation
//! gate for the checker itself (if the checker cannot kill a bug we
//! once shipped, its green runs mean nothing):
//!
//! * [`check_close_protocol_mutant`] re-introduces the pre-PR-8 close
//!   race: the queue's `pending` counter decremented *outside* the
//!   owning shard's critical section. A sibling that reads the stale
//!   count spins between "pending says there is work" and "every shard
//!   is empty" for as long as the popping worker stays preempted — the
//!   checker reports the livelock via its step bound.
//! * [`check_claim_protocol_mutant`] breaks the cache claim protocol's
//!   exactly-once guarantee: `fulfill` drops the `Pending` slot and
//!   signals *before* publishing the digest. A waiter that rechecks in
//!   the gap finds no slot at all, concludes the claim was abandoned,
//!   and re-executes the run — the fixture's execution counter turns
//!   that into an assertion failure on the offending schedule.

use std::collections::{BTreeMap, VecDeque};

use shim_sync::model::{check, Config, Report};
use shim_sync::sync::atomic::{AtomicUsize, Ordering};
use shim_sync::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use shim_sync::thread;

use crate::engine::executor::{Executor, ShardedQueue};
use crate::engine::planner::{Claim, FaultKey, ResultCache, RunDigest};

/// A digest with recognizable content for replay assertions.
fn digest(exit: i32) -> RunDigest {
    RunDigest {
        applied: true,
        exit: Some(exit),
        crashed: None,
        audit_events: 1,
        violations: Vec::new(),
    }
}

/// The close/pending protocol of the executor's sharded queue: two
/// workers drain three jobs while the collector closes the pool after
/// the last result arrives. Every schedule must deliver all three jobs
/// exactly once and both workers must terminate (`pop -> None`).
pub fn check_close_protocol(cfg: &Config) -> Report {
    check("executor.close_protocol", cfg, || {
        let queue: ShardedQueue<usize> = ShardedQueue::new(2);
        queue.push_many(0, vec![10, 20, 30]);
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|scope| {
            for w in 0..2 {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    while let Some(job) = queue.pop(w) {
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut got: Vec<usize> = (0..3).map(|_| rx.recv().expect("job result")).collect();
            queue.close(false);
            got.sort_unstable();
            assert_eq!(got, vec![10, 20, 30], "every job delivered exactly once");
        });
    })
}

/// Seeded mutant of [`check_close_protocol`]: the queue decrements
/// `pending` after releasing the shard lock (the pre-PR-8 bug). See the
/// module docs for the failing schedule; the expected verdict is a
/// step-bound livelock report.
pub fn check_close_protocol_mutant(cfg: &Config) -> Report {
    check("executor.close_protocol.mutant", cfg, || {
        let queue: MutantQueue<usize> = MutantQueue::new(2);
        queue.push_many(vec![10, 20, 30]);
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|scope| {
            for w in 0..2 {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    while let Some(job) = queue.pop(w) {
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut got: Vec<usize> = (0..3).map(|_| rx.recv().expect("job result")).collect();
            queue.close();
            got.sort_unstable();
            assert_eq!(got, vec![10, 20, 30]);
        });
    })
}

/// The result cache's claim protocol on the **production**
/// [`ResultCache`]: two racing claimants, one key. Exactly one may
/// execute; the other must block and replay the published digest.
pub fn check_claim_protocol(cfg: &Config) -> Report {
    check("cache.claim_protocol", cfg, || {
        let cache = ResultCache::new();
        let key = FaultKey::synthetic("site#0|-|{}");
        let executed = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..2 {
                let cache = cache.clone();
                let key = key.clone();
                let executed = executed.clone();
                scope.spawn(move || match cache.begin(7, &key) {
                    Claim::Execute(token) => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        token.fulfill(digest(0));
                    }
                    Claim::Replay(d) => assert_eq!(d.exit, Some(0), "replayed the published digest"),
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "exactly one claimant executes");
        assert_eq!(cache.stats().entries, 1);
    })
}

/// The claim protocol's abandonment path (the worker-panic liveness
/// fix): the first claimant drops its token unfulfilled — exactly what
/// a panicking job's unwind does — and a blocked second claimant must
/// wake, re-claim, and complete the run.
pub fn check_claim_abandon(cfg: &Config) -> Report {
    check("cache.claim_abandon", cfg, || {
        let cache = ResultCache::new();
        let key = FaultKey::synthetic("site#0|-|{}");
        // Claim on the root thread (no contention yet, so this always
        // wins), then abandon while the rescuer may already be blocked.
        let Claim::Execute(token) = cache.begin(7, &key) else {
            panic!("empty cache cannot replay");
        };
        let rescuer = {
            let cache = cache.clone();
            let key = key.clone();
            thread::spawn(move || match cache.begin(7, &key) {
                Claim::Execute(token) => token.fulfill(digest(1)),
                Claim::Replay(_) => panic!("nothing was published before the abandon"),
            })
        };
        drop(token); // abandon, as an unwinding worker would
        rescuer.join().expect("rescuer completes despite the abandoned claim");
        assert!(matches!(cache.begin(7, &key), Claim::Replay(_)));
    })
}

/// A schedule lookup racing a claim, on the **production**
/// [`ResultCache`]: the shape of a campaign's planning job on one worker
/// while another worker executes a run of the same key. The claimant runs
/// `begin` then `fulfill`; the planner runs `lookup` and, on a miss,
/// `begin`. In every schedule the lookup returns without waiting, it
/// returns nothing or the fulfilled digest, and the run executes exactly
/// once.
///
/// "Without waiting" is made checkable: a claimant that sees the lookup
/// already under way holds its claim until the lookup has returned. A
/// lookup that blocked on the in-flight claim would then wait on a
/// claimant that waits on it, and the checker reports the deadlock. A
/// claimant that sees no lookup under way fulfils at once, so the lookup
/// can also land after the digest is published.
pub fn check_lookup_races_claim(cfg: &Config) -> Report {
    check("cache.lookup_races_claim", cfg, || {
        let cache = ResultCache::new();
        let key = FaultKey::synthetic("site#0|-|{}");
        let executed = Arc::new(AtomicUsize::new(0));
        let looking = Arc::new(AtomicUsize::new(0));
        let (looked, lookup_returned) = mpsc::channel::<()>();
        thread::scope(|scope| {
            {
                let (cache, key, executed, looking) = (cache.clone(), key.clone(), executed.clone(), looking.clone());
                scope.spawn(move || match cache.begin(7, &key) {
                    Claim::Execute(token) => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        if looking.load(Ordering::SeqCst) == 1 {
                            lookup_returned.recv().expect("the planner reports its lookup");
                        }
                        token.fulfill(digest(3));
                    }
                    Claim::Replay(d) => assert_eq!(d.exit, Some(3), "replayed the published digest"),
                });
            }
            let (cache, key, executed) = (cache.clone(), key.clone(), executed.clone());
            scope.spawn(move || {
                looking.store(1, Ordering::SeqCst);
                let seen = cache.lookup(7, &key);
                // The claimant may have stopped listening; that is fine.
                let _ = looked.send(());
                match seen {
                    Some(d) => assert_eq!(d.exit, Some(3), "a lookup hit is the fulfilled digest"),
                    None => match cache.begin(7, &key) {
                        Claim::Execute(token) => {
                            executed.fetch_add(1, Ordering::SeqCst);
                            token.fulfill(digest(3));
                        }
                        Claim::Replay(d) => assert_eq!(d.exit, Some(3), "replayed the published digest"),
                    },
                }
            });
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "the run executes exactly once");
        assert_eq!(cache.stats().entries, 1);
    })
}

/// Seeded mutant of [`check_claim_protocol`]: a claim protocol whose
/// `fulfill` drops the `Pending` slot and signals before publishing.
/// The checker must find the schedule where a waiter rechecks in the
/// gap and re-executes (the fixture asserts exactly-once execution).
pub fn check_claim_protocol_mutant(cfg: &Config) -> Report {
    check("cache.claim_protocol.mutant", cfg, || {
        let cache = Arc::new(MutantCache::default());
        let executed = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..2 {
                let cache = cache.clone();
                let executed = executed.clone();
                scope.spawn(move || match cache.begin("k") {
                    MutantClaim::Execute => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        cache.fulfill("k", 0);
                    }
                    MutantClaim::Replay(v) => assert_eq!(v, 0),
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "exactly one claimant executes");
    })
}

/// Plan-order reassembly of [`Executor::run_indexed`] under adversarial
/// schedules: 2 workers race a shared cursor over 4 jobs, results
/// stream back in arbitrary completion order, and in **every**
/// interleaving the reassembled vector must be byte-identical to the
/// sequential run's.
pub fn check_indexed_reassembly(cfg: &Config) -> Report {
    let jobs: Vec<usize> = vec![10, 20, 30, 40];
    let sequential = format!(
        "{:?}",
        Executor::with_workers(1).run_indexed(&jobs, |i, j| (i, j * 2), &mut |_, _| {})
    );
    check("executor.indexed_reassembly", cfg, move || {
        let pool = Executor::with_workers(2);
        let mut streamed = 0usize;
        let out = pool.run_indexed(&jobs, |i, j| (i, j * 2), &mut |_, _| streamed += 1);
        assert_eq!(streamed, jobs.len(), "every completion streamed to the caller");
        assert_eq!(format!("{out:?}"), sequential, "reassembly is schedule-independent");
    })
}

/// The suite-pool shape on [`Executor::run_expanding`]: 2 seed jobs
/// (one per "application plan") each fan out into 2 follow-up jobs on
/// completion, so the steal path delivers children maximally
/// out-of-order across shards. The caller-side reassembly by job index
/// must match the sequential run byte-for-byte in every schedule.
pub fn check_expanding_reassembly(cfg: &Config) -> Report {
    let sequential = format!("{:?}", expanding_slots(1));
    check("executor.expanding_reassembly", cfg, move || {
        assert_eq!(
            format!("{:?}", expanding_slots(2)),
            sequential,
            "steal-path delivery order must not leak into the report"
        );
    })
}

/// Runs the suite-shaped expanding workload on `workers` workers and
/// reassembles results by job index (as `Suite::execute_with` does).
fn expanding_slots(workers: usize) -> BTreeMap<usize, usize> {
    let pool = Executor::with_workers(workers);
    let mut slots: BTreeMap<usize, usize> = BTreeMap::new();
    // Seeds 1 and 2 expand into children 10*id+1 / 10*id+2.
    pool.run_expanding(vec![1usize, 2], |job| (job, job * 100), &mut |(job, result)| {
        slots.insert(job, result);
        if job < 10 {
            vec![job * 10 + 1, job * 10 + 2]
        } else {
            Vec::new()
        }
    });
    slots
}

/// [`ShardedQueue`] with the pre-PR-8 seeded bug: `pending` decremented
/// *after* the shard lock is released (see the module docs).
struct MutantQueue<J> {
    shards: Vec<Mutex<VecDeque<J>>>,
    pending: AtomicUsize,
    closed: Mutex<bool>,
    ready: Condvar,
}

impl<J> MutantQueue<J> {
    fn new(workers: usize) -> MutantQueue<J> {
        MutantQueue {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            closed: Mutex::new(false),
            ready: Condvar::new(),
        }
    }

    fn push_many(&self, jobs: Vec<J>) {
        let n = jobs.len();
        for (k, job) in jobs.into_iter().enumerate() {
            self.shards[k % self.shards.len()]
                .lock()
                .expect("shard lock")
                .push_back(job);
        }
        self.pending.fetch_add(n, Ordering::SeqCst);
        drop(self.closed.lock().expect("queue lock"));
        self.ready.notify_all();
    }

    fn try_pop(&self, worker: usize) -> Option<J> {
        let n = self.shards.len();
        for k in 0..n {
            let victim = (worker + k) % n;
            let job = {
                let mut shard = self.shards[victim].lock().expect("shard lock");
                if k == 0 {
                    shard.pop_front()
                } else {
                    shard.pop_back()
                }
                // BUG under test: the shard lock is released here, BEFORE
                // the pending decrement below — a sibling can observe
                // `pending > 0` with every shard already empty.
            };
            if let Some(job) = job {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    fn pop(&self, worker: usize) -> Option<J> {
        loop {
            if self.pending.load(Ordering::SeqCst) > 0 {
                if let Some(job) = self.try_pop(worker) {
                    return Some(job);
                }
            }
            let mut closed = self.closed.lock().expect("queue lock");
            loop {
                if self.pending.load(Ordering::SeqCst) > 0 {
                    break;
                }
                if *closed {
                    return None;
                }
                closed = self.ready.wait(closed).expect("queue lock");
            }
        }
    }

    fn close(&self) {
        *self.closed.lock().expect("queue lock") = true;
        self.ready.notify_all();
    }
}

/// Outcome of [`MutantCache::begin`].
enum MutantClaim {
    Execute,
    Replay(u32),
}

/// One memo slot of the mutant claim protocol.
enum MutantSlot {
    Pending,
    Ready(u32),
}

/// A distilled claim protocol with the seeded fulfill bug (see the
/// module docs). `begin` mirrors [`ResultCache::begin`]; only `fulfill`
/// differs from the production ordering.
#[derive(Default)]
struct MutantCache {
    state: Mutex<BTreeMap<String, MutantSlot>>,
    settled: Condvar,
}

impl MutantCache {
    fn begin(&self, key: &str) -> MutantClaim {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match state.get(key) {
                Some(MutantSlot::Ready(v)) => return MutantClaim::Replay(*v),
                Some(MutantSlot::Pending) => {
                    state = self.settled.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    state.insert(key.to_string(), MutantSlot::Pending);
                    return MutantClaim::Execute;
                }
            }
        }
    }

    fn fulfill(&self, key: &str, value: u32) {
        // BUG under test: the Pending slot is dropped and waiters are
        // signaled BEFORE the digest is published. A waiter that
        // rechecks in the gap finds no slot, concludes the claim was
        // abandoned, and re-executes the run.
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.remove(key);
        }
        self.settled.notify_all();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.insert(key.to_string(), MutantSlot::Ready(value));
    }
}
