//! Interned path symbols — the hot-loop's answer to per-component
//! `String` churn.
//!
//! Every path that flows through the sandbox (walk resolution, audit
//! events, fault-key canonicalization) is first *cleaned* with
//! [`crate::path::clean`] and then interned into a process-wide symbol
//! table. The resulting [`PathSym`] is a `Copy` handle: cloning an
//! audit event no longer copies path bytes, equality is a pointer
//! compare, and the same path text is stored exactly once for the
//! lifetime of the process.
//!
//! Two invariants make the symbol a drop-in replacement for the owned
//! `String` it displaces:
//!
//! 1. **Symbol equality ≡ clean equality.** `intern(a) == intern(b)`
//!    exactly when `path::clean(a) == path::clean(b)` — including the
//!    `..`-preserving rule pinned in PR 5 (`..` is resolved physically
//!    by the VFS walk, never textually here).
//! 2. **Content uniqueness.** The table never stores two allocations
//!    with equal text, so the pointer-equality fast path and the
//!    content [`Ord`] are mutually consistent.
//!
//! The table leaks its strings (`Box::leak`) — a deliberate arena:
//! the set of distinct paths in a campaign is small and bounded by the
//! scenario corpus, and leaking buys `&'static str` handles with no
//! unsafe code and no lifetime threading. [`stats`] exposes hit/miss
//! counters that double as the allocations-per-run proxy reported by
//! `benches/hotpath.rs` (a counting global allocator is off the table:
//! the workspace forbids `unsafe_code`).
//!
//! # Per-thread front cache
//!
//! Pooled workers intern the same few hundred paths on every run, so a
//! lookup must not write memory another thread touches. Each thread
//! keeps its own cache in front of the table: cleaned text → symbol, and
//! `(dir, name)` → joined symbol. A lookup the cache cannot answer falls
//! through to the table and is then cached locally. The table stays the
//! only place a symbol is minted, and the cache only repeats the table's
//! answers, so both invariants above hold across threads.
//!
//! # Exact counters
//!
//! Each thread counts `hits`, `misses` and `join_hits` in its own
//! counter block: only the owning thread writes it, [`stats`] reads it.
//! The blocks are listed in a registry. When a thread exits, its block
//! is folded into the registry's retired totals and unlisted, both under
//! the registry lock; [`stats`] sums the retired totals and the listed
//! blocks under that same lock. Every count is therefore in exactly one
//! of the two places at any moment, so [`stats`] is exact — also right
//! after a scoped pool returns, whether or not its workers' thread-local
//! destructors have run yet. (Joining a thread orders its counter writes
//! before the reader's loads.)

use shim_sync::sync::atomic::{AtomicU64, Ordering};
use shim_sync::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use crate::path;

/// An interned, cleaned path — a `Copy` symbol whose equality is a
/// pointer compare and whose text lives for the life of the process.
///
/// Construct one with [`intern`] (or the `From` impls, which intern).
/// The symbol derefs to `str`, so read-only call sites
/// (`starts_with`, `contains`, formatting) keep working unchanged.
#[derive(Clone, Copy)]
pub struct PathSym(&'static str);

impl PathSym {
    /// The interned root path, `"/"`.
    pub fn root() -> PathSym {
        intern("/")
    }

    /// The symbol's text (already cleaned).
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// Interns `self`'s text joined with one more component — the walk
    /// loop's path extension, served from a `(dir, name)` cache so a
    /// re-walked prefix never re-allocates.
    pub fn join(&self, name: &str) -> PathSym {
        with_local(|local| local.join(*self, name))
    }
}

impl PartialEq for PathSym {
    fn eq(&self, other: &PathSym) -> bool {
        // Content uniqueness makes pointer equality exact.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for PathSym {}

impl std::hash::Hash for PathSym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash by content so PathSym and str keys agree in maps that
        // mix them; equality remains the pointer fast path.
        self.0.hash(state);
    }
}

impl PartialOrd for PathSym {
    fn partial_cmp(&self, other: &PathSym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PathSym {
    fn cmp(&self, other: &PathSym) -> std::cmp::Ordering {
        // Content order: deterministic across runs (pointer order is
        // not), which the verdict sort keys rely on.
        self.0.cmp(other.0)
    }
}

impl std::ops::Deref for PathSym {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for PathSym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for PathSym {
    fn from(s: &str) -> PathSym {
        intern(s)
    }
}

impl From<&String> for PathSym {
    fn from(s: &String) -> PathSym {
        intern(s)
    }
}

impl From<String> for PathSym {
    fn from(s: String) -> PathSym {
        intern(&s)
    }
}

impl PartialEq<str> for PathSym {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for PathSym {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for PathSym {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<PathSym> for str {
    fn eq(&self, other: &PathSym) -> bool {
        self == other.0
    }
}

impl PartialEq<PathSym> for &str {
    fn eq(&self, other: &PathSym) -> bool {
        *self == other.0
    }
}

impl PartialEq<PathSym> for String {
    fn eq(&self, other: &PathSym) -> bool {
        self.as_str() == other.0
    }
}

impl serde::Serialize for PathSym {
    fn ser(&self) -> serde::Value {
        // Wire format is the plain string — every JSON schema that
        // carried an owned path is byte-identical with symbols.
        serde::Value::Str(self.0.to_string())
    }
}

impl serde::Deserialize for PathSym {
    fn de(v: &serde::Value) -> Result<PathSym, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(intern(s)),
            _ => Err(serde::DeError::expected("path string", "PathSym")),
        }
    }
}

/// Interner counters — the bench's allocations-per-run proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups served from the table without allocating.
    pub hits: u64,
    /// Lookups that interned (and leaked) a new string.
    pub misses: u64,
    /// Distinct symbols currently live (equals total leaked strings).
    pub symbols: u64,
    /// `(dir, name)` join-cache lookups served without re-cleaning.
    pub join_hits: u64,
}

/// The process-wide table: the only place a symbol is minted.
struct Table {
    syms: RwLock<HashMap<&'static str, PathSym>>,
    joins: RwLock<HashMap<(PathSym, PathSym), PathSym>>,
    registry: Mutex<Registry>,
}

/// Every thread's counter block, plus the totals of threads that exited.
struct Registry {
    live: Vec<Arc<Counters>>,
    retired: [u64; 3],
}

/// One thread's counters. Only the owning thread writes them (a plain
/// load and store, no read-modify-write); [`stats`] reads them. The
/// alignment keeps two threads' blocks off one cache line.
#[repr(align(128))]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    join_hits: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    fn read(&self) -> [u64; 3] {
        [&self.hits, &self.misses, &self.join_hits].map(|c| c.load(Ordering::Relaxed))
    }
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table {
        syms: RwLock::new(HashMap::new()),
        joins: RwLock::new(HashMap::new()),
        registry: Mutex::new(Registry {
            live: Vec::new(),
            retired: [0; 3],
        }),
    })
}

impl Table {
    /// The symbol for text that is already clean, and whether this call
    /// minted (and leaked) it.
    fn intern_clean(&self, cleaned: &str) -> (PathSym, bool) {
        if let Some(&sym) = self.syms.read().expect("interner poisoned").get(cleaned) {
            return (sym, false);
        }
        let mut map = self.syms.write().expect("interner poisoned");
        // Double-check: another thread may have interned between locks.
        if let Some(&sym) = map.get(cleaned) {
            return (sym, false);
        }
        let leaked: &'static str = Box::leak(cleaned.to_string().into_boxed_str());
        let sym = PathSym(leaked);
        map.insert(leaked, sym);
        (sym, true)
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A thread's front cache over the [`Table`], with its counter block.
/// Answers are copied from the table, so the cache can only repeat what
/// the table already decided.
struct Local {
    /// Cleaned text → symbol.
    syms: HashMap<&'static str, PathSym>,
    /// `(dir, name)` → joined symbol.
    joins: HashMap<(PathSym, PathSym), PathSym>,
    counters: Arc<Counters>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::register());
}

/// Runs `f` on this thread's cache. A lookup made after the cache is
/// torn down (from another thread-local's destructor) gets a one-shot
/// cache, whose counts are folded in when it drops.
fn with_local<R>(f: impl Fn(&mut Local) -> R) -> R {
    LOCAL
        .try_with(|local| f(&mut local.borrow_mut()))
        .unwrap_or_else(|_| f(&mut Local::register()))
}

impl Local {
    fn register() -> Local {
        let counters = Arc::new(Counters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            join_hits: AtomicU64::new(0),
        });
        table().registry().live.push(Arc::clone(&counters));
        Local {
            syms: HashMap::new(),
            joins: HashMap::new(),
            counters,
        }
    }

    fn intern(&mut self, p: &str) -> PathSym {
        // Most lookups arrive already clean (walk output, re-interned
        // symbols); probe the raw text first and only clean on miss. A
        // stored key is always cleaned text, so a raw hit means `p` was
        // already clean.
        if let Some(&sym) = self.syms.get(p) {
            Counters::bump(&self.counters.hits);
            return sym;
        }
        let cleaned = path::clean(p);
        let (sym, minted) = match self.syms.get(cleaned.as_str()) {
            Some(&sym) => (sym, false),
            None => table().intern_clean(&cleaned),
        };
        self.syms.insert(sym.as_str(), sym);
        let counter = if minted {
            &self.counters.misses
        } else {
            &self.counters.hits
        };
        Counters::bump(counter);
        sym
    }

    fn join(&mut self, dir: PathSym, name: &str) -> PathSym {
        // The component is itself a symbol, so the cache key is Copy
        // and 'static. Cleaning is segment-local, so keying on the
        // cleaned component cannot conflate distinct joined paths.
        let key = (dir, self.intern(name));
        if let Some(&sym) = self.joins.get(&key) {
            Counters::bump(&self.counters.join_hits);
            return sym;
        }
        let t = table();
        let known = t.joins.read().expect("interner poisoned").get(&key).copied();
        let sym = match known {
            Some(sym) => sym,
            None => {
                let mut joins = t.joins.write().expect("interner poisoned");
                // Double-check: another thread may have joined between
                // locks. Each pair is joined (and its result interned)
                // once, so the counts do not depend on thread timing.
                match joins.get(&key) {
                    Some(&sym) => sym,
                    None => {
                        // Lock order: `joins` before `syms`, never after.
                        let sym = self.intern(&path::join(dir.as_str(), key.1.as_str()));
                        joins.insert(key, sym);
                        self.joins.insert(key, sym);
                        return sym;
                    }
                }
            }
        };
        Counters::bump(&self.counters.join_hits);
        self.joins.insert(key, sym);
        sym
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Fold and unregister in one critical section, so `stats` sees
        // this thread's counts exactly once whichever side of it runs.
        let mut registry = table().registry();
        let counts = self.counters.read();
        for (total, n) in registry.retired.iter_mut().zip(counts) {
            *total += n;
        }
        registry.live.retain(|c| !Arc::ptr_eq(c, &self.counters));
    }
}

/// Interns a path: cleans it with [`path::clean`], then returns the
/// process-wide unique symbol for the cleaned text.
pub fn intern(p: &str) -> PathSym {
    with_local(|local| local.intern(p))
}

/// A snapshot of the interner counters (see [`InternStats`]). Exact at
/// any moment: every count is in exactly one of the retired totals or a
/// live block, and both are read under the registry lock.
pub fn stats() -> InternStats {
    let t = table();
    let [hits, misses, join_hits] = {
        let registry = t.registry();
        registry.live.iter().fold(registry.retired, |mut sum, c| {
            for (total, n) in sum.iter_mut().zip(c.read()) {
                *total += n;
            }
            sum
        })
    };
    InternStats {
        hits,
        misses,
        symbols: t.syms.read().expect("interner poisoned").len() as u64,
        join_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_cleans_share_a_symbol() {
        assert_eq!(intern("/etc//passwd"), intern("/etc/./passwd"));
        assert_eq!(intern("/etc/passwd").as_str(), "/etc/passwd");
    }

    #[test]
    fn dotdot_is_preserved_not_resolved() {
        // PR 5's rule: clean() collapses `//` and `.` but leaves `..`
        // for the physical walk.
        assert_eq!(intern("/var/run/../x").as_str(), "/var/run/../x");
        assert_ne!(intern("/var/run/../x"), intern("/var/x"));
    }

    #[test]
    fn join_extends_and_caches() {
        let etc = intern("/etc");
        assert_eq!(etc.join("passwd"), intern("/etc/passwd"));
        let before = stats().join_hits;
        assert_eq!(etc.join("passwd"), intern("/etc/passwd"));
        assert!(stats().join_hits > before);
        assert_eq!(PathSym::root().join("etc"), etc);
    }

    #[test]
    fn ordering_is_by_content() {
        assert!(intern("/a") < intern("/b"));
        assert!(intern("/a/b") < intern("/b"));
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        use serde::{Deserialize, Serialize};
        let sym = intern("/etc/shadow");
        let v = sym.ser();
        assert_eq!(v, serde::Value::Str("/etc/shadow".into()));
        assert_eq!(PathSym::de(&v).unwrap(), sym);
    }
}
