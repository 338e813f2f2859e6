//! The campaign driver facade: declarative worlds, frozen sessions, batch
//! suites.
//!
//! This module is the public face of the testing engine, layered so each
//! concern stays independent:
//!
//! 1. **[`WorldSpec`] / [`ScenarioBuilder`]** (`spec`) — worlds declared as
//!    data: files, users, registry keys, network services and attack-target
//!    tags, validated once and reusable across campaigns.
//! 2. **[`Session`]** (`session`) — a spec materialized and frozen; every
//!    run starts from a copy-on-write snapshot of the pristine world, so
//!    per-fault setup costs O(touched state) instead of O(world).
//! 3. **[`Suite`]** (`suite`) — many `(application, world)` pairs executed
//!    as one batch, streaming [`SuiteEvent`]s and aggregating into a
//!    [`SuiteReport`] with cross-application rollups.
//! 4. **[`planner`]** — the fault-space planner between the fault
//!    plan and the executor: canonicalizes every job into a
//!    content-addressed [`planner::FaultKey`], dedups equivalent jobs
//!    within a plan, memoizes `(setup fingerprint, FaultKey) -> RunDigest`
//!    in a suite-scoped [`planner::ResultCache`] so identical runs replay
//!    from cache instead of re-executing.
//! 5. **[`Executor`]** (`executor`) — the single suite-wide work pool:
//!    every injected run (across all applications) goes into one shared
//!    queue drained by at most `available_parallelism` workers, with
//!    deterministic plan-order reassembly of the results. Cache replays
//!    resolve inline on the calling thread and never occupy a worker slot.
//!
//! Underneath, one crate-private driver (`driver`) turns plans into
//! records for both front-ends: a session runs it inline on the calling
//! thread, a suite runs it over its worker pool. Parallelism is a suite
//! property ([`Suite::with_workers`], `EPA_WORKERS`).
//!
//! # Example
//!
//! ```
//! use epa_core::engine::{Session, WorldSpec};
//! use epa_sandbox::app::Application;
//! use epa_sandbox::cred::{Gid, Uid};
//! use epa_sandbox::os::{Os, ScenarioMeta};
//! use epa_sandbox::process::Pid;
//!
//! struct Lpr;
//! impl Application for Lpr {
//!     fn name(&self) -> &'static str { "lpr" }
//!     fn run(&self, os: &mut Os, pid: Pid) -> i32 {
//!         // creat(n, 0660) without O_EXCL — the flaw from the paper.
//!         match os.sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", "data", 0o660) {
//!             Ok(()) => 0,
//!             Err(_) => 1,
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioMeta::default();
//! let spec = WorldSpec::builder()
//!     .user("root", Uid::ROOT, Gid::ROOT, "/root")
//!     .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
//!     .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
//!     .root_file("/etc/passwd", "root:0:0:", 0o644)
//!     .suid_root_program("/usr/bin/lpr")
//!     .build();
//!
//! let session = Session::new(&spec)?;
//! let report = session.execute(&Lpr);
//! assert_eq!(report.injected(), 4);   // existence, ownership, permission, symlink
//! assert_eq!(report.violated(), 4);   // naive creat tolerates none of them
//! # Ok(())
//! # }
//! ```

mod driver;
pub mod executor;
#[cfg(feature = "model-check")]
pub mod modelcheck;
pub mod planner;
pub mod session;
pub mod spec;
pub mod suite;

pub use executor::Executor;
pub use planner::{CacheStats, FaultKey, ResultCache, RunDigest};
pub use session::Session;
pub use spec::{
    DirSpec, FileSpec, InboundSpec, IpcSpec, RegKeySpec, ScenarioBuilder, ServiceSpec, SpecError, SymlinkSpec,
    UserSpec, WorldSpec,
};
pub use suite::{Suite, SuiteEvent, SuiteReport};
