//! `ccc-mc`: a loom-style, fully vendored deterministic concurrency model
//! checker for the chain-chaos concurrent cache layer.
//!
//! The crate has two personalities, switched by the `model-check` feature:
//!
//! - **Passthrough (default)**: every shim — [`Mutex`], [`RwLock`],
//!   [`OnceLock`], [`AtomicU64`], [`AtomicUsize`], [`spawn`], [`scope`] —
//!   is a literal `pub use` of its `std` counterpart. Zero cost, zero
//!   behavior change; `tests/passthrough_transparency.rs` pins this with
//!   `TypeId` equality.
//! - **Model check (`--features model-check`)**: the same names resolve to
//!   wrapper types that route every acquire/release/load/store/init
//!   through a cooperative scheduler *while a model run is active on the
//!   current thread tree*, and transparently delegate to `std` otherwise
//!   (so ordinary tests keep working in a feature-unified build).
//!
//! The `Explorer` (model-check only) enumerates interleavings of a
//! closure by depth-first search over scheduling choices with
//! configurable preemption bounding and sleep-set/last-access pruning,
//! records every lock-acquisition edge into a [`LockOrderReport`], and on
//! a property failure (panic or deadlock) returns a replayable
//! [`Schedule`] that minimizes to a committed regression test.
//!
//! Exploration semantics are **sequentially consistent**: the checker
//! enumerates interleavings of shim operations, not C11 weak-memory
//! behaviors. The atomics-ordering pass compensates heuristically by
//! recording the `Ordering` each call site *requested* and flagging
//! suspicious pairings (e.g. a `Release` store whose only observed loads
//! are `Relaxed`).

mod report;

pub use report::{
    AtomicSiteSummary, LockClass, LockCycle, LockEdge, LockKind, LockOrderReport, Schedule,
    ScheduleParseError,
};

#[cfg(not(feature = "model-check"))]
mod passthrough {
    //! Zero-cost aliases: the shim *is* `std` when not model checking.
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    pub use std::sync::{
        Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };
    pub use std::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};
}

#[cfg(not(feature = "model-check"))]
pub use passthrough::*;

#[cfg(feature = "model-check")]
mod sched;
#[cfg(feature = "model-check")]
mod modeled;
#[cfg(feature = "model-check")]
mod explore;
#[cfg(feature = "model-check")]
pub mod scenarios;

#[cfg(feature = "model-check")]
pub use modeled::{
    scope, spawn, yield_now, AtomicBool, AtomicU64, AtomicUsize, JoinHandle, Mutex, MutexGuard,
    OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Scope, ScopedJoinHandle,
};
#[cfg(feature = "model-check")]
pub use std::sync::atomic::Ordering;

#[cfg(feature = "model-check")]
pub use explore::{Exploration, Explorer, Failure, FailureKind};

/// True when this build of the crate has the cooperative scheduler
/// compiled in (`--features model-check`).
pub const MODEL_CHECK_BUILD: bool = cfg!(feature = "model-check");
