//! `ccc-mc`: a loom-style, fully vendored deterministic concurrency model
//! checker for the chain-chaos concurrent cache layer.
//!
//! The crate has two personalities, switched by the `model-check` feature:
//!
//! - **Passthrough (default)**: every shim — [`Mutex`], [`OnceLock`],
//!   [`AtomicU64`], [`spawn`], [`scope`] — is a literal `pub use` of its
//!   `std` counterpart. Zero cost, zero behavior change;
//!   `tests/passthrough_transparency.rs` pins this with `TypeId` equality.
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
//! behaviors. The `// ordering:` comment at each atomic call site in the
//! wired crates records why that site's `Ordering` suffices.

mod report;

pub use report::{
    LockClass, LockCycle, LockEdge, LockKind, LockOrderReport, Schedule, ScheduleParseError,
};

#[cfg(not(feature = "model-check"))]
mod passthrough {
    //! Zero-cost aliases: the shim *is* `std` when not model checking.
    pub use std::sync::atomic::{AtomicU64, Ordering};
    pub use std::sync::{Mutex, MutexGuard, OnceLock};
    pub use std::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};
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
    scope, spawn, AtomicU64, JoinHandle, Mutex, MutexGuard, OnceLock, Scope, ScopedJoinHandle,
};
#[cfg(feature = "model-check")]
pub use std::sync::atomic::Ordering;

#[cfg(feature = "model-check")]
pub use explore::{Exploration, Explorer, Failure, FailureKind};
