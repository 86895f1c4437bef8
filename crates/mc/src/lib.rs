//! `ccc-mc` is empty. It held a concurrency model checker for the shared
//! caches; the checker is deleted, the crates it was wired into use std's
//! `Mutex`, `OnceLock` and atomics directly, and thread-level tests check
//! the properties its model suites checked (DESIGN.md §15).
//!
//! The package stays only because `e2ebench/Cargo.lock` lists it and the
//! five dependency edges to it (from `ccc-obs`, `ccc-crypto`, `ccc-core`,
//! `ccc-lint` and `ccc-bench`). Removing any of them rewrites that lock,
//! so the package and its edges go with the next e2ebench change.
