//! Pins the zero-overhead claim: without `model-check`, every shim is the
//! *same type* as its `std` counterpart — not a wrapper, an alias. If any
//! `TypeId` here ever diverges, the passthrough build stopped being free.

#![cfg(not(feature = "model-check"))]

use std::any::TypeId;
use std::mem::size_of;

#[test]
fn shims_are_literal_std_type_aliases() {
    assert_eq!(
        TypeId::of::<ccc_mc::Mutex<Vec<u8>>>(),
        TypeId::of::<std::sync::Mutex<Vec<u8>>>()
    );
    assert_eq!(
        TypeId::of::<ccc_mc::OnceLock<u64>>(),
        TypeId::of::<std::sync::OnceLock<u64>>()
    );
    assert_eq!(
        TypeId::of::<ccc_mc::AtomicU64>(),
        TypeId::of::<std::sync::atomic::AtomicU64>()
    );
}

#[test]
fn shim_sizes_match_std() {
    assert_eq!(size_of::<ccc_mc::Mutex<u64>>(), size_of::<std::sync::Mutex<u64>>());
    assert_eq!(size_of::<ccc_mc::AtomicU64>(), 8);
    assert_eq!(
        size_of::<ccc_mc::OnceLock<u64>>(),
        size_of::<std::sync::OnceLock<u64>>()
    );
}

#[test]
fn spawn_is_std_spawn() {
    // Function-item identity: mc::spawn::<F, T> must monomorphize from the
    // exact same generic fn as std::thread::spawn.
    fn probe() -> u32 {
        7
    }
    let f: fn(fn() -> u32) -> std::thread::JoinHandle<u32> = ccc_mc::spawn::<fn() -> u32, u32>;
    let handle = f(probe);
    assert_eq!(handle.join().expect("join"), 7);
}

#[test]
fn report_types_available_without_feature() {
    // The report types compile without the feature, so their unit tests
    // (schedule parsing, cycle detection) run in every workspace test.
    let schedule: ccc_mc::Schedule = "0,1,0".parse().expect("parse");
    assert_eq!(schedule.to_string(), "0,1,0");
    let report = ccc_mc::LockOrderReport::default();
    assert!(report.is_acyclic());
}
