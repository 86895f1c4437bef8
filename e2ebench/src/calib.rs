//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent within seconds, as neighbours come and go. Every timed sweep
//! (and every set-up) is therefore preceded by one calibration unit — a
//! fixed piece of benchmark-local work that shares no code with the
//! program under test — and its times are scaled to a reference host on
//! which the unit takes [`REFERENCE_S`]. A change to the program moves the
//! scaled figures exactly as it moves the raw ones; a change in host speed
//! moves the unit along with the sweep and cancels out. The raw figures
//! are kept in the report line.

use std::hint::black_box;
use std::time::Instant;

/// Duration of one calibration unit on the reference host.
pub const REFERENCE_S: f64 = 0.004;

const TABLE_WORDS: usize = 1 << 14;
const STEPS: u64 = 1 << 19;
const LANES: usize = 8;

/// One calibration unit: eight independent xorshift streams doing
/// multiply-accumulate into a 128 KiB table. The independent streams keep
/// the core's execution ports busy the way the program's bignum and hash
/// arithmetic does, so the unit slows down with the same contention.
fn unit() -> u64 {
    let mut table = vec![0u64; TABLE_WORDS];
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| {
        0x9E37_79B9_7F4A_7C15 ^ (i as u64).wrapping_mul(0x1234_5678_9ABC_DEF1)
    });
    for step in 0..STEPS {
        for x in lanes.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let slot = &mut table[(*x as usize) & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_mul(*x | 1).wrapping_add(step);
        }
    }
    table.iter().fold(0, |acc, v| acc ^ v)
}

/// Seconds one calibration unit takes, averaged over `threads` threads
/// running one unit each at the same time.
pub fn measure(threads: usize) -> f64 {
    let timed = || {
        let start = Instant::now();
        black_box(unit());
        start.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return timed();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(timed)).collect();
        let total: f64 = handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum();
        total / threads as f64
    })
}

/// Factor that converts a time measured next to a calibration unit of
/// `unit_s` seconds into reference-host time.
pub fn scale(unit_s: f64) -> f64 {
    if unit_s > 0.0 {
        REFERENCE_S / unit_s
    } else {
        1.0
    }
}
