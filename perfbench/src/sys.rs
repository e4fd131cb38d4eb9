//! Process-wide CPU time and peak resident set size, from `getrusage(2)`.
//!
//! `RUSAGE_SELF` covers every thread the process ever ran, including rank
//! threads that have already exited, so CPU deltas taken around a driver
//! call include all of its simulated ranks.

use std::ffi::c_long;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage`: two `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut ru = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the layout of the C
    // `struct rusage`, and getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    ru
}

/// User + system CPU time of the whole process so far, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let ru = rusage();
    let us = |tv: &Timeval| tv.tv_sec as u64 * 1_000_000 + tv.tv_usec as u64;
    (us(&ru.ru_utime) + us(&ru.ru_stime)) * 1_000
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    // Linux reports `ru_maxrss` in KiB.
    rusage().ru_maxrss as f64 / 1024.0
}
