//! Wall time and the process's CPU time, read together.
//!
//! On a shared KVM host the vCPU is sometimes not running at all: the
//! host has given it to another guest (steal time). Wall time counts
//! those stretches; with paravirtual steal accounting, the guest kernel
//! does not charge them to any thread, so the process's CPU time leaves
//! them out. In one set of five runs on a 2-vCPU guest, the wall time of
//! the same pass spread by 0.35 (IQR/median) while its CPU time spread by
//! 0.09, and a run's cold queries took 45% of their wall time in CPU
//! time. The end-to-end timings are therefore CPU time; wall time is
//! printed beside them.

use std::ops::{AddAssign, Sub};
use std::time::{Duration, Instant};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the process's threads have run so far.
pub fn process_time() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// A start point on both clocks.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: Duration,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_time(),
        }
    }

    /// Wall time and process CPU time since the stamp.
    pub fn elapsed(&self) -> Span {
        Span {
            wall: self.wall.elapsed(),
            cpu: process_time().saturating_sub(self.cpu),
        }
    }
}

/// A stretch of work on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    pub wall: Duration,
    pub cpu: Duration,
}

impl Sub for Span {
    type Output = Span;
    fn sub(self, other: Span) -> Span {
        Span {
            wall: self.wall.saturating_sub(other.wall),
            cpu: self.cpu.saturating_sub(other.cpu),
        }
    }
}

impl AddAssign for Span {
    fn add_assign(&mut self, other: Span) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_shows_on_both_clocks_and_sleep_on_the_wall() {
        let start = Stamp::now();
        let mut x = 1u64;
        while start.elapsed().cpu < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        std::thread::sleep(Duration::from_millis(30));
        let took = start.elapsed();
        // The process clock also counts other test threads, so neither
        // clock has a ceiling here, and the busy loop may end early.
        assert!(took.cpu >= Duration::from_millis(20));
        assert!(took.wall >= Duration::from_millis(30));
        let mut sum = took - took;
        assert_eq!(sum, Span::default());
        sum += took;
        assert_eq!(sum, took);
    }
}
