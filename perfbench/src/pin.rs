//! Pins the serve phases to one CPU. On a shared 2-vCPU host a round trip
//! between a client thread and a daemon thread lands either on one core
//! or across two, and the two placements differ by a third in latency
//! (about 17 and 24 µs per hot round trip); which one a trial gets is
//! the scheduler's choice, not the program's. With the client and every
//! daemon thread on one CPU, the scheduler has no placement to choose,
//! and the process's CPU time over a round trip is the client's and the
//! daemon's work for it.
//!
//! Threads inherit the affinity of the thread that spawns them, so
//! pinning the benchmark thread before it starts a daemon and its
//! clients pins them all.

use std::mem::size_of;

/// A CPU mask as the kernel takes it: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable mask of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable mask of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) == 0 }
}

/// The calling thread pinned to the lowest CPU it may run on, until
/// dropped; then its previous mask is restored.
pub struct Pinned {
    saved: Option<CpuSet>,
}

impl Pinned {
    /// Pins the calling thread; if the kernel refuses, leaves it as it
    /// was (the run then measures unpinned, and says so).
    pub fn to_one_cpu() -> Pinned {
        let saved = get().and_then(|saved| {
            let word = saved.0.iter().position(|&w| w != 0)?;
            let mut one = CpuSet([0; 16]);
            one.0[word] = 1 << saved.0[word].trailing_zeros();
            set(&one).then_some(saved)
        });
        if saved.is_none() {
            println!("note: could not pin the serve phase to one CPU; it runs unpinned");
        }
        Pinned { saved }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(saved) = &self.saved {
            set(saved);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_dropping_restores_the_mask() {
        let before = get().expect("affinity is readable").0;
        {
            let _pin = Pinned::to_one_cpu();
            let pinned = get().expect("affinity is readable").0;
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(
                std::thread::spawn(|| get().expect("affinity is readable").0)
                    .join()
                    .expect("thread ran"),
                pinned,
                "spawned threads inherit the pin"
            );
        }
        assert_eq!(get().expect("affinity is readable").0, before);
    }
}
