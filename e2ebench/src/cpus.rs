//! Spreading a single-threaded workload over every CPU the process may
//! use. On a shared host one CPU of a small VM can run a third slower
//! than the other for minutes (whatever shares its physical core), and
//! the scheduler keeps a busy thread where it started. Unpinned, a run's
//! figures then depend on which CPU it happened to land on; pinned in
//! turn to each CPU, every run sees all of them alike.

/// `cpu_set_t` of glibc: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub struct Cpus {
    allowed: [u64; MASK_WORDS],
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's CPUs; none when they cannot be read, and then
    /// [`Cpus::pin`] does nothing.
    #[must_use]
    pub fn allowed() -> Cpus {
        let mut allowed = [0u64; MASK_WORDS];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed.
        let read =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) }
                == 0;
        let ids = if read {
            (0..MASK_WORDS * 64).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect()
        } else {
            Vec::new()
        };
        Cpus { allowed, ids }
    }

    /// How many CPUs ops rotate over (1 when none could be read).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.ids.len().max(1)
    }

    /// Pins the calling thread to CPU number `slot` (modulo [`Cpus::slots`]).
    pub fn pin(&self, slot: usize) {
        if let Some(&cpu) = self.ids.get(slot % self.slots()) {
            let mut mask = [0u64; MASK_WORDS];
            mask[cpu / 64] = 1 << (cpu % 64);
            self.set(&mask);
        }
    }

    /// Lets the calling thread run on all of its CPUs again.
    pub fn release(&self) {
        if !self.ids.is_empty() {
            self.set(&self.allowed);
        }
    }

    fn set(&self, mask: &[u64; MASK_WORDS]) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        // A refusal leaves the thread where it was, which only undoes the
        // spreading, so its result is not needed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}
