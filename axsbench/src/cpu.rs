//! Thread placement: the whole benchmark runs on one core.
//!
//! A request crosses about eight thread hand-offs (client → session →
//! worker and back), and in this 2-vCPU sandbox waking a thread on the
//! *other* vCPU costs ~25 µs — more than everything the server does for a
//! point read. Left alone, the kernel co-locates those threads in some
//! rounds and spreads them in others: identical rounds measured a 34 µs or
//! a 95 µs median read, and which one came up persisted for seconds.
//! Putting the server on one core and the clients on the other fixed the
//! regime but not the noise (the cross-vCPU wake-up goes through the
//! hypervisor; run-to-run spread of the read median stayed at 7 %).
//! With every thread on one core the hand-offs are plain context
//! switches, the spread falls to 2–3 %, and what is measured is the cost
//! of the software rather than of the sandbox's inter-processor
//! interrupts. The price is stated rather than hidden: clients and server
//! share the core, so throughput is 1 / (CPU time per request, client
//! side included), concurrency shows only as overlapped waits (an fsync
//! blocks one thread while others run), and no workload can show a
//! parallel speed-up — which a 2-core host could not show honestly anyway.

/// Restricts the calling thread — and every thread it spawns afterwards,
/// which is how the in-process server's threads get there — to one core:
/// the highest-numbered of the cores the process is allowed on (read from
/// its affinity mask, so a cpuset that does not start at core 0 works
/// too), because device interrupts and kernel housekeeping favour core 0.
/// Returns the core, or `None`, changing nothing, where the kernel refuses
/// or the platform has no such call.
pub fn pin() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        /// Room for 1024 cores, the size of glibc's `cpu_set_t`.
        const WORDS: usize = 16;
        let bytes = WORDS * std::mem::size_of::<u64>();
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, properly aligned CPU set of exactly
        // `bytes` bytes; pid 0 names the calling thread. The call writes
        // the mask and has no other effect on memory.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|w| *w != 0)?;
        let core = word * 64 + 63 - allowed[word].leading_zeros() as usize;
        let mut mask = [0u64; WORDS];
        mask[word] = 1u64 << (core % 64);
        // SAFETY: as above, and this call only reads the mask.
        let done = unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 };
        done.then_some(core)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}
