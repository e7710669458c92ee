//! Host and build identity, and the process's peak memory.

/// Host CPUs the process may use, read once: later calls must not
/// see the narrower CPU set of a thread [`pin_thread`] has pinned.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One line naming the host and the build, recorded in every output.
pub fn identity() -> String {
    format!(
        "host: nproc {} simd_detected {} simd_active {} | build: commit {} sources {} {} profile {}",
        nproc(),
        ultrascalar_prefix::detected_simd_level(),
        ultrascalar_prefix::active_simd_level(),
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_SOURCE_HASH"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 when
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calling thread's kernel id, for [`pin_thread`] (0 where threads
/// cannot be pinned).
pub fn thread_id() -> i32 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn gettid() -> i32;
        }
        // SAFETY: `gettid` takes no arguments and cannot fail.
        unsafe { gettid() }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        0
    }
}

/// Pin thread `tid` (0: the calling thread) to CPU `cpu % nproc()`, or
/// with `None` let it run on every CPU again. Best effort: a host that
/// refuses leaves the thread where it is.
pub fn pin_thread(tid: i32, cpu: Option<usize>) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        match cpu {
            Some(cpu) => {
                let cpu = cpu % nproc();
                mask[cpu / 64 % 16] |= 1 << (cpu % 64);
            }
            // The kernel narrows a full mask to the CPUs the process may use.
            None => mask = [u64::MAX; 16],
        }
        // SAFETY: the mask is a live, correctly sized CPU set.
        unsafe {
            sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = (tid, cpu);
}
