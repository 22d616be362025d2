//! Host facts the benchmark needs from the operating system: pinning
//! its own process to one CPU and counting its own OS threads.

/// `cpu_set_t` as glibc and musl define it: 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict the calling process to the highest-numbered CPU it may use
/// and return that CPU. Threads spawned afterwards inherit the mask.
///
/// One CPU makes a world's futex handoffs between its OS threads
/// serial and repeatable; on two unpinned CPUs the same world's host
/// time spreads about twofold (see README.md).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1u64 << (c % 64)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The process's current number of OS threads (`num_threads`, field
/// 20 of `/proc/self/stat`); 0 where that file is unavailable.
pub fn os_threads() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(20 - 3))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}
