//! Host accounting: CPU time of this process and of its waited-for
//! children (getrusage(2)), peak resident set (`/proc/self/status`), the
//! host's steal share (`/proc/stat`) and the core count.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) and /proc/stat: 64-bit Linux only");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
pub type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn affinity() -> CpuSet {
    let mut set = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    set
}

/// Restricts the calling thread, and the threads it starts from now on,
/// to `set`.
pub fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a live buffer of exactly the size passed; the
    // kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Pins the calling thread, and the threads it starts from now on, to
/// the `n`-th CPU it may run on (counting round); returns the set it
/// could run on before.
pub fn pin_to(n: usize) -> CpuSet {
    let allowed = affinity();
    let cpus: Vec<usize> = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    let cpu = cpus[n % cpus.len()];
    let mut one = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one);
    allowed
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable value laid out as the kernel's
    // `struct timespec` on 64-bit Linux; clock_gettime writes only inside
    // it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    (ts.sec.max(0) as u64) * 1_000_000_000 + ts.nsec.max(0) as u64
}

/// User + system CPU of `who`, in microseconds.
fn cpu_us(who: i32) -> u64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (checked by the compile_error above);
    // getrusage writes only inside it.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let us = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
    us(&usage.utime) + us(&usage.stime)
}

/// CPU of this process, all threads, in microseconds.
pub fn self_cpu_us() -> u64 {
    cpu_us(RUSAGE_SELF)
}

/// CPU of every child this process has waited for (cumulative), in
/// microseconds.
pub fn children_cpu_us() -> u64 {
    cpu_us(RUSAGE_CHILDREN)
}

/// This process's peak resident set in KiB (`VmHWM`). Unlike
/// `ru_maxrss`, it does not inherit the parent's size at fork.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Ticks of the `cpu` line of `/proc/stat`, summed over every CPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    steal: u64,
    /// Time spent running: user, nice, system, irq, softirq.
    busy: u64,
    /// Everything, idle and iowait included.
    total: u64,
}

/// The `cpu` line of `/proc/stat` now.
pub fn cpu_ticks() -> Ticks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted inside user/nice.
    let field = |i: usize| fields.get(i).copied().unwrap_or(0);
    Ticks {
        steal: field(7),
        busy: field(0) + field(1) + field(2) + field(5) + field(6),
        total: (0..8).map(field).sum(),
    }
}

/// Share of host CPU time stolen by the hypervisor between two readings,
/// in percent.
pub fn steal_pct(before: Ticks, after: Ticks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Share of the time the vCPUs wanted to run that the hypervisor stole
/// between two readings. An idle vCPU accrues no steal, so this is the
/// share a running program loses, where [`steal_pct`] dilutes it by the
/// idle vCPUs.
pub fn stolen_share(before: Ticks, after: Ticks) -> f64 {
    let steal = after.steal.saturating_sub(before.steal);
    let wanted = steal + after.busy.saturating_sub(before.busy);
    if wanted == 0 {
        return 0.0;
    }
    steal as f64 / wanted as f64
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
