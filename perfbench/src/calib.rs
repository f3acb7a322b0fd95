//! The host-speed probe.
//!
//! The benchmark runs on shared virtual machines whose speed drifts over
//! minutes to hours, up to 2.5 times between a quiet and a busy host, far
//! more than the changes it has to resolve: the hypervisor steals CPU
//! time, and busy sibling hyperthreads slow the CPU time that is left.
//! (Cross-vCPU wake-ups vary even more; the workloads that hand off
//! between threads are pinned, see `Workload::one_cpu` and the fleet's
//! workers.) A run therefore measures
//! both around every execution. Stolen time is read from `/proc/stat`.
//! The speed of the remaining CPU time comes from a fixed kernel that
//! belongs to the benchmark, not to the program: a small register
//! interpreter with a branchy dispatch and a 1 MiB memory, like the
//! simulators under test, timed in thread CPU time just before and just
//! after the execution, on as many threads as the execution keeps busy
//! (one on each CPU, as the fleet's workers are pinned).

use crate::{stats, sys};

/// Kernel chunks per sample.
const CHUNKS: usize = 8;
/// Interpreted instructions per chunk.
const STEPS: usize = 40_000;
/// CPU seconds one chunk takes on the reference host: a fixed constant,
/// about the mean chunk on a 2-vCPU Intel Xeon VM at its fastest.
const REFERENCE_CHUNK_S: f64 = 150e-6;

/// One interpreted instruction: opcode, two registers, an immediate.
type Op = (u8, u8, u8, u32);

/// The host's state over one measured span.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// How many times slower than on the reference host the kernel's CPU
    /// time ran just before and just after the span.
    pub slowdown: f64,
    /// Share of the time the vCPUs wanted to run that the hypervisor
    /// stole during the span.
    pub steal: f64,
}

impl Host {
    /// Wall seconds of the span as the reference host would have taken
    /// them: stolen time removed, the rest scaled by the slowdown.
    pub fn wall(&self, seconds: f64) -> f64 {
        seconds * (1.0 - self.steal) / self.slowdown
    }

    /// CPU time of the span as the reference host would have spent it.
    pub fn cpu(&self, cpu: f64) -> f64 {
        cpu / self.slowdown
    }
}

/// The kernel: a fixed program, and the state one thread runs it on.
#[derive(Clone)]
struct Kernel {
    program: Vec<Op>,
    memory: Vec<u32>,
    regs: [u32; 16],
    pc: usize,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let program = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x % 12) as u8, (x >> 8) as u8 & 15, (x >> 16) as u8 & 15, (x >> 32) as u32)
            })
            .collect();
        Kernel { program, memory: vec![0; 1 << 18], regs: [1; 16], pc: 0 }
    }

    /// Runs one chunk; returns the CPU seconds it took.
    fn chunk(&mut self) -> f64 {
        let start = sys::thread_cpu_ns();
        let (r, mem, n) = (&mut self.regs, &mut self.memory, self.program.len());
        let mask = mem.len() - 1;
        let mut pc = self.pc;
        for _ in 0..STEPS {
            let (op, a, b, imm) = self.program[pc];
            let (a, b) = (usize::from(a), usize::from(b));
            pc += 1;
            match op {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b].rotate_left(imm & 31),
                2 => r[a] = r[b].wrapping_mul(imm | 1),
                3 => r[a] = mem[(r[b] ^ imm) as usize & mask],
                4 => mem[r[b].wrapping_add(imm) as usize & mask] = r[a],
                5 => r[a] = r[a].wrapping_sub(imm),
                6 => r[a] = (r[b] >> (imm & 15)) | 1,
                7 if r[a] & 3 == 0 => pc = pc.saturating_sub((imm & 63) as usize + 1),
                8 if r[a] > r[b] => pc += (imm & 31) as usize,
                9 => r[a] = r[a].count_ones().wrapping_add(r[b]),
                10 if r[b] & 1 == 0 => r[a] = imm,
                11 => r[a] = r[a].wrapping_add(imm) ^ r[b],
                _ => {}
            }
            if pc >= n {
                pc %= n;
            }
        }
        self.pc = pc;
        std::hint::black_box(&self.regs);
        (sys::thread_cpu_ns() - start) as f64 / 1e9
    }

    fn chunks(&mut self) -> Vec<f64> {
        (0..CHUNKS).map(|_| self.chunk()).collect()
    }
}

/// One kernel per thread the workload keeps busy, and the readings that
/// open the current span.
pub struct HostProbe {
    kernels: Vec<Kernel>,
    /// Chunk CPU seconds of the sample before the current span.
    before: Vec<f64>,
    /// `/proc/stat` ticks at the start of the current span.
    ticks: sys::Ticks,
}

impl HostProbe {
    /// A probe that keeps `threads` threads busy, as the workload does;
    /// the first span starts now.
    pub fn new(threads: usize) -> HostProbe {
        let kernels = vec![Kernel::new(); threads.max(1)];
        let mut probe = HostProbe { kernels, before: Vec::new(), ticks: sys::Ticks::default() };
        probe.mark();
        probe
    }

    /// Ends the current span and starts the next: returns the host's
    /// state over the span that ended.
    pub fn mark(&mut self) -> Host {
        let ticks = sys::cpu_ticks();
        let steal = sys::stolen_share(self.ticks, ticks);
        let after: Vec<f64> = match self.kernels.as_mut_slice() {
            [one] => one.chunks(),
            // One kernel on each CPU, as a fleet has one worker on each.
            many => std::thread::scope(|scope| {
                let running: Vec<_> = many
                    .iter_mut()
                    .enumerate()
                    .map(|(cpu, k)| {
                        scope.spawn(move || {
                            sys::pin_to(cpu);
                            k.chunks()
                        })
                    })
                    .collect();
                running.into_iter().flat_map(|t| t.join().expect("kernel thread")).collect()
            }),
        };
        // The mean, not the median: like the execution, it pays for the
        // caches a stolen slice leaves cold.
        let chunk_s = stats::mean(&[&self.before[..], &after[..]].concat());
        self.before = after;
        self.ticks = sys::cpu_ticks();
        Host { slowdown: chunk_s / REFERENCE_CHUNK_S, steal }
    }
}
