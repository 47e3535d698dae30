//! Process-level probes read from `/proc/self`, plus the small
//! statistics and hashing helpers every workload shares.

use aim_core::space::Point;
use aim_world::Village;

/// Kernel clock ticks per second for `/proc/self/stat` times (Linux
/// `USER_HZ`, 100 on every mainstream configuration).
pub const TICKS_PER_S: f64 = 100.0;

/// Process-wide CPU time so far, in clock ticks: `(user, system)`,
/// summed over every thread the process has run (live or exited).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// CPU ticks spent between two [`cpu_ticks`] readings.
pub fn cpu_delta(before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (after.0 - before.0, after.1 - before.1)
}

/// CPU seconds the calling thread has run so far
/// (`/proc/thread-self/schedstat`, ns resolution). The kernel leaves out
/// time the hypervisor stole from the virtual CPU.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Seconds the hypervisor has stolen from this machine's virtual CPUs
/// so far, summed over them (`steal` in `/proc/stat`); 0 on bare metal.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// A Linux `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Moves the calling thread from one allowed CPU to the next, and gives
/// it back its original CPU mask when dropped.
///
/// A single-threaded replay stays on the CPU it started on, and on a
/// shared host one virtual CPU can run far slower than the other for a
/// minute or more while the other tenants keep its physical core busy.
/// Passes spread over every allowed CPU are not all caught by that.
pub struct CpuRotation {
    original: CpuSet,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// Reads the calling thread's CPU mask. If it cannot be read,
    /// [`CpuRotation::pin`] does nothing.
    pub fn new() -> Self {
        let mut original = [0u64; 16];
        // SAFETY: `original` is a writable buffer of the size passed.
        let read = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut original) } == 0;
        let cpus = (0..1024)
            .filter(|&c| read && (original[c / 64] >> (c % 64)) & 1 == 1)
            .collect();
        CpuRotation { original, cpus }
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    pub fn pin(&self, k: usize) {
        if let Some(&c) = self.cpus.get(k % self.cpus.len().max(1)) {
            let mut mask = [0u64; 16];
            mask[c / 64] |= 1 << (c % 64);
            set_affinity(&mask);
        }
    }
}

impl Default for CpuRotation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.original);
        }
    }
}

fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of the size passed. A failure
    // leaves the mask as it was, which only costs the rotation.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

/// Logical CPUs this process may run on.
pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak-RSS watermark so the next [`peak_rss_mb`] covers only
/// what runs from now on (used when several workloads share a process).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Median of `xs` (mean of the two middle values for even counts);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &mut [u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// 64-bit FNV-1a, the digest behind [`world_digest`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a world's final state: every agent's position plus the
/// full event log, in order. Two runs end in the same world exactly when
/// their digests match (up to hash collisions).
pub fn world_digest(village: &Village) -> u64 {
    digest_parts(&village.positions(), village.events())
}

/// [`world_digest`] over explicit parts.
pub fn digest_parts<E: std::fmt::Debug>(positions: &[Point], events: &[E]) -> u64 {
    let mut h = Fnv::default();
    for p in positions {
        h.write(&p.x.to_le_bytes());
        h.write(&p.y.to_le_bytes());
    }
    h.write(&(events.len() as u64).to_le_bytes());
    for e in events {
        h.write(format!("{e:?}").as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let mut xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50);
        assert_eq!(percentile(&mut xs, 99.0), 99);
        assert_eq!(percentile(&mut [], 99.0), 0);
    }

    #[test]
    fn process_probes_read_something() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ticks();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (u, s) = cpu_delta(before, cpu_ticks());
        assert!(u + s < 10_000);
    }

    #[test]
    fn rotation_pins_and_restores() {
        let allowed = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let before = allowed();
        {
            let rotation = CpuRotation::new();
            rotation.pin(0);
            assert_eq!(allowed(), 1);
        }
        assert_eq!(allowed(), before);
    }

    #[test]
    fn digest_sees_positions_and_events() {
        let a = digest_parts(&[Point::new(1, 2)], &["woke"]);
        assert_eq!(a, digest_parts(&[Point::new(1, 2)], &["woke"]));
        assert_ne!(a, digest_parts(&[Point::new(2, 1)], &["woke"]));
        assert_ne!(a, digest_parts(&[Point::new(1, 2)], &["slept"]));
    }
}
