//! The host's pace: a fixed reference computation timed alongside a
//! workload, so that its CPU-bound timings can be stated at one fixed
//! reference speed.
//!
//! The reference box is a shared 2-core host whose speed drifts by a
//! third over minutes, while thread CPU time tracks wall time and no
//! steal is accounted: the program is slowed, not descheduled, and
//! every run of a CPU-bound workload inherits the drift. The reference
//! computation runs between jobs, outside every timed interval, and
//! slows with the host. The *slowdown* around an operation is the
//! median of the [`WINDOW`] samples taken nearest to it, over
//! [`REFERENCE_US`]; dividing the operation's time by it states that
//! time at the reference pace. Set-up is scaled by the samples taken
//! before the first timed operation, one before and one after each
//! set-up. The computation is the benchmark's own code and
//! works in a table it allocates once, so it shares no allocator state
//! with the program, and a change to the program moves the scaled
//! timings exactly as much as the raw ones.
//!
//! The two cores of the reference box drift apart as well, so a
//! closed-loop workload first [pins](pin) itself to one core: its
//! client, the engine's worker and the reference computation then all
//! run where the samples are taken.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

/// The reference computation's time on the reference box (2-core Xeon,
/// 2.1 GHz) when it runs at full speed.
pub const REFERENCE_US: f64 = 2_000.0;

/// Slots of the reference computation's table (2 MiB).
const SLOTS: usize = 1 << 18;
/// Keys it interns per sample: the table ends half full.
const KEYS: u64 = 1 << 17;
/// Samples the slowdown around one operation is taken over.
pub const WINDOW: usize = 10;

/// Reference-computation samples of one run.
#[derive(Debug, Default)]
pub struct Pace {
    table: Vec<u64>,
    /// (operations timed before the sample, its time in µs), in the
    /// order taken.
    samples: Vec<(usize, f64)>,
}

impl Pace {
    /// Times the reference computation once; `at` counts the timed
    /// operations that came before it.
    pub fn sample(&mut self, at: usize) {
        if self.table.is_empty() {
            // Run once untimed, so no sample pays the table's page faults.
            self.table = vec![0; SLOTS];
            black_box(reference(&mut self.table));
        }
        let t = Instant::now();
        black_box(reference(&mut self.table));
        self.samples.push((at, t.elapsed().as_secs_f64() * 1e6));
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference pace the host ran over the
    /// whole run: the median of all samples (1 with none).
    pub fn slowdown(&self) -> f64 {
        self.slowdown_of(&self.samples)
    }

    /// The slowdown around operation `i`: over the [`WINDOW`] samples
    /// nearest to it, half taken before it and half after where the run
    /// has them.
    fn slowdown_at(&self, i: usize) -> f64 {
        let after = self.samples.partition_point(|&(at, _)| at <= i);
        let end = (after + WINDOW / 2).max(WINDOW).min(self.samples.len());
        self.slowdown_of(&self.samples[end.saturating_sub(WINDOW)..end])
    }

    fn slowdown_of(&self, samples: &[(usize, f64)]) -> f64 {
        if samples.is_empty() {
            return 1.0;
        }
        let us: Vec<f64> = samples.iter().map(|&(_, us)| us).collect();
        median(&us) / REFERENCE_US
    }

    /// A set-up's duration at the reference pace: divided by the
    /// slowdown over the samples taken before the first timed operation
    /// (over all of them when there are none).
    pub fn setup_time(&self, t: f64) -> f64 {
        let before = self.samples.partition_point(|&(at, _)| at == 0);
        match before {
            0 => t / self.slowdown(),
            n => t / self.slowdown_of(&self.samples[..n]),
        }
    }

    /// The durations of the run's timed operations, in order, each at
    /// the reference pace.
    pub fn times(&self, ts: &[f64]) -> Vec<f64> {
        ts.iter()
            .enumerate()
            .map(|(i, &t)| t / self.slowdown_at(i))
            .collect()
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or `None`
/// where the affinity cannot be read or set.
#[cfg(target_os = "linux")]
pub fn pin() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write exactly `size` bytes of `mask`;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pins the calling thread (unsupported here: never pins).
#[cfg(not(target_os = "linux"))]
pub fn pin() -> Option<usize> {
    None
}

/// Interns pseudo-random keys in an open-addressing table the way the
/// search's interner does: hashing, probing, stores scattered over a
/// table larger than the caches closest to the core. Returns a digest
/// of where the keys landed, which depends only on the fixed key
/// sequence.
fn reference(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut digest = 0u64;
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x | 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
        while table[slot] != 0 && table[slot] != key {
            slot = (slot + 1) & mask;
        }
        table[slot] = key;
        digest = digest.rotate_left(5) ^ slot as u64;
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computation_is_fixed_work() {
        let mut table = vec![0; SLOTS];
        let first = reference(&mut table);
        table.iter_mut().for_each(|s| *s = 7);
        assert_eq!(reference(&mut table), first);
    }

    #[test]
    fn each_operation_is_scaled_by_the_samples_around_it() {
        // Operations 0..45 ran at half the reference pace, 45..80 at it.
        let samples = (0..80)
            .map(|i| (i + 1, REFERENCE_US * if i < 45 { 2.0 } else { 1.0 }))
            .collect();
        let pace = Pace {
            table: Vec::new(),
            samples,
        };
        let scaled = pace.times(&[100.0; 80]);
        assert_eq!(scaled[0], 50.0);
        assert_eq!(scaled[30], 50.0);
        assert_eq!(scaled[50], 100.0);
        assert_eq!(scaled[79], 100.0);
        assert_eq!(Pace::default().times(&[7.0]), vec![7.0]);
    }

    #[test]
    fn set_up_is_scaled_by_the_samples_taken_before_the_pass() {
        let pace = Pace {
            table: Vec::new(),
            samples: vec![
                (0, REFERENCE_US * 2.0),
                (0, REFERENCE_US * 2.0),
                (1, REFERENCE_US),
            ],
        };
        assert_eq!(pace.setup_time(1.0), 0.5);
        assert_eq!(Pace::default().setup_time(1.0), 1.0);
    }
}
