//! Host speed, measured inside every run so that timings from runs minutes
//! apart compare.
//!
//! On a shared machine the same work takes tens of percent longer at some
//! times than at others, as other tenants take cores, cache and memory
//! bandwidth. A fixed reference kernel, timed between the program's
//! repetitions, slows down with the host, so a run reports every time in
//! reference seconds: the seconds it measured times [`REFERENCE_KERNEL_S`]
//! over the median seconds of the kernel in that run. A change to the
//! program moves the program's time and not the kernel's, so it still shows
//! in full. The measured seconds and the kernel's median are printed with
//! every run. Over 14 runs of one `tpch22-bulk` input on a 2-vCPU Xeon, the
//! kernel's median correlated 0.7 with the run's times, and scaling cut the
//! interquartile range over the median from 0.23 to 0.14 for planning and
//! from 0.13 to 0.10 for the run.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes on the reference host, a quiet 2-vCPU Xeon at
/// 2.1 GHz, so reference seconds read close to measured seconds there.
pub const REFERENCE_KERNEL_S: f64 = 0.010;

/// Slots of the kernel's hash table: 8 MB, more than a core's private
/// caches, as the program's hash tables and memo are.
const TABLE_SLOTS: usize = 1 << 20;
/// Keys the kernel looks up or inserts per run.
const KERNEL_OPS: u64 = 600_000;
/// Distinct keys: about a third of the upserts find their key.
const KERNEL_KEYS: u64 = 600_000;

/// The reference kernel: a hash table of `u64` keys with linear probing,
/// cleared and filled by pseudo-random upserts, the random memory access
/// and hashing of the program's joins, aggregates and memo. It allocates
/// nothing after [`Host::new`], so it does not depend on the state the
/// program left its heap in.
pub struct Kernel {
    table: Vec<u64>,
}

impl Kernel {
    /// A kernel with its table allocated.
    pub fn new() -> Self {
        Kernel { table: vec![0; TABLE_SLOTS] }
    }

    /// One run; returns how many upserts found their key, which depends
    /// only on the constants above.
    pub fn run(&mut self) -> u64 {
        self.table.fill(0);
        let mask = TABLE_SLOTS - 1;
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut found = 0;
        for _ in 0..black_box(KERNEL_OPS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Keys are non-zero: 0 marks an empty slot.
            let key = x % KERNEL_KEYS + 1;
            let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44) as usize & mask;
            loop {
                match self.table[slot] {
                    0 => {
                        self.table[slot] = key;
                        break;
                    }
                    k if k == key => {
                        found += 1;
                        break;
                    }
                    _ => slot = (slot + 1) & mask,
                }
            }
        }
        found
    }
}

/// Kernel timings of one run.
pub struct Host {
    kernel: Kernel,
    samples: Vec<f64>,
}

impl Host {
    /// A host with no timings yet.
    pub fn new() -> Self {
        Host { kernel: Kernel::new(), samples: Vec::new() }
    }

    /// Time the kernel `n` times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let start = Instant::now();
            black_box(self.kernel.run());
            self.samples.push(start.elapsed().as_secs_f64());
        }
    }

    /// Median kernel seconds so far.
    pub fn kernel_s(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// Reference seconds per measured second: [`REFERENCE_KERNEL_S`] over
    /// the median kernel time. 1 on a host as fast as the reference, below
    /// 1 on a slower one.
    pub fn scale(&self) -> f64 {
        self.kernel_s().map_or(1.0, |k| REFERENCE_KERNEL_S / k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let mut k = Kernel::new();
        let found = k.run();
        assert!(found > 0 && found < KERNEL_OPS);
        assert_eq!(k.run(), found);
    }

    #[test]
    fn scale_is_reference_over_median_kernel_time() {
        let mut host = Host::new();
        assert_eq!(host.scale(), 1.0);
        host.samples = vec![0.05, 0.02, 0.06];
        assert_eq!(host.kernel_s(), Some(0.05));
        assert!((host.scale() - REFERENCE_KERNEL_S / 0.05).abs() < 1e-15);
    }
}
