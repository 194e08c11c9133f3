//! Host speed: a fixed reference kernel, timed between groups of answers,
//! that rescales every timed span to a nominal host speed.
//!
//! The shared host runs identical code at speeds up to 2× apart from one
//! minute to the next (see README.md). A span timed between two runs of
//! the reference kernel is multiplied by [`NOMINAL_S`] ÷ the mean of their
//! two times, so a slow stretch of the host slows the kernel as well and
//! largely cancels out. The kernel depends on nothing in the letdma
//! crates: a change to the program moves the rescaled times exactly as it
//! moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's typical time, in seconds, on the host the
/// bounds were set on (2-vCPU "Intel(R) Xeon(R) Processor" VM, where it
/// takes 16–25 ms). Rescaled spans read as seconds on that host at that
/// speed.
pub const NOMINAL_S: f64 = 0.02;

/// Times one run of the reference kernel, in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The factor that rescales a span timed between two runs of the
/// reference kernel, which took `before` and `after` seconds, to nominal
/// host speed.
#[must_use]
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

/// Gaussian elimination of fixed dense 96 × 96 matrices. Of the
/// candidates timed beside both workloads (this, random updates over 2, 8
/// and 32 MiB tables, a sort, pointer chasing, an ALU loop, and mixes of
/// them), it tracked both workloads' slow stretches best. Returns a
/// checksum of the results.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut sum: u64 = 0;
    const N: usize = 96;
    for _ in 0..120 {
        let mut a: Vec<f64> = (0..N * N)
            .map(|_| (next() % 1000) as f64 / 1000.0 + 0.01)
            .collect();
        for i in 0..N {
            a[i * N + i] += N as f64;
        }
        for k in 0..N {
            let pivot = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        sum = sum.wrapping_add(a[N * N - 1].to_bits());
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_speed_scales_by_one() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        // Twice as slow before and after: spans count half.
        assert!((scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S) - 0.5).abs() < 1e-12);
        // The span between a fast and a slow reading takes their mean.
        assert!((scale(0.5 * NOMINAL_S, 1.5 * NOMINAL_S) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        assert!(reference_s() > 0.0);
    }
}
