//! A fixed reference kernel, timed beside every simulator repetition.
//!
//! The host's speed drifts by tens of percent within seconds when other
//! tenants share its cores. The kernel (a dependent pointer chase over a
//! 4 MiB random cycle, the same cache- and latency-bound shape as the
//! simulator's event handling) is part of the benchmark, not the program,
//! so dividing by its time cancels the drift without hiding any change in
//! the program.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference-kernel runs that make up one reference second.
pub const RUNS_PER_REF_SECOND: f64 = 100.0;
/// Cycle length: 4 MiB of `u32` links.
const LINKS: usize = 1 << 20;
/// Dependent loads per kernel run.
const STEPS: usize = 100_000;

/// The pointer cycle the kernel walks.
pub struct Reference {
    next: Vec<u32>,
}

impl Reference {
    /// Builds one random cycle through every link (Sattolo's shuffle).
    pub fn new() -> Reference {
        let mut next: Vec<u32> = (0..LINKS as u32).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for i in (1..LINKS).rev() {
            next.swap(i, rng.gen_range(0..i));
        }
        Reference { next }
    }

    /// Host seconds one kernel run takes now.
    pub fn time_s(&self) -> f64 {
        let started = Instant::now();
        let mut p = 0usize;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            p = self.next[p] as usize;
            acc = acc.wrapping_mul(31).wrapping_add(p as u64);
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

/// `wall_s` host seconds expressed in reference seconds, given the kernel
/// times measured just before and just after.
pub fn ref_seconds(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s / ((before_s + after_s) / 2.0 * RUNS_PER_REF_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_link() {
        let r = Reference::new();
        let (mut p, mut steps) = (0usize, 0usize);
        loop {
            p = r.next[p] as usize;
            steps += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(steps, LINKS);
        assert_eq!(ref_seconds(2.0, 0.01, 0.03), 1.0);
    }
}
