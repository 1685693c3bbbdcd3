//! The calibration kernel: the benchmark's own clock for the machine's speed.
//!
//! The reference box is a shared host whose speed moves by up to 40 % for
//! minutes at a time: every contender of a workload, and every job of the
//! fleet, slows by the same factor, while their ratios stay within a few
//! per cent (README, "Noise"). No statistic of one process's samples can
//! tell a slow quarter of an hour from a slow program. So every epoch of a
//! workload carries one more participant: a fixed piece of work that
//! belongs to the benchmark and calls nothing of the program — a plain
//! D2Q9 stream-and-collide over private arrays, one lattice per worker
//! thread, the same mix of arithmetic and cache traffic as the code under
//! test — and host times are reported in units of it ([`speed`]). What the
//! machine did to both cancels; what a change did to the program does not.

use crate::stats::quiet;
use std::hint::black_box;
use std::time::Instant;

const NX: usize = 256;
const NY: usize = 256;
const N: usize = NX * NY;
const Q: usize = 9;
const CX: [isize; Q] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
const CY: [isize; Q] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
const W: [f64; Q] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
const OMEGA: f64 = 1.25;
/// Steps of every lattice in one [`Calib::run`].
const STEPS: usize = 4;

/// Runs in a row where the kernel cannot take part in the rounds of the
/// work itself: before and after an epoch of the fleet, around the probes.
pub const BEATS: usize = 6;

/// What one [`Calib::run`] takes on the reference box on a calm day,
/// seconds.
pub const NOMINAL_S: f64 = 2.2e-3;

/// The factor that turns a host time measured in an epoch into the time it
/// would have taken at nominal speed, from the calibration samples of that
/// epoch: [`NOMINAL_S`] over their quiet median. On the reference box on a
/// calm day it is 1; on any machine, a time multiplied by it moves only
/// when the program does.
pub fn speed(samples: &[f64]) -> f64 {
    NOMINAL_S / quiet(samples, 50.0)
}

/// One worker's private lattice: two copies of `Q` planes of `N` nodes.
struct Lane {
    src: Vec<f64>,
    dst: Vec<f64>,
}

impl Lane {
    fn new() -> Self {
        // A smooth density wave at rest; the outermost ring of nodes is
        // never written and stays a fixed boundary.
        let mut f = vec![0.0; Q * N];
        for q in 0..Q {
            for i in 0..N {
                let (x, y) = ((i % NX) as f64, (i / NX) as f64);
                let rho = 1.0 + 0.01 * (x * 0.049).sin() * (y * 0.037).cos();
                f[q * N + i] = W[q] * rho;
            }
        }
        Lane {
            src: f.clone(),
            dst: f,
        }
    }

    /// One pull-form BGK step over the interior.
    fn step(&mut self) {
        let (src, dst) = (&self.src, &mut self.dst);
        for i in NX + 1..N - NX - 1 {
            let mut f = [0.0; Q];
            for q in 0..Q {
                let from = i as isize - CX[q] - CY[q] * NX as isize;
                f[q] = src[q * N + from as usize];
            }
            let rho: f64 = f.iter().sum();
            let (mut jx, mut jy) = (0.0, 0.0);
            for q in 0..Q {
                jx += CX[q] as f64 * f[q];
                jy += CY[q] as f64 * f[q];
            }
            let (ux, uy) = (jx / rho, jy / rho);
            let uu = 1.5 * (ux * ux + uy * uy);
            for q in 0..Q {
                let cu = 3.0 * (CX[q] as f64 * ux + CY[q] as f64 * uy);
                let feq = W[q] * rho * (1.0 + cu + 0.5 * cu * cu - uu);
                dst[q * N + i] = f[q] + OMEGA * (feq - f[q]);
            }
        }
        std::mem::swap(&mut self.src, &mut self.dst);
    }
}

/// The calibration kernel over `threads` worker threads.
pub struct Calib {
    lanes: Vec<Lane>,
}

impl Calib {
    pub fn new(threads: usize) -> Self {
        Calib {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
        }
    }

    /// Run the kernel once, the lanes side by side: one step to bring the
    /// lattice back into the caches, then [`STEPS`] timed ones, timed inside
    /// the thread (its start-up is not in it). Returns the harmonic mean of
    /// the lanes' times, seconds: the program hands blocks and jobs to
    /// whichever worker is free, so what it gets out of two cores of unequal
    /// speed is their mean speed, not the slower one's.
    pub fn run(&mut self) -> f64 {
        let mean_speed = std::thread::scope(|s| {
            let lanes: Vec<_> = (self.lanes.iter_mut())
                .map(|lane| {
                    s.spawn(move || {
                        lane.step();
                        let t0 = Instant::now();
                        for _ in 0..STEPS {
                            lane.step();
                        }
                        t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            let n = lanes.len() as f64;
            lanes
                .into_iter()
                .map(|lane| lane.join().expect("the calibration kernel does not panic"))
                .map(|secs| 1.0 / secs)
                .sum::<f64>()
                / n
        });
        black_box(&self.lanes[0].src);
        1.0 / mean_speed
    }

    /// `n` runs in a row.
    pub fn runs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.run()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_conserves_mass_in_the_interior_and_stays_finite() {
        let mut c = Calib::new(2);
        for _ in 0..5 {
            assert!(c.run() > 0.0);
        }
        let f = &c.lanes[1].src;
        assert!(f.iter().all(|x| x.is_finite() && *x > 0.0));
        let mean = f.iter().sum::<f64>() / N as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean density {mean}");
    }
}
