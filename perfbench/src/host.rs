//! Host speed probe. The shared VM this benchmark was sized on changes
//! speed by tens of percent over seconds to minutes, in two ways: a vCPU
//! computes slower while its neighbours are busy, and the second vCPU is
//! sometimes taken away, so a parallel region waits for its slower half.
//! Every timing of the workspace moves with both. Each run therefore also
//! times fixed work that lives entirely in this file — a small f32 matmul,
//! a popcount pass over an L2-sized buffer and a sum over a 2 MiB buffer —
//! on the measuring thread, and, where the workload fans out, the same
//! work on two freshly spawned threads (as the rayon shim does). Its
//! slowdown against fixed nominal times is the host index, sampled
//! between units of measured work; each measured time is divided by the
//! index around it and so reads as a time at the nominal host speed.
//! Nothing here depends on the workspace's crates, so a change to the
//! program cannot move the index.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Side of the probe's square f32 matmul.
const N: usize = 64;
/// Words of the popcount pass (128 KiB).
const WORDS: usize = 16 * 1024;
/// Words of the streaming sum (2 MiB).
const BIG: usize = 256 * 1024;
/// Nominal time of each kernel on the measuring thread, in ms, and of the
/// two-thread run of all three, wall clock: about their medians on the
/// 2-vCPU host in `README.md` in a quiet window. Only their scale matters:
/// they put the index near 1 on that host.
const NOMINAL_MS: [f64; 3] = [0.12, 0.10, 0.29];
const NOMINAL_PAIR_MS: f64 = 0.65;
/// Least time between two samples taken from a measured loop, so the
/// probe costs about 1% of a run.
pub const EVERY: Duration = Duration::from_millis(100);
/// Samples on either side of a moment that make up its local index.
const AROUND: usize = 5;

/// One copy of the fixed work.
struct Kernels {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    words: Vec<u64>,
    big: Vec<u64>,
}

impl Kernels {
    fn new() -> Kernels {
        let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Kernels {
            a: (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect(),
            c: vec![0.0; N * N],
            words: (0..WORDS).map(mix).collect(),
            big: (0..BIG).map(mix).collect(),
        }
    }

    /// Run each kernel once; their times in ms.
    fn run(&mut self) -> [f64; 3] {
        let t0 = Instant::now();
        for _ in 0..2 {
            self.c.fill(0.0);
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for i in 0..N {
                let out = &mut self.c[i * N..(i + 1) * N];
                for k in 0..N {
                    let av = a[i * N + k];
                    for (o, &bv) in out.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *o += av * bv;
                    }
                }
            }
            black_box(&self.c);
        }
        let t1 = Instant::now();
        let mut ones = 0u32;
        for _ in 0..4 {
            for w in black_box(&self.words).chunks_exact(4) {
                ones = ones.wrapping_add((w[0] & w[1]).count_ones() + (w[2] ^ w[3]).count_ones());
            }
        }
        black_box(ones);
        let t2 = Instant::now();
        let sum = black_box(&self.big)
            .iter()
            .fold(0u64, |s, &w| s.wrapping_add(w));
        black_box(sum);
        let t3 = Instant::now();
        [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64() * 1e3)
    }
}

/// The probe: its work, and the index of every sample so far.
pub struct HostProbe {
    solo: Kernels,
    /// Copies for the two-thread run, when the workload fans out.
    pair: Option<[Kernels; 2]>,
    samples: Vec<(Instant, f64)>,
    /// Wall time spent inside the probe.
    pub spent: Duration,
}

impl HostProbe {
    /// A probe for a workload that computes on one thread (`parallel`
    /// false) or fans its matmuls out to both vCPUs. A parallel
    /// workload's index is the geometric mean of the one- and two-thread
    /// slowdowns: part of its work is serial, part waits for both halves.
    pub fn new(parallel: bool) -> HostProbe {
        HostProbe {
            solo: Kernels::new(),
            pair: parallel.then(|| [Kernels::new(), Kernels::new()]),
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Take one sample.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let times = self.solo.run();
        let mut log = 0.0;
        for (t, nominal) in times.iter().zip(NOMINAL_MS) {
            log += (t / nominal).ln();
        }
        let mut index = (log / NOMINAL_MS.len() as f64).exp();
        if let Some([x, y]) = self.pair.as_mut() {
            let t = Instant::now();
            std::thread::scope(|s| {
                s.spawn(|| x.run());
                s.spawn(|| y.run());
            });
            let pair_ms = t.elapsed().as_secs_f64() * 1e3;
            index = (index * pair_ms / NOMINAL_PAIR_MS).sqrt();
        }
        let end = Instant::now();
        self.spent += end - t0;
        self.samples.push((end, index));
    }

    /// Sample when at least [`EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|(t, _)| t.elapsed() >= EVERY)
        {
            self.sample();
        }
    }

    /// The host index around `t`: the median of the [`AROUND`] samples on
    /// either side of it. Above 1 the host ran slower than nominal. `None`
    /// before the first sample.
    pub fn at(&self, t: Instant) -> Option<f64> {
        let i = self.samples.partition_point(|(s, _)| *s < t);
        let to = (i + AROUND).min(self.samples.len());
        let from = i.saturating_sub(AROUND).min(to.saturating_sub(2 * AROUND));
        let near: Vec<f64> = self.samples[from..to].iter().map(|s| s.1).collect();
        median(&near)
    }

    /// Median index of the samples taken between `from` and `to`, or the
    /// index around `to` when there are none.
    pub fn between(&self, from: Instant, to: Instant) -> Option<f64> {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| (from..=to).contains(t))
            .map(|s| s.1)
            .collect();
        median(&inside).or_else(|| self.at(to))
    }

    /// Median index over every sample, and their number.
    pub fn summary(&self) -> (f64, usize) {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        (median(&all).unwrap_or(f64::NAN), all.len())
    }
}

impl Default for HostProbe {
    /// A probe for a single-threaded workload.
    fn default() -> HostProbe {
        HostProbe::new(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_index_is_the_median_of_nearby_samples() {
        let mut p = HostProbe::new(true);
        assert_eq!(p.at(Instant::now()), None);
        let t0 = Instant::now();
        for k in 0..40 {
            let v = if k < 20 { 1.0 } else { 2.0 };
            p.samples.push((t0 + Duration::from_millis(100 * k), v));
        }
        assert_eq!(p.at(t0), Some(1.0));
        assert_eq!(p.at(t0 + Duration::from_secs(10)), Some(2.0));
        assert_eq!(p.between(t0, t0 + Duration::from_millis(950)), Some(1.0));
        p.sample();
        let (index, n) = p.summary();
        assert!(index.is_finite() && index > 0.0);
        assert_eq!(n, 41);
    }
}
