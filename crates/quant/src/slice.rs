//! Slice-level quantization: [`QuantParams::code`] over a whole slice,
//! branch-free and compiled per instruction set.
//!
//! The body restates `code` so that every step is a lane-wise vector
//! operation: `y = x / scale` (a true division, as in `code`, never a
//! multiply by `1/scale`); NaN to 0; `y` clamped in float to
//! `±(qmax + 1)`; the truncating cast; the ±0.5 remainder step; the clamp
//! to `±qmax`. It returns `code`'s value on every input:
//!
//! * NaN: `code`'s saturating cast sends it to 0 and its remainder
//!   compares false both ways, so `code` gives 0, as here.
//! * `|y| ≤ qmax + 1`: the clamp leaves `y` alone, the cast cannot
//!   saturate, and both run the same operations on the same value.
//! * `|y| > qmax + 1` (±inf included): `code` truncates to a magnitude
//!   of at least `qmax + 1`, so its final clamp gives `±qmax`; here `y`
//!   becomes `±(qmax + 1)`, an integer (a power of two, exact in f32), so
//!   the remainder is 0 and the final clamp gives the same `±qmax`.
//!
//! `scale == 0` (every code 0 in `code`) and widths past 24 bits go
//! through `code` itself.
//! Tier selection follows `tr_tensor::matmul`: one safe body, inlined
//! into a baseline build and an AVX2 build, the AVX2 one picked at run
//! time when the host has it. An AVX-512 build measured no faster: the
//! division dominates and its throughput per element does not improve
//! with the wider registers.

use crate::calibrate::QuantParams;

/// The builds of the slice body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The target's baseline instruction set.
    Portable,
    /// Compiled for AVX2 (eight lanes).
    Avx2,
}

impl Tier {
    /// Every tier, baseline first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 2] = [Tier::Portable, Tier::Avx2];

    /// Whether this host can execute the tier.
    pub(crate) fn available(self) -> bool {
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 => false,
        }
    }

    /// The widest tier this host supports, probed once.
    fn detect() -> Tier {
        static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| if Tier::Avx2.available() { Tier::Avx2 } else { Tier::Portable })
    }
}

impl QuantParams {
    /// [`QuantParams::code`] of every element of `xs`, written to `codes`:
    /// `codes[i] == self.code(xs[i])` bit for bit on every input, computed
    /// a vector of lanes at a time (see the `slice` module).
    ///
    /// # Panics
    /// If the slices differ in length.
    pub fn code_into(&self, xs: &[f32], codes: &mut [i32]) {
        code_into_with(Tier::detect(), *self, xs, codes);
    }
}

/// [`QuantParams::code_into`] with the tier forced (the seam the
/// equivalence tests race the tiers through).
///
/// # Panics
/// If the slices differ in length or the host cannot execute `tier`.
pub(crate) fn code_into_with(tier: Tier, p: QuantParams, xs: &[f32], codes: &mut [i32]) {
    assert_eq!(xs.len(), codes.len(), "one code per input");
    assert!(tier.available(), "quantizer tier {tier:?} is not supported on this host");
    // The body's cast is in range only while the clamp bound `2^(bits-1)`
    // is an exact float; zero scales and other widths go through `code`.
    if p.scale == 0.0 || !(1..=MAX_BITS).contains(&p.bits) {
        for (c, &x) in codes.iter_mut().zip(xs) {
            *c = p.code(x);
        }
        return;
    }
    match tier {
        Tier::Portable => body(p.scale, p.qmax(), xs, codes),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX2.
        Tier::Avx2 => unsafe { body_avx2(p.scale, p.qmax(), xs, codes) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 => unreachable!("unavailable tiers were rejected above"),
    }
}

/// The AVX2 build of [`body`].
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn body_avx2(scale: f32, qmax: i32, xs: &[f32], codes: &mut [i32]) {
    body(scale, qmax, xs, codes);
}

/// Widest code the body takes: its clamp bound `2^(bits-1)` is then at
/// most `2^23`, where every integer is an exact f32.
const MAX_BITS: u8 = 24;

/// The branch-free quantizer (see the module doc for why it equals
/// `code`). Each step is a select or a lane-wise operation, so the loop
/// vectorizes at the width of the build it is inlined into. `qmax` must
/// be `2^(bits-1) - 1` for a `bits` in `1..=MAX_BITS`.
#[inline(always)]
fn body(scale: f32, qmax: i32, xs: &[f32], codes: &mut [i32]) {
    // `qmax + 1 = 2^(bits-1) ≤ 2^23`: a power of two, exact in f32.
    #[allow(clippy::cast_precision_loss)]
    let lim = (qmax + 1) as f32;
    for (c, &x) in codes.iter_mut().zip(xs) {
        let y = x / scale;
        let y = if y.is_nan() { 0.0 } else { y };
        let y = if y < -lim { -lim } else { y };
        let y = if y > lim { lim } else { y };
        // SAFETY: `y` is not NaN and `|y| ≤ lim ≤ 2^23`, so it truncates
        // to an i32. The unchecked cast is one `cvttps2dq`; `as` would
        // add a per-lane saturation check the vectorizer splits into
        // scalar branches. `y - t` is then exact (see `code`).
        let t: i32 = unsafe { y.to_int_unchecked() };
        #[allow(clippy::cast_precision_loss)]
        let rem = y - t as f32;
        *c = (t + i32::from(rem >= 0.5) - i32::from(rem <= -0.5)).clamp(-qmax, qmax);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every f32 within two ulps of `v`, `v` included.
    fn ulps_around(v: f32) -> impl Iterator<Item = f32> {
        let mut out = vec![v];
        let (mut up, mut down) = (v, v);
        for _ in 0..2 {
            up = up.next_up();
            down = down.next_down();
            out.extend([up, down]);
        }
        out.into_iter()
    }

    /// Inputs at every code's rounding thresholds (±2 ulps around
    /// `(c ± 0.5)·scale` and `c·scale`), past the clamp, and the specials.
    fn sweep(p: QuantParams) -> Vec<f32> {
        let qmax = p.qmax();
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MAX,
            f32::MIN,
        ];
        for c in -(qmax + 3)..=(qmax + 3) {
            #[allow(clippy::cast_precision_loss)]
            let c = c as f32;
            for v in [c * p.scale, (c + 0.5) * p.scale, (c - 0.5) * p.scale] {
                xs.extend(ulps_around(v));
            }
        }
        xs
    }

    /// Scales from a subnormal up, so thresholds land on subnormal,
    /// normal and huge inputs.
    const SCALES: [f32; 5] = [1.0e-40, 3.0e-7, 0.021_3, 1.0, 7.5e30];

    #[test]
    fn every_tier_equals_the_scalar_code() {
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            for bits in 2..=16u8 {
                for scale in SCALES.into_iter().chain([0.0, -0.5, f32::NAN, f32::INFINITY]) {
                    let p = QuantParams { scale, bits };
                    // Degenerate scales sweep the thresholds of scale 1.
                    let sweep_scale = if scale.is_finite() && scale != 0.0 { scale } else { 1.0 };
                    let xs = sweep(QuantParams { scale: sweep_scale, bits });
                    let mut got = vec![i32::MIN; xs.len()];
                    code_into_with(tier, p, &xs, &mut got);
                    for (&x, &g) in xs.iter().zip(&got) {
                        assert_eq!(g, p.code(x), "{tier:?} bits {bits} scale {scale:e} x {x:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn bit_pattern_sweep_matches_the_scalar_code() {
        // A stride through all 2^32 bit patterns, every float class.
        let xs: Vec<f32> = (0..=u32::MAX).step_by(40_001).map(f32::from_bits).collect();
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            for p in [QuantParams { scale: 0.013, bits: 8 }, QuantParams { scale: 2.5e-3, bits: 4 }] {
                let mut got = vec![0; xs.len()];
                code_into_with(tier, p, &xs, &mut got);
                let bad = xs.iter().zip(&got).filter(|(&x, &g)| g != p.code(x)).count();
                assert_eq!(bad, 0, "{tier:?} {p:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one code per input")]
    fn rejects_mismatched_lengths() {
        QuantParams { scale: 1.0, bits: 8 }.code_into(&[1.0, 2.0], &mut [0]);
    }
}
