//! The narrow code-plane kernel: `i16` codes, `i32` sums.
//!
//! After TR every value keeps a few small terms, which is why the tMAC
//! runs a narrow datapath (§V). [`crate::matmul`]'s one integer matmul
//! does the same whenever one call's operands allow it:
//! [`NarrowCodes::of`] rebuilds both operands in one pass each into
//! `i16` rows zero-padded to a multiple of [`PAD`] codes
//! ([`NarrowCodes::from_codes`] narrows an operand that is already
//! codes, the integer `Linear`'s activations, without term planes), and
//! admits the call only when every code fits in ±32767 and
//! `max|w| · max|x| · K_pad < 2³¹`. The kernel then runs one data row
//! against four weight rows at a time, summing each dot product in
//! `i32`; the vectorizer lowers the four sums to `pmaddwd` lanes.
//!
//! **Why it is exact.** Every value a lane, a pair sum or the final
//! reduction holds is a partial sum of the `K` products, so its magnitude
//! is at most `Σ|w·x| ≤ max|w| · max|x| · K_pad < 2³¹`: no `i32` add can
//! wrap, and the widened sums equal the `i64` path's bit for bit in
//! release and debug builds alike. A call outside the bound runs the
//! `i64` loop instead (`core.matmul.codeplane.wide`).
//!
//! One safe body is compiled per [`Tier`] behind `#[target_feature]`
//! wrappers and picked at run time, as `tr_tensor::matmul::Tier` does.

use crate::packed::PackedTermMatrix;
use tr_obs::as_u64;

/// Rows are zero-padded to a multiple of this many codes (one 512-bit
/// register of `i16`). The zeros add nothing to a sum; the admission
/// bound counts them in `K_pad`.
const PAD: usize = 32;

/// Weight rows one data row meets per pass of the kernel.
const ROWS: usize = 4;

/// Both operands of one matmul call as zero-padded `i16` rows.
#[derive(Debug)]
pub(crate) struct NarrowCodes {
    /// Row stride of both operands: `K` rounded up to [`PAD`].
    pub(crate) stride: usize,
    pub(crate) w: Vec<i16>,
    pub(crate) x: Vec<i16>,
}

impl NarrowCodes {
    /// Rebuild `w` and `x` as narrow rows, or `None` when a code leaves
    /// ±32767 or the pair could wrap an `i32` lane (see
    /// [`fits_i32_lanes`]); the caller then runs the `i64` loop.
    pub(crate) fn of(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Option<NarrowCodes> {
        let stride = w.len().next_multiple_of(PAD);
        let w = w.reconstruct_codes_i16(stride)?;
        let x = x.reconstruct_codes_i16(stride)?;
        NarrowCodes::admit(stride, w, x)
    }

    /// [`NarrowCodes::of`] with the `w` side given as row-major codes,
    /// `rows` rows of `x.len()` each: the codes are narrowed straight
    /// into the padded rows, with no term planes in between. The same
    /// refusals and the same bound.
    ///
    /// # Panics
    /// If `codes.len() != rows * x.len()`.
    pub(crate) fn from_codes(codes: &[i32], rows: usize, x: &PackedTermMatrix) -> Option<NarrowCodes> {
        let stride = x.len().next_multiple_of(PAD);
        let w = narrow_rows(codes, rows, x.len(), stride)?;
        let x = x.reconstruct_codes_i16(stride)?;
        NarrowCodes::admit(stride, w, x)
    }

    /// Both operands' rows with their largest `|code|`, admitted when
    /// [`fits_i32_lanes`] holds.
    fn admit(stride: usize, (w, max_w): (Vec<i16>, u16), (x, max_x): (Vec<i16>, u16)) -> Option<NarrowCodes> {
        fits_i32_lanes(max_w, max_x, stride).then_some(NarrowCodes { stride, w, x })
    }
}

/// Row-major codes `(rows, len)` as `i16` rows of `stride` codes, the
/// tail past `len` zero-padded, with the largest `|code|`; `None` when a
/// code leaves ±32767, as in `PackedTermMatrix::reconstruct_codes_i16`.
///
/// # Panics
/// If `codes.len() != rows * len` or `stride < len`.
fn narrow_rows(codes: &[i32], rows: usize, len: usize, stride: usize) -> Option<(Vec<i16>, u16)> {
    assert_eq!(codes.len(), rows * len, "codes do not fill {rows} rows of {len}");
    assert!(stride >= len, "a {stride}-code row cannot hold {len} codes");
    let max_abs = codes.iter().fold(0u32, |m, &c| m.max(c.unsigned_abs()));
    let max_abs = u16::try_from(max_abs).ok().filter(|&m| m <= i16::MAX.unsigned_abs())?;
    let mut out = vec![0i16; rows * stride];
    if len > 0 {
        for (row, src) in out.chunks_exact_mut(stride).zip(codes.chunks_exact(len)) {
            for (o, &c) in row.iter_mut().zip(src) {
                // Lossless: every `|c|` is at most `max_abs ≤ 32767`.
                #[allow(clippy::cast_possible_truncation)]
                let c = c as i16;
                *o = c;
            }
        }
    }
    Some((out, max_abs))
}

/// Whether no partial sum of a `k_pad`-long dot product of codes bounded
/// by `max_w` and `max_x` can reach `2³¹`.
fn fits_i32_lanes(max_w: u16, max_x: u16, k_pad: usize) -> bool {
    u128::from(max_w) * u128::from(max_x) * u128::from(as_u64(k_pad)) < 1u128 << 31
}

/// The narrow kernel's instruction-set builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The target's baseline instruction set.
    Baseline,
    /// 256-bit lanes.
    Avx2,
    /// 512-bit lanes with the AVX512BW word instructions.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    #[cfg(test)]
    pub(crate) const ALL: [Tier; 3] = [Tier::Baseline, Tier::Avx2, Tier::Avx512];

    /// The widest tier this host supports, probed once.
    pub(crate) fn detect() -> Tier {
        static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            [Tier::Avx512, Tier::Avx2].into_iter().find(|t| t.available()).unwrap_or(Tier::Baseline)
        })
    }

    /// Whether this host can execute the tier's build.
    pub(crate) fn available(self) -> bool {
        match self {
            Tier::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }

    /// Label for test messages.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Tier::Baseline => "baseline",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }
}

/// Output rows `out` (row-major, `x.len() / stride` cells each) of
/// `w @ xᵀ` over narrow rows of `stride` codes, on `tier`. `w` holds at
/// least one row per output row; the values must satisfy the
/// [`NarrowCodes::of`] bound.
///
/// # Panics
/// If `tier` is unavailable on this host, `stride` is not a positive
/// multiple of [`PAD`], or the slices disagree with the shapes.
pub(crate) fn rows_with(tier: Tier, w: &[i16], x: &[i16], stride: usize, out: &mut [i64]) {
    assert!(tier.available(), "narrow kernel tier {tier:?} is not supported on this host");
    assert!(stride > 0 && stride.is_multiple_of(PAD), "row stride {stride} is not a multiple of {PAD}");
    let n = x.len() / stride;
    assert!(x.len() == n * stride && n > 0, "x is not a whole number of {stride}-code rows");
    assert!(out.len().is_multiple_of(n) && w.len() >= out.len() / n * stride, "w has a row per output row");
    match tier {
        Tier::Baseline => rows_body(w, x, stride, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has AVX2.
        Tier::Avx2 => unsafe { rows_avx2(w, x, stride, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `tier.available()` asserted above that this host has
        // AVX512F and AVX512BW.
        Tier::Avx512 => unsafe { rows_avx512(w, x, stride, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Tier::Avx2 | Tier::Avx512 => unreachable!("unavailable tiers were rejected above"),
    }
}

/// [`rows_body`] compiled for AVX2.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_avx2(w: &[i16], x: &[i16], stride: usize, out: &mut [i64]) {
    rows_body(w, x, stride, out);
}

/// [`rows_body`] compiled for AVX-512 with the word instructions.
///
/// # Safety
/// The host must support AVX512F and AVX512BW.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn rows_avx512(w: &[i16], x: &[i16], stride: usize, out: &mut [i64]) {
    rows_body(w, x, stride, out);
}

/// The kernel every tier compiles: per data row, [`ROWS`] weight rows at
/// a time, then the remaining weight rows one by one.
#[inline(always)]
fn rows_body(w: &[i16], x: &[i16], stride: usize, out: &mut [i64]) {
    let n = x.len() / stride;
    for (a, orow) in w.chunks_exact(stride).zip(out.chunks_exact_mut(n)) {
        let mut blocks = x.chunks_exact(ROWS * stride);
        let mut cells = orow.chunks_exact_mut(ROWS);
        for (b, o) in blocks.by_ref().zip(cells.by_ref()) {
            let (b01, b23) = b.split_at(2 * stride);
            let (b0, b1) = b01.split_at(stride);
            let (b2, b3) = b23.split_at(stride);
            for (o, s) in o.iter_mut().zip(dot(a, [b0, b1, b2, b3])) {
                *o = i64::from(s);
            }
        }
        for (b, o) in blocks.remainder().chunks_exact(stride).zip(cells.into_remainder()) {
            let [s] = dot(a, [b]);
            *o = i64::from(s);
        }
    }
}

/// `a · b[r]` for each of `R` rows, summed in `i32` as the lane-wise
/// reduction the vectorizer lowers to `pmaddwd`. Plain `+`/`*`: the
/// admission bound rules out a wrap, and debug builds would panic on one.
#[inline(always)]
fn dot<const R: usize>(a: &[i16], b: [&[i16]; R]) -> [i32; R] {
    let b = b.map(|row| &row[..a.len()]);
    let mut acc = [0i32; R];
    for (i, &v) in a.iter().enumerate() {
        for (s, row) in acc.iter_mut().zip(b) {
            *s += i32::from(v) * i32::from(row[i]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrConfig;
    use crate::matmul::tests::pair_walk_matmul;
    use crate::matmul::{code_row, try_packed_term_matmul_i64};
    use tr_encoding::Encoding;
    use tr_tensor::Rng;

    /// `rows × len` codes drawn from `-max..=max`, every `empty`-th row
    /// left without terms.
    fn codes(rows: usize, len: usize, max: i32, empty: usize, seed: u64) -> Vec<i32> {
        let mut rng = Rng::seed_from_u64(seed);
        let span = usize::try_from(2 * max + 1).expect("positive span");
        (0..rows * len)
            .map(|i| {
                let v = i32::try_from(rng.below(span)).expect("span fits i32") - max;
                if (i / len) % empty == empty - 1 { 0 } else { v }
            })
            .collect()
    }

    /// The `i64` loop the narrow kernel replaces.
    fn wide(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
        let (wc, xc) = (w.reconstruct_codes(), x.reconstruct_codes());
        let mut out = vec![0i64; w.rows() * x.rows()];
        if x.rows() > 0 {
            for (i, orow) in out.chunks_mut(x.rows()).enumerate() {
                code_row(&wc, &xc, i, orow, w.len());
            }
        }
        out
    }

    fn matmul(w: &PackedTermMatrix, x: &PackedTermMatrix) -> Vec<i64> {
        try_packed_term_matmul_i64(w, x).expect("reduction dims agree")
    }

    /// Runs `f` with the recorder on and returns how many matmul calls
    /// took the narrow and the wide kernel meanwhile. Other tests
    /// may add calls of their own, so callers assert lower bounds only.
    fn kernel_calls(f: impl FnOnce()) -> (u64, u64) {
        static RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let count = || {
            let snap = tr_obs::recorder().snapshot();
            let get = |kernel: &str| snap.counter(&format!("core.matmul.codeplane.{kernel}"));
            (get("narrow"), get("wide"))
        };
        let was = tr_obs::enabled();
        tr_obs::set_enabled(true);
        let before = count();
        f();
        let after = count();
        tr_obs::set_enabled(was);
        (after.0 - before.0, after.1 - before.1)
    }

    /// Every available tier, the matmul, the `i64` loop and the pair
    /// walk agree on `w @ xᵀ`; returns whether the pair was admitted to
    /// the narrow kernel.
    fn race(w: &PackedTermMatrix, x: &PackedTermMatrix, label: &str) -> bool {
        let want = pair_walk_matmul(w, x);
        assert_eq!(wide(w, x), want, "{label}: i64 loop");
        assert_eq!(matmul(w, x), want, "{label}: matmul");
        let Some(nc) = NarrowCodes::of(w, x) else { return false };
        if w.rows() * x.rows() > 0 {
            for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                let mut got = vec![i64::MIN; want.len()];
                rows_with(tier, &nc.w, &nc.x, nc.stride, &mut got);
                assert_eq!(got, want, "{label}: tier {}", tier.name());
            }
        }
        true
    }

    #[test]
    fn every_tier_matches_the_i64_loop_and_the_pair_walk() {
        // K off the 16- and 32-code steps, n off the 4-row block, a
        // single data row, rows without terms and empty operands.
        let shapes = [
            (1, 1, 1),
            (1, 7, 5),
            (3, 15, 4),
            (2, 33, 9),
            (5, 50, 3),
            (1, 96, 8),
            (6, 100, 13),
            (0, 9, 3),
            (3, 9, 0),
        ];
        for (seed, (m, k, n)) in (0u64..).zip(shapes) {
            let cfg = TrConfig::new(8, 12);
            for enc in Encoding::ALL {
                let wc = codes(m, k, 127, 3, 2 * seed);
                let xc = codes(n, k, 127, 4, 2 * seed + 1);
                let w = PackedTermMatrix::from_codes(&wc, m, k, enc).cap_terms(3);
                let x = PackedTermMatrix::from_codes(&xc, n, k, enc).reveal(&cfg);
                assert!(race(&w, &x, &format!("{m}x{k}x{n} {enc}")), "8-bit codes run narrow");
            }
        }
    }

    #[test]
    fn codes_at_the_i16_limit_run_narrow_when_the_bound_holds() {
        // 32767 · 2047 · 32 = 2_146_369_568 < 2³¹: one 32-code step of
        // every extreme product sums to just under i32::MAX.
        for (k, sign) in [(32, 1), (32, -1), (20, 1)] {
            let w = PackedTermMatrix::from_codes(&vec![sign * 32767; 2 * k], 2, k, Encoding::Hese);
            let x = PackedTermMatrix::from_codes(&vec![2047; 5 * k], 5, k, Encoding::Binary);
            let (narrow, _) = kernel_calls(|| assert!(race(&w, &x, &format!("±32767 k{k}"))));
            assert!(narrow >= 1, "the matmul must run narrow");
        }
        let mixed = codes(3, 31, 32767, 7, 9);
        let w = PackedTermMatrix::from_codes(&mixed, 3, 31, Encoding::Hese);
        let x = PackedTermMatrix::from_codes(&codes(6, 31, 2047, 5, 10), 6, 31, Encoding::Hese);
        assert!(race(&w, &x, "mixed ±32767"));
    }

    #[test]
    fn codes_past_i16_fall_back_to_the_i64_loop() {
        // A term of exponent 15 or more makes a code no i16 holds (and
        // -32768 is refused too: its square would wrap a pair sum).
        for big in [32768, -32768, 1 << 20, (1 << 15) + 1] {
            let mut wc = codes(2, 40, 127, 5, 11);
            wc[41] = big;
            let w = PackedTermMatrix::from_codes(&wc, 2, 40, Encoding::Hese);
            let x = PackedTermMatrix::from_codes(&codes(3, 40, 127, 5, 12), 3, 40, Encoding::Hese);
            let (_, wide) = kernel_calls(|| assert!(!race(&w, &x, &format!("code {big}"))));
            assert!(wide >= 1, "code {big}: the matmul must run wide");
            // The same code on the streamed side.
            assert!(!race(&x, &w, &format!("code {big}, x side")));
        }
    }

    #[test]
    fn a_pair_at_exactly_two_to_the_31_falls_back() {
        // 2¹³ · 2¹³ · 32 = 2³¹: the all-positive dot is exactly 2³¹,
        // one past i32::MAX, so admitting it would wrap.
        let w = PackedTermMatrix::from_codes(&[8192; 32], 1, 32, Encoding::Binary);
        let x = PackedTermMatrix::from_codes(&[8192; 3 * 32], 3, 32, Encoding::Binary);
        assert!(!fits_i32_lanes(8192, 8192, 32));
        assert!(fits_i32_lanes(8192, 8191, 32));
        let (_, wide) = kernel_calls(|| assert!(!race(&w, &x, "2^31")));
        assert!(wide >= 1, "the matmul must run wide");
        assert_eq!(matmul(&w, &x), vec![1i64 << 31; 3]);
        // K = 31 pads to the same 32 codes, so the bound still refuses.
        let w31 = PackedTermMatrix::from_codes(&[8192; 31], 1, 31, Encoding::Binary);
        let x31 = PackedTermMatrix::from_codes(&[8192; 31], 1, 31, Encoding::Binary);
        assert!(!race(&w31, &x31, "2^31 at k 31"));
    }
}
