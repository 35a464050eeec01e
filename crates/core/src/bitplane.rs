//! Bit-plane decomposition and popcount matmul (PrecisionBatching-style).
//!
//! [`BitPlaneMatrix`] is the second operand layout of the TR hot path,
//! built from the flat CSR [`PackedTermMatrix`]: every row is re-expressed
//! as a small set of **sign-split exponent planes**. Plane `(e, neg)` of
//! a row is a `u64` bitset over the row's elements with bit `c` set iff
//! element `c` carries a term `±2^e` with that sign. HESE (and every encoding this
//! workspace uses) emits at most one term per exponent per value, so the
//! planes are well-defined, and a row reconstructs exactly as
//!
//! ```text
//! row[c] = Σ_planes (neg ? -1 : +1) · 2^e · bit(plane, c)
//! ```
//!
//! The payoff is the kernel: a dot product of two rows becomes
//!
//! ```text
//! Σ_p Σ_q ±2^(e_p + e_q) · popcount(words_p ∧ words_q)
//! ```
//!
//! — one AND + popcount per 64 elements per live plane pair, with the
//! pair's sign and shift hoisted out of the word loop entirely. Integer
//! addition is associative and commutative (also modulo 2⁶⁴), so the
//! result is **bit-identical** to
//! [`packed_term_matmul_i64`](crate::packed_term_matmul_i64) and to the pair-walk kernels for any
//! operand, regardless of summation order.
//!
//! Why this gets *faster as quantization gets more aggressive*: the cost
//! is proportional to the product of live plane counts, and the receding
//! water of Term Revealing drains low-exponent planes as `k` (and the
//! per-value cap `s`) shrink. Dense code-plane matmul cost is flat in
//! `k`. That crossover is the dispatch heuristic in
//! [`matmul_plan`](crate::matmul::matmul_plan), and the speedup-vs-α
//! table in the bench artifact is the paper's thesis restated on
//! commodity CPUs (see PAPERS.md, *Quantized Neural Network Inference
//! with Precision Batching*).

use crate::error::TrError;
use crate::packed::{off_usize, PackedTermMatrix};
use crate::seal::{fnv1a_bytes, fnv1a_word, FNV_OFFSET};
use crate::tune::{self, Isa};
use rayon::prelude::*;
use tr_encoding::Encoding;
use tr_obs::{as_u64, Counter};

/// Bit-plane decompositions built from packed planes.
static BITPLANE_BUILDS: Counter = Counter::new("core.bitplane.builds");
/// Sign-split planes materialized across all builds.
static BITPLANE_PLANES: Counter = Counter::new("core.bitplane.planes");
/// Popcount matmul invocations.
static BITPLANE_MATMULS: Counter = Counter::new("core.bitplane.matmuls");
/// Output cells computed by the popcount kernel.
static BITPLANE_CELLS: Counter = Counter::new("core.bitplane.cells");
/// Live plane pairs processed (Σ over outputs of `p_w · p_x`).
static BITPLANE_PAIRS: Counter = Counter::new("core.bitplane.pairs");

/// Output-row tile of the parallel popcount kernel (mirrors the packed
/// kernel's tile: enough rows per task to amortize the shim's scoped
/// thread spawn). The fan-out *threshold* itself is no longer a constant:
/// it comes from the active [`TuneTable`](crate::tune::TuneTable)
/// (`par_min_pair_words`), measured per host by `tr_core::tune`.
const ROW_TILE: usize = 4;

/// A term matrix as per-row sign-split exponent bit-planes.
///
/// Rows and the reduction length mirror the [`PackedTermMatrix`] this was
/// built from; the planes are a lossless re-layout of the same terms, so
/// [`BitPlaneMatrix::reconstruct_codes`] agrees with
/// [`PackedTermMatrix::reconstruct_codes`] exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlaneMatrix {
    rows: usize,
    len: usize,
    /// `ceil(len / 64)` rounded up to a multiple of 8 — every plane holds
    /// this many words. The zero padding is AND-neutral, and the round-up
    /// lets the kernel run whole 512-bit popcount lanes with no scalar
    /// tail per plane pair.
    words_per_row: usize,
    encoding: Encoding,
    /// `rows + 1` entries; row `r` owns planes
    /// `plane_exps[row_offsets[r] .. row_offsets[r+1]]`.
    row_offsets: Vec<u32>,
    /// Exponent of each plane.
    plane_exps: Vec<u8>,
    /// One bit per plane, LSB-first within each word; set = negative.
    plane_negs: Vec<u64>,
    /// Plane `p` occupies `words[p * words_per_row ..][.. words_per_row]`.
    words: Vec<u64>,
    /// FNV-1a over shape + planes, sealed at construction (same
    /// silent-corruption contract as the packed planes).
    checksum: u64,
}

impl BitPlaneMatrix {
    /// Decompose packed term planes into bit-planes in **one flat walk**
    /// of the offsets/exps/signs arrays — the same walk as
    /// [`PackedTermMatrix::reconstruct_codes`], but fanning each term out
    /// to its `(exp, sign)` plane instead of shift-accumulating it.
    ///
    /// Per row, a 512-entry slot map (`exp × sign → plane`) is cleared
    /// incrementally (only the keys the row touched), so the build is
    /// `O(total terms + planes · words_per_row)` with no per-row
    /// allocation.
    #[must_use]
    pub fn from_packed(m: &PackedTermMatrix) -> BitPlaneMatrix {
        let (rows, len) = (m.rows(), m.len());
        let words_per_row = len.div_ceil(64).next_multiple_of(8);
        let mut out = BitPlaneMatrix {
            rows,
            len,
            words_per_row,
            encoding: m.encoding(),
            row_offsets: Vec::with_capacity(rows + 1),
            plane_exps: Vec::new(),
            plane_negs: Vec::new(),
            words: Vec::new(),
            checksum: 0,
        };
        out.row_offsets.push(0);
        // Slot map: key = exp·2 + sign, value = plane index + 1 (0 = none).
        let mut slots = [0u32; 512];
        let mut touched: Vec<u16> = Vec::with_capacity(32);
        let offsets = m.offsets();
        let exps = m.exps();
        let mut t = 0usize; // flat term cursor — never rewinds
        for r in 0..rows {
            for c in 0..len {
                let end = off_usize(offsets[r * len + c + 1]);
                while t < end {
                    let e = exps[t];
                    let neg = m.sign(t);
                    let key = (usize::from(e) << 1) | usize::from(neg);
                    let slot = slots[key];
                    let plane = if slot == 0 {
                        let plane = out.push_plane(e, neg);
                        slots[key] = u32::try_from(plane + 1).expect("plane count fits u32");
                        touched.push(u16::try_from(key).expect("slot key fits u16"));
                        plane
                    } else {
                        off_usize(slot) - 1
                    };
                    out.words[plane * words_per_row + c / 64] |= 1u64 << (c % 64);
                    t += 1;
                }
            }
            for &k in &touched {
                slots[usize::from(k)] = 0;
            }
            touched.clear();
            out.row_offsets
                .push(u32::try_from(out.plane_exps.len()).expect("plane count fits u32"));
        }
        BITPLANE_BUILDS.inc();
        BITPLANE_PLANES.add(as_u64(out.plane_exps.len()));
        out.seal()
    }

    /// Append an all-zero plane `(exp, neg)` and return its index.
    #[inline]
    fn push_plane(&mut self, exp: u8, neg: bool) -> usize {
        let i = self.plane_exps.len();
        if i.is_multiple_of(64) {
            self.plane_negs.push(0);
        }
        if neg {
            self.plane_negs[i / 64] |= 1u64 << (i % 64);
        }
        self.plane_exps.push(exp);
        self.words.resize(self.words.len() + self.words_per_row, 0);
        i
    }

    fn seal(mut self) -> BitPlaneMatrix {
        self.checksum = self.content_checksum();
        self
    }

    /// FNV-1a over shape, encoding, and all planes — a pure function of
    /// content, so equal matrices hash equal (the property the prepared-
    /// weights seal in `tr-nn` folds in).
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_word(h, self.rows as u64);
        h = fnv1a_word(h, self.len as u64);
        h = fnv1a_bytes(h, self.encoding.name().as_bytes());
        for &o in &self.row_offsets {
            h = fnv1a_word(h, u64::from(o));
        }
        h = fnv1a_bytes(h, &self.plane_exps);
        for &w in &self.plane_negs {
            h = fnv1a_word(h, w);
        }
        for &w in &self.words {
            h = fnv1a_word(h, w);
        }
        h
    }

    /// The checksum sealed at construction.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Verify the planes against their seal.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when the planes no longer match the seal.
    pub fn verify_integrity(&self) -> Result<(), TrError> {
        let actual = self.content_checksum();
        if actual == self.checksum {
            Ok(())
        } else {
            Err(TrError::Integrity(format!(
                "bit-planes checksum {actual:#018x} != sealed {:#018x} \
                 ({} rows x {} elems, {} planes)",
                self.checksum,
                self.rows,
                self.len,
                self.plane_exps.len()
            )))
        }
    }

    /// Number of dot-product vectors.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Length of each vector (the reduction dimension).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the matrix holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows * self.len == 0
    }

    /// The encoding the terms were produced by.
    #[must_use]
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Words per plane (`ceil(len / 64)`, padded up to a multiple of 8).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Total sign-split planes across all rows.
    #[must_use]
    pub fn total_planes(&self) -> usize {
        self.plane_exps.len()
    }

    /// Live planes of row `r`.
    #[must_use]
    pub fn row_planes(&self, r: usize) -> usize {
        let (p0, p1) = self.row_plane_range(r);
        p1 - p0
    }

    /// Largest per-row plane count.
    #[must_use]
    pub fn max_row_planes(&self) -> usize {
        self.row_offsets.windows(2).map(|w| off_usize(w[1]) - off_usize(w[0])).max().unwrap_or(0)
    }

    /// Mean planes per row — the quantity the dispatch heuristic trades
    /// against the dense kernel's flat cost.
    #[must_use]
    pub fn mean_row_planes(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.total_planes() as f64 / self.rows as f64
        }
    }

    #[inline]
    fn row_plane_range(&self, r: usize) -> (usize, usize) {
        (off_usize(self.row_offsets[r]), off_usize(self.row_offsets[r + 1]))
    }

    /// Sign of plane `p` (true = negative).
    #[inline]
    fn plane_neg(&self, p: usize) -> bool {
        (self.plane_negs[p / 64] >> (p % 64)) & 1 == 1
    }

    /// Reconstruct the integer codes the planes represent (row-major) —
    /// the parity witness the equivalence tests compare against
    /// [`PackedTermMatrix::reconstruct_codes`].
    #[must_use]
    pub fn reconstruct_codes(&self) -> Vec<i64> {
        let mut out = vec![0i64; self.rows * self.len];
        for r in 0..self.rows {
            let (p0, p1) = self.row_plane_range(r);
            let orow = &mut out[r * self.len..(r + 1) * self.len];
            for p in p0..p1 {
                let mag = crate::matmul::shl_exp(1, self.plane_exps[p]);
                let v = if self.plane_neg(p) { mag.wrapping_neg() } else { mag };
                let pw = &self.words[p * self.words_per_row..(p + 1) * self.words_per_row];
                for (wi, &word) in pw.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let c = wi * 64 + usize::try_from(bits.trailing_zeros())
                            .expect("bit index fits usize");
                        orow[c] = crate::matmul::acc_add(orow[c], v);
                        bits &= bits - 1;
                    }
                }
            }
        }
        out
    }
}

/// Dot product of bit-plane row `wr` of `w` with row `xr` of `x`: the
/// popcount counterpart of [`term_dot_packed`](crate::term_dot_packed),
/// bit-identical to it for any operands built from the same packed
/// planes.
#[must_use]
pub fn bitplane_dot(w: &BitPlaneMatrix, wr: usize, x: &BitPlaneMatrix, xr: usize) -> i64 {
    debug_assert_eq!(w.len(), x.len());
    let (wp0, wp1) = w.row_plane_range(wr);
    let (xp0, xp1) = x.row_plane_range(xr);
    dot_plane_ranges(w, wp0, wp1, x, xp0, xp1)
}

/// The kernel inner: Σ over live plane pairs of
/// `±2^(e_w + e_x) · popcount(words_w ∧ words_x)`. Sign and shift are
/// per-pair constants; the word loop is pure AND + popcount.
///
/// `inline(always)` so the feature-gated row wrappers below absorb this
/// body and LLVM lowers `count_ones` to the real `popcnt` / `vpopcntq`
/// instructions instead of the ~13-op portable bit-hack the baseline
/// x86-64 target is restricted to.
#[inline(always)]
fn dot_plane_ranges(
    w: &BitPlaneMatrix,
    wp0: usize,
    wp1: usize,
    x: &BitPlaneMatrix,
    xp0: usize,
    xp1: usize,
) -> i64 {
    let wpr = w.words_per_row;
    let mut acc = 0i64;
    for p in wp0..wp1 {
        let ww = &w.words[p * wpr..(p + 1) * wpr];
        let we = w.plane_exps[p];
        let wneg = w.plane_neg(p);
        for q in xp0..xp1 {
            let xw = &x.words[q * wpr..(q + 1) * wpr];
            let mut cnt = 0i64;
            for (&a, &b) in ww.iter().zip(xw) {
                cnt += i64::from((a & b).count_ones());
            }
            if cnt == 0 {
                continue;
            }
            // 2^(e_w + e_x), shifted in two steps so the release-mode
            // masking matches the packed pair walk bit-for-bit even on
            // (corrupt) out-of-range exponents; `shl_exp` asserts the
            // legal range in debug builds.
            let mag = crate::matmul::shl_exp(crate::matmul::shl_exp(cnt, we), x.plane_exps[q]);
            let signed = if wneg != x.plane_neg(q) { mag.wrapping_neg() } else { mag };
            acc = crate::matmul::acc_add(acc, signed);
        }
    }
    acc
}

/// `W (M,K) @ X (K,N)` over bit-plane matrices — the popcount twin of
/// [`packed_term_matmul_i64`](crate::packed_term_matmul_i64): bit-identical
/// output for operands decomposed from the same packed planes, cost
/// proportional to live plane pairs instead of dense MACs.
///
/// # Panics
/// If the reduction dimensions differ. Use [`try_bitplane_matmul_i64`]
/// for a `Result`.
#[must_use]
pub fn bitplane_matmul_i64(w: &BitPlaneMatrix, x: &BitPlaneMatrix) -> Vec<i64> {
    match try_bitplane_matmul_i64(w, x) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`bitplane_matmul_i64`].
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ.
pub fn try_bitplane_matmul_i64(
    w: &BitPlaneMatrix,
    x: &BitPlaneMatrix,
) -> Result<Vec<i64>, TrError> {
    check_reduction(w, x)?;
    let _span = tr_obs::span("core.bitplane_matmul");
    let pairs = record_bitplane(w, x);
    let pair_words = pairs.saturating_mul(as_u64(w.words_per_row));
    let parallel = pair_words > tune::active().par_min_pair_words;
    Ok(bitplane_matmul_flat(w, x, parallel))
}

/// Flat (unblocked) popcount matmul with the fan-out decision made by the
/// caller — the harness the autotuner races serial against parallel on.
/// Reduction dims must already agree.
#[must_use]
pub(crate) fn bitplane_matmul_flat(
    w: &BitPlaneMatrix,
    x: &BitPlaneMatrix,
    parallel: bool,
) -> Vec<i64> {
    debug_assert_eq!(w.len(), x.len());
    let (m, n) = (w.rows(), x.rows());
    let mut out = vec![0i64; m * n];
    if m * n == 0 || w.words_per_row == 0 {
        return out;
    }
    let row_fn = row_fn_for(Isa::detect());
    if !parallel || m < 2 * ROW_TILE {
        for (i, orow) in out.chunks_mut(n).enumerate() {
            // SAFETY: `row_fn_for` returns a feature-gated variant only
            // when the CPU reported that feature at run time.
            unsafe { row_fn(w, x, i, orow) };
        }
    } else {
        out.par_chunks_mut(ROW_TILE * n).enumerate().for_each(|(t, block)| {
            for (r, orow) in block.chunks_mut(n).enumerate() {
                // SAFETY: as above — the selected variant's ISA features
                // were verified present before it was chosen.
                unsafe { row_fn(w, x, t * ROW_TILE + r, orow) };
            }
        });
    }
    out
}

/// [`try_bitplane_matmul_i64`] with the row-kernel ISA forced — the
/// harness benches and parity tests use to pit the per-ISA kernels
/// against each other on identical operands. Runs serially so the only
/// variable is the kernel.
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ;
/// [`TrError::InvalidConfig`] when this host cannot execute `isa`.
pub fn try_bitplane_matmul_i64_with(
    w: &BitPlaneMatrix,
    x: &BitPlaneMatrix,
    isa: Isa,
) -> Result<Vec<i64>, TrError> {
    check_reduction(w, x)?;
    if !isa.available() {
        return Err(TrError::InvalidConfig(format!(
            "row-kernel isa {} is not supported on this host",
            isa.name()
        )));
    }
    let _span = tr_obs::span("core.bitplane_matmul");
    record_bitplane(w, x);
    let (m, n) = (w.rows(), x.rows());
    let mut out = vec![0i64; m * n];
    if m * n == 0 || w.words_per_row == 0 {
        return Ok(out);
    }
    let row_fn = row_fn_for(isa);
    for (i, orow) in out.chunks_mut(n).enumerate() {
        // SAFETY: `isa.available()` verified the required CPU features.
        unsafe { row_fn(w, x, i, orow) };
    }
    Ok(out)
}

/// Plane-level L2-blocked popcount matmul for deep reductions: the
/// (weight plane × data plane) loop is tiled over `block_cols` output
/// columns and `block_words`-word K-panels, so each panel of the data-side
/// tile streams through cache once per weight plane instead of once per
/// *pair*. Each `(p, q, panel)` triple contributes its partial popcount
/// through the same shift/sign/accumulate chain as the flat walk;
/// wrapping-i64 addition is associative and commutative and `<<`
/// distributes over it mod 2⁶⁴, so any panel split is congruent — the
/// output is **bit-identical** to [`try_bitplane_matmul_i64`] (the
/// property `tests/packed_equivalence.rs` proves, ragged panels included).
///
/// # Errors
/// [`TrError::ShapeMismatch`] when the reduction dimensions differ;
/// [`TrError::InvalidConfig`] on a zero tile.
pub fn try_bitplane_matmul_i64_blocked(
    w: &BitPlaneMatrix,
    x: &BitPlaneMatrix,
    block_cols: usize,
    block_words: usize,
) -> Result<Vec<i64>, TrError> {
    check_reduction(w, x)?;
    if block_cols == 0 || block_words == 0 {
        return Err(TrError::InvalidConfig(format!(
            "blocked bit-plane tiles must be positive (got {block_cols} cols x {block_words} words)"
        )));
    }
    let _span = tr_obs::span("core.bitplane_matmul");
    let pairs = record_bitplane(w, x);
    let (m, n) = (w.rows(), x.rows());
    let mut out = vec![0i64; m * n];
    let wpr = w.words_per_row;
    if m * n == 0 || wpr == 0 {
        return Ok(out);
    }
    // Panels stay whole 512-bit lanes: `wpr` is a multiple of 8, so
    // rounding the panel up keeps every slice (ragged tail included) a
    // multiple of 8 words and the SIMD counters tail-free.
    let bw = block_words.next_multiple_of(8);
    let cnt_fn = count_fn_for(Isa::detect());
    let panel_fn = panel_row_fn_for(Isa::detect());
    let pair_words = pairs.saturating_mul(as_u64(wpr));
    let parallel = pair_words > tune::active().par_min_pair_words && m >= 2 * ROW_TILE;
    for j0 in (0..n).step_by(block_cols) {
        let j1 = (j0 + block_cols).min(n);
        let tc = j1 - j0;
        // Tile-local accumulator: row `i` of the tile is contiguous, so
        // the parallel path hands out disjoint row chunks exactly like
        // the flat kernel does.
        let mut buf = vec![0i64; m * tc];
        // The K-panel loop sits OUTSIDE the row loop: for a fixed panel,
        // every output row sweeps the same `tc × x-planes × cw`-word slab
        // of data-side panels, so that slab is fetched from memory once
        // per (tile, panel) and served from cache for all M rows — the
        // flat walk refetches the data-side row set per output row, which
        // is exactly what drowns it once that set outgrows L2.
        let mut c0 = 0usize;
        while c0 < wpr {
            let cw = bw.min(wpr - c0);
            let row_panel = |i: usize, brow: &mut [i64]| {
                // The AVX512 tier gets the same inner shape as the flat
                // row kernel (paired x planes sharing weight loads, one
                // vector accumulator reduced once per cell-panel) — the
                // generic tier below pays a horizontal reduction per
                // plane pair, which is fine for the narrower ISAs but
                // would hand back a third of the blocking win here.
                if let Some(panel_row) = panel_fn {
                    // SAFETY: the variant was selected only after its ISA
                    // features were runtime-verified, `c0 + cw <= wpr`,
                    // and `cw` is a multiple of 8 (whole 512-bit lanes).
                    unsafe { panel_row(w, x, i, j0, c0, cw, brow) };
                    return;
                }
                let (wp0, wp1) = w.row_plane_range(i);
                for p in wp0..wp1 {
                    let we = w.plane_exps[p];
                    let wneg = w.plane_neg(p);
                    // In-bounds: plane `p` owns words `[p·wpr, (p+1)·wpr)`
                    // and `c0 + cw <= wpr`.
                    let wptr = unsafe { w.words.as_ptr().add(p * wpr + c0) };
                    for (jj, o) in brow.iter_mut().enumerate() {
                        let (xp0, xp1) = x.row_plane_range(j0 + jj);
                        let mut acc = *o;
                        for q in xp0..xp1 {
                            // SAFETY: same plane-ownership bound as above,
                            // and `cnt_fn`'s ISA was runtime-verified.
                            let cnt = unsafe {
                                cnt_fn(wptr, x.words.as_ptr().add(q * wpr + c0), cw)
                            };
                            let cnt = i64::try_from(cnt).expect("panel popcount fits i64");
                            let mag =
                                crate::matmul::shl_exp(crate::matmul::shl_exp(cnt, we), x.plane_exps[q]);
                            let signed =
                                if wneg != x.plane_neg(q) { mag.wrapping_neg() } else { mag };
                            acc = crate::matmul::acc_add(acc, signed);
                        }
                        *o = acc;
                    }
                }
            };
            if parallel {
                buf.par_chunks_mut(ROW_TILE * tc).enumerate().for_each(|(t, block)| {
                    for (r, brow) in block.chunks_mut(tc).enumerate() {
                        row_panel(t * ROW_TILE + r, brow);
                    }
                });
            } else {
                for (i, brow) in buf.chunks_mut(tc).enumerate() {
                    row_panel(i, brow);
                }
            }
            c0 += cw;
        }
        for (i, brow) in buf.chunks(tc).enumerate() {
            out[i * n + j0..i * n + j1].copy_from_slice(brow);
        }
    }
    Ok(out)
}

fn check_reduction(w: &BitPlaneMatrix, x: &BitPlaneMatrix) -> Result<(), TrError> {
    if w.len() == x.len() {
        Ok(())
    } else {
        Err(TrError::ShapeMismatch(format!(
            "reduction dims differ: {} vs {}",
            w.len(),
            x.len()
        )))
    }
}

/// Shared matmul accounting; returns the live plane-pair product.
fn record_bitplane(w: &BitPlaneMatrix, x: &BitPlaneMatrix) -> u64 {
    BITPLANE_MATMULS.inc();
    BITPLANE_CELLS.add(as_u64(w.rows()).saturating_mul(as_u64(x.rows())));
    // Σ_i Σ_j p_w(i)·p_x(j) factors into (Σ p_w)(Σ p_x).
    let pairs = as_u64(w.total_planes()).saturating_mul(as_u64(x.total_planes()));
    BITPLANE_PAIRS.add(pairs);
    pairs
}

/// One output row of the popcount kernel, dispatched per matmul to the
/// widest popcount ISA the host actually has.
type RowFn = unsafe fn(&BitPlaneMatrix, &BitPlaneMatrix, usize, &mut [i64]);

/// AND + popcount of two equal-length word slices (by raw pointer so the
/// feature-gated variants share one signature), the blocked kernel's
/// panel primitive.
type CountFn = unsafe fn(*const u64, *const u64, usize) -> u64;

/// One output row of one (column tile, K-panel) block:
/// `(w, x, row, tile col origin, panel word origin, panel words, tile row)`.
/// Accumulates into the tile row (panels are partial sums).
type PanelRowFn =
    unsafe fn(&BitPlaneMatrix, &BitPlaneMatrix, usize, usize, usize, usize, &mut [i64]);

/// The specialized panel-row kernel for `isa`, when one exists. Only the
/// AVX512 tier has one today; the other tiers run the blocked kernel's
/// generic per-pair inner over their [`CountFn`].
fn panel_row_fn_for(isa: Isa) -> Option<PanelRowFn> {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Avx512Vpopcnt => Some(bitplane_panel_row_avx512),
            Isa::Avx2Lut | Isa::Popcnt | Isa::Portable => None,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        None
    }
}

/// The row kernel implementing `isa`. Callers must have verified
/// [`Isa::available`]; unavailable tiers degrade to portable only for
/// `Portable` itself — the mapping is total so dispatch stays a lookup.
fn row_fn_for(isa: Isa) -> RowFn {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Avx512Vpopcnt => bitplane_row_avx512,
            Isa::Avx2Lut => bitplane_row_avx2,
            Isa::Popcnt => bitplane_row_popcnt,
            Isa::Portable => bitplane_row_portable,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        bitplane_row_portable
    }
}

/// The panel popcount primitive implementing `isa`.
fn count_fn_for(isa: Isa) -> CountFn {
    #[cfg(target_arch = "x86_64")]
    {
        match isa {
            Isa::Avx512Vpopcnt => and_popcount_avx512,
            Isa::Avx2Lut => and_popcount_avx2,
            Isa::Popcnt => and_popcount_popcnt,
            Isa::Portable => and_popcount_portable,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        and_popcount_portable
    }
}

/// 512-bit lanes: the same pair walk as [`dot_plane_ranges`], but with the
/// word loop pinned to explicit AND + `VPOPCNTQ` intrinsics. Left to the
/// auto-vectorizer, LLVM outer-loop-vectorizes the nested plane-pair loop
/// into `vpgatherqq` gathers (~10x slower than contiguous loads), so the
/// vector shape is fixed by hand: planes are padded to whole 8-word lanes,
/// giving `words_per_row / 8` full-width iterations and no scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn bitplane_row_avx512(w: &BitPlaneMatrix, x: &BitPlaneMatrix, i: usize, orow: &mut [i64]) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm512_sub_epi64, _mm512_xor_si512, _mm_cvtsi32_si128,
    };
    let wpr = w.words_per_row;
    debug_assert_eq!(wpr % 8, 0);
    let (wp0, wp1) = w.row_plane_range(i);
    for (j, o) in orow.iter_mut().enumerate() {
        let (xp0, xp1) = x.row_plane_range(j);
        // Whole-cell vector accumulator: each pair's per-lane popcounts
        // are shifted and signed in-register, and the 8 lanes reduce
        // ONCE per output cell. Wrapping i64 addition is associative and
        // commutative, and `<<` distributes over it mod 2^64, so the
        // lane-split total is bit-identical to the scalar pair walk —
        // including the two-step `& 63`-masked shift, which mirrors
        // `shl_exp`'s release-mode `wrapping_shl` exactly.
        let mut vacc = _mm512_setzero_si512();
        for p in wp0..wp1 {
            // In-bounds: plane `p` owns words `[p·wpr, (p+1)·wpr)` by
            // construction, and `wpr % 8 == 0` keeps every 8-word load
            // inside the plane.
            let ww = w.words.as_ptr().add(p * wpr);
            let wshift = _mm_cvtsi32_si128(i32::from(w.plane_exps[p] & 63));
            let wneg = w.plane_neg(p);
            // Branchless sign below: (mag ^ m) - m negates every lane
            // when m is all-ones, is the identity when m is zero — the
            // pair signs are data-dependent, so a conditional would
            // mispredict half the time.
            //
            // x planes go two at a time so both pairs share the weight-
            // plane loads (4.5 loads/pair instead of 6) and the two
            // popcount chains overlap.
            let mut q = xp0;
            while q + 2 <= xp1 {
                let xw0 = x.words.as_ptr().add(q * wpr);
                let xw1 = x.words.as_ptr().add((q + 1) * wpr);
                let mut v0 = _mm512_setzero_si512();
                let mut v1 = _mm512_setzero_si512();
                let mut c = 0usize;
                while c < wpr {
                    let a = _mm512_loadu_epi64(ww.add(c).cast());
                    let b0 = _mm512_loadu_epi64(xw0.add(c).cast());
                    let b1 = _mm512_loadu_epi64(xw1.add(c).cast());
                    v0 = _mm512_add_epi64(v0, _mm512_popcnt_epi64(_mm512_and_si512(a, b0)));
                    v1 = _mm512_add_epi64(v1, _mm512_popcnt_epi64(_mm512_and_si512(a, b1)));
                    c += 8;
                }
                let xs0 = _mm_cvtsi32_si128(i32::from(x.plane_exps[q] & 63));
                let xs1 = _mm_cvtsi32_si128(i32::from(x.plane_exps[q + 1] & 63));
                let mag0 = _mm512_sll_epi64(_mm512_sll_epi64(v0, wshift), xs0);
                let mag1 = _mm512_sll_epi64(_mm512_sll_epi64(v1, wshift), xs1);
                let m0 = _mm512_set1_epi64(-i64::from(wneg != x.plane_neg(q)));
                let m1 = _mm512_set1_epi64(-i64::from(wneg != x.plane_neg(q + 1)));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag0, m0), m0));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag1, m1), m1));
                q += 2;
            }
            if q < xp1 {
                let xw = x.words.as_ptr().add(q * wpr);
                let mut v = _mm512_setzero_si512();
                let mut c = 0usize;
                while c < wpr {
                    let a = _mm512_loadu_epi64(ww.add(c).cast());
                    let b = _mm512_loadu_epi64(xw.add(c).cast());
                    v = _mm512_add_epi64(v, _mm512_popcnt_epi64(_mm512_and_si512(a, b)));
                    c += 8;
                }
                let xshift = _mm_cvtsi32_si128(i32::from(x.plane_exps[q] & 63));
                let mag = _mm512_sll_epi64(_mm512_sll_epi64(v, wshift), xshift);
                let m = _mm512_set1_epi64(-i64::from(wneg != x.plane_neg(q)));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag, m), m));
            }
        }
        *o = _mm512_reduce_add_epi64(vacc);
    }
}

/// 256-bit lanes for pre-Ice-Lake hosts: AVX2 has no `VPOPCNTQ`, so each
/// AND'd vector is popcounted with the `vpshufb` nibble-LUT (Muła's
/// algorithm): a 16-entry shuffle table maps each nibble to its bit
/// count, low and high nibbles are looked up separately, and the byte
/// counts fold into per-lane `u64`s via `VPSADBW` against zero — one sad
/// per up to 31 vectors (248 words), since a byte accumulates at most
/// 8 bits per vector and saturates at 255. The per-pair popcount is
/// *exact*, and the pair's shift/sign/accumulate chain is byte-for-byte
/// the scalar walk's, so the kernel is bit-identical by construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bitplane_row_avx2(w: &BitPlaneMatrix, x: &BitPlaneMatrix, i: usize, orow: &mut [i64]) {
    let wpr = w.words_per_row;
    debug_assert_eq!(wpr % 8, 0);
    let (wp0, wp1) = w.row_plane_range(i);
    for (j, o) in orow.iter_mut().enumerate() {
        let (xp0, xp1) = x.row_plane_range(j);
        let mut acc = 0i64;
        for p in wp0..wp1 {
            // In-bounds: plane `p` owns words `[p·wpr, (p+1)·wpr)`.
            let ww = w.words.as_ptr().add(p * wpr);
            let we = w.plane_exps[p];
            let wneg = w.plane_neg(p);
            for q in xp0..xp1 {
                let cnt = and_popcount_avx2(ww, x.words.as_ptr().add(q * wpr), wpr);
                let cnt = i64::try_from(cnt).expect("row popcount fits i64");
                if cnt == 0 {
                    continue;
                }
                let mag =
                    crate::matmul::shl_exp(crate::matmul::shl_exp(cnt, we), x.plane_exps[q]);
                let signed = if wneg != x.plane_neg(q) { mag.wrapping_neg() } else { mag };
                acc = crate::matmul::acc_add(acc, signed);
            }
        }
        *o = acc;
    }
}

/// `popcount(a[..words] ∧ b[..words])` over 256-bit lanes with the
/// nibble-LUT (see [`bitplane_row_avx2`]). `words` must be a multiple
/// of 4 (plane padding guarantees a multiple of 8) and both slices must
/// hold `words` readable words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_popcount_avx2(a: *const u64, b: *const u64, words: usize) -> u64 {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_sad_epu8, _mm256_set1_epi8,
        _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16,
        _mm_add_epi64, _mm_cvtsi128_si64, _mm_extract_epi64,
    };
    debug_assert_eq!(words % 4, 0);
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let mut total = _mm256_setzero_si256();
    let mut c = 0usize;
    while c < words {
        // ≤ 31 vectors per sad: 8 bits/byte/vector × 31 = 248 < 256.
        let block_end = words.min(c + 124);
        let mut bytes = _mm256_setzero_si256();
        while c < block_end {
            let v = _mm256_and_si256(
                _mm256_loadu_si256(a.add(c).cast()),
                _mm256_loadu_si256(b.add(c).cast()),
            );
            let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low));
            let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
            bytes = _mm256_add_epi8(bytes, _mm256_add_epi8(lo, hi));
            c += 4;
        }
        total = _mm256_add_epi64(total, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
    }
    let s = _mm_add_epi64(_mm256_castsi256_si128(total), _mm256_extracti128_si256(total, 1));
    let lo = u64::try_from(_mm_cvtsi128_si64(s)).expect("lane popcount is nonnegative");
    let hi = u64::try_from(_mm_extract_epi64(s, 1)).expect("lane popcount is nonnegative");
    lo.wrapping_add(hi)
}

/// The AVX512 panel-row kernel: [`bitplane_row_avx512`]'s exact inner
/// shape — x planes two at a time sharing the weight-plane loads, shifts
/// and branchless signs applied in-register, one vector accumulator
/// horizontally reduced once per cell — restricted to the `cw` words at
/// `c0` and the output columns at `j0`. The per-(cell, panel) partial is
/// folded into the tile row with the same wrapping add as every other
/// route, so any panel split stays bit-identical to the flat walk.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn bitplane_panel_row_avx512(
    w: &BitPlaneMatrix,
    x: &BitPlaneMatrix,
    i: usize,
    j0: usize,
    c0: usize,
    cw: usize,
    brow: &mut [i64],
) {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_sll_epi64,
        _mm512_sub_epi64, _mm512_xor_si512, _mm_cvtsi32_si128,
    };
    let wpr = w.words_per_row;
    debug_assert_eq!(cw % 8, 0);
    debug_assert!(c0 + cw <= wpr);
    let (wp0, wp1) = w.row_plane_range(i);
    for (jj, o) in brow.iter_mut().enumerate() {
        let (xp0, xp1) = x.row_plane_range(j0 + jj);
        let mut vacc = _mm512_setzero_si512();
        // Pair walk inverted relative to the flat row kernel: the
        // data-side plane is OUTER and weight planes pair up inside, so
        // each x panel is loaded once per cell (not once per w-plane)
        // and the whole w panel row — a few planes × one panel — stays
        // L1-resident across the sweep. Each wrapping lane-add still
        // happens exactly once per live pair, and both `<<` steps and
        // the branchless sign commute, so the accumulated lanes (and the
        // single per-cell reduction) are bit-identical to every other
        // route regardless of this ordering.
        for q in xp0..xp1 {
            // In-bounds: plane `q` owns words `[q·wpr, (q+1)·wpr)` and
            // `c0 + cw <= wpr` keeps every 8-word load inside the panel.
            let xw = x.words.as_ptr().add(q * wpr + c0);
            let xshift = _mm_cvtsi32_si128(i32::from(x.plane_exps[q] & 63));
            let xneg = x.plane_neg(q);
            let mut p = wp0;
            while p + 2 <= wp1 {
                let ww0 = w.words.as_ptr().add(p * wpr + c0);
                let ww1 = w.words.as_ptr().add((p + 1) * wpr + c0);
                let mut v0 = _mm512_setzero_si512();
                let mut v1 = _mm512_setzero_si512();
                let mut c = 0usize;
                while c < cw {
                    let b = _mm512_loadu_epi64(xw.add(c).cast());
                    let a0 = _mm512_loadu_epi64(ww0.add(c).cast());
                    let a1 = _mm512_loadu_epi64(ww1.add(c).cast());
                    v0 = _mm512_add_epi64(v0, _mm512_popcnt_epi64(_mm512_and_si512(b, a0)));
                    v1 = _mm512_add_epi64(v1, _mm512_popcnt_epi64(_mm512_and_si512(b, a1)));
                    c += 8;
                }
                let ws0 = _mm_cvtsi32_si128(i32::from(w.plane_exps[p] & 63));
                let ws1 = _mm_cvtsi32_si128(i32::from(w.plane_exps[p + 1] & 63));
                let mag0 = _mm512_sll_epi64(_mm512_sll_epi64(v0, xshift), ws0);
                let mag1 = _mm512_sll_epi64(_mm512_sll_epi64(v1, xshift), ws1);
                let m0 = _mm512_set1_epi64(-i64::from(xneg != w.plane_neg(p)));
                let m1 = _mm512_set1_epi64(-i64::from(xneg != w.plane_neg(p + 1)));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag0, m0), m0));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag1, m1), m1));
                p += 2;
            }
            if p < wp1 {
                let ww = w.words.as_ptr().add(p * wpr + c0);
                let mut v = _mm512_setzero_si512();
                let mut c = 0usize;
                while c < cw {
                    let b = _mm512_loadu_epi64(xw.add(c).cast());
                    let a = _mm512_loadu_epi64(ww.add(c).cast());
                    v = _mm512_add_epi64(v, _mm512_popcnt_epi64(_mm512_and_si512(b, a)));
                    c += 8;
                }
                let wshift = _mm_cvtsi32_si128(i32::from(w.plane_exps[p] & 63));
                let mag = _mm512_sll_epi64(_mm512_sll_epi64(v, xshift), wshift);
                let m = _mm512_set1_epi64(-i64::from(xneg != w.plane_neg(p)));
                vacc = _mm512_add_epi64(vacc, _mm512_sub_epi64(_mm512_xor_si512(mag, m), m));
            }
        }
        *o = crate::matmul::acc_add(*o, _mm512_reduce_add_epi64(vacc));
    }
}

/// 512-bit panel popcount (`VPOPCNTQ`) for the blocked kernel. `words`
/// must be a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn and_popcount_avx512(a: *const u64, b: *const u64, words: usize) -> u64 {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_setzero_si512,
    };
    debug_assert_eq!(words % 8, 0);
    let mut v = _mm512_setzero_si512();
    let mut c = 0usize;
    while c < words {
        v = _mm512_add_epi64(
            v,
            _mm512_popcnt_epi64(_mm512_and_si512(
                _mm512_loadu_epi64(a.add(c).cast()),
                _mm512_loadu_epi64(b.add(c).cast()),
            )),
        );
        c += 8;
    }
    u64::try_from(_mm512_reduce_add_epi64(v)).expect("panel popcount is nonnegative")
}

/// Scalar-`popcnt` panel popcount.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn and_popcount_popcnt(a: *const u64, b: *const u64, words: usize) -> u64 {
    and_popcount_impl(a, b, words)
}

/// Portable panel popcount — also the body the `popcnt` wrapper inlines.
unsafe fn and_popcount_portable(a: *const u64, b: *const u64, words: usize) -> u64 {
    and_popcount_impl(a, b, words)
}

#[inline(always)]
unsafe fn and_popcount_impl(a: *const u64, b: *const u64, words: usize) -> u64 {
    let aw = std::slice::from_raw_parts(a, words);
    let bw = std::slice::from_raw_parts(b, words);
    aw.iter().zip(bw).map(|(&x, &y)| u64::from((x & y).count_ones())).sum()
}

/// Scalar `popcnt` (SSE4.2-era): one instruction per word instead of the
/// portable bit-hack.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn bitplane_row_popcnt(w: &BitPlaneMatrix, x: &BitPlaneMatrix, i: usize, orow: &mut [i64]) {
    bitplane_row_impl(w, x, i, orow);
}

/// Baseline fallback — what every non-x86 target and featureless host
/// runs; also the body the feature wrappers inline.
fn bitplane_row_portable(w: &BitPlaneMatrix, x: &BitPlaneMatrix, i: usize, orow: &mut [i64]) {
    bitplane_row_impl(w, x, i, orow);
}

/// The weight row's plane range is hoisted; each output cell pairs it
/// with one data row's planes.
#[inline(always)]
fn bitplane_row_impl(w: &BitPlaneMatrix, x: &BitPlaneMatrix, i: usize, orow: &mut [i64]) {
    let (wp0, wp1) = w.row_plane_range(i);
    for (j, o) in orow.iter_mut().enumerate() {
        let (xp0, xp1) = x.row_plane_range(j);
        *o = dot_plane_ranges(w, wp0, wp1, x, xp0, xp1);
    }
}

/// Σ over rows of the number of live `(exp, sign)` planes — what
/// [`BitPlaneMatrix::from_packed`] would materialize, computed in one
/// cheap pass over the flat planes without allocating them. The dispatch
/// heuristic uses this to estimate the popcount kernel's cost before
/// committing to the decomposition.
#[must_use]
pub(crate) fn live_plane_sum(m: &PackedTermMatrix) -> u64 {
    let mut slots = [0u32; 512];
    let mut touched: Vec<u16> = Vec::with_capacity(32);
    let offsets = m.offsets();
    let exps = m.exps();
    let (rows, len) = (m.rows(), m.len());
    let mut total = 0u64;
    for r in 0..rows {
        let t0 = off_usize(offsets[r * len]);
        let t1 = off_usize(offsets[(r + 1) * len]);
        for (t, &exp) in exps.iter().enumerate().take(t1).skip(t0) {
            let key = (usize::from(exp) << 1) | usize::from(m.sign(t));
            if slots[key] == 0 {
                slots[key] = 1;
                touched.push(u16::try_from(key).expect("slot key fits u16"));
                total += 1;
            }
        }
        for &k in &touched {
            slots[usize::from(k)] = 0;
        }
        touched.clear();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrConfig;
    use crate::matmul::{packed_term_matmul_i64, term_dot_packed};
    use tr_quant::{calibrate_max_abs, quantize, QTensor, QuantParams};
    use tr_tensor::{Rng, Shape, Tensor};

    fn random_qt(rows: usize, cols: usize, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
        quantize(&t, calibrate_max_abs(&t, 8))
    }

    #[test]
    fn codes_round_trip_through_bit_planes() {
        let q = random_qt(5, 130, 1); // > 2 words per plane
        for enc in Encoding::ALL {
            let packed = PackedTermMatrix::from_weights(&q, enc);
            let planes = BitPlaneMatrix::from_packed(&packed);
            assert_eq!(planes.reconstruct_codes(), packed.reconstruct_codes(), "{enc}");
            assert_eq!(planes.rows(), packed.rows());
            assert_eq!(planes.len(), packed.len());
            assert_eq!(planes.words_per_row(), 8); // ceil(130/64)=3, padded to 8
        }
    }

    #[test]
    fn plane_count_matches_cheap_estimator() {
        let q = random_qt(7, 64, 2);
        for cfg in [TrConfig::new(8, 12), TrConfig::new(8, 4), TrConfig::new(8, 2)] {
            let packed = PackedTermMatrix::from_weights(&q, cfg.weight_encoding).reveal(&cfg);
            let planes = BitPlaneMatrix::from_packed(&packed);
            assert_eq!(as_u64(planes.total_planes()), live_plane_sum(&packed));
        }
    }

    #[test]
    fn aggressive_reveal_drains_planes() {
        // The thesis the dispatch heuristic rests on: smaller k, fewer
        // live planes.
        let q = random_qt(8, 256, 3);
        let counts: Vec<usize> = [24usize, 12, 4, 2]
            .iter()
            .map(|&k| {
                let cfg = TrConfig::new(8, k);
                let p = PackedTermMatrix::from_weights(&q, cfg.weight_encoding).reveal(&cfg);
                BitPlaneMatrix::from_packed(&p).total_planes()
            })
            .collect();
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "plane counts should fall with k: {counts:?}");
        }
        assert!(counts[counts.len() - 1] < counts[0], "{counts:?}");
    }

    #[test]
    fn dot_matches_pair_walk() {
        let qw = random_qt(1, 200, 4);
        let qx = random_qt(1, 200, 5);
        for enc in Encoding::ALL {
            let pw = PackedTermMatrix::from_weights(&qw, enc);
            let px = PackedTermMatrix::from_weights(&qx, enc);
            let bw = BitPlaneMatrix::from_packed(&pw);
            let bx = BitPlaneMatrix::from_packed(&px);
            assert_eq!(bitplane_dot(&bw, 0, &bx, 0), term_dot_packed(&pw, 0, &px, 0), "{enc}");
        }
    }

    #[test]
    fn matmul_matches_packed_kernel_serial_and_parallel() {
        // Small (serial) and large-enough (parallel pair-words) shapes.
        for (m, k, n, seed) in [(3usize, 40usize, 4usize, 6u64), (24, 300, 24, 7)] {
            let qw = random_qt(m, k, seed);
            let qx = random_qt(k, n, seed + 100);
            let cfg = TrConfig::new(8, 12).with_data_terms(3);
            let pw = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
            let px = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(3);
            let bw = BitPlaneMatrix::from_packed(&pw);
            let bx = BitPlaneMatrix::from_packed(&px);
            assert_eq!(bitplane_matmul_i64(&bw, &bx), packed_term_matmul_i64(&pw, &px));
        }
    }

    #[test]
    fn empty_and_zero_operands_are_well_formed() {
        let empty = PackedTermMatrix::from_vector(&[], Encoding::Binary);
        let be = BitPlaneMatrix::from_packed(&empty);
        assert!(be.is_empty());
        assert_eq!(be.total_planes(), 0);
        assert_eq!(bitplane_matmul_i64(&be, &be), vec![0i64]); // 1x0 @ 0x1
        // All-zero codes: no terms, no planes, zero outputs.
        let zeros = PackedTermMatrix::from_vector(&[0; 70], Encoding::Hese);
        let bz = BitPlaneMatrix::from_packed(&zeros);
        assert_eq!(bz.total_planes(), 0);
        assert_eq!(bz.reconstruct_codes(), vec![0i64; 70]);
        assert_eq!(bitplane_matmul_i64(&bz, &bz), vec![0i64]);
    }

    #[test]
    fn single_plane_operands_reduce_to_shifted_popcounts() {
        // All values +8 → exactly one positive plane at exp 3 per row.
        let q = QTensor::from_codes(
            vec![8; 64],
            QuantParams { scale: 1.0, bits: 8 },
            Shape::d2(1, 64),
        );
        let p = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        let b = BitPlaneMatrix::from_packed(&p);
        assert_eq!(b.total_planes(), 1);
        assert_eq!(b.max_row_planes(), 1);
        // 64 aligned pairs of 8·8 = 64·64.
        assert_eq!(bitplane_dot(&b, 0, &b, 0), 64 * 64);
    }

    #[test]
    fn seal_detects_corruption() {
        let q = random_qt(3, 20, 9);
        let p = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        let mut b = BitPlaneMatrix::from_packed(&p);
        b.verify_integrity().unwrap();
        assert_ne!(b.checksum(), 0);
        b.words[0] ^= 1;
        assert!(b.verify_integrity().is_err());
    }

    #[test]
    fn blocked_matmul_is_bit_identical_across_tiles() {
        // Deep-ish reduction with ragged tails in both tiling dimensions:
        // 777 elements → 13 words, padded to 16; n = 11 is not a multiple
        // of any column tile.
        let qw = random_qt(9, 777, 40);
        let qx = random_qt(777, 11, 41);
        let cfg = TrConfig::new(8, 4).with_data_terms(2);
        let pw = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
        let px = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(2);
        let bw = BitPlaneMatrix::from_packed(&pw);
        let bx = BitPlaneMatrix::from_packed(&px);
        let flat = bitplane_matmul_i64(&bw, &bx);
        for (cols, words) in [(1usize, 8usize), (3, 8), (4, 16), (64, 256), (11, 1000)] {
            let blocked = try_bitplane_matmul_i64_blocked(&bw, &bx, cols, words)
                .unwrap_or_else(|e| panic!("{cols}x{words}: {e}"));
            assert_eq!(blocked, flat, "tile {cols} cols x {words} words");
        }
        assert!(try_bitplane_matmul_i64_blocked(&bw, &bx, 0, 8).is_err());
        assert!(try_bitplane_matmul_i64_blocked(&bw, &bx, 4, 0).is_err());
    }

    #[test]
    fn forced_isa_kernels_agree_where_available() {
        let qw = random_qt(6, 200, 42);
        let qx = random_qt(200, 7, 43);
        let cfg = TrConfig::new(8, 2).with_data_terms(1);
        let pw = PackedTermMatrix::from_weights(&qw, cfg.weight_encoding).reveal(&cfg);
        let px = PackedTermMatrix::from_data_transposed(&qx, cfg.data_encoding).cap_terms(1);
        let bw = BitPlaneMatrix::from_packed(&pw);
        let bx = BitPlaneMatrix::from_packed(&px);
        let reference = bitplane_matmul_i64(&bw, &bx);
        for isa in Isa::ALL {
            match try_bitplane_matmul_i64_with(&bw, &bx, isa) {
                Ok(out) => assert_eq!(out, reference, "{}", isa.name()),
                Err(e) => {
                    assert!(!isa.available(), "{}: {e}", isa.name());
                    assert!(matches!(e, TrError::InvalidConfig(_)), "{e}");
                }
            }
        }
    }

    #[test]
    fn matmul_rejects_mismatched_reduction_dims() {
        let a = BitPlaneMatrix::from_packed(&PackedTermMatrix::from_vector(
            &[1, 2],
            Encoding::Binary,
        ));
        let b = BitPlaneMatrix::from_packed(&PackedTermMatrix::from_vector(
            &[1, 2, 3],
            Encoding::Binary,
        ));
        assert!(try_bitplane_matmul_i64(&a, &b).is_err());
    }
}
