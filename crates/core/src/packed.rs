//! Packed term-plane operand matrices.
//!
//! [`PackedTermMatrix`] is the crate's one term-decomposed operand: for
//! each dot-product vector (a weight row or a data column) it holds the
//! power-of-two term expansion of every element. Instead of one
//! heap-allocated `TermExpr` per element, all terms of the matrix live in
//! three flat planes —
//!
//! * `offsets` — one `u32` per element (plus a trailing sentinel) giving
//!   each element's term range, exactly a CSR row-pointer array;
//! * `exps`    — the term exponents, one `u8` per term;
//! * `signs`   — a bitset, one bit per term (set = negative).
//!
//! This is the software analogue of the exponent/sign register arrays of
//! the tMAC (§V-B): the hardware never chases a pointer per term, and with
//! this layout neither do the kernels. The `u8` exponent plane is sound
//! because the tr-analysis datapath proof bounds every exponent a valid
//! Table-I configuration can produce at 14 (two 7-bit operand exponents
//! added), far inside `u8`.
//!
//! Within an element, terms are stored in descending exponent order (the
//! `TermExpr` invariant), so per-element truncation is "keep the first
//! `s`" and the receding-water scan can drop a suffix without reordering.
//!
//! The constructors read each code's terms from the encoding's code-term
//! table ([`tr_encoding::TermTable`]) rather than encoding per element, so
//! building the planes allocates nothing per element; the planes are the
//! same bytes the encoder would give. Weight preparation goes one step
//! further: [`PackedTermMatrix::try_reveal_codes`] reads the table and
//! applies Term Revealing in the same pass, row tiles in parallel, and
//! hands back the kept codes with the revealed planes.

use crate::config::TrConfig;
use crate::error::TrError;
use crate::reveal::{observe_group, RevealTally};
use crate::seal::{fnv1a_bytes, fnv1a_bytes_wordwise, fnv1a_word, mix, FNV_OFFSET};
use rayon::prelude::*;
use std::sync::OnceLock;
use tr_encoding::{CodeTerms, Encoding, Term, TermExpr, TermTable, TABLE_MAX_TERMS, TABLE_RANGE};
use tr_obs::Counter;
use tr_quant::QTensor;

/// Integrity verifications performed over packed planes.
static INTEGRITY_CHECKS: Counter = Counter::new("core.integrity.checks");
/// Verifications that caught a checksum mismatch (corrupted planes).
static INTEGRITY_VIOLATIONS: Counter = Counter::new("core.integrity.violations");

/// Widen a CSR offset to an index. Lossless on every supported target
/// (`usize` is at least 32 bits on all tiers this crate builds for).
#[allow(clippy::cast_possible_truncation)]
#[inline]
pub(crate) fn off_usize(v: u32) -> usize {
    v as usize
}

/// A term-decomposed matrix stored as flat offset/exponent/sign planes.
///
/// `rows` dot-product vectors of `len` elements each, contiguous in
/// memory, so the hot kernels (the matmul executor, the histogram
/// reveal) stream it without per-element indirection or allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTermMatrix {
    rows: usize,
    len: usize,
    encoding: Encoding,
    /// `rows * len + 1` entries; element `(r, c)`'s terms occupy
    /// `exps[offsets[r*len+c] .. offsets[r*len+c+1]]`.
    offsets: Vec<u32>,
    exps: Vec<u8>,
    /// One bit per term, LSB-first within each word; set = negative.
    signs: Vec<u64>,
    /// FNV-1a over shape + planes, sealed at construction. A stale value
    /// means the planes changed after sealing — the silent-corruption
    /// signal [`PackedTermMatrix::verify_integrity`] detects.
    checksum: u64,
}

impl PackedTermMatrix {
    fn with_capacity(rows: usize, len: usize, encoding: Encoding, term_hint: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows * len + 1);
        offsets.push(0);
        PackedTermMatrix {
            rows,
            len,
            encoding,
            offsets,
            exps: Vec::with_capacity(term_hint),
            signs: Vec::with_capacity(term_hint / 64 + 1),
            checksum: 0,
        }
    }

    /// Freeze the content checksum. Every public constructor ends here,
    /// so a sealed matrix always satisfies `verify_integrity` until its
    /// planes are corrupted.
    fn seal(mut self) -> Self {
        self.checksum = self.content_checksum();
        self
    }

    /// Recompute the FNV-1a checksum over shape, encoding, and all three
    /// planes. Pure function of content: equal matrices hash equal. Runs
    /// word-at-a-time (one multiply per 8 plane bytes) so the chaos-mode
    /// verify-on-every-hit stays well under the 2% matmul budget.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv1a_word(h, self.rows as u64);
        h = fnv1a_word(h, self.len as u64);
        h = fnv1a_bytes(h, self.encoding.name().as_bytes());
        let mut pairs = self.offsets.chunks_exact(2);
        for p in &mut pairs {
            h = fnv1a_word(h, u64::from(p[0]) | (u64::from(p[1]) << 32));
        }
        for &o in pairs.remainder() {
            h = fnv1a_word(h, u64::from(o));
        }
        h = fnv1a_bytes_wordwise(h, &self.exps);
        for &w in &self.signs {
            h = fnv1a_word(h, w);
        }
        h
    }

    /// The checksum sealed at construction.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Cheap integrity check: recompute the content checksum and compare
    /// against the sealed value. O(total plane bytes) — far below one
    /// matmul over the same planes, so callers can afford it on every
    /// cache hit.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when the planes no longer match the seal.
    pub fn verify_integrity(&self) -> Result<(), TrError> {
        INTEGRITY_CHECKS.inc();
        let actual = self.content_checksum();
        if actual == self.checksum {
            Ok(())
        } else {
            INTEGRITY_VIOLATIONS.inc();
            Err(TrError::Integrity(format!(
                "packed planes checksum {actual:#018x} != sealed {:#018x} \
                 ({} rows x {} elems, {} terms)",
                self.checksum,
                self.rows,
                self.len,
                self.exps.len()
            )))
        }
    }

    /// Deterministic corruption hook for fault campaigns: flip one bit of
    /// the exponent plane or one sign bit, chosen by `salt` through the
    /// same SplitMix64 idiom as the `tr-hw` fault sites. The seal is left
    /// stale on purpose — that *is* the injected silent corruption.
    ///
    /// Only value-level planes are touched (never `offsets`), so a
    /// tampered matrix stays structurally well-formed: kernels that skip
    /// verification produce wrong numbers, not out-of-bounds panics —
    /// exactly the silent-corruption failure mode worth injecting.
    ///
    /// Returns `false` (no-op) when the matrix holds no terms.
    pub fn tamper(&mut self, salt: u64) -> bool {
        if self.exps.is_empty() {
            return false;
        }
        let h = mix(salt ^ self.checksum);
        let i = usize::try_from(mix(h) % self.exps.len() as u64).unwrap_or(0);
        if h & 1 == 0 {
            // Flip a low exponent bit: stays within the legal u8 span.
            self.exps[i] ^= 1u8 << (mix(h ^ 1) % 3);
        } else {
            self.signs[i / 64] ^= 1u64 << (i % 64);
        }
        true
    }

    #[inline]
    fn push_term(&mut self, exp: u8, neg: bool) {
        let i = self.exps.len();
        if i.is_multiple_of(64) {
            self.signs.push(0);
        }
        self.signs[i / 64] |= u64::from(neg) << (i % 64);
        self.exps.push(exp);
    }

    #[inline]
    fn close_element(&mut self) {
        let end = u32::try_from(self.exps.len()).expect("term count fits u32");
        self.offsets.push(end);
    }

    fn push_expr(&mut self, e: &TermExpr) {
        for t in e.iter() {
            self.push_term(t.exp, t.neg);
        }
        self.close_element();
    }

    /// Append one element holding `code`'s terms, read from the
    /// encoding's code-term table (the encoder only beyond its range).
    #[inline]
    fn push_code(&mut self, table: &TermTable, code: i32) {
        match table.get(code) {
            Some(t) => {
                self.push_code_terms(t);
                self.close_element();
            }
            None => self.push_expr(&table.encoding().terms_of(code)),
        }
    }

    /// Append a table entry's terms without a per-term branch: the
    /// exponent array is copied whole and the length trimmed back, and
    /// the sign mask is OR-ed into the bitset at the term cursor (spilling
    /// into the next word when it straddles one). The planes end up
    /// exactly as [`Self::push_term`] per term would leave them: padding
    /// exponents never survive the trim and padding sign bits are clear.
    #[inline]
    fn push_code_terms(&mut self, t: CodeTerms) {
        let start = self.exps.len();
        let end = start + usize::from(t.len);
        self.exps.extend_from_slice(&t.exps);
        self.exps.truncate(end);
        self.signs.resize(end.div_ceil(64), 0);
        let (word, bit) = (start / 64, start % 64);
        let mask = u64::from(t.signs);
        if let Some(w) = self.signs.get_mut(word) {
            *w |= mask << bit;
        }
        if bit > 64 - TABLE_MAX_TERMS {
            if let Some(next) = self.signs.get_mut(word + 1) {
                *next |= mask >> (64 - bit);
            }
        }
    }

    /// Decompose a weight matrix `(M, K)` in one pass: row `m` is the
    /// weight vector of output `m`, grouped along `K`.
    pub fn from_weights(q: &QTensor, encoding: Encoding) -> PackedTermMatrix {
        let (rows, len) = q.as_matrix();
        Self::from_codes(q.values(), rows, len, encoding)
    }

    /// Decompose row-major integer codes `(rows, len)` in one pass — the
    /// [`PackedTermMatrix::from_weights`] layout without a [`QTensor`]
    /// around the codes, for callers that already hold them (the
    /// activation pack of the integer forward).
    ///
    /// # Panics
    /// If `codes.len() != rows * len`.
    pub fn from_codes(codes: &[i32], rows: usize, len: usize, encoding: Encoding) -> PackedTermMatrix {
        assert_eq!(codes.len(), rows * len, "codes do not fill a {rows}x{len} matrix");
        let table = encoding.table();
        let mut out = Self::with_capacity(rows, len, encoding, rows * len * 2);
        for &v in codes {
            out.push_code(table, v);
        }
        out.seal()
    }

    /// Decompose a data matrix `(K, N)` *transposed*: row `n` of the
    /// result is data column `n`, aligning with weight rows in dot
    /// products.
    pub fn from_data_transposed(q: &QTensor, encoding: Encoding) -> PackedTermMatrix {
        let (k, n) = q.as_matrix();
        let vals = q.values();
        let table = encoding.table();
        let mut out = Self::with_capacity(n, k, encoding, k * n * 2);
        for col in 0..n {
            for row in 0..k {
                out.push_code(table, vals[row * n + col]);
            }
        }
        out.seal()
    }

    /// Decompose a flat vector as a single row.
    pub fn from_vector(values: &[i32], encoding: Encoding) -> PackedTermMatrix {
        Self::from_codes(values, 1, values.len(), encoding)
    }

    /// Number of dot-product vectors.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Length of each vector (the reduction dimension).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.rows * self.len == 0
    }

    /// The encoding the elements were decomposed with.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The CSR offset plane (`rows * len + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat exponent plane.
    pub fn exps(&self) -> &[u8] {
        &self.exps
    }

    /// Sign of term `i` in the flat planes (true = negative).
    #[inline]
    pub fn sign(&self, i: usize) -> bool {
        (self.signs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Term `i` of the flat planes.
    #[inline]
    pub fn term(&self, i: usize) -> Term {
        if self.sign(i) {
            Term::neg(self.exps[i])
        } else {
            Term::pos(self.exps[i])
        }
    }

    /// The `[start, end)` term range of element `(r, c)`.
    #[inline]
    pub fn element_bounds(&self, r: usize, c: usize) -> (usize, usize) {
        let i = r * self.len + c;
        (off_usize(self.offsets[i]), off_usize(self.offsets[i + 1]))
    }

    /// Terms of element `(r, c)`, largest exponent first.
    pub fn element_terms(&self, r: usize, c: usize) -> impl Iterator<Item = Term> + '_ {
        let (t0, t1) = self.element_bounds(r, c);
        (t0..t1).map(move |i| self.term(i))
    }

    /// Term count of element `(r, c)`.
    #[inline]
    pub fn element_len(&self, r: usize, c: usize) -> usize {
        let (t0, t1) = self.element_bounds(r, c);
        t1 - t0
    }

    /// Total terms across the matrix.
    pub fn total_terms(&self) -> usize {
        self.exps.len()
    }

    /// Mean terms per element.
    pub fn mean_terms(&self) -> f64 {
        let elems = self.rows * self.len;
        if elems == 0 {
            0.0
        } else {
            self.total_terms() as f64 / elems as f64
        }
    }

    /// Largest per-element term count.
    pub fn max_value_terms(&self) -> usize {
        self.offsets.windows(2).map(|w| off_usize(w[1]) - off_usize(w[0])).max().unwrap_or(0)
    }

    /// Largest per-group term count under grouping `g` (how close groups
    /// come to a budget). Groups chunk each row independently.
    pub fn max_group_terms_for(&self, g: usize) -> usize {
        assert!(g > 0);
        let mut max = 0;
        for r in 0..self.rows {
            let mut c = 0;
            while c < self.len {
                let c1 = (c + g).min(self.len);
                let (t0, _) = self.element_bounds(r, c);
                let (_, t1) = self.element_bounds(r, c1 - 1);
                max = max.max(t1 - t0);
                c = c1;
            }
        }
        max
    }

    /// Reconstruct the integer code of element `(r, c)`.
    pub fn value(&self, r: usize, c: usize) -> i64 {
        self.element_terms(r, c).map(|t| t.value()).sum()
    }

    /// Reconstruct the integer codes the kept terms represent (row-major).
    ///
    /// A true single flat pass over the offsets/exps/signs planes — the
    /// term cursor advances monotonically and each sign bit is read from
    /// the word it lives in, never through per-cell
    /// [`PackedTermMatrix::value`] calls (which re-derive element bounds
    /// and re-index the sign bitset per term). This is the pass the
    /// wide code-plane kernel runs.
    pub fn reconstruct_codes(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.rows * self.len);
        let mut t = 0usize;
        for w in self.offsets.windows(2) {
            out.push(self.code_until(&mut t, off_usize(w[1])));
        }
        out
    }

    /// The code of the terms from `*t` to `end`, shift-accumulated, with
    /// `*t` advanced to `end`: one element of the reconstruct walks.
    #[inline(always)]
    fn code_until(&self, t: &mut usize, end: usize) -> i64 {
        let mut acc = 0i64;
        while *t < end {
            let mag = crate::matmul::shl_exp(1, self.exps[*t]);
            acc = crate::matmul::acc_add(acc, if self.sign(*t) { mag.wrapping_neg() } else { mag });
            *t += 1;
        }
        acc
    }

    /// [`PackedTermMatrix::reconstruct_codes`] into `i16` rows of `stride`
    /// codes each, the tail past [`len`](PackedTermMatrix::len)
    /// zero-padded, with the largest `|code|`: the narrow code-plane
    /// kernel's operand. The same per-term walk, in one pass; `None` at
    /// the first code outside ±32767 (whose `i16` would be wrong, or
    /// `i16::MIN`, whose square overflows a pair sum).
    ///
    /// # Panics
    /// If `stride < len`.
    pub(crate) fn reconstruct_codes_i16(&self, stride: usize) -> Option<(Vec<i16>, u16)> {
        assert!(stride >= self.len, "a {stride}-code row cannot hold {} codes", self.len);
        let mut out = vec![0i16; self.rows * stride];
        if self.len == 0 {
            return Some((out, 0));
        }
        let mut max_abs = 0u16;
        let mut t = 0usize;
        for (row, ends) in out.chunks_exact_mut(stride).zip(self.offsets[1..].chunks_exact(self.len)) {
            for (o, &end) in row.iter_mut().zip(ends) {
                let code = i16::try_from(self.code_until(&mut t, off_usize(end)))
                    .ok()
                    .filter(|&c| c != i16::MIN)?;
                max_abs = max_abs.max(code.unsigned_abs());
                *o = code;
            }
        }
        Some((out, max_abs))
    }

    /// Apply Term Revealing: receding water over every `g`-sized group of
    /// every row with budget `k`, scanning a fixed exponent histogram
    /// instead of materializing per-group `Vec<Vec<Term>>`. Bit-identical
    /// to [`reveal_row`](crate::reveal::reveal_row) (the `RowMajor`
    /// tiebreak) over each row's `TermExpr`s, and feeds
    /// the same `core.reveal.*` counters. Consumes and returns the matrix.
    ///
    /// # Panics
    /// If `cfg` is invalid. Use [`PackedTermMatrix::try_reveal`] to get a
    /// `Result` instead.
    pub fn reveal(self, cfg: &TrConfig) -> PackedTermMatrix {
        match self.try_reveal(cfg) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`PackedTermMatrix::reveal`].
    pub fn try_reveal(self, cfg: &TrConfig) -> Result<PackedTermMatrix, TrError> {
        cfg.validate()?;
        let (g, budget) = (cfg.group_size, cfg.group_budget);
        let mut out =
            Self::with_capacity(self.rows, self.len, self.encoding, self.exps.len());
        // Exponent histogram for the pruning slow path. `u8` exponents
        // bound the index; the array lives outside the group loop and is
        // cleared incrementally (only the buckets a group touched), so the
        // slow path costs O(terms in group + exponent span), allocation
        // free.
        let mut counts = [0u32; 256];
        for r in 0..self.rows {
            let mut c0 = 0;
            while c0 < self.len {
                let c1 = (c0 + g).min(self.len);
                let (t0, _) = self.element_bounds(r, c0);
                let (_, t1) = self.element_bounds(r, c1 - 1);
                let total = t1 - t0;
                if total <= budget {
                    // Fast path: the group fits its budget (the common
                    // case §III-C relies on) — copy the elements through.
                    for c in c0..c1 {
                        let (e0, e1) = self.element_bounds(r, c);
                        for i in e0..e1 {
                            out.push_term(self.exps[i], self.sign(i));
                        }
                        out.close_element();
                    }
                    observe_group(total, 0);
                    c0 = c1;
                    continue;
                }
                // Slow path: find the waterline from the exponent counts.
                // Each value holds at most one term per exponent, so
                // "first (budget - cum) terms at the waterline in scan
                // order" is exactly "the waterline terms of the first
                // values in index order" — the legacy RowMajor scan.
                let mut max_exp = 0u8;
                for &e in &self.exps[t0..t1] {
                    counts[usize::from(e)] += 1;
                    max_exp = max_exp.max(e);
                }
                let mut cum = 0u32;
                let mut wl = 0u8;
                let mut take_at_wl = 0u32;
                for e in (0..=max_exp).rev() {
                    let n = counts[usize::from(e)];
                    let b = u32::try_from(budget).unwrap_or(u32::MAX);
                    if cum + n >= b {
                        wl = e;
                        take_at_wl = b - cum;
                        break;
                    }
                    cum += n;
                }
                let mut taken = 0u32;
                for c in c0..c1 {
                    let (e0, e1) = self.element_bounds(r, c);
                    for i in e0..e1 {
                        let e = self.exps[i];
                        if e > wl {
                            out.push_term(e, self.sign(i));
                        } else if e == wl && taken < take_at_wl {
                            out.push_term(e, self.sign(i));
                            taken += 1;
                        }
                    }
                    out.close_element();
                }
                for &e in &self.exps[t0..t1] {
                    counts[usize::from(e)] = 0;
                }
                observe_group(budget, total - budget);
                c0 = c1;
            }
        }
        Ok(out.seal())
    }

    /// Term Revealing straight from row-major weight codes `(rows, len)`
    /// in one table-driven pass: the planes
    /// `from_codes(..).try_reveal(cfg)` builds, together with the codes
    /// their kept terms represent (the values
    /// [`PackedTermMatrix::reconstruct_codes`] would return on them). The
    /// kept codes are written over `codes`, which is returned.
    ///
    /// Each code's terms are read from the weight encoding's
    /// [`TermTable`]. A group within its budget is copied through; an
    /// over-budget group finds its waterline from the same exponent
    /// histogram and scan-order tie-break as [`PackedTermMatrix::try_reveal`],
    /// with the histogram summed one word per value instead of one bucket
    /// per term. Because terms are stored largest exponent first, what a
    /// value keeps is a prefix of its terms, so its kept count is a lookup
    /// and its kept code one table load. Rows are independent and fan out
    /// in tiles over the thread pool, each with its own planes and counter
    /// tally, stitched in row order afterwards. The output and the
    /// `core.reveal.*` counter deltas are bit-identical to the two-step
    /// chain, which is also the fallback when a code lies beyond the table
    /// or a group is wider than 127 values.
    ///
    /// # Errors
    /// [`TrError::InvalidConfig`] when `cfg` is invalid, and
    /// [`TrError::OutOfRange`] when a kept code does not fit `i32` (only
    /// codes near `±2^31` can round past it).
    ///
    /// # Panics
    /// If `codes.len() != rows * len`.
    pub fn try_reveal_codes(
        mut codes: Vec<i32>,
        rows: usize,
        len: usize,
        cfg: &TrConfig,
    ) -> Result<(PackedTermMatrix, Vec<i32>), TrError> {
        cfg.validate()?;
        assert_eq!(codes.len(), rows * len, "codes do not fill a {rows}x{len} matrix");
        let encoding = cfg.weight_encoding;
        let in_table = codes.iter().map(|c| c.unsigned_abs()).max() <= Some(TABLE_RANGE.unsigned_abs());
        let table = RevealTable::of(encoding).filter(|_| in_table && cfg.group_size <= REVEAL_MAX_GROUP);
        let Some(table) = table else {
            let tm = Self::from_codes(&codes, rows, len, encoding).try_reveal(cfg)?;
            let kept = tm.reconstruct_codes().into_iter().map(i32::try_from);
            let kept = kept.collect::<Result<Vec<_>, _>>().map_err(|_| {
                TrError::OutOfRange("a kept code of the revealed matrix exceeds i32".into())
            })?;
            return Ok((tm, kept));
        };
        // Offsets and kept codes go straight to their final place; each
        // tile writes its offsets relative to its own first term and
        // returns its exponent and sign planes for the stitch below.
        let mut out = Self::with_capacity(rows, len, encoding, 0);
        out.offsets.resize(rows * len + 1, 0);
        let tile = REVEAL_TILE_ELEMS.div_ceil(len.max(1)) * len.max(1);
        let mut jobs: Vec<RevealTile<'_>> = codes
            .chunks_mut(tile)
            .zip(out.offsets[1..].chunks_mut(tile))
            .map(|(codes, ends)| RevealTile::new(codes, ends))
            .collect();
        jobs.par_chunks_mut(1).for_each(|job| {
            for j in job {
                j.run(table, len, cfg.group_size, cfg.group_budget);
            }
        });
        let terms: usize = jobs.iter().map(|j| j.exps.len()).sum();
        u32::try_from(terms).expect("term count fits u32");
        let mut planes = (Vec::with_capacity(terms), Vec::with_capacity(terms.div_ceil(64)));
        for job in jobs {
            let base = u32::try_from(planes.0.len()).expect("term count fits u32");
            if base > 0 {
                for e in job.ends.iter_mut() {
                    *e += base;
                }
            }
            append_planes(&mut planes, &job.exps, &job.signs);
            job.tally.observe();
        }
        (out.exps, out.signs) = planes;
        Ok((out.seal(), codes))
    }

    /// Cap every element to its top `s` terms (terms are stored largest
    /// exponent first, so this keeps a prefix). Consumes and returns the
    /// matrix. Bit-identical to [`TermExpr::truncate_top`] per element.
    pub fn cap_terms(self, s: usize) -> PackedTermMatrix {
        let mut out = Self::with_capacity(self.rows, self.len, self.encoding, self.exps.len());
        for r in 0..self.rows {
            for c in 0..self.len {
                let (t0, t1) = self.element_bounds(r, c);
                for i in t0..(t0 + s.min(t1 - t0)) {
                    out.push_term(self.exps[i], self.sign(i));
                }
                out.close_element();
            }
        }
        out.seal()
    }
}

/// Elements per row tile of [`PackedTermMatrix::try_reveal_codes`]. A
/// matrix at most this large is revealed on the calling thread; a larger
/// one fans out in tiles of at least this many elements, so each thread's
/// start-up stays small next to the work it takes.
const REVEAL_TILE_ELEMS: usize = 1 << 15;

/// Largest exponent a table code carries under any encoding (`±255`
/// needs at most `2^8`), and so the top lane of the summed histogram.
const REVEAL_MAX_EXP: u8 = 8;

/// Bits per exponent lane of the summed histogram.
const LANE_BITS: u32 = 7;

/// Widest group the one-pass reveal takes: a lane counts at most this
/// many terms at one exponent, one per value.
const REVEAL_MAX_GROUP: usize = (1 << LANE_BITS) - 1;

/// One code's table entry in the form the one-pass reveal reads it.
#[derive(Clone, Copy)]
struct RevealEntry {
    terms: CodeTerms,
    /// Bit `LANE_BITS * e` set when the code has a term at exponent `e`;
    /// summed over a group, lane `e` is the group's term count at `e`.
    present: u64,
    /// Lane `w` (4 bits at `4 * w`): how many of the code's terms lie
    /// above exponent `w`.
    above: u64,
    /// `sums[j]`: the value of the code's top `j` terms.
    sums: [i16; TABLE_MAX_TERMS + 1],
}

/// The code-term table of one encoding, re-laid for the one-pass reveal:
/// entry `c + TABLE_RANGE` holds code `c`.
struct RevealTable {
    entries: Vec<RevealEntry>,
}

impl RevealTable {
    /// The shared table of `encoding`, built on first use; `None` if an
    /// entry's exponents are not strictly decreasing within
    /// `0..=REVEAL_MAX_EXP`, which the lanes need (no encoding builds
    /// such an entry; the caller would fall back to the two-step chain).
    fn of(encoding: Encoding) -> Option<&'static RevealTable> {
        static TABLES: [OnceLock<Option<RevealTable>>; Encoding::ALL.len()] =
            [const { OnceLock::new() }; Encoding::ALL.len()];
        let i = Encoding::ALL.iter().position(|&e| e == encoding)?;
        TABLES[i].get_or_init(|| RevealTable::build(encoding.table())).as_ref()
    }

    fn build(table: &TermTable) -> Option<RevealTable> {
        let mut entries = Vec::new();
        for code in -TABLE_RANGE..=TABLE_RANGE {
            let terms = table.get(code)?;
            let exps = &terms.exps[..usize::from(terms.len)];
            if exps.windows(2).any(|w| w[0] <= w[1]) || exps.iter().any(|&e| e > REVEAL_MAX_EXP) {
                return None;
            }
            let mut present = 0u64;
            for &e in exps {
                present |= 1 << (LANE_BITS * u32::from(e));
            }
            let mut above = 0u64;
            for w in 0..=REVEAL_MAX_EXP {
                let n = exps.iter().filter(|&&e| e > w).count();
                above |= u64::try_from(n).ok()? << (4 * u32::from(w));
            }
            let mut sums = [0i16; TABLE_MAX_TERMS + 1];
            for (j, s) in sums.iter_mut().enumerate() {
                *s = i16::try_from(table.truncated(code, j)?).ok()?;
            }
            entries.push(RevealEntry { terms, present, above, sums });
        }
        Some(RevealTable { entries })
    }

    /// The entry of `code`, which the caller has checked lies within
    /// `±TABLE_RANGE`.
    #[inline]
    fn entry(&self, code: i32) -> &RevealEntry {
        let slot = usize::try_from(code.wrapping_add(TABLE_RANGE));
        &self.entries[slot.expect("codes are checked against the table first")]
    }
}

/// One row tile of the one-pass reveal: whole rows of codes in, each
/// element's term end offset (relative to the tile's first term) written
/// in place and its code overwritten by its kept code, the exponent and
/// sign planes returned.
struct RevealTile<'a> {
    codes: &'a mut [i32],
    ends: &'a mut [u32],
    exps: Vec<u8>,
    /// Sign bitset, one bit per term as in [`PackedTermMatrix`].
    signs: Vec<u64>,
    tally: RevealTally,
}

impl<'a> RevealTile<'a> {
    fn new(codes: &'a mut [i32], ends: &'a mut [u32]) -> Self {
        RevealTile { codes, ends, exps: Vec::new(), signs: Vec::new(), tally: RevealTally::default() }
    }

    /// Reveal the tile's rows of `len` codes in groups of `g` under
    /// budget `budget`.
    fn run(&mut self, table: &RevealTable, len: usize, g: usize, budget: usize) {
        let b = u64::try_from(budget).unwrap_or(u64::MAX);
        let lane = (1u64 << LANE_BITS) - 1;
        // A group keeps at most `budget` terms, and every element is
        // written as a whole table entry with the cursor advanced by its
        // kept count, so the plane needs that bound plus one entry.
        let groups = self.codes.len().div_ceil(g.max(1)) + self.codes.len() / len.max(1);
        let bound = groups.saturating_mul(budget).min(self.codes.len() * TABLE_MAX_TERMS);
        let mut exps = vec![0u8; bound + TABLE_MAX_TERMS];
        let (mut terms, mut word, mut bit) = (0usize, 0u64, 0usize);
        let mut entries = [&table.entries[0]; REVEAL_MAX_GROUP];
        let mut elem = 0usize;
        for row in self.codes.chunks_exact_mut(len.max(1)) {
            for group in row.chunks_mut(g) {
                let mut total = 0usize;
                let mut hist = 0u64;
                for (entry, &c) in entries.iter_mut().zip(&*group) {
                    let e = table.entry(c);
                    *entry = e;
                    total += usize::from(e.terms.len);
                    hist += e.present;
                }
                // A group within budget keeps everything: waterline 0
                // with an unlimited take. Otherwise the waterline is the
                // highest exponent at which the terms at or above it
                // reach the budget, with the budget's remainder taken
                // from the terms at it.
                let (mut wl, mut take_at_wl) = (0u32, u64::MAX);
                if total > budget {
                    let mut cum = 0u64;
                    for e in (0..=u32::from(REVEAL_MAX_EXP)).rev() {
                        let n = (hist >> (LANE_BITS * e)) & lane;
                        if cum + n >= b {
                            (wl, take_at_wl) = (e, b - cum);
                            break;
                        }
                        cum += n;
                    }
                }
                // Terms run largest exponent first, so each value keeps a
                // prefix: everything above the waterline, then its
                // waterline term while the group's take lasts (scan
                // order).
                let mut taken = 0u64;
                for (code, e) in group.iter_mut().zip(&entries) {
                    let at = ((e.present >> (LANE_BITS * wl)) & 1 == 1) & (taken < take_at_wl);
                    taken += u64::from(at);
                    let j = usize::from((e.above >> (4 * wl)).to_le_bytes()[0] & 0xF) + usize::from(at);
                    exps[terms..terms + TABLE_MAX_TERMS].copy_from_slice(&e.terms.exps);
                    terms += j;
                    self.ends[elem] = u32::try_from(terms).expect("term count fits u32");
                    *code = i32::from(e.sums[j]);
                    elem += 1;
                    let mask = u64::from(e.terms.signs) & ((1u64 << j) - 1);
                    word |= mask << bit;
                    bit += j;
                    if bit >= 64 {
                        self.signs.push(word);
                        bit -= 64;
                        // The element's bits that did not fit (none when
                        // it ended the word exactly: its bits past `j`
                        // are clear).
                        word = mask >> (j - bit);
                    }
                }
                self.tally.group(total.min(budget), total.saturating_sub(budget));
            }
        }
        if bit > 0 {
            self.signs.push(word);
        }
        exps.truncate(terms);
        self.exps = exps;
    }
}

/// Append a tile's exponent and sign planes to `(exps, signs)`, shifting
/// its sign bitset to the term cursor so the planes end up as if every
/// term had been pushed in order.
fn append_planes(planes: &mut (Vec<u8>, Vec<u64>), exps: &[u8], signs: &[u64]) {
    let (out_exps, out_signs) = planes;
    let bit = out_exps.len() % 64;
    if bit == 0 {
        out_signs.extend_from_slice(signs);
    } else {
        for &w in signs {
            if let Some(last) = out_signs.last_mut() {
                *last |= w << bit;
            }
            out_signs.push(w >> (64 - bit));
        }
    }
    out_exps.extend_from_slice(exps);
    out_signs.truncate(out_exps.len().div_ceil(64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_quant::QuantParams;
    use tr_tensor::{Rng, Shape, Tensor};

    fn qt(values: Vec<i32>, rows: usize, cols: usize) -> QTensor {
        QTensor::from_codes(values, QuantParams { scale: 1.0, bits: 8 }, Shape::d2(rows, cols))
    }

    fn random_qt(rows: usize, cols: usize, seed: u64) -> QTensor {
        let mut rng = Rng::seed_from_u64(seed);
        let t = Tensor::randn(Shape::d2(rows, cols), 0.25, &mut rng);
        tr_quant::quantize(&t, tr_quant::calibrate_max_abs(&t, 8))
    }

    /// Each code's `TermExpr` from the encoder, in the given order: the
    /// per-element view the reference algorithms (`reveal_row`,
    /// `TermExpr::truncate_top`) work on.
    fn encoded(codes: &[i32], enc: Encoding) -> Vec<TermExpr> {
        codes.iter().map(|&v| enc.terms_of(v)).collect()
    }

    /// The packed planes read back as one `TermExpr` per element,
    /// row-major.
    fn exprs(p: &PackedTermMatrix) -> Vec<TermExpr> {
        let element = |r, c| TermExpr::from_terms(p.element_terms(r, c).collect());
        (0..p.rows()).flat_map(|r| (0..p.len()).map(move |c| element(r, c))).collect()
    }

    #[test]
    fn round_trips_through_term_matrix() {
        // Packed planes → per-element `TermExpr`s → codes, for every
        // encoding: nothing is lost or reordered on the way.
        let q = random_qt(5, 17, 1);
        for enc in Encoding::ALL {
            let packed = PackedTermMatrix::from_weights(&q, enc);
            let back = exprs(&packed);
            assert_eq!(back, encoded(q.values(), enc), "{enc} round trip");
            assert_eq!(packed.total_terms(), back.iter().map(TermExpr::len).sum::<usize>());
            let codes: Vec<i64> = back.iter().map(TermExpr::value).collect();
            assert_eq!(codes, packed.reconstruct_codes(), "{enc}");
        }
    }

    #[test]
    fn from_weights_matches_legacy_constructor() {
        // The table-driven build against the per-element encoder.
        let q = random_qt(4, 9, 2);
        for enc in Encoding::ALL {
            let direct = PackedTermMatrix::from_weights(&q, enc);
            assert_eq!((direct.rows(), direct.len()), (4, 9));
            assert_eq!(exprs(&direct), encoded(q.values(), enc), "{enc}");
        }
    }

    #[test]
    fn from_data_transposed_matches_legacy_constructor() {
        let q = random_qt(9, 4, 3);
        let vals = q.values();
        let transposed: Vec<i32> =
            (0..4).flat_map(|col| (0..9).map(move |row| vals[row * 4 + col])).collect();
        for enc in Encoding::ALL {
            let direct = PackedTermMatrix::from_data_transposed(&q, enc);
            assert_eq!((direct.rows(), direct.len()), (4, 9));
            assert_eq!(exprs(&direct), encoded(&transposed, enc), "{enc}");
        }
    }

    #[test]
    fn reveal_matches_legacy_bit_for_bit() {
        // The histogram reveal against the receding-water reference
        // applied to each row's `TermExpr`s.
        let q = random_qt(6, 64, 4);
        for enc in Encoding::ALL {
            for cfg in [
                TrConfig::new(8, 12),
                TrConfig::new(8, 4),
                TrConfig::new(2, 3),
                TrConfig::new(5, 7),
                TrConfig::new(64, 24),
            ] {
                let mut want = encoded(q.values(), enc);
                for row in want.chunks_mut(64) {
                    crate::reveal::reveal_row(row, cfg.group_size, cfg.group_budget);
                }
                let packed = PackedTermMatrix::from_weights(&q, enc).reveal(&cfg);
                let (g, k) = (cfg.group_size, cfg.group_budget);
                assert_eq!(exprs(&packed), want, "{enc} g={g} k={k}");
            }
        }
    }

    #[test]
    fn cap_terms_matches_legacy() {
        let q = random_qt(3, 11, 6);
        for s in 1..4 {
            let want: Vec<TermExpr> =
                encoded(q.values(), Encoding::Hese).iter().map(|e| e.truncate_top(s)).collect();
            let packed = PackedTermMatrix::from_weights(&q, Encoding::Hese).cap_terms(s);
            assert_eq!(exprs(&packed), want, "s={s}");
        }
    }

    #[test]
    fn signs_and_codes_survive_packing() {
        let q = qt(vec![87, -87, 31, -1, 0, 127], 2, 3);
        let packed = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        assert_eq!(packed.reconstruct_codes(), vec![87, -87, 31, -1, 0, 127]);
        assert_eq!(packed.value(0, 1), -87);
        // More than 64 terms exercises the second bitset word.
        let many = qt(vec![-127; 32], 1, 32);
        let p = PackedTermMatrix::from_weights(&many, Encoding::Binary);
        assert!(p.total_terms() > 64);
        assert!((0..p.total_terms()).all(|i| p.sign(i)));
        assert_eq!(p.reconstruct_codes(), vec![-127; 32]);
    }

    #[test]
    fn group_stats_match_legacy() {
        let q = random_qt(4, 30, 7);
        let want = encoded(q.values(), Encoding::Binary);
        let packed = PackedTermMatrix::from_weights(&q, Encoding::Binary);
        let total: usize = want.iter().map(TermExpr::len).sum();
        assert_eq!(packed.mean_terms(), total as f64 / want.len() as f64);
        assert_eq!(Some(packed.max_value_terms()), want.iter().map(TermExpr::len).max());
        for g in [1, 3, 8, 30, 64] {
            let max_group = want
                .chunks(30)
                .flat_map(|row| row.chunks(g))
                .map(|group| group.iter().map(TermExpr::len).sum::<usize>())
                .max();
            assert_eq!(Some(packed.max_group_terms_for(g)), max_group, "g={g}");
        }
    }

    #[test]
    fn empty_matrix_is_well_formed() {
        let p = PackedTermMatrix::from_vector(&[], Encoding::Binary);
        assert!(p.is_empty());
        assert_eq!(p.total_terms(), 0);
        assert_eq!(p.mean_terms(), 0.0);
        assert_eq!(p.max_value_terms(), 0);
        assert!(p.reconstruct_codes().is_empty());
    }

    #[test]
    fn checksum_is_content_derived_and_constructor_independent() {
        let q = random_qt(4, 9, 11);
        let direct = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        // The same matrix through the transposing constructor: (9, 4)
        // data whose columns are the weight rows.
        let vals = q.values();
        let transposed: Vec<i32> =
            (0..9).flat_map(|c| (0..4).map(move |r| vals[r * 9 + c])).collect();
        let via_data =
            PackedTermMatrix::from_data_transposed(&qt(transposed, 9, 4), Encoding::Hese);
        assert_eq!(direct, via_data);
        assert_eq!(direct.checksum(), via_data.checksum());
        assert_ne!(direct.checksum(), 0);
        direct.verify_integrity().unwrap();
        // Reveal / cap reseal over the new planes.
        let revealed = direct.clone().reveal(&TrConfig::new(8, 4));
        revealed.verify_integrity().unwrap();
        let capped = direct.cap_terms(2);
        capped.verify_integrity().unwrap();
        assert_ne!(revealed.checksum(), capped.checksum());
    }

    #[test]
    fn tamper_is_detected_and_deterministic() {
        let q = random_qt(3, 13, 12);
        let pristine = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        for salt in 0..32u64 {
            let mut a = pristine.clone();
            let mut b = pristine.clone();
            assert!(a.tamper(salt));
            assert!(b.tamper(salt));
            // Same salt, same flip: the campaign is replayable.
            assert_eq!(a, b, "salt {salt}");
            let err = a.verify_integrity().unwrap_err();
            assert!(matches!(err, TrError::Integrity(_)), "salt {salt}: {err}");
            // Structure stays sound: reconstruction must not panic.
            let _ = a.reconstruct_codes();
        }
        // Different salts eventually pick different sites.
        let mut x = pristine.clone();
        let mut y = pristine.clone();
        x.tamper(1);
        y.tamper(2);
        assert_ne!(x, y);
        // Empty matrices have nothing to corrupt.
        let mut empty = PackedTermMatrix::from_vector(&[], Encoding::Binary);
        assert!(!empty.tamper(7));
        empty.verify_integrity().unwrap();
    }

    #[test]
    fn one_pass_table_serves_every_encoding() {
        // Without the table the one-pass reveal falls back to the chain:
        // still exact, but no faster.
        for enc in Encoding::ALL {
            assert!(RevealTable::of(enc).is_some(), "{enc}");
        }
    }

    #[test]
    fn one_pass_reveal_matches_reveal_and_rejects_invalid_config() {
        let q = random_qt(6, 64, 13);
        for enc in Encoding::ALL {
            let cfg = TrConfig::new(8, 5).with_weight_encoding(enc);
            let want = PackedTermMatrix::from_weights(&q, enc).reveal(&cfg);
            let (got, kept) =
                PackedTermMatrix::try_reveal_codes(q.values().to_vec(), 6, 64, &cfg).unwrap();
            assert_eq!(got, want, "{enc}");
            let kept: Vec<i64> = kept.into_iter().map(i64::from).collect();
            assert_eq!(kept, want.reconstruct_codes(), "{enc}");
        }
        assert!(PackedTermMatrix::try_reveal_codes(vec![1, 2], 1, 2, &TrConfig::new(0, 4)).is_err());
        assert!(PackedTermMatrix::try_reveal_codes(vec![1, 2], 1, 2, &TrConfig::new(4, 0)).is_err());
    }

    #[test]
    fn try_reveal_rejects_invalid_config() {
        let p = PackedTermMatrix::from_vector(&[1, 2, 3], Encoding::Binary);
        assert!(p.clone().try_reveal(&TrConfig::new(0, 4)).is_err());
        assert!(p.try_reveal(&TrConfig::new(4, 0)).is_err());
    }

    #[test]
    fn weight_layout_is_row_major() {
        let q = qt(vec![1, 2, 3, 4, 5, 6], 2, 3);
        let m = PackedTermMatrix::from_weights(&q, Encoding::Binary);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.len(), 3);
        let row1: Vec<i64> = (0..3).map(|c| m.value(1, c)).collect();
        assert_eq!(row1, vec![4, 5, 6]);
    }

    #[test]
    fn data_layout_transposes_columns() {
        // X (K=2, N=3): columns become rows of length K.
        let q = qt(vec![1, 2, 3, 4, 5, 6], 2, 3);
        let m = PackedTermMatrix::from_data_transposed(&q, Encoding::Binary);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.len(), 2);
        assert_eq!([m.value(0, 0), m.value(0, 1)], [1, 4]);
        assert_eq!([m.value(2, 0), m.value(2, 1)], [3, 6]);
    }

    #[test]
    fn reveal_enforces_group_budget() {
        let q = qt(vec![127; 16], 1, 16);
        let cfg = TrConfig::new(4, 6).with_weight_encoding(Encoding::Binary);
        let m = PackedTermMatrix::from_weights(&q, Encoding::Binary).reveal(&cfg);
        assert!(m.max_group_terms_for(4) <= 6);
        // 4 groups x budget 6 = 24 terms survive out of 16 x 7 = 112.
        assert_eq!(m.total_terms(), 24);
    }

    #[test]
    fn reveal_is_identity_for_sparse_rows() {
        let q = qt(vec![1, 0, 2, 0, 4, 0, 8, 0], 1, 8);
        let cfg = TrConfig::new(4, 6);
        let before = PackedTermMatrix::from_weights(&q, Encoding::Hese);
        let total = before.total_terms();
        let after = before.reveal(&cfg);
        assert_eq!(after.total_terms(), total);
        assert_eq!(after.reconstruct_codes(), vec![1, 0, 2, 0, 4, 0, 8, 0]);
    }

    #[test]
    fn cap_terms_limits_each_value() {
        let m = PackedTermMatrix::from_vector(&[87, -87, 31], Encoding::Binary).cap_terms(2);
        assert!(m.max_value_terms() <= 2);
        assert_eq!(m.reconstruct_codes(), vec![80, -80, 24]);
    }

    #[test]
    fn mean_terms_tracks_distribution() {
        let q = qt(vec![0, 1, 3, 7], 1, 4);
        let m = PackedTermMatrix::from_weights(&q, Encoding::Binary);
        #[allow(clippy::identity_op)] // popcounts of 0, 1, 3, 7
        let expected = 0 + 1 + 2 + 3;
        assert_eq!(m.total_terms(), expected);
        assert_eq!(m.mean_terms(), 1.5);
        assert_eq!(m.max_value_terms(), 3);
    }

    #[test]
    fn groups_do_not_straddle_rows() {
        // Two rows of length 3 with g = 2: each row chunks as [2, 1];
        // terms never migrate across the row boundary.
        let q = qt(vec![127, 127, 127, 0, 0, 0], 2, 3);
        let cfg = TrConfig::new(2, 3).with_weight_encoding(Encoding::Binary);
        let m = PackedTermMatrix::from_weights(&q, Encoding::Binary).reveal(&cfg);
        // Row 0: group [127,127] keeps 3 terms, group [127] keeps 3.
        assert_eq!((0..3).map(|c| m.element_len(0, c)).sum::<usize>(), 6);
        assert_eq!((0..3).map(|c| m.element_len(1, c)).sum::<usize>(), 0);
    }
}
