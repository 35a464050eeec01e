//! Deterministic fault injection and resilience for the hardware model.
//!
//! Real deployments of bit-serial accelerators worry less about the
//! fault-free cycle counts this crate models elsewhere and more about
//! what a flipped exponent bit, a stuck tMAC cell, or a DRAM soft error
//! does to the network's output. This module defines the fault models
//! and the mitigation machinery:
//!
//! * **Fault models** — single-bit flips in term exponent fields and
//!   sign bits, dropped operand terms, stuck-at-zero / stuck-at-one tMAC
//!   cells, and DRAM word bit errors. Every decision is a pure hash of
//!   `(seed, site kind, site coordinates)`, so injection is fully
//!   deterministic for a given [`FaultConfig`] and independent of
//!   traversal order, and `rate = 0` is exactly a no-op.
//! * **Mitigation** — saturating coefficient accumulation (see
//!   [`CoefficientVector::add_term_saturating`]), per-group range guards
//!   that clamp out-of-band partial sums, and optional redundant-cell
//!   majority voting. Guards count *detected* corruptions; everything
//!   injected but never caught is *silent* (see [`FaultReport`]).
//!
//! The functional entry point is
//! [`SystolicArray::execute_with_faults`](crate::SystolicArray::execute_with_faults)
//! (wrapped by
//! [`TrSystem::execute_with_faults`](crate::TrSystem::execute_with_faults));
//! the bench experiment `faults` sweeps rate × TR config over zoo models
//! and reports graceful-degradation curves.

use crate::coeff::CoefficientVector;
use tr_core::TrError;
use tr_encoding::{Term, TermExpr};

/// Width of the operand exponent field a flip can land in. Operand
/// exponents occupy 0..=8 (HESE over 8-bit codes), stored in a 4-bit
/// field, so a flipped bit can push an exponent up to 15 — an illegal
/// address the exponent range guard can catch.
pub const EXP_FIELD_BITS: u32 = 4;

/// SplitMix64 finalizer — the mixing core of every site hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless site hash: the same `(seed, stream, coordinates)` always
/// produces the same draw, regardless of evaluation order.
fn site_hash(seed: u64, stream: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(seed ^ mix(stream ^ mix(a ^ mix(b ^ mix(c)))))
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Site-kind discriminants feeding [`site_hash`]; distinct streams keep
/// fault decisions at the same coordinates independent.
mod stream {
    pub const WEIGHT_DROP: u64 = 1;
    pub const WEIGHT_EXP: u64 = 2;
    pub const WEIGHT_SIGN: u64 = 3;
    pub const DATA_DROP: u64 = 4;
    pub const DATA_EXP: u64 = 5;
    pub const DATA_SIGN: u64 = 6;
    pub const STUCK_CELL: u64 = 7;
    pub const STUCK_POLARITY: u64 = 8;
    pub const DRAM_BIT: u64 = 9;
    pub const DRAM_BIT_CHOICE: u64 = 10;
    pub const EXP_BIT_CHOICE: u64 = 12;
}

/// Which operand stream a term belongs to (faults are keyed per stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Weight-buffer terms.
    Weight,
    /// Data-path terms.
    Data,
}

/// Stuck-at polarity of a faulty tMAC cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckAt {
    /// The cell's accumulator reads as all zeros.
    Zero,
    /// The cell's accumulator reads as all ones (every coefficient 1).
    One,
}

impl StuckAt {
    /// The group value a stuck cell reports.
    pub fn value(self) -> i64 {
        match self {
            StuckAt::Zero => 0,
            // All 15 coefficients read 1: sum of 2^0 ..= 2^14.
            StuckAt::One => (1i64 << crate::coeff::COEFF_LEN) - 1,
        }
    }
}

/// Mitigation knobs paired with fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mitigation {
    /// Saturate coefficient accumulation at its 12-bit rails and drop
    /// illegal exponent addresses (both counted as detected) instead of
    /// wrapping silently.
    pub saturate: bool,
    /// Clamp each group's partial sum to the `g × 127²` band a fault-free
    /// group can never leave (clamps are counted as detected).
    pub range_guard: bool,
    /// Redundant cells voting on each group value; 1 disables voting.
    /// Must be odd so the median is a majority.
    pub voting_replicas: usize,
}

impl Default for Mitigation {
    fn default() -> Self {
        Mitigation { saturate: true, range_guard: true, voting_replicas: 1 }
    }
}

impl Mitigation {
    /// No mitigation at all: silent wrapping everywhere.
    pub fn none() -> Mitigation {
        Mitigation { saturate: false, range_guard: false, voting_replicas: 1 }
    }

    /// Guards plus `replicas`-way redundant-cell voting.
    pub fn with_voting(replicas: usize) -> Mitigation {
        Mitigation { voting_replicas: replicas, ..Mitigation::default() }
    }

    fn validate(&self) -> Result<(), TrError> {
        if self.voting_replicas == 0 || self.voting_replicas.is_multiple_of(2) {
            return Err(TrError::InvalidFaultConfig(format!(
                "voting replicas must be odd and positive (got {})",
                self.voting_replicas
            )));
        }
        Ok(())
    }
}

/// A deterministic fault-injection campaign: seed, per-site rate, which
/// fault kinds are armed, and the mitigation in effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Root seed of every site hash.
    pub seed: u64,
    /// Per-site fault probability in `[0, 1]`; 0 is an exact no-op.
    pub rate: f64,
    /// Arm exponent/sign flips and dropped terms on operand streams.
    pub term_faults: bool,
    /// Arm stuck-at-zero / stuck-at-one tMAC cells.
    pub stuck_cells: bool,
    /// Arm DRAM word bit errors on stored weight codes.
    pub dram_faults: bool,
    /// Mitigation in effect.
    pub mitigation: Mitigation,
}

impl FaultConfig {
    /// All fault kinds armed at `rate`, default mitigation.
    pub fn new(seed: u64, rate: f64) -> Result<FaultConfig, TrError> {
        let cfg = FaultConfig {
            seed,
            rate,
            term_faults: true,
            stuck_cells: true,
            dram_faults: true,
            mitigation: Mitigation::default(),
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// A fault-free campaign (rate 0) — useful as the sweep baseline.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig::new(seed, 0.0).expect("rate 0 is always valid")
    }

    /// Builder-style: replace the mitigation.
    pub fn with_mitigation(mut self, m: Mitigation) -> FaultConfig {
        self.mitigation = m;
        self
    }

    /// Check rate and mitigation invariants.
    pub fn validate(&self) -> Result<(), TrError> {
        if !self.rate.is_finite() || !(0.0..=1.0).contains(&self.rate) {
            return Err(TrError::InvalidFaultConfig(format!(
                "fault rate must be in [0, 1] (got {})",
                self.rate
            )));
        }
        self.mitigation.validate()
    }
}

/// Totals of injected faults by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Term exponent-field bit flips.
    pub exp_flips: u64,
    /// Term sign-bit flips.
    pub sign_flips: u64,
    /// Operand terms dropped before the tMAC.
    pub dropped_terms: u64,
    /// Stuck tMAC cell slots (counted once per stuck cell, not per use).
    pub stuck_cells: u64,
    /// DRAM word bit errors.
    pub dram_bit_flips: u64,
}

impl FaultCounts {
    /// Total injected faults across kinds.
    pub fn total(&self) -> u64 {
        self.exp_flips
            + self.sign_flips
            + self.dropped_terms
            + self.stuck_cells
            + self.dram_bit_flips
    }

    /// Accumulate another count set.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.exp_flips += other.exp_flips;
        self.sign_flips += other.sign_flips;
        self.dropped_terms += other.dropped_terms;
        self.stuck_cells += other.stuck_cells;
        self.dram_bit_flips += other.dram_bit_flips;
    }
}

/// What a campaign injected and what the guards caught.
///
/// `detected` counts guard events (saturations, dropped illegal
/// exponents, range-guard clamps, vote disagreements); one injected
/// fault can trigger several guard events and vice versa, so `silent()`
/// is the conservative floor `injected − detected`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Injected faults by kind.
    pub injected: FaultCounts,
    /// Corruptions caught by a guard.
    pub detected: u64,
    /// Corruptions repaired (outvoted) by redundant-cell voting.
    pub corrected: u64,
}

impl FaultReport {
    /// Injected faults never caught by any guard (saturating floor).
    pub fn silent(&self) -> u64 {
        self.injected.total().saturating_sub(self.detected)
    }

    /// Accumulate another report (e.g. across layers).
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected.merge(&other.injected);
        self.detected += other.detected;
        self.corrected += other.corrected;
    }
}

/// The injection engine: owns a [`FaultConfig`] and tallies a
/// [`FaultReport`] while the hooks in `systolic` and the `faults`
/// experiment consult it.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    report: FaultReport,
}

impl FaultInjector {
    /// Build an injector after validating the config.
    pub fn new(cfg: FaultConfig) -> Result<FaultInjector, TrError> {
        cfg.validate()?;
        Ok(FaultInjector { cfg, report: FaultReport::default() })
    }

    /// The campaign configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The report accumulated so far.
    pub fn report(&self) -> FaultReport {
        self.report
    }

    /// Record guard detections (used by the mitigation hooks).
    pub fn note_detected(&mut self, n: u64) {
        self.report.detected += n;
    }

    fn strikes(&self, stream: u64, a: u64, b: u64, c: u64) -> bool {
        self.cfg.rate > 0.0 && unit(site_hash(self.cfg.seed, stream, a, b, c)) < self.cfg.rate
    }

    fn pick(&self, stream: u64, a: u64, b: u64, c: u64, n: u64) -> u64 {
        site_hash(self.cfg.seed, stream, a, b, c) % n.max(1)
    }

    /// Corrupt one stored term at coordinates `(row, elem, idx)` of an
    /// operand stream. Returns `None` when the term is dropped.
    pub fn corrupt_term(
        &mut self,
        t: Term,
        op: Operand,
        row: u64,
        elem: u64,
        idx: u64,
    ) -> Option<Term> {
        if !self.cfg.term_faults || self.cfg.rate == 0.0 {
            return Some(t);
        }
        let (drop_s, exp_s, sign_s) = match op {
            Operand::Weight => (stream::WEIGHT_DROP, stream::WEIGHT_EXP, stream::WEIGHT_SIGN),
            Operand::Data => (stream::DATA_DROP, stream::DATA_EXP, stream::DATA_SIGN),
        };
        // Coordinates pack the term index into the third slot.
        if self.strikes(drop_s, row, elem, idx) {
            self.report.injected.dropped_terms += 1;
            return None;
        }
        let mut t = t;
        if self.strikes(exp_s, row, elem, idx) {
            let bit = self.pick(stream::EXP_BIT_CHOICE, row, elem, idx, EXP_FIELD_BITS as u64);
            t.exp ^= 1 << bit;
            self.report.injected.exp_flips += 1;
        }
        if self.strikes(sign_s, row, elem, idx) {
            t.neg = !t.neg;
            self.report.injected.sign_flips += 1;
        }
        Some(t)
    }

    /// Corrupt one stored term expression (all terms of one operand
    /// element). With `rate == 0` this is an exact clone.
    pub fn corrupt_expr(&mut self, expr: &TermExpr, op: Operand, row: u64, elem: u64) -> TermExpr {
        if !self.cfg.term_faults || self.cfg.rate == 0.0 {
            return expr.clone();
        }
        let terms: Vec<Term> = expr
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| self.corrupt_term(t, op, row, elem, i as u64))
            .collect();
        TermExpr::from_terms(terms)
    }

    /// Whether the physical cell `(row, col)` replica `rep` is stuck, and
    /// at which polarity. Purely a hash — the same cell is stuck for the
    /// whole campaign. Does **not** tally; use
    /// [`FaultInjector::note_stuck_cell`] once per discovered stuck slot.
    pub fn stuck_cell(&self, row: u64, col: u64, rep: u64) -> Option<StuckAt> {
        if !self.cfg.stuck_cells || !self.strikes(stream::STUCK_CELL, row, col, rep) {
            return None;
        }
        Some(if self.pick(stream::STUCK_POLARITY, row, col, rep, 2) == 0 {
            StuckAt::Zero
        } else {
            StuckAt::One
        })
    }

    /// Tally one stuck cell slot in the report.
    pub fn note_stuck_cell(&mut self) {
        self.report.injected.stuck_cells += 1;
    }

    /// DRAM read of 8-bit two's-complement weight codes: each byte may
    /// take one bit flip. With the range guard on, codes pushed outside
    /// the symmetric 8-bit range `[-127, 127]` are clamped back and
    /// counted detected; otherwise the corrupt code passes silently.
    pub fn corrupt_dram_codes(&mut self, codes: &mut [i32], base: u64) -> u64 {
        if !self.cfg.dram_faults || self.cfg.rate == 0.0 {
            return 0;
        }
        let mut flips = 0u64;
        for (i, c) in codes.iter_mut().enumerate() {
            let addr = base + i as u64;
            if !self.strikes(stream::DRAM_BIT, addr, 0, 0) {
                continue;
            }
            let bit = self.pick(stream::DRAM_BIT_CHOICE, addr, 0, 0, 8);
            // The truncating/sign-loss casts are the modeled storage
            // format: DRAM holds the low 8 bits of the code, and the
            // flip strikes that raw byte.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let byte = (*c as i8 as u8) ^ (1u8 << bit);
            let mut v = byte as i8 as i32;
            self.report.injected.dram_bit_flips += 1;
            flips += 1;
            if self.cfg.mitigation.range_guard && v.abs() > 127 {
                // -128 is the only representable out-of-band byte value.
                v = v.clamp(-127, 127);
                self.report.detected += 1;
            }
            *c = v;
        }
        flips
    }

    /// The per-group partial-sum band a fault-free group of `g` 8-bit
    /// code pairs can never leave: `g × 127²`.
    pub fn group_bound(g: usize) -> i64 {
        g as i64 * 127 * 127
    }

    /// Apply the per-group range guard to a group value: clamp to the
    /// band and count a detection when the clamp fires.
    pub fn guard_group_value(&mut self, value: i64, g: usize) -> i64 {
        if !self.cfg.mitigation.range_guard {
            return value;
        }
        let bound = Self::group_bound(g);
        if value > bound || value < -bound {
            self.report.detected += 1;
            value.clamp(-bound, bound)
        } else {
            value
        }
    }

    /// Resolve one group value across redundant replicas: median vote.
    /// Disagreement counts as detected; a strict majority for the median
    /// counts as corrected. `values` must be non-empty and odd-length.
    pub fn vote(&mut self, values: &mut [i64]) -> i64 {
        debug_assert!(!values.is_empty() && values.len() % 2 == 1);
        if values.len() == 1 {
            return values[0];
        }
        values.sort_unstable();
        let median = values[values.len() / 2];
        if values.iter().any(|&v| v != median) {
            self.report.detected += 1;
            let agree = values.iter().filter(|&&v| v == median).count();
            if agree > values.len() / 2 {
                self.report.corrected += 1;
            }
        }
        median
    }
}

/// Mitigated accumulation of one term-pair product into a coefficient
/// vector: routes to the saturating or wrapping path per the mitigation
/// and tallies detections. Returns `true` when applied exactly.
pub fn accumulate_mitigated(
    cv: &mut CoefficientVector,
    exp: u8,
    negative: bool,
    inj: &mut FaultInjector,
) -> bool {
    use crate::coeff::SaturatingAdd;
    if inj.config().mitigation.saturate {
        match cv.add_term_saturating(exp, negative) {
            SaturatingAdd::Exact => true,
            SaturatingAdd::Saturated | SaturatingAdd::DroppedExponent => {
                inj.note_detected(1);
                false
            }
        }
    } else {
        cv.add_term_wrapping(exp, negative);
        true
    }
}

/// Health tripwire over a stream of [`FaultReport`]s.
///
/// Consumers that run periodic datapath canaries (e.g. the serving layer
/// in `tr-serve`) feed each campaign's report in; once the *silent*
/// corruption accumulated over the sliding window crosses the threshold
/// the monitor latches tripped, signalling that the TR datapath can no
/// longer be trusted and execution should fall back to the plain QT path
/// until an operator (or a clean re-check) resets it.
#[derive(Debug, Clone)]
pub struct FaultMonitor {
    /// Reports per sliding window.
    window: usize,
    /// Silent corruptions within one window that latch the trip.
    silent_threshold: u64,
    /// Silent counts of the most recent reports (newest last).
    recent: std::collections::VecDeque<u64>,
    /// Latched trip state.
    tripped: bool,
    /// Total reports observed.
    seen: u64,
}

impl FaultMonitor {
    /// A monitor that trips when the last `window` reports accumulate
    /// more than `silent_threshold` silent corruptions.
    ///
    /// # Panics
    /// If `window` is zero (a windowless monitor can never trip).
    #[must_use]
    pub fn new(window: usize, silent_threshold: u64) -> FaultMonitor {
        assert!(window > 0, "FaultMonitor window must be non-zero");
        FaultMonitor {
            window,
            silent_threshold,
            recent: std::collections::VecDeque::with_capacity(window),
            tripped: false,
            seen: 0,
        }
    }

    /// Feed one campaign report. Returns the (possibly newly latched)
    /// trip state.
    pub fn record(&mut self, report: &FaultReport) -> bool {
        static MONITOR_REPORTS: tr_obs::Counter = tr_obs::Counter::new("hw.fault.reports");
        static MONITOR_SILENT: tr_obs::Counter = tr_obs::Counter::new("hw.fault.silent");
        static MONITOR_TRIPS: tr_obs::Counter = tr_obs::Counter::new("hw.fault.trips");
        MONITOR_REPORTS.inc();
        MONITOR_SILENT.add(report.silent());
        self.seen += 1;
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(report.silent());
        let windowed: u64 = self.recent.iter().sum();
        if windowed > self.silent_threshold && !self.tripped {
            self.tripped = true;
            MONITOR_TRIPS.inc();
        }
        self.tripped
    }

    /// Whether the monitor has latched.
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Silent corruptions currently inside the window.
    #[must_use]
    pub fn windowed_silent(&self) -> u64 {
        self.recent.iter().sum()
    }

    /// Total reports observed since construction or the last reset.
    #[must_use]
    pub fn reports_seen(&self) -> u64 {
        self.seen
    }

    /// Clear the latch and the window (after repair / re-verification).
    pub fn reset(&mut self) {
        self.recent.clear();
        self.tripped = false;
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_encoding::Encoding;

    fn expr(v: i32) -> TermExpr {
        Encoding::Hese.terms_of(v)
    }

    #[test]
    fn rate_zero_is_a_strict_noop() {
        let mut inj = FaultInjector::new(FaultConfig::none(7)).unwrap();
        let e = expr(93);
        assert_eq!(inj.corrupt_expr(&e, Operand::Weight, 3, 5), e);
        let mut codes = vec![1, -127, 63];
        assert_eq!(inj.corrupt_dram_codes(&mut codes, 0), 0);
        assert_eq!(codes, vec![1, -127, 63]);
        assert_eq!(inj.stuck_cell(0, 0, 0), None);
        assert_eq!(inj.report(), FaultReport::default());
    }

    #[test]
    fn injection_is_deterministic_and_order_independent() {
        let cfg = FaultConfig::new(42, 0.2).unwrap();
        let mut a = FaultInjector::new(cfg).unwrap();
        let mut b = FaultInjector::new(cfg).unwrap();
        let exprs: Vec<TermExpr> = (1..40).map(expr).collect();
        let fa: Vec<TermExpr> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| a.corrupt_expr(e, Operand::Data, 0, i as u64))
            .collect();
        // Reverse traversal order: per-site results must be identical.
        let mut fb: Vec<TermExpr> = exprs
            .iter()
            .enumerate()
            .rev()
            .map(|(i, e)| b.corrupt_expr(e, Operand::Data, 0, i as u64))
            .collect();
        fb.reverse();
        assert_eq!(fa, fb);
        assert_eq!(a.report(), b.report());
        assert!(a.report().injected.total() > 0, "rate 0.2 over ~80 terms should strike");
    }

    #[test]
    fn distinct_seeds_give_distinct_campaigns() {
        let mut a = FaultInjector::new(FaultConfig::new(1, 0.3).unwrap()).unwrap();
        let mut b = FaultInjector::new(FaultConfig::new(2, 0.3).unwrap()).unwrap();
        #[allow(clippy::cast_sign_loss)] // v ranges over 1..60
        let out_a: Vec<TermExpr> =
            (1..60).map(|v| a.corrupt_expr(&expr(v), Operand::Weight, v as u64, 0)).collect();
        #[allow(clippy::cast_sign_loss)] // v ranges over 1..60
        let out_b: Vec<TermExpr> =
            (1..60).map(|v| b.corrupt_expr(&expr(v), Operand::Weight, v as u64, 0)).collect();
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn dram_guard_clamps_out_of_band_codes() {
        // Force a campaign dense enough to hit -128 eventually: flipping
        // bit 7 of 0 gives -128, which the guard must clamp to -127.
        let cfg = FaultConfig::new(11, 1.0).unwrap();
        let mut inj = FaultInjector::new(cfg).unwrap();
        let mut codes = vec![0i32; 64];
        let flips = inj.corrupt_dram_codes(&mut codes, 0);
        assert_eq!(flips, 64);
        assert!(codes.iter().all(|&c| (-127..=127).contains(&c)));
        // Without the guard the same campaign leaves raw corruption.
        let raw_cfg = cfg.with_mitigation(Mitigation::none());
        let mut raw = FaultInjector::new(raw_cfg).unwrap();
        let mut raw_codes = vec![0i32; 64];
        raw.corrupt_dram_codes(&mut raw_codes, 0);
        assert!(raw_codes.contains(&-128), "some byte flips bit 7");
    }

    #[test]
    fn group_range_guard_clamps_and_counts() {
        let mut inj = FaultInjector::new(FaultConfig::new(0, 0.5).unwrap()).unwrap();
        let bound = FaultInjector::group_bound(8);
        assert_eq!(inj.guard_group_value(bound + 5, 8), bound);
        assert_eq!(inj.guard_group_value(-(bound + 5), 8), -bound);
        assert_eq!(inj.guard_group_value(bound - 1, 8), bound - 1);
        assert_eq!(inj.report().detected, 2);
    }

    #[test]
    fn vote_majority_wins_and_counts() {
        let mut inj = FaultInjector::new(FaultConfig::new(0, 0.5).unwrap()).unwrap();
        assert_eq!(inj.vote(&mut [7, 7, 7]), 7);
        assert_eq!(inj.report().detected, 0);
        assert_eq!(inj.vote(&mut [7, 0, 7]), 7);
        assert_eq!(inj.report().detected, 1);
        assert_eq!(inj.report().corrected, 1);
    }

    #[test]
    fn config_validation_rejects_bad_input() {
        assert!(FaultConfig::new(0, -0.1).is_err());
        assert!(FaultConfig::new(0, 1.5).is_err());
        assert!(FaultConfig::new(0, f64::NAN).is_err());
        let bad_vote = FaultConfig::new(0, 0.1).unwrap().with_mitigation(Mitigation::with_voting(2));
        assert!(FaultInjector::new(bad_vote).is_err());
    }

    #[test]
    fn monitor_trips_on_windowed_silent_corruption_and_resets() {
        let mut m = FaultMonitor::new(3, 5);
        let silent = |n: u64| FaultReport {
            injected: FaultCounts { exp_flips: n, ..FaultCounts::default() },
            detected: 0,
            corrected: 0,
        };
        assert!(!m.record(&silent(2)));
        assert!(!m.record(&silent(3))); // window sum 5, not > threshold
        assert!(m.record(&silent(1))); // 6 > 5: latched
        assert!(m.tripped());
        // Latch holds even as clean reports push the window down.
        assert!(m.record(&FaultReport::default()));
        assert!(m.record(&FaultReport::default()));
        assert!(m.record(&FaultReport::default()));
        assert_eq!(m.windowed_silent(), 0);
        assert!(m.tripped());
        m.reset();
        assert!(!m.tripped());
        assert_eq!(m.reports_seen(), 0);
        // Detected corruption does not trip the monitor; silent does.
        let caught = FaultReport {
            injected: FaultCounts { exp_flips: 100, ..FaultCounts::default() },
            detected: 100,
            corrected: 0,
        };
        assert!(!m.record(&caught));
    }

    #[test]
    fn report_merge_adds_counts() {
        let mut a = FaultReport {
            injected: FaultCounts { exp_flips: 2, ..FaultCounts::default() },
            detected: 1,
            corrected: 0,
        };
        let b = FaultReport {
            injected: FaultCounts { sign_flips: 3, ..FaultCounts::default() },
            detected: 2,
            corrected: 1,
        };
        a.merge(&b);
        assert_eq!(a.injected.total(), 5);
        assert_eq!(a.detected, 3);
        assert_eq!(a.silent(), 2);
    }
}
