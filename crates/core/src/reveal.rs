//! The receding-water algorithm (§III-C, Fig. 6).
//!
//! Given the term expansions of a group of `g` values and a budget `k`,
//! the algorithm scans a *waterline* from the largest exponent downwards,
//! keeping terms row by row (and, within a row, value by value in index
//! order) until `k` terms have been revealed. Everything below the final
//! waterline is pruned. Groups holding `k` or fewer terms pass through
//! untouched — which, given the normal-like distributions of trained DNNs,
//! is the overwhelmingly common case.

use crate::error::TrError;
use tr_encoding::{Term, TermExpr};
use tr_obs::{as_u64, Counter};

/// Groups examined by the receding-water pass.
static REVEAL_GROUPS: Counter = Counter::new("core.reveal.groups");
/// Groups whose total exceeded the budget (the pruning slow path).
static REVEAL_GROUPS_PRUNED: Counter = Counter::new("core.reveal.groups_pruned");
/// Terms surviving the waterline, summed over groups.
static REVEAL_TERMS_KEPT: Counter = Counter::new("core.reveal.terms_kept");
/// Terms dropped below the waterline, summed over groups.
static REVEAL_TERMS_PRUNED: Counter = Counter::new("core.reveal.terms_pruned");

fn observe_outcome(out: &RevealOutcome) {
    observe_group(out.kept_terms, out.pruned_terms);
}

/// Record one group's reveal outcome on the shared counters. The packed
/// reveal (`crate::packed`) goes through the same funnel so both paths are
/// indistinguishable to the observability layer.
pub(crate) fn observe_group(kept: usize, pruned: usize) {
    REVEAL_GROUPS.inc();
    if pruned > 0 {
        REVEAL_GROUPS_PRUNED.inc();
    }
    REVEAL_TERMS_KEPT.add(as_u64(kept));
    REVEAL_TERMS_PRUNED.add(as_u64(pruned));
}

/// Group outcomes summed locally and recorded at once: the row-parallel
/// reveal tallies each tile on its own thread, and the shared counters
/// end up exactly where one [`observe_group`] call per group leaves them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RevealTally {
    groups: u64,
    pruned_groups: u64,
    kept: u64,
    pruned: u64,
}

impl RevealTally {
    /// Count one group (what [`observe_group`] records for it).
    #[inline]
    pub(crate) fn group(&mut self, kept: usize, pruned: usize) {
        self.groups += 1;
        self.pruned_groups += u64::from(pruned > 0);
        self.kept += as_u64(kept);
        self.pruned += as_u64(pruned);
    }

    /// Record the tallied groups on the shared counters, touching the
    /// same counters the per-group calls would (a counter registers on
    /// its first `add`, even of 0).
    pub(crate) fn observe(self) {
        if self.groups == 0 {
            return;
        }
        REVEAL_GROUPS.add(self.groups);
        if self.pruned_groups > 0 {
            REVEAL_GROUPS_PRUNED.add(self.pruned_groups);
        }
        REVEAL_TERMS_KEPT.add(self.kept);
        REVEAL_TERMS_PRUNED.add(self.pruned);
    }
}

/// What the receding-water pass did to one group.
#[derive(Debug, Clone, PartialEq)]
pub struct RevealOutcome {
    /// The per-value term expressions after pruning.
    pub revealed: Vec<TermExpr>,
    /// Terms kept (≤ budget).
    pub kept_terms: usize,
    /// Terms pruned from the group.
    pub pruned_terms: usize,
    /// The exponent at which the budget ran out, if pruning occurred:
    /// terms with smaller exponents (and later same-exponent terms) were
    /// dropped. `None` means the whole group fit in the budget.
    pub waterline_exp: Option<u8>,
}

impl RevealOutcome {
    /// True when no term was pruned.
    pub fn lossless(&self) -> bool {
        self.pruned_terms == 0
    }
}

/// Apply receding water to one group.
///
/// # Panics
/// If `budget == 0` (a zero budget would zero the group; configure that
/// explicitly upstream if ever needed). Use [`try_reveal_group`] to get
/// a `Result` instead.
pub fn reveal_group(group: &[TermExpr], budget: usize) -> RevealOutcome {
    match try_reveal_group(group, budget) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`reveal_group`]: rejects a zero budget instead of panicking.
pub fn try_reveal_group(group: &[TermExpr], budget: usize) -> Result<RevealOutcome, TrError> {
    try_reveal_group_with_tiebreak(group, budget, TieBreak::RowMajor)
}

/// How the last waterline row is split when the budget runs out mid-row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Value-index order (the hardware comparator's behavior; default).
    RowMajor,
    /// Prefer the values that have kept the fewest terms so far, spreading
    /// the final row across the group (a fairness ablation; costs an
    /// extra priority pass in hardware).
    Spread,
}

/// [`reveal_group`] with an explicit tie-break policy for the waterline
/// row. `TieBreak::RowMajor` is identical to [`reveal_group`].
pub fn reveal_group_with_tiebreak(
    group: &[TermExpr],
    budget: usize,
    tiebreak: TieBreak,
) -> RevealOutcome {
    match try_reveal_group_with_tiebreak(group, budget, tiebreak) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`reveal_group_with_tiebreak`]: rejects a zero budget instead
/// of panicking.
pub fn try_reveal_group_with_tiebreak(
    group: &[TermExpr],
    budget: usize,
    tiebreak: TieBreak,
) -> Result<RevealOutcome, TrError> {
    if budget == 0 {
        return Err(TrError::InvalidConfig("group budget must be positive".into()));
    }
    let total: usize = group.iter().map(TermExpr::len).sum();
    if total <= budget {
        // Fast path: nothing to prune (the common case the paper relies on).
        let out = RevealOutcome {
            revealed: group.to_vec(),
            kept_terms: total,
            pruned_terms: 0,
            waterline_exp: None,
        };
        observe_outcome(&out);
        return Ok(out);
    }

    let max_exp = group.iter().filter_map(TermExpr::max_exp).max().unwrap_or(0);
    let mut kept: Vec<Vec<Term>> = vec![Vec::new(); group.len()];
    let mut kept_count = 0usize;
    let mut waterline = None;
    // One waterline row: the values holding a term at the row's exponent
    // (each value has at most one), with that term.
    let mut row: Vec<(usize, Term)> = Vec::with_capacity(group.len());
    'scan: for e in (0..=max_exp).rev() {
        row.clear();
        row.extend(group.iter().enumerate().filter_map(|(i, expr)| {
            expr.iter().find(|t| t.exp == e).map(|&t| (i, t))
        }));
        if tiebreak == TieBreak::Spread {
            // Poorest-first. The value index breaks ties, so the keys are
            // distinct and the revealed group is a function of the input
            // alone, not of how the sort orders equal keys.
            row.sort_by_key(|&(i, _)| (kept[i].len(), i));
        }
        for &(i, t) in &row {
            kept[i].push(t);
            kept_count += 1;
            if kept_count == budget {
                waterline = Some(e);
                break 'scan;
            }
        }
    }
    let out = RevealOutcome {
        revealed: kept.into_iter().map(TermExpr::from_terms).collect(),
        kept_terms: kept_count,
        pruned_terms: total - kept_count,
        waterline_exp: waterline,
    };
    observe_outcome(&out);
    Ok(out)
}

/// Apply receding water to every `group_size`-chunk of a row of term
/// expressions (the last chunk may be shorter). Returns the revealed
/// expressions in place of the originals.
///
/// # Panics
/// If `group_size == 0` or `budget == 0`; use [`try_reveal_row`] to get
/// a `Result` instead.
pub fn reveal_row(row: &mut [TermExpr], group_size: usize, budget: usize) {
    if let Err(e) = try_reveal_row(row, group_size, budget) {
        panic!("{e}");
    }
}

/// Fallible [`reveal_row`]: rejects a zero group size or budget instead
/// of panicking. On error the row is left untouched.
pub fn try_reveal_row(row: &mut [TermExpr], group_size: usize, budget: usize) -> Result<(), TrError> {
    if group_size == 0 {
        return Err(TrError::InvalidConfig("group size must be positive".into()));
    }
    if budget == 0 {
        return Err(TrError::InvalidConfig("group budget must be positive".into()));
    }
    for chunk in row.chunks_mut(group_size) {
        let outcome = try_reveal_group(chunk, budget)?;
        for (slot, revealed) in chunk.iter_mut().zip(outcome.revealed) {
            *slot = revealed;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_encoding::Encoding;

    fn exprs(values: &[i32], enc: Encoding) -> Vec<TermExpr> {
        values.iter().map(|&v| enc.terms_of(v)).collect()
    }

    #[test]
    fn paper_fig6_walkthrough() {
        // Fig. 6: group (w1, w2, w3) with g = 3, k = 4. We reconstruct the
        // figure's situation with binary encodings: the budget is reached
        // at the 2^3 row and lower-order terms are pruned. Using
        // w = [72, 41, 81]: terms 72 = 2^6+2^3, 41 = 2^5+2^3+2^0,
        // 81 = 2^6+2^4+2^0.
        let group = exprs(&[72, 41, 81], Encoding::Binary);
        let out = reveal_group(&group, 4);
        assert_eq!(out.kept_terms, 4);
        assert_eq!(out.pruned_terms, 4); // 2 + 3 + 3 = 8 total terms
        // Scan order: 2^6 row -> w1, w3; 2^5 row -> w2; 2^4 row -> w3.
        // Budget of 4 reached at exponent 4; the 2^3 and 2^0 terms drop.
        assert_eq!(out.waterline_exp, Some(4));
        assert_eq!(out.revealed[0].value(), 64);
        assert_eq!(out.revealed[1].value(), 32);
        assert_eq!(out.revealed[2].value(), 80); // 81 -> 80, as in Fig. 6
    }

    #[test]
    fn under_budget_groups_pass_through() {
        // Fig. 7 group (a): six terms, budget six — TR is lossless where
        // 4-bit QT would truncate every 2^0/2^1 term.
        let group = exprs(&[3, 5, 9], Encoding::Binary);
        let out = reveal_group(&group, 6);
        assert!(out.lossless());
        assert_eq!(out.waterline_exp, None);
        let values: Vec<i64> = out.revealed.iter().map(TermExpr::value).collect();
        assert_eq!(values, vec![3, 5, 9]);
    }

    #[test]
    fn revealed_values_never_gain_magnitude_in_binary() {
        // With nonnegative binary terms, pruning can only shrink values.
        for budget in 1..=8 {
            let group = exprs(&[127, 93, 55, 11], Encoding::Binary);
            let out = reveal_group(&group, budget);
            for (r, &orig) in out.revealed.iter().zip(&[127i64, 93, 55, 11]) {
                assert!(r.value() <= orig, "budget {budget}");
                assert!(r.value() >= 0);
            }
        }
    }

    #[test]
    fn kept_terms_equal_budget_when_pruning() {
        let group = exprs(&[127, 127, 127], Encoding::Binary);
        for budget in 1..21 {
            let out = reveal_group(&group, budget);
            assert_eq!(out.kept_terms, budget);
            assert_eq!(out.pruned_terms, 21 - budget);
        }
        let out = reveal_group(&group, 21);
        assert!(out.lossless());
    }

    #[test]
    fn larger_terms_survive_first() {
        let group = exprs(&[96, 3], Encoding::Binary); // 2^6+2^5, 2^1+2^0
        let out = reveal_group(&group, 2);
        assert_eq!(out.revealed[0].value(), 96);
        assert_eq!(out.revealed[1].value(), 0);
    }

    #[test]
    fn row_major_tie_break_within_waterline() {
        // Both values have a 2^2 term; the earlier value wins the last
        // budget slot (the figure's left-to-right scan).
        let group = exprs(&[4, 4], Encoding::Binary);
        let out = reveal_group(&group, 1);
        assert_eq!(out.revealed[0].value(), 4);
        assert_eq!(out.revealed[1].value(), 0);
        assert_eq!(out.waterline_exp, Some(2));
    }

    #[test]
    fn signed_encodings_rank_by_exponent_magnitude() {
        // HESE of 31 = +2^5 - 2^0. With budget 2 the 2^5 term wins the
        // first slot; at the 2^0 waterline the scan reaches the first
        // value's -2^0 before the second value's +2^0, so 31 survives
        // intact and the lone 1 is pruned.
        let group = exprs(&[31, 1], Encoding::Hese);
        let out = reveal_group(&group, 2);
        assert_eq!(out.revealed[0].value(), 31);
        assert_eq!(out.revealed[1].value(), 0);
        assert_eq!(out.waterline_exp, Some(0));
        // With budget 1 only the big positive term survives: 31 rounds
        // *up* to 32, the signed-truncation effect §IV relies on.
        let out1 = reveal_group(&group, 1);
        assert_eq!(out1.revealed[0].value(), 32);
        assert_eq!(out1.revealed[1].value(), 0);
    }

    #[test]
    fn reveal_row_chunks_groups_independently() {
        let mut row = exprs(&[127, 0, 0, 127, 127, 127], Encoding::Binary);
        reveal_row(&mut row, 3, 7);
        // First group had 7 terms total: untouched.
        assert_eq!(row[0].value(), 127);
        // Second group had 21 terms: budget 7 keeps the top rows.
        let kept: usize = row[3..].iter().map(TermExpr::len).sum();
        assert_eq!(kept, 7);
    }

    #[test]
    fn spread_tiebreak_matches_rowmajor_counts_but_spreads() {
        // Two identical values with a 2-term budget on a 4-term group:
        // row-major gives both slots of the 2^2 row... construct a case
        // where the waterline row has more candidates than budget left.
        let group = exprs(&[5, 5], Encoding::Binary); // {2,0} each
        let rm = reveal_group_with_tiebreak(&group, 3, TieBreak::RowMajor);
        let sp = reveal_group_with_tiebreak(&group, 3, TieBreak::Spread);
        assert_eq!(rm.kept_terms, 3);
        assert_eq!(sp.kept_terms, 3);
        // Row-major: 2^2 (both), then 2^0 of value 0 -> values (5, 4).
        assert_eq!(rm.revealed[0].value(), 5);
        assert_eq!(rm.revealed[1].value(), 4);
        // Spread behaves identically here (equal kept counts fall back to
        // index order), but must stay a valid outcome.
        let sum_sp: i64 = sp.revealed.iter().map(TermExpr::value).sum();
        assert_eq!(sum_sp, 9);
    }

    #[test]
    fn spread_prefers_poorer_values_on_the_waterline() {
        // w1 = {6,5,0}, w2 = {4,0}: with budget 4 the rows 6,5,4 give
        // w1 two terms and w2 one; the final 2^0 row has both candidates.
        let group = exprs(&[0b1100001, 0b0010001], Encoding::Binary);
        let rm = reveal_group_with_tiebreak(&group, 4, TieBreak::RowMajor);
        let sp = reveal_group_with_tiebreak(&group, 4, TieBreak::Spread);
        // Row-major hands the last slot to w1's 2^0.
        assert_eq!(rm.revealed[0].value(), 0b1100001);
        assert_eq!(rm.revealed[1].value(), 0b0010000);
        // Spread hands it to w2 (fewer kept terms).
        assert_eq!(sp.revealed[0].value(), 0b1100000);
        assert_eq!(sp.revealed[1].value(), 0b0010001);
        assert_eq!(rm.kept_terms, sp.kept_terms);
    }

    #[test]
    fn spread_tiebreak_is_deterministic_under_permutation() {
        // Regression: the Spread waterline ordered candidates with an
        // *unstable* sort keyed only on kept-count, so values tied on
        // kept-count could be taken in an arbitrary order. The secondary
        // index key pins ties to value-index order. Check the invariant
        // two ways: (1) repeated runs are bit-identical; (2) permuting
        // the group and un-permuting the result yields the outcome of a
        // per-value deterministic rule, i.e. each value's revealed terms
        // depend only on the multiset of competitors — not true in
        // general, so instead check that every tied row filled in index
        // order: among values with equal kept-count at the waterline, the
        // lower index keeps its waterline term.
        let values = [0b1100001i32, 0b0010001, 0b0000011, 0b1000001];
        let group = exprs(&values, Encoding::Binary);
        for budget in 1..12 {
            let base = reveal_group_with_tiebreak(&group, budget, TieBreak::Spread);
            for _ in 0..5 {
                let again = reveal_group_with_tiebreak(&group, budget, TieBreak::Spread);
                assert_eq!(base, again, "budget {budget} not reproducible");
            }
        }
        // Tied waterline rows resolve to the lower value index: both
        // values hold exactly {2^2, 2^0}; with budget 3 the 2^2 row takes
        // both, and the single remaining slot at the 2^0 waterline must
        // go to value 0 (equal kept-counts, index breaks the tie).
        let tied = exprs(&[5, 5], Encoding::Binary);
        let out = reveal_group_with_tiebreak(&tied, 3, TieBreak::Spread);
        assert_eq!(out.revealed[0].value(), 5);
        assert_eq!(out.revealed[1].value(), 4);
        // Permutation coherence: reversing a group of pairwise-distinct
        // values and reversing the revealed outputs matches reversing
        // first — the scan must not depend on hidden positional state
        // beyond the documented index tiebreak. All kept-counts stay
        // distinct here so only determinism (not the tie rule) matters.
        let distinct = exprs(&[0b1111111, 0b0000111, 0b0000001], Encoding::Binary);
        let reversed: Vec<TermExpr> = distinct.iter().rev().cloned().collect();
        for budget in 1..=11 {
            let fwd = reveal_group_with_tiebreak(&distinct, budget, TieBreak::Spread);
            let rev = reveal_group_with_tiebreak(&reversed, budget, TieBreak::Spread);
            let rev_back: Vec<i64> = rev.revealed.iter().rev().map(TermExpr::value).collect();
            let fwd_vals: Vec<i64> = fwd.revealed.iter().map(TermExpr::value).collect();
            assert_eq!(fwd_vals, rev_back, "budget {budget} permutation-incoherent");
        }
    }

    #[test]
    fn zero_group_is_lossless() {
        let group = exprs(&[0, 0, 0], Encoding::Binary);
        let out = reveal_group(&group, 4);
        assert!(out.lossless());
        assert_eq!(out.kept_terms, 0);
    }
}
