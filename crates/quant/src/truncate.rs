//! Per-value term truncation (no grouping).
//!
//! Keeping only the top `k` terms of *each individual value* is the
//! group-free baseline that Fig. 17 plots as "QT" (binary terms) and
//! "HESE" (signed terms); TR's group-based budget is strictly more
//! flexible. The same operation, applied with the HESE encoding to
//! activations, realizes the data-side `s` parameter of Table III
//! ("keep the top s terms of each data value").

use crate::qtensor::QTensor;
use tr_encoding::{Encoding, TermTable};

/// Truncate one code to its top `k` terms under `encoding`.
pub fn truncate_value(encoding: Encoding, code: i32, k: usize) -> i32 {
    truncate_with(encoding.table(), code, k)
}

/// [`truncate_value`] against an already-fetched code-term table: the
/// sum of the code's top `k` table terms, read from the table's running
/// sums for any code within [`tr_encoding::TABLE_RANGE`] (no encoding,
/// no allocation) and from the encoder beyond it. Hot loops fetch the
/// table once and call this per element.
#[inline]
pub fn truncate_with(table: &TermTable, code: i32, k: usize) -> i32 {
    match table.truncated(code, k) {
        Some(v) => v,
        // Dropping terms only shrinks the magnitude, so the truncated
        // value stays inside the i32 band the code came from.
        #[allow(clippy::cast_possible_truncation)]
        None => table.encoding().terms_of(code).truncate_top(k).value() as i32,
    }
}

/// Truncate every code in a slice (in place) to its top `k` terms.
pub fn truncate_values(encoding: Encoding, codes: &mut [i32], k: usize) {
    let table = encoding.table();
    for c in codes.iter_mut() {
        *c = truncate_with(table, *c, k);
    }
}

/// Truncate a whole tensor to its top `k` terms per value, returning the
/// truncated copy.
///
/// Note: with a signed encoding the truncated code can exceed the original
/// magnitude (e.g. HESE keeps `+2^5` from `31 = 2^5 - 2^0`), which may
/// overflow the nominal bit width by one position — exactly as in the
/// hardware, whose coefficient vector reserves headroom for this.
pub fn truncate_terms(encoding: Encoding, q: &QTensor, k: usize) -> QTensor {
    let mut values = q.values().to_vec();
    truncate_values(encoding, &mut values, k);
    // Bypass from_codes range validation: signed truncation may round up
    // to 2^(bits-1), one past qmax, which downstream term arithmetic
    // handles natively.
    let mut out = q.clone();
    out.values_mut().copy_from_slice(&values);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::QuantParams;
    use tr_tensor::Shape;

    #[test]
    fn binary_truncation_drops_small_terms() {
        // 87 = 64 + 16 + 4 + 2 + 1; top-2 binary terms = 80.
        assert_eq!(truncate_value(Encoding::Binary, 87, 2), 80);
        assert_eq!(truncate_value(Encoding::Binary, 87, 5), 87);
        assert_eq!(truncate_value(Encoding::Binary, -87, 2), -80);
    }

    #[test]
    fn hese_truncation_can_round_up() {
        // 31 = 2^5 - 2^0 under HESE; keeping one term gives 32.
        assert_eq!(truncate_value(Encoding::Hese, 31, 1), 32);
        assert_eq!(truncate_value(Encoding::Hese, 31, 2), 31);
    }

    #[test]
    fn hese_truncation_error_is_smaller_on_average() {
        // The Fig. 17 effect: for the same per-value budget, HESE
        // truncation loses less than binary truncation.
        let (mut err_bin, mut err_hese) = (0i64, 0i64);
        for v in 1..=127 {
            err_bin += (v - truncate_value(Encoding::Binary, v, 2)).abs() as i64;
            err_hese += (v - truncate_value(Encoding::Hese, v, 2)).abs() as i64;
        }
        assert!(
            err_hese < err_bin,
            "hese total err {err_hese} not below binary {err_bin}"
        );
    }

    #[test]
    fn zero_budget_zeroes_everything() {
        let q = QTensor::from_codes(
            vec![5, -17, 0, 127],
            QuantParams { scale: 1.0, bits: 8 },
            Shape::d1(4),
        );
        let t = truncate_terms(Encoding::Binary, &q, 0);
        assert!(t.values().iter().all(|&v| v == 0));
    }

    #[test]
    fn large_budget_is_identity() {
        let q = QTensor::from_codes(
            vec![5, -17, 0, 127],
            QuantParams { scale: 1.0, bits: 8 },
            Shape::d1(4),
        );
        for enc in Encoding::ALL {
            let t = truncate_terms(enc, &q, 8);
            assert_eq!(t.values(), q.values(), "{enc}");
        }
    }
}
