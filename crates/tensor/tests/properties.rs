//! Property-based tests of the tensor substrate's algebraic invariants.

use proptest::prelude::*;
use tr_tensor::matmul::{matmul_into_with, matmul_reference, matmul_transb_into_with, Tier};
use tr_tensor::{col2im, im2col, im2col_into, Conv2dGeometry, Rng, Shape, Tensor};

/// Reduction lengths for the tier race: empty and single-term sums, a
/// few short ones, and some past every register block width.
const RACE_K: [usize; 8] = [0, 1, 2, 3, 5, 17, 64, 130];

/// The bit patterns of a slice, so `-0.0`, `+0.0` and every NaN payload
/// compare as distinct values.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A normal draw, or (a share `zeros` of the time) a zero of either sign.
fn value_or_zero(rng: &mut Rng, zeros: f32) -> f32 {
    let u = rng.uniform();
    if u < zeros / 2.0 {
        0.0
    } else if u < zeros {
        -0.0
    } else {
        rng.normal()
    }
}

/// The patch matrix built one element at a time: column `oy*ow + ox` of
/// row `(c, kh, kw)` reads input pixel `(oy*stride + kh - pad, ox*stride
/// + kw - pad)` of channel `c`, or the padding value outside the image.
/// The oracle for the row-copy lowering of `im2col_into`.
fn im2col_oracle<T: Copy + Default>(input: &[T], g: &Conv2dGeometry) -> Vec<T> {
    let (oh, ow) = (g.out_h(), g.out_w());
    let mut out = Vec::with_capacity(g.patch_len() * oh * ow);
    for c in 0..g.in_channels {
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (y, x) = (oy * g.stride + kh, ox * g.stride + kw);
                        let real =
                            (g.pad..g.in_h + g.pad).contains(&y) && (g.pad..g.in_w + g.pad).contains(&x);
                        out.push(if real {
                            input[(c * g.in_h + y - g.pad) * g.in_w + x - g.pad]
                        } else {
                            T::default()
                        });
                    }
                }
            }
        }
    }
    out
}

/// The tier race at the register blocks' edges and the conv shapes: M
/// from 1 to 13 (around the 4- and 6-row blocks), N on each side of the
/// 16- and 32-column panels and one conv width, K from a single term to
/// the deepest VGG patch. A holds a zero row and signed zeros, B holds
/// `-0.0`, and on every other shape one B panel holds inf and NaN.
#[test]
fn every_tier_matches_the_scalar_kernel_at_block_edges() {
    let mut rng = Rng::seed_from_u64(2024);
    let mut case = 0usize;
    for m in 1..=13usize {
        for n in [1usize, 15, 16, 17, 31, 32, 33, 1024] {
            for k in [1usize, 27, 216, 864] {
                case += 1;
                let mut a: Vec<f32> = (0..m * k).map(|_| value_or_zero(&mut rng, 0.3)).collect();
                a[(m / 2) * k..(m / 2 + 1) * k].fill(0.0);
                let mut b: Vec<f32> = (0..k * n).map(|_| value_or_zero(&mut rng, 0.2)).collect();
                b[0] = -0.0;
                if case.is_multiple_of(2) {
                    let col = rng.below(n);
                    b[rng.below(k) * n + col] = f32::INFINITY;
                    b[rng.below(k) * n + col] = f32::NAN;
                }
                let mut expect = vec![0.0; m * n];
                matmul_into_with(Tier::Scalar, &a, &b, &mut expect, m, k, n);
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let mut got = vec![0.0; m * n];
                    matmul_into_with(tier, &a, &b, &mut got, m, k, n);
                    assert!(bits(&got) == bits(&expect), "tier {} differs at {m}x{k}x{n}", tier.name());
                }
            }
        }
    }
}

/// The `matmul_transb` tier race at its block edges: M around the 1-,
/// 2-, 3- and 8-row dots blocks, N around the 8-row transposes and the
/// 16-row panels, K around the 8-value transposes, the 4-value chunks
/// and the MLP's 784. Every third shape holds ±inf in A and B, and every
/// fifth a NaN in B.
#[test]
fn every_transb_tier_matches_the_scalar_kernel_at_block_edges() {
    let mut rng = Rng::seed_from_u64(2026);
    let mut case = 0usize;
    for m in 1..=9usize {
        for n in [1usize, 7, 8, 9, 15, 16, 17, 24, 33] {
            for k in [1usize, 4, 7, 8, 9, 16, 27, 784] {
                case += 1;
                let mut a: Vec<f32> = (0..m * k).map(|_| value_or_zero(&mut rng, 0.3)).collect();
                let mut b: Vec<f32> = (0..n * k).map(|_| value_or_zero(&mut rng, 0.2)).collect();
                if case.is_multiple_of(3) {
                    a[rng.below(m * k)] = f32::INFINITY;
                    b[rng.below(n * k)] = f32::NEG_INFINITY;
                }
                if case.is_multiple_of(5) {
                    b[rng.below(n * k)] = f32::NAN;
                }
                let mut expect = vec![0.0; m * n];
                matmul_transb_into_with(Tier::Scalar, &a, &b, &mut expect, m, k, n);
                for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
                    let mut got = vec![0.0; m * n];
                    matmul_transb_into_with(tier, &a, &b, &mut got, m, k, n);
                    assert!(bits(&got) == bits(&expect), "tier {} differs at {m}x{k}x{n}", tier.name());
                }
            }
        }
    }
}

fn tensor_strategy(max_side: usize) -> impl Strategy<Value = (usize, usize, u64)> {
    (1..=max_side, 1..=max_side, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_reference((m, k, seed) in tensor_strategy(12), n in 1usize..=12) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, n), 1.0, &mut rng);
        let got = a.matmul(&b);
        let expect = matmul_reference(a.data(), b.data(), m, k, n);
        for (g, e) in got.data().iter().zip(&expect) {
            prop_assert!((g - e).abs() < 1e-3 * (1.0 + e.abs()), "{g} vs {e}");
        }
    }

    #[test]
    fn every_tier_matches_the_scalar_kernel_bitwise(
        m in 0usize..=13,
        n in 0usize..=70,
        ki in 0usize..RACE_K.len(),
        specials in any::<bool>(),
        nonzero_start in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // M and N sweep ragged edges around every tier's 4-row block and
        // 16/32-column panels; A holds signed zeros; B may hold NaN and
        // ±inf, which then meet those zero weights; `out` starts zeroed
        // or at finite non-zero values.
        let k = RACE_K[ki];
        let mut rng = Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| value_or_zero(&mut rng, 0.4)).collect();
        let mut b: Vec<f32> = (0..k * n).map(|_| value_or_zero(&mut rng, 0.2)).collect();
        if specials && !b.is_empty() {
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let at = rng.below(b.len());
                b[at] = special;
            }
        }
        let out0: Vec<f32> =
            if nonzero_start { (0..m * n).map(|_| rng.normal()).collect() } else { vec![0.0; m * n] };
        let mut expect = out0.clone();
        matmul_into_with(Tier::Scalar, &a, &b, &mut expect, m, k, n);
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            let mut got = out0.clone();
            matmul_into_with(tier, &a, &b, &mut got, m, k, n);
            prop_assert!(bits(&got) == bits(&expect), "tier {} differs at {m}x{k}x{n}", tier.name());
        }
    }

    #[test]
    fn every_transb_tier_matches_the_scalar_kernel_bitwise(
        m in 0usize..=13,
        n in 0usize..=70,
        ki in 0usize..RACE_K.len(),
        specials in 0usize..3,
        nonzero_start in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // M sweeps ragged edges around the 1-, 2-, 3- and 8-row dots
        // blocks and N around the 16-cell panels; A and B hold signed
        // zeros; `specials` adds ±inf (1) or NaN and ±inf (2) to A or B;
        // `out` starts zeroed or at non-zero values and signed zeros.
        let k = RACE_K[ki];
        let mut rng = Rng::seed_from_u64(seed);
        let mut a: Vec<f32> = (0..m * k).map(|_| value_or_zero(&mut rng, 0.3)).collect();
        let mut b: Vec<f32> = (0..n * k).map(|_| value_or_zero(&mut rng, 0.2)).collect();
        let picks: &[f32] = match specials {
            0 => &[],
            1 => &[f32::INFINITY, f32::NEG_INFINITY],
            _ => &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY],
        };
        for &special in picks {
            let side = if rng.uniform() < 0.5 { &mut a } else { &mut b };
            if !side.is_empty() {
                let at = rng.below(side.len());
                side[at] = special;
            }
        }
        let out0: Vec<f32> =
            if nonzero_start { (0..m * n).map(|_| value_or_zero(&mut rng, 0.3)).collect() } else { vec![0.0; m * n] };
        let mut expect = out0.clone();
        matmul_transb_into_with(Tier::Scalar, &a, &b, &mut expect, m, k, n);
        for tier in Tier::ALL.into_iter().filter(|t| t.available()) {
            let mut got = out0.clone();
            matmul_transb_into_with(tier, &a, &b, &mut got, m, k, n);
            prop_assert!(bits(&got) == bits(&expect), "tier {} differs at {m}x{k}x{n}", tier.name());
        }
    }

    #[test]
    fn im2col_rows_match_the_per_element_oracle(
        c in 1usize..=3,
        h in 1usize..=9,
        w in 1usize..=9,
        k in 1usize..=5,
        stride in 1usize..=3,
        pad_pick in 0usize..=5,
        seed in any::<u64>(),
    ) {
        // Images down to 1x1, smaller than the kernel when padding makes
        // up the difference, and padding up to the kernel size.
        let pad = pad_pick.min(k);
        let g = Conv2dGeometry { in_channels: c, in_h: h, in_w: w, k_h: k, k_w: k, stride, pad };
        prop_assume!(g.try_check().is_ok());
        let mut rng = Rng::seed_from_u64(seed);
        let x: Vec<f32> = (0..c * h * w).map(|_| rng.normal()).collect();
        // A dirty, wrongly sized buffer: every slot must be overwritten.
        let mut cols = vec![f32::NAN; 5];
        im2col_into(&x, &g, &mut cols);
        prop_assert!(bits(&cols) == bits(&im2col_oracle(&x, &g)), "f32 lowering differs for {g:?}");
        let codes: Vec<i32> = (0..c * h * w).map(|i| i32::try_from(i).expect("small image") - 40).collect();
        let mut code_cols = vec![i32::MIN; 3];
        im2col_into(&codes, &g, &mut code_cols);
        prop_assert!(code_cols == im2col_oracle(&codes, &g), "i32 lowering differs for {g:?}");
    }

    #[test]
    fn matmul_distributes_over_addition((m, k, seed) in tensor_strategy(8)) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, 4), 1.0, &mut rng);
        let c = Tensor::randn(Shape::d2(k, 4), 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.rel_l2(&rhs) < 1e-4, "rel {}", lhs.rel_l2(&rhs));
    }

    #[test]
    fn transpose_is_involutive((m, k, seed) in tensor_strategy(16)) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        prop_assert_eq!(a.transpose2d().transpose2d(), a);
    }

    #[test]
    fn transb_equals_plain_on_transposed((m, k, seed) in tensor_strategy(10)) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d2(k, 5), 1.0, &mut rng);
        let plain = a.matmul(&b);
        let via_t = a.matmul_transb(&b.transpose2d());
        prop_assert!(plain.rel_l2(&via_t) < 1e-4);
    }

    #[test]
    fn im2col_col2im_adjoint(
        c in 1usize..=3,
        hw in 3usize..=8,
        k in 1usize..=3,
        pad in 0usize..=1,
        seed in any::<u64>(),
    ) {
        prop_assume!(hw + 2 * pad >= k);
        let g = Conv2dGeometry { in_channels: c, in_h: hw, in_w: hw, k_h: k, k_w: k, stride: 1, pad };
        let mut rng = Rng::seed_from_u64(seed);
        let x = Tensor::randn(Shape::d3(c, hw, hw), 1.0, &mut rng);
        let y = Tensor::randn(Shape::d2(g.patch_len(), g.n_patches()), 1.0, &mut rng);
        let lhs: f64 = im2col(x.data(), &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let back = col2im(&y, &g);
        let rhs: f64 = x.data().iter().zip(&back).map(|(&a, &b)| (a * b) as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn reshape_preserves_data(m in 1usize..=8, k in 1usize..=8, seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, k), 1.0, &mut rng);
        let r = a.reshape(Shape::d1(m * k));
        prop_assert_eq!(r.data(), a.data());
        prop_assert_eq!(r.numel(), a.numel());
    }

    #[test]
    fn rel_l2_is_zero_iff_equal(m in 1usize..=6, seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::randn(Shape::d2(m, 3), 1.0, &mut rng);
        prop_assert_eq!(a.rel_l2(&a), 0.0);
        let mut b = a.clone();
        b.data_mut()[0] += 1.0;
        prop_assert!(a.rel_l2(&b) > 0.0);
    }
}
