//! Seeded dominance laws for the minimal-functional-subset pruning.
//!
//! The DP's correctness rests on one property of `mfs_naive` /
//! `mfs_divide_conquer` (paper §IV-D): pruning may only remove a
//! candidate where some *surviving* candidate is at least as good in
//! every dimension. In particular a candidate that is strictly best for
//! some external capacitance `c_E` must survive with `c_E` still in its
//! validity domain. These tests check that law on seeded random
//! families of scalar+PWL candidates, and that both pruning strategies
//! expose identical optimal envelopes.
//!
//! The prune loops skip pairs on a packed-key test and compute regions
//! in reusable buffers. The last group of tests pins both as exact: the
//! key test never skips a pair with a region, the buffered region equals
//! the allocating composition of public primitives bit for bit, and the
//! pruned survivor lists equal those of a plain, unkeyed reference.

use msrnet_pwl::{mfs_divide_conquer, mfs_naive, FuncPoint, IntervalSet, Pwl, Segment};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};

const DOMAIN: (f64, f64) = (0.0, 10.0);
/// Interpolation slack: restriction may re-split segments, perturbing
/// evaluated values by an ulp or two.
const EPS: f64 = 1e-9;

/// A random piecewise-linear function over a random sub-interval of the
/// test domain, with a couple of breakpoints.
fn random_pwl(rng: &mut SplitMix64) -> Pwl {
    let lo = rng.gen_range(DOMAIN.0..DOMAIN.1 - 1.0);
    let hi = rng.gen_range(lo + 0.5..DOMAIN.1);
    let pieces = rng.gen_range(1..4u32);
    let mut segs = Vec::new();
    let mut x = lo;
    let mut y = rng.gen_range(0.0..50.0f64);
    for i in 0..pieces {
        let next = if i + 1 == pieces {
            hi
        } else {
            rng.gen_range(x..hi)
        };
        if next <= x {
            continue;
        }
        let slope = rng.gen_range(-6.0..6.0f64);
        segs.push(Segment::new(x, next, y, slope));
        y += slope * (next - x);
        x = next;
    }
    Pwl::from_segments(segs)
}

fn random_family(seed: u64) -> Vec<FuncPoint<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..18usize);
    let scalar_dims = rng.gen_range(1..3usize);
    let pwl_dims = rng.gen_range(1..3usize);
    (0..n)
        .map(|i| {
            let scalars = (0..scalar_dims)
                .map(|_| rng.gen_range(0.0..10.0f64))
                .collect();
            let pwls = (0..pwl_dims).map(|_| random_pwl(&mut rng)).collect();
            FuncPoint::new(i, scalars, pwls)
        })
        .collect()
}

/// Sample points covering the test domain densely enough to hit every
/// random segment, nudged off round values to avoid breakpoint ties.
fn sample_points() -> Vec<f64> {
    (0..400)
        .map(|i| DOMAIN.0 + (DOMAIN.1 - DOMAIN.0) * (i as f64 + 0.437) / 400.0)
        .collect()
}

/// True when `s` is at least as good as `orig` at `x` in every scalar
/// and every PWL dimension (both defined at `x`).
fn weakly_dominates_at(s: &FuncPoint<usize>, orig: &FuncPoint<usize>, x: f64) -> bool {
    if !s.domain().contains(x) {
        return false;
    }
    let scalars_ok = s
        .scalars
        .iter()
        .zip(&orig.scalars)
        .all(|(a, b)| *a <= *b + EPS);
    if !scalars_ok {
        return false;
    }
    s.pwls.iter().zip(&orig.pwls).all(|(fa, fb)| {
        match (fa.eval(x), fb.eval(x)) {
            (Some(ya), Some(yb)) => ya <= yb + EPS,
            // `orig` undefined at x: nothing to beat.
            (_, None) => true,
            (None, Some(_)) => false,
        }
    })
}

/// The core law: wherever an original candidate was defined, some
/// survivor is at least as good in every dimension — so no point that
/// is strictly best for some `c_E` is ever removed.
fn assert_covered(originals: &[FuncPoint<usize>], kept: &[FuncPoint<usize>], seed: u64) {
    for x in sample_points() {
        for orig in originals {
            if !orig.domain().contains(x) || orig.pwls.iter().any(|f| f.eval(x).is_none()) {
                continue;
            }
            assert!(
                kept.iter().any(|s| weakly_dominates_at(s, orig, x)),
                "seed {seed}: candidate {} at x={x} lost without a \
                 dominating survivor",
                orig.payload
            );
        }
    }
}

#[test]
fn pruning_never_removes_a_point_strictly_best_somewhere() {
    for seed in 0..60u64 {
        let originals = random_family(seed);
        let kept = mfs_naive(originals.clone());
        assert!(!kept.is_empty() || originals.iter().all(|p| !p.is_valid()));
        assert_covered(&originals, &kept, seed);
    }
}

#[test]
fn divide_and_conquer_satisfies_the_same_law() {
    for seed in 60..120u64 {
        let originals = random_family(seed);
        for threshold in [2, 4, 8] {
            let kept = mfs_divide_conquer(originals.clone(), threshold);
            assert_covered(&originals, &kept, seed);
        }
    }
}

#[test]
fn strategies_expose_identical_optimal_envelopes() {
    // The surviving sets may differ in how ties are carried, but the
    // pointwise optimum over survivors is the problem's answer and must
    // not depend on the pruning strategy.
    for seed in 120..170u64 {
        let originals = random_family(seed);
        let naive = mfs_naive(originals.clone());
        let dc = mfs_divide_conquer(originals, 4);
        for x in sample_points() {
            let envelope = |kept: &[FuncPoint<usize>]| -> Option<f64> {
                kept.iter()
                    .filter(|s| s.domain().contains(x))
                    .filter_map(|s| s.pwls[0].eval(x))
                    .min_by(f64::total_cmp)
            };
            let (a, b) = (envelope(&naive), envelope(&dc));
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    (a - b).abs() <= EPS,
                    "seed {seed}: envelopes diverge at x={x}: {a} vs {b}"
                ),
                (None, None) => {}
                _ => panic!("seed {seed}: envelope defined for one strategy only at x={x}"),
            }
        }
    }
}

#[test]
fn pruning_is_idempotent() {
    for seed in 170..200u64 {
        let kept = mfs_naive(random_family(seed));
        let names: Vec<usize> = kept.iter().map(|p| p.payload).collect();
        let again = mfs_naive(kept);
        let names2: Vec<usize> = again.iter().map(|p| p.payload).collect();
        assert_eq!(names, names2, "seed {seed}: second pruning pass changed the set");
    }
}

/// The allocating `dominance_region`, kept as a test oracle: intersect
/// the domains, then each PWL dimension's `le_regions`, through public
/// allocating primitives only.
fn region_oracle(a: &FuncPoint<usize>, b: &FuncPoint<usize>) -> IntervalSet {
    if !a.scalars.iter().zip(&b.scalars).all(|(x, y)| x <= y) {
        return IntervalSet::empty();
    }
    let mut region = a.domain().intersect(b.domain());
    for (fa, fb) in a.pwls.iter().zip(&b.pwls) {
        if region.is_empty() {
            break;
        }
        region = region.intersect(&fa.le_regions(fb));
    }
    region
}

fn span_bits(set: &IntervalSet) -> Vec<(u64, u64)> {
    set.spans()
        .iter()
        .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
        .collect()
}

fn segment_bits(f: &Pwl) -> Vec<[u64; 4]> {
    f.segments()
        .iter()
        .map(|s| [s.x0.to_bits(), s.x1.to_bits(), s.y0.to_bits(), s.slope.to_bits()])
        .collect()
}

/// Per survivor, in order: payload, domain bits and restricted PWL bits.
type Fingerprint = Vec<(usize, Vec<(u64, u64)>, Vec<Vec<[u64; 4]>>)>;

/// Everything about a survivor list that pruning can change, as bits:
/// payload order, domains and restricted PWLs.
fn fingerprint(kept: &[FuncPoint<usize>]) -> Fingerprint {
    kept.iter()
        .map(|p| (p.payload, span_bits(p.domain()), p.pwls.iter().map(segment_bits).collect()))
        .collect()
}

/// Plain pair pruning without keys: `a` prunes `b`, then `b` (updated)
/// prunes `a`.
fn reference_prune_pair(a: &mut FuncPoint<usize>, b: &mut FuncPoint<usize>) {
    if !a.is_valid() || !b.is_valid() {
        return;
    }
    let r = region_oracle(a, b);
    b.invalidate(&r);
    if !b.is_valid() {
        return;
    }
    let r = region_oracle(b, a);
    a.invalidate(&r);
}

fn reference_naive(mut items: Vec<FuncPoint<usize>>) -> Vec<FuncPoint<usize>> {
    for j in 1..items.len() {
        let (left, right) = items.split_at_mut(j);
        let b = &mut right[0];
        for a in left.iter_mut() {
            reference_prune_pair(a, b);
            if !b.is_valid() {
                break;
            }
        }
    }
    items.retain(FuncPoint::is_valid);
    items
}

fn reference_divide_conquer(
    mut items: Vec<FuncPoint<usize>>,
    threshold: usize,
) -> Vec<FuncPoint<usize>> {
    if items.len() <= threshold {
        return reference_naive(items);
    }
    let right_half = items.split_off(items.len() / 2);
    let mut left = reference_divide_conquer(items, threshold);
    let mut right = reference_divide_conquer(right_half, threshold);
    for a in &mut left {
        for b in &mut right {
            reference_prune_pair(a, b);
            if !a.is_valid() {
                break;
            }
        }
    }
    left.retain(FuncPoint::is_valid);
    right.retain(FuncPoint::is_valid);
    left.append(&mut right);
    left
}

const TIE: f64 = msrnet_pwl::EPS;

/// Candidates built to sit on the edges of every tolerance the region
/// computation has: domains touching or missing each other by about
/// `EPS`, values equal within `EPS`, slopes differing by about `EPS`,
/// crossings placed a hair inside or outside a cell, `-∞` pieces, and
/// magnitudes large enough for rounding to matter.
fn near_tie_family(seed: u64) -> Vec<FuncPoint<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let nudges = [0.0, TIE / 4.0, TIE / 2.0, TIE, 1.5 * TIE, 2.0 * TIE, 4.0 * TIE];
    let nudge = |rng: &mut SplitMix64| {
        let d = nudges[rng.gen_range(0..nudges.len())];
        if rng.gen_bool(0.5) {
            -d
        } else {
            d
        }
    };
    let scale_x = [1.0, 10.0, 1e3][rng.gen_range(0..3usize)];
    let base_y = [0.0, 1.0, 250.0, 1e6][rng.gen_range(0..4usize)];
    let base_slope = [0.0, 1.0, 37.5, 1e3][rng.gen_range(0..4usize)];
    let pwl_dims = rng.gen_range(1..3usize);
    let n = rng.gen_range(4..14usize);
    (0..n)
        .map(|i| {
            let scalars = vec![[1.0, 2.0][rng.gen_range(0..2usize)] + nudge(&mut rng) * 1e-3];
            let pwls = (0..pwl_dims)
                .map(|_| {
                    let mid = 0.5 * scale_x + nudge(&mut rng);
                    let (lo, hi) = match rng.gen_range(0..3u32) {
                        0 => (0.0, mid),
                        1 => (mid + nudge(&mut rng).abs(), scale_x),
                        _ => (nudge(&mut rng).abs(), scale_x + nudge(&mut rng)),
                    };
                    let y = base_y + nudge(&mut rng);
                    let slope = base_slope + nudge(&mut rng);
                    let mut segs = Vec::new();
                    match rng.gen_range(0..4u32) {
                        // A line through the base point.
                        0 => segs.push(Segment::new(lo, hi, y, slope)),
                        // A line crossing the base line `base_y +
                        // base_slope·x` a hair from `mid`.
                        1 => {
                            let dslope = [TIE, 1.0, 100.0][rng.gen_range(0..3usize)];
                            let cross = mid + nudge(&mut rng);
                            let y_lo = base_y + base_slope * lo - dslope * (cross - lo);
                            segs.push(Segment::new(lo, hi, y_lo, base_slope + dslope));
                        }
                        // A `-∞` piece then a finite one, split at `mid`.
                        2 if lo < mid && mid < hi => {
                            segs.push(Segment::new(lo, mid, f64::NEG_INFINITY, 0.0));
                            segs.push(Segment::new(mid, hi, y, slope));
                        }
                        // `-∞` throughout.
                        _ => segs.push(Segment::new(lo, hi, f64::NEG_INFINITY, 0.0)),
                    }
                    Pwl::from_segments(segs)
                })
                .collect();
            FuncPoint::new(i, scalars, pwls)
        })
        .collect()
}

/// Pairs whose lines cross a few ulps of `|x|` before a shared cell edge
/// at large `x`, so the computed crossing rounds onto the edge and the
/// region is that single point, although the dominator sits above the
/// victim by far more than `EPS` everywhere.
fn rounded_crossing_pairs(seed: u64) -> Vec<FuncPoint<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let lo: f64 = [1e3, 1e6, 1e9][rng.gen_range(0..3usize)];
    let ds = [1.0, 1e3, 1e5][rng.gen_range(0..3usize)];
    let ulp = f64::from_bits(lo.to_bits() + 1) - lo;
    let gap = ds * ulp * rng.gen_range(0.05..0.45f64);
    let hi = lo + 10.0;
    let victim = Pwl::linear(0.0, -1.0, lo, hi);
    let dominator = Pwl::linear(gap, ds - 1.0, lo, hi);
    // The victim costs more, so it cannot dominate back.
    vec![
        FuncPoint::new(0, vec![1.0], vec![dominator]),
        FuncPoint::new(1, vec![2.0], vec![victim]),
    ]
}

/// Original candidates plus the split-domain survivors pruning leaves.
fn key_test_population(family: Vec<FuncPoint<usize>>) -> Vec<FuncPoint<usize>> {
    let pruned = reference_naive(family.clone());
    family.into_iter().chain(pruned).collect()
}

/// Checked on ordered pairs, which covers both directions of every pair.
#[test]
fn key_test_never_skips_a_pair_with_a_region() {
    let (mut skipped, mut with_region) = (0usize, 0usize);
    let families = (0..150u64)
        .map(random_family)
        .chain((0..400u64).map(near_tie_family))
        .chain((0..200u64).map(rounded_crossing_pairs));
    for (f, family) in families.enumerate() {
        let population = key_test_population(family);
        for a in &population {
            for b in &population {
                let region = !region_oracle(a, b).is_empty();
                with_region += usize::from(region);
                if a.could_dominate(b) {
                    continue;
                }
                skipped += 1;
                assert!(
                    !region,
                    "family {f}: key test skipped {} over {} with a non-empty region",
                    a.payload, b.payload
                );
            }
        }
    }
    // Guard against a vacuous pass: both outcomes occur often.
    assert!(skipped > 10_000 && with_region > 10_000, "{skipped} / {with_region}");
}

#[test]
fn buffered_region_equals_the_allocating_oracle_bit_for_bit() {
    let families = (300..400u64)
        .map(random_family)
        .chain((400..600u64).map(near_tie_family));
    let mut non_empty = 0usize;
    for family in families {
        let population = key_test_population(family);
        for a in &population {
            for b in &population {
                let got = a.dominance_region(b);
                let want = region_oracle(a, b);
                non_empty += usize::from(!want.is_empty());
                assert_eq!(span_bits(&got), span_bits(&want), "{} vs {}", a.payload, b.payload);
            }
        }
    }
    assert!(non_empty > 1_000, "{non_empty}");
}

/// Random families with a chosen number of scalar and PWL dimensions,
/// in generation order (unsorted by any key).
fn shaped_family(seed: u64, scalar_dims: usize, pwl_dims: usize) -> Vec<FuncPoint<usize>> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = rng.gen_range(2..40usize);
    (0..n)
        .map(|i| {
            let scalars = (0..scalar_dims)
                .map(|_| rng.gen_range(0..4u32) as f64)
                .collect();
            let pwls = (0..pwl_dims).map(|_| random_pwl(&mut rng)).collect();
            FuncPoint::new(i, scalars, pwls)
        })
        .collect()
}

#[test]
fn keyed_pruning_keeps_the_exact_survivor_list() {
    let mut families: Vec<Vec<FuncPoint<usize>>> = Vec::new();
    for seed in 0..40u64 {
        for (ns, np) in [(0, 1), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)] {
            families.push(shaped_family(seed * 7 + ns as u64 * 3 + np as u64, ns, np));
        }
        families.push(near_tie_family(1000 + seed));
        families.push(random_family(1000 + seed));
    }
    for (f, family) in families.into_iter().enumerate() {
        assert_eq!(
            fingerprint(&mfs_naive(family.clone())),
            fingerprint(&reference_naive(family.clone())),
            "family {f}: naive"
        );
        for threshold in [2, 3, 8] {
            assert_eq!(
                fingerprint(&mfs_divide_conquer(family.clone(), threshold)),
                fingerprint(&reference_divide_conquer(family.clone(), threshold)),
                "family {f}: divide-and-conquer, threshold {threshold}"
            );
        }
    }
}
