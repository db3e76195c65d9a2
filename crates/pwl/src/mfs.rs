//! Minimal functional subset (MFS) computation — dominance pruning over
//! tuples of scalars and PWL functions (paper §IV-D, Definition 4.3 and
//! the divide-and-conquer algorithm of Fig. 4), plus the naive pairwise
//! method that divide-and-conquer is checked against.

use std::cell::RefCell;

use crate::interval::{intersect_spans, normalize_spans};
use crate::{IntervalSet, Pwl};

/// A candidate in a functional-dominance problem: a payload plus the
/// dominance coordinates — some scalar dimensions and some PWL dimensions,
/// all to be *minimized*.
///
/// In the repeater-insertion DP the scalars are (cost, capacitance,
/// delay-to-internal-sinks) and the PWLs are (arrival `Y`, internal
/// diameter `D`); the payload is the trace used to reconstruct the
/// repeater assignment.
///
/// The candidate's *validity domain* starts as the intersection of its PWL
/// domains and shrinks as pruning proves it suboptimal on regions of the
/// external-capacitance axis.
///
/// # Examples
///
/// ```
/// use msrnet_pwl::{mfs_naive, FuncPoint, Pwl};
///
/// let cheap_slow = FuncPoint::new("a", vec![1.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let costly_fast = FuncPoint::new("b", vec![2.0], vec![Pwl::constant(5.0, 0.0, 1.0)]);
/// let costly_slow = FuncPoint::new("c", vec![2.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
/// let kept = mfs_naive(vec![cheap_slow, costly_fast, costly_slow]);
/// let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
/// assert_eq!(names, vec!["a", "b"]); // "c" is dominated by both
/// ```
#[derive(Clone, Debug)]
pub struct FuncPoint<T> {
    /// Caller data carried through pruning (e.g., a DP trace id).
    pub payload: T,
    /// Scalar dimensions, minimized.
    pub scalars: Vec<f64>,
    /// PWL dimensions, minimized pointwise; kept restricted to the
    /// validity domain.
    pub pwls: Vec<Pwl>,
    domain: IntervalSet,
}

impl<T> FuncPoint<T> {
    /// Creates a candidate; its initial validity domain is the
    /// intersection of the PWL domains (the whole line if there are no
    /// PWL dimensions, making this a plain vector-dominance point).
    pub fn new(payload: T, scalars: Vec<f64>, pwls: Vec<Pwl>) -> Self {
        let domain = pwls
            .iter()
            .map(Pwl::domain)
            .reduce(|a, b| a.intersect(&b))
            .unwrap_or_else(|| IntervalSet::from_interval(f64::NEG_INFINITY, f64::INFINITY));
        let mut fp = FuncPoint {
            payload,
            scalars,
            pwls,
            domain,
        };
        fp.sync_pwls();
        fp
    }

    /// The current validity domain (where this candidate is not yet proven
    /// suboptimal).
    pub fn domain(&self) -> &IntervalSet {
        &self.domain
    }

    /// Whether any validity region remains.
    pub fn is_valid(&self) -> bool {
        !self.domain.is_empty()
    }

    /// Removes `region` from the validity domain, restricting all PWLs.
    pub fn invalidate(&mut self, region: &IntervalSet) {
        self.invalidate_spans(region.spans());
    }

    fn invalidate_spans(&mut self, region: &[(f64, f64)]) {
        if region.is_empty() {
            return;
        }
        self.domain = self.domain.subtract_spans(region);
        self.sync_pwls();
    }

    fn sync_pwls(&mut self) {
        for p in &mut self.pwls {
            *p = p.restrict(&self.domain);
        }
    }

    /// Whether every scalar of `self` is ≤ the corresponding scalar of
    /// `other` (a necessary condition for dominance anywhere).
    fn scalars_le(&self, other: &Self) -> bool {
        debug_assert_eq!(self.scalars.len(), other.scalars.len());
        self.scalars
            .iter()
            .zip(&other.scalars)
            .all(|(a, b)| a <= b)
    }

    /// The region of the axis where `self` dominates `other` in **every**
    /// dimension (scalars and PWLs), intersected with both validity
    /// domains. Empty if the scalars already fail.
    ///
    /// Exposed so that callers can build custom pruning strategies.
    ///
    /// The work runs in reusable per-thread span buffers (scalar rejects
    /// return before touching them); only a non-empty result allocates.
    pub fn dominance_region(&self, other: &Self) -> IntervalSet {
        if !self.scalars_le(other) {
            return IntervalSet::empty();
        }
        thread_local! {
            static BUF: RefCell<RegionBuf> = RefCell::default();
        }
        BUF.with(|buf| {
            let buf = &mut *buf.borrow_mut();
            if self.region_into(other, buf) {
                IntervalSet::from_normalized(buf.region.clone())
            } else {
                IntervalSet::empty()
            }
        })
    }

    /// [`FuncPoint::dominance_region`] into `buf.region`; returns whether
    /// the region is non-empty. Same arithmetic in the same order as
    /// intersecting the domains and then each [`Pwl::le_regions`].
    fn region_into(&self, other: &Self, buf: &mut RegionBuf) -> bool {
        if !self.scalars_le(other) {
            buf.region.clear();
            return false;
        }
        debug_assert_eq!(self.pwls.len(), other.pwls.len());
        intersect_spans(self.domain.spans(), other.domain.spans(), &mut buf.region);
        for (a, b) in self.pwls.iter().zip(&other.pwls) {
            if buf.region.is_empty() {
                break;
            }
            buf.spans.clear();
            a.le_spans(b, &mut buf.spans);
            normalize_spans(&mut buf.spans);
            intersect_spans(&buf.region, &buf.spans, &mut buf.tmp);
            std::mem::swap(&mut buf.region, &mut buf.tmp);
        }
        !buf.region.is_empty()
    }

    /// The packed-key test of the MFS prune loops: `false` guarantees
    /// that `self.dominance_region(other)` is empty, so the prune loops
    /// skip that computation. `true` decides nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use msrnet_pwl::{FuncPoint, Pwl};
    ///
    /// let cheap_slow = FuncPoint::new("a", vec![1.0], vec![Pwl::constant(9.0, 0.0, 1.0)]);
    /// let costly_fast = FuncPoint::new("b", vec![2.0], vec![Pwl::constant(5.0, 0.0, 1.0)]);
    /// assert!(!cheap_slow.could_dominate(&costly_fast)); // faster everywhere
    /// assert!(!costly_fast.could_dominate(&cheap_slow)); // costs more
    /// ```
    pub fn could_dominate(&self, other: &Self) -> bool {
        let layout = KeyLayout::of(self);
        let mut keys = vec![0.0; 2 * layout.stride];
        let (ka, kb) = keys.split_at_mut(layout.stride);
        fill_key(self, ka);
        fill_key(other, kb);
        layout.directions(ka, kb).0
    }
}

/// Reusable span buffers for allocation-free dominance regions.
#[derive(Default)]
struct RegionBuf {
    /// The running region; holds the result after `region_into`.
    region: Vec<(f64, f64)>,
    /// Raw, then normalized, `le_regions` spans of one PWL dimension.
    spans: Vec<(f64, f64)>,
    /// Intersection output, swapped with `region`.
    tmp: Vec<(f64, f64)>,
}

/// The buffers one MFS run reuses across all its prunes: the packed
/// dominance keys of the current prune and the region span buffers.
#[derive(Default)]
struct PruneBufs {
    keys: Vec<f64>,
    buf: RegionBuf,
}

/// Layout of a packed dominance key, generic in the number of scalar and
/// PWL dimensions: the scalars, then the validity domain's min and max,
/// then each PWL's [`Pwl::widened_range`] over the current domain.
///
/// Each term is a necessary condition for a non-empty
/// [`FuncPoint::dominance_region`]: the scalars must compare `≤` exactly
/// as `scalars_le` does, the domain hulls must overlap (span intersection
/// compares endpoints exactly), and in every PWL dimension the dominator's
/// widened minimum must not exceed the victim's widened maximum.
#[derive(Clone, Copy)]
struct KeyLayout {
    scalars: usize,
    stride: usize,
}

impl KeyLayout {
    fn of<T>(fp: &FuncPoint<T>) -> Self {
        let scalars = fp.scalars.len();
        KeyLayout {
            scalars,
            stride: scalars + 2 + 2 * fp.pwls.len(),
        }
    }

    /// Whether `a` may dominate `b`, and whether `b` may dominate `a`,
    /// somewhere. A NaN scalar fails `≤` exactly as in `scalars_le`; a NaN
    /// bound never causes a skip.
    fn directions(self, ka: &[f64], kb: &[f64]) -> (bool, bool) {
        let (sa, ra) = ka.split_at(self.scalars);
        let (sb, rb) = kb.split_at(self.scalars);
        let (mut a_le, mut b_le) = (true, true);
        for (x, y) in sa.iter().zip(sb) {
            a_le &= x <= y;
            b_le &= y <= x;
        }
        if !(a_le || b_le) {
            return (false, false);
        }
        let (da, pa) = ra.split_at(2);
        let (db, pb) = rb.split_at(2);
        if let ([alo, ahi], [blo, bhi]) = (da, db) {
            if alo > bhi || blo > ahi {
                return (false, false);
            }
        }
        (a_le && ranges_meet(pa, pb), b_le && ranges_meet(pb, pa))
    }
}

/// Whether, in every PWL dimension, the widened minimum of the would-be
/// dominator does not exceed the widened maximum of the victim. Only a
/// provable `>` rules a dimension out, so a NaN bound never does.
fn ranges_meet(dominator: &[f64], victim: &[f64]) -> bool {
    !dominator
        .chunks_exact(2)
        .zip(victim.chunks_exact(2))
        .any(|pair| matches!(pair, ([lo, _], [_, hi]) if lo > hi))
}

/// Writes the packed key of `fp` (see [`KeyLayout`]) into `key`.
fn fill_key<T>(fp: &FuncPoint<T>, key: &mut [f64]) {
    let dom = [
        fp.domain.min().unwrap_or(f64::INFINITY),
        fp.domain.max().unwrap_or(f64::NEG_INFINITY),
    ];
    let ranges = fp.pwls.iter().flat_map(|p| {
        let (lo, hi) = p.widened_range();
        [lo, hi]
    });
    let values = fp.scalars.iter().copied().chain(dom).chain(ranges);
    for (slot, v) in key.iter_mut().zip(values) {
        *slot = v;
    }
}

/// Appends the packed keys of `items` to `keys`, one `layout.stride`
/// chunk each.
fn append_keys<T>(items: &[FuncPoint<T>], layout: KeyLayout, keys: &mut Vec<f64>) {
    let start = keys.len();
    keys.resize(start + items.len() * layout.stride, 0.0);
    let (_, fresh) = keys.split_at_mut(start);
    for (fp, key) in items.iter().zip(fresh.chunks_exact_mut(layout.stride)) {
        debug_assert_eq!(KeyLayout::of(fp).stride, layout.stride);
        fill_key(fp, key);
    }
}

/// Prunes the ordered pair: first `a` prunes `b` (non-strict dominance),
/// then `b` prunes `a` against `b`'s *updated* domain. The two-step order
/// guarantees that ties never annihilate both candidates.
///
/// A direction whose keys rule dominance out is skipped: its region would
/// be empty and invalidating by it would change nothing. The `b`-over-`a`
/// test reads `b`'s key from before `a` pruned `b`, which is still a
/// valid bound because a domain only ever shrinks. Whoever loses a region
/// gets a fresh key.
fn prune_pair<T>(
    a: &mut FuncPoint<T>,
    ka: &mut [f64],
    b: &mut FuncPoint<T>,
    kb: &mut [f64],
    layout: KeyLayout,
    buf: &mut RegionBuf,
) {
    let (a_over_b, b_over_a) = layout.directions(ka, kb);
    if !(a_over_b || b_over_a) || !a.is_valid() || !b.is_valid() {
        return;
    }
    if a_over_b && a.region_into(b, buf) {
        b.invalidate_spans(&buf.region);
        fill_key(b, kb);
        if !b.is_valid() {
            return;
        }
    }
    if b_over_a && b.region_into(a, buf) {
        a.invalidate_spans(&buf.region);
        fill_key(a, ka);
    }
}

/// Computes the minimal functional subset by pairwise pruning
/// (`O(n²)` pair comparisons). Candidates proven suboptimal everywhere are
/// dropped; survivors keep only the regions where they may matter.
///
/// The result preserves optimality: for every point `x` of the original
/// domains and every removed candidate, some surviving candidate defined
/// at `x` is at least as good in every dimension.
pub fn mfs_naive<T>(mut items: Vec<FuncPoint<T>>) -> Vec<FuncPoint<T>> {
    pairwise(&mut items, &mut PruneBufs::default());
    items.retain(FuncPoint::is_valid);
    items
}

/// Prunes every pair `(a, b)` with `a` before `b`, in order.
fn pairwise<T>(items: &mut [FuncPoint<T>], bufs: &mut PruneBufs) {
    let Some(layout) = items.first().map(KeyLayout::of) else {
        return;
    };
    let PruneBufs { keys, buf } = bufs;
    keys.clear();
    append_keys(items, layout, keys);
    for j in 1..items.len() {
        let (left, right) = items.split_at_mut(j);
        let (left_keys, right_keys) = keys.split_at_mut(j * layout.stride);
        let (Some(b), Some(kb)) = (right.first_mut(), right_keys.get_mut(..layout.stride)) else {
            break;
        };
        for (a, ka) in left.iter_mut().zip(left_keys.chunks_exact_mut(layout.stride)) {
            // Most earlier items are dead in a large set; one length
            // check dismisses them faster than the key test.
            if !a.is_valid() {
                continue;
            }
            prune_pair(a, ka, b, kb, layout, buf);
            if !b.is_valid() {
                break;
            }
        }
    }
}

/// Computes the minimal functional subset by the paper's
/// divide-and-conquer scheme (Fig. 4): split, recurse, then cross-prune
/// the two surviving halves.
///
/// Worst-case pair comparisons remain `O(n²)`, but when many candidates
/// die deep in the recursion (typical after a `JoinSets` product, per the
/// paper) far fewer cross-comparisons are performed. Each leaf and each
/// cross-prune packs one flat key per candidate (scalars, domain hull,
/// widened PWL value ranges), so most of those `O(n²)` pair visits are a
/// few contiguous float compares: a direction of a pair goes on to the
/// exact region computation only if the keys say it may dominate, and
/// skipping the rest is exact (see [`FuncPoint::could_dominate`]).
///
/// `leaf_threshold` is the subproblem size below which the naive pairwise
/// method is used; values around 8 work well.
pub fn mfs_divide_conquer<T>(
    items: Vec<FuncPoint<T>>,
    leaf_threshold: usize,
) -> Vec<FuncPoint<T>> {
    divide_conquer(items, leaf_threshold.max(2), &mut PruneBufs::default())
}

fn divide_conquer<T>(
    mut items: Vec<FuncPoint<T>>,
    threshold: usize,
    bufs: &mut PruneBufs,
) -> Vec<FuncPoint<T>> {
    if items.len() <= threshold {
        pairwise(&mut items, bufs);
        items.retain(FuncPoint::is_valid);
        return items;
    }
    let right_half = items.split_off(items.len() / 2);
    let mut left = divide_conquer(items, threshold, bufs);
    let mut right = divide_conquer(right_half, threshold, bufs);
    cross_prune(&mut left, &mut right, bufs);
    left.retain(FuncPoint::is_valid);
    right.retain(FuncPoint::is_valid);
    left.append(&mut right);
    left
}

/// Prunes every `(a, b)` with `a` from `left` and `b` from `right`,
/// row by row, moving to the next `a` once `a` is dead.
fn cross_prune<T>(
    left: &mut [FuncPoint<T>],
    right: &mut [FuncPoint<T>],
    bufs: &mut PruneBufs,
) {
    let Some(layout) = left.first().map(KeyLayout::of) else {
        return;
    };
    let PruneBufs { keys, buf } = bufs;
    keys.clear();
    append_keys(left, layout, keys);
    append_keys(right, layout, keys);
    let (left_keys, right_keys) = keys.split_at_mut(left.len() * layout.stride);
    for (a, ka) in left.iter_mut().zip(left_keys.chunks_exact_mut(layout.stride)) {
        for (b, kb) in right.iter_mut().zip(right_keys.chunks_exact_mut(layout.stride)) {
            prune_pair(a, ka, b, kb, layout, buf);
            if !a.is_valid() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    fn fp(name: &'static str, scalars: &[f64], pwls: Vec<Pwl>) -> FuncPoint<&'static str> {
        FuncPoint::new(name, scalars.to_vec(), pwls)
    }

    #[test]
    fn scalar_only_dominance() {
        // Pure vector dominance: (1,1) dominates (2,2); (0,3) incomparable.
        let items = vec![
            fp("a", &[1.0, 1.0], vec![]),
            fp("b", &[2.0, 2.0], vec![]),
            fp("c", &[0.0, 3.0], vec![]),
        ];
        let kept = mfs_naive(items);
        let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
        assert_eq!(names, vec!["a", "c"]);
    }

    #[test]
    fn identical_items_keep_exactly_one() {
        let mk = || fp("x", &[1.0], vec![Pwl::constant(2.0, 0.0, 10.0)]);
        let kept = mfs_naive(vec![mk(), mk(), mk()]);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn partial_region_pruning_splits_domain() {
        // f = x on [0,10]; g = 5. Equal scalars, so each loses where the
        // other is lower: f keeps [0,5], g keeps [5,10] (one keeps the tie
        // point).
        let items = vec![
            fp("f", &[1.0], vec![Pwl::linear(0.0, 1.0, 0.0, 10.0)]),
            fp("g", &[1.0], vec![Pwl::constant(5.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
        let f = kept.iter().find(|p| p.payload == "f").unwrap();
        let g = kept.iter().find(|p| p.payload == "g").unwrap();
        assert!(f.domain().contains(2.0));
        assert!(!f.domain().contains(7.0));
        assert!(g.domain().contains(7.0));
        assert!(!g.domain().contains(2.0));
    }

    #[test]
    fn scalar_advantage_blocks_pwl_pruning() {
        // g is pointwise worse in the PWL but cheaper: nothing is pruned.
        let items = vec![
            fp("f", &[2.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("g", &[1.0], vec![Pwl::constant(9.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
        for p in &kept {
            assert_eq!(p.domain().measure(), 10.0);
        }
    }

    #[test]
    fn two_pwl_dimensions_must_both_dominate() {
        // a beats b in dim0 everywhere, but loses in dim1 on x > 5.
        let items = vec![
            fp(
                "a",
                &[1.0],
                vec![
                    Pwl::constant(0.0, 0.0, 10.0),
                    Pwl::linear(0.0, 1.0, 0.0, 10.0),
                ],
            ),
            fp(
                "b",
                &[1.0],
                vec![
                    Pwl::constant(1.0, 0.0, 10.0),
                    Pwl::constant(5.0, 0.0, 10.0),
                ],
            ),
        ];
        let kept = mfs_naive(items);
        let b = kept.iter().find(|p| p.payload == "b").unwrap();
        // b survives only where a's dim1 exceeds 5.
        assert!(!b.domain().contains(3.0));
        assert!(b.domain().contains(8.0));
    }

    #[test]
    fn fully_dominated_is_dropped() {
        let items = vec![
            fp("good", &[1.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
            fp("bad", &[2.0], vec![Pwl::constant(2.0, 0.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].payload, "good");
    }

    #[test]
    fn disjoint_domains_do_not_interact() {
        let items = vec![
            fp("l", &[1.0], vec![Pwl::constant(1.0, 0.0, 4.0)]),
            fp("r", &[9.0], vec![Pwl::constant(9.0, 6.0, 10.0)]),
        ];
        let kept = mfs_naive(items);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn divide_conquer_matches_naive_on_random_mix() {
        // Deterministic pseudo-random candidates; compare survivor
        // coverage of the two algorithms at sample points.
        let mut items_a = Vec::new();
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..40 {
            let cost = (next() * 10.0).round();
            let y0 = next() * 100.0;
            let slope = next() * 20.0;
            let pwl = Pwl::linear(y0, slope, 0.0, 10.0);
            items_a.push(FuncPoint::new(i, vec![cost], vec![pwl]));
        }
        let items_b = items_a.clone();
        let naive = mfs_naive(items_a);
        let dc = mfs_divide_conquer(items_b, 4);
        // Both must provide, at every sample x, the same best achievable
        // (cost, value) frontier.
        for step in 0..=20 {
            let x = step as f64 * 0.5;
            let frontier = |kept: &[FuncPoint<i32>]| {
                let mut pts: Vec<(f64, f64)> = kept
                    .iter()
                    .filter(|p| p.domain().contains(x))
                    .map(|p| (p.scalars[0], p.pwls[0].eval(x).unwrap()))
                    .collect();
                pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                pts
            };
            let fa = frontier(&naive);
            let fb = frontier(&dc);
            // The minimum value achievable at each cost must agree.
            let best = |pts: &[(f64, f64)]| {
                pts.iter().fold(f64::INFINITY, |m, &(_, v)| m.min(v))
            };
            assert!((best(&fa) - best(&fb)).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn key_test_honors_the_le_regions_tolerance() {
        // `le_regions` treats values within EPS as ties, so the cheaper
        // candidate removes the other everywhere although its constant
        // is EPS/2 higher; the packed-key test must not skip the pair.
        // The disjoint bystander makes divide-and-conquer split the set,
        // so the pair meets in a cross-prune, not in a leaf.
        let items = || {
            vec![
                fp("near", &[1.0], vec![Pwl::constant(1.0 + 0.5 * crate::EPS, 0.0, 10.0)]),
                fp("victim", &[2.0], vec![Pwl::constant(1.0, 0.0, 10.0)]),
                fp("bystander", &[0.0], vec![Pwl::constant(0.0, 20.0, 30.0)]),
            ]
        };
        for kept in [mfs_naive(items()), mfs_divide_conquer(items(), 2)] {
            let names: Vec<_> = kept.iter().map(|p| p.payload).collect();
            assert_eq!(names, vec!["near", "bystander"]);
        }
    }

    #[test]
    fn split_domain_dominator_prunes_only_what_it_covers() {
        // The dominator has a hole in its domain, so the victim survives
        // exactly inside the hole. The bystander splits the D&C set.
        let split = FuncPoint::new(
            "split",
            vec![1.0],
            vec![Pwl::from_segments(vec![
                Segment::new(0.0, 4.0, 1.0, 0.0),
                Segment::new(6.0, 10.0, 1.0, 0.0),
            ])],
        );
        let whole = fp("whole", &[2.0], vec![Pwl::constant(5.0, 0.0, 10.0)]);
        let bystander = fp("bystander", &[0.0], vec![Pwl::constant(0.0, 20.0, 30.0)]);
        let items = || vec![split.clone(), whole.clone(), bystander.clone()];
        for kept in [mfs_naive(items()), mfs_divide_conquer(items(), 2)] {
            assert_eq!(kept.len(), 3);
            let whole = kept.iter().find(|p| p.payload == "whole").unwrap();
            assert!(whole.domain().contains(5.0), "survives inside the hole");
            assert!(!whole.domain().contains(2.0));
            assert!(!whole.domain().contains(8.0));
        }
    }

    #[test]
    fn coverage_invariant_holds() {
        // For every x and every dropped candidate, a survivor dominates.
        let mut items = Vec::new();
        let mut seed = 999u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / ((1u64 << 31) as f64)
        };
        for i in 0..30 {
            let cost = (next() * 4.0).round();
            let y0 = next() * 50.0;
            let slope = next() * 10.0;
            items.push(FuncPoint::new(i, vec![cost], vec![Pwl::linear(y0, slope, 0.0, 8.0)]));
        }
        let originals = items.clone();
        let kept = mfs_divide_conquer(items, 4);
        for step in 0..=16 {
            let x = step as f64 * 0.5;
            for orig in &originals {
                let Some(v) = orig.pwls[0].eval(x) else { continue };
                let covered = kept.iter().any(|k| {
                    k.domain().contains(x)
                        && k.scalars[0] <= orig.scalars[0]
                        && k.pwls[0].eval(x).is_some_and(|kv| kv <= v + 1e-9)
                });
                assert!(covered, "candidate {} uncovered at x={x}", orig.payload);
            }
        }
    }
}
