//! Micro-benchmarks of the PWL primitives (paper Eq. 3), the pairwise
//! dominance region, and the minimal-functional-subset pruning (paper
//! Fig. 4 vs naive pairwise) — the inner loops of the repeater-insertion
//! dynamic program.

use msrnet_bench::timing::{bench, group};
use msrnet_pwl::{mfs_divide_conquer, mfs_naive, FuncPoint, Pwl};

/// Deterministic pseudo-random PWL built from `k` joined segments.
fn random_pwl(seed: &mut u64, k: usize) -> Pwl {
    let next = move |s: &mut u64| {
        *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*s >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let mut f = Pwl::empty();
    let width = 10.0 / k as f64;
    for i in 0..k {
        let lo = i as f64 * width;
        let piece = Pwl::linear(next(seed) * 100.0, next(seed) * 20.0, lo, lo + width);
        f = if f.is_empty() {
            piece
        } else {
            // Stitch by taking the max over overlapping constants.
            Pwl::from_segments(
                f.segments()
                    .iter()
                    .chain(piece.segments())
                    .copied()
                    .collect(),
            )
        };
    }
    f
}

fn candidates(n: usize) -> Vec<FuncPoint<usize>> {
    let mut seed = 0xC0FFEE;
    (0..n)
        .map(|i| {
            let cost = (i % 7) as f64;
            let y = random_pwl(&mut seed, 4);
            let d = random_pwl(&mut seed, 4);
            FuncPoint::new(i, vec![cost, (i % 5) as f64, 0.0], vec![y, d])
        })
        .collect()
}

fn bench_primitives() {
    let mut seed = 12345u64;
    let f = random_pwl(&mut seed, 16);
    let g = random_pwl(&mut seed, 16);
    group("pwl_primitives");
    bench("max_16seg", || f.max(&g));
    bench("le_regions_16seg", || f.le_regions(&g));
    bench("shift_add_clamp", || {
        f.shifted_arg(0.5).add_linear(3.0, 7.0).clamp_domain(0.0, 9.0)
    });
}

/// The MFS inner-loop primitive on two 2-PWL candidates of 16 segments
/// each: one pair whose region is empty only after the PWL comparison
/// (the scalars allow dominance), one whose region is the whole domain.
fn bench_dominance_region() {
    let mut seed = 777u64;
    let f = random_pwl(&mut seed, 16);
    let g = random_pwl(&mut seed, 16);
    let victim = FuncPoint::new(0, vec![2.0, 2.0, 0.0], vec![f.clone(), g.clone()]);
    let slower = FuncPoint::new(1, vec![1.0, 1.0, 0.0], vec![f.add_scalar(1.0), g.clone()]);
    let faster = FuncPoint::new(2, vec![1.0, 1.0, 0.0], vec![f.add_scalar(-1.0), g]);
    assert!(slower.dominance_region(&victim).is_empty());
    assert!(!faster.dominance_region(&victim).is_empty());
    group("dominance_region");
    bench("empty_16seg", || slower.dominance_region(&victim));
    bench("non_empty_16seg", || faster.dominance_region(&victim));
}

fn bench_mfs() {
    group("mfs_pruning");
    for n in [64usize, 256] {
        let cands = candidates(n);
        bench(&format!("divide_conquer/{n}"), || {
            mfs_divide_conquer(cands.clone(), 8)
        });
        bench(&format!("naive/{n}"), || mfs_naive(cands.clone()));
    }
}

fn main() {
    bench_primitives();
    bench_dominance_region();
    bench_mfs();
}
