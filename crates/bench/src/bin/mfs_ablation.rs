//! Ablation of the pruning machinery (paper §IV-D and §V):
//!
//! * divide-and-conquer MFS (paper Fig. 4, the default),
//! * naive pairwise MFS (same result, more comparisons).
//!
//! Both strategies return identical frontiers (verified by the test
//! suite); this binary compares their cost. The second section repeats
//! the ablation on the asymmetric multi-cost library — the
//! Pareto-explosion regime where distinct cost denominations keep joins
//! from merging cost classes — which is where the join cutoffs earn
//! their keep. The third section ablates the
//! *predictive* pre-bounds (Li–Shi bound-before-materialize) against
//! block pruning alone: same frontier bits, fewer candidates ever built.
//!
//! Run with: `cargo run --release -p msrnet-bench --bin mfs_ablation`
//! Pass `--json PATH` to also write the predictive-section candidate
//! counts as a machine-readable JSON artifact (consumed by CI).

use msrnet_bench::{ablation_run, multicost_asym_library, Instance, SPACING};
use msrnet_core::{MsriOptions, MsriStats, PruningStrategy};
use msrnet_netgen::{table1, TechParams};

const STRATEGIES: [(&str, PruningStrategy); 2] = [
    ("divide-conquer", PruningStrategy::DivideConquer),
    ("naive pairwise", PruningStrategy::Naive),
];

/// Sums the per-step scalar/PWL prune counters over all DP subroutines.
fn prune_totals(stats: &MsriStats) -> (u64, u64) {
    let steps = [&stats.leaf, &stats.augment, &stats.join, &stats.repeater];
    (
        steps.iter().map(|s| s.scalar_pruned).sum(),
        steps.iter().map(|s| s.pwl_pruned).sum(),
    )
}

fn section(
    title: &str,
    params: &TechParams,
    trials: u64,
    make: impl Fn(u64) -> Instance,
) {
    const RULE: &str =
        "---------------------------------------------------------------------------------------------";
    println!("{title}");
    println!("{RULE}");
    println!(
        "{:<18} | {:>10} | {:>9} | {:>8} | {:>10} | {:>10} | {:>9}",
        "strategy", "avg time", "generated", "peak set", "scalar-prn", "pwl-prn", "surviving"
    );
    println!("{RULE}");
    for (name, strategy) in STRATEGIES {
        let options = MsriOptions {
            pruning: strategy,
            ..MsriOptions::default()
        };
        let mut time = std::time::Duration::ZERO;
        let mut generated = 0u64;
        let mut peak_set = 0usize;
        let mut scalar_pruned = 0u64;
        let mut pwl_pruned = 0u64;
        let mut surviving = 0u64;
        for seed in 0..trials {
            let inst = make(seed);
            let row = ablation_run(&inst, &options);
            time += row.time;
            generated += row.stats.generated;
            peak_set = peak_set.max(row.stats.peak_set());
            let (s, p) = prune_totals(&row.stats);
            scalar_pruned += s;
            pwl_pruned += p;
            surviving += row.stats.surviving;
        }
        println!(
            "{:<18} | {:>10?} | {:>9} | {:>8} | {:>10} | {:>10} | {:>9}",
            name,
            time / trials as u32,
            generated,
            peak_set,
            scalar_pruned,
            pwl_pruned,
            surviving
        );
    }
    println!("{RULE}");
    let _ = params;
}

/// One predictive-vs-block comparison row, accumulated over the trial
/// seeds of a regime.
struct PredictiveRow {
    regime: &'static str,
    mode: &'static str,
    time: std::time::Duration,
    generated: u64,
    prebound_rejected: u64,
    materialized_avoided: u64,
    peak_set: usize,
    surviving: u64,
}

/// Ablates the predictive pre-bounds against block pruning alone: both
/// runs use the default exact strategy, so the frontier is bit-identical
/// and the only difference is how many candidates were ever built.
fn predictive_section(
    trials: u64,
    regimes: &[(&'static str, &dyn Fn(u64) -> Instance)],
) -> Vec<PredictiveRow> {
    const RULE: &str =
        "---------------------------------------------------------------------------------------------";
    println!("Predictive pre-bounds vs block pruning (exact frontier, identical bits)");
    println!("{RULE}");
    println!(
        "{:<26} | {:<10} | {:>10} | {:>9} | {:>8} | {:>8} | {:>7}",
        "regime", "mode", "avg time", "generated", "pre-rej", "avoided", "peak"
    );
    println!("{RULE}");
    let mut rows = Vec::new();
    for (regime, make) in regimes {
        for (mode, predictive) in [("predictive", true), ("block-only", false)] {
            let options = MsriOptions {
                predictive,
                ..MsriOptions::default()
            };
            let mut row = PredictiveRow {
                regime,
                mode,
                time: std::time::Duration::ZERO,
                generated: 0,
                prebound_rejected: 0,
                materialized_avoided: 0,
                peak_set: 0,
                surviving: 0,
            };
            for seed in 0..trials {
                let inst = make(seed);
                let run = ablation_run(&inst, &options);
                row.time += run.time;
                row.generated += run.stats.generated;
                row.peak_set = row.peak_set.max(run.stats.peak_set());
                row.surviving += run.stats.surviving;
                let steps = [
                    &run.stats.leaf,
                    &run.stats.augment,
                    &run.stats.join,
                    &run.stats.repeater,
                ];
                row.prebound_rejected += steps.iter().map(|s| s.prebound_rejected).sum::<u64>();
                row.materialized_avoided +=
                    steps.iter().map(|s| s.materialized_avoided).sum::<u64>();
            }
            println!(
                "{:<26} | {:<10} | {:>10?} | {:>9} | {:>8} | {:>8} | {:>7}",
                row.regime,
                row.mode,
                row.time / trials as u32,
                row.generated,
                row.prebound_rejected,
                row.materialized_avoided,
                row.peak_set
            );
            rows.push(row);
        }
    }
    println!("{RULE}");
    rows
}

/// Serializes the predictive-section rows as the CI candidate-count
/// artifact.
fn predictive_json(trials: u64, rows: &[PredictiveRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"mfs_ablation/predictive\",\n");
    out.push_str(&format!("  \"trials\": {trials},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"regime\": \"{}\", \"mode\": \"{}\", \"avg_ns\": {}, \"generated\": {}, \
             \"prebound_rejected\": {}, \"materialized_avoided\": {}, \"peak_set\": {}, \
             \"surviving\": {}}}{}\n",
            r.regime,
            r.mode,
            (r.time.as_nanos() / u128::from(trials)),
            r.generated,
            r.prebound_rejected,
            r.materialized_avoided,
            r.peak_set,
            r.surviving,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let params = table1();
    let trials = 5u64;
    section(
        &format!("Pruning-strategy ablation (20-pin nets, {trials} seeds, symmetric 1X repeater)"),
        &params,
        trials,
        |seed| Instance::random(&params, 20, 3000 + seed, SPACING),
    );
    println!();
    section(
        &format!(
            "Asymmetric multi-cost regime (6-pin nets, {trials} seeds, costs {{3,4,6}})"
        ),
        &params,
        trials,
        |seed| {
            Instance::random(&params, 6, 3000 + seed, 5.0 * SPACING)
                .with_library(multicost_asym_library(&params))
        },
    );
    println!();
    let make_sym = |seed: u64| Instance::random(&params, 20, 3000 + seed, SPACING);
    let make_multi = |seed: u64| {
        Instance::random(&params, 8, 3000 + seed, 4.0 * SPACING)
            .with_library(multicost_asym_library(&params))
    };
    let regimes: [(&'static str, &dyn Fn(u64) -> Instance); 2] = [
        ("20-pin symmetric 1X", &make_sym),
        ("8-pin multi-cost asym", &make_multi),
    ];
    let rows = predictive_section(trials, &regimes);
    if let Some(path) = json_path {
        let json = predictive_json(trials, &rows);
        std::fs::write(&path, json).expect("write --json artifact");
        eprintln!("wrote {path}");
    }
    println!();
    println!("expected shape: divide-and-conquer and naive pairwise prune the same");
    println!("frontier, divide-and-conquer well ahead. In the multi-cost regime the");
    println!("join cutoffs (counted under scalar-prn) kill hopeless products before");
    println!("materialization.");
}
