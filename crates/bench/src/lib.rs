//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (§VI).
//!
//! Each binary in `src/bin/` prints one table or figure; this library
//! holds the experiment logic so the micro-benchmarks and the binaries
//! measure exactly the same computations. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record.

pub mod timing;

use std::time::{Duration, Instant};

use msrnet_core::{optimize, MsriOptions, MsriStats, TerminalOptions, TradeoffCurve};
use msrnet_netgen::{ExperimentNet, TechParams};
use msrnet_rctree::{Net, Repeater, TerminalId};
use msrnet_rng::rngs::StdRng;
use msrnet_rng::SeedableRng;

/// Default insertion-point spacing of the experiments (§VI: consecutive
/// insertion points no more than ≈800 µm apart).
pub const SPACING: f64 = 800.0;

/// Sizes used to build the driver-sizing library (§VI: 1X baseline plus
/// 2X, 3X, 4X variants).
pub const DRIVER_SIZES: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

/// One experiment instance: a random `n`-terminal net with insertion
/// points, plus the two optimization configurations the paper compares.
pub struct Instance {
    /// The optimization-ready net.
    pub net: Net,
    /// Root used for the DP (any terminal; results are root-invariant).
    pub root: TerminalId,
    /// The single symmetric 1X-pair repeater of the experiments.
    pub library: Vec<Repeater>,
    /// Fixed 1X/1X drivers (repeater-insertion mode).
    pub fixed_drivers: TerminalOptions,
    /// Sized driver menus (driver-sizing mode).
    pub sizing_drivers: TerminalOptions,
}

impl Instance {
    /// Builds the experiment instance for a seeded random net.
    pub fn random(params: &TechParams, n: usize, seed: u64, spacing: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = ExperimentNet::random(&mut rng, n, params).expect("random nets are valid");
        let net = exp.with_insertion_points(spacing);
        Instance {
            root: TerminalId(0),
            library: vec![params.repeater(1.0)],
            fixed_drivers: params.fixed_driver_menu(&net),
            sizing_drivers: params.sizing_menu(&net, &DRIVER_SIZES),
            net,
        }
    }

    /// Replaces the repeater library (e.g. with the asymmetric
    /// multi-cost regime) while keeping the same net and driver menus.
    pub fn with_library(mut self, library: Vec<Repeater>) -> Self {
        self.library = library;
        self
    }

    /// Runs driver sizing (no repeaters).
    pub fn run_sizing(&self, options: &MsriOptions) -> TradeoffCurve {
        optimize(&self.net, self.root, &[], &self.sizing_drivers, options)
            .expect("sizing optimization succeeds")
    }

    /// Runs repeater insertion with fixed 1X drivers.
    pub fn run_repeaters(&self, options: &MsriOptions) -> TradeoffCurve {
        optimize(
            &self.net,
            self.root,
            &self.library,
            &self.fixed_drivers,
            options,
        )
        .expect("repeater optimization succeeds")
    }
}

/// One row of Table II, all performance/cost columns normalized to the
/// min-cost solution (1X drivers, no repeaters) as in the paper.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Net size (number of terminals).
    pub n: usize,
    /// Average number of repeater insertion points.
    pub avg_insertion_points: f64,
    /// Column 3: minimal diameter achievable by driver sizing alone.
    pub sizing_diameter: f64,
    /// Column 4: cost of that sizing solution.
    pub sizing_cost: f64,
    /// Column 5: cost of the cheapest repeater solution matching or
    /// beating the sizing diameter.
    pub repeater_cost_at_sizing_diameter: f64,
    /// Column 6: minimal diameter achievable by repeater insertion.
    pub repeater_diameter: f64,
    /// Column 7: cost of that repeater solution.
    pub repeater_cost: f64,
}

/// Computes one Table II row by averaging `trials` seeded random nets.
pub fn table2_row(params: &TechParams, n: usize, trials: usize, seed0: u64) -> Table2Row {
    let options = MsriOptions::default();
    let mut acc = [0.0f64; 6];
    for trial in 0..trials {
        let inst = Instance::random(params, n, seed0 + trial as u64, SPACING);
        let sizing = inst.run_sizing(&options);
        let repeaters = inst.run_repeaters(&options);
        // The min-cost solution (1X drivers, no repeaters) anchors the
        // normalization; it is the cheapest point of either curve.
        let base = sizing.min_cost();
        debug_assert!((base.ard - repeaters.min_cost().ard).abs() < 1e-6);
        let s_best = sizing.best_ard();
        let r_best = repeaters.best_ard();
        let r_match = repeaters
            .min_cost_meeting(s_best.ard)
            .expect("repeaters can match sizing");
        acc[0] += inst.net.topology.insertion_point_count() as f64;
        acc[1] += s_best.ard / base.ard;
        acc[2] += s_best.cost / base.cost;
        acc[3] += r_match.cost / base.cost;
        acc[4] += r_best.ard / base.ard;
        acc[5] += r_best.cost / base.cost;
    }
    let t = trials as f64;
    Table2Row {
        n,
        avg_insertion_points: acc[0] / t,
        sizing_diameter: acc[1] / t,
        sizing_cost: acc[2] / t,
        repeater_cost_at_sizing_diameter: acc[3] / t,
        repeater_diameter: acc[4] / t,
        repeater_cost: acc[5] / t,
    }
}

/// One row of Table III: the fastest sizing and repeater solutions on a
/// single sample topology (absolute values; cost in 1X buffers).
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// Number of terminals.
    pub n: usize,
    /// Seed identifying the sample topology.
    pub seed: u64,
    /// Total wirelength, µm.
    pub wirelength: f64,
    /// Fastest driver-sizing solution: (diameter ps, cost).
    pub sizing: (f64, f64),
    /// Fastest repeater solution: (diameter ps, cost).
    pub repeaters: (f64, f64),
}

/// Computes one Table III row.
pub fn table3_row(params: &TechParams, n: usize, seed: u64) -> Table3Row {
    let options = MsriOptions::default();
    let inst = Instance::random(params, n, seed, SPACING);
    let sizing = inst.run_sizing(&options);
    let repeaters = inst.run_repeaters(&options);
    Table3Row {
        n,
        seed,
        wirelength: inst.net.topology.total_wirelength(),
        sizing: (sizing.best_ard().ard, sizing.best_ard().cost),
        repeaters: (repeaters.best_ard().ard, repeaters.best_ard().cost),
    }
}

/// One row of Table IV: average optimizer run times.
#[derive(Clone, Copy, Debug)]
pub struct Table4Row {
    /// Number of terminals.
    pub n: usize,
    /// Average driver-sizing run time.
    pub sizing_time: Duration,
    /// Average repeater-insertion run time.
    pub repeater_time: Duration,
}

/// Computes one Table IV row by averaging `trials` seeded nets.
pub fn table4_row(params: &TechParams, n: usize, trials: usize, seed0: u64) -> Table4Row {
    let options = MsriOptions::default();
    let mut sizing_total = Duration::ZERO;
    let mut repeater_total = Duration::ZERO;
    for trial in 0..trials {
        let inst = Instance::random(params, n, seed0 + trial as u64, SPACING);
        let t = Instant::now();
        let _ = inst.run_sizing(&options);
        sizing_total += t.elapsed();
        let t = Instant::now();
        let _ = inst.run_repeaters(&options);
        repeater_total += t.elapsed();
    }
    Table4Row {
        n,
        sizing_time: sizing_total / trials as u32,
        repeater_time: repeater_total / trials as u32,
    }
}

/// The asymmetric multi-cost repeater library: three denominations whose
/// pairwise cost sums stay distinct, so joins multiply rather than merge
/// cost classes. This is the Pareto-explosion regime of the verify grid
/// and the one the join cutoffs and the MFS prune target.
pub fn multicost_asym_library(params: &TechParams) -> Vec<Repeater> {
    let b1 = &params.buf_1x;
    let b2 = b1.scaled(2.0);
    let b4 = b1.scaled(4.0);
    vec![
        Repeater::from_buffer_pair("asym_s", b1, &b2),
        Repeater::from_buffer_pair("rep2x", &b2, &b2),
        Repeater::from_buffer_pair("asym_l", &b2, &b4),
    ]
}

/// Result of one pruning-strategy ablation run.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Optimizer wall time.
    pub time: Duration,
    /// Optimizer counters.
    pub stats: MsriStats,
}

/// Runs repeater insertion under a given pruning configuration.
pub fn ablation_run(inst: &Instance, options: &MsriOptions) -> AblationRow {
    let t = Instant::now();
    let curve = inst.run_repeaters(options);
    AblationRow {
        time: t.elapsed(),
        stats: curve.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_netgen::table1;

    #[test]
    fn table2_row_shape_matches_paper() {
        // The paper's headline (Table II): sizing reduces diameter
        // moderately; repeater insertion reduces it substantially more,
        // and matches sizing's diameter at lower cost.
        let params = table1();
        let row = table2_row(&params, 10, 3, 100);
        assert!(row.sizing_diameter < 1.0, "sizing helps");
        assert!(
            row.repeater_diameter < row.sizing_diameter,
            "repeaters beat sizing: {} vs {}",
            row.repeater_diameter,
            row.sizing_diameter
        );
        assert!(
            row.repeater_cost_at_sizing_diameter < row.sizing_cost,
            "repeaters match sizing diameter at lower cost"
        );
        assert!(row.sizing_cost > 1.0 && row.repeater_cost > 1.0);
        assert!(row.avg_insertion_points > 10.0);
    }

    #[test]
    fn instance_runs_both_modes() {
        let params = table1();
        // "Repeaters beat sizing" is a regime-dependent claim: below the
        // paper's 10-terminal experiment scale, wires are short enough
        // that a repeater's intrinsic delay doesn't pay off and sizing
        // can win. Test at the paper's smallest scale, where the claim
        // holds across seeds.
        let inst = Instance::random(&params, 10, 1, SPACING);
        let s = inst.run_sizing(&MsriOptions::default());
        let r = inst.run_repeaters(&MsriOptions::default());
        assert!((s.min_cost().ard - r.min_cost().ard).abs() < 1e-6);
        assert!(r.best_ard().ard <= s.best_ard().ard);
    }
}
