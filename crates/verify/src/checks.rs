//! The oracle-pair and metamorphic-property registry.
//!
//! Every check is a total function `Instance -> CheckOutcome`: it either
//! passes, skips (with a reason — e.g. the exhaustive oracle refuses
//! search spaces it cannot enumerate), or fails with a human-readable
//! mismatch description. Checks never panic on valid instances; a panic
//! is itself a bug the harness should surface, so the runner wraps each
//! check in [`std::panic::catch_unwind`].
//!
//! Oracle pairs (two independent implementations, compared):
//! 1. `ard_linear_vs_naive` — the one-DFS linear ARD vs the
//!    `O(n·|sources|)` definitional oracle, on the bare net and on
//!    random repeater assignments.
//! 2. `dp_vs_exhaustive` — the MSRI dynamic program's Pareto frontier vs
//!    brute-force enumeration (Theorem 4.1), gated on search-space size.
//! 3. `wires_dp_vs_exhaustive` — the wire-sizing DP vs brute force over
//!    joint repeater × driver × wire-width choices.
//! 4. `arena_vs_alloc` — `optimize` vs `optimize_in` with a reused
//!    [`MsriWorkspace`]: the fused arena path must be *bit-identical*.
//! 5. `batch_parallel_vs_sequential` — the multi-net engine at 3 threads
//!    vs 1 thread, compared with [`reports_bit_identical`].
//! 6. `feasibility_consistency` — `optimize` returns `NoFeasiblePair`
//!    exactly when the bare ARD is `-∞`.
//! 7. `incremental_vs_scratch` — an [`IncrementalOptimizer`] session
//!    replaying the instance's seeded edit trace, each dirty-path
//!    recompute compared *bit-identically* against a from-scratch
//!    re-solve of the same configuration under the same domain bound.
//! 8. `graph_propagation_vs_naive` — the design-level timing graph's
//!    Kahn-ordered arrival/required propagation vs an independent
//!    memoized-DFS longest-path computation, bit-identical on every pin
//!    of a seeded chip design (`msrnet-timing`).
//! 9. `structural_vs_scratch` — a session replaying a seeded
//!    *structural* trace (terminal growth/removal, insertion-point
//!    splits/splices), each recompute bit-identical to from-scratch
//!    even as the edits renumber id spaces and reshape the cache.
//!
//! Metamorphic properties (one implementation, transformed input):
//! 1. `rescaling_invariance` — Elmore delay is a sum of R·C products, so
//!    scaling every resistance by 8 and every capacitance by 1/8 (exact
//!    power-of-two float ops) must leave the ARD bit-identical.
//! 2. `sink_load_monotonicity` — increasing a sink's required time `q`
//!    or its pin capacitance can only increase the ARD.
//! 3. `pruning_strategies_agree` — divide-and-conquer MFS and naive MFS
//!    must yield the same (cost, ARD) frontier values.
//! 4. `rooting_invariance` — the ARD does not depend on which terminal
//!    the traversal is rooted at.
//! 5. `edit_inverse_restores_frontier` — applying an edit and its exact
//!    inverse (when one exists) must restore the original trade-off
//!    curve bit-for-bit through the incremental engine's cache.
//! 6. `graph_slack_non_decreasing` — running the timing-closure loop on
//!    a seeded chip design may never worsen any endpoint slack (the
//!    clamped write-back's monotonicity guarantee): per-endpoint slack,
//!    per-round WNS, and final WNS are all checked against the
//!    pre-loop propagation.
//! 7. `add_remove_terminal_roundtrip` — growing a terminal at a Steiner
//!    hub and popping it back off (`add_terminal` + its exact inverse)
//!    must restore the trade-off curve bit-for-bit.

use crate::gen::Instance;
use msrnet_batch::{reports_bit_identical, run_batch, BatchJob};
use msrnet_core::ard::{ard_linear, ard_naive};
use msrnet_core::exhaustive::{exhaustive_frontier, exhaustive_frontier_with_wires};
use msrnet_core::{
    optimize, optimize_in, optimize_with_wires, required_cap_bound, MsriError, MsriOptions,
    MsriWorkspace, PruningStrategy, TradeoffCurve,
};
use msrnet_incremental::{Edit, IncrementalOptimizer};
use msrnet_rctree::{Assignment, EdgeId, Orientation, Terminal, TerminalId, VertexId, VertexKind};
use msrnet_rng::{Rng, SeedableRng, SplitMix64};
use msrnet_timing::{
    generate_chip, naive_arrival_times, naive_required_times, propagate, run_closure, ChipConfig,
    ClosureConfig, PinId,
};

/// Classification of a check, reported per-check in the JSON output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// Two independent implementations compared on the same input.
    Oracle,
    /// One implementation compared against itself on a transformed input.
    Metamorphic,
}

/// Result of running one check on one instance.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// The oracle pair agreed / the property held.
    Pass,
    /// The check does not apply to this instance (reason attached).
    Skip(String),
    /// Disagreement — the payload describes both sides.
    Fail(String),
}

/// A named check in the registry.
pub struct CheckDef {
    /// Stable identifier, used in reports and by the shrinker.
    pub name: &'static str,
    /// Oracle pair or metamorphic property.
    pub kind: CheckKind,
    /// The check body.
    pub run: fn(&Instance) -> CheckOutcome,
}

/// The full registry, in execution order (cheap checks first).
pub fn registry() -> &'static [CheckDef] {
    &[
        CheckDef {
            name: "ard_linear_vs_naive",
            kind: CheckKind::Oracle,
            run: check_ard_linear_vs_naive,
        },
        CheckDef {
            name: "rescaling_invariance",
            kind: CheckKind::Metamorphic,
            run: check_rescaling_invariance,
        },
        CheckDef {
            name: "sink_load_monotonicity",
            kind: CheckKind::Metamorphic,
            run: check_sink_load_monotonicity,
        },
        CheckDef {
            name: "rooting_invariance",
            kind: CheckKind::Metamorphic,
            run: check_rooting_invariance,
        },
        CheckDef {
            name: "feasibility_consistency",
            kind: CheckKind::Oracle,
            run: check_feasibility_consistency,
        },
        CheckDef {
            name: "arena_vs_alloc",
            kind: CheckKind::Oracle,
            run: check_arena_vs_alloc,
        },
        CheckDef {
            name: "pruning_strategies_agree",
            kind: CheckKind::Metamorphic,
            run: check_pruning_strategies_agree,
        },
        CheckDef {
            name: "dp_vs_exhaustive",
            kind: CheckKind::Oracle,
            run: check_dp_vs_exhaustive,
        },
        CheckDef {
            name: "wires_dp_vs_exhaustive",
            kind: CheckKind::Oracle,
            run: check_wires_dp_vs_exhaustive,
        },
        CheckDef {
            name: "batch_parallel_vs_sequential",
            kind: CheckKind::Oracle,
            run: check_batch_parallel_vs_sequential,
        },
        CheckDef {
            name: "incremental_vs_scratch",
            kind: CheckKind::Oracle,
            run: check_incremental_vs_scratch,
        },
        CheckDef {
            name: "structural_vs_scratch",
            kind: CheckKind::Oracle,
            run: check_structural_vs_scratch,
        },
        CheckDef {
            name: "edit_inverse_restores_frontier",
            kind: CheckKind::Metamorphic,
            run: check_edit_inverse_restores_frontier,
        },
        CheckDef {
            name: "add_remove_terminal_roundtrip",
            kind: CheckKind::Metamorphic,
            run: check_add_remove_terminal_roundtrip,
        },
        CheckDef {
            name: "graph_propagation_vs_naive",
            kind: CheckKind::Oracle,
            run: check_graph_propagation_vs_naive,
        },
        CheckDef {
            name: "graph_slack_non_decreasing",
            kind: CheckKind::Metamorphic,
            run: check_graph_slack_non_decreasing,
        },
    ]
}

/// Looks up a check by name (used by the shrinker to re-run the one
/// failing check on candidate reductions).
pub fn find_check(name: &str) -> Option<&'static CheckDef> {
    registry().iter().find(|c| c.name == name)
}

/// Runs one check, converting panics into failures (a panicking oracle
/// is as much a mismatch as a disagreeing one).
pub fn run_check(check: &CheckDef, inst: &Instance) -> CheckOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (check.run)(inst)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            CheckOutcome::Fail(format!("check panicked: {msg}"))
        }
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Relative closeness with `-∞ == -∞` treated as agreement.
fn ard_close(a: f64, b: f64) -> bool {
    if a == f64::NEG_INFINITY || b == f64::NEG_INFINITY {
        return a == b;
    }
    let tol = 1e-6 * a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= tol
}

/// Draws `count` random (not necessarily useful) repeater assignments on
/// the instance's insertion points, deterministically from `check_seed`.
fn random_assignments(inst: &Instance, count: usize) -> Vec<Assignment> {
    let mut rng = SplitMix64::seed_from_u64(inst.check_seed ^ 0x00A5_516E);
    let ips: Vec<_> = inst.net.topology.insertion_points().collect();
    let mut out = Vec::new();
    if inst.library.is_empty() || ips.is_empty() {
        return out;
    }
    for _ in 0..count {
        let mut asg = Assignment::empty(inst.net.topology.vertex_count());
        for &v in &ips {
            if rng.gen_bool(0.4) {
                let rep = rng.gen_range(0..inst.library.len());
                let orient = if rng.gen_bool(0.5) {
                    Orientation::AFacesParent
                } else {
                    Orientation::BFacesParent
                };
                asg.place(v, rep, orient);
            }
        }
        out.push(asg);
    }
    out
}

/// Estimated DP candidate-set size at the worst node.
///
/// Measured on path nets: symmetric libraries keep per-node sets linear
/// in the insertion-point count (~2 per point), but any asymmetric or
/// inverting repeater makes orientation/polarity distinctions pile up
/// quadratically — and `JoinSets` at Steiner vertices then multiplies
/// two such sets. The harness gates the DP-running oracles on this
/// estimate instead of letting one adversarial case eat the whole
/// wall-clock budget.
fn dp_set_estimate(inst: &Instance) -> f64 {
    let ips = inst.net.topology.insertion_point_count() as f64;
    // Each distinct repeater cost adds a dimension of undominated
    // Pareto levels (k cost denominations reach O(ips^k) distinct
    // sums); asymmetric orientation / inverting polarity adds one more.
    // Counting every denomination (an earlier revision capped this at 2
    // and badly underestimated ≥3-cost libraries) keeps the estimate
    // honest on the asymmetric multi-cost regimes.
    let distinct_costs = inst
        .library
        .iter()
        .map(|r| r.cost.to_bits())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let mut dims = distinct_costs as f64;
    if inst
        .library
        .iter()
        .any(|r| !r.is_symmetric() || r.inverting)
    {
        // Recalibrated for predictive pruning: the drive-strength
        // pre-bounds reject most orientation/polarity duplicates before
        // they are materialized, so the asymmetric/inverting distinction
        // now costs roughly half a Pareto dimension instead of a full
        // one (measured on the regime grid with the `mfs_ablation`
        // predictive-vs-block section). The old full-dimension weight
        // skipped exactly the high-insertion-point asym cases that are
        // newly cheap.
        dims += 0.5;
    }
    (ips + 1.0).powf(dims)
}

/// Work gate for the DP-running oracles. Calibrated for the engine with
/// join pre-materialization cutoffs and per-step pruning: a 500-case
/// sweep including the asymmetric/inverting regimes fits a 30 s budget
/// on one core (measured; see EXPERIMENTS.md).
const DP_ESTIMATE_LIMIT: f64 = 4000.0;

/// Skip reason when the DP would be too expensive for a fuzz case.
fn dp_intractable(inst: &Instance) -> Option<String> {
    let est = dp_set_estimate(inst);
    (est > DP_ESTIMATE_LIMIT)
        .then(|| format!("DP set estimate {est:.0} exceeds the per-case budget"))
}

/// Estimated exhaustive-search size: repeater/orientation choices per
/// insertion point times the driver-menu product.
fn exhaustive_combos(inst: &Instance) -> f64 {
    let per_ip = 1.0 + 2.0 * inst.library.len() as f64;
    let ips = inst.net.topology.insertion_point_count() as f64;
    let mut combos = per_ip.powf(ips);
    for t in inst.net.terminal_ids() {
        combos *= inst.drivers.for_terminal(t).len().max(1) as f64;
    }
    combos
}

/// Runs `optimize` and formats errors for comparison.
fn run_dp(inst: &Instance, options: &MsriOptions) -> Result<TradeoffCurve, MsriError> {
    optimize(
        &inst.net,
        inst.root,
        &inst.library,
        &inst.drivers,
        options,
    )
}

/// Re-runs Pareto dominance at the comparison tolerances, collapsing
/// float-noise ties.
///
/// Two engines evaluating the same configuration in different
/// association orders can land an ulp apart; when that happens *at* the
/// frontier, one engine's dominance filter collapses the tie while the
/// other keeps both points (the DP prunes with exact `<=`, the
/// exhaustive oracle with a small slack), and the frontiers differ in
/// length even though every surviving point agrees within tolerance.
/// Found by the un-gated verify sweep (seeds 23 and 42); the shrunk
/// repros are pinned in `crates/verify/corpus/`. A point is dropped
/// here exactly when another point matches-or-beats it on both axes
/// within the check tolerances and beats it beyond tolerance on at
/// least one — any disagreement this hides was already invisible to the
/// per-point comparison below.
fn canonical_frontier(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let cost_close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    let mut keep = vec![true; points.len()];
    for (i, &(ci, di)) in points.iter().enumerate() {
        for (j, &(cj, dj)) in points.iter().enumerate() {
            if i == j || !keep[j] {
                continue;
            }
            let cost_le = cj < ci || cost_close(ci, cj);
            let ard_le = dj < di || ard_close(di, dj);
            let strictly = (cj < ci && !cost_close(ci, cj)) || (dj < di && !ard_close(di, dj));
            if cost_le && ard_le && strictly {
                keep[i] = false;
                break;
            }
        }
    }
    points
        .iter()
        .zip(&keep)
        .filter_map(|(p, &k)| k.then_some(*p))
        .collect()
}

/// Compares two frontiers on (cost, ARD) values within tolerance.
///
/// Both sides are canonicalized first (see [`canonical_frontier`]) so
/// that ulp-level Pareto ties resolved differently by the two engines
/// do not read as a mismatch.
fn frontiers_close(a: &[(f64, f64)], b: &[(f64, f64)], label_a: &str, label_b: &str) -> CheckOutcome {
    let a = canonical_frontier(a);
    let b = canonical_frontier(b);
    if a.len() != b.len() {
        return CheckOutcome::Fail(format!(
            "frontier sizes differ: {label_a}={} vs {label_b}={} (a={a:?} b={b:?})",
            a.len(),
            b.len()
        ));
    }
    for (i, (pa, pb)) in a.iter().zip(b).enumerate() {
        let cost_ok = (pa.0 - pb.0).abs() <= 1e-9 * pa.0.abs().max(pb.0.abs()).max(1.0);
        if !cost_ok || !ard_close(pa.1, pb.1) {
            return CheckOutcome::Fail(format!(
                "frontier point {i} differs: {label_a}=({:.12}, {:.12}) vs {label_b}=({:.12}, {:.12})",
                pa.0, pa.1, pb.0, pb.1
            ));
        }
    }
    CheckOutcome::Pass
}

// ---------------------------------------------------------------------------
// Oracle pairs
// ---------------------------------------------------------------------------

fn check_ard_linear_vs_naive(inst: &Instance) -> CheckOutcome {
    let rooted = inst.net.rooted_at_terminal(inst.root);
    let mut assignments = vec![Assignment::empty(inst.net.topology.vertex_count())];
    assignments.extend(random_assignments(inst, 3));
    for (k, asg) in assignments.iter().enumerate() {
        let fast = ard_linear(&inst.net, &rooted, &inst.library, asg);
        let slow = ard_naive(&inst.net, &rooted, &inst.library, asg);
        if !ard_close(fast.ard, slow.ard) {
            return CheckOutcome::Fail(format!(
                "assignment {k} ({} repeaters): linear={} naive={}",
                asg.placed_count(),
                fast.ard,
                slow.ard
            ));
        }
        if fast.critical.is_some() != slow.critical.is_some() {
            return CheckOutcome::Fail(format!(
                "assignment {k}: critical-pair presence differs (linear={:?} naive={:?})",
                fast.critical, slow.critical
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_dp_vs_exhaustive(inst: &Instance) -> CheckOutcome {
    if !inst.terminals_are_leaves() {
        return CheckOutcome::Skip("non-leaf terminal (DP precondition)".into());
    }
    let combos = exhaustive_combos(inst);
    if combos > 2e4 {
        return CheckOutcome::Skip(format!("search space too large ({combos:.0})"));
    }
    let dp = run_dp(inst, &inst.options);
    let exact = exhaustive_frontier(&inst.net, inst.root, &inst.library, &inst.drivers);
    match dp {
        Err(MsriError::NoFeasiblePair) => {
            if exact.is_empty() {
                CheckOutcome::Pass
            } else {
                CheckOutcome::Fail(format!(
                    "DP says NoFeasiblePair but exhaustive found {} points",
                    exact.len()
                ))
            }
        }
        Err(e) => CheckOutcome::Fail(format!("DP error {e:?} on an enumerable instance")),
        Ok(curve) => {
            let a: Vec<_> = curve.points().iter().map(|p| (p.cost, p.ard)).collect();
            let b: Vec<_> = exact.iter().map(|p| (p.cost, p.ard)).collect();
            frontiers_close(&a, &b, "dp", "exhaustive")
        }
    }
}

fn check_wires_dp_vs_exhaustive(inst: &Instance) -> CheckOutcome {
    if inst.wire_options.len() < 2 {
        return CheckOutcome::Skip("no wire sizing in this regime".into());
    }
    if !inst.terminals_are_leaves() {
        return CheckOutcome::Skip("non-leaf terminal (DP precondition)".into());
    }
    let sized_edges = inst
        .net
        .topology
        .edges()
        .filter(|&e| inst.net.topology.length(e) > 0.0)
        .count();
    let combos =
        exhaustive_combos(inst) * (inst.wire_options.len() as f64).powf(sized_edges as f64);
    if combos > 2e4 {
        return CheckOutcome::Skip(format!("wire search space too large ({combos:.0})"));
    }
    let dp = optimize_with_wires(
        &inst.net,
        inst.root,
        &inst.library,
        &inst.drivers,
        &inst.wire_options,
        &inst.options,
    );
    let exact = exhaustive_frontier_with_wires(
        &inst.net,
        inst.root,
        &inst.library,
        &inst.drivers,
        &inst.wire_options,
    );
    match dp {
        Err(MsriError::NoFeasiblePair) if exact.is_empty() => CheckOutcome::Pass,
        Err(e) => CheckOutcome::Fail(format!("wire DP error {e:?}, exhaustive has {} points", exact.len())),
        Ok(curve) => {
            let a: Vec<_> = curve.points().iter().map(|p| (p.cost, p.ard)).collect();
            let b: Vec<_> = exact.iter().map(|p| (p.cost, p.ard)).collect();
            frontiers_close(&a, &b, "wire-dp", "wire-exhaustive")
        }
    }
}

fn check_arena_vs_alloc(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = dp_intractable(inst) {
        return CheckOutcome::Skip(reason);
    }
    if inst.check_seed % 3 != 1 {
        return CheckOutcome::Skip("sampled out (runs on 1/3 of cases)".into());
    }
    let plain = run_dp(inst, &inst.options);
    let mut ws = MsriWorkspace::new();
    // Prime the workspace on a first run so the comparison run actually
    // exercises arena reuse, then compare the second run.
    let _ = optimize_in(
        &inst.net,
        inst.root,
        &inst.library,
        &inst.drivers,
        &inst.options,
        &mut ws,
    );
    let arena = optimize_in(
        &inst.net,
        inst.root,
        &inst.library,
        &inst.drivers,
        &inst.options,
        &mut ws,
    );
    match (plain, arena) {
        (Err(a), Err(b)) => {
            if a == b {
                CheckOutcome::Pass
            } else {
                CheckOutcome::Fail(format!("error variants differ: plain={a:?} arena={b:?}"))
            }
        }
        (Ok(_), Err(e)) => CheckOutcome::Fail(format!("plain succeeded, arena failed: {e:?}")),
        (Err(e), Ok(_)) => CheckOutcome::Fail(format!("arena succeeded, plain failed: {e:?}")),
        (Ok(a), Ok(b)) => {
            if a.len() != b.len() {
                return CheckOutcome::Fail(format!(
                    "frontier sizes differ: plain={} arena={}",
                    a.len(),
                    b.len()
                ));
            }
            for (i, (pa, pb)) in a.points().iter().zip(b.points()).enumerate() {
                // Bit-identical contract: the arena path is the same
                // arithmetic in the same order, only without allocation.
                if pa.cost.to_bits() != pb.cost.to_bits()
                    || pa.ard.to_bits() != pb.ard.to_bits()
                    || pa.assignment != pb.assignment
                    || pa.terminal_choices != pb.terminal_choices
                {
                    return CheckOutcome::Fail(format!(
                        "point {i} not bit-identical: plain=({:?}, {:?}) arena=({:?}, {:?})",
                        pa.cost, pa.ard, pb.cost, pb.ard
                    ));
                }
            }
            CheckOutcome::Pass
        }
    }
}

fn check_batch_parallel_vs_sequential(inst: &Instance) -> CheckOutcome {
    // 2 thread-counts x 3 jobs = six DP solves per case, so the work
    // gate is tighter than the single-solve oracles'.
    let est = dp_set_estimate(inst);
    if est > DP_ESTIMATE_LIMIT / 6.0 {
        return CheckOutcome::Skip(format!(
            "DP set estimate {est:.0} too large for the batch re-runs"
        ));
    }
    // Six DP solves per case is the most expensive check in the
    // registry; a deterministic quarter of the stream (keyed on the
    // case's own seed) keeps it exercised without dominating the run.
    if !inst.check_seed.is_multiple_of(4) {
        return CheckOutcome::Skip("sampled out (runs on 1/4 of cases)".into());
    }
    if inst.net.topology.vertex_count() > 80 {
        return CheckOutcome::Skip("net too large for the 2× batch re-run budget".into());
    }
    // Three jobs (clones with distinct names) so the parallel run has
    // actual scheduling freedom to get wrong.
    let jobs: Vec<BatchJob> = (0..3)
        .map(|i| BatchJob {
            name: format!("{}-{i}", inst.name),
            net: inst.net.clone(),
            root: inst.root,
            library: inst.library.clone(),
            drivers: inst.drivers.clone(),
            options: inst.options,
        })
        .collect();
    let seq = run_batch(&jobs, 1);
    let par = run_batch(&jobs, 3);
    if reports_bit_identical(&seq, &par) {
        CheckOutcome::Pass
    } else {
        CheckOutcome::Fail("parallel batch report differs from sequential".into())
    }
}

fn check_feasibility_consistency(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = dp_intractable(inst) {
        return CheckOutcome::Skip(reason);
    }
    if !inst.terminals_are_leaves() {
        return CheckOutcome::Skip("non-leaf terminal (DP precondition)".into());
    }
    let rooted = inst.net.rooted_at_terminal(inst.root);
    let bare = ard_linear(
        &inst.net,
        &rooted,
        &inst.library,
        &Assignment::empty(inst.net.topology.vertex_count()),
    );
    let dp = run_dp(inst, &inst.options);
    match (bare.ard == f64::NEG_INFINITY, dp) {
        (true, Err(MsriError::NoFeasiblePair)) => CheckOutcome::Pass,
        (true, Ok(curve)) => CheckOutcome::Fail(format!(
            "bare ARD is -∞ but DP produced a {}-point frontier",
            curve.len()
        )),
        (false, Err(e)) => {
            CheckOutcome::Fail(format!("bare ARD is finite but DP failed: {e:?}"))
        }
        (false, Ok(_)) => CheckOutcome::Pass,
        (true, Err(e)) => CheckOutcome::Fail(format!(
            "bare ARD is -∞ but DP failed with {e:?} instead of NoFeasiblePair"
        )),
    }
}

/// Shared precondition/work gate for the incremental-session checks.
/// Every replayed edit costs up to one full re-solve (the oracle side),
/// so the gate mirrors the quadratic-pruning check's tighter budget.
fn incremental_gate(inst: &Instance) -> Option<String> {
    if inst.edits.is_empty() {
        return Some("no edit trace attached".into());
    }
    session_gate(inst)
}

/// [`incremental_gate`] without the attached-trace requirement, for the
/// structural checks that derive their own edits from the net.
fn session_gate(inst: &Instance) -> Option<String> {
    if !inst.terminals_are_leaves() {
        return Some("non-leaf terminal (DP precondition)".into());
    }
    let est = dp_set_estimate(inst);
    if est > DP_ESTIMATE_LIMIT / 8.0 {
        return Some(format!(
            "DP set estimate {est:.0} too large for the per-edit re-solves"
        ));
    }
    if inst.net.topology.vertex_count() > 60 {
        return Some("net too large for the per-edit re-solve budget".into());
    }
    // `IncrementalOptimizer::new` asserts a finite positive domain bound;
    // degenerate regimes (e.g. a terminal with infinite cap) must skip
    // rather than panic-fail.
    let bound = required_cap_bound(&inst.net, &inst.library, &inst.drivers, &inst.wire_options);
    if !bound.is_finite() || bound <= 0.0 {
        return Some(format!("degenerate cap bound {bound}"));
    }
    None
}

/// Opens an incremental session on the instance's configuration.
fn open_session(inst: &Instance) -> IncrementalOptimizer {
    IncrementalOptimizer::new(
        inst.net.clone(),
        inst.root,
        inst.library.clone(),
        inst.drivers.clone(),
        inst.wire_options.clone(),
        inst.options,
    )
}

/// Bit-level curve equality, values *and* realizations.
fn curves_bit_eq(a: &TradeoffCurve, b: &TradeoffCurve) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("frontier sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (i, (pa, pb)) in a.points().iter().zip(b.points()).enumerate() {
        if pa.cost.to_bits() != pb.cost.to_bits()
            || pa.ard.to_bits() != pb.ard.to_bits()
            || pa.assignment != pb.assignment
            || pa.terminal_choices != pb.terminal_choices
            || pa.wire_choices != pb.wire_choices
        {
            return Err(format!(
                "point {i} not bit-identical: ({}, {}) vs ({}, {})",
                pa.cost, pa.ard, pb.cost, pb.ard
            ));
        }
    }
    Ok(())
}

fn check_incremental_vs_scratch(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = incremental_gate(inst) {
        return CheckOutcome::Skip(reason);
    }
    let mut session = open_session(inst);
    // Step 0 compares the initial all-dirty compute, then each applied
    // edit compares its dirty-path recompute against a from-scratch
    // re-solve of the identical configuration under the same bound.
    for step in 0..=inst.edits.len() {
        let label: String = if step == 0 {
            "initial".into()
        } else {
            let edit = &inst.edits[step - 1];
            if session.apply(edit).is_err() {
                // Rejected edits leave the session untouched; nothing
                // new to compare.
                continue;
            }
            format!("edit {} ({})", step - 1, edit.op_name())
        };
        let inc = session.recompute();
        let scratch = session.from_scratch();
        match (inc, scratch) {
            (Err(a), Err(b)) => {
                if a != b {
                    return CheckOutcome::Fail(format!(
                        "{label}: error variants differ: incremental={a:?} scratch={b:?}"
                    ));
                }
            }
            (Ok(_), Err(e)) => {
                return CheckOutcome::Fail(format!(
                    "{label}: incremental succeeded, scratch failed: {e:?}"
                ));
            }
            (Err(e), Ok(_)) => {
                return CheckOutcome::Fail(format!(
                    "{label}: scratch succeeded, incremental failed: {e:?}"
                ));
            }
            (Ok((a, sa)), Ok((b, sb))) => {
                if sa.nodes_recomputed > sb.nodes_recomputed {
                    return CheckOutcome::Fail(format!(
                        "{label}: incremental rebuilt {} nodes, more than scratch's {}",
                        sa.nodes_recomputed, sb.nodes_recomputed
                    ));
                }
                if sa.nodes_recomputed + sa.nodes_reused != sa.nodes_visited {
                    return CheckOutcome::Fail(format!(
                        "{label}: visit accounting broken: {} rebuilt + {} reused != {} visited",
                        sa.nodes_recomputed, sa.nodes_reused, sa.nodes_visited
                    ));
                }
                if let Err(msg) = curves_bit_eq(&a, &b) {
                    return CheckOutcome::Fail(format!("{label}: {msg}"));
                }
            }
        }
    }
    CheckOutcome::Pass
}

fn check_edit_inverse_restores_frontier(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = incremental_gate(inst) {
        return CheckOutcome::Skip(reason);
    }
    let mut session = open_session(inst);
    let Ok((mut baseline, _)) = session.recompute() else {
        return CheckOutcome::Skip("base configuration has no feasible pair".into());
    };
    let mut escalations = session.escalations();
    for (k, edit) in inst.edits.iter().enumerate() {
        // The inverse reads the *current* state, so capture it first.
        let Some(inverse) = session.inverse_of(edit) else {
            continue;
        };
        if session.apply(edit).is_err() {
            continue;
        }
        // The intermediate configuration may legitimately be infeasible;
        // the dirty set carries over to the restoring recompute.
        let _ = session.recompute();
        if session.apply(&inverse).is_err() {
            return CheckOutcome::Fail(format!(
                "edit {k} ({}): exact inverse was rejected",
                edit.op_name()
            ));
        }
        let restored = match session.recompute() {
            Err(e) => {
                return CheckOutcome::Fail(format!(
                    "edit {k} ({}): restored configuration failed: {e:?}",
                    edit.op_name()
                ));
            }
            Ok((curve, _)) => curve,
        };
        if session.escalations() != escalations {
            // The round trip escalated the domain bound. The restored
            // configuration equals the original, but cached solutions now
            // live on a wider PWL domain, so re-baseline from scratch
            // under the new bound instead of comparing across bounds.
            escalations = session.escalations();
            match session.from_scratch() {
                Err(e) => {
                    return CheckOutcome::Fail(format!(
                        "edit {k} ({}): post-escalation scratch failed: {e:?}",
                        edit.op_name()
                    ));
                }
                Ok((fresh, _)) => {
                    if let Err(msg) = curves_bit_eq(&fresh, &restored) {
                        return CheckOutcome::Fail(format!(
                            "edit {k} ({}): post-escalation restore diverged: {msg}",
                            edit.op_name()
                        ));
                    }
                    baseline = restored;
                }
            }
        } else if let Err(msg) = curves_bit_eq(&baseline, &restored) {
            return CheckOutcome::Fail(format!(
                "edit {k} ({}): frontier not restored: {msg}",
                edit.op_name()
            ));
        }
    }
    CheckOutcome::Pass
}

/// A seeded, mostly-applicable structural trace derived from the
/// instance's own net: grow terminals at Steiner hubs, pop one back off,
/// attempt an interior removal (renumbering ids), split an edge at its
/// midpoint, and splice out an existing insertion point. Later edits may
/// be rejected once earlier ones renumber ids — the replaying checks
/// tolerate typed rejections, like every other trace consumer.
fn structural_probe_trace(inst: &Instance) -> Vec<Edit> {
    let topo = &inst.net.topology;
    let mut rng = SplitMix64::seed_from_u64(inst.check_seed ^ 0x57C7_ED17_0000_0000);
    let mut edits = Vec::new();
    let steiners: Vec<VertexId> = (0..topo.vertex_count())
        .map(VertexId)
        .filter(|&v| matches!(topo.kind(v), VertexKind::Steiner))
        .collect();
    let base_terms = inst.net.terminals.len();
    let mut grown = 0;
    for &s in steiners.iter().take(2) {
        let p = topo.position(s);
        edits.push(Edit::AddTerminal {
            at: s,
            x: p.x + rng.gen_range(-40.0..40.0),
            y: p.y + rng.gen_range(-40.0..40.0),
            terminal: Terminal::bidirectional(
                0.0,
                0.0,
                rng.gen_range(0.05..0.6),
                rng.gen_range(80.0..320.0),
            ),
        });
        grown += 1;
    }
    if grown > 0 {
        // Pure-pop removal of the newest terminal, then an interior
        // removal exercising the swap-remove id remap.
        edits.push(Edit::RemoveTerminal {
            terminal: TerminalId(base_terms + grown - 1),
        });
        edits.push(Edit::RemoveTerminal {
            terminal: TerminalId(rng.gen_range(0..base_terms)),
        });
    }
    if topo.edge_count() > 0 {
        edits.push(Edit::AddInsertionPoint {
            edge: EdgeId(rng.gen_range(0..topo.edge_count())),
            frac: 0.5,
        });
    }
    if let Some(ip) = (0..topo.vertex_count())
        .map(VertexId)
        .find(|&v| matches!(topo.kind(v), VertexKind::InsertionPoint))
    {
        edits.push(Edit::RemoveInsertionPoint { vertex: ip });
    }
    edits
}

/// Oracle: a session replaying a seeded *structural* trace (terminal
/// growth/removal, insertion-point splits/splices) must stay
/// bit-identical to a from-scratch re-solve after every applied edit —
/// the same contract `incremental_vs_scratch` pins for parametric edits,
/// extended to edits that renumber the id spaces and reshape the cache.
fn check_structural_vs_scratch(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = session_gate(inst) {
        return CheckOutcome::Skip(reason);
    }
    let edits = structural_probe_trace(inst);
    if edits.is_empty() {
        return CheckOutcome::Skip("net offers no structural edit sites".into());
    }
    let mut session = open_session(inst);
    let mut applied = 0;
    for step in 0..=edits.len() {
        let label: String = if step == 0 {
            "initial".into()
        } else {
            let edit = &edits[step - 1];
            if session.apply(edit).is_err() {
                continue;
            }
            applied += 1;
            format!("edit {} ({})", step - 1, edit.op_name())
        };
        let inc = session.recompute();
        let scratch = session.from_scratch();
        match (inc, scratch) {
            (Err(a), Err(b)) => {
                if a != b {
                    return CheckOutcome::Fail(format!(
                        "{label}: error variants differ: incremental={a:?} scratch={b:?}"
                    ));
                }
            }
            (Ok(_), Err(e)) => {
                return CheckOutcome::Fail(format!(
                    "{label}: incremental succeeded, scratch failed: {e:?}"
                ));
            }
            (Err(e), Ok(_)) => {
                return CheckOutcome::Fail(format!(
                    "{label}: scratch succeeded, incremental failed: {e:?}"
                ));
            }
            (Ok((a, sa)), Ok((b, _))) => {
                if sa.nodes_recomputed + sa.nodes_reused != sa.nodes_visited {
                    return CheckOutcome::Fail(format!(
                        "{label}: visit accounting broken: {} rebuilt + {} reused != {} visited",
                        sa.nodes_recomputed, sa.nodes_reused, sa.nodes_visited
                    ));
                }
                if let Err(msg) = curves_bit_eq(&a, &b) {
                    return CheckOutcome::Fail(format!("{label}: {msg}"));
                }
            }
        }
    }
    if applied == 0 {
        return CheckOutcome::Skip("every structural probe edit was rejected".into());
    }
    CheckOutcome::Pass
}

/// Metamorphic: growing a terminal at a Steiner hub and popping it back
/// off (`add_terminal` then its exact inverse) must restore the
/// trade-off curve bit-for-bit — the append-only/swap-remove id
/// discipline's user-visible guarantee.
fn check_add_remove_terminal_roundtrip(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = session_gate(inst) {
        return CheckOutcome::Skip(reason);
    }
    let steiners: Vec<VertexId> = {
        let topo = &inst.net.topology;
        (0..topo.vertex_count())
            .map(VertexId)
            .filter(|&v| matches!(topo.kind(v), VertexKind::Steiner))
            .collect()
    };
    if steiners.is_empty() {
        return CheckOutcome::Skip("no Steiner hub to grow a terminal from".into());
    }
    let mut session = open_session(inst);
    let Ok((curve, _)) = session.recompute() else {
        return CheckOutcome::Skip("base configuration has no feasible pair".into());
    };
    let mut baseline = curve;
    let mut escalations = session.escalations();
    let mut rng = SplitMix64::seed_from_u64(inst.check_seed ^ 0x0ADD_7E3A_0000_0000);
    for (k, &s) in steiners.iter().take(3).enumerate() {
        let p = inst.net.topology.position(s);
        let edit = Edit::AddTerminal {
            at: s,
            x: p.x + rng.gen_range(-40.0..40.0),
            y: p.y + rng.gen_range(-40.0..40.0),
            terminal: Terminal::bidirectional(
                0.0,
                0.0,
                rng.gen_range(0.05..0.6),
                rng.gen_range(80.0..320.0),
            ),
        };
        let Some(inverse) = session.inverse_of(&edit) else {
            return CheckOutcome::Fail(format!("hub {k}: add_terminal offered no inverse"));
        };
        if let Err(e) = session.apply(&edit) {
            return CheckOutcome::Fail(format!("hub {k}: valid add_terminal rejected: {e}"));
        }
        // The grown configuration may legitimately be infeasible; the
        // dirty set carries over to the restoring recompute.
        let _ = session.recompute();
        if let Err(e) = session.apply(&inverse) {
            return CheckOutcome::Fail(format!("hub {k}: pure-pop inverse rejected: {e}"));
        }
        let restored = match session.recompute() {
            Err(e) => {
                return CheckOutcome::Fail(format!(
                    "hub {k}: restored configuration failed: {e:?}"
                ));
            }
            Ok((curve, _)) => curve,
        };
        if session.escalations() != escalations {
            // The grown terminal widened the domain bound; compare the
            // restored state against a fresh solve under the new bound.
            escalations = session.escalations();
            match session.from_scratch() {
                Err(e) => {
                    return CheckOutcome::Fail(format!(
                        "hub {k}: post-escalation scratch failed: {e:?}"
                    ));
                }
                Ok((fresh, _)) => {
                    if let Err(msg) = curves_bit_eq(&fresh, &restored) {
                        return CheckOutcome::Fail(format!(
                            "hub {k}: post-escalation restore diverged: {msg}"
                        ));
                    }
                    baseline = restored;
                }
            }
        } else if let Err(msg) = curves_bit_eq(&baseline, &restored) {
            return CheckOutcome::Fail(format!("hub {k}: frontier not restored: {msg}"));
        }
    }
    CheckOutcome::Pass
}

// ---------------------------------------------------------------------------
// Design-level timing-graph checks
// ---------------------------------------------------------------------------

/// A small seeded chip for the design-level checks. The chip is keyed
/// on `check_seed` (the instance's single-net payload is irrelevant at
/// this level — the design generator draws its own nets), so the case
/// stream still covers a fresh design per case.
fn check_chip(seed: u64) -> Result<msrnet_timing::Design, msrnet_timing::TimingError> {
    generate_chip(&ChipConfig {
        nets: 5 + (seed % 4) as usize,
        levels: 2 + (seed % 2) as usize,
        seed,
        max_pins: 5,
        spacing: 3000.0,
        region_min: 1500.0,
        region_max: 4000.0,
        clock: 0.0,
    })
}

fn check_graph_propagation_vs_naive(inst: &Instance) -> CheckOutcome {
    if !inst.check_seed.is_multiple_of(2) {
        return CheckOutcome::Skip("sampled out (runs on 1/2 of cases)".into());
    }
    let design = match check_chip(inst.check_seed) {
        Ok(d) => d,
        Err(e) => return CheckOutcome::Fail(format!("chip generation failed: {e}")),
    };
    let kahn = match propagate(&design) {
        Ok(t) => t,
        Err(e) => return CheckOutcome::Fail(format!("propagation failed: {e}")),
    };
    let at = match naive_arrival_times(&design) {
        Ok(v) => v,
        Err(e) => return CheckOutcome::Fail(format!("naive forward pass failed: {e}")),
    };
    let rat = match naive_required_times(&design) {
        Ok(v) => v,
        Err(e) => return CheckOutcome::Fail(format!("naive backward pass failed: {e}")),
    };
    for p in 0..design.pin_count() {
        // Bit-identical contract: both passes take the max/min over
        // the same candidate sums, only in different orders of
        // discovery — the winning value is the same float.
        if kahn.arrival(PinId(p)).to_bits() != at[p].to_bits() {
            return CheckOutcome::Fail(format!(
                "pin {p}: arrival differs: kahn={} naive={}",
                kahn.arrival(PinId(p)),
                at[p]
            ));
        }
        if kahn.required(PinId(p)).to_bits() != rat[p].to_bits() {
            return CheckOutcome::Fail(format!(
                "pin {p}: required differs: kahn={} naive={}",
                kahn.required(PinId(p)),
                rat[p]
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_graph_slack_non_decreasing(inst: &Instance) -> CheckOutcome {
    // Each case runs up to k×rounds DP solves; a deterministic quarter
    // of the stream keeps the cost in line with the other DP checks.
    if inst.check_seed % 4 != 1 {
        return CheckOutcome::Skip("sampled out (runs on 1/4 of cases)".into());
    }
    let mut design = match check_chip(inst.check_seed) {
        Ok(d) => d,
        Err(e) => return CheckOutcome::Fail(format!("chip generation failed: {e}")),
    };
    let before = match propagate(&design) {
        Ok(t) => t,
        Err(e) => return CheckOutcome::Fail(format!("pre-loop propagation failed: {e}")),
    };
    let cfg = ClosureConfig {
        k: 2,
        max_rounds: 3,
        threads: 1,
        slack_target: 0.0,
    };
    let report = match run_closure(&mut design, &cfg) {
        Ok(r) => r,
        Err(e) => return CheckOutcome::Fail(format!("closure loop failed: {e}")),
    };
    let after = match propagate(&design) {
        Ok(t) => t,
        Err(e) => return CheckOutcome::Fail(format!("post-loop propagation failed: {e}")),
    };
    for &p in before.endpoints() {
        let (sb, sa) = (before.slack(p), after.slack(p));
        let tol = 1e-9 * sb.abs().max(1.0);
        if sa < sb - tol {
            return CheckOutcome::Fail(format!(
                "endpoint pin {} slack degraded: {sb} -> {sa}",
                p.0
            ));
        }
    }
    for (i, r) in report.rounds.iter().enumerate() {
        let tol = 1e-9 * r.wns_before.abs().max(1.0);
        if r.wns_after < r.wns_before - tol {
            return CheckOutcome::Fail(format!(
                "round {}: WNS degraded: {} -> {}",
                i + 1,
                r.wns_before,
                r.wns_after
            ));
        }
    }
    let tol = 1e-9 * report.wns_initial.abs().max(1.0);
    if report.wns_final < report.wns_initial - tol {
        return CheckOutcome::Fail(format!(
            "WNS degraded across the loop: {} -> {}",
            report.wns_initial, report.wns_final
        ));
    }
    CheckOutcome::Pass
}

// ---------------------------------------------------------------------------
// Metamorphic properties
// ---------------------------------------------------------------------------

/// Scales every resistance by `k` and every capacitance by `1/k`.
fn rescale_instance(inst: &Instance, k: f64) -> Instance {
    let mut out = inst.clone();
    out.net.tech.unit_res *= k;
    out.net.tech.unit_cap /= k;
    for t in &mut out.net.terminals {
        t.drive_res *= k;
        t.cap /= k;
    }
    out.library = inst
        .library
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.a_to_b.out_res *= k;
            r.b_to_a.out_res *= k;
            r.cap_a /= k;
            r.cap_b /= k;
            r
        })
        .collect();
    out
}

fn check_rescaling_invariance(inst: &Instance) -> CheckOutcome {
    // k = 8 is a power of two: R·k and C/k are exact float operations
    // whose exponent shifts cancel in every R·C product, so the entire
    // Elmore computation is bit-for-bit reproducible.
    let scaled = rescale_instance(inst, 8.0);
    let rooted = inst.net.rooted_at_terminal(inst.root);
    let rooted_s = scaled.net.rooted_at_terminal(scaled.root);
    let mut assignments = vec![Assignment::empty(inst.net.topology.vertex_count())];
    assignments.extend(random_assignments(inst, 2));
    for (k, asg) in assignments.iter().enumerate() {
        let base = ard_linear(&inst.net, &rooted, &inst.library, asg);
        let resc = ard_linear(&scaled.net, &rooted_s, &scaled.library, asg);
        let both_neg_inf =
            base.ard == f64::NEG_INFINITY && resc.ard == f64::NEG_INFINITY;
        if !both_neg_inf && base.ard.to_bits() != resc.ard.to_bits() {
            return CheckOutcome::Fail(format!(
                "assignment {k}: ARD not invariant under R×8, C/8 rescale: {} vs {}",
                base.ard, resc.ard
            ));
        }
    }
    CheckOutcome::Pass
}

fn check_sink_load_monotonicity(inst: &Instance) -> CheckOutcome {
    let sinks: Vec<_> = inst
        .net
        .terminal_ids()
        .filter(|&t| inst.net.terminal(t).is_sink())
        .collect();
    let Some(&victim) = sinks.first() else {
        return CheckOutcome::Skip("no sink terminal".into());
    };
    let rooted = inst.net.rooted_at_terminal(inst.root);
    let asg = Assignment::empty(inst.net.topology.vertex_count());
    let base = ard_linear(&inst.net, &rooted, &inst.library, &asg).ard;

    // (a) A later required time at one sink can only worsen the ARD.
    let mut heavier_q = inst.net.clone();
    heavier_q.terminals[victim.0].downstream += 50.0;
    let with_q = ard_linear(
        &heavier_q,
        &heavier_q.rooted_at_terminal(inst.root),
        &inst.library,
        &asg,
    )
    .ard;
    // (b) More pin capacitance anywhere can only slow Elmore delays.
    let mut heavier_c = inst.net.clone();
    heavier_c.terminals[victim.0].cap *= 2.0;
    let with_c = ard_linear(
        &heavier_c,
        &heavier_c.rooted_at_terminal(inst.root),
        &inst.library,
        &asg,
    )
    .ard;

    let tol = 1e-9 * base.abs().max(1.0);
    if base.is_finite() && with_q < base - tol {
        return CheckOutcome::Fail(format!(
            "ARD decreased when sink {victim:?} q increased: {base} -> {with_q}"
        ));
    }
    if base.is_finite() && with_c < base - tol {
        return CheckOutcome::Fail(format!(
            "ARD decreased when sink {victim:?} cap doubled: {base} -> {with_c}"
        ));
    }
    CheckOutcome::Pass
}

fn check_pruning_strategies_agree(inst: &Instance) -> CheckOutcome {
    // Naive MFS pruning is quadratic in candidate-set size, so this
    // check takes a tighter work gate than the other DP oracles.
    let est = dp_set_estimate(inst);
    if est > DP_ESTIMATE_LIMIT / 8.0 {
        return CheckOutcome::Skip(format!(
            "DP set estimate {est:.0} too large for the quadratic-pruning re-runs"
        ));
    }
    if !inst.check_seed.is_multiple_of(3) {
        return CheckOutcome::Skip("sampled out (runs on 1/3 of cases)".into());
    }
    if !inst.terminals_are_leaves() {
        return CheckOutcome::Skip("non-leaf terminal (DP precondition)".into());
    }
    if inst.net.topology.vertex_count() > 60 {
        return CheckOutcome::Skip("net too large for the naive-pruning re-run".into());
    }
    let frontier = |pruning| {
        run_dp(inst, &MsriOptions { pruning, ..inst.options }).map(|c| {
            c.points()
                .iter()
                .map(|p| (p.cost, p.ard))
                .collect::<Vec<_>>()
        })
    };
    match (
        frontier(PruningStrategy::DivideConquer),
        frontier(PruningStrategy::Naive),
    ) {
        (Err(a), Err(b)) if a == b => CheckOutcome::Pass,
        (Ok(a), Ok(b)) => match frontiers_close(&a, &b, "divide_conquer", "naive") {
            CheckOutcome::Fail(msg) => {
                CheckOutcome::Fail(format!("pruning strategies disagree: {msg}"))
            }
            _ => CheckOutcome::Pass,
        },
        (a, b) => CheckOutcome::Fail(format!(
            "pruning divide_conquer -> {a:?} but naive -> {b:?}"
        )),
    }
}

fn check_rooting_invariance(inst: &Instance) -> CheckOutcome {
    if inst.net.topology.terminal_count() < 2 {
        return CheckOutcome::Skip("fewer than two terminals".into());
    }
    let asg = Assignment::empty(inst.net.topology.vertex_count());
    let mut rng = SplitMix64::seed_from_u64(inst.check_seed ^ 0x0000_7007);
    let mut roots: Vec<_> = inst.net.terminal_ids().collect();
    rng.shuffle(&mut roots);
    roots.truncate(3);
    let mut baseline: Option<(msrnet_rctree::TerminalId, f64)> = None;
    for &r in &roots {
        let rooted = inst.net.rooted_at_terminal(r);
        let got = ard_linear(&inst.net, &rooted, &inst.library, &asg).ard;
        match baseline {
            None => baseline = Some((r, got)),
            Some((r0, base)) => {
                if !ard_close(base, got) {
                    return CheckOutcome::Fail(format!(
                        "ARD depends on root: rooted at {r0:?} -> {base}, at {r:?} -> {got}"
                    ));
                }
            }
        }
    }
    CheckOutcome::Pass
}

/// Test-only check used by the harness's own self-tests and by the
/// shrinker tests: fails whenever the net has a source/sink pair and at
/// least 3 terminals — a stand-in for an injected implementation bug
/// that lets the shrinker's convergence be asserted without patching
/// production code.
#[doc(hidden)]
pub fn synthetic_failure_check(inst: &Instance) -> CheckOutcome {
    let rooted = inst.net.rooted_at_terminal(inst.root);
    let asg = Assignment::empty(inst.net.topology.vertex_count());
    let bare = ard_linear(&inst.net, &rooted, &inst.library, &asg);
    if bare.ard.is_finite() && inst.net.topology.terminal_count() >= 3 {
        CheckOutcome::Fail("synthetic failure (self-test)".into())
    } else {
        CheckOutcome::Pass
    }
}

/// Injected-bug drill for the predictive pre-bounds: re-runs the DP
/// with `prebound_slack` cranked far past any real envelope gap, which
/// deliberately lets the champion tests reject candidates an exact MFS
/// would keep. The check fails whenever the loosened run diverges from
/// the sound run — which is exactly what the harness (and the shrinker)
/// must be able to catch. Kept out of the registry: it fails by design.
#[doc(hidden)]
pub fn prebound_soundness_drill_check(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = dp_intractable(inst) {
        return CheckOutcome::Skip(reason);
    }
    if !inst.terminals_are_leaves() {
        return CheckOutcome::Skip("non-leaf terminal (DP precondition)".into());
    }
    let sound = run_dp(inst, &inst.options);
    let drilled_opts = MsriOptions {
        prebound_slack: 1e9,
        ..inst.options
    };
    let drilled = run_dp(inst, &drilled_opts);
    match (sound, drilled) {
        (Ok(a), Ok(b)) => match curves_bit_eq(&a, &b) {
            Ok(()) => CheckOutcome::Pass,
            Err(msg) => CheckOutcome::Fail(format!("loosened pre-bound changed the frontier: {msg}")),
        },
        (Err(a), Err(b)) if a == b => CheckOutcome::Pass,
        (a, b) => {
            let describe = |r: Result<TradeoffCurve, MsriError>| match r {
                Ok(c) => format!("Ok({} points)", c.len()),
                Err(e) => format!("{e:?}"),
            };
            CheckOutcome::Fail(format!(
                "loosened pre-bound changed feasibility: sound -> {}, drilled -> {}",
                describe(a),
                describe(b)
            ))
        }
    }
}

/// Injected-bug drill for the structural-edit dirty discipline: a
/// test-only session knob makes `remove_terminal` dirty only the
/// *parent* of the removal's attachment vertex, leaving the hub's
/// cached candidate set stale. Because swap-remove renumbers ids, the
/// stale set's references alias surviving in-range vertices instead of
/// panicking — silent corruption the harness must surface as a bit
/// mismatch against the from-scratch oracle. Kept out of the registry:
/// it fails by design.
#[doc(hidden)]
pub fn structural_dirty_drill_check(inst: &Instance) -> CheckOutcome {
    if let Some(reason) = session_gate(inst) {
        return CheckOutcome::Skip(reason);
    }
    // Non-last candidates only: removing the last terminal is a pure
    // pop whose stale references would dangle out of range rather than
    // alias, and the drill targets the aliasing (silent) case.
    let n = inst.net.terminals.len();
    let mut removed_any = false;
    for raw in 0..n.saturating_sub(1) {
        let t = TerminalId(raw);
        if t == inst.root {
            continue;
        }
        let mut session = open_session(inst);
        if session.recompute().is_err() {
            return CheckOutcome::Skip("base configuration has no feasible pair".into());
        }
        session.set_skip_structural_dirty(true);
        if session.apply(&Edit::RemoveTerminal { terminal: t }).is_err() {
            continue;
        }
        removed_any = true;
        let inc = session.recompute();
        let scratch = session.from_scratch();
        match (inc, scratch) {
            (Ok((a, _)), Ok((b, _))) => {
                if let Err(msg) = curves_bit_eq(&a, &b) {
                    return CheckOutcome::Fail(format!(
                        "terminal {raw}: skipped dirty-mark left a stale hub set: {msg}"
                    ));
                }
            }
            (Err(a), Err(b)) => {
                if a != b {
                    return CheckOutcome::Fail(format!(
                        "terminal {raw}: skipped dirty-mark changed the error: \
                         incremental={a:?} scratch={b:?}"
                    ));
                }
            }
            (inc, _) => {
                return CheckOutcome::Fail(format!(
                    "terminal {raw}: skipped dirty-mark changed feasibility \
                     (incremental ok: {})",
                    inc.is_ok()
                ));
            }
        }
    }
    if !removed_any {
        return CheckOutcome::Skip("no removable non-last terminal".into());
    }
    CheckOutcome::Pass
}

/// Lets callers (tests, the shrinker) dispatch either a registry check
/// by name or the synthetic self-test checks.
pub fn run_named(name: &str, inst: &Instance) -> Option<CheckOutcome> {
    if name == "synthetic_failure" {
        return Some(synthetic_failure_check(inst));
    }
    if name == "prebound_soundness_drill" {
        return Some(prebound_soundness_drill_check(inst));
    }
    if name == "structural_dirty_drill" {
        return Some(structural_dirty_drill_check(inst));
    }
    find_check(name).map(|c| run_check(c, inst))
}

/// Convenience predicate: does `name` still fail on `inst`?
pub fn still_fails(name: &str, inst: &Instance) -> bool {
    matches!(run_named(name, inst), Some(CheckOutcome::Fail(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn registry_names_are_unique_and_cover_required_mix() {
        let reg = registry();
        let mut names: Vec<_> = reg.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate check names");
        let oracles = reg.iter().filter(|c| c.kind == CheckKind::Oracle).count();
        let metas = reg
            .iter()
            .filter(|c| c.kind == CheckKind::Metamorphic)
            .count();
        assert!(oracles >= 5, "need ≥5 oracle pairs, have {oracles}");
        assert!(metas >= 3, "need ≥3 metamorphic properties, have {metas}");
    }

    #[test]
    fn all_checks_pass_on_a_small_case_sample() {
        for i in 0..18 {
            let Some(inst) = generate(11, i) else { continue };
            for check in registry() {
                match run_check(check, &inst) {
                    CheckOutcome::Fail(msg) => {
                        panic!("{} failed on {}: {msg}", check.name, inst.name)
                    }
                    CheckOutcome::Pass | CheckOutcome::Skip(_) => {}
                }
            }
        }
    }

    #[test]
    fn canonical_frontier_collapses_ulp_ties() {
        // Delay-axis tie (seed-23 repro shape): the costlier point is an
        // ulp *better* on delay, so exact dominance keeps it while a
        // slack-based filter collapses it; within the check tolerance
        // the cheaper point eps-dominates.
        let d = 302235.55941798404;
        let d_lo = 302235.559417984;
        let a = vec![(6.0, 350627.16), (9.0, d), (10.0, d_lo), (12.0, 294998.93)];
        assert_eq!(
            canonical_frontier(&a),
            vec![(6.0, 350627.16), (9.0, d), (12.0, 294998.93)]
        );

        // Cost-axis tie (seed-42 repro shape): two costs an ulp apart,
        // the marginally cheaper one carrying a far worse delay.
        let c = 4.762572559757079;
        let c_lo = 4.7625725597570785;
        let b = vec![(4.0, 28266.1), (c_lo, 26897.0), (c, 23414.9), (5.5, 22045.8)];
        assert_eq!(
            canonical_frontier(&b),
            vec![(4.0, 28266.1), (c, 23414.9), (5.5, 22045.8)]
        );

        // Genuinely distinct frontier points are untouched.
        let f = vec![(1.0, 100.0), (2.0, 50.0), (3.0, 25.0)];
        assert_eq!(canonical_frontier(&f), f);
    }

    /// Soundness property for the predictive pre-bounds: across the
    /// regime grid, a pre-bound must never reject a candidate that
    /// survives exact MFS — observable as bit-identical frontiers with
    /// predictive generation on vs off. The comparison count is asserted
    /// so a tightened gate cannot silently make this vacuous.
    #[test]
    fn predictive_prebounds_are_sound_on_the_regime_grid() {
        let mut compared = 0;
        for i in 0..40 {
            let Some(inst) = generate(13, i) else { continue };
            if dp_intractable(&inst).is_some() || !inst.terminals_are_leaves() {
                continue;
            }
            let on = run_dp(&inst, &MsriOptions { predictive: true, ..inst.options });
            let off = run_dp(&inst, &MsriOptions { predictive: false, ..inst.options });
            match (on, off) {
                (Ok(a), Ok(b)) => {
                    if let Err(msg) = curves_bit_eq(&a, &b) {
                        panic!("case {i} ({}): predictive changed the frontier: {msg}", inst.name);
                    }
                    compared += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "case {i} ({}): errors diverged", inst.name);
                    compared += 1;
                }
                (a, b) => panic!(
                    "case {i} ({}): feasibility diverged: on={} off={}",
                    inst.name,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
        assert!(compared >= 10, "only {compared} grid cases compared — gate too tight");
    }

    /// Injected-bug drill: loosening the pre-bound terms (via the
    /// `prebound_slack` knob) must be caught by the harness, and the
    /// shrinker must converge to a still-failing smaller witness.
    #[test]
    fn drill_catches_a_loosened_prebound_and_shrinks() {
        let inst = (0..60)
            .filter_map(|i| generate(17, i))
            .find(|inst| still_fails("prebound_soundness_drill", inst))
            .expect("the grid must contain a case where a loosened pre-bound over-prunes");
        let shrunk = crate::shrink::shrink(&inst, "prebound_soundness_drill");
        assert!(
            still_fails("prebound_soundness_drill", &shrunk.instance),
            "shrinker lost the failure"
        );
        assert!(
            shrunk.instance.net.topology.vertex_count() <= inst.net.topology.vertex_count(),
            "shrinker grew the witness"
        );
    }

    /// Injected-bug drill for the structural edits: skipping the
    /// dirty-mark on a removal's attachment hub (the
    /// `skip_structural_dirty` knob) must be caught as a bit mismatch,
    /// and the shrinker must converge to a still-failing smaller
    /// witness with the structural remap logic engaged.
    #[test]
    fn structural_drill_catches_a_skipped_dirty_mark_and_shrinks() {
        let inst = (0..80)
            .filter_map(|i| generate(23, i))
            .find(|inst| still_fails("structural_dirty_drill", inst))
            .expect("the grid must contain a case where a stale hub set corrupts the curve");
        let shrunk = crate::shrink::shrink(&inst, "structural_dirty_drill");
        assert!(
            still_fails("structural_dirty_drill", &shrunk.instance),
            "shrinker lost the failure"
        );
        assert!(
            shrunk.instance.net.topology.vertex_count() <= inst.net.topology.vertex_count(),
            "shrinker grew the witness"
        );
    }

    /// The recalibrated work gate must keep asymmetric / inverting
    /// high-insertion-point regimes inside the checked population — the
    /// exact regimes predictive pruning made cheap enough to afford.
    #[test]
    fn dp_work_gate_keeps_asymmetric_regimes_covered() {
        let mut asym_covered = 0;
        for i in 0..40 {
            let Some(inst) = generate(19, i) else { continue };
            let hard = inst
                .library
                .iter()
                .any(|r| !r.is_symmetric() || r.inverting);
            if hard
                && inst.net.topology.insertion_point_count() >= 3
                && dp_set_estimate(&inst) <= DP_ESTIMATE_LIMIT
            {
                asym_covered += 1;
            }
        }
        assert!(
            asym_covered >= 3,
            "only {asym_covered} asymmetric/inverting multi-IP cases pass the work gate"
        );
    }

    #[test]
    fn synthetic_check_fails_on_a_three_terminal_net() {
        // Find a generated case with ≥3 terminals and a feasible pair.
        let inst = (0..40)
            .filter_map(|i| generate(5, i))
            .find(|inst| {
                matches!(synthetic_failure_check(inst), CheckOutcome::Fail(_))
            })
            .expect("grid contains a ≥3-terminal feasible case");
        assert!(still_fails("synthetic_failure", &inst));
    }
}
