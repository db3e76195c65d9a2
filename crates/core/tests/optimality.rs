//! Optimality verification of the repeater-insertion dynamic program
//! (paper Theorem 4.1): on small instances the DP's trade-off frontier
//! must coincide exactly with brute-force enumeration over every
//! repeater assignment, orientation, and driver choice.

use msrnet_core::exhaustive::{apply_terminal_choices, exhaustive_frontier};
use msrnet_core::{
    ard::ard_linear, optimize, MsriOptions, PruningStrategy, TerminalOption, TerminalOptions,
};
use msrnet_geom::Point;
use msrnet_rctree::{
    Buffer, Net, NetBuilder, Repeater, Technology, Terminal, TerminalId,
};
use msrnet_rng::rngs::StdRng;
use msrnet_rng::{Rng, SeedableRng};

fn tech() -> Technology {
    Technology::new(0.03, 0.00035)
}

fn buf1x() -> Buffer {
    Buffer::new("1X", 50.0, 180.0, 0.05, 1.0)
}

fn sym_lib() -> Vec<Repeater> {
    let b = buf1x();
    vec![Repeater::from_buffer_pair("rep1x", &b, &b)]
}

fn asym_lib() -> Vec<Repeater> {
    let fwd = buf1x();
    let bwd = buf1x().scaled(2.0);
    vec![Repeater::from_buffer_pair("rep-asym", &fwd, &bwd)]
}

/// A random small multiterminal net with insertion points, built on a
/// random Steiner-ish chain/star mix. Terminal roles are mixed:
/// bidirectional, source-only and sink-only (terminal 0 is always
/// bidirectional so a root and a feasible pair exist).
fn random_net(rng: &mut StdRng, n_terms: usize, spacing: f64) -> Net {
    let mut b = NetBuilder::new(tech());
    let mut vids = Vec::new();
    for i in 0..n_terms {
        let p = Point::new(
            rng.gen_range(0..8000) as f64,
            rng.gen_range(0..8000) as f64,
        );
        let at = if rng.gen_bool(0.5) {
            rng.gen_range(0..200) as f64
        } else {
            0.0
        };
        let q = if rng.gen_bool(0.5) {
            rng.gen_range(0..200) as f64
        } else {
            0.0
        };
        let term = match if i == 0 { 0 } else { rng.gen_range(0..4) } {
            1 => Terminal::source_only(at, 0.05, 180.0),
            2 => Terminal::sink_only(q, 0.05),
            _ => Terminal::bidirectional(at, q, 0.05, 180.0),
        };
        vids.push(b.terminal(p, term));
    }
    // Random tree over the terminals (connect i to a random earlier one
    // through a steiner midpoint occasionally).
    for i in 1..n_terms {
        let j = rng.gen_range(0..i);
        b.wire(vids[i], vids[j]);
    }
    let net = b.build().unwrap().normalized();
    net.with_insertion_points(spacing)
}

fn frontiers_match(
    net: &Net,
    root: TerminalId,
    lib: &[Repeater],
    opts: &TerminalOptions,
    label: &str,
) {
    let curve = optimize(net, root, lib, opts, &MsriOptions::default()).expect("optimize");
    let oracle = exhaustive_frontier(net, root, lib, opts);
    assert_eq!(
        curve.len(),
        oracle.len(),
        "{label}: frontier sizes differ\nDP: {:?}\noracle: {:?}",
        curve
            .points()
            .iter()
            .map(|p| (p.cost, p.ard))
            .collect::<Vec<_>>(),
        oracle.iter().map(|p| (p.cost, p.ard)).collect::<Vec<_>>(),
    );
    for (p, o) in curve.points().iter().zip(&oracle) {
        assert!(
            (p.cost - o.cost).abs() < 1e-6 && (p.ard - o.ard).abs() < 1e-6,
            "{label}: point mismatch: DP ({}, {}) vs oracle ({}, {})",
            p.cost,
            p.ard,
            o.cost,
            o.ard
        );
    }
    // Every DP point must be *realizable*: re-evaluating its concrete
    // assignment with the independent ARD engine reproduces its claim.
    let rooted = net.rooted_at_terminal(root);
    for p in curve.points() {
        let (scenario, opt_cost) = apply_terminal_choices(net, opts, &p.terminal_choices);
        let report = ard_linear(&scenario, &rooted, lib, &p.assignment);
        assert!(
            (report.ard - p.ard).abs() < 1e-6,
            "{label}: materialized ARD {} != claimed {}",
            report.ard,
            p.ard
        );
        let total_cost = opt_cost + p.assignment.total_cost(lib);
        assert!(
            (total_cost - p.cost).abs() < 1e-9,
            "{label}: materialized cost {} != claimed {}",
            total_cost,
            p.cost
        );
    }
}

#[test]
fn dp_matches_exhaustive_on_random_nets_symmetric_lib() {
    let mut rng = StdRng::seed_from_u64(7);
    let lib = sym_lib();
    for trial in 0..12 {
        let n = 3 + trial % 3;
        let net = random_net(&mut rng, n, 4000.0);
        if net.topology.insertion_point_count() > 10 {
            continue;
        }
        let opts = TerminalOptions::defaults(&net);
        frontiers_match(&net, TerminalId(0), &lib, &opts, &format!("sym trial {trial}"));
    }
}

#[test]
fn dp_matches_exhaustive_with_asymmetric_repeater() {
    let mut rng = StdRng::seed_from_u64(1234);
    let lib = asym_lib();
    for trial in 0..8 {
        let net = random_net(&mut rng, 3, 5000.0);
        if net.topology.insertion_point_count() > 8 {
            continue;
        }
        let opts = TerminalOptions::defaults(&net);
        frontiers_match(
            &net,
            TerminalId(0),
            &lib,
            &opts,
            &format!("asym trial {trial}"),
        );
    }
}

#[test]
fn dp_matches_exhaustive_with_two_repeater_library() {
    let mut rng = StdRng::seed_from_u64(99);
    let b = buf1x();
    let lib = vec![
        Repeater::from_buffer_pair("rep1x", &b, &b),
        Repeater::from_buffer_pair("rep3x", &b.scaled(3.0), &b.scaled(3.0)),
    ];
    for trial in 0..6 {
        let net = random_net(&mut rng, 3, 5000.0);
        if net.topology.insertion_point_count() > 6 {
            continue;
        }
        let opts = TerminalOptions::defaults(&net);
        frontiers_match(
            &net,
            TerminalId(0),
            &lib,
            &opts,
            &format!("two-lib trial {trial}"),
        );
    }
}

#[test]
fn dp_matches_exhaustive_for_driver_sizing() {
    // Sizing mode: no repeaters, per-terminal driver menus {1X, 2X, 4X}.
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..6 {
        let net = random_net(&mut rng, 3, 1e9); // effectively no subdivision
        let mut opts = TerminalOptions::defaults(&net);
        for t in net.terminal_ids() {
            let base = &net.terminals[t.0];
            let menu = [1.0, 2.0, 4.0]
                .iter()
                .map(|&k| TerminalOption {
                    name: format!("{k}X"),
                    cost: 2.0 * k,
                    arrival_extra: 400.0 * 0.05 * k + 50.0,
                    drive_res: base.drive_res / k,
                    cap: base.cap * k,
                    downstream_extra: 50.0 + (180.0 / k) * 0.2,
                })
                .collect();
            opts.set(t, menu);
        }
        frontiers_match(&net, TerminalId(0), &[], &opts, &format!("sizing trial {trial}"));
    }
}

#[test]
fn cap_bound_regression_large_repeater_near_small_outside() {
    // Regression: the PWL domain clamp must reserve headroom for the
    // repeater's child-side input capacitance. Here the source hangs off
    // a short stub, so the capacitance outside the main subtree
    // (≈0.1 pF) is smaller than the 3X repeater's side cap (0.15 pF);
    // a too-tight clamp silently skipped the single-3X optimum.
    let mut b = NetBuilder::new(tech());
    let src = b.terminal(
        Point::new(0.0, 0.0),
        Terminal::source_only(0.0, 0.05, 180.0),
    );
    let ip0 = b.insertion_point(Point::new(135.0, 0.0));
    let s = b.steiner(Point::new(270.0, 0.0));
    let ip1 = b.insertion_point(Point::new(270.0 + 1490.0, 0.0));
    let snk1 = b.terminal(
        Point::new(270.0 + 2980.0, 0.0),
        Terminal::sink_only(0.0, 0.05),
    );
    let snk2 = b.terminal(Point::new(270.0, 50.0), Terminal::sink_only(0.0, 0.05));
    b.wire(src, ip0);
    b.wire(ip0, s);
    b.wire(s, ip1);
    b.wire(ip1, snk1);
    b.wire(s, snk2);
    let net = b.build().unwrap();
    let b3 = buf1x().scaled(3.0);
    let lib = vec![Repeater::from_buffer_pair("rep3x", &b3, &b3)];
    let opts = TerminalOptions::defaults(&net);
    frontiers_match(&net, TerminalId(0), &lib, &opts, "cap-bound regression");
}

#[test]
fn frontier_is_root_invariant() {
    let mut rng = StdRng::seed_from_u64(4242);
    let lib = sym_lib();
    for _ in 0..5 {
        let net = random_net(&mut rng, 4, 4000.0);
        let opts = TerminalOptions::defaults(&net);
        let base = optimize(&net, TerminalId(0), &lib, &opts, &MsriOptions::default()).unwrap();
        for root in 1..4 {
            let other = optimize(
                &net,
                TerminalId(root),
                &lib,
                &opts,
                &MsriOptions::default(),
            )
            .unwrap();
            assert_eq!(base.len(), other.len(), "root {root}");
            for (a, b) in base.points().iter().zip(other.points()) {
                assert!((a.cost - b.cost).abs() < 1e-6);
                assert!((a.ard - b.ard).abs() < 1e-6, "{} vs {}", a.ard, b.ard);
            }
        }
    }
}

#[test]
fn pruning_strategies_agree() {
    let mut rng = StdRng::seed_from_u64(31337);
    let lib = sym_lib();
    for _ in 0..4 {
        let net = random_net(&mut rng, 4, 3000.0);
        let opts = TerminalOptions::defaults(&net);
        let mut curves = Vec::new();
        for strategy in [PruningStrategy::DivideConquer, PruningStrategy::Naive] {
            let o = MsriOptions {
                pruning: strategy,
                ..MsriOptions::default()
            };
            curves.push(optimize(&net, TerminalId(0), &lib, &opts, &o).unwrap());
        }
        for c in &curves[1..] {
            assert_eq!(curves[0].len(), c.len());
            for (a, b) in curves[0].points().iter().zip(c.points()) {
                assert!((a.cost - b.cost).abs() < 1e-6);
                assert!((a.ard - b.ard).abs() < 1e-6);
            }
        }
    }
}

#[test]
fn min_cost_meeting_respects_spec() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = random_net(&mut rng, 4, 2500.0);
    let lib = sym_lib();
    let opts = TerminalOptions::defaults(&net);
    let curve = optimize(&net, TerminalId(0), &lib, &opts, &MsriOptions::default()).unwrap();
    // Unachievable spec.
    assert!(curve.min_cost_meeting(curve.best_ard().ard - 1.0).is_none());
    // Looser specs cost no more.
    let mut last_cost = f64::INFINITY;
    let lo = curve.best_ard().ard;
    let hi = curve.min_cost().ard;
    for k in 0..=10 {
        let spec = lo + (hi - lo) * k as f64 / 10.0;
        if let Some(p) = curve.min_cost_meeting(spec) {
            assert!(p.ard <= spec + 1e-9);
            assert!(p.cost <= last_cost + 1e-9);
            last_cost = p.cost;
        }
    }
}

#[test]
fn unbuffered_point_matches_plain_ard() {
    // The min-cost end of the curve with zero-cost defaults is the bare
    // net: its ARD equals a direct evaluation with no repeaters.
    let mut rng = StdRng::seed_from_u64(77);
    let net = random_net(&mut rng, 5, 3000.0);
    let lib = sym_lib();
    let opts = TerminalOptions::defaults(&net);
    let curve = optimize(&net, TerminalId(0), &lib, &opts, &MsriOptions::default()).unwrap();
    let rooted = net.rooted_at_terminal(TerminalId(0));
    let bare = ard_linear(
        &net,
        &rooted,
        &lib,
        &msrnet_rctree::Assignment::empty(net.topology.vertex_count()),
    );
    let min = curve.min_cost();
    assert_eq!(min.assignment.placed_count(), 0);
    assert!((min.ard - bare.ard).abs() < 1e-6);
}
