//! `multicost-nets`: one caller on one thread solving seeded random 5-pin
//! nets at 4000 µm insertion spacing with the asymmetric {3,4,6}-cost
//! repeater library and fixed 1X drivers. This is the Pareto-explosion
//! regime of the DP, where the prune after repeater steps dominates.
//!
//! 6-pin nets take 25–800 ms each: too few fit in a run for their 90th
//! percentile to repeat between seeds.

use std::time::{Duration, Instant};

use msrnet_bench::{multicost_asym_library, Instance};
use msrnet_core::ard::ard_linear;
use msrnet_core::exhaustive::apply_terminal_choices;
use msrnet_core::{optimize, MsriOptions, TradeoffCurve};
use msrnet_netgen::table1;

use crate::harness::{
    median, ms_since, net_seed, overhead_pct, passes, quantile, span_ms, timed_setup, Args, Digest,
    Layer, Samples, Tracer,
};
use crate::{DpTotals, Outcome};

const PINS: usize = 5;
const SPACING: f64 = 4000.0;
/// Distinct nets per seed. A net's time spans two orders of magnitude,
/// so the percentiles repeat between seeds only over many nets: with 160
/// nets the 90th percentile spread by 22 % over ten seeds, while 400 nets
/// timed for ten seeds interleaved in one process spread it by 5 %. One
/// pass takes about 16 s, so each net is timed two or three times.
const POOL: usize = 480;
/// Nets solved untimed before the first pass.
const WARMUP: usize = 3;

fn build_pool(seed: u64, tr: &Tracer) -> Vec<Instance> {
    let params = table1();
    tr.span("setup", Layer::Bench, 0, 0, |parent| {
        (0..POOL)
            .map(|i| {
                tr.span("netgen.build", Layer::Netgen, parent, 0, |_| {
                    Instance::random(&params, PINS, net_seed(seed, i), SPACING)
                        .with_library(multicost_asym_library(&params))
                })
            })
            .collect()
    })
}

/// Checks a curve: strictly monotone, and every point's claimed cost and
/// ARD reproduced by realizing it (driver choices applied, ARD
/// re-evaluated with the linear-time algorithm).
fn check_curve(
    out: &mut Outcome,
    inst: &Instance,
    curve: &TradeoffCurve,
    tr: &Tracer,
    parent: u64,
) {
    let pts = curve.points();
    out.check(!pts.is_empty(), || "empty trade-off curve".into());
    for w in pts.windows(2) {
        out.check(w[1].cost > w[0].cost && w[1].ard < w[0].ard, || {
            format!(
                "curve not strictly monotone: ({}, {}) then ({}, {})",
                w[0].cost, w[0].ard, w[1].cost, w[1].ard
            )
        });
    }
    let rooted = inst.net.rooted_at_terminal(inst.root);
    for p in pts {
        let (scenario, driver_cost) =
            apply_terminal_choices(&inst.net, &inst.fixed_drivers, &p.terminal_choices);
        let report = tr.span("ard_linear", Layer::Core, parent, 0, |_| {
            ard_linear(&scenario, &rooted, &inst.library, &p.assignment)
        });
        let cost = driver_cost + p.assignment.total_cost(&inst.library);
        out.check(
            (report.ard - p.ard).abs() <= 1e-6 + 1e-9 * p.ard.abs(),
            || format!("realized ARD {} != claimed {}", report.ard, p.ard),
        );
        out.check((cost - p.cost).abs() <= 1e-9 * (1.0 + p.cost.abs()), || {
            format!("realized cost {cost} != claimed {}", p.cost)
        });
    }
}

/// Solves and checks `inst`; returns the solve time, or `None` when the
/// optimizer failed.
fn solve_and_check(
    inst: &Instance,
    out: &mut Outcome,
    tr: &Tracer,
    on_curve: impl FnOnce(&TradeoffCurve),
) -> Option<f64> {
    tr.span("net", Layer::Bench, 0, 0, |parent| {
        out.attempted += 1;
        let t = Instant::now();
        let result = tr.span("optimize", Layer::Core, parent, 0, |_| {
            optimize(
                &inst.net,
                inst.root,
                &inst.library,
                &inst.fixed_drivers,
                &MsriOptions::default(),
            )
        });
        let ms = ms_since(t);
        match result {
            Ok(curve) => {
                check_curve(out, inst, &curve, tr, parent);
                on_curve(&curve);
                Some(ms)
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("optimize failed: {e}"));
                None
            }
        }
    })
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, pool) = timed_setup(&mut out.setup_host, || build_pool(args.seed, tr));
    out.metrics.set("setup_s", setup_s, "s");
    let ips: usize = pool
        .iter()
        .map(|i| i.net.topology.insertion_point_count())
        .sum();
    out.counter("netgen.insertion_points", ips);
    out.metrics
        .set("netgen.insertion_points", ips as f64, "count");

    let off = Tracer::new(false);
    for inst in &pool[..WARMUP] {
        solve_and_check(inst, &mut out, &off, |_| {});
    }

    // Pass 0 gives the printed counters and the frontier digest. In a
    // traced run, odd passes are traced and even ones are not.
    let mut dp = DpTotals::default();
    let mut digest = Digest::default();
    let mut ops = Samples::default();
    let walls = passes(POOL, Duration::from_secs_f64(args.seconds), 2, |pass, i| {
        let t = if pass % 2 == 1 { tr } else { &off };
        let ms = solve_and_check(&pool[i], &mut out, t, |c| {
            if pass == 0 {
                dp.add(c);
                digest.curve(c);
            }
        });
        if let Some(ms) = ms {
            ops.record(i, ms);
        }
        out.host.sample();
    });
    dp.report(&mut out);
    out.digest = digest;

    let ops = ops.values();
    out.metrics.set("op_ms_p50", median(&ops), "ms");
    out.metrics.set("op_ms_p90", quantile(&ops, 0.9), "ms");
    out.metrics.set(
        "ops_per_s",
        ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    eprintln!(
        "{}: {} nets x {} passes, pass walls {:.2?} s",
        args.workload,
        ops.len(),
        walls.len(),
        walls.iter().map(|w| w.0).collect::<Vec<_>>()
    );

    if tr.on() {
        let spans = tr.spans();
        out.metrics
            .set("trace.overhead_pct", overhead_pct(&walls), "%");
        out.metrics
            .set("dp.solve_ms", median(&span_ms(&spans, "optimize")), "ms");
        out.metrics.set(
            "ard.linear_us_p50",
            median(&span_ms(&spans, "ard_linear")) * 1e3,
            "us",
        );
    }
    out
}
