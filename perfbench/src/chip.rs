//! `chip-closure`: the timing-closure loop on a generated chip of about
//! 3000 multisource nets, k = 64 nets per round on `nproc` worker
//! threads, against a slack target no chip reaches, so every round
//! re-optimizes exactly k nets and the round budget ends each pass.
//!
//! `run_closure` is driven one round per call, which reproduces the
//! multi-round trajectory exactly, so each round is timed from outside.
//! After each round a fresh `propagate` reads the chip's timing back and
//! must agree bit-for-bit with the round's report.

use std::time::{Duration, Instant};

use msrnet_batch::{reports_bit_identical, run_batch, run_batch_curves, BatchJob};
use msrnet_core::ard::ard_linear;
use msrnet_core::MsriOptions;
use msrnet_rctree::Assignment;
use msrnet_timing::{
    generate_chip, naive_arrival_times, propagate, run_closure, ChipConfig, ClosureConfig, Design,
    PinId,
};

use crate::harness::{
    median, ms_since, net_seed, nproc, overhead_pct, passes, quantile, span_ms, timed_setup, Args,
    Digest, HostSpeed, Layer, Samples, Tracer,
};
use crate::{DpTotals, Outcome};

/// Chips per seed: 8 × 40 rounds leaves more than ten rounds beyond the
/// 90th percentile. A chip's rounds are alike, so the slow rounds repeat
/// between seeds only over several chips: with 4 chips the 90th
/// percentile spread by about 20 % over five seeds.
const CHIPS: usize = 8;
const NETS: usize = 3000;
const K: usize = 64;
/// Rounds per chip and pass; 3000 nets allow 46 full rounds of 64.
const ROUNDS: usize = 40;

fn config(threads: usize) -> ClosureConfig {
    ClosureConfig {
        k: K,
        max_rounds: 1,
        threads,
        slack_target: f64::INFINITY,
    }
}

/// Deterministic totals of one closure pass.
#[derive(Default)]
struct PassTotals {
    chips: usize,
    rounds: usize,
    touched: usize,
    candidates: u64,
    clamped: usize,
    wns_final: f64,
    tns_final: f64,
    digest: Digest,
}

/// Runs `ROUNDS` closure rounds on a fresh copy of chip `c`. Round `r`'s
/// time is recorded as input `c * ROUNDS + r` in `rounds_ms`. After each
/// round a fresh `propagate` reads the timing back for the checks.
#[allow(clippy::too_many_arguments)]
fn closure_pass(
    base: &Design,
    c: usize,
    threads: usize,
    out: &mut Outcome,
    rounds_ms: &mut Samples,
    totals: &mut PassTotals,
    tr: &Tracer,
) {
    let mut design = base.clone();
    let mut prev_wns = f64::NEG_INFINITY;
    for r in 0..ROUNDS {
        let input = c * ROUNDS + r;
        out.attempted += 1;
        let t = Instant::now();
        let report = tr.span("run_closure", Layer::Timing, 0, input as u64 + 1, |_| {
            run_closure(&mut design, &config(threads))
        });
        let round_ms = ms_since(t);
        let report = match report {
            Ok(rep) => rep,
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("round {r}: closure failed: {e}"));
                break;
            }
        };
        rounds_ms.record(input, round_ms);
        out.host.sample();
        let fresh = tr.span("propagate", Layer::Timing, 0, input as u64 + 1, |_| {
            propagate(&design)
        });

        let Some(round) = report.rounds.first() else {
            out.check(false, || format!("round {r}: closure ran no round"));
            break;
        };
        out.check(round.touched.len() == K, || {
            format!(
                "round {r}: re-optimized {} nets, expected {K}",
                round.touched.len()
            )
        });
        out.check(
            report.wns_final >= prev_wns && report.wns_final >= report.wns_initial,
            || {
                format!(
                    "round {r}: WNS fell from {prev_wns} to {}",
                    report.wns_final
                )
            },
        );
        prev_wns = report.wns_final;
        match fresh {
            Ok(t) => out.check(
                t.wns().to_bits() == report.wns_final.to_bits()
                    && t.tns().to_bits() == report.tns_final.to_bits(),
                || {
                    format!(
                        "round {r}: fresh propagate WNS/TNS {}/{} != report {}/{}",
                        t.wns(),
                        t.tns(),
                        report.wns_final,
                        report.tns_final
                    )
                },
            ),
            Err(e) => out.check(false, || format!("round {r}: propagate failed: {e}")),
        }

        totals.rounds += 1;
        if r + 1 == ROUNDS {
            // Worst WNS and total TNS over the seed's chips.
            totals.wns_final = if totals.chips == 0 {
                report.wns_final
            } else {
                totals.wns_final.min(report.wns_final)
            };
            totals.tns_final += report.tns_final;
            totals.chips += 1;
        }
        for touch in &round.touched {
            totals.touched += 1;
            totals.candidates += touch.candidates;
            totals.clamped += usize::from(touch.clamped);
            let d = &mut totals.digest;
            d.bytes(touch.net.as_bytes());
            d.f64(touch.delay_after);
            d.f64(touch.cost);
            d.word(touch.candidates);
        }
        totals.digest.f64(report.wns_final);
        totals.digest.f64(report.tns_final);
    }
}

/// Propagation must agree with the independent memoized-DFS oracle.
fn check_oracle(design: &Design, out: &mut Outcome) {
    match (propagate(design), naive_arrival_times(design)) {
        (Ok(t), Ok(naive)) => {
            let bad = (0..design.pin_count())
                .filter(|&p| t.arrival(PinId(p)).to_bits() != naive[p].to_bits())
                .count();
            out.check(bad == 0, || {
                format!("{bad} pins disagree with naive_arrival_times")
            });
        }
        (a, b) => out.check(false, || {
            format!("propagation failed: {:?} / {:?}", a.err(), b.err())
        }),
    }
}

/// The chip's nets as stand-alone batch jobs (zero boundary values).
fn jobs(design: &Design) -> Vec<BatchJob> {
    design
        .nets
        .iter()
        .map(|dn| {
            let mut job = BatchJob::new(dn.name.clone(), dn.net.clone(), dn.library.clone());
            job.options = MsriOptions {
                allow_inverting: dn.library.iter().any(|r| r.inverting),
                ..MsriOptions::default()
            };
            job
        })
        .collect()
}

/// Traced-run extras: a `run_batch` thread sweep over the chip's nets,
/// the DP counters of those solves, and `ard_linear` on every bare net.
fn layer_sweeps(design: &Design, threads: usize, out: &mut Outcome, tr: &Tracer) {
    let jobs = jobs(design);
    let mut reference = None;
    let mut t1 = 0.0;
    for t in 1..=threads {
        let rep = tr.span("run_batch", Layer::Batch, 0, t as u64, |_| {
            run_batch(&jobs, t)
        });
        let wall = rep.wall.as_secs_f64();
        let nets_per_s = jobs.len() as f64 / wall;
        let busy_us: u64 = rep.results.iter().map(|r| r.micros).sum();
        eprintln!("chip-closure: run_batch {t} thread(s): {nets_per_s:.0} nets/s");
        if t == 1 {
            t1 = nets_per_s;
            out.metrics.set("batch.nets_per_s.t1", nets_per_s, "1/s");
            let per_net: Vec<f64> = rep.results.iter().map(|r| r.micros as f64 / 1e3).collect();
            out.metrics.set("dp.solve_ms", median(&per_net), "ms");
        }
        if t == threads {
            out.metrics.set("batch.nets_per_s.tmax", nets_per_s, "1/s");
            out.metrics.set("batch.speedup", nets_per_s / t1, "ratio");
            out.metrics.set(
                "batch.busy_ratio",
                busy_us as f64 / (wall * 1e6 * t as f64),
                "ratio",
            );
        }
        out.attempted += jobs.len() as u64;
        out.failed += rep.results.iter().filter(|r| r.outcome.is_err()).count() as u64;
        match &reference {
            None => reference = Some(rep),
            Some(r0) => out.check(reports_bit_identical(r0, &rep), || {
                format!("run_batch results differ between 1 and {t} threads")
            }),
        }
    }
    out.metrics
        .set("batch.threads_max", threads as f64, "count");

    let mut dp = DpTotals::default();
    for curve in run_batch_curves(&jobs, threads).iter().flatten() {
        dp.add(curve);
    }
    dp.report(out);

    for dn in &design.nets {
        let rooted = dn.net.rooted_at_terminal(msrnet_rctree::TerminalId(0));
        let empty = Assignment::empty(dn.net.topology.vertex_count());
        tr.span("ard_linear", Layer::Core, 0, 0, |_| {
            ard_linear(&dn.net, &rooted, &dn.library, &empty)
        });
    }
    let spans = tr.spans();
    out.metrics.set(
        "ard.linear_us_p50",
        median(&span_ms(&spans, "ard_linear")) * 1e3,
        "us",
    );
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let threads = nproc();
    let mut out = Outcome {
        host: HostSpeed::on_threads(threads),
        ..Outcome::default()
    };
    let (setup_s, chips) = timed_setup(&mut out.setup_host, || {
        (0..CHIPS)
            .map(|c| {
                let cfg = ChipConfig {
                    nets: NETS,
                    seed: net_seed(args.seed, c),
                    ..ChipConfig::default()
                };
                tr.span("generate_chip", Layer::Netgen, 0, 0, |_| {
                    generate_chip(&cfg)
                })
            })
            .collect::<Result<Vec<Design>, _>>()
    });
    let chips = match chips {
        Ok(d) => d,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("chip generation failed: {e}"));
            return out;
        }
    };
    out.metrics.set("setup_s", setup_s, "s");
    let ips: usize = chips
        .iter()
        .flat_map(|d| &d.nets)
        .map(|n| n.net.topology.insertion_point_count())
        .sum();
    out.counter("netgen.insertion_points", ips);
    out.metrics
        .set("netgen.insertion_points", ips as f64, "count");
    for chip in &chips {
        check_oracle(chip, &mut out);
    }

    // Pass 0 gives the printed counters. In a traced run, odd passes are
    // traced and even ones are not.
    let off = Tracer::new(false);
    let mut first = PassTotals::default();
    let mut rounds_ms = Samples::default();
    let walls = passes(
        CHIPS,
        Duration::from_secs_f64(args.seconds),
        2,
        |pass, c| {
            let t = if pass % 2 == 1 { tr } else { &off };
            let mut totals = PassTotals::default();
            let totals_ref = if pass == 0 { &mut first } else { &mut totals };
            closure_pass(
                &chips[c],
                c,
                threads,
                &mut out,
                &mut rounds_ms,
                totals_ref,
                t,
            );
        },
    );
    for (name, value) in [
        ("closure.rounds", first.rounds as f64),
        ("closure.nets_touched", first.touched as f64),
        ("closure.candidates", first.candidates as f64),
        ("closure.clamped", first.clamped as f64),
    ] {
        out.counter(name, value);
        out.metrics.set(name, value, "count");
    }
    out.counter("closure.wns_final_ps", first.wns_final);
    out.counter("closure.tns_final_ps", first.tns_final);
    out.metrics
        .set("closure.wns_final_ps", first.wns_final, "ps");
    out.metrics
        .set("closure.tns_final_ps", first.tns_final, "ps");
    out.digest = first.digest;

    let rounds_ms = rounds_ms.values();
    out.metrics.set("op_ms_p50", median(&rounds_ms), "ms");
    out.metrics
        .set("op_ms_p90", quantile(&rounds_ms, 0.9), "ms");
    out.metrics.set(
        "ops_per_s",
        (K * rounds_ms.len()) as f64 / (rounds_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    eprintln!(
        "chip-closure: {CHIPS} chips x {NETS} nets, {} rounds x {} passes, {threads} thread(s)",
        rounds_ms.len(),
        walls.len()
    );

    if tr.on() {
        let spans = tr.spans();
        out.metrics
            .set("trace.overhead_pct", overhead_pct(&walls), "%");
        out.metrics.set(
            "timing.propagate_ms",
            median(&span_ms(&spans, "propagate")),
            "ms",
        );
        layer_sweeps(&chips[0], threads, &mut out, tr);
    }
    out
}
