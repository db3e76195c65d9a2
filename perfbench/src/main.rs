//! The repository benchmark: one command that runs a named workload from
//! a seed, checks every output it times, and prints the workload's
//! metrics as one JSON line.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload multicost-nets --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` records spans around every call into a library layer,
//! writes them to `perfbench/out/`, and prints the per-layer metrics
//! plus the tracing overhead. See `perfbench/README.md`.

mod chip;
mod harness;
mod serve;
mod single;

use harness::{peak_rss_mib, Args, Digest, HostSpeed, Metrics, Tracer};
use msrnet_core::{MsriStats, StepStats, TradeoffCurve};

/// Every end-to-end metric, printed by every workload under `--trace 0`,
/// with the power of the host factor it is multiplied by: times are
/// divided by the factor and rates multiplied, so that each reads as on a
/// host of nominal speed (see `harness::HostSpeed`). `setup_s` uses the
/// factor measured during the set-up, the others the one measured
/// between the timed operations (1 on `eco-serve`, which takes none).
pub const END_TO_END: [(&str, &str, i32); 5] = [
    ("setup_s", "s", -1),
    ("op_ms_p50", "ms", -1),
    ("op_ms_p90", "ms", -1),
    ("ops_per_s", "1/s", 1),
    ("peak_rss_mib", "MiB", 0),
];

const STEPS: [&str; 4] = ["leaf", "augment", "join", "repeater"];
const STEP_FIELDS: [&str; 6] = [
    "generated",
    "scalar_pruned",
    "pwl_pruned",
    "prebound_rejected",
    "materialized_avoided",
    "peak_set",
];

/// Every per-layer metric, printed by every workload under `--trace 1`.
/// A layer a workload bypasses reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("netgen.build_ms", "ms"),
        ("timing.chipgen_ms", "ms"),
        ("netgen.insertion_points", "count"),
        ("ard.linear_us_p50", "us"),
        ("dp.solve_ms", "ms"),
        ("dp.generated", "count"),
        ("dp.surviving", "count"),
        ("dp.survival_ratio", "ratio"),
        ("dp.prunes", "count"),
        ("dp.max_set_size", "count"),
        ("dp.frontier_points", "count"),
        ("dp.max_segments", "count"),
        ("batch.threads_max", "count"),
        ("batch.nets_per_s.t1", "1/s"),
        ("batch.nets_per_s.tmax", "1/s"),
        ("batch.speedup", "ratio"),
        ("batch.busy_ratio", "ratio"),
        ("timing.propagate_ms", "ms"),
        ("closure.rounds", "count"),
        ("closure.nets_touched", "count"),
        ("closure.candidates", "count"),
        ("closure.clamped", "count"),
        ("closure.wns_final_ps", "ps"),
        ("closure.tns_final_ps", "ps"),
        ("incremental.recompute_ms_p50", "ms"),
        ("incremental.recompute_ms_p90", "ms"),
        ("incremental.scratch_ms_p50", "ms"),
        ("incremental.nodes_recomputed", "count"),
        ("incremental.nodes_reused", "count"),
        ("incremental.reuse_ratio", "ratio"),
        ("incremental.escalations", "count"),
        ("incremental.rejected_edits", "count"),
        ("service.open_ms_p50", "ms"),
        ("service.close_ms_p50", "ms"),
        ("service.overhead_ms_p50", "ms"),
        ("service.read_ms_p50", "ms"),
        ("service.read_ms_p90", "ms"),
        ("service.read_bytes_p50", "bytes"),
        ("service.requests_ok", "count"),
        ("service.requests_error", "count"),
        ("service.sessions_evicted", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_pct", "%"),
        ("host.ref_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for step in STEPS {
        for field in STEP_FIELDS {
            v.push((format!("dp.{step}.{field}"), "count"));
        }
    }
    for layer in harness::Layer::ALL {
        v.push((format!("self_ms.{}", layer.name()), "ms"));
    }
    v
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (solves, closure rounds, requests).
    pub attempted: u64,
    pub failed: u64,
    pub checks_run: u64,
    pub checks_failed: u64,
    /// Messages of the first failed checks.
    pub failure_messages: Vec<String>,
    pub metrics: Metrics,
    /// Reference times taken between the timed operations.
    pub host: HostSpeed,
    /// Reference times taken between the set-up repetitions.
    pub setup_host: HostSpeed,
    /// Deterministic counters, printed before the result line.
    pub counters: Vec<(String, String)>,
    pub digest: Digest,
}

impl Outcome {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            self.checks_failed += 1;
            if self.failure_messages.len() < 20 {
                self.failure_messages.push(what());
            }
        }
    }

    /// Records `run` checks made elsewhere, of which `failures` failed.
    pub fn add_checks(&mut self, run: u64, failures: &[String]) {
        self.checks_run += run;
        self.checks_failed += failures.len() as u64;
        let room = 20usize.saturating_sub(self.failure_messages.len());
        self.failure_messages
            .extend(failures.iter().take(room).cloned());
    }

    pub fn counter(&mut self, name: &str, value: impl ToString) {
        self.counters.push((name.to_string(), value.to_string()));
    }
}

/// DP counters summed over a fixed set of solves (maxima for the
/// high-water marks).
#[derive(Default)]
pub struct DpTotals {
    pub stats: MsriStats,
    pub frontier_points: u64,
}

impl DpTotals {
    pub fn add(&mut self, curve: &TradeoffCurve) {
        let s = curve.stats();
        self.frontier_points += curve.len() as u64;
        let t = &mut self.stats;
        t.generated += s.generated;
        t.surviving += s.surviving;
        t.prunes += s.prunes;
        t.max_set_size = t.max_set_size.max(s.max_set_size);
        t.max_segments = t.max_segments.max(s.max_segments);
        for (acc, step) in [
            (&mut t.leaf, s.leaf),
            (&mut t.augment, s.augment),
            (&mut t.join, s.join),
            (&mut t.repeater, s.repeater),
        ] {
            acc.generated += step.generated;
            acc.scalar_pruned += step.scalar_pruned;
            acc.pwl_pruned += step.pwl_pruned;
            acc.prebound_rejected += step.prebound_rejected;
            acc.materialized_avoided += step.materialized_avoided;
            acc.peak_set = acc.peak_set.max(step.peak_set);
        }
    }

    /// The `dp.*` counters as (name, value) pairs.
    pub fn entries(&self) -> Vec<(String, f64)> {
        let t = &self.stats;
        let mut v = vec![
            ("dp.generated".to_string(), t.generated as f64),
            ("dp.surviving".to_string(), t.surviving as f64),
            (
                "dp.survival_ratio".to_string(),
                t.surviving as f64 / (t.generated.max(1)) as f64,
            ),
            ("dp.prunes".to_string(), t.prunes as f64),
            ("dp.max_set_size".to_string(), t.max_set_size as f64),
            (
                "dp.frontier_points".to_string(),
                self.frontier_points as f64,
            ),
            ("dp.max_segments".to_string(), t.max_segments as f64),
        ];
        let steps: [&StepStats; 4] = [&t.leaf, &t.augment, &t.join, &t.repeater];
        for (name, s) in STEPS.iter().zip(steps) {
            let fields = [
                s.generated,
                s.scalar_pruned,
                s.pwl_pruned,
                s.prebound_rejected,
                s.materialized_avoided,
                s.peak_set as u64,
            ];
            for (field, value) in STEP_FIELDS.iter().zip(fields) {
                v.push((format!("dp.{name}.{field}"), value as f64));
            }
        }
        v
    }

    /// Copies the counters into the outcome's printed counters and, in
    /// a traced run, its metrics.
    pub fn report(&self, out: &mut Outcome) {
        for (name, value) in self.entries() {
            out.counter(&name, value);
            let unit = if name == "dp.survival_ratio" {
                "ratio"
            } else {
                "count"
            };
            out.metrics.set(&name, value, unit);
        }
    }
}

/// Adds the per-layer self times and span count, and writes the spans.
fn finish_trace(args: &Args, tr: &Tracer, out: &mut Outcome) {
    let spans = tr.spans();
    for (layer, ms) in harness::self_ms_by_layer(&spans) {
        out.metrics
            .set(&format!("self_ms.{}", layer.name()), ms, "ms");
    }
    out.metrics.set("trace.spans", spans.len() as f64, "count");
    // Input build per set-up: the set-up ran `setup_reps()` times.
    for (span, metric) in [
        ("netgen.build", "netgen.build_ms"),
        ("generate_chip", "timing.chipgen_ms"),
    ] {
        let ms: f64 = harness::span_ms(&spans, span).iter().sum();
        out.metrics
            .set(metric, ms / harness::setup_reps().max(1) as f64, "ms");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match harness::write_spans(&path, &spans) {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => out.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        }),
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload multicost-nets|chip-closure|eco-serve \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "multicost-nets" => single::run(&args, &tracer),
        "chip-closure" => chip::run(&args, &tracer),
        "eco-serve" => serve::run(&args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    for (phase, host) in [("set-up", &out.setup_host), ("timed", &out.host)] {
        eprintln!(
            "host, {phase}: reference {:.4} ms (median of {}), factor {:.4}",
            host.ref_ms(),
            host.samples(),
            host.factor()
        );
    }
    let metrics = if args.trace {
        finish_trace(&args, &tracer, &mut out);
        out.metrics.set("host.ref_ms", out.host.ref_ms(), "ms");
        let mut m = Metrics::default();
        for (name, unit) in per_layer_names() {
            m.set(&name, out.metrics.get(&name).unwrap_or(0.0), unit);
        }
        m
    } else {
        out.metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
        let mut m = Metrics::default();
        for (name, unit, power) in END_TO_END {
            let raw = out.metrics.get(name).unwrap_or(0.0);
            println!("raw {name} {raw} {unit}");
            let host = if name == "setup_s" {
                &out.setup_host
            } else {
                &out.host
            };
            m.set(name, raw * host.factor().powi(power), unit);
        }
        m
    };

    for (name, value) in &out.counters {
        println!("counter {name} {value}");
    }
    println!("digest {}", out.digest.hex());
    for (name, (value, unit)) in metrics.iter() {
        println!("metric {name} {value} {unit}");
    }
    for f in &out.failure_messages {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = out.checks_failed == 0;
    eprintln!(
        "{}: {} checks, {} failed; {} operations, {} failed",
        args.workload, out.checks_run, out.checks_failed, out.attempted, out.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.to_json()
    );
    if !correct || out.failed > 0 {
        std::process::exit(1);
    }
}
