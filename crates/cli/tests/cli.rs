//! End-to-end tests of the `msrnet-cli` binary: generate a net file,
//! inspect it, optimize it, render it — all through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msrnet-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msrnet-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn msrnet-cli");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn gen_ard_optimize_render_report_roundtrip() {
    let dir = tmpdir("roundtrip");
    let net = dir.join("net.msr");
    let svg = dir.join("net.svg");
    let md = dir.join("report.md");

    run_ok(bin().args([
        "gen",
        "--terminals",
        "5",
        "--seed",
        "7",
        "--spacing",
        "1000",
        "-o",
        net.to_str().expect("utf8 path"),
    ]));
    let text = std::fs::read_to_string(&net).expect("net file written");
    assert!(text.contains("tech "));
    assert!(text.contains("repeater "));

    let out = run_ok(bin().args(["stats", net.to_str().expect("utf8")]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("terminals        : 5"));

    let out = run_ok(bin().args(["ard", net.to_str().expect("utf8")]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ARD:"));
    assert!(stdout.contains("critical path:"));

    let out = run_ok(bin().args([
        "optimize",
        net.to_str().expect("utf8"),
        "--spec",
        "999999",
        "--driver-cost",
        "2",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cost"));
    assert!(stdout.contains("verified:"));

    run_ok(bin().args([
        "render",
        net.to_str().expect("utf8"),
        "-o",
        svg.to_str().expect("utf8"),
        "--best",
    ]));
    let rendered = std::fs::read_to_string(&svg).expect("svg written");
    assert!(rendered.starts_with("<svg"));
    assert!(rendered.contains("<polygon"), "best solution draws repeaters");

    run_ok(bin().args([
        "report",
        net.to_str().expect("utf8"),
        "-o",
        md.to_str().expect("utf8"),
    ]));
    let report = std::fs::read_to_string(&md).expect("report written");
    assert!(report.contains("# msrnet report"));
    assert!(report.contains("Knee of the frontier"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_to_stdout_parses_back() {
    let out = run_ok(bin().args(["gen", "--terminals", "4", "--seed", "1"]));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = msrnet_cli::format::parse_net_file(&text).expect("stdout parses");
    assert_eq!(parsed.net.topology.terminal_count(), 4);
}

#[test]
fn optimize_with_sizing_flags() {
    let dir = tmpdir("sizing-flags");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "11", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    // Driver sizing alone must reach a frontier at least as good as the
    // fixed-driver run.
    let base = run_ok(bin().args(["optimize", net.to_str().expect("utf8")]));
    let sized = run_ok(bin().args([
        "optimize", net.to_str().expect("utf8"),
        "--sizes", "1,2,4", "--driver-cost", "2",
    ]));
    let last_ard = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .filter_map(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
            .fold(f64::INFINITY, f64::min)
    };
    assert!(last_ard(&sized) <= last_ard(&base) + 1e-6);
    // Wire widths parse and run.
    let wired = run_ok(bin().args([
        "optimize", net.to_str().expect("utf8"),
        "--widths", "1,2", "--width-cost", "0.0005",
    ]));
    assert!(String::from_utf8_lossy(&wired.stdout).contains("cost"));
    // Bad lists are rejected.
    let bad = bin()
        .args(["optimize", net.to_str().expect("utf8"), "--sizes", "1,zero"])
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruning_flag_is_validated_on_every_entry_point() {
    let dir = tmpdir("pruning-flag");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "3", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    let trace = dir.join("trace.json");
    std::fs::write(&trace, "{\"edits\": []}").expect("write trace");

    // Both strategies run on optimize, batch and edits...
    let net_arg = net.to_str().expect("utf8");
    let trace_arg = trace.to_str().expect("utf8");
    let entry_points = |strategy: &'static str| {
        [
            vec!["optimize", net_arg, "--pruning", strategy],
            vec!["batch", "--count", "1", "--terminals", "4", "--seed", "3", "--pruning", strategy],
            vec!["edits", net_arg, "--trace", trace_arg, "--pruning", strategy],
        ]
    };
    for strategy in ["naive", "divide-conquer"] {
        for cmd in entry_points(strategy) {
            run_ok(bin().args(&cmd));
        }
    }

    // ...and every entry point rejects any other spelling, including the
    // removed strategies, through the one shared parser.
    for strategy in ["quantum", "bucketed", "whole-domain", "approx:0.05"] {
        for cmd in entry_points(strategy) {
            let out = bin().args(&cmd).output().expect("spawn");
            assert!(!out.status.success(), "{cmd:?} must fail");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--pruning"), "{cmd:?} stderr names the flag: {stderr}");
        }
    }

    // Commands that never learned the flag reject it as unknown.
    let out = bin()
        .args(["ard", net_arg, "--pruning", "naive"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "ard must reject --pruning as unknown");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));

    let out = bin().args(["ard", "/no/such/file.msr"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = bin().args(["optimize"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = run_ok(bin().arg("--help"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}
