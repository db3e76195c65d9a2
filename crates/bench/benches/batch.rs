//! Multi-net batch throughput: a 100-net sweep run sequentially and on a
//! worker pool, with the determinism guard asserted between the two.
//!
//! Prints wall time and nets/s for each configuration plus the measured
//! speedup. The parallel sweep uses one worker per hardware thread, so
//! it never oversubscribes the machine; on a single hardware thread the
//! speedup degenerates to ~1× (reported honestly either way).

use msrnet_batch::{random_jobs, reports_bit_identical, run_batch};
use msrnet_netgen::table1;

const NETS: usize = 100;
const TERMINALS: usize = 8;

fn main() {
    let params = table1();
    let jobs = random_jobs(&params, NETS, TERMINALS, 1000, 800.0);
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = hw;

    let sequential = run_batch(&jobs, 1);
    let parallel = run_batch(&jobs, threads);
    assert!(
        reports_bit_identical(&sequential, &parallel),
        "parallel batch results diverged from sequential"
    );

    let s = sequential.wall.as_secs_f64();
    let p = parallel.wall.as_secs_f64();
    println!(
        "batch/sequential        {NETS} nets ({TERMINALS} terminals) in {:8.1} ms  {:6.1} nets/s",
        s * 1e3,
        NETS as f64 / s
    );
    println!(
        "batch/parallel[{threads}]      {NETS} nets ({TERMINALS} terminals) in {:8.1} ms  {:6.1} nets/s",
        p * 1e3,
        NETS as f64 / p
    );
    println!(
        "batch/speedup           {:.2}x on {hw} hardware thread(s); results bit-identical",
        s / p
    );
}
