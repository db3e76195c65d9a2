//! Shared measurement plumbing: command-line arguments, the metric
//! table, percentiles, peak memory, the frontier digest and the span
//! tracer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use msrnet_core::TradeoffCurve;

/// Parsed command line:
/// `--workload NAME --seed N --seconds S --trace 0|1`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(format!("--seconds {seconds} out of range"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// Generator seed of input `i` in the stream that `--seed` names.
pub fn net_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(i as u64)
}

/// Worker threads and client connections a workload may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite float as JSON. Non-finite values become 0 so the line stays
/// parseable (no metric is expected to be non-finite), as does -0.
pub fn num(x: f64) -> String {
    if x.is_finite() && x != 0.0 {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Each run builds its inputs at least [`SETUP_MIN_REPS`] times, and
/// more while the builds so far took less than [`SETUP_MIN_TOTAL`], up
/// to [`SETUP_MAX_REPS`]; `setup_s` is the median. A cheap set-up thus
/// runs often enough for its median to be steady.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);

/// How many times the last [`timed_setup`] built its inputs.
static SETUP_REPS: AtomicUsize = AtomicUsize::new(0);

pub fn setup_reps() -> usize {
    SETUP_REPS.load(Ordering::Relaxed)
}

/// Reference units timed after each set-up repetition, for the set-up's
/// own host factor.
const SETUP_REF_UNITS: usize = 10;

/// Runs `build` as the set-up rules above say and returns the median
/// wall time in seconds together with the last result (every repetition
/// builds the same inputs from the same seed). After each repetition it
/// times reference units into `host`.
pub fn timed_setup<T>(host: &mut HostSpeed, mut build: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && start.elapsed() < SETUP_MIN_TOTAL)
    {
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
        (0..SETUP_REF_UNITS).for_each(|_| host.sample());
    }
    SETUP_REPS.store(times.len(), Ordering::Relaxed);
    (median(&times), last.expect("at least one repetition"))
}

/// Each input's times over repeated passes, summarized by their median.
/// On a shared host one solve's time flips between a fast and a slow
/// state from one solve to the next (a 5-pin solve's median is about
/// 1.5x its minimum), so with two or three passes the minimum depends on
/// whether a run caught a fast moment; the median does not, and it is the
/// statistic [`HostSpeed`] takes of its reference too. An input timed in
/// twenty or more passes, as a served request is, reaches the fast state
/// in nearly every run, and its minimum ([`Samples::best`]) is steadier.
#[derive(Default)]
pub struct Samples(Vec<Vec<f64>>);

impl Samples {
    pub fn record(&mut self, i: usize, ms: f64) {
        if i >= self.0.len() {
            self.0.resize_with(i + 1, Vec::new);
        }
        self.0[i].push(ms);
    }

    /// Adds every time recorded in `other`.
    pub fn extend(&mut self, other: &Samples) {
        for (i, v) in other.0.iter().enumerate() {
            v.iter().for_each(|&ms| self.record(i, ms));
        }
    }

    /// One past the highest input recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Input `i`'s median time, if it was timed.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.0.get(i).filter(|v| !v.is_empty()).map(|v| median(v))
    }

    /// The median time of every input timed at least once.
    pub fn values(&self) -> Vec<f64> {
        (0..self.len()).filter_map(|i| self.get(i)).collect()
    }

    /// Input `i`'s lowest time, if it was timed.
    pub fn best(&self, i: usize) -> Option<f64> {
        self.0.get(i)?.iter().copied().reduce(f64::min)
    }

    /// The lowest time of every input timed at least once.
    pub fn best_values(&self) -> Vec<f64> {
        (0..self.len()).filter_map(|i| self.best(i)).collect()
    }
}

/// The reference unit's time, in ms, on a host of nominal speed. Time
/// metrics are reported as if measured on such a host; see
/// [`HostSpeed`].
pub const REF_NOMINAL_MS: f64 = 2.5;

/// One unit of the reference computation: Pareto-front sweeps over
/// pseudo-random point sets (allocation, sort, compare-and-branch), the
/// same mix of work as the DP's prune, in code that belongs to the
/// benchmark and not to the repository's crates. Every unit does
/// identical work.
fn reference_unit() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut kept = 0u64;
    for _ in 0..10 {
        let mut pts: Vec<(f64, f64)> = (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f64, (x & 0xffff) as f64)
            })
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut best = f64::INFINITY;
        for p in pts {
            if p.1 < best {
                best = p.1;
                kept += 1;
            }
        }
    }
    kept
}

/// How fast the host ran during a run, measured by timing the fixed
/// [`reference_unit`] between the timed operations, on as many threads at
/// once as the operations use.
///
/// On a shared host one operation's time flips between a fast and a slow
/// state from one call to the next, and how often each comes drifts over
/// minutes, so a whole run can be 25 % slower than the one before it.
/// The reference slows with the workload: over 8-second windows a 5-pin
/// multi-cost solve's median moved by ±11 % while its ratio to the
/// reference's median moved by ±2.5 %. Dividing a run's times by
/// [`HostSpeed::factor`] removes that drift and keeps every change in the
/// repository's code, since the reference runs none of it.
///
/// A workload on several threads waits for its slowest one, and the
/// host may slow one core and not the other: with the reference on one
/// thread, `chip-closure`'s rounds slowed by 40 % over a few minutes
/// while the factor did not move. So a sample runs one unit on each of
/// the workload's threads at once and takes the time until all are done.
#[derive(Default)]
pub struct HostSpeed {
    threads: usize,
    ms: Vec<f64>,
}

impl HostSpeed {
    /// Samples with one unit on each of `threads` threads.
    pub fn on_threads(threads: usize) -> HostSpeed {
        HostSpeed {
            threads,
            ms: Vec::new(),
        }
    }

    /// Times one sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        if self.threads <= 1 {
            std::hint::black_box(reference_unit());
        } else {
            std::thread::scope(|s| {
                for _ in 0..self.threads {
                    s.spawn(|| std::hint::black_box(reference_unit()));
                }
            });
        }
        self.ms.push(ms_since(t));
    }

    pub fn samples(&self) -> usize {
        self.ms.len()
    }

    /// The sample's median time in this run, ms.
    pub fn ref_ms(&self) -> f64 {
        median(&self.ms)
    }

    /// How much slower than nominal the host ran (1 when no sample).
    pub fn factor(&self) -> f64 {
        if self.ms.is_empty() {
            1.0
        } else {
            self.ref_ms() / REF_NOMINAL_MS
        }
    }
}

/// Passes over `n` inputs: `f(pass, i)` handles input `i`. Passes repeat
/// until `window` has elapsed and at least `min_passes` are complete;
/// the last pass may stop part-way. Returns each pass's wall time in
/// seconds and whether it completed.
pub fn passes(
    n: usize,
    window: Duration,
    min_passes: usize,
    mut f: impl FnMut(usize, usize),
) -> Vec<(f64, bool)> {
    let start = Instant::now();
    let mut out = Vec::new();
    for pass in 0.. {
        if pass >= min_passes && start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let mut done = true;
        for i in 0..n {
            if pass >= min_passes && start.elapsed() >= window {
                done = false;
                break;
            }
            f(pass, i);
        }
        out.push((t.elapsed().as_secs_f64(), done));
    }
    out
}

/// Tracing overhead in percent: complete traced passes (odd) against
/// complete untraced passes (even), per pass.
pub fn overhead_pct(walls: &[(f64, bool)]) -> f64 {
    let mean = |odd: bool| {
        let v: Vec<f64> = walls
            .iter()
            .enumerate()
            .filter(|(p, (_, done))| *done && (p % 2 == 1) == odd)
            .map(|(_, (w, _))| *w)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    (mean(true) - mean(false)) / mean(false) * 100.0
}

/// FNV-1a over 64-bit words: a stable digest of deterministic outputs,
/// compared exactly between runs and commits.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn word(&mut self, w: u64) {
        w.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        s.iter().for_each(|&b| self.byte(b));
    }

    /// Every point's cost and ARD bits, its repeater placements and its
    /// driver choices.
    pub fn curve(&mut self, curve: &TradeoffCurve) {
        self.word(curve.len() as u64);
        for p in curve.points() {
            self.f64(p.cost);
            self.f64(p.ard);
            for (v, r) in p.assignment.placements() {
                self.word(v.0 as u64);
                self.word(r.repeater as u64);
                self.bytes(format!("{:?}", r.orientation).as_bytes());
            }
            for &c in &p.terminal_choices {
                self.word(c as u64);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The repository's layers, as the traced run attributes time to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own work between library calls.
    Bench,
    Netgen,
    Core,
    Batch,
    Timing,
    Incremental,
    Service,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Netgen,
        Layer::Core,
        Layer::Batch,
        Layer::Timing,
        Layer::Incremental,
        Layer::Service,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Netgen => "netgen",
            Layer::Core => "core",
            Layer::Batch => "batch",
            Layer::Timing => "timing",
            Layer::Incremental => "incremental",
            Layer::Service => "service",
        }
    }
}

/// One recorded span. `parent` and `req` are 0 when absent.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs its
/// closure: no clock reads, no allocation.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span; `f` receives the span's id to pass to
    /// child spans as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: Layer,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                id,
                parent,
                req,
                name,
                layer,
                start_ns,
                end_ns,
            });
        out
    }

    /// Recorded spans, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Durations in ms of every span called `name`.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Per-layer self time in ms: each span's duration minus the part its
/// direct children cover, summed by layer.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"layer\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}
