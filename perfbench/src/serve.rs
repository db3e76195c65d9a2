//! `eco-serve`: an in-process session server on loopback TCP with
//! `nproc` clients, each in a closed loop (the next request goes out
//! when the previous reply is in). A client opens a 6–8-pin net, sends
//! single-edit `edit` requests (writes), each followed by a `curve`
//! request (a read), fetches the `recompute` report and closes.
//!
//! Every served reply is compared byte-for-byte with a local `Replayer`
//! oracle built in set-up.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use msrnet_bench::Instance;
use msrnet_core::{MsriOptions, TerminalOptions, WireOption};
use msrnet_incremental::{random_trace, trace_to_json, Edit, IncrementalOptimizer};
use msrnet_netgen::format::{parse_net_file, write_net_file};
use msrnet_netgen::table1;
use msrnet_rctree::{Net, Repeater, TerminalId};
use msrnet_service::replay::curves_bit_identical;
use msrnet_service::{Client, ClientError, Endpoint, Replayer, Server, ServerConfig};

use crate::harness::{
    median, ms_since, net_seed, nproc, overhead_pct, quantile, span_ms, timed_setup, Args, Digest,
    Layer, Samples, Tracer,
};
use crate::{DpTotals, Outcome};

/// Distinct nets (sessions) per seed; every pass runs each once. An
/// edit's cost follows its net's, so the percentiles repeat between
/// seeds only over many nets: five edits per session rather than twenty
/// give four times the distinct nets per unit of oracle cost.
const NETS: usize = 192;
const EDITS: usize = 5;
const SPACING: f64 = 2500.0;

/// One session's requests and the oracle's expected replies.
struct Script {
    name: String,
    msr: String,
    net: Net,
    library: Vec<Repeater>,
    edits: Vec<Edit>,
    /// Single-edit trace documents, one per `edit` request.
    edit_docs: Vec<String>,
    edit_replies: Vec<String>,
    curve_replies: Vec<String>,
    report: String,
    rejected: usize,
    escalations: u64,
}

fn script(seed: u64, i: usize, tr: &Tracer, parent: u64) -> Result<Script, String> {
    let params = table1();
    let inst = tr.span("netgen.build", Layer::Netgen, parent, 0, |_| {
        Instance::random(&params, 6 + i % 3, net_seed(seed, i), SPACING)
    });
    // The server parses the uploaded text; the oracle starts from the
    // same parse.
    let msr = write_net_file(&inst.net, &inst.library);
    let nf = parse_net_file(&msr).map_err(|e| e.to_string())?;
    let edits = random_trace(&nf.net, net_seed(seed, i), EDITS);
    let name = format!("net-{i}");
    let oracle = tr.span("replayer.oracle", Layer::Service, parent, 0, |_| {
        let mut rep = Replayer::open(
            name.clone(),
            nf.net.clone(),
            TerminalId(0),
            nf.library.clone(),
            0.0,
            Default::default(),
            false,
        )?;
        let mut edit_replies = Vec::with_capacity(EDITS);
        let mut curve_replies = Vec::with_capacity(EDITS);
        for e in &edits {
            let before = rep.row_count();
            rep.step(e, false);
            edit_replies.push(rep.rows_since(before));
            curve_replies.push(rep.curve_json()?);
        }
        Ok::<_, String>((rep, edit_replies, curve_replies))
    });
    let (rep, edit_replies, curve_replies) = oracle?;
    Ok(Script {
        name,
        msr,
        net: nf.net,
        library: nf.library,
        edit_docs: edits
            .iter()
            .map(|e| trace_to_json(std::slice::from_ref(e)))
            .collect(),
        edits,
        edit_replies,
        curve_replies,
        report: rep.report(),
        rejected: rep.rejected(),
        escalations: rep.escalations(),
    })
}

/// A running server; stopped and joined on drop.
struct Running {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Running {
    fn start() -> std::io::Result<Running> {
        let server = Server::bind(
            &Endpoint::Tcp("127.0.0.1:0".into()),
            ServerConfig::default(),
        )?;
        let endpoint = server.local_endpoint()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || server.run(&flag));
        Ok(Running {
            endpoint,
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the accept loop and waits for the server thread.
    fn shutdown(mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Release);
        match self.thread.take().map(|h| h.join()) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server: {e}")),
            Some(Err(_)) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Requests per session: open, an edit and a curve per edit, recompute,
/// close.
const SLOTS: usize = 2 * EDITS + 3;

/// Index of a distinct request: slot `slot` of script `k`'s session.
fn request(k: usize, slot: usize) -> usize {
    k * SLOTS + slot
}

fn edit_slot(j: usize) -> usize {
    1 + 2 * j
}

fn curve_slot(j: usize) -> usize {
    2 + 2 * j
}

/// One client's tallies. Latencies are kept per distinct request (see
/// [`request`]); each request's lowest time over the passes counts.
#[derive(Default)]
struct Tally {
    requests: u64,
    failed: u64,
    /// Replies compared with the oracle, and the ones that differed.
    compared: u64,
    mismatches: Vec<String>,
    ms: Samples,
    read_bytes: Vec<f64>,
}

impl Tally {
    /// Times request `index` in its own span; an error reply counts as a
    /// failed operation.
    fn call<T>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        parent: u64,
        req: u64,
        index: usize,
        f: impl FnOnce() -> Result<T, ClientError>,
    ) -> Result<T, String> {
        self.requests += 1;
        let t = Instant::now();
        let r = tr.span(name, Layer::Service, parent, req, |_| f());
        self.ms.record(index, ms_since(t));
        self.failed += u64::from(r.is_err());
        r.map_err(|e| e.to_string())
    }
}

/// Runs one session of script `k` on `client`; every reply is compared
/// with the oracle.
fn session(
    client: &mut Client,
    scripts: &[Script],
    k: usize,
    tally: &mut Tally,
    tr: &Tracer,
    req: u64,
) {
    let s = &scripts[k];
    tally.compared += 2 * s.edit_docs.len() as u64 + 2;
    tr.span("session", Layer::Bench, 0, req, |parent| {
        let opened = tally.call(tr, "client.open", parent, req, request(k, 0), || {
            client.open(&s.name, &s.msr, 0, 0.0)
        });
        let id = match opened {
            Ok(id) => id,
            Err(e) => {
                tally
                    .mismatches
                    .push(format!("{}: open failed: {e}", s.name));
                return;
            }
        };
        for (j, doc) in s.edit_docs.iter().enumerate() {
            let r = tally.call(
                tr,
                "client.edit",
                parent,
                req,
                request(k, edit_slot(j)),
                || client.edit(id, doc),
            );
            if r.as_deref() != Ok(s.edit_replies[j].as_str()) {
                tally
                    .mismatches
                    .push(format!("{} edit {j}: reply differs from oracle", s.name));
            }
            let r = tally.call(
                tr,
                "client.curve",
                parent,
                req,
                request(k, curve_slot(j)),
                || client.curve(id),
            );
            if let Ok(body) = &r {
                tally.read_bytes.push(body.len() as f64);
            }
            if r.as_deref() != Ok(s.curve_replies[j].as_str()) {
                tally
                    .mismatches
                    .push(format!("{} curve {j}: reply differs from oracle", s.name));
            }
        }
        let r = tally.call(
            tr,
            "client.recompute",
            parent,
            req,
            request(k, SLOTS - 2),
            || client.recompute(id),
        );
        if r.as_deref() != Ok(s.report.as_str()) || !s.report.contains("\"mismatches\": 0,") {
            tally
                .mismatches
                .push(format!("{}: recompute report differs from oracle", s.name));
        }
        let r = tally.call(
            tr,
            "client.close",
            parent,
            req,
            request(k, SLOTS - 1),
            || client.close(id),
        );
        if let Err(e) = r {
            tally
                .mismatches
                .push(format!("{}: close failed: {e}", s.name));
        }
    });
}

/// Runs `clients` closed-loop clients in passes: in every pass client
/// `c` runs the sessions of scripts `c, c + clients, …`, and all
/// clients start each pass together. Passes repeat until `window` has
/// elapsed and `min_passes` are done; odd passes use `tr`, even ones run
/// untraced. Returns the merged tallies and each pass's wall time.
fn drive(
    endpoint: &Endpoint,
    scripts: &[Script],
    clients: usize,
    window: Duration,
    min_passes: usize,
    tr: &Tracer,
) -> (Vec<Tally>, Vec<f64>) {
    let off = Tracer::new(false);
    let barrier = Barrier::new(clients);
    let go = AtomicBool::new(true);
    let marks = Mutex::new(Vec::new());
    let start = Instant::now();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, go, marks, off) = (&barrier, &go, &marks, &off);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut client = Client::connect(endpoint);
                    if let Ok(cl) = &mut client {
                        if let Err(e) = cl.set_read_timeout(Some(Duration::from_secs(60))) {
                            tally.mismatches.push(format!("client {c}: {e}"));
                        }
                    }
                    for pass in 0usize.. {
                        if barrier.wait().is_leader() {
                            marks.lock().expect("no client panics").push(Instant::now());
                            go.store(
                                pass < min_passes || start.elapsed() < window,
                                Ordering::SeqCst,
                            );
                        }
                        barrier.wait();
                        if !go.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(cl) = &mut client else { continue };
                        let t = if pass % 2 == 1 { tr } else { off };
                        for k in (c..scripts.len()).step_by(clients) {
                            let req = ((pass as u64) << 32) | (k as u64) << 8 | c as u64;
                            session(cl, scripts, k, &mut tally, t, req);
                        }
                    }
                    if let Err(e) = client {
                        tally.failed += 1;
                        tally
                            .mismatches
                            .push(format!("client {c}: connect failed: {e}"));
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    let marks = marks.into_inner().expect("no client panics");
    let walls = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect();
    (tallies, walls)
}

/// Reads `"key": N` from the server's `stats` reply.
fn stat(stats: &str, key: &str) -> Option<u64> {
    let rest = &stats[stats.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

fn server_stats(endpoint: &Endpoint, out: &mut Outcome) -> Option<String> {
    let r = Client::connect(endpoint).and_then(|mut c| c.stats());
    match r {
        Ok(s) => Some(s),
        Err(e) => {
            out.check(false, || format!("stats request failed: {e}"));
            None
        }
    }
}

/// Local replays of every script with the incremental recompute and the
/// from-scratch oracle timed separately (traced runs only). Each edit
/// keeps its lowest time over the replays, as the served requests do; the
/// counters come from the first replay.
#[derive(Default)]
struct Local {
    replays: usize,
    inc_ms: Samples,
    scratch_ms: Samples,
    recomputed: u64,
    reused: u64,
    escalations: u64,
    rejected: u64,
    dp: DpTotals,
}

impl Local {
    fn replay(&mut self, scripts: &[Script], out: &mut Outcome, tr: &Tracer) {
        let first = self.replays == 0;
        self.replays += 1;
        for (k, s) in scripts.iter().enumerate() {
            let term_opts = TerminalOptions::defaults_with_cost(&s.net, 0.0);
            let options = MsriOptions {
                allow_inverting: s.library.iter().any(|r| r.inverting),
                ..MsriOptions::default()
            };
            let mut session = IncrementalOptimizer::new(
                s.net.clone(),
                TerminalId(0),
                s.library.clone(),
                term_opts,
                vec![WireOption::unit()],
                options,
            );
            let _ = session.recompute();
            for (j, e) in s.edits.iter().enumerate() {
                let i = k * EDITS + j;
                if session.apply(e).is_err() {
                    self.rejected += u64::from(first);
                    continue;
                }
                let t = Instant::now();
                let inc = tr.span("recompute", Layer::Incremental, 0, i as u64, |_| {
                    session.recompute()
                });
                self.inc_ms.record(i, ms_since(t));
                let t = Instant::now();
                let scratch = tr.span("from_scratch", Layer::Incremental, 0, i as u64, |_| {
                    session.from_scratch()
                });
                self.scratch_ms.record(i, ms_since(t));
                if !first {
                    continue;
                }
                match (inc, scratch) {
                    (Ok((a, sa)), Ok((b, _))) => {
                        out.check(curves_bit_identical(&a, &b), || {
                            format!(
                                "{} edit {j}: incremental recompute differs from scratch",
                                s.name
                            )
                        });
                        self.recomputed += sa.nodes_recomputed as u64;
                        self.reused += sa.nodes_reused as u64;
                        self.dp.add(&b);
                    }
                    (Err(a), Err(b)) => {
                        out.check(a == b, || format!("{} edit {j}: errors differ", s.name))
                    }
                    _ => out.check(false, || {
                        format!("{} edit {j}: only one side solved", s.name)
                    }),
                }
            }
            if first {
                self.escalations += session.escalations();
            }
        }
    }

    /// Sets the `incremental.*` metrics and the service overhead: an
    /// edit's lowest served time minus its lowest local recompute and
    /// scratch times (a rejected edit does no DP work).
    fn report(&self, served: &Samples, out: &mut Outcome) {
        self.dp.report(out);
        let overhead: Vec<f64> = (0..self.inc_ms.len().max(self.scratch_ms.len()))
            .filter_map(|i| {
                let ms = served.best(request(i / EDITS, edit_slot(i % EDITS)))?;
                Some(
                    ms - self.inc_ms.best(i).unwrap_or(0.0)
                        - self.scratch_ms.best(i).unwrap_or(0.0),
                )
            })
            .collect();
        let (inc, scratch) = (self.inc_ms.best_values(), self.scratch_ms.best_values());
        let m = &mut out.metrics;
        m.set("incremental.recompute_ms_p50", median(&inc), "ms");
        m.set("incremental.recompute_ms_p90", quantile(&inc, 0.9), "ms");
        m.set("incremental.scratch_ms_p50", median(&scratch), "ms");
        m.set("dp.solve_ms", median(&scratch), "ms");
        m.set("service.overhead_ms_p50", median(&overhead), "ms");
        m.set(
            "incremental.nodes_recomputed",
            self.recomputed as f64,
            "count",
        );
        m.set("incremental.nodes_reused", self.reused as f64, "count");
        let visited = (self.recomputed + self.reused).max(1) as f64;
        m.set(
            "incremental.reuse_ratio",
            self.reused as f64 / visited,
            "ratio",
        );
        m.set("incremental.escalations", self.escalations as f64, "count");
        m.set("incremental.rejected_edits", self.rejected as f64, "count");
    }
}

fn merge(out: &mut Outcome, tallies: Vec<Tally>) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.requests += t.requests;
        all.failed += t.failed;
        all.compared += t.compared;
        all.ms.extend(&t.ms);
        all.read_bytes.extend(t.read_bytes);
        all.mismatches.extend(t.mismatches);
    }
    out.attempted += all.requests;
    out.failed += all.failed;
    out.add_checks(all.compared, &all.mismatches);
    all
}

pub fn run(args: &Args, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let clients = nproc();
    let (setup_s, built) = timed_setup(&mut out.setup_host, || {
        tr.span("setup", Layer::Bench, 0, 0, |parent| {
            let scripts: Result<Vec<Script>, String> = (0..NETS)
                .map(|i| script(args.seed, i, tr, parent))
                .collect();
            let server = Running::start().map_err(|e| format!("server start: {e}"));
            scripts.and_then(|s| server.map(|r| (s, r)))
        })
    });
    let (scripts, server) = match built {
        Ok(b) => b,
        Err(e) => {
            out.failed += 1;
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    out.metrics.set("setup_s", setup_s, "s");

    let mut digest = Digest::default();
    let (mut ips, mut rejected, mut escalations) = (0, 0, 0);
    for s in &scripts {
        digest.bytes(s.report.as_bytes());
        for c in &s.curve_replies {
            digest.bytes(c.as_bytes());
        }
        ips += s.net.topology.insertion_point_count();
        rejected += s.rejected;
        escalations += s.escalations;
    }
    out.digest = digest;
    out.counter("netgen.insertion_points", ips);
    out.metrics
        .set("netgen.insertion_points", ips as f64, "count");
    out.counter("oracle.rejected_edits", rejected);
    out.counter("oracle.escalations", escalations);

    // Warm-up: one untraced pass; the server's counters after this fixed
    // pass are deterministic.
    let off = Tracer::new(false);
    let (tallies, _) = drive(&server.endpoint, &scripts, clients, Duration::ZERO, 1, &off);
    merge(&mut out, tallies);
    if let Some(stats) = server_stats(&server.endpoint, &mut out) {
        for key in [
            "sessions_opened",
            "sessions_evicted",
            "requests_ok",
            "requests_error",
        ] {
            let v = stat(&stats, key).unwrap_or(0);
            out.counter(&format!("service.{key}"), v);
            out.metrics
                .set(&format!("service.{key}"), v as f64, "count");
        }
    }

    // Traced runs replay the scripts locally before and after the timed
    // window, so each local time is a best over moments far apart.
    let mut local = Local::default();
    if tr.on() {
        local.replay(&scripts, &mut out, tr);
        local.replay(&scripts, &mut out, tr);
    }

    let window = Duration::from_secs_f64(args.seconds);
    // No reference samples here: a served request's latency is mostly
    // loopback round trips and framing, and does not slow with the
    // reference (see the README's "Host speed"), so its times are
    // reported as measured.
    let (tallies, walls) = drive(&server.endpoint, &scripts, clients, window, 2, tr);
    let all = merge(&mut out, tallies);
    let slot_ms = |slot: fn(usize) -> usize| -> Vec<f64> {
        (0..NETS * EDITS)
            .filter_map(|i| all.ms.best(request(i / EDITS, slot(i % EDITS))))
            .collect()
    };
    let (edits, reads) = (slot_ms(edit_slot), slot_ms(curve_slot));
    // Closed-loop clients with no think time: each keeps one request in
    // flight, so throughput is clients over the mean request latency.
    let served = all.ms.best_values();
    let ops_per_s = clients as f64 * served.len() as f64 / (served.iter().sum::<f64>() / 1e3);
    let m = &mut out.metrics;
    m.set("op_ms_p50", median(&edits), "ms");
    m.set("op_ms_p90", quantile(&edits, 0.9), "ms");
    m.set("service.read_ms_p50", median(&reads), "ms");
    m.set("service.read_ms_p90", quantile(&reads, 0.9), "ms");
    m.set("ops_per_s", ops_per_s, "1/s");
    m.set("service.read_bytes_p50", median(&all.read_bytes), "bytes");
    eprintln!(
        "eco-serve: {clients} clients, {} sessions x {} passes, {} requests",
        NETS,
        walls.len(),
        all.requests
    );

    // Session accounting must close.
    if let Some(stats) = server_stats(&server.endpoint, &mut out) {
        let get = |k| stat(&stats, k).unwrap_or(u64::MAX);
        let (opened, closed, evicted, open) = (
            get("sessions_opened"),
            get("sessions_closed"),
            get("sessions_evicted"),
            get("sessions_open"),
        );
        out.check(
            opened == closed.wrapping_add(evicted).wrapping_add(open) && open == 0,
            || {
                format!(
                    "session accounting: opened {opened} != closed {closed} + evicted {evicted} \
                 + open {open}"
                )
            },
        );
    }
    if let Err(e) = server.shutdown() {
        out.check(false, || e);
    }

    if tr.on() {
        // Odd passes were traced: compare complete pass pairs.
        let pairs: Vec<(f64, bool)> = walls.iter().map(|&w| (w, true)).collect();
        out.metrics
            .set("trace.overhead_pct", overhead_pct(&pairs), "%");
        local.replay(&scripts, &mut out, tr);
        local.replay(&scripts, &mut out, tr);
        local.report(&all.ms, &mut out);
        let spans = tr.spans();
        let m = &mut out.metrics;
        m.set(
            "service.open_ms_p50",
            median(&span_ms(&spans, "client.open")),
            "ms",
        );
        m.set(
            "service.close_ms_p50",
            median(&span_ms(&spans, "client.close")),
            "ms",
        );
    }
    out
}
