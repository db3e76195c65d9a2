//! Optimal multisource repeater insertion (MSRI) — the paper's §IV
//! dynamic program.
//!
//! The tree is processed bottom-up. A subsolution for the subtree rooted
//! at `v` (measured at `v`'s parent-side pin) is characterized by three
//! scalars and two piece-wise linear functions of the external
//! capacitance `c_E` (paper §IV-B):
//!
//! * `cost` — repeaters and drivers spent inside the subtree;
//! * `cap` — capacitance the subtree presents upward;
//! * `d_sinks` — worst augmented delay from the pin to internal sinks;
//! * `Y(c_E)` — worst augmented arrival at the pin from internal sources;
//! * `D(c_E)` — worst augmented diameter among internal pairs.
//!
//! The DP steps are exactly the paper's subroutines: `LeafSolutions`
//! (Fig. 6), `Augment` over a wire (Fig. 10), `JoinSets` at a branch
//! (Fig. 7), `RepeaterSolutions` at an insertion point (Fig. 8) and
//! `RootSolutions` (Fig. 9), with minimal-functional-subset pruning
//! between steps (§IV-D). The result is the full cost-vs-ARD trade-off
//! curve, from which "min cost subject to `ARD ≤ spec`" (Problem 2.1) is
//! read off directly.

use msrnet_pwl::{mfs_divide_conquer, mfs_naive, FuncPoint, Pwl, SegmentArena};
use msrnet_rctree::{
    Assignment, Net, Orientation, Repeater, Rooted, StructuralRemap, TerminalId, VertexId,
    VertexKind,
};

use crate::options::{MsriError, MsriOptions, PruningStrategy, TerminalOptions, WireOption};
use crate::tradeoff::{TradeoffCurve, TradeoffPoint};

const COST: usize = 0;
const CAP: usize = 1;
const DSINKS: usize = 2;
const ARR: usize = 0;
const DIA: usize = 1;

/// Per-candidate bookkeeping carried through pruning.
#[derive(Clone, Copy, Debug)]
struct Meta {
    trace: u32,
    /// Signal parity (number of inverting repeaters between any internal
    /// terminal and the pin, mod 2). Only meaningful when inverting
    /// repeaters are enabled; always `false` otherwise.
    parity: bool,
}

type Cand = FuncPoint<Meta>;

/// Back-pointers for reconstructing the repeater assignment of a
/// surviving candidate.
#[derive(Clone, Copy, Debug)]
enum TraceNode {
    Leaf {
        terminal: TerminalId,
        option: usize,
    },
    Join {
        left: u32,
        right: u32,
    },
    Repeater {
        child: u32,
        vertex: VertexId,
        repeater: usize,
        orientation: Orientation,
    },
    /// A wire-width choice on the parent edge of `vertex` (only recorded
    /// when wire sizing is enabled).
    Wire {
        child: u32,
        edge: msrnet_rctree::EdgeId,
        option: usize,
    },
    /// An empty subtree (a leaf that is not a terminal).
    Empty,
}

/// Counters describing one optimizer run — used by the ablation benches
/// to compare pruning strategies and surfaced as `msrnet-cli optimize
/// --stats` JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MsriStats {
    /// Candidates generated across all DP steps.
    pub generated: u64,
    /// Candidates surviving all prunes, summed over steps.
    pub surviving: u64,
    /// Largest candidate set observed after any prune.
    pub max_set_size: usize,
    /// Largest number of PWL segments observed on a single candidate.
    pub max_segments: usize,
    /// Number of prune invocations.
    pub prunes: u64,
    /// Per-step counters for `LeafSolutions` (Fig. 6).
    pub leaf: StepStats,
    /// Per-step counters for `Augment` (Fig. 10).
    pub augment: StepStats,
    /// Per-step counters for `JoinSets` (Fig. 7), including the
    /// pre-materialization cutoffs (counted as `scalar_pruned`).
    pub join: StepStats,
    /// Per-step counters for `RepeaterSolutions` (Fig. 8).
    pub repeater: StepStats,
}

impl MsriStats {
    fn step_mut(&mut self, step: Step) -> &mut StepStats {
        match step {
            Step::Leaf => &mut self.leaf,
            Step::Augment => &mut self.augment,
            Step::Join => &mut self.join,
            Step::Repeater => &mut self.repeater,
        }
    }

    /// Largest candidate set entering any prune, across all DP steps —
    /// the memory high-water mark of the run.
    pub fn peak_set(&self) -> usize {
        self.leaf
            .peak_set
            .max(self.augment.peak_set)
            .max(self.join.peak_set)
            .max(self.repeater.peak_set)
    }
}

/// Per-subroutine pruning counters: one row per DP step in
/// [`MsriStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    /// Candidates materialized by this step.
    pub generated: u64,
    /// Candidates eliminated by cheap scalar predicates: `JoinSets`'
    /// pre-materialization cutoffs (empty shifted domain, champion
    /// dominance).
    pub scalar_pruned: u64,
    /// Candidates fully eliminated during pruning by exact PWL region
    /// comparisons (including any whose validity domain was already
    /// empty when the prune ran).
    pub pwl_pruned: u64,
    /// Candidates rejected individually by a predictive pre-bound
    /// *before* materialization (no PWL built, no trace pushed, not
    /// counted in `generated`): repeater extensions whose full-domain
    /// line is endpoint-dominated by an already-materialized champion.
    pub prebound_rejected: u64,
    /// Candidates skipped *wholesale* by a predictive pre-bound: whole
    /// join rows and whole per-candidate repeater fan-outs whose
    /// optimistic floors (strongest-remaining-repeater / sibling-set
    /// envelope) are dominated by a champion. An upper bound on the
    /// materializable candidates avoided — some members of a skipped
    /// group would have failed cheaper tests anyway.
    pub materialized_avoided: u64,
    /// Largest candidate set entering a prune of this step.
    pub peak_set: usize,
}

/// DP subroutine tag for attributing per-step statistics.
#[derive(Clone, Copy, Debug)]
enum Step {
    Leaf,
    Augment,
    Join,
    Repeater,
}

/// Conservative summary of a strong `JoinSets` survivor with one
/// contiguous validity span, used to kill dominated products before they
/// are materialized. All fields are upper bounds over the whole span, so
/// a champion whose span covers a product's bounding span and whose
/// ceilings sit below the product's floors dominates that product
/// everywhere it could be defined.
#[derive(Clone, Copy, Debug)]
struct Champion {
    parity: bool,
    cost: f64,
    cap: f64,
    d_sinks: f64,
    dom_lo: f64,
    dom_hi: f64,
    y_hi: f64,
    d_hi: f64,
}

/// Pre-computed library envelope for predictive (bound-before-
/// materialize) pruning, in the spirit of Li & Shi's O(bn²) buffer
/// insertion: the repeater (repeater, orientation) combinations ordered
/// by upstream drive strength once per solver run, plus per-dimension
/// optimistic minima over the whole library. At an insertion point the
/// "strongest remaining repeater" bound for a not-yet-enumerated
/// candidate collapses to these envelope minima, giving O(1) floors for
/// every dimension of any extension the candidate could produce.
#[derive(Clone, Debug)]
struct LibPrebounds {
    /// `(library index, orientation)` pairs sorted by ascending upstream
    /// output resistance (strongest driver first), ties broken by
    /// library order for determinism.
    drive_order: Vec<(usize, Orientation)>,
    /// Minimum repeater cost.
    min_cost: f64,
    /// Minimum parent-side input capacitance.
    min_cap_parent: f64,
    /// Minimum downstream intrinsic delay.
    min_down_intrinsic: f64,
    /// Minimum downstream output resistance.
    min_down_res: f64,
    /// Minimum upstream intrinsic delay.
    min_up_intrinsic: f64,
    /// Minimum upstream output resistance (the strongest driver's).
    min_up_res: f64,
    /// `Some(flag)` when every library repeater shares one `inverting`
    /// value — the precondition for the whole-fan-out skip, whose
    /// champion comparison needs a single known extension parity.
    uniform_inverting: Option<bool>,
}

/// A materialized buffered candidate of the current `RepeaterSolutions`
/// call, summarized for O(1) exact dominance tests against prospective
/// extensions. Every buffered candidate lives on the full domain
/// `[0, B]` with a *linear* arrival (endpoints `y0`/`y_b`) and a
/// *constant* diameter `d`, so endpoint comparisons decide pointwise
/// dominance exactly — no conservatism, hence bit-identical frontiers.
#[derive(Clone, Copy, Debug)]
struct RepChampion {
    parity: bool,
    cost: f64,
    cap: f64,
    d_sinks: f64,
    y0: f64,
    y_b: f64,
    d: f64,
}

impl LibPrebounds {
    fn new(library: &[Repeater]) -> Self {
        let mut drive_order = Vec::new();
        let mut env = LibPrebounds {
            drive_order: Vec::new(),
            min_cost: f64::INFINITY,
            min_cap_parent: f64::INFINITY,
            min_down_intrinsic: f64::INFINITY,
            min_down_res: f64::INFINITY,
            min_up_intrinsic: f64::INFINITY,
            min_up_res: f64::INFINITY,
            uniform_inverting: None,
        };
        for (ri, rep) in library.iter().enumerate() {
            let orientations: &[Orientation] = if rep.is_symmetric() {
                &[Orientation::AFacesParent]
            } else {
                &Orientation::BOTH
            };
            for &o in orientations {
                let down = rep.downstream_drive(o);
                let up = rep.upstream_drive(o);
                env.min_cost = env.min_cost.min(rep.cost);
                env.min_cap_parent = env.min_cap_parent.min(rep.cap_facing_parent(o));
                env.min_down_intrinsic = env.min_down_intrinsic.min(down.intrinsic);
                env.min_down_res = env.min_down_res.min(down.out_res);
                env.min_up_intrinsic = env.min_up_intrinsic.min(up.intrinsic);
                env.min_up_res = env.min_up_res.min(up.out_res);
                drive_order.push((ri, o));
            }
            env.uniform_inverting = match env.uniform_inverting {
                None if ri == 0 => Some(rep.inverting),
                Some(flag) if flag == rep.inverting => Some(flag),
                _ => None,
            };
        }
        drive_order.sort_by(|a, b| {
            let ra = library[a.0].upstream_drive(a.1).out_res; // msrnet-allow: panic drive_order enumerates this library's indices
            let rb = library[b.0].upstream_drive(b.1).out_res;
            ra.total_cmp(&rb)
        });
        env.drive_order = drive_order;
        env
    }

    /// Number of `(repeater, orientation)` combinations an insertion
    /// point fans a candidate out to.
    fn combos(&self) -> usize {
        self.drive_order.len()
    }
}

/// Solves Problem 2.1 for `net`: returns the Pareto trade-off between
/// total cost (drivers + repeaters) and ARD over all assignments and
/// orientations of `library` repeaters to the insertion points, and all
/// per-terminal driver options.
///
/// Requirements: the net must be valid ([`Net::check`]), every terminal
/// must be a leaf ([`Net::normalized`]), and `root` names the terminal to
/// root the recursion at (any terminal works; the result is
/// root-invariant).
///
/// # Errors
///
/// See [`MsriError`].
///
/// # Examples
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_core::{optimize, MsriOptions, TerminalOptions};
/// use msrnet_rctree::{Buffer, NetBuilder, Repeater, Technology, Terminal, TerminalId};
///
/// let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// let ip = b.insertion_point(Point::new(4000.0, 0.0));
/// let t1 = b.terminal(Point::new(8000.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// b.wire(t0, ip);
/// b.wire(ip, t1);
/// let net = b.build()?;
///
/// let buf = Buffer::new("1X", 50.0, 180.0, 0.05, 1.0);
/// let lib = [Repeater::from_buffer_pair("rep", &buf, &buf)];
/// let curve = optimize(
///     &net,
///     TerminalId(0),
///     &lib,
///     &TerminalOptions::defaults(&net),
///     &MsriOptions::default(),
/// )?;
/// // Spending a repeater must help this 8 mm bus.
/// assert!(curve.best_ard().ard < curve.min_cost().ard);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimize(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    options: &MsriOptions,
) -> Result<TradeoffCurve, MsriError> {
    optimize_with_wires(net, root, library, term_opts, &[WireOption::unit()], options)
}

/// Reusable scratch state for [`optimize_in`]: a segment arena whose
/// buffers are recycled across the DP's PWL operations *and across
/// nets*.
///
/// The hot DP loop (`Augment`, `JoinSets`) produces a handful of
/// short-lived PWL temporaries per candidate pair; with a workspace
/// those run through [`SegmentArena`]'s fused, allocation-free
/// operations instead of the global allocator. Results are
/// **bit-identical** to [`optimize`] — the fused operations replicate
/// the composed primitives' floating-point operation order exactly.
///
/// A workspace is single-threaded by design; the batch engine creates
/// one per worker thread.
///
/// # Examples
///
/// ```
/// use msrnet_core::MsriWorkspace;
///
/// let mut ws = MsriWorkspace::new();
/// // ... run optimize_in(&net, ..., &mut ws) for many nets ...
/// assert_eq!(ws.arena().reused(), 0); // nothing recycled yet
/// ```
#[derive(Debug, Default)]
pub struct MsriWorkspace {
    arena: SegmentArena,
}

impl MsriWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        MsriWorkspace::default()
    }

    /// The underlying arena (for allocation-reuse diagnostics).
    pub fn arena(&self) -> &SegmentArena {
        &self.arena
    }

    /// Records the arena's free-list level — see
    /// [`SegmentArena::checkpoint`]. Long-lived sessions checkpoint
    /// after warm-up and [`MsriWorkspace::arena_restore`] after each
    /// query so scratch memory stays bounded.
    pub fn arena_checkpoint(&self) -> msrnet_pwl::ArenaCheckpoint {
        self.arena.checkpoint()
    }

    /// Trims the arena free list back to a checkpointed level.
    pub fn arena_restore(&mut self, cp: &msrnet_pwl::ArenaCheckpoint) {
        self.arena.restore(cp);
    }
}

/// Like [`optimize`], but reusing `workspace` scratch memory — the entry
/// point for high-throughput multi-net runs. Results are bit-identical
/// to [`optimize`].
///
/// # Errors
///
/// See [`MsriError`].
pub fn optimize_in(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    options: &MsriOptions,
    workspace: &mut MsriWorkspace,
) -> Result<TradeoffCurve, MsriError> {
    optimize_with_wires_in(
        net,
        root,
        library,
        term_opts,
        &[WireOption::unit()],
        options,
        workspace,
    )
}

/// Like [`optimize`], additionally choosing a wire width for **every**
/// edge from `wire_options` (simultaneous repeater insertion and
/// discrete wire sizing — the paper's §VII extension).
///
/// With a single unit option this is exactly [`optimize`]. Wire costs are
/// `cost_per_um · length`, in the same currency as repeater costs; the
/// chosen widths are reported per edge in
/// [`crate::TradeoffPoint::wire_choices`].
///
/// # Errors
///
/// See [`MsriError`]; additionally `wire_options` must be non-empty.
pub fn optimize_with_wires(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
    options: &MsriOptions,
) -> Result<TradeoffCurve, MsriError> {
    let mut workspace = MsriWorkspace::new();
    optimize_with_wires_in(
        net,
        root,
        library,
        term_opts,
        wire_options,
        options,
        &mut workspace,
    )
}

/// Like [`optimize_with_wires`], reusing `workspace` scratch memory.
/// Results are bit-identical to [`optimize_with_wires`].
///
/// # Errors
///
/// See [`MsriError`]; additionally `wire_options` must be non-empty.
pub fn optimize_with_wires_in(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
    options: &MsriOptions,
    workspace: &mut MsriWorkspace,
) -> Result<TradeoffCurve, MsriError> {
    validate(net, root, library, term_opts, wire_options, options)?;
    let rooted = net.rooted_at_terminal(root);
    let mut trace = Vec::new();
    let mut solver = Solver {
        net,
        rooted: &rooted,
        library,
        term_opts,
        wire_options,
        options,
        trace: &mut trace,
        cap_bound: cap_bound(net, library, term_opts, wire_options),
        stats: MsriStats::default(),
        arena: &mut workspace.arena,
        prebounds: LibPrebounds::new(library),
    };
    solver.run(root)
}

/// Structural validation shared by every optimizer entry point.
fn validate(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
    options: &MsriOptions,
) -> Result<(), MsriError> {
    assert!(!wire_options.is_empty(), "at least one wire option required");
    net.check()?;
    if !options.allow_inverting && library.iter().any(|r| r.inverting) {
        return Err(MsriError::InvertingDisallowed);
    }
    for t in net.terminal_ids() {
        if term_opts.for_terminal(t).is_empty() {
            return Err(MsriError::NoOptions(t));
        }
        let v = net.topology.terminal_vertex(t);
        if net.topology.degree(v) > 1 {
            return Err(if t == root {
                MsriError::RootNotLeaf(t)
            } else {
                MsriError::TerminalNotLeaf(t)
            });
        }
    }
    Ok(())
}

/// Per-subtree DP state retained across [`optimize_incremental`] calls:
/// one cached candidate set per processed vertex plus the append-only
/// back-pointer log those candidates reference.
///
/// The cache is opaque — candidates and trace nodes are implementation
/// details — and is valid only for a fixed
/// `(topology shape, root, library, options, cap_bound)` configuration:
/// callers must mark every vertex whose subtree inputs changed as dirty
/// (see [`optimize_incremental`]) and [`DpCache::clear`] the cache
/// outright when the library, root, options or bound change.
#[derive(Debug, Default)]
pub struct DpCache {
    sets: Vec<Option<Vec<Cand>>>,
    trace: Vec<TraceNode>,
}

impl DpCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        DpCache::default()
    }

    /// Drops every cached subtree solution and back-pointer; the next
    /// [`optimize_incremental`] call recomputes everything.
    pub fn clear(&mut self) {
        self.sets.clear();
        self.trace.clear();
    }

    /// Number of vertices currently holding a cached candidate set.
    pub fn cached_subtrees(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    /// Length of the append-only back-pointer log. Grows monotonically
    /// across recomputes (old entries stay valid for reused subtrees)
    /// until [`DpCache::clear`] — long edit sessions should clear
    /// periodically if memory matters more than warm starts.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Grows the per-vertex table to `n` slots, appending cold (`None`)
    /// entries and leaving every cached set untouched — the cache
    /// counterpart of an *append-only* structural edit (new vertices get
    /// the new ids, nothing renumbers), which would otherwise trip the
    /// size guard in [`optimize_incremental`] and dump the whole cache.
    /// Shrinking is not supported here; see
    /// [`DpCache::structural_remove_vertex`].
    pub fn grow(&mut self, n: usize) {
        if self.sets.len() < n {
            self.sets.resize_with(n, || None);
        }
    }

    /// Applies a `swap_remove`-style structural removal to the cache:
    /// drops (and recycles) the removed vertex's cached set, compacts
    /// the per-vertex table with the same swap, and rewrites the moved
    /// vertex/edge/terminal ids throughout the back-pointer log so
    /// surviving candidates keep reconstructing correctly.
    ///
    /// Trace entries that referenced the *removed* elements become
    /// garbage, but they are unreachable: only ancestors of a removed
    /// leaf (or spliced insertion point) can hold candidates built over
    /// it, and the caller must dirty that root path, so those sets are
    /// dropped and recomputed before any reconstruction touches them.
    ///
    /// # Panics
    ///
    /// Panics if `removed` is outside the cache's table (callers grow or
    /// populate the cache before removing; a cold cache is a no-op via
    /// the empty check).
    pub fn structural_remove_vertex(
        &mut self,
        removed: VertexId,
        remap: &StructuralRemap,
        workspace: &mut MsriWorkspace,
    ) {
        if self.sets.is_empty() {
            // Cold cache: nothing references any id; drop stale
            // back-pointers too.
            self.trace.clear();
            return;
        }
        if let Some(old) = self.sets[removed.0].take() {
            for c in old {
                for p in c.pwls {
                    workspace.arena.recycle(p);
                }
            }
        }
        self.sets.swap_remove(removed.0);
        let (vertex, edge, terminal) = (remap.vertex, remap.edge, remap.terminal);
        if vertex.is_none() && edge.is_none() && terminal.is_none() {
            return; // pure pops: no id moved, the log is untouched
        }
        for node in &mut self.trace {
            match node {
                TraceNode::Leaf { terminal: t, .. } => {
                    if let Some((old, new)) = terminal {
                        if *t == old {
                            *t = new;
                        }
                    }
                }
                TraceNode::Repeater { vertex: v, .. } => {
                    if let Some((old, new)) = vertex {
                        if *v == old {
                            *v = new;
                        }
                    }
                }
                TraceNode::Wire { edge: e, .. } => {
                    if let Some((old, new)) = edge {
                        if *e == old {
                            *e = new;
                        }
                    }
                }
                TraceNode::Join { .. } | TraceNode::Empty => {}
            }
        }
    }
}

/// Node-visit counters for one [`optimize_incremental`] call — the
/// machine-independent evidence that an edit recomputed only its dirty
/// root path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Non-root vertices walked by the postorder sweep (always the full
    /// vertex count minus one: the walk itself is `O(n)` but cheap).
    pub nodes_visited: usize,
    /// Vertices whose candidate set was rebuilt this call.
    pub nodes_recomputed: usize,
    /// Vertices served verbatim from the cache.
    pub nodes_reused: usize,
}

/// The exact PWL domain bound `[0, B]` that [`optimize`] derives from a
/// configuration — exposed so incremental sessions can fix one bound
/// with headroom up front and hand it to every [`optimize_incremental`]
/// call (results are only comparable bit-for-bit under equal bounds).
pub fn required_cap_bound(
    net: &Net,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
) -> f64 {
    cap_bound(net, library, term_opts, wire_options)
}

/// Like [`optimize_with_wires_in`], but reusing per-subtree candidate
/// sets cached in `cache` from a previous call: a vertex is recomputed
/// only when `dirty[v]` is set, its cache entry is missing, or one of
/// its children was recomputed this call — so an edit whose dirty set is
/// one leaf-to-root path costs `O(depth × frontier)` instead of a full
/// re-run.
///
/// `cap_bound` must be at least [`required_cap_bound`] for the current
/// configuration and must be held **fixed** across every call sharing
/// `cache`: the bound shapes every PWL domain and hence every pruning
/// decision, so mixing bounds silently invalidates cached sets. Under a
/// fixed bound the result is **bit-identical** to a from-scratch call
/// with an empty cache (every subtree set is a deterministic function of
/// its subtree inputs and the bound).
///
/// Callers are responsible for dirty-marking every vertex whose subtree
/// content changed — for a point edit that is the edited vertex plus all
/// its ancestors (the engine additionally propagates staleness upward
/// from any recomputed child, so an under-marked *interior* vertex is
/// caught, but an unmarked *edited* vertex is not).
///
/// # Errors
///
/// See [`MsriError`].
///
/// # Panics
///
/// Panics if `cap_bound` is not strictly positive and finite.
#[allow(clippy::too_many_arguments)]
pub fn optimize_incremental(
    net: &Net,
    root: TerminalId,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
    options: &MsriOptions,
    cap_bound: f64,
    dirty: &[bool],
    cache: &mut DpCache,
    workspace: &mut MsriWorkspace,
) -> Result<(TradeoffCurve, RecomputeStats), MsriError> {
    assert!(
        cap_bound.is_finite() && cap_bound > 0.0,
        "cap_bound must be positive and finite"
    );
    debug_assert!(
        cap_bound >= required_cap_bound(net, library, term_opts, wire_options),
        "cap_bound below the configuration's required PWL domain bound"
    );
    validate(net, root, library, term_opts, wire_options, options)?;
    let rooted = net.rooted_at_terminal(root);
    let n = net.topology.vertex_count();
    if cache.sets.len() != n {
        cache.clear();
        cache.sets.resize_with(n, || None);
    }
    let DpCache { sets, trace } = cache;
    let mut solver = Solver {
        net,
        rooted: &rooted,
        library,
        term_opts,
        wire_options,
        options,
        trace,
        cap_bound,
        stats: MsriStats::default(),
        arena: &mut workspace.arena,
        prebounds: LibPrebounds::new(library),
    };
    let root_v = rooted.root();
    let mut stats = RecomputeStats::default();
    let mut fresh = vec![false; n];
    for v in rooted.postorder() {
        if v == root_v {
            break; // handled by RootSolutions below
        }
        stats.nodes_visited += 1;
        let stale = dirty.get(v.0).copied().unwrap_or(true)
            || sets[v.0].is_none()
            || rooted.children(v).iter().any(|u| fresh[u.0]);
        if !stale {
            stats.nodes_reused += 1;
            continue;
        }
        // The replaced set's buffers feed the recomputation instead of
        // the allocator.
        if let Some(old) = sets[v.0].take() {
            for c in old {
                for p in c.pwls {
                    solver.arena.recycle(p);
                }
            }
        }
        let set = solver.solutions_at(v, &mut |u| {
            // msrnet-allow: panic post-order traversal caches every child before its parent
            sets[u.0].as_ref().expect("child cached").clone()
        });
        sets[v.0] = Some(set);
        fresh[v.0] = true;
        stats.nodes_recomputed += 1;
    }

    // RootSolutions always re-evaluates (it is cheap: one pass over the
    // root child's frontier), cloning so the cache keeps its entry.
    let children = rooted.children(root_v);
    if children.is_empty() {
        return Err(MsriError::NoFeasiblePair);
    }
    debug_assert_eq!(children.len(), 1, "leaf root has one child");
    let child = children[0];
    // msrnet-allow: panic the post-order loop above filled every non-root slot
    let below = sets[child.0].as_ref().expect("child processed").clone();
    let at_root = solver.augment(below, child);
    let evals = solver.root_solutions(at_root, root);
    let curve = solver.finish(evals, root)?;
    Ok((curve, stats))
}

/// Upper bound for the PWL domain clamp `[0, B]`.
///
/// Subtlety: every `Augment`/`JoinSets` shifts a candidate's domain down
/// by the capacitance accumulated beneath it (at most the whole net), and
/// `RepeaterSolutions` later *evaluates* the candidate at the repeater's
/// child-side input capacitance — which can exceed the physically
/// remaining outside capacitance, because the repeater's own input cap
/// **replaces** the outside world. The bound therefore reserves headroom
/// for the largest decoupling cap *in addition to* the whole net:
/// `B = C_wire + Σ max terminal caps + max repeater-side cap`, so after
/// any shift the domain still covers every evaluation point.
fn cap_bound(
    net: &Net,
    library: &[Repeater],
    term_opts: &TerminalOptions,
    wire_options: &[WireOption],
) -> f64 {
    let lib_max = library
        .iter()
        .map(|r| r.cap_a.max(r.cap_b))
        .fold(0.0, f64::max);
    let wire_scale_max = wire_options
        .iter()
        .map(|w| w.cap_scale)
        .fold(1.0, f64::max);
    let terms_max_sum: f64 = (0..term_opts.len())
        .map(|i| {
            term_opts
                .for_terminal(TerminalId(i))
                .iter()
                .map(|o| o.cap)
                .fold(0.0, f64::max)
        })
        .sum();
    (net.total_wire_cap() * wire_scale_max + terms_max_sum + lib_max) * (1.0 + 1e-9) + 1e-9
}

/// Incremental-pruning block size for the product-generating steps
/// (JoinSets and RepeaterSolutions). MFS pruning is confluent —
/// dominated candidates may be discarded at any time without changing
/// the final subset — so these steps prune mid-generation whenever the
/// working set reaches `2 * BLOCK_LIMIT`, bounding peak memory instead
/// of materializing whole products.
const BLOCK_LIMIT: usize = 8192;

/// Subproblem size below which divide-and-conquer MFS switches to the
/// pairwise method.
const MFS_LEAF_THRESHOLD: usize = 8;

struct Solver<'a> {
    net: &'a Net,
    rooted: &'a Rooted,
    library: &'a [Repeater],
    term_opts: &'a TerminalOptions,
    wire_options: &'a [WireOption],
    options: &'a MsriOptions,
    trace: &'a mut Vec<TraceNode>,
    cap_bound: f64,
    stats: MsriStats,
    arena: &'a mut SegmentArena,
    /// Drive-strength-ordered library envelope, computed once per run.
    prebounds: LibPrebounds,
}

impl Solver<'_> {
    fn run(&mut self, root: TerminalId) -> Result<TradeoffCurve, MsriError> {
        let n = self.net.topology.vertex_count();
        let root_v = self.rooted.root();
        let mut sets: Vec<Option<Vec<Cand>>> = (0..n).map(|_| None).collect();

        for v in self.rooted.postorder() {
            if v == root_v {
                break; // handled by RootSolutions below
            }
            let set = self.solutions_at(v, &mut |u| {
                // msrnet-allow: panic post-order traversal fills every child slot before its parent
                sets[u.0].take().expect("child processed")
            });
            sets[v.0] = Some(set);
        }

        // The root is a leaf terminal with exactly one child subtree — or
        // none at all when the net is a single terminal, which has no
        // distinct source/sink pair and therefore no defined ARD.
        let children = self.rooted.children(root_v);
        if children.is_empty() {
            return Err(MsriError::NoFeasiblePair);
        }
        debug_assert_eq!(children.len(), 1, "leaf root has one child");
        let child = children[0];
        // msrnet-allow: panic the post-order loop above filled every non-root slot
        let below = sets[child.0].take().expect("child processed");
        let at_root = self.augment(below, child);
        let evals = self.root_solutions(at_root, root);
        self.finish(evals, root)
    }

    /// Candidate set for the subtree at `v`, measured at `v`'s
    /// parent-side pin.
    ///
    /// Child sets are obtained through `fetch`, which either hands over
    /// ownership (the from-scratch path takes them out of its scratch
    /// table) or clones a cached copy (the incremental path keeps the
    /// cache entry alive); either way the returned `Vec` is consumed
    /// here and its PWL buffers recycled into the arena.
    fn solutions_at(
        &mut self,
        v: VertexId,
        fetch: &mut dyn FnMut(VertexId) -> Vec<Cand>,
    ) -> Vec<Cand> {
        let children: Vec<VertexId> = self.rooted.children(v).to_vec();
        match self.net.topology.kind(v) {
            VertexKind::Terminal(t) => {
                debug_assert!(children.is_empty(), "terminals are leaves (validated)");
                self.leaf_solutions(t)
            }
            VertexKind::Steiner | VertexKind::InsertionPoint if children.is_empty() => {
                // Degenerate leaf Steiner point: empty subtree.
                let trace = self.push_trace(TraceNode::Empty);
                let arrival = self.arena.neg_inf(0.0, self.cap_bound);
                let diameter = self.arena.neg_inf(0.0, self.cap_bound);
                vec![self.candidate(
                    Step::Leaf,
                    trace,
                    false,
                    0.0,
                    0.0,
                    f64::NEG_INFINITY,
                    arrival,
                    diameter,
                )]
            }
            VertexKind::Steiner => {
                let mut acc: Option<Vec<Cand>> = None;
                for &u in &children {
                    let su = fetch(u);
                    let au = self.augment(su, u);
                    acc = Some(match acc {
                        None => au,
                        Some(prev) => {
                            let joined = self.join(prev, au);
                            self.prune(joined, Step::Join)
                        }
                    });
                }
                // msrnet-allow: panic Steiner vertices have degree >= 2, so at least one child
                acc.expect("at least one child")
            }
            VertexKind::InsertionPoint => {
                debug_assert_eq!(children.len(), 1, "insertion points are degree 2");
                let su = fetch(children[0]);
                let au = self.augment(su, children[0]);
                let buffered = self.repeater_solutions(au, v);
                self.prune(buffered, Step::Repeater)
            }
        }
    }

    fn push_trace(&mut self, node: TraceNode) -> u32 {
        let id = self.trace.len() as u32;
        self.trace.push(node);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn candidate(
        &mut self,
        step: Step,
        trace: u32,
        parity: bool,
        cost: f64,
        cap: f64,
        d_sinks: f64,
        arrival: Pwl,
        diameter: Pwl,
    ) -> Cand {
        self.stats.generated += 1;
        self.stats.step_mut(step).generated += 1;
        let segs = arrival.segments().len() + diameter.segments().len();
        self.stats.max_segments = self.stats.max_segments.max(segs);
        FuncPoint::new(
            Meta { trace, parity },
            vec![cost, cap, d_sinks],
            vec![arrival, diameter],
        )
    }

    /// Paper Fig. 6: one candidate per driver option of the leaf
    /// terminal.
    fn leaf_solutions(&mut self, t: TerminalId) -> Vec<Cand> {
        let term = *self.net.terminal(t);
        let b = self.cap_bound;
        let menu: Vec<_> = self.term_opts.for_terminal(t).to_vec();
        let mut out = Vec::with_capacity(menu.len());
        for (oi, o) in menu.iter().enumerate() {
            let trace = self.push_trace(TraceNode::Leaf {
                terminal: t,
                option: oi,
            });
            let arrival = if term.is_source() {
                // AT + driver intrinsic/loading + r·(own cap + c_E).
                self.arena.linear(
                    term.arrival + o.arrival_extra + o.drive_res * o.cap,
                    o.drive_res,
                    0.0,
                    b,
                )
            } else {
                self.arena.neg_inf(0.0, b)
            };
            let d_sinks = if term.is_sink() {
                term.downstream + o.downstream_extra
            } else {
                f64::NEG_INFINITY
            };
            let diameter = self.arena.neg_inf(0.0, b);
            out.push(self.candidate(
                Step::Leaf,
                trace,
                false,
                o.cost,
                o.cap,
                d_sinks,
                arrival,
                diameter,
            ));
        }
        self.prune(out, Step::Leaf)
    }

    /// Paper Fig. 10: extend candidates at `v` through `v`'s parent wire,
    /// enumerating wire-width options when wire sizing is enabled.
    fn augment(&mut self, set: Vec<Cand>, v: VertexId) -> Vec<Cand> {
        // msrnet-allow: panic augment is only called on children, which always have a parent edge
        let e = self.rooted.parent_edge(v).expect("non-root vertex");
        let len = self.net.topology.length(e);
        let base_r = self.net.edge_res(e);
        let base_c = self.net.edge_cap(e);
        let sizing = self.wire_options.len() > 1 && len > 0.0;
        // msrnet-allow: float-eq exact-zero parasitics make augmenting the identity; any nonzero value must augment
        if !sizing && base_r == 0.0 && base_c == 0.0 {
            return set;
        }
        let b = self.cap_bound;
        let n_opts = if sizing { self.wire_options.len() } else { 1 };
        let mut out = Vec::with_capacity(set.len() * n_opts);
        for cand in set {
            for oi in 0..n_opts {
                let w = &self.wire_options[oi];
                let r = base_r * w.res_scale;
                let c = base_c * w.cap_scale;
                let cost = cand.scalars[COST] + if sizing { w.cost_per_um * len } else { 0.0 };
                let cap = cand.scalars[CAP] + c;
                let d_sinks = r * (0.5 * c + cand.scalars[CAP]) + cand.scalars[DSINKS];
                let arrival = self
                    .arena
                    .shift_linear_clamp(&cand.pwls[ARR], c, r * 0.5 * c, r, 0.0, b);
                let diameter = self.arena.shift_clamp(&cand.pwls[DIA], c, 0.0, b);
                let trace = if sizing {
                    self.push_trace(TraceNode::Wire {
                        child: cand.payload.trace,
                        edge: e,
                        option: oi,
                    })
                } else {
                    cand.payload.trace
                };
                out.push(self.candidate(
                    Step::Augment,
                    trace,
                    cand.payload.parity,
                    cost,
                    cap,
                    d_sinks,
                    arrival,
                    diameter,
                ));
            }
            // The input candidate is consumed: its PWL buffers feed the
            // next operations instead of the allocator.
            for p in cand.pwls {
                self.arena.recycle(p);
            }
        }
        if sizing {
            self.prune(out, Step::Augment)
        } else {
            out
        }
    }

    /// Paper Fig. 7: the product of two sibling candidate sets at a
    /// branch vertex.
    ///
    /// Large products are pruned incrementally in blocks rather than
    /// materialized whole: the minimal functional subset is confluent
    /// (dominated candidates may be discarded at any time without
    /// affecting the final subset), so interleaving pruning with
    /// generation preserves exactness while bounding memory — combined
    /// driver-sizing × wire-sizing × repeater runs would otherwise
    /// materialize products with billions of entries.
    ///
    /// Two exact pre-materialization cutoffs kill hopeless products
    /// before any PWL work happens:
    ///
    /// 1. **Empty shifted domain.** The product's PWLs live on the
    ///    intersection of each side's domain shifted down by the sibling
    ///    capacitance, clamped to `[0, cap_bound]`. When the bounding
    ///    spans alone prove that intersection empty, the product would be
    ///    born with no validity domain and could never reach the root —
    ///    skipping it is exactly equivalent to materializing and later
    ///    discarding it.
    /// 2. **Champion dominance.** A bounded pool of recent single-span
    ///    survivors ([`Champion`]) is compared against the product's
    ///    *optimistic lower bounds*: `arrival ≥ max` of the side floors,
    ///    `diameter ≥ max` of the side floors and the cross terms
    ///    `Y_floor + d_sinks`. A champion whose span covers the product's
    ///    bounding span and whose scalars and value *ceilings* sit at or
    ///    below those floors dominates the product over its entire
    ///    domain, so by confluence the product may be dropped. Champions
    ///    are generated earlier than any product they kill, so the
    ///    stable (cost, cap) prune order would have kept the champion on
    ///    exact ties too — the final subset is unchanged.
    fn join(&mut self, left: Vec<Cand>, right: Vec<Cand>) -> Vec<Cand> {
        const CHAMPION_CAP: usize = 24;
        let b = self.cap_bound;
        let mut out = Vec::with_capacity((left.len() * right.len()).min(2 * BLOCK_LIMIT));
        let inverting = self.options.allow_inverting;
        // Per-side summaries, computed once: domain bounding span and
        // value floors of each PWL. `[dom_lo, dom_hi, y_floor, d_floor]`;
        // an invalid side summarizes to `[+∞, -∞, +∞, +∞]`, which fails
        // the domain test below for every product it appears in.
        let info = |c: &Cand| -> [f64; 4] {
            let spans = c.domain().spans();
            [
                spans.first().map_or(f64::INFINITY, |s| s.0),
                spans.last().map_or(f64::NEG_INFINITY, |s| s.1),
                c.pwls[ARR].min_value().unwrap_or(f64::INFINITY),
                c.pwls[DIA].min_value().unwrap_or(f64::INFINITY),
            ]
        };
        let l_info: Vec<[f64; 4]> = left.iter().map(info).collect();
        let r_info: Vec<[f64; 4]> = right.iter().map(info).collect();
        // Predictive row pre-bounds: aggregate envelope of the whole
        // right set, so an entire left row (|right| products) can be
        // rejected with O(1) work *before* any product is formed. The
        // envelope floors are sound lower bounds for every product of
        // the row, so a champion dominating the floors dominates every
        // product — an exact whole-row generalization of the per-product
        // cutoffs below. Gated off under inverting libraries (parity
        // makes the per-product skip accounting non-uniform) and when
        // predictive pruning is disabled.
        let row_skip = self.options.predictive && !inverting && !right.is_empty();
        let slack = self.options.prebound_slack;
        let mut r_cap_min = f64::INFINITY;
        let mut r_cap_max = f64::NEG_INFINITY;
        let mut r_cost_min = f64::INFINITY;
        let mut r_ds_min = f64::INFINITY;
        let mut r_lo_min = f64::INFINITY;
        let mut r_hi_max = f64::NEG_INFINITY;
        let mut r_y_min = f64::INFINITY;
        let mut r_d_min = f64::INFINITY;
        if row_skip {
            for (r, ri) in right.iter().zip(&r_info) {
                r_cap_min = r_cap_min.min(r.scalars[CAP]);
                r_cap_max = r_cap_max.max(r.scalars[CAP]);
                r_cost_min = r_cost_min.min(r.scalars[COST]);
                r_ds_min = r_ds_min.min(r.scalars[DSINKS]);
                r_lo_min = r_lo_min.min(ri[0]);
                r_hi_max = r_hi_max.max(ri[1]);
                r_y_min = r_y_min.min(ri[2]);
                r_d_min = r_d_min.min(ri[3]);
            }
        }
        let mut champs: Vec<Champion> = Vec::new();
        // High-water mark for block pruning, checked per product (a
        // single left row can be tens of thousands of products wide).
        // Rearmed at survivors + BLOCK_LIMIT so every prune is amortized
        // over at least BLOCK_LIMIT fresh candidates even when the
        // survivor floor itself exceeds the block size.
        let mut next_prune = 2 * BLOCK_LIMIT;
        for (l, li) in left.iter().zip(&l_info) {
            if row_skip {
                // Whole-row cutoff 1: every product of this row has an
                // empty shifted domain. Counted exactly as the
                // per-product cutoff would have counted it.
                if li[1] - r_cap_min < 0.0
                    || r_hi_max - l.scalars[CAP] < 0.0
                    || li[0] - r_cap_max > b
                    || r_lo_min - l.scalars[CAP] > b
                {
                    self.stats.join.scalar_pruned += right.len() as u64;
                    continue;
                }
                // Whole-row champion dominance over the row's envelope
                // floors. `r_y_min = +∞` (all rights invalid) is handled
                // by the guard — the cross terms would otherwise mix
                // infinities into a NaN.
                if li[1] >= li[0] && r_y_min < f64::INFINITY {
                    let row_cost = l.scalars[COST] + r_cost_min;
                    let row_cap = l.scalars[CAP] + r_cap_min;
                    let row_ds = l.scalars[DSINKS].max(r_ds_min);
                    let row_dom_lo = (li[0] - r_cap_max)
                        .max(r_lo_min - l.scalars[CAP])
                        .max(0.0);
                    let row_dom_hi = (li[1] - r_cap_min)
                        .min(r_hi_max - l.scalars[CAP])
                        .min(b);
                    let row_y = li[2].max(r_y_min);
                    let row_d = li[3]
                        .max(r_d_min)
                        .max(li[2] + r_ds_min)
                        .max(r_y_min + l.scalars[DSINKS]);
                    if let Some(k) = champs.iter().position(|c| {
                        !c.parity
                            && c.cost <= row_cost + slack
                            && c.cap <= row_cap + slack
                            && c.d_sinks <= row_ds + slack
                            && c.dom_lo <= row_dom_lo + slack
                            && c.dom_hi >= row_dom_hi - slack
                            && c.y_hi <= row_y + slack
                            && c.d_hi <= row_d + slack
                    }) {
                        champs[..=k].rotate_right(1);
                        self.stats.join.materialized_avoided += right.len() as u64;
                        continue;
                    }
                }
            }
            for (r, ri) in right.iter().zip(&r_info) {
                if out.len() >= next_prune {
                    out = self.prune(out, Step::Join);
                    next_prune = out.len() + BLOCK_LIMIT;
                }
                // Inverting-repeater extension: every internal terminal
                // must agree on polarity at the junction.
                let mut parity = false;
                if inverting {
                    let l_has_terms = has_terminals(l);
                    let r_has_terms = has_terminals(r);
                    if l.payload.parity != r.payload.parity && l_has_terms && r_has_terms {
                        continue;
                    }
                    parity = if l_has_terms {
                        l.payload.parity
                    } else {
                        r.payload.parity
                    };
                }
                let cost = l.scalars[COST] + r.scalars[COST];
                let cap = l.scalars[CAP] + r.scalars[CAP];
                let d_sinks = l.scalars[DSINKS].max(r.scalars[DSINKS]);
                // Cutoff 1: bounding span of the product's shifted,
                // clamped validity domain.
                let dom_lo = (li[0] - r.scalars[CAP])
                    .max(ri[0] - l.scalars[CAP])
                    .max(0.0);
                let dom_hi = (li[1] - r.scalars[CAP])
                    .min(ri[1] - l.scalars[CAP])
                    .min(b);
                if dom_hi < dom_lo {
                    self.stats.join.scalar_pruned += 1;
                    continue;
                }
                // Cutoff 2: optimistic lower bounds on the product's
                // arrival and diameter anywhere in its domain. (The
                // +∞ floors of invalid sides cannot reach this point, so
                // the cross terms never mix infinities into a NaN.)
                let y_floor = li[2].max(ri[2]);
                let d_floor = li[3]
                    .max(ri[3])
                    .max(li[2] + r.scalars[DSINKS])
                    .max(ri[2] + l.scalars[DSINKS]);
                if let Some(k) = champs.iter().position(|c| {
                    c.parity == parity
                        && c.cost <= cost
                        && c.cap <= cap
                        && c.d_sinks <= d_sinks
                        && c.dom_lo <= dom_lo
                        && c.dom_hi >= dom_hi
                        && c.y_hi <= y_floor
                        && c.d_hi <= d_floor
                }) {
                    // Move-to-front: a champion that kills tends to kill
                    // again for neighbouring products.
                    champs[..=k].rotate_right(1);
                    self.stats.join.scalar_pruned += 1;
                    continue;
                }
                let yl = self.arena.shift_clamp(&l.pwls[ARR], r.scalars[CAP], 0.0, b);
                let yr = self.arena.shift_clamp(&r.pwls[ARR], l.scalars[CAP], 0.0, b);
                let dl = self.arena.shift_clamp(&l.pwls[DIA], r.scalars[CAP], 0.0, b);
                let dr = self.arena.shift_clamp(&r.pwls[DIA], l.scalars[CAP], 0.0, b);
                let arrival = self.arena.max(&yl, &yr);
                // Internal pairs: within either side, or crossing the
                // junction in both directions.
                let d0 = self.arena.max(&dl, &dr);
                let cross_l = self.arena.add_scalar(&yl, r.scalars[DSINKS]);
                let d1 = self.arena.max(&d0, &cross_l);
                let cross_r = self.arena.add_scalar(&yr, l.scalars[DSINKS]);
                let diameter = self.arena.max(&d1, &cross_r);
                for t in [yl, yr, dl, dr, d0, cross_l, d1, cross_r] {
                    self.arena.recycle(t);
                }
                let trace = self.push_trace(TraceNode::Join {
                    left: l.payload.trace,
                    right: r.payload.trace,
                });
                let cand = self.candidate(
                    Step::Join,
                    trace,
                    parity,
                    cost,
                    cap,
                    d_sinks,
                    arrival,
                    diameter,
                );
                // Single-span products feed the champion pool (split
                // domains cannot certify whole-domain coverage cheaply).
                let spans = cand.domain().spans();
                if let [span] = spans {
                    if champs.len() == CHAMPION_CAP {
                        champs.pop();
                    }
                    champs.insert(
                        0,
                        Champion {
                            parity,
                            cost,
                            cap,
                            d_sinks,
                            dom_lo: span.0,
                            dom_hi: span.1,
                            y_hi: cand.pwls[ARR].max_value().unwrap_or(f64::INFINITY),
                            d_hi: cand.pwls[DIA].max_value().unwrap_or(f64::INFINITY),
                        },
                    );
                }
                out.push(cand);
            }
        }
        // Both input sets are fully consumed at this point.
        for c in left.into_iter().chain(right) {
            for p in c.pwls {
                self.arena.recycle(p);
            }
        }
        out
    }

    /// Paper Fig. 8: at an insertion point, keep the unbuffered candidate
    /// and add one candidate per (repeater, orientation).
    ///
    /// A repeater decouples: the subtree below now sees exactly the
    /// repeater's child-side input capacitance, so `Y` and `D` are
    /// *evaluated* there — `D` becomes a constant and `Y` a fresh line
    /// whose slope is the upstream output resistance.
    ///
    /// Like [`Solver::join`], the buffered candidates are pruned
    /// incrementally in blocks: under multi-size libraries this step
    /// multiplies the incoming set by `1 + orientations·|library|`, and
    /// on asymmetric multi-cost regimes that product — not the join —
    /// is where the peak candidate set used to live.
    fn repeater_solutions(&mut self, set: Vec<Cand>, v: VertexId) -> Vec<Cand> {
        const REP_CHAMPION_CAP: usize = 24;
        let b = self.cap_bound;
        let mut out: Vec<Cand> = Vec::with_capacity(
            (set.len() * (1 + 2 * self.library.len())).min(2 * BLOCK_LIMIT + set.len()),
        );
        let mut next_prune = 2 * BLOCK_LIMIT;
        // Predictive pre-bounds (Li & Shi style): already-materialized
        // buffered candidates act as champions; prospective extensions
        // whose exact line endpoints they dominate are rejected *before*
        // any PWL is built or trace pushed, and whole per-candidate
        // fan-outs are skipped when the drive-strength envelope floors —
        // the best any remaining repeater could possibly achieve for
        // this candidate — are already dominated.
        let predictive = self.options.predictive && self.prebounds.combos() > 0;
        let slack = self.options.prebound_slack;
        let combos = self.prebounds.combos() as u64;
        let env_min_cost = self.prebounds.min_cost;
        let env_min_cap = self.prebounds.min_cap_parent;
        let env_min_down_int = self.prebounds.min_down_intrinsic;
        let env_min_down_res = self.prebounds.min_down_res;
        let env_min_up_int = self.prebounds.min_up_intrinsic;
        let env_min_up_res = self.prebounds.min_up_res;
        let env_uniform_inv = self.prebounds.uniform_inverting;
        let mut champs: Vec<RepChampion> = Vec::new();
        for cand in &set {
            if out.len() >= next_prune {
                out = self.prune(out, Step::Repeater);
                next_prune = out.len() + BLOCK_LIMIT;
            }
            if predictive {
                // Whole-fan-out skip. Sound only when every extension's
                // parity is known up front (uniform library inverting
                // flag). An empty-domain candidate fans out to nothing;
                // fall through so the combo loop's eval check keeps the
                // accounting identical to the non-predictive path.
                if let (Some(inv), Some(arr_min), Some(dia_min)) = (
                    env_uniform_inv,
                    cand.pwls[ARR].min_value(),
                    cand.pwls[DIA].min_value(),
                ) {
                    let parity = cand.payload.parity ^ inv;
                    let f_cost = cand.scalars[COST] + env_min_cost;
                    let f_ds =
                        env_min_down_int + env_min_down_res * cand.scalars[CAP] + cand.scalars[DSINKS];
                    let f_y0 = arr_min + env_min_up_int;
                    let f_yb = f_y0 + env_min_up_res * b;
                    if let Some(k) = champs.iter().position(|c| {
                        c.parity == parity
                            && c.cost <= f_cost + slack
                            && c.cap <= env_min_cap + slack
                            && c.d_sinks <= f_ds + slack
                            && c.y0 <= f_y0 + slack
                            && c.y_b <= f_yb + slack
                            && c.d <= dia_min + slack
                    }) {
                        champs[..=k].rotate_right(1);
                        self.stats.repeater.materialized_avoided += combos;
                        continue;
                    }
                }
            }
            for (ri, rep) in self.library.iter().enumerate() {
                let orientations: &[Orientation] = if rep.is_symmetric() {
                    &[Orientation::AFacesParent]
                } else {
                    &Orientation::BOTH
                };
                for &o in orientations {
                    let cc = rep.cap_facing_child(o);
                    let cp = rep.cap_facing_parent(o);
                    // The decoupled subtree sees c_E = cc exactly; a
                    // candidate pruned at that point is covered by
                    // another candidate, so skipping is safe.
                    let (Some(y_at), Some(d_at)) =
                        (cand.pwls[ARR].eval(cc), cand.pwls[DIA].eval(cc))
                    else {
                        continue;
                    };
                    let down = rep.downstream_drive(o);
                    let up = rep.upstream_drive(o);
                    let cost = cand.scalars[COST] + rep.cost;
                    let d_sinks = if cand.scalars[DSINKS] > f64::NEG_INFINITY {
                        down.intrinsic + down.out_res * cand.scalars[CAP] + cand.scalars[DSINKS]
                    } else {
                        f64::NEG_INFINITY
                    };
                    let parity = cand.payload.parity ^ rep.inverting;
                    // The extension's exact shape is known before it is
                    // built: a line from y0 to y_b over [0, B] plus a
                    // constant diameter (−∞ propagates through the
                    // endpoint arithmetic unchanged).
                    let e_y0 = y_at + up.intrinsic;
                    let e_yb = e_y0 + up.out_res * b;
                    if predictive {
                        if let Some(k) = champs.iter().position(|c| {
                            c.parity == parity
                                && c.cost <= cost + slack
                                && c.cap <= cp + slack
                                && c.d_sinks <= d_sinks + slack
                                && c.y0 <= e_y0 + slack
                                && c.y_b <= e_yb + slack
                                && c.d <= d_at + slack
                        }) {
                            champs[..=k].rotate_right(1);
                            self.stats.repeater.prebound_rejected += 1;
                            continue;
                        }
                    }
                    let arrival = if y_at > f64::NEG_INFINITY {
                        self.arena.linear(y_at + up.intrinsic, up.out_res, 0.0, b)
                    } else {
                        self.arena.neg_inf(0.0, b)
                    };
                    let diameter = self.arena.constant(d_at, 0.0, b);
                    let trace = self.push_trace(TraceNode::Repeater {
                        child: cand.payload.trace,
                        vertex: v,
                        repeater: ri,
                        orientation: o,
                    });
                    if predictive {
                        if champs.len() == REP_CHAMPION_CAP {
                            champs.pop();
                        }
                        champs.insert(
                            0,
                            RepChampion {
                                parity,
                                cost,
                                cap: cp,
                                d_sinks,
                                y0: e_y0,
                                y_b: e_yb,
                                d: d_at,
                            },
                        );
                    }
                    out.push(self.candidate(
                        Step::Repeater,
                        trace,
                        parity,
                        cost,
                        cp,
                        d_sinks,
                        arrival,
                        diameter,
                    ));
                }
            }
        }
        // Merging the unbuffered passthroughs can stack a full block on
        // top of the buffered survivors; pre-prune so the caller's final
        // prune stays within the same peak bound as the blocks above.
        if out.len() + set.len() > 2 * BLOCK_LIMIT {
            out = self.prune(out, Step::Repeater);
        }
        out.extend(set);
        out
    }

    /// Paper Fig. 9: close the recursion at the root terminal, producing
    /// (cost, ARD) evaluations.
    fn root_solutions(&mut self, set: Vec<Cand>, root: TerminalId) -> Vec<RootEval> {
        let term = *self.net.terminal(root);
        let menu: Vec<_> = self.term_opts.for_terminal(root).to_vec();
        let mut out = Vec::with_capacity(set.len() * menu.len());
        for cand in &set {
            // Inverting-repeater extension: end-to-end polarity must be
            // preserved between the root and internal terminals.
            if cand.payload.parity && has_terminals(cand) {
                continue;
            }
            for (oi, o) in menu.iter().enumerate() {
                let (Some(d_int), Some(y)) = (
                    cand.pwls[DIA].eval(o.cap),
                    cand.pwls[ARR].eval(o.cap),
                ) else {
                    continue;
                };
                let mut ard = d_int;
                if term.is_sink() && y > f64::NEG_INFINITY {
                    ard = ard.max(y + term.downstream + o.downstream_extra);
                }
                if term.is_source() && cand.scalars[DSINKS] > f64::NEG_INFINITY {
                    ard = ard.max(
                        term.arrival
                            + o.arrival_extra
                            + o.drive_res * (o.cap + cand.scalars[CAP])
                            + cand.scalars[DSINKS],
                    );
                }
                out.push(RootEval {
                    cost: cand.scalars[COST] + o.cost,
                    ard,
                    trace: cand.payload.trace,
                    root_option: oi,
                });
            }
        }
        out
    }

    fn finish(&mut self, mut evals: Vec<RootEval>, root: TerminalId) -> Result<TradeoffCurve, MsriError> {
        evals.retain(|e| e.ard > f64::NEG_INFINITY);
        if evals.is_empty() {
            return Err(MsriError::NoFeasiblePair);
        }
        // Pareto sweep: ascending cost, strictly improving ARD.
        evals.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| a.ard.total_cmp(&b.ard))
        });
        let mut frontier: Vec<RootEval> = Vec::new();
        for e in evals {
            match frontier.last() {
                Some(last) if e.ard >= last.ard - 1e-12 => {}
                _ => frontier.push(e),
            }
        }
        let points = frontier
            .into_iter()
            .map(|e| {
                let (assignment, terminal_choices, wire_choices) =
                    self.materialize(e.trace, e.root_option, root);
                TradeoffPoint {
                    cost: e.cost,
                    ard: e.ard,
                    assignment,
                    terminal_choices,
                    wire_choices,
                }
            })
            .collect();
        Ok(TradeoffCurve::new(points, self.stats))
    }

    /// Reconstructs the concrete assignment and driver choices of a
    /// surviving candidate by walking its trace.
    fn materialize(
        &self,
        trace: u32,
        root_option: usize,
        root: TerminalId,
    ) -> (Assignment, Vec<usize>, Vec<usize>) {
        let mut assignment = Assignment::empty(self.net.topology.vertex_count());
        let mut choices = vec![0usize; self.net.terminals.len()];
        let mut wires = vec![0usize; self.net.topology.edge_count()];
        choices[root.0] = root_option;
        let mut stack = vec![trace];
        while let Some(id) = stack.pop() {
            match self.trace[id as usize] {
                TraceNode::Leaf { terminal, option } => choices[terminal.0] = option,
                TraceNode::Join { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
                TraceNode::Repeater {
                    child,
                    vertex,
                    repeater,
                    orientation,
                } => {
                    assignment.place(vertex, repeater, orientation);
                    stack.push(child);
                }
                TraceNode::Wire { child, edge, option } => {
                    wires[edge.0] = option;
                    stack.push(child);
                }
                TraceNode::Empty => {}
            }
        }
        (assignment, choices, wires)
    }

    /// Minimal-functional-subset pruning between DP steps.
    fn prune(&mut self, mut set: Vec<Cand>, step: Step) -> Vec<Cand> {
        self.stats.prunes += 1;
        let before = set.len();
        {
            let st = self.stats.step_mut(step);
            st.peak_set = st.peak_set.max(before);
        }
        // Cheap locality: similar costs/caps cluster, which lets the
        // divide-and-conquer kill candidates deep in the recursion
        // (paper §V organizational note).
        set.sort_by(|a, b| {
            a.scalars[COST]
                .total_cmp(&b.scalars[COST])
                .then_with(|| a.scalars[CAP].total_cmp(&b.scalars[CAP]))
        });
        // Inverting-repeater extension: candidates of different parity
        // are incomparable; prune within each class.
        let kept = if self.options.allow_inverting {
            let (even, odd): (Vec<Cand>, Vec<Cand>) =
                set.into_iter().partition(|c| !c.payload.parity);
            let mut kept = self.prune_class(even);
            kept.extend(self.prune_class(odd));
            kept
        } else {
            self.prune_class(set)
        };
        self.stats.step_mut(step).pwl_pruned += (before - kept.len()) as u64;
        self.stats.surviving += kept.len() as u64;
        self.stats.max_set_size = self.stats.max_set_size.max(kept.len());
        kept
    }

    /// Dispatches one parity class to the configured MFS.
    fn prune_class(&self, set: Vec<Cand>) -> Vec<Cand> {
        match self.options.pruning {
            PruningStrategy::DivideConquer => mfs_divide_conquer(set, MFS_LEAF_THRESHOLD),
            PruningStrategy::Naive => mfs_naive(set),
        }
    }
}

/// Whether a candidate's subtree contains at least one terminal (its
/// arrival or sink-delay characteristic is not identically `-∞`).
fn has_terminals(c: &Cand) -> bool {
    c.scalars[DSINKS] > f64::NEG_INFINITY
        || c.pwls[ARR].max_value().is_some_and(|v| v > f64::NEG_INFINITY)
}

#[derive(Clone, Copy, Debug)]
struct RootEval {
    cost: f64,
    ard: f64,
    trace: u32,
    root_option: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_geom::Point;
    use msrnet_rctree::{Buffer, NetBuilder, Technology, Terminal};

    /// A fixture exposing the private DP steps on a small concrete net:
    /// t0 —(len 2)— ip —(len 2)— s —(len 2)— t1, plus s —(len 2)— t2,
    /// with unit wire parasitics so every wire has R = 2, C = 2.
    struct Fix {
        net: Net,
        rooted: Rooted,
        library: Vec<Repeater>,
        term_opts: TerminalOptions,
        wire_options: Vec<WireOption>,
        options: MsriOptions,
        ip: VertexId,
        t1_v: VertexId,
        workspace: MsriWorkspace,
        trace: Vec<TraceNode>,
    }

    impl Fix {
        fn new() -> Self {
            let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
            let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 1.0, 3.0));
            let ip = b.insertion_point(Point::new(2.0, 0.0));
            let s = b.steiner(Point::new(4.0, 0.0));
            let t1 = b.terminal(Point::new(6.0, 0.0), Terminal::bidirectional(5.0, 7.0, 1.0, 3.0));
            let t2 = b.terminal(Point::new(4.0, 2.0), Terminal::sink_only(11.0, 1.0));
            b.wire(t0, ip);
            b.wire(ip, s);
            b.wire(s, t1);
            b.wire(s, t2);
            let net = b.build().unwrap();
            let rooted = net.rooted_at_terminal(TerminalId(0));
            let buf = Buffer::new("1X", 10.0, 4.0, 0.5, 1.0);
            let library = vec![Repeater::from_buffer_pair("rep", &buf, &buf)];
            let term_opts = TerminalOptions::defaults(&net);
            Fix {
                t1_v: net.topology.terminal_vertex(TerminalId(1)),
                net,
                rooted,
                library,
                term_opts,
                wire_options: vec![WireOption::unit()],
                options: MsriOptions::default(),
                ip,
                workspace: MsriWorkspace::new(),
                trace: Vec::new(),
            }
        }

        fn solver(&mut self) -> Solver<'_> {
            Solver {
                net: &self.net,
                rooted: &self.rooted,
                library: &self.library,
                term_opts: &self.term_opts,
                wire_options: &self.wire_options,
                options: &self.options,
                trace: &mut self.trace,
                cap_bound: cap_bound(&self.net, &self.library, &self.term_opts, &self.wire_options),
                stats: MsriStats::default(),
                arena: &mut self.workspace.arena,
                prebounds: LibPrebounds::new(&self.library),
            }
        }
    }

    #[test]
    fn leaf_solutions_encode_fig6() {
        let mut fix = Fix::new();
        let mut s = fix.solver();
        // t1: bidirectional, AT = 5, q = 7, cap 1, drive 3 Ω.
        let set = s.leaf_solutions(TerminalId(1));
        assert_eq!(set.len(), 1);
        let c = &set[0];
        assert_eq!(c.scalars[COST], 0.0);
        assert_eq!(c.scalars[CAP], 1.0);
        assert_eq!(c.scalars[DSINKS], 7.0);
        // Y(c_E) = AT + r·(own cap + c_E) = 5 + 3·1 + 3·c_E.
        assert_eq!(c.pwls[ARR].eval(0.0), Some(8.0));
        assert_eq!(c.pwls[ARR].eval(2.0), Some(14.0));
        // No internal pairs yet.
        assert_eq!(c.pwls[DIA].eval(1.0), Some(f64::NEG_INFINITY));

        // t2: sink-only — arrival is -∞, d_sinks is its q.
        let set = s.leaf_solutions(TerminalId(2));
        let c = &set[0];
        assert_eq!(c.scalars[DSINKS], 11.0);
        assert_eq!(c.pwls[ARR].eval(0.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn augment_applies_fig10_formulas() {
        let mut fix = Fix::new();
        let t1_v = fix.t1_v;
        let mut s = fix.solver();
        let set = s.leaf_solutions(TerminalId(1));
        // t1's parent wire has length 2: R = 2, C = 2.
        let out = s.augment(set, t1_v);
        assert_eq!(out.len(), 1);
        let c = &out[0];
        assert_eq!(c.scalars[CAP], 3.0); // 1 + 2
        // d' = R(C/2 + cap) + q = 2(1 + 1) + 7 = 11.
        assert_eq!(c.scalars[DSINKS], 11.0);
        // Y'(x) = Y(x + 2) + 2(1 + x) = [5 + 3(1 + x + 2)] + 2 + 2x
        //       = 16 + 5x.
        assert_eq!(c.pwls[ARR].eval(0.0), Some(16.0));
        assert_eq!(c.pwls[ARR].eval(1.0), Some(21.0));
    }

    #[test]
    fn join_applies_fig7_formulas() {
        let mut fix = Fix::new();
        let mut s = fix.solver();
        // Hand-crafted siblings at a junction.
        let t_left = s.push_trace(TraceNode::Empty);
        let t_right = s.push_trace(TraceNode::Empty);
        let b = s.cap_bound;
        let left = s.candidate(
            Step::Leaf, t_left, false, 1.0, 2.0, 10.0,
            Pwl::linear(4.0, 1.0, 0.0, b), // Y_l = 4 + x
            Pwl::neg_inf(0.0, b),
        );
        let right = s.candidate(
            Step::Leaf, t_right, false, 2.0, 3.0, 20.0,
            Pwl::linear(30.0, 2.0, 0.0, b), // Y_r = 30 + 2x
            Pwl::neg_inf(0.0, b),
        );
        let joined = s.join(vec![left], vec![right]);
        assert_eq!(joined.len(), 1);
        let c = &joined[0];
        assert_eq!(c.scalars[COST], 3.0);
        assert_eq!(c.scalars[CAP], 5.0);
        assert_eq!(c.scalars[DSINKS], 20.0);
        // Y(x) = max(Y_l(x + 3), Y_r(x + 2)) = max(7 + x, 34 + 2x) = 34 + 2x.
        assert_eq!(c.pwls[ARR].eval(0.0), Some(34.0));
        // D(x) = max(D_l, D_r, Y_l(x+3) + 20, Y_r(x+2) + 10)
        //      = max(27 + x, 44 + 2x) = 44 + 2x.
        assert_eq!(c.pwls[DIA].eval(0.0), Some(44.0));
        assert_eq!(c.pwls[DIA].eval(1.0), Some(46.0));
    }

    #[test]
    fn repeater_solutions_decouple_per_fig8() {
        let mut fix = Fix::new();
        let ip = fix.ip;
        let mut s = fix.solver();
        let t = s.push_trace(TraceNode::Empty);
        let b = s.cap_bound;
        let cand = s.candidate(
            Step::Leaf, t, false, 0.0, 4.0, 9.0,
            Pwl::linear(6.0, 2.0, 0.0, b),  // Y(x) = 6 + 2x
            Pwl::linear(12.0, 1.0, 0.0, b), // D(x) = 12 + x
        );
        let out = s.repeater_solutions(vec![cand], ip);
        // One unbuffered passthrough + one buffered (symmetric repeater,
        // single orientation).
        assert_eq!(out.len(), 2);
        let buffered = out
            .iter()
            .find(|c| c.scalars[COST] > 0.0)
            .expect("buffered candidate present");
        // Repeater: intrinsic 10, out res 4, side cap 0.5, cost 2.
        assert_eq!(buffered.scalars[COST], 2.0);
        assert_eq!(buffered.scalars[CAP], 0.5);
        // d' = 10 + 4·4 + 9 = 35.
        assert_eq!(buffered.scalars[DSINKS], 35.0);
        // Y' = Y(0.5) + 10 + 4x = 7 + 10 + 4x = 17 + 4x.
        assert_eq!(buffered.pwls[ARR].eval(0.0), Some(17.0));
        assert_eq!(buffered.pwls[ARR].eval(1.0), Some(21.0));
        // D' = D(0.5) = 12.5, constant — "completely determined".
        assert_eq!(buffered.pwls[DIA].eval(0.0), Some(12.5));
        assert_eq!(buffered.pwls[DIA].eval(3.0), Some(12.5));
    }

    #[test]
    fn repeater_solutions_skip_pruned_evaluation_points() {
        let mut fix = Fix::new();
        let ip = fix.ip;
        let mut s = fix.solver();
        let t = s.push_trace(TraceNode::Empty);
        let b = s.cap_bound;
        // Candidate valid only for c_E ≥ 1, but the repeater's child-side
        // cap is 0.5: the buffered version must be skipped.
        let cand = s.candidate(
            Step::Leaf, t, false, 0.0, 4.0, 9.0,
            Pwl::linear(6.0, 2.0, 1.0, b),
            Pwl::linear(12.0, 1.0, 1.0, b),
        );
        let out = s.repeater_solutions(vec![cand], ip);
        assert_eq!(out.len(), 1, "only the passthrough survives");
        assert_eq!(out[0].scalars[COST], 0.0);
    }

    /// Bit-level frontier equality: point count, cost/ARD bit patterns,
    /// and the full materialized configuration of every point.
    fn curves_bit_eq(a: &TradeoffCurve, b: &TradeoffCurve) -> bool {
        a.points().len() == b.points().len()
            && a.points().iter().zip(b.points()).all(|(p, q)| {
                p.cost.to_bits() == q.cost.to_bits()
                    && p.ard.to_bits() == q.ard.to_bits()
                    && p.assignment == q.assignment
                    && p.terminal_choices == q.terminal_choices
                    && p.wire_choices == q.wire_choices
            })
    }

    #[test]
    fn incremental_cold_cache_matches_optimize_bit_for_bit() {
        let fix = Fix::new();
        let n = fix.net.topology.vertex_count();
        let bound =
            required_cap_bound(&fix.net, &fix.library, &fix.term_opts, &fix.wire_options);
        let mut ws = MsriWorkspace::new();
        let mut cache = DpCache::new();
        let (inc, stats) = optimize_incremental(
            &fix.net,
            TerminalId(0),
            &fix.library,
            &fix.term_opts,
            &fix.wire_options,
            &fix.options,
            bound,
            &vec![true; n],
            &mut cache,
            &mut ws,
        )
        .unwrap();
        assert_eq!(stats.nodes_visited, n - 1);
        assert_eq!(stats.nodes_recomputed, n - 1);
        assert_eq!(stats.nodes_reused, 0);
        assert_eq!(cache.cached_subtrees(), n - 1);

        let plain = optimize_with_wires_in(
            &fix.net,
            TerminalId(0),
            &fix.library,
            &fix.term_opts,
            &fix.wire_options,
            &fix.options,
            &mut MsriWorkspace::new(),
        )
        .unwrap();
        assert!(curves_bit_eq(&inc, &plain), "cold incremental ≡ optimize");

        // Warm cache, nothing dirty: every node is reused, same answer.
        let (warm, stats) = optimize_incremental(
            &fix.net,
            TerminalId(0),
            &fix.library,
            &fix.term_opts,
            &fix.wire_options,
            &fix.options,
            bound,
            &vec![false; n],
            &mut cache,
            &mut ws,
        )
        .unwrap();
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(stats.nodes_reused, n - 1);
        assert!(curves_bit_eq(&warm, &plain), "warm reuse ≡ optimize");
    }

    #[test]
    fn incremental_dirty_path_recomputes_only_the_path() {
        let fix = Fix::new();
        let n = fix.net.topology.vertex_count();
        let bound =
            required_cap_bound(&fix.net, &fix.library, &fix.term_opts, &fix.wire_options);
        let mut ws = MsriWorkspace::new();
        let mut cache = DpCache::new();
        let run = |net: &Net, dirty: &[bool], cache: &mut DpCache, ws: &mut MsriWorkspace| {
            optimize_incremental(
                net,
                TerminalId(0),
                &fix.library,
                &fix.term_opts,
                &fix.wire_options,
                &fix.options,
                bound,
                dirty,
                cache,
                ws,
            )
            .unwrap()
        };
        run(&fix.net, &vec![true; n], &mut cache, &mut ws);

        // Edit t1's arrival and dirty exactly its root path
        // (t1 → steiner → insertion point; the root itself never caches).
        let mut net2 = fix.net.clone();
        net2.terminals[1].arrival = 42.0;
        let mut dirty = vec![false; n];
        let mut v = Some(fix.t1_v);
        while let Some(u) = v {
            dirty[u.0] = true;
            v = fix.rooted.parent(u);
        }
        let (inc, stats) = run(&net2, &dirty, &mut cache, &mut ws);
        assert_eq!(stats.nodes_recomputed, 3, "t1, steiner, ip only");
        assert_eq!(stats.nodes_reused, n - 1 - 3);

        // Oracle: from-scratch with an empty cache under the same bound.
        let (scratch, _) = run(&net2, &vec![true; n], &mut DpCache::new(), &mut ws);
        assert!(curves_bit_eq(&inc, &scratch), "dirty-path ≡ from-scratch");
    }

    #[test]
    fn required_cap_bound_matches_internal_bound() {
        let fix = Fix::new();
        assert_eq!(
            required_cap_bound(&fix.net, &fix.library, &fix.term_opts, &fix.wire_options),
            cap_bound(&fix.net, &fix.library, &fix.term_opts, &fix.wire_options),
        );
    }

    #[test]
    fn cap_bound_reserves_decoupling_headroom() {
        let fix = Fix::new();
        let b = cap_bound(&fix.net, &fix.library, &fix.term_opts, &fix.wire_options);
        // Whole-net cap: wires 8 + terminals 3 = 11; repeater side 0.5.
        assert!(b >= 11.0 + 0.5);
        // Wire sizing raises the bound with the largest cap scale.
        let wide = vec![WireOption::unit(), WireOption::width("3W", 3.0, 0.0)];
        let b3 = cap_bound(&fix.net, &fix.library, &fix.term_opts, &wide);
        assert!(b3 >= 24.0 + 3.0 + 0.5);
    }

    /// A multi-size, multi-cost library (including an asymmetric pair, so
    /// both orientations are enumerated) where the candidate explosion is
    /// big enough for predictive pruning to have work to do.
    fn rich_library() -> Vec<Repeater> {
        let small = Buffer::new("1X", 12.0, 6.0, 0.4, 1.0);
        let mid = Buffer::new("2X", 10.0, 3.0, 0.7, 2.0);
        let big = Buffer::new("4X", 8.0, 1.5, 1.2, 4.0);
        vec![
            Repeater::from_buffer_pair("r1", &small, &small),
            Repeater::from_buffer_pair("r2", &mid, &mid),
            Repeater::from_buffer_pair("r4", &big, &big),
            Repeater::from_buffer_pair("rasym", &mid, &small),
        ]
    }

    /// A deeper net than [`Fix`]'s: a chain of three insertion points
    /// before the branch, so candidate sets actually grow step over step
    /// and pre-bounds have something to reject.
    fn chain_net() -> Net {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 1.0, 3.0));
        let ip1 = b.insertion_point(Point::new(2.0, 0.0));
        let ip2 = b.insertion_point(Point::new(4.0, 0.0));
        let ip3 = b.insertion_point(Point::new(6.0, 0.0));
        let s = b.steiner(Point::new(8.0, 0.0));
        let t1 = b.terminal(Point::new(10.0, 0.0), Terminal::bidirectional(5.0, 7.0, 1.0, 3.0));
        let t2 = b.terminal(Point::new(8.0, 2.0), Terminal::sink_only(11.0, 1.0));
        b.wire(t0, ip1);
        b.wire(ip1, ip2);
        b.wire(ip2, ip3);
        b.wire(ip3, s);
        b.wire(s, t1);
        b.wire(s, t2);
        b.build().unwrap()
    }

    fn run_net(net: &Net, library: &[Repeater], options: &MsriOptions) -> TradeoffCurve {
        let term_opts = TerminalOptions::defaults(net);
        optimize_with_wires_in(
            net,
            TerminalId(0),
            library,
            &term_opts,
            &[WireOption::unit()],
            options,
            &mut MsriWorkspace::new(),
        )
        .unwrap()
    }

    #[test]
    fn predictive_pruning_is_bit_identical_under_every_exact_strategy() {
        let net = chain_net();
        let library = rich_library();
        let strategies = [
            PruningStrategy::DivideConquer,
            PruningStrategy::Naive,
        ];
        let mut any_rejected = false;
        for strat in strategies {
            let on = MsriOptions {
                pruning: strat,
                predictive: true,
                ..MsriOptions::default()
            };
            let off = MsriOptions {
                predictive: false,
                ..on
            };
            let c_on = run_net(&net, &library, &on);
            let c_off = run_net(&net, &library, &off);
            assert!(
                curves_bit_eq(&c_on, &c_off),
                "predictive pruning changed the frontier under {strat:?}"
            );
            let s_on = c_on.stats();
            let s_off = c_off.stats();
            assert_eq!(s_off.repeater.prebound_rejected, 0);
            assert_eq!(s_off.repeater.materialized_avoided, 0);
            assert_eq!(s_off.join.materialized_avoided, 0);
            any_rejected |= s_on.repeater.prebound_rejected > 0
                || s_on.repeater.materialized_avoided > 0
                || s_on.join.materialized_avoided > 0;
            assert!(
                s_on.generated <= s_off.generated,
                "predictive must never materialize more candidates"
            );
        }
        assert!(any_rejected, "pre-bounds never fired on the rich library");
    }

    #[test]
    fn prebound_slack_drill_knob_is_observable() {
        // The injected-bug drill: a loosened pre-bound rejects candidates
        // that survive exact MFS, which must be observable as a smaller
        // materialized count (and, here, a worse frontier).
        let net = chain_net();
        let library = rich_library();
        let sound = run_net(&net, &library, &MsriOptions::default());
        let opts = MsriOptions {
            prebound_slack: 1e12,
            ..MsriOptions::default()
        };
        let broken = run_net(&net, &library, &opts);
        assert!(
            broken.stats().generated < sound.stats().generated,
            "a huge slack must reject candidates pre-materialization"
        );
        assert!(
            !curves_bit_eq(&sound, &broken),
            "the drill knob must corrupt the frontier so verify can catch it"
        );
    }

    #[test]
    fn lib_prebounds_cover_the_generation_envelope() {
        let library = rich_library();
        let pb = LibPrebounds::new(&library);
        // 3 symmetric repeaters contribute 1 combo each, the asymmetric
        // one contributes both orientations.
        assert_eq!(pb.combos(), 5);
        assert_eq!(pb.drive_order.len(), 5);
        assert_eq!(pb.uniform_inverting, Some(false));
        // Envelope minima match the cheapest/strongest entries.
        assert_eq!(pb.min_cost, 2.0); // r1 = two 1X buffers
        assert_eq!(pb.min_cap_parent, 0.4);
        assert_eq!(pb.min_down_res, 1.5);
        assert_eq!(pb.min_up_res, 1.5);
        // Strongest drive (lowest upstream out_res) sorts first.
        let (ri, o) = pb.drive_order[0];
        assert_eq!(library[ri].upstream_drive(o).out_res, 1.5);
        // Mixed inverting flags disable the uniform fan-out skip.
        let mut mixed = rich_library();
        mixed.push(
            Repeater::from_buffer_pair("inv", &Buffer::new("i", 9.0, 2.0, 0.5, 1.5), &Buffer::new("i", 9.0, 2.0, 0.5, 1.5))
                .inverting(),
        );
        assert_eq!(LibPrebounds::new(&mixed).uniform_inverting, None);
    }

    #[test]
    fn inverting_repeaters_stay_bit_identical_under_predictive() {
        let mut library = rich_library();
        library.push(
            Repeater::from_buffer_pair(
                "inv",
                &Buffer::new("i", 9.0, 2.0, 0.5, 1.5),
                &Buffer::new("i", 9.0, 2.0, 0.5, 1.5),
            )
            .inverting(),
        );
        let on = MsriOptions {
            allow_inverting: true,
            predictive: true,
            ..MsriOptions::default()
        };
        let off = MsriOptions {
            predictive: false,
            ..on
        };
        let net = chain_net();
        let c_on = run_net(&net, &library, &on);
        let c_off = run_net(&net, &library, &off);
        assert!(curves_bit_eq(&c_on, &c_off), "inverting + predictive diverged");
    }
}
