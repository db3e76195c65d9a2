//! Configuration of the repeater-insertion optimizer: per-terminal driver
//! options (which subsume discrete driver sizing, paper §V) and pruning
//! strategy knobs.

use std::fmt;

use msrnet_rctree::{BuildNetError, Net, Terminal, TerminalId};

/// One way of implementing a terminal's driver/receiver pair.
///
/// The paper's driver-sizing experiment (§VI) builds terminal drivers
/// from sized buffer pairs: the input buffer's size trades its own input
/// capacitance (loading the previous logic stage) against bus drive
/// strength; the output buffer's size trades bus load against the delay
/// of driving the next stage. A `TerminalOption` captures the net effect:
///
/// * `arrival_extra` — added to `AT` (previous-stage resistance × driver
///   input capacitance, plus the driver's intrinsic delay);
/// * `drive_res` — output resistance seen by the bus when sourcing;
/// * `cap` — capacitance presented to the bus (receiver input);
/// * `downstream_extra` — added to `q` (receiver intrinsic plus its
///   resistance × next-stage capacitance);
/// * `cost` — in equivalent 1X buffers.
///
/// Plain repeater insertion uses a single default option per terminal
/// ([`TerminalOptions::defaults`]); driver sizing enumerates several.
#[derive(Clone, Debug, PartialEq)]
pub struct TerminalOption {
    /// Human-readable label (e.g. `"2X/3X"`).
    pub name: String,
    /// Cost in equivalent 1X buffers.
    pub cost: f64,
    /// Delay added to the terminal's arrival time, ps.
    pub arrival_extra: f64,
    /// Output resistance when sourcing, Ω.
    pub drive_res: f64,
    /// Capacitance presented to the bus, pF.
    pub cap: f64,
    /// Delay added to the terminal's downstream delay, ps.
    pub downstream_extra: f64,
}

impl TerminalOption {
    /// The identity option: exactly the electrical values already on the
    /// [`Terminal`], at the given cost.
    pub fn from_terminal(term: &Terminal, cost: f64) -> Self {
        TerminalOption {
            name: "default".to_owned(),
            cost,
            arrival_extra: term.drive_intrinsic,
            drive_res: term.drive_res,
            cap: term.cap,
            downstream_extra: 0.0,
        }
    }
}

impl fmt::Display for TerminalOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (cost={})", self.name, self.cost)
    }
}

/// The per-terminal driver menus the optimizer chooses from.
///
/// # Examples
///
/// ```
/// use msrnet_geom::Point;
/// use msrnet_core::TerminalOptions;
/// use msrnet_rctree::{NetBuilder, Technology, Terminal};
///
/// let mut b = NetBuilder::new(Technology::new(0.03, 0.00035));
/// let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// let t1 = b.terminal(Point::new(100.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
/// b.wire(t0, t1);
/// let net = b.build()?;
/// let opts = TerminalOptions::defaults_with_cost(&net, 2.0);
/// assert_eq!(opts.for_terminal(msrnet_rctree::TerminalId(0)).len(), 1);
/// # Ok::<(), msrnet_rctree::BuildNetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TerminalOptions {
    menus: Vec<Vec<TerminalOption>>,
}

impl TerminalOptions {
    /// One zero-cost identity option per terminal.
    pub fn defaults(net: &Net) -> Self {
        TerminalOptions::defaults_with_cost(net, 0.0)
    }

    /// One identity option per terminal at a fixed cost (used when driver
    /// area should be counted, e.g. paper Table II normalizes against a
    /// min-cost solution whose 1X drivers are not free).
    pub fn defaults_with_cost(net: &Net, cost: f64) -> Self {
        TerminalOptions {
            menus: net
                .terminals
                .iter()
                .map(|t| vec![TerminalOption::from_terminal(t, cost)])
                .collect(),
        }
    }

    /// Explicit menus, indexed by [`TerminalId`].
    pub fn new(menus: Vec<Vec<TerminalOption>>) -> Self {
        TerminalOptions { menus }
    }

    /// The menu for terminal `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn for_terminal(&self, t: TerminalId) -> &[TerminalOption] {
        &self.menus[t.0]
    }

    /// Replaces the menu for terminal `t`.
    pub fn set(&mut self, t: TerminalId, menu: Vec<TerminalOption>) {
        self.menus[t.0] = menu;
    }

    /// Appends the menu for a newly added terminal (whose id is the
    /// previous [`TerminalOptions::len`]), mirroring
    /// `Net::add_terminal`'s append-only id assignment.
    pub fn push(&mut self, menu: Vec<TerminalOption>) {
        self.menus.push(menu);
    }

    /// Removes terminal `t`'s menu by `swap_remove`, mirroring the id
    /// compaction of `Net::remove_terminal` (the last terminal's menu
    /// takes slot `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn swap_remove(&mut self, t: TerminalId) {
        self.menus.swap_remove(t.0);
    }

    /// Number of terminals covered.
    pub fn len(&self) -> usize {
        self.menus.len()
    }

    /// Whether no terminal is covered.
    pub fn is_empty(&self) -> bool {
        self.menus.is_empty()
    }

    /// The largest bus capacitance any option presents (used to bound PWL
    /// domains).
    pub fn max_cap(&self) -> f64 {
        self.menus
            .iter()
            .flatten()
            .map(|o| o.cap)
            .fold(0.0, f64::max)
    }
}

/// A discrete wire-width choice for simultaneous wire sizing
/// (paper §VII names wire sizing as solvable by the same techniques; this
/// follows the discrete formulation of Lillis et al. JSSC'96).
///
/// A wire of width `w` (relative to the technology's unit wire) has
/// `res_scale = 1/w`, `cap_scale ≈ w` (area capacitance; fold fringe into
/// the scale if needed) and costs `cost_per_um · length` — area cost in
/// the same 1X-buffer-equivalent currency as repeaters.
///
/// # Examples
///
/// ```
/// use msrnet_core::WireOption;
///
/// let unit = WireOption::unit();
/// assert_eq!(unit.res_scale, 1.0);
/// let double = WireOption::width("2W", 2.0, 0.0005);
/// assert_eq!(double.res_scale, 0.5);
/// assert_eq!(double.cap_scale, 2.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WireOption {
    /// Human-readable label (e.g. `"2W"`).
    pub name: String,
    /// Multiplier on the unit wire resistance.
    pub res_scale: f64,
    /// Multiplier on the unit wire capacitance.
    pub cap_scale: f64,
    /// Cost per µm of wire at this width.
    pub cost_per_um: f64,
}

impl WireOption {
    /// The unit-width wire at zero cost — the implicit choice when wire
    /// sizing is not requested.
    pub fn unit() -> Self {
        WireOption {
            name: "1W".to_owned(),
            res_scale: 1.0,
            cap_scale: 1.0,
            cost_per_um: 0.0,
        }
    }

    /// A wire of `width` × unit width: resistance divides by the width,
    /// capacitance multiplies by it.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn width(name: &str, width: f64, cost_per_um: f64) -> Self {
        assert!(width.is_finite() && width > 0.0, "width must be positive");
        WireOption {
            name: name.to_owned(),
            res_scale: 1.0 / width,
            cap_scale: width,
            cost_per_um,
        }
    }
}

impl Default for WireOption {
    fn default() -> Self {
        WireOption::unit()
    }
}

/// How the solution sets are pruned between dynamic-programming steps.
///
/// Both strategies are exact and produce bit-identical trade-off curves;
/// `Naive` is the reference the default is checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruningStrategy {
    /// The paper's divide-and-conquer MFS (Fig. 4) — the default.
    #[default]
    DivideConquer,
    /// Naive pairwise MFS (`O(n²)` comparisons, same result).
    Naive,
}

impl PruningStrategy {
    /// Parses the canonical spelling used by every entry point (CLI
    /// flags, batch job specs, the service protocol): `divide-conquer`
    /// or `naive`.
    ///
    /// This is the single parser all surfaces share, so a strategy
    /// round-trips unchanged through [`fmt::Display`] regardless of
    /// which layer carried it.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "divide-conquer" => Ok(PruningStrategy::DivideConquer),
            "naive" => Ok(PruningStrategy::Naive),
            _ => Err(format!(
                "unknown pruning strategy '{s}' (expected divide-conquer or naive)"
            )),
        }
    }
}

impl fmt::Display for PruningStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruningStrategy::DivideConquer => write!(f, "divide-conquer"),
            PruningStrategy::Naive => write!(f, "naive"),
        }
    }
}

/// Optimizer knobs.
#[derive(Clone, Copy, Debug)]
pub struct MsriOptions {
    /// Pruning strategy between DP steps.
    pub pruning: PruningStrategy,
    /// Allow signal-inverting repeaters (paper §V extension). When any
    /// library repeater is marked inverting, candidates track signal
    /// parity and the root enforces non-inverted end-to-end polarity.
    pub allow_inverting: bool,
    /// Predictive pruning (Li & Shi style): reject candidates *before*
    /// the join product and repeater extension steps materialize them,
    /// using drive-strength-ordered library pre-bounds. Exact — rejected
    /// candidates are whole-domain-dominated by already-materialized
    /// ones, so every exact strategy's frontier is bit-identical with
    /// this on or off. Default on; the off switch exists for the
    /// soundness property tests and the ablation bench.
    pub predictive: bool,
    /// Additive slack subtracted from every predictive pre-bound
    /// comparison. **Must be 0.0 for sound results.** A positive value
    /// deliberately loosens the bounds into unsoundness; it exists only
    /// so the verify harness's injected-bug drill can prove it catches
    /// a broken bound term. Hidden from the public surface.
    #[doc(hidden)]
    pub prebound_slack: f64,
}

impl Default for MsriOptions {
    fn default() -> Self {
        MsriOptions {
            pruning: PruningStrategy::DivideConquer,
            allow_inverting: false,
            predictive: true,
            prebound_slack: 0.0,
        }
    }
}

/// Errors from the repeater-insertion optimizer.
#[derive(Clone, Debug, PartialEq)]
pub enum MsriError {
    /// The net failed structural validation.
    Net(BuildNetError),
    /// A terminal other than the root is not a leaf — run
    /// [`Net::normalized`] first.
    TerminalNotLeaf(TerminalId),
    /// The chosen root terminal is not a leaf of the topology.
    RootNotLeaf(TerminalId),
    /// A terminal has an empty option menu.
    NoOptions(TerminalId),
    /// No distinct source/sink terminal pair exists, so the ARD is
    /// undefined.
    NoFeasiblePair,
    /// An inverting repeater was used but `allow_inverting` is off.
    InvertingDisallowed,
}

impl fmt::Display for MsriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsriError::Net(e) => write!(f, "invalid net: {e}"),
            MsriError::TerminalNotLeaf(t) => {
                write!(f, "terminal {t} is not a leaf; normalize the net first")
            }
            MsriError::RootNotLeaf(t) => write!(f, "root terminal {t} is not a leaf"),
            MsriError::NoOptions(t) => write!(f, "terminal {t} has no driver options"),
            MsriError::NoFeasiblePair => {
                write!(f, "no distinct source/sink pair; the ARD is undefined")
            }
            MsriError::InvertingDisallowed => {
                write!(f, "library contains an inverting repeater but inverting repeaters are disabled")
            }
        }
    }
}

impl std::error::Error for MsriError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MsriError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildNetError> for MsriError {
    fn from(e: BuildNetError) -> Self {
        MsriError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_geom::Point;
    use msrnet_rctree::{NetBuilder, Technology};

    fn small_net() -> Net {
        let mut b = NetBuilder::new(Technology::new(1.0, 1.0));
        let t0 = b.terminal(Point::new(0.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.05, 180.0));
        let t1 = b.terminal(Point::new(10.0, 0.0), Terminal::bidirectional(0.0, 0.0, 0.07, 200.0));
        b.wire(t0, t1);
        b.build().unwrap()
    }

    #[test]
    fn defaults_mirror_terminal_parameters() {
        let net = small_net();
        let opts = TerminalOptions::defaults(&net);
        assert_eq!(opts.len(), 2);
        let o = &opts.for_terminal(TerminalId(1))[0];
        assert_eq!(o.cap, 0.07);
        assert_eq!(o.drive_res, 200.0);
        assert_eq!(o.cost, 0.0);
        assert!((opts.max_cap() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn menus_can_be_replaced() {
        let net = small_net();
        let mut opts = TerminalOptions::defaults(&net);
        let t = TerminalId(0);
        let mut bigger = opts.for_terminal(t)[0].clone();
        bigger.name = "2X".into();
        bigger.cost = 2.0;
        bigger.drive_res /= 2.0;
        opts.set(t, vec![opts.for_terminal(t)[0].clone(), bigger]);
        assert_eq!(opts.for_terminal(t).len(), 2);
        assert_eq!(opts.for_terminal(t)[1].name, "2X");
    }

    #[test]
    fn error_display_is_informative() {
        let e = MsriError::TerminalNotLeaf(TerminalId(4));
        assert!(format!("{e}").contains("t4"));
        let e = MsriError::Net(BuildNetError::NotATree);
        assert!(format!("{e}").contains("tree"));
    }

    #[test]
    fn default_options_use_divide_and_conquer() {
        let o = MsriOptions::default();
        assert_eq!(o.pruning, PruningStrategy::DivideConquer);
        assert!(!o.allow_inverting);
        assert!(o.predictive);
        assert_eq!(o.prebound_slack, 0.0);
    }

    #[test]
    fn pruning_strategy_parse_display_round_trip() {
        for s in [PruningStrategy::DivideConquer, PruningStrategy::Naive] {
            let text = s.to_string();
            assert_eq!(PruningStrategy::parse(&text), Ok(s), "round-trip {text}");
        }
    }

    #[test]
    fn pruning_strategy_parse_rejects_garbage() {
        for bad in ["fancy", "", "bucketed", "whole-domain", "approx:0.05", "approx:0", "Naive"] {
            let e = PruningStrategy::parse(bad).unwrap_err();
            assert!(e.contains("divide-conquer or naive"), "{bad:?}: {e}");
        }
    }
}
