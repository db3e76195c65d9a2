//! The `.msr` plain-text net interchange format.
//!
//! A line-oriented format carrying everything the optimizer needs: the
//! technology, the vertices (terminals with timing parameters, Steiner
//! points, insertion points), the wires, and a repeater library.
//!
//! ```text
//! # comment
//! tech 0.03 0.00035
//! terminal t0 100 200 arrival=0 downstream=0 cap=0.05 res=180 intrinsic=0
//! terminal t1 900 200 arrival=- downstream=55 cap=0.05 res=0
//! steiner s0 500 200
//! insertion p0 300 200
//! wire t0 p0
//! wire p0 s0 length=210
//! wire s0 t1 res_scale=0.5 cap_scale=2
//! repeater rep1x a2b=50,180 b2a=50,180 cap=0.05,0.05 cost=2
//! repeater irep a2b=25,180 b2a=25,180 cap=0.025,0.025 cost=1 inverting
//! ```
//!
//! * `arrival=-` / `downstream=-` mean "not a source" / "not a sink"
//!   (`−∞` in the model, paper §II).
//! * `wire` length defaults to the rectilinear distance of its
//!   endpoints; `res_scale`/`cap_scale` carry wire-width scaling.
//! * Names must be unique; wires refer to names.
//! * Every number must be finite; `tech` comes exactly once, first.

use std::collections::BTreeMap;
use std::fmt;

use msrnet_geom::Point;
use msrnet_rctree::{
    DriveParams, Net, NetBuilder, Repeater, Technology, Terminal, VertexId, VertexKind,
};

/// A parsed `.msr` file: the net plus its repeater library.
#[derive(Clone, Debug)]
pub struct NetFile {
    /// The validated net.
    pub net: Net,
    /// The repeater library, in file order.
    pub library: Vec<Repeater>,
    /// Vertex names, indexed by [`VertexId`].
    pub names: Vec<String>,
}

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseNetError {
    /// 1-based line where the problem was found (0 for file-level
    /// problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseNetError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseNetError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "net file: {}", self.message)
        } else {
            write!(f, "net file line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseNetError {}

/// Parses the `.msr` text format.
///
/// # Errors
///
/// Returns a [`ParseNetError`] naming the offending line for syntax
/// problems, non-finite or out-of-range numbers, unknown vertex
/// references, duplicate names, or a net that fails validation. No
/// input makes it panic.
pub fn parse_net_file(text: &str) -> Result<NetFile, ParseNetError> {
    let mut builder: Option<NetBuilder> = None;
    let mut ids: BTreeMap<String, VertexId> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut library: Vec<Repeater> = Vec::new();
    // Wire-width scaling can only be applied once the builder has been
    // consumed, so remember (edge, res_scale, cap_scale) until then.
    let mut deferred: Vec<(msrnet_rctree::EdgeId, f64, f64)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let Some(keyword) = words.next() else {
            continue;
        };
        let rest: Vec<&str> = words.collect();
        match keyword {
            "tech" => {
                if builder.is_some() {
                    return Err(ParseNetError::new(lineno, "duplicate `tech` line"));
                }
                let [r, c] = positional::<2>(lineno, &rest)?;
                let r = parse_num(lineno, r)?;
                let c = parse_num(lineno, c)?;
                if r < 0.0 || c < 0.0 {
                    return Err(ParseNetError::new(lineno, "negative technology value"));
                }
                builder = Some(NetBuilder::new(Technology::new(r, c)));
            }
            "terminal" | "steiner" | "insertion" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| ParseNetError::new(lineno, "`tech` must come first"))?;
                if rest.len() < 3 {
                    return Err(ParseNetError::new(lineno, "expected: name x y ..."));
                }
                let name = rest[0].to_owned();
                if ids.contains_key(&name) {
                    return Err(ParseNetError::new(lineno, format!("duplicate name `{name}`")));
                }
                let x = parse_num(lineno, rest[1])?;
                let y = parse_num(lineno, rest[2])?;
                let pos = Point::new(x, y);
                let vid = match keyword {
                    "terminal" => {
                        let kv = keyvals(lineno, &rest[3..])?;
                        let term = Terminal {
                            arrival: opt_num(lineno, &kv, "arrival")?,
                            downstream: opt_num(lineno, &kv, "downstream")?,
                            cap: req_num(lineno, &kv, "cap")?,
                            drive_res: kv
                                .get("res")
                                .map(|v| parse_num(lineno, v))
                                .transpose()?
                                .unwrap_or(0.0),
                            drive_intrinsic: kv
                                .get("intrinsic")
                                .map(|v| parse_num(lineno, v))
                                .transpose()?
                                .unwrap_or(0.0),
                        };
                        b.terminal(pos, term)
                    }
                    "steiner" => b.steiner(pos),
                    _ => b.insertion_point(pos),
                };
                ids.insert(name.clone(), vid);
                debug_assert_eq!(names.len(), vid.0);
                names.push(name);
            }
            "wire" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| ParseNetError::new(lineno, "`tech` must come first"))?;
                if rest.len() < 2 {
                    return Err(ParseNetError::new(lineno, "expected: wire a b ..."));
                }
                let a = *ids
                    .get(rest[0])
                    .ok_or_else(|| ParseNetError::new(lineno, format!("unknown vertex `{}`", rest[0])))?;
                let bb = *ids
                    .get(rest[1])
                    .ok_or_else(|| ParseNetError::new(lineno, format!("unknown vertex `{}`", rest[1])))?;
                let kv = keyvals(lineno, &rest[2..])?;
                let e = match kv.get("length") {
                    Some(v) => {
                        let len = parse_num(lineno, v)?;
                        if !(len.is_finite() && len >= 0.0) {
                            return Err(ParseNetError::new(lineno, "invalid wire length"));
                        }
                        b.wire_with_length(a, bb, len)
                    }
                    None => b.wire(a, bb),
                };
                let rs = kv
                    .get("res_scale")
                    .map(|v| parse_num(lineno, v))
                    .transpose()?
                    .unwrap_or(1.0);
                let cs = kv
                    .get("cap_scale")
                    .map(|v| parse_num(lineno, v))
                    .transpose()?
                    .unwrap_or(1.0);
                if rs < 0.0 || cs < 0.0 {
                    return Err(ParseNetError::new(lineno, "negative wire scaling"));
                }
                // msrnet-allow: float-eq 1.0 is the exact parsed default; scaling is skipped only for bit-exact unit factors
                if rs != 1.0 || cs != 1.0 {
                    deferred.push((e, rs, cs));
                }
            }
            "repeater" => {
                let Some((&name, params)) = rest.split_first() else {
                    return Err(ParseNetError::new(lineno, "expected: repeater name ..."));
                };
                let kv = keyvals(lineno, params)?;
                let (a2b_int, a2b_res) = pair(lineno, &kv, "a2b")?;
                let (b2a_int, b2a_res) = pair(lineno, &kv, "b2a")?;
                let (cap_a, cap_b) = pair(lineno, &kv, "cap")?;
                let cost = req_num(lineno, &kv, "cost")?;
                let inverting = rest.contains(&"inverting");
                let mut rep = Repeater {
                    name: name.to_owned(),
                    a_to_b: DriveParams {
                        intrinsic: a2b_int,
                        out_res: a2b_res,
                    },
                    b_to_a: DriveParams {
                        intrinsic: b2a_int,
                        out_res: b2a_res,
                    },
                    cap_a,
                    cap_b,
                    cost,
                    inverting: false,
                };
                if inverting {
                    rep = rep.inverting();
                }
                library.push(rep);
            }
            other => {
                return Err(ParseNetError::new(
                    lineno,
                    format!("unknown keyword `{other}`"),
                ));
            }
        }
    }
    let builder = builder.ok_or_else(|| ParseNetError::new(0, "missing `tech` line"))?;
    let mut net = builder
        .build()
        .map_err(|e| ParseNetError::new(0, format!("invalid net: {e}")))?;
    for (e, rs, cs) in deferred {
        net.topology.set_edge_scaling(e, rs, cs);
    }
    Ok(NetFile { net, library, names })
}

fn positional<'a, const N: usize>(
    line: usize,
    rest: &[&'a str],
) -> Result<[&'a str; N], ParseNetError> {
    let Some(head) = rest.get(..N) else {
        return Err(ParseNetError::new(line, format!("expected {N} values")));
    };
    let mut out = [""; N];
    out.copy_from_slice(head);
    Ok(out)
}

fn keyvals<'a>(
    line: usize,
    rest: &[&'a str],
) -> Result<BTreeMap<&'a str, &'a str>, ParseNetError> {
    let mut kv = BTreeMap::new();
    for w in rest {
        if let Some((k, v)) = w.split_once('=') {
            if kv.insert(k, v).is_some() {
                return Err(ParseNetError::new(line, format!("duplicate key `{k}`")));
            }
        } else if *w != "inverting" {
            return Err(ParseNetError::new(line, format!("expected key=value, got `{w}`")));
        }
    }
    Ok(kv)
}

/// A finite number; `nan`, `inf` and overflowing literals are rejected.
fn parse_num(line: usize, s: &str) -> Result<f64, ParseNetError> {
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(ParseNetError::new(line, format!("invalid number `{s}`"))),
    }
}

/// `key=-` means −∞ (non-source / non-sink); missing key means 0.
fn opt_num(
    line: usize,
    kv: &BTreeMap<&str, &str>,
    key: &str,
) -> Result<f64, ParseNetError> {
    match kv.get(key) {
        None => Ok(0.0),
        Some(&"-") => Ok(f64::NEG_INFINITY),
        Some(v) => parse_num(line, v),
    }
}

fn req_num(line: usize, kv: &BTreeMap<&str, &str>, key: &str) -> Result<f64, ParseNetError> {
    match kv.get(key) {
        None => Err(ParseNetError::new(line, format!("missing `{key}=`"))),
        Some(v) => parse_num(line, v),
    }
}

fn pair(
    line: usize,
    kv: &BTreeMap<&str, &str>,
    key: &str,
) -> Result<(f64, f64), ParseNetError> {
    let raw = kv
        .get(key)
        .ok_or_else(|| ParseNetError::new(line, format!("missing `{key}=`")))?;
    let (a, b) = raw
        .split_once(',')
        .ok_or_else(|| ParseNetError::new(line, format!("`{key}` needs two comma-separated values")))?;
    Ok((parse_num(line, a)?, parse_num(line, b)?))
}

/// Serializes a net and repeater library as `.msr` text.
///
/// Vertex names are `t<i>` for terminals, `s<i>` for Steiner points and
/// `p<i>` for insertion points; the output round-trips through
/// [`parse_net_file`].
pub fn write_net_file(net: &Net, library: &[Repeater]) -> String {
    let mut out = String::new();
    out.push_str("# msrnet net file\n");
    out.push_str(&format!(
        "tech {} {}\n",
        net.tech.unit_res, net.tech.unit_cap
    ));
    let mut names: Vec<String> = Vec::with_capacity(net.topology.vertex_count());
    let mut counters = (0usize, 0usize, 0usize);
    for v in net.topology.vertices() {
        let pos = net.topology.position(v);
        match net.topology.kind(v) {
            VertexKind::Terminal(t) => {
                let name = format!("t{}", counters.0);
                counters.0 += 1;
                let term = net.terminal(t);
                let fmt_inf = |x: f64| {
                    if x == f64::NEG_INFINITY {
                        "-".to_owned()
                    } else {
                        format!("{x}")
                    }
                };
                out.push_str(&format!(
                    "terminal {name} {} {} arrival={} downstream={} cap={} res={} intrinsic={}\n",
                    pos.x,
                    pos.y,
                    fmt_inf(term.arrival),
                    fmt_inf(term.downstream),
                    term.cap,
                    term.drive_res,
                    term.drive_intrinsic
                ));
                names.push(name);
            }
            VertexKind::Steiner => {
                let name = format!("s{}", counters.1);
                counters.1 += 1;
                out.push_str(&format!("steiner {name} {} {}\n", pos.x, pos.y));
                names.push(name);
            }
            VertexKind::InsertionPoint => {
                let name = format!("p{}", counters.2);
                counters.2 += 1;
                out.push_str(&format!("insertion {name} {} {}\n", pos.x, pos.y));
                names.push(name);
            }
        }
    }
    for e in net.topology.edges() {
        let (a, b) = net.topology.endpoints(e);
        let (rs, cs) = net.topology.edge_scaling(e);
        out.push_str(&format!(
            "wire {} {} length={}",
            names[a.0],
            names[b.0],
            net.topology.length(e)
        ));
        // msrnet-allow: float-eq exactly-1.0 factors are omitted so output round-trips bit-identically
        if rs != 1.0 {
            out.push_str(&format!(" res_scale={rs}"));
        }
        // msrnet-allow: float-eq exactly-1.0 factors are omitted so output round-trips bit-identically
        if cs != 1.0 {
            out.push_str(&format!(" cap_scale={cs}"));
        }
        out.push('\n');
    }
    for rep in library {
        out.push_str(&format!(
            "repeater {} a2b={},{} b2a={},{} cap={},{} cost={}{}\n",
            rep.name.replace(' ', "_"),
            rep.a_to_b.intrinsic,
            rep.a_to_b.out_res,
            rep.b_to_a.intrinsic,
            rep.b_to_a.out_res,
            rep.cap_a,
            rep.cap_b,
            rep.cost,
            if rep.inverting { " inverting" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use msrnet_rctree::TerminalId;

    const SAMPLE: &str = "\
# a three-terminal net
tech 0.03 0.00035
terminal t0 0 0 arrival=0 downstream=0 cap=0.05 res=180
terminal t1 8000 0 arrival=- downstream=55 cap=0.05
steiner s0 4000 0
insertion p0 2000 0
wire t0 p0
wire p0 s0
wire s0 t1 res_scale=0.5 cap_scale=2
terminal t2 4000 3000 arrival=120 downstream=0 cap=0.07 res=90 intrinsic=10
wire s0 t2
repeater rep1x a2b=50,180 b2a=50,180 cap=0.05,0.05 cost=2
repeater irep a2b=25,90 b2a=30,95 cap=0.025,0.03 cost=1 inverting
";

    #[test]
    fn parses_the_sample() {
        let f = parse_net_file(SAMPLE).expect("parse");
        assert_eq!(f.net.topology.terminal_count(), 3);
        assert_eq!(f.net.topology.vertex_count(), 5);
        assert_eq!(f.net.topology.edge_count(), 4);
        assert_eq!(f.library.len(), 2);
        // Roles decoded from `-`.
        let t1 = f.net.terminal(TerminalId(1));
        assert!(!t1.is_source() && t1.is_sink());
        assert_eq!(t1.downstream, 55.0);
        let t2 = f.net.terminal(TerminalId(2));
        assert_eq!(t2.arrival, 120.0);
        assert_eq!(t2.drive_intrinsic, 10.0);
        // Wire scaling decoded.
        let e = f
            .net
            .topology
            .edges()
            .find(|&e| f.net.topology.edge_scaling(e) != (1.0, 1.0))
            .expect("scaled wire present");
        assert_eq!(f.net.topology.edge_scaling(e), (0.5, 2.0));
        // Repeater flags decoded.
        assert!(!f.library[0].inverting);
        assert!(f.library[1].inverting);
        assert_eq!(f.library[1].b_to_a.out_res, 95.0);
        // Default wire length is the rectilinear distance.
        let first = msrnet_rctree::EdgeId(0);
        assert_eq!(f.net.topology.length(first), 2000.0);
    }

    #[test]
    fn roundtrips_through_writer() {
        let f = parse_net_file(SAMPLE).expect("parse");
        let text = write_net_file(&f.net, &f.library);
        let g = parse_net_file(&text).expect("reparse");
        assert_eq!(
            f.net.topology.vertex_count(),
            g.net.topology.vertex_count()
        );
        assert_eq!(f.net.topology.edge_count(), g.net.topology.edge_count());
        assert_eq!(f.library, g.library);
        for t in f.net.terminal_ids() {
            assert_eq!(f.net.terminal(t), g.net.terminal(t));
        }
        for e in f.net.topology.edges() {
            assert_eq!(f.net.topology.length(e), g.net.topology.length(e));
            assert_eq!(
                f.net.topology.edge_scaling(e),
                g.net.topology.edge_scaling(e)
            );
        }
    }

    #[test]
    fn reports_line_numbers() {
        let bad = "tech 0.03 0.00035\nterminal t0 0 0 cap=0.05\nwire t0 missing\n";
        let err = parse_net_file(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn rejects_duplicate_names() {
        let bad = "tech 1 1\nterminal a 0 0 cap=1\nterminal a 1 1 cap=1\n";
        let err = parse_net_file(bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_unknown_keyword() {
        let bad = "tech 1 1\nfrobnicate x\n";
        let err = parse_net_file(bad).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_missing_tech() {
        let bad = "terminal t0 0 0 cap=1\n";
        assert!(parse_net_file(bad).is_err());
    }

    #[test]
    fn rejects_invalid_tree() {
        let bad = "tech 1 1\nterminal a 0 0 cap=1 res=1\nterminal b 9 0 cap=1\n";
        let err = parse_net_file(bad).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("tree"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# hi\ntech 1 1\n  \nterminal a 0 0 cap=1 res=1 # inline\nterminal b 5 0 cap=1\nwire a b\n";
        let f = parse_net_file(text).expect("parse");
        assert_eq!(f.net.topology.terminal_count(), 2);
    }

    #[test]
    fn outside_input_ends_in_a_typed_error_never_a_panic() {
        const NET: &str = "tech 1 1\nterminal a 0 0 cap=1 res=1\nterminal b 5 0 cap=1\n";
        let with = |tail: &str| format!("{NET}{tail}");
        // (case, text, expected error line, message fragment)
        let cases: Vec<(&str, String, usize, &str)> = vec![
            ("bare repeater", with("wire a b\nrepeater\n"), 5, "expected: repeater name"),
            (
                "second tech",
                "tech 1 1\nterminal a 0 0 cap=1 res=1\ntech 1 1\nterminal b 5 0 cap=1\nwire a b\n"
                    .into(),
                3,
                "duplicate `tech`",
            ),
            ("res_scale nan", with("wire a b res_scale=nan\n"), 4, "invalid number"),
            ("res_scale negative", with("wire a b res_scale=-1\n"), 4, "negative wire scaling"),
            ("cap_scale nan", with("wire a b cap_scale=NaN\n"), 4, "invalid number"),
            ("cap_scale negative", with("wire a b cap_scale=-0.5\n"), 4, "negative wire scaling"),
            ("tech nan", "tech nan 1\n".into(), 1, "invalid number"),
            ("tech inf", "tech 1 inf\n".into(), 1, "invalid number"),
            ("tech negative", "tech -1 1\n".into(), 1, "negative technology"),
            ("length inf", with("wire a b length=inf\n"), 4, "invalid number"),
            ("length negative", with("wire a b length=-3\n"), 4, "invalid wire length"),
            ("terminal cap nan", with("terminal c 9 0 cap=nan\n"), 4, "invalid number"),
            ("arrival nan", with("terminal c 9 0 cap=1 arrival=nan\n"), 4, "invalid number"),
            ("downstream inf", with("terminal c 9 0 cap=1 downstream=inf\n"), 4, "invalid number"),
            ("terminal res -inf", with("terminal c 9 0 cap=1 res=-inf\n"), 4, "invalid number"),
            ("coordinate nan", with("steiner s nan 0\n"), 4, "invalid number"),
            ("coordinate overflow", with("insertion p 0 1e999\n"), 4, "invalid number"),
            (
                "repeater cost nan",
                with("wire a b\nrepeater r a2b=1,1 b2a=1,1 cap=1,1 cost=nan\n"),
                5,
                "invalid number",
            ),
            (
                "repeater cap nan",
                with("wire a b\nrepeater r a2b=1,1 b2a=1,1 cap=nan,1 cost=1\n"),
                5,
                "invalid number",
            ),
            (
                "repeater drive inf",
                with("wire a b\nrepeater r a2b=inf,1 b2a=1,1 cap=1,1 cost=1\n"),
                5,
                "invalid number",
            ),
            (
                "wire length overflows",
                "tech 1 1\nterminal a -1e308 0 cap=1 res=1\nterminal b 1e308 0 cap=1\nwire a b\n"
                    .into(),
                0,
                "invalid net",
            ),
            ("self-loop wire", with("wire a a\nwire a b\n"), 0, "invalid net"),
        ];
        for (case, text, line, fragment) in &cases {
            let got = std::panic::catch_unwind(|| parse_net_file(text))
                .unwrap_or_else(|_| panic!("{case}: the parser panicked"));
            let err = got.expect_err(case);
            assert_eq!(err.line, *line, "{case}: {err}");
            assert!(err.message.contains(fragment), "{case}: {err}");
        }
        // The documented `-` sentinel still means "not a source/sink".
        let sentinels = with("terminal c 9 0 cap=1 arrival=- downstream=-\nwire a b\nwire b c\n");
        let ok = parse_net_file(&sentinels).expect("sentinels parse");
        assert_eq!(ok.net.terminal(TerminalId(2)).arrival, f64::NEG_INFINITY);
    }
}
