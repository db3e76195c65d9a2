//! Typed requests and responses on top of the [`frame`](crate::frame)
//! layer.
//!
//! Request frames (kinds `0x01`–`0x07`) all start with a big-endian
//! `u32` deadline in milliseconds (`0xFFFF_FFFF` = no deadline; `0`
//! expires at the server's first cooperative check), followed by a
//! kind-specific body. Response frames are `0x81` (`OK`, payload = raw
//! result bytes passed through verbatim — this is what makes served
//! reports byte-identical to their local CLI oracles) or `0xE0`
//! (`ERROR`, payload = big-endian `u16` [`ErrorCode`] + UTF-8 message).
//!
//! Decoding never panics; malformed bodies map to [`ProtoError`], which
//! the server answers with [`ErrorCode::BadPayload`] (or
//! [`ErrorCode::UnknownKind`]) while keeping the connection alive —
//! unlike framing errors, a bad body leaves the stream position intact.

use std::fmt;

use crate::frame::Frame;

/// Request kind: open a new resident session from an `.msr` upload.
pub const KIND_OPEN: u8 = 0x01;
/// Request kind: apply an edit trace to a session, one recompute per edit.
pub const KIND_EDIT: u8 = 0x02;
/// Request kind: assemble the session's full replay report.
pub const KIND_RECOMPUTE: u8 = 0x03;
/// Request kind: the session's current cost/ARD trade-off curve.
pub const KIND_CURVE: u8 = 0x04;
/// Request kind: optimize a list of nets on the worker pool.
pub const KIND_BATCH: u8 = 0x05;
/// Request kind: close a session.
pub const KIND_CLOSE: u8 = 0x06;
/// Request kind: server-wide counters.
pub const KIND_STATS: u8 = 0x07;
/// Response kind: success, payload is the raw result.
pub const KIND_OK: u8 = 0x81;
/// Response kind: failure, payload is code + message.
pub const KIND_ERROR: u8 = 0xE0;

/// Deadline sentinel meaning "no deadline".
pub const NO_DEADLINE: u32 = u32::MAX;

/// Typed failure codes carried in `ERROR` responses.
///
/// The codes are part of the wire contract: tests (and clients) match
/// on them, so the mapping from failure to code is documented behaviour,
/// not an implementation detail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The framing layer rejected the stream (bad magic/version); the
    /// connection is dropped after this response.
    BadFrame = 1,
    /// A frame announced a payload above the server's limit; the
    /// connection is dropped after this response.
    Oversized = 2,
    /// The frame kind byte is not a known request.
    UnknownKind = 3,
    /// The request body did not match its kind's layout.
    BadPayload = 4,
    /// The body parsed structurally but its content was rejected
    /// (bad `.msr` text, bad trace JSON, bad batch spec).
    ParseError = 5,
    /// No session with that id was ever opened, or it was closed.
    UnknownSession = 6,
    /// The session existed but was evicted under memory pressure;
    /// re-open to continue.
    Evicted = 7,
    /// The server is at its hard session cap.
    SessionLimit = 8,
    /// The session is currently serving another connection.
    Busy = 9,
    /// The request's deadline expired at a cooperative checkpoint.
    DeadlineExceeded = 10,
    /// The optimization itself reported infeasibility.
    Infeasible = 11,
    /// Anything else (lock poisoning, I/O mid-response, …).
    Internal = 12,
}

impl ErrorCode {
    /// Decodes a wire code.
    pub fn from_u16(raw: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match raw {
            1 => BadFrame,
            2 => Oversized,
            3 => UnknownKind,
            4 => BadPayload,
            5 => ParseError,
            6 => UnknownSession,
            7 => Evicted,
            8 => SessionLimit,
            9 => Busy,
            10 => DeadlineExceeded,
            11 => Infeasible,
            12 => Internal,
            _ => return None,
        })
    }

    /// Stable lower-case name (used in client-facing messages).
    pub fn name(self) -> &'static str {
        use ErrorCode::*;
        match self {
            BadFrame => "bad_frame",
            Oversized => "oversized",
            UnknownKind => "unknown_kind",
            BadPayload => "bad_payload",
            ParseError => "parse_error",
            UnknownSession => "unknown_session",
            Evicted => "evicted",
            SessionLimit => "session_limit",
            Busy => "busy",
            DeadlineExceeded => "deadline_exceeded",
            Infeasible => "infeasible",
            Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session: parse `msr`, build an incremental optimizer
    /// rooted at terminal `root` with the given driver cost, run the
    /// initial all-dirty recompute, and return the session id.
    Open {
        /// Per-request deadline in ms ([`NO_DEADLINE`] = none).
        deadline_ms: u32,
        /// Root terminal index.
        root: u32,
        /// Driver cost handed to `TerminalOptions::defaults_with_cost`.
        driver_cost: f64,
        /// Label echoed into reports (the CLI passes the net path so
        /// served reports are byte-identical to local ones).
        name: String,
        /// Pruning strategy in [`PruningStrategy`](msrnet_core::PruningStrategy)
        /// `parse`/`Display` syntax; empty selects the server default, so
        /// a served session can be pinned to the same strategy as its
        /// local `msrnet-cli edits --pruning` oracle.
        pruning: String,
        /// `.msr` net text.
        msr: String,
    },
    /// Replay an edit trace (`{"edits": [...]}`) through a session.
    Edit {
        /// Per-request deadline in ms.
        deadline_ms: u32,
        /// Session id from `Open`.
        session: u64,
        /// Trace JSON.
        trace: String,
    },
    /// Assemble the session's full `msrnet_edits` report.
    Recompute {
        /// Per-request deadline in ms.
        deadline_ms: u32,
        /// Session id.
        session: u64,
    },
    /// The session's current trade-off curve as JSON.
    Curve {
        /// Per-request deadline in ms.
        deadline_ms: u32,
        /// Session id.
        session: u64,
    },
    /// Optimize a list of nets across the worker pool. The body is a
    /// JSON spec `{"threads": K, "driver_cost": C, "nets": [{"name":
    /// N, "msr": TEXT}, ...]}`.
    Batch {
        /// Per-request deadline in ms.
        deadline_ms: u32,
        /// Batch spec JSON.
        spec: String,
    },
    /// Close (and drop) a session.
    Close {
        /// Per-request deadline in ms.
        deadline_ms: u32,
        /// Session id.
        session: u64,
    },
    /// Server-wide counters.
    Stats {
        /// Per-request deadline in ms.
        deadline_ms: u32,
    },
}

impl Request {
    /// The request's deadline field.
    pub fn deadline_ms(&self) -> u32 {
        match *self {
            Request::Open { deadline_ms, .. }
            | Request::Edit { deadline_ms, .. }
            | Request::Recompute { deadline_ms, .. }
            | Request::Curve { deadline_ms, .. }
            | Request::Batch { deadline_ms, .. }
            | Request::Close { deadline_ms, .. }
            | Request::Stats { deadline_ms } => deadline_ms,
        }
    }

    /// Encodes the request as a frame.
    pub fn encode(&self) -> Frame {
        let mut p = Vec::new();
        let kind = match self {
            Request::Open {
                deadline_ms,
                root,
                driver_cost,
                name,
                pruning,
                msr,
            } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(root.to_be_bytes());
                p.extend(driver_cost.to_bits().to_be_bytes());
                p.extend((name.len() as u32).to_be_bytes());
                p.extend(name.as_bytes());
                p.extend((pruning.len() as u32).to_be_bytes());
                p.extend(pruning.as_bytes());
                p.extend(msr.as_bytes());
                KIND_OPEN
            }
            Request::Edit {
                deadline_ms,
                session,
                trace,
            } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(session.to_be_bytes());
                p.extend(trace.as_bytes());
                KIND_EDIT
            }
            Request::Recompute {
                deadline_ms,
                session,
            } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(session.to_be_bytes());
                KIND_RECOMPUTE
            }
            Request::Curve {
                deadline_ms,
                session,
            } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(session.to_be_bytes());
                KIND_CURVE
            }
            Request::Batch { deadline_ms, spec } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(spec.as_bytes());
                KIND_BATCH
            }
            Request::Close {
                deadline_ms,
                session,
            } => {
                p.extend(deadline_ms.to_be_bytes());
                p.extend(session.to_be_bytes());
                KIND_CLOSE
            }
            Request::Stats { deadline_ms } => {
                p.extend(deadline_ms.to_be_bytes());
                KIND_STATS
            }
        };
        Frame { kind, payload: p }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnknownKind`] for a non-request kind byte, or
    /// [`ProtoError::BadPayload`] when the body does not match the
    /// kind's layout (short fields, non-UTF-8 text, …).
    pub fn decode(frame: &Frame) -> Result<Request, ProtoError> {
        let mut c = Cursor {
            bytes: &frame.payload,
            pos: 0,
        };
        let deadline_ms = c.u32("deadline")?;
        let req = match frame.kind {
            KIND_OPEN => {
                let root = c.u32("root")?;
                let driver_cost = f64::from_bits(c.u64("driver_cost")?);
                let name_len = c.u32("name length")? as usize;
                let name = c.text_exact(name_len, "name")?;
                let pruning_len = c.u32("pruning length")? as usize;
                let pruning = c.text_exact(pruning_len, "pruning")?;
                let msr = c.text_rest("msr")?;
                Request::Open {
                    deadline_ms,
                    root,
                    driver_cost,
                    name,
                    pruning,
                    msr,
                }
            }
            KIND_EDIT => Request::Edit {
                deadline_ms,
                session: c.u64("session")?,
                trace: c.text_rest("trace")?,
            },
            KIND_RECOMPUTE => {
                let r = Request::Recompute {
                    deadline_ms,
                    session: c.u64("session")?,
                };
                c.end()?;
                r
            }
            KIND_CURVE => {
                let r = Request::Curve {
                    deadline_ms,
                    session: c.u64("session")?,
                };
                c.end()?;
                r
            }
            KIND_BATCH => Request::Batch {
                deadline_ms,
                spec: c.text_rest("spec")?,
            },
            KIND_CLOSE => {
                let r = Request::Close {
                    deadline_ms,
                    session: c.u64("session")?,
                };
                c.end()?;
                r
            }
            KIND_STATS => {
                let r = Request::Stats { deadline_ms };
                c.end()?;
                r
            }
            other => return Err(ProtoError::UnknownKind { kind: other }),
        };
        Ok(req)
    }
}

/// One decoded response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success; the payload is the raw result (report text, rows,
    /// session id bytes, …) passed through verbatim.
    Ok(Vec<u8>),
    /// Typed failure.
    Err {
        /// The failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame.
    pub fn encode(&self) -> Frame {
        match self {
            Response::Ok(payload) => Frame {
                kind: KIND_OK,
                payload: payload.clone(),
            },
            Response::Err { code, message } => {
                let mut p = Vec::with_capacity(2 + message.len());
                p.extend((*code as u16).to_be_bytes());
                p.extend(message.as_bytes());
                Frame {
                    kind: KIND_ERROR,
                    payload: p,
                }
            }
        }
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for a non-response kind, a short error payload,
    /// an unassigned error code, or a non-UTF-8 message.
    pub fn decode(frame: &Frame) -> Result<Response, ProtoError> {
        match frame.kind {
            KIND_OK => Ok(Response::Ok(frame.payload.clone())),
            KIND_ERROR => {
                if frame.payload.len() < 2 {
                    return Err(ProtoError::BadPayload {
                        field: "error code",
                        detail: "payload shorter than 2 bytes".into(),
                    });
                }
                let raw = u16::from_be_bytes([frame.payload[0], frame.payload[1]]);
                let code = ErrorCode::from_u16(raw).ok_or(ProtoError::BadPayload {
                    field: "error code",
                    detail: format!("unassigned code {raw}"),
                })?;
                let message = String::from_utf8_lossy(&frame.payload[2..]).into_owned();
                Ok(Response::Err { code, message })
            }
            other => Err(ProtoError::UnknownKind { kind: other }),
        }
    }
}

/// A typed request/response body decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The kind byte is not assigned.
    UnknownKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The body did not match the kind's layout.
    BadPayload {
        /// Which field failed.
        field: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::UnknownKind { kind } => write!(f, "unknown frame kind {kind:#04x}"),
            ProtoError::BadPayload { field, detail } => {
                write!(f, "bad request payload ({field}): {detail}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The error code a server answers this decode failure with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ProtoError::UnknownKind { .. } => ErrorCode::UnknownKind,
            ProtoError::BadPayload { .. } => ErrorCode::BadPayload,
        }
    }
}

/// Bounds-checked big-endian reader over a request body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ProtoError::BadPayload {
                field,
                detail: format!(
                    "needs {n} bytes at offset {}, payload has {}",
                    self.pos,
                    self.bytes.len()
                ),
            }),
        }
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtoError> {
        let b = self.take(4, field)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtoError> {
        let b = self.take(8, field)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn text_exact(&mut self, n: usize, field: &'static str) -> Result<String, ProtoError> {
        let b = self.take(n, field)?;
        String::from_utf8(b.to_vec()).map_err(|_| ProtoError::BadPayload {
            field,
            detail: "not valid UTF-8".into(),
        })
    }

    fn text_rest(&mut self, field: &'static str) -> Result<String, ProtoError> {
        let b = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        String::from_utf8(b.to_vec()).map_err(|_| ProtoError::BadPayload {
            field,
            detail: "not valid UTF-8".into(),
        })
    }

    fn end(&self) -> Result<(), ProtoError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtoError::BadPayload {
                field: "trailing bytes",
                detail: format!("{} unexpected bytes after the body", self.bytes.len() - self.pos),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let frame = req.encode();
        assert_eq!(Request::decode(&frame).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Open {
            deadline_ms: NO_DEADLINE,
            root: 3,
            driver_cost: 2.5,
            name: "nets/a.msr".into(),
            pruning: String::new(),
            msr: "# net\n".into(),
        });
        round_trip(Request::Open {
            deadline_ms: NO_DEADLINE,
            root: 0,
            driver_cost: 0.0,
            name: "b.msr".into(),
            pruning: "naive".into(),
            msr: "# net\n".into(),
        });
        round_trip(Request::Edit {
            deadline_ms: 250,
            session: 7,
            trace: "{\"edits\": []}".into(),
        });
        round_trip(Request::Recompute { deadline_ms: 0, session: 1 });
        round_trip(Request::Curve { deadline_ms: 1, session: 2 });
        round_trip(Request::Batch { deadline_ms: NO_DEADLINE, spec: "{}".into() });
        round_trip(Request::Close { deadline_ms: NO_DEADLINE, session: 9 });
        round_trip(Request::Stats { deadline_ms: NO_DEADLINE });
    }

    #[test]
    fn responses_round_trip() {
        for r in [
            Response::Ok(b"payload".to_vec()),
            Response::Ok(Vec::new()),
            Response::Err { code: ErrorCode::Evicted, message: "session 4 evicted".into() },
        ] {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn short_bodies_are_typed_errors() {
        // OPEN with only a deadline: missing root.
        let f = Frame { kind: KIND_OPEN, payload: NO_DEADLINE.to_be_bytes().to_vec() };
        let e = Request::decode(&f).unwrap_err();
        assert!(matches!(e, ProtoError::BadPayload { field: "root", .. }), "{e:?}");
        assert_eq!(e.code(), ErrorCode::BadPayload);

        // Empty payload: not even a deadline.
        let f = Frame { kind: KIND_STATS, payload: Vec::new() };
        assert!(Request::decode(&f).is_err());

        // RECOMPUTE with trailing junk.
        let mut p = NO_DEADLINE.to_be_bytes().to_vec();
        p.extend(1u64.to_be_bytes());
        p.push(0xAA);
        let f = Frame { kind: KIND_RECOMPUTE, payload: p };
        let e = Request::decode(&f).unwrap_err();
        assert!(matches!(e, ProtoError::BadPayload { field: "trailing bytes", .. }), "{e:?}");
    }

    #[test]
    fn unknown_kinds_are_typed_errors() {
        let f = Frame { kind: 0x42, payload: NO_DEADLINE.to_be_bytes().to_vec() };
        let e = Request::decode(&f).unwrap_err();
        assert_eq!(e, ProtoError::UnknownKind { kind: 0x42 });
        assert_eq!(e.code(), ErrorCode::UnknownKind);
    }

    #[test]
    fn non_utf8_text_is_rejected() {
        let mut p = NO_DEADLINE.to_be_bytes().to_vec();
        p.extend(1u64.to_be_bytes());
        p.extend([0xFF, 0xFE]);
        let f = Frame { kind: KIND_EDIT, payload: p };
        let e = Request::decode(&f).unwrap_err();
        assert!(matches!(e, ProtoError::BadPayload { field: "trace", .. }), "{e:?}");
    }

    #[test]
    fn every_error_code_round_trips() {
        for raw in 1..=12u16 {
            let code = ErrorCode::from_u16(raw).unwrap();
            assert_eq!(code as u16, raw);
            assert!(!code.name().is_empty());
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(13), None);
    }
}
