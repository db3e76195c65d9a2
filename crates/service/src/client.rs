//! A blocking client for the session server.
//!
//! Response payloads are returned as raw bytes, never re-parsed and
//! re-emitted: printing them verbatim is what preserves the
//! byte-identity of served reports with their local CLI oracles.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

use crate::frame::{FrameDecoder, FrameError, DEFAULT_MAX_PAYLOAD};
use crate::net::{Endpoint, Stream};
use crate::proto::{ErrorCode, ProtoError, Request, Response, NO_DEADLINE};

/// A client-side failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(String),
    /// The server's bytes did not frame correctly.
    Frame(FrameError),
    /// The server's frame was not a valid response.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// The failure class.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server closed the connection before answering.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Disconnected => f.write_str("server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One connection to a server.
pub struct Client {
    stream: Stream,
    dec: FrameDecoder,
    /// Deadline attached to subsequent requests.
    pub deadline_ms: u32,
}

impl Client {
    /// Connects to a server endpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connect failure.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        let stream = Stream::connect(endpoint).map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(Client {
            stream,
            dec: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
            deadline_ms: NO_DEADLINE,
        })
    }

    /// Sets the client-side read timeout (None = block forever).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .set_read_timeout(dur)
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Sends one request and waits for its response payload.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; a typed server rejection surfaces as
    /// [`ClientError::Server`] with its [`ErrorCode`].
    pub fn request(&mut self, req: &Request) -> Result<Vec<u8>, ClientError> {
        let bytes = req
            .encode()
            .encode(u32::MAX)
            .map_err(ClientError::Frame)?;
        self.stream
            .write_all(&bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let frame = loop {
            match self.dec.next_frame().map_err(ClientError::Frame)? {
                Some(f) => break f,
                None => {
                    let mut buf = [0u8; 16 * 1024];
                    let n = self
                        .stream
                        .read(&mut buf)
                        .map_err(|e| ClientError::Io(e.to_string()))?;
                    if n == 0 {
                        return Err(ClientError::Disconnected);
                    }
                    self.dec.feed(&buf[..n]);
                }
            }
        };
        match Response::decode(&frame).map_err(ClientError::Proto)? {
            Response::Ok(payload) => Ok(payload),
            Response::Err { code, message } => Err(ClientError::Server { code, message }),
        }
    }

    /// Opens a session; returns its id.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn open(
        &mut self,
        name: &str,
        msr: &str,
        root: u32,
        driver_cost: f64,
    ) -> Result<u64, ClientError> {
        self.open_with_pruning(name, msr, root, driver_cost, "")
    }

    /// Opens a session pinned to a pruning strategy (`PruningStrategy`
    /// `parse` syntax, e.g. `"naive"`; empty = server default);
    /// returns its id.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn open_with_pruning(
        &mut self,
        name: &str,
        msr: &str,
        root: u32,
        driver_cost: f64,
        pruning: &str,
    ) -> Result<u64, ClientError> {
        let payload = self.request(&Request::Open {
            deadline_ms: self.deadline_ms,
            root,
            driver_cost,
            name: name.to_string(),
            pruning: pruning.to_string(),
            msr: msr.to_string(),
        })?;
        if payload.len() != 8 {
            return Err(ClientError::Proto(ProtoError::BadPayload {
                field: "session id",
                detail: format!("expected 8 bytes, got {}", payload.len()),
            }));
        }
        Ok(u64::from_be_bytes([
            payload[0], payload[1], payload[2], payload[3], payload[4], payload[5], payload[6],
            payload[7],
        ]))
    }

    /// Replays a trace; returns the new report rows (newline-joined).
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn edit(&mut self, session: u64, trace: &str) -> Result<String, ClientError> {
        let payload = self.request(&Request::Edit {
            deadline_ms: self.deadline_ms,
            session,
            trace: trace.to_string(),
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Fetches the session's full `msrnet_edits` report.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn recompute(&mut self, session: u64) -> Result<String, ClientError> {
        let payload = self.request(&Request::Recompute {
            deadline_ms: self.deadline_ms,
            session,
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Fetches the session's current trade-off curve JSON.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn curve(&mut self, session: u64) -> Result<String, ClientError> {
        let payload = self.request(&Request::Curve {
            deadline_ms: self.deadline_ms,
            session,
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Runs a batch spec; returns the deterministic batch report.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn batch(&mut self, spec: &str) -> Result<String, ClientError> {
        let payload = self.request(&Request::Batch {
            deadline_ms: self.deadline_ms,
            spec: spec.to_string(),
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.request(&Request::Close {
            deadline_ms: self.deadline_ms,
            session,
        })?;
        Ok(())
    }

    /// Fetches server counters.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let payload = self.request(&Request::Stats {
            deadline_ms: self.deadline_ms,
        })?;
        Ok(String::from_utf8_lossy(&payload).into_owned())
    }
}
