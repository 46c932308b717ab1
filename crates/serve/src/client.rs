//! The client side: connect, send framed requests, read framed
//! responses. Decode failures surface as [`Error::Protocol`], so the
//! CLI exits through the same sysexits mapping as every other failure.
//!
//! Framing on the wire is the daemon's: one write per frame, Nagle off
//! (`TCP_NODELAY` on a TCP connection) — see [`crate::proto`] — so a
//! request reaches the daemon as soon as it is written and a round trip
//! costs the work it asks for, not a delayed-ACK timer.

use crate::proto::{read_message, write_message, Request, Response};
use crate::server::{ServeAddr, Stream};
use pba_driver::Error;
use std::time::{Duration, Instant};

/// A connected client. One request/response exchange at a time
/// (requests on one connection are pipelined in order, not multiplexed).
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: &ServeAddr) -> Result<Client, Error> {
        let stream = Stream::connect(addr)
            .map_err(|e| Error::Io { path: addr.to_string(), message: e.to_string() })?;
        Ok(Client { stream })
    }

    /// Connect, retrying until `timeout` elapses — for harnesses racing
    /// a just-spawned daemon.
    pub fn connect_retry(addr: &ServeAddr, timeout: Duration) -> Result<Client, Error> {
        let start = Instant::now();
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() >= timeout => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Send one request and read its response. A connection the server
    /// closed without replying (or mid-reply) is [`Error::Protocol`];
    /// a served failure arrives as [`Response::Error`], not `Err` —
    /// the remote exit code is the caller's to apply.
    pub fn request(&mut self, req: &Request) -> Result<Response, Error> {
        write_message(&mut self.stream, req)?;
        read_message(&mut self.stream)?
            .ok_or_else(|| Error::Protocol("connection closed before reply".into()))
    }

    /// [`Client::request`], mapping a served [`Response::Error`] frame
    /// into [`Error::Protocol`] — for callers that don't care about the
    /// remote exit code (benches, tests).
    pub fn request_ok(&mut self, req: &Request) -> Result<Response, Error> {
        match self.request(req)? {
            Response::Error { code, message } => {
                Err(Error::Protocol(format!("server error (exit {code}): {message}")))
            }
            reply => Ok(reply),
        }
    }
}
