//! The daemon: a listener (Unix socket or TCP), one thread per
//! connection, every request dispatched on the rayon-shim pool against
//! the shared [`SessionCache`].
//!
//! Failure is always connection-scoped: a malformed frame, an oversized
//! announcement, an undecodable payload, a client vanishing mid-request
//! — each ends (at most) that one connection, never the daemon. A
//! served `shutdown` request flips the shared latch; the accept loop
//! stops, connection threads notice on their next read timeout, drain,
//! and [`Server::run`] returns the final [`ServeStats`].

use crate::cache::SessionCache;
use crate::handler::ServeShared;
use crate::proto::{decode_message, read_frame_with, write_value, Request, Response, ServeStats};
use pba_driver::{Error, SessionConfig};
use serde::Serialize;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked connection read waits before re-checking the
/// shutdown latch.
const READ_POLL: Duration = Duration::from_millis(100);
/// Accept-loop poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Where the daemon listens (and where a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP `host:port` address (`port` 0 binds an ephemeral port;
    /// [`Server::local_addr`] reports the resolved one).
    Tcp(String),
}

impl ServeAddr {
    /// Parse an address argument: `unix:<path>` / `tcp:<host:port>`
    /// prefixes are explicit; anything containing `/` is a socket path;
    /// everything else is `host:port`.
    pub fn parse(s: &str) -> ServeAddr {
        #[cfg(unix)]
        if let Some(p) = s.strip_prefix("unix:") {
            return ServeAddr::Unix(PathBuf::from(p));
        }
        if let Some(t) = s.strip_prefix("tcp:") {
            return ServeAddr::Tcp(t.to_string());
        }
        #[cfg(unix)]
        if s.contains('/') {
            return ServeAddr::Unix(PathBuf::from(s));
        }
        ServeAddr::Tcp(s.to_string())
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            ServeAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Daemon configuration: the cache budget plus the one session config
/// every served binary is analyzed under.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Resident-bytes budget for the session cache.
    pub cap_bytes: usize,
    /// Session config for every served session (threads, parse options, name).
    pub session: SessionConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { cap_bytes: 256 << 20, session: SessionConfig::default() }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection, configured as every daemon stream is
    /// (TCP: Nagle off — see the `proto` module docs).
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| Stream::tcp(s)),
        }
    }
}

/// One accepted connection, Unix or TCP, behind one Read/Write surface.
pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn connect(addr: &ServeAddr) -> std::io::Result<Stream> {
        match addr {
            #[cfg(unix)]
            ServeAddr::Unix(p) => UnixStream::connect(p).map(Stream::Unix),
            ServeAddr::Tcp(a) => TcpStream::connect(a.as_str()).and_then(Stream::tcp),
        }
    }

    /// Wrap a connected TCP stream with Nagle's algorithm off, so a
    /// frame goes out as soon as it is written.
    fn tcp(s: TcpStream) -> std::io::Result<Stream> {
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    listener: Listener,
    addr: ServeAddr,
    shared: Arc<ServeShared>,
}

impl Server {
    /// Bind the listener and build the shared daemon state. The socket
    /// exists (and a TCP port is allocated) when this returns, so a
    /// caller can spawn [`Server::run`] and connect immediately.
    pub fn bind(addr: &ServeAddr, config: ServeConfig) -> Result<Server, Error> {
        let io_err =
            |e: std::io::Error| Error::Io { path: addr.to_string(), message: e.to_string() };
        let (listener, addr) = match addr {
            #[cfg(unix)]
            ServeAddr::Unix(p) => {
                let l = UnixListener::bind(p).map_err(io_err)?;
                (Listener::Unix(l), addr.clone())
            }
            ServeAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str()).map_err(io_err)?;
                let resolved = l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| a.clone());
                (Listener::Tcp(l), ServeAddr::Tcp(resolved))
            }
        };
        let shared = ServeShared::new(SessionCache::new(config.cap_bytes, config.session));
        Ok(Server { listener, addr, shared: Arc::new(shared) })
    }

    /// The bound address (with TCP port 0 resolved).
    pub fn local_addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// The shared daemon state (counters, cache, shutdown latch) — for
    /// in-process harnesses that inspect or stop a spawned server.
    pub fn shared(&self) -> Arc<ServeShared> {
        Arc::clone(&self.shared)
    }

    /// Serve until a `shutdown` request (or [`ServeShared::request_shutdown`]),
    /// then drain live connections and return the final stats.
    pub fn run(self) -> Result<ServeStats, Error> {
        match &self.listener {
            #[cfg(unix)]
            Listener::Unix(l) => l
                .set_nonblocking(true)
                .map_err(|e| Error::Io { path: self.addr.to_string(), message: e.to_string() })?,
            Listener::Tcp(l) => l
                .set_nonblocking(true)
                .map_err(|e| Error::Io { path: self.addr.to_string(), message: e.to_string() })?,
        }
        let threads = self.shared.cache.config().threads;
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.is_shutdown() {
            match self.listener.accept() {
                Ok(stream) => {
                    self.shared.connection_opened();
                    let shared = Arc::clone(&self.shared);
                    workers.push(std::thread::spawn(move || {
                        serve_connection(stream, &shared, threads);
                    }));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(ACCEPT_POLL);
                }
                // A transient accept failure (e.g. the peer aborted the
                // half-open connection) must not kill the daemon.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
            workers.retain_drain_finished();
        }
        for w in workers {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let ServeAddr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        Ok(self.shared.serve_stats())
    }

    /// Run the daemon on its own thread; returns a handle carrying the
    /// resolved address and the shared state.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr.clone();
        let shared = self.shared();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, shared, thread }
    }
}

/// Handle to a daemon running on a background thread.
pub struct ServerHandle {
    addr: ServeAddr,
    shared: Arc<ServeShared>,
    thread: std::thread::JoinHandle<Result<ServeStats, Error>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// The daemon's shared state.
    pub fn shared(&self) -> Arc<ServeShared> {
        Arc::clone(&self.shared)
    }

    /// Flip the shutdown latch and wait for the daemon to drain.
    pub fn stop(self) -> Result<ServeStats, Error> {
        self.shared.request_shutdown();
        self.thread.join().map_err(|_| Error::Protocol("server thread panicked".into()))?
    }
}

/// Small helper: drop finished connection threads from the live list.
trait RetainDrainFinished {
    fn retain_drain_finished(&mut self);
}

impl RetainDrainFinished for Vec<std::thread::JoinHandle<()>> {
    fn retain_drain_finished(&mut self) {
        let mut live = Vec::with_capacity(self.len());
        for h in self.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        *self = live;
    }
}

/// One connection's request loop. Frames are read with a poll timeout
/// so the thread notices shutdown; each decoded request is handled
/// inside the rayon-shim pool (equal-size pools share one process-lived
/// registry, so this is a context switch, not a pool spawn), and its
/// reply leaves as one frame with the cache entry's rendered parts in
/// place (see [`crate::proto`]).
fn serve_connection(stream: Stream, shared: &Arc<ServeShared>, threads: usize) {
    let mut stream = stream;
    // The accepted stream may inherit the listener's nonblocking flag;
    // put it back to blocking-with-timeout so reads poll the latch.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("serve pool");
    loop {
        match read_frame_with(&mut stream, || !shared.is_shutdown()) {
            // Clean close (client done) or shutdown while idle.
            Ok(None) => break,
            Ok(Some(payload)) => {
                let reply = match decode_message::<Request>(&payload) {
                    Ok(req) => pool.install(|| shared.respond(req)),
                    Err(e) => {
                        // Undecodable payload: the frame itself was
                        // whole, so the stream is still in sync — answer
                        // with an error frame and keep serving.
                        shared.protocol_error();
                        Response::from_error(&e).to_value()
                    }
                };
                // One vectored write, each memoized part sent in place.
                if write_value(&mut stream, reply).is_err() {
                    // Client vanished mid-reply; connection-scoped.
                    break;
                }
            }
            Err(e) => {
                // Framing failure (torn frame, oversized announcement,
                // transport error): answer if the pipe still works,
                // then drop the connection — it cannot be resynced.
                shared.protocol_error();
                let _ = write_value(&mut stream, Response::from_error(&e).to_value());
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_streams_have_nagle_off_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = ServeAddr::Tcp(listener.local_addr().unwrap().to_string());
        let mut client = Stream::connect(&addr).unwrap();
        let server = Listener::Tcp(listener).accept().unwrap();
        for (end, stream) in [("client", &client), ("server", &server)] {
            let Stream::Tcp(s) = stream else { panic!("{end} end is not TCP") };
            assert!(s.nodelay().unwrap(), "{end} end has Nagle on");
        }
        // A frame's parts leave in one call (the default `write_vectored`
        // would take only the first buffer).
        let parts = [IoSlice::new(b"len:"), IoSlice::new(b"payload")];
        assert_eq!(client.write_vectored(&parts).unwrap(), 11);
    }
}
