//! `pba-serve` — the analysis daemon: session-caching server plus the
//! framed client protocol (`pba serve` / `pba query`).
//!
//! The paper parallelizes binary analysis *within* one invocation; this
//! crate amortizes it *across* invocations. A long-lived daemon holds a
//! keyed map of live [`pba_driver::Session`]s — `content_hash →
//! Arc<Session>` behind an LRU bounded by summed
//! [`pba_driver::SessionStats::resident_bytes`] — and serves concurrent
//! clients over a length-prefixed framed protocol. Repeated queries
//! against the same binary hit memoized artifacts across *processes*,
//! not just within one: the second `struct` query for a binary
//! recomputes nothing, from any client, and the response's embedded
//! `SessionStats` proves it.
//!
//! Beside the session cache lives a [`pba_binfeat::CorpusIndex`] — a
//! banded-MinHash (LSH) index fed by `corpus_ingest` and queried by
//! `corpus_topk`, answering "top-K nearest binaries" with exact cosine
//! over a candidate set ≪ N. Ingestion is streaming: each binary's
//! features are extracted in an ephemeral session that is dropped
//! before the reply, so the corpus never becomes resident; the index's
//! own `heap_bytes()` is charged against the same byte budget as the
//! session LRU and reported by `stats` (`index_bytes`,
//! `index_entries`).
//!
//! The architecture is the classic server / adapter / handler split:
//!
//! * [`proto`] — the wire format: 4-byte big-endian length prefix, a
//!   JSON header, then the raw bytes of any binary shipped inline;
//!   typed [`proto::Request`] / [`proto::Response`] enums (full frame
//!   layout, error cases and field tables in the module docs);
//! * [`cache`] — [`cache::SessionCache`], the LRU of live sessions;
//! * [`handler`] — [`handler::ServeShared`], the pure
//!   `Request → Response` core (drivable without a socket);
//! * [`server`] — [`server::Server`]: Unix-socket or TCP listener, one
//!   thread per connection, requests dispatched on the rayon-shim
//!   pool, connection-scoped failure (error frames, never daemon
//!   death);
//! * [`client`] — [`client::Client`]: connect + framed round trips.
//!
//! ```no_run
//! use pba_serve::{Client, Request, BinSpec, Server, ServeAddr, ServeConfig};
//!
//! let server = Server::bind(&ServeAddr::parse("127.0.0.1:0"), ServeConfig::default()).unwrap();
//! let handle = server.spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client
//!     .request(&Request::Struct { bin: BinSpec::Path("/bin/true".into()) })
//!     .unwrap();
//! drop(reply);
//! handle.stop().unwrap();
//! ```

pub mod cache;
pub mod client;
pub mod handler;
pub mod proto;
pub mod server;

pub use cache::{Cached, SessionCache};
pub use client::Client;
pub use handler::{slice_function, sorted_features, ServeShared};
pub use proto::{BinSpec, Request, Response, ServeStats, SliceJump, TopkHit, MAX_FRAME};
pub use server::{ServeAddr, ServeConfig, Server, ServerHandle};
