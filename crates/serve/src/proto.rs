//! The wire protocol: length-prefixed frames carrying typed
//! request/response enums as a JSON header and a raw byte tail.
//!
//! ## Frame layout
//!
//! Every message — in either direction — is one *frame*:
//!
//! ```text
//! +--------------+---------------------------+---------------------------+
//! | len: u32 BE  | header: one JSON value    | tail: inline operands'    |
//! |              | (UTF-8)                   | raw bytes, in header order|
//! +--------------+---------------------------+---------------------------+
//!                 \_____________________ len bytes _____________________/
//! ```
//!
//! The length prefix counts header and tail bytes and must not exceed
//! [`MAX_FRAME`]; a peer announcing a larger frame is answered with one
//! error frame and disconnected (the stream cannot be resynchronized
//! past a frame the server refuses to read). The header is UTF-8 JSON
//! in the serde-shim data model: a tagged object whose `"kind"` field
//! selects the [`Request`] / [`Response`] variant. The tail starts at
//! the byte after the header's last one — no separator, no whitespace —
//! and is empty unless the message ships a binary inline. A frame
//! without one is exactly its JSON text: every [`Response`] and the
//! `path` / `stats` / `evict` / `shutdown` requests.
//!
//! One write per frame, Nagle off: a frame leaves in one vectored
//! write (prefix, header and each operand together, none of them
//! copied behind another), and every TCP stream of the daemon and its
//! client has `TCP_NODELAY` set. A frame split into two writes with
//! Nagle on holds its payload back until the peer's delayed ACK of the
//! prefix — some 40 ms per direction on Linux. Neither setting is
//! configurable.
//!
//! Both enums derive their codec with
//! `#[serde(tag = "kind", rename_all = "snake_case")]`, so the tables
//! below are the derived shapes: `kind` (the variant name in
//! snake_case) comes first, then the variant's fields in declaration
//! order. An `Option` field (`hash?`) may be omitted and decodes as
//! `None`; unknown keys are ignored. Only [`BinSpec`] is hand-written,
//! because its wire form is untagged.
//!
//! ## Requests
//!
//! | `kind` | fields | meaning |
//! |---|---|---|
//! | `struct` | `bin` | program structure (hpcstruct) for `bin` |
//! | `features` | `bin` | forensic feature index for `bin` |
//! | `slice_func` | `bin`, `entry` | jump-table slices of the function at `entry` |
//! | `similarity` | `a`, `b` | cosine + Jaccard between two binaries |
//! | `corpus_ingest` | `bin` | extract features, fold into the corpus index, drop the session |
//! | `corpus_topk` | `bin`, `k`, `exact` | top-`k` corpus entries nearest `bin` (LSH, or brute force when `exact`) |
//! | `stats` | — | daemon-wide [`ServeStats`] + per-session stats |
//! | `evict` | `hash?` | evict one session (or all when `hash` is null) |
//! | `shutdown` | — | acknowledge, then stop the daemon |
//!
//! A binary operand ([`BinSpec`]) is either `{"path":"..."}` — a
//! *server-local* path the daemon opens itself (memory-mapped via
//! `ImageBytes`, so a resident session pins page cache, not heap) — or
//! `{"bytes":N}`, the image shipped inline as the next `N` bytes of the
//! tail. A two-operand `similarity` is
//! `{"kind":"similarity","a":{"bytes":3},"b":{"bytes":2}}` followed by
//! `a`'s three bytes, then `b`'s two.
//!
//! ## Byte strings and their errors
//!
//! The frame codec ([`write_message`] / [`decode_message`]) is the one
//! place that knows about the tail. On the way out, each
//! [`Value::Bytes`] in the message becomes `{"bytes":N}` in the header
//! and its bytes join the tail, in the order the header names them. On
//! the way in, every object whose only member is `bytes` holding an
//! unsigned integer `N` takes the next `N` tail bytes (one copy each)
//! as a [`Value::Bytes`], which [`BinSpec`] decodes as an inline image.
//! Each of these is an [`Error::Protocol`] for that frame alone — it
//! arrived whole, so the connection stays in sync and usable:
//!
//! - a header that is not one JSON value, or not UTF-8;
//! - a `{"bytes":N}` that runs past the end of the tail;
//! - tail bytes left over after the last operand;
//! - a `bytes` member that is not a tail length (negative, fractional,
//!   or the hex string an inline image once travelled as).
//!
//! ## Responses
//!
//! | `kind` | fields | answers |
//! |---|---|---|
//! | `corpus_ingest` | `ingested`, `hash`, `index_entries`, `index_bytes` | `corpus_ingest` (`ingested` false = `hash` was already indexed) |
//! | `corpus_topk` | `hit`, `exact`, `candidates`, `hits: [{hash, score}]` | `corpus_topk` (`candidates` = exact evaluations performed) |
//!
//! Analysis responses (`struct`, `features`, `slice_func`) carry `hit`
//! (whether the session cache already held the binary) and the served
//! session's [`SessionStats`] *after* the request — so a client can
//! assert the at-most-once artifact contract across processes: on the
//! second `struct` query for the same binary, `hit` is `true` and
//! `structure_builds` is still 1. Failures of any kind come back as one
//! `{"kind":"error","code":...,"message":...}` frame, where `code` is
//! the server-side [`Error::exit_code`] — the connection stays usable
//! after an analysis error or an undecodable frame, and is closed after
//! a framing error (an oversized announcement or a torn frame).

use pba_driver::{Error, SessionStats};
use serde::{Deserialize, Serialize, Value};
use std::io::{IoSlice, Read, Write};

/// Hard ceiling on a frame's payload size (64 MiB).
pub const MAX_FRAME: usize = 64 << 20;

/// A binary operand: shipped inline or named by server-local path.
#[derive(Debug, Clone, PartialEq)]
pub enum BinSpec {
    /// The raw ELF image, shipped in the frame's tail.
    Bytes(Vec<u8>),
    /// A path the *server* resolves and memory-maps.
    Path(String),
}

/// A client request (see the module docs for the wire shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Request {
    /// Program structure (the hpcstruct case study).
    Struct {
        /// The binary to analyze.
        bin: BinSpec,
    },
    /// The forensic feature index (the BinFeat case study).
    Features {
        /// The binary to analyze.
        bin: BinSpec,
    },
    /// Jump-table slices for every indirect jump of one function.
    SliceFunc {
        /// The binary to analyze.
        bin: BinSpec,
        /// Entry address of the function to slice.
        entry: u64,
    },
    /// Feature-vector similarity between two binaries.
    Similarity {
        /// First binary.
        a: BinSpec,
        /// Second binary.
        b: BinSpec,
    },
    /// Extract features from a binary and fold them into the corpus
    /// index under its `content_hash`; the session is dropped
    /// afterwards (ingestion never grows the session cache).
    CorpusIngest {
        /// The binary to index.
        bin: BinSpec,
    },
    /// Top-`k` corpus entries nearest to a query binary.
    CorpusTopk {
        /// The query binary (resolved through the session cache).
        bin: BinSpec,
        /// How many hits to return.
        k: u64,
        /// `true` = brute-force `rank_topk` over the whole corpus
        /// (exact baseline); `false` = LSH candidates only.
        exact: bool,
    },
    /// Daemon-wide counters plus per-resident-session stats.
    Stats,
    /// Evict one session by content hash, or all when `None`.
    Evict {
        /// Content hash of the session to drop (`None` = all).
        hash: Option<u64>,
    },
    /// Acknowledge, then stop the daemon.
    Shutdown,
}

/// One sliced indirect jump (a row of a `slice_func` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceJump {
    /// Address of the block whose terminator is the indirect jump.
    pub block: u64,
    /// Whether the path set widened (hit `MAX_PATHS`).
    pub widened: bool,
    /// Path facts reaching the jump.
    pub facts: u64,
    /// Facts whose expression matched a known jump-table form.
    pub classified: u64,
    /// Facts carrying a `cmp`+`jcc` index bound.
    pub bounded: u64,
}

/// One nearest-neighbour row of a `corpus_topk` response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopkHit {
    /// `content_hash` of the matching corpus entry.
    pub hash: u64,
    /// Exact cosine similarity to the query.
    pub score: f64,
}

/// Daemon-wide counters, served by [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Total requests decoded (including ones answered with errors).
    pub requests: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Analysis requests that found their session resident.
    pub cache_hits: u64,
    /// Analysis requests that had to open a new session.
    pub cache_misses: u64,
    /// Sessions evicted (LRU pressure and explicit `evict` combined).
    pub sessions_evicted: u64,
    /// Sessions currently resident.
    pub sessions_resident: u64,
    /// Summed `resident_bytes` of every resident session.
    pub resident_bytes: u64,
    /// Heap footprint of the corpus index (charged against the same
    /// byte budget as the session cache).
    pub index_bytes: u64,
    /// Distinct binaries in the corpus index.
    pub index_entries: u64,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
}

/// A server response (see the module docs for the wire shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Response {
    /// Answer to [`Request::Struct`].
    Struct {
        /// Session-cache hit?
        hit: bool,
        /// The served session's stats after this request.
        stats: SessionStats,
        /// The serialized structure document.
        text: String,
        /// Function count.
        functions: u64,
        /// Loop count.
        loops: u64,
        /// Statement count.
        stmts: u64,
    },
    /// Answer to [`Request::Features`].
    Features {
        /// Session-cache hit?
        hit: bool,
        /// The served session's stats after this request.
        stats: SessionStats,
        /// The feature index as `(feature hash, count)` pairs, sorted
        /// by hash so the wire form is deterministic.
        features: Vec<(u64, u64)>,
    },
    /// Answer to [`Request::SliceFunc`].
    SliceFunc {
        /// Session-cache hit?
        hit: bool,
        /// The served session's stats after this request.
        stats: SessionStats,
        /// One row per indirect jump of the function, by block address.
        jumps: Vec<SliceJump>,
    },
    /// Answer to [`Request::Similarity`].
    Similarity {
        /// Was `a` resident?
        hit_a: bool,
        /// Was `b` resident?
        hit_b: bool,
        /// Cosine similarity of the feature-count vectors.
        cosine: f64,
        /// Jaccard similarity of the feature sets.
        jaccard: f64,
    },
    /// Answer to [`Request::CorpusIngest`].
    CorpusIngest {
        /// False when the binary's `content_hash` was already indexed
        /// (ingestion is idempotent).
        ingested: bool,
        /// The binary's `content_hash` (its corpus key).
        hash: u64,
        /// Distinct binaries indexed after this request.
        index_entries: u64,
        /// Index heap footprint after this request.
        index_bytes: u64,
    },
    /// Answer to [`Request::CorpusTopk`].
    CorpusTopk {
        /// Was the *query* session resident?
        hit: bool,
        /// Whether this was the brute-force path.
        exact: bool,
        /// Corpus entries scored with exact cosine (the whole corpus
        /// when `exact`, the LSH bucket collisions otherwise).
        candidates: u64,
        /// Best matches, score descending.
        hits: Vec<TopkHit>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Daemon-wide counters.
        serve: ServeStats,
        /// `(content hash, stats)` per resident session, MRU last.
        sessions: Vec<(u64, SessionStats)>,
    },
    /// Answer to [`Request::Evict`].
    Evicted {
        /// Sessions dropped.
        sessions: u64,
    },
    /// Shutdown acknowledged; the daemon stops accepting.
    Shutdown,
    /// Any failure, analysis or protocol.
    Error {
        /// The server-side [`Error::exit_code`].
        code: i32,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// The error frame for an analysis/protocol failure.
    pub fn from_error(e: &Error) -> Response {
        Response::Error { code: e.exit_code(), message: e.to_string() }
    }
}

// ---------------------------------------------------------------------
// Hex helpers. Inline binaries no longer travel as hex; these stay only
// because the benchmark suite (`suite/src/wl_serve.rs`) still times
// them, and go with its next edit.

/// Lower-case hex encoding (not on the wire; see above).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

/// Strict hex decoding (even length, [0-9a-fA-F] only; not on the
/// wire).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, serde::Error> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(serde::Error("odd-length hex string".into()));
    }
    let nib = |b: u8| -> Result<u8, serde::Error> {
        (b as char)
            .to_digit(16)
            .map(|d| d as u8)
            .ok_or_else(|| serde::Error(format!("invalid hex digit {:?}", b as char)))
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for p in bytes.chunks_exact(2) {
        out.push(nib(p[0])? << 4 | nib(p[1])?);
    }
    Ok(out)
}

// The binary operand keeps a hand-written codec: its wire form is
// untagged, a one-key `path` object or a byte string.

impl Serialize for BinSpec {
    fn to_value(&self) -> Value {
        match self {
            BinSpec::Bytes(b) => Value::Bytes(b.clone()),
            BinSpec::Path(p) => Value::Object(vec![("path".to_string(), Value::Str(p.clone()))]),
        }
    }
}

impl Deserialize for BinSpec {
    fn from_value(v: Value) -> Result<Self, serde::Error> {
        match v {
            Value::Bytes(b) => Ok(BinSpec::Bytes(b)),
            mut v => serde::__field(&mut v, "path").map(BinSpec::Path).map_err(|_| {
                serde::Error("binary operand needs `path`, or `bytes` with a tail length".into())
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Framing.

/// Serialize a message and write it as one frame: its JSON header, then
/// the bytes of each [`Value::Bytes`] in it, in header order (see the
/// module docs), all in one vectored write as [`write_frame`] does.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), Error> {
    let mut value = msg.to_value();
    let mut tail = Vec::new();
    detach_tail(&mut value, &mut tail);
    let header = serde_json::to_string(&value).map_err(|e| Error::Protocol(e.to_string()))?;
    let mut parts = Vec::with_capacity(1 + tail.len());
    parts.push(header.as_bytes());
    parts.extend(tail.iter().map(Vec::as_slice));
    write_parts(w, &parts)
}

/// Move every byte string out of `v` into `tail`, in the order the
/// header text will name them, leaving `{"bytes":N}` in its place.
fn detach_tail(v: &mut Value, tail: &mut Vec<Vec<u8>>) {
    match v {
        Value::Bytes(b) => {
            let bytes = std::mem::take(b);
            *v = Value::Object(vec![("bytes".into(), Value::U64(bytes.len() as u64))]);
            tail.push(bytes);
        }
        Value::Array(items) => items.iter_mut().for_each(|item| detach_tail(item, tail)),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, f)| detach_tail(f, tail)),
        _ => {}
    }
}

/// Give each `{"bytes":N}` in `v` the next `N` bytes of `tail`, in
/// header order, copying each slice once; `tail` is left holding what
/// no operand claimed.
fn attach_tail(v: &mut Value, tail: &mut &[u8]) -> Result<(), Error> {
    match v {
        Value::Object(fields) => match &fields[..] {
            [(key, Value::U64(n))] if key == "bytes" => {
                let (bytes, rest) = usize::try_from(*n)
                    .ok()
                    .and_then(|n| tail.split_at_checked(n))
                    .ok_or_else(|| {
                        Error::Protocol(format!(
                            "operand of {n} bytes runs past the frame's tail ({} bytes left)",
                            tail.len()
                        ))
                    })?;
                *v = Value::Bytes(bytes.to_vec());
                *tail = rest;
            }
            _ => fields.iter_mut().try_for_each(|(_, f)| attach_tail(f, tail))?,
        },
        Value::Array(items) => items.iter_mut().try_for_each(|item| attach_tail(item, tail))?,
        _ => {}
    }
    Ok(())
}

/// Write one length-prefixed frame whose payload is `payload` as is.
///
/// The length prefix and the payload leave in one vectored write, so a
/// sink that takes the whole frame sees exactly one `write_vectored`
/// call (one `writev` on a socket) and the payload is never copied
/// behind its prefix (see the module docs for why). A short write
/// resumes where the sink stopped.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), Error> {
    write_parts(w, &[payload])
}

/// Write one frame whose payload is `parts`, back to back, in one
/// vectored write behind the length prefix.
fn write_parts(w: &mut impl Write, parts: &[&[u8]]) -> Result<(), Error> {
    let n = parts.iter().fold(0usize, |n, p| n.saturating_add(p.len()));
    if n > MAX_FRAME {
        return Err(Error::Protocol(format!("frame of {n} bytes exceeds MAX_FRAME")));
    }
    let len = (n as u32).to_be_bytes();
    let mut bufs: Vec<IoSlice<'_>> =
        std::iter::once(&len[..]).chain(parts.iter().copied()).map(IoSlice::new).collect();
    write_all_vectored(w, &mut bufs)
        .and_then(|()| w.flush())
        .map_err(|e| Error::Protocol(format!("write failed: {e}")))
}

/// `write_all` over several buffers (std's `write_all_vectored` is
/// unstable): one `write_vectored` call per attempt, resuming after a
/// short write.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame. Returns `Ok(None)` on a clean close (EOF before the
/// first length byte, or `keep_waiting` returning false on a read
/// timeout); every other failure — EOF mid-frame, an oversized length
/// prefix, a transport error — is [`Error::Protocol`].
pub fn read_frame_with(
    r: &mut impl Read,
    keep_waiting: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>, Error> {
    let mut len = [0u8; 4];
    if !read_full(r, &mut len, true, &keep_waiting)? {
        return Ok(None);
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(Error::Protocol(format!("announced frame of {n} bytes exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; n];
    if !read_full(r, &mut payload, false, &keep_waiting)? {
        return Ok(None);
    }
    Ok(Some(payload))
}

/// Read one frame, blocking until it arrives or the stream closes.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, Error> {
    read_frame_with(r, || true)
}

/// Read a message of the given type from one frame. `Ok(None)` on clean
/// close.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, Error> {
    let Some(payload) = read_frame(r)? else { return Ok(None) };
    decode_message(&payload).map(Some)
}

/// Decode one frame payload — JSON header, then the tail — into a typed
/// message (see the module docs for the errors).
pub fn decode_message<T: Deserialize>(payload: &[u8]) -> Result<T, Error> {
    let protocol = |e: serde::Error| Error::Protocol(e.to_string());
    let (mut value, header_len) =
        serde_json::from_slice_prefix::<Value>(payload).map_err(protocol)?;
    let mut tail = &payload[header_len..];
    attach_tail(&mut value, &mut tail)?;
    if !tail.is_empty() {
        return Err(Error::Protocol(format!(
            "{} bytes left in the frame's tail after its last operand",
            tail.len()
        )));
    }
    T::from_value(value).map_err(protocol)
}

/// Fill `buf`, tolerating read timeouts while `keep_waiting()` holds.
/// Returns false on a clean stop (EOF at a frame boundary when
/// `eof_is_clean`, or `keep_waiting` declining while nothing of this
/// buffer has arrived yet... once bytes are in flight, a stop would
/// desynchronize the stream, so only EOF can end it, as an error).
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_is_clean: bool,
    keep_waiting: &impl Fn() -> bool,
) -> Result<bool, Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && eof_is_clean {
                    Ok(false)
                } else {
                    Err(Error::Protocol(format!(
                        "connection closed mid-frame ({filled} of {} bytes)",
                        buf.len()
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_waiting() {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Protocol(format!("read failed: {e}"))),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `msg` as a frame and decodes it back.
    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) {
        let mut frame = Vec::new();
        write_message(&mut frame, msg).unwrap();
        let back: T = decode_message(&frame[4..]).unwrap();
        assert_eq!(&back, msg, "wire round trip of {:?}", String::from_utf8_lossy(&frame));
    }

    #[test]
    fn hex_round_trips() {
        assert_eq!(hex_encode(&[0x00, 0x7f, 0xff]), "007fff");
        assert_eq!(hex_decode("007fff").unwrap(), vec![0x00, 0x7f, 0xff]);
        assert_eq!(hex_decode("ABcd").unwrap(), vec![0xab, 0xcd]);
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "bad digit");
        assert!(hex_decode("").unwrap().is_empty());
    }

    #[test]
    fn request_wire_round_trips() {
        round_trip(&Request::Struct { bin: BinSpec::Bytes(vec![1, 2, 3]) });
        round_trip(&Request::Features { bin: BinSpec::Path("/bin/true".into()) });
        round_trip(&Request::SliceFunc { bin: BinSpec::Bytes(vec![0xde, 0xad]), entry: 0x401000 });
        round_trip(&Request::Similarity {
            a: BinSpec::Path("/a".into()),
            b: BinSpec::Bytes(vec![9]),
        });
        round_trip(&Request::Similarity {
            a: BinSpec::Bytes(vec![0x00, 0xff]),
            b: BinSpec::Path("/b".into()),
        });
        round_trip(&Request::Similarity { a: BinSpec::Bytes(vec![]), b: BinSpec::Bytes(vec![9]) });
        round_trip(&Request::CorpusIngest { bin: BinSpec::Path("/corp/a".into()) });
        round_trip(&Request::CorpusTopk { bin: BinSpec::Bytes(vec![0xaa]), k: 5, exact: false });
        round_trip(&Request::CorpusTopk { bin: BinSpec::Path("/q".into()), k: 1, exact: true });
        round_trip(&Request::Stats);
        round_trip(&Request::Evict { hash: Some(42) });
        round_trip(&Request::Evict { hash: None });
        round_trip(&Request::Shutdown);
    }

    #[test]
    fn response_wire_round_trips() {
        let stats = SessionStats { cfg_parses: 1, structure_builds: 1, ..Default::default() };
        round_trip(&Response::Struct {
            hit: true,
            stats,
            text: "Module \"x\"\n".into(),
            functions: 3,
            loops: 1,
            stmts: 17,
        });
        round_trip(&Response::Features { hit: false, stats, features: vec![(7, 2), (9, 1)] });
        round_trip(&Response::SliceFunc {
            hit: true,
            stats,
            jumps: vec![SliceJump {
                block: 0x40,
                widened: false,
                facts: 2,
                classified: 1,
                bounded: 1,
            }],
        });
        round_trip(&Response::Similarity { hit_a: true, hit_b: false, cosine: 0.5, jaccard: 0.25 });
        round_trip(&Response::CorpusIngest {
            ingested: true,
            hash: 0xABCD,
            index_entries: 3,
            index_bytes: 4096,
        });
        round_trip(&Response::CorpusTopk {
            hit: false,
            exact: false,
            candidates: 12,
            hits: vec![TopkHit { hash: 7, score: 0.75 }, TopkHit { hash: 9, score: 0.5 }],
        });
        round_trip(&Response::Stats {
            serve: ServeStats {
                requests: 10,
                cache_hits: 6,
                index_entries: 2,
                ..Default::default()
            },
            sessions: vec![(0xfeed, stats)],
        });
        round_trip(&Response::Evicted { sessions: 2 });
        round_trip(&Response::Shutdown);
        round_trip(&Response::Error { code: 65, message: "bad magic".into() });
    }

    /// Pins a message's exact wire text (generated at the parent of the
    /// derived codec): encoding must produce `text` byte for byte, and
    /// `text` must decode back to `msg`.
    fn pinned<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: T, text: &str) {
        assert_eq!(serde_json::to_string(&msg).unwrap(), text);
        assert_eq!(serde_json::from_str::<T>(text).unwrap(), msg, "decode of {text}");
    }

    /// Pins a message that ships binaries inline: the frame is the
    /// length prefix, the JSON `header`, then `tail`, and it decodes back
    /// to `msg`.
    fn pinned_frame(msg: Request, header: &str, tail: &[u8]) {
        let mut frame = Vec::new();
        write_message(&mut frame, &msg).unwrap();
        let mut want = ((header.len() + tail.len()) as u32).to_be_bytes().to_vec();
        want.extend_from_slice(header.as_bytes());
        want.extend_from_slice(tail);
        assert_eq!(frame, want, "frame of {header}");
        assert_eq!(decode_message::<Request>(&frame[4..]).unwrap(), msg, "decode of {header}");
    }

    #[test]
    fn request_wire_text_is_pinned() {
        pinned_frame(
            Request::Struct { bin: BinSpec::Bytes(vec![0x7f, 0x45]) },
            r#"{"kind":"struct","bin":{"bytes":2}}"#,
            &[0x7f, 0x45],
        );
        pinned(
            Request::Features { bin: BinSpec::Path("/bin/true".into()) },
            r#"{"kind":"features","bin":{"path":"/bin/true"}}"#,
        );
        pinned_frame(
            Request::SliceFunc { bin: BinSpec::Bytes(vec![0xde, 0xad]), entry: 0x401000 },
            r#"{"kind":"slice_func","bin":{"bytes":2},"entry":4198400}"#,
            &[0xde, 0xad],
        );
        pinned_frame(
            Request::Similarity { a: BinSpec::Path("/a".into()), b: BinSpec::Bytes(vec![9]) },
            r#"{"kind":"similarity","a":{"path":"/a"},"b":{"bytes":1}}"#,
            &[0x09],
        );
        pinned(
            Request::CorpusIngest { bin: BinSpec::Path("/corp/a".into()) },
            r#"{"kind":"corpus_ingest","bin":{"path":"/corp/a"}}"#,
        );
        pinned_frame(
            Request::CorpusTopk { bin: BinSpec::Bytes(vec![0xaa]), k: 5, exact: true },
            r#"{"kind":"corpus_topk","bin":{"bytes":1},"k":5,"exact":true}"#,
            &[0xaa],
        );
        pinned(Request::Stats, r#"{"kind":"stats"}"#);
        pinned(Request::Evict { hash: Some(42) }, r#"{"kind":"evict","hash":42}"#);
        pinned(Request::Evict { hash: None }, r#"{"kind":"evict","hash":null}"#);
        pinned(Request::Shutdown, r#"{"kind":"shutdown"}"#);
    }

    #[test]
    fn response_wire_text_is_pinned() {
        let stats = SessionStats {
            cfg_parses: 1,
            structure_builds: 1,
            resident_bytes: 4096,
            ..Default::default()
        };
        let stats_text = r#"{"elf_parses":0,"dwarf_decodes":0,"cfg_parses":1,"ir_builds":0,"dataflow_runs":0,"structure_builds":1,"feature_builds":0,"loop_forests":0,"resident_bytes":4096}"#;
        pinned(
            Response::Struct {
                hit: true,
                stats,
                text: "Module \"x\"\n".into(),
                functions: 3,
                loops: 1,
                stmts: 17,
            },
            &format!(
                r#"{{"kind":"struct","hit":true,"stats":{stats_text},"text":"Module \"x\"\n","functions":3,"loops":1,"stmts":17}}"#
            ),
        );
        pinned(
            Response::Features { hit: false, stats, features: vec![(7, 2), (9, 1)] },
            &format!(
                r#"{{"kind":"features","hit":false,"stats":{stats_text},"features":[[7,2],[9,1]]}}"#
            ),
        );
        pinned(
            Response::SliceFunc {
                hit: true,
                stats,
                jumps: vec![SliceJump {
                    block: 0x40,
                    widened: false,
                    facts: 2,
                    classified: 1,
                    bounded: 1,
                }],
            },
            &format!(
                r#"{{"kind":"slice_func","hit":true,"stats":{stats_text},"jumps":[{{"block":64,"widened":false,"facts":2,"classified":1,"bounded":1}}]}}"#
            ),
        );
        pinned(
            Response::Similarity { hit_a: true, hit_b: false, cosine: 1.0, jaccard: 0.25 },
            r#"{"kind":"similarity","hit_a":true,"hit_b":false,"cosine":1.0,"jaccard":0.25}"#,
        );
        pinned(
            Response::CorpusIngest {
                ingested: true,
                hash: 0xABCD,
                index_entries: 3,
                index_bytes: 4096,
            },
            r#"{"kind":"corpus_ingest","ingested":true,"hash":43981,"index_entries":3,"index_bytes":4096}"#,
        );
        pinned(
            Response::CorpusTopk {
                hit: false,
                exact: false,
                candidates: 12,
                hits: vec![TopkHit { hash: 7, score: 0.75 }],
            },
            r#"{"kind":"corpus_topk","hit":false,"exact":false,"candidates":12,"hits":[{"hash":7,"score":0.75}]}"#,
        );
        pinned(
            Response::Stats {
                serve: ServeStats {
                    requests: 10,
                    cache_hits: 6,
                    index_entries: 2,
                    ..Default::default()
                },
                sessions: vec![(0xfeed, stats)],
            },
            &format!(
                r#"{{"kind":"stats","serve":{{"requests":10,"errors":0,"cache_hits":6,"cache_misses":0,"sessions_evicted":0,"sessions_resident":0,"resident_bytes":0,"index_bytes":0,"index_entries":2,"connections":0}},"sessions":[[65261,{stats_text}]]}}"#
            ),
        );
        pinned(Response::Evicted { sessions: 2 }, r#"{"kind":"evicted","sessions":2}"#);
        pinned(Response::Shutdown, r#"{"kind":"shutdown"}"#);
        pinned(
            Response::Error { code: -76, message: "bad magic".into() },
            r#"{"kind":"error","code":-76,"message":"bad magic"}"#,
        );
    }

    #[test]
    fn error_response_carries_exit_code() {
        let e = Error::Protocol("torn frame".into());
        let r = Response::from_error(&e);
        assert_eq!(r, Response::Error { code: 76, message: "protocol error: torn frame".into() });
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats).unwrap();
        write_message(&mut buf, &Request::Shutdown).unwrap();
        let mut r = &buf[..];
        let a: Request = read_message(&mut r).unwrap().unwrap();
        let b: Request = read_message(&mut r).unwrap().unwrap();
        assert_eq!(a, Request::Stats);
        assert_eq!(b, Request::Shutdown);
        assert!(read_message::<Request>(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// A sink that takes every write whole and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_with_unchanged_bytes() {
        for payload in [&b""[..], b"{}", &[b'x'; 150_000]] {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes, 1, "{} payload bytes", payload.len());
            let mut want = (payload.len() as u32).to_be_bytes().to_vec();
            want.extend_from_slice(payload);
            assert_eq!(sink.bytes, want);
        }
        let one = Request::Struct { bin: BinSpec::Bytes(vec![0x7f; 4096]) };
        let two = Request::Similarity {
            a: BinSpec::Bytes(vec![0x01; 3000]),
            b: BinSpec::Bytes(vec![0x02; 5000]),
        };
        for (msg, header, tail) in [
            (&one, r#"{"kind":"struct","bin":{"bytes":4096}}"#, vec![0x7f; 4096]),
            (
                &two,
                r#"{"kind":"similarity","a":{"bytes":3000},"b":{"bytes":5000}}"#,
                [vec![0x01; 3000], vec![0x02; 5000]].concat(),
            ),
        ] {
            let mut sink = CountingSink::default();
            write_message(&mut sink, msg).unwrap();
            assert_eq!(sink.writes, 1, "{header}");
            assert_eq!(&sink.bytes[..4], &((header.len() + tail.len()) as u32).to_be_bytes());
            assert_eq!(&sink.bytes[4..4 + header.len()], header.as_bytes());
            assert_eq!(&sink.bytes[4 + header.len()..], &tail[..]);
        }
    }

    #[test]
    fn a_frame_without_inline_bytes_is_its_json_text() {
        fn check<T: Serialize>(msg: &T) {
            let json = serde_json::to_string(msg).unwrap();
            let mut frame = Vec::new();
            write_message(&mut frame, msg).unwrap();
            assert_eq!(&frame[..4], &(json.len() as u32).to_be_bytes());
            assert_eq!(&frame[4..], json.as_bytes());
        }
        check(&Request::Features { bin: BinSpec::Path("/x".into()) });
        check(&Request::Stats);
        check(&Request::Evict { hash: None });
        check(&Request::Shutdown);
        let stats = SessionStats::default();
        check(&Response::Features { hit: true, stats, features: vec![(1, 2)] });
        check(&Response::Error { code: 76, message: "x".into() });
    }

    /// A sink that takes at most three bytes per call.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_resume_where_the_sink_stopped() {
        let mut sink = Trickle(Vec::new());
        write_message(&mut sink, &Request::Stats).unwrap();
        let mut r = &sink.0[..];
        assert_eq!(read_message::<Request>(&mut r).unwrap(), Some(Request::Stats));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_frame_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Stats).unwrap();
        buf.truncate(buf.len() - 1);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(Error::Protocol(_))));
        // EOF inside the length prefix is also mid-frame, not clean.
        let mut r = &[0u8, 0][..];
        assert!(matches!(read_frame(&mut r), Err(Error::Protocol(_))));
    }

    #[test]
    fn oversized_announcement_is_rejected_without_allocating() {
        let len = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &len[..];
        match read_frame(&mut r) {
            Err(Error::Protocol(msg)) => assert!(msg.contains("MAX_FRAME"), "{msg}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_payload_is_a_protocol_error() {
        assert!(matches!(decode_message::<Request>(b"not json"), Err(Error::Protocol(_))));
        assert!(matches!(
            decode_message::<Request>(b"{\"kind\":\"nope\"}"),
            Err(Error::Protocol(_))
        ));
        assert!(matches!(decode_message::<Request>(&[0xff, 0xfe]), Err(Error::Protocol(_))));
    }

    #[test]
    fn missing_option_is_none_and_missing_field_is_named() {
        let evict = decode_message::<Request>(br#"{"kind":"evict"}"#).unwrap();
        assert_eq!(evict, Request::Evict { hash: None });
        for (payload, want) in [
            (&br#"{"kind":"slice_func","bin":{"path":"/x"}}"#[..], "missing field `entry`"),
            (br#"{"bin":{"path":"/x"}}"#, "missing field `kind`"),
            (br#"{"kind":"nope"}"#, r#"unknown Request kind "nope""#),
        ] {
            match decode_message::<Request>(payload) {
                Err(Error::Protocol(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("expected protocol error, got {other:?}"),
            }
        }
    }

    /// `header` then `tail` as one frame payload.
    fn payload(header: &str, tail: &[u8]) -> Vec<u8> {
        [header.as_bytes(), tail].concat()
    }

    /// Decoding `payload` fails with a protocol error whose message
    /// contains `want`.
    fn refused(payload: &[u8], want: &str) {
        match decode_message::<Request>(payload) {
            Err(Error::Protocol(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected protocol error containing {want:?}, got {other:?}"),
        }
    }

    #[test]
    fn hostile_tails_are_protocol_errors() {
        let header = |n: &str| format!(r#"{{"kind":"struct","bin":{{"bytes":{n}}}}}"#);
        // A short tail, and a length past every tail (no allocation:
        // the length is checked before anything is copied).
        refused(&payload(&header("3"), &[0x7f, 0x45]), "runs past the frame's tail");
        refused(&payload(&header("18446744073709551615"), b"x"), "runs past the frame's tail");
        // Bytes left over, after an operand and after a header that
        // claims none.
        refused(&payload(&header("1"), &[0x7f, 0x45]), "1 bytes left in the frame's tail");
        refused(&payload(r#"{"kind":"stats"}"#, b"\x00\xff"), "2 bytes left in the frame's tail");
        refused(&payload(r#"{"kind":"stats"}"#, b" "), "1 bytes left in the frame's tail");
        // A `bytes` member that is not a tail length, the old hex form
        // included: it claims no tail, and names no binary.
        for n in ["-1", "1.5", r#""7f45""#] {
            refused(&payload(&header(n), &[0x7f, 0x45]), "2 bytes left in the frame's tail");
            refused(&payload(&header(n), &[]), "binary operand needs");
        }
    }

    #[test]
    fn a_header_must_be_whole_utf8_json() {
        // Not UTF-8, inside a string and outside one.
        refused(b"{\"kind\":\"struct\",\"bin\":{\"path\":\"\xff\"}}", "invalid UTF-8");
        refused(b"{\"kind\":\"stats\"\xff}", "bad object");
        refused(b"\xff{\"kind\":\"stats\"}", "bad number");
        // A header cut short runs into its tail, which is not JSON.
        let whole = payload(r#"{"kind":"struct","bin":{"bytes":2}}"#, &[0x7f, 0x45]);
        for cut in [1, 10, 20, 33] {
            let torn = [&whole[..cut], &[0xff, 0x7f, 0x45][..]].concat();
            assert!(
                matches!(decode_message::<Request>(&torn), Err(Error::Protocol(_))),
                "header cut at {cut}"
            );
        }
        refused(&payload(r#"{"kind":"str"#, b"\x7f\x45"), "unterminated string");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn two_arbitrary_operands_round_trip(
            a in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            b in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
        ) {
            let msg = Request::Similarity { a: BinSpec::Bytes(a.clone()), b: BinSpec::Bytes(b.clone()) };
            let mut frame = Vec::new();
            write_message(&mut frame, &msg).unwrap();
            proptest::prop_assert!(frame.ends_with(&[a, b].concat()));
            proptest::prop_assert_eq!(decode_message::<Request>(&frame[4..]).unwrap(), msg);
        }
    }
}
