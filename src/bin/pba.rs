//! `pba` — command-line front end for parallel binary analysis.
//!
//! ```text
//! pba functions <elf> [options]         list functions with block/edge counts
//! pba blocks <elf> <function-name>      dump one function's blocks
//! pba struct <elf> [--stats] [options]  recover program structure (hpcstruct)
//! pba stats <elf> [options]             parse-work statistics
//! pba selftest [--funcs N] [options]    generate a binary and check ground truth
//! pba gen <out> [--funcs N] [--seed S]  write a synthetic test binary (S: decimal or 0x hex)
//! pba serve <addr> [--cap-mib N] [options]   run the analysis daemon
//! pba query <addr> <kind> [args] [--by-path] query a running daemon
//! pba topk <dir> <query-elf> [--k N]    offline corpus top-K (no daemon)
//!
//! query kinds:
//!   struct <elf>            program structure (one JSON line)
//!   features <elf>          feature index
//!   slice <elf> <entry>     jump-table slices of the function at <entry>
//!   similarity <a> <b>      cosine + Jaccard between two binaries
//!   ingest <elf>            fold the binary into the daemon's corpus index
//!   topk <elf> [--k N] [--exact]  top-K nearest corpus entries (LSH;
//!                           --exact = brute-force baseline)
//!   stats                   daemon counters + per-session stats
//!   evict [hash]            evict one session (or all)
//!   shutdown                stop the daemon
//!
//! options:
//!   --threads N                   worker threads (0 = all available; default 0)
//! ```
//!
//! A numeric option without a parsable value is a usage error (exit 2).
//!
//! `<addr>` is `unix:<path>`, `tcp:<host:port>`, a bare socket path, or
//! a bare `host:port`. A `query` ships the binary inline by default;
//! `--by-path` sends the (server-local) path instead, so the daemon
//! memory-maps the file itself.
//!
//! Every subcommand drives one [`Session`]: artifacts are parsed
//! lazily, memoized, and shared. `serve` lifts that across processes —
//! the daemon keeps sessions live in an LRU cache, so `query struct`
//! after `query functions` on the same file reuses the parse from
//! another client entirely. Errors flow out as [`pba::Error`] and are
//! mapped to exit codes exactly once, in `main`.

use pba::gen::{generate, GenConfig};
use pba::hpcstruct::PHASE_NAMES;
use pba::serve::{BinSpec, Client, Request, Response, ServeAddr, ServeConfig, Server};
use pba::{Error, Session, SessionConfig};
use std::collections::BTreeMap;
use std::io::{self, Write};

fn usage() -> ! {
    eprintln!(
        "usage:\n  pba functions <elf> [--threads N]\n  \
         pba blocks <elf> <name>\n  pba struct <elf> [--stats] [--threads N]\n  \
         pba stats <elf> [--threads N]\n  pba selftest [--funcs N]\n  \
         pba gen <out> [--funcs N] [--seed S]\n  \
         pba serve <addr> [--cap-mib N] [--threads N]\n  \
         pba query <addr> struct|features|slice|similarity|ingest|topk|stats|evict|shutdown \
         [args] [--k N] [--exact] [--by-path]\n  \
         pba topk <dir> <query-elf> [--k N]"
    );
    std::process::exit(2)
}

/// The value after `name`, parsed by `parse`, or `None` when the flag is
/// absent; a missing or unparsable value is a usage error.
fn flag_with<T>(args: &[String], name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let value = args.get(i + 1).map_or("", String::as_str);
    parse(value).or_else(|| {
        eprintln!("pba: {name} wants a number, got {value:?}");
        usage()
    })
}

fn flag(args: &[String], name: &str) -> Option<usize> {
    flag_with(args, name, |v| v.parse().ok())
}

/// Parse a `0x`-prefixed or decimal u64 (entry addresses, hashes).
fn parse_u64(s: &str) -> Result<u64, Error> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| Error::Protocol(format!("not a number: {s:?}")))
}

/// Why a subcommand stopped early: an analysis error, or a failed
/// write to stdout.
enum Stop {
    Error(Error),
    Stdout(io::Error),
}

impl From<Error> for Stop {
    fn from(e: Error) -> Stop {
        Stop::Error(e)
    }
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Stdout(e)
    }
}

/// One response, one line of JSON on stdout — greppable from scripts.
fn print_json<T: serde::Serialize>(out: &mut impl Write, msg: &T) -> Result<(), Stop> {
    let line = serde_json::to_string(msg).map_err(|e| Error::Protocol(e.to_string()))?;
    Ok(writeln!(out, "{line}")?)
}

/// The one JSON line `pba topk` prints: corpus size, exact-cosine
/// evaluations, and the best matches, score descending.
#[derive(serde::Serialize)]
struct TopkReport {
    corpus: u64,
    candidates: u64,
    hits: Vec<TopkHit>,
}

/// One `pba topk` match: the indexed file, its `content_hash`, and its
/// exact cosine similarity to the query.
#[derive(serde::Serialize)]
struct TopkHit {
    path: String,
    hash: u64,
    score: f64,
}

/// Build the one configuration surface from the command line.
fn config(args: &[String], name: &str) -> SessionConfig {
    let threads = flag(args, "--threads").unwrap_or(0); // 0 = all available
    SessionConfig::default().with_threads(threads).with_name(name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::BufWriter::new(io::stdout().lock());
    let result = run(&args, &mut out);
    let flushed = out.flush();
    // The single place errors become exit codes. A closed stdout is a
    // reader that has all it wanted (`pba ... | head`): a clean exit.
    let e = match result.and_then(|code| Ok(flushed.map(|()| code)?)) {
        Ok(code) => std::process::exit(code),
        Err(Stop::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(Stop::Stdout(e)) => Error::Write { path: "stdout".into(), message: e.to_string() },
        Err(Stop::Error(e)) => e,
    };
    eprintln!("pba: {e}");
    std::process::exit(e.exit_code())
}

fn run(args: &[String], out: &mut impl Write) -> Result<i32, Stop> {
    match args.first().map(String::as_str) {
        Some("functions") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let session = Session::open_path(path, config(args, path))?;
            let cfg = session.cfg()?;
            writeln!(out, "{:<40} {:>18} {:>7} {:>7}  status", "name", "entry", "blocks", "edges")?;
            for f in cfg.functions.values() {
                let edges: usize = f.blocks.iter().map(|b| cfg.out_edges(*b).len()).sum();
                writeln!(
                    out,
                    "{:<40} {:>#18x} {:>7} {:>7}  {:?}",
                    pba::elf::demangle::pretty_name(&f.name),
                    f.entry,
                    f.blocks.len(),
                    edges,
                    f.ret_status
                )?;
            }
            Ok(0)
        }
        Some("blocks") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let name = args.get(2).unwrap_or_else(|| usage());
            let session = Session::open_path(path, config(args, path))?;
            let cfg = session.cfg()?;
            let f = cfg
                .functions
                .values()
                .find(|f| {
                    f.name.contains(name.as_str())
                        || pba::elf::demangle::pretty_name(&f.name).contains(name.as_str())
                })
                .ok_or_else(|| Error::FunctionNotFound(name.clone()))?;
            writeln!(out, "{} at {:#x}:", f.name, f.entry)?;
            for &b in &f.blocks {
                let blk = &cfg.blocks[&b];
                writeln!(out, "  block [{:#x}, {:#x})", blk.start, blk.end)?;
                for i in cfg.code.insns(blk.start, blk.end) {
                    writeln!(out, "    {:#x}  {}", i.addr, i.mnemonic())?;
                }
                for e in cfg.out_edges(b) {
                    writeln!(out, "    -> {:#x} ({:?})", e.dst, e.kind)?;
                }
            }
            Ok(0)
        }
        Some("struct") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let session = Session::open_path(path, config(args, path))?;
            let hs = session.structure()?;
            write!(out, "{}", hs.text)?;
            eprintln!(
                "# {} functions, {} loops, {} statements in {:.1} ms",
                hs.structure.functions.len(),
                hs.structure.loop_count(),
                hs.structure.stmt_count(),
                hs.times.total() * 1e3
            );
            if args.iter().any(|a| a == "--stats") {
                // One machine-readable line (the same SessionStats the
                // daemon embeds in its responses), on stderr with the
                // summary so stdout stays the structure document.
                let line = serde_json::to_string(&session.stats())
                    .map_err(|e| Error::Protocol(e.to_string()))?;
                eprintln!("{line}");
                // A second line: the parser's work counters and its
                // phase times (`traverse_ns`, `sweep_ns`, `refine_ns`,
                // `finalize_ns`) — where a slow CFG parse went.
                let line = serde_json::to_string(&session.parse_stats()?)
                    .map_err(|e| Error::Protocol(e.to_string()))?;
                eprintln!("{line}");
                // A third line: the wall time of each of Figure 2's seven
                // hpcstruct phases, in seconds, keyed by phase name.
                let phases: BTreeMap<&str, f64> =
                    PHASE_NAMES.iter().copied().zip(hs.times.seconds).collect();
                let line =
                    serde_json::to_string(&phases).map_err(|e| Error::Protocol(e.to_string()))?;
                eprintln!("{line}");
            }
            Ok(0)
        }
        Some("stats") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let session = Session::open_path(path, config(args, path))?;
            let t = std::time::Instant::now();
            let cfg = session.cfg()?;
            let dt = t.elapsed().as_secs_f64();
            let s = session.parse_stats()?;
            let threads = session.config().effective_threads();
            writeln!(out, "parsed in {:.1} ms on {threads} threads", dt * 1e3)?;
            writeln!(out, "functions          {:>10}", cfg.functions.len())?;
            writeln!(out, "blocks             {:>10}", cfg.blocks.len())?;
            writeln!(out, "edges              {:>10}", cfg.edges().len())?;
            writeln!(out, "insns decoded      {:>10}", s.insns_decoded)?;
            writeln!(out, "cache hits         {:>10}", s.cache_hits)?;
            writeln!(out, "split iterations   {:>10}", s.split_iterations)?;
            writeln!(out, "noreturn waits     {:>10}", s.noreturn_waits)?;
            writeln!(out, "noreturn resumes   {:>10}", s.noreturn_resumes)?;
            writeln!(out, "jts bounded        {:>10}", s.jt_bounded)?;
            writeln!(out, "jts unbounded      {:>10}", s.jt_unbounded)?;
            writeln!(out, "jt edges clamped   {:>10}", s.jt_edges_clamped)?;
            writeln!(out, "tailcall flips     {:>10}", s.tailcall_flips)?;
            writeln!(out, "sweep walks        {:>10}", s.sweep_views)?;
            writeln!(out, "refine reanalyses  {:>10}", s.refine_reanalyses)?;
            writeln!(out, "jt slices          {:>10}", s.jt_slices)?;
            writeln!(out, "jt views           {:>10}", s.jt_views)?;
            for (phase, ns) in [
                ("traverse", s.traverse_ns),
                ("sweep", s.sweep_ns),
                ("refine", s.refine_ns),
                ("finalize", s.finalize_ns),
            ] {
                writeln!(out, "{:<18} {:>8.1}ms", format!("{phase} phase"), ns as f64 * 1e-6)?;
            }
            Ok(0)
        }
        Some("selftest") => {
            let funcs = flag(args, "--funcs").unwrap_or(64);
            let g = generate(&GenConfig { num_funcs: funcs, seed: 0x5E1F, ..Default::default() });
            let session = Session::open(g.elf.clone(), config(args, "selftest"));
            let cfg = session.cfg()?;
            let mut bad = 0;
            for f in &g.truth.functions {
                let ok = cfg
                    .functions
                    .get(&f.entry)
                    .map(|pf| {
                        let mut want = f.ranges.clone();
                        want.sort_unstable();
                        pf.ranges(cfg) == want
                    })
                    .unwrap_or(false);
                if !ok {
                    bad += 1;
                    eprintln!("mismatch: {} at {:#x}", f.name, f.entry);
                }
            }
            writeln!(
                out,
                "selftest: {}/{} functions exact",
                g.truth.functions.len() - bad,
                g.truth.functions.len()
            )?;
            Ok(if bad == 0 { 0 } else { 1 })
        }
        Some("gen") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            if path.starts_with('-') {
                // `pba gen --funcs 40` once wrote an ELF named `--funcs`.
                eprintln!(
                    "pba gen: output path {path:?} looks like an option (write ./{path} to mean it)"
                );
                usage();
            }
            let funcs = flag(args, "--funcs").unwrap_or(64);
            let seed = flag_with(args, "--seed", |v| parse_u64(v).ok()).unwrap_or(0x5E1F);
            let g = generate(&GenConfig { num_funcs: funcs, seed, ..Default::default() });
            let mut file = std::fs::File::create(path)
                .map_err(|e| Error::Create { path: path.clone(), message: e.to_string() })?;
            file.write_all(&g.elf)
                .map_err(|e| Error::Write { path: path.clone(), message: e.to_string() })?;
            eprintln!(
                "# wrote {path}: {} bytes, {} functions (seed {seed:#x})",
                g.elf.len(),
                g.truth.functions.len()
            );
            Ok(0)
        }
        Some("serve") => {
            let addr = args.get(1).unwrap_or_else(|| usage());
            let cap_mib = flag(args, "--cap-mib").unwrap_or(256);
            let server = Server::bind(
                &ServeAddr::parse(addr),
                ServeConfig { cap_bytes: cap_mib << 20, session: config(args, "serve") },
            )?;
            eprintln!("# pba daemon on {} (cache cap {cap_mib} MiB)", server.local_addr());
            let stats = server.run()?;
            // Lifetime counters as the daemon's last word, one JSON line.
            print_json(out, &stats)?;
            Ok(0)
        }
        Some("topk") => {
            // Offline corpus top-K: stream every file in <dir> through
            // an ephemeral session (features extracted in parallel on
            // the rayon pool, sessions dropped immediately — the same
            // one-resident-session discipline as daemon ingest), fold
            // into a banded-MinHash index, then query once.
            use rayon::prelude::*;
            let dir = args.get(1).unwrap_or_else(|| usage());
            let query_path = args.get(2).unwrap_or_else(|| usage());
            let k = flag(args, "--k").unwrap_or(5);
            let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| Error::Io { path: dir.clone(), message: e.to_string() })?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_file())
                .collect();
            files.sort();
            let per_file = config(args, "topk").with_threads(1);
            let extracted: Vec<(u64, String, pba::binfeat::FeatureIndex)> = files
                .par_iter()
                .filter_map(|p| {
                    let path = p.to_str()?.to_string();
                    let session = Session::open_path(&path, per_file.clone()).ok()?;
                    let hash = session.content_hash();
                    session.features().ok()?;
                    match session.into_features() {
                        Some(Ok(f)) => Some((hash, path, f.index)),
                        _ => None,
                    }
                })
                .collect();
            let mut index = pba::binfeat::CorpusIndex::default();
            let mut paths: Vec<(u64, String)> = Vec::new();
            for (hash, path, feats) in extracted {
                if index.insert(hash, feats) {
                    paths.push((hash, path));
                }
            }
            eprintln!(
                "# indexed {} of {} files in {dir} ({} KiB index)",
                index.len(),
                files.len(),
                index.heap_bytes() >> 10
            );
            let query = Session::open_path(query_path, config(args, query_path))?;
            query.features()?;
            let qf = match query.into_features() {
                Some(Ok(f)) => f.index,
                Some(Err(e)) => return Err(e.into()),
                None => return Err(Error::Protocol("query features unavailable".into()).into()),
            };
            let result = index.query_topk(&qf, k, None);
            let hits = result
                .hits
                .iter()
                .map(|h| {
                    let path = paths.iter().find(|(ph, _)| *ph == h.hash).map(|(_, p)| p.clone());
                    TopkHit { path: path.unwrap_or_default(), hash: h.hash, score: h.score }
                })
                .collect();
            print_json(
                out,
                &TopkReport { corpus: index.len() as u64, candidates: result.candidates, hits },
            )?;
            Ok(0)
        }
        Some("query") => {
            let addr = ServeAddr::parse(args.get(1).unwrap_or_else(|| usage()));
            let kind = args.get(2).unwrap_or_else(|| usage());
            let by_path = args.iter().any(|a| a == "--by-path");
            // A binary operand: inline bytes by default, server-local
            // path with --by-path (the daemon memory-maps it).
            let bin = |i: usize| -> Result<BinSpec, Error> {
                let p = args.get(i).unwrap_or_else(|| usage());
                if by_path {
                    return Ok(BinSpec::Path(p.clone()));
                }
                let bytes = std::fs::read(p)
                    .map_err(|e| Error::Io { path: p.clone(), message: e.to_string() })?;
                Ok(BinSpec::Bytes(bytes))
            };
            let req = match kind.as_str() {
                "struct" => Request::Struct { bin: bin(3)? },
                "features" => Request::Features { bin: bin(3)? },
                "slice" => Request::SliceFunc {
                    bin: bin(3)?,
                    entry: parse_u64(args.get(4).unwrap_or_else(|| usage()))?,
                },
                "similarity" => Request::Similarity { a: bin(3)?, b: bin(4)? },
                "ingest" => Request::CorpusIngest { bin: bin(3)? },
                "topk" => Request::CorpusTopk {
                    bin: bin(3)?,
                    k: flag(args, "--k").unwrap_or(5) as u64,
                    exact: args.iter().any(|a| a == "--exact"),
                },
                "stats" => Request::Stats,
                "evict" => Request::Evict {
                    hash: args
                        .get(3)
                        .filter(|a| !a.starts_with("--"))
                        .map(|h| parse_u64(h))
                        .transpose()?,
                },
                "shutdown" => Request::Shutdown,
                _ => usage(),
            };
            let reply = Client::connect(&addr)?.request(&req)?;
            if let Response::Error { code, message } = &reply {
                eprintln!("pba: server error: {message}");
                return Ok(*code);
            }
            print_json(out, &reply)?;
            Ok(0)
        }
        _ => usage(),
    }
}
