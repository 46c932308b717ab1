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
fn gen_reads_a_hex_seed_as_hex() {
    let dir = scratch("gen-hex-seed");
    let out = pba(&dir, &["gen", "hex.elf", "--funcs", "8", "--seed", "0x10"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("(seed 0x10)"));
    assert!(pba(&dir, &["gen", "dec.elf", "--funcs", "8", "--seed", "16"]).status.success());
    let hex = std::fs::read(dir.join("hex.elf")).unwrap();
    assert_eq!(hex, std::fs::read(dir.join("dec.elf")).unwrap(), "0x10 is 16");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A numeric flag whose value does not parse is a usage error, not a
/// silent fall back to the default.
#[test]
fn an_unparsable_number_is_a_usage_error() {
    let dir = scratch("bad-number");
    let out = pba(&dir, &["gen", "a.elf", "--funcs", "eight"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--funcs wants a number, got \"eight\""), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing written");

    assert!(pba(&dir, &["gen", "a.elf", "--funcs", "8"]).status.success());
    let out = pba(&dir, &["stats", "a.elf", "--threads", "two"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--threads wants a number"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing parsed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn selftest_finds_every_function_exact() {
    let dir = scratch("selftest");
    let out = pba(&dir, &["selftest"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.lines().any(|l| l == "selftest: 64/64 functions exact"), "{stdout}");
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
    assert_eq!(json.len(), 3, "{stderr}");
    assert!(json[0].contains("\"cfg_parses\":1"), "{}", json[0]);
    for field in ["traverse_ns", "sweep_ns", "refine_ns", "finalize_ns", "sweep_views"] {
        assert!(json[1].contains(&format!("\"{field}\":")), "{field} missing: {}", json[1]);
    }
    for field in ["refine_reanalyses", "jt_slices", "jt_views"] {
        assert!(json[1].contains(&format!("\"{field}\":")), "{field} missing: {}", json[1]);
    }
    // The third line: seconds per hpcstruct phase, Figure 2's seven.
    for name in pba::hpcstruct::PHASE_NAMES {
        assert!(json[2].contains(&format!("\"{name}\":")), "{name} missing: {}", json[2]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_prints_the_jump_table_work_counters() {
    let dir = scratch("stats");
    assert!(pba(&dir, &["gen", "a.elf", "--funcs", "24", "--seed", "7"]).status.success());
    let out = pba(&dir, &["stats", "a.elf", "--threads", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count = |label: &str| -> u64 {
        let line = stdout.lines().find(|l| l.starts_with(label)).expect(label);
        line[label.len()..].trim().parse().expect(label)
    };
    assert!(count("jt slices") > 0, "{stdout}");
    assert!(count("jt views") > 0, "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `pba` with its stdout on `/dev/full`, where every write fails
/// with "no space left on device".
fn pba_into_full_device(dir: &PathBuf, args: &[&str]) -> Output {
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
    Command::new(env!("CARGO_BIN_EXE_pba"))
        .current_dir(dir)
        .args(args)
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .unwrap()
}

#[test]
fn a_failed_write_to_stdout_is_an_output_error() {
    let dir = scratch("stdout-full");
    assert!(pba(&dir, &["gen", "a.elf", "--funcs", "8"]).status.success());
    let out = pba_into_full_device(&dir, &["functions", "a.elf"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(74), "EX_IOERR: {stderr}");
    assert!(stderr.contains("cannot write stdout"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gen_tells_an_output_file_it_cannot_create_from_one_it_cannot_write() {
    let dir = scratch("gen-full");
    let out = pba(&dir, &["gen", "/dev/full/a.elf", "--funcs", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(73), "EX_CANTCREAT: {stderr}");
    assert!(stderr.contains("cannot create /dev/full/a.elf"), "{stderr}");
    let out = pba(&dir, &["gen", "/dev/full", "--funcs", "8"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(74), "EX_IOERR: {stderr}");
    assert!(stderr.contains("cannot write /dev/full"), "{stderr}");
    // Reading is still a read error.
    let out = pba(&dir, &["functions", "missing.elf"]);
    assert_eq!(out.status.code(), Some(66), "EX_NOINPUT");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read missing.elf"));
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
