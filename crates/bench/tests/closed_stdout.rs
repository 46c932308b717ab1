//! The evaluation binaries driven as processes: a reader that closes
//! their stdout before they are done (`table1 | head -2`) ends the run
//! cleanly.

use std::process::{Command, Stdio};

#[test]
fn table1_exits_cleanly_when_its_reader_closes_stdout_at_once() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env("PBA_SCALE", "0.05")
        .env("PBA_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the table is written: its writes fail
    // with a broken pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
