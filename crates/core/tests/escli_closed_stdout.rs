//! `escli` must end quietly, with exit status 0, when whoever reads its
//! standard output goes away first (`escli algorithms | true`, or a
//! pager quit early) — not panic with "failed printing to stdout".
//!
//! Each test hands `escli` a pipe whose read end is already closed: the
//! pipe is made as the stdin of a child that exits at once, and its
//! write end is passed to `escli` only after that child has exited, so
//! the first write is bound to fail with a broken pipe.

use std::process::{ChildStdin, Command, Output, Stdio};

/// The write end of a pipe that nobody reads any more.
fn closed_pipe() -> ChildStdin {
    // With no arguments escli prints its usage to stderr and exits
    // without reading stdin.
    let mut reader = Command::new(env!("CARGO_BIN_EXE_escli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the reader");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    writer
}

fn escli_into_closed_pipe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_escli"))
        .args(args)
        .stdout(closed_pipe())
        .stderr(Stdio::piped())
        .output()
        .expect("run escli")
}

fn assert_quiet_success(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "escli panicked: {stderr}");
    assert!(out.status.success(), "exit {:?}, stderr: {stderr}", out.status);
}

#[test]
fn algorithms_into_closed_pipe_exits_zero() {
    assert_quiet_success(&escli_into_closed_pipe(&["algorithms"]));
}

#[test]
fn run_into_closed_pipe_exits_zero() {
    let dir = std::env::temp_dir().join(format!("escli-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("t.cwf");
    let trace = trace.to_str().expect("utf-8 temp path");
    let generate = Command::new(env!("CARGO_BIN_EXE_escli"))
        .args(["generate", "--out", trace, "--jobs", "200", "--seed", "3"])
        .output()
        .expect("run escli generate");
    assert!(generate.status.success());
    let out = escli_into_closed_pipe(&["run", "--trace", trace, "--algo", "Delayed-LOS"]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert_quiet_success(&out);
}

#[test]
fn other_failures_still_report_an_error() {
    let out = escli_into_closed_pipe(&["run", "--algo", "Delayed-LOS"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace is required"));
}
