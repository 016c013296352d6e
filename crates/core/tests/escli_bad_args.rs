//! Malformed `--machine`, `--ps`/`--pd`/`--pm` and `--load` values must
//! make `escli` print an error and exit with status 1 — not panic (exit
//! 101) in the machine model or the workload generator, and not be
//! silently accepted.

use std::path::PathBuf;
use std::process::{Command, Output};

fn escli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_escli"))
        .args(args)
        .output()
        .expect("run escli")
}

fn assert_rejected(args: &[&str]) {
    let out = escli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "escli {args:?} panicked: {stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "escli {args:?}: stderr {stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "escli {args:?} gave no error: {stderr}"
    );
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("escli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn bad_machine_specs_are_errors() {
    let dir = temp_dir("bad-machine");
    let trace = dir.join("t.cwf");
    let trace = trace.to_str().expect("utf-8 temp path");
    let generate = escli(&["generate", "--out", trace, "--jobs", "50", "--seed", "3"]);
    assert!(generate.status.success());
    for machine in ["0:0", "320:0", "320:33", "0:32", "320", "x:32"] {
        assert_rejected(&[
            "run",
            "--trace",
            trace,
            "--algo",
            "EASY",
            "--machine",
            machine,
        ]);
        assert_rejected(&["compare", "--trace", trace, "--machine", machine]);
    }
    let ok = escli(&[
        "run",
        "--trace",
        trace,
        "--algo",
        "EASY",
        "--machine",
        "640:32",
    ]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(ok.status.success(), "a valid --machine was refused");
}

#[test]
fn bad_probabilities_and_loads_are_errors() {
    let dir = temp_dir("bad-generate");
    let out = dir.join("x.cwf");
    let out = out.to_str().expect("utf-8 temp path");
    for (flag, value) in [
        ("--load", "0"),
        ("--load", "-1"),
        ("--load", "inf"),
        ("--load", "NaN"),
        // Positive and finite, but rescaling to them collapses every
        // arrival onto one instant: no finite offered load.
        ("--load", "1e300"),
        ("--load", "1e-300"),
        ("--ps", "2"),
        ("--ps", "-0.1"),
        ("--pd", "1.5"),
        ("--pm", "1.01"),
        ("--pd", "NaN"),
    ] {
        assert_rejected(&["generate", "--out", out, "--jobs", "20", flag, value]);
    }
    assert_rejected(&[
        "tune", "--ps", "2", "--jobs", "20", "--reps", "1", "--cs", "1",
    ]);
    for load in ["0", "1e300", "1e-300"] {
        assert_rejected(&[
            "tune", "--load", load, "--jobs", "20", "--reps", "1", "--cs", "1",
        ]);
    }
    assert_rejected(&["diff", "easy", "fcfs", "--pd", "1.5", "--jobs", "20"]);
    let ok = escli(&[
        "generate", "--out", out, "--jobs", "20", "--ps", "1", "--pd", "0", "--load", "0.5",
    ]);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(ok.status.success(), "valid generator flags were refused");
}
