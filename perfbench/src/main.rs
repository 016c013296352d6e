//! The elastisched benchmark: end-to-end figures for four workloads and
//! a traced pass that splits host time across the workspace's layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|replay|soak|observed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! beside this file for the workloads, the metrics and the baseline.

mod campaign;
mod check;
mod harness;
mod ledger;
mod replay;
mod soak;
mod stats;
mod wrap;

use harness::{Output, Settings, Tally, Workload};
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload campaign|replay|soak|observed --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn run(name: &str, s: Settings) -> Result<Output, String> {
    let (mut bench, setups, setup_tally): (Box<dyn Workload>, Vec<f64>, Tally) = match name {
        "campaign" => {
            let (b, secs, t) = campaign::setup(s.seed, SETUPS);
            (Box::new(b), secs, t)
        }
        "replay" | "observed" => {
            let name = if name == "replay" {
                "replay"
            } else {
                "observed"
            };
            let (b, secs) = replay::setup(name, s.seed, SETUPS)?;
            (Box::new(b), secs, Tally::default())
        }
        "soak" => {
            let (b, secs, t) = soak::setup(s.seed, SETUPS);
            (Box::new(b), secs, t)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    let setup_s = stats::median(&setups);
    let mut out = harness::measure(bench.as_mut(), s, setup_s);
    out.lines.insert(
        0,
        format!(
            "workload {name} seed {} seconds {} trace {} threads {}; set-up {:?} s",
            s.seed,
            s.seconds,
            u8::from(s.trace),
            bench.workers(),
            setups
        ),
    );
    out.attempted += setup_tally.attempted;
    out.failed += setup_tally.failed;
    for e in &setup_tally.errors {
        out.lines.push(format!("FAILED (set-up): {e}"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, settings) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Cap the sweep pool at the host's parallelism, as `repro` users on
    // a shared machine do.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("ELASTISCHED_THREADS", threads.to_string());
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        campaign::PANICS.fetch_add(1, Ordering::Relaxed);
        default_hook(info);
    }));
    match run(&name, settings) {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seed_and_settings_come_from_the_arguments() {
        let (w, s) =
            parse_args(&args("--workload soak --seed 9001 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "soak");
        assert_eq!(s.seed, 9001);
        assert_eq!(s.seconds, 10.0);
        assert!(s.trace);
        assert!(
            parse_args(&args("--workload soak --seconds 10")).is_err(),
            "seed is required"
        );
        assert!(parse_args(&args("--workload soak --seed x --seconds 10")).is_err());
        assert!(parse_args(&args("--workload soak --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload soak --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload soak --seed 1 --seconds 5 --bogus 1")).is_err());
    }

    /// Different workload seeds reach the program as different inputs,
    /// the same seed as the same input.
    #[test]
    fn workload_seed_reaches_the_generated_inputs() {
        let a = replay::trace_seed(1, 0, replay::Kind::Batch);
        assert_eq!(a, replay::trace_seed(1, 0, replay::Kind::Batch));
        assert_ne!(a, replay::trace_seed(2, 0, replay::Kind::Batch));
    }
}
