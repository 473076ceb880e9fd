//! `bench_e2e`: the end-to-end benchmark of the BOXes labeling stack.
//!
//! ```text
//! bench_e2e --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!           [--repeat N] [--size full|tiny]
//! ```
//!
//! One run builds a workload's storage stack, times its set-up, drives a
//! closed loop of seeded operations for `--seconds`, checks every answer
//! against the document generator, and prints each metric with its unit,
//! ending with one JSON line. `--trace 1` wraps the WAL seams in timers and
//! reports per-layer metrics instead. `--repeat N` re-runs in fresh
//! processes (seeds `N`, `N+1`, …) and prints medians and quartiles. See
//! `README.md` beside this crate.

mod doc;
mod layers;
mod measure;
mod repeat;
mod report;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::{Config, Size, Workload};

const USAGE: &str = "usage: bench_e2e --workload <ancestry-query|editor-mix|concentrated-file|\
snapshot-readers|all> [--seed N] [--seconds S] [--trace [0|1]] [--repeat N] [--size full|tiny]";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// `None` runs every workload.
    pub workload: Option<Workload>,
    /// Run settings (seed, seconds, trace, size).
    pub config: Config,
    /// Re-run this many times in fresh processes (0 = run once).
    pub repeat: usize,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut config = Config {
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
        };
        let mut repeat = 0;
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            let mut value = || {
                i += 1;
                argv.get(i)
                    .map(String::as_str)
                    .ok_or(format!("{flag} needs a value"))
            };
            match flag {
                "--workload" => {
                    let name = value()?;
                    workload = Some(if name == "all" {
                        None
                    } else {
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?)
                    });
                }
                "--seed" => config.seed = number(value()?, flag)?,
                "--seconds" => {
                    config.seconds = number(value()?, flag)?;
                    if !(config.seconds >= 0.0 && config.seconds <= 3600.0) {
                        return Err("--seconds must lie in 0..=3600".into());
                    }
                }
                "--repeat" => repeat = number(value()?, flag)?,
                "--size" => {
                    config.size = match value()? {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => return Err(format!("unknown size {other:?}")),
                    }
                }
                "--trace" => match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        config.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        config.trace = true;
                        i += 1;
                    }
                    _ => config.trace = true,
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            config,
            repeat,
        })
    }

    /// A fresh process of this program that runs `workload` once.
    pub fn child(&self, workload: Workload, seed: u64, trace: bool) -> std::io::Result<Command> {
        let mut command = Command::new(std::env::current_exe()?);
        command.args(self.child_args(workload, seed, trace));
        Ok(command)
    }

    /// Arguments that make a child process run `workload` once.
    fn child_args(&self, workload: Workload, seed: u64, trace: bool) -> Vec<String> {
        let size = match self.config.size {
            Size::Full => "full",
            Size::Tiny => "tiny",
        };
        [
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &self.config.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--size",
            size,
        ]
        .map(String::from)
        .to_vec()
    }
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

/// Run one workload in this process and print it. True when correct.
fn run_one(workload: Workload, cfg: &Config) -> bool {
    match workloads::run(workload, cfg) {
        Ok(run) => {
            if cfg.trace {
                if let Err(e) = report::write_trace(workload, cfg, &run) {
                    eprintln!("bench_e2e: cannot write the trace file: {e}");
                    return false;
                }
            }
            report::print_run(workload, cfg, &run);
            run.correct
        }
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", workload.name());
            false
        }
    }
}

/// Run every workload, each in a fresh process so peak memory and
/// allocator state stay per workload.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        let status = args
            .child(w, args.config.seed, args.config.trace)
            .and_then(|mut child| child.status());
        match status {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("bench_e2e: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.repeat, args.workload) {
        (0, Some(w)) => run_one(w, &args.config),
        (0, None) => run_all(&args),
        _ => repeat::run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&argv)
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse("--workload editor-mix --seed 5 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::EditorMix));
        assert_eq!((a.config.seed, a.config.seconds), (5, 3.0));
        assert!(a.config.trace);
        assert!(
            !parse("--workload all --trace 0")
                .expect("valid")
                .config
                .trace
        );
        assert_eq!(parse("--workload all").expect("valid").workload, None);
        let flag = parse("--trace --workload concentrated-file").expect("valid");
        assert!(flag.config.trace, "a bare --trace turns tracing on");
        let child = a.child_args(Workload::AncestryQuery, 9, false);
        let back = Args::parse(&child).expect("child arguments parse");
        assert_eq!(back.workload, Some(Workload::AncestryQuery));
        assert_eq!((back.config.seed, back.config.trace), (9, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--seed 3",
            "--workload nope",
            "--workload all --seconds -1",
            "--workload all --seed",
            "--workload all --size huge",
            "--workload all --frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
