//! `sparsetrain-bench` — the one driver for the paper's experiments and
//! the CI artifact jobs.
//!
//! * `repro <name>…` / `sweep <name>…` — print experiments of
//!   `sparsetrain_bench::experiments::EXPERIMENTS`, in the order given, in
//!   one session (asking for `fig8 fig9` simulates their shared grid
//!   once). `SPARSETRAIN_PROFILE` sets the scale.
//! * `chaos` — see `sparsetrain_bench::chaos`.
//!
//! Exit status: 0 on success, 1 when `chaos` ran and failed, 2 for a
//! rejected command line or an I/O error. This binary
//! measures no time — `stbench` owns the wall-clock numbers, and `stbench
//! compare` is the repo's one perf gate.

use sparsetrain_bench::chaos;
use sparsetrain_bench::cli::{self, Command};
use sparsetrain_bench::experiments::{self, Session};
use sparsetrain_bench::profile::Profile;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = cli::parse(&args).map_err(|e| e.to_string()).and_then(run);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::usage());
            ExitCode::from(2)
        }
    }
}

fn run(command: Command) -> Result<bool, String> {
    match command {
        Command::Experiments { experiments, models } => {
            experiments::run(&experiments, &mut Session::new(Profile::from_env()?, models));
            Ok(true)
        }
        Command::Chaos {
            seed,
            extra,
            out,
            summary,
        } => Ok(report(chaos::run_campaign(seed, extra, &out)?, summary)),
    }
}

/// Prints a subcommand's Markdown to stdout and, under CI, appends it to
/// `--summary` (`$GITHUB_STEP_SUMMARY`) as well; hands back its verdict.
fn report((text, pass): (String, bool), summary: Option<String>) -> bool {
    println!("{text}");
    if let Some(path) = summary {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{text}"));
        if let Err(e) = appended {
            eprintln!("warning: cannot append summary to {path}: {e}");
        }
    }
    pass
}
