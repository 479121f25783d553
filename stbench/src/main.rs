//! `stbench`: the end-to-end training benchmark of the SparseTrain
//! reproduction. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! stbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one workload, one process
//! stbench run     --seed <u64> [--reps <n>] [--smoke] [--out <file>]   every workload, untraced
//! stbench trace   --seed <u64> [--smoke] [--out <file>]                every workload, traced
//! stbench compare <base.json> <new.json>                               two `run` documents
//! stbench manifest                                                     the content of BENCHMARK.json
//! ```

mod compare;
mod facts;
mod json;
mod orchestrate;
mod replay;
mod span;
mod spec;
mod stats;
mod traced;
mod tracerun;
mod workload;

use json::Json;
use spec::{Workload, END_TO_END, PER_LAYER};
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Metric, Sizes, Tally, TempRoot};

const SUBCOMMANDS: [&str; 4] = ["run", "trace", "compare", "manifest"];

/// A command line this program does not accept. Exit code 2.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    UnknownSubcommand(String),
    UnknownWorkload(String),
    UnknownFlag(String),
    MissingValue(&'static str),
    MissingFlag(&'static str),
    BadValue {
        flag: &'static str,
        value: String,
        want: &'static str,
    },
    WrongArity(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        match self {
            CliError::UnknownSubcommand(s) => write!(
                f,
                "unknown subcommand {s:?}; valid: {} (or --workload <name> to run one workload)",
                SUBCOMMANDS.join(", ")
            ),
            CliError::UnknownWorkload(s) => {
                write!(f, "unknown workload {s:?}; valid: {}", workloads.join(", "))
            }
            CliError::UnknownFlag(s) => write!(f, "unknown flag {s:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::MissingFlag(flag) => write!(f, "{flag} is required"),
            CliError::BadValue { flag, value, want } => write!(f, "{flag} {value:?} is not {want}"),
            CliError::WrongArity(usage) => write!(f, "usage: {usage}"),
        }
    }
}

/// The flags of every form, parsed but not yet checked for presence.
#[derive(Debug, Default, PartialEq, Eq)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    reps: Option<usize>,
    smoke: bool,
    extras: bool,
    detail: Option<PathBuf>,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn number<T: std::str::FromStr>(flag: &'static str, value: &str, want: &'static str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag,
        value: value.to_string(),
        want,
    })
}

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &'static str| it.next().ok_or(CliError::MissingValue(flag));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workload =
                    Some(Workload::parse(name).ok_or_else(|| CliError::UnknownWorkload(name.clone()))?);
            }
            "--seed" => flags.seed = Some(number("--seed", value("--seed")?, "an unsigned 64-bit integer")?),
            "--seconds" => {
                let seconds: u64 = number("--seconds", value("--seconds")?, "a whole number from 1 to 60")?;
                if !(1..=60).contains(&seconds) {
                    return Err(CliError::BadValue {
                        flag: "--seconds",
                        value: seconds.to_string(),
                        want: "a whole number from 1 to 60",
                    });
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(CliError::BadValue {
                            flag: "--trace",
                            value: other.to_string(),
                            want: "0 or 1",
                        })
                    }
                })
            }
            "--reps" => {
                let reps: usize = number("--reps", value("--reps")?, "a whole number from 1 to 20")?;
                if !(1..=20).contains(&reps) {
                    return Err(CliError::BadValue {
                        flag: "--reps",
                        value: reps.to_string(),
                        want: "a whole number from 1 to 20",
                    });
                }
                flags.reps = Some(reps);
            }
            "--smoke" => flags.smoke = true,
            "--extras" => flags.extras = true,
            "--detail" => flags.detail = Some(PathBuf::from(value("--detail")?)),
            "--spans" => flags.spans = Some(PathBuf::from(value("--spans")?)),
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(flags)
}

/// What to do, from the whole command line.
#[derive(Debug, PartialEq, Eq)]
enum Action {
    /// One workload in this process: the form `BENCHMARK.json` declares.
    Workload {
        workload: Workload,
        seed: u64,
        seconds: u64,
        traced: bool,
        flags: Flags,
    },
    Run(Flags),
    Trace(Flags),
    Compare(PathBuf, PathBuf),
    Manifest,
}

fn parse_args(args: &[String]) -> Result<Action, CliError> {
    let Some(first) = args.first() else {
        return Err(CliError::UnknownSubcommand(String::new()));
    };
    if first.starts_with("--") {
        let flags = parse_flags(args)?;
        return Ok(Action::Workload {
            workload: flags.workload.ok_or(CliError::MissingFlag("--workload"))?,
            seed: flags.seed.ok_or(CliError::MissingFlag("--seed"))?,
            seconds: flags.seconds.ok_or(CliError::MissingFlag("--seconds"))?,
            traced: flags.trace.ok_or(CliError::MissingFlag("--trace"))?,
            flags,
        });
    }
    match first.as_str() {
        "run" | "trace" => {
            let flags = parse_flags(&args[1..])?;
            flags.seed.ok_or(CliError::MissingFlag("--seed"))?;
            Ok(if first == "run" {
                Action::Run(flags)
            } else {
                Action::Trace(flags)
            })
        }
        "compare" => match &args[1..] {
            [base, new] => Ok(Action::Compare(PathBuf::from(base), PathBuf::from(new))),
            _ => Err(CliError::WrongArity("stbench compare <base.json> <new.json>")),
        },
        "manifest" => Ok(Action::Manifest),
        other => Err(CliError::UnknownSubcommand(other.to_string())),
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// Runs one workload in this process and prints the result line.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    flags: &Flags,
) -> std::io::Result<bool> {
    // The program under test sees the generated inputs only, never the
    // caller's engine, plan, fault or checkpoint settings. Set before any
    // thread starts.
    for var in [
        "SPARSETRAIN_ENGINE",
        "SPARSETRAIN_PLAN",
        "SPARSETRAIN_FAULTS",
        "SPARSETRAIN_CHECKPOINT_DIR",
    ] {
        std::env::remove_var(var);
    }
    let threads = workload.rayon_threads(facts::nproc());
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let sizes = if flags.smoke {
        Sizes::smoke(workload)
    } else {
        Sizes::for_seconds(workload, seconds)
    };
    let mut tally = Tally::default();
    let mut tables = Vec::new();
    let metrics = {
        let tmp = TempRoot::create()?;
        if traced {
            let out = tracerun::run_traced(
                workload,
                seed,
                &sizes,
                flags.extras,
                &tmp,
                &mut tally,
                flags.spans.as_deref(),
            )?;
            tables = out.tables;
            out.metrics
        } else {
            workload::run_untraced(workload, seed, &sizes, &tmp, &mut tally)
        }
    };

    for (name, value, unit) in &metrics {
        println!("{:<18} {name:<44} {value:>16.6} {unit}", workload.name());
    }
    // The result line holds exactly the metrics BENCHMARK.json declares
    // for this kind of run; one that is missing is a failed operation
    // (a smoke run is too short for some and says so by leaving them out).
    let declared: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.across_seeds)
            .map(|m| m.name)
            .collect()
    };
    let reported: Vec<Metric> = declared
        .iter()
        .filter_map(|name| metrics.iter().find(|m| m.0 == *name).cloned())
        .collect();
    if !flags.smoke {
        for name in &declared {
            tally.check(
                reported.iter().any(|m| m.0 == *name),
                &format!("declared metric {name} was not measured"),
            );
        }
    }
    let all = metrics_json(&metrics);
    tally.count(
        metrics.len() as u64,
        all.non_finite(),
        "metrics that are not finite numbers",
    );
    for failure in &tally.failures {
        println!("{:<18} FAILED: {failure}", workload.name());
    }
    let correct = tally.failed == 0;

    if let Some(path) = &flags.detail {
        let mut doc = vec![
            ("workload".to_string(), Json::str(workload.name())),
            ("seed".to_string(), Json::Num(seed as f64)),
            ("trace".to_string(), Json::Bool(traced)),
            ("threads".to_string(), Json::Num(threads as f64)),
            ("timed_samples".to_string(), Json::Num(sizes.timed as f64)),
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Num(tally.attempted as f64)),
            ("failed".to_string(), Json::Num(tally.failed as f64)),
            (
                "failures".to_string(),
                Json::Arr(tally.failures.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            ("metrics".to_string(), all),
        ];
        doc.extend(tables);
        fs::write(path, Json::Obj(doc).pretty())?;
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", metrics_json(&reported)),
        ])
    );
    Ok(correct)
}

fn orchestrate_options(flags: Flags) -> orchestrate::Options {
    orchestrate::Options {
        seed: flags.seed.expect("checked when the command line was parsed"),
        reps: flags.reps.unwrap_or(2),
        smoke: flags.smoke,
        out: flags.out,
    }
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let action = match parse_args(&args) {
        Ok(action) => action,
        Err(e) => {
            eprintln!("stbench: {e}");
            return ExitCode::from(2);
        }
    };
    let passed = match action {
        Action::Workload {
            workload,
            seed,
            seconds,
            traced,
            flags,
        } => run_workload(workload, seed, seconds, traced, &flags).map_err(|e| e.to_string()),
        Action::Run(flags) => orchestrate::run(&orchestrate_options(flags)).map_err(|e| e.to_string()),
        Action::Trace(flags) => orchestrate::trace(&orchestrate_options(flags)).map_err(|e| e.to_string()),
        Action::Compare(base, new) => read_json(&base).and_then(|b| {
            let result = compare::compare(&b, &read_json(&new)?)?;
            print!("{}", result.table);
            println!("{} worse, {} unresolved", result.worse, result.unresolved);
            Ok(result.worse == 0)
        }),
        Action::Manifest => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_declared_form_parses() {
        let action = parse_args(&args("--workload ops_shard_ckpt --seed 7 --seconds 12 --trace 1")).unwrap();
        match action {
            Action::Workload {
                workload,
                seed,
                seconds,
                traced,
                ..
            } => assert_eq!(
                (workload, seed, seconds, traced),
                (Workload::OpsShardCkpt, 7, 12, true)
            ),
            other => panic!("{other:?}"),
        }
        assert!(
            matches!(parse_args(&args("run --seed 1 --reps 2 --smoke")), Ok(Action::Run(f)) if f.reps == Some(2) && f.smoke)
        );
        assert!(matches!(
            parse_args(&args("trace --seed 18446744073709551615")),
            Ok(Action::Trace(_))
        ));
        assert_eq!(
            parse_args(&args("compare a.json b.json")),
            Ok(Action::Compare("a.json".into(), "b.json".into()))
        );
        assert_eq!(parse_args(&args("manifest")), Ok(Action::Manifest));
    }

    #[test]
    fn bad_command_lines_are_typed_errors_that_list_what_is_valid() {
        let err = |line: &str| parse_args(&args(line)).unwrap_err();
        assert_eq!(err("bench"), CliError::UnknownSubcommand("bench".into()));
        assert!(err("bench").to_string().contains("run, trace, compare, manifest"));
        assert_eq!(err(""), CliError::UnknownSubcommand(String::new()));
        let unknown = err("--workload alexnet --seed 1 --seconds 12 --trace 0");
        assert_eq!(unknown, CliError::UnknownWorkload("alexnet".into()));
        assert!(unknown
            .to_string()
            .contains("alexnet_pruned, resnet_pruned_mt, resnet_dense_ref, ops_shard_ckpt"));
        for seed in ["-1", "1.5", "abc", "18446744073709551616"] {
            let e = err(&format!("run --seed {seed}"));
            assert!(matches!(&e, CliError::BadValue { flag: "--seed", .. }), "{e:?}");
        }
        assert_eq!(err("run --seed"), CliError::MissingValue("--seed"));
        assert_eq!(err("run"), CliError::MissingFlag("--seed"));
        assert_eq!(
            err("--workload alexnet_pruned --seed 1 --trace 0"),
            CliError::MissingFlag("--seconds")
        );
        assert!(matches!(
            err("--workload alexnet_pruned --seed 1 --seconds 0 --trace 0"),
            CliError::BadValue {
                flag: "--seconds",
                ..
            }
        ));
        assert!(matches!(
            err("--workload alexnet_pruned --seed 1 --seconds 12 --trace 2"),
            CliError::BadValue { flag: "--trace", .. }
        ));
        assert_eq!(err("run --seed 1 --fast"), CliError::UnknownFlag("--fast".into()));
        assert!(matches!(err("compare a.json"), CliError::WrongArity(_)));
    }
}
