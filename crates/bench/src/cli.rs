//! The `sparsetrain-bench` command line: one parser, one typed error.
//!
//! [`parse`] turns the arguments into a [`Command`] or a [`UsageError`];
//! nothing here runs an experiment, so every rejection is testable
//! without a process. `main` prints a `UsageError` above [`usage`] and
//! exits 2.

use crate::experiments::{in_group, Experiment, EXPERIMENTS};
use sparsetrain_nn::models::ModelKind;
use std::fmt;
use std::slice::Iter;

/// What one invocation asks for.
pub enum Command {
    /// `repro …` / `sweep …`: experiments of one group, in the order given.
    Experiments {
        /// The table rows named on the command line.
        experiments: Vec<&'static Experiment>,
        /// `--models`, or every evaluated model.
        models: Vec<ModelKind>,
    },
    /// `chaos`: the seeded fault-injection campaign.
    Chaos {
        /// Campaign seed.
        seed: u64,
        /// Seeded randomized kill scenarios on top of the named ones.
        extra: usize,
        /// The jsonl file one record per scenario is appended to.
        out: String,
        /// Also append the Markdown summary here.
        summary: Option<String>,
    },
}

/// Why the command line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum UsageError {
    /// A subcommand, experiment or model that is missing (`given: None`)
    /// or is not one of `valid`.
    Name {
        /// What was being named (`"subcommand"`, `"repro experiment"`, …).
        what: String,
        /// The name as typed.
        given: Option<String>,
        /// The names that would have been accepted.
        valid: Vec<&'static str>,
    },
    /// A flag the subcommand does not take, or one whose value is missing
    /// or unusable.
    Flag {
        /// The flag.
        flag: String,
        /// What is wrong with it.
        fault: String,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Name { what, given, valid } => {
                match given {
                    Some(given) => write!(f, "unknown {what} {given:?}")?,
                    None => write!(f, "no {what} given")?,
                }
                write!(f, " (one of: {})", valid.join(", "))
            }
            UsageError::Flag { flag, fault } => write!(f, "{flag}: {fault}"),
        }
    }
}

impl std::error::Error for UsageError {}

fn bad_name(what: &str, given: Option<&str>, valid: impl IntoIterator<Item = &'static str>) -> UsageError {
    UsageError::Name {
        what: what.to_string(),
        given: given.map(String::from),
        valid: valid.into_iter().collect(),
    }
}

fn bad_flag(flag: &str, fault: impl ToString) -> UsageError {
    UsageError::Flag {
        flag: flag.to_string(),
        fault: fault.to_string(),
    }
}

/// The value that follows `flag`.
fn value<'a>(rest: &mut Iter<'a, String>, flag: &str) -> Result<&'a str, UsageError> {
    let value = rest.next().map(String::as_str);
    value.ok_or_else(|| bad_flag(flag, "needs a value"))
}

const SUBCOMMANDS: [&str; 3] = ["repro", "sweep", "chaos"];

/// The usage text: the three subcommands, then the experiment table.
pub fn usage() -> String {
    let names = |group| in_group(group).map(|e| e.name).collect::<Vec<_>>().join("|");
    let mut text = format!(
        "usage: sparsetrain-bench <{}> ...\n\n  \
         repro <{}>... [--models {}]\n  \
         sweep <{}>...\n  \
         chaos [--seed 42] [--extra 2] [--out target/chaos-results.jsonl] [--summary <path>]\n\n\
         SPARSETRAIN_PROFILE=quick|full sets the scale of repro and sweep (default quick).\n\n\
         experiments:\n",
        SUBCOMMANDS.join("|"),
        names("repro"),
        ModelKind::ALL.map(|m| m.name()).join(","),
        names("sweep"),
    );
    for e in &EXPERIMENTS {
        let command = format!("{} {}", e.group, e.name);
        text.push_str(&format!("  {command:<19} {}\n", e.artefact));
        if let Some(paper) = e.paper {
            text.push_str(&format!("  {:<19} {paper}\n", ""));
        }
    }
    text
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut rest = args.iter();
    match rest.next().map(String::as_str) {
        Some(group @ ("repro" | "sweep")) => parse_experiments(group, rest),
        Some("chaos") => {
            let (mut seed, mut extra, mut summary) = (42, 2, None);
            let mut out = "target/chaos-results.jsonl".to_string();
            while let Some(flag) = rest.next() {
                let int = |e: std::num::ParseIntError| bad_flag(flag, e);
                match flag.as_str() {
                    "--seed" => seed = value(&mut rest, flag)?.parse().map_err(int)?,
                    "--extra" => extra = value(&mut rest, flag)?.parse().map_err(int)?,
                    "--out" => out = value(&mut rest, flag)?.to_string(),
                    "--summary" => summary = Some(value(&mut rest, flag)?.to_string()),
                    _ => return Err(bad_flag(flag, "unknown flag")),
                }
            }
            Ok(Command::Chaos {
                seed,
                extra,
                out,
                summary,
            })
        }
        other => Err(bad_name("subcommand", other, SUBCOMMANDS)),
    }
}

fn parse_experiments(group: &str, mut rest: Iter<'_, String>) -> Result<Command, UsageError> {
    let what = format!("{group} experiment");
    let valid = || in_group(group).map(|e| e.name);
    let model_names = ModelKind::ALL.map(|m| m.name());
    let mut experiments = Vec::new();
    let mut models = None;
    while let Some(arg) = rest.next() {
        if arg == "--models" {
            let list = rest.next().ok_or_else(|| bad_name("model", None, model_names))?;
            let parsed: Result<Vec<ModelKind>, UsageError> = list
                .split(',')
                .map(|name| {
                    let model = ModelKind::ALL.into_iter().find(|m| m.name() == name);
                    model.ok_or_else(|| bad_name("model", Some(name), model_names))
                })
                .collect();
            models = Some(parsed?);
        } else if arg.starts_with("--") {
            return Err(bad_flag(arg, "unknown flag"));
        } else {
            let found = in_group(group).find(|e| e.name == arg);
            experiments.push(found.ok_or_else(|| bad_name(&what, Some(arg), valid()))?);
        }
    }
    if experiments.is_empty() {
        return Err(bad_name(&what, None, valid()));
    }
    if models.is_some() {
        if let Some(e) = experiments.iter().find(|e| !e.takes_models) {
            return Err(bad_flag("--models", format!("does not apply to {}", e.name)));
        }
    }
    Ok(Command::Experiments {
        experiments,
        models: models.unwrap_or_else(|| ModelKind::ALL.to_vec()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, UsageError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn experiments_parse_in_the_order_given() {
        let Ok(Command::Experiments { experiments, models }) = parse_line("repro fig9 fig8") else {
            panic!("`repro fig9 fig8` is valid");
        };
        let names: Vec<&str> = experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig9", "fig8"]);
        assert_eq!(models, ModelKind::ALL);

        let line = "repro table2 --models alexnet,resnet34";
        let Ok(Command::Experiments { models, .. }) = parse_line(line) else {
            panic!("`--models` applies to table2");
        };
        assert_eq!(models, [ModelKind::Alexnet, ModelKind::Resnet34]);
        assert!(parse_line("sweep arch sched").is_ok());
    }

    #[test]
    fn chaos_flags_parse_with_their_defaults() {
        let Ok(Command::Chaos {
            seed,
            extra,
            out,
            summary,
        }) = parse_line("chaos --seed 7")
        else {
            panic!("`chaos --seed 7` is valid");
        };
        assert_eq!(
            (seed, extra, out.as_str(), summary),
            (7, 2, "target/chaos-results.jsonl", None)
        );
    }

    #[test]
    fn rejections_are_typed_and_list_the_valid_names() {
        const REPRO: &str = "table1, table2, fig8, fig9, convergence, distribution, update";
        const SWEEP: &str = "arch, energy, fifo, format, sched";
        const MODELS: &str = "alexnet, resnet18, resnet34, resnet-deep";
        let name = |what, given, valid: &'static str| bad_name(what, given, valid.split(", "));
        let cases = [
            // The stand-alone Table II binary indexed past the end of argv
            // on the first of these and panicked on the second.
            ("repro table2 --models", name("model", None, MODELS)),
            (
                "repro table2 --models alexnet,vgg",
                name("model", Some("vgg"), MODELS),
            ),
            ("repro table3", name("repro experiment", Some("table3"), REPRO)),
            // A sweep is not a repro experiment, and the other way round.
            ("sweep fig8", name("sweep experiment", Some("fig8"), SWEEP)),
            ("repro arch", name("repro experiment", Some("arch"), REPRO)),
            ("repro", name("repro experiment", None, REPRO)),
            ("", bad_name("subcommand", None, SUBCOMMANDS)),
            (
                "multicore",
                bad_name("subcommand", Some("multicore"), SUBCOMMANDS),
            ),
            (
                "repro fig8 table2 --models alexnet",
                bad_flag("--models", "does not apply to fig8"),
            ),
            (
                "sweep arch --models alexnet",
                bad_flag("--models", "does not apply to arch"),
            ),
            ("chaos --out", bad_flag("--out", "needs a value")),
            (
                "chaos --seed x",
                bad_flag("--seed", "invalid digit found in string"),
            ),
            // Flags that went with the deleted subcommands and spellings,
            // or belong to another subcommand.
            (
                "plan --emit p.stplan",
                bad_name("subcommand", Some("plan"), SUBCOMMANDS),
            ),
            ("chaos --emit x", bad_flag("--emit", "unknown flag")),
            ("repro table2 --quick", bad_flag("--quick", "unknown flag")),
        ];
        for (line, expected) in cases {
            assert_eq!(parse_line(line).err(), Some(expected), "`{line}`");
        }
        assert_eq!(
            name("model", Some("vgg"), MODELS).to_string(),
            "unknown model \"vgg\" (one of: alexnet, resnet18, resnet34, resnet-deep)"
        );
        assert_eq!(
            bad_name("subcommand", None, SUBCOMMANDS).to_string(),
            "no subcommand given (one of: repro, sweep, chaos)"
        );
    }
}
