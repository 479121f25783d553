//! `stbench compare`: two `run` documents held against the bounds.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The repetitions of one side spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the repetitions `new` of one metric against the repetitions
/// `base`: worse when the median worsened by more than the bound;
/// unresolved when either side's repetitions spread wider than the bound,
/// unless every new repetition reads better than every base one.
pub fn judge(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Option<Verdict> {
    let worsening = metric.better.worsening(median(base)?, median(new)?);
    let widest = spread(base)?.max(spread(new)?);
    if widest > metric.bound {
        let all_better = new.iter().all(|n| {
            base.iter().all(|b| match metric.better {
                Better::Higher => n > b,
                Better::Lower => n < b,
            })
        });
        return Some(if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        });
    }
    Some(if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    })
}

fn numbers(value: Option<&Json>) -> Vec<f64> {
    value
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Failed operations over attempted ones of a workload entry.
fn failed_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(workload.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// What `compare` prints, and whether any row is `worse`.
pub struct Comparison {
    pub table: String,
    pub worse: usize,
    pub unresolved: usize,
}

/// Compares two documents written by `stbench run`, `base` first.
pub fn compare(base: &Json, new: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or("not an `stbench run` document: no \"workloads\" array".to_string())
    };
    let same_seed = base.get("seed").is_some() && base.get("seed") == new.get("seed");
    let mut out = Comparison {
        table: String::new(),
        worse: 0,
        unresolved: 0,
    };
    writeln!(
        out.table,
        "{:<18} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "delta", "bound"
    )
    .expect("writing to a String cannot fail");
    let new_workloads = workloads(new)?;
    for b in workloads(base)? {
        let name = b.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(n) = new_workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second document"));
        };
        for metric in &END_TO_END {
            let reps = |doc: &Json| numbers(doc.get("metrics").and_then(|m| m.get(metric.name)?.get("reps")));
            let (base_reps, new_reps) = (reps(&b), reps(n));
            if !metric.across_seeds && !same_seed {
                continue; // a trajectory metric says nothing across seeds
            }
            let Some(verdict) = judge(metric, &base_reps, &new_reps) else {
                continue; // a metric this workload does not produce
            };
            let (bv, nv) = (
                median(&base_reps).expect("judged"),
                median(&new_reps).expect("judged"),
            );
            match verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            // With one seed the trajectory metrics must repeat exactly.
            let exact = same_seed && !crate::orchestrate::TIMING_METRICS.contains(&metric.name);
            let note = match (exact, bv.to_bits() == nv.to_bits()) {
                (true, true) => " (identical)",
                (true, false) => " (DIFFERS for one seed)",
                _ => "",
            };
            writeln!(
                out.table,
                "{:<18} {:<15} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}{} [of base {:.6} {}]",
                name,
                metric.name,
                bv,
                nv,
                100.0 * (nv - bv) / bv.abs(),
                100.0 * metric.bound,
                verdict.name(),
                note,
                bv,
                metric.unit,
            )
            .expect("writing to a String cannot fail");
        }
        if let (Some(bf), Some(nf)) = (failed_share(&b), failed_share(n)) {
            let verdict = if nf > bf { Verdict::Worse } else { Verdict::Ok };
            if verdict == Verdict::Worse {
                out.worse += 1;
            }
            writeln!(
                out.table,
                "{:<18} {:<15} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
                name,
                "failed_share",
                bf,
                nf,
                "",
                "any",
                verdict.name()
            )
            .expect("writing to a String cannot fail");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    /// `n` repetitions around `centre`, 1 % apart end to end.
    fn reps(centre: f64) -> Vec<f64> {
        vec![centre * 0.995, centre, centre * 1.005]
    }

    #[test]
    fn bounds_are_judged_in_each_direction() {
        let throughput = end_to_end("samples_per_s").unwrap(); // higher is better
        let b = throughput.bound;
        assert_eq!(
            judge(throughput, &reps(100.0), &reps(100.0 * (1.0 - b / 2.0))),
            Some(Verdict::Ok)
        );
        assert_eq!(
            judge(throughput, &reps(100.0), &reps(100.0 * (1.0 - 1.5 * b))),
            Some(Verdict::Worse)
        );
        assert_eq!(
            judge(throughput, &reps(100.0), &reps(100.0 * (1.0 + 3.0 * b))),
            Some(Verdict::Ok)
        );
        let rss = end_to_end("peak_rss_mb").unwrap(); // lower is better
        let b = rss.bound;
        assert_eq!(judge(rss, &[50.0], &[50.0 * (1.0 + b / 2.0)]), Some(Verdict::Ok));
        assert_eq!(
            judge(rss, &[50.0], &[50.0 * (1.0 + 1.5 * b)]),
            Some(Verdict::Worse)
        );
        assert_eq!(judge(rss, &[50.0], &[20.0]), Some(Verdict::Ok));
        assert_eq!(judge(rss, &[], &[1.0]), None);
    }

    #[test]
    fn wide_repetitions_are_unresolved_unless_every_run_is_better() {
        let throughput = end_to_end("samples_per_s").unwrap();
        let b = throughput.bound;
        // The base spreads twice the bound: a small drop cannot be told
        // from noise ...
        let wide = [100.0 * (1.0 - b), 100.0, 100.0 * (1.0 + b)];
        assert_eq!(
            judge(throughput, &wide, &reps(100.0 * (1.0 - b / 2.0))),
            Some(Verdict::Unresolved)
        );
        // ... nor can a large one be called a regression.
        assert_eq!(
            judge(throughput, &wide, &reps(100.0 * (1.0 - 1.5 * b))),
            Some(Verdict::Unresolved)
        );
        // Every new run beats every base run: resolved all the same.
        assert_eq!(
            judge(throughput, &wide, &reps(100.0 * (1.0 + 2.0 * b))),
            Some(Verdict::Ok)
        );
    }

    fn doc(seed: f64, throughput: &[f64], loss: f64, failed: f64) -> Json {
        let reps = |v: &[f64]| Json::obj([("reps", Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()))]);
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("alexnet_pruned")),
                    ("attempted", Json::Num(10.0)),
                    ("failed", Json::Num(failed)),
                    (
                        "metrics",
                        Json::obj([
                            ("samples_per_s", reps(throughput)),
                            ("epoch_loss", reps(&[loss, loss])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn documents_compare_row_by_row() {
        let base = doc(1.0, &[170.0, 171.0], 2.25, 0.0);
        let same = compare(&base, &doc(1.0, &[169.0, 172.0], 2.25, 0.0)).unwrap();
        assert_eq!((same.worse, same.unresolved), (0, 0));
        assert!(same.table.contains("(identical)"));
        assert!(same.table.contains("failed_share"));

        let slower = compare(&base, &doc(1.0, &[100.0, 101.0], 2.2500001, 1.0)).unwrap();
        assert_eq!(slower.worse, 2, "{}", slower.table); // throughput and failed_share
        assert!(slower.table.contains("DIFFERS for one seed"));

        // Across seeds only the steady metrics are judged.
        let other_seed = compare(&base, &doc(2.0, &[170.0, 171.0], 2.3, 0.0)).unwrap();
        assert_eq!(other_seed.worse, 0);
        assert!(!other_seed.table.contains("epoch_loss"));

        assert!(compare(&base, &Json::obj([("seed", Json::Num(1.0))])).is_err());
    }
}
