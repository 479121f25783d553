//! What a chaos campaign reports: one [`ScenarioOutcome`] per scenario
//! (a jsonl record) and the [`CampaignReport`] over them (a Markdown
//! table).

use super::ENGINE;
use sparsetrain_nn::metrics::escape_json;
use std::fmt::Write as _;

/// One scenario's verdict.
pub struct ScenarioOutcome {
    /// Scenario name (stable across runs; keys the jsonl record).
    pub name: String,
    /// Whether every assertion held.
    pub pass: bool,
    /// `"ok"`, or what went wrong.
    pub detail: String,
    /// Recoveries the supervisor performed.
    pub recoveries: usize,
    /// Engines quarantined during the run.
    pub quarantined: Vec<String>,
    /// Recovery kinds observed, in order (`kill`, `engine-panic`, ...).
    pub kinds: Vec<String>,
    /// Corrupt/unreadable snapshots skipped across all recoveries.
    pub skipped: usize,
    /// Total backoff slept across recoveries, in milliseconds.
    pub backoff_ms: u64,
    /// Total time spent restoring state across recoveries (time to
    /// recover), in milliseconds.
    pub recover_ms: u64,
    /// Scenario wall-clock, in milliseconds.
    pub elapsed_ms: u64,
}

impl ScenarioOutcome {
    /// Renders the outcome as one `{"chaos":{...}}` jsonl line.
    pub fn to_jsonl(&self) -> String {
        let strings = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape_json(s))).collect();
            quoted.join(",")
        };
        format!(
            "{{\"chaos\":{{\"name\":\"{}\",\"pass\":{},\"recoveries\":{},\"quarantined\":[{}],\
             \"kinds\":[{}],\"skipped\":{},\"backoff_ms\":{},\"recover_ms\":{},\"elapsed_ms\":{},\
             \"detail\":\"{}\"}}}}",
            escape_json(&self.name),
            self.pass,
            self.recoveries,
            strings(&self.quarantined),
            strings(&self.kinds),
            self.skipped,
            self.backoff_ms,
            self.recover_ms,
            self.elapsed_ms,
            escape_json(&self.detail),
        )
    }
}

/// The whole campaign's verdict.
pub struct CampaignReport {
    /// Campaign seed (feeds every scenario's fault plan).
    pub seed: u64,
    /// Optimizer steps per epoch of the fixture (fault triggers are
    /// expressed relative to it).
    pub steps_per_epoch: u64,
    /// Per-scenario verdicts, in execution order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Whether every scenario passed.
    pub fn all_pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.pass)
    }

    /// Renders the campaign as a Markdown summary table.
    pub fn markdown(&self) -> String {
        let mut out = format!(
            "## Chaos campaign (seed {}, {} steps/epoch, engine `{ENGINE}`)\n\n",
            self.seed, self.steps_per_epoch
        );
        let _ = writeln!(
            out,
            "| scenario | verdict | recoveries | kinds | quarantined | skipped | backoff | recover |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} ms | {} ms |",
                o.name,
                if o.pass { "PASS" } else { "**FAIL**" },
                o.recoveries,
                if o.kinds.is_empty() {
                    "—".to_string()
                } else {
                    o.kinds.join(", ")
                },
                if o.quarantined.is_empty() {
                    "—".to_string()
                } else {
                    o.quarantined.join(", ")
                },
                o.skipped,
                o.backoff_ms,
                o.recover_ms,
            );
        }
        let failed: Vec<&ScenarioOutcome> = self.outcomes.iter().filter(|o| !o.pass).collect();
        if failed.is_empty() {
            let _ = writeln!(
                out,
                "\n**PASS** — every recovered run matched the fault-free run bitwise."
            );
        } else {
            let _ = writeln!(out, "\n**FAIL** — {} scenario(s) diverged:\n", failed.len());
            for o in failed {
                let _ = writeln!(out, "- `{}`: {}", o.name, o.detail);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_outcomes_render_jsonl() {
        let outcome = ScenarioOutcome {
            name: "torn-write-newest".into(),
            pass: true,
            detail: "ok".into(),
            recoveries: 1,
            quarantined: vec![],
            kinds: vec!["kill".into()],
            skipped: 1,
            backoff_ms: 0,
            recover_ms: 2,
            elapsed_ms: 100,
        };
        assert_eq!(
            outcome.to_jsonl(),
            "{\"chaos\":{\"name\":\"torn-write-newest\",\"pass\":true,\"recoveries\":1,\
             \"quarantined\":[],\"kinds\":[\"kill\"],\"skipped\":1,\"backoff_ms\":0,\
             \"recover_ms\":2,\"elapsed_ms\":100,\"detail\":\"ok\"}}"
        );
    }

    /// An escaped `assert_eq!` panic message spans several lines; its
    /// record must still be one jsonl line.
    #[test]
    fn multi_line_details_stay_on_one_jsonl_line() {
        let outcome = ScenarioOutcome {
            name: "engine-panic".into(),
            pass: false,
            detail: "left: 1\n right: 2\t\"q\"".into(),
            recoveries: 0,
            quarantined: vec!["simd".into()],
            kinds: vec![],
            skipped: 0,
            backoff_ms: 0,
            recover_ms: 0,
            elapsed_ms: 5,
        };
        let line = outcome.to_jsonl();
        assert_eq!(line.lines().count(), 1, "{line}");
        assert!(
            line.ends_with("\"detail\":\"left: 1\\n right: 2\\t\\\"q\\\"\"}}"),
            "{line}"
        );
    }

    #[test]
    fn markdown_report_flags_failures() {
        let report = CampaignReport {
            seed: 42,
            steps_per_epoch: 13,
            outcomes: vec![ScenarioOutcome {
                name: "kill-mid-epoch".into(),
                pass: false,
                detail: "final parameters diverged from the fault-free run (3 of 9 words differ)".into(),
                recoveries: 1,
                quarantined: vec![],
                kinds: vec!["kill".into()],
                skipped: 0,
                backoff_ms: 0,
                recover_ms: 1,
                elapsed_ms: 10,
            }],
        };
        let md = report.markdown();
        assert!(md.contains("**FAIL**"), "{md}");
        assert!(md.contains("parameters diverged"), "{md}");
        assert!(!report.all_pass());
    }
}
