//! `sparsetrain-bench plan`: what the `auto` engine decides, as an artifact.
//!
//! Runs the density-adaptive planner over the AlexNet-shape bench fixtures
//! and renders the frozen per-(layer, stage) execution plan as a Markdown
//! table (what `auto` decides at these densities — the same bytes on every
//! run, at every pool size). `--emit <file>` writes the plan as a binary
//! `STPLAN` execution program; `--replay <file>` decodes such a program in
//! a fresh process and runs the same fixtures under it, failing unless
//! every program cell executed. The emitted artifact is also what
//! `SPARSETRAIN_PLAN` accepts (alongside the legacy text format).

use crate::fixtures::{fixture, LAYERS};
use sparsetrain_sparse::{ExecutionContext, Plan, Stage};
use std::fmt::Write as _;

/// Runs the three stages of every layer of [`LAYERS`] (the engine bench's
/// operands, seed included) through `ctx`'s planned entry points and
/// returns the `(layer, stage)` cells that executed.
fn run_fixtures(ctx: &mut ExecutionContext) -> Vec<(&'static str, Stage)> {
    for (name, c, f, hw, in_density, dout_density) in LAYERS {
        fixture(c, f, hw, in_density, dout_density).train_step(ctx, name);
    }
    LAYERS
        .iter()
        .flat_map(|layer| Stage::ALL.map(|stage| (layer.0, stage)))
        .collect()
}

/// The `plan` subcommand: decides a plan over the fixtures (writing it to
/// `emit` when given), or with `replay` runs them under that file's plan
/// instead. Returns the Markdown summary and whether the run passed — a
/// replay passes only when every program cell executed, so a stale
/// artifact that no longer matches the fixtures fails loudly.
pub fn run(emit: Option<&str>, replay: Option<&str>) -> Result<(String, bool), String> {
    if let Some(path) = replay {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let program = Plan::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        let mut ctx = ExecutionContext::with_plan(program.clone());
        let executed = run_fixtures(&mut ctx);
        let pending: Vec<_> = program
            .cells()
            .filter(|(layer, stage, _)| !executed.contains(&(layer, *stage)))
            .collect();
        let mut summary = String::from("## Replayed execution program\n\n");
        summary.push_str(&program.to_markdown());
        if pending.is_empty() {
            let _ = writeln!(
                summary,
                "\nEvery program cell executed ({} cells).",
                program.len()
            );
        } else {
            let _ = writeln!(summary, "\n**Unreplayed program cells:**\n");
            for (layer, stage, _) in &pending {
                let _ = writeln!(summary, "- `{layer}` / {}", stage.name());
            }
        }
        return Ok((summary, pending.is_empty()));
    }

    let mut ctx = ExecutionContext::by_name("auto").map_err(|e| e.to_string())?;
    run_fixtures(&mut ctx);
    let plan = ctx.plan().expect("auto context is planned");
    let mut summary = String::from("## Density-adaptive execution plan\n\n");
    summary.push_str(&plan.to_markdown());
    if let Some(path) = emit {
        let bytes = plan.encode().map_err(|e| format!("encode: {e}"))?;
        std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            summary,
            "\nCompiled program: `{path}` ({} bytes, {} cells).",
            bytes.len(),
            plan.len()
        );
    }
    Ok((summary, true))
}
