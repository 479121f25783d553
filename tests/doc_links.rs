//! Dead-link check for the prose docs: every relative Markdown link in
//! `README.md` and `docs/*.md` must resolve to an existing file, so the
//! architecture book cannot rot silently. External URLs and pure
//! `#anchor` links are skipped; fenced code blocks are ignored — except
//! that every `--example X`, `--bench X`, `--bin X` and `--test X` inside
//! one, or anywhere in `.github/workflows/ci.yml`, must name a cargo
//! target that exists, so a quoted command or a CI step cannot outlive the
//! target it runs. Source files the prose names in back-ticks by their
//! repository path must exist too, so a deleted file cannot leave its
//! mention behind.

use std::path::{Path, PathBuf};

/// Extracts inline Markdown link targets (`[text](target)`) from one line.
fn markdown_link_targets(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("](") {
        let after = &rest[pos + 2..];
        let Some(end) = after.find(')') else { break };
        // Drop an optional `"title"` suffix inside the parentheses.
        let target = after[..end].split_whitespace().next().unwrap_or("");
        if !target.is_empty() {
            out.push(target);
        }
        rest = &after[end + 1..];
    }
    out
}

/// Calls `visit(file, line number, line, inside a fenced block)` for every
/// line of `README.md` and `docs/*.md` that is not itself a fence marker.
fn for_each_doc_line(root: &Path, mut visit: impl FnMut(&Path, usize, &str, bool)) {
    let mut files = vec![root.join("README.md")];
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ is readable")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .collect();
    docs.sort();
    files.extend(docs);

    for file in &files {
        let text =
            std::fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let mut in_fence = false;
        for (idx, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
            } else {
                visit(file, idx + 1, line, in_fence);
            }
        }
    }
}

#[test]
fn relative_links_in_readme_and_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut broken = Vec::new();
    for_each_doc_line(root, |file, line_no, line, in_fence| {
        if in_fence {
            return;
        }
        let dir = file.parent().expect("doc files live in a directory");
        for target in markdown_link_targets(line) {
            if ["http://", "https://", "mailto:", "#"]
                .iter()
                .any(|skip| target.starts_with(skip))
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or("");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                broken.push(format!("{}:{line_no}: broken link `{target}`", file.display()));
            }
        }
    });
    assert!(
        checked > 0,
        "the docs contain relative links; finding none means the walk broke"
    );
    assert!(
        broken.is_empty(),
        "{} broken link(s):\n{}",
        broken.len(),
        broken.join("\n")
    );
}

/// Whether some workspace package (the root, `crates/*`, `crates/compat/*`)
/// has a target `name` of the kind `flag` selects: an auto-discovered file
/// (`examples/`, `benches/`, `tests/`, `src/bin/`), or for `--bin` a
/// package of that name with a `src/main.rs`.
fn target_exists(root: &Path, flag: &str, name: &str) -> bool {
    let mut packages = vec![root.to_path_buf()];
    for parent in ["crates", "crates/compat"] {
        let entries = std::fs::read_dir(root.join(parent)).expect("crate directories are readable");
        packages.extend(entries.filter_map(|entry| entry.ok().map(|e| e.path())));
    }
    packages.iter().any(|dir| match flag {
        "--example" => dir.join(format!("examples/{name}.rs")).exists(),
        "--bench" => dir.join(format!("benches/{name}.rs")).exists(),
        "--test" => dir.join(format!("tests/{name}.rs")).exists(),
        _ => {
            let package_is_named = |manifest: String| {
                let mut package = manifest.lines().skip_while(|l| l.trim() != "[package]");
                package.find(|l| l.starts_with("name = ")) == Some(&format!("name = \"{name}\""))
            };
            dir.join(format!("src/bin/{name}.rs")).exists()
                || (dir.join("src/main.rs").exists()
                    && std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(package_is_named))
        }
    })
}

#[test]
fn cargo_targets_named_in_fenced_blocks_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut stale = Vec::new();
    let mut check_line = |file: &Path, line_no: usize, line: &str| {
        let mut words = line.split_whitespace();
        while let Some(flag) = words.next() {
            if !matches!(flag, "--example" | "--bench" | "--bin" | "--test") {
                continue;
            }
            let Some(name) = words.next() else { continue };
            checked += 1;
            if !target_exists(root, flag, name) {
                stale.push(format!(
                    "{}:{line_no}: no target for `{flag} {name}`",
                    file.display()
                ));
            }
        }
    };
    for_each_doc_line(root, |file, line_no, line, in_fence| {
        if in_fence {
            check_line(file, line_no, line);
        }
    });
    // CI steps run cargo commands too: every workflow line counts as fenced.
    let ci = root.join(".github/workflows/ci.yml");
    let workflow =
        std::fs::read_to_string(&ci).unwrap_or_else(|e| panic!("cannot read {}: {e}", ci.display()));
    for (idx, line) in workflow.lines().enumerate() {
        check_line(&ci, idx + 1, line);
    }
    assert!(
        checked > 0,
        "the docs and CI quote cargo commands; finding none means the walk broke"
    );
    assert!(
        stale.is_empty(),
        "{} stale cargo command(s):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

#[test]
fn backticked_repository_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for_each_doc_line(root, |file, line_no, line, in_fence| {
        if in_fence {
            return;
        }
        // Inline code spans are the odd pieces between back-ticks.
        for span in line.split('`').skip(1).step_by(2) {
            let is_path = span.contains('/')
                && [".rs", ".md", ".json", ".yml", ".toml"]
                    .iter()
                    .any(|ext| span.ends_with(ext));
            if !is_path {
                continue;
            }
            checked += 1;
            if !root.join(span).exists() {
                missing.push(format!("{}:{line_no}: no file `{span}`", file.display()));
            }
        }
    });
    assert!(
        checked > 0,
        "the docs name source files by path; finding none means the walk broke"
    );
    assert!(
        missing.is_empty(),
        "{} missing file(s):\n{}",
        missing.len(),
        missing.join("\n")
    );
}
