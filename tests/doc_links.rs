//! Dead-link check for the prose docs: every relative Markdown link in
//! `README.md` and `docs/*.md` must resolve to an existing file, so the
//! architecture book cannot rot silently. External URLs and pure
//! `#anchor` links are skipped; fenced code blocks are ignored.

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

#[test]
fn relative_links_in_readme_and_docs_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/ is readable")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .collect();
    docs.sort();
    files.extend(docs);

    let mut checked = 0usize;
    let mut broken = Vec::new();
    for file in &files {
        let text =
            std::fs::read_to_string(file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().expect("doc files live in a directory");
        let mut in_fence = false;
        for (idx, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
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
                    broken.push(format!("{}:{}: broken link `{target}`", file.display(), idx + 1));
                }
            }
        }
    }
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
