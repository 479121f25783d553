//! Facts about the machine, the toolchain and the repository that a
//! result is only meaningful together with.

use crate::json::Json;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Hardware threads this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_features() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// First line a command prints, or `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Lines and `pub` items of the Rust sources under `root` that make up
/// the program under test: `crates/compat` (stand-ins for crates.io),
/// build output and this benchmark are left out. The roadmap's aim-2
/// scoreboard.
fn scoreboard(root: &Path) -> (u64, u64) {
    fn walk(dir: &Path, root: &Path, loc: &mut u64, items: &mut u64) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                let skipped = name.starts_with('.')
                    || name == "target"
                    || rel == Path::new("crates/compat")
                    || rel == Path::new("stbench");
                if !skipped {
                    walk(&path, root, loc, items);
                }
            } else if name.ends_with(".rs") {
                let Ok(text) = fs::read_to_string(&path) else {
                    continue;
                };
                *loc += text.lines().count() as u64;
                *items += text.lines().filter(|l| is_pub_item(l)).count() as u64;
            }
        }
    }
    let (mut loc, mut items) = (0, 0);
    walk(root, root, &mut loc, &mut items);
    (loc, items)
}

/// Whether a source line declares an item visible outside its crate
/// (`pub fn`, `pub struct`, …) as opposed to a `pub` field.
fn is_pub_item(line: &str) -> bool {
    const KEYWORDS: [&str; 12] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async", "union",
    ];
    line.trim_start()
        .strip_prefix("pub ")
        .and_then(|rest| rest.split_whitespace().next())
        .is_some_and(|word| KEYWORDS.contains(&word))
}

/// The facts block of a result file. `root` is the repository root.
pub fn facts(root: &Path) -> Json {
    let (avx2, fma) = cpu_features();
    let (loc, pub_items) = scoreboard(root);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("avx2", Json::Bool(avx2)),
        ("fma", Json::Bool(fma)),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("workspace_loc", Json::Num(loc as f64)),
        ("workspace_pub_items", Json::Num(pub_items as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_items_are_told_from_pub_fields() {
        assert!(is_pub_item("pub fn forward(&mut self) {"));
        assert!(is_pub_item("    pub struct Span {"));
        assert!(is_pub_item("pub const ALL: [Stage; 3] = ["));
        assert!(is_pub_item("pub unsafe fn raw() {}"));
        assert!(!is_pub_item("    pub name: String,"));
        assert!(!is_pub_item("pub(crate) fn hidden() {}"));
        assert!(!is_pub_item("// pub fn in_a_comment()"));
        assert!(!is_pub_item("fn private() {}"));
    }

    #[test]
    fn this_process_has_a_peak_rss_and_a_core() {
        assert!(nproc() >= 1);
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
