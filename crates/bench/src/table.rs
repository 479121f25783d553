//! Minimal fixed-width table printing for the experiments.

/// Renders rows of cells as an aligned text table with a header rule.
///
/// ```
/// use sparsetrain_bench::table::render;
/// let out = render(&[
///     vec!["model".into(), "acc".into()],
///     vec!["alexnet".into(), "0.91".into()],
/// ]);
/// assert!(out.contains("alexnet"));
/// ```
pub fn render(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    if cols == 0 {
        return String::new();
    }
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!("{cell:<w$}"));
            if i + 1 < cols {
                out.push_str("  ");
            }
        }
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Formats a float with `digits` decimal places.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let out = render(&[vec!["a".into(), "bb".into()], vec!["ccc".into(), "d".into()]]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn empty_input_empty_output() {
        assert_eq!(render(&[]), "");
        // Rows without a single cell used to underflow the rule's width.
        assert_eq!(render(&[vec![]]), "");
        assert_eq!(render(&[vec![], vec![]]), "");
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.2345, 2), "1.23");
    }
}
