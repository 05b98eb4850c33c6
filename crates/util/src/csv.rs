//! Minimal CSV rendering for report artifacts.
//!
//! Only what the workspace needs: RFC-4180-style quoting, header rows,
//! and converters from [`crate::report`] types. No parsing — artifacts
//! are write-only.

use crate::report::{Figure, Table};
use std::fmt::Write as _;

/// Quote a CSV field when needed (commas, quotes, newlines).
#[must_use]
fn escape_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render rows of string fields as CSV.
#[must_use]
fn to_csv<R, F>(rows: R) -> String
where
    R: IntoIterator<Item = F>,
    F: IntoIterator<Item = String>,
{
    let mut out = String::new();
    for row in rows {
        let fields: Vec<String> = row.into_iter().map(|f| escape_field(&f)).collect();
        let _ = writeln!(out, "{}", fields.join(","));
    }
    out
}

/// A figure as long-format CSV: `series,x,y`.
#[must_use]
pub fn figure_to_csv(fig: &Figure) -> String {
    let header = std::iter::once(vec![
        "series".to_string(),
        fig.x_label.clone(),
        fig.y_label.clone(),
    ]);
    let data = fig.series.iter().flat_map(|s| {
        s.points
            .iter()
            .map(move |&(x, y)| vec![s.name.clone(), x.to_string(), y.to_string()])
    });
    to_csv(header.chain(data))
}

/// A table as CSV with its header row.
#[must_use]
pub fn table_to_csv(table: &Table) -> String {
    let header = std::iter::once(table.headers.clone());
    to_csv(header.chain(table.rows.iter().cloned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Series;

    #[test]
    fn escaping_rules() {
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn figure_long_format() {
        let mut fig = Figure::new("f", "t").with_axes("sites", "coverage");
        fig.push(Series::new("k=1", vec![(1.0, 0.5), (10.0, 0.9)]));
        fig.push(Series::new("k=2", vec![(1.0, 0.1)]));
        let csv = figure_to_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,sites,coverage");
        assert_eq!(lines[1], "k=1,1,0.5");
        assert_eq!(lines[3], "k=2,1,0.1");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn table_roundtrip_shape() {
        let mut t = Table::new("x", &["Domain", "diameter"]);
        t.push_row(vec!["Hotels & Lodging, Inc".into(), "6".into()]);
        let csv = table_to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "Domain,diameter");
        assert_eq!(lines[1], "\"Hotels & Lodging, Inc\",6");
    }

    #[test]
    fn empty_inputs() {
        let fig = Figure::new("f", "t");
        assert_eq!(figure_to_csv(&fig).lines().count(), 1); // header only
        let t = Table::new("x", &["a"]);
        assert_eq!(table_to_csv(&t).lines().count(), 1);
    }
}
