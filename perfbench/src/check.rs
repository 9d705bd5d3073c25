//! Output checks against the expected files committed beside the
//! benchmark (`perfbench/expected/`, rewritten by `--regenerate`).
//!
//! A study report is compared by its `cells` array with every
//! `from_cache` flag cleared: which cells came from a cache depends on the
//! run (cold, warm restart, served), the cells themselves only on the grid.

use serde_json::Value;
use std::path::PathBuf;

/// Where the expected files live.
pub fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// Reads one expected file, naming it in the error.
pub fn read_expected(name: &str) -> Result<String, String> {
    let path = expected_dir().join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Writes one expected file (the `--regenerate` path).
pub fn write_expected(name: &str, text: &str) -> Result<(), String> {
    let path = expected_dir().join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The `cells` array of a compact serialized `StudyReport` (as
/// `StudyReport::to_json` and the serve protocol write it), with every
/// `from_cache` flag set to false. `None` when the text is no report.
pub fn cells_text(report_json: &str) -> Option<String> {
    let start = report_json.find("{\"cells\":")? + "{\"cells\":".len();
    let end = report_json.rfind(",\"stats\":")?;
    let cells = report_json.get(start..end)?;
    Some(cells.replace("\"from_cache\":true", "\"from_cache\":false"))
}

/// How many cells of `actual` differ from `expected` (both [`cells_text`]
/// output); a missing or extra cell counts once, unparseable text counts
/// every expected cell.
pub fn cell_mismatches(expected: &str, actual: &str) -> usize {
    if expected == actual {
        return 0;
    }
    let parse =
        |text: &str| serde_json::from_str(text).ok().and_then(|v: Value| v.as_array().cloned());
    let Some(want) = parse(expected) else {
        return parse(actual).map_or(1, |got| got.len().max(1));
    };
    let Some(got) = parse(actual) else { return want.len().max(1) };
    let differing = want.iter().zip(&got).filter(|(a, b)| a != b).count();
    differing + want.len().abs_diff(got.len())
}

/// A `bittrans-fuzz-v1` document on one line, without its `elapsed_ms`
/// (the only field that is not a function of the fuzzed seeds).
pub fn fuzz_doc_line(doc: &str) -> String {
    let line: String = doc.lines().map(str::trim).collect();
    match line.rfind(",\"elapsed_ms\"") {
        Some(cut) => format!("{}}}", &line[..cut]),
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "{\"cells\":[{\"spec\":\"a\",\"from_cache\":true,\"ok\":true},\
        {\"spec\":\"b\",\"from_cache\":false,\"ok\":true}],\"stats\":{\"jobs\":2}}";

    #[test]
    fn cells_text_clears_cache_flags_and_drops_stats() {
        let cells = cells_text(REPORT).expect("a report");
        assert!(!cells.contains("stats") && !cells.contains("\"from_cache\":true"));
        assert_eq!(cell_mismatches(&cells, &cells), 0);
        assert_eq!(cells_text("{\"ok\":false,\"error\":\"x\"}"), None);
    }

    #[test]
    fn a_corrupted_expected_cell_is_counted() {
        let actual = cells_text(REPORT).expect("a report");
        let corrupted = actual.replacen("\"b\"", "\"c\"", 1);
        assert_eq!(cell_mismatches(&corrupted, &actual), 1);
        let truncated = "[{\"spec\":\"a\",\"from_cache\":false,\"ok\":true}]";
        assert_eq!(cell_mismatches(truncated, &actual), 1, "an extra cell counts once");
        assert_eq!(cell_mismatches(&actual, "garbage"), 2, "unparseable output fails every cell");
    }

    #[test]
    fn fuzz_doc_line_drops_elapsed_ms_and_stays_json() {
        let doc = "{\n  \"seed\": 3,\n  \"details\": [\n  ],\n  \"elapsed_ms\": 12\n}\n";
        let line = fuzz_doc_line(doc);
        assert_eq!(line, "{\"seed\": 3,\"details\": []}");
        assert!(serde_json::from_str(&line).is_ok());
    }
}
