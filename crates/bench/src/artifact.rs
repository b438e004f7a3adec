//! The `BENCH_*.json` artifact layout shared by `sweepbench` and
//! `netload`: `{"schema": …, "entries": [ … ]}` with one single-line JSON
//! entry object per line, each starting with its `"tag"`. Re-running a
//! binary replaces its own entries and keeps every other one, so a file
//! accumulates a trajectory of tagged measurements.

/// Merges `entries` into the artifact at `path` and writes it back:
/// existing entries whose line starts with `replace` are dropped, all
/// others are kept in order, and `entries` are appended. Returns the
/// number of entries written and whether the re-read file is well-formed
/// (schema, entry list, one line per entry, closing brace).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_entries(
    path: &str,
    schema: &str,
    replace: &str,
    entries: Vec<String>,
) -> (usize, bool) {
    let mut kept: Vec<String> = Vec::new();
    if let Ok(prev) = std::fs::read_to_string(path) {
        for line in prev.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with("{\"tag\":") && !line.starts_with(replace) {
                kept.push(line.to_string());
            }
        }
    }
    kept.extend(entries);
    let mut body = format!("{{\n\"schema\": \"{schema}\",\n\"entries\": [\n");
    for (i, e) in kept.iter().enumerate() {
        let comma = if i + 1 < kept.len() { "," } else { "" };
        body.push_str(&format!("{e}{comma}\n"));
    }
    body.push_str("]\n}\n");
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));

    let back = std::fs::read_to_string(path).unwrap_or_default();
    let well_formed = back.contains(schema)
        && back.contains("\"entries\": [")
        && back.lines().filter(|l| l.starts_with("{\"tag\":")).count() == kept.len()
        && back.trim_end().ends_with('}');
    (kept.len(), well_formed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rerun_replaces_own_entries_and_keeps_others() {
        let path = std::env::temp_dir().join(format!("bench_artifact_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        let a = |v: u32| format!("{{\"tag\":\"a\",\"v\":{v}}}");
        let b = "{\"tag\":\"b\",\"v\":0}".to_string();
        assert_eq!(write_entries(path, "s/v1", "{\"tag\":\"a\"", vec![a(1), b.clone()]), (2, true));
        assert_eq!(write_entries(path, "s/v1", "{\"tag\":\"a\"", vec![a(2)]), (2, true));
        let body = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        let want = format!("{{\n\"schema\": \"s/v1\",\n\"entries\": [\n{b},\n{}\n]\n}}\n", a(2));
        assert_eq!(body, want);
    }
}
