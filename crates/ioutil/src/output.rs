//! The AGAThA artifact's output files (Appendix A.2.6): alignment scores in
//! `output/score.log`, kernel time in `output/time.json`.

use std::io::Write;
use std::path::Path;

/// Write one score per line, in task order (the artifact's `score.log`).
pub fn write_score_log(path: &Path, scores: &[i32]) -> Result<(), String> {
    let mut f =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut buf = String::with_capacity(scores.len() * 8);
    for s in scores {
        buf.push_str(&s.to_string());
        buf.push('\n');
    }
    f.write_all(buf.as_bytes()).map_err(|e| e.to_string())
}

/// Write the kernel execution time as JSON (the artifact's `time.json`),
/// e.g. `{"kernel_ms": 12.345, "engine": "AGAThA", "tasks": 160}`.
pub fn write_time_json(
    path: &Path,
    engine: &str,
    kernel_ms: f64,
    tasks: usize,
) -> Result<(), String> {
    let json = format_time_json(engine, kernel_ms, tasks);
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Render the time JSON (exposed for tests).
pub fn format_time_json(engine: &str, kernel_ms: f64, tasks: usize) -> String {
    format!(
        "{{\n  \"engine\": \"{}\",\n  \"kernel_ms\": {:.4},\n  \"tasks\": {}\n}}\n",
        escape_json(engine),
        kernel_ms,
        tasks
    )
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_log_roundtrip() {
        let dir = crate::scratch_dir("score_log");
        let path = dir.join("score.log");
        write_score_log(&path, &[10, -5, 0, 42]).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "10\n-5\n0\n42\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn time_json_shape() {
        let j = format_time_json("AGAThA", 12.34567, 160);
        assert!(j.contains("\"kernel_ms\": 12.3457"));
        assert!(j.contains("\"tasks\": 160"));
        assert!(j.contains("\"engine\": \"AGAThA\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }
}
