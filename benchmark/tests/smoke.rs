//! Smoke the whole path through the real binaries in `--quick` mode: the
//! all-workloads report, both single-run modes on a second seed, `compare`,
//! and the refusal to run under an `AGATHA_*` override. One test function,
//! because the runs share the scratch directories under the target directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use agatha_benchmark::json::Json;
use agatha_benchmark::metrics::{END_TO_END, PER_LAYER};
use agatha_benchmark::workloads::WORKLOAD_NAMES;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository")
        .into()
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agatha_benchmark"))
        .args(args)
        .current_dir(repo_root())
        .env_remove("AGATHA_PRECISION")
        .output()
        .expect("run agatha_benchmark")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The last stdout line of a single run, parsed, with its metric names.
fn result_line(out: &Output) -> (Json, Vec<String>) {
    let text = stdout(out);
    let line = text.lines().last().expect("a result line");
    let doc =
        Json::parse(line).unwrap_or_else(|e| panic!("result line does not parse ({e}): {line}"));
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true), "{line}");
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let names = doc.get("metrics").unwrap().fields().iter().map(|(k, _)| k.clone()).collect();
    (doc, names)
}

#[test]
fn quick_mode_smokes_every_workload_in_both_modes() {
    let dir = std::env::temp_dir().join(format!("agatha_bm_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let set = dir.join("quick.json");
    let set_arg = set.to_str().unwrap();

    // Every workload, end to end and traced, default seed.
    let out = benchmark(&["--quick", "--out", set_arg]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
    let table = stdout(&out);
    let doc = Json::parse(&std::fs::read_to_string(&set).unwrap()).expect("the set parses");
    assert_eq!(doc.get("comparable").and_then(Json::as_bool), Some(false), "--quick is stamped");
    assert!(doc.get("host").and_then(|h| h.get("detected_backend")).is_some());
    for w in WORKLOAD_NAMES {
        let runs = doc.get("workloads").and_then(|ws| ws.get(w)).unwrap_or_else(|| panic!("{w}"));
        assert_eq!(runs.get("correct").and_then(Json::as_bool), Some(true), "{w}");
        assert_eq!(runs.get("end_to_end").unwrap().fields().len(), END_TO_END.len(), "{w}");
        assert_eq!(runs.get("per_layer").unwrap().fields().len(), PER_LAYER.len(), "{w}");
        assert!(table.contains(&format!("== {w} ")), "{w} missing from the table");
    }
    let carried = |w: &str, m: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|r| r.get("per_layer"))
            .and_then(|l| l.get(m))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(carried("protein-stream100", "core.bucketing.carry_deferred") > 0.0);
    assert_eq!(carried("short-batch", "core.bucketing.carry_deferred"), 0.0);
    assert_eq!(carried("short-batch", "serve.protocol.parse_ns_per_req"), 0.0);
    assert!(carried("serve-open", "serve.protocol.parse_ns_per_req") > 0.0);
    assert!(carried("long-batch", "align.block.tier_share_i32") > 0.5);

    // A set compares cleanly with itself.
    let out = benchmark(&["compare", set_arg, set_arg]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(!stdout(&out).contains("worse\n"));

    // A second seed runs clean in both single-run modes, and the result
    // line carries exactly the declared metrics.
    let out =
        benchmark(&["--quick", "--workload", "protein-stream100", "--seed", "77", "--trace", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (_, names) = result_line(&out);
    assert_eq!(names, END_TO_END.iter().map(|m| m.def.name).collect::<Vec<_>>());
    let out =
        benchmark(&["--quick", "--workload", "protein-stream100", "--seed", "77", "--trace", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (_, names) = result_line(&out);
    assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());

    // One resolved configuration only: an AGATHA_* override is refused by
    // name, with no result printed.
    let out = Command::new(env!("CARGO_BIN_EXE_agatha_benchmark"))
        .args(["--quick", "--workload", "short-batch", "--trace", "0"])
        .current_dir(repo_root())
        .env("AGATHA_PRECISION", "i32")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("AGATHA_PRECISION"));
    assert!(out.stdout.is_empty());

    // Unknown workloads and malformed flags are usage errors.
    assert_eq!(benchmark(&["--workload", "nope"]).status.code(), Some(2));
    assert_eq!(benchmark(&["--workload", "short-batch", "--trace", "2"]).status.code(), Some(2));
    assert_eq!(benchmark(&["--seed", "x"]).status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}
