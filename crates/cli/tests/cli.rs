//! Integration tests of the `agatha` binary.

use std::process::Command;

fn agatha() -> Command {
    Command::new(env!("CARGO_BIN_EXE_agatha"))
}

#[test]
fn help_lists_commands() {
    let out = agatha().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("align"));
    assert!(text.contains("-z N"));
}

#[test]
fn engines_listed() {
    let out = agatha().arg("engines").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for e in ["agatha", "saloba", "manymap", "logan", "cpu"] {
        assert!(text.contains(e), "missing engine {e}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = agatha().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A flag no subcommand reads used to be dropped silently (`align
    // --no-such-flag 3 REF QRY` aligned and exited 0). It must fail before
    // any work, naming the flag.
    let dir = std::env::temp_dir().join(format!("agatha_cli_unk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGTACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGTACGT\n").unwrap();
    let out_dir = dir.join("out");
    let pair = [refs.to_str().unwrap(), queries.to_str().unwrap()];

    let cases: [(&[&str], &[&str], &str); 11] = [
        (&["align", "--no-such-flag", "3"], &pair, "--no-such-flag"),
        (&["align", "-x", "3"], &pair, "-x"),
        // A serve-only flag is unknown to align, and a demo-only one to serve.
        (&["align", "--port", "0"], &pair, "--port"),
        (&["demo", "--reads", "4", "--thraeds", "1"], &[], "--thraeds"),
        (&["serve", "--port", "0", "--reads", "4"], &[], "--reads"),
        // Flags another subcommand reads but this one does not: `demo` runs
        // whole-batch (nothing to chunk) and `serve` neither streams a file
        // nor prints the `--verbose` tally. These used to parse, exit 0 and
        // change nothing.
        (&["demo", "--reads", "4", "--chunk", "2"], &[], "--chunk"),
        (&["serve", "--port", "0", "--chunk", "2"], &[], "--chunk"),
        (&["serve", "--port", "0", "--verbose"], &[], "--verbose"),
        // The daemon's engine schedules no simulated devices.
        (&["serve", "--port", "0", "--gpus", "2"], &[], "--gpus"),
        // The stream's shape is not a knob: `align` always parses on the
        // prefetch reader and packs with carry-over.
        (&["align", "--prefetch", "0"], &pair, "--prefetch"),
        (&["align", "--carryover", "off"], &pair, "--carryover"),
    ];
    for (args, positional, flag) in cases {
        let out = agatha()
            .args(args)
            .args(positional)
            .args(["-o", out_dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option") && err.contains(flag), "{args:?}: stderr: {err}");
        assert!(!out_dir.exists(), "{args:?} must fail before writing output");
    }
    for sub in ["engines", "scenarios"] {
        let out = agatha().args([sub, "--bogus"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub} --bogus must be a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
    }

    // Every flag the repo's benchmark passes to `align` is still accepted
    // (its `serve` flags are covered by `serve_accepts_the_benchmark_flags`).
    let out = agatha()
        .args(["align", "--scenario", "dna-short", "--threads", "2", "--chunk", "100"])
        .args(["--verbose", "-o", out_dir.to_str().unwrap()])
        .args(pair)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out_dir.join("score.log").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_accepts_the_benchmark_flags() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("agatha_cli_bsrv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = agatha()
        .args(["serve", "--scenario", "dna-short", "--port", "0", "--threads", "2"])
        .args(["--window-ms", "2", "--max-queue", "65536", "--deadline-ms", "10000"])
        .args(["-o", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    assert!(line.contains("listening on"), "startup line: {line}");
    let addr = line.trim().rsplit(' ').next().expect("address in startup line").to_string();

    let mut sock = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    sock.write_all(b"{\"cmd\":\"shutdown\"}\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("shutting-down"), "shutdown response: {resp}");
    let status = child.wait().unwrap();
    assert!(status.success(), "serve exit: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_artifact_format_end_to_end() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    // The artifact's input format (Appendix A.2.5).
    std::fs::write(&refs, ">>> 1\nACGTACGTACGTACGT\n>>> 2\nAAAACCCCGGGGTTTT\n").unwrap();
    std::fs::write(&queries, ">>> 1\nACGTACGTACGTACGT\n>>> 2\nAAAACCCCGGGGTTTT\n").unwrap();
    let out_dir = dir.join("out");
    let out = agatha()
        .args(["align", "-a", "2", "-b", "4", "-q", "4", "-r", "2", "-z", "400", "-w", "100"])
        .args(["-o", out_dir.to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let scores = std::fs::read_to_string(out_dir.join("score.log")).unwrap();
    // Perfect 16-base matches at +2 each.
    assert_eq!(scores, "32\n32\n");
    let time = std::fs::read_to_string(out_dir.join("time.json")).unwrap();
    assert!(time.contains("\"engine\": \"AGAThA\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_rejects_mismatched_files() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_mm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n>2\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "-o", dir.join("out").to_str().unwrap()])
        .args([refs.to_str().unwrap(), queries.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("equal number"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_uncreatable_output_dir_fails_before_any_work() {
    // `-o` below a regular file cannot be created. Each subcommand must find
    // out before it works: `align` and `demo` before they align (no
    // `--verbose` tally on stdout), `serve` before it listens — not at
    // shutdown, after a whole session, where the stats dump would be lost.
    let dir = std::env::temp_dir().join(format!("agatha_cli_badout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGTACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGTACGT\n").unwrap();
    let file = dir.join("file");
    std::fs::write(&file, "not a directory\n").unwrap();
    let out_dir = file.join("out");
    let o = out_dir.to_str().unwrap();
    let cases: [&[&str]; 3] = [
        &["align", "--verbose", "-o", o, refs.to_str().unwrap(), queries.to_str().unwrap()],
        &["demo", "--reads", "4", "--verbose", "-o", o],
        &["serve", "--port", "0", "-o", o],
    ];
    for args in cases {
        let mut child = agatha()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        // A daemon that listened first would wait for a shutdown request.
        let t0 = std::time::Instant::now();
        while child.try_wait().unwrap().is_none() {
            if t0.elapsed() > std::time::Duration::from_secs(30) {
                child.kill().ok();
                panic!("{args:?} still running: -o was not checked before the work");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.is_empty(), "{args:?} worked before failing: {stdout}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("create") && err.contains(o), "{args:?}: stderr: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_numeric_flag_is_an_error() {
    // `-z abc` used to silently align with the default threshold (400).
    let dir = std::env::temp_dir().join(format!("agatha_cli_badnum_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "-z", "abc"])
        .args(["-o", dir.join("out").to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success(), "malformed -z must not fall back silently");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'abc'") && err.contains("-z"), "stderr: {err}");
    // `demo` rejects malformed flags it consumes, too.
    let out = agatha().args(["demo", "--reads", "4x"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("'4x'"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gpus_flag_rejected_for_baseline_engines() {
    // `--gpus` used to be silently ignored for baselines.
    let out = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--gpus", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("agatha engine"), "stderr: {err}");
    // --gpus 1 is the no-op default and stays accepted.
    let dir = std::env::temp_dir().join(format!("agatha_cli_g1_{}", std::process::id()));
    let out = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--gpus", "1"])
        .args(["-o", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chunked_streaming_scores_match_whole_batch() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_chunk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    let mut rf = String::new();
    let mut qf = String::new();
    for i in 0..9 {
        rf.push_str(&format!(">r{i}\n{}\n", "ACGTACGTACGTACGT".repeat(i % 3 + 1)));
        qf.push_str(&format!(">q{i}\n{}\n", "ACGTACGTACGTACGT".repeat(i % 3 + 1)));
    }
    std::fs::write(&refs, rf).unwrap();
    std::fs::write(&queries, qf).unwrap();
    let run = |extra: &[&str], out: &str| {
        let out_dir = dir.join(out);
        let st = agatha()
            .args(["align", "-w", "100"])
            .args(extra)
            .args(["-o", out_dir.to_str().unwrap()])
            .arg(refs.to_str().unwrap())
            .arg(queries.to_str().unwrap())
            .output()
            .unwrap();
        assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
        std::fs::read_to_string(out_dir.join("score.log")).unwrap()
    };
    // A chunk larger than the input aligns everything in one go (the
    // retired `--chunk 0` spelling of "whole batch").
    let whole = run(&["--chunk", "1024"], "whole");
    assert_eq!(whole.lines().count(), 9);
    // Chunk 3 ends the stream on a full chunk, so the carried tasks pack in
    // a flush chunk of their own.
    for (flags, out) in [
        (&["--chunk", "2", "--threads", "2"], "chunked"),
        (&["--chunk", "2", "--threads", "1"], "chunked_1t"),
        (&["--chunk", "3", "--threads", "2"], "chunked_3"),
    ] {
        assert_eq!(run(flags, out), whole, "{flags:?}: chunked streaming must score identically");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn host_flags_rejected_for_baseline_engines() {
    // A baseline runs on the engine, so it reads `--threads` and `--chunk`;
    // it has no fill plan for `--verbose` to report, on `align` or `demo`.
    let dir = std::env::temp_dir().join(format!("agatha_cli_hostbase_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let align = agatha()
        .args(["align", "--engine", "saloba", "--verbose"])
        .args(["-o", dir.join("out").to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    let demo = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--verbose"])
        .output()
        .unwrap();
    for out in [align, demo] {
        assert!(!out.status.success(), "--verbose must not be silently ignored by baselines");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("agatha engine"), "stderr: {err}");
        assert!(err.contains("no fill plan"), "stderr: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Write `pairs` reference/query pairs of uneven lengths (an LCG's bases,
/// the query with a substitution every 13th base) to `dir`, returning the
/// two paths.
fn write_pairs(dir: &std::path::Path, pairs: usize) -> (std::path::PathBuf, std::path::PathBuf) {
    let (mut rf, mut qf) = (String::new(), String::new());
    let mut x = 7u64;
    for i in 0..pairs {
        let (mut r, mut q) = (String::new(), String::new());
        for k in 0..40 + (i * 37) % 160 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
            r.push(c);
            q.push(if k % 13 == 5 { 'A' } else { c });
        }
        rf.push_str(&format!(">r{i}\n{r}\n"));
        qf.push_str(&format!(">q{i}\n{q}\n"));
    }
    let (refs, queries) = (dir.join("ref.fasta"), dir.join("query.fasta"));
    std::fs::write(&refs, rf).unwrap();
    std::fs::write(&queries, qf).unwrap();
    (refs, queries)
}

#[test]
fn baseline_engines_stream_the_same_at_every_shape() {
    // A baseline takes its tasks in incoming order, so its warps, scores and
    // simulated time do not depend on how the stream is chunked or on how
    // many workers claim them. 45 pairs at chunk 7 carry runs across chunks
    // on every shape (a GASAL2 warp holds 32 tasks, a SALoBa warp 8).
    let dir = std::env::temp_dir().join(format!("agatha_cli_baseshape_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, queries) = write_pairs(&dir, 45);
    let run = |engine: &str, shape: &[&str]| {
        let out_dir = dir.join(format!("{engine}_{}", shape.join("_")));
        let out = agatha()
            .args(["align", "-w", "100", "--engine", engine])
            .args(shape)
            .args(["-o", out_dir.to_str().unwrap()])
            .arg(refs.to_str().unwrap())
            .arg(queries.to_str().unwrap())
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let read = |file: &str| std::fs::read_to_string(out_dir.join(file)).unwrap();
        (read("score.log"), read("time.json"), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    for engine in ["saloba", "gasal2", "cpu", "logan"] {
        let whole = run(engine, &["--threads", "1", "--chunk", "4096"]);
        assert_eq!(whole.0.lines().count(), 45, "{engine}");
        let chunked = run(engine, &["--threads", "2", "--chunk", "7"]);
        assert_eq!(chunked.0, whole.0, "{engine}: score.log");
        assert_eq!(chunked.1, whole.1, "{engine}: time.json");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_broken_input_fails_the_same_under_a_baseline() {
    // The query file ends after 5 of 8 pairs: both engines align the pairs
    // before it and fail with the stream's chunk-and-offset error.
    let dir = std::env::temp_dir().join(format!("agatha_cli_basebroken_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (refs, queries) = write_pairs(&dir, 8);
    let text = std::fs::read_to_string(&queries).unwrap();
    let cut: String = text.lines().take(10).map(|l| format!("{l}\n")).collect();
    std::fs::write(&queries, cut).unwrap();
    let stderr = |engine: &str| {
        let out = agatha()
            .args(["align", "--chunk", "2", "--engine", engine])
            .args(["-o", dir.join(engine).to_str().unwrap()])
            .arg(refs.to_str().unwrap())
            .arg(queries.to_str().unwrap())
            .output()
            .unwrap();
        assert!(!out.status.success(), "{engine}: uneven pairs must fail the run");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let agatha_err = stderr("agatha");
    assert!(agatha_err.contains("chunk 2 (task offset 5)"), "stderr: {agatha_err}");
    assert!(agatha_err.contains("equal number"), "stderr: {agatha_err}");
    assert_eq!(stderr("saloba"), agatha_err);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn midstream_parse_error_surfaces_under_prefetch() {
    // An uneven pair discovered mid-stream must fail the run with the
    // parse error (not a reader-thread panic), after the chunks before it
    // already aligned.
    let dir = std::env::temp_dir().join(format!("agatha_cli_pferr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n>2\nACGT\n>3\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n>2\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "--chunk", "1"])
        .args(["-o", dir.join("out").to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success(), "uneven pairs must fail the run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("equal number"), "stderr carries the parse error: {err}");
    assert!(err.contains("chunk"), "stderr names the interrupted chunk: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_runs_with_baseline_engine() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_demo_{}", std::process::id()));
    let out = agatha()
        .args(["demo", "--tech", "hifi", "--reads", "12", "--engine", "saloba"])
        .args(["-o", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("score.log").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_gpus_is_an_error() {
    // `--gpus 0` used to be silently clamped to 1; it must now fail loudly
    // like the other malformed numeric flags.
    let out = agatha().args(["demo", "--reads", "4", "--gpus", "0"]).output().unwrap();
    assert!(!out.status.success(), "--gpus 0 must not be clamped to 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--gpus") && err.contains("at least 1"), "stderr: {err}");

    // The align subcommand goes through the same host-option parsing.
    let dir = std::env::temp_dir().join(format!("agatha_cli_g0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "--gpus", "0"])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn precision_i16_forces_the_tier() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_p16_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGTACGTACGTACGT\n>2\nAAAACCCCGGGGTTTT\n").unwrap();
    std::fs::write(&queries, ">1\nACGTACGTACGTACGT\n>2\nAAAACCCCGGGGTTTT\n").unwrap();
    let out_dir = dir.join("out");
    let out = agatha()
        .args(["align", "--verbose"])
        .args(["-o", out_dir.to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Short all-match pairs sit comfortably inside the i16 gate: with no
    // flag asking for it, every task runs the i16 tier, nothing demotes,
    // scores stay exact.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fill precision: i16=2 scalar=0 (demoted=0)"), "stdout: {text}");
    let scores = std::fs::read_to_string(out_dir.join("score.log")).unwrap();
    assert_eq!(scores, "32\n32\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verbose_before_positionals_does_not_swallow_paths() {
    // `--verbose REF.fasta QUERY.fasta` must keep both paths positional
    // (the generic value-taking flag parse used to eat the first one).
    let dir = std::env::temp_dir().join(format!("agatha_cli_vpos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGTACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGTACGT\n").unwrap();
    let out = agatha()
        .args(["align", "--verbose"])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .args(["-o", dir.join("out").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fill precision:"), "stdout: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn precision_bogus_is_a_usage_error() {
    // There is one lane precision, so nothing to select: every value of the
    // retired flag — a once-valid one included — is the unknown option it
    // now is, on every subcommand that used to read it (refused before any
    // input is opened, so the paths need not exist).
    let cases: [&[&str]; 4] = [
        &["align", "--precision", "bogus", "ref.fasta", "query.fasta"],
        &["align", "--precision", "i16", "ref.fasta", "query.fasta"],
        &["demo", "--reads", "4", "--precision", "i32"],
        &["serve", "--port", "0", "--precision", "auto"],
    ];
    for args in cases {
        let out = agatha().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option --precision"), "{args:?}: stderr: {err}");
    }
}

/// Align one 800 bp all-match pair with `--verbose` plus `extra` flags;
/// returns (stdout, score.log).
fn align_800bp_all_match(tag: &str, extra: &[&str]) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("agatha_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    let seq = "ACGT".repeat(200);
    std::fs::write(&refs, format!(">1\n{seq}\n")).unwrap();
    std::fs::write(&queries, format!(">1\n{seq}\n")).unwrap();
    let out_dir = dir.join("out");
    let out = agatha()
        .args(["align", "--verbose"])
        .args(extra)
        .args(["-o", out_dir.to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let scores = std::fs::read_to_string(out_dir.join("score.log")).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (String::from_utf8_lossy(&out.stdout).into_owned(), scores)
}

#[test]
fn precision_i16_on_overflowing_task_demotes_and_stays_correct() {
    // Under `-a 300` one block's scores spread past the i16 offset range
    // (span + drift = 16 × 310 + 15 × 300 ≥ 2^13 even at the 8×8 tile), so
    // the task must demote to the scalar fill — observable in the --verbose
    // stats — and still score exactly.
    let (text, scores) = align_800bp_all_match("povf", &["-a", "300"]);
    assert!(text.contains("fill precision: i16=0 scalar=1 (demoted=1)"), "stdout: {text}");
    assert_eq!(scores, "240000\n", "800 matches at +300 each");
}

#[test]
fn precision_i16_on_long_task_stays_on_the_tier() {
    // The same pair under the default scoring scores 1600 — past the old
    // length-dependent gate (6 × 1602 ≥ 2^13), which demoted it — and now
    // runs the rebased i16 tier: read length no longer demotes.
    let (text, scores) = align_800bp_all_match("plong", &[]);
    assert!(text.contains("fill precision: i16=1 scalar=0 (demoted=0)"), "stdout: {text}");
    assert_eq!(scores, "1600\n", "800 matches at +2 each");
}

#[test]
fn precision_rejected_for_baseline_engines() {
    // Refused before the engine is even looked at: no engine reads it.
    let out = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--precision", "i16"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--precision must not be silently ignored by baselines");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --precision"), "stderr: {err}");
}

#[test]
fn block_geometry_is_forceable_and_bit_identical() {
    // The host tile follows the backend: `--backend sse41` runs 8x8 (where
    // the CPU has SSE4.1), `portable` 16x16, the default 32x32 where the CPU
    // has AVX-512, and all score identically
    // (and identically to the default): geometry is a tiling choice, never a
    // numerics choice.
    let dir = std::env::temp_dir().join(format!("agatha_cli_blk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    let mut rf = String::new();
    let mut qf = String::new();
    for i in 0..6 {
        rf.push_str(&format!(">r{i}\n{}\n", "ACGTTGCAACGTTGCA".repeat(i % 4 + 1)));
        qf.push_str(&format!(">q{i}\n{}\n", "ACGTAGCAACGTTGCA".repeat(i % 4 + 1)));
    }
    std::fs::write(&refs, rf).unwrap();
    std::fs::write(&queries, qf).unwrap();
    let run = |flags: &[&str], out: &str| {
        let out_dir = dir.join(out);
        let st = agatha()
            .args(["align", "-w", "100", "--verbose"])
            .args(flags)
            .args(["-o", out_dir.to_str().unwrap()])
            .arg(refs.to_str().unwrap())
            .arg(queries.to_str().unwrap())
            .output()
            .unwrap();
        assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
        let text = String::from_utf8_lossy(&st.stdout).to_string();
        (std::fs::read_to_string(out_dir.join("score.log")).unwrap(), text)
    };
    let (narrow, narrow_text) = run(&["--backend", "sse41"], "sse41");
    let (wide, wide_text) = run(&["--backend", "portable"], "portable");
    let (auto, auto_text) = run(&[], "auto");
    assert_eq!(narrow, wide, "scores must be bit-identical across geometries");
    assert_eq!(narrow, auto, "the default tile must not change scores");
    assert_eq!(narrow.lines().count(), 6);
    // The --verbose geometry line reflects the tile the backend ran: 32x32
    // on an AVX-512 host, 16x16 on AVX2, 8x8 on SSE4.1 (the detected one).
    assert!(wide_text.contains("block geometry: b8=0 b16=6 b32=0"), "stdout: {wide_text}");
    if narrow_text.contains("sse41=6") {
        assert!(narrow_text.contains("block geometry: b8=6 b16=0 b32=0"), "{narrow_text}");
    }
    let auto_geometry = if auto_text.contains("avx512=6") {
        "block geometry: b8=0 b16=0 b32=6"
    } else if auto_text.contains("avx2=6") || auto_text.contains("portable=6") {
        "block geometry: b8=0 b16=6 b32=0"
    } else {
        "block geometry: b8=6 b16=0 b32=0"
    };
    assert!(auto_text.contains(auto_geometry), "stdout: {auto_text}");
    // A scoring inside the i16 gate at 8x8 only tiles 8x8 on every backend.
    let (_, window_text) = run(&["-a", "80", "--backend", "portable"], "window");
    assert!(window_text.contains("block geometry: b8=6 b16=0 b32=0"), "stdout: {window_text}");
    assert!(window_text.contains("(demoted=0)"), "stdout: {window_text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn block_bogus_is_a_usage_error() {
    // The host tile is not a knob: `--block` is an unknown option on every
    // engine subcommand, whatever its value (refused before any input is
    // opened, so the paths need not exist).
    let cases: [&[&str]; 4] = [
        &["align", "--block", "12", "ref.fasta", "query.fasta"],
        &["align", "--block", "8", "ref.fasta", "query.fasta"],
        &["demo", "--reads", "4", "--block", "16"],
        &["serve", "--port", "0", "--block", "auto"],
    ];
    for args in cases {
        let out = agatha().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option --block"), "{args:?}: stderr: {err}");
    }
}

#[test]
fn block_rejected_for_baseline_engines() {
    // Refused before the engine is even looked at: no engine reads it.
    let out = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--block", "16"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--block must not be silently ignored by baselines");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option --block"), "stderr: {err}");
}

#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    // `agatha scenarios | head -1`: std ignores SIGPIPE, so a write to a
    // pipe whose reader is gone fails with EPIPE, which `println!` turns
    // into a panic (exit 101). The read end is closed before the child
    // writes anything, so every case hits it.
    let dir = std::env::temp_dir().join(format!("agatha_cli_pipe_{}", std::process::id()));
    let cases: [&[&str]; 4] = [
        &["scenarios"],
        &["engines"],
        &["--help"],
        &["demo", "--reads", "8", "--verbose", "-o", dir.to_str().unwrap()],
    ];
    for args in cases {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = agatha()
            .args(args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: stderr: {err}");
        assert_ne!(out.status.code(), Some(101), "{args:?}: {:?}", out.status);
        assert!(out.status.code().is_some(), "{args:?} died by a signal: {:?}", out.status);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backend_is_forceable_and_bit_identical() {
    // Every named backend (clamped to what the CPU supports) and the auto
    // default must score identically: the backend is an implementation
    // choice, never a numerics choice. `--backend portable` is exact on
    // every machine, so its --verbose line is asserted exactly.
    let dir = std::env::temp_dir().join(format!("agatha_cli_bk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    let mut rf = String::new();
    let mut qf = String::new();
    for i in 0..6 {
        rf.push_str(&format!(">r{i}\n{}\n", "ACGTTGCAACGTTGCA".repeat(i % 4 + 1)));
        qf.push_str(&format!(">q{i}\n{}\n", "ACGTAGCAACGTTGCA".repeat(i % 4 + 1)));
    }
    std::fs::write(&refs, rf).unwrap();
    std::fs::write(&queries, qf).unwrap();
    let run = |backend: &str, out: &str| {
        let out_dir = dir.join(out);
        let st = agatha()
            .args(["align", "-w", "100", "--backend", backend, "--verbose"])
            .args(["-o", out_dir.to_str().unwrap()])
            .arg(refs.to_str().unwrap())
            .arg(queries.to_str().unwrap())
            .output()
            .unwrap();
        assert!(st.status.success(), "stderr: {}", String::from_utf8_lossy(&st.stderr));
        let text = String::from_utf8_lossy(&st.stdout).to_string();
        (std::fs::read_to_string(out_dir.join("score.log")).unwrap(), text)
    };
    let (reference, portable_text) = run("portable", "portable");
    assert_eq!(reference.lines().count(), 6);
    assert!(
        portable_text.contains("fill backend: avx512=0 avx2=0 sse41=0 portable=6"),
        "stdout: {portable_text}"
    );
    for backend in ["auto", "avx512", "avx2", "sse41"] {
        let (scores, _) = run(backend, backend);
        assert_eq!(scores, reference, "scores must be bit-identical under --backend {backend}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backend_bogus_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_bkbad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "--backend", "neon"])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success(), "--backend neon must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("'neon'")
            && err.contains("--backend")
            && err.contains("auto|avx512|avx2|sse41|portable"),
        "stderr must carry a usage message: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backend_rejected_for_baseline_engines() {
    let out = agatha()
        .args(["demo", "--reads", "4", "--engine", "saloba", "--backend", "portable"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--backend must not be silently ignored by baselines");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("agatha engine"), "stderr: {err}");
}

#[test]
fn the_default_build_is_the_vectorised_build() {
    // No cargo feature, no flag, no environment: the plain build's default
    // plan runs the i16 wavefront, and nothing falls back to scalar.
    let dir = std::env::temp_dir().join(format!("agatha_cli_vec_{}", std::process::id()));
    let out = agatha()
        .args(["demo", "--reads", "8", "--verbose"])
        .args(["-o", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("fill precision: i16=8 scalar=0 (demoted=0)"),
        "the default fill must be the i16 wavefront: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_reads_is_an_error() {
    // `--reads 0` used to be silently clamped to 1.
    let out = agatha().args(["demo", "--reads", "0"]).output().unwrap();
    assert!(!out.status.success(), "--reads 0 must not be clamped to 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--reads") && err.contains("at least 1"), "stderr: {err}");
}

#[test]
fn zero_chunk_is_an_error() {
    // `--chunk 0` used to mean "whole batch in one chunk"; like `--gpus 0`
    // it is now an explicit usage error.
    let dir = std::env::temp_dir().join(format!("agatha_cli_c0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "--chunk", "0"])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success(), "--chunk 0 must be a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--chunk") && err.contains("at least 1"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_zero_knobs_are_usage_errors() {
    for (flag, value) in
        [("--window-ms", "0"), ("--max-queue", "0"), ("--max-batch", "0"), ("--deadline-ms", "0")]
    {
        let out = agatha().args(["serve", flag, value]).output().unwrap();
        assert!(!out.status.success(), "{flag} 0 must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag) && err.contains("at least 1"), "{flag}: stderr: {err}");
    }
}

#[test]
fn serve_knobs_past_the_nanosecond_range_are_usage_errors() {
    // 18446744073710 ms is one past `u64::MAX` ns: it used to panic in a
    // debug build and silently set a sub-millisecond window in release.
    for flag in ["--window-ms", "--deadline-ms"] {
        let out = agatha().args(["serve", flag, "18446744073710"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag) && err.contains("too large"), "{flag}: stderr: {err}");
        assert!(!err.contains("panicked"), "{flag}: stderr: {err}");
    }
}

#[test]
fn invalid_scoring_flags_are_usage_errors() {
    // `Scoring::new` panics on invalid parameters; the CLI must instead
    // surface the validation error as a usage error (non-zero exit plus a
    // message naming the constraint). `serve` hits scoring_from_args before
    // binding anything, so it exercises the path without file setup.
    for (flag, value, needle) in [
        ("-a", "0", "match_score"),
        ("-b", "-1", "mismatch"),
        ("-r", "-1", "gap_extend"),
        ("-q", "-2", "gap_open"),
    ] {
        let out = agatha().args(["serve", flag, value]).output().unwrap();
        assert!(!out.status.success(), "{flag} {value} must be a usage error, not a panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(needle) && err.contains("agatha:") && !err.contains("panicked"),
            "{flag} {value}: stderr: {err}"
        );
    }

    // The align subcommand goes through the same validation.
    let dir = std::env::temp_dir().join(format!("agatha_cli_sc0_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nACGT\n").unwrap();
    std::fs::write(&queries, ">1\nACGT\n").unwrap();
    let out = agatha()
        .args(["align", "-a", "0"])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!out.status.success(), "-a 0 must fail on align too");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("match_score") && !err.contains("panicked"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenarios_subcommand_lists_the_registry() {
    let out = agatha().arg("scenarios").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["dna-short", "dna-long", "protein-blosum62", "ont-accuracy"] {
        assert!(text.contains(name), "missing scenario {name}: {text}");
    }
    assert!(text.contains("blosum62"), "matrix model name shown: {text}");
    assert!(text.contains("i16 wavefront"), "gate expectation shown: {text}");

    // `--names` is the scripting form the CI matrix iterates: bare names,
    // one per line, nothing else.
    let out = agatha().args(["scenarios", "--names"]).output().unwrap();
    assert!(out.status.success());
    let names: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert!(names.contains(&"protein-blosum62"), "{names:?}");
    assert!(names.len() >= 4, "{names:?}");
    assert!(names.iter().all(|n| !n.contains(' ')), "bare names only: {names:?}");

    // The registry also feeds the help text.
    let out = agatha().arg("help").output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--scenario"), "help lists the flag: {text}");
    assert!(text.contains("protein-blosum62"), "help lists registered scenarios: {text}");
}

#[test]
fn scenario_conflicts_and_unknown_names_are_usage_errors() {
    let out = agatha()
        .args(["demo", "--scenario", "dna-short", "--reads", "2", "-a", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "-a with --scenario must not be silently ignored");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("conflicts") && err.contains("dna-short"), "stderr: {err}");

    let out = agatha()
        .args(["demo", "--scenario", "dna-short", "--tech", "ont", "--reads", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--tech with --scenario must conflict");
    assert!(String::from_utf8_lossy(&out.stderr).contains("conflicts"));

    let out = agatha().args(["demo", "--scenario", "no-such", "--reads", "2"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown scenario 'no-such'") && err.contains("protein-blosum62"),
        "error lists registered names: {err}"
    );
}

#[test]
fn demo_tech_preset_takes_the_guides_and_refuses_the_scoring_flags() {
    // `demo --tech T` used to ignore all six scoring flags. Its preset is
    // treated like a scenario's: -a/-b/-q/-r conflict, -z/-w override.
    let dir = std::env::temp_dir().join(format!("agatha_cli_tech_{}", std::process::id()));
    let demo = |extra: &[&str]| {
        agatha()
            .args(["demo", "--tech", "clr", "--reads", "8", "-o", dir.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    for flag in ["-a", "-b", "-q", "-r"] {
        let out = demo(&[flag, "3"]);
        assert!(!out.status.success(), "{flag} with --tech must not be silently ignored");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("conflicts") && err.contains("--tech CLR"), "stderr: {err}");
    }
    let simulated = |out: std::process::Output| {
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        text.lines().find(|l| l.contains("ms simulated")).expect("demo summary line").to_string()
    };
    let preset = simulated(demo(&[]));
    let guided = simulated(demo(&["-z", "5", "-w", "3"]));
    assert_ne!(preset, guided, "-z/-w must reach the run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protein_scenario_aligns_fasta_end_to_end() {
    // Under `--scenario protein-blosum62` the FASTA input packs as 8-bit
    // BLOSUM62 residue codes: four W/W matches at +11 each score 44 (the
    // DNA packer would have mangled W into N).
    let dir = std::env::temp_dir().join(format!("agatha_cli_prot_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    std::fs::write(&refs, ">1\nWWWW\n>2\nARNDARND\n").unwrap();
    std::fs::write(&queries, ">1\nWWWW\n>2\nARNDARND\n").unwrap();
    let out_dir = dir.join("out");
    let out = agatha()
        .args(["align", "--scenario", "protein-blosum62"])
        .args(["-o", out_dir.to_str().unwrap()])
        .arg(refs.to_str().unwrap())
        .arg(queries.to_str().unwrap())
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let scores = std::fs::read_to_string(out_dir.join("score.log")).unwrap();
    // A/A=4 R/R=5 N/N=6 D/D=6 twice = 42.
    assert_eq!(scores, "44\n42\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_runs_a_registered_scenario_workload() {
    let dir = std::env::temp_dir().join(format!("agatha_cli_dscn_{}", std::process::id()));
    let out = agatha()
        .args(["demo", "--scenario", "protein-blosum62", "--reads", "5"])
        .args(["-o", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("protein-blosum62 scenario"), "stdout: {text}");
    let scores = std::fs::read_to_string(dir.join("score.log")).unwrap();
    assert_eq!(scores.lines().count(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_aligns_protein_under_a_scenario() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("agatha_cli_psrv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = agatha()
        .args(["serve", "--port", "0", "--window-ms", "2", "--threads", "2"])
        .args(["--scenario", "protein-blosum62"])
        .args(["-o", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line.trim().rsplit(' ').next().expect("address in startup line").to_string();

    let sock = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut sock = sock;
    let mut roundtrip = |req: &str| {
        sock.write_all(req.as_bytes()).unwrap();
        sock.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    // Four W/W matches at +11 under BLOSUM62 — impossible under the DNA
    // packer, which would collapse W to the ambiguous base.
    let resp = roundtrip("{\"id\":1,\"ref\":\"WWWW\",\"query\":\"WWWW\"}");
    assert!(resp.contains("\"score\":44"), "align response: {resp}");
    assert!(roundtrip("{\"cmd\":\"shutdown\"}").contains("shutting-down"));

    let t0 = std::time::Instant::now();
    loop {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        if t0.elapsed() > std::time::Duration::from_secs(30) {
            child.kill().ok();
            panic!("serve did not exit after shutdown request");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_end_to_end_over_the_socket() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join(format!("agatha_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = agatha()
        .args(["serve", "--port", "0", "--window-ms", "2", "--threads", "2"])
        .args(["-o", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // First stdout line announces the bound address.
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).unwrap();
    let addr = line.trim().rsplit(' ').next().expect("address in startup line").to_string();
    assert!(line.contains("listening on"), "startup line: {line}");

    // Drive the daemon over a raw socket: ping, one alignment, shutdown.
    let sock = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut sock = sock;
    let mut roundtrip = |req: &str| {
        sock.write_all(req.as_bytes()).unwrap();
        sock.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };
    assert!(roundtrip("{\"cmd\":\"ping\"}").contains("\"status\":\"ok\""));
    // 16 matches at the default +2 each.
    let resp = roundtrip("{\"id\":7,\"ref\":\"ACGTACGTACGTACGT\",\"query\":\"ACGTACGTACGTACGT\"}");
    assert!(resp.contains("\"score\":32"), "align response: {resp}");
    assert!(resp.contains("\"id\":7"), "align response: {resp}");
    assert!(roundtrip("{\"cmd\":\"stats\"}").contains("\"completed\":1"));
    assert!(roundtrip("{\"cmd\":\"shutdown\"}").contains("shutting-down"));

    // The daemon drains, dumps stats, and exits on its own; watchdog-kill
    // if it wedges instead of hanging the suite.
    let t0 = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if t0.elapsed() > std::time::Duration::from_secs(30) {
            child.kill().ok();
            panic!("serve did not exit after shutdown request");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut child_out, &mut rest).unwrap();
    assert!(rest.contains("completed=1"), "shutdown report: {rest}");
    assert!(rest.contains("latency (µs)"), "shutdown report: {rest}");
    let stats = std::fs::read_to_string(dir.join("serve_stats.json")).unwrap();
    assert!(stats.contains("\"completed\":1"), "stats file: {stats}");
    assert!(stats.contains("\"total_latency\":"), "stats file: {stats}");
    std::fs::remove_dir_all(&dir).ok();
}
