//! Integration tests of the `weber` command-line binary.

use std::process::Command;

fn weber() -> Command {
    Command::new(env!("CARGO_BIN_EXE_weber"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("weber_cli_test_{}_{name}", std::process::id()))
}

#[test]
fn help_prints_usage() {
    let out = weber().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
}

#[test]
fn long_help_flag_succeeds() {
    let out = weber().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn version_flag_prints_version() {
    for flag in ["--version", "-V", "version"] {
        let out = weber().arg(flag).output().unwrap();
        assert!(out.status.success(), "{flag} must exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with("weber ") && text.contains(env!("CARGO_PKG_VERSION")),
            "{flag} printed: {text}"
        );
    }
}

#[test]
fn serve_round_trips_ndjson_over_stdio() {
    use std::io::Write;
    let mut child = weber()
        .args(["serve", "--workers", "2", "--queue", "8"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let requests = concat!(
        r#"{"op":"seed","name":"cohen","docs":[{"text":"databases and systems","label":0},{"text":"databases research","label":0},{"text":"gardening and roses","label":1}]}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"snapshot"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 4, "one response per request: {lines:?}");
    assert!(lines[0].contains(r#""ok":true"#) && lines[0].contains(r#""op":"seed""#));
    assert!(lines[1].contains(r#""op":"ingest""#) && lines[1].contains(r#""doc":3"#));
    assert!(lines[2].contains(r#""op":"snapshot""#) && lines[2].contains("cohen"));
    assert!(lines[3].contains(r#""op":"shutdown""#));
}

#[test]
fn serve_answers_every_line_of_a_replay_piped_from_a_file() {
    // A file reader never waits for replies, so the whole replay is in
    // the pipe before the first line runs: stdio must answer each line
    // at the pace it executes, not shed what a bounded queue cannot hold.
    let path = temp_path("replay.ndjson");
    let mut replay = String::from(concat!(
        r#"{"op":"seed","name":"cohen","docs":[{"text":"databases and systems","label":0},{"text":"databases research","label":0},{"text":"gardening and roses","label":1}]}"#,
        "\n",
    ));
    for i in 0..300 {
        replay.push_str(&format!(
            r#"{{"op":"ingest","name":"cohen","text":"databases and systems page {i}"}}"#
        ));
        replay.push('\n');
    }
    replay.push_str("{\"op\":\"flush\"}\n");
    std::fs::write(&path, &replay).unwrap();
    let out = weber()
        .arg("serve")
        .stdin(std::fs::File::open(&path).unwrap())
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), replay.lines().count(), "one reply per line");
    let shed = lines.iter().filter(|l| l.contains("overloaded")).count();
    assert_eq!(shed, 0, "stdio shed {shed} of {} lines", lines.len());
    for line in &lines {
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    assert!(lines[300].contains(r#""doc":302"#), "{}", lines[300]);
    assert!(lines[301].contains(r#""op":"flush""#), "{}", lines[301]);
}

#[test]
fn io_threads_is_rejected_as_an_unknown_io_mode() {
    for command in [
        &["serve", "--io", "threads"][..],
        &["route", "--backends", "127.0.0.1:1", "--io", "threads"],
        &["serve", "--io", "bogus"],
    ] {
        let out = weber().args(command).output().unwrap();
        assert!(!out.status.success(), "{command:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown io mode"), "{command:?} stderr: {err}");
    }
}

#[test]
fn unknown_and_repeated_flags_are_rejected_per_subcommand() {
    let rejected = |args: &[&str], message: &str| {
        let out = weber().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?} stderr: {err}");
    };
    for args in [
        "serve --vnodes 8",
        "serve --max-pipline 8",
        "serve --max-pipeline 8",
        "route --backends 127.0.0.1:1 --pool 4",
        "route --backends 127.0.0.1:1 --vnodes 8",
        "route --backends 127.0.0.1:1 --replicas 2",
        "stats --datset x.json",
    ] {
        let args: Vec<&str> = args.split(' ').collect();
        let flag = args[args.len() - 2];
        rejected(&args, &format!("unknown flag {flag} for '{}'", args[0]));
    }
    rejected(
        &["serve", "--workers", "1", "--workers", "2"],
        "repeated flag --workers for 'serve'",
    );
}

#[test]
fn serve_state_dir_survives_a_daemon_restart() {
    use std::io::Write;
    let dir = temp_path("state_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |requests: &str| {
        let mut child = weber()
            .args(["serve", "--state-dir"])
            .arg(&dir)
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(requests.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    // First lifetime: seed + ingest; state is persisted at shutdown.
    let (_, stderr) = run(concat!(
        r#"{"op":"seed","name":"cohen","docs":[{"text":"databases and systems","label":0},{"text":"databases research","label":0},{"text":"gardening and roses","label":1}]}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    ));
    assert!(stderr.contains("persisted 1 names"), "stderr: {stderr}");
    let record = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.to_string_lossy().ends_with(".state.json"))
        .expect("a state record");
    let json = std::fs::read_to_string(record).unwrap();
    assert!(json.contains(r#""version":2"#), "{json}");
    // Second lifetime: the state is restored at startup — adopted, not
    // replayed — so the name answers a snapshot with all four documents
    // without being re-seeded.
    let (stdout, stderr) = run(concat!(
        r#"{"op":"snapshot"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n"
    ));
    assert!(stderr.contains("restored 1 names"), "stderr: {stderr}");
    assert!(stderr.contains("(0 replayed)"), "stderr: {stderr}");
    let snapshot = stdout.lines().next().unwrap();
    assert!(snapshot.contains("cohen"), "{snapshot}");
    assert!(snapshot.contains(r#""docs":4"#), "{snapshot}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_metrics_op_over_tcp_reports_cache_hits() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    // Reserve an ephemeral port, free it, and hand it to the daemon. The
    // daemon reports readiness on stderr, but the simple retry loop below
    // is enough: connection refused just means it hasn't bound yet.
    let port = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    // `--io event` is what the bench scripts still pass: accepted, and
    // means nothing now that the reactor is the only front end.
    let mut child = weber()
        .args([
            "serve",
            "--listen",
            &addr,
            "--workers",
            "1",
            "--io",
            "event",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    let stream = {
        let mut attempt = 0;
        loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempt += 1;
                    assert!(attempt < 100, "daemon never bound {addr}: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
        }
    };
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let requests = concat!(
        r#"{"op":"seed","name":"cohen","docs":[{"text":"databases and systems","label":0},{"text":"databases research","label":0},{"text":"gardening and roses","label":1}]}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"metrics"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    writer.write_all(requests.as_bytes()).unwrap();
    let mut lines = Vec::new();
    for _ in 0..6 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line.trim().to_string());
    }
    let _ = child.wait();

    let metrics = serde_json::parse_value(&lines[4]).unwrap();
    assert_eq!(
        metrics.get("ok").unwrap().as_bool(),
        Some(true),
        "{}",
        lines[4]
    );
    assert_eq!(metrics.get("op").unwrap().as_str(), Some("metrics"));
    let counters = metrics.get("counters").unwrap();
    // Seeding + repeated ingests of the same name exercise the block's
    // incremental similarity cache: training reads the freshly built graph
    // back (hits), each arrival grows it by a row (misses).
    let hits = counters.get("stream.cache.hits").unwrap().as_u64().unwrap();
    assert!(hits > 0, "expected nonzero cache hits: {}", lines[4]);
    assert!(
        counters
            .get("stream.cache.misses")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0,
        "expected nonzero cache misses: {}",
        lines[4]
    );
    assert_eq!(counters.get("stream.ingests").unwrap().as_u64(), Some(3));
    let ingest_us = metrics
        .get("histograms")
        .unwrap()
        .get("stream.ingest_us")
        .unwrap();
    assert_eq!(ingest_us.get("count").unwrap().as_u64(), Some(3));
}

#[test]
fn serve_metrics_file_is_dumped_at_shutdown() {
    use std::io::Write;
    let path = temp_path("metrics.txt");
    let _ = std::fs::remove_file(&path);
    let mut child = weber()
        .args(["serve", "--metrics-file"])
        .arg(&path)
        .args(["--metrics-interval", "60"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let requests = concat!(
        r#"{"op":"seed","name":"cohen","docs":[{"text":"databases and systems","label":0},{"text":"databases research","label":0},{"text":"gardening and roses","label":1}]}"#,
        "\n",
        r#"{"op":"ingest","name":"cohen","text":"more databases work"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(requests.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("final metrics dump exists");
    assert!(text.contains("stream.ingests 1"), "dump: {text}");
    assert!(text.contains("stream.ingest_us_count 1"), "dump: {text}");
    assert!(text.contains("stream.cache.hits"), "dump: {text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_rejects_max_names_without_state_dir() {
    let out = weber()
        .args(["serve", "--max-names", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("state_dir") || err.contains("state dir"),
        "stderr: {err}"
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = weber().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("USAGE"));
}

#[test]
fn generate_stats_resolve_roundtrip() {
    let dataset = temp_path("corpus.json");
    let labels = temp_path("labels.json");

    let out = weber()
        .args(["generate", "--preset", "tiny", "--seed", "5", "--out"])
        .arg(&dataset)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dataset.exists());

    let out = weber()
        .args(["stats", "--dataset"])
        .arg(&dataset)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 names"));
    assert!(text.contains("72 documents"));

    let out = weber()
        .args(["resolve", "--train", "0.25", "--dataset"])
        .arg(&dataset)
        .arg("--out")
        .arg(&labels)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Fp"));
    let label_json = std::fs::read_to_string(&labels).unwrap();
    assert!(label_json.contains("cheyer"));

    std::fs::remove_file(&dataset).ok();
    std::fs::remove_file(&labels).ok();
}

#[test]
fn generate_rejects_unknown_preset() {
    let out = weber()
        .args(["generate", "--preset", "bogus", "--out", "/tmp/never.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown preset"));
}

#[test]
fn resolve_requires_dataset_flag() {
    let out = weber().arg("resolve").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dataset"));
}

#[test]
fn flags_require_values() {
    let out = weber().args(["stats", "--dataset"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

#[test]
fn out_of_range_train_fraction_is_a_clean_error() {
    let dataset = temp_path("range.json");
    let out = weber()
        .args(["generate", "--preset", "tiny", "--seed", "1", "--out"])
        .arg(&dataset)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = weber()
        .args(["resolve", "--train", "1.5", "--dataset"])
        .arg(&dataset)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--train"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
    std::fs::remove_file(&dataset).ok();
}
