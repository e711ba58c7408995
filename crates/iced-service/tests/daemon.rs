//! The daemon binaries as a supervisor runs them: stdout piped for the
//! `listening on` line, then closed. A closed stdout must not turn a
//! clean drain into a non-zero exit. A chaos-armed daemon configured
//! from the environment must report itself on stdout, log its injected
//! faults against request ids, and still drain to a zero exit.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use iced_service::Client;

/// Spawns a daemon on an ephemeral port with stdout piped, reads its
/// `listening on` line, then closes the pipe. Returns the child and the
/// bound address.
fn spawn_and_close_stdout(bin: &str, args: &[&str]) -> (Child, String) {
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    // The reader (and with it the pipe's only read end) drops here.
    let addr = line
        .trim_end()
        .rsplit_once("listening on ")
        .map(|(_, a)| a.to_string())
        .unwrap_or_else(|| panic!("no listening line: {line:?}"));
    (child, addr)
}

fn send_shutdown(addr: &str) {
    let mut s = TcpStream::connect(addr).expect("connect to daemon");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(b"{\"id\":1,\"verb\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut resp = String::new();
    BufReader::new(s).read_line(&mut resp).expect("read reply");
    assert!(resp.contains("\"ok\":true"), "{resp}");
}

#[test]
fn serviced_exits_zero_after_its_stdout_is_closed() {
    let (mut child, addr) =
        spawn_and_close_stdout(env!("CARGO_BIN_EXE_iced-serviced"), &["--threads", "1"]);
    send_shutdown(&addr);
    let status = child.wait().expect("wait for daemon");
    assert!(status.success(), "iced-serviced exited with {status}");
}

#[test]
fn routerd_exits_zero_after_its_stdout_is_closed() {
    let (mut shards, shard_addrs): (Vec<Child>, Vec<String>) = (0..3)
        .map(|_| spawn_and_close_stdout(env!("CARGO_BIN_EXE_iced-serviced"), &["--threads", "1"]))
        .unzip();
    let (mut router, addr) = spawn_and_close_stdout(
        env!("CARGO_BIN_EXE_iced-routerd"),
        &["--shards", &shard_addrs.join(",")],
    );
    // The router forwards the shutdown to every shard: the whole cluster
    // drains.
    send_shutdown(&addr);
    let status = router.wait().expect("wait for router");
    assert!(status.success(), "iced-routerd exited with {status}");
    for shard in &mut shards {
        let status = shard.wait().expect("wait for shard");
        assert!(status.success(), "iced-serviced exited with {status}");
    }
}

/// `iced-serviced` configured the way an operator would, from the
/// environment: event log at debug level, chaos armed, spill directory
/// set. Driven through the retrying [`Client`] and told to shut down, it
/// must announce the chaos on stdout, drain and exit 0, and leave an
/// event log holding finished requests and injected faults that name the
/// request they hit.
#[test]
fn chaos_daemon_from_env_logs_faults_and_drains() {
    let dir = std::env::temp_dir().join(format!("iced-svc-daemon-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("events.jsonl");
    let mut child = Command::new(env!("CARGO_BIN_EXE_iced-serviced"))
        .args(["--addr", "127.0.0.1:0"])
        .env("ICED_SVC_THREADS", "2")
        .env("ICED_SVC_QUEUE", "16")
        .env("ICED_SVC_LOG", &log)
        .env("ICED_SVC_LOG_LEVEL", "debug")
        .env("ICED_SVC_CHAOS", "0xC1")
        .env("ICED_SVC_CACHE_DIR", dir.join("spill"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut listening = String::new();
    stdout
        .read_line(&mut listening)
        .expect("read the listening line");
    let addr = listening
        .trim_end()
        .rsplit_once("listening on ")
        .map(|(_, a)| a.to_string())
        .unwrap_or_else(|| panic!("no listening line: {listening:?}"));

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .expect("daemon reachable")
        .with_limits(Duration::from_secs(60), 16);
    // Cold compiles, their warm replays and a few simulates: every answer
    // must come back OK through the client's retries.
    let kernels = ["fir", "latnrm", "fft", "dtw", "spmv", "conv"];
    let mut id = 0;
    for _pass in 0..2 {
        for k in kernels {
            id += 1;
            c.request_ok(&format!(
                "{{\"id\":{id},\"verb\":\"compile\",\"kernel\":\"{k}\",\"strategy\":\"iced\"}}"
            ))
            .unwrap_or_else(|e| panic!("compile {k}: {e}"));
        }
    }
    for seed in 0..8 {
        id += 1;
        c.request_ok(&format!(
            "{{\"id\":{id},\"verb\":\"simulate\",\"kernel\":\"fir\",\"iterations\":500,\"seed\":{seed}}}"
        ))
        .unwrap_or_else(|e| panic!("simulate seed {seed}: {e}"));
    }
    // Under chaos the shutdown reply itself may be torn, and a retry may
    // then find the listener gone; either way the drain has begun, which
    // the exit status and the drain line below confirm.
    if let Ok(bye) = c.request("{\"id\":9999,\"verb\":\"shutdown\"}") {
        assert!(
            bye.contains("\"ok\":true") || bye.contains("shutting_down"),
            "{bye}"
        );
    }

    let mut printed = listening.clone();
    stdout
        .read_to_string(&mut printed)
        .expect("read stdout to EOF");
    let status = child.wait().expect("wait for daemon");
    assert!(status.success(), "iced-serviced exited with {status}");
    assert!(printed.contains("chaos injection ACTIVE"), "{printed}");
    assert!(printed.contains("drained and stopped"), "{printed}");

    let events = std::fs::read_to_string(&log).expect("event log written");
    assert!(
        events
            .lines()
            .any(|l| l.contains("\"event\":\"request_finish\"") && l.contains("\"req\":\"c")),
        "no finished request in the event log:\n{events}"
    );
    assert!(
        events
            .lines()
            .any(|l| l.contains("\"event\":\"chaos_") && l.contains("\"req\":\"c")),
        "no injected fault with a request id in the event log:\n{events}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a daemon binary to its exit with `args`, away from any `ICED_`
/// variable of the test's own environment.
fn run_to_exit(bin: &str, args: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).stdin(Stdio::null());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("ICED_") {
            cmd.env_remove(k);
        }
    }
    cmd.output().expect("run daemon")
}

#[test]
fn bad_settings_and_a_shardless_router_exit_two_before_binding() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_iced-serviced"),
            vec!["--threads", "abc"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_iced-routerd"),
            vec!["--shards", "127.0.0.1:1", "--pipeline", "x"],
            "--pipeline",
        ),
        (
            env!("CARGO_BIN_EXE_iced-routerd"),
            vec![],
            "ICED_SVC_SHARDS",
        ),
    ];
    for (bin, args, name) in cases {
        let out = run_to_exit(bin, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(name), "{bin} {args:?}: {stderr}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("listening on"),
            "{bin} {args:?} bound before rejecting its input"
        );
    }
}

#[test]
fn help_lists_every_variable_and_flag() {
    let common = [
        ("ICED_SVC_ADDR", "--addr"),
        ("ICED_SVC_PIPELINE", "--pipeline"),
        ("ICED_SVC_MAX_CONNS", "--max-conns"),
    ];
    let shard = [
        ("ICED_SVC_THREADS", "--threads"),
        ("ICED_SVC_QUEUE", "--queue"),
        ("ICED_SVC_CACHE_BYTES", "--cache-bytes"),
        ("ICED_SVC_CACHE_DIR", "--cache-dir"),
        ("ICED_SVC_CHAOS", "--chaos"),
        ("ICED_SVC_LOG", "--log"),
        ("ICED_SVC_LOG_LEVEL", "--log-level"),
    ];
    let router = [
        ("ICED_SVC_SHARDS", "--shards"),
        ("ICED_SVC_REPLICATE_HOT", "--replicate-hot"),
    ];
    let cases = [
        (env!("CARGO_BIN_EXE_iced-serviced"), &shard[..], &router[..]),
        (env!("CARGO_BIN_EXE_iced-routerd"), &router[..], &shard[..]),
    ];
    for (bin, own, other) in cases {
        let out = run_to_exit(bin, &["--help"]);
        assert!(out.status.success(), "{bin} --help exited {}", out.status);
        let help = String::from_utf8_lossy(&out.stdout);
        for (var, flag) in common.iter().chain(own) {
            assert!(help.contains(var), "{bin} --help misses {var}:\n{help}");
            assert!(
                help.contains(&format!("{flag} ")),
                "{bin} --help misses {flag}:\n{help}"
            );
        }
        for (var, _) in other {
            assert!(!help.contains(var), "{bin} --help lists {var}:\n{help}");
        }
    }
}
