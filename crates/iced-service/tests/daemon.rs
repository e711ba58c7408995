//! The daemon binaries as a supervisor runs them: stdout piped for the
//! `listening on` line, then closed. A closed stdout must not turn a
//! clean drain into a non-zero exit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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
    let (mut shard, shard_addr) =
        spawn_and_close_stdout(env!("CARGO_BIN_EXE_iced-serviced"), &["--threads", "1"]);
    let (mut router, addr) = spawn_and_close_stdout(
        env!("CARGO_BIN_EXE_iced-routerd"),
        &["--shards", &shard_addr],
    );
    // The router forwards the shutdown to its shard: both drain.
    send_shutdown(&addr);
    let status = router.wait().expect("wait for router");
    assert!(status.success(), "iced-routerd exited with {status}");
    let status = shard.wait().expect("wait for shard");
    assert!(status.success(), "iced-serviced exited with {status}");
}
