//! What the service suites share: the library [`Client`] as a plain line
//! client, daemon start-up, and envelope readers that go by the JSON
//! parser's field spans, never by substring.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::time::Duration;

use iced_service::json::{self, Fields, Layout};
use iced_service::{Client, Server, ServiceConfig};

/// The library client as the suites drive it. Its `send` and `recv`
/// carry no retry discipline, so what the daemon does is observed raw.
pub trait LineClient {
    /// Connects to `addr` now, so connections open in the order the
    /// suite dials them.
    fn connect(addr: SocketAddr) -> Self;

    /// Sends one request line and returns the response line.
    fn round_trip(&mut self, line: &str) -> String;
}

impl LineClient for Client {
    fn connect(addr: SocketAddr) -> Client {
        Client::connect_retry(&addr.to_string(), Duration::ZERO).expect("connect to daemon")
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line).expect("send");
        self.recv().expect("read response")
    }
}

/// Starts a daemon on `cfg` and returns it with its bound address.
pub fn start(cfg: ServiceConfig) -> (Server, SocketAddr) {
    let server = Server::start(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

/// The raw text of the top-level field `key` of the object `line`.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    Fields::read(line)
        .and_then(|f| f.get(key))
        .unwrap_or_else(|| panic!("no {key} in {line}"))
}

/// The `result` payload of a success envelope or batch slot (everything
/// the cache stores).
pub fn result_payload(response: &str) -> &str {
    field(response, "result")
}

/// The `result` object of a response line, owned.
pub fn result_of(line: &str) -> String {
    result_payload(line).to_string()
}

/// The response with its `"req":"cC-S"` token blanked, so envelopes of
/// different requests, connections or daemons compare byte for byte.
pub fn strip_req(line: &str) -> String {
    let span = Fields::read(line)
        .and_then(|f| f.span("req"))
        .unwrap_or_else(|| panic!("no req token in {line}"));
    format!("{}\"\"{}", &line[..span.start], &line[span.end..])
}

/// `(conn, seq)` of a response's `"req":"c<conn>-<seq>"`.
pub fn req_token(resp: &str) -> (u64, u64) {
    let token = field(resp, "req");
    let token = token.strip_prefix("\"c").and_then(|t| t.strip_suffix('"'));
    let (conn, seq) = token.and_then(|t| t.split_once('-')).expect("req token");
    (conn.parse().expect("conn"), seq.parse().expect("seq"))
}

/// Every key path of the JSON object `text`, depth first in emission
/// order (`a.b` for nesting, `a[]` for array elements; values ignored).
/// Built on the crate's own [`json::layout`], whose spans give each
/// field's position.
pub fn key_paths(text: &str) -> Vec<String> {
    fn walk(text: &str, prefix: &str, out: &mut Vec<String>) {
        match json::layout(text).expect("valid JSON") {
            Layout::Obj(fields) => {
                let mut fields: Vec<_> = fields.into_iter().collect();
                fields.sort_by_key(|(_, span)| span.start);
                for (key, span) in fields {
                    let path = if prefix.is_empty() {
                        key
                    } else {
                        format!("{prefix}.{key}")
                    };
                    out.push(path.clone());
                    walk(&text[span], &path, out);
                }
            }
            Layout::Arr(elems) => {
                for span in elems {
                    walk(&text[span], &format!("{prefix}[]"), out);
                }
            }
            Layout::Scalar => {}
        }
    }
    let mut out = Vec::new();
    walk(text, "", &mut out);
    out
}
