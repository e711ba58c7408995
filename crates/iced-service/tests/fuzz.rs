//! Parser fuzzing: the protocol layer must never panic, whatever bytes
//! arrive. Valid requests are mutated (bit flips, truncations, splices)
//! and raw byte soup is thrown at both the JSON parser and the request
//! parser; every rejection must itself render as well-formed JSON. The
//! span reader the router and client read envelopes with must agree with
//! the parser on every input.

use iced_service::json::{self, Layout, Value};
use iced_service::proto::{parse_request, render_err};
use proptest::prelude::*;

/// Valid requests of every verb, used as mutation seeds so the fuzzer
/// spends its budget near the accepted grammar instead of deep in noise.
const TEMPLATES: [&str; 8] = [
    r#"{"id":1,"verb":"healthz"}"#,
    r#"{"id":2,"verb":"metrics"}"#,
    r#"{"id":3,"verb":"shutdown"}"#,
    r#"{"id":4,"verb":"compile","kernel":"fir","strategy":"iced"}"#,
    r#"{"id":5,"verb":"compile","kernel":"fft","unroll":2,"deadline_ms":1000}"#,
    r#"{"id":6,"verb":"simulate","kernel":"spmv","iterations":500,"seed":7}"#,
    r#"{"id":7,"verb":"stream","pipeline":"gcn","policy":"drips","inputs":20,"seed":9}"#,
    r#"{"id":8,"verb":"compile","dfg":"dfg t\nnode a const\nnode b add a a"}"#,
];

/// Splitmix-style step; cheap, deterministic, good enough to spray bytes.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// Applies a few seeded mutations: byte flips, truncation, and splicing
/// a chunk of the input onto itself.
fn mutate(bytes: &mut Vec<u8>, seed: u64) {
    let mut s = seed | 1;
    for _ in 0..1 + next(&mut s) % 4 {
        if bytes.is_empty() {
            return;
        }
        match next(&mut s) % 4 {
            0 => {
                let i = (next(&mut s) as usize) % bytes.len();
                bytes[i] ^= (next(&mut s) % 255 + 1) as u8;
            }
            1 => {
                let at = (next(&mut s) as usize) % bytes.len();
                bytes.truncate(at);
            }
            2 => {
                let from = (next(&mut s) as usize) % bytes.len();
                let at = (next(&mut s) as usize) % (bytes.len() + 1);
                let chunk: Vec<u8> = bytes[from..].to_vec();
                bytes.splice(at..at, chunk);
            }
            _ => {
                let i = (next(&mut s) as usize) % (bytes.len() + 1);
                bytes.insert(i, (next(&mut s) % 256) as u8);
            }
        }
    }
}

/// Feeds one line through the full parse path, checking the invariants:
/// no panic (implicit), and every rejection renders as parseable JSON.
fn assert_total(line: &str) {
    let _ = json::parse(line);
    if let Err(e) = parse_request(line) {
        let rendered = render_err(e.id, None, e.verb, &e.error);
        assert!(
            json::parse(&rendered).is_ok(),
            "error envelope must be well-formed JSON: {rendered}"
        );
    }
}

/// The span reader and the JSON parser agree on `line`: one accepts it
/// exactly when the other does, and every top-level span re-parses to the
/// value the parser holds there — including for repeated keys, where both
/// keep the last.
fn assert_layout_agrees(line: &str) {
    let parsed = json::parse(line);
    let layout = json::layout(line);
    assert_eq!(
        parsed.is_ok(),
        layout.is_ok(),
        "accept/reject differs on {line:?}"
    );
    let (Ok(value), Ok(layout)) = (parsed, layout) else {
        return;
    };
    let reparse = |span: &std::ops::Range<usize>| {
        json::parse(&line[span.clone()]).expect("every span re-parses")
    };
    match (&value, &layout) {
        (Value::Obj(fields), Layout::Obj(spans)) => {
            assert!(fields.keys().eq(spans.keys()), "keys differ on {line:?}");
            for (key, span) in spans {
                assert_eq!(Some(&reparse(span)), value.get(key), "{key} in {line:?}");
            }
        }
        (Value::Arr(items), Layout::Arr(spans)) => {
            assert_eq!(items.len(), spans.len(), "element count on {line:?}");
            for (item, span) in items.iter().zip(spans) {
                assert_eq!(&reparse(span), item, "element in {line:?}");
            }
        }
        (Value::Obj(_) | Value::Arr(_), _) | (_, Layout::Obj(_) | Layout::Arr(_)) => {
            panic!("shape differs on {line:?}: {layout:?}")
        }
        _ => {}
    }
}

#[test]
fn span_reader_keeps_the_last_duplicate_key_like_the_parser() {
    let line = r#"{"items":[1],"x":{"items":[]},"items":[2,3]}"#;
    assert_layout_agrees(line);
    let fields = json::Fields::read(line).expect("an object");
    assert_eq!(fields.get("items"), Some("[2,3]"));
    assert_eq!(json::elements("[2,3]"), Some(vec!["2", "3"]));
    let deep = "[".repeat(40) + &"]".repeat(40);
    assert!(
        json::layout(&deep).is_err(),
        "same depth bound as the parser"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_requests_never_panic_the_parsers(t in 0usize..8, seed in any::<u64>()) {
        let mut bytes = TEMPLATES[t].as_bytes().to_vec();
        mutate(&mut bytes, seed);
        let line = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&line);
        assert_layout_agrees(&line);
    }

    #[test]
    fn raw_byte_soup_never_panics_the_parsers(seed in any::<u64>(), len in 0usize..512) {
        let mut s = seed | 1;
        let bytes: Vec<u8> = (0..len).map(|_| (next(&mut s) % 256) as u8).collect();
        let line = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&line);
        assert_layout_agrees(&line);
    }

    #[test]
    fn span_reader_accepts_exactly_what_the_parser_accepts(t in 0usize..8, seed in any::<u64>()) {
        // JSON-shaped soup: structural bytes and a few keys, so objects,
        // arrays, nesting and repeated keys all turn up.
        const ALPHABET: [&str; 16] = [
            "{", "}", "[", "]", ",", ":", "\"a\"", "\"b\"", "1", "-2.5e3", "true", "null",
            " ", "\"\\\"x\"", "\"items\"", "\"\\u00e9\"",
        ];
        let mut s = seed | 1;
        let soup: String = (0..next(&mut s) % 48)
            .map(|_| ALPHABET[(next(&mut s) % 16) as usize])
            .collect();
        assert_layout_agrees(&soup);
        // And a valid template with a mutated tail spliced back in.
        let mut bytes = TEMPLATES[t].as_bytes().to_vec();
        mutate(&mut bytes, seed);
        let line = format!("[{},{}]", TEMPLATES[t], String::from_utf8_lossy(&bytes));
        assert_layout_agrees(&line);
    }

    #[test]
    fn valid_templates_with_json_noise_fields_stay_total(t in 0usize..8, seed in any::<u64>()) {
        // Inject an unknown field with hostile content into a valid
        // request: the parser must either accept or reject it cleanly.
        let noise = format!("\"x{}\":\"{}\"", seed % 10, "\\u0000\\\"".repeat((seed % 5) as usize));
        let line = TEMPLATES[t].replacen('{', &format!("{{{noise},"), 1);
        assert_total(&line);
    }
}
