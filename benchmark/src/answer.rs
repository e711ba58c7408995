//! Answer envelopes: top-level field splitting, canonical form and the
//! order-sensitive answers digest.

use iced_hash::StableHasher;

/// Envelope fields that legitimately differ between two answers to the
/// same request: the echoed client id, the per-connection request token
/// and whether the answer came from the cache.
const VOLATILE: [&str; 3] = ["id", "req", "cached"];

/// Splits a JSON object into its top-level `(key, raw value)` pairs,
/// keeping each value's bytes verbatim. `None` if `obj` is not a single
/// well-nested object.
pub fn fields(obj: &str) -> Option<Vec<(&str, &str)>> {
    let b = obj.as_bytes();
    let skip_ws = |mut i: usize| {
        while i < b.len() && b[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    let mut i = skip_ws(0);
    if b.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(i + 1);
    let mut out = Vec::new();
    if b.get(i) == Some(&b'}') {
        return (skip_ws(i + 1) == b.len()).then_some(out);
    }
    loop {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let key_end = string_end(b, i)?;
        let key = &obj[i + 1..key_end - 1];
        i = skip_ws(key_end);
        if b.get(i) != Some(&b':') {
            return None;
        }
        let start = skip_ws(i + 1);
        let end = value_end(b, start)?;
        out.push((key, obj[start..end].trim_end()));
        i = skip_ws(end);
        match b.get(i) {
            Some(b',') => i = skip_ws(i + 1),
            Some(b'}') => return (skip_ws(i + 1) == b.len()).then_some(out),
            _ => return None,
        }
    }
}

/// Index just past the string literal opening at `b[start]`.
fn string_end(b: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// Index just past the value starting at `b[start]`: at the `,` or `}`
/// that ends it at nesting depth zero.
fn value_end(b: &[u8], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = start;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i = string_end(b, i)?;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => depth -= 1,
            b',' | b'}' if depth == 0 => return (i > start).then_some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// The raw value of top-level field `key`.
pub fn get<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// The envelope, given as its [`fields`], without its volatile fields
/// (`id`, `req`, `cached`) and with every other byte kept: two answers to
/// one request must be equal here.
pub fn canonical(fields: &[(&str, &str)]) -> String {
    let kept: Vec<String> = fields
        .iter()
        .filter(|(k, _)| !VOLATILE.contains(k))
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", kept.join(","))
}

/// Stable 64-bit hash of a canonical answer.
pub fn hash(canonical: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(canonical);
    h.finish()
}

/// `StableHasher` over canonical-answer hashes in request order.
pub fn digest(hashes: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = StableHasher::with_seed(0x00d1_6e57);
    for x in hashes {
        h.write_u64(x);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strips_only_id_req_and_cached() {
        let cold = r#"{"id":7,"req":"c1-3","ok":true,"verb":"compile","cached":false,"result":{"id":9,"cached":false,"s":"a,}\"b"}}"#;
        let warm = r#"{"id":8,"req":"c2-9","ok":true,"verb":"compile","cached":true,"result":{"id":9,"cached":false,"s":"a,}\"b"}}"#;
        let canon = |s| canonical(&fields(s).expect("object"));
        let c = canon(cold);
        assert_eq!(
            c, r#"{"ok":true,"verb":"compile","result":{"id":9,"cached":false,"s":"a,}\"b"}}"#,
            "nested fields of the same names are kept"
        );
        assert_eq!(canon(warm), c);
        let other = warm.replace("\"verb\":\"compile\"", "\"verb\":\"simulate\"");
        assert_ne!(canon(&other), c);
        assert_eq!(hash("{}"), hash("{}"));
    }

    #[test]
    fn fields_keep_raw_values_and_reject_garbage() {
        let f = fields(r#" { "a" : [1,{"b":2}] , "c":"x" ,"d":-1.5e3 } "#).expect("object");
        assert_eq!(
            f,
            vec![("a", "[1,{\"b\":2}]"), ("c", "\"x\""), ("d", "-1.5e3")]
        );
        assert_eq!(get(&f, "c"), Some("\"x\""));
        assert_eq!(fields("{}"), Some(vec![]));
        for bad in ["", "[1]", "{\"a\":1", "{\"a\":}", "{\"a\":1} x", "{a:1}"] {
            assert_eq!(fields(bad), None, "{bad}");
        }
    }

    #[test]
    fn digest_depends_on_order() {
        assert_eq!(digest([1, 2]), digest([1, 2]));
        assert_ne!(digest([1, 2]), digest([2, 1]));
    }
}
