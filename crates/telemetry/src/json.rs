//! Hand-rolled JSON: a writer for snapshot sinks and a minimal reader.
//!
//! The workspace is hermetic (no serde), so this module carries both
//! directions of the `BENCH_*.json` / telemetry-snapshot formats:
//!
//! * writer helpers ([`push_escaped`], [`push_f64`]) that the snapshot
//!   and bench sinks compose into documents, and
//! * [`Json`], a full (if small) recursive-descent value parser — the
//!   in-repo JSON reader that the bench comparator and the
//!   well-formedness tests load snapshots back through, and that the
//!   sweep daemon parses every request line with. Nesting is bounded
//!   at [`MAX_DEPTH`], so a hostile line is an error, not a stack
//!   overflow.
//!
//! Numbers parse as `f64`; that is exact for every integer the sinks
//! emit (counters stay far below 2^53) and sufficient for wall-clock
//! ratios. The writer refuses non-finite floats — a NaN in a snapshot
//! is always a harness bug, never data.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string, escaping the
/// characters RFC 8259 requires (quote, backslash, control characters).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` to `out` as a JSON number. Integers render without a
/// fraction; everything else renders with enough digits to round-trip.
///
/// # Panics
///
/// Panics on NaN or infinity — those must never reach a snapshot.
pub fn push_f64(out: &mut String, v: f64) {
    assert!(v.is_finite(), "non-finite value {v} has no JSON encoding");
    if v == v.trunc() && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Every document the workspace writes or reads (telemetry snapshots,
/// `BENCH_*.json`, protocol lines, `BENCHMARK.json`) nests a handful of
/// levels; one recursion frame per level keeps 128 far inside a
/// thread's default stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs on `f64` fidelity).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` gives deterministic iteration; duplicate
    /// keys keep the last value, as browsers do.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (one value plus whitespace).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error, of trailing garbage after the value, or of the array or
    /// object that nests deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && *v == v.trunc() && *v < 9e15 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    let v: f64 = text
        .parse()
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if !v.is_finite() {
        return Err(format!("non-finite number {text:?} at byte {start}"));
    }
    Ok(Json::Num(v))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        // Surrogates are not paired; the sinks never
                        // emit them, so a lone surrogate maps to the
                        // replacement character rather than an error.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // One run of unescaped bytes, up to the next quote or
                // backslash. Both are ASCII, so in a `str` the run ends
                // on a character boundary and decodes in one pass.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x"}],"c":{"d":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("1e999").is_err(), "infinite literal rejected");
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_bound() {
        let arrays = |depth| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        // One frame per level would overflow any thread's stack at
        // 100,000 levels; the parser stops at the first level past the
        // bound and names its byte.
        assert_eq!(
            Json::parse(&arrays(100_000)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        assert_eq!(
            Json::parse(&objects(100_000)).unwrap_err(),
            format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                5 * MAX_DEPTH
            )
        );
    }

    #[test]
    fn escapes_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            push_escaped(&mut out, s);
            out
        };
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(escaped("nl\ntab\t"), "\"nl\\ntab\\t\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("unicode ✓"), "\"unicode ✓\"");
    }

    #[test]
    fn writer_output_round_trips() {
        let mut buf = String::new();
        buf.push('{');
        push_escaped(&mut buf, "name\twith\nspecials\"");
        buf.push(':');
        push_f64(&mut buf, 1.25);
        buf.push(',');
        push_escaped(&mut buf, "n");
        buf.push(':');
        push_f64(&mut buf, 123456789.0);
        buf.push('}');
        let v = Json::parse(&buf).unwrap();
        assert_eq!(
            v.get("name\twith\nspecials\"").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(v.get("n").unwrap().as_u64(), Some(123456789));
    }

    #[test]
    fn non_ascii_strings_round_trip_next_to_escapes() {
        for s in [
            "é",
            "日本",
            "\u{1d11e}",
            "é\n日本\t\u{1d11e}",
            "\"é\"",
            "\\日本\\",
            "\u{1}\u{1d11e}\u{1f}",
        ] {
            let mut doc = String::new();
            push_escaped(&mut doc, s);
            assert_eq!(Json::parse(&doc).unwrap(), Json::Str(s.into()), "{doc}");
        }
        // A \u escape, a quote, a backslash and a solidus, each next to
        // a multi-byte character.
        assert_eq!(
            Json::parse("\"\\u00e9é\\\"日本\\\\\u{1d11e}\\/\"").unwrap(),
            Json::Str("éé\"日本\\\u{1d11e}/".into())
        );
    }

    /// Parse time is linear in string content. Decoding the rest of the
    /// document for every character made both documents quadratic:
    /// tens of seconds each.
    #[test]
    fn a_mebibyte_of_strings_parses_in_linear_time() {
        let mib = 1 << 20;
        let long = "é".repeat(mib / 2);
        let one = format!("\"{long}\"");
        let many = format!("[{}]", vec!["\"abcdef\""; mib / 9].join(","));
        for (doc, want) in [
            (one, Json::Str(long.clone())),
            (many, Json::Arr(vec![Json::Str("abcdef".into()); mib / 9])),
        ] {
            let start = std::time::Instant::now();
            let value = Json::parse(&doc).unwrap();
            let took = start.elapsed();
            assert!(
                took.as_secs_f64() < 2.0,
                "{} bytes took {took:?}",
                doc.len()
            );
            assert!(value == want);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        let mut buf = String::new();
        push_f64(&mut buf, 3.0);
        assert_eq!(buf, "3");
    }

    #[test]
    #[should_panic(expected = "no JSON encoding")]
    fn writer_rejects_nan() {
        let mut buf = String::new();
        push_f64(&mut buf, f64::NAN);
    }

    #[test]
    fn as_u64_rejects_negatives_and_fractions() {
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }
}
