//! Minimal JSON value model, parser, and renderer.
//!
//! The workspace is offline (no serde), but the sweep service speaks a
//! JSONL wire protocol and the benchmark snapshots are JSON files, so
//! this module provides the small, dependency-free subset the repo
//! needs: a [`Json`] value tree, a strict recursive-descent
//! [`Json::parse`], and a deterministic [`Json::render`] (object keys
//! keep insertion order, so rendering is byte-stable — a property the
//! serving tests rely on).
//!
//! Integers are kept exact: a number without `.`/`e` parses to
//! [`Json::Int`], so `u64` simulation counters survive a round trip
//! bit-for-bit (up to `i64::MAX`, far above any counter the simulator
//! can produce within the interpreter instruction budget).
//!
//! # Examples
//!
//! ```
//! use ch_common::json::Json;
//!
//! let v = Json::parse(r#"{"type":"result","cached":true,"cycles":12345}"#).unwrap();
//! assert_eq!(v.get("type").and_then(Json::as_str), Some("result"));
//! assert_eq!(v.get("cycles").and_then(Json::as_u64), Some(12345));
//! assert_eq!(v.render(), r#"{"type":"result","cached":true,"cycles":12345}"#);
//! ```

use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the bound keeps a hostile line from
/// overflowing the stack.
pub const MAX_DEPTH: u32 = 128;

/// A parsed JSON value.
///
/// Object members keep their textual order (a `Vec`, not a map): the
/// renderer is therefore deterministic and `parse ∘ render` is the
/// identity on the wire formats this repo emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without a fraction or exponent (kept exact).
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in textual member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value from `s` (the entire string must be
    /// consumed, modulo trailing whitespace).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.at));
        }
        Ok(v)
    }

    /// Renders the value back to compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Appends the compact rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a member of an object by key (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`, if it is a non-negative exact integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn write_escaped(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Open arrays and objects; see [`MAX_DEPTH`].
    depth: u32,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.at)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parses an array or object one nesting level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.at..].starts_with(b"\\u") {
                                    return Err("lone high surrogate".into());
                                }
                                self.at += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(c)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                            // hex4 leaves `at` on the next byte already.
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // byte boundaries are valid char boundaries).
                    let rest = &self.bytes[self.at..];
                    let step = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    s.push_str(std::str::from_utf8(&rest[..step]).map_err(|e| e.to_string())?);
                    self.at += step;
                }
            }
        }
    }

    /// Reads four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.at..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.at = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut exact = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    exact = false;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        if exact {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_wire_shapes() {
        for line in [
            r#"{"type":"sim","id":3,"workload":"xz","timeout_ms":0}"#,
            r#"{"type":"result","cached":false,"wait_ms":1.5,"counters":{"cycles":9}}"#,
            r#"[1,-2,3.5,true,false,null,"s"]"#,
            r#"{"empty":{},"none":[]}"#,
        ] {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.render(), line, "stable round trip for {line}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = (1u64 << 53) + 1; // not representable in f64
        let v = Json::parse(&format!("{{\"n\":{big}}}")).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(big));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Obj(vec![(
            "m".into(),
            Json::Str("quote \" slash \\ newline \n tab \t unicode é".into()),
        )]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        // \u escapes (incl. a surrogate pair) parse to the right chars.
        let v = Json::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let at_bound = MAX_DEPTH as usize;
        assert!(Json::parse(&nest(at_bound)).is_ok());
        let objects = format!("{}1{}", r#"{"a":"#.repeat(at_bound), "}".repeat(at_bound));
        assert!(Json::parse(&objects).is_ok());
        let too_deep = format!("nesting deeper than {MAX_DEPTH} levels at byte {at_bound}");
        assert_eq!(Json::parse(&nest(at_bound + 1)), Err(too_deep.clone()));
        // Far past the bound: an error, not a stack overflow.
        assert_eq!(Json::parse(&nest(20_000)), Err(too_deep));
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse(r#"{"s":"x","n":4,"f":1.5,"b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
