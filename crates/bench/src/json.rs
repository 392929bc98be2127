//! The workspace's one JSON reader and writer, and the schemas of every
//! JSON artifact it emits.
//!
//! The serde shim has no JSON support (see shims/README.md) and every
//! format is under our control, so a small [`Value`] tree covers it:
//! [`Value`]'s `Display` is the only writer (compact, one line) and
//! [`parse`] the only reader. String escaping, the number policy and the
//! grammar live here and nowhere else:
//!
//! * strings round-trip unchanged, UTF-8 included; `"`, `\` and control
//!   characters are escaped on output;
//! * integers are written exactly, finite floats in Rust's shortest
//!   round-trip form, and non-finite floats as `null` (JSON has no `inf`
//!   or `NaN`).
//!
//! The artifact schemas built on it:
//!
//! * [`sweep`] and [`reduced`] — the raw and seed-aggregated
//!   [`ExperimentPlan`](dbac_core::scenario::sweep::ExperimentPlan) sweep
//!   reports (`sweep.json`, `chaos.json`, `net.json`), in the
//!   `{"kernels": {...}}` schema [`crate::trend::parse_report`] gates;
//! * [`registry`] — a stats-registry snapshot (the `dbacd` `stats` reply
//!   and `stats.json`), read by [`crate::trend::parse_registry_report`];
//! * [`certificate`] — a serialized (r, s)-robustness certificate, the
//!   per-row payload of the `certify` bin.
//!
//! Two writers stay outside this module on purpose: `shims/criterion`'s
//! `--json` report stands in for an external crate and cannot depend on a
//! workspace crate, and `e2ebench/` is the end-to-end benchmark's own
//! package, built apart from the workspace.

use dbac_conditions::robustness::{CertificateRule, RobustnessCertificate};
use dbac_core::scenario::sweep::{ReducedReport, SweepReport};
use dbac_core::scenario::StatsSnapshot;
use std::fmt::{self, Write as _};

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent (covers every `u64`
    /// and `i64` exactly).
    Int(i128),
    /// Any other number; non-finite values are written as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, fields in order (duplicate keys are kept as read).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` fields, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The first field named `key`, when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The fields, when `self` is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, when `self` is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(i128::from(v))
            }
        }
    )*};
}
from_int!(u8, u32, u64);

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i128)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// `v` rounded to `places` decimals — the precision a timing field is
/// reported at (a float the writer then prints in full).
#[must_use]
pub fn fixed(v: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Float((v * scale).round() / scale)
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            // `Debug` is the shortest round-trip form and always keeps a
            // fraction or an exponent (`1.0`, `1e-7`), so a float reads
            // back as a float.
            Value::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Value::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Nesting deeper than this is rejected, so hostile input cannot exhaust
/// the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message naming the byte offset of the first deviation from the JSON
/// grammar: malformed or unterminated values, raw control characters or
/// bad escapes in strings, unpaired surrogates, numbers out of `f64`
/// range, nesting deeper than 128, or trailing characters.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    if p.peek().is_some() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek(&mut self) -> Option<u8> {
        while self.byte().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let c = self.text[self.pos..].chars().next().unwrap_or('?');
                Err(format!("unexpected '{c}' at byte {}", self.pos))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value(depth + 1)?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte as a slice: all three are ASCII, so the run ends on a
            // char boundary and multi-byte UTF-8 passes through intact.
            let run = self.pos;
            while self.byte().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.byte() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.byte().ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(format!("unsupported escape at byte {}", self.pos - 2)),
                    });
                }
                Some(_) => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
    }

    /// The code point of a `\uXXXX` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(format!("unpaired surrogate at byte {at}"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at byte {at}"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .byte()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if !token.contains(['.', 'e', 'E']) {
            if let Ok(i) = token.parse() {
                return Ok(Value::Int(i));
            }
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            Ok(_) => Err(format!("number '{token}' at byte {start} is out of range")),
            Err(e) => Err(format!("bad number '{token}' at byte {start}: {e}")),
        }
    }
}

/// The `bench_trend` report schema: `{"kernels": {name: fields}}`.
fn kernels(entries: impl Iterator<Item = (String, Value)>) -> Value {
    Value::object([("kernels", Value::Object(entries.collect()))])
}

/// The raw per-cell sweep report in the `bench_trend` schema: each cell
/// becomes a kernel keyed by its label, `mean_ns` carrying the wall
/// time, the digest flattened into extra numeric fields (which the gate
/// accepts and ignores), and rejected cells flagged with `"error": 1`.
#[must_use]
pub fn sweep(report: &SweepReport) -> Value {
    kernels(report.rows.iter().map(|row| {
        let fields = match &row.summary {
            Ok(s) => Value::object([
                ("mean_ns", fixed(row.wall_ns, 1)),
                ("converged", u8::from(s.converged).into()),
                ("valid", u8::from(s.valid).into()),
                ("decided", u8::from(s.all_decided).into()),
                ("spread", s.spread.into()),
                ("messages", s.messages().into()),
                ("dropped", s.messages_dropped.into()),
                ("rounds", s.rounds.into()),
            ]),
            Err(_) => Value::object([("mean_ns", fixed(row.wall_ns, 1)), ("error", 1u8.into())]),
        };
        (row.label.clone(), fields)
    }))
}

/// The seed-aggregated sweep report in the `bench_trend` schema: each
/// group becomes a kernel keyed by the group label, `mean_ns` carrying
/// the mean wall time over the seed batch, with the distributional
/// fields flattened to extra numbers the gate accepts and ignores.
#[must_use]
pub fn reduced(report: &ReducedReport) -> Value {
    kernels(report.cells.iter().map(|c| {
        let fields = Value::object([
            ("mean_ns", fixed(c.wall_ns.mean, 1)),
            ("min_ns", fixed(c.wall_ns.min, 1)),
            ("max_ns", fixed(c.wall_ns.max, 1)),
            ("stddev_ns", fixed(c.wall_ns.stddev, 1)),
            ("runs", c.runs.into()),
            ("errors", c.errors.into()),
            ("converged", c.converged.into()),
            ("valid", c.valid.into()),
            ("decided", c.all_decided.into()),
            ("spread_mean", c.spread.mean.into()),
            ("spread_median", c.spread.median.into()),
            ("spread_max", c.spread.max.into()),
            ("rounds_to_eps_mean", c.rounds_to_epsilon.mean.into()),
            ("messages_mean", fixed(c.messages.mean, 1)),
            ("messages_max", fixed(c.messages.max, 1)),
            ("dropped_mean", fixed(c.dropped.mean, 1)),
        ]);
        (c.group.clone(), fields)
    }))
}

/// A stats-registry snapshot, `{"registry": {counter: total}}` keyed by
/// `StatsSnapshot::to_kv` — the `dbacd` `stats` reply and the
/// `stats.json` artifact.
#[must_use]
pub fn registry(snapshot: &StatsSnapshot) -> Value {
    let counters = snapshot.to_kv().into_iter().map(|(k, v)| (k, Value::from(v)));
    Value::object([("registry", Value::object(counters))])
}

/// A robustness certificate as a self-contained object: `n`, `r`, `s`,
/// the rule's name, its parameters and the per-node evidence.
#[must_use]
pub fn certificate(cert: &RobustnessCertificate) -> Value {
    let params = match cert.rule {
        CertificateRule::Trivial | CertificateRule::StronglyConnected => Value::Object(Vec::new()),
        CertificateRule::MinInDegree { min_in_degree } => {
            Value::object([("min_in_degree", min_in_degree.into())])
        }
        CertificateRule::CirculantPrefix { k } => Value::object([("k", k.into())]),
        CertificateRule::LayeredExpander { layers, width } => {
            Value::object([("layers", layers.into()), ("width", width.into())])
        }
    };
    Value::object([
        ("n", cert.n.into()),
        ("r", cert.r.into()),
        ("s", cert.s.into()),
        ("rule", cert.rule.name().into()),
        ("params", params),
        ("evidence", Value::Array(cert.evidence.iter().map(|&e| e.into()).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        parse(&v.to_string()).unwrap_or_else(|e| panic!("{v} does not parse: {e}"))
    }

    #[test]
    fn non_ascii_and_control_characters_round_trip() {
        for s in ["eps=ε", "ρ→∞ 😀", "\u{1}\u{1f}\n\r\t\"\\/", ""] {
            let v = Value::object([(s, Value::from(s))]);
            assert_eq!(round_trip(&v), v, "{s:?}");
        }
        // Control characters are escaped, never written raw.
        let text = Value::from("a\u{1}b\n").to_string();
        assert_eq!(text, r#""a\u0001b\n""#);
        assert_eq!(Value::from("a\"b\\c").to_string(), r#""a\"b\\c""#);
    }

    #[test]
    fn numbers_keep_their_kind_and_non_finite_floats_are_null() {
        for v in [0.5, 1.0, -0.0, 1e-7, 1.5e300, 1234.5] {
            assert_eq!(round_trip(&Value::Float(v)), Value::Float(v), "{v}");
        }
        for i in [0, -1, i128::from(u64::MAX), i128::from(i64::MIN)] {
            assert_eq!(round_trip(&Value::Int(i)), Value::Int(i));
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Float(bad).to_string(), "null");
        }
        assert_eq!(fixed(0.123_45, 3), Value::Float(0.123));
    }

    #[test]
    fn parses_nested_documents_and_escapes() {
        let v = parse(
            r#" { "a": [1, 2.5, -3e2, true, false, null, {}], "b": "\u00e9\ud83d\ude00\/" } "#,
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2], Value::Float(-300.0));
        assert_eq!(&a[3..6], &[Value::Bool(true), Value::Bool(false), Value::Null]);
        assert_eq!(a[6], Value::Object(Vec::new()));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("é😀/"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "\"raw\ncontrol\"",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\u12\"",
            "1e999",
            "nul",
            "1 2",
            "+1",
            "inf",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
