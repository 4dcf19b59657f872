//! Structured synthesis trace: per-stage wall times and layer-native
//! counters, serializable to JSON without external dependencies.
//!
//! Every pipeline stage ([`crate::pipeline`]) appends one [`StageRecord`]
//! with its wall time and whatever counters the owning layer reports:
//! BDD unique-table and operation-cache statistics, s-graph node counts,
//! emitted-C line counts, estimated cycle bounds. The CLI writes the
//! trace with `polis synth --trace out.json`.
//!
//! [`Json`] is the one JSON value type of the workspace: the trace, the
//! bench result files and the bench gate that reads them back all go
//! through its writer and reader.

use std::fmt;
use std::time::Duration;

/// A counter value: layers report either integral counts or ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An integral count (node counts, bytes, cycles, swaps, …).
    Int(u64),
    /// A ratio or rate (cache hit rate, relative error, …).
    Float(f64),
}

/// One executed pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (`"chi"`, `"sift"`, `"sgraph"`, …).
    pub stage: &'static str,
    /// The CFSM being synthesized, or `None` for network-level stages
    /// (parse, rtos).
    pub machine: Option<String>,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Layer-native counters, in report order.
    pub counters: Vec<(String, MetricValue)>,
}

impl StageRecord {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<MetricValue> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The full trace of one synthesis run, in execution order (per-machine
/// stages are merged in network order regardless of `--jobs`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthTrace {
    records: Vec<StageRecord>,
}

impl SynthTrace {
    /// An empty trace.
    pub fn new() -> SynthTrace {
        SynthTrace::default()
    }

    /// Appends a finished stage record.
    pub fn push(&mut self, record: StageRecord) {
        self.records.push(record);
    }

    /// Appends every record of `other`, preserving order.
    pub fn extend(&mut self, other: SynthTrace) {
        self.records.extend(other.records);
    }

    /// The recorded stages, in execution order.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Serializes the trace as JSON. Durations are reported in
    /// microseconds.
    pub fn to_json(&self) -> String {
        let stages = self.records.iter().map(|r| {
            Json::obj([
                ("stage", Json::Str(r.stage.to_owned())),
                ("machine", r.machine.clone().map_or(Json::Null, Json::Str)),
                ("wall_us", Json::num(r.wall.as_micros())),
                (
                    "counters",
                    Json::obj(
                        r.counters
                            .iter()
                            .map(|(n, v)| (n.as_str(), json_number(*v))),
                    ),
                ),
            ])
        });
        format!("{}\n", Json::obj([("stages", Json::Arr(stages.collect()))]))
    }
}

/// Formats a metric as a JSON number. Non-finite floats (which JSON cannot
/// represent) become `null`.
fn json_number(v: MetricValue) -> Json {
    match v {
        MetricValue::Int(n) => Json::num(n),
        MetricValue::Float(f) if f.is_finite() => {
            // Rust's shortest-roundtrip Display is valid JSON except that
            // integral values print without a decimal point; keep them
            // recognizably floating.
            let s = f.to_string();
            Json::Num(if s.contains(['.', 'e', 'E']) {
                s
            } else {
                format!("{s}.0")
            })
        }
        MetricValue::Float(_) => Json::Null,
    }
}

/// A JSON value: the workspace's one JSON type. `Display` writes it
/// pretty-printed (two spaces per level, `"key": value`, empty
/// containers as `[]` and `{}`); [`Json::parse`] reads it back.
///
/// A number is kept as its literal text, so a value read from a file (a
/// `u128` state count, a wall time fixed to three places) compares and
/// writes back exactly as it was written. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, as its JSON literal text.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from its `Display` text (integers of any width).
    pub fn num(n: impl fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// A float fixed to `places` decimals; non-finite values become `null`.
    pub fn fixed(x: f64, places: usize) -> Json {
        if x.is_finite() {
            Json::Num(format!("{x:.places$}"))
        } else {
            Json::Null
        }
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value of `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as a `T` (`u64`, `u128`, `f64`, …), if this is
    /// a number that reads as one.
    pub fn as_num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader { text, pos: 0 };
        let value = r.value()?;
        r.skip_ws();
        if r.pos < text.len() {
            return Err(r.err("trailing characters"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&format!("\"{}\"", escape_json(s))),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", escape_json(key)));
            }
            value.write(out, depth + 1);
        }
        if !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// Recursive-descent reader over one JSON document.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes the next byte if it is one of `set`.
    fn opt(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| set.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.opt(b" \t\n\r") {}
    }

    /// Skips whitespace, then requires `b`.
    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.opt(&[b]) {
            true => Ok(()),
            false => Err(self.err(&format!("expected `{}`", b as char))),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
            Some(b'{') => self
                .items(b'}', |r| {
                    r.skip_ws();
                    let key = r.string()?;
                    r.expect(b':')?;
                    Ok((key, r.value()?))
                })
                .map(Json::Obj),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        while !self.opt(&[close]) {
            if !items.is_empty() {
                self.expect(b',')?;
            }
            items.push(item(self)?);
            self.skip_ws();
        }
        Ok(items)
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`, kept as its text.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.opt(b"-");
        self.digits()?;
        if self.opt(b".") {
            self.digits()?;
        }
        if self.opt(b"eE") {
            self.opt(b"+-");
            self.digits()?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_owned()))
    }

    fn digits(&mut self) -> Result<(), String> {
        let n = self.text[self.pos..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        self.pos += n;
        match n {
            0 => Err(self.err("expected a digit")),
            _ => Ok(()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.opt(b"\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.opt(b"\"") {
                return Ok(out);
            }
            if !self.opt(b"\\") {
                return Err(self.err("control character in string"));
            }
            out.push(self.escape()?);
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        if let Some(i) = b"\"\\/bfnrt".iter().position(|&e| e == c) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        if c != b'u' {
            return Err(self.err("invalid escape"));
        }
        // Surrogate halves (never written by `escape_json`) do not decode.
        let code = self.hex4()?;
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("héllo"), "héllo");
    }

    #[test]
    fn numbers_serialize_as_json() {
        let text = |v| json_number(v).to_string();
        assert_eq!(text(MetricValue::Int(42)), "42");
        assert_eq!(text(MetricValue::Float(0.5)), "0.5");
        assert_eq!(text(MetricValue::Float(2.0)), "2.0");
        assert_eq!(text(MetricValue::Float(f64::NAN)), "null");
        assert_eq!(text(MetricValue::Float(f64::INFINITY)), "null");
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = SynthTrace::new().to_json();
        assert_eq!(json, "{\n  \"stages\": []\n}\n");
    }
}
