//! Hand-rolled JSON serialisation for [`ExperimentReport`] artifacts.
//!
//! The workspace is dependency-free, so this module carries its own
//! minimal JSON value model ([`JsonValue`]), a pretty-printing writer and
//! a recursive-descent parser. Object key order is preserved (objects are
//! association lists). Integers and floats are distinct: the writer spells
//! floats with a decimal point (`2.0`, never `2`) and the parser keeps
//! dot-free numbers as [`JsonValue::Int`], so [`to_json`] followed by
//! [`from_json`] reproduces a report exactly, [`crate::Value::Int`] cells
//! included.
//!
//! # Examples
//!
//! ```
//! use report::{Column, ExperimentReport, Unit, Value};
//!
//! let mut r = ExperimentReport::new("fig04", "PTW latency")
//!     .with_columns([Column::new("walks", Unit::Count)]);
//! r.push_row("20-30", [Value::from(17u64)]);
//! let text = report::json::to_json(&r);
//! assert_eq!(report::json::from_json(&text).unwrap(), r);
//! ```

use crate::schema::{Column, ExperimentReport, Metric, Provenance, Row, Unit, Value};

/// Artifact schema identifier written into every JSON report.
pub const SCHEMA_ID: &str = "victima-report/1";

/// A parsed JSON document. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without `.`/`e` that fits an `i64`.
    Int(i64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as an ordered association list.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, when numeric (either variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a slice, when it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- writing

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float so the parser keeps it a float: shortest round-trip
/// representation with `.0` appended when it would otherwise look
/// integral. Non-finite values become `null` (JSON has no NaN/Inf).
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_value(out: &mut String, v: &JsonValue, indent: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Num(n) => push_f64(out, *n),
        JsonValue::Str(s) => escape_into(out, s),
        JsonValue::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            // Arrays of scalars print on one line (row cells stay diffable
            // one row per line); arrays holding containers go multi-line.
            let scalar = items.iter().all(|i| !matches!(i, JsonValue::Arr(_) | JsonValue::Obj(_)));
            if scalar {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_value(out, item, indent);
                }
                out.push(']');
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        JsonValue::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                escape_into(out, k);
                out.push_str(": ");
                write_value(out, val, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

/// Pretty-prints a [`JsonValue`] (2-space indent, one row per line,
/// trailing newline) — line-diffable artifacts.
pub fn write_json(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 0);
    out.push('\n');
    out
}

fn write_value_compact(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Int(i) => out.push_str(&i.to_string()),
        JsonValue::Num(n) => push_f64(out, *n),
        JsonValue::Str(s) => escape_into(out, s),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value_compact(out, item);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(out, k);
                out.push(':');
                write_value_compact(out, val);
            }
            out.push('}');
        }
    }
}

/// Prints a [`JsonValue`] as one compact line (no whitespace, no trailing
/// newline) — the JSON Lines building block: every document fits one
/// `\n`-terminated line, so streams can be produced and consumed
/// incrementally. Output reparses to the same value via [`parse_json`].
pub fn write_json_compact(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value_compact(&mut out, v);
    out
}

// ---------------------------------------------------------------- parsing

/// A JSON parse error with byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse_json`] accepts. Reports and
/// service requests nest under 10 deep; the cap keeps a hostile
/// `[[[[…` document from overflowing the recursive parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses one array/object, refusing to open more than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, ParseError>,
    ) -> Result<JsonValue, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos = end;
                Ok(v)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("truncated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect "\uXXXX" for the low half.
                                if !self.eat_literal("\\u") {
                                    return self.err("lone high surrogate");
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character starting at `c`.
                    let start = self.pos - 1;
                    let len = match c {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    if start + len > self.bytes.len() {
                        return self.err("truncated UTF-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..start + len]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8"),
                    }
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number text");
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) => Ok(JsonValue::Num(n)),
            Err(_) => self.err(format!("invalid number {text:?}")),
        }
    }
}

/// Parses a JSON document. Arrays and objects may nest at most 128
/// deep; deeper documents are a [`ParseError`].
pub fn parse_json(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

// ------------------------------------------------- report <-> JsonValue

/// Builds an object from `(key, value)` members, keeping their order.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Builds an array of strings.
pub fn str_arr(items: &[String]) -> JsonValue {
    JsonValue::Arr(items.iter().map(|s| JsonValue::Str(s.clone())).collect())
}

fn cell_to_json(v: &Value) -> JsonValue {
    match v {
        Value::Empty => JsonValue::Null,
        Value::Int(i) => JsonValue::Int(*i),
        Value::Float(f) => JsonValue::Num(*f),
        Value::Str(s) => JsonValue::Str(s.clone()),
    }
}

/// Converts a report to its JSON document model.
pub fn report_to_value(r: &ExperimentReport) -> JsonValue {
    let columns = r
        .columns
        .iter()
        .map(|c| {
            let mut members =
                vec![("name", JsonValue::Str(c.name.clone())), ("unit", JsonValue::Str(c.unit.tag().into()))];
            if let Some(p) = c.precision {
                members.push(("precision", JsonValue::Int(p as i64)));
            }
            obj(members)
        })
        .collect();
    let rows = r
        .rows
        .iter()
        .map(|row| {
            obj(vec![
                ("label", JsonValue::Str(row.label.clone())),
                ("cells", JsonValue::Arr(row.cells.iter().map(cell_to_json).collect())),
            ])
        })
        .collect();
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            obj(vec![
                ("name", JsonValue::Str(m.name.clone())),
                ("value", JsonValue::Num(m.value)),
                ("unit", JsonValue::Str(m.unit.tag().into())),
                ("tolerance", JsonValue::Num(m.tolerance)),
            ])
        })
        .collect();
    let provenance = obj(vec![
        ("scale", JsonValue::Str(r.provenance.scale.clone())),
        ("warmup", JsonValue::Int(r.provenance.warmup as i64)),
        ("instructions", JsonValue::Int(r.provenance.instructions as i64)),
        // Hex string: a full 64-bit seed overflows JSON's i64-safe range.
        ("seed", JsonValue::Str(format!("0x{:x}", r.provenance.seed))),
        ("engine", JsonValue::Str(r.provenance.engine.clone())),
        ("configs", str_arr(&r.provenance.configs)),
        ("workloads", str_arr(&r.provenance.workloads)),
    ]);
    obj(vec![
        ("schema", JsonValue::Str(SCHEMA_ID.into())),
        ("id", JsonValue::Str(r.id.clone())),
        ("title", JsonValue::Str(r.title.clone())),
        ("label_name", JsonValue::Str(r.label_name.clone())),
        ("provenance", provenance),
        ("columns", JsonValue::Arr(columns)),
        ("rows", JsonValue::Arr(rows)),
        ("metrics", JsonValue::Arr(metrics)),
        ("notes", str_arr(&r.notes)),
    ])
}

/// Serialises a report as pretty-printed JSON (the artifact and baseline
/// format).
pub fn to_json(r: &ExperimentReport) -> String {
    write_json(&report_to_value(r))
}

/// Deserialises a report from its JSON artifact.
pub fn from_json(text: &str) -> Result<ExperimentReport, ParseError> {
    let doc = parse_json(text)?;
    value_to_report(&doc).map_err(|message| ParseError { offset: 0, message })
}

/// The member `key` of object `doc`; errors `missing key "<key>"`.
pub fn req<'v>(doc: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    doc.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

/// The string member `key` of `doc`.
pub fn req_str(doc: &JsonValue, key: &str) -> Result<String, String> {
    req(doc, key)?.as_str().map(str::to_owned).ok_or_else(|| format!("{key:?} must be a string"))
}

/// The non-negative integer member `key` of `doc`.
pub fn req_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    req(doc, key)?.as_u64().ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

/// The string-array member `key` of `doc`.
pub fn req_str_arr(doc: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    req(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("{key:?} must be an array"))?
        .iter()
        .map(|v| v.as_str().map(str::to_owned).ok_or_else(|| format!("{key:?} entries must be strings")))
        .collect()
}

fn unit_of(doc: &JsonValue, key: &str) -> Result<Unit, String> {
    let tag = req_str(doc, key)?;
    Unit::from_tag(&tag).ok_or_else(|| format!("unknown unit {tag:?}"))
}

/// Converts a parsed JSON document back into a report.
pub fn value_to_report(doc: &JsonValue) -> Result<ExperimentReport, String> {
    let schema = req_str(doc, "schema")?;
    if schema != SCHEMA_ID {
        return Err(format!("unsupported schema {schema:?} (expected {SCHEMA_ID:?})"));
    }
    let prov = req(doc, "provenance")?;
    let provenance = Provenance {
        scale: req_str(prov, "scale")?,
        warmup: req_u64(prov, "warmup")?,
        instructions: req_u64(prov, "instructions")?,
        seed: {
            let s = req_str(prov, "seed")?;
            let hex = s.strip_prefix("0x").ok_or_else(|| format!("\"seed\" must be 0x-hex, got {s:?}"))?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("\"seed\": {e}"))?
        },
        engine: req_str(prov, "engine")?,
        configs: req_str_arr(prov, "configs")?,
        workloads: req_str_arr(prov, "workloads")?,
    };
    let columns = req(doc, "columns")?
        .as_arr()
        .ok_or("\"columns\" must be an array")?
        .iter()
        .map(|c| {
            let mut col = Column::new(req_str(c, "name")?, unit_of(c, "unit")?);
            if let Some(p) = c.get("precision") {
                col.precision =
                    Some(p.as_u64().ok_or("\"precision\" must be a non-negative integer")? as usize);
            }
            Ok(col)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rows = req(doc, "rows")?
        .as_arr()
        .ok_or("\"rows\" must be an array")?
        .iter()
        .map(|row| {
            let cells = req(row, "cells")?
                .as_arr()
                .ok_or("\"cells\" must be an array")?
                .iter()
                .map(json_to_cell)
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Row { label: req_str(row, "label")?, cells })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let metrics = req(doc, "metrics")?
        .as_arr()
        .ok_or("\"metrics\" must be an array")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: req_str(m, "name")?,
                value: req(m, "value")?.as_f64().ok_or("metric \"value\" must be a number")?,
                unit: unit_of(m, "unit")?,
                tolerance: req(m, "tolerance")?.as_f64().ok_or("metric \"tolerance\" must be a number")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ExperimentReport {
        id: req_str(doc, "id")?,
        title: req_str(doc, "title")?,
        label_name: req_str(doc, "label_name")?,
        columns,
        rows,
        metrics,
        notes: req_str_arr(doc, "notes")?,
        provenance,
    })
}

fn json_to_cell(v: &JsonValue) -> Result<Value, String> {
    Ok(match v {
        JsonValue::Null => Value::Empty,
        JsonValue::Str(s) => Value::Str(s.clone()),
        JsonValue::Int(i) => Value::Int(*i),
        JsonValue::Num(n) => Value::Float(*n),
        _ => return Err("cells must be null, a number, or a string".into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-12.5e1").unwrap(), JsonValue::Num(-125.0));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse_json(r#""a\nb\u0041\u00e9""#).unwrap(), JsonValue::Str("a\nbAé".into()));
        let doc = parse_json(r#"{"a": [1, 2], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        assert_eq!(parse_json("2").unwrap(), JsonValue::Int(2));
        assert_eq!(parse_json("2.0").unwrap(), JsonValue::Num(2.0));
        assert_eq!(write_json(&JsonValue::Num(2.0)), "2.0\n");
        assert_eq!(write_json(&JsonValue::Int(2)), "2\n");
    }

    #[test]
    fn parses_surrogate_pairs() {
        assert_eq!(parse_json(r#""\ud83d\ude00""#).unwrap(), JsonValue::Str("😀".into()));
        assert!(parse_json(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"\\q\"", "{\"a\":}", "[01x]"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_bombs_are_errors_not_stack_overflows() {
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.message.contains("nesting deeper than 128"), "{err}");
        assert!(parse_json(&"{\"a\":".repeat(200_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&deepest).is_ok(), "{MAX_DEPTH} levels must still parse");
        let too_deep = format!("[{deepest}]");
        assert!(parse_json(&too_deep).is_err());
    }

    #[test]
    fn writer_output_reparses() {
        let doc = parse_json(r#"{"s": "x\"y", "n": [1, 2.5, null, false], "e": {}, "u": "naïve"}"#).unwrap();
        let text = write_json(&doc);
        assert_eq!(parse_json(&text).unwrap(), doc);
    }

    #[test]
    fn compact_writer_is_single_line_and_reparses() {
        let doc = parse_json(r#"{"s": "x\"y", "n": [1, 2.5, null, false], "e": {}, "i": 2}"#).unwrap();
        let line = write_json_compact(&doc);
        assert!(!line.contains('\n'));
        assert!(!line.contains(": "), "compact output carries no decorative whitespace");
        assert_eq!(parse_json(&line).unwrap(), doc);
        // Int/float distinction survives the compact path too.
        assert_eq!(write_json_compact(&JsonValue::Num(2.0)), "2.0");
        assert_eq!(write_json_compact(&JsonValue::Int(2)), "2");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(write_json(&JsonValue::Num(f64::NAN)), "null\n");
        assert_eq!(write_json(&JsonValue::Num(f64::INFINITY)), "null\n");
    }
}
