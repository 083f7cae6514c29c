//! A minimal JSON value model, streaming reader and writer.
//!
//! The build environment has no `serde_json`, so the result store
//! carries its own codec. One tokenizer, [`Reader`], reads everything:
//! the typed store decoders pull values from it straight into their
//! structs, and [`parse`] builds a [`Value`] tree on it for the few
//! callers that want one. Two properties matter here and are tested:
//!
//! * **float fidelity** — `f64`s are written with Rust's shortest
//!   round-trip formatting and parsed back bit-identically, so a cached
//!   [`snug_experiments::ComboResult`] compares `==` to a fresh run;
//! * **determinism** — writing is a pure function of the value, so the
//!   same result always produces the same JSONL line.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value. Objects keep key order in a `BTreeMap`, which makes the
/// rendered form canonical (sorted keys) — important for hashing.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number. Only finite numbers render: [`Value::render`] refuses
    /// NaN and the infinities, which JSON cannot express.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Shorthand for a number (rendering fails if it is not finite).
    pub fn num(x: f64) -> Value {
        Value::Num(x)
    }

    /// The value as a number, when it is one.
    pub fn as_num(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(x) => Ok(*x),
            v => Err(JsonError::shape("number", v)),
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            v => Err(JsonError::shape("string", v)),
        }
    }

    /// The value as an array, when it is one.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(a) => Ok(a),
            v => Err(JsonError::shape("array", v)),
        }
    }

    /// The value as an object, when it is one.
    pub fn as_obj(&self) -> Result<&BTreeMap<String, Value>, JsonError> {
        match self {
            Value::Obj(o) => Ok(o),
            v => Err(JsonError::shape("object", v)),
        }
    }

    /// Fetch a required object field.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        self.as_obj()?
            .get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// Render to a compact JSON string. Fails on a non-finite number,
    /// naming the field path that holds it.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    fn write(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_num(*x, out)?,
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)
                        .map_err(|e| JsonError(format!("[{i}]{}", e.0)))?;
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out)
                        .map_err(|e| JsonError(format!(".{k}{}", e.0)))?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

fn write_num(x: f64, out: &mut String) -> Result<(), JsonError> {
    if !x.is_finite() {
        return Err(JsonError(format!(": {x} is not a finite JSON number")));
    }
    // Rust's float formatting is shortest-round-trip: parsing the output
    // recovers the exact bits. Integers render without a fraction; keep
    // them as-is (JSON permits both).
    let _ = write!(out, "{x:?}");
    Ok(())
}

/// Write `s` as a quoted JSON string. Every byte that needs an escape is
/// ASCII, so the plain runs between them start and end on character
/// boundaries and go out with one `push_str` each.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse or shape error, with a short human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    fn shape(wanted: &str, got: &Value) -> JsonError {
        let kind = match got {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        };
        JsonError(format!("expected {wanted}, got {kind}"))
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting a [`Reader`] accepts. Store lines nest
/// a handful of levels; the cap turns a hostile `[[[[…` into an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document into a [`Value`] tree. Trailing garbage is an
/// error.
///
/// Linear in the input: a string holding an escape is scanned twice
/// (to find its end, then to copy it in runs between escapes), every
/// other byte once.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Check that `text` is one JSON document, building nothing: exactly
/// the inputs [`parse`] accepts.
pub(crate) fn check(text: &str) -> Result<(), JsonError> {
    let mut r = Reader::new(text);
    r.skip()?;
    r.finish()
}

/// The offset of the first `"`, `\` or raw control byte (JSON admits
/// those only escaped) in `bytes`: where a string's plain run ends. The
/// tests join with `|`: with `||` the block test in [`find_byte`] did
/// not vectorise, and opening the committed store took 1.6 times as long.
fn plain_run_len(bytes: &[u8]) -> Option<usize> {
    find_byte(bytes, |b| (b == b'"') | (b == b'\\') | (b < 0x20))
}

/// The offset of the first byte of `bytes` that `hit` flags, found 32
/// bytes at a time. Each block is tested whole, with no early exit
/// inside it, so the test compiles to a few vector compares per block;
/// only the block holding the hit (or the short tail) is scanned byte
/// by byte.
pub(crate) fn find_byte(bytes: &[u8], hit: impl Fn(u8) -> bool) -> Option<usize> {
    let (blocks, _) = bytes.as_chunks::<32>();
    let clear = blocks
        .iter()
        .take_while(|block| !block.iter().fold(false, |any, &b| any | hit(b)))
        .count();
    let from = 32 * clear;
    let rest = bytes[from..].iter().position(|&b| hit(b))?;
    Some(from + rest)
}

/// What the next value is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Num => "number",
            Kind::Str => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        }
    }
}

/// Prefix an error with the object member or array index it arose
/// under, so a nested error reads `.unit.ipcs[2]: expected number, got
/// string` — the form [`Value::render`]'s errors take.
fn at(segment: std::fmt::Arguments<'_>, e: JsonError) -> JsonError {
    if e.0.starts_with(['.', '[']) {
        JsonError(format!("{segment}{}", e.0))
    } else {
        JsonError(format!("{segment}: {}", e.0))
    }
}

/// A streaming pull reader over one JSON document — the one tokenizer
/// behind [`parse`], the store's syntax check and the typed decoders of
/// [`crate::codec`].
///
/// Each call consumes the next value: the typed readers ([`Reader::num`],
/// [`Reader::str`], …) fail with `expected K, got K'` on a well-formed
/// value of another kind, [`Reader::object`] and [`Reader::array`] hand
/// each member or element to a callback, and [`Reader::skip`] steps over
/// any value without allocating. Malformed input is an error from
/// whichever call meets it; nothing panics.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// The kind of the next value, after any whitespace. Input that
    /// starts no value is an error.
    fn peek(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Num),
            _ => Err(JsonError(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn want(&mut self, kind: Kind) -> Result<(), JsonError> {
        match self.peek()? {
            got if got == kind => Ok(()),
            got => Err(JsonError(format!(
                "expected {}, got {}",
                kind.name(),
                got.name()
            ))),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(JsonError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Read a `null`.
    fn null(&mut self) -> Result<(), JsonError> {
        self.want(Kind::Null)?;
        self.literal("null")
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.want(Kind::Bool)?;
        let b = self.byte() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    /// Read a number. `1e999` parses to infinity, which JSON cannot
    /// hold and the writer refuses, so it is an error here too.
    pub fn num(&mut self) -> Result<f64, JsonError> {
        self.want(Kind::Num)?;
        let start = self.pos;
        self.pos += 1;
        while matches!(self.byte(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The scanned bytes are ASCII, so the slice is on boundaries.
        let text = self.text.get(start..self.pos).unwrap_or_default();
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .ok_or_else(|| JsonError(format!("invalid number `{text}`")))
    }

    /// Read a string: borrowed from the input when it holds no escape,
    /// decoded into a fresh `String` when it does.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.want(Kind::Str)?;
        self.string()
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let start = self.pos;
        if !self.scan_string(None)? {
            // Both quotes are ASCII, so the body is on boundaries.
            return Ok(Cow::Borrowed(
                self.text.get(start + 1..self.pos - 1).unwrap_or_default(),
            ));
        }
        self.pos = start;
        let mut out = String::new();
        self.scan_string(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Step over one string, validating every escape and appending the
    /// decoded text to `out` when given. Plain runs up to the next `"`,
    /// `\` or raw control byte go by [`plain_run_len`]; all three are
    /// ASCII, so every run ends on a character boundary, and a raw
    /// control byte is a syntax error. Returns whether the string held
    /// an escape.
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<bool, JsonError> {
        self.expect_byte(b'"')?;
        let mut escaped = false;
        loop {
            let run = plain_run_len(&self.text.as_bytes()[self.pos..])
                .ok_or_else(|| JsonError("unterminated string".into()))?;
            if let Some(out) = out.as_deref_mut() {
                out.push_str(self.text.get(self.pos..self.pos + run).unwrap_or_default());
            }
            self.pos += run;
            if self.byte() == Some(b'"') {
                self.pos += 1;
                return Ok(escaped);
            }
            if self.byte() != Some(b'\\') {
                return Err(JsonError("raw control byte in string".into()));
            }
            escaped = true;
            self.pos += 1;
            let c = match self.byte() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    // Four hex digits; `from_str_radix` alone would
                    // also take a sign.
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                    self.pos += 4;
                    // Surrogates never appear in our own output.
                    char::from_u32(code).ok_or_else(|| JsonError("bad \\u code point".into()))?
                }
                _ => return Err(JsonError("bad escape".into())),
            };
            self.pos += 1;
            if let Some(out) = out.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// Run `body` one nesting level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let done = body(self);
        self.depth -= 1;
        done
    }

    /// Read an object, handing each member's name to `member`, which
    /// must consume the member's value (or [`Reader::skip`] it).
    /// Members come in input order; a repeated name is handed over
    /// again, so a decoder that overwrites keeps the last.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.want(Kind::Obj)?;
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.byte() == Some(b'}') {
                r.pos += 1;
                return Ok(());
            }
            loop {
                r.skip_ws();
                let name = r.string()?;
                r.skip_ws();
                r.expect_byte(b':')?;
                member(r, &name).map_err(|e| at(format_args!(".{name}"), e))?;
                r.skip_ws();
                match r.byte() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => {
                        r.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(JsonError(format!("expected `,` or `}}` at byte {}", r.pos))),
                }
            }
        })
    }

    /// Read an array, calling `item` once per element; it must consume
    /// the element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.want(Kind::Arr)?;
        self.nested(|r| {
            r.pos += 1;
            r.skip_ws();
            if r.byte() == Some(b']') {
                r.pos += 1;
                return Ok(());
            }
            for i in 0.. {
                item(r).map_err(|e| at(format_args!("[{i}]"), e))?;
                r.skip_ws();
                match r.byte() {
                    Some(b',') => r.pos += 1,
                    Some(b']') => break,
                    _ => return Err(JsonError(format!("expected `,` or `]` at byte {}", r.pos))),
                }
            }
            r.pos += 1;
            Ok(())
        })
    }

    /// Step over the next value of any kind, checking its syntax and
    /// allocating nothing for it.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.num().map(drop),
            Kind::Str => self.scan_string(None).map(drop),
            Kind::Arr => self.array(Self::skip),
            Kind::Obj => self.object(|r, _| r.skip()),
        }
    }

    /// Read the next value into a [`Value`] tree.
    fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Num => Value::Num(self.num()?),
            Kind::Str => Value::Str(self.str()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Kind::Obj => {
                let mut map = BTreeMap::new();
                self.object(|r, name| {
                    map.insert(name.to_string(), r.value()?);
                    Ok(())
                })?;
                Value::Obj(map)
            }
        })
    }

    /// End the document: anything but whitespace after the value read
    /// is an error.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(JsonError(format!(
                "trailing characters at byte {}",
                self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "1.5",
            "-3.25",
            "\"hi\\nthere\"",
            "[]",
            "{}",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render().unwrap()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn non_finite_numbers_are_an_error_naming_their_path() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::obj(vec![(
                "ipcs",
                Value::Arr(vec![Value::num(1.0), Value::num(x)]),
            )]);
            let err = v.render().unwrap_err();
            assert_eq!(
                err.0,
                format!(".ipcs[1]: {x} is not a finite JSON number"),
                "{x}"
            );
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -0.0, 1e-308, 123456789.1234568] {
            let v = Value::num(x);
            let back = parse(&v.render().unwrap()).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn objects_render_sorted_and_reparse() {
        let v = Value::obj(vec![
            ("zeta", Value::num(1.0)),
            ("alpha", Value::str("x")),
            ("mid", Value::Arr(vec![Value::Bool(true), Value::Null])),
        ]);
        let text = v.render().unwrap();
        assert!(
            text.find("alpha").unwrap() < text.find("zeta").unwrap(),
            "sorted keys"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn string_escapes_survive() {
        let nasty = "quote\" slash\\ newline\n tab\t unicode\u{1}end";
        let v = Value::str(nasty);
        assert_eq!(
            parse(&v.render().unwrap()).unwrap().as_str().unwrap(),
            nasty
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("1 2").is_err());
        assert!(Value::obj(vec![]).get("missing").is_err());
        assert!(Value::Null.as_num().is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999", "-1e999", "[1,1e400]"] {
            assert!(parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
        assert!(parse(&"{\"a\":[".repeat(100_000)).is_err());
    }

    /// The reader hands out plain strings as slices of the input and
    /// decodes escaped ones; a value of the wrong kind is an error that
    /// names both kinds and the member or element it sits under.
    #[test]
    fn reader_borrows_plain_strings_and_names_mistyped_values() {
        let mut r = Reader::new(r#"["plain", "esc\"aped"]"#);
        let mut got = Vec::new();
        r.array(|r| {
            got.push(r.str()?);
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert!(matches!(got[0], Cow::Borrowed("plain")));
        assert!(matches!(&got[1], Cow::Owned(s) if s == "esc\"aped"));

        let mut r = Reader::new(r#"{"a":[1,"x"]}"#);
        let err = r.object(|r, _| r.array(|r| r.num().map(drop))).unwrap_err();
        assert_eq!(err.0, ".a[1]: expected number, got string");
    }

    /// Escapes follow JSON's grammar: the eight short escapes, and
    /// `\u` with exactly four hex digits — no sign, however
    /// `from_str_radix` would read it, and no split character. Anything
    /// else after a `\` is an error, and so is a raw control character,
    /// which a string may hold only escaped.
    #[test]
    fn escapes_follow_the_json_grammar() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9""#),
            Ok(Value::str("\"\\/\u{8}\u{c}\n\r\tAé"))
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u04""#,
            "\"\\u00é\"",
            r#""\ud800""#,
            r#""\x41""#,
            r#""\'""#,
            r#""\a""#,
            "\"\\é\"",
            "\"\0\"",
            "\"a\tb\"",
            "[\"\n\"]",
            "{\"\u{1f}\":1}",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
            assert!(check(bad).is_err(), "{bad}");
        }
    }

    /// A long string parses in time linear in its length: the bound
    /// is generous for one linear scan, while a per-character scan of
    /// the remaining input takes minutes.
    #[test]
    fn a_mebibyte_string_parses_in_linear_time() {
        let pattern = "plain ascii é€𐍈 \"quoted\" back\\slash\n";
        let s = pattern.repeat((1 << 20) / pattern.len() + 1);
        let text = Value::str(&s).render().unwrap();
        let start = std::time::Instant::now();
        let back = parse(&text).unwrap();
        let took = start.elapsed();
        assert_eq!(back.as_str().unwrap(), s);
        assert!(
            took < std::time::Duration::from_secs(5),
            "1 MiB string took {took:?}"
        );
    }

    /// The byte-wise scan [`plain_run_len`] must agree with.
    fn bytewise_run_len(bytes: &[u8]) -> Option<usize> {
        bytes
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    }

    /// A lone `"` or `\` at every offset across three blocks and a
    /// tail, flanked by bytes ≥ 0x80 (including each delimiter with its
    /// top bit set) inside a multi-byte UTF-8 run.
    #[test]
    fn plain_run_scan_finds_a_delimiter_at_every_offset() {
        let run = "é€\u{10348}".repeat(12);
        for at in 0..100 {
            for delimiter in [b'"', b'\\'] {
                for flank in [0x80, 0xa2, 0xdc, 0xff] {
                    let mut bytes = run.as_bytes()[..at].to_vec();
                    bytes.extend([delimiter, flank, delimiter]);
                    if let Some(before) = at.checked_sub(1) {
                        bytes[before] = flank;
                    }
                    assert_eq!(plain_run_len(&bytes), Some(at), "{bytes:x?}");
                    assert_eq!(plain_run_len(&bytes[..at]), None, "{bytes:x?}");
                }
            }
        }
    }

    use proptest::prelude::*;

    /// Bytes next to the delimiters in value, or equal to them with the
    /// top bit set, that a wrong mask would confuse with them.
    const NEAR_MISSES: &[u8] = b"\"\\!#[]\x00\x7f\x80\xa2\xdc\xff";

    /// Characters that stress the string codec: both delimiters, every
    /// short escape, raw control characters, `/`, DEL and multi-byte
    /// UTF-8 of every width.
    const TRICKY: &[char] = &[
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '/',
        '\u{7f}',
        'a',
        'é',
        '€',
        '\u{10348}',
        '\u{fffd}',
    ];

    /// Bytes JSON's grammar reacts to, so random soup gets past the
    /// first byte and into every parser state.
    const SOUP: &[u8] =
        b"{}[]\",:\\ \t\n0123456789.eE+-tfnrulsabu\x00\x1f\x7f\xc3\xa9\xe2\x82\xac\xff";

    proptest! {
        /// The block-at-a-time scan returns exactly the byte-wise
        /// position on arbitrary bytes, on bytes drawn mostly from the
        /// delimiters' near misses, and on multi-byte UTF-8 text with a
        /// delimiter spliced in at any offset up to 99.
        #[test]
        fn plain_run_scan_matches_the_bytewise_scan(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
            near in proptest::collection::vec(0usize..NEAR_MISSES.len() * 4, 0..160),
            text in proptest::collection::vec(0u32..0x11_0000, 0..40),
            at in 0usize..100,
        ) {
            let near: Vec<u8> = near
                .iter()
                .map(|&i| NEAR_MISSES.get(i).copied().unwrap_or(b'a'))
                .collect();
            let text: String = text.iter().map(|&c| char::from_u32(c).unwrap_or('é')).collect();
            let mut spliced = text.into_bytes();
            let at = at.min(spliced.len());
            spliced.insert(at, if at % 2 == 0 { b'"' } else { b'\\' });
            for input in [&bytes, &near, &spliced] {
                prop_assert_eq!(plain_run_len(input), bytewise_run_len(input));
            }
        }

        /// Arbitrary bytes (lossily decoded, as a reader of an
        /// arbitrary file would) never panic the parser or the
        /// building-nothing [`check`], which accept the same inputs;
        /// anything accepted renders and re-parses to the same value.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let text = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(check(&text).is_ok(), parse(&text).is_ok());
            if let Ok(v) = parse(&text) {
                prop_assert_eq!(parse(&v.render().unwrap()), Ok(v));
            }
        }

        /// The same, over bytes drawn from the grammar's own alphabet.
        #[test]
        fn json_token_soup_never_panics(picks in proptest::collection::vec(0usize..SOUP.len(), 0..256)) {
            let bytes: Vec<u8> = picks.iter().map(|&i| SOUP[i]).collect();
            let text = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(check(&text).is_ok(), parse(&text).is_ok());
            if let Ok(v) = parse(&text) {
                prop_assert_eq!(parse(&v.render().unwrap()), Ok(v));
            }
        }

        /// Strings mixing escapes, control characters and multi-byte
        /// UTF-8 right next to `"` and `\` survive a render/parse round
        /// trip, as values and as object keys, and render with no raw
        /// control characters.
        #[test]
        fn tricky_strings_round_trip(picks in proptest::collection::vec((0usize..=TRICKY.len(), 0u32..0x11_0000), 0..64)) {
            let s: String = picks
                .iter()
                .map(|&(i, code)| match TRICKY.get(i) {
                    Some(&c) => c,
                    None => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect();
            let v = Value::Obj(BTreeMap::from([(s.clone(), Value::Str(s))]));
            let text = v.render().unwrap();
            prop_assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
            prop_assert_eq!(parse(&text), Ok(v));
        }
    }
}
