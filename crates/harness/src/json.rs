//! A minimal streaming JSON reader and writer.
//!
//! The build environment has no `serde_json`, so the result store
//! carries its own codec: one pull reader, [`JsonReader`], and one writer,
//! [`JsonWriter`], that mirrors it. The typed codecs of [`crate::codec`]
//! read straight from the one into their structs and write straight
//! from their structs into the other; no value tree sits between. Three
//! properties matter here and are tested:
//!
//! * **float fidelity** — `f64`s are written with Rust's shortest
//!   round-trip formatting (`{x:?}`, so integers come out as
//!   `3827149.0`) and read back bit-identically, so a cached
//!   [`snug_experiments::ComboResult`] compares `==` to a fresh run;
//! * **canonical objects** — a writer takes an object's members in
//!   ascending byte order of their names and refuses any other order,
//!   so the same result always produces the same bytes;
//! * **no panics on input** — malformed text is an error from whichever
//!   read meets it, and a non-finite number is a write error naming its
//!   member path.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A writer of one compact JSON document into a `String` — the one
/// JSON encoder, mirroring [`JsonReader`]. Each call writes one value:
/// [`JsonWriter::num`], [`JsonWriter::int`], [`JsonWriter::str`] and
/// `JsonWriter::bool` a scalar, [`JsonWriter::array`] one element per item,
/// and [`JsonWriter::object`] the members its body hands over, which must
/// come in ascending byte order of their names. A refused value — a
/// non-finite number, a member out of order — is an error naming its
/// path (`.ipcs[1]: NaN is not a finite JSON number`).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// The document written.
    pub fn finish(self) -> String {
        self.out
    }

    /// Write a boolean.
    pub(crate) fn bool(&mut self, b: bool) -> Result<(), JsonError> {
        self.out.push_str(if b { "true" } else { "false" });
        Ok(())
    }

    /// Write a number in Rust's shortest round-trip spelling, which
    /// reads back to the same bits. NaN and the infinities, which JSON
    /// cannot hold, are an error.
    pub fn num(&mut self, x: f64) -> Result<(), JsonError> {
        if !x.is_finite() {
            return Err(JsonError(format!("{x} is not a finite JSON number")));
        }
        let _ = write!(self.out, "{x:?}");
        Ok(())
    }

    /// Write an integer, spelled as the float it converts to
    /// (`3827149.0`): the form every stored integer has always had.
    /// Past 2^53 that float is no longer exact, and the store's reader
    /// refuses it, so such an integer is an error here too.
    pub fn int(&mut self, x: u64) -> Result<(), JsonError> {
        if x > MAX_EXACT_INT {
            return Err(JsonError(format!("{x} is not an integer in 0..=2^53")));
        }
        self.num(x as f64)
    }

    /// Write a quoted string, with `"`, `\` and every control
    /// character escaped.
    pub fn str(&mut self, s: &str) -> Result<(), JsonError> {
        write_str(s, &mut self.out);
        Ok(())
    }

    /// Write an array, handing each of `items` to `item`, which must
    /// write exactly one value for it.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.out.push('[');
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item(self, x).map_err(|e| at(format_args!("[{i}]"), e))?;
        }
        self.out.push(']');
        Ok(())
    }

    /// An array of numbers.
    pub(crate) fn nums(&mut self, xs: &[f64]) -> Result<(), JsonError> {
        self.array(xs, |w, &x| w.num(x))
    }

    /// An array of integers.
    pub(crate) fn ints(&mut self, xs: &[u64]) -> Result<(), JsonError> {
        self.array(xs, |w, &x| w.int(x))
    }

    /// Write an object whose members `body` hands to
    /// `Members::member`, in ascending byte order of their names.
    pub fn object<'n>(
        &mut self,
        body: impl FnOnce(&mut Members<'_, 'n>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.out.push('{');
        body(&mut Members {
            w: self,
            last: None,
        })?;
        self.out.push('}');
        Ok(())
    }
}

/// The members of one object being written by [`JsonWriter::object`].
pub struct Members<'w, 'n> {
    w: &'w mut JsonWriter,
    last: Option<&'n str>,
}

impl<'n> Members<'_, 'n> {
    /// Write the member `name`, whose value `value` writes. Names must
    /// strictly ascend in byte order — the sorted order every stored
    /// line has always had — so a member out of order, or repeated, is
    /// an error.
    pub fn member(
        &mut self,
        name: &'n str,
        value: impl FnOnce(&mut JsonWriter) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if let Some(last) = self.last {
            if name <= last {
                return Err(at(
                    format_args!(".{name}"),
                    JsonError(format!(
                        "written after `{last}`; members go in ascending byte order"
                    )),
                ));
            }
            self.w.out.push(',');
        }
        self.last = Some(name);
        write_str(name, &mut self.w.out);
        self.w.out.push(':');
        value(self.w).map_err(|e| at(format_args!(".{name}"), e))
    }
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

/// A read or write error, with a short human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// 2^53: every integer up to it is exactly an `f64`, so an integer
/// past it cannot round-trip through a JSON number.
pub(crate) const MAX_EXACT_INT: u64 = 1 << 53;

/// Deepest array/object nesting a [`JsonReader`] accepts. Store lines nest
/// a handful of levels; the cap turns a hostile `[[[[…` into an error
/// instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Check that `text` is one JSON document, building nothing.
pub(crate) fn check(text: &str) -> Result<(), JsonError> {
    let mut r = JsonReader::new(text);
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
/// string`; [`JsonWriter`]'s errors take the same form.
fn at(segment: std::fmt::Arguments<'_>, e: JsonError) -> JsonError {
    if e.0.starts_with(['.', '[']) {
        JsonError(format!("{segment}{}", e.0))
    } else {
        JsonError(format!("{segment}: {}", e.0))
    }
}

/// A streaming pull reader over one JSON document — the one tokenizer
/// behind the store's syntax check and the typed decoders of
/// [`JsonCodec`](crate::JsonCodec).
///
/// Each call consumes the next value: the typed readers ([`JsonReader::num`],
/// [`JsonReader::str`], …) fail with `expected K, got K'` on a well-formed
/// value of another kind, [`JsonReader::object`] and `JsonReader::array` hand
/// each member or element to a callback, and [`JsonReader::skip`] steps over
/// any value without allocating. Malformed input is an error from
/// whichever call meets it; nothing panics.
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
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
    pub(crate) fn bool(&mut self) -> Result<bool, JsonError> {
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
    /// must consume the member's value (or [`JsonReader::skip`] it).
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
    pub(crate) fn array(
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

    /// The byte offset of the next unread input.
    #[cfg(test)]
    pub(crate) fn offset(&self) -> usize {
        self.pos
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
    use std::collections::BTreeMap;

    /// One document, written by `write`.
    fn written(
        write: impl FnOnce(&mut JsonWriter) -> Result<(), JsonError>,
    ) -> Result<String, JsonError> {
        let mut w = JsonWriter::default();
        write(&mut w)?;
        Ok(w.finish())
    }

    /// `text` read as one document by `read`.
    fn read<'a, T>(
        text: &'a str,
        read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut r = JsonReader::new(text);
        let v = read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Write the reader's next value back through a [`JsonWriter`], keeping
    /// everything as a decoder would: the last of a repeated member, and
    /// an object's members in sorted order.
    fn transcribe(r: &mut JsonReader<'_>, w: &mut JsonWriter) -> Result<(), JsonError> {
        let raw = |w: &mut JsonWriter, text: &str| {
            w.out.push_str(text);
            Ok(())
        };
        match r.peek()? {
            Kind::Null => r.null().and_then(|()| raw(w, "null")),
            Kind::Bool => w.bool(r.bool()?),
            Kind::Num => w.num(r.num()?),
            Kind::Str => w.str(&r.str()?),
            Kind::Arr => {
                let mut items = Vec::new();
                r.array(|r| {
                    items.push(written(|w| transcribe(r, w))?);
                    Ok(())
                })?;
                w.array(&items, |w, item| raw(w, item))
            }
            Kind::Obj => {
                let mut members = BTreeMap::new();
                r.object(|r, name| {
                    members.insert(name.to_string(), written(|w| transcribe(r, w))?);
                    Ok(())
                })?;
                w.object(|o| {
                    for (name, value) in &members {
                        o.member(name, |w| raw(w, value))?;
                    }
                    Ok(())
                })
            }
        }
    }

    /// `text` read and written back ([`transcribe`]).
    fn rewritten(text: &str) -> Result<String, JsonError> {
        read(text, |r| written(|w| transcribe(r, w)))
    }

    /// Every kind of value writes in its one spelling — integers as the
    /// floats they convert to — and reads back to the same text.
    #[test]
    fn scalar_round_trips() {
        let text = written(|w| {
            w.array(0..8, |w, i| match i {
                0 => w.bool(true),
                1 => w.bool(false),
                2 => w.num(1.5),
                3 => w.num(-3.25),
                4 => w.int(3_827_149),
                5 => w.str("hi\nthere"),
                6 => w.ints(&[]),
                _ => w.object(|_| Ok(())),
            })
        })
        .unwrap();
        assert_eq!(
            text,
            r#"[true,false,1.5,-3.25,3827149.0,"hi\nthere",[],{}]"#
        );
        assert_eq!(rewritten(&text), Ok(text));
    }

    #[test]
    fn non_finite_numbers_are_an_error_naming_their_path() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = written(|w| w.object(|o| o.member("ipcs", |w| w.nums(&[1.0, x]))));
            assert_eq!(
                err.unwrap_err().0,
                format!(".ipcs[1]: {x} is not a finite JSON number"),
                "{x}"
            );
        }
        // So is an integer past 2^53, which no float holds exactly.
        let text = written(|w| w.ints(&[MAX_EXACT_INT])).unwrap();
        assert_eq!(text, "[9007199254740992.0]");
        let err = written(|w| w.object(|o| o.member("cycles", |w| w.ints(&[MAX_EXACT_INT + 1]))));
        assert_eq!(
            err.unwrap_err().0,
            ".cycles[0]: 9007199254740993 is not an integer in 0..=2^53"
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -0.0, 1e-308, 123456789.1234568] {
            let text = written(|w| w.num(x)).unwrap();
            let back = read(&text, JsonReader::num).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    /// Members written in ascending byte order read back; one out of
    /// order, or repeated, is an error naming its path.
    #[test]
    fn objects_render_sorted_and_reparse() {
        let text = written(|w| {
            w.object(|o| {
                o.member("alpha", |w| w.str("x"))?;
                o.member("mid", |w| w.array([true, false], JsonWriter::bool))?;
                o.member("mid_", |w| w.object(|_| Ok(())))?;
                o.member("zeta", |w| w.num(1.0))
            })
        })
        .unwrap();
        assert_eq!(
            text,
            r#"{"alpha":"x","mid":[true,false],"mid_":{},"zeta":1.0}"#
        );
        assert_eq!(rewritten(&text), Ok(text));
        for (first, then) in [("zeta", "alpha"), ("mid_", "mid"), ("a", "a"), ("é", "z")] {
            let err = written(|w| {
                w.object(|o| {
                    o.member("unit", |w| {
                        w.object(|o| {
                            o.member(first, |w| w.num(1.0))?;
                            o.member(then, |w| w.num(2.0))
                        })
                    })
                })
            });
            assert_eq!(
                err.unwrap_err().0,
                format!(
                    ".unit.{then}: written after `{first}`; members go in ascending byte order"
                )
            );
        }
    }

    #[test]
    fn string_escapes_survive() {
        let nasty = "quote\" slash\\ newline\n tab\t unicode\u{1}end";
        let text = written(|w| w.str(nasty)).unwrap();
        assert_eq!(read(&text, JsonReader::str).unwrap(), nasty);
    }

    #[test]
    fn errors_are_reported() {
        assert!(check("{\"a\":}").is_err());
        assert!(check("[1,2").is_err());
        assert!(check("1 2").is_err());
        assert_eq!(
            read("null", JsonReader::num).unwrap_err().0,
            "expected number, got null"
        );
        assert_eq!(
            read("[1]", JsonReader::str).unwrap_err().0,
            "expected string, got array"
        );
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999", "-1e999", "[1,1e400]"] {
            assert!(check(text).is_err(), "{text}");
        }
        assert_eq!(
            read("1e999", JsonReader::num).unwrap_err().0,
            "invalid number `1e999`"
        );
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(check(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(check(&deep).is_err());
        assert!(check(&"{\"a\":[".repeat(100_000)).is_err());
    }

    /// The reader hands out plain strings as slices of the input and
    /// decodes escaped ones; a value of the wrong kind is an error that
    /// names both kinds and the member or element it sits under.
    #[test]
    fn reader_borrows_plain_strings_and_names_mistyped_values() {
        let mut r = JsonReader::new(r#"["plain", "esc\"aped"]"#);
        let mut got = Vec::new();
        r.array(|r| {
            got.push(r.str()?);
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
        assert!(matches!(got[0], Cow::Borrowed("plain")));
        assert!(matches!(&got[1], Cow::Owned(s) if s == "esc\"aped"));

        let mut r = JsonReader::new(r#"{"a":[1,"x"]}"#);
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
            read(r#""\"\\\/\b\f\n\r\t\u0041\u00e9""#, JsonReader::str).unwrap(),
            "\"\\/\u{8}\u{c}\n\r\tAé"
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
        let text = written(|w| w.str(&s)).unwrap();
        let start = std::time::Instant::now();
        let back = read(&text, JsonReader::str).unwrap();
        let took = start.elapsed();
        assert_eq!(back, s);
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
        /// arbitrary file would) never panic the reader or the
        /// building-nothing [`check`], which accept the same inputs;
        /// anything accepted writes back to text that reads and writes
        /// back to itself.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let text = String::from_utf8_lossy(&bytes);
            let once = rewritten(&text);
            prop_assert_eq!(check(&text).is_ok(), once.is_ok());
            if let Ok(once) = once {
                prop_assert_eq!(rewritten(&once), Ok(once.clone()));
            }
        }

        /// The same, over bytes drawn from the grammar's own alphabet.
        #[test]
        fn json_token_soup_never_panics(picks in proptest::collection::vec(0usize..SOUP.len(), 0..256)) {
            let bytes: Vec<u8> = picks.iter().map(|&i| SOUP[i]).collect();
            let text = String::from_utf8_lossy(&bytes);
            let once = rewritten(&text);
            prop_assert_eq!(check(&text).is_ok(), once.is_ok());
            if let Ok(once) = once {
                prop_assert_eq!(rewritten(&once), Ok(once.clone()));
            }
        }

        /// Strings mixing escapes, control characters and multi-byte
        /// UTF-8 right next to `"` and `\` survive a write/read round
        /// trip, as values and as member names, and are written with no
        /// raw control characters.
        #[test]
        fn tricky_strings_round_trip(picks in proptest::collection::vec((0usize..=TRICKY.len(), 0u32..0x11_0000), 0..64)) {
            let s: String = picks
                .iter()
                .map(|&(i, code)| match TRICKY.get(i) {
                    Some(&c) => c,
                    None => char::from_u32(code).unwrap_or('\u{fffd}'),
                })
                .collect();
            let text = written(|w| w.object(|o| o.member(&s, |w| w.str(&s)))).unwrap();
            prop_assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
            let back = read(&text, |r| {
                let mut members = Vec::new();
                r.object(|r, name| {
                    members.push((name.to_string(), r.str()?.into_owned()));
                    Ok(())
                })?;
                Ok(members)
            });
            prop_assert_eq!(back, Ok(vec![(s.clone(), s)]));
        }
    }
}
