//! A small hand-rolled Rust lexer: comment-, string- and
//! raw-string-aware, just enough structure to find string literals in
//! non-test code.
//!
//! The lexer does not aim to be a full Rust front end. It produces a
//! flat token stream with line numbers, correctly skipping over the
//! places where a quote or a keyword could appear without meaning
//! anything: line/block comments (including nested block comments),
//! string literals (plain, byte, raw with arbitrary `#` fences), and
//! char literals. A `"|frag"` inside a doc comment, or a `#` fence
//! inside a raw string, never desynchronises the stream.

/// Token classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers, `r#type`).
    Ident,
    /// Lifetime, e.g. `'a` (the full lexeme, quote included).
    Lifetime,
    /// String literal: plain `"…"` or byte `b"…"`, escapes intact.
    Str,
    /// Raw string literal: `r"…"`, `r#"…"#`, `br#"…"#` with any fence.
    RawStr,
    /// Char or byte-char literal, e.g. `'x'`, `b'\n'`.
    Char,
    /// Numeric literal (integers, floats, with suffixes).
    Num,
    /// `// …` comment, text includes the slashes (doc comments too).
    LineComment,
    /// `/* … */` comment, nesting folded into one token.
    BlockComment,
    /// Single punctuation character (`{`, `}`, `!`, `.`, …).
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The full lexeme as it appears in the source.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// For `Str`/`RawStr` tokens: the literal's inner content with the
    /// quote/fence syntax stripped (escape sequences left as written).
    pub fn str_content(&self) -> &str {
        let mut s = self.text.as_str();
        // Strip prefixes: b, r, br (in that lexical order).
        s = s.strip_prefix('b').unwrap_or(s);
        s = s.strip_prefix('r').unwrap_or(s);
        let s = s.trim_matches('#');
        s.strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .unwrap_or(s)
    }

    /// True when this is a single-character punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when this is an identifier token equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a flat token stream. Never fails: unterminated
/// constructs are closed at end of input (scanning runs on whatever
/// was recognised, and rustc reports the real error).
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.toks.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(String::new(), line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string("b".into(), line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_lit("b".into(), line);
                }
                'b' if self.peek(1) == Some('r')
                    && matches!(self.peek(2), Some('"') | Some('#')) =>
                {
                    self.bump();
                    self.bump();
                    self.raw_string("br".into(), line);
                }
                'r' if matches!(self.peek(1), Some('"')) => {
                    self.bump();
                    self.raw_string("r".into(), line);
                }
                'r' if self.peek(1) == Some('#') => {
                    // Either a raw string fence `r#"…"#` or a raw
                    // identifier `r#type`.
                    let mut k = 1;
                    while self.peek(k) == Some('#') {
                        k += 1;
                    }
                    if self.peek(k) == Some('"') {
                        self.bump();
                        self.raw_string("r".into(), line);
                    } else {
                        // Raw identifier.
                        self.bump();
                        self.bump();
                        self.ident("r#".into(), line);
                    }
                }
                '\'' => self.quote(line),
                _ if is_ident_start(c) => self.ident(String::new(), line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.toks
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, text, line);
    }

    fn string(&mut self, mut text: String, line: u32) {
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '"' {
                break;
            }
        }
        self.push(TokKind::Str, text, line);
    }

    fn raw_string(&mut self, mut text: String, line: u32) {
        // Positioned at the first `#` or the `"`.
        let mut fence = 0usize;
        while self.peek(0) == Some('#') {
            fence += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                // Need `fence` hashes to close.
                for k in 0..fence {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..fence {
                    text.push('#');
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::RawStr, text, line);
    }

    fn char_lit(&mut self, mut text: String, line: u32) {
        text.push('\'');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            if c == '\\' {
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == '\'' {
                break;
            }
        }
        self.push(TokKind::Char, text, line);
    }

    /// Disambiguate `'a'` (char) from `'a` (lifetime) from `'\n'` (char).
    fn quote(&mut self, line: u32) {
        match self.peek(1) {
            Some('\\') => self.char_lit(String::new(), line),
            Some(c) if is_ident_start(c) => {
                // Scan the identifier after the quote; a closing quote
                // right after makes it a char literal like 'a'.
                let mut k = 2;
                while self.peek(k).map(is_ident_continue).unwrap_or(false) {
                    k += 1;
                }
                if self.peek(k) == Some('\'') && k == 2 {
                    self.char_lit(String::new(), line);
                } else {
                    let mut text = String::from("'");
                    self.bump();
                    while self.peek(0).map(is_ident_continue).unwrap_or(false) {
                        text.push(self.bump().unwrap_or('\0'));
                    }
                    self.push(TokKind::Lifetime, text, line);
                }
            }
            _ => self.char_lit(String::new(), line),
        }
    }

    fn ident(&mut self, mut text: String, line: u32) {
        while self.peek(0).map(is_ident_continue).unwrap_or(false) {
            text.push(self.bump().unwrap_or('\0'));
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while self.peek(0).map(is_ident_continue).unwrap_or(false) {
            text.push(self.bump().unwrap_or('\0'));
        }
        // Consume a decimal point only when a digit follows, so range
        // expressions like `0..n` stay punctuation.
        if self.peek(0) == Some('.') && self.peek(1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
            text.push('.');
            self.bump();
            while self.peek(0).map(is_ident_continue).unwrap_or(false) {
                text.push(self.bump().unwrap_or('\0'));
            }
        }
        self.push(TokKind::Num, text, line);
    }
}

/// Per-token mask marking tokens inside test-only regions:
/// items under a `#[test]`-bearing attribute (`#[cfg(test)] mod`,
/// `#[test] fn`, `#[cfg(all(test, …))]`, …), from the item's opening
/// brace to its matching close. Comments are never marked.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut depth: i64 = 0;
    // Stack of brace depths at which a test item opened.
    let mut open_at: Vec<i64> = Vec::new();
    let mut pending_test = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            i += 1;
            continue;
        }
        if !open_at.is_empty() {
            mask[i] = true;
        }
        if t.is_punct('#') {
            // Attribute: `#[…]` or `#![…]`. Scan its bracket group for
            // the `test` identifier.
            let mut j = i + 1;
            if toks.get(j).map(|t| t.is_punct('!')).unwrap_or(false) {
                j += 1;
            }
            if toks.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                let mut bd = 0i64;
                let mut saw_test = false;
                let mut k = j;
                while let Some(tk) = toks.get(k) {
                    if tk.is_punct('[') {
                        bd += 1;
                    } else if tk.is_punct(']') {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    } else if tk.is_ident("test") {
                        saw_test = true;
                    }
                    k += 1;
                }
                if saw_test {
                    pending_test = true;
                    // Mark the attribute tokens themselves.
                    for m in mask.iter_mut().take(k + 1).skip(i) {
                        *m = true;
                    }
                }
                i = k + 1;
                continue;
            }
        }
        if t.is_punct('{') {
            if pending_test {
                open_at.push(depth);
                pending_test = false;
                mask[i] = true;
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if open_at.last() == Some(&depth) {
                mask[i] = true;
                open_at.pop();
            }
        } else if t.is_punct(';') && open_at.is_empty() {
            // `#[cfg(test)] mod tests;` or an attribute on a
            // brace-less item: nothing to mark beyond the item itself.
            pending_test = false;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let t = kinds("let x = y.unwrap();");
        assert_eq!(t[0], (TokKind::Ident, "let".into()));
        assert_eq!(t[1], (TokKind::Ident, "x".into()));
        assert_eq!(t[2], (TokKind::Punct, "=".into()));
        assert!(t.iter().any(|(k, s)| *k == TokKind::Ident && s == "unwrap"));
    }

    #[test]
    fn line_comment_hides_idents() {
        let t = lex("// HashMap lives here\nlet a = 1;");
        assert_eq!(t[0].kind, TokKind::LineComment);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        assert_eq!(t[1].line, 2);
    }

    #[test]
    fn doc_comment_is_a_comment() {
        // The real sim-cmp source says "Instantaneous" in a doc
        // comment; neither it nor a literal `Instant` in prose may
        // surface as an identifier token.
        let t = lex("/// Instant gratification, Instantaneous.\nfn f() {}");
        assert!(!t.iter().any(|t| t.is_ident("Instant")));
    }

    #[test]
    fn nested_block_comments_fold() {
        let t = lex("/* outer /* inner HashMap */ still comment */ fn f() {}");
        assert_eq!(t[0].kind, TokKind::BlockComment);
        assert!(t[0].text.contains("inner HashMap"));
        assert!(t.iter().any(|t| t.is_ident("fn")));
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn string_hides_idents_and_tracks_escapes() {
        let t = lex(r#"let s = "HashMap \" still a string"; let x = 1;"#);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        let s = t.iter().find(|t| t.kind == TokKind::Str).expect("str tok");
        assert!(s.str_content().contains("still a string"));
    }

    #[test]
    fn raw_string_with_hashmap_inside() {
        let t = lex(r###"let s = r#"use std::collections::HashMap;"#;"###);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        let s = t
            .iter()
            .find(|t| t.kind == TokKind::RawStr)
            .expect("raw str tok");
        assert!(s.str_content().contains("HashMap"));
    }

    #[test]
    fn raw_string_fence_with_inner_quote() {
        let t = lex(r####"r##"a "# b"## trailing"####);
        assert_eq!(t[0].kind, TokKind::RawStr);
        assert_eq!(t[0].str_content(), r##"a "# b"##);
        assert!(t.iter().any(|t| t.is_ident("trailing")));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let t = lex(r###"let a = b"HashMap"; let b = br#"HashSet"#;"###);
        assert!(!t.iter().any(|t| t.is_ident("HashMap")));
        assert!(!t.iter().any(|t| t.is_ident("HashSet")));
        assert_eq!(
            t.iter().filter(|t| t.kind == TokKind::Str).count()
                + t.iter().filter(|t| t.kind == TokKind::RawStr).count(),
            2
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(t.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(t.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_identifier() {
        let t = lex("let r#type = 1;");
        assert!(t
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "r#type"));
    }

    #[test]
    fn numbers_and_ranges() {
        let t = kinds("for i in 0..10 { let f = 1.5e3; let h = 0xFF_u8; }");
        assert!(t.contains(&(TokKind::Num, "0".into())));
        assert!(t.contains(&(TokKind::Num, "10".into())));
        assert!(t.contains(&(TokKind::Num, "1.5e3".into())));
        assert!(t.contains(&(TokKind::Num, "0xFF_u8".into())));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src =
            "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn more_lib() {}";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let ident_masked = |name: &str| {
            toks.iter()
                .zip(&mask)
                .find(|(t, _)| t.is_ident(name))
                .map(|(_, m)| *m)
        };
        assert_eq!(ident_masked("lib_code"), Some(false));
        assert_eq!(ident_masked("helper"), Some(true));
        assert_eq!(ident_masked("more_lib"), Some(false));
    }

    #[test]
    fn test_mask_covers_test_fn_only() {
        let src = "#[test]\nfn t() { body(); }\nfn lib() { other(); }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let masked = |name: &str| {
            toks.iter()
                .zip(&mask)
                .find(|(t, _)| t.is_ident(name))
                .map(|(_, m)| *m)
        };
        assert_eq!(masked("body"), Some(true));
        assert_eq!(masked("other"), Some(false));
    }

    #[test]
    fn test_mask_handles_cfg_all_test() {
        let src = "#[cfg(all(test, feature = \"obs\"))]\nmod t { fn inner() {} }";
        let toks = lex(src);
        let mask = test_mask(&toks);
        let inner = toks
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.is_ident("inner"))
            .map(|(_, m)| *m);
        assert_eq!(inner, Some(true));
    }

    #[test]
    fn unterminated_string_does_not_hang() {
        let t = lex("let s = \"unterminated");
        assert!(t.iter().any(|t| t.kind == TokKind::Str));
    }
}
