//! A lightweight Rust lexer — just enough fidelity for lint-grade analysis.
//!
//! The lints in this crate only need a *token stream* with comments and
//! string contents stripped out: a `HashMap` mentioned in a doc comment or a
//! format string must not trip the determinism lints, and an `unwrap` inside
//! a raw string is not a panic site. Getting that right requires handling
//! the genuinely tricky corners of Rust's lexical grammar:
//!
//! * line and block comments, the latter with **nesting** (`/* /* */ */`);
//! * string literals with escapes, including escaped quotes;
//! * **raw strings** `r"…"` / `r#"…"#` with any number of hashes (and the
//!   `br#"…"#` byte forms), whose bodies may contain `//` and `"` freely;
//! * the `'a` **lifetime** vs `'x'` **char literal** ambiguity (`'a'` is a
//!   char, `<'a>` is a lifetime, `'_'` is a char, `'_` is a lifetime);
//! * raw identifiers (`r#type`) vs raw strings (`r#"…"#`).
//!
//! Comments are preserved out-of-band (with their line numbers) so the
//! driver can honor `// lml-analyze: allow(<lint>)` waivers.

/// One lexed token. Line numbers are 1-based.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (raw identifiers are folded in, sans `r#`).
    Ident(String),
    /// A lifetime such as `'a` or `'static` (the tick and name).
    Lifetime,
    /// A char or byte literal: `'x'`, `'\n'`, `b'\0'`.
    CharLit,
    /// A string literal of any flavor; the payload is the (approximately
    /// unescaped) contents, which the schema extractor reads.
    StrLit(String),
    /// An integer or float literal.
    NumLit { float: bool },
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// Any other single punctuation character.
    Punct(char),
}

/// A comment (line `//…` or block `/*…*/`), kept for waiver parsing.
/// `line` is the line the comment *starts* on.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    pub line: u32,
    pub text: String,
}

/// Output of [`lex`]: the token stream plus the stripped comments.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into tokens and comments. The lexer never fails: malformed
/// input (unterminated strings, stray quotes) degrades to a best-effort
/// token stream, which is the right behavior for a linter that must not
/// crash on the code it is judging.
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0);
        if c == Some('\n') {
            self.line += 1;
        }
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        self.out.tokens.push(Token { kind, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => {
                    let v = self.string_body();
                    self.push(TokenKind::StrLit(v), line);
                }
                '\'' => self.tick(),
                '=' if self.peek(1) == Some('=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::EqEq, line);
                }
                '!' if self.peek(1) == Some('=') => {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::Ne, line);
                }
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed(),
                other => {
                    self.bump();
                    self.push(TokenKind::Punct(other), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { line, text });
    }

    /// Block comment with nesting, per the Rust reference.
    fn block_comment(&mut self) {
        let line = self.line;
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
        self.out.comments.push(Comment { line, text });
    }

    /// A `"…"` body with escapes; the opening quote is at `self.i`.
    /// Returns the approximately-unescaped contents (exact for the simple
    /// escapes that appear in JSON field names; other escapes are kept
    /// verbatim, which is fine for lint purposes).
    fn string_body(&mut self) -> String {
        let mut v = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    match self.bump() {
                        Some('"') => v.push('"'),
                        Some('\\') => v.push('\\'),
                        Some('n') => v.push('\n'),
                        Some('t') => v.push('\t'),
                        Some(other) => {
                            v.push('\\');
                            v.push(other);
                        }
                        None => break,
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                c => {
                    v.push(c);
                    self.bump();
                }
            }
        }
        v
    }

    /// A raw string starting at `r`/`br` with `hashes` hashes already
    /// counted; `self.i` sits on the opening `"`. Body ends at `"` followed
    /// by the same number of hashes — embedded `//`, `"`, and newlines are
    /// all literal.
    fn raw_string_body(&mut self, hashes: usize) -> String {
        let mut v = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break;
                }
            }
            v.push(c);
            self.bump();
        }
        v
    }

    /// Disambiguate `'` into a char literal or a lifetime.
    fn tick(&mut self) {
        let line = self.line;
        match self.peek(1) {
            // `'\n'`, `'\''` — an escape is always a char literal.
            Some('\\') => {
                self.bump(); // '
                self.bump(); // backslash
                self.bump(); // escaped char
                             // Consume up to the closing quote (handles `'\u{1F600}'`).
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::CharLit, line);
            }
            // `'a'` is a char, `'a`/`'static`/`'_` are lifetimes: read the
            // identifier run and check for a closing quote.
            Some(c) if is_ident_continue(c) => {
                let mut j = 1;
                while self.peek(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                if self.peek(j) == Some('\'') {
                    for _ in 0..=j {
                        self.bump();
                    }
                    self.push(TokenKind::CharLit, line);
                } else {
                    for _ in 0..j {
                        self.bump();
                    }
                    self.push(TokenKind::Lifetime, line);
                }
            }
            // `'('`, `' '`, `'"'` — a non-identifier char literal.
            Some(_) => {
                self.bump(); // '
                self.bump(); // the char
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::CharLit, line);
            }
            None => {
                self.bump();
                self.push(TokenKind::Punct('\''), line);
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        // A digit right after `.` is a tuple index (`x.0`, `x.0.1`): lex it
        // as a bare integer so `x.0.1` never fabricates a float literal.
        let after_dot = matches!(
            self.out.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Punct('.'))
        );
        let radix_prefix =
            self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b'));
        let mut float = false;
        if radix_prefix {
            self.bump();
            self.bump();
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.bump();
            }
            if !after_dot {
                if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                    float = true;
                    self.bump();
                    while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
                // `1e9`, `1.5e-3`
                if matches!(self.peek(0), Some('e') | Some('E'))
                    && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                        || (matches!(self.peek(1), Some('+') | Some('-'))
                            && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
                {
                    float = true;
                    self.bump();
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-' || c == '_')
                    {
                        self.bump();
                    }
                }
                // Type suffix: `1f64` is a float, `1u32` is not.
                let mut suffix = String::new();
                while self.peek(0).is_some_and(is_ident_continue) {
                    suffix.push(self.peek(0).expect("peeked above"));
                    self.bump();
                }
                if suffix == "f32" || suffix == "f64" {
                    float = true;
                }
            }
        }
        self.push(TokenKind::NumLit { float }, line);
    }

    /// An identifier, possibly a raw-string/byte-string/raw-ident prefix.
    fn ident_or_prefixed(&mut self) {
        let line = self.line;
        let c = self.peek(0).expect("caller checked");
        // r"…", r#"…"#, r#ident
        if c == 'r' {
            if self.peek(1) == Some('"') {
                self.bump();
                let v = self.string_raw(0);
                self.push(TokenKind::StrLit(v), line);
                return;
            }
            if self.peek(1) == Some('#') {
                let mut hashes = 0;
                while self.peek(1 + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(1 + hashes) == Some('"') {
                    self.bump(); // r
                    for _ in 0..hashes {
                        self.bump();
                    }
                    let v = self.raw_string_body(hashes);
                    self.push(TokenKind::StrLit(v), line);
                    return;
                }
                if hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
                    self.bump(); // r
                    self.bump(); // #
                    let name = self.ident_run();
                    self.push(TokenKind::Ident(name), line);
                    return;
                }
            }
        }
        // b"…", b'…', br"…", br#"…"#
        if c == 'b' {
            match self.peek(1) {
                Some('"') => {
                    self.bump();
                    let v = self.string_body();
                    self.push(TokenKind::StrLit(v), line);
                    return;
                }
                Some('\'') => {
                    self.bump();
                    self.tick();
                    return;
                }
                Some('r') if matches!(self.peek(2), Some('"') | Some('#')) => {
                    let mut hashes = 0;
                    while self.peek(2 + hashes) == Some('#') {
                        hashes += 1;
                    }
                    if self.peek(2 + hashes) == Some('"') {
                        self.bump(); // b
                        self.bump(); // r
                        for _ in 0..hashes {
                            self.bump();
                        }
                        let v = self.raw_string_body(hashes);
                        self.push(TokenKind::StrLit(v), line);
                        return;
                    }
                }
                _ => {}
            }
        }
        let name = self.ident_run();
        self.push(TokenKind::Ident(name), line);
    }

    /// `r"…"` with zero hashes; `self.i` sits on the `"`.
    fn string_raw(&mut self, hashes: usize) -> String {
        self.raw_string_body(hashes)
    }

    fn ident_run(&mut self) -> String {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            name.push(c);
            self.bump();
        }
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn nested_block_comments_are_stripped() {
        let l = lex("a /* x /* HashMap */ still comment */ b");
        assert_eq!(
            idents("a /* x /* HashMap */ still comment */ b"),
            ["a", "b"]
        );
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn raw_strings_with_hashes_hide_their_contents() {
        // The `"#` inside must not close the r##-string.
        let src = r####"let x = r##"quote "# and // HashMap"##; y"####;
        assert_eq!(idents(src), ["let", "x", "y"]);
        let l = lex(src);
        let s = l
            .tokens
            .iter()
            .find_map(|t| match &t.kind {
                TokenKind::StrLit(v) => Some(v.clone()),
                _ => None,
            })
            .expect("one string literal");
        assert!(s.contains("HashMap"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::CharLit)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 1);
    }

    #[test]
    fn static_lifetime_is_not_the_static_keyword() {
        let l = lex("fn f(x: &'static str) {} static mut Y: u8 = 0;");
        let statics = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident("static".into()))
            .count();
        assert_eq!(statics, 1, "only the keyword, not the lifetime");
    }

    #[test]
    fn string_embedded_line_comment_is_not_a_comment() {
        let l = lex(r#"let url = "https://example.com"; // real comment"#);
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("real comment"));
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::StrLit(s) if s.contains("//"))));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let l = lex(r#"let s = "a\"b // not a comment\"c"; d"#);
        assert_eq!(l.comments.len(), 0);
        assert!(matches!(
            &l.tokens.iter().find(|t| matches!(t.kind, TokenKind::StrLit(_))).expect("str").kind,
            TokenKind::StrLit(s) if s == "a\"b // not a comment\"c"
        ));
    }

    #[test]
    fn raw_identifiers_fold_to_plain_idents() {
        assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
    }

    #[test]
    fn tuple_indexing_is_not_a_float() {
        let l = lex("x.0.1 == y");
        let floats = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::NumLit { float: true }))
            .count();
        assert_eq!(floats, 0);
    }

    #[test]
    fn float_literals_and_suffixes() {
        let one = |src: &str| {
            let l = lex(src);
            assert_eq!(l.tokens.len(), 1, "{src}");
            matches!(l.tokens[0].kind, TokenKind::NumLit { float: true })
        };
        assert!(one("1.5"));
        assert!(one("1e9"));
        assert!(one("2.5e-3"));
        assert!(one("1f64"));
        assert!(!one("1u32"));
        assert!(!one("0xFF"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\n/* c\nc */\nlet b = 1;";
        let l = lex(src);
        let b_line = l
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Ident("b".into()))
            .expect("b")
            .line;
        assert_eq!(b_line, 5);
    }
}
