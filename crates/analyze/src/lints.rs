//! Determinism lints over the lexed token stream.
//!
//! Every lint here guards a contract the sweep artifacts depend on (see
//! ARCHITECTURE.md "Static analysis"): byte-stable JSON requires that no
//! iteration order, wall-clock read, or float-equality branch can differ
//! between two same-seed runs. The lints are token-level by design — they
//! run in milliseconds, have no type information, and err on the side of
//! flagging; an inline `// lml-analyze: allow(<lint>)` waiver (same line or
//! the line above) records the justified exceptions in the source itself.

use crate::lexer::{Comment, Lexed, Token, TokenKind};
use std::collections::BTreeMap;

/// The lint names, as used in configs, waivers, and findings.
const HASH_COLLECTIONS: &str = "hash-collections";
const WALL_CLOCK: &str = "wall-clock";
const FLOAT_EQ: &str = "float-eq";
const STATIC_MUT: &str = "static-mut";
const THREADS: &str = "threads";

/// One reported problem. `gating` findings fail `--check`; the rest are
/// advisory.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub lint: String,
    pub msg: String,
    pub gating: bool,
}

impl Finding {
    pub fn render(&self) -> String {
        let sev = if self.gating { "error" } else { "note" };
        format!(
            "{sev}[{lint}] {file}:{line}: {msg}",
            lint = self.lint,
            file = self.file,
            line = self.line,
            msg = self.msg
        )
    }
}

/// Which determinism lints run on a given file.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LintOpts {
    pub hash_collections: bool,
    pub wall_clock: bool,
    pub float_eq: bool,
    pub static_mut: bool,
    pub threads: bool,
}

/// Inline waivers parsed from comments: lint name → lines that carry a
/// waiver comment. A waiver covers its own line and the line below it, so
/// both trailing and preceding-line placements work:
///
/// ```text
/// // lml-analyze: allow(wall-clock)
/// let t = Instant::now();            // covered (waiver on line above)
/// let u = Instant::now(); // lml-analyze: allow(wall-clock)  — covered
/// ```
///
/// `lml-analyze: allow-file(<lint>)` anywhere in the file waives the lint
/// for the whole file (used sparingly; prefer line waivers).
#[derive(Debug, Default)]
pub(crate) struct Waivers {
    lines: BTreeMap<String, Vec<u32>>,
    file_wide: Vec<String>,
}

impl Waivers {
    pub fn parse(comments: &[Comment]) -> Waivers {
        let mut w = Waivers::default();
        for c in comments {
            collect_waivers(&c.text, "lml-analyze: allow-file(", |name| {
                w.file_wide.push(name.to_string());
            });
            collect_waivers(&c.text, "lml-analyze: allow(", |name| {
                w.lines.entry(name.to_string()).or_default().push(c.line);
            });
        }
        w
    }

    pub fn covers(&self, lint: &str, line: u32) -> bool {
        if self.file_wide.iter().any(|l| l == lint) {
            return true;
        }
        self.lines
            .get(lint)
            .is_some_and(|ls| ls.iter().any(|&l| l == line || l + 1 == line))
    }
}

fn collect_waivers(text: &str, marker: &str, mut f: impl FnMut(&str)) {
    let mut rest = text;
    while let Some(pos) = rest.find(marker) {
        rest = &rest[pos + marker.len()..];
        if let Some(end) = rest.find(')') {
            for name in rest[..end].split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    f(name);
                }
            }
            rest = &rest[end..];
        }
    }
}

/// Mark the tokens that live inside `#[test]` / `#[cfg(test)]`-gated code.
///
/// Test code may legitimately compare floats exactly (the determinism tests
/// *assert* bit-equality) and probe wall clocks; it also never runs inside a
/// simulation, so the determinism lints skip it. The detection is
/// brace-tracking over the token stream: an attribute whose argument list
/// mentions `test` (and not `not`) arms the scanner, and the next
/// brace-delimited item body — or attribute-to-semicolon span — is marked.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut depth: i32 = 0;
    // Depth of the innermost test region's opening brace, if any.
    let mut test_at: Option<i32> = None;
    let mut armed = false;
    // Bracket/paren depth while armed, so `;` inside `[u8; 4]` or a
    // where-clause does not disarm early.
    let mut armed_nest: i32 = 0;
    let mut i = 0;
    while i < tokens.len() {
        let in_test = test_at.is_some();
        match &tokens[i].kind {
            TokenKind::Punct('#')
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('['))
                ) =>
            {
                // Scan the attribute to its matching `]`.
                let mut j = i + 1;
                let mut bdepth = 0i32;
                let mut has_test = false;
                let mut has_not = false;
                while j < tokens.len() {
                    match &tokens[j].kind {
                        TokenKind::Punct('[') => bdepth += 1,
                        TokenKind::Punct(']') => {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        TokenKind::Ident(s) if s == "test" => has_test = true,
                        TokenKind::Ident(s) if s == "not" => has_not = true,
                        _ => {}
                    }
                    j += 1;
                }
                if has_test && !has_not {
                    armed = true;
                    armed_nest = 0;
                }
                let end = j.min(tokens.len() - 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = in_test || armed;
                }
                i = j + 1;
                continue;
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if armed {
                    if test_at.is_none() {
                        test_at = Some(depth);
                    }
                    armed = false;
                }
            }
            TokenKind::Punct('}') => {
                if test_at == Some(depth) {
                    test_at = None;
                    mask[i] = true;
                    depth -= 1;
                    i += 1;
                    continue;
                }
                depth -= 1;
            }
            TokenKind::Punct('(') | TokenKind::Punct('[') if armed => armed_nest += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') if armed => armed_nest -= 1,
            // `#[cfg(test)] use foo;` — no body follows; disarm at the
            // statement end.
            TokenKind::Punct(';') if armed && armed_nest == 0 => armed = false,
            _ => {}
        }
        mask[i] = test_at.is_some() || armed || (in_test && test_at.is_some());
        i += 1;
    }
    mask
}

/// Run the determinism lints on one lexed file.
pub(crate) fn check_file(file: &str, lexed: &Lexed, opts: LintOpts) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let mask = test_mask(tokens);
    let waivers = Waivers::parse(&lexed.comments);
    let mut out = Vec::new();
    let mut report = |lint: &str, line: u32, msg: String| {
        if !waivers.covers(lint, line) {
            out.push(Finding {
                file: file.to_string(),
                line,
                lint: lint.to_string(),
                msg,
                gating: true,
            });
        }
    };
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue; // test-gated code is exempt from determinism lints
        }
        match &t.kind {
            TokenKind::Ident(s) if opts.hash_collections && (s == "HashMap" || s == "HashSet") => {
                report(
                    HASH_COLLECTIONS,
                    t.line,
                    format!(
                        "`{s}` in a determinism-critical crate: iteration order is \
                         nondeterministic across runs — use `BTreeMap`/`BTreeSet` or the \
                         interned dense tables (`lml_fleet::intern`)"
                    ),
                );
            }
            TokenKind::Ident(s) if opts.wall_clock && (s == "Instant" || s == "SystemTime") => {
                report(
                    WALL_CLOCK,
                    t.line,
                    format!(
                        "`{s}` in workspace code: simulation logic must read virtual \
                         `SimTime` only — wall clocks differ across runs"
                    ),
                );
            }
            TokenKind::EqEq | TokenKind::Ne if opts.float_eq => {
                let float_adjacent = |j: Option<&Token>| {
                    matches!(j.map(|t| &t.kind), Some(TokenKind::NumLit { float: true }))
                };
                if float_adjacent(i.checked_sub(1).and_then(|p| tokens.get(p)))
                    || float_adjacent(tokens.get(i + 1))
                {
                    let op = if t.kind == TokenKind::EqEq {
                        "=="
                    } else {
                        "!="
                    };
                    report(
                        FLOAT_EQ,
                        t.line,
                        format!(
                            "float literal compared with `{op}`: exact float equality is \
                             representation-sensitive — compare against an epsilon or \
                             restructure around an integer key"
                        ),
                    );
                }
            }
            TokenKind::Ident(s) if opts.threads && s == "thread" => {
                let path = (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3));
                if let (
                    Some(c1),
                    Some(c2),
                    Some(Token {
                        kind: TokenKind::Ident(f),
                        ..
                    }),
                ) = path
                {
                    let sep = c1.kind == TokenKind::Punct(':') && c2.kind == TokenKind::Punct(':');
                    if sep && matches!(f.as_str(), "spawn" | "scope" | "Builder") {
                        report(
                            THREADS,
                            t.line,
                            format!(
                                "`thread::{f}` outside `lml_sim::par`: fan work out with \
                                 `lml_sim::par::parallel_map`, which hands results back in item \
                                 order at any thread count"
                            ),
                        );
                    }
                }
            }
            TokenKind::Ident(s) if opts.static_mut && s == "static" => {
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Ident(m)) if m == "mut"
                ) {
                    report(
                        STATIC_MUT,
                        t.line,
                        "`static mut` is unsynchronized global state — use an atomic or a \
                         thread-local"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const ALL: LintOpts = LintOpts {
        hash_collections: true,
        wall_clock: true,
        float_eq: true,
        static_mut: true,
        threads: true,
    };

    fn lints_of(src: &str) -> Vec<String> {
        check_file("t.rs", &lex(src), ALL)
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn flags_each_violation_class() {
        assert_eq!(
            lints_of("use std::collections::HashMap;"),
            [HASH_COLLECTIONS]
        );
        assert_eq!(lints_of("let t = Instant::now();"), [WALL_CLOCK]);
        assert_eq!(lints_of("if x == 0.5 {}"), [FLOAT_EQ]);
        assert_eq!(lints_of("static mut X: u8 = 0;"), [STATIC_MUT]);
    }

    #[test]
    fn comments_and_strings_do_not_trip_lints() {
        assert!(lints_of("// HashMap Instant 1.0 == 2.0\nlet x = 1;").is_empty());
        assert!(lints_of(r#"let s = "HashMap and Instant::now()";"#).is_empty());
    }

    #[test]
    fn integer_equality_is_fine() {
        assert!(lints_of("if x == 5 {}").is_empty());
        assert!(lints_of("if name == \"faas\" {}").is_empty());
    }

    #[test]
    fn waiver_on_same_or_previous_line() {
        assert!(lints_of("let t = Instant::now(); // lml-analyze: allow(wall-clock)").is_empty());
        assert!(lints_of("// lml-analyze: allow(wall-clock)\nlet t = Instant::now();").is_empty());
        // Two lines below: no longer covered.
        assert_eq!(
            lints_of("// lml-analyze: allow(wall-clock)\nlet a = 1;\nlet t = Instant::now();"),
            [WALL_CLOCK]
        );
    }

    #[test]
    fn file_wide_waiver() {
        assert!(lints_of(
            "//! lml-analyze: allow-file(hash-collections)\nuse std::collections::HashMap;\n\
             fn f(m: &HashMap<u32, u32>) -> usize { m.len() }"
        )
        .is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    \
                   fn t() { let _ = Instant::now(); assert!(0.5 == 0.5); }\n}\n";
        assert!(lints_of(src).is_empty());
        // …but production code before the test mod is still checked.
        let src2 = format!("let t = Instant::now();\n{src}");
        assert_eq!(lints_of(&src2), [WALL_CLOCK]);
    }

    #[test]
    fn test_attr_fn_is_exempt_and_cfg_not_test_is_not() {
        let src = "#[test]\nfn t() { let _ = Instant::now(); }\n";
        assert!(lints_of(src).is_empty());
        let src2 = "#[cfg(not(test))]\nfn prod() { let _ = Instant::now(); }\n";
        assert_eq!(lints_of(src2), [WALL_CLOCK]);
    }

    #[test]
    fn threads_start_only_through_the_fan_out() {
        assert_eq!(lints_of("std::thread::spawn(|| ());"), [THREADS]);
        assert_eq!(lints_of("thread::scope(|s| {});"), [THREADS]);
        assert_eq!(lints_of("let b = thread::Builder::new();"), [THREADS]);
        // Spawning on a scope handle, reading the core count and a waiver
        // are not findings.
        assert!(lints_of("s.spawn(f); let n = thread::available_parallelism();").is_empty());
        assert!(lints_of("thread::scope(|s| {}); // lml-analyze: allow(threads)").is_empty());
    }

    #[test]
    fn static_lifetime_reference_is_not_static_mut() {
        assert!(lints_of("fn f(x: &'static mut u8) {}").is_empty());
    }
}
