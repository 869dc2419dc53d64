//! Schema-lock checker: the additive-only JSON rule, made mechanical.
//!
//! The sweep artifacts (`lml-fleet/metrics/v1`, `lml-fleet/trace/v1`) are
//! consumed by run-over-run diffs and committed baselines, so their schemas
//! are **additive-only** (docs/SCHEMAS.md): new fields may appear, existing
//! fields may never be removed or renamed. Until now that rule lived in
//! prose. This pass extracts every field name the hand-rolled emitters
//! actually write — the keyed `JsonObject` calls
//! (`.str/.u64/.f64/.null("field", …)` and the nested
//! `.object/.array("field", …)`) in `metrics.rs` / `observe.rs`, plus
//! key-taking helpers like `opt_f64(o, "field", …)` — and holds each
//! committed `schemas/<name>.lock` to be a **subset** of the extracted set:
//!
//! * a field in the lock but not in the source ⇒ gating error (something
//!   was removed or renamed);
//! * a field in the source but not in the lock ⇒ advisory (additive is
//!   legal; `--write-baseline` records it);
//! * a field in the source but not mentioned in docs/SCHEMAS.md ⇒ advisory
//!   drift report (the docs lag the code).

use crate::lexer::{Lexed, TokenKind};
use crate::lints::{test_mask, Finding};
use std::collections::BTreeSet;

/// One emitter file to extract fields from.
#[derive(Debug, Clone)]
pub struct Emitter {
    /// Lock name: `schemas/<name>.lock`.
    pub name: &'static str,
    /// Workspace-relative source path.
    pub file: &'static str,
    /// Free functions whose first string-literal argument is a field key.
    pub key_helpers: &'static [&'static str],
}

/// Extract the set of JSON field names emitted by one lexed file.
/// Test-gated code is skipped — fixture objects in `mod tests` are not part
/// of the schema.
pub(crate) fn extract_fields(lexed: &Lexed, key_helpers: &[&str]) -> BTreeSet<String> {
    // Every keyed method of `lml_fleet::json::JsonObject`.
    const BUILDER_METHODS: [&str; 6] = ["str", "u64", "f64", "null", "object", "array"];
    let tokens = &lexed.tokens;
    let mask = test_mask(tokens);
    let mut fields = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let TokenKind::Ident(name) = &t.kind else {
            continue;
        };
        let after_dot = matches!(
            i.checked_sub(1)
                .and_then(|p| tokens.get(p))
                .map(|t| &t.kind),
            Some(TokenKind::Punct('.'))
        );
        let builder = after_dot && BUILDER_METHODS.contains(&name.as_str());
        let helper = !after_dot && key_helpers.contains(&name.as_str());
        if !builder && !helper {
            continue;
        }
        if !matches!(
            tokens.get(i + 1).map(|t| &t.kind),
            Some(TokenKind::Punct('('))
        ) {
            continue;
        }
        if builder {
            // `.str("field", …)` — the key must be the literal first arg.
            if let Some(TokenKind::StrLit(s)) = tokens.get(i + 2).map(|t| &t.kind) {
                fields.insert(s.clone());
            }
        } else {
            // `opt_f64(o, "field", …)` — first string literal at call depth.
            let mut depth = 0i32;
            for tok in tokens.iter().skip(i + 1) {
                match &tok.kind {
                    TokenKind::Punct('(') => depth += 1,
                    TokenKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::StrLit(s) if depth == 1 => {
                        fields.insert(s.clone());
                        break;
                    }
                    _ => {}
                }
            }
        }
    }
    fields
}

/// Does the documentation mention `field` as a field name? Accepts the
/// notations docs/SCHEMAS.md actually uses: backticked (`` `field` ``),
/// quoted, or as a member of a `{a, b, c}` brace-group listing — i.e. the
/// name must open after a delimiter (`` ` `` `"` `{` `(` space/newline)
/// and close on a delimiter that ends a field mention (`` ` `` `"` `}`
/// `,` `:`), so `_s` inside `latency_s` or a prose word mid-sentence does
/// not count.
fn mentioned(docs: &str, field: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = docs[start..].find(field) {
        let at = start + pos;
        let prev = docs[..at].chars().next_back();
        let next = docs[at + field.len()..].chars().next();
        let prev_ok = matches!(prev, None | Some('`' | '"' | '{' | '(' | ' ' | '\n'));
        let next_ok = matches!(next, None | Some('`' | '"' | '}' | ',' | ':'));
        if prev_ok && next_ok {
            return true;
        }
        start = at + field.len();
    }
    false
}

/// Parse a `.lock` file: one field per line, `#` comments and blanks
/// ignored.
fn parse_lock(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Render a `.lock` file for the extracted field set.
pub(crate) fn render_lock(name: &str, file: &str, fields: &BTreeSet<String>) -> String {
    let mut out = format!(
        "# Schema lock `{name}` (generated by `lml-analyze --write-baseline`).\n\
         # Fields emitted by {file}. The additive-only contract is machine-\n\
         # enforced: `lml-analyze --check` fails if any field listed here stops\n\
         # being emitted. New fields are legal; regenerate to record them.\n"
    );
    for f in fields {
        out.push_str(f);
        out.push('\n');
    }
    out
}

/// Check one emitter against its lock and the human-readable schema docs.
pub fn check(
    emitter: &Emitter,
    extracted: &BTreeSet<String>,
    lock: Option<&str>,
    docs: Option<&str>,
) -> Vec<Finding> {
    let lock_path = format!("schemas/{}.lock", emitter.name);
    let mut out = Vec::new();
    let Some(lock) = lock else {
        out.push(Finding {
            file: lock_path,
            line: 0,
            lint: "schema-lock".into(),
            msg: format!(
                "missing lock for emitter `{}` ({}) — run `lml-analyze --write-baseline`",
                emitter.name, emitter.file
            ),
            gating: true,
        });
        return out;
    };
    let locked = parse_lock(lock);
    for field in &locked {
        if !extracted.contains(field) {
            out.push(Finding {
                file: lock_path.clone(),
                line: 0,
                lint: "schema-lock".into(),
                msg: format!(
                    "locked field `{field}` is no longer emitted by {} — the schema is \
                     additive-only; restore the field (or bump the schema version and \
                     regenerate the lock in review)",
                    emitter.file
                ),
                gating: true,
            });
        }
    }
    for field in extracted {
        if !locked.contains(field) {
            out.push(Finding {
                file: lock_path.clone(),
                line: 0,
                lint: "schema-lock".into(),
                msg: format!(
                    "new field `{field}` emitted by {} is not recorded — run \
                     `lml-analyze --write-baseline` (additive, non-breaking)",
                    emitter.file
                ),
                gating: false,
            });
        }
        if let Some(docs) = docs {
            if !mentioned(docs, field) {
                out.push(Finding {
                    file: "docs/SCHEMAS.md".into(),
                    line: 0,
                    lint: "schema-docs-drift".into(),
                    msg: format!(
                        "field `{field}` (emitted by {}) is not documented in \
                         docs/SCHEMAS.md",
                        emitter.file
                    ),
                    gating: false,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const EMITTER: Emitter = Emitter {
        name: "t",
        file: "t.rs",
        key_helpers: &["opt_f64"],
    };

    fn fields_of(src: &str) -> BTreeSet<String> {
        extract_fields(&lex(src), EMITTER.key_helpers)
    }

    #[test]
    fn extracts_builder_and_helper_keys() {
        let src = r#"
            fn to_json(&self) -> String {
                json::document(64, |o| {
                    o.str("schema", "v1")
                        .u64("jobs", 3)
                        .f64("cost_usd", self.cost)
                        .null("missing")
                        .object("nested", |o| {
                            o.u64("inner", 1);
                        })
                        .array("rows", |a| {
                            a.object(|o| {
                                o.f64("row_s", 2.0);
                            });
                        });
                    opt_f64(o, "laxity_s", self.laxity);
                })
            }
        "#;
        let got = fields_of(src);
        let want: BTreeSet<String> = [
            "schema", "jobs", "cost_usd", "missing", "nested", "inner", "rows", "row_s", "laxity_s",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn non_literal_keys_and_test_fixtures_are_skipped() {
        let src = r#"
            fn f(o: &mut JsonObject<'_>, k: &str) { o.f64(k, 1.0).array(k, |_| {}); }
            #[cfg(test)]
            mod tests {
                fn t() { json::document(8, |o| { o.str("fixture_only", "x"); }); }
            }
        "#;
        assert!(fields_of(src).is_empty());
    }

    #[test]
    fn removed_field_gates_new_field_advises() {
        let extracted = fields_of(r#"fn f() { o.str("kept", a).str("added", b); }"#);
        let lock = "# hdr\nkept\nremoved\n";
        let fs = check(&EMITTER, &extracted, Some(lock), None);
        let gating: Vec<_> = fs.iter().filter(|f| f.gating).collect();
        assert_eq!(gating.len(), 1);
        assert!(gating[0].msg.contains("`removed`"));
        let advisory: Vec<_> = fs.iter().filter(|f| !f.gating).collect();
        assert_eq!(advisory.len(), 1);
        assert!(advisory[0].msg.contains("`added`"));
    }

    #[test]
    fn missing_lock_gates() {
        let fs = check(&EMITTER, &BTreeSet::new(), None, None);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].gating);
    }

    #[test]
    fn docs_drift_is_advisory() {
        let extracted = fields_of(r#"fn f() { o.u64("documented", a).u64("mystery", b); }"#);
        let lock = "documented\nmystery\n";
        let docs = "The `documented` field is documented.";
        let fs = check(&EMITTER, &extracted, Some(lock), Some(docs));
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].gating);
        assert!(fs[0].msg.contains("`mystery`"));
    }
}
