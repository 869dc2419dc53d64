//! Panic-surface audit: a ratchet over `unwrap` / `expect` / `panic!` /
//! `[idx]` indexing.
//!
//! Every one of these is a crash waiting on an invariant. The audit does
//! not ban them — a simulator full of checked arithmetic would be
//! unreadable — it **inventories** them per crate and holds the counts to a
//! committed baseline (`crates/analyze/panic_budget.toml`) that can only
//! shrink: a PR that adds a panic site fails `--check` until the author
//! consciously raises the budget in review, and a PR that removes one gets
//! a nudge to ratchet the budget down (`--write-baseline`).
//!
//! Counting is token-level over the whole crate (tests included — a flaky
//! test panic costs CI time too) with comments and strings already
//! stripped, so a doc-example `unwrap()` does not count.

use crate::lexer::{Token, TokenKind};
use crate::lints::Finding;
use std::collections::BTreeMap;

/// Panic-site counts for one crate (or one file, before aggregation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PanicCounts {
    pub unwrap: u32,
    pub expect: u32,
    pub panic: u32,
    pub index: u32,
}

impl PanicCounts {
    pub fn add(&mut self, other: PanicCounts) {
        self.unwrap += other.unwrap;
        self.expect += other.expect;
        self.panic += other.panic;
        self.index += other.index;
    }

    fn fields(&self) -> [(&'static str, u32); 4] {
        [
            ("unwrap", self.unwrap),
            ("expect", self.expect),
            ("panic", self.panic),
            ("index", self.index),
        ]
    }
}

/// Count panic sites in one token stream.
///
/// * `unwrap` / `expect`: method position only (preceded by `.`), so a
///   local named `expect` or `unwrap_or_default` never counts.
/// * `panic`: the `panic!` macro.
/// * `index`: a `[` in postfix position (right after an identifier other
///   than the keywords `in` and `mut`, a `)`, or a `]`) — `v[i]`, `f()[0]`,
///   `m[k][j]` count; slice types `&[u8]` and `&mut [f64]`, array literals
///   `[0; 4]`, attributes `#[…]`, and `vec![…]` do not.
pub fn count(tokens: &[Token]) -> PanicCounts {
    let mut c = PanicCounts::default();
    for (i, t) in tokens.iter().enumerate() {
        let prev = i
            .checked_sub(1)
            .and_then(|p| tokens.get(p))
            .map(|t| &t.kind);
        let next = tokens.get(i + 1).map(|t| &t.kind);
        match &t.kind {
            TokenKind::Ident(s) if s == "unwrap" || s == "expect" => {
                let method = matches!(prev, Some(TokenKind::Punct('.')))
                    && matches!(next, Some(TokenKind::Punct('(')));
                if method {
                    if s == "unwrap" {
                        c.unwrap += 1;
                    } else {
                        c.expect += 1;
                    }
                }
            }
            TokenKind::Ident(s) if s == "panic" => {
                if matches!(next, Some(TokenKind::Punct('!'))) {
                    c.panic += 1;
                }
            }
            TokenKind::Punct('[') => {
                // `for x in [a, b]` iterates an array literal and `&mut [f64]`
                // is a slice type: `in` and `mut` are keywords, not the end
                // of an indexable expression.
                let postfix = match prev {
                    Some(TokenKind::Ident(s)) => s != "in" && s != "mut",
                    Some(TokenKind::Punct(p)) => matches!(p, ')' | ']'),
                    _ => false,
                };
                if postfix {
                    c.index += 1;
                }
            }
            _ => {}
        }
    }
    c
}

/// The committed ratchet baseline: crate name → budgeted counts.
///
/// Stored as a minimal TOML subset (`[section]` headers + `key = int`
/// lines + `#` comments), parsed by hand — this crate takes no
/// dependencies.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Budget {
    pub crates: BTreeMap<String, PanicCounts>,
}

impl Budget {
    pub fn parse(text: &str) -> Result<Budget, String> {
        let mut b = Budget::default();
        let mut section: Option<String> = None;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().trim_matches('"').to_string();
                b.crates.entry(name.clone()).or_default();
                section = Some(name);
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("panic_budget.toml:{}: expected `key = value`", n + 1))?;
            let section = section
                .as_ref()
                .ok_or_else(|| format!("panic_budget.toml:{}: entry before any [crate]", n + 1))?;
            let value: u32 = value
                .trim()
                .parse()
                .map_err(|_| format!("panic_budget.toml:{}: not an integer", n + 1))?;
            let entry = b
                .crates
                .get_mut(section)
                .expect("section inserted on header");
            match key.trim() {
                "unwrap" => entry.unwrap = value,
                "expect" => entry.expect = value,
                "panic" => entry.panic = value,
                "index" => entry.index = value,
                other => {
                    return Err(format!(
                        "panic_budget.toml:{}: unknown key `{other}`",
                        n + 1
                    ))
                }
            }
        }
        Ok(b)
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Panic-surface ratchet (generated by `lml-analyze --write-baseline`).\n\
             #\n\
             # Per-crate counts of `.unwrap()`, `.expect()`, `panic!`, and postfix\n\
             # `[idx]` indexing. `lml-analyze --check` fails if any count GROWS past\n\
             # its budget; when a count shrinks, regenerate this file so the ratchet\n\
             # only ever tightens.\n",
        );
        for (name, c) in &self.crates {
            out.push_str(&format!("\n[{name}]\n"));
            for (k, v) in c.fields() {
                out.push_str(&format!("{k} = {v}\n"));
            }
        }
        out
    }
}

/// Compare measured counts against the budget. Growth is gating; slack
/// (measured < budget) is an advisory nudge to re-ratchet; a crate missing
/// from the budget is gating (the inventory must stay complete).
pub fn check(
    measured: &BTreeMap<String, PanicCounts>,
    budget: &Budget,
    file: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (name, got) in measured {
        let Some(want) = budget.crates.get(name) else {
            out.push(Finding {
                file: file.to_string(),
                line: 0,
                lint: "panic-ratchet".into(),
                msg: format!(
                    "crate `{name}` has no panic budget entry — run `lml-analyze \
                     --write-baseline` and commit the result"
                ),
                gating: true,
            });
            continue;
        };
        for ((kind, g), (_, w)) in got.fields().into_iter().zip(want.fields()) {
            if g > w {
                out.push(Finding {
                    file: file.to_string(),
                    line: 0,
                    lint: "panic-ratchet".into(),
                    msg: format!(
                        "`{name}` {kind} count grew {w} -> {g}: the panic surface only \
                         ratchets down — remove the new site or consciously raise the \
                         budget in review"
                    ),
                    gating: true,
                });
            } else if g < w {
                out.push(Finding {
                    file: file.to_string(),
                    line: 0,
                    lint: "panic-ratchet".into(),
                    msg: format!(
                        "`{name}` {kind} count shrank {w} -> {g}: run `lml-analyze \
                         --write-baseline` to lock in the tighter budget"
                    ),
                    gating: false,
                });
            }
        }
    }
    for name in budget.crates.keys() {
        if !measured.contains_key(name) {
            out.push(Finding {
                file: file.to_string(),
                line: 0,
                lint: "panic-ratchet".into(),
                msg: format!(
                    "budget lists crate `{name}` which no longer exists — run \
                     `lml-analyze --write-baseline`"
                ),
                gating: false,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn counts_method_position_only() {
        let c = count(&lex("x.unwrap(); y.expect(\"m\"); unwrap_or(z); let expect = 1;").tokens);
        assert_eq!(c.unwrap, 1);
        assert_eq!(c.expect, 1);
    }

    #[test]
    fn counts_panic_macro_not_ident() {
        let c = count(&lex("panic!(\"boom\"); let panic = 3;").tokens);
        assert_eq!(c.panic, 1);
    }

    #[test]
    fn indexing_is_postfix_only() {
        let c = count(&lex("v[i] + f()[0] + m[k][j]").tokens);
        assert_eq!(c.index, 4);
        let src = "fn f(x: &[u8], y: &mut [f64]) -> [u8; 4] { #[inline] vec![0; 4]; for _ in [1, 2] {} [1, 2] }";
        let c = count(&lex(src).tokens);
        assert_eq!(c.index, 0, "types, attrs, macros, literals don't count");
    }

    #[test]
    fn doc_comment_unwrap_does_not_count() {
        let c = count(&lex("/// let x = y.unwrap();\nfn f() {}").tokens);
        assert_eq!(c.unwrap, 0);
    }

    #[test]
    fn budget_roundtrips() {
        let mut b = Budget::default();
        b.crates.insert(
            "lml-sim".into(),
            PanicCounts {
                unwrap: 1,
                expect: 2,
                panic: 3,
                index: 4,
            },
        );
        let parsed = Budget::parse(&b.render()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn growth_gates_shrink_advises() {
        let mut budget = Budget::default();
        budget.crates.insert(
            "a".into(),
            PanicCounts {
                unwrap: 2,
                ..Default::default()
            },
        );
        let mut measured = BTreeMap::new();
        measured.insert(
            "a".to_string(),
            PanicCounts {
                unwrap: 3,
                ..Default::default()
            },
        );
        let f = check(&measured, &budget, "panic_budget.toml");
        assert_eq!(f.len(), 1);
        assert!(f[0].gating);
        measured.insert(
            "a".to_string(),
            PanicCounts {
                unwrap: 1,
                ..Default::default()
            },
        );
        let f = check(&measured, &budget, "panic_budget.toml");
        assert_eq!(f.len(), 1);
        assert!(!f[0].gating);
    }

    #[test]
    fn missing_crate_gates() {
        let budget = Budget::default();
        let mut measured = BTreeMap::new();
        measured.insert("new-crate".to_string(), PanicCounts::default());
        let f = check(&measured, &budget, "panic_budget.toml");
        assert_eq!(f.len(), 1);
        assert!(f[0].gating);
    }
}
