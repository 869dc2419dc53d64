//! Minimal deterministic JSON writer.
//!
//! The fleet's documents (`lml-fleet/metrics/v1`, `lml-fleet/trace/v1`
//! and the Chrome trace export) are written by this tiny hand-rolled
//! emitter: no serialization crate is vendored in this offline build.
//! Fields appear in insertion order, floats use Rust's shortest-roundtrip
//! formatting, and nothing iterates a `HashMap`, so two runs with the same
//! inputs produce byte-identical output.
//!
//! One buffer per document: [`document`] reserves one `String` to the
//! caller's upper bound and every nested object and array is written into
//! it in place — no element is rendered into a `String` of its own and
//! copied again. The bound is built from `object_bound` and
//! `quoted_bound` (keys plus the widest value rendering), so the buffer
//! never grows while a document is written; reserved pages that are never
//! touched cost no resident memory. Each document keeps its reserved bound,
//! and the key lists that build it, because growing one unreserved
//! `String` per document instead measured worse: `fleet_trace_observed`
//! `peak_rss_mb` 91.4 → 99.7 MB and median `wall_s` 2.10 → 2.28 s (2 vCPU,
//! 3 alternating pairs, seed 42). The schema-lock pass of `lml-analyze`
//! reads field names off the keyed calls of [`JsonObject`], so every key
//! is a string literal at the call site.

use std::fmt::Write as _;

/// Widest rendering of any one value [`object_bound`] allows for. That is
/// a finite `f64` under `{:?}`: a sign, 17 significant digits, the point
/// and a three-digit negative exponent (`-2.2250738585072014e-308`, 24
/// bytes). A `u64` takes at most 20, `null` 4, and a quoted name of at most
/// 22 bytes that needs no escaping 24.
const VALUE_MAX: usize = 24;

/// Upper bound on the rendered length of one object writing at most the
/// given keys, each once, when every value is a number, `null`, or a
/// quoted name of at most 22 plain bytes. A nested object or array, or a
/// longer string, adds its own bound on top.
pub(crate) fn object_bound(keys: &[&str]) -> usize {
    // `{}` plus, per member, `"key":`, the value and a separating comma.
    2 + keys.iter().map(|k| k.len() + 4 + VALUE_MAX).sum::<usize>()
}

/// Upper bound on the quoted, escaped rendering of `s`: no byte escapes to
/// more than six (`\u001f`).
pub(crate) fn quoted_bound(s: &str) -> usize {
    2 + 6 * s.len()
}

/// Render one JSON object into one `String` reserved to `bound` bytes.
/// `bound` must be an upper bound on the output (debug builds check it),
/// so the buffer is allocated once and never grows.
pub fn document(bound: usize, body: impl FnOnce(&mut JsonObject<'_>)) -> String {
    let mut out = String::with_capacity(bound);
    object(&mut out, body);
    debug_assert!(
        out.len() <= bound,
        "JSON bound {bound} is below the {} bytes written",
        out.len()
    );
    out
}

/// The members of one JSON object being written into a document buffer.
/// Keys must be plain field names that need no escaping (debug builds
/// check); string values are escaped.
#[derive(Debug)]
pub struct JsonObject<'a> {
    out: &'a mut String,
    any: bool,
}

/// The elements of one JSON array being written into a document buffer.
#[derive(Debug)]
pub struct JsonArray<'a> {
    out: &'a mut String,
    any: bool,
}

fn object(out: &mut String, body: impl FnOnce(&mut JsonObject<'_>)) {
    out.push('{');
    body(&mut JsonObject { out, any: false });
    out.push('}');
}

impl JsonObject<'_> {
    /// Write the separator and `"k":`, then hand back the buffer for the
    /// value. Keys are field-name literals, written without escaping.
    fn key(&mut self, k: &str) -> &mut String {
        debug_assert!(!needs_escape(k), "JSON key {k:?} needs escaping");
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\":");
        self.out
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        quote_into(self.key(k), v);
        self
    }

    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        // `{:?}` already yields `1.0`-style output that JSON accepts.
        let _ = write!(self.key(k), "{v:?}");
        self
    }

    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        push_u64(self.key(k), v);
        self
    }

    pub fn null(&mut self, k: &str) -> &mut Self {
        self.key(k).push_str("null");
        self
    }

    /// A nested object, written in place by `body`.
    pub fn object(&mut self, k: &str, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        object(self.key(k), body);
        self
    }

    /// A nested array, written in place by `body`.
    pub fn array(&mut self, k: &str, body: impl FnOnce(&mut JsonArray<'_>)) -> &mut Self {
        let out = self.key(k);
        out.push('[');
        body(&mut JsonArray { out, any: false });
        out.push(']');
        self
    }
}

impl JsonArray<'_> {
    /// Append one object element, written in place by `body`.
    pub fn object(&mut self, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        object(self.out, body);
        self
    }
}

/// Append `v` in decimal. The traces carry about a million integers per
/// replay, and this skips `fmt`'s padding and dynamic dispatch.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
        start -= 1;
        if v == 0 {
            break;
        }
    }
    // Every byte from `start` on is an ASCII digit: the conversion holds.
    let s = digits
        .get(start..)
        .and_then(|d| std::str::from_utf8(d).ok());
    out.push_str(s.unwrap_or_default());
}

fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// Quote and escape a JSON string value directly into `out`. A string
/// with nothing to escape — nearly every value — is copied with one
/// `push_str`.
fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    if needs_escape(s) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut JsonObject<'_>)) -> String {
        document(256, body)
    }

    #[test]
    fn builds_objects_in_insertion_order() {
        let j = doc(|o| {
            o.str("b", "x").u64("a", 3).f64("c", 1.5).null("d");
        });
        assert_eq!(j, r#"{"b":"x","a":3,"c":1.5,"d":null}"#);
    }

    #[test]
    fn nests_objects_and_arrays_in_place() {
        let j = doc(|o| {
            o.object("q", |q| {
                q.u64("n", 1);
            })
            .array("xs", |a| {
                for i in 1..=2 {
                    a.object(|e| {
                        e.u64("i", i);
                    });
                }
            })
            .array("none", |_| {})
            .object("empty", |_| {});
        });
        assert_eq!(
            j,
            r#"{"q":{"n":1},"xs":[{"i":1},{"i":2}],"none":[],"empty":{}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = doc(|o| {
            o.str("s", "a\"b\\c\n\t\r\u{1}é");
        });
        assert_eq!(j, r#"{"s":"a\"b\\c\n\t\r\u0001é"}"#);
        assert!(j.len() <= object_bound(&["s"]) + quoted_bound("a\"b\\c\n\t\r\u{1}é"));
    }

    #[test]
    fn floats_roundtrip() {
        let j = doc(|o| {
            o.f64("a", 1.0).f64("b", 0.1).f64("c", 123.456789012345);
        });
        assert_eq!(j, r#"{"a":1.0,"b":0.1,"c":123.456789012345}"#);
        assert_eq!("123.456789012345".parse(), Ok(123.456789012345));
    }

    #[test]
    fn value_max_bounds_every_f64_rendering() {
        let widest = -2.2250738585072014e-308_f64;
        assert_eq!(format!("{widest:?}").len(), VALUE_MAX, "the bound is tight");
        for v in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -0.0,
        ] {
            assert!(format!("{v:?}").len() <= VALUE_MAX, "{v:?}");
        }
        let mut rng = lml_sim::Pcg64::new(7);
        for _ in 0..100_000 {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                assert!(format!("{v:?}").len() <= VALUE_MAX, "{v:?}");
            }
        }
    }

    #[test]
    fn u64_renders_as_display_does() {
        let mut rng = lml_sim::Pcg64::new(11);
        let mut cases = vec![0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];
        cases.extend((0..1_000).map(|i| rng.next_u64() >> (i % 64)));
        for v in cases {
            assert_eq!(
                doc(|o| {
                    o.u64("v", v);
                }),
                format!(r#"{{"v":{v}}}"#)
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs escaping")]
    fn keys_needing_escapes_are_rejected() {
        doc(|o| {
            o.u64("a\"b", 1);
        });
    }

    #[test]
    #[should_panic]
    fn non_finite_rejected() {
        doc(|o| {
            o.f64("x", f64::NAN);
        });
    }
}
