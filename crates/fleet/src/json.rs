//! Minimal deterministic JSON writer.
//!
//! The fleet's documents (`lml-fleet/metrics/v1`, `lml-fleet/trace/v1`
//! and the Chrome trace export) are written by this tiny hand-rolled
//! emitter: no serialization crate is vendored in this offline build.
//! Fields appear in insertion order, floats are written exactly as `{:?}`
//! writes them, and nothing iterates a `HashMap`, so two runs with the
//! same inputs produce byte-identical output.
//!
//! Floats are the emitter's largest cost: a traced replay writes about
//! 774k of them per 47 MB trace. `push_f64` writes `{:?}`'s bytes from
//! Ryu's shortest round-trip digits (the `ryu` module) without going
//! through `fmt`: one keyed float of a million in `[0, 1e6)` took 69 ns
//! against `write!`'s 168 (2 vCPU). `{:?}` stays the specification: a
//! test compares the two byte for byte on over ten million values, every
//! exponent and the decimal/exponent switch points.
//!
//! One buffer per document: `document` reserves one `String` to the
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
//! reads field names off the keyed calls of `JsonObject`, so every key
//! is a string literal at the call site.

mod ryu;

use std::fmt::Write as _;

/// Widest rendering of any one value [`object_bound`] allows for. That is
/// a finite `f64` as [`push_f64`] (and `{:?}`) writes it: a sign, 17
/// significant digits, the point and a three-digit negative exponent
/// (`-2.2250738585072014e-308`, 24 bytes). A `u64` takes at most 20,
/// `null` 4, and a quoted name of at most 22 bytes that needs no escaping
/// 24.
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
pub(crate) fn document(bound: usize, body: impl FnOnce(&mut JsonObject<'_>)) -> String {
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
pub(crate) struct JsonObject<'a> {
    out: &'a mut String,
    any: bool,
}

/// The elements of one JSON array being written into a document buffer.
#[derive(Debug)]
pub(crate) struct JsonArray<'a> {
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

    pub(crate) fn str(&mut self, k: &str, v: &str) -> &mut Self {
        quote_into(self.key(k), v);
        self
    }

    pub(crate) fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
        // `{:?}`'s bytes (`1.0`, `1e16`, `2.5e-5`), which JSON accepts.
        push_f64(self.key(k), v);
        self
    }

    pub(crate) fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        push_u64(self.key(k), v);
        self
    }

    pub(crate) fn null(&mut self, k: &str) -> &mut Self {
        self.key(k).push_str("null");
        self
    }

    /// A nested object, written in place by `body`.
    pub(crate) fn object(&mut self, k: &str, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        object(self.key(k), body);
        self
    }

    /// A nested array, written in place by `body`.
    pub(crate) fn array(&mut self, k: &str, body: impl FnOnce(&mut JsonArray<'_>)) -> &mut Self {
        let out = self.key(k);
        out.push('[');
        body(&mut JsonArray { out, any: false });
        out.push(']');
        self
    }
}

impl JsonArray<'_> {
    /// Append one object element, written in place by `body`.
    pub(crate) fn object(&mut self, body: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        object(self.out, body);
        self
    }
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write `v` in decimal at the end of `buf`, two digits per division, and
/// return the digits. Twenty bytes hold `u64::MAX`.
fn decimal(buf: &mut [u8; 20], mut v: u64) -> &str {
    let mut start = buf.len();
    loop {
        if v < 10 {
            start -= 1;
            if let Some(d) = buf.get_mut(start) {
                *d = b'0' + v as u8;
            }
            break;
        }
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        start -= 2;
        if let (Some(d), Some(p)) = (
            buf.get_mut(start..start + 2),
            DIGIT_PAIRS.get(pair..pair + 2),
        ) {
            d.copy_from_slice(p);
        }
        if v == 0 {
            break;
        }
    }
    // Every byte from `start` on is an ASCII digit: the conversion holds.
    let digits = buf.get(start..).unwrap_or_default();
    std::str::from_utf8(digits).unwrap_or_default()
}

/// Append `v` in decimal. The traces carry about a million integers per
/// replay, and this skips `fmt`'s padding and dynamic dispatch.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    out.push_str(decimal(&mut [0; 20], v));
}

/// Append `v` exactly as `{v:?}` writes it, from [`ryu::shortest`]'s
/// digits: in decimal for `1e-4 ≤ |v| < 1e16`, with at least one
/// fractional digit (`1.0`); as `d.ddde-x` otherwise, with no `+` sign
/// (`1e16`); `-0.0` for negative zero. The non-finite values, which no
/// JSON document holds, and a table miss, which no `f64` hits, are
/// written by `{:?}` itself.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let magnitude = bits & !(1 << 63);
    let shortest = if magnitude == 0 {
        Some((0, 0))
    } else if v.is_finite() {
        ryu::shortest(magnitude)
    } else {
        None
    };
    let Some((digits, exp)) = shortest else {
        let _ = write!(out, "{v:?}");
        return;
    };
    if bits != magnitude {
        out.push('-');
    }
    let mut buf = [0; 20];
    let digits = decimal(&mut buf, digits);
    let len = digits.len() as i32;
    // `|v|` is `0.<digits> × 10^point`, so `1e-4 ≤ |v| < 1e16` is
    // `-3 ≤ point ≤ 16` (zero, with `point` 1, is in it too).
    let point = len + exp;
    let zeros = |n: i32| ZEROS.get(..n as usize).unwrap_or_default();
    if !(-3..=16).contains(&point) {
        let (first, rest) = digits.split_at(1);
        out.push_str(first);
        if !rest.is_empty() {
            out.push('.');
            out.push_str(rest);
        }
        out.push('e');
        if point < 1 {
            out.push('-');
        }
        push_u64(out, u64::from((point - 1).unsigned_abs()));
    } else if point <= 0 {
        out.push_str("0.");
        out.push_str(zeros(-point));
        out.push_str(digits);
    } else if point < len {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        out.push_str(zeros(point - len));
        out.push_str(".0");
    }
}

/// Enough zeros to pad any decimal rendering: at most 15 follow the
/// digits (`1e15` is `1000000000000000.0`), and at most 3 precede them.
const ZEROS: &str = "000000000000000";

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

    /// `v` as [`push_f64`] writes it.
    fn rendered(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    #[test]
    fn value_max_bounds_every_f64_rendering() {
        let widest = -2.2250738585072014e-308_f64;
        assert_eq!(rendered(widest).len(), VALUE_MAX, "the bound is tight");
        for v in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -0.0,
        ] {
            assert!(rendered(v).len() <= VALUE_MAX, "{v:?}");
        }
        let mut rng = lml_sim::Pcg64::new(7);
        for _ in 0..100_000 {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                assert!(rendered(v).len() <= VALUE_MAX, "{v:?}");
            }
        }
    }

    /// The specification of [`push_f64`] is `{:?}`: compare the two byte
    /// for byte on Pcg64 bit patterns and on the cases random bits rarely
    /// reach (every exponent, subnormals, integers, the decimal/exponent
    /// switch points and an exact rounding tie).
    #[test]
    fn f64_renders_as_debug_does() {
        // `…934.25` exactly: a tie between `…934.2` and `…934.3` that
        // `{:?}` rounds up where Ryu's paper rounds half to even.
        assert_eq!(
            rendered(f64::from_bits(0x4319_3655_6b38_b059)),
            "1774153729190934.3"
        );

        let (mut ours, mut oracle) = (String::new(), String::new());
        let mut check = |bits: u64| {
            let v = f64::from_bits(bits);
            ours.clear();
            push_f64(&mut ours, v);
            oracle.clear();
            let _ = write!(oracle, "{v:?}");
            assert_eq!(ours, oracle, "bits {bits:#018x}");
        };
        let mut rng = lml_sim::Pcg64::new(52);
        for _ in 0..10_000_000 {
            check(rng.next_u64());
        }
        const SIGN: u64 = 1 << 63;
        const MANTISSA: u64 = (1 << 52) - 1;
        for sign in [0, SIGN] {
            for exponent in 0..2048_u64 {
                for mantissa in [0, 1, 2, MANTISSA] {
                    check(sign | exponent << 52 | mantissa);
                }
            }
            // Subnormals: every one-bit and all-ones mantissa, and random.
            for b in 0..52 {
                check(sign | 1 << b);
                check(sign | ((1 << b) - 1));
                check(sign | ((1 << b) + 1));
            }
            for _ in 0..100_000 {
                check(sign | (rng.next_u64() & MANTISSA));
            }
        }
        for v in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.0,
            -0.0,
        ] {
            check(v.to_bits());
        }
        for k in 0..100_000_u32 {
            check(f64::from(k).to_bits());
            check((f64::from(k) / 1000.0).to_bits());
        }
        // Each side of every power of ten, `1e-4` and `1e16` among them.
        for e in -324..=308 {
            let bits = format!("1e{e}").parse::<f64>().map_or(0, f64::to_bits);
            for ulps in 0..=64 {
                check(bits + ulps);
                check(bits.saturating_sub(ulps));
            }
        }
    }

    /// Little-endian base-2³² digits of an exact nonnegative integer:
    /// enough arithmetic to rebuild the power-of-five tables.
    struct Big(Vec<u32>);

    impl Big {
        fn pow2(e: u32) -> Big {
            let mut limbs = vec![0; (e / 32) as usize];
            limbs.push(1 << (e % 32));
            Big(limbs)
        }

        fn mul_small(&mut self, k: u32) {
            let mut carry = 0;
            for limb in &mut self.0 {
                let x = u64::from(*limb) * u64::from(k) + carry;
                *limb = x as u32;
                carry = x >> 32;
            }
            if carry > 0 {
                self.0.push(carry as u32);
            }
        }

        /// Floor division by `k`.
        fn div_small(&mut self, k: u32) {
            let mut rem = 0;
            for limb in self.0.iter_mut().rev() {
                let x = rem << 32 | u64::from(*limb);
                *limb = (x / u64::from(k)) as u32;
                rem = x % u64::from(k);
            }
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
        }

        fn bit_len(&self) -> u32 {
            let top = self.0.last().map_or(32, |t| t.leading_zeros());
            32 * self.0.len() as u32 - top
        }

        /// `⌊self / 2^s⌋`, which must fit in a `u128`.
        fn shr(&self, s: u32) -> u128 {
            let mut v = 0;
            for (i, &limb) in self.0.iter().enumerate() {
                let at = 32 * i as i64 - i64::from(s);
                if at >= 0 {
                    v |= u128::from(limb) << at;
                } else if at > -32 {
                    v |= u128::from(limb) >> -at;
                }
            }
            v
        }
    }

    #[test]
    fn power_of_five_tables_match_a_bignum() {
        let bits = ryu::POW5_BITS;
        let mut pow5 = Big(vec![1]);
        for (i, &entry) in ryu::POW5.iter().enumerate() {
            // `5^i` to its top `bits` bits, shifted left when shorter.
            let len = pow5.bit_len();
            let top = if len >= bits {
                pow5.shr(len - bits)
            } else {
                pow5.shr(0) << (bits - len)
            };
            assert_eq!(entry, top, "POW5[{i}]");
            pow5.mul_small(5);
        }
        let mut pow5 = Big(vec![1]);
        for (q, &entry) in ryu::POW5_INV.iter().enumerate() {
            // `⌊2^(len - 1 + bits) / 5^q⌋ + 1`, dividing by 5 `q` times.
            let mut inv = Big::pow2(pow5.bit_len() - 1 + bits);
            for _ in 0..q {
                inv.div_small(5);
            }
            assert_eq!(entry, inv.shr(0) + 1, "POW5_INV[{q}]");
            pow5.mul_small(5);
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
