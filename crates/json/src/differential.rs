//! Differential test of the appending encoder (seeded, deterministic).
//!
//! Random values run through [`Value::write_to`] and, side by side,
//! through a test-only copy of the `fmt`-based `Display` it replaced.
//! Values nest up to 8 deep; their strings draw on every byte below
//! 0x20, `"`, `\` and multi-byte UTF-8, and their floats are integral,
//! fractional, negative and of magnitude 10^15 and above. Checked:
//!
//! * the encoder's output equals the oracle's byte for byte, through
//!   `write_to`, `to_string` and appending after existing text;
//! * `parse(encode(v)) == v`, where an integral float of magnitude at
//!   least 10^15 comes back as the equal integer: both encoders print it
//!   without a decimal point. Integral floats of magnitude 2^63 and
//!   above print as integers no `i64` holds, which the parser rejects,
//!   so they take part in the byte comparison only.

use std::fmt;

use super::*;

/// The `fmt`-based encoder [`Value::write_to`] replaced, kept as the
/// oracle.
struct Oracle<'a>(&'a Value);

impl fmt::Display for Oracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => oracle_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Oracle(v))?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    oracle_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{}", Oracle(v))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn oracle_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// xorshift64* — tiny, seedable, and stable across toolchains.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Characters strings are drawn from: every control character, the two
/// escaped printables, plain ASCII, DEL, and 2-, 3- and 4-byte UTF-8
/// (the connectives of adversary descriptions among them).
fn alphabet() -> Vec<char> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend(['"', '\\', '/', ' ', 'a', 'Z', '0', ':', ',', '{', ']', '\u{7f}']);
    chars.extend(['é', 'ü', '·', '◇', '∪', '↔', '→', '€', '𝄞', '🦀']);
    chars
}

fn string(rng: &mut Rng, alphabet: &[char]) -> String {
    let len = rng.below(12);
    (0..len)
        .map(|_| {
            // Runs of plain text between escapes, as in real records.
            if rng.below(3) == 0 {
                alphabet[rng.below(alphabet.len())]
            } else {
                char::from(b'a' + rng.below(26) as u8)
            }
        })
        .collect()
}

fn float(rng: &mut Rng) -> f64 {
    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
    let mantissa = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    sign * match rng.below(6) {
        0 => rng.below(1_000_000) as f64,
        1 => mantissa * 1000.0,
        2 => mantissa * 1e-6,
        3 => 1e15 * (1.0 + mantissa),
        4 => (1e15 * (1.0 + 9.0 * mantissa)).floor() + 0.5,
        _ => (10f64.powi(15 + rng.below(12) as i32) * (1.0 + mantissa)).floor(),
    }
}

fn value(rng: &mut Rng, alphabet: &[char], depth: usize) -> Value {
    let leaves = 5;
    let kinds = if depth == 0 { leaves } else { leaves + 2 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(match rng.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.next() as i64 >> rng.below(64),
        }),
        3 => Value::Float(float(rng)),
        4 => Value::Str(string(rng, alphabet)),
        5 => Value::Arr((0..rng.below(5)).map(|_| value(rng, alphabet, depth - 1)).collect()),
        _ => {
            // Distinct keys: the parser rejects duplicates.
            let mut fields: Vec<(String, Value)> = Vec::new();
            for _ in 0..rng.below(5) {
                let key = string(rng, alphabet);
                if fields.iter().all(|(k, _)| *k != key) {
                    fields.push((key, value(rng, alphabet, depth - 1)));
                }
            }
            Value::Obj(fields)
        }
    }
}

/// Whether `read` is what the parser returns for `v`: `v` itself, except
/// that an integral float of magnitude ≥ 10^15 prints without a decimal
/// point and reads back as an integer of equal value.
fn reads_back_as(read: &Value, v: &Value) -> bool {
    match (read, v) {
        (Value::Int(i), Value::Float(x)) => x.fract() == 0.0 && x.abs() >= 1e15 && *i as f64 == *x,
        (Value::Arr(r), Value::Arr(a)) => {
            r.len() == a.len() && r.iter().zip(a).all(|(r, a)| reads_back_as(r, a))
        }
        (Value::Obj(r), Value::Obj(a)) => {
            r.len() == a.len()
                && r.iter().zip(a).all(|((rk, r), (ak, a))| rk == ak && reads_back_as(r, a))
        }
        _ => read == v,
    }
}

/// Whether `v` holds an integral float of magnitude ≥ 2^63, which prints
/// as an integer no `i64` holds.
fn beyond_i64(v: &Value) -> bool {
    match v {
        Value::Float(x) => x.fract() == 0.0 && x.abs() >= 2f64.powi(63),
        Value::Arr(items) => items.iter().any(beyond_i64),
        Value::Obj(fields) => fields.iter().any(|(_, v)| beyond_i64(v)),
        _ => false,
    }
}

fn max_depth(v: &Value) -> usize {
    match v {
        Value::Arr(items) => 1 + items.iter().map(max_depth).max().unwrap_or(0),
        Value::Obj(fields) => 1 + fields.iter().map(|(_, v)| max_depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn encoder_matches_the_fmt_oracle_and_round_trips() {
    let alphabet = alphabet();
    let mut rng = Rng(0x05ee_d0fc_0dec);
    let (mut round_trips, mut deepest) = (0, 0);
    for case in 0..4_000 {
        let v = value(&mut rng, &alphabet, 8);
        let oracle = Oracle(&v).to_string();
        let mut encoded = String::new();
        v.write_to(&mut encoded);
        assert_eq!(encoded, oracle, "case {case}: {v:?}");
        assert_eq!(v.to_string(), oracle, "case {case}");
        let mut appended = String::from("prefix\n");
        v.write_to(&mut appended);
        assert_eq!(appended, format!("prefix\n{oracle}"), "case {case}");
        if !beyond_i64(&v) {
            let read = parse(&encoded).unwrap_or_else(|e| panic!("case {case}: {e}: {encoded}"));
            assert!(reads_back_as(&read, &v), "case {case}: {v:?} read back as {read:?}");
            round_trips += 1;
        }
        deepest = deepest.max(max_depth(&v));
        assert!(encoded.bytes().all(|b| b >= 0x20), "case {case}: raw control byte in {encoded:?}");
    }
    assert!(round_trips >= 3_000, "only {round_trips} values round-tripped");
    assert_eq!(deepest, 8, "the generator must reach nesting depth 8");
}

#[test]
fn edge_values_match_the_oracle() {
    let edges = [
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1e15),
        Value::Float(999_999_999_999_999.0),
        Value::Float(1e300),
        Value::Float(f64::MIN_POSITIVE),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Int(0),
        Value::Int(-1),
        Value::Str(String::new()),
        Value::Str("\u{0}\u{1f}\u{7f}\"\\".into()),
        Value::Arr(vec![]),
        Value::Obj(vec![]),
    ];
    for v in &edges {
        assert_eq!(v.to_string(), Oracle(v).to_string(), "{v:?}");
    }
}
