//! Compact and pretty JSON printers.

use std::fmt::{self, Write as _};

use crate::value::Value;

/// Writes `v` compactly (no whitespace).
pub fn write_compact(v: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Value::Null => f.write_str("null"),
        Value::Bool(true) => f.write_str("true"),
        Value::Bool(false) => f.write_str("false"),
        Value::Number(n) => write_number(*n, f),
        Value::String(s) => write_string(s, f),
        Value::Array(items) => {
            f.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_char(',')?;
                }
                write_compact(item, f)?;
            }
            f.write_char(']')
        }
        Value::Object(pairs) => {
            f.write_char('{')?;
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    f.write_char(',')?;
                }
                write_string(k, f)?;
                f.write_char(':')?;
                write_compact(val, f)?;
            }
            f.write_char('}')
        }
    }
}

fn write_number(n: f64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if n.is_nan() || n.is_infinite() {
        // JSON has no NaN/Inf; the metrology service uses null for unknown
        return f.write_str("null");
    }
    // Rust's shortest round-trip float formatting: positional where that
    // stays short, with an exponent outside that range (`Display` never
    // uses one, so 1e-300 would print 300 zeros)
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(f, "{}", n as i64)
    } else if (1e-5..1e15).contains(&n.abs()) {
        write!(f, "{n}")
    } else {
        write!(f, "{n:e}")
    }
}

fn write_string(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Pretty-prints with two-space indentation.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    pretty_into(v, 0, &mut out);
    out
}

fn pretty_into(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(depth + 1, out);
                pretty_into(item, depth + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                indent(depth + 1, out);
                out.push_str(&format!("{}: ", Value::String(k.clone())));
                pretty_into(val, depth + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_like_the_paper() {
        assert_eq!(Value::Number(500000000.0).to_string(), "500000000");
        assert_eq!(Value::Number(16.0044).to_string(), "16.0044");
        assert_eq!(Value::Number(4.76841).to_string(), "4.76841");
        assert_eq!(Value::Number(-0.5).to_string(), "-0.5");
    }

    #[test]
    fn tiny_and_huge_numbers_print_with_an_exponent() {
        assert_eq!(Value::Number(1e-300).to_string(), "1e-300");
        assert_eq!(Value::Number(1.7e308).to_string(), "1.7e308");
        assert_eq!(Value::Number(-2.5e-7).to_string(), "-2.5e-7");
        assert_eq!(Value::Number(1e15).to_string(), "1e15");
        assert_eq!(Value::Number(999999999999999.0).to_string(), "999999999999999");
        assert_eq!(Value::Number(0.00001).to_string(), "0.00001");
        assert_eq!(Value::Number(-0.0).to_string(), "0");
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(Value::Number(f64::NAN).to_string(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Value::from("a\"b\\c\nd").to_string(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(Value::from("\u{01}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn compact_layout() {
        let v = Value::object(vec![
            ("src", Value::from("a")),
            ("xs", Value::from(vec![1i64, 2])),
        ]);
        assert_eq!(v.to_string(), r#"{"src":"a","xs":[1,2]}"#);
    }

    #[test]
    fn pretty_layout() {
        let v = Value::object(vec![("a", Value::from(1i64))]);
        assert_eq!(v.to_pretty(), "{\n  \"a\": 1\n}");
        assert_eq!(Value::Array(vec![]).to_pretty(), "[]");
    }
}
