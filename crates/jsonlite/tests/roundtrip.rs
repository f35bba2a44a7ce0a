//! Property test: printing then parsing any value tree is the identity
//! (up to NaN→null, which the printer documents).

use jsonlite::Value;
use seeded::{self as proptest, prelude::*, SmallRng};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        // finite numbers only: NaN/Inf intentionally print as null
        (-1e15f64..1e15).prop_map(Value::Number),
        "[a-zA-Z0-9 _\\-\\.\"\\\\/\u{e9}\u{1F600}]{0,12}".prop_map(Value::String),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..6).prop_map(|pairs| {
                Value::Object(pairs)
            }),
        ]
    })
}

proptest! {
    #[test]
    fn print_parse_roundtrip(v in arb_value()) {
        let text = v.to_string();
        let back = Value::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(&back, &v, "{}", text);
    }

    #[test]
    fn pretty_parse_roundtrip(v in arb_value()) {
        let text = v.to_pretty();
        let back = Value::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(&back, &v, "{}", text);
    }

    #[test]
    fn parser_never_panics(s in "\\PC{0,64}") {
        let _ = Value::parse(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn strings_print_as_the_reference_escaper_does(s in escape_heavy_string()) {
        let text = Value::String(s.clone()).to_string();
        prop_assert_eq!(&text, &reference_escaped(&s), "{:?}", s);
        let back = Value::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        prop_assert_eq!(back.as_str(), Some(s.as_str()), "{}", text);
    }
}

/// Strings built as escapes, plain ASCII, escapes, plain ASCII, escapes:
/// each escape group may be empty, so escapes land at the start, in the
/// middle, next to each other and at the end. An escape is `"`, `\`, a
/// control character 0x00–0x1F, or a non-ASCII `é` or `𝄞` (which print
/// as they are, but are several bytes long).
fn escape_heavy_string() -> impl Strategy<Value = String> {
    let specials: Vec<char> = ('\0'..='\u{1f}').chain(['"', '\\', '\u{e9}', '\u{1D11E}']).collect();
    let escapes = move || {
        let specials = specials.clone();
        proptest::collection::vec((0..specials.len()).prop_map(move |i| specials[i]), 0..4)
            .prop_map(|cs| cs.into_iter().collect::<String>())
    };
    let ascii = "[a-zA-Z0-9 _\\-\\./:,]{0,8}";
    (escapes(), ascii, escapes(), ascii, escapes())
        .prop_map(|(a, b, c, d, e)| [a, b, c, d, e].concat())
}

/// The printer's contract, one character at a time.
fn reference_escaped(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every finite number prints to text that parses back to the same bit
/// pattern — over a seeded sweep of bit patterns (every exponent is hit,
/// subnormals included) and the edges of each printing range. `-0.0` is
/// the one exception: it prints as `0`.
#[test]
fn every_finite_number_round_trips_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    let edges = [
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        1e-5,
        0.99999e-5,
        1e15,
        999_999_999_999_999.0,
        999_999_999_999_999.5,
        9_007_199_254_740_993.0,
        f64::MAX,
        -f64::MAX,
    ];
    let sweep = (0..100_000).map(|_| f64::from_bits(rng.next_u64()));
    for x in edges.into_iter().chain(sweep).filter(|x| x.is_finite()) {
        let text = Value::Number(x).to_string();
        let back = Value::parse(&text).unwrap_or_else(|e| panic!("{x:e} printed {text}: {e}"));
        let Value::Number(y) = back else { panic!("{x:e} printed {text}, not a number") };
        assert_eq!(y.to_bits(), x.to_bits(), "{x:e} printed {text}, read back {y:e}");
        assert!(text.len() <= 24, "{x:e} printed {} bytes: {text}", text.len());
    }
    assert_eq!(Value::Number(-0.0).to_string(), "0");
}
