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
