//! # jsonlite — a minimal JSON value, parser and printer
//!
//! Pilgrim's services answer "JSON formatted documents" over HTTP. The
//! reproduction's allowed dependency list has `serde` but not
//! `serde_json`, so the (small) JSON surface the services need is
//! implemented here: a [`Value`] tree, a strict recursive-descent parser
//! and a compact printer whose `f64` formatting round-trips.
//!
//! ```
//! use jsonlite::Value;
//!
//! let v = Value::parse(r#"[{"src":"a","duration":16.0044}]"#).unwrap();
//! assert_eq!(v[0]["duration"].as_f64(), Some(16.0044));
//! assert_eq!(v.to_string(), r#"[{"src":"a","duration":16.0044}]"#);
//! ```

#![forbid(unsafe_code)]

pub mod parse;
pub mod print;
pub mod value;

pub use parse::ParseError;
pub use value::Value;
