//! # `mca-serde` — offline TOML (de)serialization
//!
//! This workspace builds in an environment with no crates.io access, so —
//! matching the `vendor/{rand, rayon, proptest}` shims — the
//! TOML support the scenario system needs is implemented locally rather
//! than pulled from `serde` + `toml`. The crate provides:
//!
//! * a document model ([`Value`], [`Table`]) in which every node carries
//!   the 1-based source line it was parsed from;
//! * a recursive-descent [`parse`](fn@parse)r for the TOML subset the
//!   scenario schema uses (tables, array-of-tables, inline tables, nested
//!   multi-line arrays, strings with escapes, `i128`-wide integers,
//!   floats, booleans, comments — see [`parse`](fn@parse) for the exact
//!   envelope);
//! * a canonical, byte-deterministic [`emit`](fn@emit)ter whose float
//!   formatting round-trips bit-exactly;
//! * [`Fields`], a decode helper with required/optional typed accessors
//!   and *unknown-field rejection* — every decode error is a
//!   [`TomlError`] carrying the line and dotted field path;
//! * the serde-like [`ToToml`] / [`FromToml`] trait pair that domain
//!   crates (e.g. `mca-scenario`) implement.
//!
//! # Examples
//!
//! ```
//! use mca_serde::{parse, emit, Fields};
//!
//! let doc = parse("name = \"demo\"\n\n[sinr]\nalpha = 3.0\n").unwrap();
//! let mut root = Fields::of_table(&doc, "");
//! assert_eq!(root.str("name").unwrap(), "demo");
//! let mut sinr = root.opt_fields("sinr").unwrap().unwrap();
//! assert_eq!(sinr.f64("alpha").unwrap(), 3.0);
//! sinr.finish().unwrap();
//! root.finish().unwrap();
//! assert_eq!(emit(&doc), "name = \"demo\"\n\n[sinr]\nalpha = 3.0\n");
//!
//! // Errors carry the line and the dotted field path.
//! let doc = parse("[sinr]\nalpha = \"three\"\n").unwrap();
//! let mut root = Fields::of_table(&doc, "");
//! let mut sinr = root.opt_fields("sinr").unwrap().unwrap();
//! let err = sinr.f64("alpha").unwrap_err();
//! assert_eq!(err.to_string(), "line 2: `sinr.alpha`: expected a number, found a string");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod de;
mod emit;
mod error;
mod parse;
mod value;

pub use de::Fields;
pub use emit::emit;
pub use error::{join_path, TomlError};
pub use parse::parse;
pub use value::{Kind, Table, Value};

/// Serialization into the TOML document model.
pub trait ToToml {
    /// This value as a TOML [`Table`] (the root of its document).
    fn to_toml_table(&self) -> Table;

    /// This value rendered as TOML text (canonical layout; see [`emit`](fn@emit)).
    fn to_toml(&self) -> String {
        emit(&self.to_toml_table())
    }
}

/// Deserialization from the TOML document model.
pub trait FromToml: Sized {
    /// Decodes from a parsed root [`Table`].
    ///
    /// Implementations must consume every field (via [`Fields`]) so that
    /// unknown keys are rejected rather than ignored.
    fn from_toml_table(table: &Table) -> Result<Self, TomlError>;

    /// Parses and decodes TOML text.
    fn from_toml_str(src: &str) -> Result<Self, TomlError> {
        Self::from_toml_table(&parse(src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Demo {
        name: String,
        n: u64,
    }

    impl ToToml for Demo {
        fn to_toml_table(&self) -> Table {
            Table::new()
                .with("name", Value::str(&self.name))
                .with("n", Value::int(self.n))
        }
    }

    impl FromToml for Demo {
        fn from_toml_table(table: &Table) -> Result<Self, TomlError> {
            let mut f = Fields::of_table(table, "");
            let demo = Demo {
                name: f.str("name")?.to_string(),
                n: f.u64("n")?,
            };
            f.finish()?;
            Ok(demo)
        }
    }

    #[test]
    fn trait_round_trip() {
        let d = Demo {
            name: "x".into(),
            n: 7,
        };
        let text = d.to_toml();
        let back = Demo::from_toml_str(&text).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.n, d.n);
    }

    #[test]
    fn trait_rejects_unknown_fields() {
        let e = Demo::from_toml_str("name = \"x\"\nn = 1\nextra = 2\n").unwrap_err();
        assert_eq!(e.path, "extra");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn trait_surfaces_syntax_errors() {
        let e = Demo::from_toml_str("name = \n").unwrap_err();
        assert_eq!(e.line, 1);
    }
}
