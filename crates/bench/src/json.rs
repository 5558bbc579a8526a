//! The workspace's one JSON writer: every `--json` document, the run
//! manifest and the Perfetto trace are written through it, and
//! [`escape`] is the only JSON string escaping there is. There is no
//! serde (the build has no registry access), so documents are written
//! directly rather than serialized from a value tree.
//!
//! Nested scopes are closures: [`object`], [`Obj::obj`] and [`Obj::arr`]
//! open a brace or bracket, hand the scope to the closure and close it on
//! return, and each scope writes its own separating commas. Braces and
//! commas therefore balance by construction.
//!
//! ```
//! use darsie_bench::json::{object, Fixed, Hex};
//! let doc = object(|o| {
//!     o.field("abbr", "MM").field("block", [16u32, 16, 1]).field("pc", None::<usize>);
//!     o.obj("run", |r| {
//!         r.field("speedup", Fixed(1.4375, 3)).field("root", Hex(0xbeef));
//!     });
//! });
//! assert_eq!(
//!     doc,
//!     r#"{"abbr":"MM","block":[16,16,1],"pc":null,"run":{"speedup":1.438,"root":"0x000000000000beef"}}"#
//! );
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Writes `s` as the body of a JSON string literal: quote, backslash and
/// the C0 controls are escaped (`\n`, `\t` and `\r` by name, the rest as
/// `\u00XX`); everything else, non-ASCII included, passes through.
pub fn escape(out: &mut String, s: &str) {
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
}

/// A value the writer can emit. Integers and booleans print as JSON
/// literals, strings are quoted and escaped, `None` is `null`, slices and
/// arrays are JSON arrays and string-keyed maps are objects. Floats have
/// no implementation: each one states its precision through [`Fixed`].
pub trait Value {
    /// Appends the value's JSON text to `out`.
    fn write(&self, out: &mut String);
}

macro_rules! literal_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
literal_values!(bool, u32, u64, u128, usize, i32, i64);

impl Value for str {
    fn write(&self, out: &mut String) {
        out.push('"');
        escape(out, self);
        out.push('"');
    }
}

impl Value for String {
    fn write(&self, out: &mut String) {
        self.as_str().write(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write(&self, out: &mut String) {
        (**self).write(out);
    }
}

impl<T: Value> Value for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value> Value for [T] {
    fn write(&self, out: &mut String) {
        write_arr(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<T: Value, const N: usize> Value for [T; N] {
    fn write(&self, out: &mut String) {
        self[..].write(out);
    }
}

impl<K: AsRef<str>, V: Value> Value for BTreeMap<K, V> {
    fn write(&self, out: &mut String) {
        write_obj(out, |o| {
            for (k, v) in self {
                o.field(k.as_ref(), v);
            }
        });
    }
}

/// A float printed with a fixed number of decimals, as `{:.N}` would.
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

impl Value for Fixed {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, self.0);
    }
}

/// A full 64-bit value (a digest root or a fingerprint) as a `"0x…"`
/// string of 16 hex digits: JSON numbers carry only 53 bits exactly.
#[derive(Debug, Clone, Copy)]
pub struct Hex(pub u64);

impl Value for Hex {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{:#018x}\"", self.0);
    }
}

/// Writes one JSON object document and returns it.
#[must_use]
pub fn object(f: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    write_obj(&mut out, f);
    out
}

/// The scope of an open JSON object.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

/// The scope of an open JSON array.
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

fn write_obj(out: &mut String, f: impl FnOnce(&mut Obj)) {
    out.push('{');
    f(&mut Obj { out, first: true });
    out.push('}');
}

fn write_arr(out: &mut String, f: impl FnOnce(&mut Arr)) {
    out.push('[');
    f(&mut Arr { out, first: true });
    out.push(']');
}

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        key.write(self.out);
        self.out.push(':');
        self.out
    }

    /// Writes `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write(self.key(key));
        self
    }

    /// Writes `"key":{…}`, the object's members written by `f`.
    pub fn obj(&mut self, key: &str, f: impl FnOnce(&mut Obj)) -> &mut Self {
        write_obj(self.key(key), f);
        self
    }

    /// Writes `"key":[…]`, the array's items written by `f`.
    pub fn arr(&mut self, key: &str, f: impl FnOnce(&mut Arr)) -> &mut Self {
        write_arr(self.key(key), f);
        self
    }

    /// Writes `"key":{…}` with the members `f` writes for `value`, or
    /// `"key":null` when there is none.
    pub fn opt_obj<T>(
        &mut self,
        key: &str,
        value: Option<T>,
        f: impl FnOnce(&mut Obj, T),
    ) -> &mut Self {
        match value {
            Some(v) => self.obj(key, |o| f(o, v)),
            None => self.field(key, None::<u32>),
        }
    }
}

impl Arr<'_> {
    fn sep(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out
    }

    /// Appends one value.
    pub fn item(&mut self, value: impl Value) -> &mut Self {
        value.write(self.sep());
        self
    }

    /// Appends one object, its members written by `f`.
    pub fn obj(&mut self, f: impl FnOnce(&mut Obj)) -> &mut Self {
        write_obj(self.sep(), f);
        self
    }
}
