//! Dependency-free JSON for run artifacts and trace export.
//!
//! The workspace builds offline, so instead of `serde`/`serde_json` it
//! carries this small crate: a [`Json`] value type with **insertion-ordered
//! objects** (artifact files diff cleanly), a strict parser, compact and
//! pretty writers, and the [`ToJson`]/[`FromJson`] conversion traits the
//! simulator's types implement.
//!
//! Numbers are stored as `f64`, which is exact for every integer the
//! simulator emits (counters fit in 53 bits; a counter overflowing 2^53
//! would mean ~9·10^15 simulated transactions). Writing uses Rust's
//! shortest-round-trip float formatting, so values survive
//! write → parse → write unchanged.
//!
//! Reading never yields a wrong value: an integer outside its target
//! type's range is a [`JsonError`], not a truncation, and documents nested
//! deeper than [`MAX_DEPTH`] are refused instead of overflowing the stack.
//!
//! # Struct schemas
//!
//! Plain structs get both conversions from one ordered field list via
//! [`json_struct!`]; the list order is the key order on write. Each field
//! takes one of three forms:
//!
//! - `name` — always written; required on read.
//! - `name = default` — always written; `default` when absent on read.
//! - `name ?= default` — written only when the value differs from
//!   `default`; `default` when absent on read.
//!
//! Report structs that are only ever written take the write-only form,
//! `json_struct! { write Report { ... } }`: the same field list, but only
//! [`ToJson`] is implemented (so no field needs a [`FromJson`] impl).
//!
//! **Compatibility rule:** artifacts in `results/` and `tests/golden/` are
//! pinned byte for byte, so a field added to a pinned type must be
//! `= default` (older files still load) or `?= default` (older files
//! still load *and* re-emit unchanged while the field holds its default).

#![forbid(unsafe_code)]

use std::fmt;

/// A JSON document: the usual six value kinds, with objects kept in
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (see crate docs on integer exactness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order and may not repeat.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] and the [`FromJson`] impls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, with byte offset for parse errors.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Build an error from anything displayable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self { message: message.to_string() }
    }
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

/// Types that reconstruct themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Convert from a JSON value, validating shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Implement [`ToJson`] and [`FromJson`] for a struct from one ordered
/// field list (see the [crate docs](crate#struct-schemas) for the three
/// field forms). Keys are the field names, written in list order. The
/// `write` form, `json_struct! { write Ty { ... } }`, implements
/// [`ToJson`] alone.
///
/// ```
/// use cfmerge_json::{json_struct, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u32,
///     y: u32,
///     weight: f64,
///     tag: Option<String>,
/// }
///
/// json_struct! { Point { x, y, weight = 1.0, tag ?= None } }
///
/// let p = Point { x: 3, y: 4, weight: 1.0, tag: None };
/// assert_eq!(p.to_json().to_string_compact(), r#"{"x":3,"y":4,"weight":1}"#);
/// assert_eq!(Point::from_json(&Json::parse(r#"{"y":4,"x":3}"#).unwrap()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_struct {
    (write $ty:ident { $($fields:tt)* }) => {
        $crate::json_struct!(@munch write $ty [] $($fields)*);
    };
    ($ty:ident { $($fields:tt)* }) => {
        $crate::json_struct!(@munch both $ty [] $($fields)*);
    };
    // Normalize each field to `(name mode default?)`, one per step.
    (@munch $io:ident $ty:ident [$($done:tt)*] $name:ident ?= $default:expr $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@munch $io $ty [$($done)* ($name omit $default)] $($($rest)*)?);
    };
    (@munch $io:ident $ty:ident [$($done:tt)*] $name:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@munch $io $ty [$($done)* ($name always $default)] $($($rest)*)?);
    };
    (@munch $io:ident $ty:ident [$($done:tt)*] $name:ident $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@munch $io $ty [$($done)* ($name required)] $($($rest)*)?);
    };
    (@munch $io:ident $ty:ident [$(($name:ident $mode:ident $($default:expr)?))*]) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut pairs = ::std::vec::Vec::new();
                $($crate::json_struct!(@put pairs, self.$name, $name $mode $($default)?);)*
                $crate::Json::obj(pairs)
            }
        }
        $crate::json_struct!(@read $io $ty [$(($name $mode $($default)?))*]);
    };
    (@read write $ty:ident [$($field:tt)*]) => {};
    (@read both $ty:ident [$(($name:ident $mode:ident $($default:expr)?))*]) => {
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                ::std::result::Result::Ok(Self {
                    $($name: $crate::json_struct!(@get v, $name $mode $($default)?),)*
                })
            }
        }
    };
    (@put $pairs:ident, $value:expr, $name:ident omit $default:expr) => {
        if $value != $default {
            $crate::json_struct!(@put $pairs, $value, $name always);
        }
    };
    (@put $pairs:ident, $value:expr, $name:ident $mode:ident $($default:expr)?) => {
        $pairs.push((stringify!($name), $crate::ToJson::to_json(&$value)))
    };
    (@get $v:ident, $name:ident required) => {
        $v.field(stringify!($name))?
    };
    (@get $v:ident, $name:ident $mode:ident $default:expr) => {
        $v.field_opt(stringify!($name))?.unwrap_or($default)
    };
}

impl Json {
    /// Build an object from key/value pairs (keys keep this order).
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on objects; `None` on other kinds or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required member lookup, with a path-bearing error.
    pub fn req(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::new(format!("missing object key {key:?}")))
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(63) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Typed required member: `self[key]` as `T`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        T::from_json(self.req(key)?).map_err(|e| JsonError::new(format!("in key {key:?}: {e}")))
    }

    /// Typed optional member: `self[key]` as `Some(T)`, or `None` when the
    /// key is absent or `null`.
    pub fn field_opt<T: FromJson>(&self, key: &str) -> Result<Option<T>, JsonError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| JsonError::new(format!("in key {key:?}: {e}"))),
        }
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation and trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_string(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        // JSON has no Infinity/NaN; emitting null matches the common
        // lenient-writer convention and keeps documents parseable.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else if n != 0.0 && (n.abs() >= 1e16 || n.abs() < 1e-5) {
        // Display never uses an exponent; avoid hundred-digit expansions.
        let _ = write!(out, "{n:e}");
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so a bound keeps hostile input from
/// overflowing the stack; pinned artifacts nest at most 8 levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: \uD800-\uDBFF must be
                            // followed by a low surrogate escape.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

macro_rules! impl_json_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json { Json::Num(n as f64) }
        }
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::Num(*self as f64) }
        }
    )*};
}
impl_json_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_json_int_from {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let expected = || JsonError::new(concat!("expected ", stringify!($t)));
                let n = v.as_u64().ok_or_else(expected)?;
                <$t>::try_from(n).map_err(|_| {
                    JsonError::new(format!("{n} is out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
impl_json_int_from!(u8, u16, u32, u64, usize);

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().map(|n| n as f32).ok_or_else(|| JsonError::new("expected f32"))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected f64"))
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // `i64::MIN` is exactly -2^63; 2^63 itself is one past `i64::MAX`.
        let range = -(2f64.powi(63))..2f64.powi(63);
        match v {
            Json::Num(n) if n.fract() == 0.0 && range.contains(n) => Ok(*n as i64),
            Json::Num(n) if n.fract() == 0.0 => {
                Err(JsonError::new(format!("{n} is out of range for i64")))
            }
            _ => Err(JsonError::new("expected i64")),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_owned).ok_or_else(|| JsonError::new("expected string"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(t) => t.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_compact_and_pretty() {
        let doc = Json::obj([
            ("name", Json::from("cf-merge")),
            ("n", Json::from(1u64 << 20)),
            ("ratio", Json::from(0.125)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            ("xs", Json::arr([Json::from(1), Json::from(2), Json::from(3)])),
            ("nested", Json::obj([("k", Json::from("v"))])),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let keys: Vec<String> =
            Json::parse(text).unwrap().as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::from(-7i64).to_string_compact(), "-7");
        assert_eq!(Json::from(2.5).to_string_compact(), "2.5");
        assert_eq!(Json::from(1e300).to_string_compact(), "1e300");
    }

    #[test]
    fn nonfinite_numbers_become_null() {
        assert_eq!(Json::from(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::from(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}snowman\u{2603}";
        let text = Json::from(s).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), Json::from(s));
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(
            Json::parse(r#""\u2603 \ud83d\ude00""#).unwrap(),
            Json::from("\u{2603} \u{1F600}")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01e",
            "\"\\x\"",
            "{\"a\":1,\"a\":2}",
            "[1] []",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_all_forms() {
        for (text, val) in [("0", 0.0), ("-0.5", -0.5), ("1e3", 1000.0), ("2.5E-2", 0.025)] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(val));
        }
    }

    #[test]
    fn typed_field_access() {
        let v = Json::parse(r#"{"n": 3, "s": "x", "xs": [1, 2], "maybe": null}"#).unwrap();
        assert_eq!(v.field::<u64>("n").unwrap(), 3);
        assert_eq!(v.field::<String>("s").unwrap(), "x");
        assert_eq!(v.field::<Vec<u32>>("xs").unwrap(), vec![1, 2]);
        assert_eq!(v.field_opt::<f64>("maybe").unwrap(), None);
        assert_eq!(v.field_opt::<f64>("absent").unwrap(), None);
        assert!(v.field::<u64>("s").is_err());
        assert!(v.field::<u64>("absent").is_err());
    }

    #[test]
    fn narrowing_reads_reject_out_of_range_values() {
        fn read<T: FromJson + fmt::Debug>(n: f64) -> Result<String, String> {
            T::from_json(&Json::Num(n)).map(|t| format!("{t:?}")).map_err(|e| e.message)
        }
        let table = [
            (read::<u8>(255.0), Ok("255")),
            (read::<u8>(300.0), Err("300 is out of range for u8")),
            (read::<u16>(65535.0), Ok("65535")),
            (read::<u16>(65536.0), Err("65536 is out of range for u16")),
            (read::<u32>(4294967295.0), Ok("4294967295")),
            (read::<u32>(4294967296.0), Err("4294967296 is out of range for u32")),
            (read::<u32>(-1.0), Err("expected u32")),
            (read::<u64>(2f64.powi(53)), Ok("9007199254740992")),
            (read::<u64>(0.5), Err("expected u64")),
            (read::<usize>(2f64.powi(53)), Ok("9007199254740992")),
            (read::<i64>(-(2f64.powi(63))), Ok("-9223372036854775808")),
            (read::<i64>(2f64.powi(63)), Err("9223372036854776000 is out of range for i64")),
            (read::<i64>(-1.5), Err("expected i64")),
        ];
        for (row, (got, want)) in table.iter().enumerate() {
            assert_eq!(got.as_deref().map_err(String::as_str), *want, "row {row}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        let e = Json::parse(&deep).expect_err("must refuse, not overflow");
        assert!(e.message.contains("nesting deeper than 128"), "{e}");
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
        let objects = format!("{}1{}", r#"{"k":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        assert!(Json::parse(&format!("[{objects}]")).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Schema {
        id: u32,
        name: String,
        added: u64,
        width: u32,
        extra: Vec<u32>,
    }

    json_struct! {
        Schema {
            id,
            name,
            added = 7,
            width ?= 1,
            extra ?= Vec::new(),
        }
    }

    fn schema() -> Schema {
        Schema { id: 1, name: "s".into(), added: 7, width: 1, extra: Vec::new() }
    }

    #[test]
    fn struct_schema_required_fields_name_the_missing_key() {
        let e = Schema::from_json(&Json::parse(r#"{"id": 1}"#).unwrap()).unwrap_err();
        assert_eq!(e.message, r#"missing object key "name""#);
        let e =
            Schema::from_json(&Json::parse(r#"{"id": 1.5, "name": "s"}"#).unwrap()).unwrap_err();
        assert_eq!(e.message, r#"in key "id": expected u32"#);
    }

    #[test]
    fn struct_schema_defaulted_field_reads_default_and_is_always_written() {
        let s = Schema::from_json(&Json::parse(r#"{"id": 1, "name": "s"}"#).unwrap()).unwrap();
        assert_eq!(s, schema());
        assert_eq!(s.to_json().to_string_compact(), r#"{"id":1,"name":"s","added":7}"#);
        let s = Schema { added: 0, ..schema() };
        assert_eq!(s.to_json().to_string_compact(), r#"{"id":1,"name":"s","added":0}"#);
    }

    #[test]
    fn struct_schema_omitted_field_is_written_only_off_default() {
        let s = Schema { width: 2, extra: vec![5], ..schema() };
        let text = s.to_json().to_string_compact();
        assert_eq!(text, r#"{"id":1,"name":"s","added":7,"width":2,"extra":[5]}"#);
        assert_eq!(Schema::from_json(&Json::parse(&text).unwrap()).unwrap(), s);
        let explicit = r#"{"id":1,"name":"s","added":7,"width":1,"extra":[]}"#;
        let s = Schema::from_json(&Json::parse(explicit).unwrap()).unwrap();
        assert_eq!(s.to_json().to_string_compact(), r#"{"id":1,"name":"s","added":7}"#);
    }

    #[test]
    fn struct_schema_key_order_follows_the_field_list() {
        let text = r#"{"extra":[2],"width":3,"added":4,"name":"s","id":9}"#;
        let s = Schema::from_json(&Json::parse(text).unwrap()).unwrap();
        let keys: Vec<String> =
            s.to_json().as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, ["id", "name", "added", "width", "extra"]);
    }

    /// Written only: `Label` has no `FromJson`, so the `write` form must
    /// not ask for one.
    struct Label(&'static str);

    impl ToJson for Label {
        fn to_json(&self) -> Json {
            Json::from(self.0)
        }
    }

    struct Row {
        label: Label,
        count: u64,
        note: Option<String>,
    }

    json_struct! { write Row { label, count = 0, note ?= None } }

    #[test]
    fn write_only_schema_writes_in_list_order() {
        let row = Row { label: Label("a"), count: 0, note: None };
        assert_eq!(row.to_json().to_string_compact(), r#"{"label":"a","count":0}"#);
        let row = Row { note: Some("n".into()), ..row };
        assert_eq!(row.to_json().to_string_compact(), r#"{"label":"a","count":0,"note":"n"}"#);
    }
}
