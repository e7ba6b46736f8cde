//! A minimal JSON layer: value type, writer, parser and conversion
//! traits.
//!
//! The workspace serializes experiment reports and configurations to
//! JSON; this module provides everything needed without external
//! crates. Types opt in by implementing [`ToJson`]/[`FromJson`], most
//! conveniently through [`crate::json_struct!`], [`crate::json_enum!`]
//! or [`crate::json_newtype!`], which write serde's layouts (enums
//! externally tagged: `"Unit"`, `{"Variant": {..fields..}}`). Decoders
//! reject keys they do not know.
//!
//! # Examples
//!
//! ```
//! use util::json::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point {
//!     x: u64,
//!     y: f64,
//! }
//! util::json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: 0.5 };
//! let text = p.to_json_string();
//! assert_eq!(text, r#"{"x":3,"y":0.5}"#);
//! assert_eq!(Point::from_json_str(&text).unwrap(), p);
//! ```

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// A parsed or constructed JSON value.
///
/// Numbers keep their integer-ness: `U64`/`I64` hold values exactly
/// (the simulator counts picoseconds and femtojoules in wide integers),
/// `F64` holds everything with a fractional part. Objects preserve
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, including byte position for parse
    /// errors.
    pub msg: String,
}

impl JsonError {
    /// Creates an error from any displayable message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Prefixes the message with a field/element context, so nested
    /// failures read like a path.
    pub fn context(self, ctx: &str) -> Self {
        JsonError::new(format!("{ctx}: {}", self.msg))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::F64(v) => Some(v),
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// One-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::U64(_) | Json::I64(_) => "integer",
            Json::F64(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Renders to text. `pretty` indents with two spaces per level.
    pub fn render(&self, pretty: bool) -> String {
        let mut out = String::new();
        self.write(&mut out, pretty, 0);
        out
    }

    fn write(&self, out: &mut String, pretty: bool, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                assert!(v.is_finite(), "JSON cannot represent {v}");
                // `{:?}` is Rust's shortest round-trip float form; it
                // always keeps a `.0` or exponent, so the value parses
                // back as a float rather than an integer.
                out.push_str(&format!("{v:?}"));
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, pretty, depth + 1);
                    item.write(out, pretty, depth + 1);
                }
                newline_indent(out, pretty, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, pretty, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, pretty, depth + 1);
                }
                newline_indent(out, pretty, depth);
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the byte position of the first
    /// offending character.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, pretty: bool, depth: usize) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1; // [
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
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
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
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            // Out-of-range integers fall through to f64.
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Serialize to a [`Json`] value (and from there to text).
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;

    /// Compact one-line text.
    fn to_json_string(&self) -> String {
        self.to_json().render(false)
    }

    /// Two-space-indented text.
    fn to_json_pretty(&self) -> String {
        self.to_json().render(true)
    }
}

/// Reconstruct from a [`Json`] value (and from there from text).
pub trait FromJson: Sized {
    /// Converts a JSON value back into `Self`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Parses text and converts.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the text is not valid JSON or does
    /// not match `Self`.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(s)?)
    }
}

/// Looks up `name` in an object and converts it, treating a missing key
/// as `null` (so `Option` fields tolerate omission).
///
/// # Errors
///
/// Returns a [`JsonError`] if `v` is not an object or the field does
/// not convert.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(JsonError::new(format!("expected object, got {}", v.kind())));
    }
    let item = v.get(name).unwrap_or(&Json::Null);
    T::from_json(item).map_err(|e| e.context(name))
}

/// Looks up an optional `name` in an object and converts it, reading a
/// missing key (or a non-object) as `T::default()`.
///
/// # Errors
///
/// Returns a [`JsonError`] if the field does not convert.
pub fn opt_field<T: FromJson + Default>(v: &Json, name: &str) -> Result<T, JsonError> {
    v.get(name).map_or_else(
        || Ok(T::default()),
        |item| T::from_json(item).map_err(|e| e.context(name)),
    )
}

/// Whether `v` equals its type's default: the test that leaves an
/// optional [`crate::json_struct!`] field out of the output.
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// Rejects an object carrying a key outside `known`, naming the key and
/// the known keys. Every decoder that reads an object calls this with
/// the keys it reads, so a misspelled key is an error rather than a
/// silently absent field.
///
/// # Errors
///
/// Returns a [`JsonError`] if `v` is not an object or has an unknown
/// key.
pub fn deny_unknown_keys(v: &Json, known: &[&str]) -> Result<(), JsonError> {
    let Json::Obj(pairs) = v else {
        return mismatch("object", v);
    };
    match pairs.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(JsonError::new(format!(
            "unknown key {k:?}; expected one of {}",
            known.join(", ")
        ))),
        None => Ok(()),
    }
}

/// Reads an object's fields by name, then rejects any key it did not
/// read: [`deny_unknown_keys`] for a layout written by hand, without a
/// second list of its keys.
pub struct Fields<'j> {
    v: &'j Json,
    read: Vec<&'static str>,
}

impl<'j> Fields<'j> {
    /// Starts reading `v`.
    pub fn new(v: &'j Json) -> Self {
        Fields {
            v,
            read: Vec::new(),
        }
    }

    /// Reads `name` like [`field`].
    ///
    /// # Errors
    ///
    /// As [`field`].
    pub fn get<T: FromJson>(&mut self, name: &'static str) -> Result<T, JsonError> {
        self.read.push(name);
        field(self.v, name)
    }

    /// Checks that every key of the object was read.
    ///
    /// # Errors
    ///
    /// As [`deny_unknown_keys`] with the keys read so far.
    pub fn finish(&self) -> Result<(), JsonError> {
        deny_unknown_keys(self.v, &self.read)
    }
}

/// Splits an externally tagged [`crate::json_enum!`] value into its tag
/// and its body: `"Tag"` has none, `{"Tag": body}` has one.
///
/// # Errors
///
/// Returns a [`JsonError`] if `v` is neither a string nor a one-key
/// object.
pub fn variant<'j>(ty: &str, v: &'j Json) -> Result<(&'j str, Option<&'j Json>), JsonError> {
    match v {
        Json::Str(tag) => Ok((tag, None)),
        Json::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, Some(&pairs[0].1))),
        _ => Err(JsonError::new(format!(
            "expected {ty} variant (string or one-key object), got {}",
            v.kind()
        ))),
    }
}

fn mismatch<T>(expected: &str, got: &Json) -> Result<T, JsonError> {
    Err(JsonError::new(format!(
        "expected {expected}, got {}",
        got.kind()
    )))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().map_or_else(|| mismatch("bool", v), Ok)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map_or_else(|| mismatch("string", v), |s| Ok(s.to_string()))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = match v.as_u64() {
                    Some(r) => r,
                    None => return mismatch(stringify!($ty), v),
                };
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::new(format!("{raw} overflows {}", stringify!($ty)))
                })
            }
        }
    )+};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v < 0 { Json::I64(v) } else { Json::U64(v as u64) }
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = match v.as_i64() {
                    Some(r) => r,
                    None => return mismatch(stringify!($ty), v),
                };
                <$ty>::try_from(raw).map_err(|_| {
                    JsonError::new(format!("{raw} overflows {}", stringify!($ty)))
                })
            }
        }
    )+};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        // Values beyond u64 (≈18.4 MJ in femtojoules) serialize as a
        // decimal string so no reader silently rounds them.
        match u64::try_from(*self) {
            Ok(v) => Json::U64(v),
            Err(_) => Json::Str(self.to_string()),
        }
    }
}

impl FromJson for u128 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(u) = v.as_u64() {
            return Ok(u as u128);
        }
        if let Some(s) = v.as_str() {
            return s
                .parse::<u128>()
                .map_err(|_| JsonError::new(format!("invalid u128 literal {s:?}")));
        }
        mismatch("u128", v)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().map_or_else(|| mismatch("number", v), Ok)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
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

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = match v.as_arr() {
            Some(items) => items,
            None => return mismatch("array", v),
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.context(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + fmt::Debug, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::new(format!("expected {N} elements, got {got}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| e.context("[0]"))?,
                B::from_json(b).map_err(|e| e.context("[1]"))?,
            )),
            _ => mismatch("2-element array", v),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((
                A::from_json(a).map_err(|e| e.context("[0]"))?,
                B::from_json(b).map_err(|e| e.context("[1]"))?,
                C::from_json(c).map_err(|e| e.context("[2]"))?,
            )),
            _ => mismatch("3-element array", v),
        }
    }
}

// Maps serialize as arrays of `[key, value]` pairs so non-string keys
// (row ids, enum kinds) round-trip without a key-encoding convention.
impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K: FromJson + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs: Vec<(K, V)> = Vec::from_json(v)?;
        Ok(pairs.into_iter().collect())
    }
}

// Hash containers serialize in key order, like `BTreeMap`: iteration
// order follows the hasher's keys and the insertion history, so
// emitting it would make identical contents render as different bytes.
impl<K: ToJson + Ord, V: ToJson, S> ToJson for HashMap<K, V, S> {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Json::Arr(
            pairs
                .into_iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<K, V, S> FromJson for HashMap<K, V, S>
where
    K: FromJson + std::hash::Hash + Eq,
    V: FromJson,
    S: std::hash::BuildHasher + Default,
{
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let pairs: Vec<(K, V)> = Vec::from_json(v)?;
        Ok(pairs.into_iter().collect())
    }
}

impl<T: ToJson + Ord, S> ToJson for HashSet<T, S> {
    fn to_json(&self) -> Json {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        Json::Arr(items.into_iter().map(ToJson::to_json).collect())
    }
}

impl<T, S> FromJson for HashSet<T, S>
where
    T: FromJson + std::hash::Hash + Eq,
    S: std::hash::BuildHasher + Default,
{
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        Ok(items.into_iter().collect())
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serializing as an object keyed by field name. Invoke in the module
/// that defines the struct so private fields are reachable.
///
/// * `field as "key"` serializes `field` under `key` (serde's
///   `rename`).
/// * Fields after a `;` are optional (serde's `default` plus
///   `skip_serializing_if`): each is written only while it differs from
///   its type's `Default`, and reads back as that default when absent.
/// * Decoding rejects any key the struct does not name (serde's
///   `deny_unknown_fields`); the error names the type, the key and the
///   known keys.
#[macro_export]
macro_rules! json_struct {
    ($ty:ident {
        $($field:ident $(as $key:literal)?),+ $(,)?
        $(; $($opt:ident $(as $okey:literal)?),+ $(,)?)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                #[allow(unused_mut)]
                let mut pairs = vec![
                    $((
                        $crate::json_struct!(@key $field $($key)?).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ];
                $($(
                    if !$crate::json::is_default(&self.$opt) {
                        pairs.push((
                            $crate::json_struct!(@key $opt $($okey)?).to_string(),
                            $crate::json::ToJson::to_json(&self.$opt),
                        ));
                    }
                )+)?
                $crate::json::Json::Obj(pairs)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let ctx = |e: $crate::json::JsonError| e.context(stringify!($ty));
                $crate::json::deny_unknown_keys(v, &[
                    $($crate::json_struct!(@key $field $($key)?),)+
                    $($($crate::json_struct!(@key $opt $($okey)?),)+)?
                ])
                .map_err(ctx)?;
                Ok($ty {
                    $($field: $crate::json::field(v, $crate::json_struct!(@key $field $($key)?))
                        .map_err(ctx)?,)+
                    $($($opt: $crate::json::opt_field(v, $crate::json_struct!(@key $opt $($okey)?))
                        .map_err(ctx)?,)+)?
                })
            }
        }
    };
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum in serde's externally
/// tagged layout: a unit variant is its name string, a struct variant
/// `V { a, b }` is `{"V": {"a": .., "b": ..}}`, and a one-field tuple
/// variant `V(x)` is `{"V": x}` (`x` names the field for the generated
/// match). Decoding rejects unknown variants and unknown body keys.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident {
        $($variant:ident $({ $($field:ident),+ $(,)? })? $(($inner:ident))?),+ $(,)?
    }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                match self {
                    $($ty::$variant $({ $($field),+ })? $(($inner))? => {
                        $crate::json_enum!(@to $variant $({ $($field),+ })? $(($inner))?)
                    })+
                }
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                let (tag, body) = $crate::json::variant(stringify!($ty), v)?;
                match tag {
                    $(stringify!($variant) => {
                        $crate::json_enum!(@from $ty $variant $({ $($field),+ })? $(($inner))?; body)
                    })+
                    other => Err($crate::json::JsonError::new(format!(
                        "unknown {} variant {:?}",
                        stringify!($ty),
                        other
                    ))),
                }
            }
        }
    };
    (@to $variant:ident) => {
        $crate::json::Json::Str(stringify!($variant).to_string())
    };
    (@to $variant:ident { $($field:ident),+ }) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::Json::Obj(vec![
                $((stringify!($field).to_string(), $crate::json::ToJson::to_json($field))),+
            ]),
        )])
    };
    (@to $variant:ident ($inner:ident)) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::ToJson::to_json($inner),
        )])
    };
    (@from $ty:ident $variant:ident; $body:ident) => {
        match $body {
            None => Ok($ty::$variant),
            Some(_) => Err($crate::json::JsonError::new(format!(
                "{} variant {:?} takes no body",
                stringify!($ty),
                stringify!($variant)
            ))),
        }
    };
    (@from $ty:ident $variant:ident { $($field:ident),+ }; $body:ident) => {{
        let ctx = |e: $crate::json::JsonError| e.context(stringify!($variant));
        let body = $crate::json_enum!(@body $ty $variant $body)?;
        $crate::json::deny_unknown_keys(body, &[$(stringify!($field)),+]).map_err(ctx)?;
        Ok($ty::$variant {
            $($field: $crate::json::field(body, stringify!($field)).map_err(ctx)?),+
        })
    }};
    (@from $ty:ident $variant:ident ($inner:ident); $body:ident) => {{
        let body = $crate::json_enum!(@body $ty $variant $body)?;
        Ok($ty::$variant(
            $crate::json::FromJson::from_json(body)
                .map_err(|e| e.context(stringify!($variant)))?,
        ))
    }};
    (@body $ty:ident $variant:ident $body:ident) => {
        $body.ok_or_else(|| {
            $crate::json::JsonError::new(format!(
                "{} variant {:?} needs a body",
                stringify!($ty),
                stringify!($variant)
            ))
        })
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct
/// by delegating to the inner value (serde's `#[serde(transparent)]`).
#[macro_export]
macro_rules! json_newtype {
    ($ty:ident) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($ty(
                    $crate::json::FromJson::from_json(v).map_err(|e| e.context(stringify!($ty)))?
                ))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["0", "42", "-17", "1.5", "true", "false", "null", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(false), text, "round-trip of {text}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        let neg = i64::MIN;
        let v = Json::parse(&neg.to_string()).unwrap();
        assert_eq!(v.as_i64(), Some(neg));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1e300, -2.5e-10, std::f64::consts::PI] {
            let text = Json::F64(f).render(false);
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(f));
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::U64(1), Json::Null])),
            ("b".into(), Json::Str("x\"\\\n".into())),
            ("c".into(), Json::Obj(vec![])),
        ]);
        for pretty in [false, true] {
            assert_eq!(Json::parse(&v.render(pretty)).unwrap(), v);
        }
    }

    #[test]
    fn u128_beyond_u64_uses_strings() {
        let big = u64::MAX as u128 + 1;
        let j = big.to_json();
        assert_eq!(j, Json::Str(big.to_string()));
        assert_eq!(u128::from_json(&j).unwrap(), big);
        assert_eq!(u128::from_json(&Json::U64(7)).unwrap(), 7);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "tru",
            "[1,",
            "{\"a\":}",
            "1 2",
            "{1: 2}",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn option_fields_tolerate_missing_keys() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u32,
            b: Option<u32>,
        }
        crate::json_struct!(S { a, b });
        let parsed = S::from_json_str(r#"{"a": 1}"#).unwrap();
        assert_eq!(parsed, S { a: 1, b: None });
        assert!(S::from_json_str(r#"{"b": 2}"#).is_err(), "missing a");
    }

    #[test]
    fn maps_round_trip_with_non_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_string());
        m.insert(7u32, "seven".to_string());
        let back: BTreeMap<u32, String> =
            BTreeMap::from_json(&Json::parse(&m.to_json_string()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn hash_containers_render_in_key_order() {
        // Two maps with independently keyed hashers, filled in opposite
        // orders, iterate differently but must render identically — as
        // the key-ordered BTreeMap does.
        let keys: Vec<u64> = (0..200).map(|i| i * 7919 % 1009).collect();
        let forward: HashMap<u64, u64> = keys.iter().map(|&k| (k, k * 3)).collect();
        let backward: HashMap<u64, u64> = keys.iter().rev().map(|&k| (k, k * 3)).collect();
        let ordered: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k * 3)).collect();
        assert_eq!(forward.to_json_string(), ordered.to_json_string());
        assert_eq!(backward.to_json_string(), ordered.to_json_string());
        let back: HashMap<u64, u64> = HashMap::from_json_str(&forward.to_json_string()).unwrap();
        assert_eq!(back, forward);

        let set: HashSet<u64> = keys.iter().copied().collect();
        let mut sorted: Vec<u64> = set.iter().copied().collect();
        sorted.sort_unstable();
        assert_eq!(set.to_json_string(), sorted.to_json_string());
        let back: HashSet<u64> = HashSet::from_json_str(&set.to_json_string()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn unit_enum_macro_round_trips() {
        #[derive(Debug, PartialEq)]
        enum E {
            Alpha,
            Beta,
        }
        crate::json_enum!(E { Alpha, Beta });
        assert_eq!(E::Alpha.to_json_string(), "\"Alpha\"");
        assert_eq!(E::from_json_str("\"Beta\"").unwrap(), E::Beta);
        assert!(E::from_json_str("\"Gamma\"").is_err());
    }

    #[test]
    fn struct_macro_renames_omits_defaults_and_denies_unknown_keys() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u32,
            b: Option<u32>,
            on: bool,
        }
        crate::json_struct!(S { a as "alpha"; b, on });
        let off = S {
            a: 1,
            b: None,
            on: false,
        };
        let full = S {
            a: 1,
            b: Some(2),
            on: true,
        };
        assert_eq!(off.to_json_string(), r#"{"alpha":1}"#);
        assert_eq!(full.to_json_string(), r#"{"alpha":1,"b":2,"on":true}"#);
        for s in [&off, &full] {
            assert_eq!(&S::from_json_str(&s.to_json_string()).unwrap(), s);
        }
        let err = S::from_json_str(r#"{"alpha":1,"bb":2}"#).unwrap_err();
        assert_eq!(
            err.msg,
            r#"S: unknown key "bb"; expected one of alpha, b, on"#
        );
        assert!(
            S::from_json_str(r#"{"a":1}"#).is_err(),
            "the old name is unknown"
        );
        assert!(S::from_json_str(r#"{"alpha":1,"on":null}"#).is_err());
        assert!(S::from_json_str("[]").is_err());
    }

    #[test]
    fn enum_macro_writes_serde_layout_and_denies_unknowns() {
        #[derive(Debug, PartialEq)]
        enum E {
            Unit,
            Pair { x: u32, y: Option<u32> },
            Wrap(bool),
        }
        crate::json_enum!(E { Unit, Pair { x, y }, Wrap(inner) });
        let cases = [
            (E::Unit, r#""Unit""#),
            (E::Pair { x: 1, y: None }, r#"{"Pair":{"x":1,"y":null}}"#),
            (E::Wrap(true), r#"{"Wrap":true}"#),
        ];
        for (e, text) in cases {
            assert_eq!(e.to_json_string(), text);
            assert_eq!(E::from_json_str(text).unwrap(), e);
        }
        for bad in [
            r#""Triple""#,
            r#"{"Triple":1}"#,
            r#"{"Unit":{}}"#,
            r#""Pair""#,
            r#"{"Pair":{"x":1,"z":2}}"#,
            r#"{"Wrap":1}"#,
            r#"{"Pair":{"x":1},"Wrap":true}"#,
            "7",
        ] {
            assert!(E::from_json_str(bad).is_err(), "{bad} should fail");
        }
        let err = E::from_json_str(r#"{"Pair":{"x":1,"z":2}}"#).unwrap_err();
        assert_eq!(err.msg, r#"Pair: unknown key "z"; expected one of x, y"#);
    }

    #[test]
    fn newtype_macro_is_transparent() {
        #[derive(Debug, PartialEq)]
        struct W(u64);
        crate::json_newtype!(W);
        assert_eq!(W(9).to_json_string(), "9");
        assert_eq!(W::from_json_str("9").unwrap(), W(9));
    }

    #[test]
    fn byte_arrays_round_trip() {
        let a: [u8; 4] = [1, 2, 3, 255];
        let j = a.to_json_string();
        assert_eq!(j, "[1,2,3,255]");
        assert_eq!(<[u8; 4]>::from_json_str(&j).unwrap(), a);
        assert!(<[u8; 4]>::from_json_str("[1,2]").is_err());
    }
}
