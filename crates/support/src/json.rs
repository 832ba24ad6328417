//! JSON without `serde`: a value type, parser, writer, and the
//! [`ToJson`] / [`FromJson`] traits with derive-like impl macros. One
//! parser serves two entry points: [`parse`] builds the [`Json`] tree,
//! [`visit_members`] hands out a top-level object's members as borrowed
//! [`Scalar`]s without building one (the trace reader's hot path).
//!
//! Determinism is part of the contract: map- and set-like containers are
//! serialized with sorted keys, struct fields in declaration order, and
//! floats in Rust's shortest round-trip form — so equal values always
//! produce byte-identical JSON, which the workspace's reproducibility
//! tests rely on.
//!
//! # Example
//!
//! ```
//! use smash_support::json::{FromJson, Json, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: i64, y: i64 }
//! smash_support::impl_json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: -4 };
//! let s = smash_support::json::to_string(&p);
//! assert_eq!(s, r#"{"x":3,"y":-4}"#);
//! let back: Point = smash_support::json::from_str(&s).unwrap();
//! assert_eq!(back, p);
//! ```

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::net::Ipv4Addr;

use crate::swar;

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are written exactly as built);
/// integers keep full 64-bit precision instead of flowing through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (or any integer parsed with a leading `-`).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The object's key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A one-word description of the value's type, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::UInt(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------- writer

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn float_into(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip representation and always
        // contains a `.` or exponent for non-integral semantics; integral
        // floats print as e.g. `1.0`, still valid JSON.
        out.push_str(&format!("{x:?}"));
    } else {
        // Like serde_json: non-finite numbers have no JSON form.
        out.push_str("null");
    }
}

fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Float(x) => float_into(*x, out),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Json, indent: usize, out: &mut String) {
    const PAD: &str = "  ";
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&PAD.repeat(indent + 1));
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push(']');
        }
        Json::Obj(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&PAD.repeat(indent + 1));
                escape_into(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&PAD.repeat(indent));
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_compact(self, &mut s);
        f.write_str(&s)
    }
}

// ---------------------------------------------------------------- parser

/// Deepest array/object nesting the parser accepts. Record lines are
/// flat and reports nest under 10 levels; without a cap one hostile line
/// of `[[[[…` recurses `value → array → value` until the stack overflows
/// and the process aborts.
pub const MAX_DEPTH: usize = 128;

/// A scalar JSON value as the parser lexes it: numbers keep the
/// [`Json`] integer/float split, and a string borrows from the input
/// unless it contained an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (or any integer parsed with a leading `-`).
    Int(i64),
    /// A non-negative integer.
    UInt(u64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string, unescaped.
    Str(Cow<'a, str>),
}

impl Scalar<'_> {
    /// The number as a `u64`, by the rule of the unsigned [`FromJson`]
    /// impls: an integer that is not negative, or an integral float in
    /// range. `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Scalar::UInt(u) => Some(u),
            Scalar::Int(i) => u64::try_from(i).ok(),
            Scalar::Float(x) if x.fract() == 0.0 && x >= 0.0 && x <= u64::MAX as f64 => {
                Some(x as u64)
            }
            _ => None,
        }
    }
}

impl From<Scalar<'_>> for Json {
    fn from(s: Scalar<'_>) -> Json {
        match s {
            Scalar::Null => Json::Null,
            Scalar::Bool(b) => Json::Bool(b),
            Scalar::Int(i) => Json::Int(i),
            Scalar::UInt(u) => Json::UInt(u),
            Scalar::Float(x) => Json::Float(x),
            Scalar::Str(s) => Json::Str(s.into_owned()),
        }
    }
}

/// The one JSON grammar: [`parse`] builds a [`Json`] tree with it and
/// [`visit_members`] walks a top-level object without building one.
/// The methods a member walk runs are `#[inline]`: `visit_members` is
/// generic, so it is compiled in its caller's crate (the JSONL reader's),
/// where each of them would otherwise be a call into this one.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open, at most [`MAX_DEPTH`].
    depth: usize,
}

/// How many leading bytes of `bytes` a string takes as they are: up to
/// the first quote, backslash or control character, or all of them.
#[inline]
fn plain_run(bytes: &[u8]) -> usize {
    swar::position(bytes, |w| {
        swar::equal(w, b'"') | swar::equal(w, b'\\') | swar::below(w, 0x20)
    })
    .unwrap_or(bytes.len())
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// The error at the current byte. Cold and out of line, with the
    /// message formatted here: the hot paths carry a call, not a
    /// `format!`.
    #[cold]
    #[inline(never)]
    fn fail<T>(&self, msg: impl fmt::Display) -> Result<T, JsonError> {
        err(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The unread input. The lexer only ever steps over ASCII bytes or
    /// up to one, so `pos` is always a character boundary.
    #[inline]
    fn rest(&self) -> &'a str {
        self.src.get(self.pos..).unwrap_or_default()
    }

    /// `src[start..self.pos]`, both character boundaries as in
    /// [`rest`](Self::rest).
    #[inline]
    fn since(&self, start: usize) -> &'a str {
        self.src.get(start..self.pos).unwrap_or_default()
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(format_args!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Scalar<'a>) -> Result<Scalar<'a>, JsonError> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.fail(format_args!("expected `{lit}`"))
        }
    }

    /// Fails unless the whole input has been consumed.
    fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return self.fail("trailing characters");
        }
        Ok(())
    }

    /// Opens an array or object (the caller has peeked `open`).
    fn enter(&mut self, open: u8) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return self.fail(format_args!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        self.eat(open)
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.array(),
            Some(b'{') => {
                let mut fields = Vec::new();
                self.object(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            _ => self.scalar().map(Json::from),
        }
    }

    #[inline]
    fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Scalar::Null),
            Some(b't') => self.eat_literal("true", Scalar::Bool(true)),
            Some(b'f') => self.eat_literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => self.fail(format_args!("unexpected byte `{}`", b as char)),
            None => self.fail("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return self.fail("expected `,` or `]`"),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    /// Walks one object; `member` is handed each key with the parser
    /// positioned after the `:` and must consume exactly the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.enter(b'{')?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                member(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return self.fail("expected `,` or `}`"),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Advances over string bytes that stand for themselves: everything
    /// up to the next quote, backslash or control character (all ASCII,
    /// so multi-byte characters are stepped over whole), eight bytes a
    /// step.
    #[inline]
    fn skip_plain(&mut self) {
        let rest = self.rest().as_bytes();
        self.pos += plain_run(rest);
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            let s = self.since(start);
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut out = self.since(start).to_owned();
        loop {
            match self.peek() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(b) if b < 0x20 => return self.fail("unescaped control character"),
                Some(_) => {
                    let run = self.pos;
                    self.skip_plain();
                    out.push_str(self.since(run));
                }
            }
        }
    }

    /// The character named by the escape whose backslash was just read.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.fail("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| JsonError("bad \\u escape".into()))?;
        self.pos += 4;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.rest().starts_with("\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return self.fail("bad low surrogate");
                }
                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(c).ok_or_else(|| JsonError("bad surrogate pair".into()));
            }
            return self.fail("lone high surrogate");
        }
        char::from_u32(hi).ok_or_else(|| JsonError("bad \\u escape".into()))
    }

    #[inline]
    fn number(&mut self) -> Result<Scalar<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            saw_digit = true;
        }
        if !saw_digit {
            return self.fail("expected digits");
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self.since(start);
        if integral {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped != "0" {
                    if let Ok(i) = text.parse::<i64>() {
                        return Ok(Scalar::Int(i));
                    }
                } else {
                    return Ok(Scalar::Int(0));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Scalar::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Scalar::Float(x)),
            Err(_) => self.fail("bad number"),
        }
    }
}

/// Parses a string into a [`Json`] value.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax violation,
/// nesting deeper than [`MAX_DEPTH`] included.
pub fn parse(s: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// Validates `s` as one JSON value — the same grammar and errors as
/// [`parse`] — and, when that value is an object, hands `f` each of its
/// members in input order without building a tree: a scalar value as
/// `Some`, borrowing from `s`; an array or object value as `None`
/// (validated, then dropped). Duplicate keys are all visited. A
/// top-level value that is not an object has no members.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax violation; `f`
/// may already have seen the members before it.
pub fn visit_members<'a>(
    s: &'a str,
    mut f: impl FnMut(&str, Option<Scalar<'a>>),
) -> Result<(), JsonError> {
    let mut p = Parser::new(s);
    p.skip_ws();
    if p.peek() == Some(b'{') {
        p.object(|p, key| {
            p.skip_ws();
            let scalar = match p.peek() {
                Some(b'[' | b'{') => {
                    p.value()?;
                    None
                }
                _ => Some(p.scalar()?),
            };
            f(&key, scalar);
            Ok(())
        })?;
    } else {
        p.value()?;
    }
    p.finish()
}

// ---------------------------------------------------------------- traits

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Builds `Self` from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the value has the wrong shape.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    out
}

/// Serializes `value` to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out);
    out
}

/// Parses `s` and converts it to `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

// ------------------------------------------------------- primitive impls

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
        match v {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let number = match *v {
                    Json::UInt(u) => Scalar::UInt(u),
                    Json::Int(i) => Scalar::Int(i),
                    Json::Float(x) => Scalar::Float(x),
                    _ => Scalar::Null,
                };
                let Some(u) = number.as_u64() else {
                    return err(format!("expected unsigned integer, got {}", v.kind()));
                };
                <$t>::try_from(u).map_err(|_| JsonError(format!(
                    "integer {u} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i >= 0 { Json::UInt(i as u64) } else { Json::Int(i) }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = match v {
                    Json::Int(i) => *i,
                    Json::UInt(u) if *u <= i64::MAX as u64 => *u as i64,
                    Json::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => *x as i64,
                    other => return err(format!(
                        "expected integer, got {}", other.kind()
                    )),
                };
                <$t>::try_from(i).map_err(|_| JsonError(format!(
                    "integer {i} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::UInt(u) => Ok(*u as f64),
            Json::Null => Ok(f64::NAN), // non-finite floats serialize as null
            other => err(format!("expected number, got {}", other.kind())),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|x| x as f32)
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
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }
}

impl ToJson for Ipv4Addr {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Ipv4Addr {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => s
                .parse()
                .map_err(|_| JsonError(format!("bad IPv4 literal `{s}`"))),
            other => err(format!("expected IPv4 string, got {}", other.kind())),
        }
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

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => err(format!("expected array, got {}", other.kind())),
        }
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
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => err("expected 2-element array"),
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
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => err("expected 3-element array"),
        }
    }
}

/// Maps serialize as objects with keys sorted, for deterministic output.
impl<V: ToJson> ToJson for HashMap<String, V> {
    fn to_json(&self) -> Json {
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_json()))
                .collect(),
        )
    }
}

impl<V: FromJson> FromJson for HashMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
                .collect(),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, val)| Ok((k.clone(), V::from_json(val)?)))
                .collect(),
            other => err(format!("expected object, got {}", other.kind())),
        }
    }
}

/// Sets serialize as sorted arrays, for deterministic output.
impl ToJson for HashSet<String> {
    fn to_json(&self) -> Json {
        let mut items: Vec<&String> = self.iter().collect();
        items.sort();
        Json::Arr(items.into_iter().map(|s| Json::Str(s.clone())).collect())
    }
}

impl FromJson for HashSet<String> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<String>::from_json(v).map(|v| v.into_iter().collect())
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Vec::<T>::from_json(v).map(|v| v.into_iter().collect())
    }
}

// ------------------------------------------------------- field helpers

/// Looks up a required struct field.
///
/// # Errors
///
/// Fails when the key is missing or its value has the wrong shape.
pub fn req_field<T: FromJson>(obj: &[(String, Json)], name: &str) -> Result<T, JsonError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
        None => err(format!("missing field `{name}`")),
    }
}

/// Looks up an optional struct field, defaulting when absent (the
/// `#[serde(default)]` replacement for format evolution).
///
/// # Errors
///
/// Fails only when the key is present with the wrong shape.
pub fn opt_field<T: FromJson + Default>(
    obj: &[(String, Json)],
    name: &str,
) -> Result<T, JsonError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_json(v).map_err(|e| JsonError(format!("field `{name}`: {}", e.0))),
        None => Ok(T::default()),
    }
}

/// Token-muncher collecting `(name, value)` pairs for `to_json`.
/// Internal to [`impl_json_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_push_fields {
    ($self:ident, $vec:ident,) => {};
    ($self:ident, $vec:ident, $f:ident ? $(, $($rest:tt)*)?) => {
        $vec.push((
            stringify!($f).to_owned(),
            $crate::json::ToJson::to_json(&$self.$f),
        ));
        $crate::__json_push_fields!($self, $vec, $($($rest)*)?);
    };
    ($self:ident, $vec:ident, $f:ident $(, $($rest:tt)*)?) => {
        $vec.push((
            stringify!($f).to_owned(),
            $crate::json::ToJson::to_json(&$self.$f),
        ));
        $crate::__json_push_fields!($self, $vec, $($($rest)*)?);
    };
}

/// Token-muncher building the `Self { … }` literal for `from_json`;
/// `field ?` defaults when the key is missing. Internal to
/// [`impl_json_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __json_from_fields {
    ($obj:ident, { $($acc:tt)* },) => {
        Self { $($acc)* }
    };
    ($obj:ident, { $($acc:tt)* }, $f:ident ? $(, $($rest:tt)*)?) => {
        $crate::__json_from_fields!(
            $obj,
            { $($acc)* $f: $crate::json::opt_field($obj, stringify!($f))?, },
            $($($rest)*)?
        )
    };
    ($obj:ident, { $($acc:tt)* }, $f:ident $(, $($rest:tt)*)?) => {
        $crate::__json_from_fields!(
            $obj,
            { $($acc)* $f: $crate::json::req_field($obj, stringify!($f))?, },
            $($($rest)*)?
        )
    };
}

/// Implements [`ToJson`](crate::json::ToJson) and [`FromJson`](crate::json::FromJson)
/// for a struct with named fields, serialized as a JSON object in
/// declaration order. Append `?` to a field name to default it when the
/// key is absent (format evolution, the old `#[serde(default)]`).
///
/// ```
/// # use smash_support::impl_json_struct;
/// #[derive(Debug, PartialEq, Default)]
/// struct Rec { id: u32, tags: Vec<String>, extra: u32 }
/// impl_json_struct!(Rec { id, tags, extra? });
///
/// let r: Rec = smash_support::json::from_str(r#"{"id":4,"tags":[]}"#).unwrap();
/// assert_eq!(r, Rec { id: 4, tags: vec![], extra: 0 });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ty { $($fields:tt)* }) => {
        impl $crate::json::ToJson for $ty {
            // With a single-field struct the expansion is one push after
            // `Vec::new()`, which trips `vec_init_then_push`.
            #[allow(clippy::vec_init_then_push)]
            fn to_json(&self) -> $crate::json::Json {
                let mut fields: Vec<(String, $crate::json::Json)> = Vec::new();
                $crate::__json_push_fields!(self, fields, $($fields)*);
                $crate::json::Json::Obj(fields)
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                let obj = v.as_obj().ok_or_else(|| $crate::json::JsonError(
                    format!("expected object for {}", stringify!($ty)),
                ))?;
                Ok($crate::__json_from_fields!(obj, {}, $($fields)*))
            }
        }
    };
}

/// Implements [`ToJson`](crate::json::ToJson) and [`FromJson`](crate::json::FromJson)
/// for a fieldless enum, serialized as the variant name string (serde's
/// unit-variant convention).
///
/// ```
/// # use smash_support::impl_json_enum;
/// #[derive(Debug, PartialEq)]
/// enum Color { Red, Blue }
/// impl_json_enum!(Color { Red, Blue });
///
/// assert_eq!(smash_support::json::to_string(&Color::Red), r#""Red""#);
/// let c: Color = smash_support::json::from_str(r#""Blue""#).unwrap();
/// assert_eq!(c, Color::Blue);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ty { $($variant:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let name = match self {
                    $(<$ty>::$variant => stringify!($variant)),*
                };
                $crate::json::Json::Str(name.to_owned())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok(<$ty>::$variant),)*
                    Some(other) => Err($crate::json::JsonError(format!(
                        "unknown {} variant `{other}`", stringify!($ty),
                    ))),
                    None => Err($crate::json::JsonError(format!(
                        "expected string for {}", stringify!($ty),
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "18446744073709551615",
            "1.5",
            "-2.25e3",
            "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            let s = to_string(&v);
            assert_eq!(parse(&s).unwrap(), v, "src = {src}");
        }
    }

    #[test]
    fn integers_keep_precision() {
        assert_eq!(
            parse("9007199254740993").unwrap(),
            Json::UInt(9007199254740993)
        );
        assert_eq!(
            parse("-9007199254740993").unwrap(),
            Json::Int(-9007199254740993)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{08}\u{0C}\r ünîcødé 🦀 \u{1}";
        let json = to_string(&s.to_owned());
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn unicode_escape_parsing() {
        let v: String = from_str(r#""\u0041\u00e9\ud83e\udd80""#).unwrap();
        assert_eq!(v, "Aé🦀");
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#" { "a" : [1, 2.5, {"b": null}], "c": [] } "#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Arr(vec![])));
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01x",
            "\"\\q\"",
            "nul",
            "[1] extra",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok());
            let e = parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(e.0.contains("nesting deeper"), "{e}");
            // A member's value sits one level below the visited object.
            let member = |n| format!("{{\"m\":{}}}", nested(open, close, n));
            assert!(visit_members(&member(MAX_DEPTH - 1), |_, _| {}).is_ok());
            assert!(visit_members(&member(MAX_DEPTH), |_, _| {}).is_err());
        }
        // The hostile line: never closed, far deeper than any stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(visit_members(&format!("{{\"m\":{}", "[".repeat(200_000)), |_, _| {}).is_err());
        // Closing a container gives its level back.
        let siblings = format!("[{}]", vec!["[[]]"; 4 * MAX_DEPTH].join(","));
        assert!(parse(&siblings).is_ok());
    }

    #[test]
    fn visited_members_borrow_unless_escaped() {
        let src = r#" {"plain":"héllo 🦀","esc":"a\n\u00e9","k\u0031":-0,"f":1e3,
            "nest":[1,{"x":null}],"plain":true,"n":null} "#;
        let mut seen = Vec::new();
        visit_members(src, |k, v| seen.push((k.to_owned(), v))).unwrap();
        let keys: Vec<&str> = seen.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["plain", "esc", "k1", "f", "nest", "plain", "n"]);
        assert!(matches!(
            &seen[0].1,
            Some(Scalar::Str(Cow::Borrowed("héllo 🦀")))
        ));
        assert!(matches!(&seen[1].1, Some(Scalar::Str(Cow::Owned(s))) if s == "a\né"));
        assert_eq!(seen[2].1, Some(Scalar::Int(0)));
        assert_eq!(seen[3].1, Some(Scalar::Float(1000.0)));
        assert_eq!(seen[4].1, None);
        assert_eq!(seen[5].1, Some(Scalar::Bool(true)));
        assert_eq!(seen[6].1, Some(Scalar::Null));
        // Not an object: valid, no members. Invalid: the same error as `parse`.
        assert!(visit_members("[1,2]", |_, _| panic!("no members")).is_ok());
        for bad in ["{\"a\":1} x", "{\"a\":[1,}", "{\"a\":\"\u{1}\"}", "", "[1"] {
            assert_eq!(
                visit_members(bad, |_, _| {}).unwrap_err(),
                parse(bad).unwrap_err()
            );
        }
    }

    /// A random value nesting at most `depth` containers deep.
    fn arbitrary(g: &mut crate::check::Gen, depth: usize) -> Json {
        let text = |g: &mut crate::check::Gen| g.string(0..=6, "ab\"\\/\n\u{1}é🦀 ");
        match g.range(0..if depth == 0 { 6 } else { 8 }) {
            0 => Json::Null,
            1 => Json::Bool(g.bool(0.5)),
            2 => Json::UInt(g.u64() >> g.range(0..64u32)),
            3 => Json::Int(-((g.u64() >> g.range(1..64u32)) as i64) - 1),
            4 => Json::Float(g.unit() * 1e6 - 5e5),
            5 => Json::Str(text(g)),
            6 => Json::Arr(g.vec(0..4, |g| arbitrary(g, depth - 1))),
            _ => Json::Obj(g.vec(0..4, |g| (text(g), arbitrary(g, depth - 1)))),
        }
    }

    #[test]
    fn a_plain_run_ends_where_a_bytewise_scan_ends_it() {
        // Quotes, backslashes, control bytes, the bytes either side of
        // 0x20 and bytes ≥ 0x80, at every offset of words and tails.
        crate::check::cases(512).run(
            |g| {
                g.vec(0..=40usize, |g| {
                    *g.pick(b"\"\\\x00\x1f\x20\x21\n\ra.\x7f\x80\xff\xc3\xa9")
                })
            },
            |bytes: &Vec<u8>| {
                let bytewise = bytes
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .unwrap_or(bytes.len());
                assert_eq!(plain_run(bytes), bytewise);
            },
        );
    }

    #[test]
    fn visitor_agrees_with_the_tree_on_valid_and_broken_text() {
        // One grammar, two consumers: whatever the text, `visit_members`
        // accepts exactly what `parse` accepts and sees exactly the
        // tree's top-level members.
        crate::check::check(
            |g| {
                let mut text = to_string(&arbitrary(g, 3)).into_bytes();
                if g.bool(0.5) && !text.is_empty() {
                    let at = g.range(0..text.len());
                    match g.range(0..3u8) {
                        0 => text.truncate(at),
                        1 => text[at] = *g.pick(b"\"\\{}[],:0-e.nu \x01"),
                        _ => text.insert(at, *g.pick(b"\"\\{}[],:0-e.nu \x01")),
                    }
                }
                String::from_utf8_lossy(&text).into_owned()
            },
            |text| {
                let mut members = Vec::new();
                let visited = visit_members(text, |k, v| members.push((k.to_owned(), v)));
                let tree = parse(text);
                assert_eq!(visited.as_ref().err(), tree.as_ref().err());
                let Ok(tree) = tree else { return };
                let fields = tree.as_obj().unwrap_or_default();
                assert_eq!(members.len(), fields.len());
                for ((key, scalar), (k, v)) in members.into_iter().zip(fields) {
                    assert_eq!(&key, k);
                    match scalar {
                        Some(s) => assert_eq!(&Json::from(s), v),
                        None => assert!(matches!(v, Json::Arr(_) | Json::Obj(_))),
                    }
                }
            },
        );
    }

    #[test]
    fn float_round_trip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0f64.powi(60)] {
            let s = to_string(&x);
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "x = {x}, s = {s}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
    }

    #[test]
    fn maps_serialize_sorted() {
        let mut m = HashMap::new();
        m.insert("zebra".to_owned(), 1u32);
        m.insert("apple".to_owned(), 2u32);
        m.insert("mango".to_owned(), 3u32);
        assert_eq!(to_string(&m), r#"{"apple":2,"mango":3,"zebra":1}"#);
    }

    #[test]
    fn sets_serialize_sorted() {
        let mut s = HashSet::new();
        s.insert("b".to_owned());
        s.insert("a".to_owned());
        assert_eq!(to_string(&s), r#"["a","b"]"#);
    }

    #[test]
    fn option_round_trips() {
        assert_eq!(to_string(&None::<u32>), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("5").unwrap(), Some(5));
    }

    #[test]
    fn ipv4_round_trips() {
        let ip: Ipv4Addr = "10.0.0.255".parse().unwrap();
        let s = to_string(&ip);
        assert_eq!(s, r#""10.0.0.255""#);
        assert_eq!(from_str::<Ipv4Addr>(&s).unwrap(), ip);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Demo {
        name: String,
        count: u32,
        ratio: f64,
        alias: Option<String>,
        extra: u32,
    }
    impl_json_struct!(Demo { name, count, ratio, alias, extra? });

    #[test]
    fn struct_macro_round_trips() {
        let d = Demo {
            name: "x".into(),
            count: 3,
            ratio: 0.5,
            alias: None,
            extra: 9,
        };
        let s = to_string(&d);
        assert_eq!(
            s,
            r#"{"name":"x","count":3,"ratio":0.5,"alias":null,"extra":9}"#
        );
        assert_eq!(from_str::<Demo>(&s).unwrap(), d);
    }

    #[test]
    fn struct_macro_defaults_marked_fields() {
        let d: Demo = from_str(r#"{"name":"y","count":1,"ratio":2.0,"alias":"z"}"#).unwrap();
        assert_eq!(d.extra, 0);
        assert_eq!(d.alias.as_deref(), Some("z"));
    }

    #[test]
    fn struct_macro_rejects_missing_required() {
        assert!(from_str::<Demo>(r#"{"count":1,"ratio":2.0,"alias":null}"#).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Kind {
        Alpha,
        Beta,
    }
    impl_json_enum!(Kind { Alpha, Beta });

    #[test]
    fn enum_macro_round_trips() {
        assert_eq!(to_string(&Kind::Alpha), r#""Alpha""#);
        assert_eq!(from_str::<Kind>(r#""Beta""#).unwrap(), Kind::Beta);
        assert!(from_str::<Kind>(r#""Gamma""#).is_err());
        assert!(from_str::<Kind>("3").is_err());
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true},"d":[]}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut m = HashMap::new();
        for i in 0..50 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(to_string(&m), to_string(&m.clone()));
    }
}
