//! The sweep service's one JSON codec: writers pass every string
//! through [`escape`]; readers [`parse`] a whole document once and read
//! members with [`Json::field`]. Only objects, arrays, strings, bools
//! and unsigned integers that fit a `u64` parse; floats, negatives,
//! `null`, truncation and trailing bytes are `None`, never misread.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    Num(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first member named `key`, when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Member `key` as a `T`; `None` when it is absent or of another
    /// type.
    #[must_use]
    pub fn field<T: FromJson>(&self, key: &str) -> Option<T> {
        T::from_json(self.get(key)?)
    }
}

/// A type read from a [`Json`] value; `None` on a shape mismatch.
pub trait FromJson: Sized {
    /// Convert `value`.
    fn from_json(value: &Json) -> Option<Self>;
}

macro_rules! from_variant {
    ($($ty:ty => $variant:ident),*) => {$(
        impl FromJson for $ty {
            fn from_json(value: &Json) -> Option<Self> {
                let Json::$variant(v) = value else { return None };
                Some(v.clone())
            }
        }
    )*};
}
from_variant!(bool => Bool, u64 => Num, String => Str);

impl FromJson for u32 {
    fn from_json(value: &Json) -> Option<Self> {
        u32::try_from(u64::from_json(value)?).ok()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Option<Self> {
        let Json::Arr(items) = value else { return None };
        items.iter().map(T::from_json).collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Json) -> Option<Self> {
        Vec::from_json(value)?.try_into().ok()
    }
}

/// Escape a string for embedding in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render strings as a JSON array of escaped string literals.
#[must_use]
pub fn str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(","))
}

/// Parse one whole document; `None` unless `text` is exactly one value
/// of the accepted subset, with optional whitespace around it.
#[must_use]
pub fn parse(text: &str) -> Option<Json> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    (p.pos == text.len()).then_some(value)
}

/// Nesting bound (the service's documents nest three deep), so a
/// hostile batch line cannot exhaust the stack.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, then consume `byte`, or `None` if it is not next.
    fn eat(&mut self, byte: u8) -> Option<()> {
        self.skip_ws();
        (self.peek() == Some(byte)).then(|| self.pos += 1)
    }

    fn value(&mut self, depth: usize) -> Option<Json> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        match *rest.as_bytes().first()? {
            _ if depth > MAX_DEPTH => None,
            b'{' => {
                let mut members = Vec::new();
                self.seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Some(())
                })?;
                Some(Json::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.seq(b']', |p| p.value(depth + 1).map(|v| items.push(v)))?;
                Some(Json::Arr(items))
            }
            b'"' => self.string().map(Json::Str),
            // JSON has no leading zeros.
            b'0' if rest[1..].starts_with(|c: char| c.is_ascii_digit()) => None,
            b'0'..=b'9' => {
                let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                self.pos += digits;
                rest[..digits].parse().ok().map(Json::Num)
            }
            _ => {
                let truth = rest.starts_with("true");
                let word = if truth { "true" } else { "false" };
                self.pos += word.len();
                rest.starts_with(word).then_some(Json::Bool(truth))
            }
        }
    }

    /// The comma-separated items of an object or array whose opening
    /// bracket is next, through its closing `close`.
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.pos += 1;
        let mut first = true;
        while self.eat(close).is_none() {
            if !std::mem::take(&mut first) {
                self.eat(b',')?;
            }
            item(self)?;
        }
        Some(())
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let text = self.text;
        let mut out = String::new();
        loop {
            let end = self.pos + text[self.pos..].find(|c| c == '"' || c == '\\' || c < ' ')?;
            out.push_str(&text[self.pos..end]);
            self.pos = end + 1;
            match text.as_bytes()[end] {
                b'"' => return Some(out),
                b'\\' => {
                    let escaped = *text.as_bytes().get(self.pos)?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'"' | b'\\' | b'/' => char::from(escaped),
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode()?,
                        _ => return None,
                    });
                }
                _ => return None, // a raw control character
            }
        }
    }

    /// The code point of a `\u` escape, joining a surrogate pair.
    fn unicode(&mut self) -> Option<char> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let low = self
                .hex4()?
                .checked_sub(0xDC00)
                .filter(|low| *low < 0x400)?;
            code = 0x10000 + ((code - 0xD800) << 10) + low;
        }
        char::from_u32(code)
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.text.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        // `from_str_radix` alone would take a `+` sign.
        u32::from_str_radix(hex, 16)
            .ok()
            .filter(|_| !hex.starts_with('+'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One string of every character class a writer must escape or
    /// pass through.
    fn every_class() -> String {
        let mut s: String = (0u32..0x20).filter_map(char::from_u32).collect();
        s.push_str("\"\\/],{}:\"obs\":{ é ✓ 😀 \u{2028}\u{2029}\u{7f}");
        s
    }

    fn doc() -> String {
        format!(
            "{{\"s\":\"{}\",\"n\":18446744073709551615,\"z\":0,\"t\":true,\"f\":false,\
             \"a\":[[1,2],[],{{}}],\"o\":{{\"k\\\\ey\":\"v\"}}}}",
            escape(&every_class())
        )
    }

    #[test]
    fn escape_then_parse_round_trips_every_character_class() {
        let s = every_class();
        let parsed = parse(&format!("\"{}\"", escape(&s))).expect("parse an escaped string");
        assert_eq!(parsed, Json::Str(s.clone()));
        // Escaping keeps the string on one line: no raw control bytes.
        assert!(escape(&s).bytes().all(|b| b >= 0x20));
        let arr = str_array(&[s.clone(), String::new(), "a\",\"b".into()]);
        assert_eq!(
            parse(&arr).and_then(|v| Vec::<String>::from_json(&v)),
            Some(vec![s, String::new(), "a\",\"b".into()])
        );
    }

    #[test]
    fn a_document_parses_field_by_field() {
        let v = parse(&doc()).expect("parse");
        assert_eq!(v.field::<String>("s"), Some(every_class()));
        assert_eq!(v.field::<u64>("n"), Some(u64::MAX));
        assert_eq!(v.field::<u32>("n"), None, "out of range for u32");
        assert_eq!(v.field::<u64>("z"), Some(0));
        assert_eq!(v.field::<bool>("t"), Some(true));
        assert_eq!(v.field::<bool>("f"), Some(false));
        assert_eq!(v.field::<bool>("n"), None, "type mismatch");
        assert_eq!(v.field::<u64>("missing"), None);
        let a = v.get("a").expect("array");
        assert_eq!(
            a,
            &Json::Arr(vec![
                Json::Arr(vec![Json::Num(1), Json::Num(2)]),
                Json::Arr(vec![]),
                Json::Obj(vec![]),
            ])
        );
        assert_eq!(<[u64; 2]>::from_json(&Json::Arr(vec![Json::Num(1)])), None);
        assert_eq!(
            v.get("o").and_then(|o| o.field::<String>("k\\ey")),
            Some("v".into())
        );
        // Whitespace between tokens is JSON too.
        let spaced = parse(" { \"a\" : [ 1 , true ] , \"b\" : \"x\" } \n").expect("spaced");
        assert_eq!(spaced.field::<String>("b"), Some("x".into()));
        // Escapes the writers never emit still decode.
        assert_eq!(
            parse(r#""\b\f\/\u00e9\ud83d\ude00""#),
            Some(Json::Str("\u{8}\u{c}/é😀".into()))
        );
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let full = doc();
        assert!(parse(&full).is_some());
        for (end, _) in full.char_indices().skip(1) {
            assert_eq!(parse(&full[..end]), None, "prefix of {end} bytes");
        }
        assert_eq!(parse(""), None);
        assert_eq!(parse("  \n"), None);
    }

    #[test]
    fn values_outside_the_subset_and_trailing_bytes_are_rejected() {
        for bad in [
            "1.5",
            "1e3",
            "-1",
            "01",
            "18446744073709551616",
            "null",
            "nope",
            "tru",
            "truex",
            "{\"a\":1}x",
            "{\"a\":1}{}",
            "[1,]",
            "[,1]",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\" 1}",
            "{\"a\":96.5}",
            "{\"a\":null}",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"raw\nnewline\"",
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(parse(&deep), None, "nesting is bounded");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&ok).is_some());
    }
}
