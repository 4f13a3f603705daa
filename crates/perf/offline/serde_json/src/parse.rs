//! A strict recursive-descent JSON parser (RFC 8259): no trailing commas,
//! no comments, nothing but whitespace after the value.

use crate::{Error, Map, Number, Result, Value};

/// Nesting beyond this is refused rather than recursed into; the real
/// crate draws the same line.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

pub(crate) fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_whitespace();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = 1 + upto.iter().rev().take_while(|&&b| b != b'\n').count();
        Error::custom(format!("{what} at line {line} column {column}"))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_whitespace();
        match self.peek() {
            None => Err(self.error("EOF while parsing a value")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected value")),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.pos += 1; // the opening bracket
        let value = body(self)?;
        self.depth -= 1;
        Ok(value)
    }

    /// After an element: `true` to go on, `false` when `close` ended the
    /// sequence.
    fn more(&mut self, close: u8) -> Result<bool> {
        self.skip_whitespace();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.error("expected `,` or a closing bracket")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat("]") {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            if !self.more(b']')? {
                return Ok(Value::Array(items));
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        let mut map = Map::new();
        self.skip_whitespace();
        if self.eat("}") {
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("key must be a string"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if !self.eat(":") {
                return Err(self.error("expected `:`"));
            }
            let value = self.value()?;
            map.insert(key, value);
            if !self.more(b'}')? {
                return Ok(Value::Object(map));
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        self.eat("-");
        let int_start = self.pos;
        let int_digits = digits(self);
        if int_digits == 0 || (int_digits > 1 && self.bytes[int_start] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut integral = true;
        if self.eat(".") {
            integral = false;
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if !self.eat("+") {
                self.eat("-");
            }
            if digits(self) == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        // Integers too wide for 64 bits read as floats, as in the real crate.
        let number = if !integral {
            None
        } else if text.starts_with('-') {
            text.parse::<i64>().ok().map(Number::from)
        } else {
            text.parse::<u64>().ok().map(Number::from)
        };
        number
            .or_else(|| Number::from_f64(text.parse::<f64>().ok()?))
            .map(Value::Number)
            .ok_or_else(|| self.error("number out of range"))
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one piece; the input is a `&str`, and those three are ASCII,
            // so the run ends on a character boundary.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[run..self.pos]).expect("from a str"));
            match self.peek() {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("EOF in an escape"))?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    });
                }
                Some(_) => return Err(self.error("control character in a string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is already read,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.eat("\\u") {
                return Err(self.error("lone leading surrogate"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }
}
