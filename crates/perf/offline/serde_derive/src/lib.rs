//! Offline stand-in for `serde_derive`: `Serialize` and `Deserialize` for
//! the two shapes this repository derives them on — structs with named
//! fields and enums whose variants carry no data — written against
//! `proc_macro` alone. Any other shape is a compile error naming it.
#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Field names.
    Struct(Vec<String>),
    /// Variant names.
    Enum(Vec<String>),
}

struct Item {
    name: String,
    shape: Shape,
}

/// Splits the token trees of a `{ ... }` body at its top-level commas.
/// Angle brackets are not token groups, so `HashMap<K, V>` needs the
/// depth count.
fn split_commas(body: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle = 0i32;
    for tt in body {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().expect("starts non-empty").push(tt);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// The first identifier after any attributes (doc comments included) and
/// a `pub` / `pub(...)`: a field's or a variant's name. Also returns how
/// many tokens follow it.
fn leading_name(tokens: &[TokenTree]) -> Option<(String, usize)> {
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            TokenTree::Ident(id) => return Some((id.to_string(), tokens.len() - i - 1)),
            _ => return None,
        }
    }
    None
}

fn parse(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let kw = tokens
        .iter()
        .position(|t| matches!(t, TokenTree::Ident(id) if matches!(id.to_string().as_str(), "struct" | "enum")))
        .ok_or("expected a struct or an enum")?;
    let is_struct = tokens[kw].to_string() == "struct";
    let name = match tokens.get(kw + 1) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected a type name".into()),
    };
    let body = match tokens.get(kw + 2) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "`{name}`: only non-generic types with a braced body are supported offline"
            ))
        }
    };
    let mut names = Vec::new();
    for part in split_commas(body) {
        let (member, rest) =
            leading_name(&part).ok_or_else(|| format!("`{name}`: unreadable member"))?;
        if !is_struct && rest != 0 {
            return Err(format!(
                "`{name}::{member}`: only unit variants are supported offline"
            ));
        }
        names.push(member);
    }
    Ok(Item {
        name,
        shape: if is_struct {
            Shape::Struct(names)
        } else {
            Shape::Enum(names)
        },
    })
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let code = match parse(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated code is valid Rust")
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        let name = &item.name;
        let body = match &item.shape {
            Shape::Struct(fields) => {
                let inserts: String = fields
                    .iter()
                    .map(|f| {
                        format!("map.insert({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}));")
                    })
                    .collect();
                format!(
                    "let mut map = ::serde::value::Map::new(); {inserts} ::serde::value::Value::Object(map)"
                )
            }
            Shape::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| format!("{name}::{v} => {v:?},"))
                    .collect();
                format!("::serde::value::Value::String(match self {{ {arms} }}.to_string())")
            }
        };
        format!(
            "impl ::serde::Serialize for {name} {{ fn to_value(&self) -> ::serde::value::Value {{ {body} }} }}"
        )
    })
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |item| {
        let name = &item.name;
        let body = match &item.shape {
            Shape::Struct(fields) => {
                let inits: String = fields
                    .iter()
                    .map(|f| format!("{f}: ::serde::de::field(value, {f:?})?,"))
                    .collect();
                format!("Ok({name} {{ {inits} }})")
            }
            Shape::Enum(variants) => {
                let arms: String = variants
                    .iter()
                    .map(|v| format!("{v:?} => Ok({name}::{v}),"))
                    .collect();
                format!(
                    "match ::serde::de::variant(value)? {{ {arms} other => Err(::serde::de::Error::custom(format!(\"unknown variant `{{other}}` of {name}\"))) }}"
                )
            }
        };
        format!(
            "impl<'de> ::serde::Deserialize<'de> for {name} {{ fn from_value(value: &::serde::value::Value) -> Result<Self, ::serde::de::Error> {{ {body} }} }}"
        )
    })
}
