//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Implemented directly on `proc_macro` token streams (no `syn`/`quote`,
//! which are unavailable offline). The parser extracts only what codegen
//! needs — item shape, field/variant names, and the enum attribute
//! `#[serde(tag = "...", rename_all = "snake_case")]` — and the generated
//! impls are emitted as source text.
//!
//! Supported shapes, the two this workspace derives: structs with named
//! fields, and internally tagged enums of newtype variants. Other shapes
//! (tuple and unit structs, enums without a `tag`, unit or struct
//! variants) and generic types are rejected at expansion time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    /// Field names of a named-field struct.
    Struct(Vec<String>),
    /// Variant names of an internally tagged enum of newtype variants.
    Enum(Vec<String>),
}

#[derive(Debug, Default)]
struct SerdeAttrs {
    tag: Option<String>,
    rename_all: Option<String>,
}

struct Item {
    name: String,
    shape: Shape,
    attrs: SerdeAttrs,
}

/// Derives the shim's `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim's `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut attrs = SerdeAttrs::default();
    let mut i = 0;
    let mut is_struct: Option<bool> = None;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // Attribute: `#[ ... ]`; record serde(...) contents.
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    parse_attr(g, &mut attrs);
                }
                i += 2;
            }
            TokenTree::Ident(id) if matches!(id.to_string().as_str(), "struct" | "enum") => {
                is_struct = Some(id.to_string() == "struct");
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    let is_struct = is_struct.expect("derive input must be a struct or enum");
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected item name, found {other}"),
    };
    let body = match tokens.get(i + 1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive does not support generic types ({name})")
        }
        _ => {
            panic!("serde shim derive supports only named-field structs and braced enums ({name})")
        }
    };
    let shape = if is_struct {
        Shape::Struct(parse_named_fields(body))
    } else {
        assert!(
            attrs.tag.is_some(),
            "serde shim derive supports only internally tagged enums ({name})"
        );
        Shape::Enum(parse_newtype_variants(&name, body))
    };
    Item { name, shape, attrs }
}

fn parse_attr(group: &proc_macro::Group, attrs: &mut SerdeAttrs) {
    let mut it = group.stream().into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if *id.to_string() == *"serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(inner)) = it.next() else {
        return;
    };
    let toks: Vec<TokenTree> = inner.stream().into_iter().collect();
    let mut j = 0;
    while j < toks.len() {
        if let TokenTree::Ident(id) = &toks[j] {
            let key = id.to_string();
            // `key = "literal"`
            let value = match (toks.get(j + 1), toks.get(j + 2)) {
                (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                    if eq.as_char() == '=' =>
                {
                    lit.to_string().trim_matches('"').to_string()
                }
                _ => panic!("unsupported #[serde({key} ...)] attribute in shim"),
            };
            match key.as_str() {
                "tag" => attrs.tag = Some(value),
                "rename_all" => attrs.rename_all = Some(value),
                other => panic!("unsupported #[serde({other} ...)] attribute in shim"),
            }
            j += 2;
        }
        j += 1;
    }
}

/// Field names of a named-field body, tracking `<...>` depth so commas
/// inside generic arguments don't split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            break;
        };
        fields.push(id.to_string());
        // Skip `: Type` through the next top-level comma.
        i += 1;
        let mut angle = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn skip_attrs_and_vis(toks: &[TokenTree], mut i: usize) -> usize {
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if *id.to_string() == *"pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Variant names of an enum body whose variants are all `Name(Payload)`.
fn parse_newtype_variants(enum_name: &str, stream: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        i = skip_attrs_and_vis(&toks, i);
        let Some(TokenTree::Ident(id)) = toks.get(i) else {
            break;
        };
        let name = id.to_string();
        match toks.get(i + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {}
            _ => panic!(
                "serde shim: tagged enums support only newtype variants ({enum_name}::{name})"
            ),
        }
        variants.push(name);
        // Skip the payload and the separating comma.
        i += 3;
    }
    variants
}

// ---------------------------------------------------------------- helpers

fn rename(name: &str, rule: Option<&str>) -> String {
    match rule {
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in name.chars().enumerate() {
                if c.is_ascii_uppercase() {
                    if i > 0 {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                } else {
                    out.push(c);
                }
            }
            out
        }
        Some(other) => panic!("unsupported rename_all rule `{other}` in shim"),
        None => name.to_string(),
    }
}

/// The enum's tag key and its `(variant name, wire name)` pairs.
fn tagged_variants<'a>(
    item: &'a Item,
    variants: &'a [String],
) -> (&'a str, Vec<(&'a str, String)>) {
    let tag = item.attrs.tag.as_deref().expect("tagged enum has a tag");
    let rule = item.attrs.rename_all.as_deref();
    let wire = variants
        .iter()
        .map(|v| (v.as_str(), rename(v, rule)))
        .collect();
    (tag, wire)
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut b = String::from(
                "let mut __m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n",
            );
            for f in fields {
                b.push_str(&format!(
                    "__m.push((::std::string::String::from(\"{f}\"), \
                     ::serde::Serialize::to_value(&self.{f})));\n"
                ));
            }
            b.push_str("::serde::Value::Map(__m)");
            b
        }
        Shape::Enum(variants) => {
            // The payload serialises to a map; the tag goes in front.
            let (tag, variants) = tagged_variants(item, variants);
            let mut arms = String::new();
            for (vn, wire) in variants {
                arms.push_str(&format!(
                    "Self::{vn}(__inner) => {{\n\
                     let mut __v = ::serde::Serialize::to_value(__inner);\n\
                     match &mut __v {{\n\
                     ::serde::Value::Map(__m) => __m.insert(0, (\
                     ::std::string::String::from(\"{tag}\"), \
                     ::serde::Value::Str(::std::string::String::from(\"{wire}\")))),\n\
                     _ => panic!(\"internally tagged variant {vn} must serialise to a map\"),\n\
                     }}\n__v\n}}\n"
                ));
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: ::serde::Deserialize::from_value(::serde::map_get(__m, \"{f}\"))\
                     .map_err(|e| e.in_field(\"{name}.{f}\"))?,\n"
                ));
            }
            format!(
                "let __m = __v.as_map().ok_or_else(|| \
                 ::serde::Error::expected(\"map\", \"{name}\"))?;\n\
                 ::std::result::Result::Ok(Self {{\n{inits}}})"
            )
        }
        Shape::Enum(variants) => {
            // Look up the tag and hand the whole map to the newtype
            // payload, which ignores the extra tag key.
            let (tag, variants) = tagged_variants(item, variants);
            let mut arms = String::new();
            for (vn, wire) in variants {
                arms.push_str(&format!(
                    "\"{wire}\" => ::std::result::Result::Ok(\
                     Self::{vn}(::serde::Deserialize::from_value(__v)?)),\n"
                ));
            }
            format!(
                "let __m = __v.as_map().ok_or_else(|| \
                 ::serde::Error::expected(\"map\", \"{name}\"))?;\n\
                 let __tag = ::serde::map_get(__m, \"{tag}\").as_str().ok_or_else(|| \
                 ::serde::Error::expected(\"`{tag}` tag\", \"{name}\"))?;\n\
                 match __tag {{\n{arms}\
                 __other => ::std::result::Result::Err(::serde::Error::msg(\
                 format!(\"unknown {name} variant `{{__other}}`\"))),\n}}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
