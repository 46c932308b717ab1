//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde shim, written against `proc_macro` directly (no syn/quote —
//! the container has no crates.io access).
//!
//! Supports exactly what the workspace derives on, all non-generic:
//! - structs with named fields, as an object of their fields in
//!   declaration order;
//! - internally tagged enums of unit and named-field variants, as an
//!   object whose first key is the tag (the variant name in
//!   snake_case), then the variant's fields in declaration order.
//!
//! The one attribute accepted is the enum container attribute
//! `#[serde(tag = "...", rename_all = "snake_case")]`, which every enum
//! must carry. Other `serde(...)` keys, `serde` attributes anywhere
//! else, tuple variants and generics are compile errors. Field types are
//! never inspected; the generated impls delegate to the field types'
//! own trait impls.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of a derive input we support.
enum Shape {
    /// A struct's named fields.
    Struct(Vec<String>),
    /// An enum's tag key, as a string-literal token (`"kind"`), and its
    /// `(variant name, named fields)` list.
    Enum(String, Vec<(String, Vec<String>)>),
}

const MISPLACED: &str = "#[serde(...)] is supported only on an enum itself";

/// The `(...)` arguments of a `#[serde(...)]` attribute group, or
/// `None` for any other attribute (doc comments, `derive`, …).
fn serde_args(attr: TokenTree) -> Option<TokenStream> {
    let TokenTree::Group(g) = attr else { return None };
    let mut toks = g.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => match toks.next() {
            Some(TokenTree::Group(args)) => Some(args.stream()),
            _ => Some(TokenStream::new()),
        },
        _ => None,
    }
}

/// Split a field or variant body on its top-level commas — commas inside
/// `<...>` belong to a type; bracketed delimiters are opaque groups
/// already — dropping attributes and any leading visibility.
fn items(body: TokenStream) -> Result<Vec<Vec<TokenTree>>, String> {
    let mut items = vec![Vec::new()];
    let mut angle_depth = 0usize;
    let mut toks = body.into_iter();
    while let Some(t) = toks.next() {
        let item = items.last_mut().expect("starts non-empty");
        match &t {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if toks.next().and_then(serde_args).is_some() {
                    return Err(MISPLACED.into());
                }
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                items.push(Vec::new());
                continue;
            }
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1)
            }
            // Visibility (`pub`, `pub(crate)`) can only lead an item.
            TokenTree::Ident(id) if item.is_empty() && id.to_string() == "pub" => continue,
            TokenTree::Group(g) if item.is_empty() && g.delimiter() == Delimiter::Parenthesis => {
                continue
            }
            _ => {}
        }
        item.push(t);
    }
    items.retain(|item| !item.is_empty());
    Ok(items)
}

/// The names of a `{ name: Type, ... }` body.
fn fields(body: TokenStream) -> Result<Vec<String>, String> {
    items(body)?
        .iter()
        .map(|item| match &item[..] {
            [TokenTree::Ident(name), TokenTree::Punct(p), ..] if p.as_char() == ':' => {
                Ok(name.to_string())
            }
            _ => Err(format!(
                "expected `name: Type`, got `{}`",
                TokenStream::from_iter(item.clone())
            )),
        })
        .collect()
}

/// The variants of an enum body: `Name` or `Name { fields }`.
fn variants(body: TokenStream) -> Result<Vec<(String, Vec<String>)>, String> {
    items(body)?
        .iter()
        .map(|item| match &item[..] {
            [TokenTree::Ident(name)] => Ok((name.to_string(), Vec::new())),
            [TokenTree::Ident(name), TokenTree::Group(g)] if g.delimiter() == Delimiter::Brace => {
                Ok((name.to_string(), fields(g.stream())?))
            }
            _ => Err(format!(
                "variant `{}` must be a unit or have named fields",
                TokenStream::from_iter(item.clone())
            )),
        })
        .collect()
}

/// Check an enum's container attribute and return its tag literal.
fn enum_tag(args: Option<TokenStream>) -> Result<String, String> {
    const NEED: &str = "enums need #[serde(tag = \"...\", rename_all = \"snake_case\")]";
    let toks: Vec<String> = args.ok_or(NEED)?.into_iter().map(|t| t.to_string()).collect();
    let (mut tag, mut snake_case) = (None, false);
    for pair in toks.split(|t| t == ",") {
        match pair {
            [k, eq, v] if k == "tag" && eq == "=" && v.starts_with('"') => tag = Some(v.clone()),
            [k, eq, v] if k == "rename_all" && eq == "=" && v == "\"snake_case\"" => {
                snake_case = true
            }
            _ => return Err(format!("unsupported serde attribute `{}`", pair.join(" "))),
        }
    }
    tag.filter(|_| snake_case).ok_or_else(|| NEED.into())
}

/// Extract the type name and shape from a derive input.
fn parse(input: TokenStream) -> Result<(String, Shape), String> {
    let mut toks = input.into_iter();
    let mut attr = None;
    // Skip attributes (`#[...]`, including doc comments) and visibility.
    let (kind, name) = loop {
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(args) = toks.next().and_then(serde_args) {
                    attr = Some(args);
                }
            }
            Some(TokenTree::Ident(kw))
                if matches!(&*kw.to_string(), "struct" | "enum" | "union") =>
            {
                match toks.next() {
                    Some(TokenTree::Ident(name)) => break (kw.to_string(), name.to_string()),
                    other => return Err(format!("expected {kw} name, got {other:?}")),
                }
            }
            Some(_) => {}
            None => return Err("no struct or enum found in derive input".into()),
        }
    };
    let body = match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err("serde shim derives do not support generics".into())
        }
        _ => return Err("serde shim derives need named fields".into()),
    };
    match (kind.as_str(), attr) {
        ("enum", attr) => Ok((name, Shape::Enum(enum_tag(attr)?, variants(body)?))),
        ("struct", None) => Ok((name, Shape::Struct(fields(body)?))),
        ("struct", Some(_)) => Err(MISPLACED.into()),
        _ => Err("serde shim derives do not support unions".into()),
    }
}

/// `SliceFunc` → `slice_func`, as serde's `rename_all = "snake_case"`.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.extend(c.to_lowercase());
    }
    out
}

/// A `Value::Object` expression: the `head` entries (an enum's tag),
/// then each field serialized from `{access}{field}`.
fn object(head: &str, fields: &[String], access: &str) -> String {
    let entries: String = fields
        .iter()
        .map(|f| format!("(\"{f}\".to_string(), ::serde::Serialize::to_value({access}{f})),"))
        .collect();
    format!("::serde::Value::Object(vec![{head}{entries}])")
}

/// Generate `impl serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse(input).unwrap_or_else(|e| panic!("derive(Serialize): {e}"));
    let body = match shape {
        Shape::Struct(fields) => object("", &fields, "&self."),
        Shape::Enum(tag, variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| {
                    let head = format!(
                        "({tag}.to_string(), ::serde::Value::Str(\"{}\".to_string())),",
                        snake_case(v)
                    );
                    format!(
                        "Self::{v} {{ {} }} => {},",
                        fields.join(","),
                        object(&head, fields, "")
                    )
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("derive(Serialize): generated code parses")
}

/// Generate `impl serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse(input).unwrap_or_else(|e| panic!("derive(Deserialize): {e}"));
    let build = |path: &str, fields: &[String]| {
        let inits: String =
            fields.iter().map(|f| format!("{f}: ::serde::__field(value, \"{f}\")?,")).collect();
        format!("Ok({path} {{ {inits} }})")
    };
    let body = match shape {
        Shape::Struct(fields) => build("Self", &fields),
        Shape::Enum(tag, variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| {
                    format!("\"{}\" => {},", snake_case(v), build(&format!("Self::{v}"), fields))
                })
                .collect();
            format!(
                "let tag: String = ::serde::__field(value, {tag})?;\n\
                 match tag.as_str() {{\n\
                     {arms}\n\
                     other => Err(::serde::Error(format!(\"unknown {name} {{}} {{:?}}\", {tag}, other))),\n\
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("derive(Deserialize): generated code parses")
}
