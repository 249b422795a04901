//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the shim `serde::Serialize` / `serde::Deserialize`
//! traits for the item shapes this workspace uses: structs with named
//! fields and enums whose variants are unit, newtype/tuple, or struct-like.
//! A `Serialize` impl writes its value into a `serde::Sink`; a
//! `Deserialize` impl reads it back from a `serde::Content` tree.
//! Generics and `#[serde(...)]` attributes are not supported — the
//! workspace does not use them.
//!
//! The implementation deliberately avoids `syn`/`quote` (unavailable
//! offline): the item is parsed with a small token-tree walker and the impl
//! is emitted by string construction + `TokenStream::from_str`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A parsed field list: names in declaration order.
type Fields = Vec<String>;

enum Variant {
    Unit(String),
    /// Name + number of unnamed fields.
    Tuple(String, usize),
    Struct(String, Fields),
}

enum Item {
    Struct(String, Fields),
    Enum(String, Vec<Variant>),
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct(name, fields) => serialize_struct(name, fields),
        Item::Enum(name, variants) => serialize_enum(name, variants),
    };
    code.parse()
        .expect("serde_derive generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct(name, fields) => deserialize_struct(name, fields),
        Item::Enum(name, variants) => deserialize_enum(name, variants),
    };
    code.parse()
        .expect("serde_derive generated invalid Deserialize impl")
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn serialize_struct(name: &str, fields: &[String]) -> String {
    let body = map_body(fields, "&self.");
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __sink: &mut impl ::serde::Sink) {{\n\
                {body}\n\
            }}\n\
        }}"
    )
}

/// The calls writing a map of `fields`, each read as `{access}{field}`.
fn map_body(fields: &[String], access: &str) -> String {
    let entries: String = fields
        .iter()
        .map(|f| format!("::serde::Sink::entry(__sink, \"{f}\", {access}{f});"))
        .collect();
    format!(
        "::serde::Sink::begin_map(__sink, {});{entries}::serde::Sink::end_map(__sink);",
        fields.len()
    )
}

fn deserialize_struct(name: &str, fields: &[String]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| format!("{f}: ::serde::field(__entries, \"{f}\", \"{name}\")?,"))
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize_content(__c: &::serde::Content) -> Result<Self, ::serde::Error> {{\n\
                let __entries = __c.as_map()\n\
                    .ok_or_else(|| ::serde::Error::expected(\"map\", __c.kind()))?;\n\
                Ok({name} {{ {inits} }})\n\
            }}\n\
        }}"
    )
}

fn serialize_enum(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| match v {
            Variant::Unit(vn) => format!("{name}::{vn} => ::serde::Sink::str(__sink, \"{vn}\"),"),
            Variant::Tuple(vn, 1) => tagged(
                name,
                vn,
                "(__f0)",
                "::serde::Serialize::serialize(__f0, __sink);",
            ),
            Variant::Tuple(vn, n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                let items: String = binders
                    .iter()
                    .map(|b| format!("::serde::Serialize::serialize({b}, __sink);"))
                    .collect();
                let body = format!(
                    "::serde::Sink::begin_seq(__sink, {n});{items}::serde::Sink::end_seq(__sink);"
                );
                tagged(name, vn, &format!("({})", binders.join(", ")), &body)
            }
            Variant::Struct(vn, fields) => tagged(
                name,
                vn,
                &format!("{{ {} }}", fields.join(", ")),
                &map_body(fields, ""),
            ),
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __sink: &mut impl ::serde::Sink) {{\n\
                match self {{ {arms} }}\n\
            }}\n\
        }}"
    )
}

/// The match arm writing variant `vn` (bound by `pattern`) externally
/// tagged: a one-entry map from the variant name to what `body` writes.
fn tagged(name: &str, vn: &str, pattern: &str, body: &str) -> String {
    format!(
        "{name}::{vn} {pattern} => {{\n\
            ::serde::Sink::begin_map(__sink, 1);\n\
            ::serde::Sink::key(__sink, \"{vn}\");\n\
            {body}\n\
            ::serde::Sink::end_map(__sink);\n\
        }}"
    )
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let unit_arms: String = variants
        .iter()
        .filter_map(|v| match v {
            Variant::Unit(vn) => Some(format!("\"{vn}\" => Ok({name}::{vn}),")),
            _ => None,
        })
        .collect();
    let tagged_arms: String = variants
        .iter()
        .filter_map(|v| match v {
            Variant::Unit(_) => None,
            Variant::Tuple(vn, 1) => Some(format!(
                "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::deserialize_content(__inner)?)),"
            )),
            Variant::Tuple(vn, n) => {
                let fields: String = (0..*n)
                    .map(|i| {
                        format!("::serde::Deserialize::deserialize_content(&__items[{i}])?,")
                    })
                    .collect();
                Some(format!(
                    "\"{vn}\" => {{\n\
                        let __items = __inner.as_seq()\n\
                            .ok_or_else(|| ::serde::Error::expected(\"sequence\", __inner.kind()))?;\n\
                        if __items.len() != {n} {{\n\
                            return Err(::serde::Error::custom(format!(\n\
                                \"variant {name}::{vn} expects {n} fields, got {{}}\", __items.len())));\n\
                        }}\n\
                        Ok({name}::{vn}({fields}))\n\
                    }}"
                ))
            }
            Variant::Struct(vn, fields) => {
                let inits: String = fields
                    .iter()
                    .map(|f| {
                        format!("{f}: ::serde::field(__fields, \"{f}\", \"{name}::{vn}\")?,")
                    })
                    .collect();
                Some(format!(
                    "\"{vn}\" => {{\n\
                        let __fields = __inner.as_map()\n\
                            .ok_or_else(|| ::serde::Error::expected(\"map\", __inner.kind()))?;\n\
                        Ok({name}::{vn} {{ {inits} }})\n\
                    }}"
                ))
            }
        })
        .collect();
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize_content(__c: &::serde::Content) -> Result<Self, ::serde::Error> {{\n\
                match __c {{\n\
                    ::serde::Content::Str(__s) => match __s.as_str() {{\n\
                        {unit_arms}\n\
                        __other => Err(::serde::Error::custom(format!(\n\
                            \"unknown unit variant `{{__other}}` for {name}\"))),\n\
                    }},\n\
                    ::serde::Content::Map(__entries) if __entries.len() == 1 => {{\n\
                        let (__tag, __inner) = &__entries[0];\n\
                        match __tag.as_str() {{\n\
                            {tagged_arms}\n\
                            __other => Err(::serde::Error::custom(format!(\n\
                                \"unknown variant `{{__other}}` for {name}\"))),\n\
                        }}\n\
                    }},\n\
                    __other => Err(::serde::Error::expected(\"enum representation\", __other.kind())),\n\
                }}\n\
            }}\n\
        }}"
    )
}

// ---------------------------------------------------------------------------
// Token-tree parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0usize;
    skip_attrs_and_vis(&tokens, &mut pos);
    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let body = match tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        other => panic!("serde_derive shim: `{name}` must have a braced body, found {other:?}"),
    };
    match keyword.as_str() {
        "struct" => Item::Struct(name, parse_named_fields(body)),
        "enum" => Item::Enum(name, parse_variants(body)),
        kw => panic!("serde_derive shim: unsupported item kind `{kw}`"),
    }
}

/// Parses `vis? name: Type, ...` returning the field names.
fn parse_named_fields(stream: TokenStream) -> Fields {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0usize;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                panic!("serde_derive shim: expected `:` after field `{name}`, found {other:?}")
            }
        }
        skip_type_until_comma(&tokens, &mut pos);
        fields.push(name);
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0usize;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            None => variants.push(Variant::Unit(name)),
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                pos += 1;
                variants.push(Variant::Unit(name));
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_types(g.stream());
                pos += 1;
                expect_comma_or_end(&tokens, &mut pos);
                variants.push(Variant::Tuple(name, arity));
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                pos += 1;
                expect_comma_or_end(&tokens, &mut pos);
                variants.push(Variant::Struct(name, fields));
            }
            // Discriminant (`Variant = 3`) or anything else: unsupported.
            other => {
                panic!("serde_derive shim: unsupported token after variant `{name}`: {other:?}")
            }
        }
    }
    variants
}

/// Counts comma-separated types at angle-bracket depth zero.
fn count_top_level_types(stream: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut count = 0usize;
    let mut saw_any = false;
    for tt in stream {
        match tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                count += 1;
                saw_any = false;
                continue;
            }
            _ => {}
        }
        saw_any = true;
    }
    if saw_any {
        count += 1;
    }
    count
}

fn skip_type_until_comma(tokens: &[TokenTree], pos: &mut usize) {
    let mut depth = 0i32;
    while *pos < tokens.len() {
        match &tokens[*pos] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *pos += 1;
                return;
            }
            _ => {}
        }
        *pos += 1;
    }
}

/// Skips `#[...]` attributes (including doc comments) and `pub` / `pub(...)`.
fn skip_attrs_and_vis(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket)
                {
                    *pos += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1;
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(id)) => {
            *pos += 1;
            id.to_string()
        }
        other => panic!("serde_derive shim: expected identifier, found {other:?}"),
    }
}

fn expect_comma_or_end(tokens: &[TokenTree], pos: &mut usize) {
    match tokens.get(*pos) {
        None => {}
        Some(TokenTree::Punct(p)) if p.as_char() == ',' => *pos += 1,
        other => panic!("serde_derive shim: expected `,`, found {other:?}"),
    }
}
