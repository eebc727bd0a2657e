//! Offline stand-in for `serde_derive`.
//!
//! The build container has no access to crates.io, so this proc-macro crate
//! implements just enough of `#[derive(Serialize)]` / `#[derive(Deserialize)]`
//! for the shapes this workspace actually serializes: structs with named
//! fields and enums with unit variants, neither generic. Anything fancier
//! fails loudly at compile time rather than silently misbehaving.
//!
//! The generated code targets the sibling `serde` shim's `Value`-based data
//! model (`serde::to_value` / `serde::from_value`), which the shim's JSON
//! front-end (`serde_json`) understands.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Struct with named fields.
    Struct { name: String, fields: Vec<String> },
    /// Enum with unit variants only.
    Enum { name: String, variants: Vec<String> },
}

/// Parse the derive input into the limited shape vocabulary we support.
fn parse(input: TokenStream) -> Shape {
    let mut tokens = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                tokens.next();
                // `pub(crate)` etc.
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next();
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: unexpected token {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    let body = loop {
        match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("serde_derive shim: generic types are not supported ({name})")
            }
            Some(_) => continue,
            None => panic!("serde_derive shim: missing body for {name}"),
        }
    };
    match kind.as_str() {
        "struct" => Shape::Struct {
            name,
            fields: parse_named_fields(body.stream()),
        },
        "enum" => Shape::Enum {
            name,
            variants: parse_unit_variants(body.stream()),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}`"),
    }
}

fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip attributes and visibility before the field name.
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    tokens.next();
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let field = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected field name, got {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde_derive shim: expected `:` after {field}, got {other:?}"),
        }
        // Consume the type: everything until a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    angle_depth += 1;
                    tokens.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    angle_depth -= 1;
                    tokens.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle_depth == 0 => {
                    tokens.next();
                    break;
                }
                Some(_) => {
                    tokens.next();
                }
                None => break,
            }
        }
        fields.push(field);
    }
    fields
}

fn parse_unit_variants(body: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        loop {
            match tokens.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                    tokens.next();
                }
                _ => break,
            }
        }
        let variant = match tokens.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde_derive shim: expected variant name, got {other:?}"),
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => {
                variants.push(variant);
                break;
            }
            other =>

                panic!("serde_derive shim: only unit enum variants are supported, got {other:?} after {variant}"),
        }
        variants.push(variant);
    }
    variants
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = match parse(input) {
        Shape::Struct { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "__fields.push((\"{f}\".to_string(), ::serde::to_value(&self.{f})\
                         .map_err(<__S::Error as ::std::convert::From<::serde::Error>>::from)?));\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize<__S: ::serde::Serializer>(&self, serializer: __S)\n\
                         -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
                         let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> =\n\
                             ::std::vec::Vec::new();\n\
                         {pushes}\n\
                         serializer.serialize_value(::serde::Value::Map(__fields))\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "{name}::{v} => serializer.serialize_value(\
                         ::serde::Value::Str(\"{v}\".to_string())),\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn serialize<__S: ::serde::Serializer>(&self, serializer: __S)\n\
                         -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
                         match self {{ {arms} }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated invalid Serialize impl")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let code = match parse(input) {
        Shape::Struct { name, fields } => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: {{\n\
                             let __v = __map.iter().find(|(k, _)| k == \"{f}\")\n\
                                 .map(|(_, v)| v.clone())\n\
                                 .unwrap_or(::serde::Value::Null);\n\
                             ::serde::from_value(__v).map_err(|e| \
                                 <__D::Error as ::serde::de::Error>::custom(\
                                     format!(\"field `{f}`: {{e}}\")))?\n\
                         }},\n"
                    )
                })
                .collect();
            format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                     fn deserialize<__D: ::serde::Deserializer<'de>>(deserializer: __D)\n\
                         -> ::std::result::Result<Self, __D::Error> {{\n\
                         let __value = deserializer.take_value()?;\n\
                         let __map = match __value {{\n\
                             ::serde::Value::Map(m) => m,\n\
                             other => return Err(<__D::Error as ::serde::de::Error>::custom(\n\
                                 format!(\"expected map for {name}, got {{other:?}}\"))),\n\
                         }};\n\
                         ::std::result::Result::Ok({name} {{ {inits} }})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            format!(
                "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
                     fn deserialize<__D: ::serde::Deserializer<'de>>(deserializer: __D)\n\
                         -> ::std::result::Result<Self, __D::Error> {{\n\
                         let __value = deserializer.take_value()?;\n\
                         let __s = match __value {{\n\
                             ::serde::Value::Str(s) => s,\n\
                             other => return Err(<__D::Error as ::serde::de::Error>::custom(\n\
                                 format!(\"expected string for {name}, got {{other:?}}\"))),\n\
                         }};\n\
                         match __s.as_str() {{\n\
                             {arms}\n\
                             other => Err(<__D::Error as ::serde::de::Error>::custom(\n\
                                 format!(\"unknown {name} variant `{{other}}`\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    code.parse()
        .expect("serde_derive shim: generated invalid Deserialize impl")
}
