//! Vendored `#[derive(Serialize)]` for the offline `serde` shim.
//!
//! The container has no registry access, so `syn`/`quote` are
//! unavailable; the derive below hand-parses the item's token stream.
//! Supported shapes (all this workspace uses):
//!
//! - unit / named-field / tuple structs
//! - enums with unit, tuple, and struct variants (externally tagged)
//!
//! Generic types are rejected with a compile error.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed outline of a struct or enum item.
enum Item {
    Unit {
        name: String,
    },
    NamedStruct {
        name: String,
        fields: Vec<String>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Splits the tokens of a brace/paren group on top-level commas.
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle_depth = 0i32;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(tt);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Strips leading `#[...]` attribute pairs from a token slice.
fn strip_attrs(tokens: &mut Vec<TokenTree>) {
    loop {
        let is_attr = matches!(tokens.first(), Some(TokenTree::Punct(p)) if p.as_char() == '#')
            && matches!(tokens.get(1), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket);
        if is_attr {
            tokens.drain(..2);
        } else {
            return;
        }
    }
}

/// Strips a leading visibility qualifier (`pub`, `pub(crate)`, ...).
fn strip_vis(tokens: &mut Vec<TokenTree>) {
    if matches!(tokens.first(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.remove(0);
        if matches!(tokens.first(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.remove(0);
        }
    }
}

/// Field names of a named-field group body (`{ a: T, b: U }`).
fn named_fields(body: Vec<TokenTree>) -> Vec<String> {
    split_commas(body)
        .into_iter()
        .filter_map(|mut field| {
            strip_attrs(&mut field);
            strip_vis(&mut field);
            match field.first() {
                Some(TokenTree::Ident(i)) => Some(i.to_string()),
                _ => None,
            }
        })
        .collect()
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens: Vec<TokenTree> = input.into_iter().collect();
    strip_attrs(&mut tokens);
    strip_vis(&mut tokens);

    let kind = match tokens.first() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let name = match tokens.get(1) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected item name".into()),
    };
    if matches!(tokens.get(2), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("derive shim does not support generics on `{name}`"));
    }

    match kind.as_str() {
        "struct" => match tokens.get(2) {
            None | Some(TokenTree::Punct(_)) => Ok(Item::Unit { name }),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Ok(Item::NamedStruct {
                    name,
                    fields: named_fields(g.stream().into_iter().collect()),
                })
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Ok(Item::TupleStruct {
                    name,
                    arity: split_commas(g.stream().into_iter().collect()).len(),
                })
            }
            _ => Err(format!("unsupported struct body for `{name}`")),
        },
        "enum" => {
            let body = match tokens.get(2) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                _ => return Err(format!("expected enum body for `{name}`")),
            };
            let mut variants = Vec::new();
            for mut var in split_commas(body.into_iter().collect()) {
                strip_attrs(&mut var);
                if var.is_empty() {
                    continue;
                }
                let vname = match var.first() {
                    Some(TokenTree::Ident(i)) => i.to_string(),
                    _ => return Err(format!("expected variant name in `{name}`")),
                };
                let shape = match var.get(1) {
                    None => VariantShape::Unit,
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        VariantShape::Named(named_fields(g.stream().into_iter().collect()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        VariantShape::Tuple(split_commas(g.stream().into_iter().collect()).len())
                    }
                    // `Variant = 3` discriminants: treat as unit.
                    Some(TokenTree::Punct(p)) if p.as_char() == '=' => VariantShape::Unit,
                    _ => return Err(format!("unsupported variant shape in `{name}`")),
                };
                variants.push(Variant { name: vname, shape });
            }
            Ok(Item::Enum { name, variants })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// `#[derive(Serialize)]` — emits a `serde::Serialize` impl lowering the
/// item to the shim's `Value` tree (externally-tagged enum encoding).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    let (name, body) = match item {
        Item::Unit { name } => (
            name.clone(),
            format!("serde::Value::String({name:?}.to_string())"),
        ),
        Item::NamedStruct { name, fields } => {
            let pairs: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), serde::Serialize::to_value(&self.{f}))"))
                .collect();
            (
                name,
                format!("serde::Value::Object(vec![{}])", pairs.join(", ")),
            )
        }
        Item::TupleStruct { name, arity } => {
            if arity == 1 {
                (name, "serde::Serialize::to_value(&self.0)".to_string())
            } else {
                let elems: Vec<String> = (0..arity)
                    .map(|i| format!("serde::Serialize::to_value(&self.{i})"))
                    .collect();
                (
                    name,
                    format!("serde::Value::Array(vec![{}])", elems.join(", ")),
                )
            }
        }
        Item::Enum { name, variants } => {
            let mut arms = Vec::new();
            for v in &variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => arms.push(format!(
                        "{name}::{vn} => serde::Value::String({vn:?}.to_string()),"
                    )),
                    VariantShape::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("f{i}")).collect();
                        let inner = if *arity == 1 {
                            "serde::Serialize::to_value(f0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_value({b})"))
                                .collect();
                            format!("serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        arms.push(format!(
                            "{name}::{vn}({}) => serde::Value::Object(vec![({vn:?}.to_string(), {inner})]),",
                            binds.join(", ")
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("({f:?}.to_string(), serde::Serialize::to_value({f}))")
                            })
                            .collect();
                        arms.push(format!(
                            "{name}::{vn} {{ {} }} => serde::Value::Object(vec![({vn:?}.to_string(), serde::Value::Object(vec![{}]))]),",
                            fields.join(", "),
                            pairs.join(", ")
                        ));
                    }
                }
            }
            (name, format!("match self {{ {} }}", arms.join(" ")))
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n    fn to_value(&self) -> serde::Value {{ {body} }}\n}}"
    )
    .parse()
    .unwrap()
}
