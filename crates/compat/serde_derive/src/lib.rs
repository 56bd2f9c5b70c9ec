//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros
//! for the vendored serde stand-in (the build environment is offline, so
//! `syn`/`quote` are unavailable and the item is parsed directly from the
//! raw token stream).
//!
//! Supported shapes — exactly what this workspace uses:
//!
//! * structs with named fields,
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays),
//! * unit structs,
//! * enums whose variants are unit (with optional discriminants), tuple,
//!   or struct-like.
//!
//! Named fields may carry `#[serde(default)]`: deserialization then
//! substitutes `Default::default()` when the key is absent, which is how
//! the versioned `ScenarioSpec` schema stays loadable across field
//! additions. Named fields may also carry `#[serde(skip)]`: the field is
//! never written and always reads back as `Default::default()`, which is
//! how a simulator component leaves its scratch buffers out of a
//! checkpoint. Generics and every other `#[serde(...)]` attribute are
//! intentionally rejected.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named field: its identifier plus its serde attributes.
struct FieldDef {
    name: String,
    /// `#[serde(default)]`: an absent key falls back to
    /// `Default::default()`.
    default: bool,
    /// `#[serde(skip)]`: never written, always `Default::default()` on
    /// read.
    skip: bool,
}

enum Fields {
    Named(Vec<FieldDef>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize` (the vendored `serialize` form: JSON
/// appended to a `serde::JsonWriter`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize` (the vendored `from_value` form).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item).parse().expect("generated impl parses"),
        Err(msg) => format!("::std::compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = skip_attrs_and_vis(&tokens, &mut i)?;
    if attrs.default || attrs.skip {
        return Err(FIELD_ONLY.to_string());
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "derive on generic type `{name}` is not supported by the vendored serde"
        ));
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unsupported struct body: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, found {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// Serde-relevant outer attributes collected while skipping.
#[derive(Default)]
struct Attrs {
    /// `#[serde(default)]` was present.
    default: bool,
    /// `#[serde(skip)]` was present.
    skip: bool,
}

const FIELD_ONLY: &str = "#[serde(default)] and #[serde(skip)] are only supported on named fields";

/// Advances `i` past any outer attributes (`#[...]`, including expanded
/// doc comments) and a `pub` / `pub(...)` visibility qualifier,
/// collecting `#[serde(...)]` content along the way.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    parse_attr(g.stream(), &mut attrs)?;
                }
                *i += 2; // `#` + bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return Ok(attrs),
        }
    }
}

/// Interprets one outer-attribute body: `serde(default)` and
/// `serde(skip)` set their flags, any other `serde(...)` payload is
/// rejected (so silently-ignored attributes can't hide schema bugs), and
/// every non-serde attribute (doc comments, `derive`, ...) is ignored.
fn parse_attr(body: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    match tokens.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Ok(()),
    }
    let inner = match tokens.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => g.stream(),
        other => return Err(format!("malformed #[serde(...)] attribute: {other:?}")),
    };
    for t in inner {
        match &t {
            TokenTree::Ident(id) if id.to_string() == "default" => attrs.default = true,
            TokenTree::Ident(id) if id.to_string() == "skip" => attrs.skip = true,
            TokenTree::Punct(p) if p.as_char() == ',' => {}
            other => {
                return Err(format!(
                    "unsupported #[serde({other})]: only `default` and `skip` are known"
                ))
            }
        }
    }
    Ok(())
}

/// Extracts the fields of a named-fields body (name plus any
/// `#[serde(default)]`/`#[serde(skip)]` marker), skipping each type by
/// scanning to the next top-level comma (tracking `<`/`>` nesting;
/// parens and brackets arrive pre-grouped).
fn parse_named_fields(body: TokenStream) -> Result<Vec<FieldDef>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i)?;
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_to_top_level_comma(&tokens, &mut i);
        fields.push(FieldDef {
            name,
            default: attrs.default,
            skip: attrs.skip,
        });
    }
    Ok(fields)
}

/// Number of fields in a tuple-struct / tuple-variant body: one per
/// non-empty comma-separated segment.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        count += 1;
        skip_to_top_level_comma(&tokens, &mut i);
    }
    count
}

/// Advances `i` past tokens until just after the next comma at angle-depth
/// zero (or to the end of the stream).
fn skip_to_top_level_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while *i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*i] {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = skip_attrs_and_vis(&tokens, &mut i)?;
        if attrs.default || attrs.skip {
            return Err(FIELD_ONLY.to_string());
        }
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip an optional `= <discriminant>` and the trailing comma.
        skip_to_top_level_comma(&tokens, &mut i);
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => match fields {
            Fields::Named(names) => (name, named_to_map(names, |f| format!("&self.{f}"))),
            Fields::Tuple(1) => (name, "::serde::Serialize::serialize(&self.0, w);".into()),
            Fields::Tuple(n) => (name, tuple_to_array(*n, |idx| format!("&self.{idx}"))),
            Fields::Unit => (name, "w.null();".into()),
        },
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let (pat, inner) = match &v.fields {
                        Fields::Unit => return format!("{name}::{vname} => w.str({vname:?}),\n"),
                        Fields::Named(fields) => {
                            let binds: String = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| format!("{}, ", f.name))
                                .collect();
                            let inner = named_to_map(fields, |f| f.to_string());
                            (format!("{{ {binds}.. }}"), inner)
                        }
                        // Newtype variants serialize transparently (the
                        // real serde representation `{"Variant": value}`),
                        // matching the `Tuple(1)` deserialize arm; wider
                        // tuples become arrays.
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                            let inner = match n {
                                1 => "::serde::Serialize::serialize(__f0, w);".into(),
                                _ => tuple_to_array(*n, |idx| format!("__f{idx}")),
                            };
                            (format!("({})", binds.join(", ")), inner)
                        }
                    };
                    format!(
                        "{name}::{vname} {pat} => {{ \
                             w.open('{{'); w.key({vname:?}); {inner} w.close('}}'); }}\n"
                    )
                })
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, w: &mut ::serde::JsonWriter) {{ {body} }}\n\
         }}"
    )
}

fn named_to_map(fields: &[FieldDef], access: impl Fn(&str) -> String) -> String {
    let entries: String = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| format!("w.field({:?}, {});", f.name, access(&f.name)))
        .collect();
    format!("w.open('{{'); {entries} w.close('}}');")
}

/// One named-field initializer of the generated `from_value` body:
/// `#[serde(skip)]` fields are always `Default::default()`,
/// `#[serde(default)]` fields tolerate an absent key by substituting
/// `Default::default()`, everything else requires the key.
fn field_init(f: &FieldDef, src: &str) -> String {
    let name = f.name.as_str();
    if f.skip {
        format!("{name}: ::std::default::Default::default()")
    } else if f.default {
        format!(
            "{name}: match {src}.opt_field({name:?})? {{ \
                 ::std::option::Option::Some(__v) => ::serde::Deserialize::from_value(__v)?, \
                 ::std::option::Option::None => ::std::default::Default::default() }}"
        )
    } else {
        format!("{name}: ::serde::Deserialize::from_value({src}.get_field({name:?})?)?")
    }
}

fn tuple_to_array(n: usize, access: impl Fn(usize) -> String) -> String {
    let items: String = (0..n)
        .map(|idx| format!("w.item({});", access(idx)))
        .collect();
    format!("w.open('['); {items} w.close(']');")
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(names) => {
                    let inits: Vec<String> = names.iter().map(|f| field_init(f, "v")).collect();
                    format!(
                        "::std::result::Result::Ok({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"
                ),
                Fields::Tuple(n) => {
                    let inits: Vec<String> = (0..*n)
                        .map(|idx| {
                            format!("::serde::Deserialize::from_value(v.get_index({idx})?)?")
                        })
                        .collect();
                    format!("::std::result::Result::Ok({name}({}))", inits.join(", "))
                }
                Fields::Unit => format!("::std::result::Result::Ok({name})"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit: Vec<&Variant> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .collect();
            let data: Vec<&Variant> = variants
                .iter()
                .filter(|v| !matches!(v.fields, Fields::Unit))
                .collect();
            let mut arms = String::new();
            if !unit.is_empty() {
                let mut inner = String::new();
                for v in &unit {
                    inner.push_str(&format!(
                        "{:?} => ::std::result::Result::Ok({name}::{}),\n",
                        v.name, v.name
                    ));
                }
                arms.push_str(&format!(
                    "::serde::Value::Str(__s) => match __s.as_str() {{ {inner} \
                         __other => ::std::result::Result::Err(::serde::Error::new(\
                             ::std::format!(\"unknown variant `{{__other}}` of {name}\"))) }},\n"
                ));
            }
            if !data.is_empty() {
                let mut inner = String::new();
                for v in &data {
                    let vname = &v.name;
                    let build = match &v.fields {
                        Fields::Named(fields) => {
                            let inits: Vec<String> =
                                fields.iter().map(|f| field_init(f, "__content")).collect();
                            format!("{name}::{vname} {{ {} }}", inits.join(", "))
                        }
                        Fields::Tuple(1) => {
                            format!("{name}::{vname}(::serde::Deserialize::from_value(__content)?)")
                        }
                        Fields::Tuple(n) => {
                            let inits: Vec<String> = (0..*n)
                                .map(|idx| {
                                    format!(
                                        "::serde::Deserialize::from_value(__content.get_index({idx})?)?"
                                    )
                                })
                                .collect();
                            format!("{name}::{vname}({})", inits.join(", "))
                        }
                        Fields::Unit => unreachable!(),
                    };
                    inner.push_str(&format!(
                        "{vname:?} => ::std::result::Result::Ok({build}),\n"
                    ));
                }
                arms.push_str(&format!(
                    "::serde::Value::Map(__fields) if __fields.len() == 1 => {{\n\
                         let (__tag, __content) = &__fields[0];\n\
                         match __tag.as_str() {{ {inner} \
                             __other => ::std::result::Result::Err(::serde::Error::new(\
                                 ::std::format!(\"unknown variant `{{__other}}` of {name}\"))) }}\n\
                     }},\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                         match v {{ {arms} __other => ::std::result::Result::Err(::serde::Error::new(\
                             ::std::format!(\"invalid representation of enum {name}: {{}}\", __other.kind()))) }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
