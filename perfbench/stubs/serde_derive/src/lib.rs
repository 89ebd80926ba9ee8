//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the shapes the repository uses, written against `proc_macro`
//! alone (no `syn`/`quote`, which are not available offline).
//!
//! Supported: structs with named fields, tuple and unit structs, enums
//! with unit, tuple and struct variants (externally tagged, or adjacently
//! tagged through `tag` + `content`), and the attributes `default`,
//! `default = "path"`, `with = "module"`, `rename = "name"`,
//! `rename_all = "snake_case" | "lowercase"`, `skip`,
//! `skip_serializing_if = "path"` and `transparent`. Generic types and
//! any other attribute are a compile error rather than a silent
//! difference from the published crate.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().unwrap_or_else(|e| {
        format!("compile_error!(\"serde_derive stand-in produced invalid code: {e}\");")
            .parse()
            .unwrap_or_default()
    })
}

// ---------------------------------------------------------------- model

#[derive(Default)]
struct Attrs {
    default: Option<Option<String>>,
    with: Option<String>,
    rename: Option<String>,
    rename_all: Option<String>,
    skip: bool,
    skip_serializing_if: Option<String>,
    transparent: bool,
    tag: Option<String>,
    content: Option<String>,
}

struct Field {
    /// Field name, or the tuple index.
    member: String,
    attrs: Attrs,
}

enum Shape {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    attrs: Attrs,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

// -------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let attrs = parse_attrs(&tokens, &mut pos)?;
    skip_visibility(&tokens, &mut pos);
    let keyword = ident_at(&tokens, pos).ok_or("expected `struct` or `enum`")?;
    pos += 1;
    let name = ident_at(&tokens, pos).ok_or("expected a type name")?;
    pos += 1;
    if is_punct(tokens.get(pos), '<') {
        return Err(format!(
            "serde_derive stand-in: generic type `{name}` is not supported"
        ));
    }
    let body = match keyword.as_str() {
        "struct" => Body::Struct(parse_shape(tokens.get(pos))?),
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            _ => return Err(format!("expected a body for enum `{name}`")),
        },
        other => return Err(format!("cannot derive serde traits for `{other}` items")),
    };
    Ok(Item { name, attrs, body })
}

fn ident_at(tokens: &[TokenTree], pos: usize) -> Option<String> {
    match tokens.get(pos) {
        Some(TokenTree::Ident(i)) => Some(i.to_string()),
        _ => None,
    }
}

fn is_punct(token: Option<&TokenTree>, c: char) -> bool {
    matches!(token, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if ident_at(tokens, *pos).as_deref() == Some("pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Consume leading `#[...]` attributes, keeping what `#[serde(...)]` says.
fn parse_attrs(tokens: &[TokenTree], pos: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while is_punct(tokens.get(*pos), '#') {
        let Some(TokenTree::Group(group)) = tokens.get(*pos + 1) else {
            return Err("malformed attribute".to_string());
        };
        *pos += 2;
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if ident_at(&inner, 0).as_deref() != Some("serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            return Err("expected `#[serde(...)]`".to_string());
        };
        parse_serde_args(args.stream(), &mut attrs)?;
    }
    Ok(attrs)
}

fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = args.into_iter().collect();
    let mut pos = 0;
    while pos < tokens.len() {
        let key = ident_at(&tokens, pos).ok_or("expected a serde attribute name")?;
        pos += 1;
        let mut value = None;
        if is_punct(tokens.get(pos), '=') {
            let Some(TokenTree::Literal(lit)) = tokens.get(pos + 1) else {
                return Err(format!("serde attribute `{key}` expects a string"));
            };
            let text = lit.to_string();
            let unquoted = text
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| format!("serde attribute `{key}` expects a string"))?;
            value = Some(unquoted.to_string());
            pos += 2;
        }
        match (key.as_str(), value) {
            ("default", v) => attrs.default = Some(v),
            ("transparent", None) => attrs.transparent = true,
            ("skip", None) => attrs.skip = true,
            ("with", Some(v)) => attrs.with = Some(v),
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) if v == "snake_case" || v == "lowercase" => {
                attrs.rename_all = Some(v)
            }
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("content", Some(v)) => attrs.content = Some(v),
            (other, _) => {
                return Err(format!(
                    "serde_derive stand-in: attribute `{other}` is not supported in this form"
                ))
            }
        }
        if pos < tokens.len() {
            if !is_punct(tokens.get(pos), ',') {
                return Err("expected `,` between serde attributes".to_string());
            }
            pos += 1;
        }
    }
    Ok(())
}

/// The fields of a struct or of one enum variant.
fn parse_shape(token: Option<&TokenTree>) -> Result<Shape, String> {
    match token {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named(parse_fields(g.stream(), true)?))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(parse_fields(g.stream(), false)?))
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse_fields(stream: TokenStream, named: bool) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut pos)?;
        skip_visibility(&tokens, &mut pos);
        let member = if named {
            let name = ident_at(&tokens, pos).ok_or("expected a field name")?;
            pos += 1;
            if !is_punct(tokens.get(pos), ':') {
                return Err(format!("expected `:` after field `{name}`"));
            }
            pos += 1;
            name
        } else {
            fields.len().to_string()
        };
        // Skip the type: up to the next comma outside `<...>`. Brackets
        // and parentheses arrive as single groups already.
        let mut depth = 0usize;
        while let Some(token) = tokens.get(pos) {
            if let TokenTree::Punct(p) = token {
                let after_minus = pos > 0 && is_punct(tokens.get(pos - 1), '-');
                match p.as_char() {
                    '<' => depth += 1,
                    '>' if !after_minus => depth = depth.saturating_sub(1),
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            pos += 1;
        }
        pos += 1; // the comma, if any
        fields.push(Field { member, attrs });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        let attrs = parse_attrs(&tokens, &mut pos)?;
        let name = ident_at(&tokens, pos).ok_or("expected a variant name")?;
        pos += 1;
        let shape = parse_shape(tokens.get(pos))?;
        if !matches!(shape, Shape::Unit) {
            pos += 1;
        }
        // An explicit discriminant (`= 3`) plays no part in the format.
        while pos < tokens.len() && !is_punct(tokens.get(pos), ',') {
            pos += 1;
        }
        pos += 1;
        variants.push(Variant { name, attrs, shape });
    }
    Ok(variants)
}

// ----------------------------------------------------------- generation

const MAP: &str = "::serde::__private::Map::<::std::string::String, ::serde::__private::Value>";

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn wire_name(own: &str, attrs: &Attrs, rename_all: Option<&str>) -> String {
    if let Some(name) = &attrs.rename {
        return name.clone();
    }
    match rename_all {
        Some("snake_case") => snake_case(own),
        Some("lowercase") => own.to_lowercase(),
        _ => own.to_string(),
    }
}

/// Expression of type `Result<Value, Error>` serializing `place` (a
/// reference) as field `f`.
fn ser_field_expr(f: &Field, place: &str) -> String {
    match &f.attrs.with {
        Some(module) => {
            format!("{module}::serialize({place}, ::serde::__private::ValueSerializer)")
        }
        None => format!("::serde::__private::to_value({place})"),
    }
}

/// Statements filling the map `__m` from named fields; `place(f)` names
/// a reference to the field.
fn ser_named(
    fields: &[Field],
    rename_all: Option<&str>,
    place: impl Fn(&Field) -> String,
) -> String {
    let mut out = format!("let mut __m = {MAP}::new();\n");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let key = wire_name(&f.member, &f.attrs, rename_all);
        let insert = format!(
            "__m.insert({key:?}.to_string(), {}?);\n",
            ser_field_expr(f, &place(f))
        );
        match &f.attrs.skip_serializing_if {
            Some(pred) => out += &format!("if !{pred}({}) {{ {insert} }}\n", place(f)),
            None => out += &insert,
        }
    }
    out
}

/// Expression of type `Result<Value, Error>` for a tuple payload.
fn ser_tuple(fields: &[Field], place: impl Fn(&Field) -> String) -> String {
    if let [only] = fields {
        // Newtype: the inner value itself.
        return ser_field_expr(only, &place(only));
    }
    let items: Vec<String> = fields
        .iter()
        .map(|f| format!("{}?", ser_field_expr(f, &place(f))))
        .collect();
    format!(
        "::core::result::Result::<_, ::serde::__private::Error>::Ok(::serde::__private::Value::Array(vec![{}]))",
        items.join(", ")
    )
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let rename_all = item.attrs.rename_all.as_deref();
    // `body` evaluates to Result<Value, Error>.
    let body = match &item.body {
        Body::Struct(Shape::Unit) => {
            "::core::result::Result::<_, ::serde::__private::Error>::Ok(::serde::__private::Value::Null)".to_string()
        }
        Body::Struct(Shape::Tuple(fields)) => ser_tuple(fields, |f| format!("&self.{}", f.member)),
        Body::Struct(Shape::Named(fields)) if item.attrs.transparent && fields.len() == 1 => {
            ser_field_expr(&fields[0], &format!("&self.{}", fields[0].member))
        }
        Body::Struct(Shape::Named(fields)) => format!(
            "{{ {} ::core::result::Result::<_, ::serde::__private::Error>::Ok(::serde::__private::Value::Object(__m)) }}",
            ser_named(fields, rename_all, |f| format!("&self.{}", f.member))
        ),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let wire = wire_name(&v.name, &v.attrs, rename_all);
                let (pattern, payload) = match &v.shape {
                    Shape::Unit => (String::new(), None),
                    Shape::Tuple(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| format!("__f{}", f.member)).collect();
                        (
                            format!("({})", binds.join(", ")),
                            Some(ser_tuple(fields, |f| format!("__f{}", f.member))),
                        )
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.member.clone()).collect();
                        (
                            format!("{{ {} }}", binds.join(", ")),
                            Some(format!(
                                "{{ {} ::core::result::Result::<_, ::serde::__private::Error>::Ok(::serde::__private::Value::Object(__m)) }}",
                                ser_named(fields, None, |f| f.member.clone())
                            )),
                        )
                    }
                };
                let value = match (&item.attrs.tag, &item.attrs.content, payload) {
                    (Some(tag), _, None) => format!(
                        "{{ let mut __t = {MAP}::new(); __t.insert({tag:?}.to_string(), ::serde::__private::Value::from({wire:?})); ::serde::__private::Value::Object(__t) }}"
                    ),
                    (Some(tag), Some(content), Some(payload)) => format!(
                        "{{ let mut __t = {MAP}::new(); __t.insert({tag:?}.to_string(), ::serde::__private::Value::from({wire:?})); __t.insert({content:?}.to_string(), {payload}?); ::serde::__private::Value::Object(__t) }}"
                    ),
                    (Some(_), None, Some(_)) => {
                        return format!(
                            "compile_error!(\"serde_derive stand-in: enum `{name}` uses `tag` without `content`\");"
                        )
                    }
                    (None, _, None) => format!("::serde::__private::Value::from({wire:?})"),
                    (None, _, Some(payload)) => format!(
                        "{{ let mut __t = {MAP}::new(); __t.insert({wire:?}.to_string(), {payload}?); ::serde::__private::Value::Object(__t) }}"
                    ),
                };
                arms += &format!("{name}::{}{pattern} => {value},\n", v.name);
            }
            format!(
                "(|| -> ::core::result::Result<::serde::__private::Value, ::serde::__private::Error> {{ ::core::result::Result::Ok(match self {{ {arms} }}) }})()"
            )
        }
    };
    format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __s: __S) -> ::core::result::Result<__S::Ok, __S::Error> {{
                let __value = (|| -> ::core::result::Result<::serde::__private::Value, ::serde::__private::Error> {{ {body} }})()
                    .map_err(::serde::__private::ser_err::<__S>)?;
                __s.serialize_value(__value)
            }}
        }}"
    )
}

/// Expression of type `Result<FieldType, Error>` reading field `f` out of
/// the map `__m`.
fn de_named_field(f: &Field, rename_all: Option<&str>) -> String {
    let key = wire_name(&f.member, &f.attrs, rename_all);
    if f.attrs.skip {
        return "::core::result::Result::<_, ::serde::__private::Error>::Ok(::core::default::Default::default())".to_string();
    }
    if let Some(module) = &f.attrs.with {
        return format!("{module}::deserialize(::serde::__private::take_raw(&mut __m, {key:?}))");
    }
    match &f.attrs.default {
        Some(Some(path)) => format!("::serde::__private::take_field_or(&mut __m, {key:?}, {path})"),
        Some(None) => format!(
            "::serde::__private::take_field_or(&mut __m, {key:?}, ::core::default::Default::default)"
        ),
        None => format!("::serde::__private::take_field(&mut __m, {key:?})"),
    }
}

/// Expression of type `Result<T, Error>` building `ctor` (a struct or
/// variant path) of the given shape from the value `__v`.
fn de_shape(
    ctor: &str,
    what: &str,
    shape: &Shape,
    rename_all: Option<&str>,
    transparent: bool,
) -> String {
    let ok = "::core::result::Result::<_, ::serde::__private::Error>::Ok";
    match shape {
        Shape::Unit => format!("{ok}({ctor})"),
        Shape::Tuple(fields) if fields.len() == 1 => match &fields[0].attrs.with {
            Some(module) => format!(
                "{module}::deserialize(::serde::__private::ValueDeserializer(__v)).map({ctor})"
            ),
            None => format!("::serde::__private::from_value(__v).map({ctor})"),
        },
        Shape::Tuple(fields) => {
            let n = fields.len();
            let items: Vec<String> = (0..n)
                .map(|_| {
                    "::serde::__private::from_value(__items.next().unwrap_or_default())?"
                        .to_string()
                })
                .collect();
            format!(
                "{{ let mut __items = ::serde::__private::expect_array(__v, {n}, {what:?})?.into_iter(); {ok}({ctor}({})) }}",
                items.join(", ")
            )
        }
        Shape::Named(fields) if transparent && fields.len() == 1 => format!(
            "::serde::__private::from_value(__v).map(|__inner| {ctor} {{ {}: __inner }})",
            fields[0].member
        ),
        Shape::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {}?", f.member, de_named_field(f, rename_all)))
                .collect();
            format!(
                "{{ let mut __m = ::serde::__private::expect_object(__v, {what:?})?; {ok}({ctor} {{ {} }}) }}",
                inits.join(", ")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let rename_all = item.attrs.rename_all.as_deref();
    let body = match &item.body {
        Body::Struct(shape) => de_shape(
            name,
            &format!("struct {name}"),
            shape,
            rename_all,
            item.attrs.transparent,
        ),
        Body::Enum(variants) => {
            let what = format!("enum {name}");
            let mut arms = String::new();
            for v in variants {
                let wire = wire_name(&v.name, &v.attrs, rename_all);
                let ctor = format!("{name}::{}", v.name);
                arms += &format!(
                    "{wire:?} => {},\n",
                    de_shape(&ctor, &format!("variant {ctor}"), &v.shape, None, false)
                );
            }
            let split = match (&item.attrs.tag, &item.attrs.content) {
                (Some(tag), content) => {
                    let payload = match content {
                        Some(content) => format!(
                            "__m.remove({content:?}).unwrap_or(::serde::__private::Value::Null)"
                        ),
                        None => "::serde::__private::Value::Null".to_string(),
                    };
                    format!(
                        "let mut __m = ::serde::__private::expect_object(__v, {what:?})?;
                         let __name: ::std::string::String = ::serde::__private::take_field(&mut __m, {tag:?})?;
                         let __v = {payload};"
                    )
                }
                (None, _) => {
                    format!("let (__name, __v) = ::serde::__private::enum_parts(__v, {what:?})?;")
                }
            };
            format!(
                "{{ {split}
                   let _ = &__v;
                   match __name.as_str() {{
                       {arms}
                       __other => ::core::result::Result::Err(::serde::__private::unknown_variant(__other, {what:?})),
                   }} }}"
            )
        }
    };
    format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) -> ::core::result::Result<Self, __D::Error> {{
                let __v = ::serde::Deserializer::take_value(__d)?;
                (move || -> ::core::result::Result<Self, ::serde::__private::Error> {{ {body} }})()
                    .map_err(::serde::__private::de_err::<__D>)
            }}
        }}"
    )
}
