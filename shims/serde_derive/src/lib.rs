//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the vendored serde
//! shim, implemented with a hand-rolled token parser (no `syn`/`quote`).
//!
//! Supported input shapes — exactly what this workspace uses:
//!
//! * named structs, tuple structs (incl. newtypes), unit structs
//! * enums with unit / newtype / tuple / struct variants (indexed externally
//!   by declaration order, matching the wire format's variant indices)
//! * type generics with inline bounds (`<C: Crdt>`, `<K: Ord, V>`) and where
//!   clauses
//! * `#[serde(bound(serialize = "…", deserialize = "…"))]` overrides
//!
//! Field-level serde attributes are skipped, which makes `#[serde(borrow)]` a
//! tolerated no-op: the positional wire format borrows automatically through
//! the `&'a str` / `&'a [u8]` impls. Type-level serde attributes other than
//! `bound` still fail loudly.
//!
//! Both derives emit `deserialize_in_place` alongside `deserialize`, so
//! steady-state re-decodes into scratch values reuse resident allocations.

use proc_macro::{Delimiter, TokenStream, TokenTree};

mod parse;

use parse::{Data, Fields, Input};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = match parse::parse(input) {
        Ok(input) => input,
        Err(message) => return compile_error(&message),
    };
    expand_serialize(&input).parse().expect("serde_derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = match parse::parse(input) {
        Ok(input) => input,
        Err(message) => return compile_error(&message),
    };
    expand_deserialize(&input).parse().expect("serde_derive generated invalid Deserialize impl")
}

fn compile_error(message: &str) -> TokenStream {
    format!("compile_error!({message:?});").parse().unwrap()
}

/// `Name<A, B>` or just `Name` when the type has no generic parameters.
fn self_type(input: &Input) -> String {
    if input.generics.args.is_empty() {
        input.name.clone()
    } else {
        format!("{}<{}>", input.name, input.generics.args.join(", "))
    }
}

/// Where-clause text for an impl: explicit `#[serde(bound(...))]` override if
/// present, otherwise one `P: <default>` predicate per type parameter, plus
/// the type's own where clause.
fn where_clause(input: &Input, type_override: &Option<String>, default_bound: &str) -> String {
    let mut predicates: Vec<String> = Vec::new();
    match type_override {
        Some(bound) => {
            if !bound.trim().is_empty() {
                predicates.push(bound.clone());
            }
        }
        None => {
            for param in &input.generics.type_params {
                predicates.push(format!("{param}: {default_bound}"));
            }
        }
    }
    if !input.generics.where_predicates.trim().is_empty() {
        predicates.push(input.generics.where_predicates.clone());
    }
    if predicates.is_empty() {
        String::new()
    } else {
        format!("where {}", predicates.join(", "))
    }
}

/// PhantomData payload naming every generic argument so visitor structs use
/// all their parameters.
fn phantom(input: &Input) -> String {
    let args: Vec<String> = input
        .generics
        .args
        .iter()
        .map(|arg| if arg.starts_with('\'') { format!("&{arg} ()") } else { arg.clone() })
        .collect();
    format!("::core::marker::PhantomData<({},)>", args.join(", ")).replace("<(,)>", "<()>")
}

fn expand_serialize(input: &Input) -> String {
    let name = &input.name;
    let self_ty = self_type(input);
    let generics = &input.generics.decl;
    let impl_generics = if generics.is_empty() { String::new() } else { format!("<{generics}>") };
    let bounds = where_clause(input, &input.bounds.serialize, "::serde::Serialize");

    let body = match &input.data {
        Data::Struct(Fields::Unit) => {
            format!("::serde::Serializer::serialize_unit_struct(__serializer, {name:?})")
        }
        Data::Struct(Fields::Tuple(1)) => {
            format!(
                "::serde::Serializer::serialize_newtype_struct(__serializer, {name:?}, &self.0)"
            )
        }
        Data::Struct(Fields::Tuple(arity)) => {
            let mut out = format!(
                "let mut __state = ::serde::Serializer::serialize_tuple_struct(__serializer, {name:?}, {arity})?;\n"
            );
            for index in 0..*arity {
                out.push_str(&format!(
                    "::serde::ser::SerializeTupleStruct::serialize_field(&mut __state, &self.{index})?;\n"
                ));
            }
            out.push_str("::serde::ser::SerializeTupleStruct::end(__state)");
            out
        }
        Data::Struct(Fields::Named(fields)) => {
            let mut out = format!(
                "let mut __state = ::serde::Serializer::serialize_struct(__serializer, {name:?}, {})?;\n",
                fields.len()
            );
            for field in fields {
                out.push_str(&format!(
                    "::serde::ser::SerializeStruct::serialize_field(&mut __state, {field:?}, &self.{field})?;\n"
                ));
            }
            out.push_str("::serde::ser::SerializeStruct::end(__state)");
            out
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for (index, variant) in variants.iter().enumerate() {
                let index = index as u32;
                let vname = &variant.name;
                match &variant.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::Serializer::serialize_unit_variant(__serializer, {name:?}, {index}u32, {vname:?}),\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vname}(__f0) => ::serde::Serializer::serialize_newtype_variant(__serializer, {name:?}, {index}u32, {vname:?}, __f0),\n"
                    )),
                    Fields::Tuple(arity) => {
                        let binders: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let mut arm = format!(
                            "{name}::{vname}({}) => {{\nlet mut __state = ::serde::Serializer::serialize_tuple_variant(__serializer, {name:?}, {index}u32, {vname:?}, {arity})?;\n",
                            binders.join(", ")
                        );
                        for binder in &binders {
                            arm.push_str(&format!(
                                "::serde::ser::SerializeTupleVariant::serialize_field(&mut __state, {binder})?;\n"
                            ));
                        }
                        arm.push_str("::serde::ser::SerializeTupleVariant::end(__state)\n},\n");
                        arms.push_str(&arm);
                    }
                    Fields::Named(fields) => {
                        let mut arm = format!(
                            "{name}::{vname} {{ {} }} => {{\nlet mut __state = ::serde::Serializer::serialize_struct_variant(__serializer, {name:?}, {index}u32, {vname:?}, {})?;\n",
                            fields.join(", "),
                            fields.len()
                        );
                        for field in fields {
                            arm.push_str(&format!(
                                "::serde::ser::SerializeStructVariant::serialize_field(&mut __state, {field:?}, {field})?;\n"
                            ));
                        }
                        arm.push_str("::serde::ser::SerializeStructVariant::end(__state)\n},\n");
                        arms.push_str(&arm);
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };

    format!(
        "#[automatically_derived]\n\
         impl{impl_generics} ::serde::Serialize for {self_ty} {bounds} {{\n\
             #[inline]\n\
             fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S)\n\
                 -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// Generates in-place reads of sequence elements into the given `&mut`
/// expressions (each expression must already have type `&mut Field`). Length
/// errors use a baked-in message: `&self` may be unavailable while `ref mut`
/// bindings into the place are live.
fn read_seq_fields_in_place(exprs: &[String], expected: &str) -> String {
    let mut out = String::new();
    for (index, expr) in exprs.iter().enumerate() {
        let message = format!("invalid length {index}, expected {expected}");
        out.push_str(&format!(
            "if ::serde::de::SeqAccess::next_element_seed(&mut __seq, ::serde::de::InPlaceSeed({expr}))?.is_none() {{\n\
                 return Err(::serde::de::Error::custom({message:?}));\n\
             }}\n"
        ));
    }
    out
}

/// Generates `let __fN = …;` bindings reading `count` sequence elements.
fn read_seq_fields(count: usize) -> String {
    let mut out = String::new();
    for index in 0..count {
        out.push_str(&format!(
            "let __f{index} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{\n\
                 Some(__value) => __value,\n\
                 None => return Err(::serde::de::Error::invalid_length({index}usize, &self)),\n\
             }};\n"
        ));
    }
    out
}

fn named_constructor(path: &str, fields: &[String]) -> String {
    let assignments: Vec<String> =
        fields.iter().enumerate().map(|(i, f)| format!("{f}: __f{i}")).collect();
    format!("{path} {{ {} }}", assignments.join(", "))
}

fn tuple_constructor(path: &str, arity: usize) -> String {
    let args: Vec<String> = (0..arity).map(|i| format!("__f{i}")).collect();
    format!("{path}({})", args.join(", "))
}

fn expand_deserialize(input: &Input) -> String {
    let name = &input.name;
    let self_ty = self_type(input);
    let generics = &input.generics.decl;
    let impl_generics =
        if generics.is_empty() { "<'de>".to_string() } else { format!("<'de, {generics}>") };
    let visitor_generics =
        if generics.is_empty() { String::new() } else { format!("<{generics}>") };
    let visitor_ty = if input.generics.args.is_empty() {
        "__Visitor".to_string()
    } else {
        format!("__Visitor<{}>", input.generics.args.join(", "))
    };
    let mut bounds =
        where_clause(input, &input.bounds.deserialize, "::serde::de::Deserialize<'de>");
    // Borrowed fields (`&'a str`, `&'a [u8]`) require the input to outlive
    // every lifetime parameter of the deriving type.
    let lifetime_bounds: Vec<String> = input
        .generics
        .args
        .iter()
        .filter(|arg| arg.starts_with('\''))
        .map(|lifetime| format!("'de: {lifetime}"))
        .collect();
    if !lifetime_bounds.is_empty() {
        bounds = if bounds.is_empty() {
            format!("where {}", lifetime_bounds.join(", "))
        } else {
            format!("{bounds}, {}", lifetime_bounds.join(", "))
        };
    }
    let phantom_ty = phantom(input);

    // Inner visitor definitions (for tuple/struct enum variants) plus the main
    // visitor body and the deserializer entry call.
    let mut inner_visitors = String::new();
    let (visitor_methods, entry) = match &input.data {
        Data::Struct(Fields::Unit) => (
            format!(
                "fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<Self::Value, __E> {{\n\
                     Ok({name})\n\
                 }}"
            ),
            format!(
                "::serde::Deserializer::deserialize_unit_struct(__deserializer, {name:?}, {})",
                visitor_value(&phantom_ty)
            ),
        ),
        Data::Struct(Fields::Tuple(1)) => (
            format!(
                "fn visit_newtype_struct<__D: ::serde::Deserializer<'de>>(self, __deserializer: __D)\n\
                     -> ::core::result::Result<Self::Value, __D::Error> {{\n\
                     Ok({name}(::serde::Deserialize::deserialize(__deserializer)?))\n\
                 }}\n\
                 fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                     -> ::core::result::Result<Self::Value, __A::Error> {{\n\
                     {}\n\
                     Ok({})\n\
                 }}",
                read_seq_fields(1),
                tuple_constructor(name, 1)
            ),
            format!(
                "::serde::Deserializer::deserialize_newtype_struct(__deserializer, {name:?}, {})",
                visitor_value(&phantom_ty)
            ),
        ),
        Data::Struct(Fields::Tuple(arity)) => (
            format!(
                "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                     -> ::core::result::Result<Self::Value, __A::Error> {{\n\
                     {}\n\
                     Ok({})\n\
                 }}",
                read_seq_fields(*arity),
                tuple_constructor(name, *arity)
            ),
            format!(
                "::serde::Deserializer::deserialize_tuple_struct(__deserializer, {name:?}, {arity}, {})",
                visitor_value(&phantom_ty)
            ),
        ),
        Data::Struct(Fields::Named(fields)) => {
            let field_names: Vec<String> = fields.iter().map(|f| format!("{f:?}")).collect();
            (
                format!(
                    "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                         -> ::core::result::Result<Self::Value, __A::Error> {{\n\
                         {}\n\
                         Ok({})\n\
                     }}",
                    read_seq_fields(fields.len()),
                    named_constructor(name, fields)
                ),
                format!(
                    "::serde::Deserializer::deserialize_struct(__deserializer, {name:?}, &[{}], {})",
                    field_names.join(", "),
                    visitor_value(&phantom_ty)
                ),
            )
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for (index, variant) in variants.iter().enumerate() {
                let index = index as u32;
                let vname = &variant.name;
                let path = format!("{name}::{vname}");
                match &variant.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{index}u32 => {{\n\
                             ::serde::de::VariantAccess::unit_variant(__variant)?;\n\
                             Ok({path})\n\
                         }},\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{index}u32 => Ok({path}(::serde::de::VariantAccess::newtype_variant(__variant)?)),\n"
                    )),
                    Fields::Tuple(arity) => {
                        let inner = format!("__Variant{index}Visitor");
                        inner_visitors.push_str(&inner_visitor(
                            &inner,
                            &visitor_generics,
                            &input.generics.args,
                            &bounds,
                            &self_ty,
                            &phantom_ty,
                            &format!(
                                "{}\nOk({})",
                                read_seq_fields(*arity),
                                tuple_constructor(&path, *arity)
                            ),
                        ));
                        arms.push_str(&format!(
                            "{index}u32 => ::serde::de::VariantAccess::tuple_variant(__variant, {arity}, {}),\n",
                            visitor_value_named(&inner, &input.generics.args, &phantom_ty)
                        ));
                    }
                    Fields::Named(fields) => {
                        let inner = format!("__Variant{index}Visitor");
                        let field_names: Vec<String> =
                            fields.iter().map(|f| format!("{f:?}")).collect();
                        inner_visitors.push_str(&inner_visitor(
                            &inner,
                            &visitor_generics,
                            &input.generics.args,
                            &bounds,
                            &self_ty,
                            &phantom_ty,
                            &format!(
                                "{}\nOk({})",
                                read_seq_fields(fields.len()),
                                named_constructor(&path, fields)
                            ),
                        ));
                        arms.push_str(&format!(
                            "{index}u32 => ::serde::de::VariantAccess::struct_variant(__variant, &[{}], {}),\n",
                            field_names.join(", "),
                            visitor_value_named(&inner, &input.generics.args, &phantom_ty)
                        ));
                    }
                }
            }
            let variant_names: Vec<String> =
                variants.iter().map(|v| format!("{:?}", v.name)).collect();
            (
                format!(
                    "fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A)\n\
                         -> ::core::result::Result<Self::Value, __A::Error> {{\n\
                         let (__index, __variant): (u32, _) = ::serde::de::EnumAccess::variant(__data)?;\n\
                         match __index {{\n\
                             {arms}\n\
                             __other => Err(::serde::de::Error::custom(format_args!(\n\
                                 \"invalid variant index {{__other}} for enum {name}\"))),\n\
                         }}\n\
                     }}"
                ),
                format!(
                    "::serde::Deserializer::deserialize_enum(__deserializer, {name:?}, &[{}], {})",
                    variant_names.join(", "),
                    visitor_value(&phantom_ty)
                ),
            )
        }
    };

    let in_place = expand_deserialize_in_place(input, &bounds);

    format!(
        "#[automatically_derived]\n\
         impl{impl_generics} ::serde::Deserialize<'de> for {self_ty} {bounds} {{\n\
             fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D)\n\
                 -> ::core::result::Result<Self, __D::Error> {{\n\
                 struct __Visitor{visitor_generics}({phantom_ty});\n\
                 {inner_visitors}\n\
                 impl{impl_generics} ::serde::de::Visitor<'de> for {visitor_ty} {bounds} {{\n\
                     type Value = {self_ty};\n\
                     fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                         __f.write_str({name:?})\n\
                     }}\n\
                     {visitor_methods}\n\
                 }}\n\
                 {entry}\n\
             }}\n\
             {in_place}\n\
         }}"
    )
}

/// Expands the `deserialize_in_place` method: visitors hold `&mut Self` and
/// decode field-wise into the existing value, so steady-state re-decodes of a
/// same-shaped message reuse every resident allocation. Enum visitors re-match
/// the resident variant and fall back to owned construction on a change.
fn expand_deserialize_in_place(input: &Input, bounds: &str) -> String {
    let name = &input.name;
    let self_ty = self_type(input);
    let generics = &input.generics.decl;
    let impl_generics = if generics.is_empty() {
        "<'de, '__place>".to_string()
    } else {
        format!("<'de, '__place, {generics}>")
    };

    let mut inner_visitors = String::new();
    let (visitor_methods, entry) = match &input.data {
        Data::Struct(Fields::Unit) => (
            format!(
                "fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<(), __E> {{\n\
                     *self.0 = {name};\n\
                     Ok(())\n\
                 }}"
            ),
            format!(
                "::serde::Deserializer::deserialize_unit_struct(__deserializer, {name:?}, __InPlaceVisitor(__place))"
            ),
        ),
        Data::Struct(Fields::Tuple(1)) => (
            format!(
                "fn visit_newtype_struct<__D2: ::serde::Deserializer<'de>>(self, __deserializer: __D2)\n\
                     -> ::core::result::Result<(), __D2::Error> {{\n\
                     ::serde::Deserialize::deserialize_in_place(__deserializer, &mut (self.0).0)\n\
                 }}\n\
                 fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                     -> ::core::result::Result<(), __A::Error> {{\n\
                     {}\n\
                     Ok(())\n\
                 }}",
                read_seq_fields_in_place(&["&mut (self.0).0".to_string()], name)
            ),
            format!(
                "::serde::Deserializer::deserialize_newtype_struct(__deserializer, {name:?}, __InPlaceVisitor(__place))"
            ),
        ),
        Data::Struct(Fields::Tuple(arity)) => {
            let exprs: Vec<String> = (0..*arity).map(|i| format!("&mut (self.0).{i}")).collect();
            (
                format!(
                    "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                         -> ::core::result::Result<(), __A::Error> {{\n\
                         {}\n\
                         Ok(())\n\
                     }}",
                    read_seq_fields_in_place(&exprs, name)
                ),
                format!(
                    "::serde::Deserializer::deserialize_tuple_struct(__deserializer, {name:?}, {arity}, __InPlaceVisitor(__place))"
                ),
            )
        }
        Data::Struct(Fields::Named(fields)) => {
            let exprs: Vec<String> =
                fields.iter().map(|field| format!("&mut (self.0).{field}")).collect();
            let field_names: Vec<String> = fields.iter().map(|f| format!("{f:?}")).collect();
            (
                format!(
                    "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                         -> ::core::result::Result<(), __A::Error> {{\n\
                         {}\n\
                         Ok(())\n\
                     }}",
                    read_seq_fields_in_place(&exprs, name)
                ),
                format!(
                    "::serde::Deserializer::deserialize_struct(__deserializer, {name:?}, &[{}], __InPlaceVisitor(__place))",
                    field_names.join(", ")
                ),
            )
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for (index, variant) in variants.iter().enumerate() {
                let index = index as u32;
                let vname = &variant.name;
                let path = format!("{name}::{vname}");
                match &variant.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{index}u32 => {{\n\
                             ::serde::de::VariantAccess::unit_variant(__variant)?;\n\
                             *self.0 = {path};\n\
                             Ok(())\n\
                         }},\n"
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{index}u32 => {{\n\
                             if let {path}(ref mut __f0) = *self.0 {{\n\
                                 ::serde::de::VariantAccess::newtype_variant_seed(__variant, ::serde::de::InPlaceSeed(__f0))?;\n\
                             }} else {{\n\
                                 *self.0 = {path}(::serde::de::VariantAccess::newtype_variant(__variant)?);\n\
                             }}\n\
                             Ok(())\n\
                         }},\n"
                    )),
                    Fields::Tuple(arity) => {
                        let inner = format!("__InPlaceVariant{index}Visitor");
                        let binders: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                        let pattern: Vec<String> =
                            binders.iter().map(|b| format!("ref mut {b}")).collect();
                        let body = format!(
                            "if let {path}({}) = *self.0 {{\n\
                                 {}\n\
                                 return Ok(());\n\
                             }}\n\
                             {}\n\
                             *self.0 = {};\n\
                             Ok(())",
                            pattern.join(", "),
                            read_seq_fields_in_place(&binders, &path),
                            read_seq_fields(*arity),
                            tuple_constructor(&path, *arity)
                        );
                        inner_visitors.push_str(&in_place_inner_visitor(
                            &inner,
                            &impl_generics,
                            &self_ty,
                            bounds,
                            &body,
                        ));
                        arms.push_str(&format!(
                            "{index}u32 => ::serde::de::VariantAccess::tuple_variant(__variant, {arity}, {inner}(self.0)),\n"
                        ));
                    }
                    Fields::Named(fields) => {
                        let inner = format!("__InPlaceVariant{index}Visitor");
                        let pattern: Vec<String> =
                            fields.iter().map(|f| format!("ref mut {f}")).collect();
                        let field_names: Vec<String> =
                            fields.iter().map(|f| format!("{f:?}")).collect();
                        let body = format!(
                            "if let {path} {{ {} }} = *self.0 {{\n\
                                 {}\n\
                                 return Ok(());\n\
                             }}\n\
                             {}\n\
                             *self.0 = {};\n\
                             Ok(())",
                            pattern.join(", "),
                            read_seq_fields_in_place(fields, &path),
                            read_seq_fields(fields.len()),
                            named_constructor(&path, fields)
                        );
                        inner_visitors.push_str(&in_place_inner_visitor(
                            &inner,
                            &impl_generics,
                            &self_ty,
                            bounds,
                            &body,
                        ));
                        arms.push_str(&format!(
                            "{index}u32 => ::serde::de::VariantAccess::struct_variant(__variant, &[{}], {inner}(self.0)),\n",
                            field_names.join(", ")
                        ));
                    }
                }
            }
            let variant_names: Vec<String> =
                variants.iter().map(|v| format!("{:?}", v.name)).collect();
            (
                format!(
                    "fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A)\n\
                         -> ::core::result::Result<(), __A::Error> {{\n\
                         let (__index, __variant): (u32, _) = ::serde::de::EnumAccess::variant(__data)?;\n\
                         match __index {{\n\
                             {arms}\n\
                             __other => Err(::serde::de::Error::custom(format_args!(\n\
                                 \"invalid variant index {{__other}} for enum {name}\"))),\n\
                         }}\n\
                     }}"
                ),
                format!(
                    "::serde::Deserializer::deserialize_enum(__deserializer, {name:?}, &[{}], __InPlaceVisitor(__place))",
                    variant_names.join(", ")
                ),
            )
        }
    };

    format!(
        "fn deserialize_in_place<__D: ::serde::Deserializer<'de>>(__deserializer: __D, __place: &mut Self)\n\
             -> ::core::result::Result<(), __D::Error> {{\n\
             struct __InPlaceVisitor<'__place, __T>(&'__place mut __T);\n\
             {inner_visitors}\n\
             impl{impl_generics} ::serde::de::Visitor<'de> for __InPlaceVisitor<'__place, {self_ty}> {bounds} {{\n\
                 type Value = ();\n\
                 fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                     __f.write_str({name:?})\n\
                 }}\n\
                 {visitor_methods}\n\
             }}\n\
             {entry}\n\
         }}"
    )
}

/// Declares one helper in-place visitor (for a tuple or struct enum variant).
fn in_place_inner_visitor(
    visitor_name: &str,
    impl_generics: &str,
    self_ty: &str,
    bounds: &str,
    visit_seq_body: &str,
) -> String {
    format!(
        "struct {visitor_name}<'__place, __T>(&'__place mut __T);\n\
         impl{impl_generics} ::serde::de::Visitor<'de> for {visitor_name}<'__place, {self_ty}> {bounds} {{\n\
             type Value = ();\n\
             fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                 __f.write_str(\"enum variant\")\n\
             }}\n\
             fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                 -> ::core::result::Result<(), __A::Error> {{\n\
                 {visit_seq_body}\n\
             }}\n\
         }}\n"
    )
}

/// Declares one helper visitor (for a tuple or struct enum variant).
fn inner_visitor(
    visitor_name: &str,
    visitor_generics: &str,
    args: &[String],
    bounds: &str,
    self_ty: &str,
    phantom_ty: &str,
    visit_seq_body: &str,
) -> String {
    let impl_generics = if visitor_generics.is_empty() {
        "<'de>".to_string()
    } else {
        format!("<'de, {}>", &visitor_generics[1..visitor_generics.len() - 1])
    };
    let visitor_ty = if args.is_empty() {
        visitor_name.to_string()
    } else {
        format!("{visitor_name}<{}>", args.join(", "))
    };
    format!(
        "struct {visitor_name}{visitor_generics}({phantom_ty});\n\
         impl{impl_generics} ::serde::de::Visitor<'de> for {visitor_ty} {bounds} {{\n\
             type Value = {self_ty};\n\
             fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                 __f.write_str(\"enum variant\")\n\
             }}\n\
             fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)\n\
                 -> ::core::result::Result<Self::Value, __A::Error> {{\n\
                 {visit_seq_body}\n\
             }}\n\
         }}\n"
    )
}

/// `__Visitor(PhantomData)` value expression.
fn visitor_value(phantom_ty: &str) -> String {
    let _ = phantom_ty;
    "__Visitor(::core::marker::PhantomData)".to_string()
}

/// `__VariantNVisitor::<A, B>(PhantomData)` value expression.
fn visitor_value_named(name: &str, args: &[String], phantom_ty: &str) -> String {
    let _ = phantom_ty;
    if args.is_empty() {
        format!("{name}(::core::marker::PhantomData)")
    } else {
        format!("{name}::<{}>(::core::marker::PhantomData)", args.join(", "))
    }
}

/// Splits the token stream of a delimited group, used by tests.
#[allow(dead_code)]
fn group_tokens(group: proc_macro::Group, delimiter: Delimiter) -> Option<Vec<TokenTree>> {
    if group.delimiter() == delimiter {
        Some(group.stream().into_iter().collect())
    } else {
        None
    }
}
