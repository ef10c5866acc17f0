//! SJava annotation model and the annotation-string grammar of Fig 3.3.
//!
//! SJava piggybacks on Java's annotation syntax: annotations carry a single
//! string payload whose contents follow the grammar
//!
//! ```text
//! latticeDecl    := orderDecls | orderDecls , sharedLocDecls
//! orderDecl      := location < location
//! sharedLocDecl  := location *
//! compositeLoc   := locationList
//! deltaLoc       := DELTA( locationList | deltaLoc )
//! locationList   := locElement (, locElement)*
//! locElement     := location | ClassName . location
//! ```

use crate::diag::{Diag, Diagnostics};
use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// One element of a composite location: an optional class qualifier and a
/// location name, e.g. `BAR` or `Foo.BAR`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LocElem {
    /// Optional qualifying class (`Foo` in `Foo.BAR`).
    pub class: Option<String>,
    /// The location name.
    pub name: String,
}

impl LocElem {
    /// A plain, unqualified location element.
    pub fn plain(name: impl Into<String>) -> Self {
        LocElem {
            class: None,
            name: name.into(),
        }
    }

    /// A class-qualified location element.
    pub fn qualified(class: impl Into<String>, name: impl Into<String>) -> Self {
        LocElem {
            class: Some(class.into()),
            name: name.into(),
        }
    }
}

impl fmt::Display for LocElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.class {
            Some(c) => write!(f, "{c}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A parsed `@LOC`/`@RETURNLOC`/`@PCLOC` composite-location annotation,
/// possibly wrapped in `delta` applications (§4.1.7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompositeLocAnnot {
    /// Number of `DELTA(...)` wrappers around the location list.
    pub delta: usize,
    /// The location elements, outermost (method) first.
    pub elems: Vec<LocElem>,
}

impl CompositeLocAnnot {
    /// A non-delta composite location from elements.
    pub fn new(elems: Vec<LocElem>) -> Self {
        CompositeLocAnnot { delta: 0, elems }
    }
}

impl fmt::Display for CompositeLocAnnot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for _ in 0..self.delta {
            write!(f, "DELTA(")?;
        }
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        for _ in 0..self.delta {
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A parsed `@LATTICE` / `@METHODDEFAULT` declaration.
///
/// `orders` lists `(lower, higher)` pairs: the annotation text `x<y` means
/// values may flow from `y` down to `x`. `shared` lists location names
/// declared shared with a trailing `*` (§4.1.8).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatticeDecl {
    /// `(lower, higher)` ordering entries.
    pub orders: Vec<(String, String)>,
    /// Names of shared locations.
    pub shared: Vec<String>,
    /// Bare names introduced without any ordering entry.
    pub isolated: Vec<String>,
    /// Span of the annotation in the source.
    pub span: Span,
}

impl LatticeDecl {
    /// All location names mentioned by the declaration.
    pub fn names(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |n: &str| {
            if !out.iter().any(|x: &String| x == n) {
                out.push(n.to_string());
            }
        };
        for (lo, hi) in &self.orders {
            push(lo);
            push(hi);
        }
        for s in &self.shared {
            push(s);
        }
        for s in &self.isolated {
            push(s);
        }
        out
    }
}

impl fmt::Display for LatticeDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (lo, hi) in &self.orders {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{lo}<{hi}")?;
        }
        for s in &self.shared {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{s}*")?;
        }
        for s in &self.isolated {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Annotations attached to a class declaration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAnnots {
    /// The field lattice (`@LATTICE` on the class).
    pub lattice: Option<LatticeDecl>,
    /// The class-wide default method lattice (`@METHODDEFAULT`).
    pub method_default: Option<MethodAnnots>,
    /// `@TRUSTED`: the class is trusted to self-stabilize and is skipped by
    /// the checker (used for e.g. the `BitStream` in the MP3 benchmark).
    pub trusted: bool,
}

/// Annotations attached to a method declaration.
///
/// `@METHODDEFAULT` on a class parses into the same structure; a method
/// without its own `@LATTICE` inherits the class-wide default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MethodAnnots {
    /// The method lattice (`@LATTICE`).
    pub lattice: Option<LatticeDecl>,
    /// Location of `this` (`@THISLOC`).
    pub this_loc: Option<String>,
    /// Location of static/global accesses (`@GLOBALLOC`).
    pub global_loc: Option<String>,
    /// Location of the return value (`@RETURNLOC`).
    pub return_loc: Option<CompositeLocAnnot>,
    /// Initial program-counter location (`@PCLOC`).
    pub pc_loc: Option<CompositeLocAnnot>,
    /// `@TRUSTED`: method trusted to self-stabilize, skipped by the checker.
    pub trusted: bool,
}

/// Annotations attached to a field, local variable, or parameter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarAnnots {
    /// Declared composite location (`@LOC` or `@DELTA`).
    pub loc: Option<CompositeLocAnnot>,
    /// `@DELEGATE`: ownership of this parameter transfers to the callee.
    pub delegate: bool,
}

/// A raw annotation as parsed: `@NAME` or `@NAME("payload")`, borrowing
/// its name and, unless it holds an escape, its payload from the source.
#[derive(Debug, Clone, PartialEq)]
pub struct RawAnnot<'s> {
    /// Annotation name without the `@`.
    pub name: &'s str,
    /// Optional string payload.
    pub payload: Option<Cow<'s, str>>,
    /// Span of the whole annotation.
    pub span: Span,
}

/// Parses a `@LATTICE` payload per the Fig 3.3 grammar.
pub fn parse_lattice_decl(payload: &str, span: Span, diags: &mut Diagnostics) -> LatticeDecl {
    let mut decl = LatticeDecl {
        span,
        ..Default::default()
    };
    for part in split_top_commas(payload) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('<') {
            let (lo, hi) = (lo.trim(), hi.trim());
            if !is_location_name(lo) || !is_location_name(hi) {
                diags.push(Diag::annot(
                    format!("invalid ordering entry `{part}` in lattice declaration"),
                    span,
                ));
                continue;
            }
            decl.orders.push((lo.to_string(), hi.to_string()));
        } else if let Some(name) = part.strip_suffix('*') {
            let name = name.trim();
            if !is_location_name(name) {
                diags.push(Diag::annot(
                    format!("invalid shared location `{part}` in lattice declaration"),
                    span,
                ));
                continue;
            }
            decl.shared.push(name.to_string());
        } else if is_location_name(part) {
            // A bare location introduces the name with no ordering entry;
            // useful for single-location lattices.
            decl.isolated.push(part.to_string());
        } else {
            diags.push(Diag::annot(
                format!("cannot parse lattice entry `{part}`"),
                span,
            ));
        }
    }
    decl
}

/// Parses a composite-location payload (`@LOC`, `@RETURNLOC`, `@PCLOC`,
/// `@DELTA`), handling nested `DELTA(...)` wrappers.
pub fn parse_composite_loc(
    payload: &str,
    span: Span,
    diags: &mut Diagnostics,
) -> CompositeLocAnnot {
    let mut delta = 0usize;
    let mut rest = payload.trim();
    while rest.len() > 6
        && rest.as_bytes()[..6].eq_ignore_ascii_case(b"DELTA(")
        && rest.ends_with(')')
    {
        delta += 1;
        rest = rest[6..rest.len() - 1].trim();
    }
    let mut elems = Vec::with_capacity(split_top_commas(rest).count());
    for part in split_top_commas(rest) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((class, name)) = part.split_once('.') {
            let (class, name) = (class.trim(), name.trim());
            if !is_location_name(class) || !is_location_name(name) {
                diags.push(Diag::annot(
                    format!("invalid location element `{part}`"),
                    span,
                ));
                continue;
            }
            elems.push(LocElem::qualified(class, name));
        } else if is_location_name(part) {
            elems.push(LocElem::plain(part));
        } else {
            diags.push(Diag::annot(
                format!("invalid location element `{part}`"),
                span,
            ));
        }
    }
    if elems.is_empty() {
        diags.push(Diag::annot("empty composite location", span));
    }
    CompositeLocAnnot { delta, elems }
}

/// The comma-separated parts of `s`, leaving commas inside parentheses
/// in their part.
fn split_top_commas(s: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0usize;
    let mut start = Some(0);
    let mut bytes = s.bytes().enumerate();
    std::iter::from_fn(move || {
        let from = start?;
        for (i, b) in bytes.by_ref() {
            match b {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    start = Some(i + 1);
                    return Some(&s[from..i]);
                }
                _ => {}
            }
        }
        start = None;
        Some(&s[from..])
    })
}

fn is_location_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !s.chars().next().expect("nonempty").is_ascii_digit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_lattice_orders() {
        let mut d = Diagnostics::new();
        let l = parse_lattice_decl("DIR<TMP,TMP<BIN", Span::dummy(), &mut d);
        assert!(!d.has_errors());
        assert_eq!(
            l.orders,
            vec![
                ("DIR".to_string(), "TMP".to_string()),
                ("TMP".to_string(), "BIN".to_string())
            ]
        );
        assert_eq!(l.names(), vec!["DIR", "TMP", "BIN"]);
    }

    #[test]
    fn parses_shared_locations() {
        let mut d = Diagnostics::new();
        let l = parse_lattice_decl("A<B,IDX*", Span::dummy(), &mut d);
        assert!(!d.has_errors());
        assert_eq!(l.shared, vec!["IDX"]);
    }

    #[test]
    fn rejects_garbage() {
        let mut d = Diagnostics::new();
        parse_lattice_decl("A<<B", Span::dummy(), &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn parses_composite_plain_and_qualified() {
        let mut d = Diagnostics::new();
        let c = parse_composite_loc("CAOBJ,Foo.TMP", Span::dummy(), &mut d);
        assert!(!d.has_errors());
        assert_eq!(c.delta, 0);
        assert_eq!(
            c.elems,
            vec![LocElem::plain("CAOBJ"), LocElem::qualified("Foo", "TMP")]
        );
    }

    #[test]
    fn parses_nested_delta() {
        let mut d = Diagnostics::new();
        let c = parse_composite_loc("DELTA(DELTA(WDOBJ,DIR0))", Span::dummy(), &mut d);
        assert!(!d.has_errors());
        assert_eq!(c.delta, 2);
        assert_eq!(c.elems.len(), 2);
    }

    #[test]
    fn display_round_trips() {
        let mut d = Diagnostics::new();
        let c = parse_composite_loc("DELTA(WDOBJ,DIR0)", Span::dummy(), &mut d);
        assert_eq!(c.to_string(), "DELTA(WDOBJ,DIR0)");
        let l = parse_lattice_decl("A<B,I*", Span::dummy(), &mut d);
        assert_eq!(l.to_string(), "A<B,I*");
    }

    #[test]
    fn empty_composite_is_error() {
        let mut d = Diagnostics::new();
        parse_composite_loc("", Span::dummy(), &mut d);
        assert!(d.has_errors());
    }
}
