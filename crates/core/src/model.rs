//! Program lattice model: builds the field lattice of every class and the
//! method lattice of every method from the source annotations (§3.3), and
//! checks the inheritance constraints of §3.5.
//!
//! A program repeats a handful of lattice declarations across all of its
//! methods — most methods inherit their class's `@METHODDEFAULT` — so the
//! model is content-addressed: each distinct declaration (its orders,
//! shared and isolated names, never its span) is built once, and every use
//! shares that one [`Lattice`] through an [`Arc`].

use sjava_lattice::{CompositeLoc, Elem};
use sjava_lattice::{Lattice, LatticeCtx};
use sjava_syntax::annot::{CompositeLocAnnot, LatticeDecl, MethodAnnots};
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use sjava_syntax::span::Span;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Lattice-related information of one method.
#[derive(Debug, Clone)]
pub struct MethodInfo {
    /// The method's location lattice, shared with every other use of an
    /// equal declaration.
    pub lattice: Arc<Lattice>,
    /// Location of `this` (`@THISLOC`).
    pub this_loc: Option<String>,
    /// Location of static-field accesses (`@GLOBALLOC`).
    pub global_loc: Option<String>,
    /// Declared return-value location.
    pub return_loc: Option<CompositeLoc>,
    /// Declared initial program-counter location (default ⊤).
    pub pc_loc: Option<CompositeLoc>,
    /// Whether the method is trusted (skipped by checking).
    pub trusted: bool,
    /// Span of the method's `@LATTICE` declaration, when it has one;
    /// used as a secondary label on flow diagnostics.
    pub lattice_span: Option<Span>,
}

/// Location-annotation info of one field.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// The class that declares the field.
    pub declaring_class: String,
    /// The field's location name in the declaring class's field lattice.
    pub loc_name: Option<String>,
    /// Whether the field's Java type is a reference type.
    pub is_reference: bool,
}

/// The whole-program lattice model.
#[derive(Debug, Clone, Default)]
pub struct Lattices {
    /// Field lattice per class, shared like the method lattices.
    pub fields: HashMap<String, Arc<Lattice>>,
    /// Method lattice + annotations per `(class, method)`.
    pub methods: HashMap<(String, String), MethodInfo>,
}

impl Lattices {
    /// Builds the model from a program, validating lattice declarations
    /// and inheritance. Each distinct declaration is built once; an
    /// invalid one is reported once, at its own span, even when several
    /// methods inherit it or none does.
    /// Where a class name, or a method name within a class, repeats, the
    /// model holds the first declaration, the one [`Program::class`] and
    /// [`Program::method`] find; every later one is still validated.
    pub fn build(program: &Program, diags: &mut Diagnostics) -> Self {
        let mut model = Lattices::default();
        let mut memo = DeclMemo::default();
        for class in &program.classes {
            let lat = memo.lattice(class.annots.lattice.as_ref(), diags);
            // A `@METHODDEFAULT` lattice is validated at its declaration,
            // whether or not a method inherits it.
            let default = class.annots.method_default.as_ref();
            memo.lattice(default.and_then(|d| d.lattice.as_ref()), diags);
            let first = !model.fields.contains_key(&class.name);
            if first {
                model.fields.insert(class.name.clone(), lat);
            }
            for method in &class.methods {
                let annots = EffectiveAnnots::of(class, method);
                let lat = memo.lattice(annots.lattice, diags);
                let resolve = |c| resolve_annot_with(c, &lat, &class.name, program);
                let info = MethodInfo {
                    this_loc: annots.this_loc.cloned(),
                    global_loc: annots.global_loc.cloned(),
                    return_loc: annots.return_loc.map(resolve),
                    pc_loc: annots.pc_loc.map(resolve),
                    trusted: annots.trusted || class.annots.trusted,
                    lattice_span: annots.lattice.map(|d| d.span),
                    lattice: lat,
                };
                if first {
                    model
                        .methods
                        .entry((class.name.clone(), method.name.clone()))
                        .or_insert(info);
                }
            }
        }
        model.check_inheritance(program, diags);
        model
    }

    /// The field lattice of a class (empty lattice if undeclared).
    pub fn field_lattice(&self, class: &str) -> Option<&Lattice> {
        self.fields.get(class).map(Arc::as_ref)
    }

    /// The method info for `(class, method)`. Records a `MethodFacts`
    /// dependency: the info is derived from the method's effective
    /// annotations, the class-level trust flag, and the resolved
    /// return/pc locations, which is exactly what the fact fingerprint
    /// covers.
    pub fn method_info(&self, class: &str, method: &str) -> Option<&MethodInfo> {
        sjava_syntax::track::record_method_facts(class, method);
        self.methods.get(&(class.to_string(), method.to_string()))
    }

    /// Resolves a field's location info, searching the inheritance chain.
    /// Records a `Field` dependency (the resolved declaration determines
    /// every field of the returned info), so the walk itself uses
    /// untracked class lookups.
    pub fn field_info(&self, program: &Program, class: &str, field: &str) -> Option<FieldInfo> {
        sjava_syntax::track::record_field(class, field);
        let mut cur = program.class_untracked(class);
        while let Some(c) = cur {
            if let Some(f) = c.fields.iter().find(|f| f.name == field) {
                let loc_name = f
                    .annots
                    .loc
                    .as_ref()
                    .and_then(|l| l.elems.first())
                    .map(|e| e.name.clone());
                return Some(FieldInfo {
                    declaring_class: c.name.clone(),
                    loc_name,
                    is_reference: f.ty.is_reference(),
                });
            }
            cur = c
                .superclass
                .as_deref()
                .and_then(|s| program.class_untracked(s));
        }
        None
    }

    /// §3.5: subclasses must preserve the parent's field hierarchy, and
    /// overriding methods must redeclare identical lattices and locations.
    fn check_inheritance(&self, program: &Program, diags: &mut Diagnostics) {
        for class in &program.classes {
            let Some(parent_name) = &class.superclass else {
                continue;
            };
            let Some(parent) = program.class(parent_name) else {
                diags.push(Diag::inherit(
                    format!("unknown superclass `{parent_name}`"),
                    class.span,
                ));
                continue;
            };
            let sub = &self.fields[&class.name];
            let sup = &self.fields[&parent.name];
            // Every parent location must exist in the subclass lattice with
            // the same orderings.
            for (id_a, name_a) in sup.named() {
                let Some(sub_a) = sub.get(name_a) else {
                    diags.push(Diag::inherit(
                        format!(
                            "subclass `{}` is missing inherited location `{name_a}`",
                            class.name
                        ),
                        class.span,
                    ));
                    continue;
                };
                for (id_b, name_b) in sup.named() {
                    let Some(sub_b) = sub.get(name_b) else {
                        continue;
                    };
                    let parent_rel = sup.leq(id_a, id_b);
                    let sub_rel = sub.leq(sub_a, sub_b);
                    if parent_rel != sub_rel {
                        diags.push(Diag::inherit(
                            format!(
                                "subclass `{}` changes the ordering between inherited locations `{name_a}` and `{name_b}`",
                                class.name
                            ),
                            class.span,
                        ));
                    }
                }
            }
            // Overridden methods: same parameter locations.
            for method in &class.methods {
                let Some(parent_m) = parent.methods.iter().find(|m| m.name == method.name) else {
                    continue;
                };
                for (p_sub, p_sup) in method.params.iter().zip(&parent_m.params) {
                    if p_sub.annots.loc != p_sup.annots.loc {
                        diags.push(Diag::inherit(
                            format!(
                                "override `{}.{}` changes the declared location of parameter `{}`",
                                class.name, method.name, p_sub.name
                            ),
                            method.span,
                        ));
                    }
                }
            }
        }
    }
}

/// The method annotations in effect, borrowed from the declarations: the
/// method's own, with missing pieces defaulted from the class-wide
/// `@METHODDEFAULT` (§3.6).
#[derive(Debug, Clone, Copy)]
pub struct EffectiveAnnots<'a> {
    /// The method lattice (`@LATTICE`).
    pub lattice: Option<&'a LatticeDecl>,
    /// Location of `this` (`@THISLOC`).
    pub this_loc: Option<&'a String>,
    /// Location of static/global accesses (`@GLOBALLOC`).
    pub global_loc: Option<&'a String>,
    /// Location of the return value (`@RETURNLOC`).
    pub return_loc: Option<&'a CompositeLocAnnot>,
    /// Initial program-counter location (`@PCLOC`).
    pub pc_loc: Option<&'a CompositeLocAnnot>,
    /// The method's own `@TRUSTED`; a default never sets it.
    pub trusted: bool,
}

impl<'a> EffectiveAnnots<'a> {
    /// The annotations in effect on `method`, declared in `class`.
    pub fn of(class: &'a ClassDecl, method: &'a MethodDecl) -> Self {
        let own = &method.annots;
        let md = class.annots.method_default.as_ref();
        EffectiveAnnots {
            lattice: own.lattice.as_ref().or(md.and_then(|d| d.lattice.as_ref())),
            this_loc: own
                .this_loc
                .as_ref()
                .or(md.and_then(|d| d.this_loc.as_ref())),
            global_loc: own
                .global_loc
                .as_ref()
                .or(md.and_then(|d| d.global_loc.as_ref())),
            return_loc: own
                .return_loc
                .as_ref()
                .or(md.and_then(|d| d.return_loc.as_ref())),
            pc_loc: own.pc_loc.as_ref().or(md.and_then(|d| d.pc_loc.as_ref())),
            trusted: own.trusted,
        }
    }
}

/// [`EffectiveAnnots`] as an owned [`MethodAnnots`].
pub fn effective_method_annots(class: &ClassDecl, method: &MethodDecl) -> MethodAnnots {
    let a = EffectiveAnnots::of(class, method);
    MethodAnnots {
        lattice: a.lattice.cloned(),
        this_loc: a.this_loc.cloned(),
        global_loc: a.global_loc.cloned(),
        return_loc: a.return_loc.cloned(),
        pc_loc: a.pc_loc.cloned(),
        trusted: a.trusted,
    }
}

/// A lattice declaration by its content (orders, shared and isolated
/// names, not its span), so that equal declarations meet wherever they
/// sit. It borrows the declaration: keying a use allocates nothing.
struct DeclContent<'a>(&'a LatticeDecl);

impl PartialEq for DeclContent<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.orders == b.orders && a.shared == b.shared && a.isolated == b.isolated
    }
}

impl Eq for DeclContent<'_> {}

impl Hash for DeclContent<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.orders.hash(h);
        self.0.shared.hash(h);
        self.0.isolated.hash(h);
    }
}

/// The lattices of one model build, one per distinct declaration. An
/// invalid declaration keeps its message, reported once per declaration
/// that holds it, however many methods inherit that declaration.
#[derive(Default)]
struct DeclMemo<'a> {
    built: HashMap<DeclContent<'a>, Result<Arc<Lattice>, String>>,
    /// The invalid declarations already reported, by address.
    reported: HashSet<*const LatticeDecl>,
    empty: Option<Arc<Lattice>>,
}

impl<'a> DeclMemo<'a> {
    /// The lattice `decl` declares, or the shared empty lattice when there
    /// is none or it is invalid; an invalid one reports `SJ0004` at its
    /// span on its first use.
    fn lattice(&mut self, decl: Option<&'a LatticeDecl>, diags: &mut Diagnostics) -> Arc<Lattice> {
        if let Some(decl) = decl {
            let built = self.built.entry(DeclContent(decl)).or_insert_with(|| {
                Lattice::from_decl(&decl.orders, &decl.shared, &decl.isolated)
                    .map(Arc::new)
                    .map_err(|e| format!("invalid lattice declaration: {e}"))
            });
            match built {
                Ok(lattice) => return Arc::clone(lattice),
                Err(message) => {
                    if self.reported.insert(decl) {
                        diags.push(Diag::lattice(message.clone(), decl.span));
                    }
                }
            }
        }
        Arc::clone(self.empty.get_or_insert_with(|| Arc::new(Lattice::new())))
    }
}

/// Resolves a source-level composite-location annotation into a
/// [`CompositeLoc`], determining the class of each unqualified field
/// element (current class first, then unique global match).
pub fn resolve_annot_with(
    annot: &CompositeLocAnnot,
    method_lattice: &Lattice,
    current_class: &str,
    program: &Program,
) -> CompositeLoc {
    let mut elems = Vec::with_capacity(annot.elems.len());
    for (i, e) in annot.elems.iter().enumerate() {
        if i == 0 && e.class.is_none() {
            let _ = method_lattice; // first element is a method location
            elems.push(Elem::method(&e.name));
        } else if let Some(class) = &e.class {
            elems.push(Elem::field(class.clone(), &e.name));
        } else {
            // Unqualified field element: prefer the current class, else a
            // unique class declaring that location.
            let owner = find_field_loc_class(program, current_class, &e.name)
                .unwrap_or_else(|| current_class.to_string());
            elems.push(Elem::field(owner, &e.name));
        }
    }
    let mut loc = CompositeLoc::path(elems);
    for _ in 0..annot.delta {
        loc = loc.delta();
    }
    loc
}

fn find_field_loc_class(program: &Program, current: &str, loc_name: &str) -> Option<String> {
    // The outcome depends on the current class's @LATTICE and on the set
    // of classes declaring `loc_name` anywhere — record both facts rather
    // than a whole-interface dependency per visited class.
    sjava_syntax::track::record_class_lattice(current);
    sjava_syntax::track::record_loc_owner(loc_name);
    let declares = |c: &ClassDecl| -> bool {
        c.annots
            .lattice
            .as_ref()
            .map(|l| l.names().iter().any(|n| n == loc_name))
            .unwrap_or(false)
    };
    if let Some(c) = program.class_untracked(current) {
        if declares(c) {
            return Some(current.to_string());
        }
    }
    let matches: Vec<&ClassDecl> = program.classes.iter().filter(|c| declares(c)).collect();
    if matches.len() == 1 {
        Some(matches[0].name.clone())
    } else {
        None
    }
}

/// A [`LatticeCtx`] view of the model for one method.
pub struct ModelCtx<'a> {
    /// The current method's lattice.
    pub method: &'a Lattice,
    /// All field lattices.
    pub fields: &'a HashMap<String, Arc<Lattice>>,
}

impl LatticeCtx for ModelCtx<'_> {
    fn method_lattice(&self) -> &Lattice {
        self.method
    }

    fn field_lattice(&self, class: &str) -> Option<&Lattice> {
        sjava_syntax::track::record_class_lattice(class);
        self.fields.get(class).map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    #[test]
    fn builds_field_and_method_lattices() {
        let p = parse(
            r#"@LATTICE("DIR<TMP,TMP<BIN")
               class W {
                 @LOC("BIN") int b;
                 @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
                 void run() { }
               }"#,
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let m = Lattices::build(&p, &mut d);
        assert!(!d.has_errors());
        let fl = m.field_lattice("W").expect("field lattice");
        assert!(fl.get("TMP").is_some());
        let mi = m.method_info("W", "run").expect("method info");
        assert_eq!(mi.this_loc.as_deref(), Some("WDOBJ"));
        assert!(mi.lattice.get("STR").is_some());
    }

    #[test]
    fn method_default_is_inherited() {
        let p = parse(
            r#"@METHODDEFAULT("L<H") @THISLOC("L")
               class W { void a() { } @LATTICE("X<Y") void b() { } }"#,
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let m = Lattices::build(&p, &mut d);
        assert!(m
            .method_info("W", "a")
            .expect("a")
            .lattice
            .get("H")
            .is_some());
        assert!(m
            .method_info("W", "b")
            .expect("b")
            .lattice
            .get("Y")
            .is_some());
        assert!(m
            .method_info("W", "b")
            .expect("b")
            .lattice
            .get("H")
            .is_none());
    }

    #[test]
    fn a_repeated_class_name_checks_like_its_renamed_twin() {
        // A second `A` must not replace the first in the model: the
        // checker reads the first declaration, as every chain walk does,
        // so the program reports exactly what it reports with the second
        // class renamed. An invalid lattice on it is still reported.
        let first = r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
class A {
    @LOC("HI") int hi; @LOC("LO") int lo;
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            hi = x;
            lo = hi;
            Out.emit(lo);
        }
    }
}
"#;
        for (second, diagnostics) in [(r#"@LATTICE("P<Q")"#, 0), (r#"@LATTICE("P<Q,Q<P")"#, 1)] {
            let [repeated, renamed] = ["A", "B"].map(|name| {
                let text = format!("{first}{second} class {name} {{ }}\n");
                let file = sjava_syntax::SourceFile::new("twin.sj", text.clone());
                let report = crate::check_source(&text).expect("parses");
                let json = sjava_syntax::emit::to_json(&file, &report.diagnostics);
                (
                    report.diagnostics.to_string(),
                    json,
                    report.diagnostics.len(),
                )
            });
            assert_eq!(repeated, renamed, "{second}");
            assert_eq!(repeated.2, diagnostics, "{second}: {}", repeated.0);
        }
    }

    #[test]
    fn cyclic_lattice_is_reported() {
        let p = parse(r#"@LATTICE("A<B,B<A") class W { }"#).expect("parses");
        let mut d = Diagnostics::new();
        Lattices::build(&p, &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn subclass_must_keep_parent_locations() {
        let p = parse(
            r#"@LATTICE("A<B") class P { @LOC("A") int x; }
               @LATTICE("C<D") class S extends P { @LOC("C") int y; }"#,
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        Lattices::build(&p, &mut d);
        assert!(d.has_errors(), "missing inherited locations must error");
    }

    #[test]
    fn subclass_preserving_order_is_ok() {
        let p = parse(
            r#"@LATTICE("A<B") class P { @LOC("A") int x; }
               @LATTICE("A<B,C<A") class S extends P { @LOC("C") int y; }"#,
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        Lattices::build(&p, &mut d);
        assert!(!d.has_errors(), "{d}");
    }

    #[test]
    fn field_info_resolves_inherited() {
        let p = parse(
            r#"@LATTICE("A<B") class P { @LOC("A") int x; }
               @LATTICE("A<B") class S extends P { }"#,
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let m = Lattices::build(&p, &mut d);
        let fi = m.field_info(&p, "S", "x").expect("found");
        assert_eq!(fi.declaring_class, "P");
        assert_eq!(fi.loc_name.as_deref(), Some("A"));
    }
}
