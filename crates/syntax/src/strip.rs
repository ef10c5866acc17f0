//! Annotation stripping for the inference experiments (§6.3.1).
//!
//! The paper's inference evaluation "took the modified versions of the SJava
//! benchmark and removed all of the location type annotations". This module
//! erases location-type annotations while keeping behavioural annotations
//! (loop labels, `@TRUSTED`, `@DELEGATE`) intact: in place, or on a copy.

use crate::ast::*;

/// Returns a copy of `program` with all location-type annotations removed.
pub fn strip_location_annotations(program: &Program) -> Program {
    let mut p = program.clone();
    strip_in_place(&mut p);
    p
}

/// Removes all location-type annotations from `program` itself, for a
/// caller that has no further use for the annotated program.
pub fn strip_in_place(program: &mut Program) {
    for class in &mut program.classes {
        class.annots.lattice = None;
        if let Some(md) = &mut class.annots.method_default {
            md.lattice = None;
            md.this_loc = None;
            md.global_loc = None;
            md.return_loc = None;
            md.pc_loc = None;
            if !md.trusted {
                class.annots.method_default = None;
            }
        }
        for field in &mut class.fields {
            field.annots.loc = None;
        }
        for method in &mut class.methods {
            method.annots.lattice = None;
            method.annots.this_loc = None;
            method.annots.global_loc = None;
            method.annots.return_loc = None;
            method.annots.pc_loc = None;
            for param in &mut method.params {
                param.annots.loc = None;
            }
            strip_block(&mut method.body);
        }
    }
}

fn strip_block(block: &mut Block) {
    for s in &mut block.stmts {
        strip_stmt(s);
    }
}

fn strip_stmt(stmt: &mut Stmt) {
    match stmt {
        Stmt::VarDecl { annots, .. } => annots.loc = None,
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            strip_block(then_blk);
            if let Some(e) = else_blk {
                strip_block(e);
            }
        }
        Stmt::While { body, .. } => strip_block(body),
        Stmt::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                strip_stmt(i);
            }
            if let Some(u) = update {
                strip_stmt(u);
            }
            strip_block(body);
        }
        Stmt::Block(b) => strip_block(b),
        _ => {}
    }
}

/// Counts SJava annotations in a program: `(#@LOC, #@LATTICE,
/// #@METHODDEFAULT)`. Reproduces the Fig 6.3 annotation-effort metrics.
pub fn count_annotations(program: &Program) -> AnnotationCounts {
    let mut counts = AnnotationCounts::default();
    for class in &program.classes {
        if class.annots.lattice.is_some() {
            counts.lattices += 1;
        }
        if let Some(md) = &class.annots.method_default {
            if md.lattice.is_some() {
                counts.method_defaults += 1;
            }
        }
        for field in &class.fields {
            if field.annots.loc.is_some() {
                counts.locations += 1;
            }
        }
        for method in &class.methods {
            if method.annots.lattice.is_some() {
                counts.lattices += 1;
            }
            if method.annots.return_loc.is_some() {
                counts.locations += 1;
            }
            if method.annots.this_loc.is_some() {
                counts.locations += 1;
            }
            if method.annots.pc_loc.is_some() {
                counts.locations += 1;
            }
            for p in &method.params {
                if p.annots.loc.is_some() {
                    counts.locations += 1;
                }
            }
            count_block(&method.body, &mut counts);
        }
    }
    counts
}

fn count_block(block: &Block, counts: &mut AnnotationCounts) {
    for s in &block.stmts {
        count_stmt(s, counts);
    }
}

fn count_stmt(stmt: &Stmt, counts: &mut AnnotationCounts) {
    match stmt {
        Stmt::VarDecl { annots, .. } if annots.loc.is_some() => {
            counts.locations += 1;
        }
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            count_block(then_blk, counts);
            if let Some(e) = else_blk {
                count_block(e, counts);
            }
        }
        Stmt::While { body, .. } => count_block(body, counts),
        Stmt::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                count_stmt(i, counts);
            }
            if let Some(u) = update {
                count_stmt(u, counts);
            }
            count_block(body, counts);
        }
        Stmt::Block(b) => count_block(b, counts),
        _ => {}
    }
}

/// Annotation counts per Fig 6.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotationCounts {
    /// Number of `@LOC`-style location assignments (includes `@RETURNLOC`,
    /// `@THISLOC`, `@PCLOC` since each assigns one location).
    pub locations: usize,
    /// Number of `@LATTICE` definitions.
    pub lattices: usize,
    /// Number of `@METHODDEFAULT` definitions.
    pub method_defaults: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse_program;

    const SRC: &str = r#"
        @LATTICE("A<B")
        class C {
            @LOC("B") int f;
            @LATTICE("L<H") @THISLOC("L")
            void m(@LOC("H") int p) {
                @LOC("L") int x = p;
                SSJAVA: while (true) { f = x; }
            }
        }"#;

    #[test]
    fn strips_everything_locationy() {
        let mut d = Diagnostics::new();
        let p = parse_program(SRC, &mut d);
        assert!(!d.has_errors());
        let s = strip_location_annotations(&p);
        let counts = count_annotations(&s);
        assert_eq!(counts, AnnotationCounts::default());
        // The copy leaves the original annotated; in place, it is the copy.
        assert_eq!(count_annotations(&p).locations, 4);
        let mut q = p.clone();
        strip_in_place(&mut q);
        assert_eq!(q, s);
        // Event loop label preserved.
        let m = &s.classes[0].methods[0];
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::While {
                kind: LoopKind::EventLoop,
                ..
            }
        ));
    }

    #[test]
    fn counts_annotations() {
        let mut d = Diagnostics::new();
        let p = parse_program(SRC, &mut d);
        let counts = count_annotations(&p);
        // @LOC f, @THISLOC, @LOC p, @LOC x = 4 locations; 2 lattices.
        assert_eq!(counts.locations, 4);
        assert_eq!(counts.lattices, 2);
        assert_eq!(counts.method_defaults, 0);
    }
}
