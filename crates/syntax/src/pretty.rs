//! Pretty-printer: renders an AST back to parseable SJava source.
//!
//! Used by the inference tool to emit inferred annotations (§5) and by
//! round-trip tests. Everything is written straight into one output
//! buffer, reserved up front from the size of the source the AST came
//! from.

use crate::annot::{ClassAnnots, MethodAnnots, VarAnnots};
use crate::ast::*;
use std::fmt::Write;

/// Renders a whole program.
pub fn print_program(program: &Program) -> String {
    let mut p = Printer {
        out: String::with_capacity(estimate(program)),
        indent: 0,
    };
    for class in &program.classes {
        p.class(class);
        p.out.push('\n');
    }
    p.out
}

/// Renders an expression.
pub fn expr(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e);
    out
}

/// The printed size of `program`, guessed from the source text its
/// method bodies came from plus room for each declaration's header and
/// annotations. A guess that falls short only costs the buffer's usual
/// growth.
fn estimate(program: &Program) -> usize {
    program
        .classes
        .iter()
        .map(|c| {
            let bodies: usize = c.methods.iter().map(|m| m.body.span.len() as usize).sum();
            bodies + bodies / 2 + 96 * (1 + c.fields.len() + c.methods.len())
        })
        .sum()
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    /// Starts a line at the current indentation; the caller writes its
    /// text and ends it with [`Printer::end`].
    fn start(&mut self) -> &mut String {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        &mut self.out
    }

    fn end(&mut self) {
        self.out.push('\n');
    }

    fn line(&mut self, text: &str) {
        self.start().push_str(text);
        self.end();
    }

    /// A line `@NAME("payload")`.
    fn annot_line(&mut self, name: &str, payload: &dyn std::fmt::Display) {
        let _ = write!(self.start(), "@{name}(\"{payload}\")");
        self.end();
    }

    fn class_annots(&mut self, a: &ClassAnnots) {
        if let Some(l) = &a.lattice {
            self.annot_line("LATTICE", l);
        }
        if let Some(md) = &a.method_default {
            if let Some(l) = &md.lattice {
                self.annot_line("METHODDEFAULT", l);
            }
            self.location_annots(md);
        }
        if a.trusted {
            self.line("@TRUSTED");
        }
    }

    fn method_annots(&mut self, a: &MethodAnnots) {
        if let Some(l) = &a.lattice {
            self.annot_line("LATTICE", l);
        }
        self.location_annots(a);
        if a.trusted {
            self.line("@TRUSTED");
        }
    }

    /// `@THISLOC`, `@GLOBALLOC`, `@RETURNLOC` and `@PCLOC`, in that order.
    fn location_annots(&mut self, a: &MethodAnnots) {
        if let Some(t) = &a.this_loc {
            self.annot_line("THISLOC", t);
        }
        if let Some(g) = &a.global_loc {
            self.annot_line("GLOBALLOC", g);
        }
        if let Some(r) = &a.return_loc {
            self.annot_line("RETURNLOC", r);
        }
        if let Some(p) = &a.pc_loc {
            self.annot_line("PCLOC", p);
        }
    }

    fn class(&mut self, c: &ClassDecl) {
        self.class_annots(&c.annots);
        let out = self.start();
        let _ = write!(out, "class {}", c.name);
        if let Some(s) = &c.superclass {
            let _ = write!(out, " extends {s}");
        }
        out.push_str(" {");
        self.end();
        self.indent += 1;
        for f in &c.fields {
            let out = self.start();
            write_var_annots(out, &f.annots);
            if f.is_static {
                out.push_str("static ");
            }
            if f.is_final {
                out.push_str("final ");
            }
            let _ = write!(out, "{} {}", f.ty, f.name);
            write_init(out, &f.init);
            out.push(';');
            self.end();
        }
        for m in &c.methods {
            self.out.push('\n');
            self.method_annots(&m.annots);
            let out = self.start();
            if m.is_static {
                out.push_str("static ");
            }
            let _ = write!(out, "{} {}(", m.ret, m.name);
            for (i, p) in m.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_var_annots(out, &p.annots);
                let _ = write!(out, "{} {}", p.ty, p.name);
            }
            out.push_str(") {");
            self.end();
            self.body(&m.body);
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
    }

    /// A block's statements, one level in.
    fn body(&mut self, b: &Block) {
        self.indent += 1;
        for s in &b.stmts {
            self.stmt(s);
        }
        self.indent -= 1;
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let out = self.start();
                out.push_str("if (");
                write_expr(out, cond);
                out.push_str(") {");
                self.end();
                self.body(then_blk);
                if let Some(e) = else_blk {
                    self.line("} else {");
                    self.body(e);
                }
                self.line("}");
            }
            Stmt::While {
                kind, cond, body, ..
            } => {
                let out = self.start();
                write_label(out, kind);
                out.push_str("while (");
                write_expr(out, cond);
                out.push_str(") {");
                self.end();
                self.body(body);
                self.line("}");
            }
            Stmt::For {
                kind,
                init,
                cond,
                update,
                body,
                ..
            } => {
                let out = self.start();
                write_label(out, kind);
                out.push_str("for (");
                if let Some(s) = init {
                    write_stmt_inline(out, s);
                }
                out.push_str("; ");
                if let Some(c) = cond {
                    write_expr(out, c);
                }
                out.push_str("; ");
                if let Some(s) = update {
                    write_stmt_inline(out, s);
                }
                out.push_str(") {");
                self.end();
                self.body(body);
                self.line("}");
            }
            Stmt::Return { value, .. } => {
                let out = self.start();
                out.push_str("return");
                if let Some(v) = value {
                    out.push(' ');
                    write_expr(out, v);
                }
                out.push(';');
                self.end();
            }
            Stmt::Break { .. } => self.line("break;"),
            Stmt::Continue { .. } => self.line("continue;"),
            Stmt::Block(b) => {
                self.line("{");
                self.body(b);
                self.line("}");
            }
            Stmt::VarDecl { .. } | Stmt::Assign { .. } | Stmt::ExprStmt { .. } => {
                let out = self.start();
                write_stmt_inline(out, s);
                out.push(';');
                self.end();
            }
        }
    }
}

fn write_label(out: &mut String, kind: &LoopKind) {
    let _ = match kind {
        LoopKind::Plain => Ok(()),
        LoopKind::EventLoop => out.write_str("SSJAVA: "),
        LoopKind::Trusted(n) => write!(out, "TERMINATE_{n}: "),
        LoopKind::MaxLoop(n) => write!(out, "MAXLOOP_{n}: "),
    };
}

fn write_var_annots(out: &mut String, a: &VarAnnots) {
    if let Some(l) = &a.loc {
        let _ = write!(out, "@LOC(\"{l}\") ");
    }
    if a.delegate {
        out.push_str("@DELEGATE ");
    }
}

fn write_init(out: &mut String, init: &Option<Expr>) {
    if let Some(e) = init {
        out.push_str(" = ");
        write_expr(out, e);
    }
}

/// A simple statement without its `;`, as it also appears in a `for`
/// header.
fn write_stmt_inline(out: &mut String, s: &Stmt) {
    match s {
        Stmt::VarDecl {
            annots,
            ty,
            name,
            init,
            ..
        } => {
            write_var_annots(out, annots);
            let _ = write!(out, "{ty} {name}");
            write_init(out, init);
        }
        Stmt::Assign { lhs, rhs, .. } => {
            write_lvalue(out, lhs);
            out.push_str(" = ");
            write_expr(out, rhs);
        }
        Stmt::ExprStmt { expr: e, .. } => write_expr(out, e),
        other => {
            let _ = write!(out, "/* {other:?} */");
        }
    }
}

fn write_lvalue(out: &mut String, lv: &LValue) {
    match lv {
        LValue::Var { name, .. } => out.push_str(name),
        LValue::Field { base, field, .. } => {
            write_expr(out, base);
            out.push('.');
            out.push_str(field);
        }
        LValue::StaticField { class, field, .. } => {
            let _ = write!(out, "{class}.{field}");
        }
        LValue::Index { base, index, .. } => write_index(out, base, index),
    }
}

fn write_index(out: &mut String, base: &Expr, index: &Expr) {
    write_expr(out, base);
    out.push('[');
    write_expr(out, index);
    out.push(']');
}

fn write_expr(out: &mut String, e: &Expr) {
    // Writing into a `String` cannot fail.
    match e {
        Expr::IntLit { value, .. } => {
            let _ = write!(out, "{value}");
        }
        Expr::FloatLit { value, .. } => {
            let _ = if value.fract() == 0.0 && value.is_finite() {
                write!(out, "{value:.1}")
            } else {
                write!(out, "{value}")
            };
        }
        Expr::BoolLit { value, .. } => {
            let _ = write!(out, "{value}");
        }
        Expr::StrLit { value, .. } => {
            let _ = write!(out, "{value:?}");
        }
        Expr::Null { .. } => out.push_str("null"),
        Expr::This { .. } => out.push_str("this"),
        Expr::Var { name, .. } => out.push_str(name),
        Expr::Field { base, field, .. } => {
            write_expr(out, base);
            out.push('.');
            out.push_str(field);
        }
        Expr::StaticField { class, field, .. } => {
            let _ = write!(out, "{class}.{field}");
        }
        Expr::Index { base, index, .. } => write_index(out, base, index),
        Expr::Length { base, .. } => {
            write_expr(out, base);
            out.push_str(".length");
        }
        Expr::Call(call) => {
            let CallExpr {
                recv,
                class_recv,
                name,
                args,
                ..
            } = &**call;
            match (recv, class_recv) {
                (Some(r), _) => {
                    write_expr(out, r);
                    out.push('.');
                }
                (None, Some(c)) => {
                    out.push_str(c);
                    out.push('.');
                }
                (None, None) => {}
            }
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Expr::New { class, .. } => {
            let _ = write!(out, "new {class}()");
        }
        Expr::NewArray { elem, len, .. } => {
            let _ = write!(out, "new {elem}[");
            write_expr(out, len);
            out.push(']');
        }
        Expr::Unary { op, operand, .. } => {
            out.push_str(match op {
                UnOp::Neg => "-(",
                UnOp::Not => "!(",
            });
            write_expr(out, operand);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            out.push('(');
            write_expr(out, lhs);
            let _ = write!(out, " {op} ");
            write_expr(out, rhs);
            out.push(')');
        }
        Expr::Cast { ty, operand, .. } => {
            let _ = write!(out, "({ty}) (");
            write_expr(out, operand);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse_program;

    fn round_trip(src: &str) {
        let mut d = Diagnostics::new();
        let p1 = parse_program(src, &mut d);
        assert!(!d.has_errors(), "first parse failed: {d}");
        let printed = print_program(&p1);
        let mut d2 = Diagnostics::new();
        let p2 = parse_program(&printed, &mut d2);
        assert!(!d2.has_errors(), "reparse failed: {d2}\nsource:\n{printed}");
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "print is not a fixed point");
    }

    #[test]
    fn round_trips_annotated_class() {
        round_trip(
            r#"@LATTICE("DIR<TMP,TMP<BIN")
               class WDSensor {
                 @LOC("BIN") WindRec bin;
                 @LOC("DIR") int dir;
                 @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
                 void windDirection() {
                   SSJAVA: while (true) {
                     @LOC("IN") int inDir = Device.readSensor();
                     bin.dir0 = inDir;
                   }
                 }
               }
               @LATTICE("DIR2<DIR1,DIR1<DIR0")
               class WindRec {
                 @LOC("DIR0") int dir0;
                 @LOC("DIR1") int dir1;
                 @LOC("DIR2") int dir2;
               }"#,
        );
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            "class A { void f(int n) { for (int i = 0; i < n; i++) { if (i > 2) { n = n - 1; } else { n = n + 1; } } TERMINATE_x: while (n > 0) { n--; } } }",
        );
    }

    #[test]
    fn round_trips_expressions() {
        round_trip(
            "class A { float g(float x) { float[] a = new float[4]; a[0] = -x * 2.0 + 1.5; return a[0]; } }",
        );
    }
}
