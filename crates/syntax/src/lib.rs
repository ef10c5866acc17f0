//! # sjava-syntax
//!
//! Lexer, parser, AST and annotation model for the SJava dialect — the
//! Java subset that the Self-Stabilizing Java system (PLDI 2012) defines
//! its type rules and analyses over.
//!
//! SJava programs are legal Java programs: all SJava information is carried
//! by Java annotations (`@LATTICE`, `@LOC`, `@THISLOC`, `@RETURNLOC`,
//! `@PCLOC`, `@GLOBALLOC`, `@DELTA`, `@DELEGATE`, `@METHODDEFAULT`) and by
//! loop labels (`SSJAVA:` marks the main event loop, `TERMINATE_x:` marks a
//! developer-verified terminating loop, `MAXLOOP_n:` bounds a loop).
//!
//! ```
//! use sjava_syntax::parse;
//!
//! let program = parse(
//!     r#"class Hello {
//!            void run() {
//!                SSJAVA: while (true) { int x = Device.read(); Out.emit(x); }
//!            }
//!        }"#,
//! ).expect("parses");
//! assert_eq!(program.classes.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod annot;
pub mod ast;
pub mod codes;
pub mod diag;
pub mod emit;
pub mod lexer;
mod par_parse;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod span;
pub mod strip;
pub mod token;
pub mod track;
pub mod wire;

pub use annot::{ClassAnnots, CompositeLocAnnot, LatticeDecl, LocElem, MethodAnnots, VarAnnots};
pub use ast::{
    BinOp, Block, CallExpr, ClassDecl, Expr, FieldDecl, LValue, LoopKind, MethodDecl, Param,
    Program, Stmt, Type, UnOp,
};
pub use codes::Code;
pub use diag::{Diag, Diagnostic, Diagnostics, Label, Severity, Suggestion};
pub use par_parse::UnitParse;
pub use span::{LineCol, SourceFile, Span};

/// Parses SJava source, returning the program or the accumulated
/// diagnostics.
///
/// # Errors
///
/// Returns all lexical and syntactic diagnostics when any of them is an
/// error.
pub fn parse(src: &str) -> Result<Program, Diagnostics> {
    let mut diags = Diagnostics::new();
    let program = parser::parse_program(src, &mut diags);
    if diags.has_errors() {
        diags.sort_stable();
        Err(diags)
    } else {
        Ok(program)
    }
}

/// Parses with the **sequential** front-end only, never attempting the
/// parallel split-lex-parse path regardless of `SJAVA_THREADS` /
/// `SJAVA_PAR_THRESHOLD`. Differential-testing surface: the fuzz harness
/// and the brace pre-scan property tests compare this against
/// [`parse_parallel_forced`] without mutating process-global environment
/// variables (which would race across test threads).
///
/// # Errors
///
/// Same conditions as [`parse`].
pub fn parse_sequential(src: &str) -> Result<Program, Diagnostics> {
    let mut diags = Diagnostics::new();
    let tokens = lexer::lex(src, &mut diags);
    let classes = parser::parse_unit(src, tokens, &mut diags);
    let program = resolve::resolve_reporting(Program::new(classes), &mut diags);
    if diags.has_errors() {
        diags.sort_stable();
        Err(diags)
    } else {
        Ok(program)
    }
}

/// Forces the **parallel** front-end at an explicit worker width,
/// bypassing the adaptive unit threshold (any source that splits into
/// ≥2 top-level units takes the parallel path). Returns `None` when the
/// pre-scan declines the input, any unit produces a diagnostic, or the
/// classes inherit cyclically — the cases where production parsing falls
/// back to the sequential path.
///
/// This is a differential-testing surface: whenever it returns
/// `Some(program)`, the result must be byte-identical (AST and all
/// downstream rendering) to [`parse_sequential`] on the same source,
/// and the adversarial property suite plus the `sjava fuzz` parse
/// oracle hold it to that.
pub fn parse_parallel_forced(src: &str, threads: usize) -> Option<Program> {
    par_parse::parse_parallel_with(src, threads, 2)
}
