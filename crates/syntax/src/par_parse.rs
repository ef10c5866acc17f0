//! The unit-indexed front end: splits a source file into top-level
//! compilation units with a brace-matching pre-scan, lexes and parses
//! units independently (on the `sjava-par` worker pool when there are
//! enough of them), and merges the per-unit ASTs in source order —
//! byte-identical to the sequential front end. Two callers share it:
//!
//! - [`crate::parse`] parses every unit of a large file in parallel
//!   ([`try_parse_parallel`]);
//! - [`UnitParse`] keeps the last successful parse of an edited buffer
//!   and, on the next revision, re-parses only the units whose bytes
//!   changed. Every other unit's classes move into the new program, their
//!   spans shifted to where the unit now starts.
//!
//! ## Why this is safe
//!
//! The pre-scan mirrors exactly the lexer's trivia and string-literal
//! skipping, so a unit boundary (the byte just after a `}` that closes a
//! top-level brace group) can never fall inside a token. Lexing the
//! units independently with [`crate::lexer::lex_at`] (absolute spans)
//! therefore concatenates to precisely the whole-file token stream, and
//! the recursive-descent parser — which never consumes past the closing
//! `}` of a class declaration — partitions that stream along the same
//! boundaries the pre-scan found. Lexing and parsing never look outside
//! the unit, so a unit's bytes at another offset parse to the same AST
//! with every span moved by the same distance.
//!
//! Static resolution ([`crate::resolve`]) is the one pass that reads
//! across units: a class resolves against the set of class names and the
//! fields visible in it. A reused class therefore keeps its resolved AST
//! only while that context is unchanged; otherwise its unit is parsed
//! afresh.
//!
//! ## Why it is *always* safe
//!
//! Both layers are belt-and-braces conservative:
//!
//! 1. The pre-scan refuses anything it cannot prove it understood —
//!    unbalanced braces, an unterminated string or block comment, a
//!    stray top-level `}`, trailing non-brace text with no unit to
//!    attach to — and returns `None`, sending the caller down the
//!    sequential path.
//! 2. If any unit produces **any** diagnostic (lexical or syntactic),
//!    the unit-indexed result is discarded wholesale and the file is
//!    re-parsed sequentially. Error recovery near a unit's artificial
//!    EOF could otherwise word a diagnostic differently from the
//!    sequential parser; throwing the attempt away makes the observable
//!    diagnostics byte-identical by construction. Malformed input is not
//!    the perf path, so the wasted attempt costs nothing that matters.
//!
//! On the clean path the merged class list, the static resolution of
//! every class, and the (empty) diagnostics are exactly what the
//! sequential front end computes.

use crate::annot::{ClassAnnots, LatticeDecl, MethodAnnots};
use crate::ast::{
    Block, CallExpr, ClassDecl, Expr, FieldDecl, LValue, MethodDecl, Param, Program, Stmt,
};
use crate::diag::Diagnostics;
use crate::lexer::lex_at;
use crate::resolve::{inheritance_cycles, Context};
use crate::span::Span;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::ops::Range;

/// Splits `src` into top-level compilation units: each unit is a byte
/// range covering one run of leading trivia/annotations/header tokens
/// plus the top-level `{ ... }` group that closes it. Units tile the
/// file (every byte belongs to exactly one, in order). Returns `None`
/// whenever the scan cannot prove the split is token-safe.
pub(crate) fn split_units(src: &str) -> Option<Vec<Range<usize>>> {
    let b = src.as_bytes();
    let mut units = Vec::new();
    let mut unit_start = 0usize;
    let mut depth = 0usize;
    let mut i = 0usize;
    loop {
        i = next_structural(b, i);
        if i >= b.len() {
            break;
        }
        match b[i] {
            // Line comment: cannot contain a token boundary.
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            // Block comment: skip to `*/`; unterminated ⇒ the lexer
            // will diagnose, so take the sequential path.
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= b.len() {
                        return None;
                    }
                    if b[i] == b'*' && b[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            // String literal: braces inside are text, not structure.
            // A newline or EOF before the closing quote is the lexer's
            // "unterminated string literal" — sequential path.
            b'"' => {
                i += 1;
                loop {
                    match b.get(i) {
                        None | Some(b'\n') => return None,
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            // Skip the escaped scalar (multi-byte safe:
                            // continuation bytes are not `"` or `\`).
                            i += 2;
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                if depth == 0 {
                    return None; // stray close: sequential path diagnoses
                }
                depth -= 1;
                i += 1;
                if depth == 0 {
                    units.push(unit_start..i);
                    unit_start = i;
                }
            }
            // A lone `/` (division).
            _ => i += 1,
        }
    }
    if depth != 0 {
        return None; // unbalanced open braces
    }
    match units.last_mut() {
        // Trailing trivia (or stray brace-free tokens) ride with the
        // final unit so the tiling stays complete.
        Some(last) if unit_start < b.len() => last.end = b.len(),
        None => return None, // no braces at all: nothing to parallelize
        _ => {}
    }
    Some(units)
}

/// The first byte at or after `i` that can change the pre-scan's state —
/// `/`, `"`, `{` or `}` — or `b.len()`. Scans eight bytes per step: the
/// pre-scan runs over the whole text on every re-parse, and almost all
/// of it is plain code.
fn next_structural(b: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // High bit set in every byte lane of `w` equal to `c`, and possibly in
    // lanes above such a lane (a borrow), never below it: the lowest set
    // bit is exact.
    let lanes = |w: u64, c: u8| {
        let x = w ^ (ONES * u64::from(c));
        x.wrapping_sub(ONES) & !x & HIGH
    };
    while let Some(chunk) = b.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = lanes(w, b'/') | lanes(w, b'"') | lanes(w, b'{') | lanes(w, b'}');
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < b.len() && !matches!(b[i], b'/' | b'"' | b'{' | b'}') {
        i += 1;
    }
    i
}

/// Attempts the parallel front-end. `Some(program)` is byte-identical
/// (AST, diagnostics — necessarily none — and downstream rendering) to
/// what the sequential parser would produce; `None` means "use the
/// sequential path". The caller's diagnostics are never touched: the
/// parallel path only succeeds when there is nothing to report.
pub(crate) fn try_parse_parallel(src: &str) -> Option<Program> {
    if sjava_par::num_threads() <= 1 {
        return None;
    }
    // The same adaptive threshold as every other fan-out: paper-sized
    // files parse in well under the worker-spawn cost. (The minimum of
    // 2 keeps SJAVA_PAR_THRESHOLD=0 meaning "force parallel", not
    // "parallelize a single unit".)
    parse_parallel_with(
        src,
        sjava_par::num_threads(),
        sjava_par::par_threshold().max(2),
    )
}

/// The parallel front-end with an explicit worker width and unit floor,
/// bypassing `SJAVA_THREADS`/`SJAVA_PAR_THRESHOLD`. This is the
/// differential-testing surface (exported as
/// [`crate::parse_parallel_forced`]): property tests and the fuzz
/// harness force the split-lex-parse path at any width without mutating
/// process-global environment variables, which would race across test
/// threads.
pub(crate) fn parse_parallel_with(src: &str, threads: usize, min_units: usize) -> Option<Program> {
    let units = split_units(src)?;
    if units.len() < min_units.max(2) {
        return None;
    }
    let all: Vec<usize> = (0..units.len()).collect();
    let classes = parse_units(src, &units, &all, threads)?
        .into_iter()
        .flatten()
        .collect();
    // Cyclic inheritance declines too: the sequential path reports it.
    let mut diags = Diagnostics::new();
    let program = crate::resolve::resolve_reporting(Program::new(classes), &mut diags);
    diags.is_empty().then_some(program)
}

/// Lexes and parses units `which` of `src` at `threads` workers,
/// returning each one's class list (unresolved) in `which` order, or
/// `None` when any of them reports a diagnostic.
fn parse_units(
    src: &str,
    units: &[Range<usize>],
    which: &[usize],
    threads: usize,
) -> Option<Vec<Vec<ClassDecl>>> {
    // Unit byte length is the cost proxy: lex + parse time is linear-ish
    // in input bytes, and the skew between a 40-line sensor class and a
    // 2k-line decoder is exactly what steal-half absorbs.
    let cost: Vec<u64> = which.iter().map(|&u| units[u].len() as u64).collect();
    sjava_par::run_indexed_weighted_with(which.len(), threads, &cost, |k| {
        let r = units[which[k]].clone();
        let mut diags = Diagnostics::new();
        let tokens = lex_at(&src[r.clone()], r.start as u32, &mut diags);
        let classes = crate::parser::parse_unit(src, tokens, &mut diags);
        // Any diagnostic ⇒ the sequential re-parse owns the wording.
        diags.is_empty().then_some(classes)
    })
    .into_iter()
    .collect()
}

/// The worker width for parsing `n` units: the pool when `n` clears the
/// adaptive fan-out threshold, one thread otherwise.
fn width(n: usize) -> usize {
    if n >= sjava_par::par_threshold().max(2) {
        sjava_par::num_threads()
    } else {
        1
    }
}

/// A successful parse of a whole source text, kept so that the next
/// revision of the text costs what its edit costs: the text, the
/// pre-scan's unit ranges, and the program with each class tagged by the
/// unit it came from.
///
/// [`UnitParse::reparse`] re-lexes and re-parses only the units whose
/// bytes are not those of some unit of the previous text. Every other
/// unit's classes move into the new program with their spans shifted by
/// the distance the unit moved, and keep their static resolution while
/// its context is unchanged. The program always equals what
/// [`crate::parse`] returns for the same text.
///
/// ```
/// use sjava_syntax::UnitParse;
///
/// let mut parse = UnitParse::new("class A { int x; }\nclass B { }\n").expect("parses");
/// // An edit inside `B` re-parses `B` only; `A` moves over unchanged.
/// let origins = parse.reparse("class A { int x; }\nclass B { int y; }\n").expect("parses");
/// assert_eq!(origins, vec![Some(0), None]);
/// assert_eq!(parse.program(), &sjava_syntax::parse(parse.text()).expect("parses"));
/// ```
#[derive(Debug, Default)]
pub struct UnitParse {
    text: String,
    units: Vec<Range<usize>>,
    /// Hashes each unit's bytes. Randomly keyed, so no text can be
    /// crafted to make many units share a hash; a hash only nominates a
    /// reuse candidate, which is confirmed byte for byte.
    hasher: RandomState,
    /// The hash of each unit.
    hashes: Vec<u64>,
    /// The classes of each unit, as a range of `program.classes`.
    classes_of: Vec<Range<usize>>,
    program: Program,
    /// The context every class was resolved under.
    context: Context,
}

impl UnitParse {
    /// Parses `text` through the unit-indexed front end. `None` when the
    /// pre-scan refuses the text, any unit reports a diagnostic, or the
    /// classes inherit cyclically: the caller then parses the whole file
    /// with [`crate::parse`], which owns every diagnostic.
    pub fn new(text: &str) -> Option<UnitParse> {
        let mut parse = UnitParse::default();
        parse.reparse(text)?;
        Some(parse)
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The parsed text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Moves to a new revision of the text. Returns, for each class of
    /// the new program, the index of the class of the previous program it
    /// was moved from, or `None` where it was parsed afresh. Returns
    /// `None` and leaves `self` untouched in the cases [`UnitParse::new`]
    /// declines.
    pub fn reparse(&mut self, text: &str) -> Option<Vec<Option<usize>>> {
        let units = split_units(text)?;
        let new = text.as_bytes();
        let old = self.text.as_bytes();
        let hashes: Vec<u64> = units
            .iter()
            .map(|r| self.hasher.hash_one(&new[r.clone()]))
            .collect();
        // Candidates by hash, earliest first; each old unit is claimed by
        // at most one new unit whose bytes equal it.
        let mut candidates: HashMap<u64, Vec<usize>> = HashMap::new();
        for (u, &h) in self.hashes.iter().enumerate().rev() {
            candidates.entry(h).or_default().push(u);
        }
        let mut reuse: Vec<Option<usize>> = units
            .iter()
            .zip(&hashes)
            .map(|(r, h)| {
                let list = candidates.get_mut(h)?;
                let at = list
                    .iter()
                    .rposition(|&u| old[self.units[u].clone()] == new[r.clone()])?;
                Some(list.remove(at))
            })
            .collect();

        let mut parsed: Vec<Option<Vec<ClassDecl>>> = units.iter().map(|_| None).collect();
        let fresh: Vec<usize> = (0..units.len()).filter(|&u| reuse[u].is_none()).collect();
        for (&u, classes) in
            fresh
                .iter()
                .zip(parse_units(text, &units, &fresh, width(fresh.len()))?)
        {
            parsed[u] = Some(classes);
        }

        // The new program's resolution context. A unit parsed again has
        // the same class names, superclasses and fields as the reused
        // classes it replaces, so re-parsing a stale unit below leaves
        // this context as it is.
        let context = {
            let classes: Vec<&ClassDecl> = (0..units.len())
                .flat_map(|u| match (&reuse[u], &parsed[u]) {
                    (Some(o), _) => &self.program.classes[self.classes_of[*o].clone()],
                    (None, Some(fresh)) => fresh.as_slice(),
                    (None, None) => &[],
                })
                .collect();
            // The whole-file parser reports cyclic inheritance, on which
            // every chain walk, this context's included, would loop.
            if !inheritance_cycles(&classes).is_empty() {
                return None;
            }
            Context::of(&classes)
        };
        let mut next = 0;
        let mut stale = Vec::new();
        for u in 0..units.len() {
            match reuse[u] {
                Some(o) => {
                    let was = self.classes_of[o].clone();
                    if !was
                        .clone()
                        .zip(next..)
                        .all(|(i, j)| self.context.same_for(i, &context, j))
                    {
                        stale.push(u);
                    }
                    next += was.len();
                }
                None => next += parsed[u].as_ref().map_or(0, Vec::len),
            }
        }
        for (&u, classes) in
            stale
                .iter()
                .zip(parse_units(text, &units, &stale, width(stale.len()))?)
        {
            reuse[u] = None;
            parsed[u] = Some(classes);
        }

        // Nothing below can fail: assemble the new program.
        let mut old_classes: Vec<Option<ClassDecl>> = std::mem::take(&mut self.program.classes)
            .into_iter()
            .map(Some)
            .collect();
        let mut classes = Vec::with_capacity(next);
        let mut origins = Vec::with_capacity(next);
        let mut classes_of = Vec::with_capacity(units.len());
        for u in 0..units.len() {
            let first = classes.len();
            match reuse[u] {
                Some(o) => {
                    let delta = (units[u].start as u32).wrapping_sub(self.units[o].start as u32);
                    for i in self.classes_of[o].clone() {
                        let mut class = old_classes[i].take().expect("a unit moves once");
                        if delta != 0 {
                            shift_class(&mut class, delta);
                        }
                        classes.push(class);
                        origins.push(Some(i));
                    }
                }
                None => {
                    for mut class in parsed[u].take().unwrap_or_default() {
                        context.resolve(&mut class, classes.len());
                        classes.push(class);
                        origins.push(None);
                    }
                }
            }
            classes_of.push(first..classes.len());
        }
        self.text.clear();
        self.text.push_str(text);
        self.units = units;
        self.hashes = hashes;
        self.classes_of = classes_of;
        self.program = Program::new(classes);
        self.context = context;
        Some(origins)
    }
}

// ---- span shifting --------------------------------------------------------
//
// Every walker destructures its node in full, so a span field added to
// the AST fails to compile here instead of silently staying unshifted.

/// Moves every span of `class` by `delta` bytes (two's-complement, so a
/// unit that moved up shifts by a "negative" amount).
fn shift_class(class: &mut ClassDecl, delta: u32) {
    let ClassDecl {
        name: _,
        superclass: _,
        annots,
        fields,
        methods,
        span,
    } = class;
    shift(span, delta);
    let ClassAnnots {
        lattice,
        method_default,
        trusted: _,
    } = annots;
    shift_lattice(lattice, delta);
    if let Some(md) = method_default {
        shift_method_annots(md, delta);
    }
    for field in fields {
        let FieldDecl {
            annots: _,
            is_static: _,
            is_final: _,
            ty: _,
            name: _,
            init,
            span,
        } = field;
        shift(span, delta);
        if let Some(init) = init {
            shift_expr(init, delta);
        }
    }
    for method in methods {
        let MethodDecl {
            annots,
            is_static: _,
            ret: _,
            name: _,
            params,
            body,
            span,
        } = method;
        shift(span, delta);
        shift_method_annots(annots, delta);
        for Param {
            annots: _,
            ty: _,
            name: _,
            span,
        } in params
        {
            shift(span, delta);
        }
        shift_block(body, delta);
    }
}

fn shift(span: &mut Span, delta: u32) {
    span.start = span.start.wrapping_add(delta);
    span.end = span.end.wrapping_add(delta);
}

fn shift_lattice(decl: &mut Option<LatticeDecl>, delta: u32) {
    if let Some(LatticeDecl {
        orders: _,
        shared: _,
        isolated: _,
        span,
    }) = decl
    {
        shift(span, delta);
    }
}

fn shift_method_annots(annots: &mut MethodAnnots, delta: u32) {
    // Of a method's annotations only the lattice declaration has a span;
    // `@LOC`-style payloads are span-free.
    let MethodAnnots {
        lattice,
        this_loc: _,
        global_loc: _,
        return_loc: _,
        pc_loc: _,
        trusted: _,
    } = annots;
    shift_lattice(lattice, delta);
}

fn shift_block(block: &mut Block, delta: u32) {
    let Block { stmts, span } = block;
    shift(span, delta);
    for stmt in stmts {
        shift_stmt(stmt, delta);
    }
}

fn shift_stmt(stmt: &mut Stmt, delta: u32) {
    match stmt {
        Stmt::VarDecl {
            annots: _,
            ty: _,
            name: _,
            init,
            span,
        } => {
            shift(span, delta);
            if let Some(e) = init {
                shift_expr(e, delta);
            }
        }
        Stmt::Assign { lhs, rhs, span } => {
            shift(span, delta);
            shift_lvalue(lhs, delta);
            shift_expr(rhs, delta);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => {
            shift(span, delta);
            shift_expr(cond, delta);
            shift_block(then_blk, delta);
            if let Some(b) = else_blk {
                shift_block(b, delta);
            }
        }
        Stmt::While {
            kind: _,
            cond,
            body,
            span,
        } => {
            shift(span, delta);
            shift_expr(cond, delta);
            shift_block(body, delta);
        }
        Stmt::For {
            kind: _,
            init,
            cond,
            update,
            body,
            span,
        } => {
            shift(span, delta);
            for s in [init, update].into_iter().flatten() {
                shift_stmt(s, delta);
            }
            if let Some(c) = cond {
                shift_expr(c, delta);
            }
            shift_block(body, delta);
        }
        Stmt::Return { value, span } => {
            shift(span, delta);
            if let Some(v) = value {
                shift_expr(v, delta);
            }
        }
        Stmt::Break { span } | Stmt::Continue { span } => shift(span, delta),
        Stmt::ExprStmt { expr, span } => {
            shift(span, delta);
            shift_expr(expr, delta);
        }
        Stmt::Block(b) => shift_block(b, delta),
    }
}

fn shift_lvalue(lv: &mut LValue, delta: u32) {
    match lv {
        LValue::Var { name: _, span }
        | LValue::StaticField {
            class: _,
            field: _,
            span,
        } => shift(span, delta),
        LValue::Field {
            base,
            field: _,
            span,
        } => {
            shift(span, delta);
            shift_expr(base, delta);
        }
        LValue::Index { base, index, span } => {
            shift(span, delta);
            shift_expr(base, delta);
            shift_expr(index, delta);
        }
    }
}

fn shift_expr(expr: &mut Expr, delta: u32) {
    match expr {
        Expr::IntLit { value: _, span }
        | Expr::FloatLit { value: _, span }
        | Expr::BoolLit { value: _, span }
        | Expr::StrLit { value: _, span }
        | Expr::Null { span }
        | Expr::This { span }
        | Expr::Var { name: _, span }
        | Expr::StaticField {
            class: _,
            field: _,
            span,
        }
        | Expr::New { class: _, span } => shift(span, delta),
        Expr::Field {
            base,
            field: _,
            span,
        }
        | Expr::Length { base, span } => {
            shift(span, delta);
            shift_expr(base, delta);
        }
        Expr::Index { base, index, span } => {
            shift(span, delta);
            shift_expr(base, delta);
            shift_expr(index, delta);
        }
        Expr::Call(call) => {
            let CallExpr {
                recv,
                class_recv: _,
                name: _,
                args,
                span,
            } = &mut **call;
            shift(span, delta);
            if let Some(r) = recv {
                shift_expr(r, delta);
            }
            for a in args {
                shift_expr(a, delta);
            }
        }
        Expr::NewArray { elem: _, len, span } => {
            shift(span, delta);
            shift_expr(len, delta);
        }
        Expr::Unary {
            op: _,
            operand,
            span,
        }
        | Expr::Cast {
            ty: _,
            operand,
            span,
        } => {
            shift(span, delta);
            shift_expr(operand, delta);
        }
        Expr::Binary {
            op: _,
            lhs,
            rhs,
            span,
        } => {
            shift(span, delta);
            shift_expr(lhs, delta);
            shift_expr(rhs, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_simple_classes() {
        let src = "class A { int x; }\nclass B { void f() {} }\n";
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert_eq!(&src[units[0].clone()], "class A { int x; }");
        // Trailing newline rides with the last unit.
        assert_eq!(units[1].end, src.len());
        // Units tile the file.
        assert_eq!(units[0].end, units[1].start);
        assert_eq!(units[0].start, 0);
    }

    #[test]
    fn braces_in_strings_and_comments_do_not_split() {
        let src = r#"class A { String s = "}{"; /* } */ } // }
class B { }"#;
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert!(&src[units[0].clone()].starts_with("class A"));
        // The trailing line comment of unit 0's line rides with unit 1.
        assert!(&src[units[1].clone()].contains("class B"));
    }

    #[test]
    fn structural_scan_stops_at_every_special_byte() {
        // Every position of every special byte, at every alignment, with
        // other bytes (including high ones) around it.
        for len in 0..20 {
            for at in 0..len {
                for special in [b'/', b'"', b'{', b'}'] {
                    let mut b: Vec<u8> = (0..len).map(|k| b"a \x80\xff0\n*"[k % 7]).collect();
                    b[at] = special;
                    for from in 0..=at {
                        assert_eq!(next_structural(&b, from), at, "{b:?} from {from}");
                    }
                    assert_eq!(next_structural(&b, at + 1), len);
                }
            }
        }
    }

    #[test]
    fn refuses_malformed_nesting() {
        assert!(split_units("class A { ").is_none(), "unbalanced open");
        assert!(split_units("} class A { }").is_none(), "stray close");
        assert!(split_units("class A { \"unterminated }").is_none());
        assert!(split_units("class A { } /* open").is_none());
        assert!(split_units("no braces here").is_none());
        assert!(split_units("").is_none());
    }

    #[test]
    fn annotations_ride_with_their_class() {
        let src = "@LATTICE(\"A<B\")\nclass A { }\n@LATTICE(\"C\")\nclass B { }";
        let units = split_units(src).expect("splits");
        assert_eq!(units.len(), 2);
        assert!(src[units[1].clone()].contains("@LATTICE(\"C\")"));
    }

    // One test mutates THREADS_ENV (parallel test threads share the
    // process environment, so the set/remove pairs must not interleave
    // with another env-reading assertion in this crate).
    #[test]
    fn parallel_parse_matches_sequential_and_falls_back_on_errors() {
        // 30 classes clears the default threshold; force width 4.
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!(
                "@LATTICE(\"H<L\")\nclass C{i} {{ int f{i}; void m{i}() {{ int x = {i}; x = x + 1; }} }}\n"
            ));
        }
        std::env::set_var(sjava_par::THREADS_ENV, "4");
        let par = try_parse_parallel(&src).expect("parallel path taken");
        let mut seq_diags = Diagnostics::new();
        let tokens = crate::lexer::lex(&src, &mut seq_diags);
        let seq = {
            let classes = crate::parser::parse_unit(&src, tokens, &mut seq_diags);
            crate::resolve::resolve_statics(Program::new(classes))
        };
        assert!(seq_diags.is_empty());
        assert_eq!(par, seq, "parallel AST must equal sequential AST");

        // An erroring unit rejects the whole parallel attempt.
        src.push_str("class Broken { int = ; }\n");
        assert!(
            try_parse_parallel(&src).is_none(),
            "erroring unit must reject the parallel path"
        );
        std::env::remove_var(sjava_par::THREADS_ENV);
    }
}
