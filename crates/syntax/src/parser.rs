//! Recursive-descent parser for the SJava dialect.
//!
//! The parser reads tokens by kind and takes names and literal values
//! from the source text the tokens' spans cover, so a name is allocated
//! once, when the AST node that keeps it is built. It bounds how deep the
//! AST it builds nests ([`MAX_NESTING`]).

use crate::annot::{
    parse_composite_loc, parse_lattice_decl, ClassAnnots, MethodAnnots, RawAnnot, VarAnnots,
};
use crate::ast::*;
use crate::diag::{Diag, Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// The deepest the parser lets an AST nest. Every pass over the AST
/// recurses once per level: the parser itself, static resolution, the
/// checker and eviction passes, inference, `strip`, the printer, VM
/// lowering, span shifting and drop, several of them on worker threads
/// with 2 MiB stacks. At this depth each stays far inside such a stack,
/// so no input can overflow one, and whether a file is reported or
/// checked does not depend on the number of worker threads. Past the
/// limit the parser reports SJ0002 at the token that opens the level and
/// parses no further.
///
/// Each of these opens one level below the one it appears at:
/// - a block, a method body included, and the body of a braceless
///   `if`, `else`, `while` or `for`;
/// - an expression in statement position, a condition, an initializer,
///   an index, a call argument and an array length;
/// - a parenthesised expression, a unary operator and a cast;
/// - each operator of a binary chain, and each `.` or `[…]` of a postfix
///   chain, since such a chain nests to the left in the AST;
/// - each `[]` of an array type.
///
/// The programs this repository ships or generates nest 12–20 levels.
pub const MAX_NESTING: u32 = 256;

/// Parses a full program. Errors are accumulated into `diags`; the parser
/// recovers at member and statement boundaries so a best-effort AST is
/// always produced.
pub fn parse_program(src: &str, diags: &mut Diagnostics) -> Program {
    // The parallel front-end (pre-scan + per-unit lex/parse on the
    // worker pool) handles large multi-class files; it declines — and
    // leaves `diags` untouched — whenever the sequential path might
    // observe the input differently, so output stays byte-identical at
    // any thread count.
    if let Some(program) = crate::par_parse::try_parse_parallel(src) {
        return program;
    }
    let tokens = lex(src, diags);
    let classes = parse_unit(src, tokens, diags);
    crate::resolve::resolve_reporting(Program::new(classes), diags)
}

/// Parses one compilation unit's token stream (a run of top-level class
/// declarations ending in `Eof`) without the whole-program static
/// resolution pass. `src` is the whole text the tokens' spans index. The
/// parallel front-end merges unit class lists in source order and
/// resolves once over the merged program.
pub(crate) fn parse_unit(src: &str, tokens: Vec<Token>, diags: &mut Diagnostics) -> Vec<ClassDecl> {
    Parser {
        src,
        tokens,
        pos: 0,
        depth: 0,
        halted: false,
        stmts: Vec::new(),
        annots: Vec::new(),
        diags,
    }
    .program()
}

struct Parser<'s, 'd> {
    src: &'s str,
    tokens: Vec<Token>,
    pos: usize,
    /// The nesting levels open at the current token.
    depth: u32,
    /// Set once the nesting crossed [`MAX_NESTING`]: the parser has moved
    /// to the end of input and reports nothing more.
    halted: bool,
    /// The statements of every open block, innermost last: a block moves
    /// its own into a vector of their exact number when it closes.
    stmts: Vec<Stmt>,
    /// A spare buffer for the annotations before a declaration, handed
    /// back once they are read.
    annots: Vec<RawAnnot<'s>>,
    diags: &'d mut Diagnostics,
}

impl<'s> Parser<'s, '_> {
    fn peek(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    /// The current token's source text.
    fn text(&self) -> &'s str {
        self.tokens[self.pos].text(self.src)
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at(&self, kind: TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&mut self, diag: Diagnostic) {
        if !self.halted {
            self.diags.push(diag);
        }
    }

    /// Reports SJ0002 at the current token, which is not `what`. Cold:
    /// its formatting stays out of the recursive functions' frames.
    #[cold]
    fn unexpected(&mut self, what: &dyn std::fmt::Display) {
        let diag = Diag::parse(
            format!(
                "expected {what}, found `{}`",
                self.tokens[self.pos].describe(self.src)
            ),
            self.span(),
        );
        self.error(diag);
    }

    fn expect(&mut self, kind: TokenKind) -> bool {
        if self.eat(kind) {
            true
        } else {
            self.unexpected(&format_args!("`{kind}`"));
            false
        }
    }

    /// Consumes an identifier and returns its text.
    fn ident(&mut self) -> Option<&'s str> {
        if self.at(TokenKind::Ident) {
            let name = self.text();
            self.bump();
            Some(name)
        } else {
            self.unexpected(&"identifier");
            None
        }
    }

    fn expect_ident(&mut self) -> String {
        self.ident().unwrap_or("<error>").to_string()
    }

    /// Opens one nesting level at the current token. Past
    /// [`MAX_NESTING`] it reports SJ0002 there, moves to the end of input
    /// and returns false.
    fn deeper(&mut self) -> bool {
        if self.depth < MAX_NESTING {
            self.depth += 1;
            return true;
        }
        self.error(Diag::parse(
            format!("nesting exceeds the limit of {MAX_NESTING} levels"),
            self.span(),
        ));
        self.halted = true;
        self.pos = self.tokens.len() - 1;
        false
    }

    /// Runs `f` one nesting level down; `None` when that level is past
    /// the limit.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if !self.deeper() {
            return None;
        }
        let out = f(self);
        self.depth -= 1;
        Some(out)
    }

    // ---- top level -------------------------------------------------------

    fn program(&mut self) -> Vec<ClassDecl> {
        let mut classes = Vec::new();
        while !self.at(TokenKind::Eof) {
            let annots = self.raw_annots();
            if self.at(TokenKind::Class) || self.at(TokenKind::Visibility) {
                while self.eat(TokenKind::Visibility) {}
                if let Some(c) = self.class_decl(annots) {
                    classes.push(c);
                }
            } else {
                self.unexpected(&"class declaration");
                self.bump();
            }
        }
        classes
    }

    fn raw_annots(&mut self) -> Vec<RawAnnot<'s>> {
        let mut out = std::mem::take(&mut self.annots);
        while self.at(TokenKind::AtIdent) {
            let start = self.span();
            let name = &self.text()[1..];
            self.bump();
            let mut payload = None;
            if self.eat(TokenKind::LParen) {
                if self.at(TokenKind::StrLit) {
                    payload = Some(self.tokens[self.pos].str_value(self.src));
                    self.bump();
                } else if !self.at(TokenKind::RParen) {
                    self.error(Diag::annot(
                        "annotation payload must be a string literal",
                        self.span(),
                    ));
                    // skip to closing paren
                    while !self.at(TokenKind::RParen) && !self.at(TokenKind::Eof) {
                        self.bump();
                    }
                }
                self.expect(TokenKind::RParen);
            }
            out.push(RawAnnot {
                name,
                payload,
                span: start.merge(self.prev_span()),
            });
        }
        out
    }

    fn class_annots(&mut self, mut raw: Vec<RawAnnot<'s>>) -> ClassAnnots {
        let mut ca = ClassAnnots::default();
        for a in raw.drain(..) {
            let payload = a.payload.as_deref().unwrap_or("");
            match a.name {
                "LATTICE" => {
                    ca.lattice = Some(parse_lattice_decl(payload, a.span, self.diags));
                }
                "METHODDEFAULT" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.lattice = Some(parse_lattice_decl(payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "THISLOC" => {
                    // class-wide default THISLOC complements @METHODDEFAULT
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.this_loc = a.payload.map(String::from);
                    ca.method_default = Some(ma);
                }
                "GLOBALLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.global_loc = a.payload.map(String::from);
                    ca.method_default = Some(ma);
                }
                "RETURNLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.return_loc = Some(parse_composite_loc(payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "PCLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.pc_loc = Some(parse_composite_loc(payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "TRUSTED" => ca.trusted = true,
                other => {
                    self.error(Diag::annot(
                        format!("unknown class annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        self.annots = raw;
        ca
    }

    fn method_annots(&mut self, mut raw: Vec<RawAnnot<'s>>) -> MethodAnnots {
        let mut ma = MethodAnnots::default();
        for a in raw.drain(..) {
            let payload = a.payload.as_deref().unwrap_or("");
            match a.name {
                "LATTICE" => {
                    ma.lattice = Some(parse_lattice_decl(payload, a.span, self.diags));
                }
                "THISLOC" => ma.this_loc = a.payload.map(String::from),
                "GLOBALLOC" => ma.global_loc = a.payload.map(String::from),
                "RETURNLOC" => {
                    ma.return_loc = Some(parse_composite_loc(payload, a.span, self.diags));
                }
                "PCLOC" => {
                    ma.pc_loc = Some(parse_composite_loc(payload, a.span, self.diags));
                }
                "TRUSTED" => ma.trusted = true,
                other => {
                    self.error(Diag::annot(
                        format!("unknown method annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        self.annots = raw;
        ma
    }

    fn var_annots(&mut self, mut raw: Vec<RawAnnot<'s>>) -> VarAnnots {
        let mut va = VarAnnots::default();
        for a in raw.drain(..) {
            let payload = a.payload.as_deref().unwrap_or("");
            match a.name {
                "LOC" => {
                    va.loc = Some(parse_composite_loc(payload, a.span, self.diags));
                }
                "DELTA" => {
                    let mut c = parse_composite_loc(payload, a.span, self.diags);
                    c.delta += 1;
                    va.loc = Some(c);
                }
                "DELEGATE" => va.delegate = true,
                other => {
                    self.error(Diag::annot(
                        format!("unknown variable annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        self.annots = raw;
        va
    }

    fn class_decl(&mut self, raw: Vec<RawAnnot<'s>>) -> Option<ClassDecl> {
        let annots = self.class_annots(raw);
        let start = self.span();
        if !self.expect(TokenKind::Class) {
            return None;
        }
        let name = self.expect_ident();
        let superclass = if self.eat(TokenKind::Extends) {
            Some(self.expect_ident())
        } else {
            None
        };
        let header_span = start.merge(self.prev_span());
        self.expect(TokenKind::LBrace);
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.at(TokenKind::RBrace) && !self.at(TokenKind::Eof) {
            self.member(&mut fields, &mut methods);
        }
        self.expect(TokenKind::RBrace);
        Some(ClassDecl {
            name,
            superclass,
            annots,
            fields,
            methods,
            span: header_span,
        })
    }

    fn member(&mut self, fields: &mut Vec<FieldDecl>, methods: &mut Vec<MethodDecl>) {
        let raw = self.raw_annots();
        let start = self.span();
        let mut is_static = false;
        let mut is_final = false;
        loop {
            match self.peek() {
                TokenKind::Visibility => {
                    self.bump();
                }
                TokenKind::Static => {
                    self.bump();
                    is_static = true;
                }
                TokenKind::Final => {
                    self.bump();
                    is_final = true;
                }
                _ => break,
            }
        }
        let Some(ty) = self.ty() else {
            self.recover_member();
            return;
        };
        let name = self.expect_ident();
        if self.at(TokenKind::LParen) {
            let annots = self.method_annots(raw);
            let params = self.params();
            let header_span = start.merge(self.prev_span());
            let body = self.block();
            methods.push(MethodDecl {
                annots,
                is_static,
                ret: ty,
                name,
                params,
                body,
                span: header_span,
            });
        } else {
            let annots = self.var_annots(raw);
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expr())
            } else {
                None
            };
            let span = start.merge(self.prev_span());
            self.expect(TokenKind::Semi);
            fields.push(FieldDecl {
                annots,
                is_static,
                is_final,
                ty,
                name,
                init,
                span,
            });
        }
    }

    fn recover_member(&mut self) {
        while !matches!(
            self.peek(),
            TokenKind::Semi | TokenKind::RBrace | TokenKind::Eof
        ) {
            self.bump();
        }
        self.eat(TokenKind::Semi);
    }

    fn params(&mut self) -> Vec<Param> {
        self.expect(TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let raw = self.raw_annots();
                let annots = self.var_annots(raw);
                let start = self.span();
                let Some(ty) = self.ty() else {
                    break;
                };
                let name = self.expect_ident();
                params.push(Param {
                    annots,
                    ty,
                    name,
                    span: start.merge(self.prev_span()),
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen);
        params
    }

    fn ty(&mut self) -> Option<Type> {
        let Some(base) = self.base_ty() else {
            self.unexpected(&"type");
            return None;
        };
        Some(self.array_dims(base))
    }

    /// A non-array type, consumed; `None`, with nothing consumed, when
    /// the current token starts none.
    fn base_ty(&mut self) -> Option<Type> {
        let ty = match self.peek() {
            TokenKind::Int => Type::Int,
            TokenKind::Float => Type::Float,
            TokenKind::Boolean => Type::Boolean,
            TokenKind::StringTy => Type::Str,
            TokenKind::Void => Type::Void,
            TokenKind::Ident => Type::Class(self.text().to_string()),
            _ => return None,
        };
        self.bump();
        Some(ty)
    }

    /// `ty` raised by each `[]` that follows, one nesting level each.
    fn array_dims(&mut self, mut ty: Type) -> Type {
        let depth = self.depth;
        while self.at(TokenKind::LBracket)
            && self.peek_at(1) == TokenKind::RBracket
            && self.deeper()
        {
            self.bump();
            self.bump();
            ty = Type::Array(Box::new(ty));
        }
        self.depth = depth;
        ty
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Block {
        let start = self.span();
        self.nested(|p| {
            p.expect(TokenKind::LBrace);
            let first = p.stmts.len();
            while !p.at(TokenKind::RBrace) && !p.at(TokenKind::Eof) {
                let before = p.pos;
                if let Some(s) = p.stmt() {
                    p.stmts.push(s);
                }
                if p.pos == before {
                    p.bump(); // guarantee progress
                }
            }
            p.expect(TokenKind::RBrace);
            // Sized to fit: the vector lives as long as the AST.
            let stmts = p.stmts.drain(first..).collect();
            Block {
                stmts,
                span: start.merge(p.prev_span()),
            }
        })
        .unwrap_or(Block {
            stmts: Vec::new(),
            span: start,
        })
    }

    fn loop_label(&mut self) -> Option<LoopKind> {
        // `IDENT :` followed by while/for is a loop label.
        if !self.at(TokenKind::Ident)
            || self.peek_at(1) != TokenKind::Colon
            || !matches!(self.peek_at(2), TokenKind::While | TokenKind::For)
        {
            return None;
        }
        let name = self.text();
        let span = self.span();
        self.bump();
        self.bump();
        if name == "SSJAVA" {
            return Some(LoopKind::EventLoop);
        }
        if let Some(rest) = name.strip_prefix("TERMINATE_") {
            return Some(LoopKind::Trusted(rest.to_string()));
        }
        if let Some(rest) = name.strip_prefix("MAXLOOP_") {
            if let Ok(n) = rest.parse::<u64>() {
                return Some(LoopKind::MaxLoop(n));
            }
        }
        self.error(Diag::parse(format!("unknown loop label `{name}`"), span));
        Some(LoopKind::Plain)
    }

    // A statement nests through `stmt` and the compound statements'
    // own functions, so those stay out of line: `stmt`'s frame, which
    // every nesting level puts on the stack, then holds no compound
    // statement's locals.
    fn stmt(&mut self) -> Option<Stmt> {
        let label = self.loop_label();
        let start = self.span();
        match self.peek() {
            TokenKind::LBrace => Some(Stmt::Block(self.block())),
            TokenKind::If => Some(self.if_stmt(start)),
            TokenKind::While => Some(self.while_stmt(label, start)),
            TokenKind::For => self.for_stmt(label, start),
            TokenKind::Return => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr())
                };
                self.expect(TokenKind::Semi);
                Some(Stmt::Return {
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi);
                Some(Stmt::Break { span: start })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi);
                Some(Stmt::Continue { span: start })
            }
            TokenKind::Semi => {
                self.bump();
                None
            }
            _ => {
                let s = self.simple_stmt_no_semi()?;
                self.expect(TokenKind::Semi);
                Some(s)
            }
        }
    }

    #[inline(never)]
    fn if_stmt(&mut self, start: Span) -> Stmt {
        self.bump();
        self.expect(TokenKind::LParen);
        let cond = self.expr();
        self.expect(TokenKind::RParen);
        let then_blk = self.stmt_as_block();
        let else_blk = if self.eat(TokenKind::Else) {
            Some(self.stmt_as_block())
        } else {
            None
        };
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span: start.merge(self.prev_span()),
        }
    }

    #[inline(never)]
    fn while_stmt(&mut self, label: Option<LoopKind>, start: Span) -> Stmt {
        self.bump();
        self.expect(TokenKind::LParen);
        let cond = self.expr();
        self.expect(TokenKind::RParen);
        let body = self.stmt_as_block();
        Stmt::While {
            kind: label.unwrap_or(LoopKind::Plain),
            cond,
            body,
            span: start.merge(self.prev_span()),
        }
    }

    #[inline(never)]
    fn for_stmt(&mut self, label: Option<LoopKind>, start: Span) -> Option<Stmt> {
        self.bump();
        self.expect(TokenKind::LParen);
        let init = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(TokenKind::Semi);
        let cond = if self.at(TokenKind::Semi) {
            None
        } else {
            Some(self.expr())
        };
        self.expect(TokenKind::Semi);
        let update = if self.at(TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(TokenKind::RParen);
        let body = self.stmt_as_block();
        Some(Stmt::For {
            kind: label.unwrap_or(LoopKind::Plain),
            init,
            cond,
            update,
            body,
            span: start.merge(self.prev_span()),
        })
    }

    fn stmt_as_block(&mut self) -> Block {
        if self.at(TokenKind::LBrace) {
            self.block()
        } else {
            let start = self.span();
            let stmts = self.nested(Self::stmt).flatten().into_iter().collect();
            Block {
                stmts,
                span: start.merge(self.prev_span()),
            }
        }
    }

    /// Parses a declaration / assignment / call without the trailing `;`.
    fn simple_stmt_no_semi(&mut self) -> Option<Stmt> {
        let start = self.span();
        // Variable declaration: annotations, or a type followed by ident
        // then `=` or `;`.
        if self.at(TokenKind::AtIdent) || self.is_decl_start() {
            let raw = self.raw_annots();
            let annots = self.var_annots(raw);
            let ty = self.ty()?;
            let name = self.expect_ident();
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expr())
            } else {
                None
            };
            return Some(Stmt::VarDecl {
                annots,
                ty,
                name,
                init,
                span: start.merge(self.prev_span()),
            });
        }
        // Otherwise an expression-leading statement.
        let e = self.expr();
        match self.peek() {
            TokenKind::Assign => {
                self.bump();
                let rhs = self.expr();
                let lhs = self.expr_to_lvalue(e)?;
                Some(Stmt::Assign {
                    lhs,
                    rhs,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::OpAssign(op) => {
                self.bump();
                let rhs = self.expr();
                let span = start.merge(self.prev_span());
                let bin = match op {
                    '+' => BinOp::Add,
                    '-' => BinOp::Sub,
                    '*' => BinOp::Mul,
                    _ => BinOp::Div,
                };
                let lhs = self.expr_to_lvalue(e.clone())?;
                Some(Stmt::Assign {
                    lhs,
                    rhs: Expr::Binary {
                        op: bin,
                        lhs: Box::new(e),
                        rhs: Box::new(rhs),
                        span,
                    },
                    span,
                })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let op = if self.at(TokenKind::PlusPlus) {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                self.bump();
                let span = start.merge(self.prev_span());
                let lhs = self.expr_to_lvalue(e.clone())?;
                Some(Stmt::Assign {
                    lhs,
                    rhs: Expr::Binary {
                        op,
                        lhs: Box::new(e),
                        rhs: Box::new(Expr::IntLit { value: 1, span }),
                        span,
                    },
                    span,
                })
            }
            _ => Some(Stmt::ExprStmt {
                expr: e,
                span: start.merge(self.prev_span()),
            }),
        }
    }

    /// Lookahead: does a declaration start here (`Type ident` …)?
    fn is_decl_start(&self) -> bool {
        match self.peek() {
            TokenKind::Int | TokenKind::Float | TokenKind::Boolean | TokenKind::StringTy => true,
            // `Ident ident` or `Ident[] ident` is a declaration of a class
            // type.
            TokenKind::Ident => matches!(
                (self.peek_at(1), self.peek_at(2), self.peek_at(3)),
                (TokenKind::Ident, _, _)
                    | (TokenKind::LBracket, TokenKind::RBracket, TokenKind::Ident)
            ),
            _ => false,
        }
    }

    fn expr_to_lvalue(&mut self, e: Expr) -> Option<LValue> {
        match e {
            Expr::Var { name, span } => Some(LValue::Var { name, span }),
            Expr::Field { base, field, span } => Some(LValue::Field { base, field, span }),
            Expr::StaticField { class, field, span } => {
                Some(LValue::StaticField { class, field, span })
            }
            Expr::Index { base, index, span } => Some(LValue::Index { base, index, span }),
            other => {
                self.error(Diag::parse("expression is not assignable", other.span()));
                None
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    /// An expression in its own position (a statement's, a condition, an
    /// initializer, an argument, an index, a length): one level down.
    fn expr(&mut self) -> Expr {
        let span = self.span();
        self.nested(|p| p.binary_expr(0))
            .unwrap_or(Expr::Null { span })
    }

    fn binary_expr(&mut self, min_prec: u8) -> Expr {
        let depth = self.depth;
        let mut lhs = self.unary_expr();
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::OrOr => (BinOp::Or, 1),
                TokenKind::AndAnd => (BinOp::And, 2),
                TokenKind::Pipe => (BinOp::BitOr, 3),
                TokenKind::Caret => (BinOp::BitXor, 3),
                TokenKind::Amp => (BinOp::BitAnd, 3),
                TokenKind::EqEq => (BinOp::Eq, 4),
                TokenKind::Ne => (BinOp::Ne, 4),
                TokenKind::Lt => (BinOp::Lt, 5),
                TokenKind::Le => (BinOp::Le, 5),
                TokenKind::Gt => (BinOp::Gt, 5),
                TokenKind::Ge => (BinOp::Ge, 5),
                TokenKind::Shl => (BinOp::Shl, 6),
                TokenKind::Shr => (BinOp::Shr, 6),
                TokenKind::Plus => (BinOp::Add, 7),
                TokenKind::Minus => (BinOp::Sub, 7),
                TokenKind::Star => (BinOp::Mul, 8),
                TokenKind::Slash => (BinOp::Div, 8),
                TokenKind::Percent => (BinOp::Rem, 8),
                _ => break,
            };
            // Each operator of the chain nests the chain so far one
            // level deeper.
            if prec < min_prec || !self.deeper() {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1);
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.depth = depth;
        lhs
    }

    fn unary_expr(&mut self) -> Expr {
        let start = self.span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            // Cast: `(int) e`, `(float) e`, `(boolean) e`.
            TokenKind::LParen
                if matches!(
                    self.peek_at(1),
                    TokenKind::Int | TokenKind::Float | TokenKind::Boolean
                ) && self.peek_at(2) == TokenKind::RParen =>
            {
                return self
                    .nested(|p| {
                        p.bump();
                        let ty = p.ty().expect("cast type");
                        p.expect(TokenKind::RParen);
                        let operand = p.unary_expr();
                        let span = start.merge(operand.span());
                        Expr::Cast {
                            ty,
                            operand: Box::new(operand),
                            span,
                        }
                    })
                    .unwrap_or(Expr::Null { span: start });
            }
            _ => return self.postfix_expr(),
        };
        self.nested(|p| {
            p.bump();
            let operand = p.unary_expr();
            let span = start.merge(operand.span());
            Expr::Unary {
                op,
                operand: Box::new(operand),
                span,
            }
        })
        .unwrap_or(Expr::Null { span: start })
    }

    fn postfix_expr(&mut self) -> Expr {
        let depth = self.depth;
        let mut e = self.primary_expr();
        loop {
            // Each step of the chain nests the chain so far one level
            // deeper.
            let op = self.peek();
            if !matches!(op, TokenKind::Dot | TokenKind::LBracket) || !self.deeper() {
                break;
            }
            self.bump();
            if op == TokenKind::Dot {
                let name = self.ident().unwrap_or("<error>");
                if self.at(TokenKind::LParen) {
                    let args = self.args();
                    let span = e.span().merge(self.prev_span());
                    e = Expr::Call(Box::new(CallExpr {
                        recv: Some(Box::new(e)),
                        class_recv: None,
                        name: name.to_string(),
                        args,
                        span,
                    }));
                } else if name == "length" {
                    let span = e.span().merge(self.prev_span());
                    e = Expr::Length {
                        base: Box::new(e),
                        span,
                    };
                } else {
                    let span = e.span().merge(self.prev_span());
                    e = Expr::Field {
                        base: Box::new(e),
                        field: name.to_string(),
                        span,
                    };
                }
            } else {
                let index = self.expr();
                self.expect(TokenKind::RBracket);
                let span = e.span().merge(self.prev_span());
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                    span,
                };
            }
        }
        self.depth = depth;
        e
    }

    fn args(&mut self) -> Vec<Expr> {
        self.expect(TokenKind::LParen);
        let mut args = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                args.push(self.expr());
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen);
        args
    }

    fn primary_expr(&mut self) -> Expr {
        let span = self.span();
        let token = self.tokens[self.pos];
        match token.kind {
            TokenKind::IntLit => {
                self.bump();
                Expr::IntLit {
                    value: token.int_value(self.src),
                    span,
                }
            }
            TokenKind::FloatLit => {
                self.bump();
                Expr::FloatLit {
                    value: token.float_value(self.src),
                    span,
                }
            }
            TokenKind::True => {
                self.bump();
                Expr::BoolLit { value: true, span }
            }
            TokenKind::False => {
                self.bump();
                Expr::BoolLit { value: false, span }
            }
            TokenKind::StrLit => {
                self.bump();
                Expr::StrLit {
                    value: token.str_value(self.src).into_owned(),
                    span,
                }
            }
            TokenKind::Null => {
                self.bump();
                Expr::Null { span }
            }
            TokenKind::This => {
                self.bump();
                Expr::This { span }
            }
            TokenKind::New => self.new_expr(span),
            TokenKind::Ident => {
                self.bump();
                let name = token.text(self.src).to_string();
                if self.at(TokenKind::LParen) {
                    let args = self.args();
                    Expr::Call(Box::new(CallExpr {
                        recv: None,
                        class_recv: None,
                        name,
                        args,
                        span: span.merge(self.prev_span()),
                    }))
                } else {
                    Expr::Var { name, span }
                }
            }
            TokenKind::LParen => self
                .nested(|p| {
                    p.bump();
                    let e = p.binary_expr(0);
                    p.expect(TokenKind::RParen);
                    e
                })
                .unwrap_or(Expr::Null { span }),
            _ => {
                self.unexpected(&"expression");
                self.bump();
                Expr::Null { span }
            }
        }
    }

    /// `new C()` or `new T[len]…`, `new` current. Out of line for the
    /// reason `stmt`'s compound statements are.
    #[inline(never)]
    fn new_expr(&mut self, span: Span) -> Expr {
        self.bump();
        let ty = if self.at(TokenKind::Void) {
            None
        } else {
            self.base_ty()
        };
        let Some(ty) = ty else {
            self.unexpected(&"type after `new`");
            return Expr::Null { span };
        };
        if self.at(TokenKind::LBracket) {
            self.bump();
            let len = self.expr();
            self.expect(TokenKind::RBracket);
            // `new int[n][]`-style jagged arrays: extra bracket
            // pairs raise the element type.
            let elem = self.array_dims(ty);
            let span = span.merge(self.prev_span());
            Expr::NewArray {
                elem,
                len: Box::new(len),
                span,
            }
        } else {
            self.expect(TokenKind::LParen);
            self.expect(TokenKind::RParen);
            let class = match ty {
                Type::Class(c) => c,
                other => {
                    self.error(Diag::parse(
                        format!("cannot `new` non-class type `{other}`"),
                        span,
                    ));
                    "<error>".to_string()
                }
            };
            Expr::New {
                class,
                span: span.merge(self.prev_span()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        let mut d = Diagnostics::new();
        let p = parse_program(src, &mut d);
        assert!(!d.has_errors(), "unexpected parse errors: {d}");
        p
    }

    #[test]
    fn parses_empty_class() {
        let p = parse_ok("class A {}");
        assert_eq!(p.classes.len(), 1);
        assert_eq!(p.classes[0].name, "A");
    }

    #[test]
    fn parses_fields_and_methods() {
        let p = parse_ok(
            "class A { int x; float y = 1.5; void run() { x = 3; } int get() { return x; } }",
        );
        let c = &p.classes[0];
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.methods.len(), 2);
        assert!(c.fields[1].init.is_some());
    }

    #[test]
    fn parses_annotations() {
        let p = parse_ok(
            r#"@LATTICE("DIR<TMP,TMP<BIN")
               class WDSensor {
                 @LOC("BIN") WindRec bin;
                 @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
                 void windDirection() { }
               }"#,
        );
        let c = &p.classes[0];
        let lat = c.annots.lattice.as_ref().expect("class lattice");
        assert_eq!(lat.orders.len(), 2);
        assert!(c.fields[0].annots.loc.is_some());
        let m = &c.methods[0];
        assert_eq!(m.annots.this_loc.as_deref(), Some("WDOBJ"));
    }

    #[test]
    fn parses_event_loop_label() {
        let p = parse_ok("class A { void run() { SSJAVA: while(true) { int x = 1; } } }");
        let m = &p.classes[0].methods[0];
        match &m.body.stmts[0] {
            Stmt::While { kind, .. } => assert_eq!(*kind, LoopKind::EventLoop),
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn parses_terminate_and_maxloop_labels() {
        let p = parse_ok(
            "class A { void run() { TERMINATE_scan: while(x) {} MAXLOOP_100: for(int i=0;i<5;i++) {} } }",
        );
        let m = &p.classes[0].methods[0];
        match &m.body.stmts[0] {
            Stmt::While { kind, .. } => assert_eq!(*kind, LoopKind::Trusted("scan".into())),
            other => panic!("{other:?}"),
        }
        match &m.body.stmts[1] {
            Stmt::For { kind, .. } => assert_eq!(*kind, LoopKind::MaxLoop(100)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn desugars_compound_assignment() {
        let p = parse_ok("class A { void f() { int i = 0; i += 2; i++; } }");
        let m = &p.classes[0].methods[0];
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::Assign {
                rhs: Expr::Binary { op: BinOp::Add, .. },
                ..
            }
        ));
        assert!(matches!(
            &m.body.stmts[2],
            Stmt::Assign {
                rhs: Expr::Binary { op: BinOp::Add, .. },
                ..
            }
        ));
    }

    #[test]
    fn parses_precedence() {
        let p = parse_ok("class A { void f() { int x = 1 + 2 * 3; boolean b = x < 4 && x > 0; } }");
        let m = &p.classes[0].methods[0];
        let Stmt::VarDecl { init: Some(e), .. } = &m.body.stmts[0] else {
            panic!()
        };
        // 1 + (2*3)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("expected add at root, got {e:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_arrays() {
        let p = parse_ok(
            "class A { int[] data; void f() { data = new int[10]; data[0] = 1; int n = data.length; } }",
        );
        let m = &p.classes[0].methods[0];
        assert!(matches!(
            &m.body.stmts[0],
            Stmt::Assign {
                rhs: Expr::NewArray { .. },
                ..
            }
        ));
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::Assign {
                lhs: LValue::Index { .. },
                ..
            }
        ));
        let Stmt::VarDecl {
            init: Some(Expr::Length { .. }),
            ..
        } = &m.body.stmts[2]
        else {
            panic!()
        };
    }

    #[test]
    fn parses_calls_and_news() {
        let p = parse_ok(
            "class A { B b; void f() { b = new B(); b.go(1, 2); go(); } } class B { void go(int x, int y) {} }",
        );
        let m = &p.classes[0].methods[0];
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::ExprStmt {
                expr: Expr::Call(call),
                ..
            } if call.recv.is_some()
        ));
        assert!(matches!(
            &m.body.stmts[2],
            Stmt::ExprStmt {
                expr: Expr::Call(call),
                ..
            } if call.recv.is_none()
        ));
    }

    #[test]
    fn resolves_static_class_references() {
        let p = parse_ok("class A { void f() { int x = Device.readSensor(); Out.emit(x); } }");
        let m = &p.classes[0].methods[0];
        let Stmt::VarDecl {
            init: Some(Expr::Call(call)),
            ..
        } = &m.body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(call.class_recv.as_deref(), Some("Device"));
    }

    #[test]
    fn parses_casts() {
        let p = parse_ok("class A { void f() { float y = 2.5; int x = (int) y; } }");
        let m = &p.classes[0].methods[0];
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::VarDecl {
                init: Some(Expr::Cast { ty: Type::Int, .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse_ok(
            "class A { void f(int x) { if (x > 0) x = 1; else if (x < 0) x = 2; else x = 3; } }",
        );
        let m = &p.classes[0].methods[0];
        let Stmt::If {
            else_blk: Some(b), ..
        } = &m.body.stmts[0]
        else {
            panic!()
        };
        assert!(matches!(&b.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn reports_errors_but_recovers() {
        let mut d = Diagnostics::new();
        let p = parse_program("class A { int x = ; } class B {}", &mut d);
        assert!(d.has_errors());
        assert_eq!(p.classes.len(), 2);
    }

    /// A method whose deepest node sits `levels` nesting levels down,
    /// in `shape`, and the byte offset of the token that opens its
    /// deepest level.
    fn nested(shape: &str, levels: u32) -> (String, usize) {
        // How deep the method body and the statement around the shape
        // reach before it, and the shape's repeated text.
        let (outer, open, inner, close) = match shape {
            "parens" => (2, "(", "1", ")"),
            "blocks" => (1, "{ ", "", "} "),
            "ifs" => (1, "if (b) ", ";", ""),
            "chain" => (2, "1 + ", "1", ""),
            "unary" => (2, "- ", "1", ""),
            "calls" => (2, "f(", "1", ")"),
            "postfix" => (2, "", "a", ".g"),
            "array" => (1, "", "", "[]"),
            _ => unreachable!(),
        };
        let n = (levels - outer) as usize;
        let head = match shape {
            "parens" | "chain" | "unary" | "calls" | "postfix" => "int x = ",
            "array" => "int",
            _ => "",
        };
        let tail = match shape {
            "array" => " y;",
            "blocks" | "ifs" => "",
            _ => ";",
        };
        let src = format!(
            "class A {{ void m() {{ {head}{}{inner}{}{tail} }} }}",
            open.repeat(n),
            close.repeat(n)
        );
        let first = "class A { void m() { ".len() + head.len();
        // A chain's operators open its levels, each after the first term;
        // a postfix chain's and an array type's do so after their base.
        // The last `if` reaches its deepest level first in its condition,
        // and the last call in its argument.
        let deepest = match shape {
            "chain" => first + (n - 1) * open.len() + 2,
            "ifs" => first + (n - 1) * open.len() + "if (".len(),
            "calls" => first + n * open.len(),
            "postfix" | "array" => first + inner.len() + (n - 1) * close.len(),
            _ => first + (n - 1) * open.len(),
        };
        (src, deepest)
    }

    const SHAPES: [&str; 8] = [
        "parens", "blocks", "ifs", "chain", "unary", "calls", "postfix", "array",
    ];

    #[test]
    fn nesting_up_to_the_limit_parses() {
        for shape in SHAPES {
            let (src, _) = nested(shape, MAX_NESTING);
            let mut d = Diagnostics::new();
            parse_program(&src, &mut d);
            assert!(!d.has_errors(), "{shape}: {d}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_one_report_at_the_token_that_crosses_it() {
        for shape in SHAPES {
            let (src, at) = nested(shape, MAX_NESTING + 1);
            let mut d = Diagnostics::new();
            parse_program(&src, &mut d);
            let found: Vec<_> = d
                .iter()
                .map(|x| (x.code, &x.message, x.span.start))
                .collect();
            assert_eq!(
                found,
                [(
                    crate::Code::Parse,
                    &format!("nesting exceeds the limit of {MAX_NESTING} levels"),
                    at as u32
                )],
                "{shape}"
            );
        }
    }

    #[test]
    fn far_too_deep_input_is_one_report() {
        // Each would overflow the stack of a recursive pass unbounded.
        for src in [
            format!(
                "class A {{ int x = {}1{}; }}",
                "(".repeat(100_000),
                ")".repeat(100_000)
            ),
            format!("class A {{ int x = 1{}; }}", " + 1".repeat(100_000)),
            format!("class A {{ void m() {{ {} }} }}", "{".repeat(100_000)),
            format!("class A {{ int{} x; }}", "[]".repeat(100_000)),
        ] {
            let mut d = Diagnostics::new();
            parse_program(&src, &mut d);
            assert_eq!(d.len(), 1, "{d}");
        }
    }

    #[test]
    fn parses_delta_annotation() {
        let p = parse_ok(r#"class A { void f() { @DELTA("THIS,F") int x = 0; x = x; } }"#);
        let Stmt::VarDecl { annots, .. } = &p.classes[0].methods[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(annots.loc.as_ref().expect("loc").delta, 1);
    }
}
