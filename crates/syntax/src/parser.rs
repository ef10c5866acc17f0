//! Recursive-descent parser for the SJava dialect.

use crate::annot::{
    parse_composite_loc, parse_lattice_decl, ClassAnnots, MethodAnnots, RawAnnot, VarAnnots,
};
use crate::ast::*;
use crate::diag::{Diag, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

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
    let mut p = Parser {
        tokens,
        pos: 0,
        diags,
    };
    let program = p.program();
    crate::resolve::resolve_statics(program)
}

/// Parses one compilation unit's token stream (a run of top-level class
/// declarations ending in `Eof`) without the whole-program static
/// resolution pass. The parallel front-end merges unit class lists in
/// source order and resolves once over the merged program.
pub(crate) fn parse_unit(tokens: Vec<Token>, diags: &mut Diagnostics) -> Vec<ClassDecl> {
    let mut p = Parser {
        tokens,
        pos: 0,
        diags,
    };
    p.program().classes
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    diags: &'a mut Diagnostics,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> bool {
        if self.eat(kind) {
            true
        } else {
            self.diags.push(Diag::parse(
                format!("expected `{kind}`, found `{}`", self.peek()),
                self.span(),
            ));
            false
        }
    }

    fn expect_ident(&mut self) -> String {
        if let TokenKind::Ident(name) = self.peek().clone() {
            self.bump();
            name
        } else {
            self.diags.push(Diag::parse(
                format!("expected identifier, found `{}`", self.peek()),
                self.span(),
            ));
            String::from("<error>")
        }
    }

    // ---- top level -------------------------------------------------------

    fn program(&mut self) -> Program {
        let mut classes = Vec::new();
        while !self.at(&TokenKind::Eof) {
            let annots = self.raw_annots();
            if self.at(&TokenKind::Class) || matches!(self.peek(), TokenKind::Visibility(_)) {
                while matches!(self.peek(), TokenKind::Visibility(_)) {
                    self.bump();
                }
                if let Some(c) = self.class_decl(annots) {
                    classes.push(c);
                }
            } else {
                self.diags.push(Diag::parse(
                    format!("expected class declaration, found `{}`", self.peek()),
                    self.span(),
                ));
                self.bump();
            }
        }
        Program::new(classes)
    }

    fn raw_annots(&mut self) -> Vec<RawAnnot> {
        let mut out = Vec::new();
        while let TokenKind::AtIdent(name) = self.peek().clone() {
            let start = self.span();
            self.bump();
            let mut payload = None;
            if self.eat(&TokenKind::LParen) {
                if let TokenKind::StrLit(s) = self.peek().clone() {
                    self.bump();
                    payload = Some(s);
                } else if !self.at(&TokenKind::RParen) {
                    self.diags.push(Diag::annot(
                        "annotation payload must be a string literal",
                        self.span(),
                    ));
                    // skip to closing paren
                    while !self.at(&TokenKind::RParen) && !self.at(&TokenKind::Eof) {
                        self.bump();
                    }
                }
                self.expect(&TokenKind::RParen);
            }
            out.push(RawAnnot {
                name,
                payload,
                span: start.merge(self.prev_span()),
            });
        }
        out
    }

    fn class_annots(&mut self, raw: Vec<RawAnnot>) -> ClassAnnots {
        let mut ca = ClassAnnots::default();
        for a in raw {
            match a.name.as_str() {
                "LATTICE" => {
                    let payload = a.payload.unwrap_or_default();
                    ca.lattice = Some(parse_lattice_decl(&payload, a.span, self.diags));
                }
                "METHODDEFAULT" => {
                    let payload = a.payload.unwrap_or_default();
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.lattice = Some(parse_lattice_decl(&payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "THISLOC" => {
                    // class-wide default THISLOC complements @METHODDEFAULT
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.this_loc = a.payload;
                    ca.method_default = Some(ma);
                }
                "GLOBALLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    ma.global_loc = a.payload;
                    ca.method_default = Some(ma);
                }
                "RETURNLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    let payload = a.payload.unwrap_or_default();
                    ma.return_loc = Some(parse_composite_loc(&payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "PCLOC" => {
                    let mut ma = ca.method_default.take().unwrap_or_default();
                    let payload = a.payload.unwrap_or_default();
                    ma.pc_loc = Some(parse_composite_loc(&payload, a.span, self.diags));
                    ca.method_default = Some(ma);
                }
                "TRUSTED" => ca.trusted = true,
                other => {
                    self.diags.push(Diag::annot(
                        format!("unknown class annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        ca
    }

    fn method_annots(&mut self, raw: Vec<RawAnnot>) -> MethodAnnots {
        let mut ma = MethodAnnots::default();
        for a in raw {
            match a.name.as_str() {
                "LATTICE" => {
                    let payload = a.payload.unwrap_or_default();
                    ma.lattice = Some(parse_lattice_decl(&payload, a.span, self.diags));
                }
                "THISLOC" => ma.this_loc = a.payload,
                "GLOBALLOC" => ma.global_loc = a.payload,
                "RETURNLOC" => {
                    let payload = a.payload.unwrap_or_default();
                    ma.return_loc = Some(parse_composite_loc(&payload, a.span, self.diags));
                }
                "PCLOC" => {
                    let payload = a.payload.unwrap_or_default();
                    ma.pc_loc = Some(parse_composite_loc(&payload, a.span, self.diags));
                }
                "TRUSTED" => ma.trusted = true,
                other => {
                    self.diags.push(Diag::annot(
                        format!("unknown method annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        ma
    }

    fn var_annots(&mut self, raw: Vec<RawAnnot>) -> VarAnnots {
        let mut va = VarAnnots::default();
        for a in raw {
            match a.name.as_str() {
                "LOC" => {
                    let payload = a.payload.unwrap_or_default();
                    va.loc = Some(parse_composite_loc(&payload, a.span, self.diags));
                }
                "DELTA" => {
                    let payload = a.payload.unwrap_or_default();
                    let mut c = parse_composite_loc(&payload, a.span, self.diags);
                    c.delta += 1;
                    va.loc = Some(c);
                }
                "DELEGATE" => va.delegate = true,
                other => {
                    self.diags.push(Diag::annot(
                        format!("unknown variable annotation `@{other}`"),
                        a.span,
                    ));
                }
            }
        }
        va
    }

    fn class_decl(&mut self, raw: Vec<RawAnnot>) -> Option<ClassDecl> {
        let annots = self.class_annots(raw);
        let start = self.span();
        if !self.expect(&TokenKind::Class) {
            return None;
        }
        let name = self.expect_ident();
        let superclass = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident())
        } else {
            None
        };
        let header_span = start.merge(self.prev_span());
        self.expect(&TokenKind::LBrace);
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            self.member(&mut fields, &mut methods);
        }
        self.expect(&TokenKind::RBrace);
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
                TokenKind::Visibility(_) => {
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
        if self.at(&TokenKind::LParen) {
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
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr())
            } else {
                None
            };
            let span = start.merge(self.prev_span());
            self.expect(&TokenKind::Semi);
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
        self.eat(&TokenKind::Semi);
    }

    fn params(&mut self) -> Vec<Param> {
        self.expect(&TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
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
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen);
        params
    }

    fn ty(&mut self) -> Option<Type> {
        let base = match self.peek().clone() {
            TokenKind::Int => {
                self.bump();
                Type::Int
            }
            TokenKind::Float => {
                self.bump();
                Type::Float
            }
            TokenKind::Boolean => {
                self.bump();
                Type::Boolean
            }
            TokenKind::StringTy => {
                self.bump();
                Type::Str
            }
            TokenKind::Void => {
                self.bump();
                Type::Void
            }
            TokenKind::Ident(name) => {
                self.bump();
                Type::Class(name)
            }
            other => {
                self.diags.push(Diag::parse(
                    format!("expected type, found `{other}`"),
                    self.span(),
                ));
                return None;
            }
        };
        let mut ty = base;
        while self.at(&TokenKind::LBracket) && self.peek_at(1) == &TokenKind::RBracket {
            self.bump();
            self.bump();
            ty = Type::Array(Box::new(ty));
        }
        Some(ty)
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Block {
        let start = self.span();
        self.expect(&TokenKind::LBrace);
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            if let Some(s) = self.stmt() {
                stmts.push(s);
            }
            if self.pos == before {
                self.bump(); // guarantee progress
            }
        }
        self.expect(&TokenKind::RBrace);
        // A block's statements are final once it closes; doubling growth
        // would otherwise leave ~40% of every statement vector unused
        // for as long as the AST lives.
        stmts.shrink_to_fit();
        Block {
            stmts,
            span: start.merge(self.prev_span()),
        }
    }

    fn loop_label(&mut self) -> Option<LoopKind> {
        // `IDENT :` followed by while/for is a loop label.
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.peek_at(1) == &TokenKind::Colon
                && matches!(self.peek_at(2), TokenKind::While | TokenKind::For)
            {
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
                self.diags
                    .push(Diag::parse(format!("unknown loop label `{name}`"), span));
                return Some(LoopKind::Plain);
            }
        }
        None
    }

    fn stmt(&mut self) -> Option<Stmt> {
        let label = self.loop_label();
        let start = self.span();
        match self.peek().clone() {
            TokenKind::LBrace => Some(Stmt::Block(self.block())),
            TokenKind::If => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let cond = self.expr();
                self.expect(&TokenKind::RParen);
                let then_blk = self.stmt_as_block();
                let else_blk = if self.eat(&TokenKind::Else) {
                    Some(self.stmt_as_block())
                } else {
                    None
                };
                Some(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::While => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let cond = self.expr();
                self.expect(&TokenKind::RParen);
                let body = self.stmt_as_block();
                Some(Stmt::While {
                    kind: label.unwrap_or(LoopKind::Plain),
                    cond,
                    body,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::For => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let init = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(&TokenKind::Semi);
                let cond = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr())
                };
                self.expect(&TokenKind::Semi);
                let update = if self.at(&TokenKind::RParen) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(&TokenKind::RParen);
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
            TokenKind::Return => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr())
                };
                self.expect(&TokenKind::Semi);
                Some(Stmt::Return {
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(&TokenKind::Semi);
                Some(Stmt::Break { span: start })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(&TokenKind::Semi);
                Some(Stmt::Continue { span: start })
            }
            TokenKind::Semi => {
                self.bump();
                None
            }
            _ => {
                let s = self.simple_stmt_no_semi()?;
                self.expect(&TokenKind::Semi);
                Some(s)
            }
        }
    }

    fn stmt_as_block(&mut self) -> Block {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            let start = self.span();
            let stmts = self.stmt().into_iter().collect();
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
        if matches!(self.peek(), TokenKind::AtIdent(_)) || self.is_decl_start() {
            let raw = self.raw_annots();
            let annots = self.var_annots(raw);
            let ty = self.ty()?;
            let name = self.expect_ident();
            let init = if self.eat(&TokenKind::Assign) {
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
        match self.peek().clone() {
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
                let op = if self.at(&TokenKind::PlusPlus) {
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
        let type_start = matches!(
            self.peek(),
            TokenKind::Int | TokenKind::Float | TokenKind::Boolean | TokenKind::StringTy
        );
        if type_start {
            return true;
        }
        // `Ident ident` or `Ident[] ident` is a declaration of a class type.
        if matches!(self.peek(), TokenKind::Ident(_)) {
            match (self.peek_at(1), self.peek_at(2), self.peek_at(3)) {
                (TokenKind::Ident(_), _, _) => return true,
                (TokenKind::LBracket, TokenKind::RBracket, TokenKind::Ident(_)) => return true,
                _ => {}
            }
        }
        false
    }

    fn expr_to_lvalue(&mut self, e: Expr) -> Option<LValue> {
        match e {
            Expr::Var { name, span } => Some(LValue::Var { name, span }),
            Expr::Field { base, field, span } => Some(LValue::Field {
                base: *base,
                field,
                span,
            }),
            Expr::StaticField { class, field, span } => {
                Some(LValue::StaticField { class, field, span })
            }
            Expr::Index { base, index, span } => Some(LValue::Index {
                base: *base,
                index: *index,
                span,
            }),
            other => {
                self.diags
                    .push(Diag::parse("expression is not assignable", other.span()));
                None
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Expr {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Expr {
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
            if prec < min_prec {
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
        lhs
    }

    fn unary_expr(&mut self) -> Expr {
        let start = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.unary_expr();
                let span = start.merge(operand.span());
                Expr::Unary {
                    op: UnOp::Neg,
                    operand: Box::new(operand),
                    span,
                }
            }
            TokenKind::Bang => {
                self.bump();
                let operand = self.unary_expr();
                let span = start.merge(operand.span());
                Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(operand),
                    span,
                }
            }
            // Cast: `(int) e`, `(float) e`, `(boolean) e`.
            TokenKind::LParen
                if matches!(
                    self.peek_at(1),
                    TokenKind::Int | TokenKind::Float | TokenKind::Boolean
                ) && self.peek_at(2) == &TokenKind::RParen =>
            {
                self.bump();
                let ty = self.ty().expect("cast type");
                self.expect(&TokenKind::RParen);
                let operand = self.unary_expr();
                let span = start.merge(operand.span());
                Expr::Cast {
                    ty,
                    operand: Box::new(operand),
                    span,
                }
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Expr {
        let mut e = self.primary_expr();
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let name = self.expect_ident();
                    if self.at(&TokenKind::LParen) {
                        let args = self.args();
                        let span = e.span().merge(self.prev_span());
                        e = Expr::Call {
                            recv: Some(Box::new(e)),
                            class_recv: None,
                            name,
                            args,
                            span,
                        };
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
                            field: name,
                            span,
                        };
                    }
                }
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.expr();
                    self.expect(&TokenKind::RBracket);
                    let span = e.span().merge(self.prev_span());
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        span,
                    };
                }
                _ => break,
            }
        }
        e
    }

    fn args(&mut self) -> Vec<Expr> {
        self.expect(&TokenKind::LParen);
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr());
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen);
        args
    }

    fn primary_expr(&mut self) -> Expr {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Expr::IntLit { value: v, span }
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Expr::FloatLit { value: v, span }
            }
            TokenKind::True => {
                self.bump();
                Expr::BoolLit { value: true, span }
            }
            TokenKind::False => {
                self.bump();
                Expr::BoolLit { value: false, span }
            }
            TokenKind::StrLit(s) => {
                self.bump();
                Expr::StrLit { value: s, span }
            }
            TokenKind::Null => {
                self.bump();
                Expr::Null { span }
            }
            TokenKind::This => {
                self.bump();
                Expr::This { span }
            }
            TokenKind::New => {
                self.bump();
                let Some(ty) = self.ty_no_array() else {
                    return Expr::Null { span };
                };
                if self.at(&TokenKind::LBracket) {
                    self.bump();
                    let len = self.expr();
                    self.expect(&TokenKind::RBracket);
                    let mut elem = ty;
                    // `new int[n][]`-style jagged arrays: extra bracket
                    // pairs raise the element type.
                    while self.at(&TokenKind::LBracket) && self.peek_at(1) == &TokenKind::RBracket {
                        self.bump();
                        self.bump();
                        elem = Type::Array(Box::new(elem));
                    }
                    let span = span.merge(self.prev_span());
                    Expr::NewArray {
                        elem,
                        len: Box::new(len),
                        span,
                    }
                } else {
                    self.expect(&TokenKind::LParen);
                    self.expect(&TokenKind::RParen);
                    let class = match ty {
                        Type::Class(c) => c,
                        other => {
                            self.diags.push(Diag::parse(
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
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    let args = self.args();
                    Expr::Call {
                        recv: None,
                        class_recv: None,
                        name,
                        args,
                        span: span.merge(self.prev_span()),
                    }
                } else {
                    Expr::Var { name, span }
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr();
                self.expect(&TokenKind::RParen);
                e
            }
            other => {
                self.diags.push(Diag::parse(
                    format!("expected expression, found `{other}`"),
                    span,
                ));
                self.bump();
                Expr::Null { span }
            }
        }
    }

    fn ty_no_array(&mut self) -> Option<Type> {
        match self.peek().clone() {
            TokenKind::Int => {
                self.bump();
                Some(Type::Int)
            }
            TokenKind::Float => {
                self.bump();
                Some(Type::Float)
            }
            TokenKind::Boolean => {
                self.bump();
                Some(Type::Boolean)
            }
            TokenKind::StringTy => {
                self.bump();
                Some(Type::Str)
            }
            TokenKind::Ident(name) => {
                self.bump();
                Some(Type::Class(name))
            }
            other => {
                self.diags.push(Diag::parse(
                    format!("expected type after `new`, found `{other}`"),
                    self.span(),
                ));
                None
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
                expr: Expr::Call { recv: Some(_), .. },
                ..
            }
        ));
        assert!(matches!(
            &m.body.stmts[2],
            Stmt::ExprStmt {
                expr: Expr::Call { recv: None, .. },
                ..
            }
        ));
    }

    #[test]
    fn resolves_static_class_references() {
        let p = parse_ok("class A { void f() { int x = Device.readSensor(); Out.emit(x); } }");
        let m = &p.classes[0].methods[0];
        let Stmt::VarDecl {
            init: Some(Expr::Call { class_recv, .. }),
            ..
        } = &m.body.stmts[0]
        else {
            panic!()
        };
        assert_eq!(class_recv.as_deref(), Some("Device"));
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

    #[test]
    fn parses_delta_annotation() {
        let p = parse_ok(r#"class A { void f() { @DELTA("THIS,F") int x = 0; x = x; } }"#);
        let Stmt::VarDecl { annots, .. } = &p.classes[0].methods[0].body.stmts[0] else {
            panic!()
        };
        assert_eq!(annots.loc.as_ref().expect("loc").delta, 1);
    }
}
