//! Standard Java-type resolution for the dialect.
//!
//! SJava's location type system is layered *on top of* Java types (§4.1
//! "SJava's type checking is independent from the standard Java type
//! checking"). The analyses and the location checker both need to know the
//! static Java type of expressions — e.g. the class of a receiver to
//! resolve a call, or whether a field is a reference — so this module
//! provides a small expression-type resolver.

use sjava_syntax::ast::*;

/// Resolves static Java types of expressions within one method.
#[derive(Debug)]
pub struct TypeEnv<'p> {
    /// The program being analyzed.
    pub program: &'p Program,
    /// Name of the enclosing class.
    pub class: String,
    /// Types of locals and parameters currently in scope.
    locals: Vec<(String, Type)>,
}

impl<'p> TypeEnv<'p> {
    /// Creates an environment for `method` of `class`, with parameters
    /// pre-bound.
    pub fn for_method(program: &'p Program, class: &str, method: &MethodDecl) -> Self {
        let mut env = TypeEnv {
            program,
            class: class.to_string(),
            locals: Vec::new(),
        };
        for p in &method.params {
            env.bind(&p.name, p.ty.clone());
        }
        env
    }

    /// Binds a local variable's type (shadowing allowed; latest wins).
    pub fn bind(&mut self, name: &str, ty: Type) {
        self.locals.push((name.to_string(), ty));
    }

    /// Collects *all* local declarations of a block into scope. The
    /// analyses walk bodies in one pass, so pre-binding the whole method
    /// body keeps lookup simple (the dialect forbids shadowing in
    /// practice).
    pub fn bind_block(&mut self, block: &Block) {
        for s in &block.stmts {
            match s {
                Stmt::VarDecl { ty, name, .. } => self.bind(name, ty.clone()),
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    self.bind_block(then_blk);
                    if let Some(e) = else_blk {
                        self.bind_block(e);
                    }
                }
                Stmt::While { body, .. } => self.bind_block(body),
                Stmt::For {
                    init, update, body, ..
                } => {
                    if let Some(Stmt::VarDecl { ty, name, .. }) = init.as_deref() {
                        self.bind(name, ty.clone());
                    }
                    if let Some(Stmt::VarDecl { ty, name, .. }) = update.as_deref() {
                        self.bind(name, ty.clone());
                    }
                    self.bind_block(body);
                }
                Stmt::Block(b) => self.bind_block(b),
                _ => {}
            }
        }
    }

    /// The type of a local variable or parameter.
    pub fn local(&self, name: &str) -> Option<&Type> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// The static type of `expr`, or `None` if it cannot be resolved
    /// (unknown names, intrinsics with dynamic types).
    pub fn ty(&self, expr: &Expr) -> Option<Type> {
        match expr {
            Expr::IntLit { .. } => Some(Type::Int),
            Expr::FloatLit { .. } => Some(Type::Float),
            Expr::BoolLit { .. } => Some(Type::Boolean),
            Expr::StrLit { .. } => Some(Type::Str),
            Expr::Null { .. } => None,
            Expr::This { .. } => Some(Type::Class(self.class.clone())),
            Expr::Var { name, .. } => self
                .local(name)
                .cloned()
                .or_else(|| self.program.field(&self.class, name).map(|f| f.ty.clone())),
            Expr::Field { base, field, .. } => {
                let Type::Class(c) = self.ty(base)? else {
                    return None;
                };
                self.program.field(&c, field).map(|f| f.ty.clone())
            }
            Expr::StaticField { class, field, .. } => {
                self.program.field(class, field).map(|f| f.ty.clone())
            }
            Expr::Index { base, .. } => match self.ty(base)? {
                Type::Array(e) => Some(*e),
                _ => None,
            },
            Expr::Length { .. } => Some(Type::Int),
            Expr::Call(call) => {
                let CallExpr {
                    recv,
                    class_recv,
                    name,
                    ..
                } = &**call;
                let class = match (recv, class_recv) {
                    (Some(r), _) => match self.ty(r)? {
                        Type::Class(c) => c,
                        _ => return None,
                    },
                    (None, Some(c)) => {
                        if is_intrinsic_class(c) {
                            return intrinsic_return_type(c, name);
                        }
                        c.clone()
                    }
                    (None, None) => self.class.clone(),
                };
                self.program
                    .resolve_method(&class, name)
                    .map(|(_, m)| m.ret.clone())
            }
            Expr::New { class, .. } => Some(Type::Class(class.clone())),
            Expr::NewArray { elem, .. } => Some(Type::Array(Box::new(elem.clone()))),
            Expr::Unary { op, operand, .. } => match op {
                UnOp::Not => Some(Type::Boolean),
                UnOp::Neg => self.ty(operand),
            },
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Some(Type::Boolean)
                } else {
                    match (self.ty(lhs), self.ty(rhs)) {
                        (Some(Type::Float), _) | (_, Some(Type::Float)) => Some(Type::Float),
                        (Some(Type::Str), _) | (_, Some(Type::Str)) => Some(Type::Str),
                        (a, _) => a,
                    }
                }
            }
            Expr::Cast { ty, .. } => Some(ty.clone()),
        }
    }

    /// Resolves the class whose method a call targets (`None` for
    /// intrinsics or unresolvable receivers).
    pub fn call_target_class(&self, expr: &Expr) -> Option<String> {
        let Expr::Call(call) = expr else {
            return None;
        };
        let CallExpr {
            recv, class_recv, ..
        } = &**call;
        match (recv, class_recv) {
            (Some(r), _) => match self.ty(r)? {
                Type::Class(c) => Some(c),
                _ => None,
            },
            (None, Some(c)) => {
                if is_intrinsic_class(c) {
                    None
                } else {
                    Some(c.clone())
                }
            }
            (None, None) => Some(self.class.clone()),
        }
    }
}

/// Return types of the intrinsic library calls.
pub fn intrinsic_return_type(class: &str, method: &str) -> Option<Type> {
    match (class, method) {
        // Device.* read inputs; integer by default, `readFloat`-style
        // names give floats.
        ("Device", m) => {
            if m.contains("Float") || m.contains("Temp") || m.contains("Hum") {
                Some(Type::Float)
            } else {
                Some(Type::Int)
            }
        }
        ("Out", _) => Some(Type::Void),
        ("Math", "abs" | "max" | "min" | "sqrt" | "sin" | "cos" | "tanh" | "floor" | "pow") => {
            Some(Type::Float)
        }
        ("Math", "absInt" | "maxInt" | "minInt") => Some(Type::Int),
        ("SSJavaArray", "insert" | "clear") => Some(Type::Void),
        ("System", _) => Some(Type::Void),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    #[test]
    fn resolves_expression_types() {
        let p = parse(
            "class A { int x; B b; float f() { float y = 1.0; return y + x; } }
             class B { int g() { return 1; } }",
        )
        .expect("parses");
        let m = p.method("A", "f").expect("method");
        let mut env = TypeEnv::for_method(&p, "A", m);
        env.bind_block(&m.body);
        assert_eq!(env.local("y"), Some(&Type::Float));
        // y + x is float.
        let Stmt::Return { value: Some(e), .. } = &m.body.stmts[1] else {
            panic!()
        };
        assert_eq!(env.ty(e), Some(Type::Float));
    }

    #[test]
    fn resolves_call_targets() {
        let p = parse(
            "class A { B b; void f() { b.g(); h(); Device.read(); } void h() {} }
             class B { void g() {} }",
        )
        .expect("parses");
        let m = p.method("A", "f").expect("m");
        let env = TypeEnv::for_method(&p, "A", m);
        let calls: Vec<&Expr> = m
            .body
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::ExprStmt { expr, .. } => Some(expr),
                _ => None,
            })
            .collect();
        assert_eq!(env.call_target_class(calls[0]), Some("B".to_string()));
        assert_eq!(env.call_target_class(calls[1]), Some("A".to_string()));
        assert_eq!(env.call_target_class(calls[2]), None);
    }

    #[test]
    fn array_indexing_yields_element_type() {
        let p = parse("class A { float[] d; float f() { return d[0]; } }").expect("parses");
        let m = p.method("A", "f").expect("m");
        let env = TypeEnv::for_method(&p, "A", m);
        let Stmt::Return { value: Some(e), .. } = &m.body.stmts[0] else {
            panic!()
        };
        assert_eq!(env.ty(e), Some(Type::Float));
    }

    #[test]
    fn inherited_fields_resolve() {
        let p = parse("class Base { int v; } class D extends Base { int f() { return v; } }")
            .expect("parses");
        let m = p.method("D", "f").expect("m");
        let env = TypeEnv::for_method(&p, "D", m);
        let Stmt::Return { value: Some(e), .. } = &m.body.stmts[0] else {
            panic!()
        };
        assert_eq!(env.ty(e), Some(Type::Int));
    }
}
