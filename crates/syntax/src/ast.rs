//! Abstract syntax tree of the SJava dialect.
//!
//! The dialect is the subset of Java that the paper's rules cover: classes
//! with fields and methods, primitive/array/reference types, structured
//! control flow, and the SJava annotations of Fig 3.3. Every node carries a
//! [`Span`] for diagnostics.

use crate::annot::{ClassAnnots, MethodAnnots, VarAnnots};
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A whole program: a set of classes.
#[derive(Default)]
pub struct Program {
    /// All class declarations, in source order.
    pub classes: Vec<ClassDecl>,
    /// Lazily-built class-name → index map. Valid only while `classes`
    /// keeps its names and order; passes that restructure the class list
    /// must build a fresh `Program` (cloning resets the index).
    class_index: OnceLock<HashMap<String, usize>>,
}

impl Clone for Program {
    fn clone(&self) -> Self {
        Program::new(self.classes.clone())
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("classes", &self.classes)
            .finish()
    }
}

impl Program {
    /// Builds a program from its class list.
    pub fn new(classes: Vec<ClassDecl>) -> Self {
        Program {
            classes,
            class_index: OnceLock::new(),
        }
    }

    /// Looks up a class by name. O(1) after the first lookup; on duplicate
    /// class names the first declaration wins, matching a linear scan.
    ///
    /// Inside a [`crate::track::ReadScope`] this records a whole-interface
    /// dependency on the class; callers that consult only a slice of the
    /// class and record a finer-grained key themselves should use
    /// [`Program::class_untracked`].
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        crate::track::record_iface(name);
        self.class_untracked(name)
    }

    /// [`Program::class`] without dependency recording, for callers that
    /// read only part of the class and record a finer-grained
    /// [`crate::track::DepKey`] of their own (field/method resolution,
    /// lattice-declaration reads).
    pub fn class_untracked(&self, name: &str) -> Option<&ClassDecl> {
        self.class_position(name).map(|i| &self.classes[i])
    }

    /// The index in [`Program::classes`] of the class
    /// [`Program::class_untracked`] finds, for callers that keep data
    /// beside each class. Records no dependency.
    pub fn class_position(&self, name: &str) -> Option<usize> {
        let idx = self.class_index.get_or_init(|| {
            let mut m = HashMap::with_capacity(self.classes.len());
            for (i, c) in self.classes.iter().enumerate() {
                m.entry(c.name.clone()).or_insert(i);
            }
            m
        });
        idx.get(name).copied()
    }

    /// Looks up a method by `(class, method)` name pair. Records a
    /// `Resolve` dependency: any change to the resolution's outcome also
    /// changes the chain-walk fingerprint, since the walk visits `class`
    /// first.
    pub fn method(&self, class: &str, method: &str) -> Option<&MethodDecl> {
        crate::track::record_resolve(class, method);
        self.class_untracked(class)?
            .methods
            .iter()
            .find(|m| m.name == method)
    }

    /// Looks up a field, searching the inheritance chain. Records a
    /// `Field` dependency covering the whole resolution.
    pub fn field(&self, class: &str, field: &str) -> Option<&FieldDecl> {
        crate::track::record_field(class, field);
        let mut cur = self.class_untracked(class);
        while let Some(c) = cur {
            if let Some(f) = c.fields.iter().find(|f| f.name == field) {
                return Some(f);
            }
            cur = c
                .superclass
                .as_deref()
                .and_then(|s| self.class_untracked(s));
        }
        None
    }

    /// Resolves a method including inherited ones; returns the class that
    /// declares it together with the declaration. Records a `Resolve`
    /// dependency covering the whole resolution.
    pub fn resolve_method(&self, class: &str, method: &str) -> Option<(&ClassDecl, &MethodDecl)> {
        crate::track::record_resolve(class, method);
        let mut cur = self.class_untracked(class);
        while let Some(c) = cur {
            if let Some(m) = c.methods.iter().find(|m| m.name == method) {
                return Some((c, m));
            }
            cur = c
                .superclass
                .as_deref()
                .and_then(|s| self.class_untracked(s));
        }
        None
    }
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Optional superclass name.
    pub superclass: Option<String>,
    /// SJava annotations on the class.
    pub annots: ClassAnnots,
    /// Field declarations.
    pub fields: Vec<FieldDecl>,
    /// Method declarations.
    pub methods: Vec<MethodDecl>,
    /// Source span of the declaration header.
    pub span: Span,
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// SJava annotations on the field (`@LOC`).
    pub annots: VarAnnots,
    /// `static` modifier.
    pub is_static: bool,
    /// `final` modifier.
    pub is_final: bool,
    /// Declared Java type.
    pub ty: Type,
    /// Field name.
    pub name: String,
    /// Optional initializer expression.
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// SJava annotations on the method.
    pub annots: MethodAnnots,
    /// `static` modifier.
    pub is_static: bool,
    /// Return type.
    pub ret: Type,
    /// Method name.
    pub name: String,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source span of the header.
    pub span: Span,
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// SJava annotations (`@LOC`, `@DELEGATE`).
    pub annots: VarAnnots,
    /// Declared type.
    pub ty: Type,
    /// Parameter name.
    pub name: String,
    /// Source span.
    pub span: Span,
}

/// Java types of the dialect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `int` (also `long`, `short`, `byte`, `char`).
    Int,
    /// `float` (also `double`).
    Float,
    /// `boolean`.
    Boolean,
    /// `String`.
    Str,
    /// `void` (return type only).
    Void,
    /// A class reference type.
    Class(String),
    /// An array type.
    Array(Box<Type>),
}

impl Type {
    /// Whether the type is a reference (class or array) type.
    pub fn is_reference(&self) -> bool {
        matches!(self, Type::Class(_) | Type::Array(_))
    }

    /// The element type if this is an array.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Array(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Float => write!(f, "float"),
            Type::Boolean => write!(f, "boolean"),
            Type::Str => write!(f, "String"),
            Type::Void => write!(f, "void"),
            Type::Class(c) => write!(f, "{c}"),
            Type::Array(e) => write!(f, "{e}[]"),
        }
    }
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// Loop classification from its Java-style label (§2.2.3, §4.3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopKind {
    /// An ordinary unlabeled loop: must pass the termination analysis.
    Plain,
    /// `SSJAVA:` — the main event loop.
    EventLoop,
    /// `TERMINATE_x:` — developer-checked termination, trusted.
    Trusted(String),
    /// `MAXLOOP_n:` — compiler enforces an iteration bound of `n`.
    MaxLoop(u64),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration, possibly with an initializer.
    VarDecl {
        /// `@LOC` annotation, if any.
        annots: VarAnnots,
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
        /// Span.
        span: Span,
    },
    /// Assignment to a variable, field, or array element.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Assigned value.
        rhs: Expr,
        /// Span.
        span: Span,
    },
    /// `if (cond) then else`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Then-block.
        then_blk: Block,
        /// Optional else-block.
        else_blk: Option<Block>,
        /// Span.
        span: Span,
    },
    /// `while (cond) body`, possibly labeled.
    While {
        /// Loop classification from its label.
        kind: LoopKind,
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `for (init; cond; update) body`, possibly labeled.
    For {
        /// Loop classification from its label.
        kind: LoopKind,
        /// Initializer statement.
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Expr>,
        /// Update statement.
        update: Option<Box<Stmt>>,
        /// Body.
        body: Block,
        /// Span.
        span: Span,
    },
    /// `return expr;`.
    Return {
        /// Optional return value.
        value: Option<Expr>,
        /// Span.
        span: Span,
    },
    /// `break;`
    Break {
        /// Span.
        span: Span,
    },
    /// `continue;`
    Continue {
        /// Span.
        span: Span,
    },
    /// An expression evaluated for effect (a call).
    ExprStmt {
        /// The expression.
        expr: Expr,
        /// Span.
        span: Span,
    },
    /// A nested block.
    Block(Block),
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::VarDecl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break { span }
            | Stmt::Continue { span }
            | Stmt::ExprStmt { span, .. } => *span,
            Stmt::Block(b) => b.span,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var {
        /// Variable name.
        name: String,
        /// Span.
        span: Span,
    },
    /// A field of an object: `base.field`.
    Field {
        /// Receiver expression. Boxed, as are both expressions of
        /// [`LValue::Index`], so that a target costs what a variable
        /// target costs, and a statement what its common kinds cost.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Span.
        span: Span,
    },
    /// An array element: `base[index]`.
    Index {
        /// Array expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A static field: `Class.field`.
    StaticField {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
        /// Span.
        span: Span,
    },
}

impl LValue {
    /// The source span of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var { span, .. }
            | LValue::Field { span, .. }
            | LValue::Index { span, .. }
            | LValue::StaticField { span, .. } => *span,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinOp {
    /// Whether this operator yields a boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit {
        /// Value.
        value: i64,
        /// Span.
        span: Span,
    },
    /// Float literal.
    FloatLit {
        /// Value.
        value: f64,
        /// Span.
        span: Span,
    },
    /// Boolean literal.
    BoolLit {
        /// Value.
        value: bool,
        /// Span.
        span: Span,
    },
    /// String literal.
    StrLit {
        /// Value.
        value: String,
        /// Span.
        span: Span,
    },
    /// `null`.
    Null {
        /// Span.
        span: Span,
    },
    /// `this`.
    This {
        /// Span.
        span: Span,
    },
    /// A variable reference.
    Var {
        /// Name.
        name: String,
        /// Span.
        span: Span,
    },
    /// Field access `base.field`.
    Field {
        /// Receiver.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// Span.
        span: Span,
    },
    /// Static field access `Class.field`.
    StaticField {
        /// Class name.
        class: String,
        /// Field name.
        field: String,
        /// Span.
        span: Span,
    },
    /// Array indexing `base[index]`.
    Index {
        /// Array expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// Array length `base.length`.
    Length {
        /// Array expression.
        base: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A method call. Boxed: the largest variant, it would otherwise set
    /// the size of every expression, and calls are a small share of them.
    Call(Box<CallExpr>),
    /// Object allocation `new C()`.
    New {
        /// Class name.
        class: String,
        /// Span.
        span: Span,
    },
    /// Array allocation `new T[len]`.
    NewArray {
        /// Element type.
        elem: Type,
        /// Length expression.
        len: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Span.
        span: Span,
    },
    /// A primitive cast `(int) e` / `(float) e`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        operand: Box<Expr>,
        /// Span.
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit { span, .. }
            | Expr::FloatLit { span, .. }
            | Expr::BoolLit { span, .. }
            | Expr::StrLit { span, .. }
            | Expr::Null { span }
            | Expr::This { span }
            | Expr::Var { span, .. }
            | Expr::Field { span, .. }
            | Expr::StaticField { span, .. }
            | Expr::Index { span, .. }
            | Expr::Length { span, .. }
            | Expr::New { span, .. }
            | Expr::NewArray { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Cast { span, .. } => *span,
            Expr::Call(call) => call.span,
        }
    }

    /// Whether the expression is a compile-time literal.
    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            Expr::IntLit { .. }
                | Expr::FloatLit { .. }
                | Expr::BoolLit { .. }
                | Expr::StrLit { .. }
                | Expr::Null { .. }
        )
    }
}

/// A method call: `m(...)`, `e.m(...)` or `Class.m(...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CallExpr {
    /// Explicit receiver expression (`e.m(...)`); `None` for an
    /// unqualified call on `this` and for a static call.
    pub recv: Option<Box<Expr>>,
    /// Static receiver class (`Class.m(...)`).
    pub class_recv: Option<String>,
    /// Method name.
    pub name: String,
    /// Arguments.
    pub args: Vec<Expr>,
    /// Span.
    pub span: Span,
}

/// Names of the built-in intrinsic classes understood by the runtime and
/// trusted by the checker.
pub const INTRINSIC_CLASSES: &[&str] = &["Device", "Out", "Math", "SSJavaArray", "System"];

/// Whether `name` is an intrinsic class.
pub fn is_intrinsic_class(name: &str) -> bool {
    INTRINSIC_CLASSES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;
    use std::mem::size_of;

    /// Upper bounds on the sizes of the front end's most numerous nodes.
    /// An enum is as large as its largest variant, and every statement of
    /// every block, every boxed operand and every token pays that size,
    /// so a field that regrows a rare variant costs memory and time on
    /// every pass over the AST. Box such a field rather than raise a
    /// bound.
    #[test]
    fn node_sizes_stay_bounded() {
        assert!(size_of::<Token>() <= 12, "Token: {}", size_of::<Token>());
        assert!(size_of::<LValue>() <= 56, "LValue: {}", size_of::<LValue>());
        assert!(size_of::<Expr>() <= 56, "Expr: {}", size_of::<Expr>());
        assert!(size_of::<Stmt>() <= 152, "Stmt: {}", size_of::<Stmt>());
    }
}
