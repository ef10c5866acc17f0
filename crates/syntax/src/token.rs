//! Tokens of the SJava dialect.
//!
//! A token is a kind and a span, nothing more: an identifier's name, a
//! literal's value and an annotation's name are read from the source text
//! the span covers when the parser builds the AST node that keeps them.
//! Lexing therefore allocates nothing but the token vector.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// Lexical token kinds. A kind carries no text; [`Token::text`] and the
/// value readers below take it from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    // Literals
    /// Integer literal, e.g. `42`.
    IntLit,
    /// Floating-point literal, e.g. `3.5` or `1e-3f`.
    FloatLit,
    /// String literal, quotes included in its span.
    StrLit,
    /// Identifier or unrecognized keyword.
    Ident,
    /// Annotation name with its `@`, e.g. `@LATTICE`.
    AtIdent,

    // Keywords
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `static`
    Static,
    /// `final`
    Final,
    /// `public` / `private` / `protected` (accepted, ignored)
    Visibility,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `boolean`
    Boolean,
    /// `String`
    StringTy,
    /// `void`
    Void,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `new`
    New,
    /// `this`
    This,
    /// `null`
    Null,
    /// `true`
    True,
    /// `false`
    False,

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,

    // Operators
    /// `=`
    Assign,
    /// `+=`, `-=`, `*=`, `/=` (the `char` is the operator)
    OpAssign(char),
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,

    /// End of input.
    Eof,
}

/// A kind's fixed spelling. The kinds whose text varies print what they
/// are; [`Token::describe`] prints a token as it appears in the source.
impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            IntLit => write!(f, "integer literal"),
            FloatLit => write!(f, "float literal"),
            StrLit => write!(f, "string literal"),
            Ident => write!(f, "identifier"),
            AtIdent => write!(f, "annotation"),
            Visibility => write!(f, "visibility modifier"),
            Class => write!(f, "class"),
            Extends => write!(f, "extends"),
            Static => write!(f, "static"),
            Final => write!(f, "final"),
            Int => write!(f, "int"),
            Float => write!(f, "float"),
            Boolean => write!(f, "boolean"),
            StringTy => write!(f, "String"),
            Void => write!(f, "void"),
            If => write!(f, "if"),
            Else => write!(f, "else"),
            While => write!(f, "while"),
            For => write!(f, "for"),
            Return => write!(f, "return"),
            Break => write!(f, "break"),
            Continue => write!(f, "continue"),
            New => write!(f, "new"),
            This => write!(f, "this"),
            Null => write!(f, "null"),
            True => write!(f, "true"),
            False => write!(f, "false"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            Semi => write!(f, ";"),
            Comma => write!(f, ","),
            Dot => write!(f, "."),
            Colon => write!(f, ":"),
            Assign => write!(f, "="),
            OpAssign(c) => write!(f, "{c}="),
            PlusPlus => write!(f, "++"),
            MinusMinus => write!(f, "--"),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Lt => write!(f, "<"),
            Le => write!(f, "<="),
            Gt => write!(f, ">"),
            Ge => write!(f, ">="),
            EqEq => write!(f, "=="),
            Ne => write!(f, "!="),
            AndAnd => write!(f, "&&"),
            OrOr => write!(f, "||"),
            Bang => write!(f, "!"),
            Amp => write!(f, "&"),
            Pipe => write!(f, "|"),
            Caret => write!(f, "^"),
            Shl => write!(f, "<<"),
            Shr => write!(f, ">>"),
            Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// Where the token appears in the source.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// The token's source text. `src` is the whole text the token's span
    /// indexes (spans are absolute, also for a unit lexed on its own).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.span.start as usize..self.span.end as usize]
    }

    /// The value of a [`TokenKind::IntLit`]: 0 when it is out of range,
    /// which the lexer reports.
    pub fn int_value(&self, src: &str) -> i64 {
        self.text(src).parse().unwrap_or(0)
    }

    /// The value of a [`TokenKind::FloatLit`], read without its `f`/`d`
    /// suffix.
    pub fn float_value(&self, src: &str) -> f64 {
        let text = self.text(src);
        let digits = text.strip_suffix(['f', 'F', 'd', 'D']).unwrap_or(text);
        digits.parse().unwrap_or(0.0)
    }

    /// The value of a [`TokenKind::StrLit`]: the text between its quotes,
    /// borrowed unless it holds an escape. An unknown escape, which the
    /// lexer reports, contributes nothing; an unterminated literal runs to
    /// the end of its span.
    pub fn str_value<'s>(&self, src: &'s str) -> Cow<'s, str> {
        let body = &self.text(src)[1..];
        if !body.contains('\\') {
            return Cow::Borrowed(body.strip_suffix('"').unwrap_or(body));
        }
        let mut value = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => value.extend(chars.next().and_then(crate::lexer::escape)),
                c => value.push(c),
            }
        }
        Cow::Owned(value)
    }

    /// The token as diagnostics print it: an identifier, annotation or
    /// modifier as written, a number as its value, a string literal as
    /// the `Debug` form of its value, and any other kind as its spelling.
    pub fn describe(&self, src: &str) -> String {
        match self.kind {
            TokenKind::IntLit => self.int_value(src).to_string(),
            TokenKind::FloatLit => self.float_value(src).to_string(),
            TokenKind::StrLit => format!("{:?}", self.str_value(src)),
            TokenKind::Ident | TokenKind::AtIdent | TokenKind::Visibility => {
                self.text(src).to_string()
            }
            kind => kind.to_string(),
        }
    }
}
