//! Hand-written lexer for the SJava dialect.

use crate::diag::{Diag, Diagnostics};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Tokenizes `src`, reporting lexical errors into `diags`.
///
/// The returned stream always ends with a single [`TokenKind::Eof`] token.
/// Unrecognized bytes produce an error diagnostic and are skipped, so the
/// lexer never fails outright.
pub fn lex(src: &str, diags: &mut Diagnostics) -> Vec<Token> {
    Lexer::new(src, 0).run(diags)
}

/// [`lex`] for a slice of a larger file: `base` is the byte offset of
/// `src` within that file, and every produced span (token and
/// diagnostic) is absolute — identical to what lexing the whole file
/// would have assigned to the same bytes. This is what lets the
/// parallel front-end lex compilation units independently and merge the
/// streams byte-for-byte.
pub(crate) fn lex_at(src: &str, base: u32, diags: &mut Diagnostics) -> Vec<Token> {
    Lexer::new(src, base).run(diags)
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    base: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str, base: u32) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            base,
        }
    }

    fn run(mut self, diags: &mut Diagnostics) -> Vec<Token> {
        // Code runs at ~4 bytes per token; one growth step covers denser
        // text.
        let mut out = Vec::with_capacity(self.src.len() / 3 + 1);
        loop {
            self.skip_trivia(diags);
            let start = self.pos;
            let Some(b) = self.peek() else {
                out.push(Token::new(TokenKind::Eof, self.span_from(start)));
                return out;
            };
            let kind = match b {
                b'0'..=b'9' => self.number(diags),
                b'"' => self.string(diags),
                b'@' => {
                    self.bump();
                    if self.ident_text().is_empty() {
                        diags.push(Diag::lex(
                            "expected annotation name after `@`",
                            self.span_from(start),
                        ));
                        continue;
                    }
                    TokenKind::AtIdent
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => keyword_or_ident(self.ident_text()),
                _ => match self.operator() {
                    Some(k) => k,
                    None => {
                        // Skip one full UTF-8 scalar value, not one byte.
                        let ch = self.src[self.pos..].chars().next().expect("valid utf8");
                        self.pos += ch.len_utf8();
                        diags.push(Diag::lex(
                            format!("unrecognized character `{ch}`"),
                            self.span_from(start),
                        ));
                        continue;
                    }
                },
            };
            out.push(Token::new(kind, self.span_from(start)));
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.base + start as u32, self.base + self.pos as u32)
    }

    // Comments and string literals are scanned byte by byte: no byte of
    // a multi-byte UTF-8 scalar is ASCII, so none is mistaken for `*`,
    // `/`, `"`, `\` or a newline.
    fn skip_trivia(&mut self, diags: &mut Diagnostics) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => self.bump(),
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(b) = self.peek() {
                        if b == b'*' && self.peek2() == Some(b'/') {
                            self.bump();
                            self.bump();
                            closed = true;
                            break;
                        }
                        self.bump();
                    }
                    if !closed {
                        diags.push(Diag::lex(
                            "unterminated block comment",
                            self.span_from(start),
                        ));
                    }
                }
                _ => return,
            }
        }
    }

    fn ident_text(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    /// Scans a number and checks that its value is in range; the parser
    /// reads the value from the token's text ([`Token::int_value`],
    /// [`Token::float_value`]).
    fn number(&mut self, diags: &mut Diagnostics) -> TokenKind {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = self.pos;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                is_float = true;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = &self.src[start..self.pos];
        // Java-style `f`/`F`/`d`/`D` suffix forces float.
        if matches!(self.peek(), Some(b'f' | b'F' | b'd' | b'D')) {
            self.bump();
            is_float = true;
        }
        if is_float {
            if text.parse::<f64>().is_err() {
                diags.push(Diag::lex(
                    format!("invalid float literal `{text}`"),
                    self.span_from(start),
                ));
            }
            TokenKind::FloatLit
        } else {
            if text.parse::<i64>().is_err() {
                diags.push(Diag::lex(
                    format!("integer literal `{text}` out of range"),
                    self.span_from(start),
                ));
            }
            TokenKind::IntLit
        }
    }

    /// Scans a string literal and checks its escapes; the parser reads
    /// the value from the token's text ([`Token::str_value`]).
    fn string(&mut self, diags: &mut Diagnostics) -> TokenKind {
        let start = self.pos;
        self.bump(); // opening quote
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    diags.push(Diag::lex(
                        "unterminated string literal",
                        self.span_from(start),
                    ));
                    return TokenKind::StrLit;
                }
                Some(b'"') => {
                    self.bump();
                    return TokenKind::StrLit;
                }
                Some(b'\\') => {
                    self.bump();
                    // The escaped character may be any UTF-8 scalar.
                    let esc = self.src[self.pos..].chars().next();
                    if let Some(c) = esc {
                        self.pos += c.len_utf8();
                    }
                    if esc.and_then(escape).is_none() {
                        diags.push(Diag::lex(
                            format!("unknown escape `\\{}`", esc.unwrap_or(' ')),
                            self.span_from(start),
                        ));
                    }
                }
                Some(_) => self.bump(),
            }
        }
    }

    fn operator(&mut self) -> Option<TokenKind> {
        use TokenKind::*;
        let two = |l: &mut Self, k: TokenKind| {
            l.bump();
            l.bump();
            Some(k)
        };
        let one = |l: &mut Self, k: TokenKind| {
            l.bump();
            Some(k)
        };
        match (self.peek()?, self.peek2()) {
            (b'+', Some(b'+')) => two(self, PlusPlus),
            (b'-', Some(b'-')) => two(self, MinusMinus),
            (b'+', Some(b'=')) => two(self, OpAssign('+')),
            (b'-', Some(b'=')) => two(self, OpAssign('-')),
            (b'*', Some(b'=')) => two(self, OpAssign('*')),
            (b'/', Some(b'=')) => two(self, OpAssign('/')),
            (b'<', Some(b'=')) => two(self, Le),
            (b'>', Some(b'=')) => two(self, Ge),
            (b'=', Some(b'=')) => two(self, EqEq),
            (b'!', Some(b'=')) => two(self, Ne),
            (b'&', Some(b'&')) => two(self, AndAnd),
            (b'|', Some(b'|')) => two(self, OrOr),
            (b'<', Some(b'<')) => two(self, Shl),
            (b'>', Some(b'>')) => two(self, Shr),
            (b'+', _) => one(self, Plus),
            (b'-', _) => one(self, Minus),
            (b'*', _) => one(self, Star),
            (b'/', _) => one(self, Slash),
            (b'%', _) => one(self, Percent),
            (b'<', _) => one(self, Lt),
            (b'>', _) => one(self, Gt),
            (b'=', _) => one(self, Assign),
            (b'!', _) => one(self, Bang),
            (b'&', _) => one(self, Amp),
            (b'|', _) => one(self, Pipe),
            (b'^', _) => one(self, Caret),
            (b'(', _) => one(self, LParen),
            (b')', _) => one(self, RParen),
            (b'{', _) => one(self, LBrace),
            (b'}', _) => one(self, RBrace),
            (b'[', _) => one(self, LBracket),
            (b']', _) => one(self, RBracket),
            (b';', _) => one(self, Semi),
            (b',', _) => one(self, Comma),
            (b'.', _) => one(self, Dot),
            (b':', _) => one(self, Colon),
            _ => None,
        }
    }
}

/// The character an escape `\c` stands for, or `None` for an unknown
/// escape.
pub(crate) fn escape(c: char) -> Option<char> {
    match c {
        'n' => Some('\n'),
        't' => Some('\t'),
        'r' => Some('\r'),
        '\\' => Some('\\'),
        '"' => Some('"'),
        '0' => Some('\0'),
        _ => None,
    }
}

fn keyword_or_ident(text: &str) -> TokenKind {
    use TokenKind::*;
    match text {
        "class" => Class,
        "extends" => Extends,
        "static" => Static,
        "final" => Final,
        "public" | "private" | "protected" => Visibility,
        "int" | "long" | "short" | "byte" | "char" => Int,
        "float" | "double" => Float,
        "boolean" => Boolean,
        "String" => StringTy,
        "void" => Void,
        "if" => If,
        "else" => Else,
        "while" => While,
        "for" => For,
        "return" => Return,
        "break" => Break,
        "continue" => Continue,
        "new" => New,
        "this" => This,
        "null" => Null,
        "true" => True,
        "false" => False,
        _ => Ident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `src` as (kind, source text) pairs, `Eof` left out.
    fn pairs(src: &str) -> Vec<(TokenKind, &str)> {
        let mut d = Diagnostics::new();
        let toks = lex(src, &mut d);
        assert!(!d.has_errors(), "unexpected lex errors: {d}");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::Eof));
        toks[..toks.len() - 1]
            .iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    /// The tokens of `src`, `Eof` included, and its diagnostics as
    /// (message, start, end).
    fn lexed(src: &str) -> (Vec<Token>, Vec<(String, u32, u32)>) {
        let mut d = Diagnostics::new();
        let toks = lex(src, &mut d);
        let diags = d
            .iter()
            .map(|x| {
                assert_eq!(x.code, crate::Code::Lex);
                (x.message.clone(), x.span.start, x.span.end)
            })
            .collect();
        (toks, diags)
    }

    fn diag(message: &str, start: u32, end: u32) -> (String, u32, u32) {
        (message.to_string(), start, end)
    }

    #[test]
    fn lexes_keywords_and_idents() {
        use TokenKind::*;
        assert_eq!(
            pairs("class Foo extends Bar"),
            vec![
                (Class, "class"),
                (Ident, "Foo"),
                (Extends, "extends"),
                (Ident, "Bar")
            ]
        );
        // Java's other primitive spellings lex as the dialect's two
        // numeric types, and print as them.
        let src = "public private protected long double char";
        assert_eq!(
            pairs(src),
            vec![
                (Visibility, "public"),
                (Visibility, "private"),
                (Visibility, "protected"),
                (Int, "long"),
                (Float, "double"),
                (Int, "char")
            ]
        );
        let shown: Vec<String> = lexed(src).0.iter().map(|t| t.describe(src)).collect();
        assert_eq!(
            shown,
            [
                "public",
                "private",
                "protected",
                "int",
                "float",
                "int",
                "<eof>"
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        use TokenKind::*;
        let src = "42 3.5 1e3 2.5f 7f";
        assert_eq!(
            pairs(src),
            vec![
                (IntLit, "42"),
                (FloatLit, "3.5"),
                (FloatLit, "1e3"),
                (FloatLit, "2.5f"),
                (FloatLit, "7f")
            ]
        );
        let toks = lexed(src).0;
        assert_eq!(toks[0].int_value(src), 42);
        let floats: Vec<f64> = toks[1..5].iter().map(|t| t.float_value(src)).collect();
        assert_eq!(floats, [3.5, 1000.0, 2.5, 7.0]);
    }

    #[test]
    fn lexes_negative_exponent() {
        let src = "1e-3";
        assert_eq!(pairs(src), vec![(TokenKind::FloatLit, "1e-3")]);
        assert_eq!(lexed(src).0[0].float_value(src), 0.001);
    }

    #[test]
    fn lexes_every_float_form() {
        use TokenKind::*;
        let src = "3.5 1e3 1e-3 2.5f 7f 1e 2.50f 1E+2 4d";
        assert_eq!(
            pairs(src),
            vec![
                (FloatLit, "3.5"),
                (FloatLit, "1e3"),
                (FloatLit, "1e-3"),
                (FloatLit, "2.5f"),
                (FloatLit, "7f"),
                // An exponent needs digits: `1e` is an integer and a name.
                (IntLit, "1"),
                (Ident, "e"),
                (FloatLit, "2.50f"),
                (FloatLit, "1E+2"),
                (FloatLit, "4d")
            ]
        );
        // Diagnostics print a number as its value.
        let shown: Vec<String> = lexed(src).0.iter().map(|t| t.describe(src)).collect();
        assert_eq!(
            shown,
            ["3.5", "1000", "0.001", "2.5", "7", "1", "e", "2.5", "100", "4", "<eof>"]
        );
    }

    #[test]
    fn reports_out_of_range_integers() {
        let src = "99999999999999999999 9223372036854775807 9223372036854775808";
        let (toks, diags) = lexed(src);
        let values: Vec<i64> = toks[..3].iter().map(|t| t.int_value(src)).collect();
        assert_eq!(values, [0, i64::MAX, 0]);
        assert_eq!(
            diags,
            [
                diag("integer literal `99999999999999999999` out of range", 0, 20),
                diag("integer literal `9223372036854775808` out of range", 41, 60),
            ]
        );
    }

    #[test]
    fn lexes_annotations() {
        use TokenKind::*;
        let src = "@LATTICE(\"A<B\")";
        assert_eq!(
            pairs(src),
            vec![
                (AtIdent, "@LATTICE"),
                (LParen, "("),
                (StrLit, "\"A<B\""),
                (RParen, ")")
            ]
        );
        assert_eq!(lexed(src).0[2].str_value(src), "A<B");
        // A name is any identifier-like run, digits first included.
        let (toks, diags) = lexed("@ x @1");
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(kinds, [Ident, AtIdent, Eof]);
        assert_eq!(diags, [diag("expected annotation name after `@`", 0, 1)]);
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            pairs("a<=b && c++ != --d += e"),
            vec![
                (Ident, "a"),
                (Le, "<="),
                (Ident, "b"),
                (AndAnd, "&&"),
                (Ident, "c"),
                (PlusPlus, "++"),
                (Ne, "!="),
                (MinusMinus, "--"),
                (Ident, "d"),
                (OpAssign('+'), "+="),
                (Ident, "e")
            ]
        );
    }

    #[test]
    fn skips_comments() {
        use TokenKind::*;
        assert_eq!(
            pairs("a // line\n /* block\n more */ b"),
            vec![(Ident, "a"), (Ident, "b")]
        );
    }

    #[test]
    fn string_escapes() {
        let src = r#""a\nb""#;
        assert_eq!(pairs(src), vec![(TokenKind::StrLit, src)]);
        assert_eq!(lexed(src).0[0].str_value(src), "a\nb");
    }

    #[test]
    fn resolves_every_escape() {
        let src = r#""\n" "\t" "\r" "\\" "\"" "\0""#;
        let (toks, diags) = lexed(src);
        assert!(diags.is_empty());
        let values: Vec<String> = toks[..6]
            .iter()
            .map(|t| t.str_value(src).into_owned())
            .collect();
        assert_eq!(values, ["\n", "\t", "\r", "\\", "\"", "\0"]);
        // Diagnostics print a string literal as its value's `Debug` form.
        assert_eq!(toks[4].describe(src), r#""\"""#);
    }

    #[test]
    fn reports_unknown_escapes() {
        // An unknown escape stands for nothing.
        let src = r#""a\qb""#;
        let (toks, diags) = lexed(src);
        assert_eq!(toks[0].str_value(src), "ab");
        assert_eq!(diags, [diag("unknown escape `\\q`", 0, 4)]);
        // An escaped newline continues the literal on the next line.
        let src = "\"ab\\\ncd\"";
        let (toks, diags) = lexed(src);
        assert_eq!(
            (toks[0].span.end, toks[0].str_value(src)),
            (8, "abcd".into())
        );
        assert_eq!(diags, [diag("unknown escape `\\\n`", 0, 5)]);
        // A backslash at the end of input escapes nothing.
        let src = "\"ab\\";
        let (toks, diags) = lexed(src);
        assert_eq!(toks[0].str_value(src), "ab");
        assert_eq!(
            diags,
            [
                diag("unknown escape `\\ `", 0, 4),
                diag("unterminated string literal", 0, 4),
            ]
        );
    }

    #[test]
    fn reads_non_ascii_text() {
        let src = "\"é→\" // é\n/* ü */ x";
        assert_eq!(
            pairs(src),
            vec![(TokenKind::StrLit, "\"é→\""), (TokenKind::Ident, "x")]
        );
        assert_eq!(lexed(src).0[0].str_value(src), "é→");
        // Where no token may start, the whole scalar is skipped.
        let (toks, diags) = lexed("a é b");
        assert_eq!(toks.len(), 3); // a, b, eof
        assert_eq!(diags, [diag("unrecognized character `é`", 2, 4)]);
    }

    #[test]
    fn reports_unterminated_string() {
        let src = "\"oops";
        let (toks, diags) = lexed(src);
        assert_eq!(toks[0].str_value(src), "oops");
        assert_eq!(diags, [diag("unterminated string literal", 0, 5)]);
        // A newline ends the literal too; the next line lexes on.
        let (toks, diags) = lexed("\"ab\nc");
        assert_eq!(toks.len(), 3);
        assert_eq!(diags, [diag("unterminated string literal", 0, 3)]);
    }

    #[test]
    fn reports_unterminated_block_comment() {
        let (toks, diags) = lexed("a /* abc");
        assert_eq!(toks.len(), 2); // a, eof
        assert_eq!(toks[1].span, Span::new(8, 8));
        assert_eq!(diags, [diag("unterminated block comment", 2, 8)]);
    }

    #[test]
    fn reports_bad_char() {
        let mut d = Diagnostics::new();
        let toks = lex("a # b", &mut d);
        assert!(d.has_errors());
        assert_eq!(toks.len(), 3); // a, b, eof
    }

    #[test]
    fn spans_are_accurate() {
        let mut d = Diagnostics::new();
        let toks = lex("ab cd", &mut d);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn a_unit_lexes_at_its_absolute_offset() {
        let src = "class A { } class B { int x = \"s\"; }";
        let mut d = Diagnostics::new();
        let whole = lex(src, &mut d);
        let unit = lex_at(&src[12..], 12, &mut d);
        assert!(d.is_empty());
        // The unit's tokens are the whole file's from offset 12 on, and
        // read their text from the whole file.
        assert_eq!(unit[..], whole[4..]);
        assert_eq!(unit[6].str_value(src), "s");
    }
}
