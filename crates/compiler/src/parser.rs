//! Recursive-descent parser for Kern.

use crate::ast::*;
use crate::lexer::{lex, Kw, LexError, Spanned, Tok};

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// The deepest nesting of blocks and expressions [`parse`] accepts.
///
/// The parser, the lowering and the drop of the tree all recurse once
/// per level, so without a bound a hostile source overflows the stack.
/// Every level counts: a block, an `else if`, a parenthesis or other
/// subexpression, a prefix operator, and each operand folded into a
/// left-associative chain (`a + b + c` or `a[i][j]`).
pub const MAX_NESTING: usize = 128;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Open nesting levels; see [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    /// Opens one nesting level. Levels are closed by restoring `depth`;
    /// an error ends the parse, so error paths leave them open.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.enter()?;
        let v = f(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.is_punct(p) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {:?}", self.peek()))
        }
    }

    fn at_punct(&mut self, p: &str) -> bool {
        if self.is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(v),
            other => {
                self.pos -= 1;
                self.err(format!("expected integer literal, found {other:?}"))
            }
        }
    }

    fn scalar_ty(&mut self) -> Result<Ty, ParseError> {
        match self.bump() {
            Tok::Kw(Kw::Int) => Ok(Ty::Int),
            Tok::Kw(Kw::Real) => Ok(Ty::Real),
            other => {
                self.pos -= 1;
                self.err(format!("expected `int` or `real`, found {other:?}"))
            }
        }
    }

    fn elem_ty(&mut self) -> Result<ElemTy, ParseError> {
        match self.bump() {
            Tok::Kw(Kw::Int) => Ok(ElemTy::Int),
            Tok::Kw(Kw::Real) => Ok(ElemTy::Real),
            Tok::Kw(Kw::Byte) => Ok(ElemTy::Byte),
            other => {
                self.pos -= 1;
                self.err(format!("expected `int`, `real` or `byte`, found {other:?}"))
            }
        }
    }

    fn unit(&mut self) -> Result<Unit, ParseError> {
        let mut unit = Unit::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Kw(Kw::Global) => {
                    self.bump();
                    let name = self.ident()?;
                    self.eat_punct(":")?;
                    let elem = self.elem_ty()?;
                    let (len, scalar) = if self.at_punct("[") {
                        let n = self.int_lit()?;
                        if n <= 0 {
                            return self.err("array length must be positive");
                        }
                        self.eat_punct("]")?;
                        (n as u64, false)
                    } else {
                        (1, true)
                    };
                    self.eat_punct(";")?;
                    unit.globals.push(GlobalDef {
                        name,
                        elem,
                        len,
                        scalar,
                    });
                }
                Tok::Kw(Kw::Fn) => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    self.eat_punct("(")?;
                    let mut params = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            let pname = self.ident()?;
                            self.eat_punct(":")?;
                            let ty = self.scalar_ty()?;
                            params.push(Param { name: pname, ty });
                            if self.at_punct(")") {
                                break;
                            }
                            self.eat_punct(",")?;
                        }
                    }
                    let ret = if self.at_punct("-") {
                        self.eat_punct(">")?;
                        if self.peek() == &Tok::Kw(Kw::Void) {
                            self.bump();
                            None
                        } else {
                            Some(self.scalar_ty()?)
                        }
                    } else {
                        None
                    };
                    let body = self.block()?;
                    unit.funcs.push(FnDef {
                        name,
                        params,
                        ret,
                        body,
                        line,
                    });
                }
                other => return self.err(format!("expected `fn` or `global`, found {other:?}")),
            }
        }
        Ok(unit)
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_punct("{")?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.at_punct("}") {
                if p.peek() == &Tok::Eof {
                    return p.err("unterminated block");
                }
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek().clone() {
            Tok::Kw(Kw::Var) => {
                self.bump();
                let name = self.ident()?;
                self.eat_punct(":")?;
                // Array or scalar?
                match self.peek() {
                    Tok::Kw(Kw::Byte) => {
                        let elem = self.elem_ty()?;
                        self.eat_punct("[")?;
                        let len = self.int_lit()?;
                        self.eat_punct("]")?;
                        self.eat_punct(";")?;
                        Ok(Stmt::ArrDecl {
                            name,
                            elem,
                            len: len as u64,
                        })
                    }
                    _ => {
                        let pos = self.pos;
                        let ty = self.scalar_ty()?;
                        if self.at_punct("[") {
                            let len = self.int_lit()?;
                            self.eat_punct("]")?;
                            self.eat_punct(";")?;
                            let elem = match ty {
                                Ty::Int => ElemTy::Int,
                                Ty::Real => ElemTy::Real,
                            };
                            let _ = pos;
                            Ok(Stmt::ArrDecl {
                                name,
                                elem,
                                len: len as u64,
                            })
                        } else {
                            let init = if self.at_punct("=") {
                                Some(self.expr()?)
                            } else {
                                None
                            };
                            self.eat_punct(";")?;
                            Ok(Stmt::VarDecl { name, ty, init })
                        }
                    }
                }
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.eat_punct("(")?;
                let cond = self.expr()?;
                self.eat_punct(")")?;
                let then_b = self.block()?;
                let else_b = if self.peek() == &Tok::Kw(Kw::Else) {
                    self.bump();
                    if self.peek() == &Tok::Kw(Kw::If) {
                        vec![self.nested(Self::stmt)?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If(cond, then_b, else_b))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.eat_punct("(")?;
                let cond = self.expr()?;
                self.eat_punct(")")?;
                let body = self.block()?;
                Ok(Stmt::While(cond, body))
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.eat_punct("(")?;
                let init = if self.peek() == &Tok::Kw(Kw::Var) {
                    self.bump();
                    let name = self.ident()?;
                    self.eat_punct(":")?;
                    let ty = self.scalar_ty()?;
                    self.eat_punct("=")?;
                    let init = Some(self.expr()?);
                    Stmt::VarDecl { name, ty, init }
                } else {
                    self.simple_stmt()?
                };
                self.eat_punct(";")?;
                let cond = self.expr()?;
                self.eat_punct(";")?;
                let step = self.simple_stmt()?;
                self.eat_punct(")")?;
                let body = self.block()?;
                Ok(Stmt::For(Box::new(init), cond, Box::new(step), body))
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let e = if self.at_punct(";") {
                    None
                } else {
                    let e = self.expr()?;
                    self.eat_punct(";")?;
                    Some(e)
                };
                Ok(Stmt::Return(e))
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.eat_punct(";")?;
                Ok(Stmt::Break)
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.eat_punct(";")?;
                Ok(Stmt::Continue)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.eat_punct(";")?;
                Ok(s)
            }
        }
    }

    /// Assignment / compound assignment / expression statement, without the
    /// trailing `;` (shared by `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.pos;
        let e = self.expr()?;
        const COMPOUND: [(&str, BinOp); 10] = [
            ("+=", BinOp::Add),
            ("-=", BinOp::Sub),
            ("*=", BinOp::Mul),
            ("/=", BinOp::Div),
            ("%=", BinOp::Rem),
            ("&=", BinOp::And),
            ("|=", BinOp::Or),
            ("^=", BinOp::Xor),
            ("<<=", BinOp::Shl),
            (">>=", BinOp::Shr),
        ];
        let lv_of = |p: &mut Self, e: &Expr| -> Result<LValue, ParseError> {
            match &e.kind {
                ExprKind::Var(n) => Ok(LValue::Var(n.clone())),
                ExprKind::Index(b, i) => Ok(LValue::Index((**b).clone(), (**i).clone())),
                _ => {
                    p.pos = start;
                    p.err("left side of assignment is not assignable")
                }
            }
        };
        if self.at_punct("=") {
            let lv = lv_of(self, &e)?;
            let rhs = self.expr()?;
            return Ok(Stmt::Assign(lv, rhs));
        }
        for (p, op) in COMPOUND {
            if self.at_punct(p) {
                let lv = lv_of(self, &e)?;
                let line = e.line;
                let rhs = self.expr()?;
                let combined = Expr {
                    kind: ExprKind::Bin(op, Box::new(e), Box::new(rhs)),
                    line,
                };
                return Ok(Stmt::Assign(lv, combined));
            }
        }
        Ok(Stmt::ExprStmt(e))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.bin_expr(0))
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::Punct("||") => (BinOp::LOr, 1),
                Tok::Punct("&&") => (BinOp::LAnd, 2),
                Tok::Punct("|") => (BinOp::Or, 3),
                Tok::Punct("^") => (BinOp::Xor, 4),
                Tok::Punct("&") => (BinOp::And, 5),
                Tok::Punct("==") => (BinOp::Eq, 6),
                Tok::Punct("!=") => (BinOp::Ne, 6),
                Tok::Punct("<") => (BinOp::Lt, 7),
                Tok::Punct("<=") => (BinOp::Le, 7),
                Tok::Punct(">") => (BinOp::Gt, 7),
                Tok::Punct(">=") => (BinOp::Ge, 7),
                Tok::Punct("<<") => (BinOp::Shl, 8),
                Tok::Punct(">>") => (BinOp::Shr, 8),
                Tok::Punct("+") => (BinOp::Add, 9),
                Tok::Punct("-") => (BinOp::Sub, 9),
                Tok::Punct("*") => (BinOp::Mul, 10),
                Tok::Punct("/") => (BinOp::Div, 10),
                Tok::Punct("%") => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            self.enter()?;
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let op = if self.at_punct("-") {
            UnOp::Neg
        } else if self.at_punct("!") {
            UnOp::Not
        } else if self.at_punct("~") {
            UnOp::BitNot
        } else {
            return self.postfix();
        };
        let e = self.nested(Self::unary)?;
        Ok(Expr {
            kind: ExprKind::Un(op, Box::new(e)),
            line,
        })
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            if self.at_punct("[") {
                self.enter()?;
                let idx = self.expr()?;
                self.eat_punct("]")?;
                e = Expr {
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    line,
                };
            } else {
                break;
            }
        }
        self.depth = outer;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr {
                kind: ExprKind::Int(v),
                line,
            }),
            Tok::Real(v) => Ok(Expr {
                kind: ExprKind::Real(v),
                line,
            }),
            Tok::Kw(Kw::Int) => {
                self.eat_punct("(")?;
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(Expr {
                    kind: ExprKind::Cast(Ty::Int, Box::new(e)),
                    line,
                })
            }
            Tok::Kw(Kw::Real) => {
                self.eat_punct("(")?;
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(Expr {
                    kind: ExprKind::Cast(Ty::Real, Box::new(e)),
                    line,
                })
            }
            Tok::Ident(name) => {
                if self.at_punct("(") {
                    let mut args = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.at_punct(")") {
                                break;
                            }
                            self.eat_punct(",")?;
                        }
                    }
                    Ok(Expr {
                        kind: ExprKind::Call(name, args),
                        line,
                    })
                } else {
                    Ok(Expr {
                        kind: ExprKind::Var(name),
                        line,
                    })
                }
            }
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }
}

/// Parses Kern source into an AST.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line.
///
/// # Examples
///
/// ```
/// use ch_compiler::parser::parse;
///
/// let unit = parse("fn main() -> int { return 42; }")?;
/// assert_eq!(unit.funcs.len(), 1);
/// assert_eq!(unit.funcs[0].name, "main");
/// # Ok::<(), ch_compiler::parser::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Unit, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_and_fn() {
        let u = parse(
            "global arr: int[100];
             global x: int;
             global buf: byte[256];
             fn main() -> int { return 0; }",
        )
        .unwrap();
        assert_eq!(u.globals.len(), 3);
        assert!(u.globals[1].scalar);
        assert_eq!(u.globals[2].elem, ElemTy::Byte);
        assert_eq!(u.funcs[0].ret, Some(Ty::Int));
    }

    #[test]
    fn parses_control_flow() {
        let u = parse(
            "fn f(n: int) -> int {
                 var s: int = 0;
                 for (var i: int = 0; i < n; i += 1) {
                     if (i % 2 == 0) { s += i; } else { s -= 1; }
                 }
                 while (s > 100) { s = s / 2; }
                 return s;
             }",
        )
        .unwrap();
        assert_eq!(u.funcs[0].params.len(), 1);
        assert_eq!(u.funcs[0].body.len(), 4);
    }

    #[test]
    fn precedence() {
        let u = parse("fn f() -> int { return 1 + 2 * 3; }").unwrap();
        match &u.funcs[0].body[0] {
            Stmt::Return(Some(e)) => match &e.kind {
                ExprKind::Bin(BinOp::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn array_indexing_and_assignment() {
        let u = parse("fn f() { var a: int[10]; a[3] = a[2] + 1; }").unwrap();
        match &u.funcs[0].body[1] {
            Stmt::Assign(LValue::Index(_, _), _) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn casts() {
        let u = parse("fn f(x: real) -> int { return int(x * 2.0); }").unwrap();
        match &u.funcs[0].body[0] {
            Stmt::Return(Some(e)) => assert!(matches!(e.kind, ExprKind::Cast(Ty::Int, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn else_if_chains() {
        let src = "fn f(x: int) -> int {
            if (x > 2) { return 2; } else if (x > 1) { return 1; } else { return 0; }
        }";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn error_has_line() {
        let e = parse("fn main() {\n  var x int;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    /// A `main` returning `expr`, in a block nested `blocks` deep.
    fn nested_main(expr: &str, blocks: usize) -> String {
        format!(
            "fn main() -> int {{ {}return {expr};{} }}",
            "if (1) { ".repeat(blocks),
            " }".repeat(blocks)
        )
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let n = 3000;
        let else_ifs = format!(
            "fn main() -> int {{ if (0) {{ }}{} return 1; }}",
            " else if (0) { }".repeat(n)
        );
        for src in [
            nested_main(&format!("{}1{}", "(".repeat(n), ")".repeat(n)), 0),
            nested_main(&format!("{}1", "-".repeat(n)), 0),
            nested_main(&vec!["1"; n].join(" + "), 0),
            nested_main(&format!("a{}", "[0]".repeat(n)), 0),
            nested_main("1", n),
            else_ifs,
        ] {
            let e = parse(&src).unwrap_err();
            assert_eq!(
                e.message,
                format!("nesting deeper than {MAX_NESTING} levels")
            );
            assert_eq!(e.line, 1);
        }
    }

    #[test]
    fn nesting_up_to_the_bound_compiles() {
        // The block and `return` each open a level, as does every `if`.
        let depth = MAX_NESTING - 2;
        for src in [
            nested_main(&format!("{}1{}", "(".repeat(depth), ")".repeat(depth)), 0),
            nested_main(&vec!["1"; depth + 1].join(" + "), 0),
            nested_main("1", depth),
        ] {
            crate::compile(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
        }
        let over = nested_main(
            &format!("{}1{}", "(".repeat(depth + 1), ")".repeat(depth + 1)),
            0,
        );
        assert!(parse(&over).is_err());
    }

    #[test]
    fn negative_numbers_and_unaries() {
        assert!(parse("fn f() -> int { return -(-3) + !0 + ~5; }").is_ok());
    }
}
