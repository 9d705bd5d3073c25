//! Textual frontend for behavioural specifications.
//!
//! The grammar is a compact, VHDL-flavoured dataflow language; the paper's
//! motivational example looks like this:
//!
//! ```text
//! spec example {
//!     input A: u16;
//!     input B: u16;
//!     input D: u16;
//!     input F: u16;
//!     C: u16 = A + B;
//!     E: u16 = C + D;
//!     G: u16 = E + F;
//!     output G;
//! }
//! ```
//!
//! # Grammar
//!
//! ```text
//! spec      := "spec" IDENT "{" item* "}"
//! item      := "input" IDENT ":" type ";"
//!            | IDENT ":" type "=" expr ";"
//!            | "output" IDENT ("=" expr)? ";"
//! type      := ("u" | "i") WIDTH              -- e.g. u16, i8
//! expr      := or
//! or        := xor ("|" xor)*
//! xor       := and ("^" and)*
//! and       := cmp ("&" cmp)*
//! cmp       := shift (("<"|"<="|">"|">="|"=="|"!=") shift)?
//! shift     := addsub (("<<" | ">>") NUMBER)*
//! addsub    := term (("+" | "-") term)*
//! term      := unary ("*" unary)*
//! unary     := ("-" | "~")? primary
//! primary   := literal | call | IDENT slice? | "(" expr ")"
//! call      := ("max"|"min"|"abs"|"mux"|"redor"|"redand"|"concat")
//!              "(" expr ("," expr)* ")"
//! slice     := "[" NUMBER (":" NUMBER)? "]"  -- [hi:lo] or [bit]
//! literal   := NUMBER | WIDTH "'" ("d"|"b"|"h") DIGITS   -- e.g. 16'd42
//! ```
//!
//! # Typing rules
//!
//! Interior expression nodes take their *natural* width (`+`/`-`:
//! `max+1`, `*`: sum, comparisons: 1, shifts: width±amount, otherwise the
//! operand maximum). The statement's declared type fixes the width and
//! signedness of the *root* operation; all operations created by a
//! statement share the statement's signedness. A bare literal gets the
//! minimal width holding it unless written in sized form. No width —
//! declared, literal, natural or shift amount — may exceed
//! [`MAX_WIDTH`] (1,024 bits).

use crate::bits::Bits;
use crate::error::ParseError;
use crate::op::OpKind;
use crate::operand::Operand;
use crate::spec::{Spec, SpecBuilder};
use crate::types::{BitRange, Signedness};
use crate::MAX_WIDTH;
use std::collections::BTreeMap;

/// Parses the textual DSL into a validated [`Spec`].
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first syntax error, unknown
/// identifier, or IR validation failure.
pub fn parse_spec(text: &str) -> Result<Spec, ParseError> {
    let tokens = lex(text)?;
    Parser::new(tokens).parse()
}

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Number(u64),
    /// Sized literal `width'basedigits`, e.g. `16'd42`.
    Sized(u32, Bits),
    Sym(&'static str),
}

#[derive(Clone, Debug)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(text: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;
    let bump = |i: &mut usize, line: &mut usize, col: &mut usize, c: char| {
        *i += 1;
        if c == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
    };
    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);
        if c.is_whitespace() {
            bump(&mut i, &mut line, &mut col, c);
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                let ch = chars[i];
                bump(&mut i, &mut line, &mut col, ch);
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                let ch = chars[i];
                s.push(ch);
                bump(&mut i, &mut line, &mut col, ch);
            }
            out.push(SpannedTok { tok: Tok::Ident(s), line: tline, col: tcol });
            continue;
        }
        if c.is_ascii_digit() {
            let mut n: u64 = 0;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                let ch = chars[i];
                if ch != '_' {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(ch as u64 - '0' as u64))
                        .ok_or_else(|| {
                            ParseError::new(tline, tcol, "number literal overflows u64")
                        })?;
                }
                bump(&mut i, &mut line, &mut col, ch);
            }
            // Sized literal?
            if i < chars.len() && chars[i] == '\'' {
                bump(&mut i, &mut line, &mut col, '\'');
                let base = chars.get(i).copied().ok_or_else(|| {
                    ParseError::new(line, col, "expected base character after `'`")
                })?;
                bump(&mut i, &mut line, &mut col, base);
                let mut digits = String::new();
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    let ch = chars[i];
                    digits.push(ch);
                    bump(&mut i, &mut line, &mut col, ch);
                }
                let digits: String = digits.chars().filter(|&c| c != '_').collect();
                if n == 0 {
                    return Err(ParseError::new(tline, tcol, "literal width must be positive"));
                }
                let width = u32::try_from(n).ok().filter(|&w| w <= MAX_WIDTH).ok_or_else(|| {
                    let msg = format!("literal width {n} exceeds the maximum of {MAX_WIDTH}");
                    ParseError::new(tline, tcol, msg)
                })?;
                let bits = match base {
                    'd' => {
                        let v: u64 = digits.parse().map_err(|_| {
                            ParseError::new(tline, tcol, format!("bad decimal digits `{digits}`"))
                        })?;
                        Bits::from_u64(v, width as usize)
                    }
                    'b' => Bits::parse_binary(&digits)
                        .ok_or_else(|| {
                            ParseError::new(tline, tcol, format!("bad binary digits `{digits}`"))
                        })?
                        .zext(width as usize),
                    'h' => {
                        let v = u64::from_str_radix(&digits, 16).map_err(|_| {
                            ParseError::new(tline, tcol, format!("bad hex digits `{digits}`"))
                        })?;
                        Bits::from_u64(v, width as usize)
                    }
                    other => {
                        return Err(ParseError::new(
                            tline,
                            tcol,
                            format!("unknown literal base `{other}` (use d, b or h)"),
                        ))
                    }
                };
                out.push(SpannedTok { tok: Tok::Sized(width, bits), line: tline, col: tcol });
            } else {
                out.push(SpannedTok { tok: Tok::Number(n), line: tline, col: tcol });
            }
            continue;
        }
        // Multi-character symbols first.
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        let sym2 = match two.as_str() {
            "<<" => Some("<<"),
            ">>" => Some(">>"),
            "<=" => Some("<="),
            ">=" => Some(">="),
            "==" => Some("=="),
            "!=" => Some("!="),
            _ => None,
        };
        if let Some(s) = sym2 {
            let ch0 = chars[i];
            bump(&mut i, &mut line, &mut col, ch0);
            let ch1 = chars[i];
            bump(&mut i, &mut line, &mut col, ch1);
            out.push(SpannedTok { tok: Tok::Sym(s), line: tline, col: tcol });
            continue;
        }
        let sym1 = match c {
            '{' => "{",
            '}' => "}",
            '(' => "(",
            ')' => ")",
            '[' => "[",
            ']' => "]",
            ':' => ":",
            ';' => ";",
            ',' => ",",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '~' => "~",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            '<' => "<",
            '>' => ">",
            other => {
                return Err(ParseError::new(tline, tcol, format!("unexpected character `{other}`")))
            }
        };
        bump(&mut i, &mut line, &mut col, c);
        out.push(SpannedTok { tok: Tok::Sym(sym1), line: tline, col: tcol });
    }
    Ok(out)
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

/// Expression tree produced by the parser before lowering to IR.
#[derive(Debug, Clone)]
enum Expr {
    Operand(Operand),
    /// A name, optionally sliced `[hi:lo]` with the bounds as written:
    /// lowering checks them against the named value's width.
    Ident(String, Option<(u64, u64)>),
    Unary(OpKind, Box<Expr>),
    Binary(OpKind, Box<Expr>, Box<Expr>),
    Call(OpKind, Vec<Expr>),
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<SpannedTok>) -> Self {
        Parser { toks, pos: 0 }
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .map(|t| (t.line, t.col))
            .unwrap_or_else(|| self.toks.last().map(|t| (t.line, t.col + 1)).unwrap_or((1, 1)))
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (l, c) = self.here();
        ParseError::new(l, c, msg)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Sym(t)) if *t == s => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.err(format!("expected `{s}`, found {}", describe(other)))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected identifier, found {}", describe(other.as_ref()))))
            }
        }
    }

    fn expect_number(&mut self) -> Result<u64, ParseError> {
        match self.next() {
            Some(Tok::Number(n)) => Ok(n),
            other => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected number, found {}", describe(other.as_ref()))))
            }
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse(mut self) -> Result<Spec, ParseError> {
        match self.next() {
            Some(Tok::Ident(kw)) if kw == "spec" => {}
            other => {
                return Err(self.err(format!("expected `spec`, found {}", describe(other.as_ref()))))
            }
        }
        let name = self.expect_ident()?;
        self.expect_sym("{")?;
        let mut lower = Lowerer { builder: SpecBuilder::new(name), symbols: BTreeMap::new() };
        loop {
            match self.peek() {
                Some(Tok::Sym("}")) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(kw)) if kw == "input" => {
                    self.pos += 1;
                    let name = self.expect_ident()?;
                    self.expect_sym(":")?;
                    let (width, signedness) = self.parse_type()?;
                    self.expect_sym(";")?;
                    if lower.symbols.contains_key(&name) {
                        return Err(self.err(format!("duplicate name `{name}`")));
                    }
                    let v = lower.builder.input(name.clone(), width);
                    lower.symbols.insert(name, Sym { operand: Operand::value(v), signedness });
                }
                Some(Tok::Ident(kw)) if kw == "output" => {
                    self.pos += 1;
                    let name = self.expect_ident()?;
                    if self.eat_sym("=") {
                        let expr = self.parse_expr()?;
                        self.expect_sym(";")?;
                        let operand =
                            lower.lower_root(&expr, None).map_err(|e| self.err(e.message))?;
                        lower.builder.output(name, operand);
                    } else {
                        self.expect_sym(";")?;
                        let sym = lower
                            .symbols
                            .get(&name)
                            .cloned()
                            .ok_or_else(|| self.err(format!("unknown output `{name}`")))?;
                        lower.builder.output(name, sym.operand);
                    }
                }
                Some(Tok::Ident(_)) => {
                    let name = self.expect_ident()?;
                    self.expect_sym(":")?;
                    let (width, signedness) = self.parse_type()?;
                    self.expect_sym("=")?;
                    let expr = self.parse_expr()?;
                    self.expect_sym(";")?;
                    if lower.symbols.contains_key(&name) {
                        return Err(self.err(format!("duplicate name `{name}`")));
                    }
                    let operand = lower
                        .lower_statement(&name, &expr, width)
                        .map_err(|e| self.err(e.message))?;
                    lower.symbols.insert(name, Sym { operand, signedness });
                }
                other => {
                    return Err(self.err(format!(
                        "expected `input`, `output`, a definition, or `}}`, found {}",
                        describe(other)
                    )))
                }
            }
        }
        lower.builder.finish().map_err(|e| ParseError::new(0, 0, e.to_string()))
    }

    /// Parses `u16` / `i8` style types.
    fn parse_type(&mut self) -> Result<(u32, Signedness), ParseError> {
        let t = self.expect_ident()?;
        let (sign, digits) = match t.split_at(1) {
            ("u", d) => (Signedness::Unsigned, d),
            ("i", d) => (Signedness::Signed, d),
            _ => return Err(self.err(format!("expected type like u16 or i8, found `{t}`"))),
        };
        let width: u32 =
            digits.parse().map_err(|_| self.err(format!("bad type width in `{t}`")))?;
        if width == 0 {
            return Err(self.err("type width must be positive"));
        }
        if width > MAX_WIDTH {
            return Err(self.err(format!("type width {width} exceeds the maximum of {MAX_WIDTH}")));
        }
        Ok((width, sign))
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_xor()?;
        while self.eat_sym("|") {
            let rhs = self.parse_xor()?;
            lhs = Expr::Binary(OpKind::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat_sym("^") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(OpKind::Xor, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_sym("&") {
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(OpKind::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_shift()?;
        let kind = match self.peek() {
            Some(Tok::Sym("<")) => Some(OpKind::Lt),
            Some(Tok::Sym("<=")) => Some(OpKind::Le),
            Some(Tok::Sym(">")) => Some(OpKind::Gt),
            Some(Tok::Sym(">=")) => Some(OpKind::Ge),
            Some(Tok::Sym("==")) => Some(OpKind::Eq),
            Some(Tok::Sym("!=")) => Some(OpKind::Ne),
            _ => None,
        };
        if let Some(kind) = kind {
            self.pos += 1;
            let rhs = self.parse_shift()?;
            Ok(Expr::Binary(kind, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn parse_shift(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_addsub()?;
        loop {
            if self.eat_sym("<<") {
                let k = self.shift_amount()?;
                lhs = Expr::Unary(OpKind::Shl(k), Box::new(lhs));
            } else if self.eat_sym(">>") {
                let k = self.shift_amount()?;
                lhs = Expr::Unary(OpKind::Shr(k), Box::new(lhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    /// A shift amount: at most [`MAX_WIDTH`], like every width.
    fn shift_amount(&mut self) -> Result<u32, ParseError> {
        let k = self.expect_number()?;
        u32::try_from(k)
            .ok()
            .filter(|&k| k <= MAX_WIDTH)
            .ok_or_else(|| self.err(format!("shift amount {k} exceeds the maximum of {MAX_WIDTH}")))
    }

    fn parse_addsub(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term()?;
        loop {
            if self.eat_sym("+") {
                let rhs = self.parse_term()?;
                lhs = Expr::Binary(OpKind::Add, Box::new(lhs), Box::new(rhs));
            } else if self.eat_sym("-") {
                let rhs = self.parse_term()?;
                lhs = Expr::Binary(OpKind::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while self.eat_sym("*") {
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(OpKind::Mul, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("-") {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(OpKind::Neg, Box::new(e)));
        }
        if self.eat_sym("~") {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(OpKind::Not, Box::new(e)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Tok::Number(n)) => {
                let width = (64 - n.leading_zeros()).max(1) as usize;
                Ok(Expr::Operand(Operand::Const(Bits::from_u64(n, width))))
            }
            Some(Tok::Sized(_, bits)) => Ok(Expr::Operand(Operand::Const(bits))),
            Some(Tok::Sym("(")) => {
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                let call_kind = match name.as_str() {
                    "max" => Some(OpKind::Max),
                    "min" => Some(OpKind::Min),
                    "abs" => Some(OpKind::Abs),
                    "mux" => Some(OpKind::Mux),
                    "redor" => Some(OpKind::RedOr),
                    "redand" => Some(OpKind::RedAnd),
                    "concat" => Some(OpKind::Concat),
                    _ => None,
                };
                if let (Some(kind), Some(Tok::Sym("("))) = (call_kind, self.peek()) {
                    self.pos += 1;
                    let mut args = vec![self.parse_expr()?];
                    while self.eat_sym(",") {
                        args.push(self.parse_expr()?);
                    }
                    self.expect_sym(")")?;
                    return Ok(Expr::Call(kind, args));
                }
                // Optional slice.
                if self.eat_sym("[") {
                    let hi = self.expect_number()?;
                    let range = if self.eat_sym(":") {
                        let lo = self.expect_number()?;
                        if hi < lo {
                            return Err(self.err(format!("slice [{hi}:{lo}] has hi < lo")));
                        }
                        (hi, lo)
                    } else {
                        (hi, hi)
                    };
                    self.expect_sym("]")?;
                    Ok(Expr::Ident(name, Some(range)))
                } else {
                    Ok(Expr::Ident(name, None))
                }
            }
            other => {
                Err(self.err(format!("expected expression, found {}", describe(other.as_ref()))))
            }
        }
    }
}

fn describe(tok: Option<&Tok>) -> String {
    match tok {
        None => "end of input".to_string(),
        Some(Tok::Ident(s)) => format!("`{s}`"),
        Some(Tok::Number(n)) => format!("number {n}"),
        Some(Tok::Sized(w, b)) => format!("literal {w}'{b:b}"),
        Some(Tok::Sym(s)) => format!("`{s}`"),
    }
}

// --------------------------------------------------------------------------
// Lowering to IR
// --------------------------------------------------------------------------

/// A named operand plus the signedness its declaration gave it.
#[derive(Clone, Debug)]
struct Sym {
    operand: Operand,
    signedness: Signedness,
}

struct Lowerer {
    builder: SpecBuilder,
    symbols: BTreeMap<String, Sym>,
}

impl Lowerer {
    /// Lowers a statement body at the declared width; the result is the
    /// operand the statement's name binds to. Operations take their
    /// signedness from their operands (signed wins), VHDL-style; the
    /// declared signedness is recorded on the symbol for later uses.
    fn lower_statement(
        &mut self,
        name: &str,
        expr: &Expr,
        width: u32,
    ) -> Result<Operand, ParseError> {
        self.lower_root(expr, Some((name, width)))
    }

    /// Lowers a root expression. With `target = Some((name, width))` the
    /// root operation is created at the declared width and named; bare
    /// operands are resized to the declared width.
    fn lower_root(
        &mut self,
        expr: &Expr,
        target: Option<(&str, u32)>,
    ) -> Result<Operand, ParseError> {
        match expr {
            Expr::Operand(_) | Expr::Ident(..) => {
                let (operand, sig) = self.lower(expr)?;
                match target {
                    Some((_, width)) if self.width_of(&operand) != width => {
                        self.resize(operand, width, sig)
                    }
                    _ => Ok(operand),
                }
            }
            _ => {
                let (name, width) = match target {
                    Some((n, w)) => (Some(n), Some(w)),
                    None => (None, None),
                };
                let (operand, _) = self.lower_node(expr, width, name)?;
                Ok(operand)
            }
        }
    }

    fn width_of(&self, operand: &Operand) -> u32 {
        match operand {
            Operand::Value { value, range: Some(r) } => {
                let _ = value;
                r.width()
            }
            Operand::Value { value, range: None } => self.builder.width_of(*value),
            Operand::Const(b) => b.width() as u32,
        }
    }

    /// Zero-/sign-extends or truncates `operand` to `width` using glue.
    fn resize(
        &mut self,
        operand: Operand,
        width: u32,
        signedness: Signedness,
    ) -> Result<Operand, ParseError> {
        let w = self.width_of(&operand);
        if w == width {
            return Ok(operand);
        }
        if w > width {
            return Ok(operand.subrange(BitRange::new(0, width)));
        }
        if let Operand::Const(b) = &operand {
            return Ok(Operand::Const(b.ext(width as usize, signedness.is_signed())));
        }
        let ext = width - w;
        let value = match signedness {
            Signedness::Unsigned => self.builder.op(
                OpKind::Concat,
                vec![operand, Operand::Const(Bits::zero(ext as usize))],
                width,
                Signedness::Unsigned,
                None,
            ),
            Signedness::Signed => {
                // Replicate the sign bit: fill = sign ? ones : zeros.
                let sign = operand.subrange(BitRange::new(w - 1, 1));
                let fill = self.builder.op(
                    OpKind::Mux,
                    vec![
                        sign,
                        Operand::Const(Bits::ones(ext as usize)),
                        Operand::Const(Bits::zero(ext as usize)),
                    ],
                    ext,
                    Signedness::Unsigned,
                    None,
                )?;
                self.builder.op(
                    OpKind::Concat,
                    vec![operand, fill.into()],
                    width,
                    Signedness::Unsigned,
                    None,
                )
            }
        }
        .map_err(ParseError::from)?;
        Ok(value.into())
    }

    /// Lowers any expression to an operand plus the signedness governing
    /// its interpretation (signed if any contributing name is signed).
    fn lower(&mut self, expr: &Expr) -> Result<(Operand, Signedness), ParseError> {
        match expr {
            Expr::Operand(op) => Ok((op.clone(), Signedness::Unsigned)),
            Expr::Ident(name, range) => {
                let sym = self
                    .symbols
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ParseError::new(0, 0, format!("unknown name `{name}`")))?;
                match *range {
                    None => Ok((sym.operand, sym.signedness)),
                    Some((hi, lo)) => {
                        let width = self.width_of(&sym.operand);
                        // Compared as written: an index past `u32::MAX`
                        // must not wrap into range.
                        if hi >= u64::from(width) {
                            let slice =
                                if hi == lo { format!("[{hi}]") } else { format!("[{hi}:{lo}]") };
                            return Err(ParseError::new(
                                0,
                                0,
                                format!("slice {slice} of `{name}` exceeds its width {width}"),
                            ));
                        }
                        let r = BitRange::inclusive(hi as u32, lo as u32);
                        // A slice re-interprets raw bits: unsigned.
                        Ok((sym.operand.subrange(r), Signedness::Unsigned))
                    }
                }
            }
            _ => self.lower_node(expr, None, None),
        }
    }

    /// Lowers an operation node (unary/binary/call) into an IR op.
    fn lower_node(
        &mut self,
        expr: &Expr,
        force_width: Option<u32>,
        name: Option<&str>,
    ) -> Result<(Operand, Signedness), ParseError> {
        let (kind, lowered): (OpKind, Vec<(Operand, Signedness)>) = match expr {
            Expr::Unary(kind, a) => (*kind, vec![self.lower(a)?]),
            Expr::Binary(kind, a, b) => (*kind, vec![self.lower(a)?, self.lower(b)?]),
            Expr::Call(kind, exprs) => {
                let mut args = Vec::with_capacity(exprs.len());
                for e in exprs {
                    args.push(self.lower(e)?);
                }
                (*kind, args)
            }
            Expr::Operand(_) | Expr::Ident(..) => {
                unreachable!("operand exprs are handled by `lower`")
            }
        };
        let signedness = if lowered.iter().any(|(_, s)| s.is_signed()) {
            Signedness::Signed
        } else {
            Signedness::Unsigned
        };
        let args: Vec<Operand> = lowered.into_iter().map(|(o, _)| o).collect();
        let widths: Vec<u32> = args.iter().map(|a| self.width_of(a)).collect();
        let width = force_width.unwrap_or_else(|| natural_width(kind, &widths));
        if width > MAX_WIDTH {
            let msg = format!("operation width {width} exceeds the maximum of {MAX_WIDTH}");
            return Err(ParseError::new(0, 0, msg));
        }
        let value =
            self.builder.op(kind, args, width, signedness, name).map_err(ParseError::from)?;
        Ok((value.into(), signedness))
    }
}

/// The natural result width of `kind` applied to operands of `widths`,
/// saturating so that an overlong result fails the [`MAX_WIDTH`] check.
fn natural_width(kind: OpKind, widths: &[u32]) -> u32 {
    let max = widths.iter().copied().max().unwrap_or(1);
    let sum = || widths.iter().fold(0u32, |sum, &w| sum.saturating_add(w));
    match kind {
        OpKind::Add | OpKind::Sub => max + 1,
        OpKind::Mul => sum(),
        OpKind::Neg => max + 1,
        OpKind::Abs => max,
        OpKind::Lt
        | OpKind::Le
        | OpKind::Gt
        | OpKind::Ge
        | OpKind::Eq
        | OpKind::Ne
        | OpKind::RedOr
        | OpKind::RedAnd => 1,
        OpKind::Max | OpKind::Min | OpKind::Not | OpKind::And | OpKind::Or | OpKind::Xor => max,
        OpKind::Mux => widths[1..].iter().copied().max().unwrap_or(1),
        OpKind::Shl(k) => max + k,
        OpKind::Shr(_) => max,
        OpKind::Concat => sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const THREE_ADDS: &str = "
        spec example {
            input A: u16;
            input B: u16;
            input D: u16;
            input F: u16;
            C: u16 = A + B;
            E: u16 = C + D;
            G: u16 = E + F;
            output G;
        }";

    #[test]
    fn widths_are_bounded_by_max_width() {
        let parse = |body: &str| parse_spec(&format!("spec w {{ {body} }}"));
        let rejects = |body: &str, why: &str| {
            let err = parse(body).unwrap_err();
            assert!(err.message.contains(why), "{body}: {err}");
        };
        assert!(parse("input a: u1024; s: i1024 = a + a; output s;").is_ok());
        rejects("input a: u1025; output a;", "type width 1025 exceeds the maximum of 1024");
        rejects("input a: u2000000000; output a;", "type width 2000000000 exceeds");
        assert!(parse("input a: u8; s: u16 = a + 1024'd1; output s;").is_ok());
        rejects("input a: u8; s: u16 = a + 1025'd1; output s;", "literal width 1025 exceeds");
        rejects("input a: u8; s: u8 = a + 0'd5; output s;", "literal width must be positive");
        // Interior nodes take their natural width, which is bounded too.
        rejects(
            "input a: u1024; input b: u1024; s: u1024 = a * b + a; output s;",
            "operation width 2048 exceeds",
        );
        assert!(parse("input a: u8; s: u8 = (a << 1016) >> 1016; output s;").is_ok());
        rejects("input a: u8; s: u8 = (a << 1017) >> 1017; output s;", "operation width 1025");
        rejects("input a: u8; s: u8 = a << 4294967297; output s;", "shift amount 4294967297");
    }

    #[test]
    fn parses_motivational_example() {
        let spec = parse_spec(THREE_ADDS).unwrap();
        assert_eq!(spec.name(), "example");
        assert_eq!(spec.ops().len(), 3);
        assert_eq!(spec.inputs().len(), 4);
        assert!(spec.is_additive_form());
        assert_eq!(spec.ops()[0].name(), Some("C"));
        assert_eq!(spec.ops()[0].width(), 16);
    }

    #[test]
    fn parses_expressions_with_precedence() {
        let spec = parse_spec(
            "spec p { input a: u8; input b: u8; input c: u8;
              r: u16 = a + b * c;
              output r; }",
        )
        .unwrap();
        // mul first (natural width 16), then the root add at declared 16.
        let kinds: Vec<_> = spec.ops().iter().map(|o| o.kind()).collect();
        assert_eq!(kinds, vec![OpKind::Mul, OpKind::Add]);
        assert_eq!(spec.ops()[0].width(), 16);
        assert_eq!(spec.ops()[1].width(), 16);
    }

    #[test]
    fn parses_signed_types_and_calls() {
        let spec = parse_spec(
            "spec s { input a: i8; input b: i8;
              m: i8 = max(a, b);
              d: i9 = a - b;
              q: u1 = a < b;
              output m; output d; output q; }",
        )
        .unwrap();
        assert_eq!(spec.ops()[0].kind(), OpKind::Max);
        assert!(spec.ops()[0].signedness().is_signed());
        assert_eq!(spec.ops()[2].kind(), OpKind::Lt);
        assert_eq!(spec.ops()[2].width(), 1);
    }

    #[test]
    fn parses_slices_and_literals() {
        let spec = parse_spec(
            "spec s { input a: u16;
              lo: u8 = a[7:0] + 8'd3;
              bit: u1 = a[15];
              k: u4 = 4'b1010;
              output lo; output bit; output k; }",
        )
        .unwrap();
        assert_eq!(spec.ops().len(), 1); // only the add; bit/k are pure operands
        assert_eq!(spec.outputs().len(), 3);
        assert_eq!(spec.outputs()[2].operand().as_const().unwrap().to_u64(), 0b1010);
    }

    #[test]
    fn alias_resizes_with_glue() {
        let spec = parse_spec(
            "spec s { input a: u4;
              wide: u8 = a;
              output wide; }",
        )
        .unwrap();
        // zero extension uses one concat
        assert_eq!(spec.ops().len(), 1);
        assert_eq!(spec.ops()[0].kind(), OpKind::Concat);

        let spec = parse_spec(
            "spec s { input a: i4;
              wide: i8 = a;
              output wide; }",
        )
        .unwrap();
        // sign extension: mux + concat
        assert_eq!(spec.ops().len(), 2);
        assert_eq!(spec.ops()[0].kind(), OpKind::Mux);
    }

    #[test]
    fn parses_shifts_and_bitwise() {
        let spec = parse_spec(
            "spec s { input a: u8; input b: u8;
              x: u10 = a << 2;
              y: u8 = (a & b) | ~b;
              z: u8 = a >> 1;
              output x; output y; output z; }",
        )
        .unwrap();
        assert_eq!(spec.ops()[0].kind(), OpKind::Shl(2));
        let y_ops: Vec<_> = spec.ops().iter().map(|o| o.kind()).collect();
        assert!(y_ops.contains(&OpKind::And));
        assert!(y_ops.contains(&OpKind::Not));
        assert!(y_ops.contains(&OpKind::Or));
    }

    #[test]
    fn inline_output_expression() {
        let spec = parse_spec(
            "spec s { input a: u8; input b: u8;
              output sum = a + b; }",
        )
        .unwrap();
        assert_eq!(spec.outputs()[0].name(), "sum");
        assert_eq!(spec.ops().len(), 1);
        assert_eq!(spec.ops()[0].width(), 9); // natural width, no declared type
    }

    #[test]
    fn comments_are_skipped() {
        let spec = parse_spec(
            "spec s { // header
              input a: u4; // port
              output o = a + 1; }",
        )
        .unwrap();
        assert_eq!(spec.inputs().len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let err = parse_spec("spec s { input a: u4; b: u4 = a @ a; output b; }").unwrap_err();
        assert!(err.to_string().contains('@'), "got: {err}");
        assert!(err.line >= 1);
    }

    #[test]
    fn error_on_unknown_name() {
        let err = parse_spec("spec s { input a: u4; output o = a + ghost; }").unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn error_on_duplicate_definition() {
        let err = parse_spec("spec s { input a: u4; a: u4 = a + 1; output a; }").unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn error_on_bad_slice() {
        let err = parse_spec("spec s { input a: u4; output o = a[9:0]; }").unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn slice_indices_past_u32_are_rejected_not_wrapped() {
        // 4294967296 = 2^32 once wrapped to bit 0, and 4294967295 wrapped
        // its range end to 0: both read as in range.
        for (slice, shown) in [
            ("a[9]", "[9]"),
            ("a[4294967295]", "[4294967295]"),
            ("a[4294967296]", "[4294967296]"),
            ("a[4294967296:0]", "[4294967296:0]"),
            ("a[18446744073709551615]", "[18446744073709551615]"),
        ] {
            let err = parse_spec(&format!("spec s {{ input a: u8; o: u1 = {slice}; output o; }}"))
                .unwrap_err();
            let why = format!("slice {shown} of `a` exceeds its width 8");
            assert!(err.to_string().contains(&why), "{slice}: {err}");
        }
        parse_spec("spec s { input a: u8; o: u2 = a[7:6]; output o; }").unwrap();
    }

    #[test]
    fn error_on_reversed_slice() {
        let err = parse_spec("spec s { input a: u8; output o = a[0:3]; }").unwrap_err();
        assert!(err.to_string().contains("hi < lo"));
    }

    #[test]
    fn sized_literal_bases() {
        let spec = parse_spec(
            "spec s { input a: u8;
              output h = a + 8'hff;
              output b = a + 8'b1111_0000;
              output d = a + 8'd200; }",
        )
        .unwrap();
        assert_eq!(spec.ops().len(), 3);
    }

    #[test]
    fn concat_call() {
        let spec = parse_spec(
            "spec s { input a: u4; input b: u4;
              w: u8 = concat(a, b);
              output w; }",
        )
        .unwrap();
        assert_eq!(spec.ops()[0].kind(), OpKind::Concat);
        assert_eq!(spec.ops()[0].width(), 8);
    }

    #[test]
    fn mux_call() {
        let spec = parse_spec(
            "spec s { input sel: u1; input a: u8; input b: u8;
              m: u8 = mux(sel, a, b);
              output m; }",
        )
        .unwrap();
        assert_eq!(spec.ops()[0].kind(), OpKind::Mux);
    }
}
