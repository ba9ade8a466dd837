//! Recursive-descent parser for the chronolog concrete syntax.
//!
//! ```text
//! item        := rule | fact
//! rule        := head ":-" body "."
//! fact        := atom ("@" annotation)? "."
//! head        := (("boxminus"|"boxplus") rho?)* head_atom
//! head_atom   := ident "(" head_terms? ")"
//! head_terms  := head_term ("," head_term)*
//! head_term   := aggfn "(" term ")" | term
//! body        := literal ("," literal)*
//! literal     := "not" matom | matom | expr cmp expr
//! matom       := unop matom | bin | "top" | "bottom" | atom
//! unop        := ("boxminus"|"diamondminus"|"boxplus"|"diamondplus") rho?
//! bin         := ("since"|"until") rho? "(" matom "," matom ")"
//! atom        := ident "(" terms? ")" ("@" var)?
//! rho         := interval with non-negative bounds; omitted = [1,1]
//! annotation  := number | interval
//! ```

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, MetricInterval, Rational, TimeBound};

const UNARY_OPS: [&str; 4] = ["boxminus", "diamondminus", "boxplus", "diamondplus"];
const EXPR_FUNCS: [&str; 3] = ["abs", "min", "max"];
const AGG_FUNCS: [&str; 5] = ["sum", "count", "min", "max", "avg"];

/// Parses a full source text into a program and its embedded facts.
pub fn parse_source(src: &str) -> Result<(Program, Vec<Fact>)> {
    Parser::new(src)?.source()
}

/// Parses a source text expected to contain only rules.
pub fn parse_program(src: &str) -> Result<Program> {
    let (p, facts) = parse_source(src)?;
    if let Some(f) = facts.first() {
        return Err(Error::Eval(format!(
            "unexpected fact in program source: {f}"
        )));
    }
    Ok(p)
}

/// Parses a single rule.
pub fn parse_rule(src: &str) -> Result<Rule> {
    let p = parse_program(src)?;
    match p.rules.len() {
        1 => Ok(p.rules.into_iter().next().expect("checked length")),
        n => Err(Error::Eval(format!("expected exactly one rule, found {n}"))),
    }
}

/// Parses a source text expected to contain only facts.
pub fn parse_facts(src: &str) -> Result<Vec<Fact>> {
    let (p, facts) = parse_source(src)?;
    if let Some(r) = p.rules.first() {
        return Err(Error::Eval(format!("unexpected rule in fact source: {r}")));
    }
    Ok(facts)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// The token the last [`Parser::bump`] consumed.
    last: usize,
    anon: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        Ok(Parser {
            toks: tokenize(src)?,
            pos: 0,
            last: 0,
            anon: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        &self.toks[(self.pos + off).min(self.toks.len() - 1)].kind
    }

    fn here(&self) -> (usize, usize) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        self.last = self.pos;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    /// An error at the next token.
    fn err(&self, msg: impl Into<String>) -> Error {
        let (l, c) = self.here();
        Error::parse(l, c, msg)
    }

    /// An error at the token the last [`Parser::bump`] consumed: for a
    /// token that was taken and then found wrong.
    fn err_bumped(&self, msg: impl Into<String>) -> Error {
        let t = &self.toks[self.last];
        Error::parse(t.line, t.col, msg)
    }

    /// [`Parser::err_bumped`]: the token `found` was taken where `what`
    /// belongs.
    fn unexpected(&self, what: &str, found: &TokenKind) -> Error {
        self.err_bumped(format!("expected {what}, found {found:?}"))
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<()> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat_lower(&mut self, word: &str) -> bool {
        if let TokenKind::LowerIdent(s) = self.peek() {
            if s == word {
                self.bump();
                return true;
            }
        }
        false
    }

    fn peek_lower(&self) -> Option<&str> {
        match self.peek() {
            TokenKind::LowerIdent(s) => Some(s.as_str()),
            _ => None,
        }
    }

    // ------------------------------------------------------------------

    fn source(&mut self) -> Result<(Program, Vec<Fact>)> {
        let mut program = Program::new();
        let mut facts = Vec::new();
        while *self.peek() != TokenKind::Eof {
            self.item(&mut program, &mut facts)?;
        }
        Ok((program, facts))
    }

    fn item(&mut self, program: &mut Program, facts: &mut Vec<Fact>) -> Result<()> {
        // A head may start with box operators; a fact never does.
        let mut ops = Vec::new();
        loop {
            match self.peek_lower() {
                Some("boxminus") => {
                    self.bump();
                    let rho = self.rho_or_default()?;
                    ops.push(HeadOp::BoxMinus(rho));
                }
                Some("boxplus") => {
                    self.bump();
                    let rho = self.rho_or_default()?;
                    ops.push(HeadOp::BoxPlus(rho));
                }
                _ => break,
            }
        }
        let (atom, aggregate) = self.head_atom()?;
        match self.peek() {
            TokenKind::Arrow => {
                self.bump();
                let body = self.body()?;
                self.expect(TokenKind::Dot, "'.'")?;
                program.push(Rule {
                    head: Head {
                        atom,
                        ops,
                        aggregate,
                    },
                    body,
                    label: None,
                });
                Ok(())
            }
            _ => {
                if !ops.is_empty() {
                    return Err(self.err("facts cannot carry head operators"));
                }
                if aggregate.is_some() {
                    return Err(self.err("facts cannot carry aggregates"));
                }
                if atom.time_var.is_some() {
                    return Err(self.err("facts use '@interval', not '@Var'"));
                }
                let interval = if *self.peek() == TokenKind::At {
                    self.bump();
                    self.annotation()?
                } else {
                    Interval::ALL
                };
                self.expect(TokenKind::Dot, "'.'")?;
                let args = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Val(v) => Ok(*v),
                        Term::Var(v) => Err(self.err(format!("fact argument {v} is not ground"))),
                    })
                    .collect::<Result<Vec<_>>>()?;
                facts.push(Fact {
                    pred: atom.pred,
                    args,
                    interval,
                });
                Ok(())
            }
        }
    }

    /// Head atom, allowing one `agg(Var)` argument.
    fn head_atom(&mut self) -> Result<(Atom, Option<(AggFn, usize)>)> {
        let name = match self.bump() {
            TokenKind::LowerIdent(s) => s,
            other => return Err(self.unexpected("predicate name", &other)),
        };
        self.expect(TokenKind::LParen, "'('")?;
        let mut args = Vec::new();
        let mut aggregate = None;
        if *self.peek() != TokenKind::RParen {
            loop {
                // agg function?
                let is_agg = matches!(self.peek(), TokenKind::LowerIdent(s)
                    if AGG_FUNCS.contains(&s.as_str()))
                    && *self.peek_at(1) == TokenKind::LParen;
                if is_agg {
                    let fun = match self.bump() {
                        TokenKind::LowerIdent(s) => match s.as_str() {
                            "sum" => AggFn::Sum,
                            "count" => AggFn::Count,
                            "min" => AggFn::Min,
                            "max" => AggFn::Max,
                            "avg" => AggFn::Avg,
                            _ => unreachable!("checked above"),
                        },
                        _ => unreachable!("checked above"),
                    };
                    self.expect(TokenKind::LParen, "'('")?;
                    let t = self.term()?;
                    self.expect(TokenKind::RParen, "')'")?;
                    if aggregate.is_some() {
                        return Err(self.err("at most one aggregate per head"));
                    }
                    aggregate = Some((fun, args.len()));
                    args.push(t);
                } else {
                    args.push(self.term()?);
                }
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "')'")?;
        Ok((Atom::new(&name, args), aggregate))
    }

    fn body(&mut self) -> Result<Vec<Literal>> {
        let mut lits = vec![self.literal()?];
        while *self.peek() == TokenKind::Comma {
            self.bump();
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    fn literal(&mut self) -> Result<Literal> {
        if self.eat_lower("not") {
            return Ok(Literal::Neg(self.metric_atom()?));
        }
        if self.starts_metric_atom() {
            return Ok(Literal::Pos(self.metric_atom()?));
        }
        // constraint
        let lhs = self.expr()?;
        let op = match self.bump() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => return Err(self.unexpected("comparison operator", &other)),
        };
        let rhs = self.expr()?;
        Ok(Literal::Constraint(lhs, op, rhs))
    }

    /// Does the next token sequence open a metric atom (as opposed to an
    /// arithmetic constraint)?
    fn starts_metric_atom(&self) -> bool {
        match self.peek() {
            TokenKind::LowerIdent(s) => {
                let s = s.as_str();
                if UNARY_OPS.contains(&s)
                    || s == "since"
                    || s == "until"
                    || s == "top"
                    || s == "bottom"
                {
                    return true;
                }
                if EXPR_FUNCS.contains(&s) {
                    return false;
                }
                *self.peek_at(1) == TokenKind::LParen
            }
            _ => false,
        }
    }

    fn metric_atom(&mut self) -> Result<MetricAtom> {
        match self.peek_lower() {
            Some("boxminus") => {
                self.bump();
                let rho = self.rho_or_default()?;
                Ok(MetricAtom::BoxMinus(rho, Box::new(self.metric_atom()?)))
            }
            Some("boxplus") => {
                self.bump();
                let rho = self.rho_or_default()?;
                Ok(MetricAtom::BoxPlus(rho, Box::new(self.metric_atom()?)))
            }
            Some("diamondminus") => {
                self.bump();
                let rho = self.rho_or_default()?;
                Ok(MetricAtom::DiamondMinus(rho, Box::new(self.metric_atom()?)))
            }
            Some("diamondplus") => {
                self.bump();
                let rho = self.rho_or_default()?;
                Ok(MetricAtom::DiamondPlus(rho, Box::new(self.metric_atom()?)))
            }
            Some("since") | Some("until") => {
                let is_since = self.peek_lower() == Some("since");
                self.bump();
                let rho = self.rho_or_default()?;
                self.expect(TokenKind::LParen, "'('")?;
                let m1 = self.metric_atom()?;
                self.expect(TokenKind::Comma, "','")?;
                let m2 = self.metric_atom()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(if is_since {
                    MetricAtom::Since(Box::new(m1), rho, Box::new(m2))
                } else {
                    MetricAtom::Until(Box::new(m1), rho, Box::new(m2))
                })
            }
            Some("top") => {
                self.bump();
                Ok(MetricAtom::Top)
            }
            Some("bottom") => {
                self.bump();
                Ok(MetricAtom::Bottom)
            }
            _ => Ok(MetricAtom::Rel(self.atom()?)),
        }
    }

    fn atom(&mut self) -> Result<Atom> {
        let name = match self.bump() {
            TokenKind::LowerIdent(s) => s,
            other => return Err(self.unexpected("predicate name", &other)),
        };
        self.expect(TokenKind::LParen, "'('")?;
        let mut args = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                args.push(self.term()?);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "')'")?;
        let mut atom = Atom::new(&name, args);
        if *self.peek() == TokenKind::At {
            self.bump();
            match self.bump() {
                TokenKind::UpperIdent(v) => atom.time_var = Some(Symbol::new(&v)),
                other => return Err(self.unexpected("time-capture variable after '@'", &other)),
            }
        }
        Ok(atom)
    }

    fn term(&mut self) -> Result<Term> {
        match self.bump() {
            TokenKind::UpperIdent(v) => Ok(Term::var(&v)),
            TokenKind::Underscore(_) => {
                self.anon += 1;
                Ok(Term::var(&format!("_anon{}", self.anon)))
            }
            TokenKind::Int(i) => Ok(Term::Val(Value::Int(i))),
            TokenKind::Decimal(d) => Ok(Term::Val(Value::num(
                d.parse::<f64>()
                    .map_err(|_| self.err_bumped("bad decimal"))?,
            ))),
            TokenKind::Str(s) => Ok(Term::Val(Value::sym(&s))),
            TokenKind::Minus => match self.bump() {
                TokenKind::Int(i) => Ok(Term::Val(Value::Int(-i))),
                TokenKind::Decimal(d) => Ok(Term::Val(Value::num(
                    -d.parse::<f64>()
                        .map_err(|_| self.err_bumped("bad decimal"))?,
                ))),
                other => Err(self.unexpected("number after '-'", &other)),
            },
            TokenKind::LowerIdent(s) => match s.as_str() {
                "true" => Ok(Term::Val(Value::Bool(true))),
                "false" => Ok(Term::Val(Value::Bool(false))),
                _ => Ok(Term::Val(Value::sym(&s))),
            },
            other => Err(self.unexpected("term", &other)),
        }
    }

    // -------------------- metric intervals --------------------

    /// Parses `[lo,hi]` / `(lo,hi]` / … after an operator keyword, or
    /// defaults to `[1,1]`. A following `(` is only consumed as an interval
    /// when the lookahead matches `( bound ,`.
    fn rho_or_default(&mut self) -> Result<MetricInterval> {
        let open_paren_is_rho = *self.peek() == TokenKind::LParen && {
            let mut k = 1;
            if matches!(self.peek_at(k), TokenKind::Plus | TokenKind::Minus) {
                k += 1;
            }
            let num = matches!(self.peek_at(k), TokenKind::Int(_) | TokenKind::Decimal(_))
                || matches!(self.peek_at(k), TokenKind::LowerIdent(s) if s == "inf");
            num && *self.peek_at(k + 1) == TokenKind::Comma
        };
        if *self.peek() == TokenKind::LBracket || open_paren_is_rho {
            let iv = self.interval()?;
            MetricInterval::new(iv).map_err(|e| self.err(e))
        } else {
            Ok(MetricInterval::one())
        }
    }

    /// `[a,b]` and friends. Bounds: signed numbers, `inf`, `+inf`, `-inf`.
    fn interval(&mut self) -> Result<Interval> {
        let lo_closed = match self.bump() {
            TokenKind::LBracket => true,
            TokenKind::LParen => false,
            other => return Err(self.unexpected("interval", &other)),
        };
        let lo = self.bound()?;
        // Punctual shorthand `[t]`.
        if lo_closed && *self.peek() == TokenKind::RBracket {
            self.bump();
            return match lo {
                TimeBound::Finite(r) => Ok(Interval::point(r)),
                _ => Err(self.err("punctual interval must be finite")),
            };
        }
        self.expect(TokenKind::Comma, "','")?;
        let hi = self.bound()?;
        let hi_closed = match self.bump() {
            TokenKind::RBracket => true,
            TokenKind::RParen => false,
            other => return Err(self.unexpected("']' or ')'", &other)),
        };
        Interval::new(lo, lo_closed, hi, hi_closed)
            .ok_or_else(|| self.err("empty interval annotation"))
    }

    fn bound(&mut self) -> Result<TimeBound> {
        let mut neg = false;
        if *self.peek() == TokenKind::Minus {
            self.bump();
            neg = true;
        } else if *self.peek() == TokenKind::Plus {
            self.bump();
        }
        match self.bump() {
            TokenKind::Int(i) => Ok(TimeBound::Finite(Rational::integer(if neg {
                -i
            } else {
                i
            }))),
            TokenKind::Decimal(d) => {
                let r: Rational = d
                    .parse()
                    .map_err(|_| self.err_bumped("interval bounds must be exact rationals"))?;
                Ok(TimeBound::Finite(if neg { -r } else { r }))
            }
            TokenKind::LowerIdent(s) if s == "inf" => Ok(if neg {
                TimeBound::NegInf
            } else {
                TimeBound::PosInf
            }),
            other => Err(self.unexpected("interval bound", &other)),
        }
    }

    /// Fact annotation: a bare number means the punctual interval.
    fn annotation(&mut self) -> Result<Interval> {
        match self.peek() {
            TokenKind::LBracket | TokenKind::LParen => self.interval(),
            _ => {
                let b = self.bound()?;
                match b {
                    TimeBound::Finite(r) => Ok(Interval::point(r)),
                    _ => Err(self.err_bumped("punctual annotation must be finite")),
                }
            }
        }
    }

    // -------------------- expressions --------------------

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_mul()?;
        loop {
            match self.peek() {
                TokenKind::Plus => {
                    self.bump();
                    lhs = Expr::Add(Box::new(lhs), Box::new(self.expr_mul()?));
                }
                TokenKind::Minus => {
                    self.bump();
                    lhs = Expr::Sub(Box::new(lhs), Box::new(self.expr_mul()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn expr_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_unary()?;
        loop {
            match self.peek() {
                TokenKind::Star => {
                    self.bump();
                    lhs = Expr::Mul(Box::new(lhs), Box::new(self.expr_unary()?));
                }
                TokenKind::Slash => {
                    self.bump();
                    lhs = Expr::Div(Box::new(lhs), Box::new(self.expr_unary()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn expr_unary(&mut self) -> Result<Expr> {
        if *self.peek() == TokenKind::Minus {
            self.bump();
            return Ok(Expr::Neg(Box::new(self.expr_unary()?)));
        }
        self.expr_primary()
    }

    fn expr_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::UpperIdent(v) => {
                self.bump();
                Ok(Expr::var(&v))
            }
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::val(i))
            }
            TokenKind::Decimal(d) => {
                self.bump();
                Ok(Expr::val(
                    d.parse::<f64>()
                        .map_err(|_| self.err_bumped("bad decimal"))?,
                ))
            }
            TokenKind::LowerIdent(s) if EXPR_FUNCS.contains(&s.as_str()) => {
                self.bump();
                self.expect(TokenKind::LParen, "'('")?;
                let a = self.expr()?;
                let e = match s.as_str() {
                    "abs" => {
                        self.expect(TokenKind::RParen, "')'")?;
                        Expr::Abs(Box::new(a))
                    }
                    "min" | "max" => {
                        self.expect(TokenKind::Comma, "','")?;
                        let b = self.expr()?;
                        self.expect(TokenKind::RParen, "')'")?;
                        if s == "min" {
                            Expr::Min(Box::new(a), Box::new(b))
                        } else {
                            Expr::Max(Box::new(a), Box::new(b))
                        }
                    }
                    _ => unreachable!("EXPR_FUNCS checked"),
                };
                Ok(e)
            }
            TokenKind::LowerIdent(s) => {
                // Bare symbol constant in a comparison (e.g. X = abcSym).
                self.bump();
                match s.as_str() {
                    "true" => Ok(Expr::val(true)),
                    "false" => Ok(Expr::val(false)),
                    _ => Ok(Expr::Term(Term::Val(Value::sym(&s)))),
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_rule() {
        let r = parse_rule("isOpen(A) :- tranM(A, M).").unwrap();
        assert_eq!(r.head.atom.pred, Symbol::new("isOpen"));
        assert_eq!(r.body.len(), 1);
    }

    #[test]
    fn parses_temporal_recursion_rule() {
        let r = parse_rule("isOpen(A) :- boxminus isOpen(A), not withdraw(A).").unwrap();
        assert!(matches!(
            &r.body[0],
            Literal::Pos(MetricAtom::BoxMinus(rho, _)) if *rho == MetricInterval::one()
        ));
        assert!(matches!(&r.body[1], Literal::Neg(MetricAtom::Rel(_))));
    }

    #[test]
    fn parses_explicit_rho() {
        let r = parse_rule("p(X) :- diamondminus[0, 5] q(X).").unwrap();
        match &r.body[0] {
            Literal::Pos(MetricAtom::DiamondMinus(rho, _)) => {
                assert_eq!(*rho, MetricInterval::closed_int(0, 5));
            }
            other => panic!("unexpected literal {other:?}"),
        }
    }

    #[test]
    fn parses_half_open_rho() {
        let r = parse_rule("p(X) :- boxminus(0, 5] q(X).").unwrap();
        match &r.body[0] {
            Literal::Pos(MetricAtom::BoxMinus(rho, _)) => {
                assert!(!rho.as_interval().lo_closed());
                assert!(rho.as_interval().hi_closed());
            }
            other => panic!("unexpected literal {other:?}"),
        }
    }

    #[test]
    fn parses_since_until() {
        let r = parse_rule("p(X) :- since[1, 2](q(X), r(X)).").unwrap();
        assert!(matches!(
            &r.body[0],
            Literal::Pos(MetricAtom::Since(_, _, _))
        ));
        let r = parse_rule("p(X) :- until(q(X), r(X)).").unwrap();
        assert!(matches!(
            &r.body[0],
            Literal::Pos(MetricAtom::Until(_, _, _))
        ));
    }

    #[test]
    fn parses_constraints_and_arithmetic() {
        let r = parse_rule("m(A, M) :- mg(A, X), tr(A, Y), M = X + Y.").unwrap();
        match &r.body[2] {
            Literal::Constraint(lhs, CmpOp::Eq, rhs) => {
                assert_eq!(lhs.to_string(), "M");
                assert_eq!(rhs.to_string(), "(X + Y)");
            }
            other => panic!("unexpected literal {other:?}"),
        }
        let r = parse_rule("c(I) :- rate(I), I > 1, J = -I / 2 * abs(I).").unwrap();
        assert_eq!(r.body.len(), 3);
    }

    #[test]
    fn parses_aggregate_head() {
        let r = parse_rule("event(sum(S)) :- modPos(A, S).").unwrap();
        assert_eq!(r.head.aggregate, Some((AggFn::Sum, 0)));
        let r = parse_rule("tally(G, count(S)) :- obs(G, S).").unwrap();
        assert_eq!(r.head.aggregate, Some((AggFn::Count, 1)));
        assert_eq!(r.head.atom.arity(), 2);
    }

    #[test]
    fn parses_head_operators() {
        let r = parse_rule("boxplus[0, 3] alarm(X) :- spike(X).").unwrap();
        assert_eq!(r.head.ops.len(), 1);
        assert!(matches!(r.head.ops[0], HeadOp::BoxPlus(_)));
    }

    #[test]
    fn parses_time_capture() {
        let r = parse_rule("tdiff(T, T) :- start()@T.").unwrap();
        match &r.body[0] {
            Literal::Pos(MetricAtom::Rel(a)) => {
                assert_eq!(a.time_var, Some(Symbol::new("T")));
            }
            other => panic!("unexpected literal {other:?}"),
        }
    }

    #[test]
    fn parses_facts() {
        let facts = parse_facts(
            "price(1362.5)@100.\n\
             tranM(acc1, 20.0)@[3, 7].\n\
             skew(-2445.98)@(0, inf).\n\
             flag(true).",
        )
        .unwrap();
        assert_eq!(facts.len(), 4);
        assert_eq!(facts[0].interval, Interval::at(100));
        assert_eq!(facts[1].interval, Interval::closed_int(3, 7));
        assert!(!facts[2].interval.hi().is_finite());
        assert_eq!(facts[3].interval, Interval::ALL);
        assert_eq!(facts[1].args[0], Value::sym("acc1"));
    }

    #[test]
    fn anonymous_variables_are_renamed_apart() {
        let r = parse_rule("p(X) :- q(X, _), r(_, X).").unwrap();
        let a1 = match &r.body[0] {
            Literal::Pos(MetricAtom::Rel(a)) => a.args[1],
            _ => panic!("expected atom"),
        };
        let a2 = match &r.body[1] {
            Literal::Pos(MetricAtom::Rel(a)) => a.args[0],
            _ => panic!("expected atom"),
        };
        assert_ne!(a1, a2);
    }

    #[test]
    fn mixed_source_splits_rules_and_facts() {
        let (p, f) = parse_source("p(X) :- q(X).\nq(a)@1.\nq(b)@2.").unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn rejects_negative_rho() {
        assert!(parse_rule("p(X) :- boxminus[-1, 2] q(X).").is_err());
    }

    #[test]
    fn rejects_non_ground_fact() {
        assert!(parse_facts("p(X)@1.").is_err());
    }

    #[test]
    fn rejects_two_aggregates() {
        assert!(parse_rule("e(sum(S), sum(T)) :- o(S, T).").is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        // A token found wrong where it is peeked, and tokens found wrong
        // after they were taken: each error names its own token's column.
        for (src, at) in [
            ("p(X) :- q(X) r(X).", (1, 14)),
            ("p(X) :- q(X,).", (1, 13)),
            ("p(X) :- q(X), X, q(X).", (1, 16)),
            ("p(X) :-\n  q(X)@3.", (2, 8)),
            ("p(X) :- diamondminus[0, 1[ q(X).", (1, 26)),
            ("7(X) :- q(X).", (1, 1)),
            ("p(a)@inf.", (1, 6)),
        ] {
            match parse_source(src).unwrap_err() {
                Error::Parse { line, col, .. } => assert_eq!((line, col), at, "{src}"),
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn top_and_bottom() {
        let r = parse_rule("p(X) :- q(X), not bottom.").unwrap();
        assert!(matches!(&r.body[1], Literal::Neg(MetricAtom::Bottom)));
    }

    #[test]
    fn display_then_reparse_is_stable() {
        let src = "margin(A, M) :- diamondminus margin(A, X), tranM(A, Y), M = X + Y, boxminus isOpen(A).";
        let r1 = parse_rule(src).unwrap();
        let r2 = parse_rule(&r1.to_string()).unwrap();
        assert_eq!(r1.head, r2.head);
        assert_eq!(r1.body.len(), r2.body.len());
    }
}
