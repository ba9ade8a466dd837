//! Abstract syntax of DatalogMTL programs, following §2.1 of the paper plus
//! the Vadalog practical extensions the ETH-PERP encoding relies on:
//! arithmetic/comparison built-ins, temporal aggregation heads, anonymous
//! variables, and `@T` time capture (the `unix(t)` promotion).

use crate::symbol::Symbol;
use crate::value::Value;
use mtl_temporal::{Interval, MetricInterval};
use std::fmt;

/// A term: a variable or a ground value. Anonymous variables (`_`) are
/// renamed apart at parse time and are therefore ordinary variables here.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable, named by its interned identifier.
    Var(Symbol),
    /// A ground value.
    Val(Value),
}

impl Term {
    /// Variable constructor.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::new(name))
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Val(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Val(v) => write!(f, "{v}"),
        }
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Term {
        Term::Val(v)
    }
}

/// A relational atom `P(t1, …, tn)`, optionally carrying a time-capture
/// variable (`P(s)@T` — a Vadalog extension binding `T` to the time point of
/// a punctual fact, used by the ETH-PERP rules 23–25 in place of `unix(t)`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// Predicate name.
    pub pred: Symbol,
    /// Argument terms.
    pub args: Vec<Term>,
    /// Optional `@T` time-capture variable.
    pub time_var: Option<Symbol>,
}

impl Atom {
    /// Plain atom constructor.
    pub fn new(pred: &str, args: Vec<Term>) -> Atom {
        Atom {
            pred: Symbol::new(pred),
            args,
            time_var: None,
        }
    }

    /// Atom with an `@T` capture.
    pub fn with_time(pred: &str, args: Vec<Term>, time_var: &str) -> Atom {
        Atom {
            pred: Symbol::new(pred),
            args,
            time_var: Some(Symbol::new(time_var)),
        }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// All variables occurring in the atom (including the capture).
    pub fn variables(&self) -> Vec<Symbol> {
        let mut vs: Vec<Symbol> = self.args.iter().filter_map(Term::as_var).collect();
        if let Some(t) = self.time_var {
            vs.push(t);
        }
        vs
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if let Some(t) = self.time_var {
            write!(f, "@{t}")?;
        }
        Ok(())
    }
}

/// A metric atom: a relational atom under a (possibly nested) tree of MTL
/// operators, per the grammar of §2.1.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MetricAtom {
    /// `⊤` — true at every time point (of the reasoning horizon).
    Top,
    /// `⊥` — true nowhere.
    Bottom,
    /// A relational atom.
    Rel(Atom),
    /// `⊟ρ M` — `M` held continuously throughout the past window `ρ`.
    BoxMinus(MetricInterval, Box<MetricAtom>),
    /// `⊞ρ M` — `M` holds continuously throughout the future window `ρ`.
    BoxPlus(MetricInterval, Box<MetricAtom>),
    /// `◇⁻ρ M` — `M` held at some point in the past window `ρ`.
    DiamondMinus(MetricInterval, Box<MetricAtom>),
    /// `◇⁺ρ M` — `M` holds at some point in the future window `ρ`.
    DiamondPlus(MetricInterval, Box<MetricAtom>),
    /// `M1 S_ρ M2` — Since.
    Since(Box<MetricAtom>, MetricInterval, Box<MetricAtom>),
    /// `M1 U_ρ M2` — Until.
    Until(Box<MetricAtom>, MetricInterval, Box<MetricAtom>),
}

impl MetricAtom {
    /// Convenience: `⊟[1,1] atom` (the pervasive ETH-PERP shift).
    pub fn box_minus_one(atom: Atom) -> MetricAtom {
        MetricAtom::BoxMinus(MetricInterval::one(), Box::new(MetricAtom::Rel(atom)))
    }

    /// Convenience: `◇⁻[1,1] atom`.
    pub fn diamond_minus_one(atom: Atom) -> MetricAtom {
        MetricAtom::DiamondMinus(MetricInterval::one(), Box::new(MetricAtom::Rel(atom)))
    }

    /// All relational atoms in the operator tree.
    pub fn atoms(&self) -> Vec<&Atom> {
        match self {
            MetricAtom::Top | MetricAtom::Bottom => vec![],
            MetricAtom::Rel(a) => vec![a],
            MetricAtom::BoxMinus(_, m)
            | MetricAtom::BoxPlus(_, m)
            | MetricAtom::DiamondMinus(_, m)
            | MetricAtom::DiamondPlus(_, m) => m.atoms(),
            MetricAtom::Since(m1, _, m2) | MetricAtom::Until(m1, _, m2) => {
                let mut v = m1.atoms();
                v.extend(m2.atoms());
                v
            }
        }
    }

    /// All variables in the operator tree.
    pub fn variables(&self) -> Vec<Symbol> {
        self.atoms().iter().flat_map(|a| a.variables()).collect()
    }
}

impl fmt::Display for MetricAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rho_str(rho: &MetricInterval) -> String {
            if *rho == MetricInterval::one() {
                String::new()
            } else {
                rho.to_string()
            }
        }
        match self {
            MetricAtom::Top => write!(f, "top"),
            MetricAtom::Bottom => write!(f, "bottom"),
            MetricAtom::Rel(a) => write!(f, "{a}"),
            MetricAtom::BoxMinus(r, m) => write!(f, "boxminus{} {m}", rho_str(r)),
            MetricAtom::BoxPlus(r, m) => write!(f, "boxplus{} {m}", rho_str(r)),
            MetricAtom::DiamondMinus(r, m) => write!(f, "diamondminus{} {m}", rho_str(r)),
            MetricAtom::DiamondPlus(r, m) => write!(f, "diamondplus{} {m}", rho_str(r)),
            MetricAtom::Since(a, r, b) => write!(f, "since{}({a}, {b})", rho_str(r)),
            MetricAtom::Until(a, r, b) => write!(f, "until{}({a}, {b})", rho_str(r)),
        }
    }
}

/// Comparison operators of built-in constraints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=` — equality, or assignment when the left side is an unbound variable.
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// An arithmetic expression over terms, used in built-in constraints.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A term (variable or constant).
    Term(Term),
    /// `a + b`
    Add(Box<Expr>, Box<Expr>),
    /// `a - b`
    Sub(Box<Expr>, Box<Expr>),
    /// `a * b`
    Mul(Box<Expr>, Box<Expr>),
    /// `a / b`
    Div(Box<Expr>, Box<Expr>),
    /// `-a`
    Neg(Box<Expr>),
    /// `abs(a)` (also written `|a|` conceptually in the paper's fee rules).
    Abs(Box<Expr>),
    /// `min(a, b)`
    Min(Box<Expr>, Box<Expr>),
    /// `max(a, b)`
    Max(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Term(Term::var(name))
    }

    /// A constant expression.
    pub fn val(v: impl Into<Value>) -> Expr {
        Expr::Term(Term::Val(v.into()))
    }

    /// All variables in the expression.
    pub fn variables(&self) -> Vec<Symbol> {
        match self {
            Expr::Term(t) => t.as_var().into_iter().collect(),
            Expr::Neg(a) | Expr::Abs(a) => a.variables(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                let mut v = a.variables();
                v.extend(b.variables());
                v
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
            Expr::Abs(a) => write!(f, "abs({a})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

/// A body literal.
#[derive(Clone, PartialEq, Debug)]
pub enum Literal {
    /// A positive metric atom.
    Pos(MetricAtom),
    /// A negated metric atom (stratified; unbound variables are read as a
    /// negated existential).
    Neg(MetricAtom),
    /// A built-in constraint `lhs op rhs`; `X = expr` with `X` unbound acts
    /// as an assignment.
    Constraint(Expr, CmpOp, Expr),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(m) => write!(f, "{m}"),
            Literal::Neg(m) => write!(f, "not {m}"),
            Literal::Constraint(a, op, b) => write!(f, "{a} {op} {b}"),
        }
    }
}

/// Temporal aggregation functions (Vadalog-style stratified monotonic
/// aggregation; see Bellomarini–Nissl–Sallinger 2021).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFn {
    /// Temporal sum.
    Sum,
    /// Count of contributions.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFn::Sum => "sum",
            AggFn::Count => "count",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// Head temporal operator (the grammar restricts heads to `⊟`/`⊞` chains).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HeadOp {
    /// `⊟ρ` in the head: the derived atom is spread backwards over `ρ`.
    BoxMinus(MetricInterval),
    /// `⊞ρ` in the head: spread forwards over `ρ`.
    BoxPlus(MetricInterval),
}

/// A rule head: an atom wrapped in zero or more `⊟/⊞` operators, where at
/// most one argument position may be an aggregate (e.g. `event(sum(S))`).
#[derive(Clone, PartialEq, Debug)]
pub struct Head {
    /// The head atom; when `aggregate` is set, `atom.args[agg_pos]` is the
    /// aggregated variable/expression argument.
    pub atom: Atom,
    /// Operator chain, outermost first.
    pub ops: Vec<HeadOp>,
    /// Aggregation: function and the argument position it applies to.
    pub aggregate: Option<(AggFn, usize)>,
}

impl Head {
    /// Plain head.
    pub fn plain(atom: Atom) -> Head {
        Head {
            atom,
            ops: Vec::new(),
            aggregate: None,
        }
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            match op {
                HeadOp::BoxMinus(r) => write!(f, "boxminus{r} ")?,
                HeadOp::BoxPlus(r) => write!(f, "boxplus{r} ")?,
            }
        }
        if let Some((fun, pos)) = &self.aggregate {
            write!(f, "{}(", self.atom.pred)?;
            for (i, a) in self.atom.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if i == *pos {
                    write!(f, "{fun}({a})")?;
                } else {
                    write!(f, "{a}")?;
                }
            }
            write!(f, ")")
        } else {
            write!(f, "{}", self.atom)
        }
    }
}

/// A rule `body → head`.
#[derive(Clone, PartialEq, Debug)]
pub struct Rule {
    /// The rule head.
    pub head: Head,
    /// The body literals.
    pub body: Vec<Literal>,
    /// Optional label (e.g. the paper's rule number) used in explanations
    /// and error messages.
    pub label: Option<String>,
}

impl Rule {
    /// Builds a rule with a label.
    pub fn labeled(label: &str, head: Head, body: Vec<Literal>) -> Rule {
        Rule {
            head,
            body,
            label: Some(label.to_string()),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A temporal fact `P(v̄)@ρ`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fact {
    /// Predicate name.
    pub pred: Symbol,
    /// Ground arguments.
    pub args: Vec<Value>,
    /// Validity interval.
    pub interval: Interval,
}

impl Fact {
    /// A fact holding at a single integer time point.
    pub fn at(pred: &str, args: Vec<Value>, t: i64) -> Fact {
        Fact {
            pred: Symbol::new(pred),
            args,
            interval: Interval::at(t),
        }
    }

    /// A fact holding over an interval.
    pub fn over(pred: &str, args: Vec<Value>, interval: Interval) -> Fact {
        Fact {
            pred: Symbol::new(pred),
            args,
            interval,
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")@{}", self.interval)
    }
}

/// A DatalogMTL program: a finite set of safe rules.
#[derive(Clone, Default, Debug)]
pub struct Program {
    /// The rules, in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Program {
        Program { rules: Vec::new() }
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// All predicates appearing in rule heads (the IDB).
    pub fn head_predicates(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.rules.iter().map(|r| r.head.atom.pred).collect();
        v.sort();
        v.dedup();
        v
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            if let Some(l) = &r.label {
                writeln!(f, "% {l}")?;
            }
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display_and_vars() {
        let a = Atom::with_time("event", vec![Term::var("S"), Term::Val(Value::Int(3))], "T");
        assert_eq!(a.to_string(), "event(S, 3)@T");
        let vars = a.variables();
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn metric_atom_collects_nested_atoms() {
        let m = MetricAtom::Since(
            Box::new(MetricAtom::Rel(Atom::new("p", vec![Term::var("X")]))),
            MetricInterval::one(),
            Box::new(MetricAtom::diamond_minus_one(Atom::new(
                "q",
                vec![Term::var("Y")],
            ))),
        );
        assert_eq!(m.atoms().len(), 2);
        assert_eq!(m.variables().len(), 2);
    }

    #[test]
    fn rule_display_roundtrip_shape() {
        let rule = Rule::labeled(
            "r2",
            Head::plain(Atom::new("isOpen", vec![Term::var("A")])),
            vec![
                Literal::Pos(MetricAtom::box_minus_one(Atom::new(
                    "isOpen",
                    vec![Term::var("A")],
                ))),
                Literal::Neg(MetricAtom::Rel(Atom::new("withdraw", vec![Term::var("A")]))),
            ],
        );
        assert_eq!(
            rule.to_string(),
            "isOpen(A) :- boxminus isOpen(A), not withdraw(A)."
        );
    }

    #[test]
    fn expr_variables() {
        let e = Expr::Add(
            Box::new(Expr::var("X")),
            Box::new(Expr::Mul(
                Box::new(Expr::var("Y")),
                Box::new(Expr::val(2i64)),
            )),
        );
        assert_eq!(e.variables().len(), 2);
        assert_eq!(e.to_string(), "(X + (Y * 2))");
    }

    #[test]
    fn aggregate_head_display() {
        let h = Head {
            atom: Atom::new("event", vec![Term::var("S")]),
            ops: vec![],
            aggregate: Some((AggFn::Sum, 0)),
        };
        assert_eq!(h.to_string(), "event(sum(S))");
    }
}
