//! Recursive-descent parser for ASL.
//!
//! Implements the property grammar of Figure 1 of the paper and the class
//! syntax of its §4.1 examples, plus the documented extensions (enums,
//! `EXISTS`/`FORALL`, `COUNT`, comments).
//!
//! ## Disambiguation notes
//!
//! The paper's grammar has two ambiguities the parser resolves with bounded
//! lookahead:
//!
//! * **Condition identifiers vs parenthesized expressions.** `(c1) x > 0`
//!   starts a condition labelled `c1`, whereas `(x) > 0` is a parenthesized
//!   expression. A `(Ident)` prefix is only treated as a condition id when
//!   the token *after* the closing paren can start an expression (identifier,
//!   literal, `(`, `{`, `NOT`, `-`, or an aggregate keyword), not when it is
//!   a binary operator.
//! * **`MAX` combiner vs `MAX` aggregate.** `SEVERITY: MAX((c1)->e1, (c2)->e2);`
//!   uses the arm combiner; `SEVERITY: MAX(s.T WHERE s IN r.X);` is the
//!   aggregate. The combiner form is chosen iff a `->` occurs at parenthesis
//!   depth 1 before the matching `)`.
//!
//! Top-level `OR`-separated unlabelled conditions (allowed by Figure 1) fold
//! into a single boolean `OR` expression; this is semantically identical
//! because unlabelled conditions cannot be referenced by guards.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parse an ASL source string into a [`Specification`].
pub fn parse(source: &str) -> Result<Specification, Diagnostics> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let spec = p.specification();
    if p.diags.has_errors() {
        Err(p.diags)
    } else {
        Ok(spec)
    }
}

/// Parse a single expression (used by tests and by the SQL lowering tests).
pub fn parse_expr(source: &str) -> Result<Expr, Diagnostics> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    let e = p.expr();
    p.expect(&TokenKind::Eof);
    if p.diags.has_errors() {
        Err(p.diags)
    } else {
        Ok(e)
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
}

/// A top-level item starting with `Type Name`: function or constant.
enum ItemFC {
    Function(FunctionDecl),
    Const(ConstDecl),
}

/// Dummy expression inserted at error sites so parsing can continue.
fn error_expr(span: Span) -> Expr {
    Expr::new(ExprKind::IntLit(0), span)
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            diags: Diagnostics::new(),
        }
    }

    // ---- token utilities ------------------------------------------------

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

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
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
            let found = self.peek().describe();
            let span = self.span();
            self.diags.push(Diagnostic::error(
                span,
                format!("expected {}, found {}", kind.describe(), found),
            ));
            false
        }
    }

    fn ident(&mut self) -> Option<Ident> {
        if let TokenKind::Ident(name) = self.peek().clone() {
            let span = self.span();
            self.bump();
            Some(Ident::new(name, span))
        } else {
            let span = self.span();
            let found = self.peek().describe();
            self.diags.push(Diagnostic::error(
                span,
                format!("expected identifier, found {found}"),
            ));
            None
        }
    }

    /// Skip forward to a plausible item boundary after an error.
    fn synchronize_item(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    if depth <= 1 {
                        self.bump();
                        self.eat(&TokenKind::Semi);
                        return;
                    }
                    depth -= 1;
                    self.bump();
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::Class | TokenKind::Enum | TokenKind::Property if depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- items ----------------------------------------------------------

    fn specification(&mut self) -> Specification {
        let mut spec = Specification::default();
        while !self.at(&TokenKind::Eof) {
            let before = self.pos;
            let errors_before = self.diags.len();
            match self.peek() {
                TokenKind::Class => {
                    if let Some(c) = self.class_decl() {
                        spec.classes.push(c);
                    }
                }
                TokenKind::Enum => {
                    if let Some(e) = self.enum_decl() {
                        spec.enums.push(e);
                    }
                }
                TokenKind::Property => {
                    if let Some(p) = self.property_decl() {
                        spec.properties.push(p);
                    }
                }
                TokenKind::Ident(_) | TokenKind::Setof => {
                    // `Type Name(params) = …;` is a function;
                    // `Type Name = …;` is a global constant (extension).
                    match self.function_or_const() {
                        Some(ItemFC::Function(f)) => spec.functions.push(f),
                        Some(ItemFC::Const(c)) => spec.constants.push(c),
                        None => {}
                    }
                }
                other => {
                    let msg = format!(
                        "expected `class`, `enum`, `PROPERTY` or a function definition, found {}",
                        other.describe()
                    );
                    let span = self.span();
                    self.diags.push(Diagnostic::error(span, msg));
                    self.bump();
                }
            }
            if self.diags.len() > errors_before {
                self.synchronize_item();
            }
            if self.pos == before && !self.at(&TokenKind::Eof) {
                // Safety net: guarantee progress.
                self.bump();
            }
        }
        spec
    }

    fn type_expr(&mut self) -> Option<TypeExpr> {
        let start = self.span();
        if self.eat(&TokenKind::Setof) {
            let elem = self.ident()?;
            let span = start.merge(elem.span);
            Some(TypeExpr {
                kind: TypeExprKind::Setof(elem.name),
                span,
            })
        } else {
            let name = self.ident()?;
            Some(TypeExpr {
                span: name.span,
                kind: TypeExprKind::Named(name.name),
            })
        }
    }

    fn class_decl(&mut self) -> Option<ClassDecl> {
        let start = self.span();
        self.expect(&TokenKind::Class);
        let name = self.ident()?;
        let base = if self.eat(&TokenKind::Extends) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(&TokenKind::LBrace);
        let mut attrs = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let astart = self.span();
            let ty = self.type_expr()?;
            let aname = self.ident()?;
            self.expect(&TokenKind::Semi);
            attrs.push(AttrDecl {
                ty,
                name: aname,
                span: astart.merge(self.prev_span()),
            });
        }
        self.expect(&TokenKind::RBrace);
        self.eat(&TokenKind::Semi); // tolerate `};`
        Some(ClassDecl {
            name,
            base,
            attrs,
            span: start.merge(self.prev_span()),
        })
    }

    fn enum_decl(&mut self) -> Option<EnumDecl> {
        let start = self.span();
        self.expect(&TokenKind::Enum);
        let name = self.ident()?;
        self.expect(&TokenKind::LBrace);
        let mut variants = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            variants.push(self.ident()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBrace);
        self.eat(&TokenKind::Semi);
        Some(EnumDecl {
            name,
            variants,
            span: start.merge(self.prev_span()),
        })
    }

    fn param_list(&mut self) -> Option<Vec<Param>> {
        self.expect(&TokenKind::LParen);
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let pstart = self.span();
                let ty = self.type_expr()?;
                let name = self.ident()?;
                params.push(Param {
                    ty,
                    name,
                    span: pstart.merge(self.prev_span()),
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen);
        Some(params)
    }

    fn function_or_const(&mut self) -> Option<ItemFC> {
        let start = self.span();
        let ret_ty = self.type_expr()?;
        let name = self.ident()?;
        if self.at(&TokenKind::Assign) {
            self.bump();
            let value = self.expr();
            self.expect(&TokenKind::Semi);
            return Some(ItemFC::Const(ConstDecl {
                ty: ret_ty,
                name,
                value,
                span: start.merge(self.prev_span()),
            }));
        }
        let params = self.param_list()?;
        self.expect(&TokenKind::Assign);
        let body = self.expr();
        self.expect(&TokenKind::Semi);
        Some(ItemFC::Function(FunctionDecl {
            ret_ty,
            name,
            params,
            body,
            span: start.merge(self.prev_span()),
        }))
    }

    // ---- properties -----------------------------------------------------

    fn property_decl(&mut self) -> Option<PropertyDecl> {
        let start = self.span();
        self.expect(&TokenKind::Property);
        let name = self.ident()?;
        let params = self.param_list()?;
        self.expect(&TokenKind::LBrace);

        let mut lets = Vec::new();
        if self.eat(&TokenKind::Let) {
            loop {
                let lstart = self.span();
                let ty = self.type_expr()?;
                let lname = self.ident()?;
                self.expect(&TokenKind::Assign);
                let value = self.expr();
                lets.push(LetDef {
                    ty,
                    name: lname,
                    value,
                    span: lstart.merge(self.prev_span()),
                });
                // Definitions are `;`-separated; the list ends at `IN`.
                let had_semi = self.eat(&TokenKind::Semi);
                if self.eat(&TokenKind::In) {
                    break;
                }
                if !had_semi {
                    let span = self.span();
                    let found = self.peek().describe();
                    self.diags.push(Diagnostic::error(
                        span,
                        format!("expected `;` or `IN` after LET definition, found {found}"),
                    ));
                    return None;
                }
            }
        }

        self.expect(&TokenKind::Condition);
        self.expect(&TokenKind::Colon);
        let conditions = self.condition_list();
        self.expect(&TokenKind::Semi);

        self.expect(&TokenKind::Confidence);
        self.expect(&TokenKind::Colon);
        let confidence = self.arm_spec();
        self.expect(&TokenKind::Semi);

        self.expect(&TokenKind::Severity);
        self.expect(&TokenKind::Colon);
        let severity = self.arm_spec();
        self.expect(&TokenKind::Semi);

        self.expect(&TokenKind::RBrace);
        self.eat(&TokenKind::Semi); // Figure 1 writes `};`; plain `}` accepted too

        Some(PropertyDecl {
            name,
            params,
            lets,
            conditions,
            confidence,
            severity,
            span: start.merge(self.prev_span()),
        })
    }

    /// Is the upcoming `( Ident )` a condition-id prefix (as opposed to a
    /// parenthesized variable expression)?
    fn at_cond_id(&self) -> bool {
        if !matches!(self.peek(), TokenKind::LParen) {
            return false;
        }
        if !matches!(self.peek_at(1), TokenKind::Ident(_)) {
            return false;
        }
        if !matches!(self.peek_at(2), TokenKind::RParen) {
            return false;
        }
        // `(x) > 0` must parse as expression: only accept the prefix when an
        // expression *starts* right after the `)`.
        matches!(
            self.peek_at(3),
            TokenKind::Ident(_)
                | TokenKind::Int(_)
                | TokenKind::Float(_)
                | TokenKind::Str(_)
                | TokenKind::True
                | TokenKind::False
                | TokenKind::LParen
                | TokenKind::LBrace
                | TokenKind::Not
                | TokenKind::Minus
                | TokenKind::Unique
                | TokenKind::Sum
                | TokenKind::Min
                | TokenKind::Max
                | TokenKind::Avg
                | TokenKind::Count
                | TokenKind::Exists
                | TokenKind::Forall
        )
    }

    fn condition_list(&mut self) -> Vec<Condition> {
        let mut conditions = Vec::new();
        loop {
            let cstart = self.span();
            let id = if self.at_cond_id() {
                self.bump(); // (
                let id = self.ident();
                self.bump(); // )
                id
            } else {
                None
            };
            // When the condition is labelled, a top-level `OR` followed by a
            // new label starts the next condition; inside the expression the
            // usual OR still binds.
            let expr = self.or_expr_stopping_at_labelled_or();
            conditions.push(Condition {
                id,
                span: cstart.merge(expr.span),
                expr,
            });
            if self.at(&TokenKind::Or) && self.lookahead_labelled_or() {
                self.bump(); // OR
                continue;
            }
            break;
        }
        conditions
    }

    /// Check whether `OR` at the current position is followed by a
    /// condition-id prefix, i.e. separates two labelled conditions.
    fn lookahead_labelled_or(&self) -> bool {
        debug_assert!(self.at(&TokenKind::Or));
        matches!(self.peek_at(1), TokenKind::LParen)
            && matches!(self.peek_at(2), TokenKind::Ident(_))
            && matches!(self.peek_at(3), TokenKind::RParen)
            && !matches!(
                self.peek_at(4),
                TokenKind::Semi
                    | TokenKind::Eof
                    | TokenKind::Star
                    | TokenKind::Slash
                    | TokenKind::Plus
                    | TokenKind::Minus
                    | TokenKind::EqEq
                    | TokenKind::NotEq
                    | TokenKind::Lt
                    | TokenKind::Le
                    | TokenKind::Gt
                    | TokenKind::Ge
            )
    }

    /// Parse an OR-level expression, but stop before an `OR` that separates
    /// labelled conditions.
    fn or_expr_stopping_at_labelled_or(&mut self) -> Expr {
        let mut lhs = self.and_expr();
        while self.at(&TokenKind::Or) {
            if self.lookahead_labelled_or() {
                break;
            }
            self.bump();
            let rhs = self.and_expr();
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        lhs
    }

    fn arm_spec(&mut self) -> ArmSpec {
        let start = self.span();
        // `MAX(...)` combiner iff a `->` occurs at depth 1 before the close.
        if self.at(&TokenKind::Max)
            && matches!(self.peek_at(1), TokenKind::LParen)
            && self.max_paren_contains_arrow()
        {
            self.bump(); // MAX
            self.bump(); // (
            let mut arms = Vec::new();
            loop {
                arms.push(self.arm());
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen);
            ArmSpec {
                is_max: true,
                arms,
                span: start.merge(self.prev_span()),
            }
        } else {
            let arm = self.arm();
            ArmSpec {
                is_max: false,
                span: start.merge(arm.span),
                arms: vec![arm],
            }
        }
    }

    /// Lookahead: does the parenthesized group after `MAX` contain a `->` at
    /// depth 1 (making it the arm-list combiner rather than an aggregate)?
    fn max_paren_contains_arrow(&self) -> bool {
        let mut i = self.pos + 1; // at `(`
        let mut depth = 0usize;
        while i < self.tokens.len() {
            match &self.tokens[i].kind {
                TokenKind::LParen | TokenKind::LBrace => depth += 1,
                TokenKind::RParen | TokenKind::RBrace => {
                    if depth == 1 {
                        return false;
                    }
                    depth -= 1;
                }
                TokenKind::Arrow if depth == 1 => return true,
                TokenKind::Eof => return false,
                _ => {}
            }
            i += 1;
        }
        false
    }

    fn arm(&mut self) -> Arm {
        let start = self.span();
        // `(cond-id) -> expr`
        if matches!(self.peek(), TokenKind::LParen)
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(self.peek_at(2), TokenKind::RParen)
            && matches!(self.peek_at(3), TokenKind::Arrow)
        {
            self.bump(); // (
            let guard = self.ident();
            self.bump(); // )
            self.bump(); // ->
            let expr = self.expr();
            Arm {
                guard,
                span: start.merge(expr.span),
                expr,
            }
        } else {
            let expr = self.expr();
            Arm {
                guard: None,
                span: start.merge(expr.span),
                expr,
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Full expression (OR precedence level).
    pub(crate) fn expr(&mut self) -> Expr {
        let mut lhs = self.and_expr();
        while self.eat(&TokenKind::Or) {
            let rhs = self.and_expr();
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        lhs
    }

    fn and_expr(&mut self) -> Expr {
        let mut lhs = self.not_expr();
        while self.eat(&TokenKind::And) {
            let rhs = self.not_expr();
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(
                ExprKind::Binary(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            );
        }
        lhs
    }

    fn not_expr(&mut self) -> Expr {
        if self.at(&TokenKind::Not) {
            let start = self.span();
            self.bump();
            let inner = self.not_expr();
            let span = start.merge(inner.span);
            Expr::new(ExprKind::Unary(UnOp::Not, Box::new(inner)), span)
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Expr {
        let lhs = self.additive();
        let op = match self.peek() {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive();
            let span = lhs.span.merge(rhs.span);
            Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span)
        } else {
            lhs
        }
    }

    fn additive(&mut self) -> Expr {
        let mut lhs = self.multiplicative();
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative();
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        lhs
    }

    fn multiplicative(&mut self) -> Expr {
        let mut lhs = self.unary();
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary();
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), span);
        }
        lhs
    }

    fn unary(&mut self) -> Expr {
        if self.at(&TokenKind::Minus) {
            let start = self.span();
            self.bump();
            let inner = self.unary();
            let span = start.merge(inner.span);
            Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(inner)), span)
        } else {
            self.postfix()
        }
    }

    fn postfix(&mut self) -> Expr {
        let mut e = self.primary();
        loop {
            if self.eat(&TokenKind::Dot) {
                if let Some(attr) = self.ident() {
                    let span = e.span.merge(attr.span);
                    e = Expr::new(ExprKind::Attr(Box::new(e), attr), span);
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        e
    }

    fn primary(&mut self) -> Expr {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Expr::new(ExprKind::IntLit(v), start)
            }
            TokenKind::Float(v) => {
                self.bump();
                Expr::new(ExprKind::FloatLit(v), start)
            }
            TokenKind::Str(s) => {
                self.bump();
                Expr::new(ExprKind::StrLit(s), start)
            }
            TokenKind::True => {
                self.bump();
                Expr::new(ExprKind::BoolLit(true), start)
            }
            TokenKind::False => {
                self.bump();
                Expr::new(ExprKind::BoolLit(false), start)
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr();
                self.expect(&TokenKind::RParen);
                Expr::new(inner.kind, start.merge(self.prev_span()))
            }
            TokenKind::LBrace => self.set_comprehension(),
            TokenKind::Unique => {
                self.bump();
                self.expect(&TokenKind::LParen);
                let inner = self.expr();
                self.expect(&TokenKind::RParen);
                Expr::new(
                    ExprKind::Unique(Box::new(inner)),
                    start.merge(self.prev_span()),
                )
            }
            TokenKind::Sum => self.aggregate(AggOp::Sum),
            TokenKind::Min => self.aggregate(AggOp::Min),
            TokenKind::Max => self.aggregate(AggOp::Max),
            TokenKind::Avg => self.aggregate(AggOp::Avg),
            TokenKind::Count => self.aggregate(AggOp::Count),
            TokenKind::Exists => self.quantifier(Quant::Exists),
            TokenKind::Forall => self.quantifier(Quant::Forall),
            TokenKind::Ident(name) => {
                self.bump();
                let id = Ident::new(name, start);
                if self.at(&TokenKind::LParen) {
                    self.bump();
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
                    Expr::new(ExprKind::Call(id, args), start.merge(self.prev_span()))
                } else {
                    Expr::new(ExprKind::Var(id.name), start)
                }
            }
            other => {
                self.diags.push(Diagnostic::error(
                    start,
                    format!("expected expression, found {}", other.describe()),
                ));
                self.bump();
                error_expr(start)
            }
        }
    }

    /// `{ binder IN source WITH pred }`
    fn set_comprehension(&mut self) -> Expr {
        let start = self.span();
        self.expect(&TokenKind::LBrace);
        let binder = match self.ident() {
            Some(b) => b,
            None => {
                self.synchronize_brace();
                return error_expr(start);
            }
        };
        self.expect(&TokenKind::In);
        // The source set is parsed at comparison level so a following
        // `WITH`/`AND` is not swallowed.
        let source = self.comparison();
        self.expect(&TokenKind::With);
        let pred = self.expr();
        self.expect(&TokenKind::RBrace);
        Expr::new(
            ExprKind::SetComp {
                binder,
                source: Box::new(source),
                pred: Box::new(pred),
            },
            start.merge(self.prev_span()),
        )
    }

    fn synchronize_brace(&mut self) {
        let mut depth = 1usize;
        while depth > 0 && !self.at(&TokenKind::Eof) {
            match self.peek() {
                TokenKind::LBrace => depth += 1,
                TokenKind::RBrace => depth -= 1,
                _ => {}
            }
            self.bump();
        }
    }

    /// `AGG( value WHERE binder IN source [AND pred] )`, or for `COUNT` and
    /// `MIN`/`MAX` also the plain forms `COUNT(set)` / `MAX(a, b, …)`.
    fn aggregate(&mut self, op: AggOp) -> Expr {
        let start = self.span();
        let kw = self.bump(); // keyword
        self.expect(&TokenKind::LParen);

        // Does this parenthesized group contain a WHERE at depth 1?
        let has_where = {
            let mut i = self.pos;
            let mut depth = 1usize;
            let mut found = false;
            while i < self.tokens.len() {
                match &self.tokens[i].kind {
                    TokenKind::LParen | TokenKind::LBrace => depth += 1,
                    TokenKind::RParen | TokenKind::RBrace => {
                        if depth == 1 {
                            break;
                        }
                        depth -= 1;
                    }
                    TokenKind::Where if depth == 1 => {
                        found = true;
                        break;
                    }
                    TokenKind::Eof => break,
                    _ => {}
                }
                i += 1;
            }
            found
        };

        if has_where {
            let value = self.expr();
            self.expect(&TokenKind::Where);
            let binder = match self.ident() {
                Some(b) => b,
                None => {
                    let _ = kw;
                    return error_expr(start);
                }
            };
            self.expect(&TokenKind::In);
            let source = self.comparison();
            let pred = if self.eat(&TokenKind::And) {
                Some(Box::new(self.expr()))
            } else {
                None
            };
            self.expect(&TokenKind::RParen);
            Expr::new(
                ExprKind::Aggregate {
                    op,
                    value: Box::new(value),
                    binder,
                    source: Box::new(source),
                    pred,
                },
                start.merge(self.prev_span()),
            )
        } else {
            // Plain forms: COUNT(set) is set cardinality; MAX/MIN with
            // multiple arguments are the n-ary numeric builtins.
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
            let span = start.merge(self.prev_span());
            match (op, args.len()) {
                (AggOp::Count, 1) => {
                    Expr::new(ExprKind::CountSet(Box::new(args.pop().unwrap())), span)
                }
                _ => {
                    let name = Ident::new(op.keyword(), start);
                    Expr::new(ExprKind::Call(name, args), span)
                }
            }
        }
    }

    /// `EXISTS( binder IN source WITH pred )`
    fn quantifier(&mut self, q: Quant) -> Expr {
        let start = self.span();
        self.bump(); // keyword
        self.expect(&TokenKind::LParen);
        let binder = match self.ident() {
            Some(b) => b,
            None => return error_expr(start),
        };
        self.expect(&TokenKind::In);
        let source = self.comparison();
        self.expect(&TokenKind::With);
        let pred = self.expr();
        self.expect(&TokenKind::RParen);
        Expr::new(
            ExprKind::Quantifier {
                q,
                binder,
                source: Box::new(source),
                pred: Box::new(pred),
            },
            start.merge(self.prev_span()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Specification {
        match parse(src) {
            Ok(s) => s,
            Err(d) => panic!("parse failed:\n{}", d.render(src)),
        }
    }

    #[test]
    fn parses_paper_data_model_classes() {
        let spec = parse_ok(
            r#"
            class Program { String Name; setof ProgVersion Versions; }
            class ProgVersion {
                DateTime Compilation;
                setof Function Functions;
                setof TestRun Runs;
                SourceCode Code;
            }
            class TestRun { DateTime Start; int NoPe; int Clockspeed; }
            "#,
        );
        assert_eq!(spec.classes.len(), 3);
        let pv = spec.class("ProgVersion").unwrap();
        assert_eq!(pv.attrs.len(), 4);
        assert_eq!(pv.attrs[1].name.name, "Functions");
        assert!(matches!(
            pv.attrs[1].ty.kind,
            TypeExprKind::Setof(ref n) if n == "Function"
        ));
    }

    #[test]
    fn parses_inheritance() {
        let spec = parse_ok("class A { int x; } class B extends A { float y; }");
        assert_eq!(spec.class("B").unwrap().base.as_ref().unwrap().name, "A");
    }

    #[test]
    fn parses_enum() {
        let spec = parse_ok("enum TimingType { Barrier, IoRead, IoWrite }");
        let e = spec.enum_decl("TimingType").unwrap();
        assert_eq!(e.variants.len(), 3);
        assert_eq!(e.variants[0].name, "Barrier");
    }

    #[test]
    fn parses_paper_helper_functions() {
        let spec = parse_ok(
            r#"
            TotalTiming Summary(Region r, TestRun t) =
                UNIQUE({s IN r.TotTimes WITH s.Run==t});
            float Duration(Region r, TestRun t) = Summary(r,t).Incl;
            "#,
        );
        assert_eq!(spec.functions.len(), 2);
        let dur = spec.function("Duration").unwrap();
        assert_eq!(dur.params.len(), 2);
        // Body is Attr(Call(Summary, ..), Incl)
        match &dur.body.kind {
            ExprKind::Attr(base, attr) => {
                assert_eq!(attr.name, "Incl");
                assert!(matches!(base.kind, ExprKind::Call(ref id, _) if id.name == "Summary"));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn parses_the_papers_sublinear_speedup_property() {
        let spec = parse_ok(
            r#"
            Property SublinearSpeedup(Region r, TestRun t, Region Basis) {
                LET TotalTiming MinPeSum = UNIQUE({sum IN r.TotTimes WITH sum.Run.NoPe ==
                        MIN(s.Run.NoPe WHERE s IN r.TotTimes)});
                    float TotalCost = Duration(r,t) - Duration(r,MinPeSum.Run)
                IN
                CONDITION: TotalCost>0; CONFIDENCE: 1;
                SEVERITY: TotalCost/Duration(Basis,t);
            }
            "#,
        );
        let p = spec.property("SublinearSpeedup").unwrap();
        assert_eq!(p.params.len(), 3);
        assert_eq!(p.lets.len(), 2);
        assert_eq!(p.lets[0].name.name, "MinPeSum");
        assert_eq!(p.conditions.len(), 1);
        assert!(!p.confidence.is_max);
        assert!(!p.severity.is_max);
        // The nested MIN ... WHERE must parse as an aggregate.
        fn find_aggregate(e: &Expr) -> bool {
            match &e.kind {
                ExprKind::Aggregate { op: AggOp::Min, .. } => true,
                ExprKind::Unique(inner) => find_aggregate(inner),
                ExprKind::SetComp { pred, source, .. } => {
                    find_aggregate(pred) || find_aggregate(source)
                }
                ExprKind::Binary(_, a, b) => find_aggregate(a) || find_aggregate(b),
                _ => false,
            }
        }
        assert!(find_aggregate(&p.lets[0].value));
    }

    #[test]
    fn parses_sync_cost_aggregate_with_two_predicates() {
        let spec = parse_ok(
            r#"
            Property SyncCost(Region r, TestRun t, Region Basis) {
                LET float Barrier = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
                        AND tt.Type == Barrier);
                IN CONDITION: Barrier > 0; CONFIDENCE: 1;
                SEVERITY: Barrier / Duration(Basis,t);
            }
            "#,
        );
        let p = spec.property("SyncCost").unwrap();
        match &p.lets[0].value.kind {
            ExprKind::Aggregate {
                op: AggOp::Sum,
                pred: Some(pred),
                ..
            } => {
                // pred must be the conjunction `tt.Run==t AND tt.Type == Barrier`.
                assert!(matches!(pred.kind, ExprKind::Binary(BinOp::And, _, _)));
            }
            other => panic!("expected SUM aggregate, got {other:?}"),
        }
    }

    #[test]
    fn labelled_conditions_with_guarded_max() {
        let spec = parse_ok(
            r#"
            PROPERTY TwoWay(Region r) {
                CONDITION: (hi) Cost(r) > 100 OR (lo) Cost(r) > 10;
                CONFIDENCE: MAX((hi) -> 1, (lo) -> 0.5);
                SEVERITY: MAX((hi) -> Cost(r), (lo) -> Cost(r) / 10);
            }
            "#,
        );
        let p = spec.property("TwoWay").unwrap();
        assert_eq!(p.conditions.len(), 2);
        assert_eq!(p.conditions[0].id.as_ref().unwrap().name, "hi");
        assert_eq!(p.conditions[1].id.as_ref().unwrap().name, "lo");
        assert!(p.confidence.is_max);
        assert_eq!(p.confidence.arms.len(), 2);
        assert_eq!(p.severity.arms[1].guard.as_ref().unwrap().name, "lo");
    }

    #[test]
    fn unlabelled_or_folds_into_one_condition() {
        let spec = parse_ok(
            r#"
            PROPERTY AnyCost(Region r) {
                CONDITION: A(r) > 0 OR B(r) > 0;
                CONFIDENCE: 1;
                SEVERITY: 1;
            }
            "#,
        );
        let p = spec.property("AnyCost").unwrap();
        assert_eq!(p.conditions.len(), 1);
        assert!(matches!(
            p.conditions[0].expr.kind,
            ExprKind::Binary(BinOp::Or, _, _)
        ));
    }

    #[test]
    fn parenthesized_expression_is_not_a_cond_id() {
        let spec = parse_ok(
            r#"
            PROPERTY Paren(Region r) {
                CONDITION: (x) > 0;
                CONFIDENCE: 1;
                SEVERITY: x;
            }
            "#,
        );
        let p = spec.property("Paren").unwrap();
        assert_eq!(p.conditions.len(), 1);
        assert!(p.conditions[0].id.is_none());
        assert!(matches!(
            p.conditions[0].expr.kind,
            ExprKind::Binary(BinOp::Gt, _, _)
        ));
    }

    #[test]
    fn severity_max_aggregate_is_not_arm_combiner() {
        let spec = parse_ok(
            r#"
            PROPERTY AggSev(Region r, TestRun t) {
                CONDITION: TRUE;
                CONFIDENCE: 1;
                SEVERITY: MAX(tt.Time WHERE tt IN r.TypTimes AND tt.Run == t);
            }
            "#,
        );
        let p = spec.property("AggSev").unwrap();
        assert!(!p.severity.is_max);
        assert!(matches!(
            p.severity.arms[0].expr.kind,
            ExprKind::Aggregate { op: AggOp::Max, .. }
        ));
    }

    #[test]
    fn property_end_accepts_brace_semi() {
        // Figure 1 ends properties with `};`
        parse_ok("PROPERTY P(Region r) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1; };");
        parse_ok("PROPERTY P(Region r) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1; }");
    }

    #[test]
    fn exists_and_forall_extensions() {
        let e = parse_expr("EXISTS(s IN r.TotTimes WITH s.Incl > 0)").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Quantifier {
                q: Quant::Exists,
                ..
            }
        ));
        let e = parse_expr("FORALL(s IN r.TotTimes WITH s.Incl >= 0)").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Quantifier {
                q: Quant::Forall,
                ..
            }
        ));
    }

    #[test]
    fn count_set_form() {
        let e = parse_expr("COUNT(r.TotTimes)").unwrap();
        assert!(matches!(e.kind, ExprKind::CountSet(_)));
        let e = parse_expr("COUNT(s.Incl WHERE s IN r.TotTimes AND s.Incl > 0)").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Aggregate {
                op: AggOp::Count,
                ..
            }
        ));
    }

    #[test]
    fn nary_max_without_where_is_call() {
        let e = parse_expr("MAX(a, b, c)").unwrap();
        match e.kind {
            ExprKind::Call(id, args) => {
                assert_eq!(id.name, "MAX");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Add, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("precedence broken: {other:?}"),
        }
        let e = parse_expr("a OR b AND c").unwrap();
        match e.kind {
            ExprKind::Binary(BinOp::Or, _, rhs) => {
                assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::And, _, _)));
            }
            other => panic!("precedence broken: {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_not() {
        let e = parse_expr("-a * b").unwrap();
        // (-a) * b
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Mul, _, _)));
        let e = parse_expr("NOT a AND b").unwrap();
        // (NOT a) AND b
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn deep_attribute_chain() {
        let e = parse_expr("sum.Run.NoPe").unwrap();
        match e.kind {
            ExprKind::Attr(inner, attr) => {
                assert_eq!(attr.name, "NoPe");
                assert!(matches!(inner.kind, ExprKind::Attr(_, _)));
            }
            other => panic!("expected attr chain, got {other:?}"),
        }
    }

    #[test]
    fn error_on_garbage_top_level() {
        assert!(parse("class A { int x; } ; ; 42").is_err());
    }

    #[test]
    fn error_recovery_reports_multiple_items() {
        let err = parse(
            r#"
            class Good { int x; }
            class Bad1 { int ; }
            class Bad2 { setof ; }
            "#,
        )
        .unwrap_err();
        assert!(err.len() >= 2, "expected at least two errors, got {err}");
    }

    #[test]
    fn missing_semicolon_in_property_is_error() {
        assert!(
            parse("PROPERTY P(Region r) { CONDITION: TRUE CONFIDENCE: 1; SEVERITY: 1; }").is_err()
        );
    }

    #[test]
    fn constant_declaration_parses() {
        let spec = parse_ok("float ImbalanceThreshold = 0.25; int Limit = 3 + 4;");
        assert_eq!(spec.constants.len(), 2);
        assert_eq!(spec.constants[0].name.name, "ImbalanceThreshold");
        assert!(matches!(
            spec.constants[1].value.kind,
            ExprKind::Binary(BinOp::Add, _, _)
        ));
        assert!(spec.functions.is_empty());
    }

    #[test]
    fn constant_and_function_disambiguate() {
        let spec = parse_ok("float C = 1.0; float F(Region r) = C;");
        assert_eq!(spec.constants.len(), 1);
        assert_eq!(spec.functions.len(), 1);
    }

    #[test]
    fn load_imbalance_property_parses() {
        let spec = parse_ok(
            r#"
            Property LoadImbalance(FunctionCall Call, TestRun t, Region Basis) {
                LET CallTiming ct = UNIQUE ({c IN Call.Sums WITH c.Run == t});
                    float Dev = ct.StdevTime;
                    float Mean = ct.MeanTime;
                IN CONDITION: Dev > ImbalanceThreshold * Mean; CONFIDENCE: 1;
                SEVERITY: Mean / Duration(Basis,t);
            }
            "#,
        );
        let p = spec.property("LoadImbalance").unwrap();
        assert_eq!(p.lets.len(), 3);
        assert_eq!(p.params[0].ty.to_string(), "FunctionCall");
    }
}
