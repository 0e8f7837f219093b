//! The lightweight syntax tree the precise rules run on.
//!
//! Nodes carry **token spans** (`lo..hi` indices into the file's token
//! stream), never copies of the tokens, so the tree composes with the
//! token-level helpers that the original rules were built on: a rule can
//! walk structure (blocks, loops, match arms, closures) and still do
//! adjacency scans inside any node's span. The span discipline is strict —
//! [`coverage`] checks that every child nests inside its parent, children
//! are ordered and disjoint, and statements tile their block — which is
//! what makes the lex → parse → span-reassembly round-trip property in
//! `crates/lint/tests` meaningful.
//!
//! This is deliberately **not** full Rust: expressions without control
//! flow stay flat [`ExprKind::Leaf`] spans (with nested control-flow /
//! closure / macro nodes collected in `subs`), patterns and types stay
//! spans, and precedence is never computed. The rules need item
//! structure, intra-function control-flow regions, and declared-type
//! spans — nothing more — and the build container is offline, so `syn`
//! is not an option.

use crate::lexer::Tok;

/// A half-open range of token indices (`lo..hi`) into a file's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First token index.
    pub lo: usize,
    /// One past the last token index.
    pub hi: usize,
}

impl Span {
    /// The empty span at `at`.
    pub fn empty(at: usize) -> Span {
        Span { lo: at, hi: at }
    }

    /// Whether the span contains token index `i`.
    pub fn contains(&self, i: usize) -> bool {
        self.lo <= i && i < self.hi
    }

    /// Whether the span holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// A parsed source file: its top-level items plus side tables the rules
/// consume directly.
#[derive(Debug, Default)]
pub struct Tree {
    /// Top-level items in source order (attributes included in spans).
    pub items: Vec<Item>,
    /// Every attribute span in the file (`#[...]` and `#![...]`),
    /// in source order — rules skip tokens inside these.
    pub attrs: Vec<Span>,
}

/// One item (fn, struct, impl, …). `span` covers the item's leading
/// attributes through its final token (`}` or `;`).
#[derive(Debug)]
pub struct Item {
    /// Full token span, attributes included.
    pub span: Span,
    /// Item name when it has one (`fn name`, `struct Name`, …).
    pub name: Option<String>,
    /// What the item is.
    pub kind: ItemKind,
}

/// Item classification — only the shapes the rules care about get
/// structure; everything else is an opaque [`ItemKind::Other`] span.
#[derive(Debug)]
pub enum ItemKind {
    /// `fn` with signature details and an optional body.
    Fn(Func),
    /// `impl … { items }` / `trait … { items }` / `mod name { items }`.
    Items(Vec<Item>),
    /// `struct Name { fields }` (braced form only; tuple and unit
    /// structs are `Other`).
    Struct(Vec<Field>),
    /// `const NAME: Ty = value;` / `static NAME: Ty = value;`.
    Const,
    /// Anything else (use, type, enum, macro invocation, …).
    Other,
}

/// A named struct field with its declared-type span.
#[derive(Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Declared type tokens.
    pub ty: Span,
}

/// A function: parameters with type spans, and a body unless it is a
/// trait-method signature.
#[derive(Debug)]
pub struct Func {
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body block, absent for bodiless signatures.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binding name when the pattern is a plain (possibly `mut`)
    /// identifier; `None` for destructuring patterns and `self`.
    pub name: Option<String>,
    /// Declared type tokens (empty for bare `self`).
    pub ty: Span,
}

/// `{ … }`: span includes both braces; statements tile the interior.
#[derive(Debug)]
pub struct Block {
    /// Token span including the braces.
    pub span: Span,
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub struct Stmt {
    /// Full token span (through the trailing `;` when present).
    pub span: Span,
    /// Statement classification.
    pub kind: StmtKind,
}

/// Statement classification.
#[derive(Debug)]
pub enum StmtKind {
    /// `let pat(: ty)? (= init)? (else { … })?;`
    Let {
        /// Pattern tokens.
        pat: Span,
        /// Declared-type tokens when annotated.
        ty: Option<Span>,
        /// Initializer expression.
        init: Option<Expr>,
        /// `let … else` diverging block.
        els: Option<Block>,
    },
    /// A nested item (fn, const, use, … inside a block).
    Item(Item),
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
}

/// An expression node. `span` covers the whole expression.
#[derive(Debug)]
pub struct Expr {
    /// Token span of the expression.
    pub span: Span,
    /// Expression classification.
    pub kind: ExprKind,
}

/// Expression classification: control flow gets structure, the rest
/// stays a flat [`ExprKind::Leaf`] with nested structured nodes in
/// `subs`.
#[derive(Debug)]
pub enum ExprKind {
    /// `if cond { … } (else …)?` — `els` is a Block expr or another If.
    If {
        /// Condition (scanned to the `{` at depth 0).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else branch (block or chained if).
        els: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Scrutinee expression.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
    },
    /// `loop { … }` (label recorded when present).
    Loop {
        /// Loop label without the quote, e.g. `outer`.
        label: Option<String>,
        /// Body.
        body: Block,
    },
    /// `while cond { … }` (including `while let`).
    While {
        /// Loop label.
        label: Option<String>,
        /// Condition.
        cond: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// `for pat in iter { … }`.
    For {
        /// Loop label.
        label: Option<String>,
        /// Binding pattern tokens.
        pat: Span,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Body.
        body: Block,
    },
    /// A bare / labeled / `unsafe` block in expression position.
    Block(Block),
    /// `(move)? |params| body`.
    Closure {
        /// Parameter tokens between the pipes.
        params: Span,
        /// Body expression.
        body: Box<Expr>,
    },
    /// `name!(…)` / `name![…]` / `name!{…}` with nested structure
    /// scanned out of the arguments.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Argument tokens inside the delimiters.
        args: Span,
        /// Structured nodes found inside the arguments.
        subs: Vec<Expr>,
    },
    /// `return (expr)?`.
    Return(Option<Box<Expr>>),
    /// `break ('label)? (expr)?`.
    Break(Option<Box<Expr>>),
    /// `continue ('label)?`.
    Continue,
    /// Anything else: a flat span with any structured nodes found
    /// inside delimiter groups collected in order.
    Leaf {
        /// Structured nodes nested inside the leaf (in groups, struct
        /// literals, macro args, or mid-expression control flow).
        subs: Vec<Expr>,
    },
}

impl Expr {
    /// Visit this expression and every structured descendant,
    /// pre-order. Blocks recurse through their statements.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::If { cond, then, els } => {
                cond.walk(f);
                walk_block(then, f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for a in arms {
                    if let Some(g) = &a.guard {
                        g.walk(f);
                    }
                    a.body.walk(f);
                }
            }
            ExprKind::Loop { body, .. } | ExprKind::Block(body) => walk_block(body, f),
            ExprKind::While { cond, body, .. } => {
                cond.walk(f);
                walk_block(body, f);
            }
            ExprKind::For { iter, body, .. } => {
                iter.walk(f);
                walk_block(body, f);
            }
            ExprKind::Closure { body, .. } => body.walk(f),
            ExprKind::Macro { subs, .. } | ExprKind::Leaf { subs } => {
                for s in subs {
                    s.walk(f);
                }
            }
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Continue => {}
        }
    }
}

/// Walk every expression in a block, pre-order.
pub fn walk_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Let { init, els, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
                if let Some(e) = els {
                    walk_block(e, f);
                }
            }
            StmtKind::Expr(e) => e.walk(f),
            StmtKind::Item(it) => walk_item(it, f),
        }
    }
}

/// Walk every expression under an item, pre-order.
pub fn walk_item<'a>(it: &'a Item, f: &mut dyn FnMut(&'a Expr)) {
    match &it.kind {
        ItemKind::Fn(func) => {
            if let Some(b) = &func.body {
                walk_block(b, f);
            }
        }
        ItemKind::Items(items) => {
            for i in items {
                walk_item(i, f);
            }
        }
        _ => {}
    }
}

/// Walk every expression in the tree, pre-order.
pub fn walk_tree<'a>(t: &'a Tree, f: &mut dyn FnMut(&'a Expr)) {
    for it in &t.items {
        walk_item(it, f);
    }
}

/// Visit every statement in the tree, including statements of blocks
/// nested inside expressions (loop bodies, match arms, closures, …).
pub fn walk_stmts<'a>(t: &'a Tree, f: &mut dyn FnMut(&'a Stmt)) {
    for it in &t.items {
        stmts_in_item(it, f);
    }
}

fn stmts_in_item<'a>(it: &'a Item, f: &mut dyn FnMut(&'a Stmt)) {
    match &it.kind {
        ItemKind::Fn(func) => {
            if let Some(b) = &func.body {
                stmts_in_block(b, f);
            }
        }
        ItemKind::Items(items) => {
            for i in items {
                stmts_in_item(i, f);
            }
        }
        _ => {}
    }
}

/// Visit every statement in a block and in all blocks nested below it.
fn stmts_in_block<'a>(b: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match &s.kind {
            StmtKind::Let { init, els, .. } => {
                if let Some(e) = init {
                    stmts_in_expr(e, f);
                }
                if let Some(e) = els {
                    stmts_in_block(e, f);
                }
            }
            StmtKind::Expr(e) => stmts_in_expr(e, f),
            StmtKind::Item(it) => stmts_in_item(it, f),
        }
    }
}

fn stmts_in_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Stmt)) {
    match &e.kind {
        ExprKind::If { cond, then, els } => {
            stmts_in_expr(cond, f);
            stmts_in_block(then, f);
            if let Some(x) = els {
                stmts_in_expr(x, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            stmts_in_expr(scrutinee, f);
            for a in arms {
                if let Some(g) = &a.guard {
                    stmts_in_expr(g, f);
                }
                stmts_in_expr(&a.body, f);
            }
        }
        ExprKind::Loop { body, .. } | ExprKind::Block(body) => stmts_in_block(body, f),
        ExprKind::While { cond, body, .. } => {
            stmts_in_expr(cond, f);
            stmts_in_block(body, f);
        }
        ExprKind::For { iter, body, .. } => {
            stmts_in_expr(iter, f);
            stmts_in_block(body, f);
        }
        ExprKind::Closure { body, .. } => stmts_in_expr(body, f),
        ExprKind::Macro { subs, .. } | ExprKind::Leaf { subs } => {
            for s in subs {
                stmts_in_expr(s, f);
            }
        }
        ExprKind::Return(x) | ExprKind::Break(x) => {
            if let Some(x) = x {
                stmts_in_expr(x, f);
            }
        }
        ExprKind::Continue => {}
    }
}

/// One `match` arm: `pat (if guard)? => body`.
#[derive(Debug)]
pub struct Arm {
    /// Full arm span (attributes through the trailing `,` when present).
    pub span: Span,
    /// Pattern tokens (up to the guard's `if` or the `=>`).
    pub pat: Span,
    /// Guard expression when present.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Render the tree as an indented outline — the golden-tree format used
/// by `crates/lint/tests/parser_golden.rs`. Leaf token text is elided to
/// keep goldens stable under formatting-only edits inside leaves.
pub fn dump(tree: &Tree, toks: &[Tok]) -> String {
    let mut s = String::new();
    for it in &tree.items {
        dump_item(it, toks, 0, &mut s);
    }
    s
}

fn pad(depth: usize, s: &mut String) {
    for _ in 0..depth {
        s.push_str("  ");
    }
}

fn dump_item(it: &Item, toks: &[Tok], depth: usize, s: &mut String) {
    pad(depth, s);
    let name = it.name.as_deref().unwrap_or("_");
    match &it.kind {
        ItemKind::Fn(f) => {
            s.push_str(&format!("fn {name}("));
            for (i, p) in f.params.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(p.name.as_deref().unwrap_or("_"));
            }
            s.push_str(")\n");
            if let Some(b) = &f.body {
                dump_block(b, toks, depth + 1, s);
            }
        }
        ItemKind::Items(items) => {
            s.push_str(&format!("items {name}\n"));
            for i in items {
                dump_item(i, toks, depth + 1, s);
            }
        }
        ItemKind::Struct(fields) => {
            s.push_str(&format!("struct {name}\n"));
            for f in fields {
                pad(depth + 1, s);
                s.push_str(&format!("field {}: {}\n", f.name, span_text(f.ty, toks)));
            }
        }
        ItemKind::Const => s.push_str(&format!("const {name}\n")),
        ItemKind::Other => s.push_str(&format!("other {name}\n")),
    }
}

fn dump_block(b: &Block, toks: &[Tok], depth: usize, s: &mut String) {
    pad(depth, s);
    s.push_str("block\n");
    for st in &b.stmts {
        match &st.kind {
            StmtKind::Let { pat, ty, init, els } => {
                pad(depth + 1, s);
                s.push_str(&format!("let {}", span_text(*pat, toks)));
                if let Some(t) = ty {
                    s.push_str(&format!(": {}", span_text(*t, toks)));
                }
                s.push('\n');
                if let Some(e) = init {
                    dump_expr(e, toks, depth + 2, s);
                }
                if let Some(e) = els {
                    pad(depth + 2, s);
                    s.push_str("else\n");
                    dump_block(e, toks, depth + 3, s);
                }
            }
            StmtKind::Item(it) => dump_item(it, toks, depth + 1, s),
            StmtKind::Expr(e) => dump_expr(e, toks, depth + 1, s),
        }
    }
}

fn dump_expr(e: &Expr, toks: &[Tok], depth: usize, s: &mut String) {
    pad(depth, s);
    match &e.kind {
        ExprKind::If { cond, then, els } => {
            s.push_str("if\n");
            dump_expr(cond, toks, depth + 1, s);
            dump_block(then, toks, depth + 1, s);
            if let Some(e) = els {
                pad(depth, s);
                s.push_str("else\n");
                dump_expr(e, toks, depth + 1, s);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            s.push_str("match\n");
            dump_expr(scrutinee, toks, depth + 1, s);
            for a in arms {
                pad(depth + 1, s);
                s.push_str(&format!("arm {}\n", span_text(a.pat, toks)));
                if let Some(g) = &a.guard {
                    pad(depth + 2, s);
                    s.push_str("guard\n");
                    dump_expr(g, toks, depth + 3, s);
                }
                dump_expr(&a.body, toks, depth + 2, s);
            }
        }
        ExprKind::Loop { label, body } => {
            s.push_str("loop");
            if let Some(l) = label {
                s.push_str(&format!(" '{l}"));
            }
            s.push('\n');
            dump_block(body, toks, depth + 1, s);
        }
        ExprKind::While { label, cond, body } => {
            s.push_str("while");
            if let Some(l) = label {
                s.push_str(&format!(" '{l}"));
            }
            s.push('\n');
            dump_expr(cond, toks, depth + 1, s);
            dump_block(body, toks, depth + 1, s);
        }
        ExprKind::For {
            label,
            pat,
            iter,
            body,
        } => {
            s.push_str(&format!("for {}", span_text(*pat, toks)));
            if let Some(l) = label {
                s.push_str(&format!(" '{l}"));
            }
            s.push('\n');
            dump_expr(iter, toks, depth + 1, s);
            dump_block(body, toks, depth + 1, s);
        }
        ExprKind::Block(b) => dump_block_inline(b, toks, depth, s),
        ExprKind::Closure { params, body } => {
            s.push_str(&format!("closure |{}|\n", span_text(*params, toks)));
            dump_expr(body, toks, depth + 1, s);
        }
        ExprKind::Macro { name, subs, .. } => {
            s.push_str(&format!("macro {name}!\n"));
            for e in subs {
                dump_expr(e, toks, depth + 1, s);
            }
        }
        ExprKind::Return(inner) => {
            s.push_str("return\n");
            if let Some(e) = inner {
                dump_expr(e, toks, depth + 1, s);
            }
        }
        ExprKind::Break(inner) => {
            s.push_str(&format!("break {}\n", break_label(e, toks)));
            if let Some(e) = inner {
                dump_expr(e, toks, depth + 1, s);
            }
        }
        ExprKind::Continue => s.push_str("continue\n"),
        ExprKind::Leaf { subs } => {
            s.push_str("leaf\n");
            for e in subs {
                dump_expr(e, toks, depth + 1, s);
            }
        }
    }
}

/// The label token of a `break`, when one follows the keyword.
fn break_label(e: &Expr, toks: &[Tok]) -> String {
    toks.get(e.span.lo + 1)
        .filter(|t| t.kind == crate::lexer::TokKind::Lifetime)
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

// dump_block as an expression (no extra header line confusion).
fn dump_block_inline(b: &Block, toks: &[Tok], depth: usize, s: &mut String) {
    s.push_str("block-expr\n");
    for st in &b.stmts {
        match &st.kind {
            StmtKind::Let { pat, .. } => {
                pad(depth + 1, s);
                s.push_str(&format!("let {}\n", span_text(*pat, toks)));
            }
            StmtKind::Item(it) => dump_item(it, toks, depth + 1, s),
            StmtKind::Expr(e) => dump_expr(e, toks, depth + 1, s),
        }
    }
}

/// Join a span's token texts with single spaces (golden-dump helper).
pub fn span_text(sp: Span, toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks.iter().take(sp.hi.min(toks.len())).skip(sp.lo) {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// Structural check behind the round-trip property: every child span
/// must nest in its parent, siblings must be ordered and disjoint, and
/// top-level items must tile the whole token stream. Returns the first
/// violation as `Err`.
pub fn coverage(tree: &Tree, n_toks: usize) -> Result<(), String> {
    let mut at = 0usize;
    for it in &tree.items {
        if it.span.lo != at {
            return Err(format!(
                "item gap: expected item at token {at}, item starts at {}",
                it.span.lo
            ));
        }
        item_cov(it)?;
        at = it.span.hi;
    }
    if at != n_toks {
        return Err(format!(
            "trailing tokens: items end at {at}, file has {n_toks}"
        ));
    }
    Ok(())
}

fn nested(outer: Span, inner: Span, what: &str) -> Result<(), String> {
    if inner.lo < outer.lo || inner.hi > outer.hi {
        return Err(format!(
            "{what} span {}..{} escapes parent {}..{}",
            inner.lo, inner.hi, outer.lo, outer.hi
        ));
    }
    Ok(())
}

fn item_cov(it: &Item) -> Result<(), String> {
    match &it.kind {
        ItemKind::Fn(f) => {
            if let Some(b) = &f.body {
                nested(it.span, b.span, "fn body")?;
                block_cov(b)?;
            }
            Ok(())
        }
        ItemKind::Items(items) => {
            let mut at = it.span.lo;
            for sub in items {
                if sub.span.lo < at {
                    return Err(format!("overlapping nested items at token {}", sub.span.lo));
                }
                nested(it.span, sub.span, "nested item")?;
                item_cov(sub)?;
                at = sub.span.hi;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn block_cov(b: &Block) -> Result<(), String> {
    // The parser's "no body found" fallback (e.g. an `if` guard inside
    // `matches!` args, which has no block): empty span, no statements.
    if b.span.is_empty() {
        return if b.stmts.is_empty() {
            Ok(())
        } else {
            Err("empty-span block with statements".to_string())
        };
    }
    // Statements tile the interior between the braces.
    let mut at = b.span.lo + 1;
    for s in &b.stmts {
        if s.span.lo != at {
            return Err(format!(
                "stmt gap in block {}..{}: expected stmt at {at}, got {}",
                b.span.lo, b.span.hi, s.span.lo
            ));
        }
        stmt_cov(s)?;
        at = s.span.hi;
    }
    if at != b.span.hi.saturating_sub(1) {
        return Err(format!(
            "block {}..{} interior ends at {at}, want {}",
            b.span.lo,
            b.span.hi,
            b.span.hi.saturating_sub(1)
        ));
    }
    Ok(())
}

fn stmt_cov(s: &Stmt) -> Result<(), String> {
    match &s.kind {
        StmtKind::Let { init, els, .. } => {
            if let Some(e) = init {
                nested(s.span, e.span, "let init")?;
                expr_cov(e)?;
            }
            if let Some(b) = els {
                nested(s.span, b.span, "let-else block")?;
                block_cov(b)?;
            }
            Ok(())
        }
        StmtKind::Item(it) => item_cov(it),
        StmtKind::Expr(e) => {
            nested(s.span, e.span, "stmt expr")?;
            expr_cov(e)
        }
    }
}

fn expr_cov(e: &Expr) -> Result<(), String> {
    let check_subs = |subs: &[Expr]| -> Result<(), String> {
        let mut at = e.span.lo;
        for sub in subs {
            if sub.span.lo < at {
                return Err(format!("overlapping subexprs at token {}", sub.span.lo));
            }
            nested(e.span, sub.span, "subexpr")?;
            expr_cov(sub)?;
            at = sub.span.hi;
        }
        Ok(())
    };
    match &e.kind {
        ExprKind::If { cond, then, els } => {
            nested(e.span, cond.span, "if cond")?;
            expr_cov(cond)?;
            nested(e.span, then.span, "then block")?;
            block_cov(then)?;
            if let Some(x) = els {
                nested(e.span, x.span, "else")?;
                expr_cov(x)?;
            }
            Ok(())
        }
        ExprKind::Match { scrutinee, arms } => {
            nested(e.span, scrutinee.span, "scrutinee")?;
            expr_cov(scrutinee)?;
            for a in arms {
                nested(e.span, a.span, "arm")?;
                if let Some(g) = &a.guard {
                    nested(a.span, g.span, "guard")?;
                    expr_cov(g)?;
                }
                nested(a.span, a.body.span, "arm body")?;
                expr_cov(&a.body)?;
            }
            Ok(())
        }
        ExprKind::Loop { body, .. } | ExprKind::Block(body) => {
            nested(e.span, body.span, "loop body")?;
            block_cov(body)
        }
        ExprKind::While { cond, body, .. } => {
            nested(e.span, cond.span, "while cond")?;
            expr_cov(cond)?;
            nested(e.span, body.span, "while body")?;
            block_cov(body)
        }
        ExprKind::For { iter, body, .. } => {
            nested(e.span, iter.span, "for iter")?;
            expr_cov(iter)?;
            nested(e.span, body.span, "for body")?;
            block_cov(body)
        }
        ExprKind::Closure { body, .. } => {
            nested(e.span, body.span, "closure body")?;
            expr_cov(body)
        }
        ExprKind::Return(x) | ExprKind::Break(x) => {
            if let Some(x) = x {
                nested(e.span, x.span, "return/break value")?;
                expr_cov(x)?;
            }
            Ok(())
        }
        ExprKind::Continue => Ok(()),
        ExprKind::Macro { subs, .. } | ExprKind::Leaf { subs } => check_subs(subs),
    }
}
