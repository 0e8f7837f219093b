//! Recursive-descent parser from the token stream to the [`crate::ast`]
//! tree.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never reject.** The parser runs over every `.rs`
//!    file in the workspace (and over lint fixtures that are themselves
//!    deliberately odd); on anything it does not understand it degrades
//!    to flat [`ExprKind::Leaf`] / [`ItemKind::Other`] spans and keeps
//!    going, advancing at least one token per step.
//! 2. **Spans tile.** Items tile the file, statements tile their block,
//!    sub-expressions nest in order — `ast::coverage` checks this and
//!    the round-trip property test leans on it. Error recovery is
//!    therefore span-preserving: an unparseable region becomes a leaf
//!    covering exactly the tokens it ate.
//! 3. **Single-char puncts.** The lexer emits `>` `>` for `>>` and
//!    `=` `>` for `=>`, so the parser works in terms of adjacency:
//!    turbofish depth counts individual `>`, arm arrows are an `=`
//!    immediately followed by `>`.
//!
//! Known approximations (deliberate, documented for rule authors):
//! struct literals in expression position are treated as part of the
//! containing leaf (their braces recursed as a group, with any control
//! flow inside still discovered); operator precedence is never
//! computed; patterns and types are spans, not trees.

use crate::ast::{
    Arm, Block, Expr, ExprKind, Field, Func, Item, ItemKind, Param, Span, Stmt, StmtKind, Tree,
};
use crate::lexer::{Tok, TokKind};

/// Parse a full token stream into a [`Tree`].
pub fn parse(toks: &[Tok]) -> Tree {
    let mut p = Parser {
        toks,
        attrs: Vec::new(),
    };
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let it = p.item(i);
        debug_assert!(it.span.hi > i, "parser must advance");
        i = it.span.hi.max(i + 1);
        items.push(it);
    }
    let mut attrs = p.attrs;
    attrs.sort_by_key(|s| s.lo);
    Tree { items, attrs }
}

struct Parser<'a> {
    toks: &'a [Tok],
    /// Attribute spans recorded as a side effect of parsing.
    attrs: Vec<Span>,
}

/// Keywords that begin an item in statement/module position.
fn is_item_keyword(t: &Tok) -> bool {
    t.kind == TokKind::Ident
        && matches!(
            t.text.as_str(),
            "fn" | "struct"
                | "enum"
                | "union"
                | "impl"
                | "trait"
                | "mod"
                | "use"
                | "const"
                | "static"
                | "type"
                | "extern"
                | "macro_rules"
        )
}

/// Visibility / item-qualifier idents that may precede the item keyword.
fn is_item_qualifier(t: &Tok) -> bool {
    t.kind == TokKind::Ident && matches!(t.text.as_str(), "pub" | "unsafe" | "async" | "default")
}

impl<'a> Parser<'a> {
    fn tok(&self, i: usize) -> Option<&'a Tok> {
        self.toks.get(i)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(s))
    }

    /// `=>`: an `=` token immediately followed by `>` (the lexer splits
    /// multi-char operators).
    fn is_fat_arrow(&self, i: usize) -> bool {
        self.is_punct(i, '=')
            && self.is_punct(i + 1, '>')
            && self.tok(i).map(|t| t.hi) == self.tok(i + 1).map(|t| t.lo)
    }

    /// `->` likewise.
    fn is_thin_arrow(&self, i: usize) -> bool {
        self.is_punct(i, '-')
            && self.is_punct(i + 1, '>')
            && self.tok(i).map(|t| t.hi) == self.tok(i + 1).map(|t| t.lo)
    }

    /// `::` likewise.
    fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':')
            && self.is_punct(i + 1, ':')
            && self.tok(i).map(|t| t.hi) == self.tok(i + 1).map(|t| t.lo)
    }

    /// Index just past the matching close delimiter for the open
    /// delimiter at `i` (which must be `(`, `[` or `{`). Clamped to end
    /// of stream on imbalance.
    fn matching_close(&self, i: usize) -> usize {
        let mut depth = 0isize;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skip one `#[…]` or `#![…]` starting at `i`; records the span.
    /// Returns the index past it, or `i` if no attribute starts here.
    fn skip_attr(&mut self, i: usize) -> usize {
        if !self.is_punct(i, '#') {
            return i;
        }
        let mut j = i + 1;
        if self.is_punct(j, '!') {
            j += 1;
        }
        if !self.is_punct(j, '[') {
            return i;
        }
        let end = self.matching_close(j);
        self.attrs.push(Span { lo: i, hi: end });
        end
    }

    /// Skip a run of attributes (outer or inner), recording each.
    fn skip_attrs(&mut self, mut i: usize) -> usize {
        loop {
            let j = self.skip_attr(i);
            if j == i {
                return i;
            }
            i = j;
        }
    }

    /// Skip generic parameters `<…>` at `i`, counting single `>` tokens
    /// (so `Vec<Vec<T>>`'s two adjacent `>` each close one level).
    /// Returns the index past the closing `>`, or `i` if not at `<`.
    fn skip_generics(&self, i: usize) -> usize {
        if !self.is_punct(i, '<') {
            return i;
        }
        let mut depth = 0isize;
        let mut j = i;
        while let Some(t) = self.tok(j) {
            match t.text.as_str() {
                "<" => depth += 1,
                ">"
                    // `->` in an Fn(…) -> R generic default is a thin
                    // arrow, not a close.
                    if !(j > 0 && self.is_thin_arrow(j - 1)) => {
                        depth -= 1;
                        if depth <= 0 {
                            return j + 1;
                        }
                    }
                "(" | "[" | "{" => {
                    j = self.matching_close(j);
                    continue;
                }
                ";" => return j, // safety valve: generics never span a `;`
                _ => {}
            }
            j += 1;
        }
        self.toks.len()
    }

    // ------------------------------------------------------------------
    // Items
    // ------------------------------------------------------------------

    /// Parse one item starting at `i`. Always returns an item whose span
    /// starts at `i` and ends strictly after it.
    fn item(&mut self, i: usize) -> Item {
        let start = i;
        let mut j = self.skip_attrs(i);
        // Qualifiers: `pub`, `pub(crate)`, `unsafe`, `async`, `default`
        // — and `const` when it qualifies a `const fn` rather than
        // starting a const item.
        while let Some(t) = self.tok(j) {
            if is_item_qualifier(t)
                || (t.is_ident("const")
                    && self.tok(j + 1).is_some_and(|n| {
                        n.is_ident("fn")
                            || n.is_ident("unsafe")
                            || n.is_ident("async")
                            || n.is_ident("extern")
                    }))
            {
                j += 1;
                if self.is_punct(j, '(') {
                    j = self.matching_close(j);
                }
            } else {
                break;
            }
        }
        let Some(kw) = self.tok(j).filter(|t| is_item_keyword(t)) else {
            // Not an item: eat through the next `;` or balanced `{…}`
            // at depth 0 so module-level stray tokens stay tiled.
            return self.other_item(start, j);
        };
        match kw.text.as_str() {
            "fn" => self.fn_item(start, j + 1),
            "struct" => self.struct_item(start, j + 1),
            "impl" | "trait" | "mod" => self.items_container(start, j, kw.text.as_str()),
            "const" | "static" => self.const_item(start, j + 1),
            _ => self.other_item(start, j),
        }
    }

    /// Fallback item: consume to the end of the construct (`;`, or a
    /// top-level `{…}` body, whichever comes first at depth 0).
    fn other_item(&mut self, start: usize, mut j: usize) -> Item {
        let name = self
            .tok(j + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        while let Some(t) = self.tok(j) {
            if t.is_punct(';') {
                j += 1;
                break;
            }
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                j = self.matching_close(j);
                if self.toks.get(j - 1).is_some_and(|t| t.is_punct('}')) {
                    // `macro_rules! m { … }` / enum bodies end here;
                    // `fn`-less parenthesized forms keep scanning for `;`.
                    if self.tok(j).is_some_and(|t| t.is_punct(';')) {
                        j += 1;
                    }
                    break;
                }
                continue;
            }
            j += 1;
        }
        Item {
            span: Span {
                lo: start,
                hi: j.max(start + 1),
            },
            name,
            kind: ItemKind::Other,
        }
    }

    /// `fn name<…>(params) -> Ret (where …)? { body }` or `;`.
    fn fn_item(&mut self, start: usize, mut j: usize) -> Item {
        let name = self
            .tok(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        if name.is_some() {
            j += 1;
        }
        j = self.skip_generics(j);
        let mut params = Vec::new();
        if self.is_punct(j, '(') {
            let close = self.matching_close(j);
            params = self.parse_params(j + 1, close.saturating_sub(1));
            j = close;
        }
        // Return type / where clause: scan to the body `{` or a `;`.
        while let Some(t) = self.tok(j) {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                j = self.matching_close(j);
                continue;
            }
            if t.is_punct('<') {
                j = self.skip_generics(j).max(j + 1);
                continue;
            }
            j += 1;
        }
        let body = if self.is_punct(j, '{') {
            let b = self.block(j);
            j = b.span.hi;
            Some(b)
        } else {
            if self.is_punct(j, ';') {
                j += 1;
            }
            None
        };
        Item {
            span: Span {
                lo: start,
                hi: j.max(start + 1),
            },
            name,
            kind: ItemKind::Fn(Func { params, body }),
        }
    }

    /// Parameters between `(`+1 and `)`: split on top-level commas, each
    /// `pat: ty`.
    fn parse_params(&mut self, lo: usize, hi: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut j = lo;
        while j < hi {
            let pstart = self.skip_attrs(j);
            // Find this parameter's end (top-level comma) and its `:`.
            let mut k = pstart;
            let mut colon = None;
            while k < hi {
                let Some(t) = self.tok(k) else { break };
                if t.is_punct(',') {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    k = self.matching_close(k);
                    continue;
                }
                if t.is_punct('<') {
                    k = self.skip_generics(k).max(k + 1);
                    continue;
                }
                if t.is_punct(':') && colon.is_none() && !self.is_path_sep(k) {
                    colon = Some(k);
                }
                k += 1;
            }
            if k > pstart {
                let (name, ty) = match colon {
                    Some(c) => {
                        // Plain (possibly `mut`/`ref`) ident pattern?
                        let mut n = pstart;
                        while self.is_ident(n, "mut") || self.is_ident(n, "ref") {
                            n += 1;
                        }
                        let name = if n + 1 == c {
                            self.tok(n)
                                .filter(|t| t.kind == TokKind::Ident)
                                .map(|t| t.text.clone())
                        } else {
                            None
                        };
                        (name, Span { lo: c + 1, hi: k })
                    }
                    // `self` / `&mut self` — no declared type.
                    None => (None, Span::empty(k)),
                };
                out.push(Param { name, ty });
            }
            j = k + 1;
        }
        out
    }

    /// `struct Name<…> { fields }` (tuple/unit structs fall back to Other).
    fn struct_item(&mut self, start: usize, mut j: usize) -> Item {
        let name = self
            .tok(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        if name.is_some() {
            j += 1;
        }
        j = self.skip_generics(j);
        // Skip a where clause.
        while let Some(t) = self.tok(j) {
            if t.is_punct('{') || t.is_punct(';') || t.is_punct('(') {
                break;
            }
            if t.is_punct('<') {
                j = self.skip_generics(j).max(j + 1);
                continue;
            }
            j += 1;
        }
        if !self.is_punct(j, '{') {
            // Tuple or unit struct.
            return self.other_item(start, j);
        }
        let close = self.matching_close(j);
        let fields = self.parse_fields(j + 1, close.saturating_sub(1));
        Item {
            span: Span {
                lo: start,
                hi: close.max(start + 1),
            },
            name,
            kind: ItemKind::Struct(fields),
        }
    }

    /// Braced-struct fields: `(attrs)? (pub)? name: ty,` …
    fn parse_fields(&mut self, lo: usize, hi: usize) -> Vec<Field> {
        let mut out = Vec::new();
        let mut j = lo;
        while j < hi {
            j = self.skip_attrs(j);
            while self.is_ident(j, "pub") {
                j += 1;
                if self.is_punct(j, '(') {
                    j = self.matching_close(j);
                }
            }
            let name = self
                .tok(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            // `name :` then type to top-level comma.
            if let Some(name) = name {
                if self.is_punct(j + 1, ':') && !self.is_path_sep(j + 1) {
                    let ty_lo = j + 2;
                    let mut k = ty_lo;
                    while k < hi {
                        let Some(t) = self.tok(k) else { break };
                        if t.is_punct(',') {
                            break;
                        }
                        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            k = self.matching_close(k);
                            continue;
                        }
                        if t.is_punct('<') {
                            k = self.skip_generics(k).max(k + 1);
                            continue;
                        }
                        k += 1;
                    }
                    out.push(Field {
                        name,
                        ty: Span { lo: ty_lo, hi: k },
                    });
                    j = k + 1;
                    continue;
                }
            }
            // Recovery: skip to next top-level comma.
            let mut k = j;
            while k < hi {
                let Some(t) = self.tok(k) else { break };
                if t.is_punct(',') {
                    break;
                }
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    k = self.matching_close(k);
                    continue;
                }
                k += 1;
            }
            j = k + 1;
        }
        out
    }

    /// `impl … { items }` / `trait … { items }` / `mod name { items }`.
    fn items_container(&mut self, start: usize, kw_at: usize, kw: &str) -> Item {
        let mut j = kw_at + 1;
        let name = if kw == "mod" || kw == "trait" {
            let n = self
                .tok(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            if n.is_some() {
                j += 1;
            }
            n
        } else {
            // impl: name the implemented type by its last path segment
            // before the `{` (best effort; None is fine).
            None
        };
        // Scan to the body `{` (or `;` for `mod name;`), skipping
        // generics so `impl<T: Ord> Foo<T> { … }` finds the right brace.
        while let Some(t) = self.tok(j) {
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') {
                return Item {
                    span: Span {
                        lo: start,
                        hi: j + 1,
                    },
                    name,
                    kind: ItemKind::Other,
                };
            }
            if t.is_punct('<') {
                j = self.skip_generics(j).max(j + 1);
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                j = self.matching_close(j);
                continue;
            }
            j += 1;
        }
        if !self.is_punct(j, '{') {
            return self.other_item(start, j);
        }
        let close = self.matching_close(j);
        let mut items = Vec::new();
        let mut k = self.skip_attrs(j + 1); // inner attrs (`#![…]`)
        let body_end = close.saturating_sub(1);
        while k < body_end {
            let it = self.item(k);
            let next = it.span.hi.min(body_end).max(k + 1);
            items.push(it);
            k = next;
        }
        Item {
            span: Span {
                lo: start,
                hi: close.max(start + 1),
            },
            name,
            kind: ItemKind::Items(items),
        }
    }

    /// `const NAME: Ty = value;` / `static NAME: Ty = value;`
    fn const_item(&mut self, start: usize, mut j: usize) -> Item {
        while self.is_ident(j, "mut") {
            j += 1;
        }
        let name = self
            .tok(j)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        // Scan to the `;` at depth 0.
        let mut k = j;
        while let Some(t) = self.tok(k) {
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                k = self.matching_close(k);
                continue;
            }
            if t.is_punct('<') {
                k = self.skip_generics(k).max(k + 1);
                continue;
            }
            k += 1;
        }
        let end = if self.is_punct(k, ';') {
            k + 1
        } else {
            k.max(start + 1)
        };
        Item {
            span: Span { lo: start, hi: end },
            name,
            kind: ItemKind::Const,
        }
    }

    // ------------------------------------------------------------------
    // Blocks and statements
    // ------------------------------------------------------------------

    /// Parse the block whose `{` is at `i`.
    fn block(&mut self, i: usize) -> Block {
        debug_assert!(self.is_punct(i, '{'));
        let close = self.matching_close(i);
        let interior_end = close.saturating_sub(1);
        let mut stmts = Vec::new();
        let mut j = i + 1;
        while j < interior_end {
            let s = self.stmt(j, interior_end);
            debug_assert!(s.span.hi > j);
            j = s.span.hi.min(interior_end).max(j + 1);
            stmts.push(s);
        }
        // Tiling guarantee: clamp the final stmt to the interior.
        if let Some(last) = stmts.last_mut() {
            if last.span.hi > interior_end {
                last.span.hi = interior_end;
            }
        }
        Block {
            span: Span { lo: i, hi: close },
            stmts,
        }
    }

    /// Parse one statement starting at `i`, not scanning past `limit`.
    fn stmt(&mut self, i: usize, limit: usize) -> Stmt {
        let start = i;
        let j = self.skip_attrs(i);
        // Stray semicolon.
        if self.is_punct(j, ';') {
            return Stmt {
                span: Span {
                    lo: start,
                    hi: j + 1,
                },
                kind: StmtKind::Expr(Expr {
                    span: Span {
                        lo: start,
                        hi: j + 1,
                    },
                    kind: ExprKind::Leaf { subs: Vec::new() },
                }),
            };
        }
        if self.is_ident(j, "let") {
            return self.let_stmt(start, j + 1, limit);
        }
        // Nested items. `unsafe {` / `async {` are block expressions,
        // not items, so require the item keyword after qualifiers.
        if self.tok(j).is_some_and(is_item_keyword)
            || (self.tok(j).is_some_and(is_item_qualifier) && {
                let mut k = j;
                while self.tok(k).is_some_and(is_item_qualifier) {
                    k += 1;
                    if self.is_punct(k, '(') {
                        k = self.matching_close(k);
                    }
                }
                self.tok(k).is_some_and(is_item_keyword)
            })
        {
            let mut it = self.item(start);
            if it.span.hi > limit {
                it.span.hi = limit;
            }
            let span = it.span;
            return Stmt {
                span,
                kind: StmtKind::Item(it),
            };
        }
        // Expression statement.
        let e = self.expr(j, limit);
        let mut hi = e.span.hi;
        if self.is_punct(hi, ';') && hi < limit {
            hi += 1;
        }
        Stmt {
            span: Span {
                lo: start,
                hi: hi.max(start + 1),
            },
            kind: StmtKind::Expr(e),
        }
    }

    /// `let pat(: ty)? (= init)? (else { … })? ;`
    fn let_stmt(&mut self, start: usize, mut j: usize, limit: usize) -> Stmt {
        let pat_lo = j;
        // Pattern runs to `:` (type), `=` (init), or `;` at depth 0.
        let mut colon = None;
        let mut eq = None;
        while j < limit {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct(';') {
                break;
            }
            if t.is_punct('=') && !self.is_fat_arrow(j) {
                // `==`, `<=`, `>=`, `!=` cannot appear at pattern/type
                // depth 0 before the init `=`; but `=` preceded by
                // `<`/`>`/`!`/`=` would be part of an operator — the
                // pattern position makes this unambiguous enough.
                eq = Some(j);
                break;
            }
            if t.is_punct(':') && colon.is_none() && !self.is_path_sep(j) {
                // `::` in a path pattern is two colons; skip both.
                colon = Some(j);
            }
            if self.is_path_sep(j) {
                j += 2;
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                j = self.matching_close(j);
                continue;
            }
            if t.is_punct('<') && colon.is_some() {
                j = self.skip_generics(j).max(j + 1);
                continue;
            }
            j += 1;
        }
        let pat = Span {
            lo: pat_lo,
            hi: colon.unwrap_or(eq.unwrap_or(j)),
        };
        let ty = colon.map(|c| Span {
            lo: c + 1,
            hi: eq.unwrap_or(j),
        });
        let (init, els, mut hi) = match eq {
            Some(e) => {
                let init = self.expr(e + 1, limit);
                let mut hi = init.span.hi;
                // let … else { … }
                let els = if self.is_ident(hi, "else") && self.is_punct(hi + 1, '{') {
                    let b = self.block(hi + 1);
                    hi = b.span.hi;
                    Some(b)
                } else {
                    None
                };
                (Some(init), els, hi)
            }
            None => (None, None, j),
        };
        if self.is_punct(hi, ';') && hi < limit {
            hi += 1;
        }
        Stmt {
            span: Span {
                lo: start,
                hi: hi.max(start + 1),
            },
            kind: StmtKind::Let { pat, ty, init, els },
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Parse one expression starting at `i`, not scanning past `limit`.
    /// Statement-position control flow gets structure; everything else
    /// becomes a leaf scanned to the statement boundary.
    fn expr(&mut self, i: usize, limit: usize) -> Expr {
        let i = self.skip_attrs(i);
        if i >= limit {
            return Expr {
                span: Span::empty(limit),
                kind: ExprKind::Leaf { subs: Vec::new() },
            };
        }
        // Labeled loops: 'label : loop/while/for/{
        if self.tok(i).is_some_and(|t| t.kind == TokKind::Lifetime) && self.is_punct(i + 1, ':') {
            let label = Some(self.toks[i].text.trim_start_matches('\'').to_string());
            let mut e = self.control(i + 2, limit, label);
            e.span.lo = i;
            return e;
        }
        self.control(i, limit, None)
    }

    /// Dispatch on the leading token; falls back to [`Self::leaf`].
    fn control(&mut self, i: usize, limit: usize, label: Option<String>) -> Expr {
        let Some(t) = self.tok(i) else {
            return Expr {
                span: Span::empty(limit),
                kind: ExprKind::Leaf { subs: Vec::new() },
            };
        };
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "if" => return self.if_expr(i, limit),
                "match" => return self.match_expr(i, limit),
                "loop" if self.is_punct(i + 1, '{') => {
                    let body = self.block(i + 1);
                    let hi = body.span.hi;
                    return Expr {
                        span: Span { lo: i, hi },
                        kind: ExprKind::Loop { label, body },
                    };
                }
                "while" => return self.while_expr(i, limit, label),
                "for" => return self.for_expr(i, limit, label),
                "return" => {
                    let inner = self.opt_value(i + 1, limit);
                    let hi = inner.as_ref().map_or(i + 1, |e| e.span.hi);
                    return Expr {
                        span: Span { lo: i, hi },
                        kind: ExprKind::Return(inner.map(Box::new)),
                    };
                }
                "break" => {
                    let mut j = i + 1;
                    if self.tok(j).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        j += 1;
                    }
                    let inner = self.opt_value(j, limit);
                    let hi = inner.as_ref().map_or(j, |e| e.span.hi);
                    return Expr {
                        span: Span { lo: i, hi },
                        kind: ExprKind::Break(inner.map(Box::new)),
                    };
                }
                "continue" => {
                    let mut j = i + 1;
                    if self.tok(j).is_some_and(|t| t.kind == TokKind::Lifetime) {
                        j += 1;
                    }
                    return Expr {
                        span: Span { lo: i, hi: j },
                        kind: ExprKind::Continue,
                    };
                }
                "unsafe" | "async" if self.is_punct(i + 1, '{') => {
                    let body = self.block(i + 1);
                    let hi = body.span.hi;
                    return Expr {
                        span: Span { lo: i, hi },
                        kind: ExprKind::Block(body),
                    };
                }
                "move" if self.is_punct(i + 1, '|') => {
                    return self.closure(i, i + 1, limit);
                }
                _ => {}
            }
        }
        if t.is_punct('{') {
            let body = self.block(i);
            let hi = body.span.hi;
            return Expr {
                span: Span { lo: i, hi },
                kind: ExprKind::Block(body),
            };
        }
        if t.is_punct('|') {
            return self.closure(i, i, limit);
        }
        self.leaf(i, limit)
    }

    /// Optional value after `return` / `break`: absent when the next
    /// token terminates the expression.
    fn opt_value(&mut self, j: usize, limit: usize) -> Option<Expr> {
        let t = self.tok(j)?;
        if j >= limit
            || t.is_punct(';')
            || t.is_punct('}')
            || t.is_punct(')')
            || t.is_punct(']')
            || t.is_punct(',')
        {
            return None;
        }
        Some(self.expr(j, limit))
    }

    /// `if cond { then } (else if …| else { … })?` — `if let` included
    /// (the condition leaf simply starts at `let`).
    fn if_expr(&mut self, i: usize, limit: usize) -> Expr {
        let cond = self.cond(i + 1, limit);
        let mut hi = cond.span.hi;
        let then = if self.is_punct(hi, '{') {
            let b = self.block(hi);
            hi = b.span.hi;
            b
        } else {
            Block {
                span: Span::empty(hi),
                stmts: Vec::new(),
            }
        };
        let els = if self.is_ident(hi, "else") {
            let e = if self.is_ident(hi + 1, "if") {
                self.if_expr(hi + 1, limit)
            } else if self.is_punct(hi + 1, '{') {
                let b = self.block(hi + 1);
                let bh = b.span.hi;
                Expr {
                    span: Span { lo: hi + 1, hi: bh },
                    kind: ExprKind::Block(b),
                }
            } else {
                self.leaf(hi + 1, limit)
            };
            hi = e.span.hi;
            Some(Box::new(e))
        } else {
            None
        };
        Expr {
            span: Span { lo: i, hi },
            kind: ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
        }
    }

    /// A condition / scrutinee / iterated expression: a leaf scanned to
    /// the first `{` at depth 0 (Rust bans bare struct literals here, so
    /// that `{` begins the body).
    fn cond(&mut self, i: usize, limit: usize) -> Expr {
        let mut j = i;
        let mut subs = Vec::new();
        while j < limit {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                let close = self.matching_close(j);
                self.scan_group(j + 1, close.saturating_sub(1), &mut subs);
                j = close;
                continue;
            }
            if t.is_punct('|') && is_closure_position(self.toks, j) {
                let c = self.closure_in_leaf(j, limit);
                let ch = c.span.hi;
                subs.push(c);
                j = ch;
                continue;
            }
            j += 1;
        }
        Expr {
            span: Span { lo: i, hi: j },
            kind: ExprKind::Leaf { subs },
        }
    }

    /// `match scrutinee { arms }`.
    fn match_expr(&mut self, i: usize, limit: usize) -> Expr {
        let scrutinee = self.cond(i + 1, limit);
        let mut hi = scrutinee.span.hi;
        let mut arms = Vec::new();
        if self.is_punct(hi, '{') {
            let close = self.matching_close(hi);
            let interior_end = close.saturating_sub(1);
            let mut j = hi + 1;
            while j < interior_end {
                let arm = self.arm(j, interior_end);
                debug_assert!(arm.span.hi > j);
                j = arm.span.hi.min(interior_end).max(j + 1);
                arms.push(arm);
            }
            hi = close;
        }
        Expr {
            span: Span { lo: i, hi },
            kind: ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
        }
    }

    /// One match arm: `(attrs)? pat (if guard)? => body ,?`
    fn arm(&mut self, i: usize, limit: usize) -> Arm {
        let start = i;
        let j = self.skip_attrs(i);
        // Pattern: scan to a guard `if` or the `=>`, both at depth 0.
        let mut k = j;
        let mut guard_if = None;
        while k < limit {
            let Some(t) = self.tok(k) else { break };
            if self.is_fat_arrow(k) {
                break;
            }
            if t.is_ident("if") && guard_if.is_none() {
                guard_if = Some(k);
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                k = self.matching_close(k);
                continue;
            }
            if t.is_punct('<') && k > j && self.is_path_sep(k.saturating_sub(2)) {
                // Turbofish in a path pattern (`Foo::<T>::Bar`).
                k = self.skip_generics(k).max(k + 1);
                continue;
            }
            k += 1;
        }
        let arrow = k; // at the `=` of `=>`, or limit
        let pat_hi = guard_if.unwrap_or(arrow);
        let pat = Span { lo: j, hi: pat_hi };
        let guard = guard_if.map(|g| {
            let mut e = self.leaf_until(g + 1, arrow);
            e.span.hi = arrow;
            e
        });
        // Body: after `=>` (two tokens), an expression; then optional `,`.
        let body_lo = (arrow + 2).min(limit);
        let body = if body_lo < limit {
            self.expr(body_lo, limit)
        } else {
            Expr {
                span: Span::empty(limit),
                kind: ExprKind::Leaf { subs: Vec::new() },
            }
        };
        let mut hi = body.span.hi.max(body_lo).max(start + 1);
        if self.is_punct(hi, ',') && hi < limit {
            hi += 1;
        }
        Arm {
            span: Span { lo: start, hi },
            pat,
            guard,
            body,
        }
    }

    /// `while cond { body }` (incl. `while let`).
    fn while_expr(&mut self, i: usize, limit: usize, label: Option<String>) -> Expr {
        let cond = self.cond(i + 1, limit);
        let mut hi = cond.span.hi;
        let body = if self.is_punct(hi, '{') {
            let b = self.block(hi);
            hi = b.span.hi;
            b
        } else {
            Block {
                span: Span::empty(hi),
                stmts: Vec::new(),
            }
        };
        Expr {
            span: Span { lo: i, hi },
            kind: ExprKind::While {
                label,
                cond: Box::new(cond),
                body,
            },
        }
    }

    /// `for pat in iter { body }`.
    fn for_expr(&mut self, i: usize, limit: usize, label: Option<String>) -> Expr {
        // Pattern: scan to the `in` ident at depth 0.
        let pat_lo = i + 1;
        let mut j = pat_lo;
        while j < limit {
            let Some(t) = self.tok(j) else { break };
            if t.is_ident("in") {
                break;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                j = self.matching_close(j);
                continue;
            }
            j += 1;
        }
        let pat = Span { lo: pat_lo, hi: j };
        let iter = self.cond(j + 1, limit);
        let mut hi = iter.span.hi;
        let body = if self.is_punct(hi, '{') {
            let b = self.block(hi);
            hi = b.span.hi;
            b
        } else {
            Block {
                span: Span::empty(hi),
                stmts: Vec::new(),
            }
        };
        Expr {
            span: Span { lo: i, hi },
            kind: ExprKind::For {
                label,
                pat,
                iter: Box::new(iter),
                body,
            },
        }
    }

    /// A closure in statement position: `(move)? |params| body`.
    /// `start` is the expression start (`move` or the pipe), `pipe_at`
    /// the opening `|`.
    fn closure(&mut self, start: usize, pipe_at: usize, limit: usize) -> Expr {
        let (params, body_lo) = self.closure_params(pipe_at);
        let body = self.expr(body_lo, limit);
        let hi = body.span.hi.max(body_lo);
        Expr {
            span: Span { lo: start, hi },
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
        }
    }

    /// Parse `|…|` at `pipe_at`; returns (param span, body start).
    /// Handles the `||` empty-parameter case (two adjacent pipes).
    fn closure_params(&mut self, pipe_at: usize) -> (Span, usize) {
        debug_assert!(self.is_punct(pipe_at, '|'));
        if self.is_punct(pipe_at + 1, '|') {
            return (Span::empty(pipe_at + 1), pipe_at + 2);
        }
        let mut j = pipe_at + 1;
        while let Some(t) = self.tok(j) {
            if t.is_punct('|') {
                return (
                    Span {
                        lo: pipe_at + 1,
                        hi: j,
                    },
                    j + 1,
                );
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                j = self.matching_close(j);
                continue;
            }
            if t.is_punct('<') {
                j = self.skip_generics(j).max(j + 1);
                continue;
            }
            j += 1;
        }
        (
            Span {
                lo: pipe_at + 1,
                hi: self.toks.len(),
            },
            self.toks.len(),
        )
    }

    /// A closure in the middle of a leaf (e.g. an argument). The body is
    /// a leaf scanned with closure-argument terminators (`,`) honored.
    fn closure_in_leaf(&mut self, pipe_at: usize, limit: usize) -> Expr {
        let start = if pipe_at > 0 && self.is_ident(pipe_at - 1, "move") {
            pipe_at - 1
        } else {
            pipe_at
        };
        let (params, body_lo) = self.closure_params(pipe_at);
        // Block-bodied closure: exactly the block.
        if self.is_punct(body_lo, '{') {
            let b = self.block(body_lo);
            let bh = b.span.hi;
            let body = Expr {
                span: Span {
                    lo: body_lo,
                    hi: bh,
                },
                kind: ExprKind::Block(b),
            };
            return Expr {
                span: Span { lo: start, hi: bh },
                kind: ExprKind::Closure {
                    params,
                    body: Box::new(body),
                },
            };
        }
        // Expression-bodied: scan to `,` / close delimiter at depth 0.
        let body = self.leaf_until_comma(body_lo, limit);
        let hi = body.span.hi.max(body_lo);
        Expr {
            span: Span { lo: start, hi },
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
        }
    }

    /// Leaf scanned to `,` or a closing delimiter at depth 0 (closure
    /// bodies inside argument lists).
    fn leaf_until_comma(&mut self, i: usize, limit: usize) -> Expr {
        let mut j = i;
        let mut subs = Vec::new();
        while j < limit {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct(',')
                || t.is_punct(')')
                || t.is_punct(']')
                || t.is_punct('}')
                || t.is_punct(';')
            {
                break;
            }
            j = self.leaf_step(j, limit, &mut subs);
        }
        Expr {
            span: Span { lo: i, hi: j },
            kind: ExprKind::Leaf { subs },
        }
    }

    /// Leaf scanned to exactly `hi` (guards: the `=>` is a hard stop).
    fn leaf_until(&mut self, i: usize, hi: usize) -> Expr {
        let mut subs = Vec::new();
        let mut j = i;
        while j < hi {
            j = self.leaf_step(j, hi, &mut subs);
        }
        Expr {
            span: Span { lo: i, hi },
            kind: ExprKind::Leaf { subs },
        }
    }

    /// The general leaf: scan from `i` to the statement boundary (`;` at
    /// depth 0, an unmatched close, or a block-starting keyword that can
    /// only follow a complete expression). Collects structured
    /// sub-expressions (control flow, closures, macros, blocks inside
    /// groups) in `subs`.
    fn leaf(&mut self, i: usize, limit: usize) -> Expr {
        let mut j = i;
        let mut subs = Vec::new();
        while j < limit {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct(';')
                || t.is_punct(')')
                || t.is_punct(']')
                || t.is_punct('}')
                || t.is_punct(',')
            {
                break;
            }
            // A bare `else` at leaf depth 0 can only be a `let … else`
            // divergence block — the statement parser owns it.
            if t.is_ident("else") {
                break;
            }
            // `.await`, `.into()` etc. keep the leaf going after a
            // group; a `{` here is a trailing block (struct literal in
            // leaf position, or the block of a method-chained match —
            // recurse it as a group either way).
            j = self.leaf_step(j, limit, &mut subs);
        }
        Expr {
            span: Span { lo: i, hi: j },
            kind: ExprKind::Leaf { subs },
        }
    }

    /// Advance one step inside a leaf, recursing into groups, macros,
    /// closures and mid-expression control flow. Returns the next index
    /// (always > `j`).
    fn leaf_step(&mut self, j: usize, limit: usize, subs: &mut Vec<Expr>) -> usize {
        let Some(t) = self.tok(j) else { return j + 1 };
        // Macro invocation: ident `!` delimiter.
        if t.kind == TokKind::Ident
            && self.is_punct(j + 1, '!')
            && self
                .tok(j + 2)
                .is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{'))
        {
            let name = t.text.clone();
            let close = self.matching_close(j + 2);
            let mut msubs = Vec::new();
            self.scan_group(j + 3, close.saturating_sub(1), &mut msubs);
            subs.push(Expr {
                span: Span { lo: j, hi: close },
                kind: ExprKind::Macro {
                    name,
                    args: Span {
                        lo: j + 3,
                        hi: close.saturating_sub(1),
                    },
                    subs: msubs,
                },
            });
            return close;
        }
        // Mid-leaf control flow (e.g. `let x = if c { a } else { b };`,
        // `(0..n).map(...)` chains containing match, etc.).
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "if" | "match" | "loop" | "while" | "for" | "unsafe"
            )
        {
            // Only treat as control flow if it actually introduces a
            // block (guards against `if` inside patterns handled
            // elsewhere, and `for<'a>` higher-ranked bounds).
            if !(t.is_ident("for") && self.is_punct(j + 1, '<')) {
                let e = self.control(j, limit, None);
                if e.span.hi > j && !matches!(e.kind, ExprKind::Leaf { .. }) {
                    let hi = e.span.hi;
                    subs.push(e);
                    return hi;
                }
            }
        }
        // Closures in argument position.
        if t.is_punct('|') && is_closure_position(self.toks, j) {
            let c = self.closure_in_leaf(j, limit);
            let hi = c.span.hi.max(j + 1);
            subs.push(c);
            return hi;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            let close = self.matching_close(j);
            self.scan_group(j + 1, close.saturating_sub(1), subs);
            return close;
        }
        // `<` after `::` (turbofish) — skip so its `>`s don't confuse
        // later comparisons. Plain `<` comparisons just step.
        if t.is_punct('<') && j >= 2 && self.is_path_sep(j - 2) {
            return self.skip_generics(j).max(j + 1);
        }
        j + 1
    }

    /// Scan a delimiter-group interior for structured sub-expressions
    /// (closures, macros, control flow, nested groups). Does not build
    /// leaf nodes for plain tokens — they stay covered by the enclosing
    /// leaf's span.
    fn scan_group(&mut self, lo: usize, hi: usize, subs: &mut Vec<Expr>) {
        let mut j = lo;
        while j < hi {
            let Some(t) = self.tok(j) else { break };
            if (t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "if" | "match" | "loop" | "while" | "for" | "unsafe"
                )
                && !(t.is_ident("for") && self.is_punct(j + 1, '<')))
                || (t.is_punct('|') && is_closure_position(self.toks, j))
                || (t.kind == TokKind::Ident
                    && self.is_punct(j + 1, '!')
                    && self
                        .tok(j + 2)
                        .is_some_and(|d| d.is_punct('(') || d.is_punct('[') || d.is_punct('{')))
            {
                j = self.leaf_step(j, hi, subs);
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                let close = self.matching_close(j);
                self.scan_group(j + 1, close.saturating_sub(1), subs);
                j = close;
                continue;
            }
            j += 1;
        }
    }
}

/// Is the `|` at `j` the start of a closure (vs. a binary or/bit-or)?
/// Heuristic: a closure's `|` follows an expression *opener* — start of
/// stream, `(`/`[`/`{`, `,`, `=`, `=>`/`->` (the `>` token), `;`, `:`,
/// `return`/`move`/`else`/`in`/`if`/`match` keywords — whereas binary
/// `|` follows a complete operand (ident, literal, `)`, `]`).
fn is_closure_position(toks: &[Tok], j: usize) -> bool {
    if j == 0 {
        return true;
    }
    let p = &toks[j - 1];
    match p.kind {
        TokKind::Punct => matches!(
            p.text.as_str(),
            "(" | "[" | "{" | "," | "=" | ">" | ";" | ":" | "?" | "&"
        ),
        TokKind::Ident => matches!(
            p.text.as_str(),
            "return" | "move" | "else" | "in" | "if" | "match" | "break" | "do" | "yield"
        ),
        _ => false,
    }
}
