//! Per-file model the rules run against: tokens, the parsed syntax
//! tree, source lines, allow annotations, and per-token context masks
//! (test-only code, attributes, declared types, patterns).

use crate::ast::{self, Tree};
use crate::diag::{parse_allows, Allow, Finding};
use crate::lexer::{lex, Tok};
use crate::parser::parse;

/// A lexed and parsed source file ready for rule passes.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Raw source lines (for snippets).
    pub lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Parsed item/expression tree over `toks`.
    pub tree: Tree,
    /// `test_mask[i]` is true when token `i` is inside `#[cfg(test)]` /
    /// `#[test]` code (rules that target production code skip those).
    pub test_mask: Vec<bool>,
    /// `attr_mask[i]`: token `i` is inside an attribute (`#[…]`), where
    /// idents are metadata (`#[derive(Hash)]`), not code.
    pub attr_mask: Vec<bool>,
    /// `type_mask[i]`: token `i` is inside a declared-type position
    /// (struct field type, `let` annotation, fn parameter type).
    pub type_mask: Vec<bool>,
    /// `pat_mask[i]`: token `i` is inside a binding pattern (`let` /
    /// `for` / match-arm patterns), where a name is bound, not called.
    pub pat_mask: Vec<bool>,
    /// Parsed allow annotations.
    pub allows: Vec<Allow>,
    /// Findings for malformed annotations.
    pub allow_errors: Vec<Finding>,
}

impl SourceFile {
    /// Lex, parse, and annotate `src` as file `rel`.
    pub fn new(rel: &str, src: &str) -> Self {
        let out = lex(src);
        let lines: Vec<String> = src.lines().map(String::from).collect();
        let mut code_lines: Vec<u32> = out.toks.iter().map(|t| t.line).collect();
        code_lines.dedup();
        let (allows, allow_errors) = parse_allows(rel, &out.comments, &lines, &code_lines);
        let test_mask = test_mask(&out.toks);
        let tree = parse(&out.toks);
        let (attr_mask, type_mask, pat_mask) = context_masks(&tree, out.toks.len());
        SourceFile {
            rel: rel.to_string(),
            lines,
            toks: out.toks,
            tree,
            test_mask,
            attr_mask,
            type_mask,
            pat_mask,
            allows,
            allow_errors,
        }
    }

    /// The trimmed source line a token sits on.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Build a finding for the token at index `i`.
    pub fn finding(&self, rule: &'static str, i: usize, message: String) -> Finding {
        let t = &self.toks[i];
        Finding {
            rule,
            file: self.rel.clone(),
            line: t.line,
            col: t.col,
            message,
            snippet: self.snippet(t.line),
            justification: None,
        }
    }
}

/// Compute the attribute / declared-type / pattern context masks from
/// the parsed tree. Tokens inside these positions are data the rules'
/// expression patterns must not match against (`from_ps` naming a field
/// type or bound in a pattern is not a constructor call).
fn context_masks(tree: &Tree, n: usize) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
    let mut attr = vec![false; n];
    let mut ty = vec![false; n];
    let mut pat = vec![false; n];
    let mark = |mask: &mut Vec<bool>, sp: ast::Span| {
        for m in mask.iter_mut().take(sp.hi.min(n)).skip(sp.lo) {
            *m = true;
        }
    };
    for sp in &tree.attrs {
        mark(&mut attr, *sp);
    }
    for it in &tree.items {
        mark_item(it, &mut ty, &mut pat, n);
    }
    (attr, ty, pat)
}

fn mark_item(it: &ast::Item, ty: &mut Vec<bool>, pat: &mut Vec<bool>, n: usize) {
    let mark = |mask: &mut Vec<bool>, sp: ast::Span| {
        for m in mask.iter_mut().take(sp.hi.min(n)).skip(sp.lo) {
            *m = true;
        }
    };
    match &it.kind {
        ast::ItemKind::Fn(f) => {
            for p in &f.params {
                mark(ty, p.ty);
            }
            if let Some(b) = &f.body {
                mark_block(b, ty, pat, n);
            }
        }
        ast::ItemKind::Struct(fields) => {
            for f in fields {
                mark(ty, f.ty);
            }
        }
        ast::ItemKind::Items(items) => {
            for sub in items {
                mark_item(sub, ty, pat, n);
            }
        }
        _ => {}
    }
}

fn mark_block(b: &ast::Block, ty: &mut Vec<bool>, pat: &mut Vec<bool>, n: usize) {
    let mark = |mask: &mut Vec<bool>, sp: ast::Span| {
        for m in mask.iter_mut().take(sp.hi.min(n)).skip(sp.lo) {
            *m = true;
        }
    };
    for s in &b.stmts {
        match &s.kind {
            ast::StmtKind::Let {
                pat: p,
                ty: t,
                init,
                els,
            } => {
                mark(pat, *p);
                if let Some(t) = t {
                    mark(ty, *t);
                }
                if let Some(e) = init {
                    mark_expr(e, ty, pat, n);
                }
                if let Some(e) = els {
                    mark_block(e, ty, pat, n);
                }
            }
            ast::StmtKind::Item(it) => mark_item(it, ty, pat, n),
            ast::StmtKind::Expr(e) => mark_expr(e, ty, pat, n),
        }
    }
}

fn mark_expr(e: &ast::Expr, ty: &mut Vec<bool>, pat: &mut Vec<bool>, n: usize) {
    let mut mark_pat = |sp: ast::Span| {
        for m in pat.iter_mut().take(sp.hi.min(n)).skip(sp.lo) {
            *m = true;
        }
    };
    match &e.kind {
        ast::ExprKind::For { pat: p, .. } => mark_pat(*p),
        ast::ExprKind::Match { arms, .. } => {
            for a in arms {
                mark_pat(a.pat);
            }
        }
        _ => {}
    }
    // Recurse through nested blocks so `let` statements inside control
    // flow are covered too.
    match &e.kind {
        ast::ExprKind::If { cond, then, els } => {
            mark_expr(cond, ty, pat, n);
            mark_block(then, ty, pat, n);
            if let Some(x) = els {
                mark_expr(x, ty, pat, n);
            }
        }
        ast::ExprKind::Match { scrutinee, arms } => {
            mark_expr(scrutinee, ty, pat, n);
            for a in arms {
                if let Some(g) = &a.guard {
                    mark_expr(g, ty, pat, n);
                }
                mark_expr(&a.body, ty, pat, n);
            }
        }
        ast::ExprKind::Loop { body, .. } | ast::ExprKind::Block(body) => {
            mark_block(body, ty, pat, n)
        }
        ast::ExprKind::While { cond, body, .. } => {
            mark_expr(cond, ty, pat, n);
            mark_block(body, ty, pat, n);
        }
        ast::ExprKind::For { iter, body, .. } => {
            mark_expr(iter, ty, pat, n);
            mark_block(body, ty, pat, n);
        }
        ast::ExprKind::Closure { body, .. } => mark_expr(body, ty, pat, n),
        ast::ExprKind::Macro { subs, .. } | ast::ExprKind::Leaf { subs } => {
            for s in subs {
                mark_expr(s, ty, pat, n);
            }
        }
        ast::ExprKind::Return(x) | ast::ExprKind::Break(x) => {
            if let Some(x) = x {
                mark_expr(x, ty, pat, n);
            }
        }
        ast::ExprKind::Continue => {}
    }
}

/// Index of the token matching the opening delimiter at `open` (one of
/// `(`/`[`/`{`), or `None` when unbalanced.
pub fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Mark every token inside test-only items.
///
/// An item is test-only when an attribute `#[test]`, or `#[cfg(...)]`
/// whose argument list mentions `test` without `not`, sits in front of it.
/// The marked range runs from the attribute through the item's closing
/// brace (or terminating `;` for brace-less items). This is a token-level
/// approximation of item structure — good enough because rustc has already
/// parsed the file, so attributes really are followed by items.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let Some(close) = matching_close(toks, i + 1) else {
            i += 1;
            continue;
        };
        let attr = &toks[i + 2..close];
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") && attr.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => {
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"))
            }
            _ => false,
        };
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Mark from the attribute to the end of the following item: skip
        // any further attributes, then scan to the first `{` at depth 0
        // (mark through its matching `}`) or a bare `;`.
        let mut j = close + 1;
        while j < toks.len()
            && toks[j].is_punct('#')
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match matching_close(toks, j + 1) {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let mut end = toks.len().saturating_sub(1);
        let mut k = j;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct(';') {
                end = k;
                break;
            }
            if t.is_punct('{') {
                end = matching_close(toks, k).unwrap_or(toks.len() - 1);
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn live() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\n\
                   fn live2() {}\n";
        let f = SourceFile::new("x.rs", src);
        let unwraps: Vec<bool> = f
            .toks
            .iter()
            .zip(&f.test_mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(unwraps, [false, true]);
        // Code after the module is live again.
        let live2 = f
            .toks
            .iter()
            .position(|t| t.is_ident("live2"))
            .expect("live2");
        assert!(!f.test_mask[live2]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn live() { a.unwrap(); }\n";
        let f = SourceFile::new("x.rs", src);
        assert!(f.test_mask.iter().all(|&m| !m));
    }

    #[test]
    fn test_fn_with_extra_attrs_is_masked() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { x[0]; }\n";
        let f = SourceFile::new("x.rs", src);
        let idx = f.toks.iter().position(|t| t.is_punct('[') && t.line == 3);
        assert!(idx.is_some_and(|i| f.test_mask[i]));
    }
}
