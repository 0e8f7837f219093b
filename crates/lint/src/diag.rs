//! Findings, allow annotations, and the report of a `check` run.

use crate::lexer::LineComment;
use std::collections::BTreeMap;

/// One diagnostic produced by a rule (or by the annotation machinery
/// itself, for malformed or unused annotations).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule name (`raw-time-arithmetic`, …).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Justification from a matching allow annotation, when one suppressed
    /// this finding.
    pub justification: Option<String>,
}

impl Finding {
    /// Whether an allow annotation suppressed this finding.
    pub fn allowed(&self) -> bool {
        self.justification.is_some()
    }
}

/// A parsed `// lit-lint: allow(<rule>, "<justification>")` annotation.
///
/// Grammar (one annotation per line comment):
///
/// ```text
/// // lit-lint: allow(<rule-name>, "<non-empty justification>")
/// ```
///
/// A trailing annotation (code before it on the same line) applies to its
/// own line; an annotation alone on a line applies to the next line that
/// carries code. Annotations stack: consecutive annotation-only lines each
/// apply to the same following code line.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule this annotation suppresses.
    pub rule: String,
    /// The mandatory justification string.
    pub justification: String,
    /// Line the annotation itself is on.
    pub line: u32,
    /// Line the annotation applies to.
    pub target: u32,
}

/// Scan line comments for allow annotations. `code_lines` must hold, in
/// ascending order, every line number that carries at least one token.
/// Malformed annotations come back as error findings — a typo in an
/// annotation must fail the build, not silently stop suppressing.
pub fn parse_allows(
    file: &str,
    comments: &[LineComment],
    lines: &[String],
    code_lines: &[u32],
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // Annotations are plain `//` comments only: doc comments (`///`,
        // `//!`) routinely *quote* the grammar and must not parse.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("lit-lint:") else {
            continue;
        };
        let body = c.text[at + "lit-lint:".len()..].trim();
        let snippet = lines
            .get(c.line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        match parse_allow_body(body) {
            Ok((rule, justification)) => {
                // Comments are not tokens, so tokens on the annotation's
                // line mean it trails code → same line; otherwise it
                // applies to the next line that has code.
                let has_code_before = code_lines.binary_search(&c.line).is_ok();
                let target = if has_code_before {
                    c.line
                } else {
                    code_lines
                        .iter()
                        .copied()
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line)
                };
                allows.push(Allow {
                    rule,
                    justification,
                    line: c.line,
                    target,
                });
            }
            Err(why) => errors.push(Finding {
                rule: "bad-allow",
                file: file.to_string(),
                line: c.line,
                col: c.col,
                message: format!(
                    "malformed lit-lint annotation ({why}); expected \
                     `// lit-lint: allow(<rule>, \"<justification>\")`"
                ),
                snippet,
                justification: None,
            }),
        }
    }
    (allows, errors)
}

fn parse_allow_body(body: &str) -> Result<(String, String), &'static str> {
    let rest = body.strip_prefix("allow").ok_or("expected `allow`")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(').ok_or("expected `(`")?;
    let rest = rest.strip_suffix(')').ok_or("expected closing `)`")?;
    let (rule, just) = rest.split_once(',').ok_or("expected `,`")?;
    let rule = rule.trim();
    if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Err("bad rule name");
    }
    let just = just.trim();
    let just = just
        .strip_prefix('"')
        .and_then(|j| j.strip_suffix('"'))
        .ok_or("justification must be quoted")?;
    if just.trim().is_empty() {
        return Err("justification must be non-empty");
    }
    Ok((rule.to_string(), just.to_string()))
}

/// The complete result of a `check` run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed ones included (`justification` set).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Total allow annotations across the scanned files — the burndown
    /// number `--max-allows` gates on. Stale ones are violations, so
    /// this can only shrink.
    pub allows_total: usize,
}

impl Report {
    /// Findings not suppressed by an annotation.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed())
    }

    /// Count of unsuppressed findings.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }

    /// Per-rule violation counts.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for f in self.violations() {
            *m.entry(f.rule).or_insert(0) += 1;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn allow_grammar_round_trip() {
        assert_eq!(
            parse_allow_body("allow(checked-clock-ops, \"sized at build\")"),
            Ok(("checked-clock-ops".into(), "sized at build".into()))
        );
        assert!(parse_allow_body("allow(rule)").is_err());
        assert!(parse_allow_body("allow(rule, \"\")").is_err());
        assert!(parse_allow_body("allow(rule, unquoted)").is_err());
        assert!(parse_allow_body("deny(rule, \"x\")").is_err());
    }

    #[test]
    fn trailing_vs_standalone_targets() {
        let src = "let x = 1; // lit-lint: allow(r1, \"same line\")\n\
                   // lit-lint: allow(r2, \"next line\")\n\
                   let y = 2;\n";
        let out = lex(src);
        let lines: Vec<String> = src.lines().map(String::from).collect();
        let mut code_lines: Vec<u32> = out.toks.iter().map(|t| t.line).collect();
        code_lines.dedup();
        let (allows, errs) = parse_allows("f.rs", &out.comments, &lines, &code_lines);
        assert!(errs.is_empty());
        assert_eq!(allows.len(), 2);
        assert_eq!((allows[0].rule.as_str(), allows[0].target), ("r1", 1));
        assert_eq!((allows[1].rule.as_str(), allows[1].target), ("r2", 3));
    }

    #[test]
    fn malformed_annotation_is_a_finding() {
        let src = "// lit-lint: allow(oops\nlet x = 1;\n";
        let out = lex(src);
        let lines: Vec<String> = src.lines().map(String::from).collect();
        let (allows, errs) = parse_allows("f.rs", &out.comments, &lines, &[2]);
        assert!(allows.is_empty());
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, "bad-allow");
    }
}
