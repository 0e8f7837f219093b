//! Paper ↔ code concordance: each numbered relation has one defining item,
//! whose rustdoc line `/// Paper: <relation>[, <relation>…]` DESIGN.md §1's
//! table names with its file. A relation reached only through a later
//! generalisation has a `subsumed by …` row and must carry no tag.

use std::collections::BTreeMap;
use std::path::Path;

/// `relation → (item, file)` from the table in DESIGN.md's §1.
fn rows(design: &str) -> BTreeMap<String, (String, String)> {
    let section = design.split("\n## 1.").nth(1).unwrap_or("");
    let section = section.split("\n## 2.").next().unwrap_or("");
    let cell = |c: &str| c.trim().trim_matches('`').to_string();
    section
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| Relation"))
        .map(|l| l.split('|').map(cell).collect::<Vec<_>>())
        .filter(|c| c.len() >= 6)
        .map(|c| (c[1].clone(), (c[3].clone(), c[4].clone())))
        .collect()
}

/// Every `Paper:` tag in `(path, text)` sources: `(relation, path, fn name)`.
fn tags(sources: &[(String, String)]) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for (path, text) in sources {
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(list) = line.strip_prefix("/// Paper: ") else {
                continue;
            };
            let item = lines[i..]
                .iter()
                .find(|l| !l.starts_with("///") && !l.starts_with("#["))
                .and_then(|l| l.split("fn ").nth(1))
                .map(|l| l.split(['(', '<']).next().unwrap_or("").to_string())
                .unwrap_or_default();
            for rel in list.split(", ") {
                out.push((rel.trim().to_string(), path.clone(), item.clone()));
            }
        }
    }
    out
}

/// Every disagreement between the table and the tags.
fn check(design: &str, sources: &[(String, String)]) -> Vec<String> {
    let rows = rows(design);
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut errors, tags) = (Vec::new(), tags(sources));
    for (rel, path, item) in &tags {
        *seen.entry(rel.as_str()).or_default() += 1;
        match rows.get(rel) {
            None => errors.push(format!("{path}: tag `{rel}` has no row in DESIGN §1")),
            Some((_, file)) if file != path => {
                errors.push(format!("{path}: tag `{rel}` belongs in {file}"))
            }
            Some((want, _)) if want.rsplit("::").next() != Some(item.as_str()) => errors.push(
                format!("{path}: `{rel}` tags `{item}`, the table says `{want}`"),
            ),
            Some(_) => {}
        }
    }
    for (rel, (item, file)) in &rows {
        let n = seen.get(rel.as_str()).copied().unwrap_or(0);
        match (item.strip_prefix("subsumed by "), n) {
            (Some(by), 0) => {
                let missing = by.split(", ").filter(|r| !rows.contains_key(*r));
                errors.extend(missing.map(|r| format!("`{rel}`: subsumer `{r}` has no row")));
            }
            (Some(_), _) => errors.push(format!("`{rel}` is subsumed but tagged {n}×")),
            (None, 1) => {}
            (None, _) => errors.push(format!("`{rel}` ({file}) is tagged {n}×, want 1")),
        }
    }
    errors
}

/// `(path relative to the root, text)` of every `.rs` file under `dir`.
fn sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir).unwrap().flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            sources(root, &path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            out.push((rel, std::fs::read_to_string(&path).unwrap()));
        }
    }
}

#[test]
fn every_relation_has_exactly_one_tag_in_its_design_row_s_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let mut found = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        sources(root, &krate.path().join("src"), &mut found);
    }
    assert!(rows(&design).len() >= 29, "DESIGN §1 lost its table");
    let errors = check(&design, &found);
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

const DESIGN: &str = "# D\n## 1. Paper\n| Relation | Says | Item | File |\n|---|---|---|---|\n\
    | eq. 1 | x | `A::f` | `a.rs` |\n| eq. 2 | y | `g` | `b.rs` |\n\
    | eq. 3 | z | subsumed by eq. 2 | — |\n## 2. Rest\n| eq. 9 | w | `h` | `c.rs` |\n";

fn src(path: &str, text: &str) -> (String, String) {
    (path.to_string(), text.to_string())
}

fn has(errors: &[String], want: &str) -> bool {
    errors.iter().any(|e| e.contains(want))
}

#[test]
fn scanner_accepts_one_tag_per_row_and_none_past_section_1() {
    let a = src(
        "a.rs",
        "/// Docs.\n/// Paper: eq. 1\n#[inline]\npub fn f() {}",
    );
    let b = src("b.rs", "    /// Paper: eq. 2\n    fn g<T>(t: T) {}");
    assert_eq!(check(DESIGN, &[a, b]), Vec::<String>::new());
}

#[test]
fn scanner_rejects_a_duplicate_a_missing_and_a_misplaced_tag() {
    let a = src(
        "a.rs",
        "/// Paper: eq. 1\nfn f() {}\n/// Paper: eq. 1, eq. 2\nfn f() {}",
    );
    let e = check(DESIGN, &[a]);
    assert!(has(&e, "`eq. 1` (a.rs) is tagged 2×"), "{e:?}");
    assert!(has(&e, "belongs in b.rs"), "{e:?}");
    let e = check(DESIGN, &[src("a.rs", "/// Paper: eq. 1\nfn f() {}")]);
    assert_eq!(e, ["`eq. 2` (b.rs) is tagged 0×, want 1"]);
}

#[test]
fn scanner_rejects_tags_on_subsumed_or_unlisted_relations_and_wrong_items() {
    let a = src("a.rs", "/// Paper: eq. 1\nfn other() {}");
    let b = src("b.rs", "/// Paper: eq. 2, eq. 3, eq. 9\nfn g() {}");
    let e = check(DESIGN, &[a, b]);
    assert!(has(&e, "tags `other`"), "{e:?}");
    assert!(has(&e, "`eq. 3` is subsumed"), "{e:?}");
    assert!(has(&e, "`eq. 9` has no row"), "{e:?}");
}
