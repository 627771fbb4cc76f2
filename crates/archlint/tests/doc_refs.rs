//! Every Markdown file a source comment names must exist: a comment that
//! sends the reader to a Markdown file for the reasoning behind the code
//! is only as good as that file.
//!
//! A name resolves when some `.md` file in the repository has that path,
//! or ends with it (`ARCHITECTURE.md` finds `docs/ARCHITECTURE.md`).

use std::fs;
use std::path::{Path, PathBuf};

/// Build and benchmark output, and git metadata: never source.
const SKIP_DIRS: [&str; 4] = ["target", ".git", ".bench_build", ".bench_out"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable source directory")
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        if path.is_dir() {
            if !name.is_some_and(|n| SKIP_DIRS.contains(&n.as_str())) {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The `*.md` names in one comment: runs of path characters ending in
/// `.md`, with leading `./` and `../` dropped.
fn md_names(comment: &str) -> Vec<String> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    comment
        .split(|c: char| !is_path(c))
        .filter_map(|word| word.trim_end_matches('.').strip_suffix(".md"))
        .map(|stem| stem.trim_start_matches("./").trim_start_matches("../"))
        .filter(|stem| !stem.is_empty() && !stem.ends_with('/'))
        .map(|stem| format!("{stem}.md"))
        .collect()
}

#[test]
fn md_names_are_extracted_from_comment_text() {
    assert_eq!(
        md_names("see docs/LINTS.md, and ARCHITECTURE.md."),
        vec!["docs/LINTS.md", "ARCHITECTURE.md"]
    );
    assert_eq!(md_names("(`../README.md` here)"), vec!["README.md"]);
    assert!(md_names("no file here: .md, markdown").is_empty());
}

#[test]
fn markdown_files_named_in_source_comments_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/archlint sits two levels under the repo root");
    let mut files = Vec::new();
    walk(root, &mut files);
    let rel = |p: &Path| {
        p.strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let docs: Vec<String> = files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .map(|p| rel(p))
        .collect();
    let resolves = |name: &str| {
        docs.iter()
            .any(|d| d == name || d.ends_with(&format!("/{name}")))
    };

    let mut sources = 0;
    let mut dangling = Vec::new();
    for file in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        sources += 1;
        let text = fs::read_to_string(file).expect("readable source file");
        for (idx, line) in text.lines().enumerate() {
            let Some((_, comment)) = line.split_once("//") else {
                continue;
            };
            for name in md_names(comment) {
                if !resolves(&name) {
                    dangling.push(format!("{}:{}: {name}", rel(file), idx + 1));
                }
            }
        }
    }
    assert!(sources > 100, "the walk saw too little ({sources} files)");
    assert!(
        dangling.is_empty(),
        "source comments name Markdown files that do not exist:\n{}",
        dangling.join("\n")
    );
}
