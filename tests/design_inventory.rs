//! DESIGN.md §3 must describe the workspace that exists: every package
//! has a row in the inventory table, and each row's "Depends on" cell
//! names exactly the in-workspace `[dependencies]` of that package's
//! `Cargo.toml`.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The package name and in-workspace `[dependencies]` of one manifest.
fn manifest(path: &Path) -> (String, BTreeSet<String>) {
    let text = fs::read_to_string(path).expect("manifest readable");
    let mut section = "";
    let mut name = None;
    let mut deps = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" && line.starts_with("name") {
            name = line.split('"').nth(1).map(str::to_string);
        } else if section == "[dependencies]" && line.starts_with("webiq") {
            let dep: String = line
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            deps.insert(dep);
        }
    }
    (name.expect("manifest has a package name"), deps)
}

/// The §3 table rows, split into trimmed cells.
fn inventory_rows(design: &str) -> Vec<Vec<String>> {
    let start = design.find("## 3.").expect("DESIGN.md has §3");
    let end = design[start..]
        .find("## 4.")
        .map_or(design.len(), |i| start + i);
    design[start..end]
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---"))
        .map(|l| {
            l.trim_matches('|')
                .split(" | ")
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

#[test]
fn design_inventory_lists_every_package_with_its_dependencies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md readable");
    let rows = inventory_rows(&design);

    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let path = entry.expect("dir entry").path().join("Cargo.toml");
        if path.exists() {
            manifests.push(path);
        }
    }
    assert!(
        manifests.len() > 10,
        "found only {} manifests",
        manifests.len()
    );

    for path in &manifests {
        let (name, deps) = manifest(path);
        let tag = format!("`{name}`");
        let row = rows
            .iter()
            .find(|r| r.first().is_some_and(|c| c.contains(&tag)))
            .unwrap_or_else(|| panic!("DESIGN.md §3 has no row for package {name}"));
        let cell = row.last().expect("row has cells");
        let listed: BTreeSet<String> = cell
            .split(", ")
            .map(|d| d.trim_matches('`').to_string())
            .filter(|d| d != "—")
            .collect();
        assert_eq!(
            listed,
            deps,
            "DESIGN.md §3 dependencies of {name} disagree with {}",
            path.display()
        );
    }
}
