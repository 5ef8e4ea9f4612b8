//! §8 of the paper: "our future work will study how to transfer our
//! techniques to other contexts, such as … schema matching and record
//! linkage."
//!
//! This example runs that transfer: two *relational* schemas (no query
//! interfaces, no Deep Web) whose columns partially lack data samples are
//! matched with the same machinery — Surface-Web instance discovery for
//! the empty columns, then label+domain similarity clustering. The
//! "Surface Web" here is a handful of pages about the publishing domain.

use webiq::core::{surface, CompletionMemo, DomainInfo, WebIQConfig};
use webiq::matcher::{match_attributes, MatchAttribute, MatchConfig};
use webiq::web::{Corpus, SearchEngine};

/// One relational column: name + sampled values (possibly none).
struct Column {
    name: &'static str,
    samples: Vec<String>,
}

fn schema_a() -> Vec<Column> {
    vec![
        Column {
            name: "title",
            samples: strings(&["The Firm", "Dune", "Emma"]),
        },
        Column {
            name: "writer",
            samples: vec![],
        }, // no data sampled
        Column {
            name: "publisher",
            samples: strings(&["Penguin", "Vintage"]),
        },
        Column {
            name: "price_usd",
            samples: strings(&["$10", "$25"]),
        },
    ]
}

fn schema_b() -> Vec<Column> {
    vec![
        Column {
            name: "book_name",
            samples: strings(&["Dune", "Congo", "It"]),
        },
        Column {
            name: "author",
            samples: strings(&["Stephen King", "John Grisham"]),
        },
        Column {
            name: "publishing_house",
            samples: vec![],
        }, // no data sampled
        Column {
            name: "cost",
            samples: strings(&["$12", "$30"]),
        },
    ]
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_string()).collect()
}

/// A tiny "Surface Web" about books.
fn book_web() -> SearchEngine {
    SearchEngine::new(Corpus::from_texts([
        "Famous writers such as Stephen King, John Grisham, and Mark Twain. books",
        "We stock such writers as Agatha Christie and Isaac Asimov. books",
        "Stephen King is the writer of many bestsellers. books",
        "Publishing houses such as Penguin, Vintage, and Knopf. books",
        "such publishing houses as Random House and Doubleday print classics. books",
        "Writer: Stephen King. Title: It.",
        "Publishing house: Penguin.",
        "A noise page about gardening and recipes.",
    ]))
}

fn main() {
    let engine = book_web();
    let info = DomainInfo {
        object: "book".into(),
        domain_terms: vec!["books".into()],
        sibling_terms: Vec::new(),
    };
    let cfg = WebIQConfig {
        k: 4,
        ..WebIQConfig::default()
    };

    // Enrich the empty columns from the (simulated) Web, exactly as WebIQ
    // enriches instance-less interface attributes.
    let mut attrs: Vec<MatchAttribute> = Vec::new();
    let memo = CompletionMemo::new();
    for (iface, schema) in [(0usize, schema_a()), (1, schema_b())] {
        for (j, col) in schema.into_iter().enumerate() {
            let mut values = col.samples;
            if values.is_empty() {
                let label = col.name.replace('_', " ");
                let found = surface::discover(&engine, &label, &info, &cfg, &memo);
                println!(
                    "column {:<20} had no data → acquired {:?}",
                    format!("{}(schema {})", col.name, iface),
                    found.texts()
                );
                values = found.texts();
            }
            attrs.push(MatchAttribute {
                r: (iface, j),
                label: col.name.replace('_', " "),
                values,
            });
        }
    }

    let result = match_attributes(&attrs, &MatchConfig::default());
    println!("\ncolumn correspondences:");
    for cluster in &result.clusters {
        if cluster.len() < 2 {
            continue;
        }
        let names: Vec<&str> = cluster
            .iter()
            .map(|r| {
                attrs
                    .iter()
                    .find(|a| a.r == *r)
                    .expect("attr exists")
                    .label
                    .as_str()
            })
            .collect();
        println!("   {} ≡ {}", names[0], names[1..].join(" ≡ "));
    }

    // The pair the labels alone could never connect:
    let writer = attrs
        .iter()
        .position(|a| a.label == "writer")
        .expect("writer");
    let author = attrs
        .iter()
        .position(|a| a.label == "author")
        .expect("author");
    let same_cluster = result
        .clusters
        .iter()
        .any(|c| c.contains(&attrs[writer].r) && c.contains(&attrs[author].r));
    println!(
        "\nwriter ≡ author (zero label overlap, bridged by acquired instances): {}",
        if same_cluster { "✓" } else { "✗" }
    );
}
