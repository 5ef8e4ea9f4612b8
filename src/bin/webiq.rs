//! The `webiq` command-line interface.
//!
//! ```text
//! webiq domains                                   list available domains
//! webiq generate --domain book --out DIR          export a benchmark to disk
//! webiq match --dataset DIR [--threshold T]       match an exported benchmark
//! webiq acquire --domain book [--components C]    run instance acquisition
//! ```
//!
//! All subcommands accept `--seed N` (default 0x1ce0) and are
//! deterministic in it.

use std::path::PathBuf;
use std::process::ExitCode;

use webiq::core::{Components, WebIQConfig};
use webiq::data::{export, gold, kb};
use webiq::matcher::{match_attributes, MatchAttribute, MatchConfig, PrF1};
use webiq::pipeline::DomainPipeline;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "domains" => cmd_domains(),
        "generate" => cmd_generate(rest),
        "match" => cmd_match(rest),
        "acquire" => cmd_acquire(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "usage:
  webiq domains
  webiq generate --domain <key> --out <dir> [--seed N]
  webiq match    --dataset <dir> [--threshold T]
  webiq acquire  --domain <key> [--seed N] [--components all|surface|surface-deep]";

/// Minimal flag parser: `--name value` pairs.
fn flag(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

fn seed_of(rest: &[String]) -> Result<u64, String> {
    match flag(rest, "--seed") {
        None => Ok(0x1ce0),
        Some(v) => v.parse().map_err(|_| format!("invalid --seed {v:?}")),
    }
}

fn cmd_domains() -> Result<(), String> {
    println!("paper domains:");
    for d in kb::all_domains() {
        println!(
            "  {:<12} ({} concepts, object: {})",
            d.key,
            d.concepts.len(),
            d.object
        );
    }
    println!("extension domains:");
    for d in kb::extended_domains() {
        if !kb::all_domains().iter().any(|p| p.key == d.key) {
            println!(
                "  {:<12} ({} concepts, object: {})",
                d.key,
                d.concepts.len(),
                d.object
            );
        }
    }
    Ok(())
}

fn cmd_generate(rest: &[String]) -> Result<(), String> {
    let domain = flag(rest, "--domain").ok_or("--domain is required")?;
    let out = PathBuf::from(flag(rest, "--out").ok_or("--out is required")?);
    let seed = seed_of(rest)?;
    let def = kb::domain(&domain).ok_or_else(|| format!("unknown domain {domain:?}"))?;
    let ds = webiq::data::generate_domain(
        def,
        &webiq::data::GenOptions {
            seed,
            ..webiq::data::GenOptions::default()
        },
    );
    export::export(&ds, &out).map_err(|e| e.to_string())?;
    println!(
        "exported {} interfaces ({} attributes) to {}",
        ds.interfaces.len(),
        ds.attr_count(),
        out.display()
    );
    Ok(())
}

fn cmd_match(rest: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(flag(rest, "--dataset").ok_or("--dataset is required")?);
    let threshold: f64 = match flag(rest, "--threshold") {
        None => 0.0,
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid --threshold {v:?}"))?,
    };
    let ds = export::import(&dir).map_err(|e| e.to_string())?;
    let attrs: Vec<MatchAttribute> = webiq::matcher::attributes_of(&ds);
    let result = match_attributes(&attrs, &MatchConfig::with_threshold(threshold));

    println!("clusters (≥2 attributes):");
    for cluster in &result.clusters {
        if cluster.len() < 2 {
            continue;
        }
        let labels: Vec<String> = cluster
            .iter()
            .map(|r| {
                let a = ds.attribute(*r).expect("cluster refs are valid");
                format!("{}:{}", ds.interfaces[r.0].site, a.label)
            })
            .collect();
        println!("  {}", labels.join(" ≡ "));
    }

    // evaluate when gold concepts survived the export
    if ds.attributes().any(|(_, a)| !a.concept.is_empty()) {
        let metrics: PrF1 = result.evaluate(&ds);
        println!(
            "\nvs gold: P={:.3} R={:.3} F1={:.1}%  ({} gold pairs)",
            metrics.precision,
            metrics.recall,
            metrics.f1_pct(),
            gold::gold_pairs(&ds).len()
        );
    }
    Ok(())
}

fn cmd_acquire(rest: &[String]) -> Result<(), String> {
    let domain = flag(rest, "--domain").ok_or("--domain is required")?;
    let seed = seed_of(rest)?;
    let components = match flag(rest, "--components").as_deref() {
        None | Some("all") => Components::ALL,
        Some("surface") => Components::SURFACE,
        Some("surface-deep") => Components::SURFACE_DEEP,
        Some(other) => return Err(format!("unknown --components {other:?}")),
    };
    let pipeline = DomainPipeline::build(&domain, seed).map_err(|e| e.to_string())?;
    let acq = pipeline
        .acquire(components, &WebIQConfig::default())
        .map_err(|e| e.to_string())?;
    println!(
        "{}: {} instance-less attributes; Surface success {:.1}%, Surface+Deep {:.1}%, \
         {} pre-defined attributes enriched",
        domain,
        acq.report.no_inst_attrs,
        acq.report.surface_success_rate(),
        acq.report.surface_deep_success_rate(),
        acq.report.attr_surface_enriched,
    );
    for (r, values) in &acq.acquired {
        let a = pipeline
            .dataset
            .attribute(*r)
            .expect("acquired refs are valid");
        let preview: Vec<&str> = values.iter().take(6).map(String::as_str).collect();
        let more = values.len().saturating_sub(6);
        let suffix = if more > 0 {
            format!(" … +{more}")
        } else {
            String::new()
        };
        println!(
            "  {}:{:<22} += [{}{suffix}]",
            pipeline.dataset.interfaces[r.0].site,
            a.label,
            preview.join(", ")
        );
    }
    Ok(())
}
