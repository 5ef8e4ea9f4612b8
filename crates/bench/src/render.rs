//! Plain-text rendering of the experiment tables, in the shape the paper
//! reports them.

use crate::experiments::{
    AblationRow, Fig6Row, Fig7Row, Fig8Row, LearnedRow, Table1Row, WeightsRow,
};

/// Render Table 1.
pub fn table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "TABLE 1: dataset characteristics and instance-acquisition success rates\n\
         Domain       #Attr  IntNoInst%  AttrNoInst%  ExpInst%  Surface%  Surface+Deep%\n",
    );
    let mut acc = [0.0f64; 6];
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>5.1} {:>11.0} {:>12.1} {:>9.1} {:>9.1} {:>14.1}\n",
            r.domain,
            r.avg_attrs,
            r.int_no_inst,
            r.attr_no_inst,
            r.exp_inst,
            r.surface,
            r.surface_deep
        ));
        for (a, v) in acc.iter_mut().zip([
            r.avg_attrs,
            r.int_no_inst,
            r.attr_no_inst,
            r.exp_inst,
            r.surface,
            r.surface_deep,
        ]) {
            *a += v;
        }
    }
    let n = rows.len().max(1) as f64;
    s.push_str(&format!(
        "{:<12} {:>5.1} {:>11.0} {:>12.1} {:>9.1} {:>9.1} {:>14.1}\n",
        "Average",
        acc[0] / n,
        acc[1] / n,
        acc[2] / n,
        acc[3] / n,
        acc[4] / n,
        acc[5] / n
    ));
    s
}

/// Render Figure 6 as a table plus ASCII bars.
pub fn fig6(rows: &[Fig6Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "FIGURE 6: matching accuracy (F-1 %)\n\
         Domain       Baseline  +WebIQ  +WebIQ+Threshold\n",
    );
    let (mut b, mut w, mut t) = (0.0, 0.0, 0.0);
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>8.1} {:>7.1} {:>17.1}\n",
            r.domain, r.baseline, r.webiq, r.webiq_threshold
        ));
        b += r.baseline;
        w += r.webiq;
        t += r.webiq_threshold;
    }
    let n = rows.len().max(1) as f64;
    s.push_str(&format!(
        "{:<12} {:>8.1} {:>7.1} {:>17.1}\n\n",
        "Average",
        b / n,
        w / n,
        t / n
    ));
    for r in rows {
        s.push_str(&format!("{:<12} {}\n", r.domain, bar(r.baseline)));
        s.push_str(&format!("{:<12} {}\n", "", bar(r.webiq)));
        s.push_str(&format!("{:<12} {}\n", "", bar(r.webiq_threshold)));
    }
    s
}

/// Render Figure 7.
pub fn fig7(rows: &[Fig7Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "FIGURE 7: component contributions (F-1 %)\n\
         Domain       Baseline  +Surface  +Attr-Deep  +Attr-Surface\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>8.1} {:>9.1} {:>11.1} {:>14.1}\n",
            r.domain, r.baseline, r.surface, r.surface_deep, r.all
        ));
    }
    s
}

/// Render Figure 8.
pub fn fig8(rows: &[Fig8Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "FIGURE 8: overhead analysis\n\
         (simulated minutes = issued engine calls (search + hit-count, cache hits included)\n\
          or Deep-Web probes x 0.3 s, the paper's Google-latency regime;\n\
          in-process wall-clock shown for reference)\n\
         Domain       Match(s)  Surface(min)  Attr-Surface(min)  Attr-Deep(min)   queries  probes\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>8.2} {:>13.1} {:>18.1} {:>15.1} {:>9} {:>7}\n",
            r.domain,
            r.matching_secs,
            r.surface_simulated_mins(),
            r.attr_surface_simulated_mins(),
            r.attr_deep_simulated_mins(),
            r.surface_queries + r.attr_surface_queries,
            r.probes,
        ));
    }
    s
}

/// Render the ablation table.
pub fn ablations(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "ABLATIONS (avg across the five domains)\n\
         Configuration                        F-1 %  AcqPrec %   Queries\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<36} {:>5.1} {:>9.1} {:>9}\n",
            r.name, r.avg_f1, r.acq_precision, r.total_queries
        ));
    }
    s
}

/// Render the similarity-weight study.
pub fn weights(rows: &[WeightsRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "SIMILARITY-WEIGHT STUDY (F-1 %): how much instances contribute\n\
         Domain       LabelOnly  Baseline  LabelOnly+Acq  WebIQ\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>9.1} {:>9.1} {:>14.1} {:>6.1}\n",
            r.domain, r.label_only, r.baseline, r.label_only_enriched, r.webiq
        ));
    }
    s
}

/// Render the learned-threshold table.
pub fn learned(rows: &[LearnedRow]) -> String {
    let mut s = String::new();
    s.push_str(
        "LEARNED THRESHOLDS (gold-backed oracle, 20 questions per domain)\n\
         Domain       learned-tau  questions  F-1@learned %\n",
    );
    let mut sum = 0.0;
    for r in rows {
        s.push_str(&format!(
            "{:<12} {:>11.4} {:>10} {:>14.1}\n",
            r.domain, r.threshold, r.questions, r.f1_with_learned
        ));
        sum += r.threshold;
    }
    if !rows.is_empty() {
        s.push_str(&format!(
            "{:<12} {:>11.4}   (the paper set its manual tau to this average)\n",
            "Average",
            sum / rows.len() as f64
        ));
    }
    s
}

/// A 0–100 value as an ASCII bar.
fn bar(pct: f64) -> String {
    let filled = (pct / 2.0).round().clamp(0.0, 50.0) as usize;
    format!("{} {:.1}", "█".repeat(filled), pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_do_not_panic_on_empty() {
        assert!(table1(&[]).contains("TABLE 1"));
        assert!(fig6(&[]).contains("FIGURE 6"));
        assert!(fig7(&[]).contains("FIGURE 7"));
        assert!(fig8(&[]).contains("FIGURE 8"));
        assert!(ablations(&[]).contains("ABLATIONS"));
    }

    #[test]
    fn learned_render() {
        assert!(learned(&[]).contains("LEARNED"));
        assert!(weights(&[]).contains("WEIGHT"));
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(100.0).chars().filter(|c| *c == '█').count(), 50);
        assert_eq!(bar(0.0).chars().filter(|c| *c == '█').count(), 0);
    }
}
