//! The trace line encoder as it was before lines were written directly:
//! each event built as a [`Json`] object, with an owned `String` for
//! every key and value, then written in the codec's compact form. Kept
//! as the oracle the direct encoder must equal byte for byte.

use webiq_trace::json::Json;
use webiq_trace::Event;

/// One JSONL line (no trailing newline), built through a `Json` tree.
pub fn to_jsonl(e: &Event) -> String {
    let ev = match e {
        Event::Open { .. } => "open",
        Event::Close { .. } => "close",
        Event::Decision { .. } => "decision",
    };
    let mut f: Vec<(String, Json)> = vec![
        ("ev".into(), ev.into()),
        ("seq".into(), e.seq().into()),
        ("id".into(), e.id().into()),
    ];
    match e {
        Event::Open {
            parent, name, attr, ..
        } => {
            f.extend(parent.map(|p| ("parent".into(), p.into())));
            f.push(("name".into(), name.as_str().into()));
            f.extend(attr.as_deref().map(|a| ("attr".into(), a.into())));
        }
        Event::Close { metrics, hists, .. } => {
            let m = metrics.iter().map(|(c, v)| (c.name().into(), (*v).into()));
            f.push(("m".into(), Json::Obj(m.collect())));
            if !hists.is_empty() {
                let h = hists
                    .iter()
                    .map(|(h, b)| (h.name().into(), b.to_vec().into()));
                f.push(("h".into(), Json::Obj(h.collect())));
            }
        }
        Event::Decision {
            kind,
            subject,
            verdict,
            terms,
            ..
        } => {
            f.push(("kind".into(), kind.as_str().into()));
            f.push(("subject".into(), subject.as_str().into()));
            f.push(("verdict".into(), verdict.as_str().into()));
            let t = terms.iter().map(|(k, v)| (k.clone(), (*v).into()));
            f.push(("t".into(), Json::Obj(t.collect())));
        }
    }
    Json::Obj(f).compact()
}
