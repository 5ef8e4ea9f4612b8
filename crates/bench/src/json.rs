//! JSON for the experiment artifacts (`--json` output and the committed
//! baselines): the workspace codec, [`webiq::trace::json`], plus the
//! [`ToJson`] trait the experiment row structs implement.

pub use webiq::trace::json::{obj, Json};

/// Types that know their JSON representation (the experiment row structs).
pub trait ToJson {
    /// Convert to a [`Json`] value.
    fn to_json(&self) -> Json;
}

/// Serialise a slice of rows to a JSON array.
pub fn rows<T: ToJson>(rows: &[T]) -> Json {
    Json::Arr(rows.iter().map(ToJson::to_json).collect())
}
