//! Fixture: a public API that reaches a panic site only transitively,
//! through two private helpers — invisible at the public function
//! itself, but provable on the call graph.
pub fn entry(x: Option<u32>) -> u32 {
    middle(x)
}

fn middle(x: Option<u32>) -> u32 {
    inner(x)
}

fn inner(x: Option<u32>) -> u32 {
    x.unwrap()
}
