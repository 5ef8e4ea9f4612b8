//! Rule-based part-of-speech tagging in the style of Brill's tagger.
//!
//! The paper (§2.1) tags attribute labels with Brill's transformation-based
//! tagger and then pattern-matches the tag sequence to recognise noun
//! phrases, prepositional phrases, and noun-phrase conjunctions. We implement
//! the same two-stage scheme: an *initial* tagger (lexicon lookup plus
//! morphological suffix heuristics) followed by an ordered list of
//! *contextual transformation rules* that patch tags based on neighbouring
//! tags/words — exactly the architecture of Brill's tagger, with a rule set
//! sized for interface labels and search-snippet sentences.

use std::sync::OnceLock;

use crate::token::{Token, TokenKind};

/// Reduced Penn-Treebank-style tagset sufficient for shallow label analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Determiner (`the`, `a`, `any`).
    DT,
    /// Adjective (`first`, `cheap`, `round-trip`).
    JJ,
    /// Singular or mass noun (`city`, `service`).
    NN,
    /// Plural noun (`cities`, `authors`).
    NNS,
    /// Proper noun (`Boston`, `Delta`).
    NNP,
    /// Verb, base form (`depart`, `search`).
    VB,
    /// Verb, gerund (`departing`, `including`).
    VBG,
    /// Verb, past participle / past (`published`, `used`).
    VBN,
    /// Verb, 3rd-person singular present (`is`, `includes`).
    VBZ,
    /// Preposition or subordinating conjunction (`from`, `of`, `in`).
    IN,
    /// Coordinating conjunction (`and`, `or`).
    CC,
    /// The word `to`.
    TO,
    /// Pronoun (`you`, `it`).
    PRP,
    /// Adverb (`very`, `only`).
    RB,
    /// Cardinal number (`42`, `$15,200`).
    CD,
    /// Modal (`can`, `must`).
    MD,
    /// Punctuation or other symbol.
    SYM,
}

impl Tag {
    /// True for tags that may occur inside the body of a noun phrase.
    pub fn is_np_modifier(self) -> bool {
        matches!(
            self,
            Tag::JJ | Tag::NN | Tag::NNP | Tag::CD | Tag::VBG | Tag::VBN
        )
    }

    /// True for noun tags eligible to head a noun phrase.
    pub fn is_noun(self) -> bool {
        matches!(self, Tag::NN | Tag::NNS | Tag::NNP)
    }

    /// True for verb tags.
    pub fn is_verb(self) -> bool {
        matches!(self, Tag::VB | Tag::VBG | Tag::VBN | Tag::VBZ)
    }
}

/// A token paired with its assigned tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged {
    /// The underlying token.
    pub token: Token,
    /// The tag assigned by the tagger.
    pub tag: Tag,
}

impl Tagged {
    /// Lowercased token text.
    pub fn lower(&self) -> String {
        self.token.lower()
    }
}

/// Closed-class and high-frequency lexicon: lowercase word → most-likely tag.
///
/// Nouns dominating the query-interface vocabulary are listed explicitly so
/// that verb/noun ambiguous words (`make`, `state`, `type`) receive their
/// label reading by default; contextual rules repair the verb reading where
/// syntax demands it.
static LEXICON: &[(&str, Tag)] = &[
    // determiners
    ("the", Tag::DT),
    ("a", Tag::DT),
    ("an", Tag::DT),
    ("any", Tag::DT),
    ("all", Tag::DT),
    ("this", Tag::DT),
    ("that", Tag::DT),
    ("these", Tag::DT),
    ("those", Tag::DT),
    ("each", Tag::DT),
    ("every", Tag::DT),
    ("some", Tag::DT),
    ("no", Tag::DT),
    ("many", Tag::DT),
    ("several", Tag::DT),
    ("few", Tag::DT),
    ("both", Tag::DT),
    ("popular", Tag::JJ),
    ("available", Tag::JJ),
    ("numerous", Tag::JJ),
    ("various", Tag::JJ),
    ("multiple", Tag::JJ),
    // prepositions
    ("of", Tag::IN),
    ("in", Tag::IN),
    ("on", Tag::IN),
    ("at", Tag::IN),
    ("by", Tag::IN),
    ("for", Tag::IN),
    ("from", Tag::IN),
    ("with", Tag::IN),
    ("within", Tag::IN),
    ("without", Tag::IN),
    ("near", Tag::IN),
    ("between", Tag::IN),
    ("under", Tag::IN),
    ("over", Tag::IN),
    ("per", Tag::IN),
    ("via", Tag::IN),
    ("into", Tag::IN),
    ("as", Tag::IN),
    ("through", Tag::IN),
    ("after", Tag::IN),
    ("before", Tag::IN),
    ("about", Tag::IN),
    ("since", Tag::IN),
    ("until", Tag::IN),
    // conjunctions
    ("and", Tag::CC),
    ("or", Tag::CC),
    ("but", Tag::CC),
    ("nor", Tag::CC),
    // to
    ("to", Tag::TO),
    // pronouns
    ("i", Tag::PRP),
    ("you", Tag::PRP),
    ("he", Tag::PRP),
    ("she", Tag::PRP),
    ("it", Tag::PRP),
    ("we", Tag::PRP),
    ("they", Tag::PRP),
    ("your", Tag::PRP),
    ("their", Tag::PRP),
    ("its", Tag::PRP),
    ("my", Tag::PRP),
    ("our", Tag::PRP),
    // modals
    ("can", Tag::MD),
    ("could", Tag::MD),
    ("will", Tag::MD),
    ("would", Tag::MD),
    ("shall", Tag::MD),
    ("should", Tag::MD),
    ("may", Tag::MD),
    ("might", Tag::MD),
    ("must", Tag::MD),
    // copulas / auxiliaries
    ("is", Tag::VBZ),
    ("are", Tag::VBZ),
    ("was", Tag::VBZ),
    ("were", Tag::VBZ),
    ("be", Tag::VB),
    ("been", Tag::VBN),
    ("being", Tag::VBG),
    ("has", Tag::VBZ),
    ("have", Tag::VB),
    ("had", Tag::VBN),
    ("do", Tag::VB),
    ("does", Tag::VBZ),
    ("did", Tag::VBN),
    // adverbs
    ("not", Tag::RB),
    ("very", Tag::RB),
    ("only", Tag::RB),
    ("also", Tag::RB),
    ("here", Tag::RB),
    ("there", Tag::RB),
    ("now", Tag::RB),
    ("then", Tag::RB),
    ("more", Tag::RB),
    ("most", Tag::RB),
    ("other", Tag::JJ),
    ("such", Tag::JJ),
    // verbs common in labels and snippets
    ("depart", Tag::VB),
    ("departing", Tag::VBG),
    ("arrive", Tag::VB),
    ("arriving", Tag::VBG),
    ("leave", Tag::VB),
    ("leaving", Tag::VBG),
    ("return", Tag::VB),
    ("returning", Tag::VBG),
    ("fly", Tag::VB),
    ("go", Tag::VB),
    ("going", Tag::VBG),
    ("travel", Tag::VB),
    ("search", Tag::VB),
    ("find", Tag::VB),
    ("select", Tag::VB),
    ("choose", Tag::VB),
    ("enter", Tag::VB),
    ("show", Tag::VB),
    ("list", Tag::NN),
    ("include", Tag::VB),
    ("including", Tag::VBG),
    ("published", Tag::VBN),
    ("posted", Tag::VBN),
    ("located", Tag::VBN),
    ("offered", Tag::VBN),
    ("operated", Tag::VBN),
    // adjectives common in labels
    ("first", Tag::JJ),
    ("last", Tag::JJ),
    ("new", Tag::JJ),
    ("used", Tag::JJ),
    ("minimum", Tag::JJ),
    ("maximum", Tag::JJ),
    ("min", Tag::JJ),
    ("max", Tag::JJ),
    ("low", Tag::JJ),
    ("high", Tag::JJ),
    ("cheap", Tag::JJ),
    ("exact", Tag::JJ),
    ("full", Tag::JJ),
    ("total", Tag::JJ),
    ("annual", Tag::JJ),
    ("monthly", Tag::JJ),
    ("preferred", Tag::JJ),
    ("desired", Tag::JJ),
    ("adult", Tag::NN),
    ("one-way", Tag::JJ),
    ("round-trip", Tag::JJ),
    // interface-vocabulary nouns with verb homographs
    ("make", Tag::NN),
    ("model", Tag::NN),
    ("state", Tag::NN),
    ("type", Tag::NN),
    ("name", Tag::NN),
    ("title", Tag::NN),
    ("price", Tag::NN),
    ("cost", Tag::NN),
    ("date", Tag::NN),
    ("time", Tag::NN),
    ("class", Tag::NN),
    ("service", Tag::NN),
    ("city", Tag::NN),
    ("airport", Tag::NN),
    ("airline", Tag::NN),
    ("carrier", Tag::NN),
    ("keyword", Tag::NN),
    ("keywords", Tag::NNS),
    ("zip", Tag::NN),
    ("code", Tag::NN),
    ("salary", Tag::NN),
    ("company", Tag::NN),
    ("job", Tag::NN),
    ("category", Tag::NN),
    ("author", Tag::NN),
    ("publisher", Tag::NN),
    ("isbn", Tag::NN),
    ("subject", Tag::NN),
    ("format", Tag::NN),
    ("edition", Tag::NN),
    ("year", Tag::NN),
    ("mileage", Tag::NN),
    ("color", Tag::NN),
    ("bedrooms", Tag::NNS),
    ("bathrooms", Tag::NNS),
    ("beds", Tag::NNS),
    ("baths", Tag::NNS),
    ("acreage", Tag::NN),
    ("footage", Tag::NN),
    ("square", Tag::JJ),
    ("feet", Tag::NNS),
    ("location", Tag::NN),
    ("industry", Tag::NN),
    ("experience", Tag::NN),
    ("education", Tag::NN),
    ("level", Tag::NN),
    ("passengers", Tag::NNS),
    ("adults", Tag::NNS),
    ("children", Tag::NNS),
    ("infants", Tag::NNS),
    ("departure", Tag::NN),
    ("arrival", Tag::NN),
    ("destination", Tag::NN),
    ("origin", Tag::NN),
    ("trip", Tag::NN),
    ("cabin", Tag::NN),
    ("seat", Tag::NN),
    ("description", Tag::NN),
    ("person", Tag::NN),
    ("people", Tag::NNS),
];

/// The byte length of the longest [`LEXICON`] word: a longer token is
/// not in it.
const LONGEST_WORD: usize = 11;

/// [`LEXICON`] sorted by word for binary search; of two entries for one
/// word only the first is kept, the one a front-to-back scan finds.
fn sorted_lexicon() -> &'static [(&'static str, Tag)] {
    static SORTED: OnceLock<Vec<(&'static str, Tag)>> = OnceLock::new();
    SORTED.get_or_init(|| {
        let mut table = LEXICON.to_vec();
        table.sort_by_key(|&(w, _)| w); // stable: the first entry stays first
        table.dedup_by_key(|&mut (w, _)| w);
        table
    })
}

/// Look up `word` in the static lexicon, ignoring ASCII case. Its
/// lowercase form is built in a stack buffer; a word longer than
/// [`LONGEST_WORD`] cannot be in the lexicon and is not looked up.
fn lexicon_lookup(word: &str) -> Option<Tag> {
    let bytes = word.as_bytes();
    let mut buf = [0u8; LONGEST_WORD];
    let lower = buf.get_mut(..bytes.len())?;
    lower.copy_from_slice(bytes);
    lower.make_ascii_lowercase();
    let table = sorted_lexicon();
    let at = table
        .binary_search_by(|(w, _)| w.as_bytes().cmp(lower))
        .ok()?;
    table.get(at).map(|&(_, t)| t)
}

/// Does `word` end with the lowercase ASCII `suffix`, ignoring ASCII case?
fn ends_with_ci(word: &str, suffix: &str) -> bool {
    word.len()
        .checked_sub(suffix.len())
        .and_then(|at| word.as_bytes().get(at..))
        .is_some_and(|tail| tail.eq_ignore_ascii_case(suffix.as_bytes()))
}

/// Initial (pre-contextual) tag for a token.
///
/// Order of evidence: number kind → lexicon → capitalization (proper noun)
/// → morphological suffix → default `NN`, mirroring the lexical stage of
/// Brill's tagger.
fn initial_tag(token: &Token, first_in_sentence: bool) -> Tag {
    if token.kind == TokenKind::Punct {
        return Tag::SYM;
    }
    if token.kind == TokenKind::Number {
        return Tag::CD;
    }
    if let Some(tag) = lexicon_lookup(&token.text) {
        return tag;
    }
    // A capitalized unknown word mid-sentence is almost certainly a proper
    // noun (instance names like `Boston`, `Delta`, `Toyota`). At sentence
    // start capitalization is uninformative, so fall through to morphology.
    if token.is_capitalized() && !first_in_sentence {
        return Tag::NNP;
    }
    // All-caps acronyms (LAX, BMW, ISBN) are proper nouns anywhere.
    if token.text.len() >= 2 && token.text.chars().all(|c| c.is_ascii_uppercase()) {
        return Tag::NNP;
    }
    suffix_tag(&token.text)
}

/// Morphological suffix heuristics for unknown words, in any ASCII case.
fn suffix_tag(word: &str) -> Tag {
    let n = word.len();
    if n > 4 && ends_with_ci(word, "ing") {
        return Tag::VBG;
    }
    if n > 3 && ends_with_ci(word, "ed") {
        return Tag::VBN;
    }
    if n > 3 && ends_with_ci(word, "ly") {
        return Tag::RB;
    }
    for adj_suffix in [
        "able", "ible", "ous", "ive", "ful", "less", "ic", "al", "est",
    ] {
        if n > adj_suffix.len() + 2 && ends_with_ci(word, adj_suffix) {
            return Tag::JJ;
        }
    }
    if n > 3
        && ends_with_ci(word, "s")
        && !ends_with_ci(word, "ss")
        && !ends_with_ci(word, "us")
        && !ends_with_ci(word, "is")
    {
        return Tag::NNS;
    }
    Tag::NN
}

/// Context condition of a transformation rule.
#[derive(Debug, Clone, Copy)]
enum Cond {
    /// The preceding token has this tag.
    PrevTag(Tag),
    /// The following token has this tag.
    NextTag(Tag),
}

/// A Brill-style transformation: retag `from` → `to` when `cond` holds.
#[derive(Debug, Clone, Copy)]
struct Rule {
    from: Tag,
    to: Tag,
    cond: Cond,
}

/// The ordered contextual rule list. Applied once each, in order, over the
/// whole sequence (the standard Brill application regime).
static RULES: &[Rule] = &[
    // "to depart": base verb after TO.
    Rule {
        from: Tag::NN,
        to: Tag::VB,
        cond: Cond::PrevTag(Tag::TO),
    },
    // "must enter": base verb after a modal.
    Rule {
        from: Tag::NN,
        to: Tag::VB,
        cond: Cond::PrevTag(Tag::MD),
    },
    // "the make", "a return": noun reading after a determiner.
    Rule {
        from: Tag::VB,
        to: Tag::NN,
        cond: Cond::PrevTag(Tag::DT),
    },
    Rule {
        from: Tag::VBG,
        to: Tag::NN,
        cond: Cond::PrevTag(Tag::DT),
    },
    // "used cars": participle directly before a noun acts as a modifier; we
    // retag to JJ so NP chunking treats it uniformly.
    Rule {
        from: Tag::VBN,
        to: Tag::JJ,
        cond: Cond::NextTag(Tag::NN),
    },
    Rule {
        from: Tag::VBN,
        to: Tag::JJ,
        cond: Cond::NextTag(Tag::NNS),
    },
    // "departing city", "arriving airport": gerund before noun is a modifier.
    Rule {
        from: Tag::VBG,
        to: Tag::JJ,
        cond: Cond::NextTag(Tag::NN),
    },
    Rule {
        from: Tag::VBG,
        to: Tag::JJ,
        cond: Cond::NextTag(Tag::NNS),
    },
    // Sentence-initial imperative verbs in labels: "Depart from", "Fly to".
    // An unknown first word tagged NN followed by a preposition or TO is
    // usually an imperative verb in interface labels — but only if the word
    // is a known verb; handled by lexicon. Here: "return date" keeps noun.
    // "is" before a determiner: keep.
    // Pronoun possessives before nouns are fine as PRP.
    // "first name or last name": `last` lexicon JJ already.
    // `such` before DT? no-op.
    // "no" before results: determiner already.
    // "of" is IN already.
    // CD before NN stays CD (e.g. "2 bedrooms").
    // Retag NNP to NN when the whole input is a label starting the sequence
    // and the word is in the lexicon lowercased — handled pre-hoc because
    // initial_tag consults the lexicon before capitalization.
    // "service class" vs "class of service": nothing to do.
    // An IN at the very start followed by a noun is the prepositional-label
    // pattern; no retag needed.
    // "Published after": participle at label start stays VBN via the
    // lexicon; no First-position rule is needed (and one would wrongly
    // retag `used cars`).
];

/// Does `cond` hold for position `i` in `tagged`?
fn cond_holds(tagged: &[Tagged], i: usize, cond: Cond) -> bool {
    match cond {
        Cond::PrevTag(t) => i
            .checked_sub(1)
            .and_then(|p| tagged.get(p))
            .is_some_and(|p| p.tag == t),
        Cond::NextTag(t) => i + 1 < tagged.len() && tagged[i + 1].tag == t,
    }
}

/// Tag a token sequence.
///
/// `first_in_sentence` describes whether the first token starts a sentence
/// (true for attribute labels and for snippet sentences).
pub fn tag_tokens(tokens: &[Token]) -> Vec<Tagged> {
    tag_owned(tokens.to_vec())
}

/// Tokenize and tag `text` in one call.
pub fn tag(text: &str) -> Vec<Tagged> {
    tag_owned(crate::token::tokenize(text))
}

/// [`tag_tokens`] on tokens it may move into the result.
fn tag_owned(tokens: Vec<Token>) -> Vec<Tagged> {
    let mut tagged: Vec<Tagged> = tokens
        .into_iter()
        .enumerate()
        .map(|(i, token)| Tagged {
            tag: initial_tag(&token, i == 0),
            token,
        })
        .collect();
    for rule in RULES {
        for i in 0..tagged.len() {
            if tagged[i].tag == rule.from && cond_holds(&tagged, i, rule.cond) {
                tagged[i].tag = rule.to;
            }
        }
    }
    tagged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(text: &str) -> Vec<Tag> {
        tag(text).into_iter().map(|t| t.tag).collect()
    }

    #[test]
    fn simple_noun_phrase() {
        assert_eq!(tags("Departure city"), vec![Tag::NN, Tag::NN]);
    }

    #[test]
    fn prepositional_label() {
        assert_eq!(tags("From city"), vec![Tag::IN, Tag::NN]);
        assert_eq!(tags("from"), vec![Tag::IN]);
    }

    #[test]
    fn verb_phrase_label() {
        assert_eq!(tags("Depart from"), vec![Tag::VB, Tag::IN]);
    }

    #[test]
    fn np_with_pp_postmodifier() {
        assert_eq!(tags("Class of service"), vec![Tag::NN, Tag::IN, Tag::NN]);
        assert_eq!(tags("Type of job"), vec![Tag::NN, Tag::IN, Tag::NN]);
    }

    #[test]
    fn conjunction_label() {
        assert_eq!(
            tags("First name or last name"),
            vec![Tag::JJ, Tag::NN, Tag::CC, Tag::JJ, Tag::NN]
        );
    }

    #[test]
    fn noun_verb_homographs_prefer_noun_in_labels() {
        assert_eq!(tags("Make"), vec![Tag::NN]);
        assert_eq!(tags("State"), vec![Tag::NN]);
        assert_eq!(tags("the make"), vec![Tag::DT, Tag::NN]);
    }

    #[test]
    fn to_triggers_base_verb() {
        // "to depart" — depart is in the lexicon as VB, rule is belt and
        // braces for unknown nouns after TO.
        assert_eq!(tags("to depart"), vec![Tag::TO, Tag::VB]);
        assert_eq!(tags("to flingle"), vec![Tag::TO, Tag::VB]);
    }

    #[test]
    fn numbers_are_cd() {
        assert_eq!(tags("2 bedrooms"), vec![Tag::CD, Tag::NNS]);
        assert_eq!(tags("$15,200"), vec![Tag::CD]);
    }

    #[test]
    fn capitalized_mid_sentence_is_proper() {
        let t = tag("flights from Boston");
        assert_eq!(t[2].tag, Tag::NNP);
    }

    #[test]
    fn acronyms_are_proper_even_at_start() {
        assert_eq!(tags("LAX"), vec![Tag::NNP]);
        assert_eq!(tags("ISBN number")[0], Tag::NN); // isbn in lexicon, lowercased match
    }

    #[test]
    fn suffix_heuristics() {
        assert_eq!(tags("quickly"), vec![Tag::RB]);
        assert_eq!(tags("affordable"), vec![Tag::JJ]);
        assert_eq!(tags("listings"), vec![Tag::NNS]);
        assert_eq!(tags("booking")[0], Tag::VBG);
    }

    #[test]
    fn participle_modifier_becomes_adjective() {
        // "used cars" → JJ NNS via the VBN→JJ/NextTag rule (lexicon already
        // has used as JJ; test with an unknown -ed word).
        assert_eq!(tags("refurbished cars"), vec![Tag::JJ, Tag::NNS]);
    }

    #[test]
    fn label_initial_participle_stays_vbn() {
        assert_eq!(tags("Published after"), vec![Tag::VBN, Tag::IN]);
    }

    #[test]
    fn gerund_before_noun_is_modifier() {
        assert_eq!(tags("departing city"), vec![Tag::JJ, Tag::NN]);
    }

    #[test]
    fn punctuation_is_sym() {
        assert_eq!(tags("city :"), vec![Tag::NN, Tag::SYM]);
    }

    #[test]
    fn empty_sequence() {
        assert!(tag("").is_empty());
    }

    #[test]
    fn longest_word_bounds_the_lexicon() {
        let longest = LEXICON.iter().map(|(w, _)| w.len()).max();
        assert_eq!(longest, Some(LONGEST_WORD));
    }

    #[test]
    fn lookup_ignores_ascii_case_and_finds_the_first_entry() {
        for (word, _) in LEXICON {
            let first = LEXICON.iter().find(|(w, _)| w == word).map(|&(_, t)| t);
            assert_eq!(lexicon_lookup(word), first, "{word}");
            assert_eq!(lexicon_lookup(&word.to_ascii_uppercase()), first, "{word}");
        }
        assert_eq!(lexicon_lookup("DeStInAtIoN"), Some(Tag::NN));
        assert_eq!(lexicon_lookup("destinations"), None);
        assert_eq!(lexicon_lookup("Zürich"), None);
    }
}
