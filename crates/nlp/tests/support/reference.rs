//! The tokenizer and tagger as they were before tagging was made
//! allocation-light, kept as the oracle the library must equal token for
//! token and tag for tag: a tokenizer that collects the text's chars and
//! builds each token char by char, and a tagger that clones its tokens,
//! lowercases each word into a new `String` and scans the lexicon front
//! to back.

use webiq_nlp::pos::{Tag, Tagged};
use webiq_nlp::token::{Token, TokenKind};

/// The reference tokenizer.
pub fn tokenize(text: &str) -> Vec<Token> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() {
            let start = i;
            i += 1;
            while i < chars.len() {
                let c = chars[i];
                if c.is_alphabetic() {
                    i += 1;
                } else if (c == '\'' || c == '-')
                    && i + 1 < chars.len()
                    && chars[i + 1].is_alphabetic()
                {
                    i += 2;
                } else {
                    break;
                }
            }
            out.push(Token::new(
                chars[start..i].iter().collect::<String>(),
                TokenKind::Word,
            ));
        } else if c.is_ascii_digit() || (c == '$' && peek_digit(&chars, i + 1)) {
            let start = i;
            if c == '$' {
                i += 1;
            }
            i = consume_number(&chars, i);
            out.push(Token::new(
                chars[start..i].iter().collect::<String>(),
                TokenKind::Number,
            ));
        } else {
            out.push(Token::new(c.to_string(), TokenKind::Punct));
            i += 1;
        }
    }
    out
}

fn peek_digit(chars: &[char], i: usize) -> bool {
    chars.get(i).is_some_and(char::is_ascii_digit)
}

fn consume_number(chars: &[char], mut i: usize) -> usize {
    while i < chars.len() {
        let c = chars[i];
        if c.is_ascii_digit() {
            i += 1;
        } else if (c == ',' || c == '.') && peek_digit(chars, i + 1) {
            i += 2;
        } else {
            break;
        }
    }
    i
}

/// The reference `words_lower`.
pub fn words_lower(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.kind != TokenKind::Punct)
        .map(|t| t.lower())
        .collect()
}

/// The lexicon in its source order, as runs of words that share a tag.
const LEXICON: &[(Tag, &str)] = &[
    (Tag::DT, "the a an any all this that these those each every some no many several few both"),
    (Tag::JJ, "popular available numerous various multiple"),
    (Tag::IN, "of in on at by for from with within without near between under over per via into as through after before about since until"),
    (Tag::CC, "and or but nor"),
    (Tag::TO, "to"),
    (Tag::PRP, "i you he she it we they your their its my our"),
    (Tag::MD, "can could will would shall should may might must"),
    (Tag::VBZ, "is are was were"),
    (Tag::VB, "be"),
    (Tag::VBN, "been"),
    (Tag::VBG, "being"),
    (Tag::VBZ, "has"),
    (Tag::VB, "have"),
    (Tag::VBN, "had"),
    (Tag::VB, "do"),
    (Tag::VBZ, "does"),
    (Tag::VBN, "did"),
    (Tag::RB, "not very only also here there now then more most"),
    (Tag::JJ, "other such"),
    (Tag::VB, "depart"),
    (Tag::VBG, "departing"),
    (Tag::VB, "arrive"),
    (Tag::VBG, "arriving"),
    (Tag::VB, "leave"),
    (Tag::VBG, "leaving"),
    (Tag::VB, "return"),
    (Tag::VBG, "returning"),
    (Tag::VB, "fly go"),
    (Tag::VBG, "going"),
    (Tag::VB, "travel search find select choose enter show"),
    (Tag::NN, "list"),
    (Tag::VB, "include"),
    (Tag::VBG, "including"),
    (Tag::VBN, "published posted located offered operated"),
    (Tag::JJ, "first last new used minimum maximum min max low high cheap exact full total annual monthly preferred desired"),
    (Tag::NN, "adult"),
    (Tag::JJ, "one-way round-trip"),
    (Tag::NN, "make model state type name title price cost date time class service city airport airline carrier keyword"),
    (Tag::NNS, "keywords"),
    (Tag::NN, "zip code salary company job category author publisher isbn subject format edition year mileage color"),
    (Tag::NNS, "bedrooms bathrooms beds baths"),
    (Tag::NN, "acreage footage"),
    (Tag::JJ, "square"),
    (Tag::NNS, "feet"),
    (Tag::NN, "location industry experience education level"),
    (Tag::NNS, "passengers adults children infants"),
    (Tag::NN, "departure arrival destination origin trip cabin seat description person"),
    (Tag::NNS, "people"),
];

/// Every lexicon word, in source order.
pub fn lexicon_words() -> impl Iterator<Item = &'static str> {
    LEXICON.iter().flat_map(|(_, words)| words.split(' '))
}

fn lexicon_lookup(word: &str) -> Option<Tag> {
    LEXICON
        .iter()
        .flat_map(|&(tag, words)| words.split(' ').map(move |w| (w, tag)))
        .find(|(w, _)| *w == word)
        .map(|(_, tag)| tag)
}

fn initial_tag(token: &Token, first_in_sentence: bool) -> Tag {
    if token.kind == TokenKind::Punct {
        return Tag::SYM;
    }
    if token.kind == TokenKind::Number {
        return Tag::CD;
    }
    let lower = token.lower();
    if let Some(tag) = lexicon_lookup(&lower) {
        return tag;
    }
    if token.is_capitalized() && !first_in_sentence {
        return Tag::NNP;
    }
    if token.text.len() >= 2 && token.text.chars().all(|c| c.is_ascii_uppercase()) {
        return Tag::NNP;
    }
    suffix_tag(&lower)
}

fn suffix_tag(lower: &str) -> Tag {
    let n = lower.len();
    if n > 4 && lower.ends_with("ing") {
        return Tag::VBG;
    }
    if n > 3 && lower.ends_with("ed") {
        return Tag::VBN;
    }
    if n > 3 && lower.ends_with("ly") {
        return Tag::RB;
    }
    for adj_suffix in [
        "able", "ible", "ous", "ive", "ful", "less", "ic", "al", "est",
    ] {
        if n > adj_suffix.len() + 2 && lower.ends_with(adj_suffix) {
            return Tag::JJ;
        }
    }
    if n > 3
        && lower.ends_with('s')
        && !lower.ends_with("ss")
        && !lower.ends_with("us")
        && !lower.ends_with("is")
    {
        return Tag::NNS;
    }
    Tag::NN
}

/// The contextual rules in order: retag `from` as `to` when the previous
/// token (`true`) or the next one (`false`) has tag `cond`.
const RULES: &[(Tag, Tag, bool, Tag)] = &[
    (Tag::NN, Tag::VB, true, Tag::TO),
    (Tag::NN, Tag::VB, true, Tag::MD),
    (Tag::VB, Tag::NN, true, Tag::DT),
    (Tag::VBG, Tag::NN, true, Tag::DT),
    (Tag::VBN, Tag::JJ, false, Tag::NN),
    (Tag::VBN, Tag::JJ, false, Tag::NNS),
    (Tag::VBG, Tag::JJ, false, Tag::NN),
    (Tag::VBG, Tag::JJ, false, Tag::NNS),
];

/// The reference `tag_tokens`.
pub fn tag_tokens(tokens: &[Token]) -> Vec<Tagged> {
    let mut tagged: Vec<Tagged> = tokens
        .iter()
        .enumerate()
        .map(|(i, t)| Tagged {
            token: t.clone(),
            tag: initial_tag(t, i == 0),
        })
        .collect();
    for &(from, to, previous, cond) in RULES {
        for i in 0..tagged.len() {
            let neighbour = if previous {
                i.checked_sub(1).and_then(|p| tagged.get(p))
            } else {
                tagged.get(i + 1)
            };
            if tagged[i].tag == from && neighbour.is_some_and(|n| n.tag == cond) {
                tagged[i].tag = to;
            }
        }
    }
    tagged
}

/// The reference `tag`.
pub fn tag(text: &str) -> Vec<Tagged> {
    tag_tokens(&tokenize(text))
}
