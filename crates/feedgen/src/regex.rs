//! A small regular-expression engine.
//!
//! Skyfeed is the only Feed-Generator-as-a-Service platform offering regex
//! filters over post text, alt text and links (Table 5) — one of the features
//! the paper credits for its 85.86 % market share. This module implements the
//! subset those feed filters use: literals, `.`, character classes `[...]`
//! (with ranges and negation), the quantifiers `*`, `+`, `?`, alternation
//! `|`, grouping `(...)`, and the anchors `^` / `$`. Matching is unanchored
//! by default (`find` semantics) and case-insensitive matching is available
//! as a compile option.

use std::fmt;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    node: Node,
    case_insensitive: bool,
}

/// Errors raised while parsing a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError(pub String);

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid regex: {}", self.0)
    }
}

impl std::error::Error for RegexError {}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Empty,
    Literal(char),
    AnyChar,
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
    StartAnchor,
    EndAnchor,
    Concat(Vec<Node>),
    Alternate(Vec<Node>),
    Repeat {
        node: Box<Node>,
        min: u32,
        max: Option<u32>,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum ClassItem {
    Char(char),
    Range(char, char),
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> Parser<'a> {
    fn new(pattern: &'a str) -> Parser<'a> {
        Parser {
            chars: pattern.chars().peekable(),
        }
    }

    fn parse_alternation(&mut self) -> Result<Node, RegexError> {
        let mut branches = vec![self.parse_concat()?];
        while self.chars.peek() == Some(&'|') {
            self.chars.next();
            branches.push(self.parse_concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            Node::Alternate(branches)
        })
    }

    fn parse_concat(&mut self) -> Result<Node, RegexError> {
        let mut parts = Vec::new();
        while let Some(&c) = self.chars.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(match parts.len() {
            0 => Node::Empty,
            1 => parts.pop().unwrap(),
            _ => Node::Concat(parts),
        })
    }

    fn parse_repeat(&mut self) -> Result<Node, RegexError> {
        let atom = self.parse_atom()?;
        let node = match self.chars.peek() {
            Some('*') => {
                self.chars.next();
                Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: None,
                }
            }
            Some('+') => {
                self.chars.next();
                Node::Repeat {
                    node: Box::new(atom),
                    min: 1,
                    max: None,
                }
            }
            Some('?') => {
                self.chars.next();
                Node::Repeat {
                    node: Box::new(atom),
                    min: 0,
                    max: Some(1),
                }
            }
            _ => atom,
        };
        Ok(node)
    }

    fn parse_atom(&mut self) -> Result<Node, RegexError> {
        match self.chars.next() {
            None => Err(RegexError("unexpected end of pattern".into())),
            Some('(') => {
                let inner = self.parse_alternation()?;
                if self.chars.next() != Some(')') {
                    return Err(RegexError("unclosed group".into()));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Node::AnyChar),
            Some('^') => Ok(Node::StartAnchor),
            Some('$') => Ok(Node::EndAnchor),
            Some('*') | Some('+') | Some('?') => {
                Err(RegexError("quantifier with nothing to repeat".into()))
            }
            Some(')') => Err(RegexError("unmatched ')'".into())),
            Some('\\') => match self.chars.next() {
                Some('d') => Ok(Node::Class {
                    negated: false,
                    items: vec![ClassItem::Range('0', '9')],
                }),
                Some('w') => Ok(Node::Class {
                    negated: false,
                    items: vec![
                        ClassItem::Range('a', 'z'),
                        ClassItem::Range('A', 'Z'),
                        ClassItem::Range('0', '9'),
                        ClassItem::Char('_'),
                    ],
                }),
                Some('s') => Ok(Node::Class {
                    negated: false,
                    items: vec![
                        ClassItem::Char(' '),
                        ClassItem::Char('\t'),
                        ClassItem::Char('\n'),
                        ClassItem::Char('\r'),
                    ],
                }),
                Some(c) => Ok(Node::Literal(c)),
                None => Err(RegexError("trailing backslash".into())),
            },
            Some(c) => Ok(Node::Literal(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Node, RegexError> {
        let mut negated = false;
        if self.chars.peek() == Some(&'^') {
            negated = true;
            self.chars.next();
        }
        let mut items = Vec::new();
        loop {
            match self.chars.next() {
                None => return Err(RegexError("unclosed character class".into())),
                Some(']') if !items.is_empty() || negated => break,
                Some(']') => break, // empty class `[]` matches nothing
                Some('\\') => match self.chars.next() {
                    Some(c) => items.push(ClassItem::Char(c)),
                    None => return Err(RegexError("trailing backslash in class".into())),
                },
                Some(c) => {
                    if self.chars.peek() == Some(&'-') {
                        // Peek ahead: a range only if the next char is not ']'.
                        let mut clone = self.chars.clone();
                        clone.next();
                        match clone.peek() {
                            Some(&end) if end != ']' => {
                                self.chars.next(); // consume '-'
                                self.chars.next(); // consume end
                                if end < c {
                                    return Err(RegexError(format!("invalid range {c}-{end}")));
                                }
                                items.push(ClassItem::Range(c, end));
                                continue;
                            }
                            _ => {}
                        }
                    }
                    items.push(ClassItem::Char(c));
                }
            }
        }
        Ok(Node::Class { negated, items })
    }
}

impl Regex {
    /// Compile a case-insensitive pattern.
    pub fn new_case_insensitive(pattern: &str) -> Result<Regex, RegexError> {
        Regex::compile(pattern, true)
    }

    /// Compile a pattern, matching case-insensitively or not.
    pub(crate) fn compile(pattern: &str, case_insensitive: bool) -> Result<Regex, RegexError> {
        let mut parser = Parser::new(pattern);
        let node = parser.parse_alternation()?;
        if parser.chars.next().is_some() {
            return Err(RegexError("unmatched ')'".into()));
        }
        Ok(Regex {
            node,
            case_insensitive,
        })
    }

    /// Whether the pattern matches anywhere in `text`.
    pub(crate) fn is_match(&self, text: &str) -> bool {
        let haystack: Vec<char> = if self.case_insensitive {
            text.chars().flat_map(|c| c.to_lowercase()).collect()
        } else {
            text.chars().collect()
        };
        let node = if self.case_insensitive {
            lowercase_node(&self.node)
        } else {
            self.node.clone()
        };
        for start in 0..=haystack.len() {
            if match_here(&node, &haystack, start, start == 0).is_some() {
                return true;
            }
        }
        false
    }
}

fn lowercase_node(node: &Node) -> Node {
    match node {
        Node::Literal(c) => Node::Literal(c.to_lowercase().next().unwrap_or(*c)),
        Node::Class { negated, items } => Node::Class {
            negated: *negated,
            items: items
                .iter()
                .map(|i| match i {
                    ClassItem::Char(c) => ClassItem::Char(c.to_lowercase().next().unwrap_or(*c)),
                    ClassItem::Range(a, b) => ClassItem::Range(
                        a.to_lowercase().next().unwrap_or(*a),
                        b.to_lowercase().next().unwrap_or(*b),
                    ),
                })
                .collect(),
        },
        Node::Concat(parts) => Node::Concat(parts.iter().map(lowercase_node).collect()),
        Node::Alternate(parts) => Node::Alternate(parts.iter().map(lowercase_node).collect()),
        Node::Repeat { node, min, max } => Node::Repeat {
            node: Box::new(lowercase_node(node)),
            min: *min,
            max: *max,
        },
        other => other.clone(),
    }
}

/// Attempt to match `node` starting at `pos`; returns the end position on
/// success. `at_start` reports whether `pos` is the logical start of the
/// haystack (for `^`).
fn match_here(node: &Node, text: &[char], pos: usize, at_start: bool) -> Option<usize> {
    match node {
        Node::Empty => Some(pos),
        Node::Literal(c) => {
            if text.get(pos) == Some(c) {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::AnyChar => {
            if pos < text.len() {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::Class { negated, items } => {
            let c = *text.get(pos)?;
            let mut matched = false;
            for item in items {
                match item {
                    ClassItem::Char(x) if *x == c => matched = true,
                    ClassItem::Range(a, b) if c >= *a && c <= *b => matched = true,
                    _ => {}
                }
            }
            if matched != *negated {
                Some(pos + 1)
            } else {
                None
            }
        }
        Node::StartAnchor => {
            if pos == 0 {
                Some(pos)
            } else {
                None
            }
        }
        Node::EndAnchor => {
            if pos == text.len() {
                Some(pos)
            } else {
                None
            }
        }
        Node::Alternate(branches) => branches
            .iter()
            .find_map(|b| match_here(b, text, pos, at_start)),
        Node::Concat(parts) => match_sequence(parts, text, pos, at_start),
        Node::Repeat { node, min, max } => match_repeat(node, *min, *max, &[], text, pos, at_start),
    }
}

/// Match a sequence of nodes, with backtracking for repeats.
fn match_sequence(parts: &[Node], text: &[char], pos: usize, at_start: bool) -> Option<usize> {
    match parts.split_first() {
        None => Some(pos),
        Some((Node::Repeat { node, min, max }, rest)) => {
            match_repeat(node, *min, *max, rest, text, pos, at_start)
        }
        Some((first, rest)) => {
            let next = match_here(first, text, pos, at_start)?;
            match_sequence(rest, text, next, at_start && next == pos)
        }
    }
}

/// Greedy repeat with backtracking into the remainder of the sequence.
fn match_repeat(
    node: &Node,
    min: u32,
    max: Option<u32>,
    rest: &[Node],
    text: &[char],
    pos: usize,
    at_start: bool,
) -> Option<usize> {
    // Collect every reachable end position (0, 1, 2, ... repetitions).
    let mut ends = vec![pos];
    let mut current = pos;
    loop {
        if let Some(limit) = max {
            if ends.len() as u32 > limit {
                break;
            }
        }
        match match_here(node, text, current, at_start && current == pos) {
            Some(next) if next > current => {
                ends.push(next);
                current = next;
            }
            // Zero-width or failed repetition — stop expanding.
            _ => break,
        }
    }
    // Try the longest expansions first (greedy), respecting min/max.
    for (count, &end) in ends.iter().enumerate().rev() {
        if (count as u32) < min {
            break;
        }
        if let Some(limit) = max {
            if count as u32 > limit {
                continue;
            }
        }
        if let Some(final_end) = match_sequence(rest, text, end, at_start && end == pos) {
            return Some(final_end);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(pattern: &str, text: &str) -> bool {
        Regex::compile(pattern, false).unwrap().is_match(text)
    }

    #[test]
    fn literals_and_find_semantics() {
        assert!(matches("ramen", "best ramen in town"));
        assert!(!matches("ramen", "best sushi in town"));
        assert!(matches("", "anything"));
        assert!(matches("a", "a"));
        assert!(!matches("a", ""));
    }

    #[test]
    fn dot_and_quantifiers() {
        assert!(matches("r.men", "ramen"));
        assert!(matches("ra*men", "rmen"));
        assert!(matches("ra*men", "raaaamen"));
        assert!(matches("ra+men", "ramen"));
        assert!(!matches("ra+men", "rmen"));
        assert!(matches("colou?r", "color"));
        assert!(matches("colou?r", "colour"));
        assert!(matches("a.*z", "a lot of text then z"));
        assert!(!matches("a.+z", "az"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(matches("cat|dog", "hotdog stand"));
        assert!(matches("cat|dog", "catalogue"));
        assert!(!matches("cat|dog", "bird"));
        assert!(matches("(fur|scaly) art", "new fur art today"));
        assert!(matches("(ab)+c", "ababc"));
        assert!(!matches("(ab)+c", "ac"));
        assert!(matches("gr(e|a)y", "gray"));
        assert!(matches("gr(e|a)y", "grey"));
    }

    #[test]
    fn character_classes() {
        assert!(matches("[abc]at", "bat"));
        assert!(!matches("[abc]at", "rat"));
        assert!(matches("[a-z]+", "word"));
        assert!(matches("[0-9]", "5"));
        assert!(matches("[^0-9]", "x"));
        assert!(!matches("^[^0-9]+$", "123"));
        assert!(matches(r"\d\d\d", "abc 123"));
        assert!(matches(r"\w+", "word_123"));
        assert!(matches(r"\s", "a b"));
        assert!(matches(r"ko-fi\.com", "support me on ko-fi.com please"));
        assert!(!matches(r"ko-fi\.com", "kozfizcom"));
    }

    #[test]
    fn anchors() {
        assert!(matches("^ramen", "ramen shop"));
        assert!(!matches("^ramen", "best ramen"));
        assert!(matches("shop$", "ramen shop"));
        assert!(!matches("shop$", "shopping"));
        assert!(matches("^exact$", "exact"));
        assert!(!matches("^exact$", "not exact"));
        assert!(matches("^$", ""));
        assert!(!matches("^$", "x"));
    }

    #[test]
    fn case_insensitive_mode() {
        let re = Regex::new_case_insensitive("RAMEN|ラーメン").unwrap();
        assert!(re.is_match("Best Ramen"));
        assert!(re.is_match("ラーメン食べたい"));
        assert!(!re.is_match("sushi"));
        let sensitive = Regex::compile("RAMEN", false).unwrap();
        assert!(!sensitive.is_match("ramen"));
    }

    #[test]
    fn unicode_text() {
        assert!(matches("ラーメン", "今日はラーメンを食べた"));
        assert!(matches("caf.", "café"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::compile("(unclosed", false).is_err());
        assert!(Regex::compile("unopened)", false).is_err());
        assert!(Regex::compile("[unclosed", false).is_err());
        assert!(Regex::compile("*leading", false).is_err());
        assert!(Regex::compile("trailing\\", false).is_err());
        assert!(Regex::compile("[z-a]", false).is_err());
        assert_eq!(
            Regex::compile("(a", false).unwrap_err().to_string(),
            "invalid regex: unclosed group"
        );
    }

    #[test]
    fn pathological_backtracking_is_bounded() {
        // (a+)+b against a long run of 'a' with no 'b' — our repeat collapses
        // equal-length expansions so this completes quickly.
        let re = Regex::compile("(a+)+b", false).unwrap();
        let text = "a".repeat(64);
        assert!(!re.is_match(&text));
        assert!(re.is_match(&format!("{}b", "a".repeat(64))));
    }
}
