//! NFA-based pattern matching — §4's exhibit for control flow in hardware.
//!
//! "Hardware actually excels at control flow, as evidenced by the
//! ubiquitous finite state automaton, particularly non-deterministic finite
//! state automata (NFA), which employ hardware parallelism to great effect.
//! … good regular expression matching and XPath projection algorithms
//! employ NFA, whose fine-grained parallelism is easily captured in
//! hardware \[13\] but leads to extremely inefficient software
//! implementations."
//!
//! This module provides exactly that comparison: a regex subset compiled by
//! Thompson's construction into an [`Nfa`]; a software simulation that
//! tracks the active-state set byte by byte (cost ∝ active states × input
//! length — the inefficiency §4 blames); and a skeleton-automata hardware
//! model ([`NfaEngine`]) that evaluates *every* state in parallel each
//! cycle, so cost is one fabric cycle per byte no matter how non-
//! deterministic the pattern is.
//!
//! Supported syntax: literals, `.`, `[abc]`, `[a-z]`, `*`, `+`, `?`, `|`,
//! and `(`…`)` grouping. Matching is unanchored (search semantics, the
//! LIKE-style filtering a Netezza-class scanner performs).

use bionic_sim::energy::Energy;
use bionic_sim::fpga::{FpgaFabric, FpgaUnit, OutOfArea};
use bionic_sim::time::SimTime;

/// A 256-bit byte-class bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteClass([u64; 4]);

impl ByteClass {
    fn empty() -> Self {
        ByteClass([0; 4])
    }

    fn any() -> Self {
        ByteClass([u64::MAX; 4])
    }

    fn single(b: u8) -> Self {
        let mut c = Self::empty();
        c.insert(b);
        c
    }

    fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1 << (b & 63);
    }

    fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    /// Does the class contain `b`?
    pub fn contains(&self, b: u8) -> bool {
        self.0[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }
}

#[derive(Debug, Clone)]
enum Edge {
    /// Consume a byte in the class, go to `to`.
    Byte(ByteClass, usize),
    /// Epsilon transition.
    Eps(usize),
}

/// Parse error for the regex subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Human-readable description.
    pub what: &'static str,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "regex parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Cost accounting for one software NFA simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Input bytes consumed.
    pub bytes: u64,
    /// State-set membership operations (the §4 software inefficiency).
    pub state_visits: u64,
    /// Peak simultaneous active states.
    pub max_active: usize,
}

/// A Thompson-construction NFA with search (unanchored) semantics.
///
/// ```
/// use bionic_scan::Nfa;
///
/// let nfa = Nfa::compile("err(or)?|panic").unwrap();
/// assert!(nfa.is_match(b"12:00 kernel panic!"));
/// assert!(nfa.is_match(b"err 42"));
/// assert!(!nfa.is_match(b"all fine"));
/// ```
#[derive(Debug, Clone)]
pub struct Nfa {
    edges: Vec<Vec<Edge>>, // per-state out-edges
    start: usize,
    accept: usize,
    pattern: String,
}

// ---- parser: recursive descent over alt -> concat -> repeat -> atom ----

/// Deepest group nesting [`Nfa::compile`] accepts. The parser recurses
/// once per `(`, so without a bound a hostile pattern of a thousand
/// nested groups overflows a 2 MB thread stack; no real scan predicate
/// comes near this.
pub const MAX_GROUP_DEPTH: usize = 64;

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
    /// (start, accept) fragments are built directly into `edges`.
    edges: Vec<Vec<Edge>>,
}

type Frag = (usize, usize);

impl<'a> Parser<'a> {
    fn new_state(&mut self) -> usize {
        self.edges.push(Vec::new());
        self.edges.len() - 1
    }

    fn link(&mut self, from: usize, e: Edge) {
        self.edges[from].push(e);
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn alt(&mut self) -> Result<Frag, ParseError> {
        let first = self.concat()?;
        if self.peek() != Some(b'|') {
            return Ok(first);
        }
        let start = self.new_state();
        let accept = self.new_state();
        self.link(start, Edge::Eps(first.0));
        self.link(first.1, Edge::Eps(accept));
        while self.peek() == Some(b'|') {
            self.pos += 1;
            let alt = self.concat()?;
            self.link(start, Edge::Eps(alt.0));
            self.link(alt.1, Edge::Eps(accept));
        }
        Ok((start, accept))
    }

    fn concat(&mut self) -> Result<Frag, ParseError> {
        let mut frag: Option<Frag> = None;
        while let Some(c) = self.peek() {
            if c == b'|' || c == b')' {
                break;
            }
            let next = self.repeat()?;
            frag = Some(match frag {
                None => next,
                Some((s, a)) => {
                    self.link(a, Edge::Eps(next.0));
                    (s, next.1)
                }
            });
        }
        match frag {
            Some(f) => Ok(f),
            None => {
                // Empty branch: a single epsilon fragment.
                let s = self.new_state();
                let a = self.new_state();
                self.link(s, Edge::Eps(a));
                Ok((s, a))
            }
        }
    }

    fn repeat(&mut self) -> Result<Frag, ParseError> {
        let atom = self.atom()?;
        match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                let s = self.new_state();
                let a = self.new_state();
                self.link(s, Edge::Eps(atom.0));
                self.link(s, Edge::Eps(a));
                self.link(atom.1, Edge::Eps(atom.0));
                self.link(atom.1, Edge::Eps(a));
                Ok((s, a))
            }
            Some(b'+') => {
                self.pos += 1;
                let a = self.new_state();
                self.link(atom.1, Edge::Eps(atom.0));
                self.link(atom.1, Edge::Eps(a));
                Ok((atom.0, a))
            }
            Some(b'?') => {
                self.pos += 1;
                let s = self.new_state();
                let a = self.new_state();
                self.link(s, Edge::Eps(atom.0));
                self.link(s, Edge::Eps(a));
                self.link(atom.1, Edge::Eps(a));
                Ok((s, a))
            }
            _ => Ok(atom),
        }
    }

    fn atom(&mut self) -> Result<Frag, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unexpected end"))?;
        match c {
            b'(' => {
                if self.depth == MAX_GROUP_DEPTH {
                    return Err(self.err("groups nested too deeply"));
                }
                self.pos += 1;
                self.depth += 1;
                let inner = self.alt()?;
                if self.peek() != Some(b')') {
                    return Err(self.err("unclosed group"));
                }
                self.pos += 1;
                self.depth -= 1;
                Ok(inner)
            }
            b'[' => {
                self.pos += 1;
                let class = self.class()?;
                Ok(self.byte_frag(class))
            }
            b'.' => {
                self.pos += 1;
                Ok(self.byte_frag(ByteClass::any()))
            }
            b'*' | b'+' | b'?' => Err(self.err("repetition of nothing")),
            b')' | b'|' => Err(self.err("unexpected metacharacter")),
            b'\\' => {
                self.pos += 1;
                let lit = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                self.pos += 1;
                Ok(self.byte_frag(ByteClass::single(lit)))
            }
            lit => {
                self.pos += 1;
                Ok(self.byte_frag(ByteClass::single(lit)))
            }
        }
    }

    fn byte_frag(&mut self, class: ByteClass) -> Frag {
        let s = self.new_state();
        let a = self.new_state();
        self.link(s, Edge::Byte(class, a));
        (s, a)
    }

    fn class(&mut self) -> Result<ByteClass, ParseError> {
        let mut class = ByteClass::empty();
        loop {
            let c = self.peek().ok_or_else(|| self.err("unclosed class"))?;
            if c == b']' {
                self.pos += 1;
                return Ok(class);
            }
            self.pos += 1;
            // Range a-z (a lone trailing '-' is a literal).
            if self.peek() == Some(b'-') && self.b.get(self.pos + 1) != Some(&b']') {
                self.pos += 1;
                let hi = self.peek().ok_or_else(|| self.err("unclosed class"))?;
                self.pos += 1;
                if hi < c {
                    return Err(self.err("descending range"));
                }
                class.insert_range(c, hi);
            } else {
                class.insert(c);
            }
        }
    }
}

impl Nfa {
    /// Compile a pattern. Groups nested deeper than [`MAX_GROUP_DEPTH`]
    /// are a [`ParseError`].
    pub fn compile(pattern: &str) -> Result<Nfa, ParseError> {
        let mut p = Parser {
            b: pattern.as_bytes(),
            pos: 0,
            depth: 0,
            edges: Vec::new(),
        };
        let (start, accept) = p.alt()?;
        if p.pos != p.b.len() {
            return Err(p.err("trailing input"));
        }
        Ok(Nfa {
            edges: p.edges,
            start,
            accept,
            pattern: pattern.to_string(),
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of NFA states (hardware area proxy: one flip-flop each \[13\]).
    pub fn state_count(&self) -> usize {
        self.edges.len()
    }

    fn eps_closure(&self, set: &mut [bool], stack: &mut Vec<usize>, stats: &mut SimStats) {
        while let Some(s) = stack.pop() {
            for e in &self.edges[s] {
                if let Edge::Eps(to) = e {
                    stats.state_visits += 1;
                    if !set[*to] {
                        set[*to] = true;
                        stack.push(*to);
                    }
                }
            }
        }
    }

    /// Unanchored search (does any substring match?), with cost accounting.
    pub fn search_with_stats(&self, input: &[u8]) -> (bool, SimStats) {
        let mut stats = SimStats::default();
        let n = self.edges.len();
        let mut current = vec![false; n];
        let mut stack = Vec::with_capacity(n);

        // Seed with start (unanchored: re-seeded every byte).
        current[self.start] = true;
        stack.push(self.start);
        self.eps_closure(&mut current, &mut stack, &mut stats);
        if current[self.accept] {
            return (true, stats);
        }

        let mut next = vec![false; n];
        for &b in input {
            stats.bytes += 1;
            next.iter_mut().for_each(|x| *x = false);
            let mut active = 0;
            for (s, is_active) in current.iter().enumerate() {
                if !is_active {
                    continue;
                }
                active += 1;
                for e in &self.edges[s] {
                    stats.state_visits += 1;
                    if let Edge::Byte(class, to) = e {
                        if class.contains(b) && !next[*to] {
                            next[*to] = true;
                            stack.push(*to);
                        }
                    }
                }
            }
            stats.max_active = stats.max_active.max(active);
            // Unanchored: the start state is always live.
            if !next[self.start] {
                next[self.start] = true;
                stack.push(self.start);
            }
            std::mem::swap(&mut current, &mut next);
            self.eps_closure(&mut current, &mut stack, &mut stats);
            if current[self.accept] {
                return (true, stats);
            }
        }
        (false, stats)
    }

    /// Unanchored search without cost accounting.
    pub fn is_match(&self, input: &[u8]) -> bool {
        self.search_with_stats(input).0
    }
}

/// The skeleton-automata hardware matcher (\[13\] in the paper): every NFA
/// state is a flip-flop updated in parallel, one input byte per fabric
/// cycle — cost is independent of how non-deterministic the pattern is.
#[derive(Debug)]
pub struct NfaEngine {
    unit: FpgaUnit,
    energy_per_state_byte: Energy,
}

impl NfaEngine {
    /// Place the matcher on a fabric. Area scales with the automaton size
    /// it must host (`max_states`).
    pub fn place(fabric: &mut FpgaFabric, max_states: usize) -> Result<Self, OutOfArea> {
        let unit = fabric.place(
            "nfa-matcher",
            1,
            64,
            Energy::ZERO, // charged per byte below
            2_000 + 20 * max_states as u64,
        )?;
        Ok(NfaEngine {
            unit,
            energy_per_state_byte: Energy::from_pj(0.5),
        })
    }

    /// Stream `bytes` of input through an `nfa`-shaped automaton starting
    /// at `arrive`: one byte per cycle, all states in parallel.
    pub fn scan(&mut self, arrive: SimTime, nfa: &Nfa, bytes: u64) -> (SimTime, Energy) {
        let (first, _) = self.unit.submit(arrive);
        let done = first + self.unit.clock_period() * bytes.saturating_sub(1);
        let energy = self.energy_per_state_byte * (bytes * nfa.state_count() as u64);
        (done, energy)
    }

    /// Throughput in bytes/second (one byte per fabric cycle).
    pub fn bytes_per_sec(&self) -> f64 {
        1.0 / self.unit.clock_period().as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, input: &str) -> bool {
        Nfa::compile(pat).unwrap().is_match(input.as_bytes())
    }

    #[test]
    fn literals_are_substring_search() {
        assert!(m("abc", "xxabcxx"));
        assert!(m("abc", "abc"));
        assert!(!m("abc", "abdc"));
        assert!(m("", "anything")); // empty pattern matches everywhere
    }

    #[test]
    fn dot_and_classes() {
        assert!(m("a.c", "zabcz"));
        assert!(m("a.c", "axc"));
        assert!(!m("a.c", "ac"));
        assert!(m("[abc]x", "cx"));
        assert!(!m("[abc]x", "dx"));
        assert!(m("[a-f]9", "e9"));
        assert!(!m("[a-f]9", "g9"));
        assert!(m("[a-]z", "-z"), "trailing dash is literal");
    }

    #[test]
    fn repetition() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("cat|dog", "catnip"));
        assert!(!m("cat|dog", "bird"));
        assert!(m("(ab|cd)+e", "xxabcdabe"));
        assert!(m("gr(a|e)y", "grey"));
        assert!(m("gr(a|e)y", "gray"));
        assert!(!m("gr(a|e)y", "griy"));
    }

    #[test]
    fn escapes() {
        assert!(m(r"a\.c", "a.c"));
        assert!(!m(r"a\.c", "abc"));
        assert!(m(r"a\|b", "a|b"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Nfa::compile("(ab").is_err());
        assert!(Nfa::compile("*a").is_err());
        assert!(Nfa::compile("[abc").is_err());
        assert!(Nfa::compile("a)b").is_err());
        assert!(Nfa::compile("[z-a]").is_err());
        let e = Nfa::compile("ab)").unwrap_err();
        assert_eq!(e.at, 2);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |d: usize| format!("{}a{}", "(".repeat(d), ")".repeat(d));
        let nfa = Nfa::compile(&nested(MAX_GROUP_DEPTH)).expect("at the bound");
        assert!(nfa.is_match(b"xa"));
        let e = Nfa::compile(&nested(MAX_GROUP_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (e.at, e.what),
            (MAX_GROUP_DEPTH, "groups nested too deeply")
        );
        // Ten thousand levels, open or closed, on a small thread stack.
        let deep = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(move || {
                let closed = Nfa::compile(&nested(10_000)).map(|_| ());
                let open = Nfa::compile(&"(".repeat(10_000)).map(|_| ());
                (closed, open)
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert_eq!(deep.0.unwrap_err().at, MAX_GROUP_DEPTH);
        assert_eq!(deep.1.unwrap_err().at, MAX_GROUP_DEPTH);
        // Siblings do not nest: depth is what is open, not what was seen.
        let wide = "(a)".repeat(MAX_GROUP_DEPTH * 4);
        assert!(Nfa::compile(&wide).is_ok());
    }

    #[test]
    fn pathological_nondeterminism_costs_software_dearly() {
        // (a|aa)+ on a long run of 'a's keeps many states active: the §4
        // claim that NFAs are "extremely inefficient" in software.
        let nfa = Nfa::compile("(a|aa)+b").unwrap();
        let input = vec![b'a'; 200];
        let (hit, stats) = nfa.search_with_stats(&input);
        assert!(!hit);
        assert!(stats.max_active >= 3);
        // Far more state work than bytes: the software tax.
        assert!(
            stats.state_visits > 5 * stats.bytes,
            "visits={} bytes={}",
            stats.state_visits,
            stats.bytes
        );
    }

    #[test]
    fn hardware_cost_is_flat_per_byte() {
        let mut fabric = FpgaFabric::hc2();
        let simple = Nfa::compile("abc").unwrap();
        let gnarly = Nfa::compile("(a|aa)+(b|bb)+(c|cc)+").unwrap();
        let mut eng = NfaEngine::place(&mut fabric, 64).unwrap();
        let (t1, _) = eng.scan(SimTime::ZERO, &simple, 10_000);
        let mut fabric2 = FpgaFabric::hc2();
        let mut eng2 = NfaEngine::place(&mut fabric2, 64).unwrap();
        let (t2, _) = eng2.scan(SimTime::ZERO, &gnarly, 10_000);
        // Same wall time regardless of pattern complexity: 1 byte/cycle.
        assert_eq!(t1, t2);
        assert!((eng.bytes_per_sec() - 200e6).abs() < 1.0);
    }

    #[test]
    fn hardware_area_scales_with_states() {
        let mut fabric = FpgaFabric::hc2();
        let before = fabric.free_slices();
        NfaEngine::place(&mut fabric, 256).unwrap();
        let used = before - fabric.free_slices();
        assert_eq!(used, 2_000 + 20 * 256);
    }

    #[test]
    fn stats_track_bytes_until_first_hit() {
        let nfa = Nfa::compile("needle").unwrap();
        let mut input = vec![b'x'; 1000];
        input.extend_from_slice(b"needle");
        input.extend(vec![b'x'; 1000]);
        let (hit, stats) = nfa.search_with_stats(&input);
        assert!(hit);
        // Early exit on match: doesn't scan the trailing kilobyte.
        assert!(stats.bytes <= 1006 + 1, "bytes={}", stats.bytes);
    }
}
