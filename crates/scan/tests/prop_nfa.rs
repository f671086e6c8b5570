//! Hostile pattern text: the NFA compiler returns `Ok` or a `ParseError`
//! for any input and never panics, and whatever compiles also runs.

use bionic_scan::nfa::Nfa;
use proptest::prelude::*;

/// Every metacharacter the parser knows, a few literals and one
/// multi-byte character, so errors can land mid-codepoint; `(` twice,
/// so nested groups are common.
const ALPHABET: [char; 16] = [
    '(', ')', '[', ']', '|', '*', '+', '?', '.', '\\', '-', 'a', 'b', 'z', 'é', '(',
];

fn pattern(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

fn compile_and_run(pat: &str) -> Result<(), TestCaseError> {
    match Nfa::compile(pat) {
        Ok(nfa) => {
            let (hit, stats) = nfa.search_with_stats(b"zab(a)b-ba\xc3\xa9");
            prop_assert_eq!(
                hit,
                nfa.is_match(b"zab(a)b-ba\xc3\xa9"),
                "pattern {:?}",
                pat
            );
            prop_assert!(stats.bytes <= 12);
        }
        Err(e) => prop_assert!(e.at <= pat.len(), "pattern {:?}: {}", pat, e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn compiling_metacharacter_soup_never_panics(pat in pattern(40)) {
        compile_and_run(&pat)?;
    }

    #[test]
    fn compiling_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        compile_and_run(&String::from_utf8_lossy(&bytes))?;
    }
}
